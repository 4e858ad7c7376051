//! The memory-address-divergence tool (paper Listing 8 / Figure 6).
//!
//! For every warp-level global memory instruction, the injected device
//! function reconstructs each lane's effective address and finds the active
//! lanes touching the same 128-byte cache line; the lowest such lane of
//! each distinct line adds 1 to a global unique-lines counter while the
//! warp leader bumps the memory-instruction counter. (Listing 8 has every
//! lane add `1/cnt` in floating point — the same quantity, but its sum
//! depends on the order CTAs retire; the integer count is exact and
//! order-free.) The reported metric is *average unique cache lines
//! requested per warp-level global memory instruction*.
//!
//! `include_libraries = false` reproduces the compiler-based-instrumentation
//! view: pre-compiled library kernels are left uninstrumented, which
//! distorts the result exactly as Figure 6 shows.

use crate::read_u64;
use cuda::{CbId, CbParams, Driver};
use nvbit::{IPoint, NvbitApi, NvbitTool};
use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

/// The injected device function. Arguments: guard predicate, 64-bit base
/// register value, immediate offset, counter-block address
/// (`u64 mem_instrs` at +0, `u64 uniq_lines` at +8).
pub(crate) const MDIV_FN: &str = r#"
.func nvbit_mdiv(.reg .u32 %pred, .reg .u64 %base, .reg .u32 %off, .reg .u64 %ctrs)
{
    .reg .u32 %r<16>;
    .reg .u64 %rd<8>;
    .reg .pred %p<4>;
    // A false predicate value means the instrumented instruction is not
    // actually executing (Listing 8, line 9).
    setp.eq.u32 %p1, %pred, 0;
    @%p1 ret;
    // Effective address and 128-byte line id.
    cvt.s64.s32 %rd1, %off;
    add.u64 %rd2, %base, %rd1;
    shr.b64 %rd3, %rd2, 7;
    cvt.u32.u64 %r1, %rd3;      // line lo
    shr.b64 %rd4, %rd3, 32;
    cvt.u32.u64 %r2, %rd4;      // line hi
    // Active mask of the warp (Listing 8, line 15).
    vote.ballot.b32 %r3, !%p1;
    // Leader = lowest active lane (increments the instruction counter).
    mov.u32 %r4, 0;
    sub.u32 %r4, %r4, %r3;
    and.b32 %r4, %r4, %r3;      // lowest set bit
    mov.u32 %r5, %laneid;
    mov.u32 %r6, 1;
    shl.b32 %r6, %r6, %r5;      // my bit
    setp.eq.u32 %p2, %r6, %r4;
    mov.u64 %rd5, 1;
    @%p2 atom.global.add.u64 %rd6, [%ctrs], %rd5;
    // Count active lanes *below me* sharing my cache line.
    mov.u32 %r7, 0;             // cnt
    mov.u32 %r8, 0;             // l
LOOP:
    setp.ge.u32 %p3, %r8, 32;
    @%p3 bra REDUCE;
    shfl.idx.b32 %r9, %r1, %r8;
    shfl.idx.b32 %r10, %r2, %r8;
    xor.b32 %r9, %r9, %r1;
    xor.b32 %r10, %r10, %r2;
    or.b32 %r9, %r9, %r10;
    setp.eq.u32 %p3, %r9, 0;    // same line?
    shr.u32 %r11, %r3, %r8;
    and.b32 %r11, %r11, 1;      // lane l active?
    selp.b32 %r12, %r11, 0, %p3;
    setp.lt.u32 %p3, %r8, %r5;  // lane l below mine?
    selp.b32 %r12, %r12, 0, %p3;
    add.u32 %r7, %r7, %r12;
    add.u32 %r8, %r8, 1;
    bra LOOP;
REDUCE:
    // The lowest active lane of each distinct line counts it once (the
    // integer form of Listing 8, line 29's per-thread 1/cnt).
    setp.ne.u32 %p3, %r7, 0;
    @%p3 ret;
    add.u64 %rd7, %ctrs, 8;
    atom.global.add.u64 %rd6, [%rd7], %rd5;
    ret;
}
"#;

/// Results handle of [`MemDivergence`].
#[derive(Debug, Default)]
pub struct MemDivergenceResults {
    mem_instrs: RefCell<u64>,
    uniq_lines: RefCell<u64>,
}

impl MemDivergenceResults {
    /// Warp-level global memory instructions observed.
    pub fn mem_instructions(&self) -> u64 {
        *self.mem_instrs.borrow()
    }

    /// Distinct cache lines requested, summed over every warp-level
    /// global memory instruction.
    pub fn unique_lines(&self) -> u64 {
        *self.uniq_lines.borrow()
    }

    /// Average unique cache lines per warp-level memory instruction — the
    /// Figure 6 metric.
    pub fn average(&self) -> f64 {
        let m = self.mem_instructions();
        if m == 0 {
            0.0
        } else {
            self.unique_lines() as f64 / m as f64
        }
    }
}

/// The divergence tool.
pub struct MemDivergence {
    include_libraries: bool,
    results: Rc<MemDivergenceResults>,
    counters: u64,
    seen: HashSet<u32>,
}

impl MemDivergence {
    /// Creates the tool. With `include_libraries = false` the tool skips
    /// library kernels, emulating a compiler-based approach that cannot see
    /// into pre-compiled binaries.
    pub fn new(include_libraries: bool) -> (MemDivergence, Rc<MemDivergenceResults>) {
        let results = Rc::new(MemDivergenceResults::default());
        (
            MemDivergence {
                include_libraries,
                results: results.clone(),
                counters: 0,
                seen: HashSet::new(),
            },
            results,
        )
    }

    fn publish(&self, drv: &Driver) {
        if self.counters == 0 {
            return;
        }
        *self.results.mem_instrs.borrow_mut() = read_u64(drv, self.counters);
        *self.results.uniq_lines.borrow_mut() = read_u64(drv, self.counters + 8);
    }
}

impl NvbitTool for MemDivergence {
    fn at_init(&mut self, api: &NvbitApi<'_>) {
        api.load_tool_functions(MDIV_FN).expect("tool functions compile");
        self.counters = api.driver().with_device(|d| d.alloc(16)).expect("counter alloc");
    }

    fn at_term(&mut self, api: &NvbitApi<'_>) {
        self.publish(api.driver());
    }

    fn at_cuda_event(
        &mut self,
        api: &NvbitApi<'_>,
        is_exit: bool,
        cbid: CbId,
        params: &CbParams<'_>,
    ) {
        let CbParams::LaunchKernel { func, .. } = params else { return };
        if cbid != CbId::LaunchKernel {
            return;
        }
        if is_exit {
            self.publish(api.driver());
            return;
        }
        if !self.seen.insert(func.raw()) {
            return;
        }
        // Reproduce a compiler-based tool by refusing to look inside
        // pre-compiled libraries.
        if !self.include_libraries && api.is_library_function(*func).unwrap_or(false) {
            return;
        }
        let mut targets = vec![*func];
        targets.extend(api.get_related_funcs(*func).unwrap_or_default());
        let mut sites = 0u64;
        for t in targets {
            for instr in api.get_instrs(t).expect("inspection").iter() {
                if instr.mem_space() != Some(sass::MemSpace::Global) {
                    continue;
                }
                let Some((base, offset)) = instr.mref() else { continue };
                api.insert_call(t, instr.idx, "nvbit_mdiv", IPoint::Before).unwrap();
                api.add_call_arg_guard_pred(t, instr.idx).unwrap();
                api.add_call_arg_reg_val64(t, instr.idx, base.0).unwrap();
                api.add_call_arg_imm32(t, instr.idx, offset).unwrap();
                api.add_call_arg_imm64(t, instr.idx, self.counters).unwrap();
                sites += 1;
            }
            if t != *func {
                api.enable_instrumented(t, true).unwrap();
            }
        }
        common::obs::counter("tool.mem_divergence.sites", sites);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuda::{FatBinary, KernelArg};
    use gpu::{DeviceSpec, Dim3};
    use nvbit::attach_tool;
    use sass::Arch;

    /// Kernel with perfectly coalesced accesses: 1 line per warp access.
    const COALESCED: &str = r#"
.entry co(.param .u64 buf)
{
    .reg .u32 %r<4>;
    .reg .u64 %rd<4>;
    ld.param.u64 %rd1, [buf];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd2, %r1, 4;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.u32 %r2, [%rd3];
    st.global.u32 [%rd3], %r2;
    exit;
}
"#;

    /// Strided accesses: every lane in its own line (32 lines per access).
    const STRIDED: &str = r#"
.entry str(.param .u64 buf)
{
    .reg .u32 %r<4>;
    .reg .u64 %rd<4>;
    ld.param.u64 %rd1, [buf];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd2, %r1, 128;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.u32 %r2, [%rd3];
    exit;
}
"#;

    fn measure(src: &str, kernel: &str, bufsize: u64) -> f64 {
        let drv = Driver::new(DeviceSpec::test(Arch::Volta));
        let (tool, results) = MemDivergence::new(true);
        attach_tool(&drv, tool);
        let ctx = drv.ctx_create().unwrap();
        let m = drv.module_load(&ctx, FatBinary::from_ptx("app", src)).unwrap();
        let f = drv.module_get_function(&m, kernel).unwrap();
        let buf = drv.mem_alloc(bufsize).unwrap();
        drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(32), &[KernelArg::Ptr(buf)]).unwrap();
        drv.shutdown();
        results.average()
    }

    #[test]
    fn coalesced_accesses_average_one_line() {
        let avg = measure(COALESCED, "co", 4096);
        assert!((avg - 1.0).abs() < 0.05, "coalesced average {avg}");
    }

    #[test]
    fn strided_accesses_average_32_lines() {
        let avg = measure(STRIDED, "str", 32 * 128 + 256);
        assert!((avg - 32.0).abs() < 0.5, "strided average {avg}");
    }

    #[test]
    fn excluding_libraries_changes_the_measurement() {
        use workloads::ml_model;
        let run = |include: bool| {
            let drv = Driver::new(DeviceSpec::test(Arch::Volta));
            let (tool, results) = MemDivergence::new(include);
            attach_tool(&drv, tool);
            ml_model("enet").unwrap().run(&drv).unwrap();
            drv.shutdown();
            (results.average(), results.mem_instructions())
        };
        let (with_libs, n_with) = run(true);
        let (without_libs, n_without) = run(false);
        assert!(n_with > n_without, "library kernels dominate the instruction stream");
        // Excluding the well-coalesced libraries overestimates divergence
        // (Figure 6's key claim).
        assert!(
            without_libs > with_libs,
            "expected exclusion to overestimate: {without_libs} <= {with_libs}"
        );
    }
}
