//! Differential testing of liveness-driven save sizing (paper §5.1): for
//! every tool × workload pair, an instrumented run under the default
//! liveness-reduced save policy must produce bit-identical guest memory and
//! identical tool output to a run under the conservative full-tier policy.
//! The only observable difference may be cost (fewer saved register slots).

use common::channel::Backpressure;
use cuda::{CbId, CbParams, CuFunction, Driver, FatBinary, KernelArg};
use gpu::{DeviceSpec, Dim3, Scheduler};
use nvbit::{attach_tool, IPoint, NvbitApi, NvbitTool, PlanOpts, SavePolicy, SaveStats};
use nvbit_tools::{
    BbInstrCount, CoalescedInstrCount, InstrCount, MemDivergence, MemTrace, OpcodeHistogram,
    SamplingMode, WfftEmu,
};
use sass::Arch;
use std::cell::RefCell;
use std::rc::Rc;
use workloads::{apps, fft};

/// Wraps a tool so the save policy is fixed before anything is lifted or
/// instrumented.
struct WithPolicy<T> {
    policy: SavePolicy,
    inner: T,
}

impl<T: NvbitTool> NvbitTool for WithPolicy<T> {
    fn at_init(&mut self, api: &NvbitApi<'_>) {
        api.set_save_policy(self.policy);
        self.inner.at_init(api);
    }
    fn at_term(&mut self, api: &NvbitApi<'_>) {
        self.inner.at_term(api);
    }
    fn at_ctx_init(&mut self, api: &NvbitApi<'_>, ctx: cuda::CuContext) {
        self.inner.at_ctx_init(api, ctx);
    }
    fn at_ctx_term(&mut self, api: &NvbitApi<'_>, ctx: cuda::CuContext) {
        self.inner.at_ctx_term(api, ctx);
    }
    fn at_cuda_event(
        &mut self,
        api: &NvbitApi<'_>,
        is_exit: bool,
        cbid: CbId,
        params: &CbParams<'_>,
    ) {
        self.inner.at_cuda_event(api, is_exit, cbid, params);
    }
}

/// Sums the effective address of every executed global access, observed
/// *after* the access: `IPoint::After` sites whose `RegVal64` argument names
/// a base pair inside the spliced body's own register window (the kernels
/// address through R4:R5 and R8:R9), guarded by the site's predicate. The
/// sum and the count are order-free, so any scheduler may run it.
struct AddrSumAfter {
    /// Device address of `[sum: u64, count: u64]`.
    acc: u64,
    seen: std::collections::HashSet<u32>,
    out: Rc<RefCell<(u64, u64)>>,
}

const ADDR_SUM_FN: &str = r#"
.func addr_sum(.reg .u32 %pred, .reg .u64 %base, .reg .u32 %off, .reg .u64 %acc)
{
    .reg .u64 %rd<5>;
    .reg .pred %p<2>;
    setp.eq.u32 %p1, %pred, 0;
    @%p1 ret;
    cvt.s64.s32 %rd1, %off;
    add.u64 %rd2, %base, %rd1;
    atom.global.add.u64 %rd3, [%acc], %rd2;
    mov.u64 %rd4, 1;
    atom.global.add.u64 %rd3, [%acc+8], %rd4;
    ret;
}
"#;

impl NvbitTool for AddrSumAfter {
    fn at_init(&mut self, api: &NvbitApi<'_>) {
        api.load_tool_functions(ADDR_SUM_FN).unwrap();
        self.acc = api.driver().with_device(|d| d.alloc(16)).unwrap();
    }
    fn at_term(&mut self, api: &NvbitApi<'_>) {
        let mut b = [0u8; 16];
        api.driver().memcpy_dtoh(&mut b, self.acc).unwrap();
        let word = |i: usize| u64::from_le_bytes(b[8 * i..8 * i + 8].try_into().unwrap());
        *self.out.borrow_mut() = (word(0), word(1));
    }
    fn at_cuda_event(
        &mut self,
        api: &NvbitApi<'_>,
        is_exit: bool,
        cbid: CbId,
        params: &CbParams<'_>,
    ) {
        let CbParams::LaunchKernel { func, .. } = params else { return };
        if is_exit || cbid != CbId::LaunchKernel || !self.seen.insert(func.raw()) {
            return;
        }
        for instr in api.get_instrs(*func).unwrap().iter() {
            if instr.mem_space() != Some(sass::MemSpace::Global) {
                continue;
            }
            let Some((base, offset)) = instr.mref() else { continue };
            api.insert_call(*func, instr.idx, "addr_sum", IPoint::After).unwrap();
            api.add_call_arg_guard_pred(*func, instr.idx).unwrap();
            api.add_call_arg_reg_val64(*func, instr.idx, base.0).unwrap();
            api.add_call_arg_imm32(*func, instr.idx, offset).unwrap();
            api.add_call_arg_imm64(*func, instr.idx, self.acc).unwrap();
        }
    }
}

// ----- Workload applications (each returns its guest output bytes) --------

/// The software warp-FFT pipeline over unit-magnitude input, two warps.
fn fft_app(drv: &Driver) -> Vec<u8> {
    apps::fft_soft(drv, 2, 1).unwrap()
}

/// A 5-point stencil step (grid-determined control flow).
fn stencil_app(drv: &Driver) -> Vec<u8> {
    apps::stencil(drv, 1).unwrap()
}

/// Sparse matrix-vector product with data-dependent loop trip counts
/// (divergent control flow).
fn spmv_app(drv: &Driver) -> Vec<u8> {
    apps::spmv(drv, 1).unwrap()
}

/// A deterministic guest application: runs kernels and returns the output
/// buffer bytes.
type App = fn(&Driver) -> Vec<u8>;

const APPS: [(&str, App); 3] = [("fft", fft_app), ("stencil", stencil_app), ("spmv", spmv_app)];

/// Runs `app` under `tool` with the given save policy on the default
/// scheduler; returns the guest output bytes and a string signature of the
/// tool's own results.
fn run_case(tool: &str, policy: SavePolicy, app: App) -> (Vec<u8>, String) {
    run_case_on(tool, policy, app, Scheduler::default())
}

/// [`run_case`] on an explicit CTA scheduler.
fn run_case_on(tool: &str, policy: SavePolicy, app: App, sched: Scheduler) -> (Vec<u8>, String) {
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    drv.with_device(|d| d.scheduler = sched);
    let sig: Box<dyn Fn() -> String> = match tool {
        "instr_count" => {
            let (t, r) = InstrCount::new();
            attach_tool(&drv, WithPolicy { policy, inner: t });
            Box::new(move || r.total().to_string())
        }
        "bb_instr_count" => {
            let (t, r) = BbInstrCount::new();
            attach_tool(&drv, WithPolicy { policy, inner: t });
            Box::new(move || r.total().to_string())
        }
        "opcode_hist" => {
            let (t, r) = OpcodeHistogram::new(SamplingMode::Full);
            attach_tool(&drv, WithPolicy { policy, inner: t });
            Box::new(move || format!("{:?}", r.histogram()))
        }
        "mem_trace" => {
            let (t, r) = MemTrace::channel(Backpressure::Block, 4096);
            attach_tool(&drv, WithPolicy { policy, inner: t });
            Box::new(move || format!("{} {:?}", r.demanded(), r.addresses()))
        }
        "mem_divergence" => {
            let (t, r) = MemDivergence::new(true);
            attach_tool(&drv, WithPolicy { policy, inner: t });
            Box::new(move || format!("{} {}", r.mem_instructions(), r.unique_lines()))
        }
        // `IPoint::After` sites under the whole plan ladder.
        "count_after" => {
            let (t, r) = CoalescedInstrCount::after(PlanOpts::default());
            attach_tool(&drv, WithPolicy { policy, inner: t });
            Box::new(move || r.total().to_string())
        }
        // Guarded sites read their live guard predicate; the spliced body
        // is a diamond with a predicate of its own.
        "count_executed" => {
            let (t, r) = CoalescedInstrCount::executed(PlanOpts::default());
            attach_tool(&drv, WithPolicy { policy, inner: t });
            Box::new(move || r.total().to_string())
        }
        "addr_sum_after" => {
            let out = Rc::new(RefCell::new((0, 0)));
            let t = AddrSumAfter { acc: 0, seen: Default::default(), out: out.clone() };
            attach_tool(&drv, WithPolicy { policy, inner: t });
            Box::new(move || format!("{:?}", out.borrow()))
        }
        other => unreachable!("unknown tool {other}"),
    };
    let mem = app(&drv);
    drv.shutdown();
    (mem, sig())
}

/// The differential itself: liveness vs full-tier must agree bit-for-bit on
/// both the guest output and the tool output, for every workload.
fn differential(tool: &str) {
    for (app_name, app) in APPS {
        let (mem_full, sig_full) = run_case(tool, SavePolicy::FullTier, app);
        let (mem_live, sig_live) = run_case(tool, SavePolicy::Liveness, app);
        assert_eq!(mem_live, mem_full, "guest memory differs: {tool} × {app_name}");
        assert_eq!(sig_live, sig_full, "tool output differs: {tool} × {app_name}");
    }
}

#[test]
fn instr_count_is_policy_invariant() {
    differential("instr_count");
}

#[test]
fn bb_instr_count_is_policy_invariant() {
    differential("bb_instr_count");
}

#[test]
fn opcode_hist_is_policy_invariant() {
    differential("opcode_hist");
}

#[test]
fn mem_trace_is_policy_invariant() {
    differential("mem_trace");
}

#[test]
fn mem_divergence_is_policy_invariant() {
    differential("mem_divergence");
}

#[test]
fn after_point_counter_is_policy_invariant() {
    differential("count_after");
}

#[test]
fn executed_counter_is_policy_invariant() {
    differential("count_executed");
}

#[test]
fn after_point_address_sum_is_policy_invariant() {
    differential("addr_sum_after");
    // The tool saw accesses at all (the sum is not vacuously equal).
    let (_, sig) = run_case("addr_sum_after", SavePolicy::Liveness, stencil_app);
    assert_ne!(sig, "(0, 0)");
}

/// The address trace and the divergence counters are order-free: the
/// canonical `(cta_linear, push-order)` stream and the integer line count
/// do not depend on which worker retires which CTA first. Proven at fixed
/// worker counts, so the result does not depend on how wide the host
/// running the suite happens to be.
#[test]
fn order_free_tools_are_invariant_at_every_scheduler_width() {
    for tool in ["mem_trace", "mem_divergence", "addr_sum_after"] {
        for (app_name, app) in APPS {
            let serial = run_case_on(tool, SavePolicy::Liveness, app, Scheduler::Serial);
            for threads in [1, 2, 4, 8] {
                for policy in [SavePolicy::FullTier, SavePolicy::Liveness] {
                    let got = run_case_on(tool, policy, app, Scheduler::Parallel { threads });
                    assert!(
                        got == serial,
                        "{tool} × {app_name} × {policy:?} diverges at {threads} worker(s)"
                    );
                }
            }
        }
    }
}

#[test]
fn wfft_emulation_is_policy_invariant() {
    // The emulation tool uses the register device API (permanent
    // write-back), which forces the conservative tier at its sites even
    // under the liveness policy — the differential must still hold.
    let run = |policy| -> Vec<u8> {
        let drv = Driver::new(DeviceSpec::test(Arch::Volta));
        attach_tool(&drv, WithPolicy { policy, inner: WfftEmu::new() });
        let ctx = drv.ctx_create().unwrap();
        let m = drv.module_load(&ctx, FatBinary::from_ptx("wfft", fft::wfft_kernel_ptx())).unwrap();
        let f = drv.module_get_function(&m, "fft32").unwrap();
        let bytes = 32 * 8u64;
        let din = drv.mem_alloc(bytes).unwrap();
        let dout = drv.mem_alloc(bytes).unwrap();
        let input: Vec<u8> = (0..32u32)
            .flat_map(|k| {
                let mut rec = [0u8; 8];
                rec[..4].copy_from_slice(&(k as f32 * 0.25).to_le_bytes());
                rec[4..].copy_from_slice(&(1.0f32 - k as f32 * 0.03).to_le_bytes());
                rec
            })
            .collect();
        drv.memcpy_htod(din, &input).unwrap();
        drv.launch_kernel(
            &f,
            Dim3::linear(1),
            Dim3::linear(32),
            &[KernelArg::Ptr(din), KernelArg::Ptr(dout)],
        )
        .unwrap();
        let mut out = vec![0u8; bytes as usize];
        drv.memcpy_dtoh(&mut out, dout).unwrap();
        drv.shutdown();
        out
    };
    let full = run(SavePolicy::FullTier);
    let live = run(SavePolicy::Liveness);
    assert_eq!(live, full);
    // The emulated run is meaningful, not all-zero.
    assert!(full.iter().any(|&b| b != 0));
}

/// Captures the codegen's register-save accounting at launch exit.
struct StatsCapture<T> {
    inner: T,
    stats: Rc<RefCell<Option<SaveStats>>>,
}

impl<T: NvbitTool> NvbitTool for StatsCapture<T> {
    fn at_init(&mut self, api: &NvbitApi<'_>) {
        self.inner.at_init(api);
    }
    fn at_term(&mut self, api: &NvbitApi<'_>) {
        self.inner.at_term(api);
    }
    fn at_cuda_event(
        &mut self,
        api: &NvbitApi<'_>,
        is_exit: bool,
        cbid: CbId,
        params: &CbParams<'_>,
    ) {
        self.inner.at_cuda_event(api, is_exit, cbid, params);
        if is_exit && cbid == CbId::LaunchKernel {
            if let CbParams::LaunchKernel { func, .. } = params {
                let func: CuFunction = *func;
                if let Ok(Some(s)) = api.save_stats(func) {
                    *self.stats.borrow_mut() = Some(s);
                }
            }
        }
    }
}

#[test]
fn liveness_reduces_saved_slots_on_the_fft_kernel() {
    let stats = Rc::new(RefCell::new(None));
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    let (tool, _results) = InstrCount::new();
    attach_tool(&drv, StatsCapture { inner: tool, stats: stats.clone() });
    fft_app(&drv);
    drv.shutdown();
    let s = stats.borrow().clone().expect("fft kernel was instrumented");
    assert!(s.fallback.is_none(), "liveness analysis must apply: {:?}", s.fallback);
    assert!(
        s.saved_slots < s.full_tier_slots,
        "liveness should shrink saves: {} vs {}",
        s.saved_slots,
        s.full_tier_slots
    );
}
