//! End-to-end instrumentation tests: tools inject real device functions
//! into real kernels, the rewritten binaries execute on the simulator, and
//! both the application semantics and the instrumentation results are
//! checked.

use cuda::{CbId, CbParams, CuFunction, Driver, FatBinary, KernelArg};
use gpu::{DeviceSpec, Dim3};
use nvbit::{attach_tool, IPoint, NvbitApi, NvbitTool};
use sass::Arch;
use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

/// A tool built from closures, for compact test definitions.
type LaunchEntryFn = Box<dyn FnMut(&NvbitApi<'_>, CuFunction, Dim3, Dim3)>;

struct ClosureTool {
    init: Box<dyn FnMut(&NvbitApi<'_>)>,
    launch_entry: LaunchEntryFn,
}

impl NvbitTool for ClosureTool {
    fn at_init(&mut self, api: &NvbitApi<'_>) {
        (self.init)(api);
    }
    fn at_cuda_event(
        &mut self,
        api: &NvbitApi<'_>,
        is_exit: bool,
        cbid: CbId,
        params: &CbParams<'_>,
    ) {
        if is_exit || cbid != CbId::LaunchKernel {
            return;
        }
        if let CbParams::LaunchKernel { func, grid, block, .. } = params {
            (self.launch_entry)(api, *func, *grid, *block);
        }
    }
}

const COUNT_FN: &str = r#"
.func count_one(.reg .u32 %pred, .reg .u64 %ctr)
{
    .reg .u32 %r<3>;
    .reg .pred %p<2>;
    setp.eq.u32 %p1, %pred, 0;
    @%p1 ret;
    mov.u32 %r1, 1;
    atom.global.add.u32 %r2, [%ctr], %r1;
    ret;
}
"#;

const VECADD: &str = r#"
.entry vecadd(.param .u64 a, .param .u64 b, .param .u64 out, .param .u32 n)
{
    .reg .u32 %r<4>;
    .reg .u64 %rd<6>;
    .reg .f32 %f<4>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [a];
    ld.param.u64 %rd2, [b];
    ld.param.u64 %rd3, [out];
    ld.param.u32 %r1, [n];
    mov.u32 %r2, %ctaid.x;
    mov.u32 %r3, %ntid.x;
    mul.lo.u32 %r2, %r2, %r3;
    mov.u32 %r3, %tid.x;
    add.u32 %r2, %r2, %r3;
    setp.ge.u32 %p1, %r2, %r1;
    @%p1 bra DONE;
    mul.wide.u32 %rd4, %r2, 4;
    add.u64 %rd5, %rd1, %rd4;
    ld.global.f32 %f1, [%rd5];
    add.u64 %rd5, %rd2, %rd4;
    ld.global.f32 %f2, [%rd5];
    add.f32 %f1, %f1, %f2;
    add.u64 %rd5, %rd3, %rd4;
    st.global.f32 [%rd5], %f1;
DONE:
    exit;
}
"#;

/// Runs the vecadd app; returns (driver, output bytes).
fn run_vecadd(drv: &Driver, n: u32) -> Vec<u8> {
    let ctx = drv.ctx_create().unwrap();
    let m = drv.module_load(&ctx, FatBinary::from_ptx("app", VECADD)).unwrap();
    let f = drv.module_get_function(&m, "vecadd").unwrap();
    let bytes = 4 * 256u64;
    let a = drv.mem_alloc(bytes).unwrap();
    let b = drv.mem_alloc(bytes).unwrap();
    let out = drv.mem_alloc(bytes).unwrap();
    let data_a: Vec<u8> = (0..256).flat_map(|i| (i as f32 * 0.5).to_bits().to_le_bytes()).collect();
    let data_b: Vec<u8> =
        (0..256).flat_map(|i| (100.0 - i as f32).to_bits().to_le_bytes()).collect();
    drv.memcpy_htod(a, &data_a).unwrap();
    drv.memcpy_htod(b, &data_b).unwrap();
    drv.launch_kernel(
        &f,
        Dim3::linear(4),
        Dim3::linear(64),
        &[KernelArg::Ptr(a), KernelArg::Ptr(b), KernelArg::Ptr(out), KernelArg::U32(n)],
    )
    .unwrap();
    let mut result = vec![0u8; bytes as usize];
    drv.memcpy_dtoh(&mut result, out).unwrap();
    result
}

/// An instruction-count tool (paper Listing 1) instrumenting every
/// instruction of every kernel once.
fn instr_count_tool(counter: Rc<RefCell<u64>>) -> impl NvbitTool {
    struct Tool {
        counter_addr: Rc<RefCell<u64>>,
        counter_out: Rc<RefCell<u64>>,
        seen: Rc<RefCell<HashSet<u32>>>,
    }
    impl NvbitTool for Tool {
        fn at_init(&mut self, api: &NvbitApi<'_>) {
            api.load_tool_functions(COUNT_FN).unwrap();
            *self.counter_addr.borrow_mut() = api.driver().with_device(|d| d.alloc(8)).unwrap();
        }
        fn at_term(&mut self, api: &NvbitApi<'_>) {
            let mut buf = [0u8; 8];
            api.driver().memcpy_dtoh(&mut buf, *self.counter_addr.borrow()).unwrap();
            *self.counter_out.borrow_mut() = u64::from_le_bytes(buf);
        }
        fn at_cuda_event(
            &mut self,
            api: &NvbitApi<'_>,
            is_exit: bool,
            cbid: CbId,
            params: &CbParams<'_>,
        ) {
            let CbParams::LaunchKernel { func, .. } = params else { return };
            if is_exit || cbid != CbId::LaunchKernel || !self.seen.borrow_mut().insert(func.raw()) {
                return;
            }
            let n = api.get_instrs(*func).unwrap().len();
            let addr = *self.counter_addr.borrow();
            for idx in 0..n {
                api.insert_call(*func, idx, "count_one", IPoint::Before).unwrap();
                api.add_call_arg_guard_pred(*func, idx).unwrap();
                api.add_call_arg_imm64(*func, idx, addr).unwrap();
            }
        }
    }
    Tool {
        counter_addr: Rc::new(RefCell::new(0)),
        counter_out: counter,
        seen: Rc::new(RefCell::new(HashSet::new())),
    }
}

#[test]
fn instrumentation_preserves_semantics_and_counts_match_native() {
    for arch in Arch::ALL {
        // Native run: ground-truth output and instruction count.
        let native = Driver::new(DeviceSpec::test(arch));
        let expected = run_vecadd(&native, 200);
        let native_threads = native.total_stats().thread_instructions;

        // Instrumented run.
        let counter = Rc::new(RefCell::new(0u64));
        let drv = Driver::new(DeviceSpec::test(arch));
        attach_tool(&drv, instr_count_tool(counter.clone()));
        let got = run_vecadd(&drv, 200);
        let instrumented_cycles = drv.total_stats().cycles;
        drv.shutdown();

        assert_eq!(got, expected, "instrumented output differs on {arch}");
        assert_eq!(
            *counter.borrow(),
            native_threads,
            "tool count != native thread instructions on {arch}"
        );
        // Instrumentation genuinely executes extra code.
        assert!(
            instrumented_cycles > native.total_stats().cycles * 3,
            "expected substantial slowdown on {arch}"
        );
    }
}

#[test]
fn divergent_kernels_survive_full_instrumentation() {
    const DIVERGE: &str = r#"
.entry diverge(.param .u64 out)
{
    .reg .u32 %r<6>;
    .reg .u64 %rd<4>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, %tid.x;
    and.b32 %r2, %r1, 1;
    setp.eq.u32 %p1, %r2, 0;
    @%p1 bra EVEN;
    mov.u32 %r3, 111;
    bra JOIN;
EVEN:
    mov.u32 %r3, 222;
JOIN:
    add.u32 %r3, %r3, %r1;
    mul.wide.u32 %rd2, %r1, 4;
    add.u64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r3;
    exit;
}
"#;
    let run = |with_tool: bool| -> (Vec<u8>, u64) {
        let drv = Driver::new(DeviceSpec::test(Arch::Volta));
        let counter = Rc::new(RefCell::new(0u64));
        if with_tool {
            attach_tool(&drv, instr_count_tool(counter.clone()));
        }
        let ctx = drv.ctx_create().unwrap();
        let m = drv.module_load(&ctx, FatBinary::from_ptx("app", DIVERGE)).unwrap();
        let f = drv.module_get_function(&m, "diverge").unwrap();
        let out = drv.mem_alloc(128).unwrap();
        drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(32), &[KernelArg::Ptr(out)]).unwrap();
        let mut buf = vec![0u8; 128];
        drv.memcpy_dtoh(&mut buf, out).unwrap();
        drv.shutdown();
        let count = *counter.borrow();
        (buf, count)
    };
    let (native, _) = run(false);
    let (instrumented, count) = run(true);
    assert_eq!(native, instrumented);
    assert!(count > 0);
    // Spot-check values: even threads 222+t, odd 111+t.
    for t in 0..32u32 {
        let v = u32::from_le_bytes(native[t as usize * 4..t as usize * 4 + 4].try_into().unwrap());
        assert_eq!(v, if t % 2 == 0 { 222 + t } else { 111 + t });
    }
}

#[test]
fn sampling_switches_between_versions_per_launch() {
    // Instrument on the first launch; disable for odd launches. Counters
    // only advance on instrumented launches and disabled launches run at
    // exactly native cost.
    struct Sampler {
        counter_addr: u64,
        launches: u32,
        instrumented: bool,
    }
    impl NvbitTool for Sampler {
        fn at_init(&mut self, api: &NvbitApi<'_>) {
            api.load_tool_functions(COUNT_FN).unwrap();
            self.counter_addr = api.driver().with_device(|d| d.alloc(8)).unwrap();
        }
        fn at_cuda_event(
            &mut self,
            api: &NvbitApi<'_>,
            is_exit: bool,
            cbid: CbId,
            params: &CbParams<'_>,
        ) {
            let CbParams::LaunchKernel { func, .. } = params else { return };
            if is_exit || cbid != CbId::LaunchKernel {
                return;
            }
            if !self.instrumented {
                self.instrumented = true;
                let n = api.get_instrs(*func).unwrap().len();
                for idx in 0..n {
                    api.insert_call(*func, idx, "count_one", IPoint::Before).unwrap();
                    api.add_call_arg_guard_pred(*func, idx).unwrap();
                    api.add_call_arg_imm64(*func, idx, self.counter_addr).unwrap();
                }
            }
            // Enable on even launches, disable on odd (the paper's
            // nvbit_enable_instrumented).
            api.enable_instrumented(*func, self.launches.is_multiple_of(2)).unwrap();
            self.launches += 1;
        }
    }

    let drv = Driver::new(DeviceSpec::test(Arch::Pascal));
    attach_tool(&drv, Sampler { counter_addr: 0, launches: 0, instrumented: false });
    let ctx = drv.ctx_create().unwrap();
    let m = drv.module_load(&ctx, FatBinary::from_ptx("app", VECADD)).unwrap();
    let f = drv.module_get_function(&m, "vecadd").unwrap();
    let buf = drv.mem_alloc(1024).unwrap();
    let args = [KernelArg::Ptr(buf), KernelArg::Ptr(buf), KernelArg::Ptr(buf), KernelArg::U32(64)];
    let mut cycles = Vec::new();
    for _ in 0..4 {
        let stats = drv.launch_kernel(&f, Dim3::linear(2), Dim3::linear(64), &args).unwrap();
        cycles.push(stats.cycles);
    }
    // Launches 0 and 2 instrumented; 1 and 3 native.
    assert!(cycles[0] > cycles[1] * 3, "instrumented {} vs native {}", cycles[0], cycles[1]);
    assert_eq!(cycles[1], cycles[3], "native launches are deterministic");
    assert_eq!(cycles[0], cycles[2], "instrumented launches are deterministic");
}

#[test]
fn proxy_instruction_emulation_with_permanent_register_writes() {
    // The paper's §6.3 flow: a kernel uses a hypothetical instruction
    // (PROXY "SQUARE"); running it natively faults; a tool removes the
    // original and injects an emulation function that reads the source
    // register and writes the destination register through the device API.
    const APP: &str = r#"
.entry sq(.param .u64 out)
{
    .reg .u32 %r<4>;
    .reg .u64 %rd<4>;
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, %tid.x;
    proxy.b32 %r2, %r1, "SQUARE";
    mul.wide.u32 %rd2, %r1, 4;
    add.u64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r2;
    exit;
}
"#;
    const EMU: &str = r#"
.func emu_square(.reg .u32 %srcidx, .reg .u32 %dstidx)
{
    .reg .u32 %v<3>;
    nvbit.readreg.b32 %v1, %srcidx;
    mul.lo.u32 %v2, %v1, %v1;
    nvbit.writereg.b32 %dstidx, %v2;
    ret;
}
"#;

    // Native execution faults on the unimplemented instruction.
    {
        let drv = Driver::new(DeviceSpec::test(Arch::Volta));
        let ctx = drv.ctx_create().unwrap();
        let m = drv.module_load(&ctx, FatBinary::from_ptx("app", APP)).unwrap();
        let f = drv.module_get_function(&m, "sq").unwrap();
        let out = drv.mem_alloc(128).unwrap();
        let e = drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(32), &[KernelArg::Ptr(out)]);
        assert!(e.is_err(), "PROXY must fault without emulation");
    }

    // Instrumented execution emulates it.
    let square_id = ptx::lower::proxy_id("SQUARE");
    let tool = ClosureTool {
        init: Box::new(|api| api.load_tool_functions(EMU).unwrap()),
        launch_entry: Box::new(move |api, func, _, _| {
            if api.is_instrumented(func) {
                return;
            }
            for instr in api.get_instrs(func).unwrap().iter() {
                if instr.proxy_id() == Some(square_id) {
                    let (dst, src) = instr.proxy_regs().unwrap();
                    api.insert_call(func, instr.idx, "emu_square", IPoint::Before).unwrap();
                    api.add_call_arg_imm32(func, instr.idx, src.0 as i32).unwrap();
                    api.add_call_arg_imm32(func, instr.idx, dst.0 as i32).unwrap();
                    api.remove_orig(func, instr.idx).unwrap();
                }
            }
        }),
    };
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    attach_tool(&drv, tool);
    let ctx = drv.ctx_create().unwrap();
    let m = drv.module_load(&ctx, FatBinary::from_ptx("app", APP)).unwrap();
    let f = drv.module_get_function(&m, "sq").unwrap();
    let out = drv.mem_alloc(128).unwrap();
    drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(32), &[KernelArg::Ptr(out)]).unwrap();
    let mut buf = vec![0u8; 128];
    drv.memcpy_dtoh(&mut buf, out).unwrap();
    for t in 0..32u32 {
        let v = u32::from_le_bytes(buf[t as usize * 4..t as usize * 4 + 4].try_into().unwrap());
        assert_eq!(v, t * t, "thread {t}");
    }
}

#[test]
fn register_value_arguments_deliver_addresses_to_the_tool() {
    // A memory-trace-style tool: for each global store, record the
    // effective address (base pair + immediate offset) into a trace buffer.
    const TRACE_FN: &str = r#"
.func trace_addr(.reg .u32 %pred, .reg .u64 %base, .reg .u32 %off, .reg .u64 %tracebuf)
{
    .reg .u32 %r<6>;
    .reg .u64 %rd<6>;
    .reg .pred %p<2>;
    setp.eq.u32 %p1, %pred, 0;
    @%p1 ret;
    // addr = base + sign-extended offset (offsets are non-negative here)
    cvt.u64.u32 %rd1, %off;
    add.u64 %rd2, %base, %rd1;
    // slot = atomicAdd(tracebuf, 1); store addr at tracebuf[1 + slot]
    mov.u32 %r1, 1;
    atom.global.add.u32 %r2, [%tracebuf], %r1;
    cvt.u64.u32 %rd3, %r2;
    shl.b64 %rd3, %rd3, 3;
    add.u64 %rd4, %tracebuf, %rd3;
    st.global.u64 [%rd4+8], %rd2;
    ret;
}
"#;
    const APP: &str = r#"
.entry scatter(.param .u64 out)
{
    .reg .u32 %r<4>;
    .reg .u64 %rd<4>;
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd2, %r1, 8;
    add.u64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3+4], %r1;
    exit;
}
"#;
    let trace_addr_cell = Rc::new(RefCell::new(0u64));
    let ta = trace_addr_cell.clone();
    let tool = ClosureTool {
        init: Box::new(move |api| {
            api.load_tool_functions(TRACE_FN).unwrap();
            *ta.borrow_mut() = api.driver().with_device(|d| d.alloc(8 + 8 * 64)).unwrap();
        }),
        launch_entry: {
            let ta = trace_addr_cell.clone();
            Box::new(move |api, func, _, _| {
                if api.is_instrumented(func) {
                    return;
                }
                for instr in api.get_instrs(func).unwrap().iter() {
                    if instr.mem_space() == Some(sass::MemSpace::Global) && instr.is_store() {
                        let (base, offset) = instr.mref().unwrap();
                        api.insert_call(func, instr.idx, "trace_addr", IPoint::Before).unwrap();
                        api.add_call_arg_guard_pred(func, instr.idx).unwrap();
                        api.add_call_arg_reg_val64(func, instr.idx, base.0).unwrap();
                        api.add_call_arg_imm32(func, instr.idx, offset).unwrap();
                        api.add_call_arg_imm64(func, instr.idx, *ta.borrow()).unwrap();
                    }
                }
            })
        },
    };

    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    attach_tool(&drv, tool);
    let ctx = drv.ctx_create().unwrap();
    let m = drv.module_load(&ctx, FatBinary::from_ptx("app", APP)).unwrap();
    let f = drv.module_get_function(&m, "scatter").unwrap();
    let out = drv.mem_alloc(8 * 32).unwrap();
    drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(32), &[KernelArg::Ptr(out)]).unwrap();

    let trace = *trace_addr_cell.borrow();
    let mut hdr = [0u8; 4];
    drv.memcpy_dtoh(&mut hdr, trace).unwrap();
    assert_eq!(u32::from_le_bytes(hdr), 32, "one trace record per thread");
    let mut records = vec![0u8; 8 * 32];
    drv.memcpy_dtoh(&mut records, trace + 8).unwrap();
    let mut addrs: Vec<u64> =
        records.chunks(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect();
    addrs.sort_unstable();
    let mut expected: Vec<u64> = (0..32u64).map(|t| out + 8 * t + 4).collect();
    expected.sort_unstable();
    assert_eq!(addrs, expected);
}

#[test]
fn after_injection_and_multiple_injections_order() {
    // Two counters: one bumped before each STG, one after; plus a second
    // before-injection at the same site to check multi-injection support.
    const FNS: &str = r#"
.func bump(.reg .u64 %ctr)
{
    .reg .u32 %r<3>;
    mov.u32 %r1, 1;
    atom.global.add.u32 %r2, [%ctr], %r1;
    ret;
}
"#;
    const APP: &str = r#"
.entry k(.param .u64 out)
{
    .reg .u32 %r<3>;
    .reg .u64 %rd<2>;
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, 7;
    st.global.u32 [%rd1], %r1;
    exit;
}
"#;
    let addrs = Rc::new(RefCell::new((0u64, 0u64)));
    let a2 = addrs.clone();
    let tool = ClosureTool {
        init: Box::new(move |api| {
            api.load_tool_functions(FNS).unwrap();
            let before = api.driver().with_device(|d| d.alloc(8)).unwrap();
            let after = api.driver().with_device(|d| d.alloc(8)).unwrap();
            *a2.borrow_mut() = (before, after);
        }),
        launch_entry: {
            let addrs = addrs.clone();
            Box::new(move |api, func, _, _| {
                if api.is_instrumented(func) {
                    return;
                }
                let (before, after) = *addrs.borrow();
                for instr in api.get_instrs(func).unwrap().iter() {
                    if instr.is_store() {
                        // Two before-injections and one after-injection.
                        api.insert_call(func, instr.idx, "bump", IPoint::Before).unwrap();
                        api.add_call_arg_imm64(func, instr.idx, before).unwrap();
                        api.insert_call(func, instr.idx, "bump", IPoint::Before).unwrap();
                        api.add_call_arg_imm64(func, instr.idx, before).unwrap();
                        api.insert_call(func, instr.idx, "bump", IPoint::After).unwrap();
                        api.add_call_arg_imm64(func, instr.idx, after).unwrap();
                    }
                }
            })
        },
    };
    let drv = Driver::new(DeviceSpec::test(Arch::Kepler));
    attach_tool(&drv, tool);
    let ctx = drv.ctx_create().unwrap();
    let m = drv.module_load(&ctx, FatBinary::from_ptx("app", APP)).unwrap();
    let f = drv.module_get_function(&m, "k").unwrap();
    let out = drv.mem_alloc(64).unwrap();
    drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(32), &[KernelArg::Ptr(out)]).unwrap();

    let (before, after) = *addrs.borrow();
    let mut b = [0u8; 4];
    drv.memcpy_dtoh(&mut b, before).unwrap();
    assert_eq!(u32::from_le_bytes(b), 64, "two before-injections × 32 threads");
    drv.memcpy_dtoh(&mut b, after).unwrap();
    assert_eq!(u32::from_le_bytes(b), 32, "one after-injection × 32 threads");
    // The store itself still happened.
    drv.memcpy_dtoh(&mut b, out).unwrap();
    assert_eq!(u32::from_le_bytes(b), 7);
}

#[test]
fn reset_instrumented_restores_native_behaviour() {
    let counter = Rc::new(RefCell::new(0u64));
    struct ResetTool {
        counter: Rc<RefCell<u64>>,
        counter_addr: u64,
        launches: u32,
    }
    impl NvbitTool for ResetTool {
        fn at_init(&mut self, api: &NvbitApi<'_>) {
            api.load_tool_functions(COUNT_FN).unwrap();
            self.counter_addr = api.driver().with_device(|d| d.alloc(8)).unwrap();
        }
        fn at_term(&mut self, api: &NvbitApi<'_>) {
            let mut b = [0u8; 8];
            api.driver().memcpy_dtoh(&mut b, self.counter_addr).unwrap();
            *self.counter.borrow_mut() = u64::from_le_bytes(b);
        }
        fn at_cuda_event(
            &mut self,
            api: &NvbitApi<'_>,
            is_exit: bool,
            cbid: CbId,
            params: &CbParams<'_>,
        ) {
            let CbParams::LaunchKernel { func, .. } = params else { return };
            if is_exit || cbid != CbId::LaunchKernel {
                return;
            }
            match self.launches {
                0 => {
                    for idx in 0..api.get_instrs(*func).unwrap().len() {
                        api.insert_call(*func, idx, "count_one", IPoint::Before).unwrap();
                        api.add_call_arg_guard_pred(*func, idx).unwrap();
                        api.add_call_arg_imm64(*func, idx, self.counter_addr).unwrap();
                    }
                }
                1 => api.reset_instrumented(*func).unwrap(),
                _ => {}
            }
            self.launches += 1;
        }
    }

    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    attach_tool(&drv, ResetTool { counter: counter.clone(), counter_addr: 0, launches: 0 });
    let ctx = drv.ctx_create().unwrap();
    let m = drv.module_load(&ctx, FatBinary::from_ptx("app", VECADD)).unwrap();
    let f = drv.module_get_function(&m, "vecadd").unwrap();
    let buf = drv.mem_alloc(1024).unwrap();
    let args = [KernelArg::Ptr(buf), KernelArg::Ptr(buf), KernelArg::Ptr(buf), KernelArg::U32(32)];
    let s0 = drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(32), &args).unwrap();
    let s1 = drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(32), &args).unwrap();
    let s2 = drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(32), &args).unwrap();
    drv.shutdown();

    assert!(s0.cycles > s1.cycles, "first launch instrumented");
    assert_eq!(s1.cycles, s2.cycles, "post-reset launches run natively");
    let first_launch_count = *counter.borrow();
    assert!(first_launch_count > 0);
}

/// Every API group, back to back, from inside one launch-entry callback on
/// the function being launched: no API path may re-borrow core state that
/// another still holds, and the re-instrumented function must then run as
/// if instrumented once.
#[test]
fn every_api_group_runs_back_to_back_inside_a_launch_entry_callback() {
    let native = Driver::new(DeviceSpec::test(Arch::Volta));
    let expected = run_vecadd(&native, 200);

    let counter_addr = Rc::new(RefCell::new(0u64));
    let (init_addr, entry_addr) = (counter_addr.clone(), counter_addr.clone());
    let mut first = true;
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    attach_tool(
        &drv,
        ClosureTool {
            init: Box::new(move |api| {
                api.load_tool_functions(COUNT_FN).unwrap();
                *init_addr.borrow_mut() = api.driver().with_device(|d| d.alloc(8)).unwrap();
            }),
            launch_entry: Box::new(move |api, f, _, _| {
                if !std::mem::take(&mut first) {
                    return;
                }
                // Inspection.
                let n = api.get_instrs(f).unwrap().len();
                assert!(api.get_live_regs(f, 0).unwrap().is_some());
                // Instrumentation.
                let instrument = || {
                    for idx in 0..n {
                        api.insert_call(f, idx, "count_one", IPoint::Before).unwrap();
                        api.add_call_arg_guard_pred(f, idx).unwrap();
                        api.add_call_arg_imm64(f, idx, *entry_addr.borrow()).unwrap();
                    }
                };
                instrument();
                // Control: each flip builds or swaps right away.
                api.enable_instrumented(f, false).unwrap();
                api.enable_instrumented(f, true).unwrap();
                // Verification and accounting of the image just built.
                assert!(api.verify_instrumented(f).unwrap().is_empty());
                assert_eq!(api.save_stats(f).unwrap().unwrap().sites, n);
                assert!(api.plan_stats(f).unwrap().is_some());
                // Reset, then instrument again.
                api.reset_instrumented(f).unwrap();
                assert!(!api.is_instrumented(f));
                instrument();
            }),
        },
    );
    let got = run_vecadd(&drv, 200);
    let mut b = [0u8; 8];
    drv.memcpy_dtoh(&mut b, *counter_addr.borrow()).unwrap();
    let thread_instrs = drv.total_stats().thread_instructions;
    drv.shutdown();

    assert_eq!(got, expected, "instrumented output differs");
    assert_eq!(u64::from_le_bytes(b), native.total_stats().thread_instructions);
    assert!(thread_instrs > native.total_stats().thread_instructions);
}

#[test]
fn kernels_with_device_function_calls_can_be_instrumented_throughout() {
    // Instrument both the kernel and its related (callee) function; the
    // paper's nvbit_get_related_funcs flow.
    const APP: &str = r#"
.func (.reg .u32 %out) triple(.reg .u32 %x)
{
    .reg .u32 %t<2>;
    add.u32 %t1, %x, %x;
    add.u32 %out, %t1, %x;
    ret;
}
.entry k(.param .u64 out)
{
    .reg .u32 %r<4>;
    .reg .u64 %rd<4>;
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, %tid.x;
    call (%r2), triple, (%r1);
    mul.wide.u32 %rd2, %r1, 4;
    add.u64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r2;
    exit;
}
"#;
    let counter = Rc::new(RefCell::new(0u64));
    struct DeepTool {
        counter: Rc<RefCell<u64>>,
        counter_addr: u64,
        done: bool,
    }
    impl NvbitTool for DeepTool {
        fn at_init(&mut self, api: &NvbitApi<'_>) {
            api.load_tool_functions(COUNT_FN).unwrap();
            self.counter_addr = api.driver().with_device(|d| d.alloc(8)).unwrap();
        }
        fn at_term(&mut self, api: &NvbitApi<'_>) {
            let mut b = [0u8; 8];
            api.driver().memcpy_dtoh(&mut b, self.counter_addr).unwrap();
            *self.counter.borrow_mut() = u64::from_le_bytes(b);
        }
        fn at_cuda_event(
            &mut self,
            api: &NvbitApi<'_>,
            is_exit: bool,
            cbid: CbId,
            params: &CbParams<'_>,
        ) {
            let CbParams::LaunchKernel { func, .. } = params else { return };
            if is_exit || cbid != CbId::LaunchKernel || self.done {
                return;
            }
            self.done = true;
            // Kernel plus all related functions (the paper's pattern for
            // instrumenting entire call trees).
            let mut targets = vec![*func];
            targets.extend(api.get_related_funcs(*func).unwrap());
            for target in targets {
                for idx in 0..api.get_instrs(target).unwrap().len() {
                    api.insert_call(target, idx, "count_one", IPoint::Before).unwrap();
                    api.add_call_arg_guard_pred(target, idx).unwrap();
                    api.add_call_arg_imm64(target, idx, self.counter_addr).unwrap();
                }
                // Callees are not launchable; force immediate generation by
                // enabling them explicitly.
                api.enable_instrumented(target, true).unwrap();
            }
        }
    }

    let native = Driver::new(DeviceSpec::test(Arch::Volta));
    let nctx = native.ctx_create().unwrap();
    let nm = native.module_load(&nctx, FatBinary::from_ptx("app", APP)).unwrap();
    let nf = native.module_get_function(&nm, "k").unwrap();
    let nout = native.mem_alloc(128).unwrap();
    native.launch_kernel(&nf, Dim3::linear(1), Dim3::linear(32), &[KernelArg::Ptr(nout)]).unwrap();
    let native_count = native.total_stats().thread_instructions;
    let mut expected = vec![0u8; 128];
    native.memcpy_dtoh(&mut expected, nout).unwrap();

    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    attach_tool(&drv, DeepTool { counter: counter.clone(), counter_addr: 0, done: false });
    let ctx = drv.ctx_create().unwrap();
    let m = drv.module_load(&ctx, FatBinary::from_ptx("app", APP)).unwrap();
    let f = drv.module_get_function(&m, "k").unwrap();
    let out = drv.mem_alloc(128).unwrap();
    drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(32), &[KernelArg::Ptr(out)]).unwrap();
    let mut got = vec![0u8; 128];
    drv.memcpy_dtoh(&mut got, out).unwrap();
    drv.shutdown();

    assert_eq!(got, expected);
    assert_eq!(*counter.borrow(), native_count);
}

#[test]
fn cbank_predval_and_sp_arguments_materialize_correctly() {
    // A tool function that records its three arguments into a buffer:
    // arg0 = a constant-bank value (the kernel's own `n` parameter),
    // arg1 = a predicate value, arg2 = the reconstructed stack pointer.
    const RECORD_FN: &str = r#"
.func rec3(.reg .u32 %cb, .reg .u32 %pv, .reg .u32 %sp, .reg .u64 %buf)
{
    .reg .u32 %r<4>;
    .reg .pred %p<2>;
    mov.u32 %r1, %laneid;
    setp.ne.u32 %p1, %r1, 0;
    @%p1 ret;
    st.global.u32 [%buf], %cb;
    st.global.u32 [%buf+4], %pv;
    st.global.u32 [%buf+8], %sp;
    ret;
}
"#;
    const APP: &str = r#"
.entry k(.param .u64 out, .param .u32 n)
{
    .reg .u32 %r<4>;
    .reg .u64 %rd<4>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [out];
    ld.param.u32 %r1, [n];
    setp.gt.u32 %p1, %r1, 10;
    st.global.u32 [%rd1+128], %r1;
    exit;
}
"#;
    let record = Rc::new(RefCell::new(0u64));
    let tool = ClosureTool {
        init: {
            let record = record.clone();
            Box::new(move |api| {
                api.load_tool_functions(RECORD_FN).unwrap();
                *record.borrow_mut() = api.driver().with_device(|d| d.alloc(64)).unwrap();
            })
        },
        launch_entry: {
            let record = record.clone();
            Box::new(move |api, func, _, _| {
                if api.is_instrumented(func) {
                    return;
                }
                // Find the store instruction and instrument it.
                let instrs = api.get_instrs(func).unwrap();
                let st = instrs.iter().find(|i| i.is_store()).unwrap();
                let idx = st.idx;
                api.insert_call(func, idx, "rec3", nvbit::IPoint::Before).unwrap();
                // The kernel's `n` parameter lives in constant bank 0 at the
                // ABI parameter base + 8 (after the u64 pointer).
                api.add_call_arg(func, idx, nvbit::Arg::CBank { bank: 0, offset: 0x168 }).unwrap();
                // P0 holds `n > 10` at the store (allocation puts %p1 in P0).
                api.add_call_arg(func, idx, nvbit::Arg::PredVal(0)).unwrap();
                // R1 is the stack pointer; the framework reconstructs the
                // pre-save value.
                api.add_call_arg(func, idx, nvbit::Arg::RegVal(1)).unwrap();
                api.add_call_arg_imm64(func, idx, *record.borrow()).unwrap();
            })
        },
    };

    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    attach_tool(&drv, tool);
    let ctx = drv.ctx_create().unwrap();
    let m = drv.module_load(&ctx, FatBinary::from_ptx("app", APP)).unwrap();
    let f = drv.module_get_function(&m, "k").unwrap();
    let out = drv.mem_alloc(256).unwrap();
    drv.launch_kernel(
        &f,
        Dim3::linear(1),
        Dim3::linear(32),
        &[KernelArg::Ptr(out), KernelArg::U32(42)],
    )
    .unwrap();

    let buf = *record.borrow();
    let mut b = vec![0u8; 12];
    drv.memcpy_dtoh(&mut b, buf).unwrap();
    let cb = u32::from_le_bytes(b[0..4].try_into().unwrap());
    let pv = u32::from_le_bytes(b[4..8].try_into().unwrap());
    let sp = u32::from_le_bytes(b[8..12].try_into().unwrap());
    assert_eq!(cb, 42, "constant-bank argument must read the launch parameter");
    assert_eq!(pv, 1, "predicate value of `42 > 10` must be true");
    // The stack pointer equals the thread's local-memory size (stacks grow
    // down from the top and the kernel itself pushed no frame).
    assert!(sp > 0 && sp % 8 == 0, "reconstructed SP {sp} looks wrong");
    drv.shutdown();
}

#[test]
fn instrumenting_ssy_and_sync_sites_preserves_divergence() {
    // Directly instrument only the reconvergence instructions of a
    // divergent kernel: SSY must be relocatable with its offset adjusted
    // and SYNC must still pop correctly from inside a trampoline.
    const APP: &str = r#"
.entry k(.param .u64 out)
{
    .reg .u32 %r<6>;
    .reg .u64 %rd<4>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, %tid.x;
    and.b32 %r2, %r1, 1;
    setp.eq.u32 %p1, %r2, 0;
    @%p1 bra EVEN;
    mov.u32 %r3, 5;
    bra JOIN;
EVEN:
    mov.u32 %r3, 9;
JOIN:
    add.u32 %r3, %r3, %r1;
    mul.wide.u32 %rd2, %r1, 4;
    add.u64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r3;
    exit;
}
"#;
    let run = |instrument: bool| -> Vec<u8> {
        let drv = Driver::new(DeviceSpec::test(Arch::Volta));
        if instrument {
            let counter = Rc::new(RefCell::new(0u64));
            let c2 = counter.clone();
            let tool = ClosureTool {
                init: Box::new(move |api| {
                    api.load_tool_functions(COUNT_FN).unwrap();
                    *c2.borrow_mut() = api.driver().with_device(|d| d.alloc(8)).unwrap();
                }),
                launch_entry: {
                    let counter = counter.clone();
                    Box::new(move |api, func, _, _| {
                        if api.is_instrumented(func) {
                            return;
                        }
                        for instr in api.get_instrs(func).unwrap().iter() {
                            // Only control-flow machinery sites.
                            if matches!(
                                instr.cf_class(),
                                sass::op::CfClass::Ssy
                                    | sass::op::CfClass::Sync
                                    | sass::op::CfClass::RelBranch
                            ) {
                                api.insert_call(func, instr.idx, "count_one", IPoint::Before)
                                    .unwrap();
                                api.add_call_arg_guard_pred(func, instr.idx).unwrap();
                                api.add_call_arg_imm64(func, instr.idx, *counter.borrow()).unwrap();
                            }
                        }
                    })
                },
            };
            attach_tool(&drv, tool);
        }
        let ctx = drv.ctx_create().unwrap();
        let m = drv.module_load(&ctx, FatBinary::from_ptx("app", APP)).unwrap();
        let f = drv.module_get_function(&m, "k").unwrap();
        let out = drv.mem_alloc(128).unwrap();
        drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(32), &[KernelArg::Ptr(out)]).unwrap();
        let mut b = vec![0u8; 128];
        drv.memcpy_dtoh(&mut b, out).unwrap();
        drv.shutdown();
        b
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn tool_functions_may_not_use_shared_memory() {
    // Paper §7: programs commonly use all of the shared memory capacity,
    // so instrumentation functions are forbidden from touching it.
    const BAD_FN: &str = r#"
.func uses_shared(.reg .u32 %x)
{
    .shared .align 4 .b8 stash[64];
    .reg .u32 %r<3>;
    mov.u32 %r1, stash;
    st.shared.u32 [%r1], %x;
    ret;
}
"#;
    struct BadTool;
    impl NvbitTool for BadTool {
        fn at_init(&mut self, api: &NvbitApi<'_>) {
            let e = api.load_tool_functions(BAD_FN);
            assert!(
                matches!(e, Err(nvbit::NvbitError::BadRequest(_))),
                "shared-memory tool functions must be rejected: {e:?}"
            );
            // A good function ahead of the bad one: the module is rejected
            // as a whole, leaving nothing loaded or injectable.
            let e = api.load_tool_functions(&format!("{COUNT_FN}{BAD_FN}"));
            let Err(nvbit::NvbitError::BadRequest(msg)) = e else {
                panic!("a module with a shared-memory function must be rejected: {e:?}");
            };
            assert_eq!(api.tool_functions(), Vec::<String>::new());
            assert!(msg.contains("uses_shared") && !msg.contains("  "), "{msg:?}");
        }
        fn at_cuda_event(
            &mut self,
            _api: &NvbitApi<'_>,
            _is_exit: bool,
            _cbid: CbId,
            _params: &CbParams<'_>,
        ) {
        }
    }
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    attach_tool(&drv, BadTool);
    drv.shutdown();
}

#[test]
fn tool_functions_may_not_make_calls() {
    // A tool function runs inside a trampoline, which saves only what the
    // function itself clobbers: a callee's clobbers would go unsaved.
    const CALLER_FN: &str = r#"
.func helper()
{
    ret;
}
.func calls_helper()
{
    call helper;
    ret;
}
"#;
    struct CallingTool;
    impl NvbitTool for CallingTool {
        fn at_init(&mut self, api: &NvbitApi<'_>) {
            // A good function ahead of the calling one: the module is
            // rejected as a whole, leaving nothing loaded or injectable.
            let e = api.load_tool_functions(&format!("{COUNT_FN}{CALLER_FN}"));
            let Err(nvbit::NvbitError::BadRequest(msg)) = e else {
                panic!("a module with a calling function must be rejected: {e:?}");
            };
            assert_eq!(api.tool_functions(), Vec::<String>::new());
            assert!(
                msg.contains("calls_helper") && msg.contains("calls other functions"),
                "{msg:?}"
            );
        }
        fn at_cuda_event(
            &mut self,
            _api: &NvbitApi<'_>,
            _is_exit: bool,
            _cbid: CbId,
            _params: &CbParams<'_>,
        ) {
        }
    }
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    attach_tool(&drv, CallingTool);
    drv.shutdown();
}

/// Loading tool functions again under a loaded name replaces the function:
/// a call of the new body must be checked against the new body, not the
/// one the name had before (the verifier's tool bodies are kept as the tool
/// functions are loaded, not rebuilt per image).
#[test]
fn a_reloaded_tool_function_is_verified_against_its_new_body() {
    const COUNT_TWO: &str = r#"
.func count_one(.reg .u32 %pred, .reg .u64 %ctr)
{
    .reg .u32 %r<3>;
    add.u32 %r1, %pred, 1;
    atom.global.add.u32 %r2, [%ctr], %r1;
    ret;
}
"#;
    let counter = Rc::new(RefCell::new(0u64));
    let (at_init, at_launch) = (counter.clone(), counter.clone());
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    attach_tool(
        &drv,
        ClosureTool {
            init: Box::new(move |api| {
                api.load_tool_functions(COUNT_FN).unwrap();
                api.load_tool_functions(COUNT_TWO).unwrap();
                *at_init.borrow_mut() = api.driver().with_device(|d| d.alloc(8)).unwrap();
            }),
            launch_entry: Box::new(move |api, func, _, _| {
                api.insert_call(func, 0, "count_one", IPoint::Before).unwrap();
                api.add_call_arg_guard_pred(func, 0).unwrap();
                api.add_call_arg_imm64(func, 0, *at_launch.borrow()).unwrap();
                assert_eq!(api.verify_instrumented(func).unwrap(), vec![]);
            }),
        },
    );
    run_vecadd(&drv, 256);
    let mut count = [0u8; 8];
    drv.memcpy_dtoh(&mut count, *counter.borrow()).unwrap();
    assert_eq!(u64::from_le_bytes(count), 2 * 256, "the new body ran, once per thread");
}

/// A tool body's spliceable shape, the precondition of effect lowering, is
/// classified once, when it is loaded: a reload under the same name must
/// bring its own. The first body loops (no spliceable shape), the second is
/// Listing 1's counter, which the top rung lowers to a register add; a
/// shape kept from the first would keep the call out of line.
#[test]
fn a_reloaded_tool_function_brings_its_own_splice_shape() {
    const LOOPING: &str = r#"
.func count_one(.reg .u32 %pred, .reg .u64 %ctr)
{
    .reg .u32 %r<3>;
    .reg .pred %p<2>;
    mov.u32 %r1, 0;
AGAIN:
    add.u32 %r1, %r1, 1;
    setp.lt.u32 %p1, %r1, %pred;
    @%p1 bra AGAIN;
    atom.global.add.u32 %r2, [%ctr], %r1;
    ret;
}
"#;
    const STRAIGHT: &str = r#"
.func count_one(.reg .u32 %pred, .reg .u64 %ctr)
{
    .reg .u64 %rd<3>;
    .reg .pred %p<2>;
    setp.eq.u32 %p1, %pred, 0;
    @%p1 ret;
    mov.u64 %rd1, 1;
    atom.global.add.u64 %rd2, [%ctr], %rd1;
    ret;
}
"#;
    let counter = Rc::new(RefCell::new(0u64));
    let (at_init, at_launch) = (counter.clone(), counter.clone());
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    attach_tool(
        &drv,
        ClosureTool {
            init: Box::new(move |api| {
                api.load_tool_functions(LOOPING).unwrap();
                api.load_tool_functions(STRAIGHT).unwrap();
                *at_init.borrow_mut() = api.driver().with_device(|d| d.alloc(8)).unwrap();
            }),
            launch_entry: Box::new(move |api, func, _, _| {
                api.insert_call(func, 0, "count_one", IPoint::Before).unwrap();
                api.add_call_arg_guard_pred(func, 0).unwrap();
                api.add_call_arg_imm64(func, 0, *at_launch.borrow()).unwrap();
                assert_eq!(api.verify_instrumented(func).unwrap(), vec![]);
                assert_eq!(api.plan_stats(func).unwrap().unwrap().promoted_calls, 1);
            }),
        },
    );
    run_vecadd(&drv, 256);
    let mut count = [0u8; 8];
    drv.memcpy_dtoh(&mut count, *counter.borrow()).unwrap();
    assert_eq!(u64::from_le_bytes(count), 256, "the straight body ran, once per thread");
}
