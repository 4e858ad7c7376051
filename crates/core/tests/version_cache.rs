//! Versioned code-cache behaviour that needs no observability counters:
//! parallel batch instrumentation must produce bit-identical images to the
//! serial path, `enable_instrumented` must not conjure phantom cache
//! entries, and `reset_instrumented` must clear the local-memory override
//! regardless of which version was installed at the time.

use cuda::{CbId, CbParams, Driver, FatBinary, KernelArg};
use gpu::{DeviceSpec, Dim3};
use nvbit::{attach_tool, IPoint, NvbitApi, NvbitTool};
use sass::Arch;
use std::cell::RefCell;
use std::rc::Rc;

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

/// A module of `n` distinct straight-line kernels `k0..k{n-1}`.
fn multi_kernel_ptx(n: usize) -> String {
    let mut src = String::new();
    for i in 0..n {
        src.push_str(&format!(
            r#"
.entry k{i}(.param .u64 out)
{{
    .reg .u32 %r<8>;
    .reg .u64 %rd<4>;
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, %tid.x;
    add.u32 %r2, %r1, {add};
    mul.lo.u32 %r3, %r2, 3;
    add.u32 %r4, %r3, 7;
    and.b32 %r5, %r4, 1023;
    add.u32 %r6, %r5, %r2;
    mul.wide.u32 %rd2, %r1, 4;
    add.u64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r6;
    exit;
}}
"#,
            add = i + 1,
        ));
    }
    src
}

/// A tool that, at the first launch, instruments EVERY kernel of the
/// launched kernel's module (batch path) with per-instruction counting.
/// Kernel number `fail`, if any, also gets more arguments than the ABI
/// window holds, so its codegen fails before its trampoline is allocated.
struct BatchTool {
    workers: usize,
    fail: Option<usize>,
    counter_addr: Rc<RefCell<u64>>,
    done: bool,
}

impl NvbitTool for BatchTool {
    fn at_init(&mut self, api: &NvbitApi<'_>) {
        api.set_jit_workers(self.workers);
        api.load_tool_functions(COUNT_FN).unwrap();
        *self.counter_addr.borrow_mut() = api.driver().with_device(|d| d.alloc(8)).unwrap();
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
        let addr = *self.counter_addr.borrow();
        let module = api.driver().function_info(*func).unwrap().module;
        for (i, k) in api.driver().module_kernels(&module).unwrap().into_iter().enumerate() {
            for idx in 0..api.get_instrs(k).unwrap().len() {
                api.insert_call(k, idx, "count_one", IPoint::Before).unwrap();
                api.add_call_arg_guard_pred(k, idx).unwrap();
                api.add_call_arg_imm64(k, idx, addr).unwrap();
            }
            if self.fail == Some(i) {
                for _ in 0..6 {
                    api.add_call_arg_imm64(k, 0, addr).unwrap();
                }
            }
        }
    }
}

/// What one batch run leaves behind.
struct BatchRun {
    /// Installed code bytes of every kernel, launched or not.
    images: Vec<Vec<u8>>,
    output: Vec<u8>,
    counter: u64,
    live_allocs: usize,
}

/// Runs a 6-kernel module through batch instrumentation with the given
/// worker count, `fail` naming the kernel whose codegen must fail.
fn run_batch(workers: usize, fail: Option<usize>) -> BatchRun {
    const N: usize = 6;
    let counter_addr = Rc::new(RefCell::new(0u64));
    let read_counter = |drv: &Driver| {
        let mut b = [0u8; 8];
        drv.memcpy_dtoh(&mut b, *counter_addr.borrow()).unwrap();
        u64::from_le_bytes(b)
    };
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    attach_tool(&drv, BatchTool { workers, fail, counter_addr: counter_addr.clone(), done: false });
    let ctx = drv.ctx_create().unwrap();
    let src = multi_kernel_ptx(N);
    let m = drv.module_load(&ctx, FatBinary::from_ptx("app", &src)).unwrap();
    let kernels = drv.module_kernels(&m).unwrap();
    let pristine: Vec<Vec<u8>> = kernels.iter().map(|k| drv.read_code(*k).unwrap()).collect();
    let out = drv.mem_alloc(128).unwrap();
    let args = [KernelArg::Ptr(out)];
    let f0 = drv.module_get_function(&m, "k0").unwrap();
    drv.launch_kernel(&f0, Dim3::linear(1), Dim3::linear(32), &args).unwrap();

    // Every kernel of the module — launched or not — must now carry its
    // installed instrumented image; the failed one keeps its original code.
    let images: Vec<Vec<u8>> = kernels.iter().map(|k| drv.read_code(*k).unwrap()).collect();
    for (i, (image, original)) in images.iter().zip(&pristine).enumerate() {
        assert_eq!(image == original, fail == Some(i), "kernel k{i} at {workers} workers");
    }
    let mut output = vec![0u8; 128];
    drv.memcpy_dtoh(&mut output, out).unwrap();
    let counter = read_counter(&drv);
    if let Some(bad) = fail {
        drv.launch_kernel(&kernels[bad], Dim3::linear(1), Dim3::linear(32), &args).unwrap();
        assert_eq!(read_counter(&drv), counter, "the failed kernel must run uninstrumented");
    }
    let live_allocs = drv.with_device(|d| d.memory().live_allocs());
    drv.shutdown();
    BatchRun { images, output, counter, live_allocs }
}

/// Paper §6.2 determinism contract: fanning batch instrumentation out
/// across worker threads must yield byte-for-byte the same installed
/// images (trampoline addresses included) as one worker, with fewer, as
/// many and more workers than the 6 kernels — also when the middle
/// kernel's codegen fails, which must neither wedge the batch, leak or
/// reorder a trampoline allocation, nor disturb the other kernels.
#[test]
fn parallel_batch_is_bit_identical_to_serial() {
    for fail in [None, Some(3)] {
        let serial = run_batch(1, fail);
        assert_eq!(serial.images.len(), 6);
        assert!(serial.counter > 0, "instrumentation must actually have run");
        for workers in [2, 3, 8] {
            let par = run_batch(workers, fail);
            let case = format!("{workers} workers, fail = {fail:?}");
            for (i, (s, p)) in serial.images.iter().zip(&par.images).enumerate() {
                assert!(s == p, "kernel k{i}: image differs from serial ({case})");
            }
            assert!(serial.output == par.output, "application output must match ({case})");
            assert_eq!(serial.counter, par.counter, "tool counters must match ({case})");
            assert_eq!(serial.live_allocs, par.live_allocs, "live allocations ({case})");
        }
    }
}

/// `enable_instrumented` on a function with no spec and no image is a
/// no-op: it must succeed, create no phantom cache entry, and leave the
/// launch at native cost.
#[test]
fn enable_instrumented_without_spec_is_a_noop() {
    struct NoopTool {
        checked: Rc<RefCell<bool>>,
    }
    impl NvbitTool for NoopTool {
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
            api.enable_instrumented(*func, true).unwrap();
            api.enable_instrumented(*func, false).unwrap();
            api.enable_instrumented(*func, true).unwrap();
            assert!(!api.is_instrumented(*func), "no phantom entry may be created");
            *self.checked.borrow_mut() = true;
        }
    }

    let run = |with_tool: bool| -> u64 {
        let checked = Rc::new(RefCell::new(false));
        let drv = Driver::new(DeviceSpec::test(Arch::Volta));
        if with_tool {
            attach_tool(&drv, NoopTool { checked: checked.clone() });
        }
        let ctx = drv.ctx_create().unwrap();
        let m = drv.module_load(&ctx, FatBinary::from_ptx("app", multi_kernel_ptx(1))).unwrap();
        let f = drv.module_get_function(&m, "k0").unwrap();
        let out = drv.mem_alloc(128).unwrap();
        let stats = drv
            .launch_kernel(&f, Dim3::linear(1), Dim3::linear(32), &[KernelArg::Ptr(out)])
            .unwrap();
        drv.shutdown();
        assert_eq!(*checked.borrow(), with_tool);
        stats.cycles
    };
    assert_eq!(run(false), run(true), "a no-op enable must not change launch cost");
}

/// `reset_instrumented` must restore native state — including the
/// local-memory override — whether the instrumented version was installed
/// (enabled) or parked (disabled) at the time of the reset.
#[test]
fn reset_clears_local_override_from_both_versions() {
    for disable_first in [false, true] {
        struct ResetTool {
            disable_first: bool,
            launches: u32,
        }
        impl NvbitTool for ResetTool {
            fn at_init(&mut self, api: &NvbitApi<'_>) {
                api.load_tool_functions(COUNT_FN).unwrap();
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
                        let ctr = api.driver().with_device(|d| d.alloc(8)).unwrap();
                        for idx in 0..api.get_instrs(*func).unwrap().len() {
                            api.insert_call(*func, idx, "count_one", IPoint::Before).unwrap();
                            api.add_call_arg_guard_pred(*func, idx).unwrap();
                            api.add_call_arg_imm64(*func, idx, ctr).unwrap();
                        }
                    }
                    1 => {
                        if self.disable_first {
                            api.enable_instrumented(*func, false).unwrap();
                        }
                        api.reset_instrumented(*func).unwrap();
                        assert!(!api.is_instrumented(*func), "reset must wipe the entry");
                        let info = api.driver().function_info(*func).unwrap();
                        assert_eq!(
                            info.local_override, 0,
                            "reset must clear the local override (disable_first={})",
                            self.disable_first
                        );
                    }
                    _ => {}
                }
                self.launches += 1;
            }
        }

        let drv = Driver::new(DeviceSpec::test(Arch::Volta));
        attach_tool(&drv, ResetTool { disable_first, launches: 0 });
        let ctx = drv.ctx_create().unwrap();
        let m = drv.module_load(&ctx, FatBinary::from_ptx("app", multi_kernel_ptx(1))).unwrap();
        let f = drv.module_get_function(&m, "k0").unwrap();
        let out = drv.mem_alloc(128).unwrap();
        let args = [KernelArg::Ptr(out)];
        let s0 = drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(32), &args).unwrap();
        let s1 = drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(32), &args).unwrap();
        let s2 = drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(32), &args).unwrap();
        drv.shutdown();

        assert!(s0.cycles > s1.cycles, "first launch instrumented (disable_first={disable_first})");
        assert_eq!(s1.cycles, s2.cycles, "post-reset launches are native");
    }
}
