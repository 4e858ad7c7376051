//! Module-unload regression tests: unloading a module must evict every
//! per-function cache entry in the core (lifted SASS, instrumentation
//! specs, generated images) and free the trampoline allocations, so that
//! a later module load which recycles the same raw handles is lifted and
//! instrumented from its *own* code, never from a stale cache entry.

use cuda::{CbId, CbParams, CuFunction, Driver, FatBinary, KernelArg};
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

/// Kernel with ONE global store: each thread writes its tid.
const ONE_STORE: &str = r#"
.entry k(.param .u64 out)
{
    .reg .u32 %r<4>;
    .reg .u64 %rd<4>;
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd2, %r1, 4;
    add.u64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r1;
    exit;
}
"#;

/// Kernel with TWO global stores and the same entry name: tid, then
/// tid + 100 at a +128-byte offset.
const TWO_STORES: &str = r#"
.entry k(.param .u64 out)
{
    .reg .u32 %r<4>;
    .reg .u64 %rd<4>;
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd2, %r1, 4;
    add.u64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r1;
    add.u32 %r2, %r1, 100;
    st.global.u32 [%rd3+128], %r2;
    exit;
}
"#;

/// A tool that instruments every *global store* of any function it has not
/// seen instrumented yet, bumping a device counter per executed store.
struct StoreCounter {
    counter_addr: Rc<RefCell<u64>>,
}

impl NvbitTool for StoreCounter {
    fn at_init(&mut self, api: &NvbitApi<'_>) {
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
        // Keyed on the *core's* view, not a host-side seen-set of raw
        // handles: after an unload evicts the cache, a recycled handle
        // must show up as un-instrumented again.
        if is_exit || cbid != CbId::LaunchKernel || api.is_instrumented(*func) {
            return;
        }
        let addr = *self.counter_addr.borrow();
        for instr in api.get_instrs(*func).unwrap().iter() {
            if instr.is_store() && instr.mem_space() == Some(sass::MemSpace::Global) {
                api.insert_call(*func, instr.idx, "count_one", IPoint::Before).unwrap();
                api.add_call_arg_guard_pred(*func, instr.idx).unwrap();
                api.add_call_arg_imm64(*func, instr.idx, addr).unwrap();
            }
        }
    }
}

fn read_counter(drv: &Driver, addr: u64) -> u64 {
    let mut b = [0u8; 8];
    drv.memcpy_dtoh(&mut b, addr).unwrap();
    u64::from_le_bytes(b)
}

/// The stale-cache regression the PR fixes: unload a module, load a new
/// one whose function recycles the *same raw handle and device address*,
/// and prove the new code — not the stale lift — is what gets
/// instrumented and executed.
#[test]
fn recycled_handle_after_unload_is_lifted_fresh() {
    let counter_addr = Rc::new(RefCell::new(0u64));
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    attach_tool(&drv, StoreCounter { counter_addr: counter_addr.clone() });
    let ctx = drv.ctx_create().unwrap();
    let out = drv.mem_alloc(256).unwrap();

    // First module: one store per thread.
    let m1 = drv.module_load(&ctx, FatBinary::from_ptx("app_a", ONE_STORE)).unwrap();
    let f1 = drv.module_get_function(&m1, "k").unwrap();
    let (f1_raw, f1_addr) = (f1.raw(), drv.function_info(f1).unwrap().addr);
    drv.launch_kernel(&f1, Dim3::linear(1), Dim3::linear(32), &[KernelArg::Ptr(out)]).unwrap();
    let addr = *counter_addr.borrow();
    assert_eq!(read_counter(&drv, addr), 32, "one store x 32 threads");

    drv.module_unload(m1).unwrap();
    assert!(drv.function_info(f1).is_err(), "unloaded handle must be dead");

    // Second module: same entry name, two stores. The driver recycles
    // handles lowest-first, so the new module and function reuse the raw
    // handles (and the code allocation slot) the unloaded ones vacated —
    // exactly the aliasing that used to serve a stale lifted image.
    let m2 = drv.module_load(&ctx, FatBinary::from_ptx("app_b", TWO_STORES)).unwrap();
    let f2 = drv.module_get_function(&m2, "k").unwrap();
    assert_eq!(f2.raw(), f1_raw, "raw function handle must be recycled");
    assert_eq!(
        drv.function_info(f2).unwrap().addr,
        f1_addr,
        "device code address must be recycled too"
    );

    drv.launch_kernel(&f2, Dim3::linear(1), Dim3::linear(32), &[KernelArg::Ptr(out)]).unwrap();
    // A stale lift of the first kernel would find one store site (+32);
    // the fresh code has two (+64).
    assert_eq!(read_counter(&drv, addr), 32 + 64, "both stores of the NEW code instrumented");

    // And the new kernel's own semantics survived instrumentation.
    let mut buf = vec![0u8; 256];
    drv.memcpy_dtoh(&mut buf, out).unwrap();
    for t in 0..32u32 {
        let lo = u32::from_le_bytes(buf[t as usize * 4..][..4].try_into().unwrap());
        let hi = u32::from_le_bytes(buf[128 + t as usize * 4..][..4].try_into().unwrap());
        assert_eq!(lo, t);
        assert_eq!(hi, t + 100);
    }
    drv.shutdown();
}

/// Unloading an instrumented module must free the trampoline memory and the
/// code pages the device decoded from it and from the module: the device
/// allocation count, bytes-in-use and decoded-page count return to their
/// post-first-cycle baseline on every subsequent
/// load/instrument/launch/unload cycle.
#[test]
fn unload_frees_trampolines_back_to_baseline() {
    let counter_addr = Rc::new(RefCell::new(0u64));
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    attach_tool(&drv, StoreCounter { counter_addr: counter_addr.clone() });
    let ctx = drv.ctx_create().unwrap();
    let out = drv.mem_alloc(256).unwrap();

    let cycle = |src: &str| {
        let m = drv.module_load(&ctx, FatBinary::from_ptx("app", src)).unwrap();
        let f = drv.module_get_function(&m, "k").unwrap();
        drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(32), &[KernelArg::Ptr(out)]).unwrap();
        assert!(drv.with_device(|d| d.decoded_pages()) > 0, "the launch decoded the kernel");
        drv.module_unload(m).unwrap();
    };

    // First cycle absorbs any one-time allocations (tool counter etc.).
    cycle(ONE_STORE);
    let counters =
        |d: &mut gpu::Device| (d.memory().live_allocs(), d.memory().in_use(), d.decoded_pages());
    let baseline = drv.with_device(counters);

    for round in 0..3 {
        cycle(if round % 2 == 0 { TWO_STORES } else { ONE_STORE });
        assert_eq!(
            drv.with_device(counters),
            baseline,
            "round {round}: allocation and decoded-page counters must return to baseline after unload"
        );
    }
    drv.shutdown();
}

/// Unloading a module that was never instrumented is clean too, and a
/// double unload reports an invalid handle instead of corrupting state.
#[test]
fn unload_without_instrumentation_and_double_unload() {
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    let ctx = drv.ctx_create().unwrap();
    let m = drv.module_load(&ctx, FatBinary::from_ptx("app", ONE_STORE)).unwrap();
    let before = drv.with_device(|d| (d.memory().live_allocs(), d.memory().in_use()));
    drv.module_unload(m).unwrap();
    let after = drv.with_device(|d| (d.memory().live_allocs(), d.memory().in_use()));
    assert!(after.0 < before.0, "module code allocation must be freed");
    assert!(drv.module_unload(m).is_err(), "double unload must fail cleanly");
    assert!(drv.module_functions(&m).is_err());

    // The freed handles are reissued to the next module, lowest-first.
    let m2 = drv.module_load(&ctx, FatBinary::from_ptx("app2", ONE_STORE)).unwrap();
    assert_eq!(m2.raw(), m.raw(), "module handle recycled deterministically");
    drv.shutdown();
}

/// A function handle can be looked up through [`Driver::module_functions`]
/// during the `ModuleUnload` *entry* callback — this is the window the
/// core uses to evict — and the launch after a reload works when a
/// different tool decision is made (no phantom spec survives).
#[test]
fn unload_entry_callback_sees_module_functions() {
    struct Watcher {
        at_entry: Rc<RefCell<Vec<u32>>>,
    }
    impl NvbitTool for Watcher {
        fn at_cuda_event(
            &mut self,
            api: &NvbitApi<'_>,
            is_exit: bool,
            cbid: CbId,
            params: &CbParams<'_>,
        ) {
            if cbid != CbId::ModuleUnload || is_exit {
                return;
            }
            let CbParams::Module { module, .. } = params else { return };
            let funcs = api.driver().module_functions(module).unwrap();
            *self.at_entry.borrow_mut() = funcs.iter().map(CuFunction::raw).collect();
        }
    }
    let seen = Rc::new(RefCell::new(Vec::new()));
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    attach_tool(&drv, Watcher { at_entry: seen.clone() });
    let ctx = drv.ctx_create().unwrap();
    let m = drv.module_load(&ctx, FatBinary::from_ptx("app", ONE_STORE)).unwrap();
    let f = drv.module_get_function(&m, "k").unwrap();
    drv.module_unload(m).unwrap();
    assert_eq!(*seen.borrow(), vec![f.raw()], "entry callback must still see the functions");
    drv.shutdown();
}
