//! Code-cache behaviour that needs no observability counters: a launch
//! builds the launched function and what is reachable from it through
//! `related` — nothing else — with images byte-identical to the ones the
//! batch pipeline this replaced produced, a request that grows replaces the
//! function's image instead of adding one, and so does reloading a tool
//! function it calls, `enable_instrumented` must not
//! conjure phantom cache entries, and `reset_instrumented` must clear the
//! local-memory override regardless of which version was installed at the
//! time.

use cuda::{CbId, CbParams, Driver, FatBinary, KernelArg};
use gpu::{DeviceSpec, Dim3};
use nvbit::saverestore::TIERS;
use nvbit::{attach_tool, IPoint, NvbitApi, NvbitTool, PlanLevel, PlanOpts};
use sass::Arch;
use std::cell::{Cell, RefCell};
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
/// launched kernel's module with per-instruction counting, and enables
/// none. Kernel number `fail`, if any, also gets more arguments than the
/// ABI window holds, so its codegen fails before its trampoline is
/// allocated.
struct BatchTool {
    fail: Option<usize>,
    counter_addr: Rc<RefCell<u64>>,
    done: bool,
}

impl NvbitTool for BatchTool {
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

/// The tool's counter, which lives at the address `at_init` stored.
fn read_counter(drv: &Driver, counter_addr: &RefCell<u64>) -> u64 {
    let mut b = [0u8; 8];
    drv.memcpy_dtoh(&mut b, *counter_addr.borrow()).unwrap();
    u64::from_le_bytes(b)
}

fn live_allocs(drv: &Driver) -> usize {
    drv.with_device(|d| d.memory().live_allocs())
}

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// What `k{i}` of [`multi_kernel_ptx`] stores for thread `tid`.
fn expected_output(i: usize) -> Vec<u8> {
    let value = |tid: u32| {
        let r2 = tid + i as u32 + 1;
        ((r2 * 3 + 7) & 1023) + r2
    };
    (0..32).flat_map(|tid| value(tid).to_le_bytes()).collect()
}

/// Launches `k0…k5` of a 6-kernel module in order under [`BatchTool`],
/// checking after every launch that it built exactly the launched kernel.
/// Returns the hash of the six installed images, the allocations left live
/// and the tool's count per launch.
fn launch_all_six(fail: Option<usize>) -> (u64, usize, Vec<u64>) {
    const N: usize = 6;
    let counter_addr = Rc::new(RefCell::new(0u64));
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    attach_tool(&drv, BatchTool { fail, counter_addr: counter_addr.clone(), done: false });
    let ctx = drv.ctx_create().unwrap();
    let m = drv.module_load(&ctx, FatBinary::from_ptx("app", multi_kernel_ptx(N))).unwrap();
    let kernels = drv.module_kernels(&m).unwrap();
    let pristine: Vec<Vec<u8>> = kernels.iter().map(|k| drv.read_code(*k).unwrap()).collect();
    let out = drv.mem_alloc(128).unwrap();
    let args = [KernelArg::Ptr(out)];

    // The first build also loads the save/restore routines.
    let mut allocs = live_allocs(&drv) + 2 * TIERS.len();
    let mut counts = Vec::new();
    for launched in 0..N {
        let case = format!("launch of k{launched}, fail = {fail:?}");
        let before = read_counter(&drv, &counter_addr);
        drv.launch_kernel(&kernels[launched], Dim3::linear(1), Dim3::linear(32), &args).unwrap();
        counts.push(read_counter(&drv, &counter_addr) - before);
        let mut output = vec![0u8; 128];
        drv.memcpy_dtoh(&mut output, out).unwrap();
        assert_eq!(output, expected_output(launched), "application output ({case})");

        // Launched kernels carry their image — the failing one runs its
        // original code, uncounted — and the rest are untouched and own no
        // body.
        for (i, original) in pristine.iter().enumerate() {
            let built = i <= launched && fail != Some(i);
            assert_eq!(&drv.read_code(kernels[i]).unwrap() != original, built, "k{i} ({case})");
        }
        allocs += usize::from(fail != Some(launched));
        assert_eq!(live_allocs(&drv), allocs, "one body per built kernel ({case})");
        assert_eq!(counts[launched] > 0, fail != Some(launched), "tool count ({case})");
    }
    let images = fnv1a(kernels.iter().flat_map(|k| drv.read_code(*k).unwrap()));
    drv.shutdown();
    (images, allocs, counts)
}

/// A function is built at its own launch: instrumenting a whole module
/// from one launch callback builds only the kernel being launched, and the
/// other five are installed one by one as they launch. A kernel whose
/// codegen fails runs uninstrumented, allocates nothing and disturbs no
/// other kernel. The six installed images hash to what the parent commit's
/// batch pipeline installed at the first launch (recorded there; it
/// allocated in the same order), trampoline addresses included. Both
/// hashes moved when `count_one`, spliceable with no effect to lower, went
/// from spliced to called out of line: the commit before, planning no
/// splice, installed these same bytes. They moved again, from
/// `0x10ad_19a7_c8a2_bac9` and `0xa803_264d_c54f_5015`, when each image
/// became the original but for one entry jump into a relocated body.
#[test]
fn a_launch_builds_exactly_the_launched_kernel() {
    let (images, allocs, counts) = launch_all_six(None);
    assert_eq!(images, 0xce9d_0be5_007b_fe6d, "images differ from the recorded ones");

    let (images, allocs_failing, counts_failing) = launch_all_six(Some(3));
    assert_eq!(images, 0x6e26_82f7_2be1_504e, "images differ from the recorded ones");
    assert_eq!(allocs_failing, allocs - 1, "the failing kernel leaks nothing");
    for (i, (failing, all)) in counts_failing.iter().zip(&counts).enumerate() {
        assert_eq!(*failing, if i == 3 { 0 } else { *all }, "tool count of k{i}");
    }
}

/// A function owns one instrumented image: a request that grows after the
/// first build — a second call on every instruction, added at the third
/// launch — is built once more, from the original, *in place of* the image
/// the function had. Both requests count from then on, and the function
/// still owns exactly one trampoline region.
#[test]
fn a_request_that_grows_replaces_the_image_and_its_trampoline_region() {
    /// Counts every instruction into the first counter from launch 0 on and
    /// into the second from launch 2 on.
    struct GrowTool {
        counters: Rc<RefCell<u64>>,
        launches: u32,
    }
    impl NvbitTool for GrowTool {
        fn at_init(&mut self, api: &NvbitApi<'_>) {
            api.load_tool_functions(COUNT_FN).unwrap();
            *self.counters.borrow_mut() = api.driver().with_device(|d| d.alloc(16)).unwrap();
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
            if let 0 | 2 = self.launches {
                let counter = *self.counters.borrow() + 4 * u64::from(self.launches);
                // (a counter each: offsets 0 and 8)
                for idx in 0..api.get_instrs(*func).unwrap().len() {
                    api.insert_call(*func, idx, "count_one", IPoint::Before).unwrap();
                    api.add_call_arg_guard_pred(*func, idx).unwrap();
                    api.add_call_arg_imm64(*func, idx, counter).unwrap();
                }
            }
            self.launches += 1;
        }
    }

    let counters = Rc::new(RefCell::new(0u64));
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    attach_tool(&drv, GrowTool { counters: counters.clone(), launches: 0 });
    let ctx = drv.ctx_create().unwrap();
    let m = drv.module_load(&ctx, FatBinary::from_ptx("app", multi_kernel_ptx(1))).unwrap();
    let f = drv.module_get_function(&m, "k0").unwrap();
    let pristine = drv.read_code(f).unwrap();
    let out = drv.mem_alloc(128).unwrap();

    // The first build loads the save/restore routines and allocates the
    // function's trampoline region; nothing after it may add to that.
    let one_region = live_allocs(&drv) + 2 * TIERS.len() + 1;
    let mut installed = Vec::new();
    let mut counts = Vec::new();
    for launch in 0..4 {
        drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(32), &[KernelArg::Ptr(out)]).unwrap();
        let mut output = vec![0u8; 128];
        drv.memcpy_dtoh(&mut output, out).unwrap();
        assert_eq!(output, expected_output(0), "application output (launch {launch})");
        assert_eq!(live_allocs(&drv), one_region, "one trampoline region (launch {launch})");
        installed.push(drv.read_code(f).unwrap());
        let mut pair = [0u8; 16];
        drv.memcpy_dtoh(&mut pair, *counters.borrow()).unwrap();
        let count = |at: usize| u32::from_le_bytes(pair[at..at + 4].try_into().unwrap());
        counts.push((count(0), count(8)));
    }
    let per_launch = 32 * (pristine.len() / Arch::Volta.instruction_size()) as u32;
    assert_eq!(
        counts,
        [(1, 0), (2, 0), (3, 1), (4, 2)].map(|(a, b)| (a * per_launch, b * per_launch)),
        "both requests count once the second is made"
    );
    assert_ne!(installed[0], pristine);
    assert_eq!(installed[0], installed[1], "an unchanged request is not rebuilt");
    assert_ne!(installed[1], installed[2], "the grown request is");
    assert_eq!(installed[2], installed[3], "once");
    drv.shutdown();
}

/// `bump`: adds `n` to the `u64` at `%ctr`, once per thread.
fn bump_fn(n: u32) -> String {
    format!(
        ".func bump(.reg .u64 %ctr)\n{{\n    .reg .u64 %rd<3>;\n    mov.u64 %rd1, {n};\n    \
         atom.global.add.u64 %rd2, [%ctr], %rd1;\n    ret;\n}}\n"
    )
}

#[test]
fn reloading_a_tool_function_makes_the_images_that_call_it_stale() {
    /// Calls `bump` (+1) before every instruction from launch 0 on, reloads
    /// it as +2 at the entry of launch 1 and verifies the image the core
    /// then runs at its exit.
    struct ReloadTool {
        level: PlanLevel,
        ctr: Rc<Cell<u64>>,
        launches: u32,
        diags: Rc<RefCell<Vec<String>>>,
    }
    impl NvbitTool for ReloadTool {
        fn at_init(&mut self, api: &NvbitApi<'_>) {
            api.set_plan_opts(PlanOpts { level: self.level });
            api.load_tool_functions(&bump_fn(1)).unwrap();
            self.ctr.set(api.driver().with_device(|d| d.alloc(8)).unwrap());
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
            match (is_exit, self.launches) {
                (false, 0) => {
                    for idx in 0..api.get_instrs(*func).unwrap().len() {
                        api.insert_call(*func, idx, "bump", IPoint::Before).unwrap();
                        api.add_call_arg_imm64(*func, idx, self.ctr.get()).unwrap();
                    }
                }
                (false, _) => api.load_tool_functions(&bump_fn(2)).unwrap(),
                (true, 1) => {
                    let diags = api.verify_instrumented(*func).unwrap();
                    *self.diags.borrow_mut() = diags.iter().map(|d| format!("{d:?}")).collect();
                }
                (true, _) => {}
            }
            self.launches += u32::from(is_exit);
        }
    }

    const ONE: &str = ".entry one()\n{\n    exit;\n}\n";
    for level in [PlanLevel::Naive, PlanLevel::Region, PlanLevel::Promoted] {
        let (ctr, diags) = (Rc::new(Cell::new(0)), Rc::new(RefCell::new(Vec::new())));
        let tool = ReloadTool { level, ctr: ctr.clone(), launches: 0, diags: diags.clone() };
        let drv = Driver::new(DeviceSpec::test(Arch::Volta));
        attach_tool(&drv, tool);
        let ctx = drv.ctx_create().unwrap();
        let m = drv.module_load(&ctx, FatBinary::from_ptx("app", ONE)).unwrap();
        let f = drv.module_get_function(&m, "one").unwrap();
        assert_eq!(drv.read_code(f).unwrap().len(), Arch::Volta.instruction_size());
        for _ in 0..2 {
            drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(32), &[]).unwrap();
        }
        let mut word = [0u8; 8];
        drv.memcpy_dtoh(&mut word, ctr.get()).unwrap();
        drv.shutdown();
        assert_eq!(u64::from_le_bytes(word), 32 + 2 * 32, "{level:?}: the reload counts");
        assert!(diags.borrow().is_empty(), "{level:?}: {:?}", diags.borrow());
    }
}

/// A kernel that calls `outer`, which calls `inner`, and a kernel of the
/// same module that calls neither.
const CALL_CHAIN: &str = r#"
.func (.reg .u32 %out) inner(.reg .u32 %x)
{
    add.u32 %out, %x, 1;
    ret;
}
.func (.reg .u32 %out) outer(.reg .u32 %x)
{
    .reg .u32 %t<2>;
    call (%t1), inner, (%x);
    add.u32 %out, %t1, %x;
    ret;
}
.entry caller(.param .u64 out)
{
    .reg .u32 %r<4>;
    .reg .u64 %rd<4>;
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, %tid.x;
    call (%r2), outer, (%r1);
    mul.wide.u32 %rd2, %r1, 4;
    add.u64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r2;
    exit;
}
.entry bystander(.param .u64 out)
{
    .reg .u64 %rd<2>;
    ld.param.u64 %rd1, [out];
    exit;
}
"#;

/// NVBit's `apply_to_related` rule: device functions that were instrumented
/// but never enabled are built when a kernel they are reachable from is
/// launched — through two levels of `related`, and although the kernel
/// itself carries no request — and not when an unrelated kernel is.
#[test]
fn a_related_device_function_is_built_with_the_kernel_that_calls_it() {
    /// At the first launch, counts every instruction of the module's device
    /// functions; enables nothing.
    struct CalleeTool {
        counter_addr: Rc<RefCell<u64>>,
        sites: Rc<RefCell<u64>>,
    }
    impl NvbitTool for CalleeTool {
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
            if is_exit || cbid != CbId::LaunchKernel || *self.sites.borrow() > 0 {
                return;
            }
            let addr = *self.counter_addr.borrow();
            let drv = api.driver();
            let module = drv.function_info(*func).unwrap().module;
            for f in drv.module_functions(&module).unwrap() {
                if drv.function_info(f).unwrap().kind != ptx::FunctionKind::Device {
                    continue;
                }
                for idx in 0..api.get_instrs(f).unwrap().len() {
                    api.insert_call(f, idx, "count_one", IPoint::Before).unwrap();
                    api.add_call_arg_guard_pred(f, idx).unwrap();
                    api.add_call_arg_imm64(f, idx, addr).unwrap();
                    *self.sites.borrow_mut() += 1;
                }
            }
        }
    }

    for bystander_first in [false, true] {
        let counter_addr = Rc::new(RefCell::new(0u64));
        let sites = Rc::new(RefCell::new(0u64));
        let drv = Driver::new(DeviceSpec::test(Arch::Volta));
        attach_tool(&drv, CalleeTool { counter_addr: counter_addr.clone(), sites: sites.clone() });
        let ctx = drv.ctx_create().unwrap();
        let m = drv.module_load(&ctx, FatBinary::from_ptx("app", CALL_CHAIN)).unwrap();
        let callees = ["outer", "inner"].map(|n| drv.module_get_function(&m, n).unwrap());
        let pristine = callees.map(|f| drv.read_code(f).unwrap());
        let out = drv.mem_alloc(128).unwrap();
        let args = [KernelArg::Ptr(out)];
        let launch = |name: &str| {
            let k = drv.module_get_function(&m, name).unwrap();
            drv.launch_kernel(&k, Dim3::linear(1), Dim3::linear(32), &args).unwrap();
        };

        if bystander_first {
            let allocs = live_allocs(&drv);
            launch("bystander");
            assert!(*sites.borrow() > 0, "the tool instruments at the first launch");
            assert_eq!(callees.map(|f| drv.read_code(f).unwrap()), pristine, "nothing installed");
            assert_eq!(live_allocs(&drv), allocs, "nothing built");
        }
        launch("caller");
        assert_eq!(
            read_counter(&drv, &counter_addr),
            32 * *sites.borrow(),
            "every callee instruction counts"
        );
        let mut output = vec![0u8; 128];
        drv.memcpy_dtoh(&mut output, out).unwrap();
        let expected: Vec<u8> = (0..32u32).flat_map(|tid| (2 * tid + 1).to_le_bytes()).collect();
        assert_eq!(output, expected, "application output (bystander_first = {bystander_first})");
        drv.shutdown();
    }
}

/// `enable_instrumented(kernel, ..)` switches the kernel and every function
/// it reaches, NVBit's `apply_to_related` default: off puts the callees'
/// original bytes back with the kernel's, and on puts the same images back,
/// with no rebuild.
#[test]
fn enabling_a_kernel_swaps_the_functions_it_reaches_without_a_rebuild() {
    /// Counts every instruction of the launched kernel's module at the
    /// first launch; turns the kernel off at the second launch and on again
    /// at the third.
    struct Sampler {
        counter_addr: Rc<RefCell<u64>>,
        launches: u32,
    }
    impl NvbitTool for Sampler {
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
            if is_exit || cbid != CbId::LaunchKernel {
                return;
            }
            let addr = *self.counter_addr.borrow();
            match self.launches {
                0 => {
                    let module = api.driver().function_info(*func).unwrap().module;
                    for f in api.driver().module_functions(&module).unwrap() {
                        for idx in 0..api.get_instrs(f).unwrap().len() {
                            api.insert_call(f, idx, "count_one", IPoint::Before).unwrap();
                            api.add_call_arg_guard_pred(f, idx).unwrap();
                            api.add_call_arg_imm64(f, idx, addr).unwrap();
                        }
                    }
                }
                n => api.enable_instrumented(*func, n != 1).unwrap(),
            }
            self.launches += 1;
        }
    }

    let counter_addr = Rc::new(RefCell::new(0u64));
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    attach_tool(&drv, Sampler { counter_addr: counter_addr.clone(), launches: 0 });
    let ctx = drv.ctx_create().unwrap();
    let m = drv.module_load(&ctx, FatBinary::from_ptx("app", CALL_CHAIN)).unwrap();
    let unit = ["caller", "outer", "inner"].map(|n| drv.module_get_function(&m, n).unwrap());
    let code = || unit.map(|f| drv.read_code(f).unwrap());
    let pristine = code();
    let out = drv.mem_alloc(128).unwrap();
    let launch = || {
        let args = [KernelArg::Ptr(out)];
        drv.launch_kernel(&unit[0], Dim3::linear(1), Dim3::linear(32), &args).unwrap();
        read_counter(&drv, &counter_addr)
    };

    let counted = launch();
    let instrumented = code();
    assert!(counted > 0);
    for i in 0..3 {
        assert_ne!(instrumented[i], pristine[i], "function {i} is instrumented at launch");
    }
    let allocs = live_allocs(&drv);
    assert_eq!(launch(), counted, "off: nothing the kernel reaches counts");
    assert_eq!(code(), pristine, "off: every function of the unit runs its original");
    assert_eq!(launch(), 2 * counted, "on: the whole unit counts again");
    assert_eq!(code(), instrumented, "on: the same images, no rebuild");
    assert_eq!(live_allocs(&drv), allocs, "no trampoline region came or went");
    drv.shutdown();
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
