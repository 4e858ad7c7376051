//! What the JIT allocates, counted exactly.
//!
//! A counting `#[global_allocator]` over `System` tallies the allocations
//! the test thread makes while a 32-kernel module — `jit_unique`'s stratum:
//! 27 `short_unique` variants and one each of `stencil5`, `spmv_csr`,
//! `md_force`, `lbm_stream`, `reduce_sum` — goes through the core under
//! `CoalescedInstrCount::executed`, one phase at a time. The counts are
//! host-independent, so the ceiling is a hard gate; the parent commit's
//! figures are recorded next to it. A native `Driver::module_load` of the
//! same module — the PTX front end and backend — is counted alongside.
//!
//! The same file pins the bytes the JIT produces (fft / stencil / spmv at
//! each of the five `PlanLevel` rungs, hashed over all allocated device memory: image,
//! trampolines, save routines, tool code and the application's output) to
//! what the parent commit produced, and asserts at compile time that an
//! instruction is a `Copy` value of at most 80 bytes.

use cuda::{CbId, CbParams, Driver, FatBinary, KernelArg};
use gpu::{DeviceSpec, Dim3, Scheduler};
use nvbit::{attach_tool, NvbitApi, NvbitTool, PlanLevel, PlanOpts};
use nvbit_tools::CoalescedInstrCount;
use sass::Arch;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::rc::Rc;
use workloads::{fft, kernels};

mod shared;
use shared::{stratum, Param};

const _: () = {
    const fn is_copy<T: Copy>() {}
    is_copy::<sass::Instruction>();
    assert!(std::mem::size_of::<sass::Instruction>() <= 80);
};

thread_local! {
    /// Allocations (`alloc`, `alloc_zeroed`, `realloc`) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Blocks this thread gave back (`dealloc`).
    static FREES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn tally(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // `try_with`: a thread past its TLS teardown still allocates.
    let _ = counter.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller was given; the tally touches only a
// `Cell<u64>` thread-locals with no destructor and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(&ALLOCS);
        // SAFETY: the caller's `layout`, as `GlobalAlloc::alloc` requires.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(&ALLOCS);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(&ALLOCS);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        tally(&FREES);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (r, ALLOCS.with(Cell::get) - before)
}

/// Runs `f` and returns the number of blocks it freed.
fn frees_of(f: impl FnOnce()) -> u64 {
    let before = FREES.with(Cell::get);
    f();
    FREES.with(Cell::get) - before
}

/// Allocations per phase, summed over every function of the module.
#[derive(Debug, Default, Clone, Copy)]
struct Phases {
    funcs: u64,
    /// `get_instrs`, first call: read the code, decode, analyse.
    lift: u64,
    /// The tool's own callback: `insert_call` / `add_call_arg` / `set_coalesce`.
    request: u64,
    /// `enable_instrumented`: plan + codegen + verify + upload.
    build: u64,
    /// `verify_instrumented` on the fresh image: the verifier alone.
    verify: u64,
}

/// Wraps the shipped tool and, at a kernel's first launch, drives the core
/// one phase at a time (the order the benchmark's traced run uses).
struct Probe {
    inner: CoalescedInstrCount,
    seen: HashSet<u32>,
    phases: Rc<RefCell<Phases>>,
}

impl NvbitTool for Probe {
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
        let first = match params {
            CbParams::LaunchKernel { func, .. } if !is_exit && cbid == CbId::LaunchKernel => {
                self.seen.insert(func.raw()).then_some(*func)
            }
            _ => None,
        };
        let Some(func) = first else {
            return self.inner.at_cuda_event(api, is_exit, cbid, params);
        };
        let (instrs, lift) = counted(|| api.get_instrs(func).map(|v| v.len()));
        assert!(instrs.unwrap() > 0);
        let ((), request) = counted(|| self.inner.at_cuda_event(api, is_exit, cbid, params));
        let (built, build) = counted(|| api.enable_instrumented(func, true));
        built.unwrap();
        let (diags, verify) = counted(|| api.verify_instrumented(func));
        assert_eq!(diags.unwrap(), vec![], "the verifier accepts the image");
        let mut p = self.phases.borrow_mut();
        p.funcs += 1;
        p.lift += lift;
        p.request += request;
        p.build += build;
        p.verify += verify;
    }
}

fn launch_args(drv: &Driver, params: &[Param]) -> Vec<KernelArg> {
    params
        .iter()
        .map(|p| match *p {
            Param::Buf => KernelArg::Ptr(drv.mem_alloc(1024).unwrap()),
            Param::U32(v) => KernelArg::U32(v),
            Param::F32(v) => KernelArg::F32(v),
        })
        .collect()
}

fn serial_driver() -> Driver {
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    drv.with_device(|d| d.scheduler = Scheduler::Serial);
    drv
}

/// Loads and launches the stratum, with the probe attached or natively;
/// returns the per-phase counts, the allocations of `Driver::module_load`
/// (the PTX front end, the backend and the upload) and the blocks the
/// teardown frees (`shutdown` and the drop of the driver with everything
/// the core cached: what `driver.shutdown` costs is what the run left on
/// the heap).
fn run_stratum(instrumented: bool) -> (Phases, u64, u64) {
    let (source, kernels_) = stratum();
    let phases = Rc::new(RefCell::new(Phases::default()));
    let drv = serial_driver();
    if instrumented {
        let (inner, _results) = CoalescedInstrCount::executed(PlanOpts::default());
        attach_tool(&drv, Probe { inner, seen: HashSet::new(), phases: phases.clone() });
    }
    let ctx = drv.ctx_create().unwrap();
    let fatbin = FatBinary::from_ptx("stratum", source);
    let (module, load) = counted(|| drv.module_load(&ctx, fatbin).unwrap());
    for (name, params) in &kernels_ {
        let f = drv.module_get_function(&module, name).unwrap();
        let args = launch_args(&drv, params);
        drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(32), &args).unwrap();
    }
    let teardown = frees_of(|| {
        drv.shutdown();
        drop(drv);
    });
    let p = *phases.borrow();
    (p, load, teardown)
}

/// What the parent commit measured, per function, in this test: lift 41,
/// request 20, build 344 of which the verifier 155, and 43 more blocks to
/// free at teardown than a native run — 447 in all. Of the verifier's 155,
/// 85 were a dominator solve per spliced diamond (now one per loaded tool
/// body) and most of the rest its site walk's lists; of lift, request and
/// build, a `FunctionInfo` copy per read. The ceilings are what this commit
/// measures plus a few per cent, so a per-splice solve (≈ 85 per function)
/// cannot come back unnoticed. (Of the build's 222, 44 are the first build
/// assembling the save/restore routines from text, spread over these 32
/// functions only.) Since the verifier re-derives the plan from the request
/// (one more `plan::build` per verification), verify measures 62 and build
/// 246 where they measured 37 and 222, and the verify, build and total
/// ceilings rose by that plan run's 25, 24 and 21. A planned call no longer
/// carries its group's origins (two vectors each, in both plan runs): verify
/// measures 54, build 231 and the total 318, and the ceilings fell by as
/// much, keeping their slack of 3, 8 and 8. With counter promotion the top
/// rung these call-free, single-`EXIT` kernels are promoted: build measures
/// 230 and teardown 28 where they measured 231 and 39 (a promoted site is an
/// `IADD`, so a launch decodes fewer trampoline code pages, which teardown
/// frees), the total 306, and those ceilings fell by as much. The verifier
/// now takes the build's decode, analysis and plan instead of deriving its
/// own: the verification inside the build decodes no original, analyses
/// nothing and plans nothing, and `verify_instrumented` only plans. Build
/// measures 180, verify 23 and the total 255, and those ceilings fell by as
/// much, keeping their slack of 8, 3 and 8. The planner no longer keeps a
/// per-body vector of the sites that carried a call (it counted the sites
/// coalescing emptied, which nothing read), one allocation in each plan run:
/// build measures 179, verify 22 and the total 254, and those ceilings fell
/// by 1. The JIT then began doing only the work a build uses, against a
/// parent measuring lift 36, build 174, teardown 28 and total 248: at the
/// top rung every call of these kernels is lowered, so no build loads the
/// save/restore routines (assembling them from text was 140 of the build's
/// 174, spread over the 32 functions), the lift solves no liveness (its
/// three vectors) and the body is the original's bytes with the site
/// words encoded, not a re-assembled copy. Lift measures 33, build 33,
/// teardown 27 and the total 104, and those ceilings fell by as much.
const PARENT: [u64; 5] = [41, 20, 344, 155, 43];
const CEILING: [u64; 5] = [37, 14, 46, 25, 36];
const CEILING_TOTAL: u64 = 118;
/// `Driver::module_load` of the stratum, natively, per function: what the
/// commit before the PTX front end moved to borrowed tokens and dense ids
/// measured here, and the ceiling since.
const MODULE_LOAD_PARENT: u64 = 539;
const MODULE_LOAD_CEILING: u64 = 64;

#[test]
fn the_jit_stays_inside_its_allocation_budget() {
    let (_, native_load, native_teardown) = run_stratum(false);
    let (p, _, teardown) = run_stratum(true);
    assert_eq!(p.funcs, 32);
    let per = |n: u64| n.div_ceil(p.funcs);
    let teardown = teardown.saturating_sub(native_teardown);
    let phases = ["lift", "request", "build", "  of which verify", "teardown frees over native"];
    let measured = [p.lift, p.request, p.build, p.verify, teardown].map(per);
    let total = per(p.lift + p.request + p.build + teardown);
    println!("allocations per function, 32-kernel stratum, CoalescedInstrCount::executed");
    println!("  {:<28} {:>8} {:>8} {:>8}", "phase", "parent", "measured", "ceiling");
    for i in 0..phases.len() {
        println!("  {:<28} {:>8} {:>8} {:>8}", phases[i], PARENT[i], measured[i], CEILING[i]);
    }
    println!("  {:<28} {:>8} {total:>8} {CEILING_TOTAL:>8}", "total", 447);
    let load = per(native_load);
    println!(
        "  {:<28} {MODULE_LOAD_PARENT:>8} {load:>8} {MODULE_LOAD_CEILING:>8}",
        "module_load (native)"
    );
    assert!(load <= MODULE_LOAD_CEILING, "module_load: {load} > {MODULE_LOAD_CEILING}");
    for i in 0..phases.len() {
        assert!(
            measured[i] <= CEILING[i],
            "{}: {} > {}",
            phases[i].trim(),
            measured[i],
            CEILING[i]
        );
    }
    assert!(total <= CEILING_TOTAL, "total: {total} > {CEILING_TOTAL}");
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3))
}

/// One launch of `entry` under the coalesced counter at `level`; returns
/// the hash of all allocated device memory afterwards. Nothing is freed, so
/// the allocations are the contiguous range behind the null page.
fn device_hash(level: PlanLevel, source: &str, entry: &str, params: &[Param]) -> u64 {
    let drv = serial_driver();
    let (tool, _results) = CoalescedInstrCount::executed(PlanOpts { level });
    attach_tool(&drv, tool);
    let ctx = drv.ctx_create().unwrap();
    let m = drv.module_load(&ctx, FatBinary::from_ptx(entry, source)).unwrap();
    let f = drv.module_get_function(&m, entry).unwrap();
    let args = launch_args(&drv, params);
    drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(32), &args).unwrap();
    let bytes = drv.with_device(|d| {
        let mut all = vec![0u8; d.memory().in_use() as usize];
        d.read(gpu::mem::ALLOC_ALIGN, &mut all).unwrap();
        all
    });
    drv.shutdown();
    fnv1a(&bytes)
}

/// fft / stencil / spmv at the four rungs: the bytes are the parent
/// commit's (recorded there with this function; `Promoted`, the rung every
/// benchmark workload runs, last of each app's four). The three `Promoted`
/// hashes moved when the save/restore routines began loading only for a
/// build that calls out of line: no routine is allocated ahead of the
/// trampoline there. The parent given only that deferral gives the same
/// three; the other nine load routines and stay the parent's.
#[test]
fn images_are_byte_identical_to_the_parent_commit() {
    use Param::{Buf, U32};
    let apps: [(&str, String, Vec<Param>); 3] = [
        ("fft32_soft", fft::soft_fft_kernel_ptx(), vec![Buf, Buf]),
        (
            "step",
            format!(".version 6.0\n{}", kernels::stencil5("step")),
            vec![Buf, Buf, U32(3), U32(34)],
        ),
        (
            "spmv",
            format!(".version 6.0\n{}", kernels::spmv_csr("spmv")),
            vec![Buf, Buf, Buf, Buf, Buf, U32(32)],
        ),
    ];
    let levels = [PlanLevel::Naive, PlanLevel::Block, PlanLevel::Region, PlanLevel::Promoted];
    let got: Vec<u64> = apps
        .iter()
        .flat_map(|(entry, source, params)| {
            levels.map(|level| device_hash(level, source, entry, params))
        })
        .collect();
    assert_eq!(got, PARENT_HASHES, "{got:#018x?}");
}

const PARENT_HASHES: [u64; 12] = [
    0x96dc_803b_bf77_5901,
    0x91e3_ad7e_b409_6cd0,
    0x91e3_ad7e_b409_6cd0,
    0x9e28_a0e1_4703_4d32,
    0xc488_ef48_529d_1937,
    0xdd7e_d2ea_2368_6181,
    0xe63b_5849_bf70_90ba,
    0x26c5_9f6e_5201_d381,
    0xe393_a5c9_2981_2c3a,
    0x2163_3dc5_d6cb_ce7f,
    0xa894_c0c9_e34a_2dc3,
    0xb619_493e_7a6a_289a,
];
