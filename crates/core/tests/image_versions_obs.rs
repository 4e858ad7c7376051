//! Observability-counter proof of the code cache's pair: flipping
//! `enable_instrumented` back and forth must never re-run codegen (version
//! swaps are O(memcpy) — paper §6.2), a changed save policy rebuilds the
//! function's one image in place, and a module unload must show up as cache
//! evictions.
//!
//! The same capture also proves the JIT breakdown of paper Fig. 5 comes
//! from obs spans alone: all six phases are attributed, and a function is
//! decoded exactly once per lift. And the counters pin the refusal path:
//! an image the pre-swap verifier rejects is never installed and keeps no
//! trampoline region, while an indirect branch (calls planned under the ICF
//! exception, or a trailing `BRX` instrumented) costs no rejection, and a
//! `BRX` into a straight-line run is counted exactly at every plan rung.
//!
//! Each test reads its own driver's recorder, so they run in parallel.

use cuda::{CbId, CbParams, Driver, FatBinary, KernelArg};
use gpu::{DeviceSpec, Dim3};
use nvbit::saverestore::TIERS;
use nvbit::{
    attach_tool, DiagKind, Diagnostic, IPoint, NvbitApi, NvbitTool, PlanLevel, PlanOpts, SavePolicy,
};
use sass::{Arch, Instruction, Op, Operand};
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

/// The multiplicity protocol's counter: adds the number of sites a call
/// stands for.
const COUNT_MULT_FN: &str = r#"
.func count_mult(.reg .u64 %ctr, .reg .u32 %mult)
{
    .reg .u64 %rd<3>;
    cvt.u64.u32 %rd1, %mult;
    atom.global.add.u64 %rd2, [%ctr], %rd1;
    ret;
}
"#;

const APP: &str = r#"
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

/// Instruments at the first launch, then exercises the code cache: enable
/// flips on launches 1–5 (which leave the original installed), then a
/// save-policy change on each of launches 6–9.
struct Flipper {
    launches: u32,
}

impl NvbitTool for Flipper {
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
            1..=5 => {
                // §6.2 sampling: versions swap, nothing rebuilds.
                api.enable_instrumented(*func, self.launches.is_multiple_of(2)).unwrap();
            }
            6 => api.set_save_policy(SavePolicy::FullTier),
            7 => api.set_save_policy(SavePolicy::Liveness),
            8 => api.set_save_policy(SavePolicy::FullTier),
            _ => api.set_save_policy(SavePolicy::Liveness),
        }
        self.launches += 1;
    }
}

/// A driver that records from its first call on.
fn observed_driver() -> Driver {
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    drv.obs().set_enabled(true);
    drv
}

fn live_allocs(drv: &Driver) -> usize {
    drv.with_device(|d| d.memory().live_allocs())
}

#[test]
fn version_flips_reuse_cached_images_and_unload_evicts() {
    let drv = observed_driver();
    attach_tool(&drv, Flipper { launches: 0 });
    let ctx = drv.ctx_create().unwrap();
    let out = drv.mem_alloc(128).unwrap();
    let baseline = live_allocs(&drv);
    let m = drv.module_load(&ctx, FatBinary::from_ptx("app", APP)).unwrap();
    let f = drv.module_get_function(&m, "k").unwrap();
    let expected: Vec<u8> = (0..32u32).flat_map(u32::to_le_bytes).collect();
    let mut allocs = Vec::new();
    for launch in 0..10 {
        drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(32), &[KernelArg::Ptr(out)]).unwrap();
        let mut output = vec![0u8; 128];
        drv.memcpy_dtoh(&mut output, out).unwrap();
        assert_eq!(output, expected, "application output (launch {launch})");
        allocs.push(live_allocs(&drv));
    }
    // Every rebuild freed the region of the image it replaced, and the
    // unload frees the last one: what stays is the save/restore routines
    // and the tool's counter.
    assert_eq!(allocs[1..], [allocs[0]; 9], "one trampoline region throughout");
    drv.module_unload(m).unwrap();
    assert_eq!(live_allocs(&drv), baseline + 2 * TIERS.len() + 1);
    drv.shutdown();

    let report = drv.obs().report();

    // The first launch builds; the five enable toggles (two looks at the
    // cache each: the toggle's and the launch's) rebuild nothing; each of
    // the four policy changes makes the image stale and costs one rebuild —
    // a launch builds a tracked function's image whichever version is wanted.
    let builds: Vec<bool> = report
        .events
        .iter()
        .filter_map(|e| match e.name {
            "instr_image.build" => Some(true),
            "instr_image.reuse" => Some(false),
            _ => None,
        })
        .collect();
    let expected: Vec<bool> = [vec![true], vec![false; 10], vec![true; 4]].concat();
    assert_eq!(builds, expected, "build (true) / reuse (false), in order");
    // The original is read and lifted exactly once for all five images.
    assert_eq!(report.counter_sum("lift_cache.miss"), 1);
    assert!(report.counter_sum("lift_cache.hit") >= 5);

    // The unload evicted one lifted function and the one image it carried.
    assert_eq!(report.counter_sum("module.unloads"), 1);
    assert_eq!(report.counter_sum("lift_cache.evict"), 1);
    assert_eq!(report.counter_sum("instr_image.evict"), 1);
    assert_eq!(report.counter_sum("tramp.free_fail"), 0, "all trampolines free cleanly");
}

/// The six JIT-overhead components of paper Fig. 5 — retrieve,
/// disassemble, convert, user code, code generation, swap — each show up
/// as an obs phase with non-zero time, the lifter decodes a function once
/// (no second decode feeding a stopwatch), and the static analysis runs
/// once per lift: the pre-swap verification takes the lifter's.
#[test]
fn jit_phases_attribute_all_six_components() {
    let drv = observed_driver();
    attach_tool(&drv, Flipper { launches: 0 });
    let ctx = drv.ctx_create().unwrap();
    let m = drv.module_load(&ctx, FatBinary::from_ptx("app", APP)).unwrap();
    let f = drv.module_get_function(&m, "k").unwrap();
    let out = drv.mem_alloc(128).unwrap();
    drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(32), &[KernelArg::Ptr(out)]).unwrap();
    drv.shutdown();

    let report = drv.obs().report();

    for phase in ["retrieve", "disassemble", "convert", "user_code", "codegen", "swap"] {
        let p = report.phases.get(phase).unwrap_or_else(|| panic!("phase {phase} missing"));
        assert!(p.count > 0 && p.total_ns > 0, "phase {phase} not attributed: {p:?}");
    }
    // One function, lifted once, decoded once.
    assert_eq!(report.counter_sum("lift_cache.miss"), 1);
    assert_eq!(report.phases["lift"].count, 1);
    assert_eq!(report.phases["disassemble"].count, 1);
    assert_eq!(report.counters["sass.decode"].count, 1, "one decode per lift");
    // The body is analyzed once, by the lifter; the build plans and
    // verifies on that analysis, and nothing else on the JIT path
    // partitions or solves it again.
    assert_eq!(report.phases["verify"].count, 1);
    assert_eq!(
        report.counters["sass.analysis"].count, report.phases["lift"].count,
        "one analysis per lift"
    );
    assert_eq!(report.open_spans, 0);
}

/// `APP`'s image with `extra` appended behind its `EXIT`, where it never
/// runs.
fn app_with_trailing(extra: Instruction) -> ptx::CompiledModule {
    let mut image = ptx::compile_module(APP, Arch::Volta).unwrap();
    let k = &mut image.functions[0];
    let mut instrs = k.decode();
    instrs.push(extra);
    k.code = sass::codec::codec_for(Arch::Volta).encode_stream(&instrs).unwrap();
    image
}

fn brx() -> Instruction {
    Instruction::new(Op::Brx, [Operand::Reg(sass::Reg(4))])
}

/// What [`Verdict`] saw from inside its callbacks.
#[derive(Default)]
struct VerdictSeen {
    counter_addr: u64,
    live_allocs_at_launch: usize,
    diags: Vec<Diagnostic>,
    tracked_after_launch: Option<bool>,
}

/// Counts the instructions `sites` picks out of the first kernel launched
/// (given its length) through a coalesce-marked multiplicity counter, asks
/// for the verifier's verdict, and notes at launch exit whether the request
/// survived.
struct Verdict {
    sites: fn(usize) -> std::ops::Range<usize>,
    seen: Rc<RefCell<VerdictSeen>>,
}

impl NvbitTool for Verdict {
    fn at_init(&mut self, api: &NvbitApi<'_>) {
        api.load_tool_functions(COUNT_MULT_FN).unwrap();
        self.seen.borrow_mut().counter_addr = api.driver().with_device(|d| d.alloc(8)).unwrap();
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
        let mut seen = self.seen.borrow_mut();
        if is_exit {
            seen.tracked_after_launch = Some(api.is_instrumented(*func));
            return;
        }
        seen.live_allocs_at_launch = live_allocs(api.driver());
        for idx in (self.sites)(api.get_instrs(*func).unwrap().len()) {
            api.insert_call(*func, idx, "count_mult", IPoint::Before).unwrap();
            api.add_call_arg_imm64(*func, idx, seen.counter_addr).unwrap();
            api.set_coalesce(*func, idx).unwrap();
        }
        seen.diags = api.verify_instrumented(*func).unwrap();
    }
}

/// Loads `image` (whose `k` is `APP`'s) under [`Verdict`] counting `sites`
/// and launches `k` once over 32 threads, which must write what `APP`
/// writes. Returns the driver, still up, `k` and what the tool saw.
fn launch_under_verdict(
    image: ptx::CompiledModule,
    sites: fn(usize) -> std::ops::Range<usize>,
) -> (Driver, cuda::CuFunction, VerdictSeen) {
    let seen = Rc::new(RefCell::new(VerdictSeen::default()));
    let drv = observed_driver();
    attach_tool(&drv, Verdict { sites, seen: seen.clone() });
    let ctx = drv.ctx_create().unwrap();
    let m = drv.module_load(&ctx, FatBinary::from_ptx("app", APP).with_image(image)).unwrap();
    let f = drv.module_get_function(&m, "k").unwrap();
    let out = drv.mem_alloc(128).unwrap();
    drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(32), &[KernelArg::Ptr(out)]).unwrap();
    let mut output = vec![0u8; 128];
    drv.memcpy_dtoh(&mut output, out).unwrap();
    let expected: Vec<u8> = (0..32u32).flat_map(u32::to_le_bytes).collect();
    assert_eq!(output, expected, "application output");
    let seen = seen.take();
    (drv, f, seen)
}

fn read_u64(drv: &Driver, addr: u64) -> u64 {
    let mut bytes = [0u8; 8];
    drv.memcpy_dtoh(&mut bytes, addr).unwrap();
    u64::from_le_bytes(bytes)
}

/// The swap is the point of no return, so an image with verifier findings
/// must never reach it: a kernel carrying a (never executed) call to an
/// address outside all known code is refused both when the tool asks for
/// the verdict and at the launch, runs its original bytes, and neither
/// refusal keeps its trampoline region.
#[test]
fn a_refused_image_is_never_installed_and_leaks_no_trampoline() {
    let image = app_with_trailing(Instruction::new(Op::Jcal, [Operand::Abs(0xdead_0000)]));
    let pristine = image.functions[0].code.clone();
    let (drv, f, seen) = launch_under_verdict(image, |n| 0..n);

    assert!(
        seen.diags.iter().any(|d| d.kind == DiagKind::BranchTarget),
        "the stray call must be diagnosed: {:?}",
        seen.diags
    );
    assert_eq!(drv.read_code(f).unwrap(), pristine, "the original bytes stay installed");
    assert_eq!(read_u64(&drv, seen.counter_addr), 0, "no instrumentation ran");
    assert_eq!(seen.tracked_after_launch, Some(false), "the refused request is dropped");
    // Only the save/restore routines outlive the two refusals.
    assert_eq!(live_allocs(&drv), seen.live_allocs_at_launch + 2 * TIERS.len());
    drv.shutdown();

    let report = drv.obs().report();
    assert_eq!(report.counter_sum("instr_image.verify_reject"), 2, "verdict + launch");
    assert_eq!(report.counter_sum("instr_image.build"), 2);
    assert_eq!(report.counter_sum("tramp.free_fail"), 0, "both regions free cleanly");
}

/// Why static CFG recovery fell back is counted once per build, not once
/// per plan: the verifier plans the function again on its own decode.
#[test]
fn one_build_of_an_indirect_branch_counts_one_cfg_failure() {
    let (drv, ..) = launch_under_verdict(app_with_trailing(brx()), |_| 0..1);
    drv.shutdown();

    let report = drv.obs().report();
    assert_eq!(report.counter_sum("instr_image.build"), 1);
    assert_eq!(report.counter_sum("instr_image.verify_reject"), 0);
    assert_eq!(report.counter_sum("plan.cfg_fail.brx"), 1);
    assert_eq!(report.counter_sum("plan.cfg_fail.misaligned"), 0);
}

/// An unguarded `BRX` leaves its site as `BRA` does: no After call and no
/// jump back behind it, which for a trailing `BRX` would target the end of
/// the image. Its image verifies and is installed.
#[test]
fn a_trailing_indirect_branch_gets_no_back_jump() {
    let (drv, f, seen) = launch_under_verdict(app_with_trailing(brx()), |n| n - 1..n);
    assert_eq!(seen.diags, vec![]);
    assert_eq!(seen.tracked_after_launch, Some(true));

    // The installed image jumps from the `BRX` to its site, which ends with
    // the relocated `BRX`: the word behind it is no jump.
    let codec = sass::codec::codec_for(Arch::Volta);
    let isize = codec.instruction_size();
    let image = codec.decode_stream(&drv.read_code(f).unwrap()).unwrap();
    let jump = *image.last().unwrap();
    let (Op::Jmp, [Operand::Abs(site)]) = (jump.op, &jump.operands[..]) else { panic!("{jump}") };
    let word = |i: usize| {
        let mut bytes = vec![0u8; isize];
        drv.with_device(|d| d.read(site + (i * isize) as u64, &mut bytes)).unwrap();
        codec.decode(&bytes).ok()
    };
    let relocated = (0..64).find(|&i| word(i).is_some_and(|w| w.op == Op::Brx)).unwrap();
    assert!(word(relocated + 1).is_none_or(|w| w.op != Op::Jmp), "a back-jump behind the BRX");
    drv.shutdown();

    let report = drv.obs().report();
    assert_eq!(report.counter_sum("instr_image.verify_reject"), 0);
    assert_eq!(report.counter_sum("instr_image.build"), 1);
}

/// Under the ICF exception the planner merges nothing, and the image it
/// planned is the image verified: with a (never executed) `BRX` behind `k`'s
/// `EXIT` and every instruction before it counted, each site's own call runs
/// and counts each thread's instructions.
#[test]
fn calls_under_the_icf_exception_are_verified_and_count_exactly() {
    let (drv, _, seen) = launch_under_verdict(app_with_trailing(brx()), |n| 0..n - 1);

    assert_eq!(seen.diags, vec![]);
    assert_eq!(read_u64(&drv, seen.counter_addr), 32 * 7, "32 threads, 7 instructions each");
    drv.shutdown();

    let report = drv.obs().report();
    assert_eq!(report.counter_sum("instr_image.verify_reject"), 0);
}

/// Counts every instruction of every launched kernel through one
/// coalesce-marked multiplicity counter, planned at `level`.
struct CountAll {
    level: PlanLevel,
    counter: Rc<Cell<u64>>,
}

impl NvbitTool for CountAll {
    fn at_init(&mut self, api: &NvbitApi<'_>) {
        api.load_tool_functions(COUNT_MULT_FN).unwrap();
        api.set_plan_opts(PlanOpts { level: self.level });
        self.counter.set(api.driver().with_device(|d| d.alloc(8)).unwrap());
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
        let counter = self.counter.get();
        for idx in 0..api.get_instrs(*func).unwrap().len() {
            api.insert_call(*func, idx, "count_mult", IPoint::Before).unwrap();
            api.add_call_arg_imm64(*func, idx, counter).unwrap();
            api.set_coalesce(*func, idx).unwrap();
        }
    }
}

/// Launches `.entry k(.param .u64 target)` over 32 threads with its code
/// replaced by an `LDC` of `target` and a `BRX` to it, past the first of the
/// two `IADD`s behind it: four instructions run per thread. Returns the
/// launch's `thread_instructions` and, under [`CountAll`] at `level`, the
/// tool's total.
fn brx_into_a_run(level: Option<PlanLevel>) -> (u64, Option<u64>) {
    const SRC: &str = ".entry k(.param .u64 target)\n{\n    exit;\n}\n";
    let mut image = ptx::compile_module(SRC, Arch::Volta).unwrap();
    let text =
        "LDC.64 R2, c[0x0][0x160] ;\nBRX R2 ;\nIADD R4, R4, 0x1 ;\nIADD R4, R4, 0x1 ;\nEXIT ;";
    let code = sass::asm::assemble_arch(text, Arch::Volta).unwrap();
    let k = &mut image.functions[0];
    k.code = sass::codec::codec_for(Arch::Volta).encode_stream(&code).unwrap();
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    let counter = Rc::new(Cell::new(0));
    if let Some(level) = level {
        attach_tool(&drv, CountAll { level, counter: counter.clone() });
    }
    let ctx = drv.ctx_create().unwrap();
    let m = drv.module_load(&ctx, FatBinary::from_ptx("brx", SRC).with_image(image)).unwrap();
    let f = drv.module_get_function(&m, "k").unwrap();
    let target = drv.function_info(f).unwrap().addr + 3 * Arch::Volta.instruction_size() as u64;
    drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(32), &[KernelArg::U64(target)]).unwrap();
    let total = level.map(|_| read_u64(&drv, counter.get()));
    let threads = drv.total_stats().thread_instructions;
    drv.shutdown();
    (threads, total)
}

/// A `BRX` that lands inside a straight-line run skips the calls before the
/// landing point: no rung may merge a call across it, so the count tool's
/// total is the native launch's `thread_instructions` at every rung.
#[test]
fn a_brx_into_a_straight_line_run_counts_exactly_at_every_rung() {
    let (native, _) = brx_into_a_run(None);
    assert_eq!(native, 32 * 4, "LDC, BRX, the second IADD and EXIT per thread");
    use PlanLevel::{Block, Naive, Promoted, Region};
    for level in [Naive, Block, Region, Promoted] {
        let (_, total) = brx_into_a_run(Some(level));
        assert_eq!(total, Some(native), "{level:?}");
    }
}
