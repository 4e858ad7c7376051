//! Differential testing of the instrumentation-plan pass ladder: for
//! every tool × workload pair, on one architecture per encoding family
//! (`shared::FAMILIES`), a run at every rung above `Naive`
//! (basic-block call coalescing; dominator-region coalescing; effect
//! lowering) must produce bit-identical guest memory
//! and identical tool output to a run with the naive per-site plan. The only observable
//! difference may be cost (fewer executed trampoline calls). Mirrors
//! `differential_saves.rs`, which proves the same property for the
//! register-save policies.

use common::channel::Backpressure;
use cuda::{CbId, CbParams, CuFunction, Driver};
use gpu::DeviceSpec;
use nvbit::{attach_tool, IPoint, NvbitApi, NvbitTool, PlanLevel, PlanOpts, PlanStats, SaveStats};
use nvbit_tools::{InstrCount, MemTrace, OpcodeHistogram, SamplingMode};
use sass::Arch;
use shared::{CountAfter, FAMILIES};
use std::cell::RefCell;
use std::rc::Rc;
use workloads::apps;

mod shared;

/// Wraps a tool so the plan options are fixed before anything is lifted or
/// instrumented (for tools that do not set them themselves).
struct WithOpts<T> {
    opts: PlanOpts,
    inner: T,
}

impl<T: NvbitTool> NvbitTool for WithOpts<T> {
    fn at_init(&mut self, api: &NvbitApi<'_>) {
        api.set_plan_opts(self.opts);
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

/// The same product with each row two device-function calls deep.
fn spmv_calls_app(drv: &Driver) -> Vec<u8> {
    apps::spmv_calls(drv, 1).unwrap()
}

/// A deterministic guest application: runs kernels and returns the output
/// buffer bytes.
type App = fn(&Driver) -> Vec<u8>;

const APPS: [(&str, App); 4] = [
    ("fft", fft_app),
    ("stencil", stencil_app),
    ("spmv", spmv_app),
    ("spmv_calls", spmv_calls_app),
];

/// The applications the rungs' cost gates hold on. `spmv_calls` is not
/// one: the top rung lowers no call in a function that calls, returns or
/// traps (ROADMAP item 19), so promotion cuts nothing there.
const COST_APPS: [(&str, App); 3] = [APPS[0], APPS[1], APPS[2]];

/// The rungs of the plan ladder by name — the whole lattice.
const NAIVE: PlanOpts = PlanOpts { level: PlanLevel::Naive };
const BLOCK: PlanOpts = PlanOpts { level: PlanLevel::Block };
const REGION: PlanOpts = PlanOpts { level: PlanLevel::Region };
const PROMOTED: PlanOpts = PlanOpts { level: PlanLevel::Promoted };

/// Every configuration above the naive baseline.
const OPTIMIZED: [PlanOpts; 3] = [BLOCK, REGION, PROMOTED];

/// Runs `app` on `arch` under `tool` with the given plan options; returns the guest
/// output bytes, a string signature of the tool's own results, and the
/// simulated cycle count.
fn run_case(arch: Arch, tool: &str, opts: PlanOpts, app: App) -> (Vec<u8>, String, u64) {
    let drv = Driver::new(DeviceSpec::test(arch));
    let sig: Box<dyn Fn() -> String> = match tool {
        // The shipped constructor, which pins no rung, under each rung.
        "coalesced_instr_count" => {
            let (t, r) = InstrCount::new();
            attach_tool(&drv, WithOpts { opts, inner: t });
            Box::new(move || r.total().to_string())
        }
        "after_instr_count" => {
            let (t, total) = CountAfter::new();
            attach_tool(&drv, WithOpts { opts, inner: t });
            Box::new(move || total.get().to_string())
        }
        "executed_instr_count" => {
            let (t, r) = InstrCount::executed(opts);
            attach_tool(&drv, t);
            Box::new(move || r.total().to_string())
        }
        "wide_instr_count" => {
            let (t, r) = InstrCount::executed_wide(opts);
            attach_tool(&drv, t);
            Box::new(move || r.total().to_string())
        }
        "coalesced_opcode_hist" => {
            let (t, r) = OpcodeHistogram::coalesced(SamplingMode::Full, opts);
            attach_tool(&drv, t);
            Box::new(move || format!("{:?}", r.histogram()))
        }
        "mem_trace" => {
            let (t, r) = MemTrace::channel(Backpressure::Block, 4096);
            attach_tool(&drv, WithOpts { opts, inner: t });
            Box::new(move || format!("{} {:?}", r.demanded(), r.addresses()))
        }
        other => unreachable!("unknown tool {other}"),
    };
    let mem = app(&drv);
    drv.shutdown();
    (mem, sig(), drv.total_stats().cycles)
}

/// The differential itself: every optimized configuration must agree
/// bit-for-bit with the naive per-site plan on both the guest output and
/// the tool output, for every workload.
fn differential(tool: &str) {
    for arch in FAMILIES {
        for (app_name, app) in APPS {
            let (mem_naive, sig_naive, _) = run_case(arch, tool, NAIVE, app);
            for opts in &OPTIMIZED {
                let (mem_opt, sig_opt, _) = run_case(arch, tool, *opts, app);
                assert_eq!(
                    mem_opt, mem_naive,
                    "guest memory differs: {tool} × {app_name} × {opts:?} on {arch}"
                );
                assert_eq!(
                    sig_opt, sig_naive,
                    "tool output differs: {tool} × {app_name} × {opts:?} on {arch}"
                );
            }
        }
    }
}

#[test]
fn the_count_equals_native_at_every_rung() {
    for arch in FAMILIES {
        for (app_name, app) in APPS {
            let drv = Driver::new(DeviceSpec::test(arch));
            app(&drv);
            drv.shutdown();
            let native = drv.total_stats().thread_instructions.to_string();
            for opts in [NAIVE].iter().chain(&OPTIMIZED) {
                let (_, total, _) = run_case(arch, "coalesced_instr_count", *opts, app);
                assert_eq!(total, native, "{app_name} × {opts:?} on {arch}");
            }
        }
    }
}

#[test]
fn coalesced_instr_count_is_plan_invariant() {
    differential("coalesced_instr_count");
}

#[test]
fn coalesced_opcode_hist_is_plan_invariant() {
    differential("coalesced_opcode_hist");
}

#[test]
fn after_point_instr_count_is_plan_invariant() {
    // Every site injects at `IPoint::After`. No pass merges or moves an
    // `After` call, so every rung emits one per site, promoted at the top
    // rung, and the count must not move by a single event.
    differential("after_instr_count");
}

#[test]
fn executed_instr_count_is_plan_invariant() {
    // Executed-level counting through the guarded-diamond body
    // `nvbit_count_pmult`: guarded sites pass the dynamic guard predicate
    // (so they never merge), unguarded sites pass constant 1 (so they do).
    // The total must not move whichever passes — including the lowering
    // of the diamond's guarded add — are enabled.
    differential("executed_instr_count");
}

#[test]
fn wide_instr_count_is_plan_invariant() {
    // Same, through the register-hungry `nvbit_count_wide` body: it writes
    // past R16 and has no effect to lower, so every rung calls it out of
    // line, and the callee-save cap on its clobber window must be as
    // invisible as the naive run's.
    differential("wide_instr_count");
}

#[test]
fn mem_trace_is_plan_invariant() {
    // MemTrace's sites are not coalesce-marked (their address argument is
    // per-dynamic-instance), so no pass merges them; at the top rung each
    // push is lowered to an `IADD.U64` and a guarded `CHAN.64`, which must
    // deliver the same records in the same order as the naive call.
    differential("mem_trace");
}

#[test]
fn lowered_pushes_are_cheaper_than_calls_on_every_workload() {
    for arch in FAMILIES {
        for (app_name, app) in COST_APPS {
            let (_, _, called) = run_case(arch, "mem_trace", REGION, app);
            let (_, _, promoted) = run_case(arch, "mem_trace", PROMOTED, app);
            assert!(
                promoted < called,
                "{arch} {app_name}: lowering must cut cycles: {promoted} vs {called}"
            );
        }
    }
}

#[test]
fn optimized_plans_are_cheaper_on_every_workload() {
    for arch in FAMILIES {
        for (app_name, app) in COST_APPS {
            let (_, _, naive) = run_case(arch, "coalesced_instr_count", NAIVE, app);
            let (_, _, merged) = run_case(arch, "coalesced_instr_count", BLOCK, app);
            let (_, _, region) = run_case(arch, "coalesced_instr_count", REGION, app);
            let (_, _, promoted) = run_case(arch, "coalesced_instr_count", PROMOTED, app);
            assert!(
                merged < naive,
                "{arch} {app_name}: coalescing should cut cycles: {merged} vs {naive}"
            );
            assert!(
                region <= merged,
                "{arch} {app_name}: regions must not add cycles: {region} vs {merged}"
            );
            assert!(
                promoted < region,
                "{arch} {app_name}: promotion must cut cycles: {promoted} vs {region}"
            );
        }
    }
}

/// Listing 1's counting body: adds 1 to `%ctr` where `%pred` is non-zero.
const COUNT_ONE: &str = r#"
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

/// Counts every instruction of the first kernel launched into a counter of
/// its own through `count_one`: one counter address per site, more than
/// the register file has pairs for above the FFT kernel's registers.
struct PerInstruction {
    opts: PlanOpts,
    addrs: Vec<u64>,
    counts: Rc<RefCell<Vec<u64>>>,
    stats: Rc<RefCell<Option<PlanStats>>>,
}

impl NvbitTool for PerInstruction {
    fn at_init(&mut self, api: &NvbitApi<'_>) {
        api.set_plan_opts(self.opts);
        api.load_tool_functions(COUNT_ONE).unwrap();
    }
    fn at_term(&mut self, api: &NvbitApi<'_>) {
        let read = |addr: &u64| {
            let mut word = [0u8; 8];
            api.driver().memcpy_dtoh(&mut word, *addr).unwrap();
            u64::from_le_bytes(word)
        };
        *self.counts.borrow_mut() = self.addrs.iter().map(read).collect();
    }
    fn at_cuda_event(
        &mut self,
        api: &NvbitApi<'_>,
        is_exit: bool,
        cbid: CbId,
        params: &CbParams<'_>,
    ) {
        let CbParams::LaunchKernel { func, .. } = params else { return };
        if cbid != CbId::LaunchKernel || self.stats.borrow().is_some() {
            return;
        }
        if is_exit {
            *self.stats.borrow_mut() = api.plan_stats(*func).unwrap();
            return;
        }
        let n = api.get_instrs(*func).unwrap().len();
        let base = api.driver().with_device(|d| d.alloc(8 * n as u64)).unwrap();
        for idx in 0..n {
            api.insert_call(*func, idx, "count_one", IPoint::Before).unwrap();
            api.add_call_arg_guard_pred(*func, idx).unwrap();
            api.add_call_arg_imm64(*func, idx, base + 8 * idx as u64).unwrap();
        }
        self.addrs = (0..n).map(|idx| base + 8 * idx as u64).collect();
    }
}

/// `PerInstruction`'s counts, plan statistics and the run's executed
/// thread instructions on `arch` under `opts`.
fn per_instruction(arch: Arch, opts: PlanOpts) -> (Vec<u64>, PlanStats, u64) {
    let drv = Driver::new(DeviceSpec::test(arch));
    let (counts, stats) = (Rc::new(RefCell::new(Vec::new())), Rc::new(RefCell::new(None)));
    let tool =
        PerInstruction { opts, addrs: Vec::new(), counts: counts.clone(), stats: stats.clone() };
    attach_tool(&drv, tool);
    fft_app(&drv);
    drv.shutdown();
    let stats = stats.borrow_mut().take().expect("the kernel was instrumented");
    (counts.take(), stats, drv.total_stats().thread_instructions)
}

#[test]
fn counters_past_the_register_file_stay_exact() {
    for arch in FAMILIES {
        let (naive, _, _) = per_instruction(arch, NAIVE);
        let (promoted, stats, executed) = per_instruction(arch, PROMOTED);
        let native = {
            let drv = Driver::new(DeviceSpec::test(arch));
            fft_app(&drv);
            drv.total_stats().thread_instructions
        };
        // Some counters got a pair, the rest stayed calls when the register
        // file ran out: every count is still the naive plan's, and they add up
        // to what the kernel executed.
        assert!(stats.promoted_pairs > 50 && stats.inline_declined > 0, "{stats:?}");
        assert_eq!(stats.promoted_calls, stats.promoted_pairs, "one site per counter");
        assert_eq!(stats.promoted_calls + stats.inline_declined, stats.emitted_calls);
        assert_eq!(promoted, naive);
        assert_eq!(promoted.iter().sum::<u64>(), native);
        assert!(executed > native, "the instrumented run executes more");
    }
}

/// Captures the planner's and the save policy's accounting at launch exit.
struct StatsCapture<T> {
    inner: T,
    stats: Rc<RefCell<Option<PlanStats>>>,
    saves: Rc<RefCell<Option<SaveStats>>>,
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
                if let Ok(Some(s)) = api.plan_stats(func) {
                    *self.stats.borrow_mut() = Some(s);
                }
                if let Ok(Some(s)) = api.save_stats(func) {
                    *self.saves.borrow_mut() = Some(s);
                }
            }
        }
    }
}

fn captured_with(arch: Arch, mk: impl FnOnce() -> InstrCount, app: App) -> (PlanStats, SaveStats) {
    let stats = Rc::new(RefCell::new(None));
    let saves = Rc::new(RefCell::new(None));
    let drv = Driver::new(DeviceSpec::test(arch));
    attach_tool(&drv, StatsCapture { inner: mk(), stats: stats.clone(), saves: saves.clone() });
    app(&drv);
    drv.shutdown();
    let p = stats.borrow_mut().take().expect("the kernel was instrumented");
    let s = saves.borrow_mut().take().expect("the instrumented image exists");
    (p, s)
}

fn captured_stats_with(arch: Arch, opts: PlanOpts, app: App) -> PlanStats {
    captured_with(arch, move || InstrCount::executed(opts).0, app).0
}

fn captured_stats(arch: Arch, opts: PlanOpts) -> PlanStats {
    captured_stats_with(arch, opts, fft_app)
}

#[test]
fn the_passes_actually_fire_on_the_fft_kernel() {
    for arch in FAMILIES {
        let naive = captured_stats(arch, NAIVE);
        assert_eq!(naive.emitted_calls, naive.requested_calls);
        assert_eq!(naive.coalesced_away, 0);
        assert_eq!((naive.inline_accepted, naive.inline_declined), (0, 0));

        let merged = captured_stats(arch, BLOCK);
        assert!(merged.cfg_available, "the FFT kernel has a static CFG");
        assert!(merged.coalesced_groups > 0, "{merged:?}");
        assert!(merged.coalesced_away > 0, "{merged:?}");
        assert_eq!(merged.emitted_calls, merged.requested_calls - merged.coalesced_away);

        let promoted = captured_stats(arch, PROMOTED);
        assert_eq!(promoted.coalesced_away, merged.coalesced_away, "fft is one block");
        assert_eq!(
            (promoted.promoted_calls, promoted.inline_declined, promoted.inline_accepted),
            (promoted.emitted_calls, 0, 0),
            "the guarded-diamond counting body has one effect, so every emitted call is lowered"
        );

        // The FFT kernel is one straight-line basic block, so the region pass
        // has nothing left to hoist there; spmv's loops leave control- and
        // cycle-equivalent blocks (setup, post-loop store) that only the
        // region pass can merge.
        let spmv_merged = captured_stats_with(arch, BLOCK, spmv_app);
        let spmv_full = captured_stats_with(arch, REGION, spmv_app);
        assert!(spmv_full.region_groups > 0, "{spmv_full:?}");
        assert!(
            spmv_full.emitted_calls < spmv_merged.emitted_calls,
            "region coalescing must merge beyond per-block groups: {spmv_full:?} vs {spmv_merged:?}"
        );
    }
}

#[test]
fn declined_calls_run_out_of_line_on_spmv_calls() {
    // `spmv_calls`' kernel calls its row function, so the top rung lowers
    // none of its counters: each emitted call is declined and made out of
    // line, behind the save routines, and the images verify (the core
    // refuses one that does not). Below the top rung nothing is counted.
    for arch in FAMILIES {
        let (top, saves) = captured_with(arch, || InstrCount::executed(PROMOTED).0, spmv_calls_app);
        assert!(top.emitted_calls > 0, "{top:?}");
        assert_eq!((top.promoted_calls, top.inline_accepted), (0, 0), "{top:?}");
        assert_eq!(top.promoted_calls + top.inline_declined, top.emitted_calls);
        assert!(saves.saved_slots >= 16 * top.emitted_calls, "{saves:?}");
        for opts in [NAIVE, BLOCK, REGION] {
            let p = captured_stats_with(arch, opts, spmv_calls_app);
            let counted = (p.inline_accepted, p.inline_declined, p.promoted_calls);
            assert_eq!(counted, (0, 0, 0), "{opts:?}");
        }
    }
}
