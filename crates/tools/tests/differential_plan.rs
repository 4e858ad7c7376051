//! Differential testing of the instrumentation-plan pass ladder: for
//! every tool × workload pair, a run at every rung above `Naive`
//! (basic-block call coalescing; after-point lowering and dominator-region
//! coalescing; leaf-tool splicing; counter promotion) must produce bit-identical guest memory
//! and identical tool output to a run with the naive per-site plan. The only observable
//! difference may be cost (fewer executed trampoline calls). Mirrors
//! `differential_saves.rs`, which proves the same property for the
//! register-save policies.

use common::channel::Backpressure;
use cuda::{CbId, CbParams, CuFunction, Driver};
use gpu::DeviceSpec;
use nvbit::{attach_tool, IPoint, NvbitApi, NvbitTool, PlanLevel, PlanOpts, PlanStats, SaveStats};
use nvbit_tools::{CoalescedInstrCount, MemTrace, OpcodeHistogram, SamplingMode};
use sass::Arch;
use std::cell::RefCell;
use std::rc::Rc;
use workloads::apps;

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

/// A deterministic guest application: runs kernels and returns the output
/// buffer bytes.
type App = fn(&Driver) -> Vec<u8>;

const APPS: [(&str, App); 3] = [("fft", fft_app), ("stencil", stencil_app), ("spmv", spmv_app)];

/// The rungs of the plan ladder by name — the whole lattice.
const NAIVE: PlanOpts = PlanOpts { level: PlanLevel::Naive };
const BLOCK: PlanOpts = PlanOpts { level: PlanLevel::Block };
const REGION: PlanOpts = PlanOpts { level: PlanLevel::Region };
const SPLICED: PlanOpts = PlanOpts { level: PlanLevel::Spliced };
const PROMOTED: PlanOpts = PlanOpts { level: PlanLevel::Promoted };

/// Every configuration above the naive baseline.
const OPTIMIZED: [PlanOpts; 4] = [BLOCK, REGION, SPLICED, PROMOTED];

/// Runs `app` under `tool` with the given plan options; returns the guest
/// output bytes, a string signature of the tool's own results, and the
/// simulated cycle count.
fn run_case(tool: &str, opts: PlanOpts, app: App) -> (Vec<u8>, String, u64) {
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    let sig: Box<dyn Fn() -> String> = match tool {
        "coalesced_instr_count" => {
            let (t, r) = CoalescedInstrCount::new(opts);
            attach_tool(&drv, t);
            Box::new(move || r.total().to_string())
        }
        "after_instr_count" => {
            let (t, r) = CoalescedInstrCount::after(opts);
            attach_tool(&drv, t);
            Box::new(move || r.total().to_string())
        }
        "executed_instr_count" => {
            let (t, r) = CoalescedInstrCount::executed(opts);
            attach_tool(&drv, t);
            Box::new(move || r.total().to_string())
        }
        "wide_instr_count" => {
            let (t, r) = CoalescedInstrCount::executed_wide(opts);
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
    for (app_name, app) in APPS {
        let (mem_naive, sig_naive, _) = run_case(tool, NAIVE, app);
        for opts in &OPTIMIZED {
            let (mem_opt, sig_opt, _) = run_case(tool, *opts, app);
            assert_eq!(mem_opt, mem_naive, "guest memory differs: {tool} × {app_name} × {opts:?}");
            assert_eq!(sig_opt, sig_naive, "tool output differs: {tool} × {app_name} × {opts:?}");
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
    // Every site injects at `IPoint::After`; from the `Region` rung up the
    // mid-block ones are lowered to fall-through `Before` slots and
    // merged, which must not change the count by a single event.
    differential("after_instr_count");
}

#[test]
fn executed_instr_count_is_plan_invariant() {
    // Executed-level counting through the guarded-diamond body
    // `nvbit_count_pmult`: guarded sites pass the dynamic guard predicate
    // (so they never merge), unguarded sites pass constant 1 (so they do).
    // The total must not move whichever passes — including diamond
    // splicing — are enabled.
    differential("executed_instr_count");
}

#[test]
fn wide_instr_count_is_plan_invariant() {
    // Same, through the register-hungry `nvbit_count_wide` body: at the
    // `Spliced` rung its splices save live registers they could not move
    // off, which must be as invisible as the out-of-line call of the
    // `Region` run.
    differential("wide_instr_count");
}

#[test]
fn mem_trace_is_plan_invariant() {
    // MemTrace's sites are not coalesce-marked (their address argument is
    // per-dynamic-instance), so the passes must leave its behaviour — and
    // output — untouched even when globally enabled.
    differential("mem_trace");
}

#[test]
fn optimized_plans_are_cheaper_on_every_workload() {
    for (app_name, app) in APPS {
        let (_, _, naive) = run_case("coalesced_instr_count", NAIVE, app);
        let (_, _, merged) = run_case("coalesced_instr_count", BLOCK, app);
        let (_, _, region) = run_case("coalesced_instr_count", REGION, app);
        let (_, _, spliced) = run_case("coalesced_instr_count", SPLICED, app);
        let (_, _, promoted) = run_case("coalesced_instr_count", PROMOTED, app);
        assert!(merged < naive, "{app_name}: coalescing should cut cycles: {merged} vs {naive}");
        assert!(region <= merged, "{app_name}: regions must not add cycles: {region} vs {merged}");
        assert!(
            spliced <= region,
            "{app_name}: splicing must not add cycles: {spliced} vs {region}"
        );
        assert!(
            promoted < spliced,
            "{app_name}: promotion must cut cycles: {promoted} vs {spliced}"
        );
    }
}

/// Counts every instruction of the first kernel launched into a counter of
/// its own through `nvbit_count_one`: one counter address per site, more
/// than the register file has pairs for above the FFT kernel's registers.
struct PerInstruction {
    opts: PlanOpts,
    addrs: Vec<u64>,
    counts: Rc<RefCell<Vec<u64>>>,
    stats: Rc<RefCell<Option<PlanStats>>>,
}

impl NvbitTool for PerInstruction {
    fn at_init(&mut self, api: &NvbitApi<'_>) {
        api.set_plan_opts(self.opts);
        let count_one = nvbit_tools::TOOL_PTX.iter().find(|(name, _)| *name == "COUNT_FN");
        api.load_tool_functions(count_one.unwrap().1).unwrap();
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
            api.insert_call(*func, idx, "nvbit_count_one", IPoint::Before).unwrap();
            api.add_call_arg_guard_pred(*func, idx).unwrap();
            api.add_call_arg_imm64(*func, idx, base + 8 * idx as u64).unwrap();
        }
        self.addrs = (0..n).map(|idx| base + 8 * idx as u64).collect();
    }
}

/// `PerInstruction`'s counts, plan statistics and the run's executed
/// thread instructions under `opts`.
fn per_instruction(opts: PlanOpts) -> (Vec<u64>, PlanStats, u64) {
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
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
    let (naive, _, _) = per_instruction(NAIVE);
    let (promoted, stats, executed) = per_instruction(PROMOTED);
    let native = {
        let drv = Driver::new(DeviceSpec::test(Arch::Volta));
        fft_app(&drv);
        drv.total_stats().thread_instructions
    };
    // Some counters got a pair, the rest stayed spliced when the register
    // file ran out: every count is still the naive plan's, and they add up
    // to what the kernel executed.
    assert!(stats.promoted_pairs > 50 && stats.inline_accepted > 0, "{stats:?}");
    assert_eq!(stats.promoted_calls, stats.promoted_pairs, "one site per counter");
    assert_eq!(stats.promoted_calls + stats.inline_accepted, stats.emitted_calls);
    assert_eq!(promoted, naive);
    assert_eq!(promoted.iter().sum::<u64>(), native);
    assert!(executed > native, "the instrumented run executes more");
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

fn captured_with(mk: impl FnOnce() -> CoalescedInstrCount, app: App) -> (PlanStats, SaveStats) {
    let stats = Rc::new(RefCell::new(None));
    let saves = Rc::new(RefCell::new(None));
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    attach_tool(&drv, StatsCapture { inner: mk(), stats: stats.clone(), saves: saves.clone() });
    app(&drv);
    drv.shutdown();
    let p = stats.borrow_mut().take().expect("the kernel was instrumented");
    let s = saves.borrow_mut().take().expect("the instrumented image exists");
    (p, s)
}

fn captured_stats_with(opts: PlanOpts, after: bool, app: App) -> PlanStats {
    let mk = move || {
        let (tool, _results) =
            if after { CoalescedInstrCount::after(opts) } else { CoalescedInstrCount::new(opts) };
        tool
    };
    captured_with(mk, app).0
}

fn captured_stats(opts: PlanOpts) -> PlanStats {
    captured_stats_with(opts, false, fft_app)
}

#[test]
fn the_passes_actually_fire_on_the_fft_kernel() {
    let naive = captured_stats(NAIVE);
    assert_eq!(naive.emitted_calls, naive.requested_calls);
    assert_eq!(naive.coalesced_away, 0);
    assert_eq!((naive.inline_accepted, naive.inline_declined), (0, 0));

    let merged = captured_stats(BLOCK);
    assert!(merged.cfg_available, "the FFT kernel has a static CFG");
    assert!(merged.coalesced_groups > 0, "{merged:?}");
    assert!(merged.coalesced_away > 0, "{merged:?}");
    assert_eq!(merged.emitted_calls, merged.requested_calls - merged.coalesced_away);

    let inlined = captured_stats(SPLICED);
    assert_eq!(inlined.coalesced_away, merged.coalesced_away, "fft is one block");
    assert_eq!(
        inlined.inline_accepted, inlined.emitted_calls,
        "the counting body is an inlinable leaf, so every emitted call inlines"
    );

    // The FFT kernel is one straight-line basic block, so the region pass
    // has nothing left to hoist there; spmv's loops leave control- and
    // cycle-equivalent blocks (setup, post-loop store) that only the
    // region pass can merge.
    let spmv_merged = captured_stats_with(BLOCK, false, spmv_app);
    let spmv_full = captured_stats_with(REGION, false, spmv_app);
    assert!(spmv_full.region_groups > 0, "{spmv_full:?}");
    assert!(
        spmv_full.emitted_calls < spmv_merged.emitted_calls,
        "region coalescing must merge beyond per-block groups: {spmv_full:?} vs {spmv_merged:?}"
    );

    let after = captured_stats_with(REGION, true, fft_app);
    assert!(after.after_lowered > 0, "{after:?}");
    assert!(after.coalesced_groups > 0, "lowered calls participate in merging: {after:?}");
}

#[test]
fn guarded_diamond_bodies_are_spliced() {
    // `nvbit_count_pmult` is a single guarded diamond — past the straight
    // leaf threshold, but accepted by the body classifier — so every
    // emitted call still inlines.
    let (p, _) = captured_with(|| CoalescedInstrCount::executed(SPLICED).0, fft_app);
    assert!(p.emitted_calls > 0, "{p:?}");
    assert_eq!(
        p.inline_accepted, p.emitted_calls,
        "the guarded-diamond body must inline at every site: {p:?}"
    );
}

#[test]
fn wide_splices_are_cheaper_than_the_calls_they_replace() {
    // The register-hungry `nvbit_count_wide` body writes past the first
    // save tier. At the `Region` rung every call stays out of line, where
    // the standard-ABI copy restores its callee-saved registers and each
    // site saves the 16-slot tier. At the `Spliced` rung every call is
    // spliced — the body is spliceable, and that is the whole rule — and
    // saves only what it still clobbers of the site's live registers after
    // renaming: never more slots than the call, strictly fewer cycles, and
    // nothing the guest or the tool can tell apart from the naive plan.
    for (app_name, app) in APPS {
        let (mem_naive, sig_naive, _) = run_case("wide_instr_count", NAIVE, app);
        let (_, _, cycles_called) = run_case("wide_instr_count", REGION, app);
        let (mem, sig, cycles_spliced) = run_case("wide_instr_count", SPLICED, app);
        assert_eq!(mem, mem_naive, "{app_name}: guest memory differs from the naive plan");
        assert_eq!(sig, sig_naive, "{app_name}: tool output differs from the naive plan");
        assert!(
            cycles_spliced < cycles_called,
            "{app_name}: the splice must beat the call: {cycles_spliced} vs {cycles_called}"
        );

        let (called, saves_called) =
            captured_with(move || CoalescedInstrCount::executed_wide(REGION).0, app);
        let (spliced, saves_spliced) =
            captured_with(move || CoalescedInstrCount::executed_wide(SPLICED).0, app);
        assert_eq!(
            (called.inline_accepted, called.inline_declined),
            (0, 0),
            "{app_name}: nothing splices below the top rung"
        );
        assert_eq!(called.emitted_calls, spliced.emitted_calls, "{app_name}: same merged calls");
        assert_eq!(
            (spliced.inline_accepted, spliced.inline_declined),
            (spliced.emitted_calls, 0),
            "{app_name}: every emitted call is spliced: {spliced:?}"
        );
        assert_eq!(
            saves_called.saved_slots,
            16 * called.emitted_calls,
            "{app_name}: an out-of-line call saves the 16-slot tier: {saves_called:?}"
        );
        assert!(
            saves_spliced.saved_slots <= saves_called.saved_slots,
            "{app_name}: a splice must never save more than the call it replaces: \
             {saves_spliced:?} vs {saves_called:?}"
        );
        if app_name == "fft" {
            // One merged call where the kernel's live set peaks: the splice
            // stores the 4 registers it cannot move off.
            assert_eq!((saves_spliced.saved_slots, saves_called.saved_slots), (4, 16));
        }
    }
}
