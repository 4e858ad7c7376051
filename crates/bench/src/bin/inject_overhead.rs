//! What the instrumentation-plan pass ladder and the save policy cost and
//! save, in three sections of one report:
//!
//! 1. **Plan ladder.** Each workload runs natively and under the coalesced
//!    instruction-count tool at every rung: the naive per-site plan,
//!    basic-block call coalescing, dominator-region coalescing, and effect
//!    lowering (counter promotion). Rows carry the executed
//!    thread-instructions, cycles and planner accounting, plus the Fig.
//!    9-style geometric-mean overhead of each rung.
//! 2. **Sampling × plan** (§6.2 stacked on Fig. 9). The opcode histogram
//!    with grid-dim sampling over the top rung. Each kernel launches four
//!    times with identical dimensions, so sampling instruments one launch
//!    and extrapolates the rest exactly, and the two levers multiply.
//! 3. **Save policy** (§5.1), at the `Region` rung, where every call is
//!    made out of line between the save routines. The register slots the
//!    FFT pipeline's sites save under the liveness policy against the
//!    conservative whole-function tier. The FFT kernel is one block, so its
//!    194 counting sites merge into one call, which saves the first tier
//!    where the whole function needs the second (recorded: 16 of 32 slots),
//!    for the counting body and for the register-hungry wide one alike:
//!    the out-of-line call's clobber window stops at the callee-save cap.
//!
//! ```text
//! cargo run --release -p nvbit-bench --bin inject_overhead
//! ```
//!
//! Workloads are the fft, stencil and spmv applications of
//! `workloads::apps` plus the fifteen SpecAccel-like benchmarks, and last
//! `spmv_calls`, whose row is two device-function calls deep, in the ladder
//! and the save-policy section, outside the promotion gate: the top rung
//! lowers no call in a function that calls, returns or traps, and calls
//! them out of line. Writes `results/BENCH_inject_overhead.json`, gated on:
//! coalescing alone cuts ≥25 % of the FFT pipeline's instrumented
//! thread-instructions, and promotion keeps that cut; region coalescing
//! emits fewer calls than per-block coalescing on at least two of
//! fft/stencil/spmv; promotion cuts every workload's cycles below the
//! `Region` rung's; no rung and no sampling changes what a tool measures;
//! sampling instruments one launch and multiplies with the plan; liveness
//! sizing cuts ≥50 % of the FFT's saved slots for both counting bodies (the
//! recorded cut).

use bench_harness::{geomean, Report};
use cuda::{CbId, CbParams, Driver};
use gpu::DeviceSpec;
use nvbit::{
    attach_tool, NvbitApi, NvbitTool, PlanLevel, PlanOpts, PlanStats, SavePolicy, SaveStats,
};
use nvbit_tools::{InstrCount, OpcodeHistogram, SamplingMode};
use sass::Arch;
use std::cell::RefCell;
use std::rc::Rc;
use workloads::apps;
use workloads::specaccel::{self, Size};

/// Launches per kernel in the sampling × plan section.
const SAMPLING_ROUNDS: u32 = 4;

/// The rungs of the plan ladder, bottom up.
const RUNGS: [(&str, PlanLevel); 4] = [
    ("naive", PlanLevel::Naive),
    ("block", PlanLevel::Block),
    ("region", PlanLevel::Region),
    ("promoted", PlanLevel::Promoted),
];

/// Per instrumented function, the planner's and the code generator's
/// accounting at its first launch exit.
type Stats = Rc<RefCell<Vec<(String, PlanStats, SaveStats)>>>;

/// Wraps a tool: pins the save policy and (unless the tool pins its own)
/// the `Region` rung, where every call pays its saves, at init; collects
/// [`Stats`].
struct Accounting<T> {
    policy: SavePolicy,
    inner: T,
    stats: Stats,
}

impl<T: NvbitTool> NvbitTool for Accounting<T> {
    fn at_init(&mut self, api: &NvbitApi<'_>) {
        api.set_save_policy(self.policy);
        api.set_plan_opts(PlanOpts { level: PlanLevel::Region });
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
        let CbParams::LaunchKernel { func, .. } = params else { return };
        if !is_exit || cbid != CbId::LaunchKernel {
            return;
        }
        let (Ok(Some(plan)), Ok(Some(saves))) = (api.plan_stats(*func), api.save_stats(*func))
        else {
            return;
        };
        let name = api.get_func_name(*func).unwrap_or_default();
        let mut stats = self.stats.borrow_mut();
        if !stats.iter().any(|(n, ..)| *n == name) {
            stats.push((name, plan, saves));
        }
    }
}

/// A deterministic guest application.
type App = Box<dyn Fn(&Driver)>;

/// fft (eight warps), stencil and spmv, each launching its kernel `rounds`
/// times.
fn small_apps(rounds: u32) -> Vec<(&'static str, App)> {
    vec![
        ("fft", Box::new(move |d: &Driver| drop(apps::fft_soft(d, 8, rounds).unwrap()))),
        ("stencil", Box::new(move |d: &Driver| drop(apps::stencil(d, rounds).unwrap()))),
        ("spmv", Box::new(move |d: &Driver| drop(apps::spmv(d, rounds).unwrap()))),
    ]
}

/// The SpMV whose row is two device-function calls deep, launched once.
fn spmv_calls() -> (&'static str, App) {
    ("spmv_calls", Box::new(|d: &Driver| drop(apps::spmv_calls(d, 1).unwrap())))
}

/// Runs `app` on a fresh test device after `attach` has had the driver;
/// returns the executed thread-instructions and cycles.
fn run(app: &App, attach: impl FnOnce(&Driver)) -> (u64, u64) {
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    attach(&drv);
    app(&drv);
    drv.shutdown();
    let s = drv.total_stats();
    (s.thread_instructions, s.cycles)
}

/// [`run`] under `tool`, wrapped in [`Accounting`] with `policy`.
fn accounted<T: NvbitTool + 'static>(app: &App, policy: SavePolicy, tool: T) -> (u64, u64, Stats) {
    let stats = Stats::default();
    let inner = Accounting { policy, inner: tool, stats: stats.clone() };
    let (instrs, cycles) = run(app, |d| attach_tool(d, inner));
    (instrs, cycles, stats)
}

fn plan_ladder(report: &mut Report) {
    let mut workloads = small_apps(1);
    for b in specaccel::suite() {
        workloads.push((b.name, Box::new(move |d: &Driver| b.run(d, Size::Small).unwrap())));
    }
    // Last, and out of the promotion gate: the top rung lowers no call in a
    // function that calls, returns or traps, so its rows show what that
    // costs.
    workloads.push(spmv_calls());
    for (name, app) in &workloads {
        let (native, cycles) = run(app, |_| {});
        let values = [("thread_instructions", native as f64), ("cycles", cycles as f64)];
        report.row(name, "native", &values);
        for (label, level) in RUNGS {
            let (tool, results) = InstrCount::executed(PlanOpts { level });
            let (instrs, cycles, stats) = accounted(app, SavePolicy::Liveness, tool);
            let sum = |f: fn(&PlanStats) -> u64| {
                stats.borrow().iter().map(|(_, p, _)| f(p)).sum::<u64>() as f64
            };
            let values = [
                ("thread_instructions", instrs as f64),
                ("cycles", cycles as f64),
                ("overhead_vs_native", instrs as f64 / native as f64),
                ("tool_count", results.total() as f64),
                ("requested_calls", sum(|s| s.requested_calls)),
                ("emitted_calls", sum(|s| s.emitted_calls)),
                ("region_groups", sum(|s| s.region_groups)),
                ("inline_accepted", sum(|s| s.inline_accepted)),
                ("inline_declined", sum(|s| s.inline_declined)),
                ("promoted_calls", sum(|s| s.promoted_calls)),
            ];
            report.row(name, label, &values);
        }
    }

    // The ladder's rows hold the workloads in order, fft first.
    let fft = |label: &str| report.column(label, "thread_instructions")[0];
    let cut = |label: &str| 1.0 - fft(label) / fft("naive");
    let (block_cut, promoted_cut) = (cut("block"), cut("promoted"));
    let emitted = |label: &str| report.column(label, "emitted_calls");
    let (block, region) = (emitted("block"), emitted("region"));
    let region_wins = (0..3).filter(|&w| region[w] < block[w]).count();
    let cycles = |label: &str| report.column(label, "cycles");
    let (region_cycles, promoted) = (cycles("region"), cycles("promoted"));
    let uncut = (0..workloads.len() - 1).filter(|&w| promoted[w] >= region_cycles[w]).count();
    // The plan never changes what the tool measures.
    let counts = report.column("naive", "tool_count");
    let changed = RUNGS.iter().map(|(label, _)| report.column(label, "tool_count"));
    let changed: usize =
        changed.map(|c| c.iter().zip(&counts).filter(|(a, b)| a != b).count()).sum();
    for (label, _) in RUNGS {
        let overhead = geomean(&report.column(label, "overhead_vs_native"));
        report.row("geomean", label, &[("overhead_vs_native", overhead)]);
    }
    report.at_least("fft: thread-instructions cut by block coalescing", block_cut, 0.25);
    report.at_least("fft: thread-instructions cut by promotion", promoted_cut, block_cut);
    let wins = region_wins as f64;
    report.at_least("of fft/stencil/spmv, region emits fewer calls than block", wins, 2.0);
    report.at_most("workloads whose cycles promotion did not cut", uncut as f64, 0.0);
    report.at_most("workload x rung pairs where the tool count changed", changed as f64, 0.0);
}

fn sampling_times_plan(report: &mut Report) {
    let mut drifted = 0;
    for (name, app) in small_apps(SAMPLING_ROUNDS) {
        let hist = |mode, level| {
            let (tool, results) = OpcodeHistogram::coalesced(mode, PlanOpts { level });
            let (_, cycles) = run(&app, |d| attach_tool(d, tool));
            (results.histogram(), results.instrumented_launches(), cycles as f64)
        };
        let (h_naive, _, naive) = hist(SamplingMode::Full, PlanLevel::Naive);
        let (h_plan, _, plan) = hist(SamplingMode::Full, PlanLevel::Promoted);
        let (h_sampled, launches, sampled) = hist(SamplingMode::GridDim, PlanLevel::Promoted);
        drifted += usize::from(h_naive != h_plan) + usize::from(h_plan != h_sampled);
        let (by_plan, by_sampling, combined) = (naive / plan, plan / sampled, naive / sampled);
        let values = [
            ("launches", f64::from(SAMPLING_ROUNDS)),
            ("cycles_full_naive", naive),
            ("cycles_full_plan", plan),
            ("cycles_sampled_plan", sampled),
            ("plan_speedup", by_plan),
            ("sampling_speedup", by_sampling),
            ("combined_speedup", combined),
        ];
        report.row(name, "opcode_hist", &values);
        let launches_name = format!("{name}: launches instrumented under sampling");
        report.gate(launches_name, launches as f64, 1.0, launches == 1);
        let lever = by_plan.max(by_sampling);
        let multiply = format!("{name}: combined speedup, above either lever");
        report.gate(multiply, combined, lever, combined > lever);
    }
    report.at_most("histograms changed by a rung or by sampling", drifted as f64, 0.0);
}

/// Runs `app` (the FFT pipeline by default) under `tool` with `policy` and
/// records its saved slots as `config`.
fn saves<T: NvbitTool + 'static>(
    report: &mut Report,
    config: &str,
    policy: SavePolicy,
    tool: T,
) -> f64 {
    saves_of(report, small_apps(1).swap_remove(0), config, policy, tool)
}

fn saves_of<T: NvbitTool + 'static>(
    report: &mut Report,
    (name, app): (&str, App),
    config: &str,
    policy: SavePolicy,
    tool: T,
) -> f64 {
    let (_, _, stats) = accounted(&app, policy, tool);
    let stats = stats.borrow();
    let each = || stats.iter().map(|(_, _, s)| s);
    let slots = each().map(|s| s.saved_slots).sum::<u64>() as f64;
    let values = [
        ("sites", each().map(|s| s.sites).sum::<usize>() as f64),
        ("max_tier", each().map(|s| s.max_tier).max().unwrap_or(0).into()),
        ("saved_slots", slots),
    ];
    report.row(name, config, &values);
    slots
}

fn save_policy(report: &mut Report) {
    use SavePolicy::{FullTier, Liveness};
    let live = saves(report, "instr_count, liveness", Liveness, InstrCount::new().0);
    let full = saves(report, "instr_count, full tier", FullTier, InstrCount::new().0);
    // The wide counting body writes past R16, but its out-of-line call
    // clobbers no more than the callee-save cap.
    let wide = || InstrCount::executed_wide(PlanOpts { level: PlanLevel::Region }).0;
    let wide_live = saves(report, "wide, liveness", Liveness, wide());
    let wide_full = saves(report, "wide, full tier", FullTier, wide());
    let cut =
        |saved: f64, baseline: f64| if baseline == 0.0 { 0.0 } else { 1.0 - saved / baseline };
    report.at_least("fft: saved slots cut by liveness sizing", cut(live, full), 0.5);
    report.at_least("fft: saved slots cut for the wide tool", cut(wide_live, wide_full), 0.5);
    for (config, policy) in
        [("instr_count, liveness", Liveness), ("instr_count, full tier", FullTier)]
    {
        saves_of(report, spmv_calls(), config, policy, InstrCount::new().0);
    }
}

fn main() {
    let mut report = Report::new("inject_overhead");
    plan_ladder(&mut report);
    sampling_times_plan(&mut report);
    save_policy(&mut report);
    report.finish();
}
