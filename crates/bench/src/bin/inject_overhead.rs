//! The instrumentation-plan pass ladder across the workload sweep:
//! instrument each workload with the coalesced instruction-count tool and
//! compare the instrumented run's executed instructions and cycles at each
//! rung — the naive per-site plan, basic-block call coalescing, adding
//! dominator-region coalescing and after-point lowering, and adding
//! leaf-tool splicing on top. A further section stacks grid-dim sampling
//! of the opcode histogram on the top rung and reports the multiplied
//! speedup of the two levers.
//!
//! ```text
//! cargo run --release -p nvbit-bench --bin inject_overhead
//! ```
//!
//! Workloads are the three kernels of the differential suite (the warp-FFT
//! pipeline, a 5-point stencil, CSR SpMV) plus the fifteen SpecAccel-like
//! benchmarks of `workloads::specaccel`, reported Fig. 9-style: one row
//! per workload plus the geometric-mean overhead of each configuration.
//!
//! Writes `results/BENCH_inject_overhead.json` with the per-workload
//! accounting. The repository gates on a ≥25% reduction in instrumented
//! thread-instructions from coalescing alone on the FFT pipeline, and on
//! region coalescing emitting fewer calls than per-block coalescing on at
//! least two of fft/stencil/spmv.

use common::json::Json;
use cuda::{CbId, CbParams, Driver, FatBinary, KernelArg};
use gpu::{DeviceSpec, Dim3};
use nvbit::{attach_tool, NvbitApi, NvbitTool, PlanLevel, PlanOpts, PlanStats};
use nvbit_tools::{CoalescedInstrCount, OpcodeHistogram, SamplingMode};
use sass::Arch;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use workloads::specaccel::{self, Size};

/// Launches per kernel in the sampling × plan section: grid-dim sampling
/// instruments the first and extrapolates the rest.
const SAMPLING_ROUNDS: u32 = 4;

/// Wraps the tool and collects the planner's accounting per instrumented
/// function at launch exit.
struct PlanAccounting<T> {
    inner: T,
    stats: Rc<RefCell<Vec<(String, PlanStats)>>>,
}

impl<T: NvbitTool> NvbitTool for PlanAccounting<T> {
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
        if !is_exit || cbid != CbId::LaunchKernel {
            return;
        }
        let CbParams::LaunchKernel { func, .. } = params else { return };
        if let Ok(Some(s)) = api.plan_stats(*func) {
            let name = api.get_func_name(*func).unwrap_or_default();
            let mut stats = self.stats.borrow_mut();
            if !stats.iter().any(|(n, _)| *n == name) {
                stats.push((name, s));
            }
        }
    }
}

/// The rungs of the plan ladder, bottom up.
const CONFIGS: [(&str, PlanOpts); 4] = [
    ("naive", PlanOpts { level: PlanLevel::Naive }),
    ("block", PlanOpts { level: PlanLevel::Block }),
    ("region", PlanOpts { level: PlanLevel::Region }),
    ("spliced", PlanOpts { level: PlanLevel::Spliced }),
];
/// Indices into [`CONFIGS`] (and every [`Sweep::runs`]).
const NAIVE: usize = 0;
const BLOCK: usize = 1;
const REGION: usize = 2;
const SPLICED: usize = 3;

/// One configuration's measurements on one workload.
struct Run {
    label: &'static str,
    opts: PlanOpts,
    count: u64,
    instructions: u64,
    cycles: u64,
    stats: Vec<(String, PlanStats)>,
}

impl Run {
    fn sum(&self, f: impl Fn(&PlanStats) -> u64) -> u64 {
        self.stats.iter().map(|(_, s)| f(s)).sum()
    }
}

/// One workload's native baseline and per-configuration runs.
struct Sweep {
    name: &'static str,
    native_instructions: u64,
    native_cycles: u64,
    runs: Vec<Run>,
}

/// A deterministic guest application.
type App = fn(&Driver);

fn run_native(app: App) -> (u64, u64) {
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    app(&drv);
    drv.shutdown();
    let s = drv.total_stats();
    (s.thread_instructions, s.cycles)
}

fn run_instrumented(label: &'static str, opts: PlanOpts, app: App) -> Run {
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    let (tool, results) = CoalescedInstrCount::new(opts);
    let stats = Rc::new(RefCell::new(Vec::new()));
    attach_tool(&drv, PlanAccounting { inner: tool, stats: stats.clone() });
    app(&drv);
    drv.shutdown();
    let s = drv.total_stats();
    Run {
        label,
        opts,
        count: results.total(),
        instructions: s.thread_instructions,
        cycles: s.cycles,
        stats: Rc::try_unwrap(stats).unwrap().into_inner(),
    }
}

fn sweep(name: &'static str, app: App) -> Sweep {
    let (native_instructions, native_cycles) = run_native(app);
    let runs = CONFIGS.iter().map(|&(label, opts)| run_instrumented(label, opts, app)).collect();
    Sweep { name, native_instructions, native_cycles, runs }
}

fn fft_app_rounds(drv: &Driver, rounds: u32) {
    const BLOCKS: u32 = 8;
    let bytes = BLOCKS as u64 * 32 * 8;
    let ctx = drv.ctx_create().unwrap();
    let src = workloads::fft::soft_fft_kernel_ptx();
    let m = drv.module_load(&ctx, FatBinary::from_ptx("fft", src)).unwrap();
    let f = drv.module_get_function(&m, "fft32_soft").unwrap();
    let din = drv.mem_alloc(bytes).unwrap();
    let dout = drv.mem_alloc(bytes).unwrap();
    let input: Vec<u8> = (0..BLOCKS * 32)
        .flat_map(|_| {
            let mut rec = [0u8; 8];
            rec[..4].copy_from_slice(&1.0f32.to_le_bytes());
            rec
        })
        .collect();
    drv.memcpy_htod(din, &input).unwrap();
    for _ in 0..rounds {
        drv.launch_kernel(
            &f,
            Dim3::linear(BLOCKS),
            Dim3::linear(32),
            &[KernelArg::Ptr(din), KernelArg::Ptr(dout)],
        )
        .unwrap();
    }
}

fn run_fft_app(drv: &Driver) {
    fft_app_rounds(drv, 1);
}

fn run_fft_multi(drv: &Driver) {
    fft_app_rounds(drv, SAMPLING_ROUNDS);
}

fn stencil_app_rounds(drv: &Driver, rounds: u32) {
    let (h, w) = (16u32, 128u32);
    let n = h * w;
    let ctx = drv.ctx_create().unwrap();
    let src = format!(".version 6.0\n{}", workloads::kernels::stencil5("step"));
    let m = drv.module_load(&ctx, FatBinary::from_ptx("stencil", src)).unwrap();
    let f = drv.module_get_function(&m, "step").unwrap();
    let a = drv.mem_alloc(n as u64 * 4).unwrap();
    let b = drv.mem_alloc(n as u64 * 4).unwrap();
    let init: Vec<u8> = (0..n).flat_map(|i| ((i % 17) as f32).to_bits().to_le_bytes()).collect();
    drv.memcpy_htod(a, &init).unwrap();
    for _ in 0..rounds {
        drv.launch_kernel(
            &f,
            Dim3::xyz(h - 2, 1, 1),
            Dim3::linear(128),
            &[KernelArg::Ptr(a), KernelArg::Ptr(b), KernelArg::U32(h), KernelArg::U32(w)],
        )
        .unwrap();
    }
}

fn run_stencil_app(drv: &Driver) {
    stencil_app_rounds(drv, 1);
}

fn run_stencil_multi(drv: &Driver) {
    stencil_app_rounds(drv, SAMPLING_ROUNDS);
}

fn spmv_app_rounds(drv: &Driver, rounds: u32) {
    let rows = 64u32;
    let ctx = drv.ctx_create().unwrap();
    let src = format!(".version 6.0\n{}", workloads::kernels::spmv_csr("spmv"));
    let m = drv.module_load(&ctx, FatBinary::from_ptx("spmv", src)).unwrap();
    let f = drv.module_get_function(&m, "spmv").unwrap();
    let mut rowptr = vec![0u32];
    let mut cols = Vec::new();
    for r in 0..rows {
        for j in 0..=(r % 9) {
            cols.push((r * 7 + j * 13) % rows);
        }
        rowptr.push(cols.len() as u32);
    }
    let alloc_u32 = |vals: &[u32]| {
        let a = drv.mem_alloc(vals.len() as u64 * 4).unwrap();
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        drv.memcpy_htod(a, &bytes).unwrap();
        a
    };
    let alloc_f32 = |n: u32, f: &dyn Fn(u32) -> f32| {
        let a = drv.mem_alloc(n as u64 * 4).unwrap();
        let bytes: Vec<u8> = (0..n).flat_map(|i| f(i).to_bits().to_le_bytes()).collect();
        drv.memcpy_htod(a, &bytes).unwrap();
        a
    };
    let d_rowptr = alloc_u32(&rowptr);
    let d_cols = alloc_u32(&cols);
    let d_vals = alloc_f32(cols.len() as u32, &|i| 1.0 / (1.0 + i as f32));
    let x = alloc_f32(rows, &|_| 1.0);
    let y = alloc_f32(rows, &|_| 0.0);
    for _ in 0..rounds {
        drv.launch_kernel(
            &f,
            Dim3::linear(1),
            Dim3::linear(128),
            &[
                KernelArg::Ptr(d_rowptr),
                KernelArg::Ptr(d_cols),
                KernelArg::Ptr(d_vals),
                KernelArg::Ptr(x),
                KernelArg::Ptr(y),
                KernelArg::U32(rows),
            ],
        )
        .unwrap();
    }
}

fn run_spmv_app(drv: &Driver) {
    spmv_app_rounds(drv, 1);
}

fn run_spmv_multi(drv: &Driver) {
    spmv_app_rounds(drv, SAMPLING_ROUNDS);
}

/// SpecAccel runners, one `fn(&Driver)` per benchmark so every workload
/// shares the same sweep machinery.
macro_rules! spec_app {
    ($fn_name:ident, $bench:literal) => {
        fn $fn_name(drv: &Driver) {
            specaccel::benchmark($bench).unwrap().run(drv, Size::Small).unwrap();
        }
    };
}

spec_app!(spec_ostencil, "ostencil");
spec_app!(spec_olbm, "olbm");
spec_app!(spec_omriq, "omriq");
spec_app!(spec_md, "md");
spec_app!(spec_palm, "palm");
spec_app!(spec_ep, "ep");
spec_app!(spec_clvrleaf, "clvrleaf");
spec_app!(spec_cg, "cg");
spec_app!(spec_seismic, "seismic");
spec_app!(spec_sp, "sp");
spec_app!(spec_csp, "csp");
spec_app!(spec_mini_ghost, "miniGhost");
spec_app!(spec_ilbdc, "ilbdc");
spec_app!(spec_swim, "swim");
spec_app!(spec_bt, "bt");

const WORKLOADS: [(&str, App); 18] = [
    ("fft", run_fft_app),
    ("stencil", run_stencil_app),
    ("spmv", run_spmv_app),
    ("ostencil", spec_ostencil),
    ("olbm", spec_olbm),
    ("omriq", spec_omriq),
    ("md", spec_md),
    ("palm", spec_palm),
    ("ep", spec_ep),
    ("clvrleaf", spec_clvrleaf),
    ("cg", spec_cg),
    ("seismic", spec_seismic),
    ("sp", spec_sp),
    ("csp", spec_csp),
    ("miniGhost", spec_mini_ghost),
    ("ilbdc", spec_ilbdc),
    ("swim", spec_swim),
    ("bt", spec_bt),
];

fn main() {
    let sweeps: Vec<Sweep> = WORKLOADS.iter().map(|&(name, app)| sweep(name, app)).collect();

    println!("== inject_overhead: plan passes across the workload sweep ==\n");
    println!(
        "{:10}  {:14}  {:>14}  {:>12}  {:>9}  {:>8}  {:>7}",
        "workload", "configuration", "thread-instrs", "cycles", "overhead", "calls", "regions"
    );
    let mut workload_rows = Vec::new();
    for s in &sweeps {
        let mut cfgs = Vec::new();
        for r in &s.runs {
            let overhead = r.instructions as f64 / s.native_instructions as f64;
            println!(
                "{:10}  {:14}  {:>14}  {:>12}  {:>8.2}x  {:>8}  {:>7}",
                s.name,
                r.label,
                r.instructions,
                r.cycles,
                overhead,
                r.sum(|st| st.emitted_calls),
                r.sum(|st| st.region_groups),
            );
            cfgs.push(Json::obj(vec![
                ("label", Json::Str(r.label.into())),
                ("level", Json::Str(format!("{:?}", r.opts.level))),
                ("thread_instructions", Json::Num(r.instructions as f64)),
                ("cycles", Json::Num(r.cycles as f64)),
                ("overhead_vs_native", Json::Num(overhead)),
                ("tool_count", Json::Num(r.count as f64)),
                ("requested_calls", Json::Num(r.sum(|st| st.requested_calls) as f64)),
                ("emitted_calls", Json::Num(r.sum(|st| st.emitted_calls) as f64)),
                ("region_groups", Json::Num(r.sum(|st| st.region_groups) as f64)),
                ("after_lowered", Json::Num(r.sum(|st| st.after_lowered) as f64)),
                ("inline_accepted", Json::Num(r.sum(|st| st.inline_accepted) as f64)),
                ("inline_declined", Json::Num(r.sum(|st| st.inline_declined) as f64)),
            ]));
        }
        workload_rows.push(Json::obj(vec![
            ("workload", Json::Str(s.name.into())),
            ("native_thread_instructions", Json::Num(s.native_instructions as f64)),
            ("native_cycles", Json::Num(s.native_cycles as f64)),
            ("configurations", Json::Arr(cfgs)),
        ]));

        // The differential invariant also holds here: the plan never
        // changes what the tool measures.
        for r in &s.runs[1..] {
            assert_eq!(
                s.runs[NAIVE].count, r.count,
                "{}: {} changed the tool output",
                s.name, r.label
            );
        }
    }

    // Fig. 9-style summary: geometric-mean overhead per configuration
    // across the whole sweep.
    println!("\n{:14}  {:>16}", "configuration", "geomean overhead");
    let mut geomeans = Vec::new();
    for (i, (label, _)) in CONFIGS.iter().enumerate() {
        let ln_sum: f64 = sweeps
            .iter()
            .map(|s| (s.runs[i].instructions as f64 / s.native_instructions as f64).ln())
            .sum();
        let geomean = (ln_sum / sweeps.len() as f64).exp();
        println!("{label:14}  {geomean:>15.2}x");
        geomeans.push((*label, Json::Num(geomean)));
    }

    // Sampling × plan interaction (§6.2 stacked on Fig. 9): run the
    // opcode histogram with grid-dim sampling over the top-rung plan and
    // report how the two levers multiply. Each kernel launches
    // SAMPLING_ROUNDS times with identical dimensions, so sampling
    // instruments one launch and extrapolates the rest exactly.
    println!("\n== sampling × plan: OpcodeHistogram grid-dim sampling over the spliced plan ==\n");
    println!(
        "{:10}  {:>12}  {:>12}  {:>12}  {:>7}  {:>8}  {:>8}",
        "workload", "full+naive", "full+plan", "samp+plan", "plan", "sampling", "combined"
    );
    let plan_opts = CONFIGS[SPLICED].1;
    let sampling_apps: [(&str, App); 3] =
        [("fft", run_fft_multi), ("stencil", run_stencil_multi), ("spmv", run_spmv_multi)];
    let mut sampling_rows = Vec::new();
    for (name, app) in sampling_apps {
        let run_hist = |mode: SamplingMode, opts: PlanOpts| -> (BTreeMap<String, u64>, u64, u64) {
            let drv = Driver::new(DeviceSpec::test(Arch::Volta));
            let (tool, results) = OpcodeHistogram::coalesced(mode, opts);
            attach_tool(&drv, tool);
            app(&drv);
            drv.shutdown();
            (results.histogram(), results.instrumented_launches(), drv.total_stats().cycles)
        };
        let (h_naive, _, c_naive) = run_hist(SamplingMode::Full, CONFIGS[NAIVE].1);
        let (h_plan, _, c_plan) = run_hist(SamplingMode::Full, plan_opts);
        let (h_samp, sampled_launches, c_samp) = run_hist(SamplingMode::GridDim, plan_opts);
        assert_eq!(h_naive, h_plan, "{name}: the plan changed the histogram");
        assert_eq!(h_plan, h_samp, "{name}: sampling drifted on a repeat-identical launch");
        assert_eq!(sampled_launches, 1, "{name}: exactly one launch should be instrumented");
        let plan_speedup = c_naive as f64 / c_plan as f64;
        let sampling_speedup = c_plan as f64 / c_samp as f64;
        let combined = c_naive as f64 / c_samp as f64;
        println!(
            "{name:10}  {c_naive:>12}  {c_plan:>12}  {c_samp:>12}  {plan_speedup:>6.2}x  \
             {sampling_speedup:>7.2}x  {combined:>7.2}x"
        );
        assert!(
            combined > plan_speedup && combined > sampling_speedup,
            "{name}: the two levers must multiply \
             (plan {plan_speedup:.2}x, sampling {sampling_speedup:.2}x, combined {combined:.2}x)"
        );
        sampling_rows.push(Json::obj(vec![
            ("workload", Json::Str(name.into())),
            ("launches", Json::Num(f64::from(SAMPLING_ROUNDS))),
            ("cycles_full_naive", Json::Num(c_naive as f64)),
            ("cycles_full_plan", Json::Num(c_plan as f64)),
            ("cycles_sampled_plan", Json::Num(c_samp as f64)),
            ("plan_speedup", Json::Num(plan_speedup)),
            ("sampling_speedup", Json::Num(sampling_speedup)),
            ("combined_speedup", Json::Num(combined)),
        ]));
    }

    let doc = Json::obj(vec![
        ("bench", Json::Str("inject_overhead".into())),
        ("tool", Json::Str("coalesced_instr_count".into())),
        ("arch", Json::Str("volta".into())),
        ("workloads", Json::Arr(workload_rows)),
        ("geomean_overhead", Json::obj(geomeans)),
        (
            "sampling_plan",
            Json::obj(vec![
                ("tool", Json::Str("opcode_histogram".into())),
                ("rounds", Json::Num(f64::from(SAMPLING_ROUNDS))),
                ("workloads", Json::Arr(sampling_rows)),
            ]),
        ),
    ]);
    std::fs::create_dir_all("results").unwrap();
    let path = "results/BENCH_inject_overhead.json";
    std::fs::write(path, doc.to_pretty()).unwrap();
    println!("\nwrote {path}");

    // Gate 1: coalescing alone cuts ≥25% of instrumented
    // thread-instructions on the FFT pipeline.
    let fft = &sweeps[0];
    assert_eq!(fft.name, "fft");
    let total_reduction =
        1.0 - fft.runs[BLOCK].instructions as f64 / fft.runs[NAIVE].instructions as f64;
    assert!(
        total_reduction >= 0.25,
        "coalescing must cut ≥25% of instrumented thread-instructions on the FFT pipeline \
         (got {:.1}%)",
        total_reduction * 100.0
    );
    let total_inline_reduction =
        1.0 - fft.runs[SPLICED].instructions as f64 / fft.runs[NAIVE].instructions as f64;
    assert!(
        total_inline_reduction >= total_reduction,
        "splicing must not regress the coalesced plan ({:.1}% vs {:.1}%)",
        total_inline_reduction * 100.0,
        total_reduction * 100.0
    );

    // Gate 2: region coalescing emits fewer calls than per-block
    // coalescing on at least two of fft/stencil/spmv.
    let region_wins = sweeps[..3]
        .iter()
        .filter(|s| {
            s.runs[REGION].sum(|st| st.emitted_calls) < s.runs[BLOCK].sum(|st| st.emitted_calls)
        })
        .count();
    assert!(
        region_wins >= 2,
        "region coalescing must beat per-block coalescing on ≥2 of fft/stencil/spmv \
         (won on {region_wins})"
    );
}
