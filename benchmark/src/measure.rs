//! The two measurements of one workload: the end-to-end run (tracing off)
//! and the traced run that attributes the same work to layers.
//!
//! Fixed conditions, so numbers measure the program and not the scheduler:
//! `Scheduler::Serial`, one JIT worker, a fresh `Driver` per timed
//! iteration (users pay module load and JIT on every process run), native
//! and instrumented iterations interleaved so both see the same host
//! phases. Every timed region runs between two readings of the host
//! calibration loop and is scaled by them (README "Host calibration").

use crate::adapter::{probe_layers, run_apps, Json, RunOutput, ToolOutput};
use crate::host::{is_noisy, peak_rss_mib, Calibrator};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::span::{self_times_ns, totals_under, NameTotals, Recorder, Span};
use crate::stats::{quantile, summarize, Summary};
use crate::workloads::{check_iteration, reference_check, sampling_err_pct, Size, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Timed iterations an end-to-end run never goes below.
const MIN_ITERS: usize = 9;
/// Traced iterations a traced run never goes below.
const MIN_TRACED_ITERS: usize = 3;
/// Set-up is performed this many times; `setup_s` is the median.
const SETUP_PASSES: usize = 3;
/// Replay-probe passes; each probe metric is the median of its samples.
const PROBE_PASSES: usize = 3;
/// Records the standalone channel probe pushes.
const CHANNEL_PROBE_RECORDS: u64 = 1_000_000;
/// Iterations whose spans are written to the trace file (all iterations
/// feed the metrics).
const TRACE_FILE_ITERS: u32 = 3;
/// Measuring stops here even if the minimum iteration count is not met, so
/// a pathologically slow host cannot run into the driver's time limit.
const HARD_STOP_S: f64 = 100.0;

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one run of one workload produced.
pub struct Outcome {
    /// `(name, value, unit)` in the order of the metric tables.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub iterations: usize,
    /// Every reading of the host calibration loop, in order.
    pub calib_ms: Vec<f64>,
    /// Distributions of the per-iteration wall-clock times, scaled to the
    /// reference host, with the unscaled median beside them.
    pub walls: Vec<Wall>,
    /// Per-layer self-time shares of a traced run (empty otherwise).
    pub shares: Vec<LayerShare>,
    pub trace_file: Option<PathBuf>,
}

/// The per-iteration times behind one wall-clock metric.
pub struct Wall {
    pub name: &'static str,
    pub scaled: Summary,
    /// Median of the times as the clock read them.
    pub raw_median: f64,
}

/// Per-iteration times of one mode as measured, and the factor that scales
/// each to the reference host.
#[derive(Default)]
struct Samples {
    raw_ms: Vec<f64>,
    scales: Vec<f64>,
}

impl Samples {
    fn push(&mut self, raw_ms: f64, scale: f64) {
        self.raw_ms.push(raw_ms);
        self.scales.push(scale);
    }

    fn len(&self) -> usize {
        self.raw_ms.len()
    }

    fn wall(&self, name: &'static str) -> Wall {
        let scaled: Vec<f64> = self.raw_ms.iter().zip(&self.scales).map(|(t, s)| t * s).collect();
        Wall { name, scaled: summarize(&scaled), raw_median: quantile(&self.raw_ms, 0.5) }
    }
}

/// One row of the traced run's attribution: a span name under the native
/// or the instrumented root, median over iterations of its summed self and
/// inclusive time, and the self time's share of the root's duration.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerShare {
    pub root: &'static str,
    pub name: &'static str,
    pub self_ms: f64,
    pub inclusive_ms: f64,
    pub self_share_pct: f64,
}

impl Outcome {
    pub fn noisy(&self) -> bool {
        is_noisy(&self.calib_ms)
    }
}

/// Operations attempted and the failures among them.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failures: Vec<String>,
}

impl Ops {
    fn add(&mut self, launches: u64, failures: Vec<String>) {
        self.attempted += launches;
        self.failures.extend(failures);
    }
}

fn ms(out: &RunOutput) -> f64 {
    out.wall.as_secs_f64() * 1e3
}

fn keep_going(iters: usize, min: usize, start: Instant, seconds: f64) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    elapsed < HARD_STOP_S && (iters < min || elapsed < seconds)
}

pub fn run(w: &Workload, opts: &Options) -> Outcome {
    if opts.trace {
        per_layer(w, opts)
    } else {
        end_to_end(w, opts)
    }
}

fn end_to_end(w: &Workload, opts: &Options) -> Outcome {
    let mut host = Calibrator::start();
    let mut ops = Ops::default();

    // Set-up: inputs from the seed, the reference check, one warm-up of
    // each mode. The first warm-up pair is what every later iteration's
    // exact quantities are held to.
    let mut setup_s = Vec::with_capacity(SETUP_PASSES);
    let mut apps = Vec::new();
    let mut first: Option<(RunOutput, RunOutput)> = None;
    for _ in 0..SETUP_PASSES {
        let ((native, instr, secs), scale) = host.around(|| {
            let t = Instant::now();
            apps = w.apps(opts.seed, Size::Full);
            let (launches, failures) = reference_check(w, opts.seed);
            ops.add(launches, failures);
            let native = run_apps(&apps, None, None);
            let instr = run_apps(&apps, Some(w.tool), None);
            (native, instr, t.elapsed().as_secs_f64())
        });
        setup_s.push(secs * scale);
        let held = first.as_ref().map(|(n, i)| (n, i));
        ops.add(native.launches + instr.launches, check_iteration(&apps, &native, &instr, held));
        first.get_or_insert((native, instr));
    }
    let (native0, instr0) = first.expect("SETUP_PASSES > 0");

    let (mut native_ms, mut instr_ms) = (Samples::default(), Samples::default());
    let start = Instant::now();
    while keep_going(native_ms.len(), MIN_ITERS, start, opts.seconds) {
        let (native, scale) = host.around(|| run_apps(&apps, None, None));
        native_ms.push(ms(&native), scale);
        let (instr, scale) = host.around(|| run_apps(&apps, Some(w.tool), None));
        instr_ms.push(ms(&instr), scale);
        ops.add(
            native.launches + instr.launches,
            check_iteration(&apps, &native, &instr, Some((&native0, &instr0))),
        );
    }

    let walls = vec![native_ms.wall("native_wall_ms"), instr_ms.wall("instr_wall_ms")];
    let value = |name: &str| match name {
        "setup_s" => quantile(&setup_s, 0.5),
        "native_wall_ms" => walls[0].scaled.median,
        "instr_wall_ms" => walls[1].scaled.median,
        "sim_slowdown" => instr0.totals.cycles as f64 / native0.totals.cycles.max(1) as f64,
        "peak_rss_mb" => peak_rss_mib().unwrap_or(0.0),
        other => unreachable!("end-to-end metric {other} has no definition"),
    };
    Outcome {
        metrics: END_TO_END.iter().map(|m| (m.name, value(m.name), m.unit)).collect(),
        attempted: ops.attempted,
        failures: ops.failures,
        iterations: native_ms.len(),
        calib_ms: host.readings().to_vec(),
        walls,
        shares: Vec::new(),
        trace_file: None,
    }
}

/// Span totals under one root, with the factor that scales each
/// iteration's times to the reference host.
struct Attribution<'a> {
    totals: BTreeMap<(u32, &'static str), NameTotals>,
    scales: &'a [f64],
}

impl<'a> Attribution<'a> {
    fn new(spans: &[Span], root: &str, scales: &'a [f64]) -> Attribution<'a> {
        Attribution { totals: totals_under(spans, root), scales }
    }

    /// Median over iterations of `f(totals of span `name`)`; an iteration
    /// without the span contributes 0.
    fn median(&self, name: &'static str, f: impl Fn(&NameTotals, f64) -> f64) -> f64 {
        let samples: Vec<f64> = (0u32..)
            .zip(self.scales)
            .map(|(i, &scale)| self.totals.get(&(i, name)).map_or(0.0, |t| f(t, scale)))
            .collect();
        quantile(&samples, 0.5)
    }

    fn self_ms(&self, name: &'static str) -> f64 {
        self.median(name, |t, scale| t.self_ns as f64 / 1e6 * scale)
    }

    fn inclusive_ms(&self, name: &'static str) -> f64 {
        self.median(name, |t, scale| t.inclusive_ns as f64 / 1e6 * scale)
    }
}

fn per_layer(w: &Workload, opts: &Options) -> Outcome {
    let mut host = Calibrator::start();
    let mut ops = Ops::default();
    let apps = w.apps(opts.seed, Size::Full);
    let (launches, failures) = reference_check(w, opts.seed);
    ops.add(launches, failures);

    // Replay probes: each layer's entry points called directly.
    let mut probes: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for _ in 0..PROBE_PASSES {
        let (pass, scale) = host.around(|| probe_layers(&apps, CHANNEL_PROBE_RECORDS));
        match pass {
            Ok(p) => {
                let scaled = p.times.into_iter().map(|(k, v)| (k, v * scale));
                scaled.chain(p.counts).for_each(|(k, v)| probes.entry(k).or_default().push(v));
            }
            Err(e) => ops.failures.push(e),
        }
    }
    let probe = |name: &str| probes.get(name).map_or(0.0, |s| quantile(s, 0.5));

    // Traced iterations: native traced, instrumented untraced (the
    // reference for the tracing overhead), instrumented traced.
    let trace = Recorder::shared();
    let (mut native_ms, mut plain_ms, mut traced_ms) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut first: Option<(RunOutput, RunOutput)> = None;
    let start = Instant::now();
    while keep_going(traced_ms.len(), MIN_TRACED_ITERS, start, opts.seconds) {
        trace.borrow_mut().set_iter(traced_ms.len() as u32);
        let (native, scale) = host.around(|| run_apps(&apps, None, Some(&trace)));
        native_ms.push(ms(&native), scale);
        let (plain, scale) = host.around(|| run_apps(&apps, Some(w.tool), None));
        plain_ms.push(ms(&plain), scale);
        let (instr, scale) = host.around(|| run_apps(&apps, Some(w.tool), Some(&trace)));
        traced_ms.push(ms(&instr), scale);
        let held = first.as_ref().map(|(n, i)| (n, i));
        let mut failures = check_iteration(&apps, &native, &instr, held);
        if (plain.totals.cycles, plain.totals.thread_instrs, &plain.tool)
            != (instr.totals.cycles, instr.totals.thread_instrs, &instr.tool)
        {
            failures.push("tracing changed the simulated counts or the tool output".into());
        }
        ops.add(native.launches + plain.launches + instr.launches, failures);
        first.get_or_insert((native, instr));
    }
    let (native0, instr0) = first.expect("MIN_TRACED_ITERS > 0");
    let iters = traced_ms.len();

    let rec = trace.borrow();
    let under_native = Attribution::new(rec.spans(), "run.native", &native_ms.scales);
    let under_instr = Attribution::new(rec.spans(), "run.instr", &traced_ms.scales);
    let native_exec_ms = under_native.self_ms("driver.launch");
    let instr_exec_ms = under_instr.self_ms("driver.launch");
    let walls = vec![
        native_ms.wall("trace.native_wall_ms"),
        plain_ms.wall("instr_wall_ms (untraced)"),
        traced_ms.wall("trace.instr_wall_ms"),
    ];
    let (native_wall, plain_wall, traced_wall) =
        (walls[0].scaled.median, walls[1].scaled.median, walls[2].scaled.median);
    let sass_instrs = probe("ptx.sass_instrs");
    let (demanded, delivered, dropped) = match instr0.tool {
        ToolOutput::Trace { demanded, delivered, dropped, .. } => (demanded, delivered, dropped),
        _ => (0, 0, 0),
    };
    let (sampled, sampling_err) = match &instr0.tool {
        ToolOutput::Hist { hist, sampled_launches, .. } => {
            (*sampled_launches, sampling_err_pct(hist.values().sum(), native0.totals.thread_instrs))
        }
        _ => (0, 0.0),
    };
    let per_mega = |n: u64, millis: f64| if millis > 0.0 { n as f64 / (millis * 1e3) } else { 0.0 };
    let l = instr0.layers;

    let value = |name: &'static str| -> f64 {
        match name {
            "ptx.kinstr_per_s" => sass_instrs / probe("ptx.compile_ms").max(1e-9),
            "sass.decode_minstr_per_s" => sass_instrs / (probe("sass.decode_ms") * 1e3).max(1e-9),
            "channel.push_mrec_per_s" => {
                CHANNEL_PROBE_RECORDS as f64 / (probe("channel.push_ms") * 1e3).max(1e-9)
            }
            "driver.module_load_ms" => under_native.inclusive_ms("driver.module_load"),
            "driver.launches" => under_instr.median("driver.launch", |t, _| t.count as f64),
            "core.lift_ms" => under_instr.inclusive_ms("core.lift"),
            "core.build_ms" => under_instr.inclusive_ms("core.build"),
            "core.verify_ms" => under_instr.inclusive_ms("core.verify"),
            // Two swaps (off, on) per span.
            "core.swap_us" => under_instr.median("core.swap", |t, scale| {
                t.inclusive_ns as f64 / 1e3 * scale / (2 * t.count.max(1)) as f64
            }),
            "core.funcs" => l.funcs as f64,
            "core.sites" => l.sites as f64,
            "core.calls_emitted" => l.calls_emitted as f64,
            "core.inline_accepted" => l.inline_accepted as f64,
            "core.inline_declined" => l.inline_declined as f64,
            "core.saved_slots" => l.saved_slots as f64,
            "core.full_tier_slots" => l.full_tier_slots as f64,
            "core.verify_diags" => l.verify_diags as f64,
            "tools.init_ms" => under_instr.inclusive_ms("tools.init"),
            "tools.user_ms" => under_instr.inclusive_ms("tools.user"),
            "tools.sampled_launches" => sampled as f64,
            "tools.sampling_err_pct" => sampling_err,
            "gpu.native_exec_ms" => native_exec_ms,
            "gpu.instr_exec_ms" => instr_exec_ms,
            "gpu.native_mips" => per_mega(native0.totals.thread_instrs, native_exec_ms),
            "gpu.instr_mips" => per_mega(instr0.totals.thread_instrs, instr_exec_ms),
            "gpu.native_thread_instrs" => native0.totals.thread_instrs as f64,
            "gpu.instr_thread_instrs" => instr0.totals.thread_instrs as f64,
            "gpu.instr_ratio" => {
                instr0.totals.thread_instrs as f64 / native0.totals.thread_instrs.max(1) as f64
            }
            "gpu.native_cycles" => native0.totals.cycles as f64,
            "gpu.instr_cycles" => instr0.totals.cycles as f64,
            "gpu.decode_hits" => instr0.totals.decode_hits as f64,
            "gpu.decode_misses" => instr0.totals.decode_misses as f64,
            "channel.demanded" => demanded as f64,
            "channel.delivered" => delivered as f64,
            "channel.dropped" => dropped as f64,
            "channel.app_mrec_per_s" => per_mega(delivered, plain_wall),
            "host.hw_threads" => crate::adapter::hw_threads() as f64,
            "host.calib_ms" => quantile(host.readings(), 0.5),
            "host.calib_min_ms" => quantile(host.readings(), 0.0),
            "trace.native_wall_ms" => native_wall,
            "trace.instr_wall_ms" => traced_wall,
            "trace.overhead_pct" => (traced_wall / plain_wall - 1.0) * 100.0,
            replayed => probe(replayed),
        }
    };
    let metrics = PER_LAYER.iter().map(|m| (m.name, value(m.name), m.unit)).collect();

    let shares: Vec<LayerShare> =
        [&under_native, &under_instr].into_iter().flat_map(Attribution::shares).collect();
    let trace_file = match write_trace(w.name, opts.seed, rec.spans(), iters, &shares) {
        Ok(path) => Some(path),
        Err(e) => {
            ops.failures.push(format!("writing the trace file: {e}"));
            None
        }
    };
    Outcome {
        metrics,
        attempted: ops.attempted,
        failures: ops.failures,
        iterations: iters,
        calib_ms: host.readings().to_vec(),
        walls,
        shares,
        trace_file,
    }
}

impl Attribution<'_> {
    /// One row per span name: median over iterations of its summed self and
    /// inclusive time, and the self time's share of the root's duration.
    fn shares(&self) -> Vec<LayerShare> {
        let mut names: Vec<&'static str> = self.totals.keys().map(|&(_, n)| n).collect();
        names.sort_unstable();
        names.dedup();
        let Some(root) = names.iter().copied().find(|n| n.starts_with("run.")) else {
            return Vec::new();
        };
        let root_ms = self.inclusive_ms(root);
        names
            .into_iter()
            .map(|name| {
                let self_ms = self.self_ms(name);
                LayerShare {
                    root,
                    name,
                    self_ms,
                    inclusive_ms: self.inclusive_ms(name),
                    self_share_pct: 100.0 * self_ms / root_ms.max(1e-9),
                }
            })
            .collect()
    }
}

/// Writes `benchmark/out/trace_<workload>.json`: the per-layer summary and
/// the spans of the first iterations.
fn write_trace(
    workload: &str,
    seed: u64,
    spans: &[Span],
    iters: usize,
    shares: &[LayerShare],
) -> std::io::Result<PathBuf> {
    let selfs = self_times_ns(spans);
    let num = |v: u64| Json::Num(v as f64);
    let span_rows: Vec<Json> = spans
        .iter()
        .zip(&selfs)
        .enumerate()
        .filter(|(_, (s, _))| s.iter < TRACE_FILE_ITERS)
        .map(|(id, (s, self_ns))| {
            Json::obj(vec![
                ("id", num(id as u64)),
                ("name", Json::Str(s.name.into())),
                ("start_ns", num(s.start_ns)),
                ("end_ns", num(s.end_ns)),
                ("self_ns", num(*self_ns)),
                ("parent", s.parent.map_or(Json::Null, |p| num(p as u64))),
                ("iter", num(u64::from(s.iter))),
            ])
        })
        .collect();
    let layers: Vec<Json> = shares
        .iter()
        .map(|l| {
            Json::obj(vec![
                ("root", Json::Str(l.root.into())),
                ("name", Json::Str(l.name.into())),
                ("self_ms", Json::Num(l.self_ms)),
                ("inclusive_ms", Json::Num(l.inclusive_ms)),
                ("self_share_pct", Json::Num(l.self_share_pct)),
            ])
        })
        .collect();
    let doc = Json::obj(vec![
        ("workload", Json::Str(workload.into())),
        ("seed", num(seed)),
        ("iterations", num(iters as u64)),
        ("iterations_written", num(u64::from(TRACE_FILE_ITERS).min(iters as u64))),
        ("layers", Json::Arr(layers)),
        ("spans", Json::Arr(span_rows)),
    ]);
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace_{workload}.json"));
    std::fs::write(&path, doc.to_compact())?;
    Ok(path)
}
