//! Micro-bench: the observability layer's cost contract (DESIGN.md,
//! "Observability"), gated in both modes.
//!
//! 1. **Raw hook cost** — a tight loop over `obs::span` + `obs::counter`,
//!    in ns/hook, three ways: with no recorder bound, inside the scope of a
//!    *disabled* recorder (which binds nothing — the state every hook of an
//!    unobserved `Driver` runs in), and inside the scope of an enabled one.
//!    The two scoped loops enter the scope once per iteration, so what a
//!    driver entry point pays to bind is in the figure.
//! 2. **Pipeline bound** — an instrumented FFT launch end to end, median of
//!    ten with the recorder off and on. The gates are hooks per run × ns
//!    per hook over the obs-off run time: < 1 % disabled, < 5 % enabled.
//!    Both sit far enough below their bars to be host-independent.

use common::obs;
use cuda::Driver;
use gpu::DeviceSpec;
use nvbit::attach_tool;
use nvbit_tools::InstrCount;
use sass::Arch;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::apps;

const HOOK_ITERS: u64 = 1_000_000;
const SAMPLES: usize = 10;

/// Times `HOOK_ITERS` span+counter pairs, each inside a fresh scope of
/// `recorder` when there is one, and returns ns per hook call (two hooks
/// per iteration).
fn hook_ns(recorder: Option<&Arc<obs::Recorder>>) -> f64 {
    let start = Instant::now();
    for i in 0..HOOK_ITERS {
        let _scope = recorder.map(obs::Recorder::enter);
        let _span = obs::span("bench_hook");
        obs::counter("bench_hook.iter", black_box(i));
    }
    start.elapsed().as_nanos() as f64 / (HOOK_ITERS * 2) as f64
}

/// One full instrumented-FFT pipeline run: interpose, lift, instrument,
/// codegen, execute — the same shape as `examples/profile_pipeline.rs`.
/// Returns what the driver's recorder holds afterwards.
fn run_pipeline(observe: bool) -> obs::Report {
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    drv.obs().set_enabled(observe);
    let (tool, _results) = InstrCount::new();
    attach_tool(&drv, tool);
    apps::fft_soft(&drv, 8, 1).unwrap();
    drv.shutdown();
    drv.obs().report()
}

/// Median wall time of `SAMPLES` runs after one warm-up.
fn median_run(observe: bool) -> Duration {
    run_pipeline(observe);
    let mut times: Vec<Duration> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            black_box(run_pipeline(observe));
            start.elapsed()
        })
        .collect();
    times.sort_unstable();
    times[SAMPLES / 2]
}

fn main() {
    let recorder = obs::Recorder::new();
    let unbound_ns = hook_ns(None);
    let disabled_ns = hook_ns(Some(&recorder));
    recorder.set_enabled(true);
    let enabled_ns = hook_ns(Some(&recorder));
    let recorded = recorder.report();
    assert_eq!(recorded.phases["bench_hook"].count, HOOK_ITERS, "the enabled loop recorded");

    let off = median_run(false);
    let on = median_run(true);

    // How many hooks one pipeline run fires: a span is two (begin, end).
    assert!(run_pipeline(false).phases.is_empty(), "an unobserved run records nothing");
    let report = run_pipeline(true);
    let hooks: u64 = report.phases.values().map(|p| 2 * p.count).sum::<u64>()
        + report.counters.values().map(|c| c.count).sum::<u64>();
    let bound_pct = |ns_per_hook: f64| 100.0 * hooks as f64 * ns_per_hook / off.as_nanos() as f64;
    let (disabled_pct, enabled_pct) = (bound_pct(disabled_ns), bound_pct(enabled_ns));
    let measured_pct = 100.0 * (on.as_secs_f64() / off.as_secs_f64() - 1.0);

    println!(
        "hook cost: unbound {unbound_ns:.2} ns/call, bound-but-disabled {disabled_ns:.2} ns/call, \
         enabled {enabled_ns:.2} ns/call"
    );
    println!(
        "pipeline (median of {SAMPLES}): off {off:.2?} / on {on:.2?} ({measured_pct:+.2}% measured)"
    );
    println!(
        "bounds: {hooks} hooks/run x {disabled_ns:.2} ns = {disabled_pct:.4}% of the obs-off run \
         disabled, x {enabled_ns:.2} ns = {enabled_pct:.3}% enabled"
    );
    assert!(disabled_pct < 1.0, "disabled-mode overhead bound {disabled_pct:.3}% breaches 1%");
    assert!(enabled_pct < 5.0, "enabled-mode overhead bound {enabled_pct:.3}% breaches 5%");
}
