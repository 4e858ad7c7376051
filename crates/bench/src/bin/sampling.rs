//! **Figures 7, 8 and 9** from one native, one fully instrumented and one
//! grid-dim-sampled run of the opcode-histogram tool per SpecAccel
//! benchmark (§6.2):
//!
//! * Fig. 7: the top-5 executed opcodes, from the full run's histogram;
//! * Fig. 8: the slowdown of each instrumented run against native, as a
//!   ratio of simulated GPU cycles, which count the genuinely executed
//!   instrumentation (trampolines, save/restore, tool functions). The
//!   paper reports 36.4× average for full instrumentation and 2.3× for
//!   sampling on a TITAN V;
//! * Fig. 9: the sampled histogram's error against the exact one, averaged
//!   across instruction categories. The paper reports under 0.6 % on
//!   average: exactly 0 % where control flow is a function of grid
//!   dimensions only, small but non-zero where it depends on data (here
//!   `md` and the spmv phase of `cg`).
//!
//! ```text
//! cargo run --release -p nvbit-bench --bin sampling [-- --size large]
//! ```
//!
//! Writes `results/BENCH_sampling.json`.

use bench_harness::{geomean, mean, size_arg, titan_v, Report};
use nvbit::attach_tool;
use nvbit_tools::{OpcodeHistogram, OpcodeHistogramResults, SamplingMode};
use std::rc::Rc;
use workloads::specaccel::{suite, Benchmark, Size};

/// Runs `b` under the opcode histogram in `mode`: its results and the
/// simulated cycles.
fn run(b: &Benchmark, size: Size, mode: SamplingMode) -> (Rc<OpcodeHistogramResults>, u64) {
    let drv = titan_v();
    let (tool, results) = OpcodeHistogram::new(mode);
    attach_tool(&drv, tool);
    b.run(&drv, size).expect("instrumented run");
    drv.shutdown();
    (results, drv.total_stats().cycles)
}

fn main() {
    let size = size_arg();
    let mut report = Report::new("sampling");
    for b in suite() {
        let drv = titan_v();
        b.run(&drv, size).expect("native run");
        let native = drv.total_stats().cycles;
        let (exact, full) = run(&b, size, SamplingMode::Full);
        let (sampled, cycles) = run(&b, size, SamplingMode::GridDim);
        let total: u64 = exact.histogram().values().sum();
        for (op, count) in exact.top(5) {
            let share = 100.0 * count as f64 / total.max(1) as f64;
            report.row(b.name, &op, &[("thread_instrs", count as f64), ("share_pct", share)]);
        }
        let slowdown = |c: u64| c as f64 / native.max(1) as f64;
        let values = [
            ("thread_instrs", total as f64),
            ("native_cycles", native as f64),
            ("full_cycles", full as f64),
            ("sampled_cycles", cycles as f64),
            ("full_slowdown", slowdown(full)),
            ("sampled_slowdown", slowdown(cycles)),
            ("sampled_launches", sampled.instrumented_launches() as f64),
            ("total_launches", sampled.total_launches() as f64),
            ("error_pct", 100.0 * sampled.error_vs(&exact)),
        ];
        report.row(b.name, "opcode_hist", &values);
    }
    let column = |key| report.column("opcode_hist", key);
    let summary = [
        ("full_slowdown", geomean(&column("full_slowdown"))),
        ("sampled_slowdown", geomean(&column("sampled_slowdown"))),
        ("error_pct", mean(&column("error_pct"))),
    ];
    report.row("suite", "geomean / mean", &summary);
    report.finish();
}
