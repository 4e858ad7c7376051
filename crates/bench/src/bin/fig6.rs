//! **Figure 6** and the §6.1 in-text statistic.
//!
//! For each ML workload, reports the average number of unique cache lines
//! requested per warp-level global memory instruction, twice: with the
//! pre-compiled libraries instrumented (what NVBit can do) and with them
//! excluded (what a compiler-based approach sees). Excluding the
//! well-coalesced libraries overestimates divergence. Beside it, the
//! percentage of executed instructions spent inside the pre-compiled
//! libraries (paper: 74–96 %, average 88 %).
//!
//! ```text
//! cargo run --release -p nvbit-bench --bin fig6
//! ```
//!
//! Writes `results/BENCH_fig6.json`.

use bench_harness::{mean, titan_v, Report};
use nvbit::{attach_tool, NvbitTool};
use nvbit_tools::{InstrCount, MemDivergence};
use workloads::{ml_models, MlModel};

/// Runs `model` under `tool` on a fresh driver.
fn run<T: NvbitTool + 'static>(model: &MlModel, tool: T) {
    let drv = titan_v();
    attach_tool(&drv, tool);
    model.run(&drv).expect("model runs");
    drv.shutdown();
}

fn main() {
    let mut report = Report::new("fig6");
    for model in ml_models() {
        let (with_libs, with) = MemDivergence::new(true);
        run(&model, with_libs);
        let (without_libs, without) = MemDivergence::new(false);
        run(&model, without_libs);
        let (count, instrs) = InstrCount::new();
        run(&model, count);
        report.row(
            model.name,
            "ml",
            &[
                ("lines_libs", with.average()),
                ("lines_no_libs", without.average()),
                ("mem_instrs_libs", with.mem_instructions() as f64),
                ("mem_instrs_no_libs", without.mem_instructions() as f64),
                ("thread_instrs", instrs.total() as f64),
                ("library_instrs", instrs.library() as f64),
                ("library_pct", 100.0 * instrs.library_fraction()),
            ],
        );
    }
    let library_pct = mean(&report.column("ml", "library_pct"));
    report.row("mean", "ml", &[("library_pct", library_pct)]);
    report.finish();
}
