//! **Figure 5**: JIT-compilation overhead breakdown when instrumenting every
//! instruction of every kernel once with the instruction-count tool, on the
//! SpecAccel suite (medium size).
//!
//! Reports, per benchmark: the six-component breakdown of the
//! JIT-compilation time — read from the pipeline's own `common::obs`
//! spans (one report of the driver's recorder after shutdown), the one
//! timing source — and that time as a percentage of the
//! *native* execution time of the application (the paper's "overhead":
//! < 5 % on average, up to ~20 % for `ilbdc`, disassembly dominant).
//!
//! ```text
//! cargo run --release -p nvbit-bench --bin fig5 [-- --size medium]
//! ```

use bench_harness::{jit_ns, print_table, size_arg, timed, titan_v, JIT_COMPONENTS};
use nvbit_tools::InstrCount;
use workloads::specaccel::suite;

fn main() {
    let size = size_arg();
    println!("Figure 5: JIT-compilation overhead breakdown (size {size:?})\n");

    let mut rows = Vec::new();
    let mut pct_sum = 0.0;
    let mut pct_max: (f64, &str) = (0.0, "");
    let mut dis_share_sum = 0.0;
    let suite = suite();

    for b in &suite {
        // Native wall time (no interposer).
        let native = titan_v();
        let (_, native_wall) = timed(|| b.run(&native, size).expect("benchmark runs"));

        // Instrumented run: every instruction of every kernel, once.
        let drv = titan_v();
        drv.obs().set_enabled(true);
        let (tool, _results) = InstrCount::new();
        nvbit::attach_tool(&drv, tool);
        b.run(&drv, size).expect("instrumented benchmark runs");
        drv.shutdown();

        let report = drv.obs().report();
        let parts = jit_ns(&report);
        for ((label, _), ns) in JIT_COMPONENTS.iter().zip(parts) {
            assert!(ns > 0, "{}: component {label} not attributed", b.name);
        }
        // One decode per lift: nothing re-decodes a function to time it.
        assert_eq!(
            report.counters.get("sass.decode").map(|c| c.count),
            report.phases.get("lift").map(|p| p.count),
            "{}: every lift decodes its function exactly once",
            b.name
        );
        let jit_ns: u64 = parts.iter().sum();
        let pct = 100.0 * (jit_ns as f64 * 1e-9) / native_wall.as_secs_f64().max(1e-9);
        pct_sum += pct;
        if pct > pct_max.0 {
            pct_max = (pct, b.name);
        }
        let share = |i: usize| 100.0 * parts[i] as f64 / (jit_ns as f64).max(1.0);
        dis_share_sum += share(1);
        let mut row = vec![b.name.to_string(), format!("{:.3}", jit_ns as f64 * 1e-6)];
        row.extend((0..parts.len()).map(|i| format!("{:.1}", share(i))));
        row.push(format!("{:.2}", pct));
        rows.push(row);
    }

    print_table(
        &[
            "benchmark",
            "jit(ms)",
            "retr%",
            "disas%",
            "conv%",
            "user%",
            "cgen%",
            "swap%",
            "jit/native%",
        ],
        &rows,
    );
    println!(
        "\naverage JIT overhead vs native: {:.2}%  (paper: < 5% average)",
        pct_sum / suite.len() as f64
    );
    println!(
        "worst case: {} at {:.2}%  (paper: ~20% for ilbdc, many unique short kernels)",
        pct_max.1, pct_max.0
    );
    println!(
        "average disassembly share of JIT time: {:.1}%  (paper: disassembly dominant)",
        dis_share_sum / suite.len() as f64
    );
}
