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
//!
//! Writes `results/BENCH_fig5.json`. Gates: every component is attributed
//! time on every benchmark, and every lift decodes its function once.

use bench_harness::{mean, size_arg, timed, titan_v, Report};
use nvbit_tools::InstrCount;
use workloads::specaccel::suite;

/// The six JIT-overhead components of paper Fig. 5 (§5.2), in the
/// paper's order, each with the `common::obs` phases that time it:
/// retrieving the original code, disassembling it, converting it into
/// `Instr` views, the tool's host code, generating (planning, emitting and
/// verifying) the instrumented image, and swapping code versions.
const JIT_COMPONENTS: [(&str, &[&str]); 6] = [
    ("retrieve_pct", &["retrieve"]),
    ("disassemble_pct", &["disassemble"]),
    ("convert_pct", &["convert"]),
    ("user_code_pct", &["user_code"]),
    ("codegen_pct", &["plan", "codegen", "verify"]),
    ("swap_pct", &["swap"]),
];

fn main() {
    let size = size_arg();
    let mut report = Report::new("fig5");
    let (mut min_component_ns, mut redecoded) = (u64::MAX, 0);
    for b in suite() {
        // Native wall time (no interposer).
        let native = titan_v();
        let (_, native_wall) = timed(|| b.run(&native, size).expect("benchmark runs"));

        // Instrumented run: every instruction of every kernel, once.
        let drv = titan_v();
        drv.obs().set_enabled(true);
        nvbit::attach_tool(&drv, InstrCount::new().0);
        b.run(&drv, size).expect("instrumented benchmark runs");
        drv.shutdown();

        let obs = drv.obs().report();
        let parts =
            JIT_COMPONENTS.map(|(_, phases)| phases.iter().map(|p| obs.phase_ns(p)).sum::<u64>());
        min_component_ns = parts.into_iter().fold(min_component_ns, u64::min);
        // One decode per lift: nothing re-decodes a function to time it.
        let decodes = obs.counters.get("sass.decode").map(|c| c.count);
        redecoded += u32::from(decodes != obs.phases.get("lift").map(|p| p.count));

        let jit_ns: u64 = parts.iter().sum();
        let mut values = vec![("jit_ms", jit_ns as f64 * 1e-6)];
        let share = |ns: u64| 100.0 * ns as f64 / jit_ns.max(1) as f64;
        values.extend(JIT_COMPONENTS.iter().zip(parts).map(|((name, _), ns)| (*name, share(ns))));
        let pct = 100.0 * jit_ns as f64 * 1e-9 / native_wall.as_secs_f64().max(1e-9);
        values.push(("jit_native_pct", pct));
        report.row(b.name, "instr_count", &values);
    }
    // Paper: < 5 % average, disassembly dominant.
    let keys = ["jit_ms", "disassemble_pct", "jit_native_pct"];
    let means = keys.map(|k| (k, mean(&report.column("instr_count", k))));
    report.row("mean", "instr_count", &means);
    report.at_least("least JIT component time, ns", min_component_ns as f64, 1.0);
    report.at_most("benchmarks decoding a function more than once", f64::from(redecoded), 0.0);
    report.finish();
}
