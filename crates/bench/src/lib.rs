//! Shared harness for the figure-regeneration binaries and the
//! `harness = false` micro-bench.
//!
//! **Paper mapping:** §5 — each `fig*` binary regenerates one table or
//! figure of the evaluation; see `DESIGN.md` for the experiment index and
//! `EXPERIMENTS.md` for recorded paper-vs-measured results.

use common::obs;
use cuda::Driver;
use gpu::DeviceSpec;
use sass::Arch;
use std::time::{Duration, Instant};
use workloads::specaccel::Size;

/// Parses `--size small|medium|large` from the arguments (default medium).
pub fn size_arg() -> Size {
    let args: Vec<String> = std::env::args().collect();
    match args.iter().position(|a| a == "--size").and_then(|i| args.get(i + 1)) {
        Some(s) if s == "small" => Size::Small,
        Some(s) if s == "large" => Size::Large,
        _ => Size::Medium,
    }
}

/// True when a flag is present on the command line.
pub fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

/// A fresh driver on the paper's testbed analog (the Volta-class preset,
/// standing in for the TITAN V).
pub fn titan_v() -> Driver {
    Driver::new(DeviceSpec::preset(Arch::Volta))
}

/// Runs a closure and returns (result, wall time).
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

/// The six JIT-overhead components of paper Fig. 5 (§5.2), in the
/// paper's order, each with the `common::obs` phases that time it:
/// retrieving the original code, disassembling it, converting it into
/// `Instr` views, the tool's host code, generating (planning, emitting and
/// verifying) the instrumented image, and swapping code versions.
pub const JIT_COMPONENTS: [(&str, &[&str]); 6] = [
    ("retrieve", &["retrieve"]),
    ("disassemble", &["disassemble"]),
    ("convert", &["convert"]),
    ("user-code", &["user_code"]),
    ("codegen", &["plan", "codegen", "verify"]),
    ("swap", &["swap"]),
];

/// Inclusive nanoseconds of each [`JIT_COMPONENTS`] entry, in order.
pub fn jit_ns(report: &obs::Report) -> [u64; 6] {
    JIT_COMPONENTS.map(|(_, phases)| phases.iter().map(|p| report.phase_ns(p)).sum())
}

/// Renders a simple aligned table to stdout.
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>w$}  ", c, w = widths[i.min(widths.len() - 1)]));
        }
        println!("{}", s.trim_end());
    };
    line(header.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Geometric mean of a non-empty slice.
pub fn geomean(vals: &[f64]) -> f64 {
    if vals.is_empty() {
        return 0.0;
    }
    (vals.iter().map(|v| v.max(1e-12).ln()).sum::<f64>() / vals.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_constants_is_the_constant() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-9);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn timed_reports_duration() {
        let (v, d) = timed(|| 42);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
    }
}
