//! Shared harness for the figure-regeneration binaries and the
//! `harness = false` micro-bench.
//!
//! **Paper mapping:** §5–§6 — each binary regenerates one table or figure of
//! the evaluation; see `DESIGN.md` for the experiment index and
//! `EXPERIMENTS.md` for recorded paper-vs-measured results.
//!
//! Every binary records what it measured in one [`Report`]: rows of named
//! numbers per (workload, configuration) and the gates those numbers must
//! hold. [`Report::finish`] prints the rows as tables, writes
//! `results/BENCH_<bench>.json` stamped with the host and the git revision,
//! and fails the run if any gate does not hold.

use common::json::Json;
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

/// Arithmetic mean of a slice (0 when empty).
pub fn mean(vals: &[f64]) -> f64 {
    vals.iter().sum::<f64>() / vals.len().max(1) as f64
}

/// Geometric mean of a non-empty slice.
pub fn geomean(vals: &[f64]) -> f64 {
    if vals.is_empty() {
        return 0.0;
    }
    (vals.iter().map(|v| v.max(1e-12).ln()).sum::<f64>() / vals.len() as f64).exp()
}

/// One configuration of one workload and what it measured.
struct Row {
    workload: String,
    config: String,
    values: Vec<(&'static str, f64)>,
}

/// A bound a measured value must hold.
struct Gate {
    name: String,
    value: f64,
    bound: f64,
    holds: bool,
}

/// The results of one bench binary, in the one schema every binary writes:
/// `{bench, host: {os, arch, hw_threads}, rev, rows, gates}`.
pub struct Report {
    bench: &'static str,
    rows: Vec<Row>,
    gates: Vec<Gate>,
}

impl Report {
    /// An empty report for the binary `bench`.
    pub fn new(bench: &'static str) -> Report {
        Report { bench, rows: Vec::new(), gates: Vec::new() }
    }

    /// Records what `config` measured on `workload`.
    pub fn row(&mut self, workload: &str, config: &str, values: &[(&'static str, f64)]) {
        let (workload, config) = (workload.to_string(), config.to_string());
        self.rows.push(Row { workload, config, values: values.to_vec() });
    }

    /// The `key` values of every row of `config`, in order.
    pub fn column(&self, config: &str, key: &str) -> Vec<f64> {
        let rows = self.rows.iter().filter(|r| r.config == config);
        rows.flat_map(|r| r.values.iter().filter(|(k, _)| *k == key).map(|(_, v)| *v)).collect()
    }

    /// Records a gate: `value` against `bound`, holding when `holds`.
    pub fn gate(&mut self, name: impl Into<String>, value: f64, bound: f64, holds: bool) {
        self.gates.push(Gate { name: name.into(), value, bound, holds });
    }

    /// A gate that holds when `value >= bound`.
    pub fn at_least(&mut self, name: impl Into<String>, value: f64, bound: f64) {
        self.gate(name, value, bound, value >= bound);
    }

    /// A gate that holds when `value <= bound`.
    pub fn at_most(&mut self, name: impl Into<String>, value: f64, bound: f64) {
        self.gate(name, value, bound, value <= bound);
    }

    /// Prints the rows (one table per distinct set of value names) and the
    /// gates, writes `results/BENCH_<bench>.json`, then panics if a gate
    /// does not hold.
    pub fn finish(self) {
        println!("== {} ==", self.bench);
        let keys = |r: &Row| r.values.iter().map(|(k, _)| *k).collect::<Vec<_>>();
        let mut shapes = Vec::new();
        for row in &self.rows {
            if !shapes.contains(&keys(row)) {
                shapes.push(keys(row));
            }
        }
        for shape in &shapes {
            let rows = self.rows.iter().filter(|r| keys(r) == *shape).map(|r| {
                let mut cells = vec![r.workload.clone(), r.config.clone()];
                cells.extend(r.values.iter().map(|(_, v)| num(*v)));
                cells
            });
            print_table(&[&["workload", "config"], &shape[..]].concat(), &rows.collect::<Vec<_>>());
        }
        let gates = self.gates.iter().map(|g| {
            let verdict = if g.holds { "holds" } else { "FAILS" };
            vec![g.name.clone(), num(g.value), num(g.bound), verdict.to_string()]
        });
        print_table(&["gate", "value", "bound", ""], &gates.collect::<Vec<_>>());

        std::fs::create_dir_all("results").unwrap();
        let path = format!("results/BENCH_{}.json", self.bench);
        std::fs::write(&path, self.to_json().to_pretty()).unwrap();
        println!("\nwrote {path}");
        let failed: Vec<&str> =
            self.gates.iter().filter(|g| !g.holds).map(|g| g.name.as_str()).collect();
        assert!(failed.is_empty(), "{}: gates failed: {failed:?}", self.bench);
    }

    fn to_json(&self) -> Json {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let host = Json::obj(vec![
            ("os", Json::Str(std::env::consts::OS.into())),
            ("arch", Json::Str(std::env::consts::ARCH.into())),
            ("hw_threads", Json::Num(threads as f64)),
        ]);
        let rows = self.rows.iter().map(|r| {
            let mut pairs = vec![
                ("workload", Json::Str(r.workload.clone())),
                ("config", Json::Str(r.config.clone())),
            ];
            pairs.extend(r.values.iter().map(|&(k, v)| (k, Json::Num(v))));
            Json::obj(pairs)
        });
        let gates = self.gates.iter().map(|g| {
            Json::obj(vec![
                ("name", Json::Str(g.name.clone())),
                ("value", Json::Num(g.value)),
                ("bound", Json::Num(g.bound)),
                ("holds", Json::Bool(g.holds)),
            ])
        });
        Json::obj(vec![
            ("bench", Json::Str(self.bench.into())),
            ("host", host),
            ("rev", Json::Str(revision())),
            ("rows", Json::Arr(rows.collect())),
            ("gates", Json::Arr(gates.collect())),
        ])
    }
}

/// `git describe --always --dirty`, or `"unknown"` outside a work tree.
fn revision() -> String {
    let out = std::process::Command::new("git").args(["describe", "--always", "--dirty"]).output();
    let rev = out.ok().filter(|o| o.status.success()).map(|o| o.stdout);
    let rev = rev.and_then(|b| String::from_utf8(b).ok()).map(|s| s.trim().to_string());
    rev.filter(|s| !s.is_empty()).unwrap_or_else(|| "unknown".into())
}

/// A table cell: integers as integers, anything else to three decimals.
fn num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

/// Renders a right-aligned table to stdout.
fn print_table(header: &[&str], rows: &[Vec<String>]) {
    if rows.is_empty() {
        return;
    }
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let cells = cells.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}"));
        println!("{}", cells.collect::<Vec<_>>().join("  ").trim_end());
    };
    println!();
    line(&header.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    rows.iter().for_each(|row| line(row));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_constants_is_the_constant() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-9);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn timed_reports_duration() {
        let (v, d) = timed(|| 42);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
    }

    #[test]
    fn a_report_is_one_schema_stamped_with_host_and_revision() {
        let mut r = Report::new("demo");
        r.row("fft", "naive", &[("cycles", 10.0), ("overhead", 1.5)]);
        r.row("fft", "block", &[("cycles", 4.0), ("overhead", 1.1)]);
        r.at_least("cut", 0.6, 0.25);
        r.at_most("drops", 1.0, 0.0);
        assert_eq!(r.column("block", "cycles"), vec![4.0]);
        let doc = r.to_json();
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some("demo"));
        let host = doc.get("host").unwrap();
        assert!(host.get("hw_threads").and_then(Json::as_u64).unwrap() >= 1);
        assert!(!doc.get("rev").and_then(Json::as_str).unwrap().is_empty());
        let rows = doc.get("rows").and_then(Json::as_arr).unwrap();
        assert_eq!(rows[1].get("config").and_then(Json::as_str), Some("block"));
        assert_eq!(rows[1].get("cycles").and_then(Json::as_f64), Some(4.0));
        let gates = doc.get("gates").and_then(Json::as_arr).unwrap();
        let holds: Vec<_> = gates.iter().map(|g| g.get("holds").and_then(Json::as_bool)).collect();
        assert_eq!(holds, vec![Some(true), Some(false)]);
    }
}
