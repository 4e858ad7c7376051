//! One benchmark for the stack: host wall-clock and simulated slowdown end
//! to end, per-layer probes, four workloads that each isolate a layer.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --seed 1
//!     [--workload <name>] [--seconds <n>] [--trace <0|1>] [--out <file.json>]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --compare <a.json> <b.json>
//! ```
//!
//! Without `--workload`, every workload runs in its own process (so peak
//! RSS is per workload), first with tracing off, then traced. See README.md.

mod adapter;
mod apps;
mod host;
mod measure;
mod metrics;
mod result;
mod span;
mod stats;
mod workloads;

use adapter::Json;
use measure::{Options, Outcome};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workloads::{Workload, WORKLOADS};

const USAGE: &str = "usage: nvbit-benchmark [--workload <name>] [--seed <u64>] [--seconds <n>] \
[--trace <0|1>] [--out <file.json>] | --compare <a.json> <b.json> | --emit-manifest";

struct Cli {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    emit_manifest: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: f64::from(metrics::RUN_SECONDS),
        trace: false,
        out: None,
        compare: None,
        emit_manifest: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = workloads::find(name).ok_or_else(|| {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{name}` (known: {})", known.join(", "))
                })?;
                cli.workload = Some(w);
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            "--compare" => cli.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            "--emit-manifest" => cli.emit_manifest = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
fn result_line(out: &Outcome) -> String {
    let metrics = out
        .metrics
        .iter()
        .map(|&(name, value, unit)| {
            let m = Json::obj(vec![("value", Json::Num(value)), ("unit", Json::Str(unit.into()))]);
            (name.to_string(), m)
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(out.failures.is_empty())),
        ("attempted", Json::Num(out.attempted.max(1) as f64)),
        ("failed", Json::Num(out.failures.len() as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_compact()
}

fn report(w: &Workload, cli: &Cli, out: &Outcome) {
    println!(
        "workload {} seed {} trace {}: {} iterations, {} operations attempted, {} failed{}",
        w.name,
        cli.seed,
        u8::from(cli.trace),
        out.iterations,
        out.attempted,
        out.failures.len(),
        if out.noisy() { " [noisy host]" } else { "" }
    );
    println!("  why: {}", w.why);
    let calib = stats::summarize(&out.calib_ms);
    println!(
        "  host calibration loop: min {:.2} ms  median {:.2} ms  p90 {:.2} ms  n {} (reference {} ms)",
        calib.min, calib.median, calib.p90, calib.n, host::CALIB_REF_MS
    );
    for w in &out.walls {
        let s = &w.scaled;
        println!(
            "  {:<28} median {:>10.3}  p25 {:>10.3}  p90 {:>10.3}  n {}  (raw median {:.3})",
            w.name, s.median, s.p25, s.p90, s.n, w.raw_median
        );
    }
    for (name, value, unit) in &out.metrics {
        println!("  {name:<28} {value:>16.4} {unit}");
    }
    for f in out.failures.iter().take(20) {
        println!("  FAILED: {f}");
    }
    if let Some(path) = &out.trace_file {
        println!("  trace written to {}", path.display());
        println!(
            "  {:<11} {:<20} {:>12} {:>12} {:>8}",
            "root", "span", "self ms", "incl ms", "share"
        );
        for l in &out.shares {
            println!(
                "  {:<11} {:<20} {:>12.3} {:>12.3} {:>7.1}%",
                l.root, l.name, l.self_ms, l.inclusive_ms, l.self_share_pct
            );
        }
    }
}

fn run_one(w: &'static Workload, cli: &Cli) -> ExitCode {
    let opts = Options { seed: cli.seed, seconds: cli.seconds, trace: cli.trace };
    let out = measure::run(w, &opts);
    report(w, cli, &out);
    if let Some(path) = &cli.out {
        if let Err(e) = result::merge_into(path, w.name, cli.seed, cli.trace, &out) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    println!("{}", result_line(&out));
    if out.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, untraced then traced, each in a process of its own.
fn run_all(cli: &Cli) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut failed = Vec::new();
    for w in &WORKLOADS {
        for trace in ["0", "1"] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name, "--trace", trace]).args([
                "--seed",
                &cli.seed.to_string(),
                "--seconds",
                &cli.seconds.to_string(),
            ]);
            if let Some(out) = &cli.out {
                cmd.arg("--out").arg(out);
            }
            // `status()` waits for the child to end.
            match cmd.status() {
                Ok(s) if s.success() => {}
                Ok(s) => failed.push(format!("{} --trace {trace}: {s}", w.name)),
                Err(e) => failed.push(format!("{} --trace {trace}: {e}", w.name)),
            }
        }
    }
    if failed.is_empty() {
        println!("all {} workloads passed their output checks", WORKLOADS.len());
        ExitCode::SUCCESS
    } else {
        failed.iter().for_each(|f| println!("FAILED: {f}"));
        ExitCode::FAILURE
    }
}

fn run_compare(a: &std::path::Path, b: &std::path::Path) -> ExitCode {
    let load = |p: &std::path::Path| {
        std::fs::read_to_string(p)
            .map_err(|e| e.to_string())
            .and_then(|s| Json::parse(&s).map_err(|e| e.to_string()))
            .map_err(|e| format!("{}: {e}", p.display()))
    };
    match (load(a), load(b)) {
        (Ok(a), Ok(b)) => {
            let (text, any_worse) = result::compare(&a, &b);
            print!("{text}");
            if any_worse {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.emit_manifest {
        print!("{}", metrics::manifest());
        return ExitCode::SUCCESS;
    }
    if let Some((a, b)) = &cli.compare {
        return run_compare(a, b);
    }
    match cli.workload {
        Some(w) => run_one(w, &cli),
        None => run_all(&cli),
    }
}
