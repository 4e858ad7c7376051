//! Result files and their comparison.
//!
//! A result file holds the host stamp and, per workload, the end-to-end and
//! the per-layer section of one run each:
//!
//! ```json
//! {"stamp": {"hw_threads": 2, "rustc": "...", "git_rev": "...", "profile": "release", "seed": 1},
//!  "workloads": {"exec_spec": {"end_to_end": {"metrics": {"setup_s": {"value": 1.2, "unit": "s"}},
//!      "attempted": 900, "failed": 0, "iterations": 11, "noisy": false,
//!      "calib_ms": {"min": 8.9, "median": 9.3, "max": 12.0, "n": 31}},
//!    "per_layer": {...}}}}
//! ```

use crate::adapter::Json;
use crate::host::stamp;
use crate::measure::Outcome;
use crate::metrics::{Better, END_TO_END, EXACT_END_TO_END, PER_LAYER};
use crate::stats::quantile;
use std::path::Path;

fn section(out: &Outcome) -> Json {
    let metrics = out
        .metrics
        .iter()
        .map(|&(name, value, unit)| {
            let mut fields = vec![("value", Json::Num(value)), ("unit", Json::Str(unit.into()))];
            if let Some(w) = out.walls.iter().find(|w| w.name == name) {
                fields.push(("p25", Json::Num(w.scaled.p25)));
                fields.push(("p90", Json::Num(w.scaled.p90)));
                fields.push(("n", Json::Num(w.scaled.n as f64)));
                fields.push(("raw_median", Json::Num(w.raw_median)));
            }
            (name.to_string(), Json::obj(fields))
        })
        .collect();
    Json::obj(vec![
        ("metrics", Json::Obj(metrics)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failures.len() as f64)),
        ("iterations", Json::Num(out.iterations as f64)),
        ("noisy", Json::Bool(out.noisy())),
        (
            "calib_ms",
            Json::obj(vec![
                ("min", Json::Num(quantile(&out.calib_ms, 0.0))),
                ("median", Json::Num(quantile(&out.calib_ms, 0.5))),
                ("max", Json::Num(quantile(&out.calib_ms, 1.0))),
                ("n", Json::Num(out.calib_ms.len() as f64)),
            ]),
        ),
    ])
}

/// Sets `key` of an object, keeping insertion order.
fn set(obj: &mut Json, key: &str, value: Json) {
    let Json::Obj(pairs) = obj else { return };
    match pairs.iter_mut().find(|(k, _)| k == key) {
        Some((_, v)) => *v = value,
        None => pairs.push((key.to_string(), value)),
    }
}

fn child<'a>(obj: &'a mut Json, key: &str) -> &'a mut Json {
    if obj.get(key).is_none() {
        set(obj, key, Json::Obj(Vec::new()));
    }
    let Json::Obj(pairs) = obj else { unreachable!("set() only acts on objects") };
    &mut pairs.iter_mut().find(|(k, _)| k == key).expect("just inserted").1
}

/// Adds one run's section to the result file at `path`, creating the file
/// (with the host stamp) when it does not exist or is stamped with another
/// seed.
pub fn merge_into(
    path: &Path,
    workload: &str,
    seed: u64,
    traced: bool,
    out: &Outcome,
) -> std::io::Result<()> {
    let existing = std::fs::read_to_string(path).ok().and_then(|s| Json::parse(&s).ok());
    let same_seed = |doc: &Json| {
        doc.get("stamp").and_then(|s| s.get("seed")).and_then(Json::as_u64) == Some(seed)
    };
    let mut doc = existing.filter(same_seed).unwrap_or_else(|| {
        Json::obj(vec![("stamp", stamp(seed)), ("workloads", Json::Obj(Vec::new()))])
    });
    let entry = child(child(&mut doc, "workloads"), workload);
    set(entry, if traced { "per_layer" } else { "end_to_end" }, section(out));
    std::fs::write(path, doc.to_pretty() + "\n")
}

/// Verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    Worse,
    /// Past the bound, but a calibration loop flagged one of the two runs:
    /// the host may explain the difference, so it is not called either way.
    Unresolved,
}

/// Share by which `new` is worse than `base` (negative when better).
pub fn worsening(base: f64, new: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    }
}

pub fn verdict(
    base: f64,
    new: f64,
    better: Better,
    bound: f64,
    exact: bool,
    noisy: bool,
) -> Verdict {
    if exact {
        return if base == new { Verdict::Pass } else { Verdict::Worse };
    }
    if worsening(base, new, better) <= bound {
        Verdict::Pass
    } else if noisy {
        Verdict::Unresolved
    } else {
        Verdict::Worse
    }
}

fn metric(doc: &Json, workload: &str, section: &str, name: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get(section)?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

fn flagged_noisy(doc: &Json, workload: &str) -> bool {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|s| s.get("noisy"))
        .and_then(Json::as_bool)
        .unwrap_or(false)
}

/// Compares result file `b` against baseline `a`: every end-to-end metric ×
/// workload against its bound, every exact metric for equality. Returns the
/// report and whether anything was worse.
pub fn compare(a: &Json, b: &Json) -> (String, bool) {
    use std::fmt::Write as _;
    let mut report = String::new();
    let mut any_worse = false;
    let same_seed =
        a.get("stamp").and_then(|s| s.get("seed")) == b.get("stamp").and_then(|s| s.get("seed"));
    let Some(Json::Obj(workloads)) = a.get("workloads") else {
        return ("baseline has no workloads\n".into(), true);
    };
    let _ = writeln!(
        report,
        "{:<12} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "base", "new", "change", "bound"
    );
    for (wname, _) in workloads {
        let noisy = flagged_noisy(a, wname) || flagged_noisy(b, wname);
        for m in &END_TO_END {
            // Exactness only holds between runs on the same inputs.
            let exact = m.name == EXACT_END_TO_END && same_seed;
            let (Some(base), Some(new)) =
                (metric(a, wname, "end_to_end", m.name), metric(b, wname, "end_to_end", m.name))
            else {
                let _ =
                    writeln!(report, "{wname:<12} {:<16} missing in one file  unresolved", m.name);
                continue;
            };
            let v = verdict(base, new, m.better, m.bound, exact, noisy);
            any_worse |= v == Verdict::Worse;
            let _ = writeln!(
                report,
                "{wname:<12} {:<16} {base:>14.4} {new:>14.4} {:>+8.2}% {:>6.1}%  {}",
                m.name,
                worsening(base, new, m.better) * 100.0,
                if exact { 0.0 } else { m.bound * 100.0 },
                match v {
                    Verdict::Pass => "pass",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        if !same_seed {
            continue;
        }
        let mut exact_checked = 0;
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let (Some(base), Some(new)) =
                (metric(a, wname, "per_layer", m.name), metric(b, wname, "per_layer", m.name))
            else {
                continue;
            };
            exact_checked += 1;
            if base != new {
                any_worse = true;
                let _ = writeln!(
                    report,
                    "{wname:<12} {:<24} {base} != {new}  exact count differs",
                    m.name
                );
            }
        }
        let _ = writeln!(report, "{wname:<12} {exact_checked} exact per-layer counts compared");
    }
    (report, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_apply_the_bound_in_the_worse_direction() {
        use Better::{Higher, Lower};
        assert_eq!(verdict(100.0, 109.0, Lower, 0.10, false, false), Verdict::Pass);
        assert_eq!(verdict(100.0, 111.0, Lower, 0.10, false, false), Verdict::Worse);
        assert_eq!(verdict(100.0, 50.0, Lower, 0.10, false, false), Verdict::Pass);
        assert_eq!(verdict(100.0, 89.0, Higher, 0.10, false, false), Verdict::Worse);
        assert_eq!(verdict(100.0, 111.0, Lower, 0.10, false, true), Verdict::Unresolved);
        assert_eq!(verdict(1.5, 1.5, Lower, 0.01, true, false), Verdict::Pass);
        assert_eq!(verdict(1.5, 1.5000001, Lower, 0.01, true, true), Verdict::Worse);
    }

    fn file(seed: u64, native_ms: f64, slowdown: f64, noisy: bool, cycles: f64) -> Json {
        let m = |v: f64| Json::obj(vec![("value", Json::Num(v)), ("unit", Json::Str("x".into()))]);
        let e2e = Json::obj(vec![
            (
                "metrics",
                Json::obj(vec![
                    ("setup_s", m(1.0)),
                    ("native_wall_ms", m(native_ms)),
                    ("instr_wall_ms", m(50.0)),
                    ("sim_slowdown", m(slowdown)),
                    ("peak_rss_mb", m(20.0)),
                ]),
            ),
            ("noisy", Json::Bool(noisy)),
        ]);
        let layer = Json::obj(vec![("metrics", Json::obj(vec![("gpu.instr_cycles", m(cycles))]))]);
        Json::obj(vec![
            ("stamp", Json::obj(vec![("seed", Json::Num(seed as f64))])),
            (
                "workloads",
                Json::obj(vec![("w", Json::obj(vec![("end_to_end", e2e), ("per_layer", layer)]))]),
            ),
        ])
    }

    #[test]
    fn compare_reports_pass_worse_and_unresolved() {
        let base = file(1, 10.0, 2.0, false, 1000.0);
        let (report, worse) = compare(&base, &file(1, 10.5, 2.0, false, 1000.0));
        assert!(!worse, "{report}");
        assert_eq!(report.matches("pass").count(), 5, "{report}");

        let (report, worse) = compare(&base, &file(1, 12.0, 2.0, false, 1000.0));
        assert!(worse && report.contains("worse"), "{report}");

        let (report, worse) = compare(&base, &file(1, 12.0, 2.0, true, 1000.0));
        assert!(!worse && report.contains("unresolved"), "{report}");
    }

    #[test]
    fn exact_metrics_must_match_exactly_on_the_same_seed() {
        let base = file(1, 10.0, 2.0, false, 1000.0);
        let (report, worse) = compare(&base, &file(1, 10.0, 2.001, false, 1000.0));
        assert!(worse, "sim_slowdown is exact for one seed: {report}");
        let (report, worse) = compare(&base, &file(1, 10.0, 2.0, false, 1001.0));
        assert!(worse && report.contains("exact count differs"), "{report}");
        // Another seed is another input: the bound applies, counts are not compared.
        let (report, worse) = compare(&base, &file(2, 10.0, 2.001, false, 1001.0));
        assert!(!worse, "{report}");
    }

    #[test]
    fn merging_keeps_other_sections_and_restamps_on_a_new_seed() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-merge-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("r.json");
        let out = |v: f64| Outcome {
            metrics: vec![("setup_s", v, "s")],
            attempted: 3,
            failures: Vec::new(),
            iterations: 9,
            calib_ms: vec![10.0, 10.5],
            walls: Vec::new(),
            shares: Vec::new(),
            trace_file: None,
        };
        merge_into(&path, "a", 1, false, &out(1.0)).unwrap();
        merge_into(&path, "a", 1, true, &out(2.0)).unwrap();
        merge_into(&path, "b", 1, false, &out(3.0)).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(metric(&doc, "a", "end_to_end", "setup_s"), Some(1.0));
        assert_eq!(metric(&doc, "a", "per_layer", "setup_s"), Some(2.0));
        assert_eq!(metric(&doc, "b", "end_to_end", "setup_s"), Some(3.0));
        assert!(doc.get("stamp").unwrap().get("hw_threads").unwrap().as_u64().unwrap() >= 1);

        merge_into(&path, "b", 2, false, &out(4.0)).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(metric(&doc, "a", "end_to_end", "setup_s"), None, "old seed's runs are gone");
        assert_eq!(metric(&doc, "b", "end_to_end", "setup_s"), Some(4.0));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
