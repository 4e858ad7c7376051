//! The metric vocabulary: names, units, directions and regression bounds.
//!
//! `BENCHMARK.json` at the repository root is generated from these tables
//! (`--emit-manifest`); a unit test keeps the file in step.

use crate::adapter::Json;
use crate::workloads::WORKLOADS;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline by which the metric may get worse before it
    /// counts as a regression.
    pub bound: f64,
}

/// A per-layer metric. `exact` metrics are counts made by a deterministic
/// program under `Scheduler::Serial`: two runs of one commit on one seed
/// must agree to the last digit.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub exact: bool,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "native_wall_ms", unit: "ms", better: Better::Lower, bound: 0.15 },
    EndToEnd { name: "instr_wall_ms", unit: "ms", better: Better::Lower, bound: 0.15 },
    EndToEnd { name: "sim_slowdown", unit: "ratio", better: Better::Lower, bound: 0.02 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: Better::Lower, bound: 0.10 },
];

/// `sim_slowdown` is exact for one seed; its bound only has to absorb the
/// difference between seeds.
pub const EXACT_END_TO_END: &str = "sim_slowdown";

const fn timed(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower, exact: false }
}

const fn rate(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Higher, exact: false }
}

const fn count(name: &'static str) -> PerLayer {
    PerLayer { name, unit: "count", better: Better::Lower, exact: true }
}

pub const PER_LAYER: [PerLayer; 54] = [
    // ptx: driver-side JIT of the embedded PTX.
    timed("ptx.parse_ms", "ms"),
    timed("ptx.compile_ms", "ms"),
    count("ptx.sass_instrs"),
    rate("ptx.kinstr_per_s", "k/s"),
    // sass: codec and analyses, replayed on the workload's kernels.
    timed("sass.decode_ms", "ms"),
    rate("sass.decode_minstr_per_s", "M/s"),
    timed("sass.encode_ms", "ms"),
    timed("sass.cfg_ms", "ms"),
    timed("sass.dataflow_ms", "ms"),
    timed("sass.dom_ms", "ms"),
    count("sass.blocks"),
    // driver: module load and fixed per-launch cost.
    timed("driver.module_load_ms", "ms"),
    timed("driver.launch_empty_us", "us"),
    timed("driver.launch_empty_tool_us", "us"),
    count("driver.launches"),
    // core: the JIT pipeline, timed in place on each kernel's first launch.
    timed("core.lift_ms", "ms"),
    timed("core.lift_replay_ms", "ms"),
    timed("core.build_ms", "ms"),
    timed("core.verify_ms", "ms"),
    timed("core.swap_us", "us"),
    count("core.funcs"),
    count("core.sites"),
    count("core.calls_emitted"),
    PerLayer { name: "core.inline_accepted", unit: "count", better: Better::Higher, exact: true },
    count("core.inline_declined"),
    count("core.saved_slots"),
    count("core.full_tier_slots"),
    count("core.verify_diags"),
    // tools: host-side callbacks of the shipped tool.
    timed("tools.init_ms", "ms"),
    timed("tools.user_ms", "ms"),
    count("tools.sampled_launches"),
    PerLayer { name: "tools.sampling_err_pct", unit: "%", better: Better::Lower, exact: true },
    // gpu: the executor.
    timed("gpu.native_exec_ms", "ms"),
    timed("gpu.instr_exec_ms", "ms"),
    rate("gpu.native_mips", "M/s"),
    rate("gpu.instr_mips", "M/s"),
    count("gpu.native_thread_instrs"),
    count("gpu.instr_thread_instrs"),
    PerLayer { name: "gpu.instr_ratio", unit: "ratio", better: Better::Lower, exact: true },
    count("gpu.native_cycles"),
    count("gpu.instr_cycles"),
    PerLayer { name: "gpu.decode_hits", unit: "count", better: Better::Higher, exact: true },
    count("gpu.decode_misses"),
    // channel: the GPU→host export path.
    rate("channel.push_mrec_per_s", "M/s"),
    count("channel.demanded"),
    PerLayer { name: "channel.delivered", unit: "count", better: Better::Higher, exact: true },
    count("channel.dropped"),
    rate("channel.app_mrec_per_s", "M/s"),
    // host / trace: context for reading the others.
    PerLayer { name: "host.hw_threads", unit: "count", better: Better::Higher, exact: false },
    timed("host.calib_ms", "ms"),
    timed("host.calib_min_ms", "ms"),
    timed("trace.native_wall_ms", "ms"),
    timed("trace.instr_wall_ms", "ms"),
    timed("trace.overhead_pct", "%"),
];

/// Seconds one run measures; the driver passes it as `--seconds`.
pub const RUN_SECONDS: u32 = 20;

/// The text of `BENCHMARK.json`, generated from the tables above and the
/// workload list so the driver and `--compare` cannot disagree.
pub fn manifest() -> String {
    let named = |name: &str, unit: &str, better: Better| {
        vec![
            ("name", Json::Str(name.into())),
            ("unit", Json::Str(unit.into())),
            ("better", Json::Str(better.as_str().into())),
        ]
    };
    let command =
        ["cargo", "run", "--release", "--quiet", "--manifest-path", "benchmark/Cargo.toml", "--"];
    Json::obj(vec![
        ("command", Json::Arr(command.iter().map(|s| Json::Str((*s).into())).collect())),
        ("paths", Json::Arr(vec![Json::Str("benchmark".into())])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![
                            ("name", Json::Str(w.name.into())),
                            ("why", Json::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        let mut f = named(m.name, m.unit, m.better);
                        f.push(("bound", Json::Num(m.bound)));
                        Json::obj(f)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER.iter().map(|m| Json::obj(named(m.name, m.unit, m.better))).collect(),
            ),
        ),
    ])
    .to_pretty()
        + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regenerate with `-- --emit-manifest > BENCHMARK.json`.
    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        assert_eq!(std::fs::read_to_string(path).expect("BENCHMARK.json"), manifest());
    }

    #[test]
    fn the_manifest_stays_within_the_contract() {
        assert!(manifest().len() <= 64 * 1024);
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut all: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        all.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &all {
            assert!(
                n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        let units = END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit));
        for u in units {
            assert!(
                u.len() <= 16
                    && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }
}
