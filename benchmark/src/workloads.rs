//! The four workloads and the output checks every run of them must pass.
//!
//! Each workload exists to isolate one layer; `why` is the one-line reason
//! `BENCHMARK.json` repeats, and README.md has the long form with the
//! sizing numbers.

use crate::adapter::{interpret_apps, run_apps, RunOutput, ToolKind, ToolOutput};
use crate::apps::{jit_unique, spec_apps, trace_apps, App, Scale};

/// Which instance of a workload to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The timed problem.
    Full,
    /// A small grid of the same kernels, cheap enough for the PTX
    /// reference interpreter.
    Reference,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub tool: ToolKind,
    apps: fn(u64, Size) -> Vec<App>,
}

impl Workload {
    pub fn apps(&self, seed: u64, size: Size) -> Vec<App> {
        (self.apps)(seed, size)
    }
}

/// 16 Ki elements (the suite's Medium) × 4 outer iterations; see README
/// "Sizing" for why 4 and not the suite's 12.
const SPEC: Scale = Scale { n: 1 << 14, iters: 4 };
/// `sample_swap` wants many launches per sampled one, not long kernels: a
/// quarter of the elements, three times the iterations (96 launches, 8 of
/// them instrumented).
const SWAP: Scale = Scale { n: 1 << 12, iters: 12 };
const SPEC_REF: Scale = Scale { n: 1 << 10, iters: 1 };
const UNIQUE_KERNELS: usize = 512;

fn spec(seed: u64, size: Size) -> Vec<App> {
    spec_apps(seed, if size == Size::Full { SPEC } else { SPEC_REF })
}

fn swap(seed: u64, size: Size) -> Vec<App> {
    spec_apps(seed, if size == Size::Full { SWAP } else { SPEC_REF })
}

fn traced(seed: u64, size: Size) -> Vec<App> {
    trace_apps(seed, if size == Size::Full { SPEC } else { SPEC_REF })
}

fn unique(seed: u64, size: Size) -> Vec<App> {
    vec![jit_unique(seed, if size == Size::Full { UNIQUE_KERNELS } else { 32 })]
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "exec_spec",
        why: "long kernels, 8 functions, coalesced counter: the gpu executor does the work, JIT is noise",
        tool: ToolKind::Count,
        apps: spec,
    },
    Workload {
        name: "jit_unique",
        why: "512 unique short kernels launched once: ptx compile, core JIT and per-launch fixed cost dominate",
        tool: ToolKind::Count,
        apps: unique,
    },
    Workload {
        name: "trace_chan",
        why: "cg+ostencil under the channel mem_trace: per-lane CHAN pushes, drain thread, flush per launch",
        tool: ToolKind::TraceChan,
        apps: traced,
    },
    Workload {
        name: "sample_swap",
        why: "grid-dim sampled histogram: few naive instrumented launches, image swaps and decode-cache refills",
        tool: ToolKind::SampleHist,
        apps: swap,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Independent reference: every kernel of the workload, at a small grid,
/// through the PTX interpreter and through compiler + driver + simulator;
/// all buffers byte-compared. Returns (launches checked, failures).
pub fn reference_check(w: &Workload, seed: u64) -> (u64, Vec<String>) {
    let apps = w.apps(seed, Size::Reference);
    let sim = run_apps(&apps, None, None);
    let mut failures = sim.errors.clone();
    match interpret_apps(&apps) {
        Ok(reference) => failures.extend(buffer_mismatches("interpreter", &apps, &reference, &sim)),
        Err(e) => failures.push(format!("reference interpreter: {e}")),
    }
    (sim.launches, failures)
}

fn buffer_mismatches(
    what: &str,
    apps: &[App],
    want: &[Vec<Vec<u8>>],
    got: &RunOutput,
) -> Vec<String> {
    let mut out = Vec::new();
    for (a, app) in apps.iter().enumerate() {
        for b in 0..app.buffers.len() {
            if want[a].get(b) != got.buffers[a].get(b) {
                out.push(format!("{}: buffer {b} differs from the {what} run", app.name));
            }
        }
    }
    out
}

/// Relative error, in percent, of the sampled histogram's total against the
/// native run's exact thread-instruction count.
pub fn sampling_err_pct(hist_total: u64, native_thread_instrs: u64) -> f64 {
    hist_total.abs_diff(native_thread_instrs) as f64 / native_thread_instrs.max(1) as f64 * 100.0
}

/// The checks of one iteration: the instrumented run against its native
/// twin, and both against the first checked iteration (`first`), which
/// every exact quantity must repeat.
pub fn check_iteration(
    apps: &[App],
    native: &RunOutput,
    instr: &RunOutput,
    first: Option<(&RunOutput, &RunOutput)>,
) -> Vec<String> {
    let mut f: Vec<String> = native.errors.iter().chain(&instr.errors).cloned().collect();
    f.extend(buffer_mismatches("native", apps, &native.buffers, instr));
    if instr.layers.verify_diags != 0 {
        f.push(format!("{} verifier diagnostics", instr.layers.verify_diags));
    }
    match &instr.tool {
        ToolOutput::Count { total } => {
            if *total != native.totals.thread_instrs {
                f.push(format!(
                    "counter tool saw {total} thread instructions, native executed {}",
                    native.totals.thread_instrs
                ));
            }
        }
        ToolOutput::Trace { demanded, delivered, dropped, .. } => {
            if *dropped != 0 || delivered != demanded || *demanded == 0 {
                f.push(format!(
                    "trace channel: demanded {demanded}, delivered {delivered}, dropped {dropped}"
                ));
            }
        }
        ToolOutput::Hist { hist, sampled_launches, total_launches } => {
            if *total_launches != instr.launches || *sampled_launches > *total_launches {
                f.push(format!(
                    "sampling: {sampled_launches} of {total_launches} launches instrumented, \
                     {} launched",
                    instr.launches
                ));
            }
            if let Some(op) = hist.keys().find(|op| !native.totals.per_op.contains_key(*op)) {
                f.push(format!("histogram has opcode {op} that the native run never executed"));
            }
        }
        ToolOutput::None => f.push("instrumented run had no tool attached".into()),
    }
    if let Some((n0, i0)) = first {
        if n0.totals != native.totals {
            f.push("native ExecStats differ from the first iteration".into());
        }
        if i0.totals != instr.totals {
            f.push("instrumented ExecStats differ from the first iteration".into());
        }
        if i0.tool != instr.tool {
            f.push("tool output differs from the first iteration".into());
        }
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_passes_its_reference_check() {
        for w in &WORKLOADS {
            let (launches, failures) = reference_check(w, 11);
            assert!(launches > 0);
            assert!(failures.is_empty(), "{}: {failures:?}", w.name);
        }
    }

    #[test]
    fn same_seed_repeats_exact_counts_and_tool_output() {
        for w in &WORKLOADS {
            let apps = w.apps(5, Size::Reference);
            let run = || (run_apps(&apps, None, None), run_apps(&apps, Some(w.tool), None));
            let (n0, i0) = run();
            let (n1, i1) = run();
            assert_eq!(check_iteration(&apps, &n0, &i0, None), Vec::<String>::new(), "{}", w.name);
            assert_eq!(
                check_iteration(&apps, &n1, &i1, Some((&n0, &i0))),
                Vec::<String>::new(),
                "{}",
                w.name
            );
            assert!(i0.totals.cycles > n0.totals.cycles, "{}: tool adds cycles", w.name);
        }
    }

    #[test]
    fn a_corrupted_output_buffer_is_reported() {
        let w = find("exec_spec").unwrap();
        let apps = w.apps(5, Size::Reference);
        let native = run_apps(&apps, None, None);
        let mut instr = run_apps(&apps, Some(w.tool), None);
        instr.buffers[0][1][0] ^= 1;
        let f = check_iteration(&apps, &native, &instr, None);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].contains("ostencil"));
    }

    #[test]
    fn sampling_error_is_relative_to_the_native_count() {
        assert_eq!(sampling_err_pct(110, 100), 10.0);
        assert_eq!(sampling_err_pct(90, 100), 10.0);
        assert_eq!(sampling_err_pct(100, 100), 0.0);
    }
}
