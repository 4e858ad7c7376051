//! Profile the whole instrumentation pipeline with the observability
//! layer: run the software warp-FFT under the instruction-counting tool,
//! then print where the time went — interposition, SASS lifting,
//! injection, trampoline codegen, execution — and export the raw events
//! as a Chrome trace loadable in Perfetto or `chrome://tracing`.
//!
//! ```text
//! cargo run --release --example profile_pipeline
//! ```
//!
//! Writes `target/profile_pipeline.trace.json` (Chrome `trace_event`
//! format) and `target/profile_pipeline.json` (the aggregated summary).

use cuda::Driver;
use gpu::DeviceSpec;
use nvbit::attach_tool;
use nvbit_tools::InstrCount;
use sass::Arch;
use std::time::Duration;
use workloads::apps;

fn main() {
    const BLOCKS: u32 = 8;
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    // Observability is off by default; an app opts in per driver, before
    // the calls it wants recorded.
    drv.obs().set_enabled(true);
    let (tool, results) = InstrCount::new();
    attach_tool(&drv, tool);

    apps::fft_soft(&drv, BLOCKS, 1).unwrap();
    drv.shutdown();

    let report = drv.obs().report();

    // Per-phase breakdown. Exclusive (self) time gives an honest flat
    // profile: `interpose` contains `lift`/`instrument`/`user_code`, and
    // `instrument` contains `codegen`, so inclusive times double-count.
    println!("== profile_pipeline: instrumented fft32_soft ({BLOCKS} CTAs x 32 threads) ==\n");
    println!("{:12}  {:>6}  {:>12}  {:>12}", "phase", "count", "self", "inclusive");
    for name in [
        "interpose",
        "module_load",
        "launch",
        "lift",
        "instrument",
        "codegen",
        "swap",
        "user_code",
        "execute",
        "cta",
        "merge",
    ] {
        let Some(p) = report.phases.get(name) else { continue };
        let (own, inclusive) = (Duration::from_nanos(p.self_ns), Duration::from_nanos(p.total_ns));
        println!("{name:12}  {:>6}  {own:>12.2?}  {inclusive:>12.2?}", p.count);
    }
    println!("\ncounters:");
    for (name, c) in &report.counters {
        println!("  {name} = {} ({} events)", c.sum, c.count);
    }
    println!("\ntool result: {} dynamic instructions counted", results.total());
    if report.dropped > 0 {
        println!("note: {} raw events left out of the trace (totals are exact)", report.dropped);
    }

    std::fs::create_dir_all("target").unwrap();
    let trace_path = "target/profile_pipeline.trace.json";
    std::fs::write(trace_path, report.to_chrome_trace().to_compact()).unwrap();
    let summary_path = "target/profile_pipeline.json";
    std::fs::write(summary_path, report.to_json().to_pretty()).unwrap();
    println!("\nwrote {trace_path} (open in Perfetto / chrome://tracing)");
    println!("wrote {summary_path}");
}
