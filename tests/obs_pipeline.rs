//! End-to-end test of the observability layer wired through the whole
//! pipeline: an instrumented launch must leave spans for every pipeline
//! phase (interposition, lifting, injection, codegen, execution) in the
//! captured report, and the Chrome-trace export must be valid JSON with
//! the `trace_event` schema Perfetto expects.
//!
//! This test owns its process state: it flips the global observability
//! switch, so it lives in its own integration-test binary rather than a
//! unit-test module that shares a process with other tests.

use common::json::Json;
use common::obs;
use cuda::{Driver, FatBinary, KernelArg};
use gpu::{DeviceSpec, Dim3};
use nvbit::attach_tool;
use nvbit_tools::InstrCount;
use sass::Arch;
use std::sync::{Mutex, MutexGuard};
use workloads::fft::soft_fft_kernel_ptx;
use workloads::specaccel::{benchmark, Size};

/// All tests flip the process-global observability switch; serialize
/// them (poison-tolerant: a panicking test must not wedge the other).
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn run_instrumented_fft() {
    const BLOCKS: u32 = 4;
    let bytes = BLOCKS as u64 * 32 * 8;
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    let (tool, results) = InstrCount::new();
    attach_tool(&drv, tool);
    let ctx = drv.ctx_create().unwrap();
    let m = drv.module_load(&ctx, FatBinary::from_ptx("fft", soft_fft_kernel_ptx())).unwrap();
    let f = drv.module_get_function(&m, "fft32_soft").unwrap();
    let din = drv.mem_alloc(bytes).unwrap();
    let dout = drv.mem_alloc(bytes).unwrap();
    drv.memcpy_htod(din, &vec![0u8; bytes as usize]).unwrap();
    drv.launch_kernel(
        &f,
        Dim3::linear(BLOCKS),
        Dim3::linear(32),
        &[KernelArg::Ptr(din), KernelArg::Ptr(dout)],
    )
    .unwrap();
    drv.shutdown();
    assert!(results.total() > 0, "instrumentation must have counted instructions");
}

#[test]
fn instrumented_launch_populates_every_pipeline_phase() {
    let _guard = locked();
    obs::set_enabled(true);
    obs::reset();
    run_instrumented_fft();
    let report = obs::Report::capture();
    obs::set_enabled(false);

    // Every pipeline layer must have reported at least one span.
    for phase in ["interpose", "module_load", "launch", "lift", "instrument", "codegen", "execute"]
    {
        let p = report.phases.get(phase).unwrap_or_else(|| panic!("phase {phase} missing"));
        assert!(p.count > 0, "phase {phase} has no completed spans");
        assert!(p.total_ns > 0, "phase {phase} has zero inclusive time");
    }
    // Nesting: codegen happens inside instrument, instrument inside an
    // interpose callback, so exclusive < inclusive for the parents.
    let instrument = &report.phases["instrument"];
    assert!(instrument.self_ns < instrument.total_ns, "codegen must nest inside instrument");

    // Counters from driver, core, gpu and tools layers.
    assert_eq!(report.counter_sum("module.loads"), 1);
    assert_eq!(report.counter_sum("kernel.launches"), 1);
    assert_eq!(report.counter_sum("instr_image.build"), 1);
    assert!(report.counter_sum("tool.instr_count.sites") > 0, "tool reported injection sites");
    assert!(
        report.counter_sum("decode.hit") + report.counter_sum("decode.miss") > 0,
        "scheduler reported decode-cache traffic"
    );
    assert_eq!(report.open_spans, 0, "all spans closed by shutdown");

    // The Chrome-trace export round-trips through the JSON parser and
    // carries the trace_event schema.
    let trace = report.to_chrome_trace().to_compact();
    let parsed = Json::parse(&trace).expect("chrome trace is valid JSON");
    let events =
        parsed.get("traceEvents").and_then(|e| e.as_arr()).expect("traceEvents array present");
    assert!(!events.is_empty());
    let mut complete = 0;
    for ev in events {
        let ph = ev.get("ph").and_then(|p| p.as_str()).expect("ph field");
        assert!(ph == "X" || ph == "C", "unexpected event type {ph}");
        assert!(ev.get("name").is_some() && ev.get("ts").is_some() && ev.get("tid").is_some());
        if ph == "X" {
            assert!(ev.get("dur").is_some(), "complete events carry a duration");
            complete += 1;
        }
    }
    assert!(complete > 0, "trace contains span events");
}

#[test]
fn disabled_pipeline_records_nothing() {
    let _guard = locked();
    obs::set_enabled(false);
    obs::reset();
    run_instrumented_fft();
    let report = obs::Report::capture();
    assert!(report.phases.is_empty(), "disabled mode must record no spans");
    assert!(report.counters.is_empty(), "disabled mode must record no counters");
}

/// The JIT phases span the stack and have the shape of paper Fig. 5:
/// `ilbdc` (many unique short kernels) pays more JIT time per native
/// instruction than a single-kernel stencil. The JIT time is read from the
/// pipeline's own spans — the six Fig. 5 components.
#[test]
#[cfg_attr(debug_assertions, ignore = "heavy; run with --release")]
fn jit_overhead_shape_matches_figure5() {
    let _guard = locked();
    let measure = |name: &str| -> (u64, u64) {
        let bench = benchmark(name).unwrap();
        let native = Driver::new(DeviceSpec::test(Arch::Volta));
        bench.run(&native, Size::Small).unwrap();
        native.shutdown();
        let native_instrs = native.total_stats().thread_instructions;

        obs::set_enabled(true);
        obs::reset();
        let drv = Driver::new(DeviceSpec::test(Arch::Volta));
        let (tool, _results) = InstrCount::new();
        attach_tool(&drv, tool);
        bench.run(&drv, Size::Small).unwrap();
        drv.shutdown();
        let report = obs::Report::capture();
        obs::set_enabled(false);
        assert_eq!(report.dropped, 0, "{name}: the rings must hold the whole run");
        let jit_ns = ["retrieve", "disassemble", "convert", "plan", "codegen", "verify", "swap"]
            .iter()
            .map(|p| report.phase_ns(p))
            .sum();
        (jit_ns, native_instrs)
    };

    let (stencil_jit, stencil_work) = measure("ostencil");
    let (ilbdc_jit, ilbdc_work) = measure("ilbdc");
    assert!(stencil_jit > 0 && ilbdc_jit > 0);
    // JIT cost per unit of work must be higher for the many-unique-kernels
    // benchmark.
    let stencil_rate = stencil_jit as f64 / stencil_work as f64;
    let ilbdc_rate = ilbdc_jit as f64 / ilbdc_work as f64;
    assert!(
        ilbdc_rate > stencil_rate,
        "ilbdc should pay more JIT per instruction: {ilbdc_rate:.3e} vs {stencil_rate:.3e}"
    );
}
