//! End-to-end tests of the observability layer wired through the whole
//! pipeline: an instrumented launch must leave spans for every pipeline
//! phase (interposition, lifting, injection, codegen, execution) in its
//! driver's report, the Chrome-trace export must be valid JSON with the
//! `trace_event` schema Perfetto expects — and a report holds what its own
//! driver did, whatever other drivers do meanwhile on this thread or another.

use common::channel::Backpressure;
use common::json::Json;
use common::obs::Report;
use cuda::{Driver, FatBinary, KernelArg};
use gpu::{DeviceSpec, Dim3, Scheduler};
use nvbit::{attach_tool, PlanLevel, PlanOpts};
use nvbit_tools::{InstrCount, InstrCountResults, MemTrace, MemTraceResults};
use sass::Arch;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::sync::Barrier;
use workloads::fft::soft_fft_kernel_ptx;
use workloads::specaccel::{benchmark, Size};

fn driver(observe: bool) -> Driver {
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    drv.obs().set_enabled(observe);
    drv
}

/// Attaches `InstrCount` and loads the FFT module (one `module.loads`);
/// the closure launches `blocks` CTAs of it (the first launch builds the
/// one image). The results handle is what the injected code counted.
fn counted_fft(drv: &Driver, blocks: u32) -> (Rc<InstrCountResults>, impl Fn() + '_) {
    let bytes = blocks as u64 * 32 * 8;
    let (tool, results) = InstrCount::new();
    attach_tool(drv, tool);
    let ctx = drv.ctx_create().unwrap();
    let m = drv.module_load(&ctx, FatBinary::from_ptx("fft", soft_fft_kernel_ptx())).unwrap();
    let f = drv.module_get_function(&m, "fft32_soft").unwrap();
    let din = drv.mem_alloc(bytes).unwrap();
    let dout = drv.mem_alloc(bytes).unwrap();
    drv.memcpy_htod(din, &vec![0u8; bytes as usize]).unwrap();
    let launch = move || {
        let args = [KernelArg::Ptr(din), KernelArg::Ptr(dout)];
        drv.launch_kernel(&f, Dim3::linear(blocks), Dim3::linear(32), &args).unwrap();
    };
    (results, launch)
}

/// Attaches a channel `MemTrace` and loads a one-kernel module twice (two
/// `module.loads`); the closure launches the first copy's kernel (the first
/// launch builds the one image; every launch drains the channel: 64 records,
/// a load and a store per thread).
fn traced_copy(drv: &Driver) -> (Rc<MemTraceResults>, impl Fn() + '_) {
    const APP: &str = r#"
.entry k(.param .u64 buf)
{
    .reg .u32 %r<3>;
    .reg .u64 %rd<4>;
    ld.param.u64 %rd1, [buf];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd2, %r1, 4;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.u32 %r2, [%rd3];
    st.global.u32 [%rd3], %r2;
    exit;
}
"#;
    let (tool, results) = MemTrace::channel(Backpressure::Block, 16);
    attach_tool(drv, tool);
    let ctx = drv.ctx_create().unwrap();
    let m = drv.module_load(&ctx, FatBinary::from_ptx("app", APP)).unwrap();
    drv.module_load(&ctx, FatBinary::from_ptx("app2", APP)).unwrap();
    let f = drv.module_get_function(&m, "k").unwrap();
    let buf = drv.mem_alloc(128).unwrap();
    let launch = move || {
        drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(32), &[KernelArg::Ptr(buf)]).unwrap();
    };
    (results, launch)
}

/// `(module.loads, kernel.launches, instr_image.build)`.
fn own_counts(r: &Report) -> (u64, u64, u64) {
    let sum = |name| r.counter_sum(name);
    (sum("module.loads"), sum("kernel.launches"), sum("instr_image.build"))
}

/// The report of a `counted_fft` driver holds nothing of a `traced_copy`
/// driver's run, and the other way round.
fn assert_disjoint(fft: &Report, copy: &Report) {
    assert!(fft.counter_sum("tool.instr_count.sites") > 0);
    assert!(copy.counter_sum("tool.mem_trace.sites") > 0);
    assert!(copy.phases["chan.drain"].count > 0, "the drain thread records into its driver");
    for name in ["tool.mem_trace.sites", "chan.flush", "chan.records"] {
        assert!(!fft.counters.contains_key(name), "{name} leaked into the fft driver's report");
    }
    assert!(!fft.phases.contains_key("chan.drain"));
    assert!(!copy.counters.contains_key("tool.instr_count.sites"));
    assert_eq!((fft.open_spans, copy.open_spans), (0, 0));
}

#[test]
fn instrumented_launch_populates_every_pipeline_phase() {
    let drv = driver(true);
    let (results, launch) = counted_fft(&drv, 4);
    launch();
    drv.shutdown();
    assert!(results.total() > 0, "instrumentation must have counted instructions");
    let report = drv.obs().report();

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
    assert_eq!(own_counts(&report), (1, 1, 1));
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

/// The JIT does only the work a build uses. At the top rung every call of
/// the FFT kernel is lowered: no liveness is solved and no save/restore
/// routine is loaded. At `Region` every call runs out of line: each
/// function's liveness is solved once, for its save tiers and its
/// verification both, and the routines are loaded once per driver.
#[test]
fn liveness_and_routines_load_on_demand() {
    let run = |level: PlanLevel| {
        let drv = driver(true);
        let (tool, results) = InstrCount::executed(PlanOpts { level });
        attach_tool(&drv, tool);
        let ctx = drv.ctx_create().unwrap();
        let (din, dout) = (drv.mem_alloc(256).unwrap(), drv.mem_alloc(256).unwrap());
        for _ in 0..2 {
            let fatbin = FatBinary::from_ptx("fft", soft_fft_kernel_ptx());
            let m = drv.module_load(&ctx, fatbin).unwrap();
            let f = drv.module_get_function(&m, "fft32_soft").unwrap();
            let args = [KernelArg::Ptr(din), KernelArg::Ptr(dout)];
            drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(32), &args).unwrap();
        }
        drv.shutdown();
        assert!(results.total() > 0);
        let report = drv.obs().report();
        assert_eq!(report.phases["lift"].count, 2, "two functions, lifted once each");
        let counts = ["sass.liveness", "routines.load"].map(|c| report.counter_sum(c));
        (counts, report.phases.contains_key("routines"))
    };
    assert_eq!(run(PlanLevel::Promoted), ([0, 0], false));
    assert_eq!(run(PlanLevel::Region), ([2, 1], true));
}

#[test]
fn disabled_pipeline_records_nothing() {
    let drv = driver(false);
    let (results, launch) = counted_fft(&drv, 4);
    launch();
    drv.shutdown();
    assert!(results.total() > 0, "instrumentation must have counted instructions");
    let report = drv.obs().report();
    assert!(report.phases.is_empty(), "disabled mode must record no spans");
    assert!(report.counters.is_empty(), "disabled mode must record no counters");
}

/// Two drivers at work at the same time on two threads: each report holds
/// exactly its own driver's loads, launches and builds. The barriers make
/// the runs overlap — both recorders are on before either thread starts,
/// and neither reports until both are done.
#[test]
fn concurrent_drivers_record_disjoint_reports() {
    let gate = Barrier::new(2);
    let (fft, copy) = std::thread::scope(|s| {
        let fft = s.spawn(|| {
            let drv = driver(true);
            gate.wait();
            let (results, launch) = counted_fft(&drv, 4);
            (0..2).for_each(|_| launch());
            drv.shutdown();
            assert!(results.total() > 0, "instrumentation must have counted instructions");
            gate.wait();
            drv.obs().report()
        });
        let copy = s.spawn(|| {
            let drv = driver(true);
            gate.wait();
            let (trace, launch) = traced_copy(&drv);
            (0..3).for_each(|_| launch());
            drv.shutdown();
            assert_eq!((trace.addresses().len(), trace.dropped()), (3 * 64, 0));
            gate.wait();
            drv.obs().report()
        });
        (fft.join().unwrap(), copy.join().unwrap())
    });
    assert_eq!(own_counts(&fft), (1, 2, 1));
    assert_eq!(own_counts(&copy), (2, 3, 1));
    assert_disjoint(&fft, &copy);
}

/// The same two workloads interleaved call by call on one thread.
#[test]
fn interleaved_drivers_on_one_thread_record_disjoint_reports() {
    let (a, b) = (driver(true), driver(true));
    let (results_a, launch_a) = counted_fft(&a, 4);
    let (trace_b, launch_b) = traced_copy(&b);
    launch_b();
    launch_a();
    launch_b();
    launch_a();
    launch_b();
    a.shutdown();
    b.shutdown();
    assert!(results_a.total() > 0, "instrumentation must have counted instructions");
    assert_eq!((trace_b.addresses().len(), trace_b.dropped()), (3 * 64, 0));
    let (fft, copy) = (a.obs().report(), b.obs().report());
    assert_eq!(own_counts(&fft), (1, 2, 1));
    assert_eq!(own_counts(&copy), (2, 3, 1));
    assert_disjoint(&fft, &copy);
}

/// A thread inherits the binding in force when it is spawned, once. The
/// drain thread of a channel tool attached while the recorder was off
/// inherited none: enabling afterwards records the driver thread's and the
/// CTA workers' side of every launch, and nothing of the drain thread's, for
/// the life of the tool — the channel itself works as ever.
#[test]
fn enabling_after_attach_leaves_the_drain_thread_unobserved() {
    let drv = driver(false);
    let (trace, launch) = traced_copy(&drv);
    drv.obs().set_enabled(true);
    (0..2).for_each(|_| launch());
    drv.shutdown();
    assert_eq!((trace.addresses().len(), trace.dropped()), (2 * 64, 0));

    let report = drv.obs().report();
    assert_eq!(own_counts(&report), (0, 2, 1), "the loads came before the switch");
    assert_eq!(report.phases["execute"].count, 2);
    assert!(!report.phases.contains_key("chan.drain"));
    for name in ["chan.flush", "chan.records", "chan.bytes"] {
        assert!(!report.counters.contains_key(name), "{name} recorded by an unbound thread");
    }
    assert_eq!(report.open_spans, 0);
}

/// The CTA workers of a parallel launch record into the launching driver's
/// report — and only there — one Chrome-trace `tid` per worker: at most
/// four lanes besides the driver thread's, each running one CTA at a time.
#[test]
fn parallel_cta_spans_land_in_the_launching_drivers_report() {
    const BLOCKS: u32 = 16;
    let (drv, bystander) = (driver(true), driver(true));
    drv.with_device(|d| d.scheduler = Scheduler::Parallel { threads: 4 });
    let _idle = counted_fft(&bystander, 1);
    let (results, launch) = counted_fft(&drv, BLOCKS);
    launch();
    drv.shutdown();
    bystander.shutdown();
    assert!(results.total() > 0, "instrumentation must have counted instructions");

    let report = drv.obs().report();
    assert_eq!(report.phases["cta"].count, BLOCKS as u64);
    assert_eq!(report.counters["cta.queue_wait_ns"].count, BLOCKS as u64);
    let tid_of = |name: &str| -> BTreeSet<u64> {
        report.events.iter().filter(|e| e.is_span && e.name == name).map(|e| e.tid).collect()
    };
    let (launcher, workers) = (tid_of("launch"), tid_of("cta"));
    assert_eq!(launcher.len(), 1);
    assert!((1..=4).contains(&workers.len()), "one lane per worker: {workers:?}");
    assert!(workers.is_disjoint(&launcher), "workers have lanes of their own");
    for tid in workers {
        let mut ctas: Vec<(u64, u64)> = report
            .events
            .iter()
            .filter(|e| e.is_span && e.name == "cta" && e.tid == tid)
            .map(|e| (e.ts_ns, e.ts_ns + e.value))
            .collect();
        ctas.sort_unstable();
        assert!(ctas.windows(2).all(|w| w[0].1 <= w[1].0), "lane {tid} ran two CTAs at once");
    }
    let other = bystander.obs().report();
    assert!(!other.phases.contains_key("cta") && !other.phases.contains_key("execute"));
}

/// The JIT phases span the stack and have the shape of paper Fig. 5:
/// `ilbdc` (many unique short kernels) pays more JIT time per native
/// instruction than a single-kernel stencil. The JIT time is read from the
/// pipeline's own spans — the six Fig. 5 components.
#[test]
#[cfg_attr(debug_assertions, ignore = "heavy; run with --release")]
fn jit_overhead_shape_matches_figure5() {
    let measure = |name: &str| -> (u64, u64) {
        let bench = benchmark(name).unwrap();
        let native = driver(false);
        bench.run(&native, Size::Small).unwrap();
        native.shutdown();
        let native_instrs = native.total_stats().thread_instructions;

        let drv = driver(true);
        let (tool, _results) = InstrCount::new();
        attach_tool(&drv, tool);
        bench.run(&drv, Size::Small).unwrap();
        drv.shutdown();
        let report = drv.obs().report();
        let phases = ["retrieve", "disassemble", "convert", "plan", "routines", "codegen"];
        let jit_ns = phases
            .iter()
            .chain(&["finish", "verify", "upload", "swap"])
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
