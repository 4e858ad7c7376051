//! Every call into the program under test lives here, so a later change to
//! a product API is followed in this one file.
//!
//! The benchmark measures each layer from outside, by timing calls into
//! public functions. It neither enables nor reads `common::obs`, and does
//! not use `nvbit::overhead`.

use crate::apps::{App, Arg};
use crate::span::{scoped, Trace};
use common::channel::{Backpressure, ChannelHost};
use cuda::{CbId, CbParams, CuFunction, Driver, FatBinary, KernelArg};
use gpu::{DeviceSpec, Dim3, Scheduler};
use nvbit::{attach_tool, Hal, NvbitApi, NvbitTool, PlanOpts};
use nvbit_tools::{
    CoalescedInstrCount, InstrCountResults, MemTrace, MemTraceResults, OpcodeHistogram,
    OpcodeHistogramResults, SamplingMode,
};
use ptx::interp::{interpret_entry, LaunchGrid, ParamValue};
use sass::Arch;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashSet};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::kernels;

pub use common::json::Json;
pub use common::Rng;

/// The simulated device every run uses (the paper's TITAN V analog).
const ARCH: Arch = Arch::Volta;

/// Flush-buffer capacity of the `trace_chan` channel, in records.
const CHANNEL_RECORDS: usize = 4096;

/// The PTX kernel templates applications are assembled from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    Stencil5,
    SpmvCsr,
    MdForce,
    LbmStream(u32),
    Axpby,
    ReduceSum,
    ShortUnique(u32),
}

/// PTX text of one `.entry` named `name`.
pub fn kernel_source(kind: Kernel, name: &str) -> String {
    match kind {
        Kernel::Stencil5 => kernels::stencil5(name),
        Kernel::SpmvCsr => kernels::spmv_csr(name),
        Kernel::MdForce => kernels::md_force(name),
        Kernel::LbmStream(dirs) => kernels::lbm_stream(name, dirs),
        Kernel::Axpby => kernels::axpby(name),
        Kernel::ReduceSum => kernels::reduce_sum(name),
        Kernel::ShortUnique(variant) => kernels::short_unique(name, variant),
    }
}

/// The shipped tool a workload attaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ToolKind {
    /// `CoalescedInstrCount::executed`, default plan options.
    Count,
    /// `MemTrace::channel(Backpressure::Block, 4096)`.
    TraceChan,
    /// `OpcodeHistogram::new(SamplingMode::GridDim)`.
    SampleHist,
}

/// What the attached tool reported at termination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ToolOutput {
    None,
    Count {
        total: u64,
    },
    Trace {
        demanded: u64,
        delivered: u64,
        dropped: u64,
        /// FNV-1a over the canonical address stream.
        stream_hash: u64,
    },
    Hist {
        hist: BTreeMap<String, u64>,
        sampled_launches: u64,
        total_launches: u64,
    },
}

/// Summed `ExecStats` of one application run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Totals {
    pub cycles: u64,
    pub thread_instrs: u64,
    pub decode_hits: u64,
    pub decode_misses: u64,
    /// Warp-level executed count per opcode mnemonic.
    pub per_op: BTreeMap<String, u64>,
}

/// Exact per-function accounting read by the tracing harness from
/// `plan_stats` / `save_stats` / `verify_instrumented`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerCounts {
    pub funcs: u64,
    pub sites: u64,
    pub calls_emitted: u64,
    pub inline_accepted: u64,
    pub inline_declined: u64,
    pub saved_slots: u64,
    pub full_tier_slots: u64,
    pub verify_diags: u64,
}

/// Everything one application run produced.
#[derive(Debug)]
pub struct RunOutput {
    /// `Driver::new` → contexts, module loads, uploads, launches →
    /// `shutdown`.
    pub wall: Duration,
    /// Final contents of every buffer of every app.
    pub buffers: Vec<Vec<Vec<u8>>>,
    /// `launch_kernel` calls attempted.
    pub launches: u64,
    /// One entry per driver error (a failed module load is one).
    pub errors: Vec<String>,
    pub totals: Totals,
    pub tool: ToolOutput,
    /// Zero unless the run was traced.
    pub layers: LayerCounts,
}

enum ToolHandle {
    Count(Rc<InstrCountResults>),
    Trace(Rc<MemTraceResults>),
    Hist(Rc<OpcodeHistogramResults>),
}

/// Wraps the shipped tool. Always pins the JIT to one worker; when tracing,
/// additionally records spans around the tool's callbacks and, on a
/// kernel's first launch entry, calls and times the core's lift, build,
/// verify and swap entry points for that kernel.
struct Harness<T> {
    inner: T,
    trace: Option<Trace>,
    layers: Rc<RefCell<LayerCounts>>,
    seen: HashSet<u32>,
}

impl<T: NvbitTool> Harness<T> {
    /// The core's work for `func`, each step under its own span. Runs after
    /// the tool's callback, so the tool's requests are on file; the core's
    /// own reconcile at callback exit then finds the image built.
    fn probe_core(&self, api: &NvbitApi<'_>, func: CuFunction) {
        let trace = self.trace.as_ref();
        let build = scoped(trace, "core.build", || api.enable_instrumented(func, true));
        let diags = scoped(trace, "core.verify", || api.verify_instrumented(func));
        scoped(trace, "core.swap", || {
            let _ = api.enable_instrumented(func, false);
            let _ = api.enable_instrumented(func, true);
        });
        scoped(trace, "bench.counts", || {
            let mut l = self.layers.borrow_mut();
            l.funcs += 1;
            l.verify_diags += match (&build, &diags) {
                (Ok(()), Ok(d)) => d.len() as u64,
                _ => 1,
            };
            if let Ok(Some(p)) = api.plan_stats(func) {
                l.calls_emitted += p.emitted_calls;
                l.inline_accepted += p.inline_accepted;
                l.inline_declined += p.inline_declined;
            }
            if let Ok(Some(s)) = api.save_stats(func) {
                l.sites += s.sites as u64;
                l.saved_slots += s.saved_slots;
                l.full_tier_slots += s.full_tier_slots;
            }
        });
    }
}

impl<T: NvbitTool> NvbitTool for Harness<T> {
    fn at_init(&mut self, api: &NvbitApi<'_>) {
        api.set_jit_workers(1);
        scoped(self.trace.as_ref(), "tools.init", || self.inner.at_init(api));
    }

    fn at_term(&mut self, api: &NvbitApi<'_>) {
        scoped(self.trace.as_ref(), "tools.term", || self.inner.at_term(api));
    }

    fn at_cuda_event(
        &mut self,
        api: &NvbitApi<'_>,
        is_exit: bool,
        cbid: CbId,
        params: &CbParams<'_>,
    ) {
        if self.trace.is_none() {
            return self.inner.at_cuda_event(api, is_exit, cbid, params);
        }
        let first = match params {
            CbParams::LaunchKernel { func, .. } if !is_exit && cbid == CbId::LaunchKernel => {
                self.seen.insert(func.raw()).then_some(*func)
            }
            _ => None,
        };
        if let Some(func) = first {
            // Fills the lift cache, so the tool's own `get_instrs` below
            // is a hit and `tools.user` holds tool code only.
            let _ = scoped(self.trace.as_ref(), "core.lift", || api.get_instrs(func));
        }
        scoped(self.trace.as_ref(), "tools.user", || {
            self.inner.at_cuda_event(api, is_exit, cbid, params);
        });
        if let Some(func) = first {
            if api.is_instrumented(func) {
                self.probe_core(api, func);
            }
        }
    }
}

fn attach(
    drv: &Driver,
    kind: ToolKind,
    trace: Option<&Trace>,
    layers: &Rc<RefCell<LayerCounts>>,
) -> ToolHandle {
    fn wrap<T: NvbitTool + 'static>(
        drv: &Driver,
        inner: T,
        trace: Option<&Trace>,
        layers: &Rc<RefCell<LayerCounts>>,
    ) {
        let harness =
            Harness { inner, trace: trace.cloned(), layers: layers.clone(), seen: HashSet::new() };
        attach_tool(drv, harness);
    }
    match kind {
        ToolKind::Count => {
            let (tool, results) = CoalescedInstrCount::executed(PlanOpts::default());
            wrap(drv, tool, trace, layers);
            ToolHandle::Count(results)
        }
        ToolKind::TraceChan => {
            let (tool, results) = MemTrace::channel(Backpressure::Block, CHANNEL_RECORDS);
            wrap(drv, tool, trace, layers);
            ToolHandle::Trace(results)
        }
        ToolKind::SampleHist => {
            let (tool, results) = OpcodeHistogram::new(SamplingMode::GridDim);
            wrap(drv, tool, trace, layers);
            ToolHandle::Hist(results)
        }
    }
}

fn fnv1a(words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

impl ToolHandle {
    fn output(&self) -> ToolOutput {
        match self {
            ToolHandle::Count(r) => ToolOutput::Count { total: r.total() },
            ToolHandle::Trace(r) => {
                let addrs = r.addresses();
                ToolOutput::Trace {
                    demanded: r.demanded(),
                    delivered: addrs.len() as u64,
                    dropped: r.dropped(),
                    stream_hash: fnv1a(&addrs),
                }
            }
            ToolHandle::Hist(r) => ToolOutput::Hist {
                hist: r.histogram(),
                sampled_launches: r.instrumented_launches(),
                total_launches: r.total_launches(),
            },
        }
    }
}

/// A fresh driver under the benchmark's fixed conditions: CTAs run one at
/// a time on the calling thread.
fn new_driver() -> Driver {
    let drv = Driver::new(DeviceSpec::test(ARCH));
    drv.with_device(|d| d.scheduler = Scheduler::Serial);
    drv
}

/// Loads one app, uploads its buffers and performs its launches. Returns
/// the device address of every buffer.
fn run_app(
    drv: &Driver,
    app: &App,
    trace: Option<&Trace>,
    errors: &mut Vec<String>,
) -> cuda::Result<Vec<u64>> {
    let ctx = drv.ctx_create()?;
    let module = scoped(trace, "driver.module_load", || {
        drv.module_load(&ctx, FatBinary::from_ptx(app.name.as_str(), app.source.as_str()))
    })?;
    let funcs = app
        .kernels
        .iter()
        .map(|k| drv.module_get_function(&module, k))
        .collect::<cuda::Result<Vec<_>>>()?;
    let mut bases = Vec::with_capacity(app.buffers.len());
    for b in &app.buffers {
        let p = drv.mem_alloc(b.len() as u64)?;
        drv.memcpy_htod(p, b)?;
        bases.push(p);
    }
    for l in &app.launches {
        let args: Vec<KernelArg> = l
            .args
            .iter()
            .map(|a| match *a {
                Arg::Ptr { buf, offset } => KernelArg::Ptr(bases[buf] + offset),
                Arg::U32(v) => KernelArg::U32(v),
                Arg::F32(v) => KernelArg::F32(v),
            })
            .collect();
        let res = scoped(trace, "driver.launch", || {
            drv.launch_kernel(
                &funcs[l.kernel],
                Dim3::xyz(l.grid.0, l.grid.1, 1),
                Dim3::linear(l.block),
                &args,
            )
        });
        if let Err(e) = res {
            errors.push(format!("{}: launch of {}: {e}", app.name, app.kernels[l.kernel]));
        }
    }
    Ok(bases)
}

/// One whole application run: a fresh driver, every app in order, then
/// shutdown. With `tool`, the shipped tool is attached first. With `trace`,
/// spans are recorded under a `run.native` / `run.instr` root.
pub fn run_apps(apps: &[App], tool: Option<ToolKind>, trace: Option<&Trace>) -> RunOutput {
    let layers = Rc::new(RefCell::new(LayerCounts::default()));
    let mut errors = Vec::new();
    let root = if tool.is_some() { "run.instr" } else { "run.native" };

    let t0 = Instant::now();
    let (drv, handle, bases) = scoped(trace, root, || {
        let drv = new_driver();
        let handle = tool.map(|k| scoped(trace, "core.attach", || attach(&drv, k, trace, &layers)));
        let bases: Vec<Option<Vec<u64>>> = apps
            .iter()
            .map(|app| match run_app(&drv, app, trace, &mut errors) {
                Ok(b) => Some(b),
                Err(e) => {
                    errors.push(format!("{}: {e}", app.name));
                    None
                }
            })
            .collect();
        scoped(trace, "driver.shutdown", || drv.shutdown());
        (drv, handle, bases)
    });
    let wall = t0.elapsed();

    // Read-back and result collection are outside the timed region.
    let buffers = apps
        .iter()
        .zip(&bases)
        .map(|(app, bases)| {
            let Some(bases) = bases else { return Vec::new() };
            app.buffers
                .iter()
                .zip(bases)
                .map(|(init, &p)| {
                    let mut out = vec![0u8; init.len()];
                    if let Err(e) = drv.memcpy_dtoh(&mut out, p) {
                        errors.push(format!("{}: read-back: {e}", app.name));
                    }
                    out
                })
                .collect()
        })
        .collect();
    let s = drv.total_stats();
    let totals = Totals {
        cycles: s.cycles,
        thread_instrs: s.thread_instructions,
        decode_hits: s.decode_hits,
        decode_misses: s.decode_misses,
        per_op: s.per_op,
    };
    let layers = *layers.borrow();
    RunOutput {
        wall,
        buffers,
        launches: apps.iter().map(|a| a.launches.len() as u64).sum(),
        errors,
        totals,
        tool: handle.map_or(ToolOutput::None, |h| h.output()),
        layers,
    }
}

/// Runs every app through the PTX reference interpreter and returns the
/// final buffers, in the shape of [`RunOutput::buffers`]. Independent of
/// the compiler, the simulator and the driver.
pub fn interpret_apps(apps: &[App]) -> Result<Vec<Vec<Vec<u8>>>, String> {
    const ALIGN: usize = 256;
    apps.iter()
        .map(|app| {
            let module =
                ptx::parse_module(&app.source).map_err(|e| format!("{}: {e}", app.name))?;
            let mut offsets = Vec::with_capacity(app.buffers.len());
            let mut arena = vec![0u8; ALIGN];
            for b in &app.buffers {
                offsets.push(arena.len());
                arena.extend_from_slice(b);
                arena.resize(arena.len().next_multiple_of(ALIGN), 0);
            }
            for l in &app.launches {
                let params: Vec<ParamValue> = l
                    .args
                    .iter()
                    .map(|a| match *a {
                        Arg::Ptr { buf, offset } => ParamValue::U64(offsets[buf] as u64 + offset),
                        Arg::U32(v) => ParamValue::U32(v),
                        Arg::F32(v) => ParamValue::f32(v),
                    })
                    .collect();
                let grid = LaunchGrid {
                    grid: Dim3::xyz(l.grid.0, l.grid.1, 1),
                    block: Dim3::linear(l.block),
                };
                interpret_entry(&module, &app.kernels[l.kernel], grid, &params, &mut arena)
                    .map_err(|e| format!("{}: {}: {e}", app.name, app.kernels[l.kernel]))?;
            }
            Ok(app
                .buffers
                .iter()
                .zip(&offsets)
                .map(|(b, &off)| arena[off..off + b.len()].to_vec())
                .collect())
        })
        .collect()
}

/// What one replay pass measured: summed times per metric name (to be
/// scaled to the reference host by the caller) and exact counts.
#[derive(Debug, Default)]
pub struct LayerProbe {
    pub times: BTreeMap<&'static str, f64>,
    pub counts: BTreeMap<&'static str, f64>,
}

impl LayerProbe {
    /// Runs `f`, adding its duration in milliseconds to `name`.
    fn timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        *self.times.entry(name).or_default() += t.elapsed().as_secs_f64() * 1e3;
        r
    }

    fn count(&mut self, name: &'static str, n: usize) {
        *self.counts.entry(name).or_default() += n as f64;
    }
}

/// One replay pass: each layer's entry point called directly on the
/// workload's own sources and code bytes, plus the empty-launch and the
/// standalone-channel probes.
pub fn probe_layers(apps: &[App], channel_records: u64) -> Result<LayerProbe, String> {
    let mut p = LayerProbe::default();
    let hal = Hal::new(ARCH);
    let drv = new_driver();
    for app in apps {
        let err = |e: &dyn std::fmt::Display| format!("probe {}: {e}", app.name);
        let ast =
            p.timed("ptx.parse_ms", || ptx::parse_module(&app.source)).map_err(|e| err(&e))?;
        p.timed("ptx.compile_ms", || ptx::compile_ast(&ast, ARCH)).map_err(|e| err(&e))?;

        let ctx = drv.ctx_create().map_err(|e| err(&e))?;
        let module = drv
            .module_load(&ctx, FatBinary::from_ptx(app.name.as_str(), app.source.as_str()))
            .map_err(|e| err(&e))?;
        for func in drv.module_kernels(&module).map_err(|e| err(&e))? {
            let info = drv.function_info(func).map_err(|e| err(&e))?;
            let code = drv.read_code(func).map_err(|e| err(&e))?;
            let instrs =
                p.timed("sass.decode_ms", || hal.disassemble(&code)).map_err(|e| err(&e))?;
            p.count("ptx.sass_instrs", instrs.len());
            let bytes = p.timed("sass.encode_ms", || hal.assemble(&instrs)).map_err(|e| err(&e))?;
            if bytes != code {
                return Err(err(&"assemble(disassemble(code)) != code"));
            }
            let blocks = p
                .timed("sass.cfg_ms", || sass::cfg::basic_blocks(&instrs, ARCH))
                .map_err(|e| err(&format!("{e:?}")))?;
            p.count("sass.blocks", blocks.len());
            p.timed("sass.dataflow_ms", || drop(sass::Dataflow::analyze(&instrs, ARCH)));
            p.timed("sass.dom_ms", || drop(sass::Dom::analyze(&instrs, &blocks, ARCH)));
            p.timed("core.lift_replay_ms", || nvbit::lift::lift(&hal, &info, &code))
                .map_err(|e| err(&e))?;
        }
    }
    p.times.insert("driver.launch_empty_us", probe_empty_launch(false, 2000)?);
    p.times.insert("driver.launch_empty_tool_us", probe_empty_launch(true, 2000)?);
    p.times.insert("channel.push_ms", probe_channel_push_ms(channel_records)?);
    Ok(p)
}

/// A tool that registers for every callback and does nothing.
struct NoopTool;

impl NvbitTool for NoopTool {
    fn at_cuda_event(&mut self, _: &NvbitApi<'_>, _: bool, _: CbId, _: &CbParams<'_>) {}
}

/// Microseconds per `launch_kernel` of an empty kernel (1 CTA × 32
/// threads), with or without a no-op tool attached: the fixed per-launch
/// cost of the driver, and of the interposer on top of it.
fn probe_empty_launch(with_tool: bool, launches: u32) -> Result<f64, String> {
    let drv = new_driver();
    if with_tool {
        attach_tool(&drv, NoopTool);
    }
    let err = |e: cuda::DriverError| format!("empty-launch probe: {e}");
    let ctx = drv.ctx_create().map_err(err)?;
    let src = ".version 6.0\n.entry empty()\n{\n    exit;\n}\n";
    let module = drv.module_load(&ctx, FatBinary::from_ptx("empty", src)).map_err(err)?;
    let f = drv.module_get_function(&module, "empty").map_err(err)?;
    let launch = || drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(32), &[]);
    launch().map_err(err)?;
    let t = Instant::now();
    for _ in 0..launches {
        launch().map_err(err)?;
    }
    Ok(t.elapsed().as_secs_f64() * 1e6 / f64::from(launches))
}

/// Milliseconds to move `records` records through a standalone channel: one
/// producer pushing into 4096-record flush buffers under `Block`, a
/// counting consumer on the drain thread, then a flush.
fn probe_channel_push_ms(records: u64) -> Result<f64, String> {
    let seen = Arc::new(AtomicU64::new(0));
    let sink = seen.clone();
    let (host, dev) = ChannelHost::spawn(
        CHANNEL_RECORDS,
        Backpressure::Block,
        Box::new(move |batch| {
            sink.fetch_add(batch.len() as u64, Ordering::Relaxed);
        }),
    );
    let t = Instant::now();
    for i in 0..records {
        dev.push(i & 7, i);
    }
    dev.flush();
    let millis = t.elapsed().as_secs_f64() * 1e3;
    let (delivered, dropped) = (host.delivered(), host.dropped());
    host.shutdown();
    if delivered != records || dropped != 0 || seen.load(Ordering::Relaxed) != records {
        return Err(format!("channel probe: pushed {records}, delivered {delivered}"));
    }
    Ok(millis)
}

/// Logical CPUs available to this process.
pub fn hw_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
