//! Global-memory address tracing (the substrate for trace-driven cache
//! simulation, paper §6.1).
//!
//! There is one transport: every instrumented lane pushes its effective
//! address through the streaming [`common::channel`] to a host drain
//! thread (`TraceChannel`), so the host consumes records *while the
//! kernel runs*. Under [`Backpressure::Block`] the trace is lossless
//! whatever its size relative to the flush buffer; under
//! [`Backpressure::DropCount`] kernel-side stalls are bounded and every
//! drop is accounted exactly. [`MemTrace`] stores the delivered addresses
//! at 8 bytes each, in drain order, with one `(tag, start)` entry per run
//! of equal tags, and orders them by tag once, when they are read;
//! [`crate::ChannelCacheSim`] feeds the records straight into a cache model.

use common::channel::{Backpressure, ChannelHost, Consumer};
use cuda::{CbId, CbParams, CuFunction};
use nvbit::{IPoint, NvbitApi, NvbitTool};
use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

/// The trace-append device function: every executing lane pushes its
/// effective address into the launch's host-side record channel. No
/// buffer pointer or capacity — backpressure lives in the channel, and
/// the host drains concurrently.
pub(crate) const TRACE_CHAN_FN: &str = r#"
.func nvbit_trace_chan(.reg .u32 %pred, .reg .u64 %base, .reg .u32 %off)
{
    .reg .u64 %rd<4>;
    .reg .pred %p<2>;
    setp.eq.u32 %p1, %pred, 0;
    @%p1 ret;
    cvt.s64.s32 %rd1, %off;
    add.u64 %rd2, %base, %rd1;
    chan.push.u64 %rd2;
    ret;
}
"#;

/// The address-trace transport shared by [`MemTrace`] and
/// [`crate::ChannelCacheSim`]: loads the push function, owns the channel
/// and its drain thread, and instruments every global memory access of
/// each launched kernel and the functions it calls once. The tools differ
/// only in the drain `consumer` they hand it.
pub(crate) struct TraceChannel {
    policy: Backpressure,
    buf_records: usize,
    /// Moved into the drain thread at `at_init`.
    consumer: Option<Consumer>,
    /// The live channel, between `at_init` and `at_term`.
    host: Option<ChannelHost>,
    seen: HashSet<u32>,
}

impl TraceChannel {
    pub(crate) fn new(
        policy: Backpressure,
        buf_records: usize,
        consumer: Consumer,
    ) -> TraceChannel {
        TraceChannel {
            policy,
            buf_records,
            consumer: Some(consumer),
            host: None,
            seen: HashSet::new(),
        }
    }

    pub(crate) fn at_init(&mut self, api: &NvbitApi<'_>) {
        api.load_tool_functions(TRACE_CHAN_FN).expect("tool functions compile");
        let consumer = self.consumer.take().expect("at_init runs once");
        let (host, dev) = ChannelHost::spawn(self.buf_records, self.policy, consumer);
        api.driver().with_device(|d| d.attach_channel(dev));
        self.host = Some(host);
    }

    pub(crate) fn at_term(&mut self, api: &NvbitApi<'_>) {
        api.driver().with_device(|d| d.detach_channel());
        if let Some(host) = self.host.take() {
            host.shutdown();
        }
    }

    /// Launch-entry hook: instruments `func` and what it can call on its
    /// first launch and returns the number of sites (for the `sites` counter).
    pub(crate) fn instrument(&mut self, api: &NvbitApi<'_>, func: CuFunction) -> Option<u64> {
        let mut sites = 0u64;
        for t in crate::uninstrumented(api, func, &mut self.seen)? {
            for instr in api.get_instrs(t).expect("inspection").iter() {
                if instr.mem_space() != Some(sass::MemSpace::Global) {
                    continue;
                }
                let Some((base, offset)) = instr.mref() else { continue };
                api.insert_call(t, instr.idx, "nvbit_trace_chan", IPoint::Before).unwrap();
                api.add_call_arg_guard_pred(t, instr.idx).unwrap();
                api.add_call_arg_reg_val64(t, instr.idx, base.0).unwrap();
                api.add_call_arg_imm32(t, instr.idx, offset).unwrap();
                sites += 1;
            }
        }
        Some(sites)
    }
}

/// Every delivered payload in drain order, and the `(tag, start)` of each
/// maximal run of equal tags in it; the drain thread appends.
type Trace = (Vec<u64>, Vec<(u64, usize)>);

/// Results handle of [`MemTrace`].
#[derive(Debug, Default)]
pub struct MemTraceResults {
    store: Arc<Mutex<Trace>>,
    demanded: RefCell<u64>,
    dropped: RefCell<u64>,
}

impl MemTraceResults {
    /// The captured addresses as the canonical stream (CTA-linear major,
    /// per-CTA push order), which is identical across scheduler
    /// configurations: a stable sort of the drained runs by CTA tag keeps
    /// each CTA's push-ordered subsequence intact, so the result is
    /// independent of worker interleaving. Complete once the launch has
    /// returned — the kernel-completion flush inside `Device::launch`
    /// pushes every record through the drain thread first.
    pub fn addresses(&self) -> Vec<u64> {
        let (payloads, runs) = &*self.store.lock().unwrap();
        let mut order: Vec<usize> = (0..runs.len()).collect();
        order.sort_by_key(|&i| runs[i].0);
        let mut out = Vec::with_capacity(payloads.len());
        for i in order {
            let end = runs.get(i + 1).map_or(payloads.len(), |&(_, start)| start);
            out.extend_from_slice(&payloads[runs[i].1..end]);
        }
        out
    }

    /// Total records the kernel tried to append, whether or not they were
    /// delivered.
    ///
    /// `demanded() >= addresses().len()` always holds; the excess (if any)
    /// is [`dropped`](Self::dropped).
    pub fn demanded(&self) -> u64 {
        *self.demanded.borrow()
    }

    /// Records dropped by the channel. Always
    /// `demanded() - addresses().len()`, and non-zero only under
    /// [`Backpressure::DropCount`] with all three flush buffers full or
    /// draining, or once the drain consumer has panicked.
    pub fn dropped(&self) -> u64 {
        *self.dropped.borrow()
    }

    /// True when at least one record was dropped.
    pub fn truncated(&self) -> bool {
        self.dropped() > 0
    }
}

/// The tracing tool.
pub struct MemTrace {
    chan: TraceChannel,
    results: Rc<MemTraceResults>,
}

impl MemTrace {
    /// Creates the tool with a flush-buffer capacity of `buf_records`
    /// records. `Backpressure::Block` makes the trace lossless regardless
    /// of its size relative to the buffer; `Backpressure::DropCount`
    /// bounds kernel-side stalls and accounts every drop exactly.
    pub fn channel(policy: Backpressure, buf_records: usize) -> (MemTrace, Rc<MemTraceResults>) {
        let results = Rc::new(MemTraceResults::default());
        let sink = results.store.clone();
        let chan = TraceChannel::new(
            policy,
            buf_records,
            Box::new(move |batch| {
                let (payloads, runs) = &mut *sink.lock().unwrap();
                for r in batch {
                    if runs.last().is_none_or(|&(tag, _)| tag != r.tag) {
                        runs.push((r.tag, payloads.len()));
                    }
                    payloads.push(r.payload);
                }
            }),
        );
        (MemTrace { chan, results: results.clone() }, results)
    }

    fn publish(&self) {
        let Some(host) = &self.chan.host else { return };
        *self.results.demanded.borrow_mut() = host.demanded();
        *self.results.dropped.borrow_mut() = host.dropped();
    }
}

impl NvbitTool for MemTrace {
    fn at_init(&mut self, api: &NvbitApi<'_>) {
        self.chan.at_init(api);
    }

    fn at_term(&mut self, api: &NvbitApi<'_>) {
        self.publish();
        self.chan.at_term(api);
    }

    fn at_cuda_event(
        &mut self,
        api: &NvbitApi<'_>,
        is_exit: bool,
        cbid: CbId,
        params: &CbParams<'_>,
    ) {
        let CbParams::LaunchKernel { func, .. } = params else { return };
        if cbid != CbId::LaunchKernel {
            return;
        }
        if is_exit {
            self.publish();
        } else if let Some(sites) = self.chan.instrument(api, *func) {
            common::obs::counter("tool.mem_trace.sites", sites);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::channel::Record;
    use cuda::{Driver, FatBinary, KernelArg};
    use gpu::{DeviceSpec, Dim3, Scheduler};
    use nvbit::{attach_tool, PlanLevel, PlanOpts};
    use sass::Arch;

    const APP: &str = r#"
.entry k(.param .u64 buf)
{
    .reg .u32 %r<4>;
    .reg .u64 %rd<4>;
    ld.param.u64 %rd1, [buf];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd2, %r1, 4;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.u32 %r2, [%rd3];
    st.global.u32 [%rd3+64], %r2;
    exit;
}
"#;

    /// Channel mode with `Block` is lossless even when the trace
    /// exceeds the flush buffer many times over: a 4-record buffer
    /// carries a 64-record trace with zero drops.
    #[test]
    fn channel_trace_is_lossless_past_the_buffer_size() {
        let drv = Driver::new(DeviceSpec::test(Arch::Volta));
        let (tool, results) = MemTrace::channel(Backpressure::Block, 4);
        attach_tool(&drv, tool);
        let ctx = drv.ctx_create().unwrap();
        let m = drv.module_load(&ctx, FatBinary::from_ptx("app", APP)).unwrap();
        let f = drv.module_get_function(&m, "k").unwrap();
        let buf = drv.mem_alloc(1024).unwrap();
        drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(32), &[KernelArg::Ptr(buf)]).unwrap();
        drv.shutdown();

        let addrs = results.addresses();
        assert_eq!(addrs.len(), 64, "32 loads + 32 stores, no capacity cap");
        assert!(!results.truncated());
        assert_eq!(results.dropped(), 0);
        assert_eq!(results.demanded(), 64);
        for t in 0..32u64 {
            assert!(addrs.contains(&(buf + 4 * t)), "missing load address of lane {t}");
            assert!(addrs.contains(&(buf + 4 * t + 64)), "missing store address of lane {t}");
        }
    }

    /// Channel mode under `DropCount` preserves the accounting
    /// contract exactly: whatever gets dropped is counted, and
    /// demanded == captured + dropped always holds.
    #[test]
    fn channel_dropcount_accounting_is_exact() {
        let drv = Driver::new(DeviceSpec::test(Arch::Volta));
        let (tool, results) = MemTrace::channel(Backpressure::DropCount, 8);
        attach_tool(&drv, tool);
        let ctx = drv.ctx_create().unwrap();
        let m = drv.module_load(&ctx, FatBinary::from_ptx("app", APP)).unwrap();
        let f = drv.module_get_function(&m, "k").unwrap();
        let buf = drv.mem_alloc(1024).unwrap();
        drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(32), &[KernelArg::Ptr(buf)]).unwrap();
        drv.shutdown();

        assert_eq!(results.demanded(), 64);
        assert_eq!(
            results.addresses().len() as u64 + results.dropped(),
            results.demanded(),
            "every demanded record is either captured or counted as dropped"
        );
        assert_eq!(results.truncated(), results.dropped() > 0);
    }

    /// [`MemTrace`] planned at `level`.
    struct AtLevel(PlanLevel, MemTrace);

    impl NvbitTool for AtLevel {
        fn at_init(&mut self, api: &NvbitApi<'_>) {
            api.set_plan_opts(PlanOpts { level: self.0 });
            self.1.at_init(api);
        }
        fn at_term(&mut self, api: &NvbitApi<'_>) {
            self.1.at_term(api);
        }
        fn at_cuda_event(&mut self, api: &NvbitApi<'_>, exit: bool, id: CbId, p: &CbParams<'_>) {
            self.1.at_cuda_event(api, exit, id, p);
        }
    }

    /// A load at a negative offset, guarded by a lane test, and a store.
    const NEGATIVE: &str = r#"
.entry k(.param .u64 buf)
{
    .reg .u32 %r<4>;
    .reg .u64 %rd<4>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [buf];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd2, %r1, 4;
    add.u64 %rd3, %rd1, %rd2;
    setp.ge.u32 %p1, %r1, 8;
    @%p1 ld.global.u32 %r2, [%rd3-64];
    st.global.u32 [%rd3+64], %r1;
    exit;
}
"#;

    /// The records of two CTAs of `NEGATIVE` under `level`, what each CTA
    /// should push, and the cycles.
    fn negative_trace(level: PlanLevel) -> (Vec<u64>, Vec<u64>, u64) {
        let drv = Driver::new(DeviceSpec::test(Arch::Volta));
        let (tool, results) = MemTrace::channel(Backpressure::Block, 16);
        attach_tool(&drv, AtLevel(level, tool));
        let ctx = drv.ctx_create().unwrap();
        let m = drv.module_load(&ctx, FatBinary::from_ptx("app", NEGATIVE)).unwrap();
        let f = drv.module_get_function(&m, "k").unwrap();
        let buf = drv.mem_alloc(1024).unwrap() + 256;
        drv.launch_kernel(&f, Dim3::linear(2), Dim3::linear(32), &[KernelArg::Ptr(buf)]).unwrap();
        drv.shutdown();
        assert_eq!(results.demanded(), 2 * (24 + 32));
        let loads = (8..32).map(|t| buf + 4 * t - 64);
        let cta: Vec<u64> = loads.chain((0..32).map(|t| buf + 4 * t + 64)).collect();
        (results.addresses(), cta, drv.total_stats().cycles)
    }

    /// At the top rung each push is two instructions, not a call between
    /// the save routines: the same records, in the same order, for less.
    #[test]
    fn lowered_pushes_trace_what_calls_trace() {
        let (called, cta, called_cycles) = negative_trace(PlanLevel::Region);
        let (lowered, _, lowered_cycles) = negative_trace(PlanLevel::Promoted);
        assert_eq!(called, [&cta[..], &cta[..]].concat());
        assert_eq!(lowered, called);
        assert!(lowered_cycles < called_cycles, "{lowered_cycles} vs {called_cycles}");
    }

    /// The stream `addresses` stood for before the run table: a stable
    /// sort by tag over every drained record.
    fn oracle(drained: &[Record]) -> Vec<u64> {
        let mut records = drained.to_vec();
        records.sort_by_key(|r| r.tag);
        records.iter().map(|r| r.payload).collect()
    }

    /// Each CTA's threads load and store their own word, so every tag's
    /// payloads are distinct, and `buf` moves them apart per launch.
    const CTAS: &str = r#"
.entry k(.param .u64 buf)
{
    .reg .u32 %r<6>;
    .reg .u64 %rd<4>;
    ld.param.u64 %rd1, [buf];
    mov.u32 %r1, %tid.x;
    mov.u32 %r2, %ctaid.x;
    mov.u32 %r3, %ntid.x;
    mad.lo.u32 %r4, %r2, %r3, %r1;
    mul.wide.u32 %rd2, %r4, 4;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.u32 %r5, [%rd3];
    st.global.u32 [%rd3+4], %r5;
    exit;
}
"#;

    /// Four launches of 16 CTAs of 32 threads of `CTAS` under a
    /// [`MemTrace`] whose consumer also keeps every record it is handed
    /// (after `delay`, to let a `DropCount` channel fill up). Returns the
    /// results and the drained records.
    fn teed(
        sched: Scheduler,
        policy: Backpressure,
        buf_records: usize,
        delay: std::time::Duration,
    ) -> (Rc<MemTraceResults>, Vec<Record>) {
        let (mut tool, results) = MemTrace::channel(policy, buf_records);
        let mut store = tool.chan.consumer.take().unwrap();
        let drained = Arc::new(Mutex::new(Vec::new()));
        let tee = drained.clone();
        tool.chan.consumer = Some(Box::new(move |batch| {
            std::thread::sleep(delay);
            tee.lock().unwrap().extend_from_slice(batch);
            store(batch);
        }));
        let drv = Driver::new(DeviceSpec::test(Arch::Volta));
        drv.with_device(|d| d.scheduler = sched);
        attach_tool(&drv, tool);
        let ctx = drv.ctx_create().unwrap();
        let m = drv.module_load(&ctx, FatBinary::from_ptx("app", CTAS)).unwrap();
        let f = drv.module_get_function(&m, "k").unwrap();
        let buf = drv.mem_alloc(4 * 4096).unwrap();
        for launch in 0..4 {
            let arg = [KernelArg::Ptr(buf + 4096 * launch)];
            drv.launch_kernel(&f, Dim3::linear(16), Dim3::linear(32), &arg).unwrap();
        }
        drv.shutdown();
        let drained = drained.lock().unwrap().clone();
        (results, drained)
    }

    /// Every tag recurs in each launch (64 runs even serially, enough that
    /// an unstable sort of them reorders equal tags), and under a worker
    /// pool the CTAs' rows interleave: the ordered runs are the stable sort
    /// of the records, whatever the schedule.
    #[test]
    fn addresses_are_the_stable_tag_sort_of_the_drained_records() {
        let mut streams = Vec::new();
        for threads in [1, 2, 4] {
            let sched = match threads {
                1 => Scheduler::Serial,
                threads => Scheduler::Parallel { threads },
            };
            let (results, drained) = teed(sched, Backpressure::Block, 4096, Default::default());
            assert_eq!(drained.len(), 4 * 16 * 32 * 2, "{sched:?}");
            assert_eq!(results.addresses(), oracle(&drained), "{sched:?}");
            streams.push(results.addresses());
        }
        assert!(streams.iter().all(|s| *s == streams[0]));
    }

    /// A buffer smaller than one warp row splits every row, and with it
    /// most runs, across batches.
    #[test]
    fn rows_split_across_batches_order_like_the_records() {
        for sched in [Scheduler::Serial, Scheduler::Parallel { threads: 4 }] {
            let (results, drained) = teed(sched, Backpressure::Block, 8, Default::default());
            assert_eq!(results.dropped(), 0, "{sched:?}");
            assert_eq!(results.addresses(), oracle(&drained), "{sched:?}");
        }
    }

    /// A slow consumer behind a `DropCount` channel loses row suffixes: the
    /// records that did arrive order like the old stream of them.
    #[test]
    fn a_truncated_trace_orders_what_was_delivered() {
        let delay = std::time::Duration::from_micros(200);
        let (results, drained) =
            teed(Scheduler::Parallel { threads: 4 }, Backpressure::DropCount, 8, delay);
        assert!(results.truncated());
        let addrs = results.addresses();
        assert_eq!(addrs.len() as u64 + results.dropped(), results.demanded());
        assert_eq!(addrs, oracle(&drained));
    }

    /// A run that continues into the next batch stays one run, and a tag
    /// that recurs in a later launch opens a new one, ordered after the
    /// first.
    #[test]
    fn the_store_keeps_one_run_per_stretch_of_equal_tags() {
        let (mut tool, results) = MemTrace::channel(Backpressure::Block, 4);
        let mut store = tool.chan.consumer.take().unwrap();
        let rec = |tag, payload| Record { tag, payload };
        let batches = [
            vec![rec(0, 10), rec(0, 11)],
            vec![rec(0, 12), rec(1, 20)],
            vec![rec(1, 21), rec(0, 13), rec(1, 22)],
        ];
        batches.iter().for_each(|batch| store(batch));
        assert_eq!(results.store.lock().unwrap().1, [(0, 0), (1, 3), (0, 5), (1, 6)]);
        assert_eq!(results.addresses(), [10, 11, 12, 13, 20, 21, 22]);
        assert_eq!(results.addresses(), oracle(&batches.concat()));
    }
}
