//! Global-memory address tracing (the substrate for trace-driven cache
//! simulation, paper §6.1).
//!
//! There is one transport: every instrumented lane pushes its effective
//! address through the streaming [`common::channel`] to a host drain
//! thread (`TraceChannel`), so the host consumes records *while the
//! kernel runs*. Under [`Backpressure::Block`] the trace is lossless
//! whatever its size relative to the flush buffer; under
//! [`Backpressure::DropCount`] kernel-side stalls are bounded and every
//! drop is accounted exactly. [`MemTrace`] stores the records;
//! [`crate::ChannelCacheSim`] feeds them straight into a cache model.

use common::channel::{Backpressure, ChannelHost, Consumer, Record};
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
/// each launched kernel once. The tools differ only in the drain
/// `consumer` they hand it.
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

    /// Launch-entry hook: instruments `func` on its first launch and
    /// returns the number of sites (for the tool's `sites` counter).
    pub(crate) fn instrument(&mut self, api: &NvbitApi<'_>, func: CuFunction) -> Option<u64> {
        if !self.seen.insert(func.raw()) {
            return None;
        }
        let mut sites = 0u64;
        for instr in api.get_instrs(func).expect("inspection").iter() {
            if instr.mem_space() != Some(sass::MemSpace::Global) {
                continue;
            }
            let Some((base, offset)) = instr.mref() else { continue };
            api.insert_call(func, instr.idx, "nvbit_trace_chan", IPoint::Before).unwrap();
            api.add_call_arg_guard_pred(func, instr.idx).unwrap();
            api.add_call_arg_reg_val64(func, instr.idx, base.0).unwrap();
            api.add_call_arg_imm32(func, instr.idx, offset).unwrap();
            sites += 1;
        }
        Some(sites)
    }
}

/// Results handle of [`MemTrace`].
#[derive(Debug, Default)]
pub struct MemTraceResults {
    /// Every delivered record, in drain order (the drain thread appends).
    store: Arc<Mutex<Vec<Record>>>,
    demanded: RefCell<u64>,
    dropped: RefCell<u64>,
}

impl MemTraceResults {
    /// The captured addresses as the canonical stream (CTA-linear major,
    /// per-CTA push order), which is identical across scheduler
    /// configurations: a stable sort by CTA tag keeps each CTA's
    /// push-ordered subsequence intact, so the result is independent of
    /// worker interleaving. Complete once the launch has returned — the
    /// kernel-completion flush inside `Device::launch` pushes every record
    /// through the drain thread first.
    pub fn addresses(&self) -> Vec<u64> {
        let mut records = self.store.lock().unwrap().clone();
        records.sort_by_key(|r| r.tag);
        records.iter().map(|r| r.payload).collect()
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
    /// [`Backpressure::DropCount`] with both flush buffers full, or once
    /// the drain consumer has panicked.
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
            Box::new(move |batch| sink.lock().unwrap().extend_from_slice(batch)),
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
    use cuda::{Driver, FatBinary, KernelArg};
    use gpu::{DeviceSpec, Dim3};
    use nvbit::attach_tool;
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
}
