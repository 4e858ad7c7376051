//! Determinism suite for the streaming tool channel (`common::channel`).
//!
//! Under `Backpressure::Block` the channel is lossless, and the
//! canonical record stream — per-CTA subsequences reassembled in
//! CTA-linear order — is bit-identical whether CTAs run on one host
//! thread or race across a worker pool. Under `Backpressure::DropCount`
//! an adversarially tiny flush buffer forces drops, and the accounting
//! stays exact: every demanded record is either delivered or counted.

use common::channel::Backpressure;
use cuda::{Driver, FatBinary, KernelArg};
use gpu::{DeviceSpec, Dim3, Scheduler};
use nvbit::attach_tool;
use nvbit_tools::MemTrace;
use sass::Arch;

/// A multi-CTA app: each thread loads and stores one word, so a launch
/// of `blocks × 32` threads demands `blocks × 64` trace records with
/// per-CTA payloads that never collide across CTAs.
const APP: &str = r#"
.entry k(.param .u64 buf)
{
    .reg .u32 %r<6>;
    .reg .u64 %rd<4>;
    ld.param.u64 %rd1, [buf];
    mov.u32 %r1, %tid.x;
    mov.u32 %r2, %ctaid.x;
    mul.lo.u32 %r3, %r2, 32;
    add.u32 %r4, %r3, %r1;
    mul.wide.u32 %rd2, %r4, 4;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.u32 %r5, [%rd3];
    st.global.u32 [%rd3], %r5;
    exit;
}
"#;

const BLOCKS: u32 = 8;

/// Runs the app with a channel-mode [`MemTrace`] and returns the
/// reassembled address stream plus (demanded, dropped).
fn run(policy: Backpressure, buf_records: usize, sched: Scheduler) -> (Vec<u64>, u64, u64) {
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    let (tool, results) = MemTrace::channel(policy, buf_records);
    attach_tool(&drv, tool);
    drv.with_device(|d| d.scheduler = sched);
    let ctx = drv.ctx_create().unwrap();
    let m = drv.module_load(&ctx, FatBinary::from_ptx("app", APP)).unwrap();
    let f = drv.module_get_function(&m, "k").unwrap();
    let buf = drv.mem_alloc(BLOCKS as u64 * 32 * 4).unwrap();
    drv.launch_kernel(&f, Dim3::linear(BLOCKS), Dim3::linear(32), &[KernelArg::Ptr(buf)]).unwrap();
    drv.shutdown();
    (results.addresses(), results.demanded(), results.dropped())
}

/// `Block` with a buffer 64× smaller than the trace: the canonical
/// stream is bit-identical between the serial scheduler and a racing
/// CTA-parallel pool, and nothing is dropped in either.
#[test]
fn block_streams_are_bit_identical_across_schedulers() {
    let (serial, ser_demand, ser_drops) = run(Backpressure::Block, 8, Scheduler::Serial);
    let (parallel, par_demand, par_drops) =
        run(Backpressure::Block, 8, Scheduler::Parallel { threads: 4 });
    assert_eq!(ser_demand, BLOCKS as u64 * 64);
    assert_eq!(par_demand, ser_demand);
    assert_eq!(ser_drops, 0);
    assert_eq!(par_drops, 0);
    assert_eq!(serial.len(), BLOCKS as usize * 64);
    assert_eq!(serial, parallel, "canonical streams diverge across schedulers");
}

/// A partial-mask app: in warp 0 only the odd lanes load and store, and a
/// 33-thread block adds a one-lane second warp, so every `CHAN.64` row is
/// a strict subset of its warp.
const ODD_LANES: &str = r#"
.entry k(.param .u64 buf)
{
    .reg .u32 %r<8>;
    .reg .u64 %rd<4>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [buf];
    mov.u32 %r1, %tid.x;
    mov.u32 %r2, %ctaid.x;
    mov.u32 %r3, %ntid.x;
    mad.lo.u32 %r4, %r2, %r3, %r1;
    and.b32 %r5, %r1, 1;
    shr.u32 %r6, %r1, 5;
    or.b32 %r5, %r5, %r6;
    setp.eq.u32 %p1, %r5, 0;
    @%p1 bra DONE;
    mul.wide.u32 %rd2, %r4, 4;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.u32 %r7, [%rd3];
    st.global.u32 [%rd3], %r7;
DONE:
    exit;
}
"#;

/// The warp-wide claim keeps the per-lane order: under a partial mask the
/// canonical stream is, per CTA and per warp, the load's active lanes in
/// ascending order and then the store's — the same under every scheduler,
/// through a buffer (8) that the 16-record rows of warp 0 always straddle.
#[test]
fn partial_mask_rows_keep_the_per_lane_order_across_schedulers() {
    let run = |sched| {
        let drv = Driver::new(DeviceSpec::test(Arch::Volta));
        let (tool, results) = MemTrace::channel(Backpressure::Block, 8);
        attach_tool(&drv, tool);
        drv.with_device(|d| d.scheduler = sched);
        let ctx = drv.ctx_create().unwrap();
        let m = drv.module_load(&ctx, FatBinary::from_ptx("odd", ODD_LANES)).unwrap();
        let f = drv.module_get_function(&m, "k").unwrap();
        let buf = drv.mem_alloc(BLOCKS as u64 * 33 * 4).unwrap();
        let args = [KernelArg::Ptr(buf)];
        drv.launch_kernel(&f, Dim3::linear(BLOCKS), Dim3::linear(33), &args).unwrap();
        drv.shutdown();
        assert_eq!(results.dropped(), 0);
        (buf, results.addresses())
    };
    let (buf, serial) = run(Scheduler::Serial);
    let mut want = Vec::new();
    for cta in 0..BLOCKS as u64 {
        for warp in [(1..32).step_by(2).collect::<Vec<u64>>(), vec![32]] {
            for _load_then_store in 0..2 {
                want.extend(warp.iter().map(|tid| buf + 4 * (33 * cta + tid)));
            }
        }
    }
    assert_eq!(serial, want, "the stream is the per-lane push order");
    for threads in [2, 4] {
        let (pbuf, parallel) = run(Scheduler::Parallel { threads });
        assert_eq!((pbuf, parallel), (buf, serial.clone()), "{threads} workers");
    }
}

/// Repeated parallel runs are stable too — the reassembly really is
/// timing-independent, not merely lucky.
#[test]
fn parallel_runs_repeat_bit_identically() {
    let (first, ..) = run(Backpressure::Block, 8, Scheduler::Parallel { threads: 4 });
    for _ in 0..4 {
        let (again, ..) = run(Backpressure::Block, 8, Scheduler::Parallel { threads: 4 });
        assert_eq!(first, again);
    }
}

/// `DropCount` under an adversarially tiny 8-record buffer: drops are
/// possible (and with a serial scheduler pushing 512 records through
/// 8-record flips, overwhelmingly likely), and accounting is exact
/// either way: delivered + dropped == demanded, with the truncation
/// flag tracking the drop count.
#[test]
fn dropcount_accounting_is_exact_under_a_tiny_buffer() {
    for sched in [Scheduler::Serial, Scheduler::Parallel { threads: 4 }] {
        let (addrs, demanded, dropped) = run(Backpressure::DropCount, 8, sched);
        assert_eq!(demanded, BLOCKS as u64 * 64, "demand is workload-determined");
        assert_eq!(
            addrs.len() as u64 + dropped,
            demanded,
            "every demanded record is delivered or counted as dropped"
        );
        // Delivered records are still genuine addresses from the app's
        // buffer range (no torn or invented records under pressure).
        for &a in &addrs {
            assert_eq!(a % 4, 0, "address {a:#x} is not word-aligned");
        }
    }
}
