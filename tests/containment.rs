//! Fault containment (ROADMAP item 5): a failure injected into host code
//! that runs on the pipeline's behalf must not hang a launch or lose count
//! of what it was doing. Each case runs on a worker thread under a
//! deadline, so what used to hang fails instead.

use common::channel::{Backpressure, ChannelHost};
use cuda::{Driver, FatBinary, KernelArg};
use gpu::{DeviceSpec, Dim3};
use sass::Arch;
use std::sync::mpsc;
use std::time::Duration;

/// Every thread pushes one record: a launch of one 32-thread CTA demands 32.
const PUSHER: &str = r#"
.entry k(.param .u64 base)
{
    .reg .u32 %r<2>;
    .reg .u64 %rd<4>;
    ld.param.u64 %rd1, [base];
    mov.u32 %r1, %tid.x;
    cvt.u64.u32 %rd2, %r1;
    add.u64 %rd3, %rd1, %rd2;
    chan.push.u64 %rd3;
    exit;
}
"#;

/// Runs `case` on a worker and fails if it has not returned in time.
fn within_deadline<R: Send + 'static>(case: impl FnOnce() -> R + Send + 'static) -> R {
    let deadline = Duration::from_secs(if cfg!(debug_assertions) { 20 } else { 5 });
    let (done, result) = mpsc::channel();
    std::thread::spawn(move || done.send(case()));
    result.recv_timeout(deadline).unwrap_or_else(|_| panic!("missed the {deadline:?} deadline"))
}

/// `Block` with 8-record buffers and a consumer that panics on its second
/// batch: before the receiver caught the unwind, the drain thread died
/// there, the producers of the third batch parked on a doorbell nobody
/// rang, and the launch never returned.
#[test]
fn a_panicking_channel_consumer_does_not_hang_the_launch() {
    let (demanded, delivered, dropped, failed) = within_deadline(|| {
        let mut batches = 0;
        let (host, dev) = ChannelHost::spawn(
            8,
            Backpressure::Block,
            Box::new(move |_batch| {
                batches += 1;
                assert!(batches < 2, "injected consumer failure");
            }),
        );
        let drv = Driver::new(DeviceSpec::test(Arch::Volta));
        drv.with_device(|d| d.attach_channel(dev));
        let ctx = drv.ctx_create().unwrap();
        let m = drv.module_load(&ctx, FatBinary::from_ptx("pusher", PUSHER)).unwrap();
        let f = drv.module_get_function(&m, "k").unwrap();
        for _ in 0..2 {
            // The second launch finds the consumer already dead.
            drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(32), &[KernelArg::Ptr(0x1000)])
                .unwrap();
        }
        let counts = (host.demanded(), host.delivered(), host.dropped(), host.consumer_failed());
        host.shutdown();
        counts
    });
    assert!(failed, "the failure is reported");
    assert_eq!(demanded, 64);
    assert_eq!(delivered, 8, "only the batch the consumer returned from was delivered");
    assert_eq!(delivered + dropped, demanded, "the rest is counted, not lost");
}
