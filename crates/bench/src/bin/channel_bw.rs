//! Streaming-channel bandwidth (paper §6.1): end-to-end `mem_trace`
//! throughput through the GPU→host channel across flush
//! buffer sizes.
//!
//! ```text
//! cargo run --release -p nvbit-bench --bin channel_bw
//! ```
//!
//! The workload demands 128Ki trace records — 32× the 4Ki flush buffer —
//! and `Block` backpressure streams the full trace at every size. Writes
//! `results/BENCH_channel_bw.json`; the gates are zero drops and the full
//! trace captured under `Block` at every buffer size, and the workload
//! oversubscribing the 4Ki buffer ≥16×.

use bench_harness::{timed, Report};
use common::channel::Backpressure;
use cuda::{Driver, FatBinary, KernelArg};
use gpu::{DeviceSpec, Dim3};
use nvbit::attach_tool;
use nvbit_tools::MemTrace;
use sass::Arch;

/// 16 blocks × 32 threads, each looping `ITERS` times over one traced
/// load + one traced store: 16·32·128·2 = 131072 records.
const BLOCKS: u32 = 16;
const ITERS: u32 = 128;
const DEMAND: u64 = BLOCKS as u64 * 32 * ITERS as u64 * 2;

const APP: &str = r#"
.entry k(.param .u64 buf, .param .u32 iters)
{
    .reg .u32 %r<10>;
    .reg .u64 %rd<6>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [buf];
    ld.param.u32 %r1, [iters];
    mov.u32 %r2, %ctaid.x;
    mov.u32 %r3, %ntid.x;
    mov.u32 %r4, %tid.x;
    mad.lo.u32 %r5, %r2, %r3, %r4;
    mul.wide.u32 %rd2, %r5, 4;
    add.u64 %rd3, %rd1, %rd2;
    mov.u32 %r6, 0;
LOOP:
    ld.global.u32 %r7, [%rd3];
    st.global.u32 [%rd3], %r7;
    add.u32 %r6, %r6, 1;
    setp.lt.u32 %p1, %r6, %r1;
    @%p1 bra LOOP;
    exit;
}
"#;

/// Runs the loop workload under a `Block` [`MemTrace`] with the given
/// flush-buffer capacity and returns captured/demanded/dropped plus
/// end-to-end wall time in ms (driver bring-up through shutdown,
/// instrumentation JIT included).
fn run(buf_records: usize) -> ([u64; 3], f64) {
    let (counts, wall) = timed(|| {
        let drv = Driver::new(DeviceSpec::test(Arch::Volta));
        let (tool, results) = MemTrace::channel(Backpressure::Block, buf_records);
        attach_tool(&drv, tool);
        let ctx = drv.ctx_create().unwrap();
        let m = drv.module_load(&ctx, FatBinary::from_ptx("loopapp", APP)).unwrap();
        let f = drv.module_get_function(&m, "k").unwrap();
        let buf = drv.mem_alloc(BLOCKS as u64 * 32 * 4).unwrap();
        let args = [KernelArg::Ptr(buf), KernelArg::U32(ITERS)];
        drv.launch_kernel(&f, Dim3::linear(BLOCKS), Dim3::linear(32), &args).unwrap();
        drv.shutdown();
        [results.addresses().len() as u64, results.demanded(), results.dropped()]
    });
    (counts, wall.as_secs_f64() * 1e3)
}

fn main() {
    let mut report = Report::new("channel_bw");
    for buf_records in [256usize, 4096, 65536] {
        let ([captured, demanded, dropped], wall_ms) = run(buf_records);
        let oversub = DEMAND as f64 / buf_records as f64;
        report.row(
            "loop",
            &format!("block, {buf_records} records"),
            &[
                ("buf_records", buf_records as f64),
                ("oversubscription", oversub),
                ("demanded", demanded as f64),
                ("captured", captured as f64),
                ("dropped", dropped as f64),
                ("wall_ms", wall_ms),
                ("records_per_sec", captured as f64 / (wall_ms * 1e-3).max(1e-9)),
            ],
        );
        let d = DEMAND as f64;
        // Demand is workload-determined, and `Block` streams all of it.
        report.gate(format!("{buf_records}: demanded"), demanded as f64, d, demanded == DEMAND);
        report.gate(format!("{buf_records}: captured"), captured as f64, d, captured == DEMAND);
        report.at_most(format!("{buf_records}: dropped"), dropped as f64, 0.0);
        if buf_records == 4096 {
            report.at_least("oversubscription of the 4Ki buffer", oversub, 16.0);
        }
    }
    report.finish();
}
