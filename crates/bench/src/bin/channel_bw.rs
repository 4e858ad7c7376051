//! Streaming-channel bandwidth (paper §6.1): end-to-end `mem_trace`
//! throughput through the double-buffered GPU→host channel across flush
//! buffer sizes.
//!
//! ```text
//! cargo run --release -p nvbit-bench --bin channel_bw
//! ```
//!
//! The workload demands 128Ki trace records — 32× the 4Ki flush buffer —
//! and `Block` backpressure streams the full trace at every size. Writes
//! `results/BENCH_channel_bw.json`; the repository gates on zero drops
//! under `Block` at every buffer size and on the workload oversubscribing
//! the 4Ki buffer ≥16×.

use common::channel::Backpressure;
use common::json::Json;
use cuda::{Driver, FatBinary, KernelArg};
use gpu::{DeviceSpec, Dim3};
use nvbit::attach_tool;
use nvbit_tools::MemTrace;
use sass::Arch;
use std::time::Duration;

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

struct RunOut {
    captured: u64,
    demanded: u64,
    dropped: u64,
    wall: Duration,
}

/// Runs the loop workload under a `Block` [`MemTrace`] with the given
/// flush-buffer capacity and returns captured/demanded/dropped plus
/// end-to-end wall time (driver bring-up through shutdown,
/// instrumentation JIT included).
fn run(buf_records: usize) -> RunOut {
    let ((captured, demanded, dropped), wall) = bench_harness::timed(|| {
        let drv = Driver::new(DeviceSpec::test(Arch::Volta));
        let (tool, results) = MemTrace::channel(Backpressure::Block, buf_records);
        attach_tool(&drv, tool);
        let ctx = drv.ctx_create().unwrap();
        let m = drv.module_load(&ctx, FatBinary::from_ptx("loopapp", APP)).unwrap();
        let f = drv.module_get_function(&m, "k").unwrap();
        let buf = drv.mem_alloc(BLOCKS as u64 * 32 * 4).unwrap();
        drv.launch_kernel(
            &f,
            Dim3::linear(BLOCKS),
            Dim3::linear(32),
            &[KernelArg::Ptr(buf), KernelArg::U32(ITERS)],
        )
        .unwrap();
        drv.shutdown();
        (results.addresses().len() as u64, results.demanded(), results.dropped())
    });
    RunOut { captured, demanded, dropped, wall }
}

fn main() {
    println!("== channel_bw: streaming mem_trace channel, {DEMAND} records ==\n");
    println!(
        "{:>10}  {:>8}  {:>14}  {:>10}  {:>10}",
        "buf", "oversub", "rec/s", "wall ms", "drops"
    );

    let mut sizes_json = Vec::new();
    let mut gate_oversub = 0.0;
    for buf_records in [256usize, 4096, 65536] {
        let chan = run(buf_records);
        assert_eq!(chan.demanded, DEMAND, "channel demand is workload-determined");
        assert_eq!(chan.captured, DEMAND, "Block mode streams the full trace");
        assert_eq!(chan.dropped, 0, "Block backpressure must be lossless at {buf_records}");

        let oversub = DEMAND as f64 / buf_records as f64;
        let throughput = chan.captured as f64 / chan.wall.as_secs_f64().max(1e-9);
        let wall_ms = chan.wall.as_secs_f64() * 1e3;
        if buf_records == 4096 {
            gate_oversub = oversub;
        }
        println!(
            "{buf_records:>10}  {oversub:>7.0}x  {throughput:>14.0}  {wall_ms:>10.1}  {:>10}",
            chan.dropped
        );
        sizes_json.push(Json::obj(vec![
            ("buf_records", Json::Num(buf_records as f64)),
            ("oversubscription", Json::Num(oversub)),
            ("captured", Json::Num(chan.captured as f64)),
            ("demanded", Json::Num(chan.demanded as f64)),
            ("dropped", Json::Num(chan.dropped as f64)),
            ("wall_ms", Json::Num(wall_ms)),
            ("records_per_sec", Json::Num(throughput)),
        ]));
    }

    let doc = Json::obj(vec![
        ("bench", Json::Str("channel_bw".into())),
        ("workload", Json::Str("loop kernel, 16x32 threads, 128 iters, 2 memops".into())),
        ("tool", Json::Str("mem_trace (channel, Block)".into())),
        ("arch", Json::Str("volta".into())),
        ("records_demanded", Json::Num(DEMAND as f64)),
        ("record_bytes", Json::Num(common::channel::RECORD_BYTES as f64)),
        ("sizes", Json::Arr(sizes_json)),
        ("gate_buf_records", Json::Num(4096.0)),
        ("gate_oversubscription", Json::Num(gate_oversub)),
    ]);
    std::fs::create_dir_all("results").unwrap();
    let path = "results/BENCH_channel_bw.json";
    std::fs::write(path, doc.to_pretty()).unwrap();
    println!("\nwrote {path}");

    assert!(
        gate_oversub >= 16.0,
        "the gate workload must oversubscribe the 4Ki buffer ≥16x (got {gate_oversub:.0}x)"
    );
}
