//! Building a cache simulator on NVBit (paper §6.1: "entire cache
//! simulators can be built around these mechanisms"): trace the global
//! memory addresses of two access patterns and replay them through an LRU
//! cache model.
//!
//! ```text
//! cargo run --release --example cache_sim
//! ```

use common::channel::Backpressure;
use cuda::{Driver, FatBinary, KernelArg};
use gpu::{DeviceSpec, Dim3};
use nvbit::attach_tool;
use nvbit_tools::{CacheConfig, CacheSim, MemTrace};
use sass::Arch;

fn kernel(stride_shift: u32) -> String {
    format!(
        r#"
.entry walk(.param .u64 buf, .param .u32 n)
{{
    .reg .u32 %r<6>;
    .reg .u64 %rd<5>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [buf];
    ld.param.u32 %r1, [n];
    mov.u32 %r2, %ctaid.x;
    mov.u32 %r3, %ntid.x;
    mov.u32 %r4, %tid.x;
    mad.lo.u32 %r2, %r2, %r3, %r4;
    setp.ge.u32 %p1, %r2, %r1;
    @%p1 bra DONE;
    shl.b32 %r5, %r2, {stride_shift};
    mul.wide.u32 %rd2, %r5, 1;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.u32 %r5, [%rd3];
    st.global.u32 [%rd3], %r5;
DONE:
    exit;
}}
"#
    )
}

fn trace(stride_shift: u32) -> Vec<u64> {
    let drv = Driver::new(DeviceSpec::preset(Arch::Volta));
    let (tool, results) = MemTrace::channel(Backpressure::Block, 1 << 16);
    attach_tool(&drv, tool);
    let ctx = drv.ctx_create().unwrap();
    let m = drv.module_load(&ctx, FatBinary::from_ptx("walk", kernel(stride_shift))).unwrap();
    let f = drv.module_get_function(&m, "walk").unwrap();
    let n = 2048u32;
    let buf = drv.mem_alloc((n as u64) << stride_shift.max(2)).unwrap();
    drv.launch_kernel(
        &f,
        Dim3::linear(n / 128),
        Dim3::linear(128),
        &[KernelArg::Ptr(buf), KernelArg::U32(n)],
    )
    .unwrap();
    drv.shutdown();
    assert!(!results.truncated());
    results.addresses()
}

fn main() {
    for (label, shift) in [("sequential (4B stride)", 2u32), ("strided (256B stride)", 8)] {
        let addrs = trace(shift);
        let mut l1 = CacheSim::new(CacheConfig::l1());
        l1.replay(&addrs);
        let mut l2 = CacheSim::new(CacheConfig::l2());
        l2.replay(&addrs);
        println!(
            "{label:>24}: {} accesses, L1 hit rate {:.1}%, L2 hit rate {:.1}%",
            l1.results().accesses,
            100.0 * l1.results().hit_rate(),
            100.0 * l2.results().hit_rate(),
        );
    }
    println!("\nthe trace-driven model shows the coalescing difference directly");
}
