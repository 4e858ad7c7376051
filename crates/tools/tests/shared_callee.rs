//! Every tool instruments each function once, including a device function
//! two kernels call.
//!
//! The fixture: kernels `a` and `b` each call `put`, which does the one
//! global store, and run a, b, a, b, one CTA of 32 threads each, each launch
//! into its own buffer. A tool that instruments `put` once per kernel that
//! reaches it counts each of its runs twice; one that looks only at the
//! launched kernel never sees the store.

use common::channel::Backpressure;
use cuda::{Driver, FatBinary, KernelArg};
use gpu::{DeviceSpec, Dim3, ExecStats};
use nvbit::attach_tool;
use nvbit_tools::{InstrCount, MemDivergence, MemTrace, OpcodeHistogram, SamplingMode};
use sass::Arch;

const APP: &str = r#"
.func put(.reg .u64 %p, .reg .u32 %v)
{
    st.global.u32 [%p], %v;
    ret;
}
.entry a(.param .u64 out)
{
    .reg .u32 %r<2>;
    .reg .u64 %rd<4>;
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd2, %r1, 4;
    add.u64 %rd3, %rd1, %rd2;
    call put, (%rd3, %r1);
    exit;
}
.entry b(.param .u64 out)
{
    .reg .u32 %r<3>;
    .reg .u64 %rd<4>;
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, %tid.x;
    add.u32 %r2, %r1, 7;
    mul.wide.u32 %rd2, %r1, 4;
    add.u64 %rd3, %rd1, %rd2;
    call put, (%rd3, %r2);
    exit;
}
"#;

const LANES: u64 = 32;

/// Runs the fixture on `drv` and returns its statistics and every lane's
/// store address, launch by launch.
fn run(drv: &Driver) -> (ExecStats, Vec<u64>) {
    let ctx = drv.ctx_create().unwrap();
    let m = drv.module_load(&ctx, FatBinary::from_ptx("app", APP)).unwrap();
    let (a, b) =
        (drv.module_get_function(&m, "a").unwrap(), drv.module_get_function(&m, "b").unwrap());
    let mut stores = Vec::new();
    for f in [&a, &b, &a, &b] {
        let out = drv.mem_alloc(4 * LANES).unwrap();
        drv.launch_kernel(f, Dim3::linear(1), Dim3::linear(LANES as u32), &[KernelArg::Ptr(out)])
            .unwrap();
        stores.extend((0..LANES).map(|lane| out + 4 * lane));
    }
    drv.shutdown();
    (drv.total_stats(), stores)
}

fn native() -> ExecStats {
    run(&Driver::new(DeviceSpec::test(Arch::Volta))).0
}

#[test]
fn instr_count_counts_a_shared_callee_once_per_run() {
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    let (tool, results) = InstrCount::new();
    attach_tool(&drv, tool);
    run(&drv);
    assert_eq!(results.total(), native().thread_instructions);
}

#[test]
fn opcode_histogram_counts_a_shared_callee_once_per_run() {
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    let (tool, results) = OpcodeHistogram::new(SamplingMode::Full);
    attach_tool(&drv, tool);
    run(&drv);
    assert_eq!(results.histogram().values().sum::<u64>(), native().thread_instructions);
}

#[test]
fn mem_divergence_counts_each_store_of_a_shared_callee_once() {
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    let (tool, results) = MemDivergence::new(true);
    attach_tool(&drv, tool);
    run(&drv);
    assert_eq!(results.mem_instructions(), native().mem.global_stores);
}

#[test]
fn mem_trace_records_every_store_of_a_shared_callee_once() {
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    let (tool, results) = MemTrace::channel(Backpressure::Block, 64);
    attach_tool(&drv, tool);
    let (_, mut stores) = run(&drv);
    let mut traced = results.addresses();
    traced.sort_unstable();
    stores.sort_unstable();
    assert_eq!(traced, stores);
}
