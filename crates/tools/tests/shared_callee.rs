//! Every tool instruments each function a kernel can reach once, including
//! a device function two kernels call and one reached through another.
//!
//! The fixture: kernels `a` and `b` each call `put`, which does the one
//! global store, and kernel `c` calls `mid`, which calls `put`. Each launch
//! is one CTA of 32 threads into its own buffer. A tool that instruments
//! `put` once per kernel that reaches it counts each of its runs twice; one
//! that looks only at the launched kernel and its direct callees never sees
//! the store `c` makes. Under grid-dimension sampling every repeat launch
//! is extrapolated from the first: exact only when an unsampled launch runs
//! no instrumented callee and a sampled one counts its callees' share.
//! Every case runs on one architecture per encoding family.
use common::channel::Backpressure;
use cuda::{Driver, FatBinary, KernelArg};
use gpu::{DeviceSpec, Dim3, ExecStats};
use nvbit::attach_tool;
use nvbit_tools::{InstrCount, MemDivergence, MemTrace, OpcodeHistogram, SamplingMode};
use sass::Arch;
use shared::FAMILIES;

mod shared;

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
.func mid(.reg .u64 %p, .reg .u32 %v)
{
    .reg .u32 %r<2>;
    mul.lo.u32 %r1, %v, 3;
    call put, (%p, %r1);
    ret;
}
.entry c(.param .u64 out)
{
    .reg .u32 %r<2>;
    .reg .u64 %rd<4>;
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd2, %r1, 4;
    add.u64 %rd3, %rd1, %rd2;
    call mid, (%rd3, %r1);
    exit;
}
"#;

/// Kernels `a` and `b`, which share `put`, in turn.
const SHARED: [&str; 4] = ["a", "b", "a", "b"];
/// Kernel `c`, whose store is two calls deep.
const CHAIN: [&str; 2] = ["c", "c"];

const LANES: u64 = 32;

/// Launches `kernels` of the fixture on `drv`, in order, all on one grid,
/// and returns the statistics and every lane's store address, launch by
/// launch.
fn run(drv: &Driver, kernels: &[&str]) -> (ExecStats, Vec<u64>) {
    let ctx = drv.ctx_create().unwrap();
    let m = drv.module_load(&ctx, FatBinary::from_ptx("app", APP)).unwrap();
    let mut stores = Vec::new();
    for name in kernels {
        let f = drv.module_get_function(&m, name).unwrap();
        let out = drv.mem_alloc(4 * LANES).unwrap();
        drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(LANES as u32), &[KernelArg::Ptr(out)])
            .unwrap();
        stores.extend((0..LANES).map(|lane| out + 4 * lane));
    }
    drv.shutdown();
    (drv.total_stats(), stores)
}

fn native(arch: Arch, kernels: &[&str]) -> ExecStats {
    run(&Driver::new(DeviceSpec::test(arch)), kernels).0
}

/// `InstrCount`'s total over `kernels`.
fn instr_count(arch: Arch, kernels: &[&str]) -> u64 {
    let drv = Driver::new(DeviceSpec::test(arch));
    let (tool, results) = InstrCount::new();
    attach_tool(&drv, tool);
    run(&drv, kernels);
    results.total()
}

/// The sum of `OpcodeHistogram`'s histogram under `mode` over `kernels`.
fn histogram_sum(arch: Arch, mode: SamplingMode, kernels: &[&str]) -> u64 {
    let drv = Driver::new(DeviceSpec::test(arch));
    let (tool, results) = OpcodeHistogram::new(mode);
    attach_tool(&drv, tool);
    run(&drv, kernels);
    results.histogram().values().sum()
}

/// `MemDivergence`'s warp-level memory instructions over `kernels`.
fn mem_instructions(arch: Arch, kernels: &[&str]) -> u64 {
    let drv = Driver::new(DeviceSpec::test(arch));
    let (tool, results) = MemDivergence::new(true);
    attach_tool(&drv, tool);
    run(&drv, kernels);
    results.mem_instructions()
}

/// `MemTrace`'s addresses and the fixture's stores over `kernels`, sorted.
fn traced_and_stored(arch: Arch, kernels: &[&str]) -> (Vec<u64>, Vec<u64>) {
    let drv = Driver::new(DeviceSpec::test(arch));
    let (tool, results) = MemTrace::channel(Backpressure::Block, 64);
    attach_tool(&drv, tool);
    let (_, mut stores) = run(&drv, kernels);
    let mut traced = results.addresses();
    traced.sort_unstable();
    stores.sort_unstable();
    (traced, stores)
}

#[test]
fn instr_count_counts_a_shared_callee_once_per_run() {
    for arch in FAMILIES {
        assert_eq!(instr_count(arch, &SHARED), native(arch, &SHARED).thread_instructions, "{arch}");
    }
}

#[test]
fn opcode_histogram_counts_a_shared_callee_once_per_run() {
    for arch in FAMILIES {
        assert_eq!(
            histogram_sum(arch, SamplingMode::Full, &SHARED),
            native(arch, &SHARED).thread_instructions,
            "{arch}"
        );
    }
}

#[test]
fn mem_divergence_counts_each_store_of_a_shared_callee_once() {
    for arch in FAMILIES {
        assert_eq!(
            mem_instructions(arch, &SHARED),
            native(arch, &SHARED).mem.global_stores,
            "{arch}"
        );
    }
}

#[test]
fn mem_trace_records_every_store_of_a_shared_callee_once() {
    for arch in FAMILIES {
        let (traced, stores) = traced_and_stored(arch, &SHARED);
        assert_eq!(traced, stores, "{arch}");
    }
}

#[test]
fn instr_count_counts_a_callee_of_a_callee() {
    for arch in FAMILIES {
        assert_eq!(instr_count(arch, &CHAIN), native(arch, &CHAIN).thread_instructions, "{arch}");
    }
}

#[test]
fn opcode_histogram_counts_a_callee_of_a_callee() {
    for arch in FAMILIES {
        assert_eq!(
            histogram_sum(arch, SamplingMode::Full, &CHAIN),
            native(arch, &CHAIN).thread_instructions,
            "{arch}"
        );
    }
}

#[test]
fn mem_divergence_sees_the_store_of_a_callee_of_a_callee() {
    for arch in FAMILIES {
        assert_eq!(
            mem_instructions(arch, &CHAIN),
            native(arch, &CHAIN).mem.global_stores,
            "{arch}"
        );
    }
}

#[test]
fn mem_trace_records_the_stores_of_a_callee_of_a_callee() {
    for arch in FAMILIES {
        let (traced, stores) = traced_and_stored(arch, &CHAIN);
        assert_eq!(traced, stores, "{arch}");
    }
}

#[test]
fn sampled_histogram_of_a_kernel_with_a_callee_is_exact() {
    for arch in FAMILIES {
        let kernels = ["a"; 4];
        assert_eq!(
            histogram_sum(arch, SamplingMode::GridDim, &kernels),
            native(arch, &kernels).thread_instructions,
            "{arch}"
        );
    }
}

#[test]
fn sampled_histogram_of_kernels_sharing_a_callee_is_exact() {
    for arch in FAMILIES {
        let sum = histogram_sum(arch, SamplingMode::GridDim, &SHARED);
        assert_eq!(sum, native(arch, &SHARED).thread_instructions, "{arch}");
    }
}

#[test]
fn sampled_histogram_of_a_callee_of_a_callee_is_exact() {
    for arch in FAMILIES {
        let kernels = ["c"; 4];
        assert_eq!(
            histogram_sum(arch, SamplingMode::GridDim, &kernels),
            native(arch, &kernels).thread_instructions,
            "{arch}"
        );
    }
}
