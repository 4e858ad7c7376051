//! Differential testing: for every kernel in a suite, compiled SASS executed
//! by the simulator must produce byte-identical global memory to the PTX
//! reference interpreter — across architectures, launch geometries and
//! randomized inputs.

use common::prop::{run_cases, vec_of};
use gpu::{Device, DeviceSpec, Dim3, LaunchConfig};
use ptx::interp::{interpret_entry, LaunchGrid, ParamValue};
use sass::codec::codec_for;
use sass::{Arch, Operand};

/// Size of the data arena shared (by layout) between both executions.
const ARENA: usize = 1 << 16;

/// A kernel parameter in arena-relative form.
#[derive(Debug, Clone, Copy)]
enum Param {
    /// Pointer expressed as an arena offset.
    Ptr(u64),
    /// Plain 32-bit value.
    U32(u32),
}

/// Loads a compiled module into the device, patching call relocations, and
/// returns the entry PC of `kernel` plus per-function metadata needed for
/// the launch.
fn load_module(dev: &mut Device, module: &ptx::CompiledModule, kernel: &str) -> (u64, u32, u32) {
    let mut addrs = std::collections::HashMap::new();
    for f in &module.functions {
        let addr = dev.alloc(f.code.len() as u64).unwrap();
        addrs.insert(f.name.clone(), addr);
    }
    let isize = module.arch.instruction_size() as u64;
    let codec = codec_for(module.arch);
    for f in &module.functions {
        let base = addrs[&f.name];
        if f.relocs.is_empty() {
            dev.write(base, &f.code).unwrap();
            continue;
        }
        let mut instrs = f.decode();
        for r in &f.relocs {
            let target = addrs[&r.target];
            for o in instrs[r.instr_index].operands.iter_mut() {
                if let Operand::Abs(a) = o {
                    *a = target;
                }
            }
        }
        let patched = codec.encode_stream(&instrs).unwrap();
        dev.write(base, &patched).unwrap();
        let _ = isize;
    }
    let f = module.function(kernel).unwrap();
    let shared = f.shared_size;
    // Local memory: own frame plus headroom for callees.
    let local: u32 = module.functions.iter().map(|g| g.stack_size).sum::<u32>() + 1024;
    (addrs[kernel], shared, local)
}

/// Runs `kernel` both ways and asserts the arenas match.
fn check(src: &str, kernel: &str, grid: Dim3, block: Dim3, params: &[Param], arena_init: &[u8]) {
    let m = ptx::parse_module(src).unwrap();

    // Interpreter run.
    let mut imem = vec![0u8; ARENA];
    imem[..arena_init.len()].copy_from_slice(arena_init);
    let iparams: Vec<ParamValue> = params
        .iter()
        .map(|p| match p {
            Param::Ptr(off) => ParamValue::U64(*off),
            Param::U32(v) => ParamValue::U32(*v),
        })
        .collect();
    interpret_entry(&m, kernel, LaunchGrid { grid, block }, &iparams, &mut imem)
        .unwrap_or_else(|e| panic!("interp failed for {kernel}: {e}"));

    for arch in Arch::ALL {
        let module =
            ptx::compile_ast(&m, arch).unwrap_or_else(|e| panic!("compile failed for {arch}: {e}"));
        let mut dev = Device::new(DeviceSpec::test(arch));
        let (entry, shared, local) = load_module(&mut dev, &module, kernel);
        let arena = dev.alloc(ARENA as u64).unwrap();
        let mut init = vec![0u8; ARENA];
        init[..arena_init.len()].copy_from_slice(arena_init);
        dev.write(arena, &init).unwrap();

        let mut cfg = LaunchConfig::new(entry, grid, block);
        cfg.shared_size = shared;
        cfg.local_size = local.max(4096);
        for p in params {
            match p {
                Param::Ptr(off) => {
                    cfg.push_param_u64(arena + off);
                }
                Param::U32(v) => {
                    cfg.push_param_u32(*v);
                }
            }
        }
        dev.launch(&cfg).unwrap_or_else(|e| panic!("simulator failed for {kernel} on {arch}: {e}"));

        let mut smem = vec![0u8; ARENA];
        dev.read(arena, &mut smem).unwrap();
        assert_eq!(
            imem, smem,
            "interpreter and simulator disagree for `{kernel}` on {arch} \
             (grid {grid}, block {block})"
        );
    }
}

fn f32_bytes(vals: &[f32]) -> Vec<u8> {
    vals.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect()
}

const VECADD: &str = r#"
.entry vecadd(.param .u64 a, .param .u64 b, .param .u64 out, .param .u32 n)
{
    .reg .u32 %r<4>;
    .reg .u64 %rd<6>;
    .reg .f32 %f<4>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [a];
    ld.param.u64 %rd2, [b];
    ld.param.u64 %rd3, [out];
    ld.param.u32 %r1, [n];
    mov.u32 %r2, %ctaid.x;
    mov.u32 %r3, %ntid.x;
    mul.lo.u32 %r2, %r2, %r3;
    mov.u32 %r3, %tid.x;
    add.u32 %r2, %r2, %r3;
    setp.ge.u32 %p1, %r2, %r1;
    @%p1 bra DONE;
    mul.wide.u32 %rd4, %r2, 4;
    add.u64 %rd5, %rd1, %rd4;
    ld.global.f32 %f1, [%rd5];
    add.u64 %rd5, %rd2, %rd4;
    ld.global.f32 %f2, [%rd5];
    add.f32 %f1, %f1, %f2;
    add.u64 %rd5, %rd3, %rd4;
    st.global.f32 [%rd5], %f1;
DONE:
    exit;
}
"#;

#[test]
fn vecadd_matches() {
    let a: Vec<f32> = (0..256).map(|i| i as f32 * 0.5).collect();
    let b: Vec<f32> = (0..256).map(|i| 1000.0 - i as f32).collect();
    let mut init = f32_bytes(&a);
    init.extend(f32_bytes(&b));
    check(
        VECADD,
        "vecadd",
        Dim3::linear(4),
        Dim3::linear(64),
        &[Param::Ptr(0), Param::Ptr(1024), Param::Ptr(2048), Param::U32(200)],
        &init,
    );
}

const DIVERGE: &str = r#"
.entry diverge(.param .u64 out)
{
    .reg .u32 %r<6>;
    .reg .u64 %rd<4>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, %tid.x;
    and.b32 %r2, %r1, 3;
    setp.eq.u32 %p1, %r2, 0;
    @%p1 bra A;
    setp.eq.u32 %p1, %r2, 1;
    @%p1 bra B;
    mov.u32 %r3, 30;
    bra JOIN;
A:
    mov.u32 %r3, 10;
    bra JOIN;
B:
    mov.u32 %r3, 20;
JOIN:
    add.u32 %r3, %r3, %r1;
    mul.wide.u32 %rd2, %r1, 4;
    add.u64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r3;
    exit;
}
"#;

#[test]
fn nested_divergence_matches() {
    check(DIVERGE, "diverge", Dim3::linear(1), Dim3::linear(32), &[Param::Ptr(0)], &[]);
    check(DIVERGE, "diverge", Dim3::linear(2), Dim3::linear(96), &[Param::Ptr(0)], &[]);
}

const TRIANGLE: &str = r#"
.entry tri(.param .u64 out)
{
    .reg .u32 %r<6>;
    .reg .u64 %rd<4>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, %tid.x;
    mov.u32 %r2, 0;
    mov.u32 %r3, 0;
TOP:
    setp.ge.u32 %p1, %r3, %r1;
    @%p1 bra DONE;
    add.u32 %r3, %r3, 1;
    add.u32 %r2, %r2, %r3;
    bra TOP;
DONE:
    mul.wide.u32 %rd2, %r1, 4;
    add.u64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r2;
    exit;
}
"#;

#[test]
fn data_dependent_loop_matches() {
    check(TRIANGLE, "tri", Dim3::linear(1), Dim3::linear(32), &[Param::Ptr(0)], &[]);
    check(TRIANGLE, "tri", Dim3::linear(3), Dim3::linear(64), &[Param::Ptr(0)], &[]);
}

const SHARED_REV: &str = r#"
.entry rev(.param .u64 buf)
{
    .reg .u32 %r<9>;
    .reg .u64 %rd<4>;
    .shared .align 4 .b8 tile[128];
    ld.param.u64 %rd1, [buf];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd2, %r1, 4;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.u32 %r2, [%rd3];
    mov.u32 %r3, tile;
    shl.b32 %r4, %r1, 2;
    add.u32 %r4, %r4, %r3;
    st.shared.u32 [%r4], %r2;
    bar.sync 0;
    mov.u32 %r5, 31;
    sub.u32 %r5, %r5, %r1;
    shl.b32 %r6, %r5, 2;
    add.u32 %r6, %r6, %r3;
    ld.shared.u32 %r7, [%r6];
    st.global.u32 [%rd3], %r7;
    exit;
}
"#;

#[test]
fn shared_memory_reverse_matches() {
    let init: Vec<u8> = (0..32u32).flat_map(|v| (v * 3 + 7).to_le_bytes()).collect();
    check(SHARED_REV, "rev", Dim3::linear(1), Dim3::linear(32), &[Param::Ptr(0)], &init);
}

const WARP_REDUCE: &str = r#"
.entry wsum(.param .u64 out)
{
    .reg .u32 %r<8>;
    .reg .u64 %rd<4>;
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, %laneid;
    mov.u32 %r2, %tid.x;
    shfl.bfly.b32 %r3, %r2, 16;
    add.u32 %r2, %r2, %r3;
    shfl.bfly.b32 %r3, %r2, 8;
    add.u32 %r2, %r2, %r3;
    shfl.bfly.b32 %r3, %r2, 4;
    add.u32 %r2, %r2, %r3;
    shfl.bfly.b32 %r3, %r2, 2;
    add.u32 %r2, %r2, %r3;
    shfl.bfly.b32 %r3, %r2, 1;
    add.u32 %r2, %r2, %r3;
    mov.u32 %r4, %tid.x;
    mul.wide.u32 %rd2, %r4, 4;
    add.u64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r2;
    exit;
}
"#;

#[test]
fn warp_shuffle_reduction_matches() {
    check(WARP_REDUCE, "wsum", Dim3::linear(1), Dim3::linear(64), &[Param::Ptr(0)], &[]);
}

const ATOMICS: &str = r#"
.entry hist(.param .u64 data, .param .u64 bins)
{
    .reg .u32 %r<6>;
    .reg .u64 %rd<6>;
    ld.param.u64 %rd1, [data];
    ld.param.u64 %rd2, [bins];
    mov.u32 %r1, %ctaid.x;
    mov.u32 %r2, %ntid.x;
    mul.lo.u32 %r1, %r1, %r2;
    mov.u32 %r2, %tid.x;
    add.u32 %r1, %r1, %r2;
    mul.wide.u32 %rd3, %r1, 4;
    add.u64 %rd4, %rd1, %rd3;
    ld.global.u32 %r3, [%rd4];
    and.b32 %r3, %r3, 15;
    mul.wide.u32 %rd5, %r3, 4;
    add.u64 %rd5, %rd2, %rd5;
    mov.u32 %r4, 1;
    atom.global.add.u32 %r5, [%rd5], %r4;
    exit;
}
"#;

#[test]
fn atomic_histogram_matches() {
    let data: Vec<u8> =
        (0..128u32).flat_map(|i| i.wrapping_mul(2654435761).to_le_bytes()).collect();
    check(
        ATOMICS,
        "hist",
        Dim3::linear(4),
        Dim3::linear(32),
        &[Param::Ptr(0), Param::Ptr(4096)],
        &data,
    );
}

const CALLS: &str = r#"
.func (.reg .u32 %out) poly(.reg .u32 %x)
{
    .reg .u32 %t<3>;
    mul.lo.u32 %t1, %x, %x;
    add.u32 %t2, %t1, %x;
    add.u32 %out, %t2, 41;
    ret;
}
.entry k(.param .u64 buf)
{
    .reg .u32 %r<4>;
    .reg .u64 %rd<4>;
    ld.param.u64 %rd1, [buf];
    mov.u32 %r1, %tid.x;
    call (%r2), poly, (%r1);
    mul.wide.u32 %rd2, %r1, 4;
    add.u64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r2;
    exit;
}
"#;

#[test]
fn device_function_calls_match() {
    check(CALLS, "k", Dim3::linear(2), Dim3::linear(32), &[Param::Ptr(0)], &[]);
}

/// `first` ends without `exit`: falling off a kernel's end exits, and the
/// code laid out after it (`second`, storing 99) must not run.
const KERNEL_FALLS_OFF: &str = r#"
.entry first(.param .u64 buf)
{
    .reg .u32 %r<2>;
    .reg .u64 %rd<2>;
    ld.param.u64 %rd1, [buf];
    mov.u32 %r1, 7;
    st.global.u32 [%rd1], %r1;
}
.entry second(.param .u64 buf)
{
    .reg .u32 %r<2>;
    .reg .u64 %rd<2>;
    ld.param.u64 %rd1, [buf];
    mov.u32 %r1, 99;
    st.global.u32 [%rd1+4], %r1;
    exit;
}
"#;

#[test]
fn a_kernel_that_falls_off_its_end_exits() {
    check(KERNEL_FALLS_OFF, "first", Dim3::linear(1), Dim3::linear(32), &[Param::Ptr(0)], &[]);
}

/// `inc` ends without `ret`: falling off a device function's end returns
/// its value, and the function laid out after it (`poison`, returning 99)
/// must not run.
const DEVICE_FUNCTION_FALLS_OFF: &str = r#"
.func (.reg .u32 %out) inc(.reg .u32 %x)
{
    add.u32 %out, %x, 1;
}
.func (.reg .u32 %out) poison()
{
    mov.u32 %out, 99;
    ret;
}
.entry k(.param .u64 buf)
{
    .reg .u32 %r<3>;
    .reg .u64 %rd<4>;
    ld.param.u64 %rd1, [buf];
    mov.u32 %r1, %tid.x;
    call (%r2), inc, (%r1);
    mul.wide.u32 %rd2, %r1, 4;
    add.u64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r2;
    exit;
}
"#;

#[test]
fn a_device_function_that_falls_off_its_end_returns() {
    check(DEVICE_FUNCTION_FALLS_OFF, "k", Dim3::linear(1), Dim3::linear(32), &[Param::Ptr(0)], &[]);
}

/// `bump` never reads `%unused`: the register allocator places it nowhere,
/// and `%x` still arrives in the second argument register.
const UNREAD_PARAMETER: &str = r#"
.func (.reg .u32 %out) bump(.reg .u32 %unused, .reg .u32 %x)
{
    add.u32 %out, %x, 3;
    ret;
}
.entry k(.param .u64 buf)
{
    .reg .u32 %r<4>;
    .reg .u64 %rd<4>;
    ld.param.u64 %rd1, [buf];
    mov.u32 %r1, %tid.x;
    mov.u32 %r3, 1000;
    call (%r2), bump, (%r3, %r1);
    mul.wide.u32 %rd2, %r1, 4;
    add.u64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r2;
    exit;
}
"#;

#[test]
fn a_device_function_with_an_unread_parameter_matches() {
    check(UNREAD_PARAMETER, "k", Dim3::linear(1), Dim3::linear(32), &[Param::Ptr(0)], &[]);
}

const MATHY: &str = r#"
.entry mathy(.param .u64 buf)
{
    .reg .u32 %r<4>;
    .reg .u64 %rd<4>;
    .reg .f32 %f<8>;
    ld.param.u64 %rd1, [buf];
    // Global thread index: the update below is not idempotent, so two
    // CTAs sharing elements would race under the CTA-parallel scheduler.
    mov.u32 %r1, %ctaid.x;
    mov.u32 %r2, %ntid.x;
    mul.lo.u32 %r1, %r1, %r2;
    mov.u32 %r2, %tid.x;
    add.u32 %r1, %r1, %r2;
    mul.wide.u32 %rd2, %r1, 4;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.f32 %f1, [%rd3];
    sqrt.approx.f32 %f2, %f1;
    rcp.approx.f32 %f3, %f2;
    mul.f32 %f4, %f2, %f3;
    fma.rn.f32 %f5, %f4, %f1, %f2;
    min.f32 %f6, %f5, %f1;
    max.f32 %f6, %f6, %f2;
    st.global.f32 [%rd3], %f6;
    exit;
}
"#;

#[test]
fn float_math_matches_bit_for_bit() {
    let init = f32_bytes(&(0..64).map(|i| (i as f32 + 0.25) * 1.7).collect::<Vec<_>>());
    check(MATHY, "mathy", Dim3::linear(2), Dim3::linear(32), &[Param::Ptr(0)], &init);
}

const DOUBLES: &str = r#"
.entry dbl(.param .u64 buf)
{
    .reg .u32 %r<4>;
    .reg .u64 %rd<4>;
    .reg .f64 %d<6>;
    .reg .f32 %f<3>;
    ld.param.u64 %rd1, [buf];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd2, %r1, 8;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.f64 %d1, [%rd3];
    mov.f64 %d2, 0d3FF8000000000000;
    mul.f64 %d3, %d1, %d2;
    add.f64 %d4, %d3, %d1;
    fma.rn.f64 %d5, %d4, %d2, %d1;
    st.global.f64 [%rd3], %d5;
    exit;
}
"#;

#[test]
fn double_precision_matches() {
    let init: Vec<u8> =
        (0..32).flat_map(|i| ((i as f64) * 1.125 - 3.5).to_bits().to_le_bytes()).collect();
    check(DOUBLES, "dbl", Dim3::linear(1), Dim3::linear(32), &[Param::Ptr(0)], &init);
}

const SELP_MINMAX: &str = r#"
.entry clampk(.param .u64 buf, .param .u32 lo, .param .u32 hi)
{
    .reg .u32 %r<8>;
    .reg .u64 %rd<4>;
    .reg .pred %p<3>;
    ld.param.u64 %rd1, [buf];
    ld.param.u32 %r1, [lo];
    ld.param.u32 %r2, [hi];
    mov.u32 %r3, %tid.x;
    mul.wide.u32 %rd2, %r3, 4;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.u32 %r4, [%rd3];
    max.u32 %r5, %r4, %r1;
    min.u32 %r5, %r5, %r2;
    setp.le.u32 %p1, %r4, %r2;
    selp.b32 %r6, %r5, 4096, %p1;
    st.global.u32 [%rd3], %r6;
    exit;
}
"#;

#[test]
fn selp_and_minmax_match() {
    let init: Vec<u8> = (0..64u32).flat_map(|i| (i * 37 % 97).to_le_bytes()).collect();
    check(
        SELP_MINMAX,
        "clampk",
        Dim3::linear(2),
        Dim3::linear(32),
        &[Param::Ptr(0), Param::U32(10), Param::U32(80)],
        &init,
    );
}

/// Random inputs and launch geometries keep both implementations in
/// agreement on the vecadd kernel.
#[test]
fn prop_vecadd_random_inputs() {
    run_cases("prop_vecadd_random_inputs", 16, |rng| {
        let bytes: Vec<u8> = (0..256).flat_map(|_| rng.next_u32().to_le_bytes()).collect();
        let blocks = rng.gen_range(1u32..4);
        let threads = *rng.choose(&[32u32, 64, 96]);
        let n = rng.gen_range(0u32..200);
        check(
            VECADD,
            "vecadd",
            Dim3::linear(blocks),
            Dim3::linear(threads),
            &[Param::Ptr(0), Param::Ptr(512), Param::Ptr(2048), Param::U32(n)],
            &bytes,
        );
    });
}

/// Random data keeps the atomic histogram in agreement (atomics are
/// warp- and lane-ordered deterministically in both implementations).
#[test]
fn prop_histogram_random_inputs() {
    run_cases("prop_histogram_random_inputs", 16, |rng| {
        let bytes: Vec<u8> = (0..128).flat_map(|_| rng.next_u32().to_le_bytes()).collect();
        check(
            ATOMICS,
            "hist",
            Dim3::linear(4),
            Dim3::linear(32),
            &[Param::Ptr(0), Param::Ptr(4096)],
            &bytes,
        );
    });
}

/// Divergence patterns driven by arbitrary input data reconverge
/// identically.
#[test]
fn prop_divergence_random_geometry() {
    run_cases("prop_divergence_random_geometry", 16, |rng| {
        let blocks = rng.gen_range(1u32..3);
        let threads = *rng.choose(&[32u32, 64, 128]);
        check(
            DIVERGE,
            "diverge",
            Dim3::linear(blocks),
            Dim3::linear(threads),
            &[Param::Ptr(0)],
            &[],
        );
    });
}

/// Builds a random straight-line arithmetic kernel over `n_ops` operations:
/// each thread hashes its tid through the op sequence and stores the result.
fn random_program(ops: &[(u8, u8, u8, i32)]) -> String {
    let mut body = String::new();
    // Seed registers from the thread id.
    body.push_str("    mov.u32 %v0, %tid.x;\n");
    body.push_str("    add.u32 %v1, %v0, 77;\n");
    body.push_str("    mul.lo.u32 %v2, %v0, 2654435761;\n");
    body.push_str("    xor.b32 %v3, %v1, %v2;\n");
    for (kind, a, b, imm) in ops {
        let dst = (kind ^ a ^ b) % 4;
        let a = a % 4;
        let b = b % 4;
        let stmt = match kind % 10 {
            0 => format!("add.u32 %v{dst}, %v{a}, %v{b};"),
            1 => format!("sub.u32 %v{dst}, %v{a}, %v{b};"),
            2 => format!("mul.lo.u32 %v{dst}, %v{a}, %v{b};"),
            3 => format!("and.b32 %v{dst}, %v{a}, %v{b};"),
            4 => format!("or.b32 %v{dst}, %v{a}, %v{b};"),
            5 => format!("xor.b32 %v{dst}, %v{a}, %v{b};"),
            6 => format!("shl.b32 %v{dst}, %v{a}, {};", imm & 31),
            7 => format!("shr.u32 %v{dst}, %v{a}, {};", imm & 31),
            8 => format!("min.u32 %v{dst}, %v{a}, %v{b};"),
            _ => format!("add.u32 %v{dst}, %v{a}, {};", imm),
        };
        body.push_str("    ");
        body.push_str(&stmt);
        body.push('\n');
    }
    format!(
        ".entry rnd(.param .u64 out)\n{{\n\
         \x20   .reg .u32 %v<5>;\n\
         \x20   .reg .u32 %t<3>;\n\
         \x20   .reg .u64 %rd<4>;\n\
         \x20   ld.param.u64 %rd1, [out];\n\
         {body}\
         \x20   mov.u32 %t1, %tid.x;\n\
         \x20   mul.wide.u32 %rd2, %t1, 16;\n\
         \x20   add.u64 %rd3, %rd1, %rd2;\n\
         \x20   st.global.u32 [%rd3], %v0;\n\
         \x20   st.global.u32 [%rd3+4], %v1;\n\
         \x20   st.global.u32 [%rd3+8], %v2;\n\
         \x20   st.global.u32 [%rd3+12], %v3;\n\
         \x20   exit;\n}}\n"
    )
}

/// Randomly generated straight-line programs agree between the PTX
/// interpreter and the compiled-SASS simulator on every architecture —
/// a broad differential check of instruction selection, immediate
/// legalization and register allocation.
#[test]
fn prop_random_programs_agree() {
    run_cases("prop_random_programs_agree", 24, |rng| {
        let ops = vec_of(rng, 1..24, |r| {
            (
                r.gen_range(0u32..256) as u8,
                r.gen_range(0u32..256) as u8,
                r.gen_range(0u32..256) as u8,
                r.gen_range(-(1i32 << 16)..(1i32 << 16)),
            )
        });
        let src = random_program(&ops);
        check(&src, "rnd", Dim3::linear(1), Dim3::linear(64), &[Param::Ptr(0)], &[]);
    });
}

// ----- Row paths vs per-lane loops ------------------------------------------
//
// The executor runs an operation as one 32-lane row when the warp's whole
// mask is active (for local memory and constants: when the active lanes
// share one address; for global memory: when every active lane's words are
// 4-aligned and in bounds), and lane by lane otherwise. Nothing switches
// between the two but the input, so the kernels below are run in shapes that
// select each: block sizes with a partial (or only a partial) last warp, a
// data-dependent guard that disables a strict subset of lanes, per-lane
// different addresses, and addresses that straddle two interleaved words
// (local memory) or two aligned words (global memory).

/// Runs `kernel` over random input (`words` per thread) in two CTAs of one
/// lane, a partial warp, a full warp plus one lane, and full warps only.
fn check_row_shapes(src: &str, kernel: &str, words: usize) {
    run_cases(kernel, 4, |rng| {
        let bytes: Vec<u8> =
            (0..2 * 64 * words).flat_map(|_| rng.next_u32().to_le_bytes()).collect();
        for block in [1, 17, 33, 64] {
            check(src, kernel, Dim3::linear(2), Dim3::linear(block), &[Param::Ptr(0)], &bytes);
        }
    });
}

const ROW_ALU: &str = r#"
.entry rowalu(.param .u64 buf)
{
    .reg .u32 %r<20>;
    .reg .u64 %rd<8>;
    .reg .f32 %f<8>;
    .reg .f64 %d<4>;
    .reg .pred %p<4>;
    ld.param.u64 %rd1, [buf];
    mov.u32 %r1, %ctaid.x;
    mov.u32 %r2, %ntid.x;
    mov.u32 %r3, %tid.x;
    mad.lo.u32 %r1, %r1, %r2, %r3;
    mul.wide.u32 %rd2, %r1, 32;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.u32 %r4, [%rd3];
    and.b32 %r5, %r4, 5;
    setp.ne.u32 %p1, %r5, 0;
    add.u32 %r6, %r4, %r1;
    @%p1 sub.u32 %r6, %r6, 77;
    mul.lo.u32 %r7, %r6, %r4;
    @%p1 shl.b32 %r7, %r7, 3;
    shr.u32 %r8, %r7, 5;
    @%p1 shr.s32 %r8, %r7, 2;
    min.u32 %r9, %r8, %r6;
    @%p1 max.s32 %r9, %r9, %r4;
    xor.b32 %r10, %r9, %r7;
    @%p1 or.b32 %r10, %r10, 256;
    @!%p1 and.b32 %r10, %r10, 1048560;
    popc.b32 %r11, %r10;
    @%p1 mad.lo.u32 %r11, %r11, %r6, %r4;
    setp.lt.s32 %p2, %r9, %r6;
    @%p1 setp.ge.u32 %p2, %r8, %r4;
    selp.b32 %r12, %r10, %r11, %p2;
    vote.ballot.b32 %r13, %p2;
    @%p1 vote.ballot.b32 %r13, !%p2;
    mul.wide.u32 %rd4, %r12, %r6;
    @%p1 add.u64 %rd4, %rd4, %rd2;
    shr.u64 %rd4, %rd4, 7;
    cvt.u32.u64 %r14, %rd4;
    cvt.rn.f32.u32 %f1, %r11;
    cvt.rn.f32.s32 %f2, %r9;
    add.f32 %f3, %f1, %f2;
    @%p1 mul.f32 %f3, %f3, %f1;
    fma.rn.f32 %f4, %f3, %f2, %f1;
    @%p1 min.f32 %f4, %f4, %f3;
    setp.gt.f32 %p3, %f4, %f1;
    @%p3 max.f32 %f4, %f4, %f2;
    sqrt.approx.f32 %f5, %f1;
    cvt.f64.f32 %d1, %f5;
    add.f64 %d2, %d1, %d1;
    @%p1 mul.f64 %d2, %d2, %d1;
    fma.rn.f64 %d3, %d2, %d1, %d1;
    cvt.rn.f32.f64 %f6, %d3;
    cvt.rzi.s32.f32 %r15, %f4;
    st.global.u32 [%rd3], %r10;
    st.global.u32 [%rd3+4], %r11;
    st.global.u32 [%rd3+8], %r12;
    st.global.u32 [%rd3+12], %r13;
    st.global.u32 [%rd3+16], %r14;
    st.global.f32 [%rd3+20], %f4;
    st.global.f32 [%rd3+24], %f6;
    st.global.u32 [%rd3+28], %r15;
    exit;
}
"#;

#[test]
fn alu_rows_match_under_partial_warps_and_guards() {
    check_row_shapes(ROW_ALU, "rowalu", 8);
}

/// Local memory through every addressing shape: a uniform aligned slot (the
/// row copy), the same slot under a guard, per-lane different slots, and
/// 4-byte accesses at byte offsets 1..=3 of a word — stores that straddle
/// two interleaved words read back both as whole words and unaligned.
const ROW_LOCAL: &str = r#"
.entry rowlocal(.param .u64 buf)
{
    .reg .u32 %r<24>;
    .reg .u64 %rd<6>;
    .reg .pred %p<3>;
    ld.param.u64 %rd1, [buf];
    mov.u32 %r1, %ctaid.x;
    mov.u32 %r2, %ntid.x;
    mov.u32 %r3, %tid.x;
    mad.lo.u32 %r1, %r1, %r2, %r3;
    mul.wide.u32 %rd2, %r1, 32;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.u32 %r4, [%rd3];
    and.b32 %r5, %r4, 6;
    setp.ne.u32 %p1, %r5, 0;
    mov.u32 %r6, 64;
    st.local.u32 [%r6], %r4;
    st.local.u32 [%r6+4], %r1;
    @%p1 st.local.u32 [%r6+4], %r4;
    ld.local.u32 %r7, [%r6+4];
    mov.u32 %r8, 0;
    @!%p1 ld.local.u32 %r8, [%r6];
    st.local.u32 [%r6+2], %r1;
    ld.local.u32 %r9, [%r6];
    ld.local.u32 %r10, [%r6+4];
    ld.local.u32 %r11, [%r6+2];
    ld.local.u32 %r12, [%r6+1];
    and.b32 %r13, %r4, 28;
    add.u32 %r13, %r13, 128;
    st.local.u32 [%r13], %r4;
    st.local.u32 [%r13+32], %r1;
    ld.local.u32 %r14, [%r13];
    and.b32 %r15, %r3, 3;
    add.u32 %r15, %r15, 256;
    st.local.u32 [%r15], %r4;
    st.local.u32 [%r15+5], %r1;
    ld.local.u32 %r16, [%r15];
    ld.local.u32 %r17, [%r15+3];
    mov.u32 %r18, 256;
    ld.local.u32 %r19, [%r18+4];
    st.global.u32 [%rd3], %r7;
    st.global.u32 [%rd3+4], %r8;
    st.global.u32 [%rd3+8], %r9;
    st.global.u32 [%rd3+12], %r10;
    st.global.u32 [%rd3+16], %r11;
    st.global.u32 [%rd3+20], %r12;
    st.global.u32 [%rd3+24], %r14;
    xor.b32 %r16, %r16, %r17;
    xor.b32 %r16, %r16, %r19;
    st.global.u32 [%rd3+28], %r16;
    exit;
}
"#;

#[test]
fn local_memory_rows_match_per_lane_and_unaligned_accesses() {
    check_row_shapes(ROW_LOCAL, "rowlocal", 8);
}

/// Global memory one word at a time: 4-byte loads and stores at byte offsets
/// +1, +2, +3 and +5 from a 4-aligned address — each composed from the two
/// aligned words that hold it — over all lanes and under a data-dependent
/// guard and its complement, read back across the stores.
const ROW_GLOBAL: &str = r#"
.entry rowglobal(.param .u64 buf)
{
    .reg .u32 %r<12>;
    .reg .u64 %rd<4>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [buf];
    mov.u32 %r1, %ctaid.x;
    mov.u32 %r2, %ntid.x;
    mov.u32 %r3, %tid.x;
    mad.lo.u32 %r1, %r1, %r2, %r3;
    mul.wide.u32 %rd2, %r1, 32;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.u32 %r4, [%rd3];
    and.b32 %r5, %r4, 6;
    setp.ne.u32 %p1, %r5, 0;
    ld.global.u32 %r6, [%rd3+1];
    ld.global.u32 %r7, [%rd3+2];
    mov.u32 %r8, 7;
    @%p1 ld.global.u32 %r8, [%rd3+3];
    mov.u32 %r9, 9;
    @!%p1 ld.global.u32 %r9, [%rd3+5];
    st.global.u32 [%rd3+9], %r6;
    @%p1 st.global.u32 [%rd3+14], %r7;
    @!%p1 st.global.u32 [%rd3+19], %r8;
    st.global.u32 [%rd3+25], %r9;
    ld.global.u32 %r10, [%rd3+11];
    ld.global.u32 %r11, [%rd3+17];
    xor.b32 %r10, %r10, %r11;
    st.global.u32 [%rd3+4], %r10;
    exit;
}
"#;

#[test]
fn global_memory_words_match_at_every_byte_offset_under_guards() {
    check_row_shapes(ROW_GLOBAL, "rowglobal", 8);
}

/// Shared memory at per-lane different offsets (a reversal across the whole
/// block, so a 33-thread block crosses warps through a barrier), with a
/// guarded second store over a strict subset of lanes.
const SHARED_REV_N: &str = r#"
.entry revn(.param .u64 buf)
{
    .reg .u32 %r<12>;
    .reg .u64 %rd<4>;
    .reg .pred %p<2>;
    .shared .align 4 .b8 tile[256];
    ld.param.u64 %rd1, [buf];
    mov.u32 %r1, %tid.x;
    mov.u32 %r2, %ntid.x;
    mov.u32 %r3, %ctaid.x;
    mad.lo.u32 %r4, %r3, %r2, %r1;
    mul.wide.u32 %rd2, %r4, 4;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.u32 %r5, [%rd3];
    mov.u32 %r6, tile;
    shl.b32 %r7, %r1, 2;
    add.u32 %r7, %r7, %r6;
    st.shared.u32 [%r7], %r5;
    and.b32 %r8, %r5, 3;
    setp.eq.u32 %p1, %r8, 0;
    @%p1 st.shared.u32 [%r7], %r4;
    bar.sync 0;
    sub.u32 %r9, %r2, %r1;
    sub.u32 %r9, %r9, 1;
    shl.b32 %r9, %r9, 2;
    add.u32 %r9, %r9, %r6;
    ld.shared.u32 %r10, [%r9];
    st.global.u32 [%rd3], %r10;
    exit;
}
"#;

#[test]
fn shared_memory_per_lane_offsets_match_under_partial_warps() {
    check_row_shapes(SHARED_REV_N, "revn", 1);
}

/// Wide global accesses whose lanes overlap: lane `l` of each warp works at
/// `region + 4 * l`, so a `.u64` load or store of lane `l` shares a word
/// with lane `l + 1`'s — over all lanes and under a data-dependent guard and
/// its complement, read back across the stores. Stores land lane-major (all
/// of lane `l`'s words before lane `l + 1`'s), as the interpreter's do. Each
/// warp has its own 1 KiB region, so CTAs running in parallel share no word.
const ROW_WIDE: &str = r#"
.entry rowwide(.param .u64 buf)
{
    .reg .u32 %r<10>;
    .reg .u64 %rd<10>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [buf];
    mov.u32 %r1, %ctaid.x;
    mov.u32 %r2, %tid.x;
    shr.u32 %r3, %r2, 5;
    shl.b32 %r4, %r1, 1;
    add.u32 %r4, %r4, %r3;
    shl.b32 %r4, %r4, 10;
    and.b32 %r5, %r2, 31;
    shl.b32 %r5, %r5, 2;
    add.u32 %r6, %r4, %r5;
    mul.wide.u32 %rd2, %r6, 1;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.u64 %rd4, [%rd3];
    ld.global.u64 %rd5, [%rd3+136];
    ld.global.u32 %r7, [%rd3+4];
    and.b32 %r8, %r7, 6;
    setp.ne.u32 %p1, %r8, 0;
    add.u64 %rd6, %rd4, %rd2;
    @%p1 st.global.u64 [%rd3], %rd6;
    @!%p1 st.global.u64 [%rd3+4], %rd5;
    st.global.u64 [%rd3+272], %rd4;
    ld.global.u64 %rd7, [%rd3+4];
    @!%p1 ld.global.u64 %rd7, [%rd3+268];
    st.global.u64 [%rd3+408], %rd7;
    @%p1 st.global.u64 [%rd3+412], %rd5;
    exit;
}
"#;

#[test]
fn overlapping_wide_global_rows_land_lane_major_under_guards() {
    check_row_shapes(ROW_WIDE, "rowwide", 8);
}

/// Gathers at addresses taken from the input: a 4-aligned one (every lane
/// in bounds), a byte-granular one (some lanes misaligned) and an 8-aligned
/// `.u64`, all from a read-only first kilobyte, the first under a guard.
const ROW_GATHER: &str = r#"
.entry rowgather(.param .u64 buf)
{
    .reg .u32 %r<16>;
    .reg .u64 %rd<12>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [buf];
    mov.u32 %r1, %ctaid.x;
    mov.u32 %r2, %ntid.x;
    mov.u32 %r3, %tid.x;
    mad.lo.u32 %r1, %r1, %r2, %r3;
    mul.wide.u32 %rd2, %r1, 4;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.u32 %r4, [%rd3];
    and.b32 %r5, %r4, 1020;
    mul.wide.u32 %rd4, %r5, 1;
    add.u64 %rd4, %rd1, %rd4;
    and.b32 %r10, %r4, 1;
    setp.ne.u32 %p1, %r10, 0;
    mov.u32 %r6, 3;
    @%p1 ld.global.u32 %r6, [%rd4];
    shr.u32 %r7, %r4, 10;
    and.b32 %r7, %r7, 1019;
    mul.wide.u32 %rd5, %r7, 1;
    add.u64 %rd5, %rd1, %rd5;
    ld.global.u32 %r8, [%rd5];
    shr.u32 %r9, %r4, 20;
    and.b32 %r9, %r9, 1016;
    mul.wide.u32 %rd6, %r9, 1;
    add.u64 %rd6, %rd1, %rd6;
    ld.global.u64 %rd7, [%rd6];
    mul.wide.u32 %rd8, %r1, 16;
    add.u64 %rd8, %rd1, %rd8;
    st.global.u32 [%rd8+1024], %r6;
    st.global.u32 [%rd8+1028], %r8;
    st.global.u64 [%rd8+1032], %rd7;
    exit;
}
"#;

#[test]
fn gathered_global_loads_match_at_input_addresses() {
    check_row_shapes(ROW_GATHER, "rowgather", 8);
}

/// Parameter loads (`ld.param`, a constant-bank load from a warp-uniform
/// address), also under a data-dependent guard and its complement.
const ROW_PARAM: &str = r#"
.entry rowparam(.param .u64 buf, .param .u32 a, .param .u32 b)
{
    .reg .u32 %r<10>;
    .reg .u64 %rd<6>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [buf];
    ld.param.u32 %r1, [a];
    mov.u32 %r2, %ctaid.x;
    mov.u32 %r3, %ntid.x;
    mov.u32 %r4, %tid.x;
    mad.lo.u32 %r2, %r2, %r3, %r4;
    mul.wide.u32 %rd2, %r2, 16;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.u32 %r5, [%rd3];
    and.b32 %r6, %r5, 6;
    setp.ne.u32 %p1, %r6, 0;
    mov.u32 %r7, 5;
    @%p1 ld.param.u32 %r7, [b];
    mov.u64 %rd4, %rd3;
    @!%p1 ld.param.u64 %rd4, [buf];
    @!%p1 add.u64 %rd4, %rd4, %rd2;
    add.u32 %r8, %r1, %r7;
    st.global.u32 [%rd3+4], %r1;
    st.global.u32 [%rd3+8], %r7;
    st.global.u32 [%rd4+12], %r8;
    exit;
}
"#;

#[test]
fn parameter_loads_match_under_guards() {
    run_cases("rowparam", 4, |rng| {
        let bytes: Vec<u8> = (0..2 * 64 * 4).flat_map(|_| rng.next_u32().to_le_bytes()).collect();
        let (a, b) = (rng.next_u32(), rng.next_u32());
        for block in [1, 17, 33, 64] {
            check(
                ROW_PARAM,
                "rowparam",
                Dim3::linear(2),
                Dim3::linear(block),
                &[Param::Ptr(0), Param::U32(a), Param::U32(b)],
                &bytes,
            );
        }
    });
}

/// Every thread stores its `%tid`, `%ntid` and `%ctaid` at its grid-flat
/// index. The executor computes each warp's thread-index rows once per
/// launch: blocks with a `y` and a `z` extent, whole warps and a partial
/// last one, and a block one thread wide and 33 deep, on a 2-D grid.
const DIMS: &str = r#"
.entry dims(.param .u64 out)
{
    .reg .u32 %r<20>;
    .reg .u64 %rd<4>;
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, %tid.x;
    mov.u32 %r2, %tid.y;
    mov.u32 %r3, %tid.z;
    mov.u32 %r4, %ntid.x;
    mov.u32 %r5, %ntid.y;
    mov.u32 %r6, %ntid.z;
    mov.u32 %r7, %ctaid.x;
    mov.u32 %r8, %ctaid.y;
    mov.u32 %r9, %ctaid.z;
    mov.u32 %r10, %nctaid.x;
    mad.lo.u32 %r11, %r3, %r5, %r2;
    mad.lo.u32 %r11, %r11, %r4, %r1;
    mad.lo.u32 %r12, %r8, %r10, %r7;
    mul.lo.u32 %r13, %r4, %r5;
    mul.lo.u32 %r13, %r13, %r6;
    mad.lo.u32 %r14, %r12, %r13, %r11;
    mul.wide.u32 %rd2, %r14, 36;
    add.u64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r1;
    st.global.u32 [%rd3+4], %r2;
    st.global.u32 [%rd3+8], %r3;
    st.global.u32 [%rd3+12], %r4;
    st.global.u32 [%rd3+16], %r5;
    st.global.u32 [%rd3+20], %r6;
    st.global.u32 [%rd3+24], %r7;
    st.global.u32 [%rd3+28], %r8;
    st.global.u32 [%rd3+32], %r9;
    exit;
}
"#;

#[test]
fn three_dimensional_thread_indices_match() {
    for block in [Dim3::xyz(5, 3, 3), Dim3::xyz(8, 4, 2), Dim3::xyz(1, 2, 33)] {
        check(DIMS, "dims", Dim3::xyz(3, 2, 1), block, &[Param::Ptr(0)], &[]);
    }
}
