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
fn check(src: &str, kernel: &str, grid: u32, block: u32, params: &[Param], arena_init: &[u8]) {
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
    interpret_entry(&m, kernel, LaunchGrid::linear(grid, block), &iparams, &mut imem)
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

        let mut cfg = LaunchConfig::new(entry, Dim3::linear(grid), Dim3::linear(block));
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
        4,
        64,
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
    check(DIVERGE, "diverge", 1, 32, &[Param::Ptr(0)], &[]);
    check(DIVERGE, "diverge", 2, 96, &[Param::Ptr(0)], &[]);
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
    check(TRIANGLE, "tri", 1, 32, &[Param::Ptr(0)], &[]);
    check(TRIANGLE, "tri", 3, 64, &[Param::Ptr(0)], &[]);
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
    check(SHARED_REV, "rev", 1, 32, &[Param::Ptr(0)], &init);
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
    check(WARP_REDUCE, "wsum", 1, 64, &[Param::Ptr(0)], &[]);
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
    check(ATOMICS, "hist", 4, 32, &[Param::Ptr(0), Param::Ptr(4096)], &data);
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
    check(CALLS, "k", 2, 32, &[Param::Ptr(0)], &[]);
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
    check(MATHY, "mathy", 2, 32, &[Param::Ptr(0)], &init);
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
    check(DOUBLES, "dbl", 1, 32, &[Param::Ptr(0)], &init);
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
    check(SELP_MINMAX, "clampk", 2, 32, &[Param::Ptr(0), Param::U32(10), Param::U32(80)], &init);
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
            blocks,
            threads,
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
        check(ATOMICS, "hist", 4, 32, &[Param::Ptr(0), Param::Ptr(4096)], &bytes);
    });
}

/// Divergence patterns driven by arbitrary input data reconverge
/// identically.
#[test]
fn prop_divergence_random_geometry() {
    run_cases("prop_divergence_random_geometry", 16, |rng| {
        let blocks = rng.gen_range(1u32..3);
        let threads = *rng.choose(&[32u32, 64, 128]);
        check(DIVERGE, "diverge", blocks, threads, &[Param::Ptr(0)], &[]);
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
        check(&src, "rnd", 1, 64, &[Param::Ptr(0)], &[]);
    });
}
