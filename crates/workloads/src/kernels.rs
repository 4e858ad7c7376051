//! Shared PTX kernel templates used by the benchmark suite.
//!
//! Each template takes a kernel name so benchmarks can mint *distinct*
//! functions (distinct `CUfunction`s matter for the instrumentation-overhead
//! experiments: the paper's Figure 5 shows JIT overhead growing with the
//! number of unique kernels).

use std::fmt::Write as _;

/// 5-point Jacobi stencil step over the interior of an `h × w` grid:
/// `out[y][x] = 0.25 * (in[y-1][x] + in[y+1][x] + in[y][x-1] + in[y][x+1])`.
///
/// Control flow depends only on the launch geometry — zero sampling error
/// (paper §6.2).
pub fn stencil5(name: &str) -> String {
    format!(
        r#"
.entry {name}(.param .u64 pin, .param .u64 pout, .param .u32 ph, .param .u32 pw)
{{
    .reg .u32 %r<10>;
    .reg .u64 %rd<10>;
    .reg .f32 %f<8>;
    .reg .pred %p<3>;
    ld.param.u64 %rd1, [pin];
    ld.param.u64 %rd2, [pout];
    ld.param.u32 %r1, [ph];
    ld.param.u32 %r2, [pw];
    mov.u32 %r3, %ctaid.x;
    add.u32 %r3, %r3, 1;
    mov.u32 %r4, %ntid.x;
    mov.u32 %r5, %tid.x;
    mov.u32 %r6, %ctaid.y;
    mad.lo.u32 %r5, %r6, %r4, %r5;
    add.u32 %r5, %r5, 1;
    sub.u32 %r7, %r2, 1;
    setp.ge.u32 %p1, %r5, %r7;
    @%p1 bra DONE;
    sub.u32 %r7, %r1, 1;
    setp.ge.u32 %p1, %r3, %r7;
    @%p1 bra DONE;
    mad.lo.u32 %r8, %r3, %r2, %r5;
    mul.wide.u32 %rd3, %r8, 4;
    add.u64 %rd4, %rd1, %rd3;
    mul.wide.u32 %rd5, %r2, 4;
    sub.u64 %rd6, %rd4, %rd5;
    ld.global.f32 %f1, [%rd6];
    add.u64 %rd6, %rd4, %rd5;
    ld.global.f32 %f2, [%rd6];
    ld.global.f32 %f3, [%rd4+-4];
    ld.global.f32 %f4, [%rd4+4];
    add.f32 %f1, %f1, %f2;
    add.f32 %f1, %f1, %f3;
    add.f32 %f1, %f1, %f4;
    mul.f32 %f1, %f1, 0f3E800000;
    add.u64 %rd7, %rd2, %rd3;
    st.global.f32 [%rd7], %f1;
DONE:
    exit;
}}
"#
    )
}

/// Element-wise polynomial + special-function map: `y[i] = f(x[i], c)` with
/// `iters` fused multiply/trig rounds (compute-heavy; omriq-style).
pub fn trig_map(name: &str, iters: u32) -> String {
    let mut body = String::new();
    for _ in 0..iters {
        body.push_str(
            "    sin.approx.f32 %f3, %f1;\n\
             \x20   cos.approx.f32 %f4, %f1;\n\
             \x20   fma.rn.f32 %f1, %f3, %f4, %f2;\n",
        );
    }
    format!(
        ".entry {name}(.param .u64 px, .param .u64 py, .param .u32 pn, .param .f32 pc)\n{{\n\
         \x20   .reg .u32 %r<6>;\n    .reg .u64 %rd<6>;\n    .reg .pred %p<2>;\n\
         \x20   .reg .f32 %f<6>;\n\
         \x20   ld.param.u64 %rd1, [px];\n\
         \x20   ld.param.u64 %rd2, [py];\n\
         \x20   ld.param.u32 %r1, [pn];\n\
         \x20   ld.param.f32 %f2, [pc];\n\
         \x20   mov.u32 %r2, %ctaid.x;\n\
         \x20   mov.u32 %r3, %ntid.x;\n\
         \x20   mov.u32 %r4, %tid.x;\n\
         \x20   mad.lo.u32 %r2, %r2, %r3, %r4;\n\
         \x20   setp.ge.u32 %p1, %r2, %r1;\n\
         \x20   @%p1 bra DONE;\n\
         \x20   mul.wide.u32 %rd3, %r2, 4;\n\
         \x20   add.u64 %rd4, %rd1, %rd3;\n\
         \x20   ld.global.f32 %f1, [%rd4];\n\
         {body}\
         \x20   add.u64 %rd5, %rd2, %rd3;\n\
         \x20   st.global.f32 [%rd5], %f1;\n\
         DONE:\n    exit;\n}}\n"
    )
}

/// `z[i] = a*x[i] + b*y[i]` (swim/palm-style update).
pub fn axpby(name: &str) -> String {
    format!(
        ".entry {name}(.param .u64 px, .param .u64 py, .param .u64 pz, .param .u32 pn, \
.param .f32 pa, .param .f32 pb)\n{{\n\
         \x20   .reg .u32 %r<6>;\n    .reg .u64 %rd<8>;\n    .reg .pred %p<2>;\n\
         \x20   .reg .f32 %f<6>;\n\
         \x20   ld.param.u64 %rd1, [px];\n\
         \x20   ld.param.u64 %rd2, [py];\n\
         \x20   ld.param.u64 %rd3, [pz];\n\
         \x20   ld.param.u32 %r1, [pn];\n\
         \x20   ld.param.f32 %f1, [pa];\n\
         \x20   ld.param.f32 %f2, [pb];\n\
         \x20   mov.u32 %r2, %ctaid.x;\n\
         \x20   mov.u32 %r3, %ntid.x;\n\
         \x20   mov.u32 %r4, %tid.x;\n\
         \x20   mad.lo.u32 %r2, %r2, %r3, %r4;\n\
         \x20   setp.ge.u32 %p1, %r2, %r1;\n\
         \x20   @%p1 bra DONE;\n\
         \x20   mul.wide.u32 %rd4, %r2, 4;\n\
         \x20   add.u64 %rd5, %rd1, %rd4;\n\
         \x20   ld.global.f32 %f3, [%rd5];\n\
         \x20   add.u64 %rd6, %rd2, %rd4;\n\
         \x20   ld.global.f32 %f4, [%rd6];\n\
         \x20   mul.f32 %f3, %f3, %f1;\n\
         \x20   fma.rn.f32 %f3, %f4, %f2, %f3;\n\
         \x20   add.u64 %rd7, %rd3, %rd4;\n\
         \x20   st.global.f32 [%rd7], %f3;\n\
         DONE:\n    exit;\n}}\n"
    )
}

/// Per-thread LCG random walk + atomic histogram (ep-style, atomics-heavy).
pub fn rng_hist(name: &str, steps: u32) -> String {
    format!(
        ".entry {name}(.param .u64 phist, .param .u32 pseed)\n{{\n\
         \x20   .reg .u32 %r<10>;\n    .reg .u64 %rd<6>;\n    .reg .pred %p<2>;\n\
         \x20   ld.param.u64 %rd1, [phist];\n\
         \x20   ld.param.u32 %r1, [pseed];\n\
         \x20   mov.u32 %r2, %ctaid.x;\n\
         \x20   mov.u32 %r3, %ntid.x;\n\
         \x20   mov.u32 %r4, %tid.x;\n\
         \x20   mad.lo.u32 %r2, %r2, %r3, %r4;\n\
         \x20   add.u32 %r5, %r2, %r1;\n\
         \x20   mov.u32 %r6, 0;\n\
         LOOP:\n\
         \x20   setp.ge.u32 %p1, %r6, {steps};\n\
         \x20   @%p1 bra DONE;\n\
         \x20   mul.lo.u32 %r5, %r5, 1664525;\n\
         \x20   add.u32 %r5, %r5, 1013904223;\n\
         \x20   shr.u32 %r7, %r5, 26;\n\
         \x20   mul.wide.u32 %rd2, %r7, 4;\n\
         \x20   add.u64 %rd3, %rd1, %rd2;\n\
         \x20   mov.u32 %r8, 1;\n\
         \x20   red.global.add.u32 [%rd3], %r8;\n\
         \x20   add.u32 %r6, %r6, 1;\n\
         \x20   bra LOOP;\n\
         DONE:\n    exit;\n}}\n"
    )
}

/// CSR sparse matrix–vector product: one thread per row, looping over the
/// row's nonzeros — **data-dependent trip counts** (cg-style; the paper's
/// source of non-zero sampling error).
pub fn spmv_csr(name: &str) -> String {
    format!(
        r#"
.entry {name}(.param .u64 prowptr, .param .u64 pcols, .param .u64 pvals,
              .param .u64 px, .param .u64 py, .param .u32 pnrows)
{{
    .reg .u32 %r<12>;
    .reg .u64 %rd<14>;
    .reg .f32 %f<6>;
    .reg .pred %p<3>;
    ld.param.u64 %rd1, [prowptr];
    ld.param.u64 %rd2, [pcols];
    ld.param.u64 %rd3, [pvals];
    ld.param.u64 %rd4, [px];
    ld.param.u64 %rd5, [py];
    ld.param.u32 %r1, [pnrows];
    mov.u32 %r2, %ctaid.x;
    mov.u32 %r3, %ntid.x;
    mov.u32 %r4, %tid.x;
    mad.lo.u32 %r2, %r2, %r3, %r4;
    setp.ge.u32 %p1, %r2, %r1;
    @%p1 bra DONE;
    mul.wide.u32 %rd6, %r2, 4;
    add.u64 %rd7, %rd1, %rd6;
    ld.global.u32 %r5, [%rd7];
    ld.global.u32 %r6, [%rd7+4];
    mov.f32 %f1, 0f00000000;
LOOP:
    setp.ge.u32 %p2, %r5, %r6;
    @%p2 bra STORE;
    mul.wide.u32 %rd8, %r5, 4;
    add.u64 %rd9, %rd2, %rd8;
    ld.global.u32 %r7, [%rd9];
    add.u64 %rd10, %rd3, %rd8;
    ld.global.f32 %f2, [%rd10];
    mul.wide.u32 %rd11, %r7, 4;
    add.u64 %rd12, %rd4, %rd11;
    ld.global.f32 %f3, [%rd12];
    fma.rn.f32 %f1, %f2, %f3, %f1;
    add.u32 %r5, %r5, 1;
    bra LOOP;
STORE:
    add.u64 %rd13, %rd5, %rd6;
    st.global.f32 [%rd13], %f1;
DONE:
    exit;
}}
"#
    )
}

/// [`spmv_csr`] with its row in device functions: the kernel calls
/// `spmv_row`, whose loop calls `spmv_term` for each nonzero, so the store
/// is in the kernel and the loads two calls deep.
pub fn spmv_calls(name: &str) -> String {
    format!(
        r#"
.func (.reg .f32 %t) spmv_term(.reg .u64 %cols, .reg .u64 %vals, .reg .u64 %x, .reg .u32 %j)
{{
    .reg .u32 %c;
    .reg .u64 %rd<6>;
    .reg .f32 %f<3>;
    mul.wide.u32 %rd1, %j, 4;
    add.u64 %rd2, %cols, %rd1;
    ld.global.u32 %c, [%rd2];
    add.u64 %rd3, %vals, %rd1;
    ld.global.f32 %f1, [%rd3];
    mul.wide.u32 %rd4, %c, 4;
    add.u64 %rd5, %x, %rd4;
    ld.global.f32 %f2, [%rd5];
    mul.f32 %t, %f1, %f2;
    ret;
}}
.func (.reg .f32 %s) spmv_row(.reg .u64 %cols, .reg .u64 %vals, .reg .u64 %x,
                              .reg .u32 %b, .reg .u32 %e)
{{
    .reg .f32 %f<2>;
    .reg .pred %p<2>;
    mov.f32 %s, 0f00000000;
LOOP:
    setp.ge.u32 %p1, %b, %e;
    @%p1 bra DONE;
    call (%f1), spmv_term, (%cols, %vals, %x, %b);
    add.f32 %s, %s, %f1;
    add.u32 %b, %b, 1;
    bra LOOP;
DONE:
    ret;
}}
.entry {name}(.param .u64 prowptr, .param .u64 pcols, .param .u64 pvals,
              .param .u64 px, .param .u64 py, .param .u32 pnrows)
{{
    .reg .u32 %r<8>;
    .reg .u64 %rd<10>;
    .reg .f32 %f<2>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [prowptr];
    ld.param.u64 %rd2, [pcols];
    ld.param.u64 %rd3, [pvals];
    ld.param.u64 %rd4, [px];
    ld.param.u64 %rd5, [py];
    ld.param.u32 %r1, [pnrows];
    mov.u32 %r2, %ctaid.x;
    mov.u32 %r3, %ntid.x;
    mov.u32 %r4, %tid.x;
    mad.lo.u32 %r2, %r2, %r3, %r4;
    setp.ge.u32 %p1, %r2, %r1;
    @%p1 bra DONE;
    mul.wide.u32 %rd6, %r2, 4;
    add.u64 %rd7, %rd1, %rd6;
    ld.global.u32 %r5, [%rd7];
    ld.global.u32 %r6, [%rd7+4];
    call (%f1), spmv_row, (%rd2, %rd3, %rd4, %r5, %r6);
    add.u64 %rd8, %rd5, %rd6;
    st.global.f32 [%rd8], %f1;
DONE:
    exit;
}}
"#
    )
}

/// Molecular-dynamics-style force kernel: per-particle loop over `nn`
/// neighbours with a **data-dependent cutoff branch** (md-style).
pub fn md_force(name: &str) -> String {
    format!(
        r#"
.entry {name}(.param .u64 ppos, .param .u64 pforce, .param .u32 pn, .param .u32 pnn,
              .param .f32 pcut)
{{
    .reg .u32 %r<12>;
    .reg .u64 %rd<12>;
    .reg .f32 %f<12>;
    .reg .pred %p<4>;
    ld.param.u64 %rd1, [ppos];
    ld.param.u64 %rd2, [pforce];
    ld.param.u32 %r1, [pn];
    ld.param.u32 %r2, [pnn];
    ld.param.f32 %f1, [pcut];
    mov.u32 %r3, %ctaid.x;
    mov.u32 %r4, %ntid.x;
    mov.u32 %r5, %tid.x;
    mad.lo.u32 %r3, %r3, %r4, %r5;
    setp.ge.u32 %p1, %r3, %r1;
    @%p1 bra DONE;
    mul.wide.u32 %rd3, %r3, 4;
    add.u64 %rd4, %rd1, %rd3;
    ld.global.f32 %f2, [%rd4];
    mov.f32 %f3, 0f00000000;
    mov.u32 %r6, 0;
LOOP:
    setp.ge.u32 %p2, %r6, %r2;
    @%p2 bra STORE;
    add.u32 %r7, %r3, %r6;
    add.u32 %r7, %r7, 1;
    rem_free:
    // wrap: j = (i + k + 1) mod n  (poor man's modulo via compare)
    setp.lt.u32 %p3, %r7, %r1;
    @%p3 bra NOWRAP;
    sub.u32 %r7, %r7, %r1;
NOWRAP:
    mul.wide.u32 %rd5, %r7, 4;
    add.u64 %rd6, %rd1, %rd5;
    ld.global.f32 %f4, [%rd6];
    sub.f32 %f5, %f2, %f4;
    mul.f32 %f6, %f5, %f5;
    // Data-dependent cutoff: contributes only when r2 < cut.
    setp.ge.f32 %p3, %f6, %f1;
    @%p3 bra SKIP;
    rcp.approx.f32 %f7, %f6;
    fma.rn.f32 %f3, %f7, %f5, %f3;
SKIP:
    add.u32 %r6, %r6, 1;
    bra LOOP;
STORE:
    add.u64 %rd7, %rd2, %rd3;
    st.global.f32 [%rd7], %f3;
DONE:
    exit;
}}
"#
    )
}

/// Lattice-Boltzmann-style streaming step with `dirs` shifted copies.
pub fn lbm_stream(name: &str, dirs: u32) -> String {
    let mut body = String::new();
    for d in 0..dirs {
        let off = (d + 1) * 4;
        let _ = write!(
            body,
            "    ld.global.f32 %f1, [%rd4+{off}];\n\
             \x20   fma.rn.f32 %f2, %f1, 0f3DCCCCCD, %f2;\n"
        );
    }
    format!(
        ".entry {name}(.param .u64 pin, .param .u64 pout, .param .u32 pn)\n{{\n\
         \x20   .reg .u32 %r<6>;\n    .reg .u64 %rd<6>;\n    .reg .pred %p<2>;\n\
         \x20   .reg .f32 %f<6>;\n\
         \x20   ld.param.u64 %rd1, [pin];\n\
         \x20   ld.param.u64 %rd2, [pout];\n\
         \x20   ld.param.u32 %r1, [pn];\n\
         \x20   mov.u32 %r2, %ctaid.x;\n\
         \x20   mov.u32 %r3, %ntid.x;\n\
         \x20   mov.u32 %r4, %tid.x;\n\
         \x20   mad.lo.u32 %r2, %r2, %r3, %r4;\n\
         \x20   setp.ge.u32 %p1, %r2, %r1;\n\
         \x20   @%p1 bra DONE;\n\
         \x20   mul.wide.u32 %rd3, %r2, 4;\n\
         \x20   add.u64 %rd4, %rd1, %rd3;\n\
         \x20   ld.global.f32 %f2, [%rd4];\n\
         {body}\
         \x20   add.u64 %rd5, %rd2, %rd3;\n\
         \x20   st.global.f32 [%rd5], %f2;\n\
         DONE:\n    exit;\n}}\n"
    )
}

/// Block-level sum reduction into a global accumulator (miniGhost-style).
pub fn reduce_sum(name: &str) -> String {
    format!(
        r#"
.entry {name}(.param .u64 px, .param .u64 pout, .param .u32 pn)
{{
    .reg .u32 %r<10>;
    .reg .u64 %rd<6>;
    .reg .f32 %f<6>;
    .reg .pred %p<3>;
    ld.param.u64 %rd1, [px];
    ld.param.u64 %rd2, [pout];
    ld.param.u32 %r1, [pn];
    mov.u32 %r2, %ctaid.x;
    mov.u32 %r3, %ntid.x;
    mov.u32 %r4, %tid.x;
    mad.lo.u32 %r2, %r2, %r3, %r4;
    mov.f32 %f1, 0f00000000;
    setp.ge.u32 %p1, %r2, %r1;
    @%p1 bra REDUCE;
    mul.wide.u32 %rd3, %r2, 4;
    add.u64 %rd4, %rd1, %rd3;
    ld.global.f32 %f1, [%rd4];
REDUCE:
    shfl.bfly.b32 %r5, %f1, 16;
    mov.f32 %f2, %r5;
    add.f32 %f1, %f1, %f2;
    shfl.bfly.b32 %r5, %f1, 8;
    mov.f32 %f2, %r5;
    add.f32 %f1, %f1, %f2;
    shfl.bfly.b32 %r5, %f1, 4;
    mov.f32 %f2, %r5;
    add.f32 %f1, %f1, %f2;
    shfl.bfly.b32 %r5, %f1, 2;
    mov.f32 %f2, %r5;
    add.f32 %f1, %f1, %f2;
    shfl.bfly.b32 %r5, %f1, 1;
    mov.f32 %f2, %r5;
    add.f32 %f1, %f1, %f2;
    mov.u32 %r6, %laneid;
    setp.ne.u32 %p2, %r6, 0;
    @%p2 bra DONE;
    red.global.add.f32 [%rd2], %f1;
DONE:
    exit;
}}
"#
    )
}

/// Line-sweep kernel: each thread owns a row and performs a forward
/// recurrence (sp/bt-style).
pub fn line_sweep(name: &str) -> String {
    format!(
        r#"
.entry {name}(.param .u64 pdata, .param .u32 ph, .param .u32 pw)
{{
    .reg .u32 %r<10>;
    .reg .u64 %rd<8>;
    .reg .f32 %f<6>;
    .reg .pred %p<3>;
    ld.param.u64 %rd1, [pdata];
    ld.param.u32 %r1, [ph];
    ld.param.u32 %r2, [pw];
    mov.u32 %r3, %ctaid.x;
    mov.u32 %r4, %ntid.x;
    mov.u32 %r5, %tid.x;
    mad.lo.u32 %r3, %r3, %r4, %r5;
    setp.ge.u32 %p1, %r3, %r1;
    @%p1 bra DONE;
    mul.lo.u32 %r6, %r3, %r2;
    mul.wide.u32 %rd2, %r6, 4;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.f32 %f1, [%rd3];
    mov.u32 %r7, 1;
LOOP:
    setp.ge.u32 %p2, %r7, %r2;
    @%p2 bra DONE;
    mul.wide.u32 %rd4, %r7, 4;
    add.u64 %rd5, %rd3, %rd4;
    ld.global.f32 %f2, [%rd5];
    fma.rn.f32 %f1, %f1, 0f3F000000, %f2;
    st.global.f32 [%rd5], %f1;
    add.u32 %r7, %r7, 1;
    bra LOOP;
DONE:
    exit;
}}
"#
    )
}

/// A short "unique kernel" for the ilbdc-style many-kernels benchmark; the
/// constant folding makes every variant genuinely distinct code.
pub fn short_unique(name: &str, variant: u32) -> String {
    let c1 = 0x3f80_0000u32 + variant * 0x1000; // distinct f32 constants
    let shift = (variant % 5) + 1;
    format!(
        ".entry {name}(.param .u64 px, .param .u32 pn)\n{{\n\
         \x20   .reg .u32 %r<8>;\n    .reg .u64 %rd<5>;\n    .reg .pred %p<2>;\n\
         \x20   .reg .f32 %f<4>;\n\
         \x20   ld.param.u64 %rd1, [px];\n\
         \x20   ld.param.u32 %r1, [pn];\n\
         \x20   mov.u32 %r2, %ctaid.x;\n\
         \x20   mov.u32 %r3, %ntid.x;\n\
         \x20   mov.u32 %r4, %tid.x;\n\
         \x20   mad.lo.u32 %r2, %r2, %r3, %r4;\n\
         \x20   setp.ge.u32 %p1, %r2, %r1;\n\
         \x20   @%p1 bra DONE;\n\
         \x20   shl.b32 %r5, %r2, {shift};\n\
         \x20   xor.b32 %r5, %r5, %r2;\n\
         \x20   mul.wide.u32 %rd2, %r2, 4;\n\
         \x20   add.u64 %rd3, %rd1, %rd2;\n\
         \x20   ld.global.f32 %f1, [%rd3];\n\
         \x20   fma.rn.f32 %f1, %f1, 0f{c1:08X}, %f1;\n\
         \x20   st.global.f32 [%rd3], %f1;\n\
         DONE:\n    exit;\n}}\n"
    )
}

/// Naive matrix transpose with uncoalesced writes — the archetypal
/// "framework-native glue kernel" with poor memory behaviour (used by the
/// ML models to contrast with library kernels, paper Figure 6).
pub fn transpose_naive(name: &str) -> String {
    format!(
        r#"
.entry {name}(.param .u64 pin, .param .u64 pout, .param .u32 ph, .param .u32 pw)
{{
    .reg .u32 %r<10>;
    .reg .u64 %rd<8>;
    .reg .f32 %f<3>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [pin];
    ld.param.u64 %rd2, [pout];
    ld.param.u32 %r1, [ph];
    ld.param.u32 %r2, [pw];
    mov.u32 %r3, %ctaid.x;
    mov.u32 %r4, %ntid.x;
    mov.u32 %r5, %tid.x;
    mad.lo.u32 %r3, %r3, %r4, %r5;
    mul.lo.u32 %r6, %r1, %r2;
    setp.ge.u32 %p1, %r3, %r6;
    @%p1 bra DONE;
    // y = i / w, x = i % w  (via multiply-free loop-less shift math is not
    // available; emulate div by repeated subtraction is too slow — use the
    // row-per-block mapping instead: ctaid.y = row)
    mov.u32 %r7, %ctaid.y;
    setp.ge.u32 %p1, %r5, %r2;
    @%p1 bra DONE;
    setp.ge.u32 %p1, %r7, %r1;
    @%p1 bra DONE;
    mad.lo.u32 %r8, %r7, %r2, %r5;
    mul.wide.u32 %rd3, %r8, 4;
    add.u64 %rd4, %rd1, %rd3;
    ld.global.f32 %f1, [%rd4];
    mad.lo.u32 %r9, %r5, %r1, %r7;
    mul.wide.u32 %rd5, %r9, 4;
    add.u64 %rd6, %rd2, %rd5;
    st.global.f32 [%rd6], %f1;
DONE:
    exit;
}}
"#
    )
}

/// Index-gather kernel with data-driven (scattered) reads — another
/// divergent framework-native pattern.
pub fn gather(name: &str) -> String {
    format!(
        r#"
.entry {name}(.param .u64 pidx, .param .u64 pin, .param .u64 pout, .param .u32 pn)
{{
    .reg .u32 %r<8>;
    .reg .u64 %rd<10>;
    .reg .f32 %f<3>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [pidx];
    ld.param.u64 %rd2, [pin];
    ld.param.u64 %rd3, [pout];
    ld.param.u32 %r1, [pn];
    mov.u32 %r2, %ctaid.x;
    mov.u32 %r3, %ntid.x;
    mov.u32 %r4, %tid.x;
    mad.lo.u32 %r2, %r2, %r3, %r4;
    setp.ge.u32 %p1, %r2, %r1;
    @%p1 bra DONE;
    mul.wide.u32 %rd4, %r2, 4;
    add.u64 %rd5, %rd1, %rd4;
    ld.global.u32 %r5, [%rd5];
    mul.wide.u32 %rd6, %r5, 4;
    add.u64 %rd7, %rd2, %rd6;
    ld.global.f32 %f1, [%rd7];
    add.u64 %rd8, %rd3, %rd4;
    st.global.f32 [%rd8], %f1;
DONE:
    exit;
}}
"#
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sass::Arch;

    #[test]
    fn every_template_compiles_on_every_arch() {
        let sources = vec![
            stencil5("t_stencil"),
            trig_map("t_trig", 4),
            axpby("t_axpby"),
            rng_hist("t_rng", 16),
            spmv_csr("t_spmv"),
            md_force("t_md"),
            lbm_stream("t_lbm", 8),
            reduce_sum("t_reduce"),
            line_sweep("t_sweep"),
            short_unique("t_uniq", 3),
            transpose_naive("t_transpose"),
            gather("t_gather"),
        ];
        let module = sources.join("\n");
        for arch in Arch::ALL {
            ptx::compile_module(&module, arch)
                .unwrap_or_else(|e| panic!("template failed on {arch}: {e}"));
        }
    }

    #[test]
    fn unique_variants_produce_distinct_code() {
        let a = ptx::compile_module(&short_unique("k", 1), Arch::Volta).unwrap();
        let b = ptx::compile_module(&short_unique("k", 2), Arch::Volta).unwrap();
        assert_ne!(a.functions[0].code, b.functions[0].code);
    }
}
