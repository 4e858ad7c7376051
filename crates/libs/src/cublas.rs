//! Mini-cuBLAS: a GEMM/BLAS-1 library shipped as a SASS-only binary.
//!
//! Mirrors the paper's observation that cuBLAS carries *dozens of similar
//! kernels* with different precisions, transpositions and unroll factors —
//! the host wrapper dispatches among them per call.

use cuda::{CuContext, CuFunction, CuModule, Driver, KernelArg};
use gpu::{Dim3, LaunchStats};
use std::fmt::Write as _;

/// Threads per block used by the library's 1-D kernels.
const BLOCK: u32 = 128;

/// Generates one GEMM kernel variant.
///
/// `ta`/`tb` select transposition of A/B; `wide` selects f64; `unroll` is
/// the K-loop unroll factor (1, 2 or 4; callers must ensure divisibility).
fn gemm_kernel(name: &str, ta: bool, tb: bool, wide: bool, unroll: u32) -> String {
    let (fty, fsz, f0) =
        if wide { ("f64", 8, "0d0000000000000000") } else { ("f32", 4, "0f00000000") };
    let freg = if wide { "%d" } else { "%f" };
    let mut s = String::new();
    let _ = write!(
        s,
        ".entry {name}(.param .u64 pa, .param .u64 pb, .param .u64 pc, \
.param .u32 pm, .param .u32 pn, .param .u32 pk, .param .{fty} palpha, .param .{fty} pbeta)\n{{\n"
    );
    s.push_str("    .reg .u32 %r<12>;\n    .reg .u64 %rd<12>;\n    .reg .pred %p<3>;\n");
    let _ = writeln!(s, "    .reg .{fty} {freg}<10>;");
    s.push_str(
        "    ld.param.u64 %rd1, [pa];\n\
         \x20   ld.param.u64 %rd2, [pb];\n\
         \x20   ld.param.u64 %rd3, [pc];\n\
         \x20   ld.param.u32 %r1, [pm];\n\
         \x20   ld.param.u32 %r2, [pn];\n\
         \x20   ld.param.u32 %r3, [pk];\n",
    );
    let _ = writeln!(s, "    ld.param.{fty} {freg}1, [palpha];");
    let _ = writeln!(s, "    ld.param.{fty} {freg}2, [pbeta];");
    // col = ctaid.x * ntid.x + tid.x; row = ctaid.y
    s.push_str(
        "    mov.u32 %r4, %ctaid.x;\n\
         \x20   mov.u32 %r5, %ntid.x;\n\
         \x20   mov.u32 %r6, %tid.x;\n\
         \x20   mad.lo.u32 %r4, %r4, %r5, %r6;\n\
         \x20   mov.u32 %r5, %ctaid.y;\n\
         \x20   setp.ge.u32 %p1, %r4, %r2;\n\
         \x20   @%p1 bra DONE;\n\
         \x20   setp.ge.u32 %p1, %r5, %r1;\n\
         \x20   @%p1 bra DONE;\n",
    );
    let _ = writeln!(s, "    mov.{fty} {freg}3, {f0};");
    s.push_str("    mov.u32 %r7, 0;\n");
    // A element stream: nn/nt => &A[row*K], step elem; tn/tt => &A[row], step M*elem.
    if !ta {
        s.push_str("    mul.lo.u32 %r8, %r5, %r3;\n"); // row*K
        let _ = writeln!(s, "    mul.wide.u32 %rd4, %r8, {fsz};");
        s.push_str("    add.u64 %rd4, %rd1, %rd4;\n");
        let _ = writeln!(s, "    mov.u64 %rd8, {fsz};");
    } else {
        let _ = writeln!(s, "    mul.wide.u32 %rd4, %r5, {fsz};");
        s.push_str("    add.u64 %rd4, %rd1, %rd4;\n");
        let _ = writeln!(s, "    mul.wide.u32 %rd8, %r1, {fsz};");
    }
    // B element stream: nn => &B[col], step N*elem; nt => &B[col*K], step elem.
    if !tb {
        let _ = writeln!(s, "    mul.wide.u32 %rd5, %r4, {fsz};");
        s.push_str("    add.u64 %rd5, %rd2, %rd5;\n");
        let _ = writeln!(s, "    mul.wide.u32 %rd9, %r2, {fsz};");
    } else {
        s.push_str("    mul.lo.u32 %r8, %r4, %r3;\n"); // col*K
        let _ = writeln!(s, "    mul.wide.u32 %rd5, %r8, {fsz};");
        s.push_str("    add.u64 %rd5, %rd2, %rd5;\n");
        let _ = writeln!(s, "    mov.u64 %rd9, {fsz};");
    }
    s.push_str("LOOP:\n    setp.ge.u32 %p1, %r7, %r3;\n    @%p1 bra STORE;\n");
    for _ in 0..unroll {
        let _ = writeln!(s, "    ld.global.{fty} {freg}4, [%rd4];");
        let _ = writeln!(s, "    ld.global.{fty} {freg}5, [%rd5];");
        let _ = writeln!(s, "    fma.rn.{fty} {freg}3, {freg}4, {freg}5, {freg}3;");
        s.push_str("    add.u64 %rd4, %rd4, %rd8;\n    add.u64 %rd5, %rd5, %rd9;\n");
    }
    let _ = writeln!(s, "    add.u32 %r7, %r7, {unroll};");
    s.push_str("    bra LOOP;\nSTORE:\n");
    s.push_str("    mad.lo.u32 %r9, %r5, %r2, %r4;\n");
    let _ = writeln!(s, "    mul.wide.u32 %rd6, %r9, {fsz};");
    s.push_str("    add.u64 %rd6, %rd3, %rd6;\n");
    let _ = writeln!(s, "    ld.global.{fty} {freg}6, [%rd6];");
    let _ = writeln!(s, "    mul.{fty} {freg}6, {freg}6, {freg}2;");
    let _ = writeln!(s, "    fma.rn.{fty} {freg}6, {freg}3, {freg}1, {freg}6;");
    let _ = writeln!(s, "    st.global.{fty} [%rd6], {freg}6;");
    s.push_str("DONE:\n    exit;\n}\n");
    s
}

/// Generates an AXPY kernel: `y[i] = a*x[i] + y[i]`.
fn axpy_kernel(name: &str, wide: bool) -> String {
    let (fty, fsz) = if wide { ("f64", 8) } else { ("f32", 4) };
    let freg = if wide { "%d" } else { "%f" };
    format!(
        ".entry {name}(.param .u64 px, .param .u64 py, .param .u32 pn, .param .{fty} pa)\n{{\n\
         \x20   .reg .u32 %r<6>;\n    .reg .u64 %rd<6>;\n    .reg .pred %p<2>;\n\
         \x20   .reg .{fty} {freg}<8>;\n\
         \x20   ld.param.u64 %rd1, [px];\n\
         \x20   ld.param.u64 %rd2, [py];\n\
         \x20   ld.param.u32 %r1, [pn];\n\
         \x20   ld.param.{fty} {freg}1, [pa];\n\
         \x20   mov.u32 %r2, %ctaid.x;\n\
         \x20   mov.u32 %r3, %ntid.x;\n\
         \x20   mov.u32 %r4, %tid.x;\n\
         \x20   mad.lo.u32 %r2, %r2, %r3, %r4;\n\
         \x20   setp.ge.u32 %p1, %r2, %r1;\n\
         \x20   @%p1 bra DONE;\n\
         \x20   mul.wide.u32 %rd3, %r2, {fsz};\n\
         \x20   add.u64 %rd4, %rd1, %rd3;\n\
         \x20   ld.global.{fty} {freg}2, [%rd4];\n\
         \x20   add.u64 %rd5, %rd2, %rd3;\n\
         \x20   ld.global.{fty} {freg}3, [%rd5];\n\
         \x20   fma.rn.{fty} {freg}3, {freg}2, {freg}1, {freg}3;\n\
         \x20   st.global.{fty} [%rd5], {freg}3;\n\
         DONE:\n    exit;\n}}\n"
    )
}

/// Generates the scale kernel: `x[i] *= a`.
fn scal_kernel(name: &str, wide: bool) -> String {
    let (fty, fsz) = if wide { ("f64", 8) } else { ("f32", 4) };
    let freg = if wide { "%d" } else { "%f" };
    format!(
        ".entry {name}(.param .u64 px, .param .u32 pn, .param .{fty} pa)\n{{\n\
         \x20   .reg .u32 %r<6>;\n    .reg .u64 %rd<5>;\n    .reg .pred %p<2>;\n\
         \x20   .reg .{fty} {freg}<4>;\n\
         \x20   ld.param.u64 %rd1, [px];\n\
         \x20   ld.param.u32 %r1, [pn];\n\
         \x20   ld.param.{fty} {freg}1, [pa];\n\
         \x20   mov.u32 %r2, %ctaid.x;\n\
         \x20   mov.u32 %r3, %ntid.x;\n\
         \x20   mov.u32 %r4, %tid.x;\n\
         \x20   mad.lo.u32 %r2, %r2, %r3, %r4;\n\
         \x20   setp.ge.u32 %p1, %r2, %r1;\n\
         \x20   @%p1 bra DONE;\n\
         \x20   mul.wide.u32 %rd2, %r2, {fsz};\n\
         \x20   add.u64 %rd3, %rd1, %rd2;\n\
         \x20   ld.global.{fty} {freg}2, [%rd3];\n\
         \x20   mul.{fty} {freg}2, {freg}2, {freg}1;\n\
         \x20   st.global.{fty} [%rd3], {freg}2;\n\
         DONE:\n    exit;\n}}\n"
    )
}

/// Generates the copy kernel: `y[i] = x[i]`.
fn copy_kernel(name: &str) -> String {
    format!(
        ".entry {name}(.param .u64 px, .param .u64 py, .param .u32 pn)\n{{\n\
         \x20   .reg .u32 %r<6>;\n    .reg .u64 %rd<6>;\n    .reg .pred %p<2>;\n\
         \x20   .reg .f32 %f<3>;\n\
         \x20   ld.param.u64 %rd1, [px];\n\
         \x20   ld.param.u64 %rd2, [py];\n\
         \x20   ld.param.u32 %r1, [pn];\n\
         \x20   mov.u32 %r2, %ctaid.x;\n\
         \x20   mov.u32 %r3, %ntid.x;\n\
         \x20   mov.u32 %r4, %tid.x;\n\
         \x20   mad.lo.u32 %r2, %r2, %r3, %r4;\n\
         \x20   setp.ge.u32 %p1, %r2, %r1;\n\
         \x20   @%p1 bra DONE;\n\
         \x20   mul.wide.u32 %rd3, %r2, 4;\n\
         \x20   add.u64 %rd4, %rd1, %rd3;\n\
         \x20   ld.global.f32 %f1, [%rd4];\n\
         \x20   add.u64 %rd5, %rd2, %rd3;\n\
         \x20   st.global.f32 [%rd5], %f1;\n\
         DONE:\n    exit;\n}}\n"
    )
}

/// Generates the dot-product kernel (warp-shuffle reduction + one atomic
/// per warp): `*out += sum(x[i]*y[i])`.
fn dot_kernel(name: &str) -> String {
    format!(
        ".entry {name}(.param .u64 px, .param .u64 py, .param .u64 pout, .param .u32 pn)\n{{\n\
         \x20   .reg .u32 %r<8>;\n    .reg .u64 %rd<7>;\n    .reg .pred %p<3>;\n\
         \x20   .reg .f32 %f<8>;\n\
         \x20   ld.param.u64 %rd1, [px];\n\
         \x20   ld.param.u64 %rd2, [py];\n\
         \x20   ld.param.u64 %rd3, [pout];\n\
         \x20   ld.param.u32 %r1, [pn];\n\
         \x20   mov.u32 %r2, %ctaid.x;\n\
         \x20   mov.u32 %r3, %ntid.x;\n\
         \x20   mov.u32 %r4, %tid.x;\n\
         \x20   mad.lo.u32 %r2, %r2, %r3, %r4;\n\
         \x20   mov.f32 %f1, 0f00000000;\n\
         \x20   setp.ge.u32 %p1, %r2, %r1;\n\
         \x20   @%p1 bra REDUCE;\n\
         \x20   mul.wide.u32 %rd4, %r2, 4;\n\
         \x20   add.u64 %rd5, %rd1, %rd4;\n\
         \x20   ld.global.f32 %f2, [%rd5];\n\
         \x20   add.u64 %rd6, %rd2, %rd4;\n\
         \x20   ld.global.f32 %f3, [%rd6];\n\
         \x20   mul.f32 %f1, %f2, %f3;\n\
         REDUCE:\n\
         \x20   shfl.bfly.b32 %r5, %f1, 16;\n\
         \x20   mov.f32 %f4, %r5;\n\
         \x20   add.f32 %f1, %f1, %f4;\n\
         \x20   shfl.bfly.b32 %r5, %f1, 8;\n\
         \x20   mov.f32 %f4, %r5;\n\
         \x20   add.f32 %f1, %f1, %f4;\n\
         \x20   shfl.bfly.b32 %r5, %f1, 4;\n\
         \x20   mov.f32 %f4, %r5;\n\
         \x20   add.f32 %f1, %f1, %f4;\n\
         \x20   shfl.bfly.b32 %r5, %f1, 2;\n\
         \x20   mov.f32 %f4, %r5;\n\
         \x20   add.f32 %f1, %f1, %f4;\n\
         \x20   shfl.bfly.b32 %r5, %f1, 1;\n\
         \x20   mov.f32 %f4, %r5;\n\
         \x20   add.f32 %f1, %f1, %f4;\n\
         \x20   mov.u32 %r6, %laneid;\n\
         \x20   setp.ne.u32 %p2, %r6, 0;\n\
         \x20   @%p2 bra DONE;\n\
         \x20   red.global.add.f32 [%rd3], %f1;\n\
         DONE:\n    exit;\n}}\n"
    )
}

/// The full mini-cuBLAS PTX source (every kernel variant).
pub fn ptx_source() -> String {
    let mut src = String::from(".version 6.0\n");
    for (ta, tb, tn) in
        [(false, false, "nn"), (false, true, "nt"), (true, false, "tn"), (true, true, "tt")]
    {
        src.push_str(&gemm_kernel(&format!("sgemm_{tn}_v1"), ta, tb, false, 1));
        src.push_str(&gemm_kernel(&format!("dgemm_{tn}_v1"), ta, tb, true, 1));
    }
    for (tn, ta, tb) in [("nn", false, false), ("nt", false, true)] {
        src.push_str(&gemm_kernel(&format!("sgemm_{tn}_u2"), ta, tb, false, 2));
        src.push_str(&gemm_kernel(&format!("sgemm_{tn}_u4"), ta, tb, false, 4));
        src.push_str(&gemm_kernel(&format!("dgemm_{tn}_u2"), ta, tb, true, 2));
    }
    src.push_str(&axpy_kernel("saxpy", false));
    src.push_str(&axpy_kernel("daxpy", true));
    src.push_str(&scal_kernel("sscal", false));
    src.push_str(&scal_kernel("dscal", true));
    src.push_str(&copy_kernel("scopy"));
    src.push_str(&dot_kernel("sdot"));
    src
}

/// Whether A/B are transposed in a GEMM call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transpose {
    /// Not transposed.
    N,
    /// Transposed.
    T,
}

/// Host-side handle to the loaded mini-cuBLAS module.
pub struct Cublas {
    module: CuModule,
}

impl Cublas {
    /// Loads the library into a context.
    ///
    /// # Errors
    ///
    /// Driver failures.
    pub fn load(drv: &Driver, ctx: &CuContext) -> cuda::Result<Cublas> {
        let module = drv.module_load(ctx, crate::cublas_fatbin().clone())?;
        Ok(Cublas { module })
    }

    /// The underlying module handle.
    pub fn module(&self) -> CuModule {
        self.module
    }

    fn func(&self, drv: &Driver, name: &str) -> cuda::Result<CuFunction> {
        drv.module_get_function(&self.module, name)
    }

    fn gemm_grid(m: u32, n: u32) -> (Dim3, Dim3) {
        (Dim3::xyz(n.div_ceil(BLOCK), m, 1), Dim3::linear(BLOCK.min(n.max(1))))
    }

    /// Single-precision GEMM: `C = alpha * opA(A) * opB(B) + beta * C`
    /// with row-major `M×K`/`K×N`/`M×N` operands. Dispatches among the
    /// library's kernel variants by transposition and unroll divisibility.
    ///
    /// # Errors
    ///
    /// Driver failures.
    #[allow(clippy::too_many_arguments)]
    pub fn sgemm(
        &self,
        drv: &Driver,
        ta: Transpose,
        tb: Transpose,
        m: u32,
        n: u32,
        k: u32,
        alpha: f32,
        a: u64,
        b: u64,
        beta: f32,
        c: u64,
    ) -> cuda::Result<LaunchStats> {
        let tn = match (ta, tb) {
            (Transpose::N, Transpose::N) => "nn",
            (Transpose::N, Transpose::T) => "nt",
            (Transpose::T, Transpose::N) => "tn",
            (Transpose::T, Transpose::T) => "tt",
        };
        // Variant dispatch, cuBLAS-style.
        let name = if matches!(tn, "nn" | "nt") && k.is_multiple_of(4) && k > 0 {
            format!("sgemm_{tn}_u4")
        } else if matches!(tn, "nn" | "nt") && k.is_multiple_of(2) && k > 0 {
            format!("sgemm_{tn}_u2")
        } else {
            format!("sgemm_{tn}_v1")
        };
        let f = self.func(drv, &name)?;
        let (grid, block) = Self::gemm_grid(m, n);
        drv.launch_kernel(
            &f,
            grid,
            block,
            &[
                KernelArg::Ptr(a),
                KernelArg::Ptr(b),
                KernelArg::Ptr(c),
                KernelArg::U32(m),
                KernelArg::U32(n),
                KernelArg::U32(k),
                KernelArg::F32(alpha),
                KernelArg::F32(beta),
            ],
        )
    }

    /// Convenience non-transposed single-precision GEMM.
    #[allow(clippy::too_many_arguments)]
    pub fn sgemm_nn(
        &self,
        drv: &Driver,
        m: u32,
        n: u32,
        k: u32,
        alpha: f32,
        a: u64,
        b: u64,
        beta: f32,
        c: u64,
    ) -> cuda::Result<LaunchStats> {
        self.sgemm(drv, Transpose::N, Transpose::N, m, n, k, alpha, a, b, beta, c)
    }

    /// `y = a*x + y` over `n` f32 elements.
    ///
    /// # Errors
    ///
    /// Driver failures.
    pub fn saxpy(&self, drv: &Driver, n: u32, a: f32, x: u64, y: u64) -> cuda::Result<LaunchStats> {
        let f = self.func(drv, "saxpy")?;
        drv.launch_kernel(
            &f,
            Dim3::linear(n.div_ceil(BLOCK).max(1)),
            Dim3::linear(BLOCK.min(n.max(1))),
            &[KernelArg::Ptr(x), KernelArg::Ptr(y), KernelArg::U32(n), KernelArg::F32(a)],
        )
    }

    /// `x *= a` over `n` f32 elements.
    ///
    /// # Errors
    ///
    /// Driver failures.
    pub fn sscal(&self, drv: &Driver, n: u32, a: f32, x: u64) -> cuda::Result<LaunchStats> {
        let f = self.func(drv, "sscal")?;
        drv.launch_kernel(
            &f,
            Dim3::linear(n.div_ceil(BLOCK).max(1)),
            Dim3::linear(BLOCK.min(n.max(1))),
            &[KernelArg::Ptr(x), KernelArg::U32(n), KernelArg::F32(a)],
        )
    }

    /// `*out += dot(x, y)` over `n` f32 elements (`out` must be zeroed by
    /// the caller first).
    ///
    /// # Errors
    ///
    /// Driver failures.
    pub fn sdot(
        &self,
        drv: &Driver,
        n: u32,
        x: u64,
        y: u64,
        out: u64,
    ) -> cuda::Result<LaunchStats> {
        let f = self.func(drv, "sdot")?;
        drv.launch_kernel(
            &f,
            Dim3::linear(n.div_ceil(BLOCK).max(1)),
            Dim3::linear(BLOCK.min(n.max(1))),
            &[KernelArg::Ptr(x), KernelArg::Ptr(y), KernelArg::Ptr(out), KernelArg::U32(n)],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu::DeviceSpec;
    use sass::Arch;

    fn upload_f32(drv: &Driver, vals: &[f32]) -> u64 {
        let a = drv.mem_alloc((vals.len() * 4) as u64).unwrap();
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
        drv.memcpy_htod(a, &bytes).unwrap();
        a
    }

    fn download_f32(drv: &Driver, addr: u64, n: usize) -> Vec<f32> {
        let mut bytes = vec![0u8; n * 4];
        drv.memcpy_dtoh(&mut bytes, addr).unwrap();
        bytes.chunks(4).map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().unwrap()))).collect()
    }

    fn cpu_gemm(
        ta: bool,
        tb: bool,
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
    ) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    let av = if ta { a[kk * m + i] } else { a[i * k + kk] };
                    let bv = if tb { b[j * k + kk] } else { b[kk * n + j] };
                    acc = av.mul_add(bv, acc);
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    #[test]
    fn sgemm_matches_cpu_reference_for_all_transpositions() {
        let drv = Driver::new(DeviceSpec::test(Arch::Volta));
        let ctx = drv.ctx_create().unwrap();
        let blas = Cublas::load(&drv, &ctx).unwrap();
        let (m, n, k) = (5u32, 7u32, 6u32);
        let a_host: Vec<f32> = (0..(m * k) as usize).map(|i| (i as f32) * 0.25 - 2.0).collect();
        let b_host: Vec<f32> = (0..(k * n) as usize).map(|i| 1.5 - (i as f32) * 0.125).collect();
        for (ta, tb) in [
            (Transpose::N, Transpose::N),
            (Transpose::N, Transpose::T),
            (Transpose::T, Transpose::N),
            (Transpose::T, Transpose::T),
        ] {
            let a = upload_f32(&drv, &a_host);
            let b = upload_f32(&drv, &b_host);
            let c = upload_f32(&drv, &vec![0.0; (m * n) as usize]);
            blas.sgemm(&drv, ta, tb, m, n, k, 1.0, a, b, 0.0, c).unwrap();
            let got = download_f32(&drv, c, (m * n) as usize);
            let want = cpu_gemm(
                ta == Transpose::T,
                tb == Transpose::T,
                m as usize,
                n as usize,
                k as usize,
                &a_host,
                &b_host,
            );
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-3, "{ta:?}{tb:?}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn unrolled_variants_agree_with_v1() {
        let drv = Driver::new(DeviceSpec::test(Arch::Pascal));
        let ctx = drv.ctx_create().unwrap();
        let blas = Cublas::load(&drv, &ctx).unwrap();
        let (m, n) = (4u32, 8u32);
        let a_host: Vec<f32> = (0..32).map(|i| i as f32 * 0.5).collect();
        let b_host: Vec<f32> = (0..64).map(|i| 2.0 - i as f32 * 0.1).collect();
        // k = 8 dispatches to u4; compare against CPU.
        let a = upload_f32(&drv, &a_host);
        let b = upload_f32(&drv, &b_host);
        let c = upload_f32(&drv, &[0.0; 32]);
        blas.sgemm_nn(&drv, m, n, 8, 1.0, a, b, 0.0, c).unwrap();
        let got = download_f32(&drv, c, 32);
        let want = cpu_gemm(false, false, 4, 8, 8, &a_host, &b_host);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-3);
        }
    }

    #[test]
    fn saxpy_and_sscal_elementwise() {
        let drv = Driver::new(DeviceSpec::test(Arch::Kepler));
        let ctx = drv.ctx_create().unwrap();
        let blas = Cublas::load(&drv, &ctx).unwrap();
        let x = upload_f32(&drv, &(0..200).map(|i| i as f32).collect::<Vec<_>>());
        let y = upload_f32(&drv, &vec![10.0; 200]);
        blas.saxpy(&drv, 200, 2.0, x, y).unwrap();
        let got = download_f32(&drv, y, 200);
        for (i, v) in got.iter().enumerate() {
            assert_eq!(*v, 10.0 + 2.0 * i as f32);
        }
        blas.sscal(&drv, 200, 0.5, x).unwrap();
        let got = download_f32(&drv, x, 200);
        assert_eq!(got[7], 3.5);
    }

    #[test]
    fn sdot_reduces_across_blocks() {
        let drv = Driver::new(DeviceSpec::test(Arch::Volta));
        let ctx = drv.ctx_create().unwrap();
        let blas = Cublas::load(&drv, &ctx).unwrap();
        let n = 300u32;
        let x = upload_f32(&drv, &vec![2.0; n as usize]);
        let y = upload_f32(&drv, &vec![3.0; n as usize]);
        let out = upload_f32(&drv, &[0.0]);
        blas.sdot(&drv, n, x, y, out).unwrap();
        let got = download_f32(&drv, out, 1);
        assert_eq!(got[0], 6.0 * n as f32);
    }

    #[test]
    fn gemm_kernels_are_memory_efficient() {
        // Library kernels must be well coalesced: average unique lines per
        // global access stays near 1 for the nn variant.
        let drv = Driver::new(DeviceSpec::test(Arch::Volta));
        let ctx = drv.ctx_create().unwrap();
        let blas = Cublas::load(&drv, &ctx).unwrap();
        let a = upload_f32(&drv, &vec![1.0; 64 * 64]);
        let b = upload_f32(&drv, &vec![1.0; 64 * 64]);
        let c = upload_f32(&drv, &vec![0.0; 64 * 64]);
        let stats = blas.sgemm_nn(&drv, 64, 64, 64, 1.0, a, b, 0.0, c).unwrap();
        let accesses = stats.mem.global_loads + stats.mem.global_stores;
        let avg_lines = stats.mem.global_lines as f64 / accesses as f64;
        assert!(avg_lines < 1.5, "library GEMM should coalesce, got {avg_lines:.2}");
    }
}
