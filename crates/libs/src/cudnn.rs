//! Mini-cuDNN: convolution/pooling/activation kernels shipped as a
//! SASS-only binary.

use cuda::{CuContext, CuFunction, CuModule, Driver, KernelArg};
use gpu::{Dim3, LaunchStats};

const BLOCK: u32 = 128;

/// Direct convolution, NCHW, stride 1, no padding: one thread per output
/// element, looping over input channels and the filter window (uniform trip
/// counts — control flow depends only on the launch geometry).
fn conv2d_kernel() -> String {
    r#"
.entry cudnn_conv2d_f32(.param .u64 pin, .param .u64 pw, .param .u64 pout,
                        .param .u32 pc, .param .u32 ph, .param .u32 pwid,
                        .param .u32 pk, .param .u32 pr)
{
    .reg .u32 %r<20>;
    .reg .u64 %rd<12>;
    .reg .f32 %f<6>;
    .reg .pred %p<4>;
    ld.param.u64 %rd1, [pin];
    ld.param.u64 %rd2, [pw];
    ld.param.u64 %rd3, [pout];
    ld.param.u32 %r1, [pc];    // input channels
    ld.param.u32 %r2, [ph];    // input height
    ld.param.u32 %r3, [pwid];  // input width
    ld.param.u32 %r4, [pk];    // output channels
    ld.param.u32 %r5, [pr];    // filter size (r x r)
    // Output dims: oh = h - r + 1, ow = w - r + 1.
    sub.u32 %r6, %r2, %r5;
    add.u32 %r6, %r6, 1;       // oh
    sub.u32 %r7, %r3, %r5;
    add.u32 %r7, %r7, 1;       // ow
    // Flat output index: tid over ow, ctaid.x over oh, ctaid.y over K.
    mov.u32 %r8, %ctaid.x;     // oy
    mov.u32 %r9, %ctaid.y;     // k (output channel)
    mov.u32 %r10, %tid.x;      // ox
    setp.ge.u32 %p1, %r10, %r7;
    @%p1 bra DONE;
    setp.ge.u32 %p1, %r8, %r6;
    @%p1 bra DONE;
    setp.ge.u32 %p1, %r9, %r4;
    @%p1 bra DONE;
    mov.f32 %f1, 0f00000000;
    mov.u32 %r11, 0;           // c
CLOOP:
    setp.ge.u32 %p2, %r11, %r1;
    @%p2 bra CDONE;
    mov.u32 %r12, 0;           // fy
FYLOOP:
    setp.ge.u32 %p2, %r12, %r5;
    @%p2 bra FYDONE;
    mov.u32 %r13, 0;           // fx
FXLOOP:
    setp.ge.u32 %p3, %r13, %r5;
    @%p3 bra FXDONE;
    // in[( c*h + oy+fy )*w + ox+fx]
    add.u32 %r14, %r8, %r12;
    mad.lo.u32 %r14, %r11, %r2, %r14;
    mul.lo.u32 %r14, %r14, %r3;
    add.u32 %r15, %r10, %r13;
    add.u32 %r14, %r14, %r15;
    mul.wide.u32 %rd4, %r14, 4;
    add.u64 %rd5, %rd1, %rd4;
    ld.global.f32 %f2, [%rd5];
    // w[(( k*c_in + c )*r + fy)*r + fx]
    mad.lo.u32 %r16, %r9, %r1, %r11;
    mul.lo.u32 %r16, %r16, %r5;
    add.u32 %r16, %r16, %r12;
    mul.lo.u32 %r16, %r16, %r5;
    add.u32 %r16, %r16, %r13;
    mul.wide.u32 %rd6, %r16, 4;
    add.u64 %rd7, %rd2, %rd6;
    ld.global.f32 %f3, [%rd7];
    fma.rn.f32 %f1, %f2, %f3, %f1;
    add.u32 %r13, %r13, 1;
    bra FXLOOP;
FXDONE:
    add.u32 %r12, %r12, 1;
    bra FYLOOP;
FYDONE:
    add.u32 %r11, %r11, 1;
    bra CLOOP;
CDONE:
    // out[( k*oh + oy )*ow + ox]
    mad.lo.u32 %r17, %r9, %r6, %r8;
    mul.lo.u32 %r17, %r17, %r7;
    add.u32 %r17, %r17, %r10;
    mul.wide.u32 %rd8, %r17, 4;
    add.u64 %rd9, %rd3, %rd8;
    st.global.f32 [%rd9], %f1;
DONE:
    exit;
}
"#
    .to_string()
}

fn elementwise(name: &str, body: &str, extra_params: &str, extra_loads: &str) -> String {
    format!(
        ".entry {name}(.param .u64 px, .param .u64 py, .param .u32 pn{extra_params})\n{{\n\
         \x20   .reg .u32 %r<8>;\n    .reg .u64 %rd<6>;\n    .reg .pred %p<3>;\n\
         \x20   .reg .f32 %f<8>;\n\
         \x20   ld.param.u64 %rd1, [px];\n\
         \x20   ld.param.u64 %rd2, [py];\n\
         \x20   ld.param.u32 %r1, [pn];\n{extra_loads}\
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
         \x20   st.global.f32 [%rd5], %f2;\n\
         DONE:\n    exit;\n}}\n"
    )
}

/// 2×2 max pooling over `[c, h, w]` (h, w even).
fn maxpool_kernel() -> String {
    r#"
.entry cudnn_maxpool2_f32(.param .u64 pin, .param .u64 pout,
                          .param .u32 pc, .param .u32 ph, .param .u32 pw)
{
    .reg .u32 %r<16>;
    .reg .u64 %rd<10>;
    .reg .f32 %f<8>;
    .reg .pred %p<3>;
    ld.param.u64 %rd1, [pin];
    ld.param.u64 %rd2, [pout];
    ld.param.u32 %r1, [pc];
    ld.param.u32 %r2, [ph];
    ld.param.u32 %r3, [pw];
    shr.u32 %r4, %r2, 1;       // oh
    shr.u32 %r5, %r3, 1;       // ow
    mov.u32 %r6, %ctaid.x;     // oy
    mov.u32 %r7, %ctaid.y;     // c
    mov.u32 %r8, %tid.x;       // ox
    setp.ge.u32 %p1, %r8, %r5;
    @%p1 bra DONE;
    setp.ge.u32 %p1, %r6, %r4;
    @%p1 bra DONE;
    setp.ge.u32 %p1, %r7, %r1;
    @%p1 bra DONE;
    // base = (c*h + 2*oy)*w + 2*ox
    shl.b32 %r9, %r6, 1;
    mad.lo.u32 %r9, %r7, %r2, %r9;
    mul.lo.u32 %r9, %r9, %r3;
    shl.b32 %r10, %r8, 1;
    add.u32 %r9, %r9, %r10;
    mul.wide.u32 %rd3, %r9, 4;
    add.u64 %rd4, %rd1, %rd3;
    ld.global.f32 %f1, [%rd4];
    ld.global.f32 %f2, [%rd4+4];
    max.f32 %f1, %f1, %f2;
    mul.wide.u32 %rd5, %r3, 4;
    add.u64 %rd6, %rd4, %rd5;
    ld.global.f32 %f3, [%rd6];
    ld.global.f32 %f4, [%rd6+4];
    max.f32 %f3, %f3, %f4;
    max.f32 %f1, %f1, %f3;
    // out[(c*oh + oy)*ow + ox]
    mad.lo.u32 %r11, %r7, %r4, %r6;
    mul.lo.u32 %r11, %r11, %r5;
    add.u32 %r11, %r11, %r8;
    mul.wide.u32 %rd7, %r11, 4;
    add.u64 %rd8, %rd2, %rd7;
    st.global.f32 [%rd8], %f1;
DONE:
    exit;
}
"#
    .to_string()
}

/// Row-wise softmax (one thread per row; numerically-stable two-pass).
fn softmax_kernel() -> String {
    r#"
.entry cudnn_softmax_row_f32(.param .u64 pin, .param .u64 pout,
                             .param .u32 prows, .param .u32 pcols)
{
    .reg .u32 %r<10>;
    .reg .u64 %rd<10>;
    .reg .f32 %f<10>;
    .reg .pred %p<4>;
    ld.param.u64 %rd1, [pin];
    ld.param.u64 %rd2, [pout];
    ld.param.u32 %r1, [prows];
    ld.param.u32 %r2, [pcols];
    mov.u32 %r3, %ctaid.x;
    mov.u32 %r4, %ntid.x;
    mov.u32 %r5, %tid.x;
    mad.lo.u32 %r3, %r3, %r4, %r5;
    setp.ge.u32 %p1, %r3, %r1;
    @%p1 bra DONE;
    mul.lo.u32 %r6, %r3, %r2;
    mul.wide.u32 %rd3, %r6, 4;
    add.u64 %rd4, %rd1, %rd3;   // row base (in)
    add.u64 %rd5, %rd2, %rd3;   // row base (out)
    // Pass 1: max.
    ld.global.f32 %f1, [%rd4];
    mov.u32 %r7, 1;
MAXL:
    setp.ge.u32 %p2, %r7, %r2;
    @%p2 bra MAXD;
    mul.wide.u32 %rd6, %r7, 4;
    add.u64 %rd7, %rd4, %rd6;
    ld.global.f32 %f2, [%rd7];
    max.f32 %f1, %f1, %f2;
    add.u32 %r7, %r7, 1;
    bra MAXL;
MAXD:
    // Pass 2: exp2((x - max) * log2(e)) accumulate, store unnormalized.
    mov.f32 %f3, 0f00000000;
    mov.u32 %r7, 0;
EXPL:
    setp.ge.u32 %p2, %r7, %r2;
    @%p2 bra EXPD;
    mul.wide.u32 %rd6, %r7, 4;
    add.u64 %rd7, %rd4, %rd6;
    ld.global.f32 %f2, [%rd7];
    sub.f32 %f4, %f2, %f1;
    mul.f32 %f4, %f4, 0f3FB8AA3B;
    ex2.approx.f32 %f5, %f4;
    add.f32 %f3, %f3, %f5;
    add.u64 %rd8, %rd5, %rd6;
    st.global.f32 [%rd8], %f5;
    add.u32 %r7, %r7, 1;
    bra EXPL;
EXPD:
    // Pass 3: normalize.
    rcp.approx.f32 %f6, %f3;
    mov.u32 %r7, 0;
NRML:
    setp.ge.u32 %p3, %r7, %r2;
    @%p3 bra DONE;
    mul.wide.u32 %rd6, %r7, 4;
    add.u64 %rd8, %rd5, %rd6;
    ld.global.f32 %f7, [%rd8];
    mul.f32 %f7, %f7, %f6;
    st.global.f32 [%rd8], %f7;
    add.u32 %r7, %r7, 1;
    bra NRML;
DONE:
    exit;
}
"#
    .to_string()
}

/// The full mini-cuDNN PTX source.
pub fn ptx_source() -> String {
    let mut src = String::from(".version 6.0\n");
    src.push_str(&conv2d_kernel());
    src.push_str(&maxpool_kernel());
    src.push_str(&softmax_kernel());
    // ReLU: y = max(x, 0).
    src.push_str(&elementwise(
        "cudnn_relu_f32",
        "    mov.f32 %f3, 0f00000000;\n    max.f32 %f2, %f1, %f3;\n",
        "",
        "",
    ));
    // Sigmoid-ish activation via exp2: y = 1 / (1 + 2^(-x * log2 e)).
    src.push_str(&elementwise(
        "cudnn_sigmoid_f32",
        "    mul.f32 %f3, %f1, 0fBFB8AA3B;\n\
         \x20   ex2.approx.f32 %f4, %f3;\n\
         \x20   add.f32 %f4, %f4, 0f3F800000;\n\
         \x20   rcp.approx.f32 %f2, %f4;\n",
        "",
        "",
    ));
    // Bias add: y = x + b (scalar bias per call).
    src.push_str(&elementwise(
        "cudnn_bias_f32",
        "    add.f32 %f2, %f1, %f5;\n",
        ", .param .f32 pb",
        "    ld.param.f32 %f5, [pb];\n",
    ));
    // Inference batch-norm with scalar scale/shift.
    src.push_str(&elementwise(
        "cudnn_batchnorm_f32",
        "    fma.rn.f32 %f2, %f1, %f5, %f6;\n",
        ", .param .f32 pscale, .param .f32 pshift",
        "    ld.param.f32 %f5, [pscale];\n    ld.param.f32 %f6, [pshift];\n",
    ));
    // Tensor add: y += x.
    src.push_str(&elementwise(
        "cudnn_add_f32",
        "    add.u64 %rd5, %rd2, %rd3;\n\
         \x20   ld.global.f32 %f3, [%rd5];\n\
         \x20   add.f32 %f2, %f1, %f3;\n",
        "",
        "",
    ));
    src
}

/// Host-side handle to the loaded mini-cuDNN module.
pub struct Cudnn {
    module: CuModule,
}

impl Cudnn {
    /// Loads the library into a context.
    ///
    /// # Errors
    ///
    /// Driver failures.
    pub fn load(drv: &Driver, ctx: &CuContext) -> cuda::Result<Cudnn> {
        let module = drv.module_load(ctx, crate::cudnn_fatbin().clone())?;
        Ok(Cudnn { module })
    }

    /// The underlying module handle.
    pub fn module(&self) -> CuModule {
        self.module
    }

    fn func(&self, drv: &Driver, name: &str) -> cuda::Result<CuFunction> {
        drv.module_get_function(&self.module, name)
    }

    /// Direct conv2d forward (stride 1, valid padding): input `[c, h, w]`,
    /// filters `[k, c, r, r]`, output `[k, h-r+1, w-r+1]`.
    #[allow(clippy::too_many_arguments)]
    pub fn conv2d(
        &self,
        drv: &Driver,
        input: u64,
        weights: u64,
        output: u64,
        c: u32,
        h: u32,
        w: u32,
        k: u32,
        r: u32,
    ) -> cuda::Result<LaunchStats> {
        let f = self.func(drv, "cudnn_conv2d_f32")?;
        let (oh, ow) = (h - r + 1, w - r + 1);
        drv.launch_kernel(
            &f,
            Dim3::xyz(oh, k, 1),
            Dim3::linear(ow.min(1024)),
            &[
                KernelArg::Ptr(input),
                KernelArg::Ptr(weights),
                KernelArg::Ptr(output),
                KernelArg::U32(c),
                KernelArg::U32(h),
                KernelArg::U32(w),
                KernelArg::U32(k),
                KernelArg::U32(r),
            ],
        )
    }

    /// ReLU over `n` elements.
    pub fn relu(&self, drv: &Driver, x: u64, y: u64, n: u32) -> cuda::Result<LaunchStats> {
        let f = self.func(drv, "cudnn_relu_f32")?;
        drv.launch_kernel(
            &f,
            Dim3::linear(n.div_ceil(BLOCK).max(1)),
            Dim3::linear(BLOCK.min(n.max(1))),
            &[KernelArg::Ptr(x), KernelArg::Ptr(y), KernelArg::U32(n)],
        )
    }

    /// 2×2 max pooling of `[c, h, w]` into `[c, h/2, w/2]`.
    pub fn maxpool2(
        &self,
        drv: &Driver,
        x: u64,
        y: u64,
        c: u32,
        h: u32,
        w: u32,
    ) -> cuda::Result<LaunchStats> {
        let f = self.func(drv, "cudnn_maxpool2_f32")?;
        drv.launch_kernel(
            &f,
            Dim3::xyz(h / 2, c, 1),
            Dim3::linear((w / 2).clamp(1, 1024)),
            &[
                KernelArg::Ptr(x),
                KernelArg::Ptr(y),
                KernelArg::U32(c),
                KernelArg::U32(h),
                KernelArg::U32(w),
            ],
        )
    }

    /// Row-wise softmax of a `[rows, cols]` matrix.
    pub fn softmax_rows(
        &self,
        drv: &Driver,
        x: u64,
        y: u64,
        rows: u32,
        cols: u32,
    ) -> cuda::Result<LaunchStats> {
        let f = self.func(drv, "cudnn_softmax_row_f32")?;
        drv.launch_kernel(
            &f,
            Dim3::linear(rows.div_ceil(32).max(1)),
            Dim3::linear(32.min(rows.max(1))),
            &[KernelArg::Ptr(x), KernelArg::Ptr(y), KernelArg::U32(rows), KernelArg::U32(cols)],
        )
    }

    /// Scalar bias add over `n` elements.
    pub fn bias(&self, drv: &Driver, x: u64, y: u64, n: u32, b: f32) -> cuda::Result<LaunchStats> {
        let f = self.func(drv, "cudnn_bias_f32")?;
        drv.launch_kernel(
            &f,
            Dim3::linear(n.div_ceil(BLOCK).max(1)),
            Dim3::linear(BLOCK.min(n.max(1))),
            &[KernelArg::Ptr(x), KernelArg::Ptr(y), KernelArg::U32(n), KernelArg::F32(b)],
        )
    }

    /// Inference batch-norm with scalar scale/shift.
    #[allow(clippy::too_many_arguments)]
    pub fn batchnorm(
        &self,
        drv: &Driver,
        x: u64,
        y: u64,
        n: u32,
        scale: f32,
        shift: f32,
    ) -> cuda::Result<LaunchStats> {
        let f = self.func(drv, "cudnn_batchnorm_f32")?;
        drv.launch_kernel(
            &f,
            Dim3::linear(n.div_ceil(BLOCK).max(1)),
            Dim3::linear(BLOCK.min(n.max(1))),
            &[
                KernelArg::Ptr(x),
                KernelArg::Ptr(y),
                KernelArg::U32(n),
                KernelArg::F32(scale),
                KernelArg::F32(shift),
            ],
        )
    }

    /// Tensor add: `y = x + y` over `n` elements.
    pub fn add(&self, drv: &Driver, x: u64, y: u64, n: u32) -> cuda::Result<LaunchStats> {
        let f = self.func(drv, "cudnn_add_f32")?;
        drv.launch_kernel(
            &f,
            Dim3::linear(n.div_ceil(BLOCK).max(1)),
            Dim3::linear(BLOCK.min(n.max(1))),
            &[KernelArg::Ptr(x), KernelArg::Ptr(y), KernelArg::U32(n)],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu::DeviceSpec;
    use sass::Arch;

    fn upload(drv: &Driver, vals: &[f32]) -> u64 {
        let a = drv.mem_alloc((vals.len() * 4) as u64).unwrap();
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
        drv.memcpy_htod(a, &bytes).unwrap();
        a
    }

    fn download(drv: &Driver, addr: u64, n: usize) -> Vec<f32> {
        let mut bytes = vec![0u8; n * 4];
        drv.memcpy_dtoh(&mut bytes, addr).unwrap();
        bytes.chunks(4).map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().unwrap()))).collect()
    }

    fn setup() -> (Driver, Cudnn) {
        let drv = Driver::new(DeviceSpec::test(Arch::Volta));
        let ctx = drv.ctx_create().unwrap();
        let dnn = Cudnn::load(&drv, &ctx).unwrap();
        (drv, dnn)
    }

    #[test]
    fn conv2d_matches_cpu_reference() {
        let (drv, dnn) = setup();
        let (c, h, w, k, r) = (2u32, 6u32, 6u32, 3u32, 3u32);
        let input: Vec<f32> = (0..(c * h * w) as usize).map(|i| (i % 7) as f32 - 3.0).collect();
        let weights: Vec<f32> =
            (0..(k * c * r * r) as usize).map(|i| ((i % 5) as f32 - 2.0) * 0.5).collect();
        let (oh, ow) = (h - r + 1, w - r + 1);
        let din = upload(&drv, &input);
        let dw = upload(&drv, &weights);
        let dout = upload(&drv, &vec![0.0; (k * oh * ow) as usize]);
        dnn.conv2d(&drv, din, dw, dout, c, h, w, k, r).unwrap();
        let got = download(&drv, dout, (k * oh * ow) as usize);

        for kk in 0..k {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for cc in 0..c {
                        for fy in 0..r {
                            for fx in 0..r {
                                let iv = input[((cc * h + oy + fy) * w + ox + fx) as usize];
                                let wv = weights[(((kk * c + cc) * r + fy) * r + fx) as usize];
                                acc = iv.mul_add(wv, acc);
                            }
                        }
                    }
                    let g = got[((kk * oh + oy) * ow + ox) as usize];
                    assert!((g - acc).abs() < 1e-3, "k{kk} y{oy} x{ox}: {g} vs {acc}");
                }
            }
        }
    }

    #[test]
    fn relu_and_bias_elementwise() {
        let (drv, dnn) = setup();
        let x = upload(&drv, &[-2.0, -0.5, 0.0, 1.5, 3.0]);
        let y = upload(&drv, &[0.0; 5]);
        dnn.relu(&drv, x, y, 5).unwrap();
        assert_eq!(download(&drv, y, 5), vec![0.0, 0.0, 0.0, 1.5, 3.0]);
        dnn.bias(&drv, y, y, 5, 1.0).unwrap();
        assert_eq!(download(&drv, y, 5), vec![1.0, 1.0, 1.0, 2.5, 4.0]);
    }

    #[test]
    fn maxpool_halves_dimensions() {
        let (drv, dnn) = setup();
        let (c, h, w) = (1u32, 4u32, 4u32);
        let input: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let x = upload(&drv, &input);
        let y = upload(&drv, &[0.0; 4]);
        dnn.maxpool2(&drv, x, y, c, h, w).unwrap();
        // Max of each 2x2 block of a row-major 4x4 ramp.
        assert_eq!(download(&drv, y, 4), vec![5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let (drv, dnn) = setup();
        let rows = 3u32;
        let cols = 8u32;
        let input: Vec<f32> =
            (0..(rows * cols) as usize).map(|i| (i % 11) as f32 * 0.3 - 1.0).collect();
        let x = upload(&drv, &input);
        let y = upload(&drv, &vec![0.0; (rows * cols) as usize]);
        dnn.softmax_rows(&drv, x, y, rows, cols).unwrap();
        let got = download(&drv, y, (rows * cols) as usize);
        for r in 0..rows as usize {
            let sum: f32 = got[r * cols as usize..(r + 1) * cols as usize].iter().sum();
            assert!((sum - 1.0).abs() < 1e-3, "row {r} sums to {sum}");
            assert!(got[r * cols as usize..(r + 1) * cols as usize].iter().all(|v| *v >= 0.0));
        }
    }
}
