//! `WfftEmu` replaces a `WFFT32` wherever a launch can reach it: in the
//! launched kernel, and in a device function the kernel calls. A proxy the
//! tool leaves in place has no hardware implementation and faults the
//! launch.
use cuda::{Driver, FatBinary, KernelArg};
use gpu::{DeviceSpec, Dim3};
use nvbit::attach_tool;
use nvbit_tools::WfftEmu;
use sass::Arch;
use workloads::fft;

/// [`fft::wfft_kernel_ptx`] with the proxy moved into a device function.
fn wfft_callee_ptx() -> String {
    format!(
        r#".version 6.0
.func (.reg .u64 %out) fftf(.reg .u64 %in)
{{
    proxy.b32 %out, %in, "{}";
    ret;
}}
.entry fft32(.param .u64 pin, .param .u64 pout)
{{
    .reg .u32 %r<6>;
    .reg .u64 %rd<8>;
    ld.param.u64 %rd1, [pin];
    ld.param.u64 %rd2, [pout];
    mov.u32 %r1, %ctaid.x;
    mov.u32 %r2, %ntid.x;
    mov.u32 %r3, %tid.x;
    mad.lo.u32 %r1, %r1, %r2, %r3;
    mul.wide.u32 %rd3, %r1, 8;
    add.u64 %rd4, %rd1, %rd3;
    ld.global.u64 %rd5, [%rd4];
    call (%rd6), fftf, (%rd5);
    add.u64 %rd7, %rd2, %rd3;
    st.global.u64 [%rd7], %rd6;
    exit;
}}
"#,
        fft::WFFT32
    )
}

/// One warp of `fft32` from `src` under `WfftEmu`, on `input`.
fn emulated(arch: Arch, src: String, input: &[(f32, f32); 32]) -> Vec<(f32, f32)> {
    let bytes: Vec<u8> = input
        .iter()
        .flat_map(|(r, i)| [r.to_bits().to_le_bytes(), i.to_bits().to_le_bytes()].concat())
        .collect();
    let drv = Driver::new(DeviceSpec::test(arch));
    attach_tool(&drv, WfftEmu::new());
    let ctx = drv.ctx_create().unwrap();
    let m = drv.module_load(&ctx, FatBinary::from_ptx("fft", src)).unwrap();
    let f = drv.module_get_function(&m, "fft32").unwrap();
    let (din, dout) = (drv.mem_alloc(256).unwrap(), drv.mem_alloc(256).unwrap());
    drv.memcpy_htod(din, &bytes).unwrap();
    let args = [KernelArg::Ptr(din), KernelArg::Ptr(dout)];
    drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(32), &args).unwrap();
    let mut out = vec![0u8; 256];
    drv.memcpy_dtoh(&mut out, dout).unwrap();
    let word = |b: &[u8]| f32::from_bits(u32::from_le_bytes(b.try_into().unwrap()));
    out.chunks(8).map(|c| (word(&c[..4]), word(&c[4..]))).collect()
}

#[test]
fn a_wfft32_in_a_device_function_is_emulated() {
    let input: [(f32, f32); 32] =
        std::array::from_fn(|i| ((i as f32 * 0.7).cos(), (i as f32 * 0.2).sin()));
    let want = fft::reference_dft(&input);
    for arch in [Arch::Pascal, Arch::Volta] {
        let got = emulated(arch, wfft_callee_ptx(), &input);
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!(
                (g.0 - w.0).abs() < 0.05 && (g.1 - w.1).abs() < 0.05,
                "{arch:?} bin {k}: got {g:?}, want {w:?}"
            );
        }
        // The same butterflies as the proxy in the kernel itself.
        assert_eq!(got, emulated(arch, fft::wfft_kernel_ptx(), &input), "{arch:?}");
    }
}
