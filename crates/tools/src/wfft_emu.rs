//! The `WFFT32` instruction-emulation tool (paper §6.3, Listing 9).
//!
//! Finds the hypothetical warp-wide FFT proxy instruction in launched
//! kernels, removes it, and injects a functionally-equivalent device
//! function that reads the source register pair through the device API,
//! computes the 32-point FFT with warp shuffles, and writes the destination
//! register pair back permanently.

use cuda::{CbId, CbParams};
use nvbit::{IPoint, NvbitApi, NvbitTool};
use std::collections::HashSet;

/// The emulation tool.
#[derive(Default)]
pub struct WfftEmu {
    seen: HashSet<u32>,
    replaced: usize,
}

impl WfftEmu {
    /// Creates the tool.
    pub fn new() -> WfftEmu {
        WfftEmu::default()
    }
}

impl NvbitTool for WfftEmu {
    fn at_init(&mut self, api: &NvbitApi<'_>) {
        api.load_tool_functions(&workloads::fft::wfft_emu_function_ptx())
            .expect("emulation function compiles");
    }

    fn at_cuda_event(
        &mut self,
        api: &NvbitApi<'_>,
        is_exit: bool,
        cbid: CbId,
        params: &CbParams<'_>,
    ) {
        let CbParams::LaunchKernel { func, .. } = params else { return };
        if is_exit || cbid != CbId::LaunchKernel || !self.seen.insert(func.raw()) {
            return;
        }
        let id = ptx::lower::proxy_id(workloads::fft::WFFT32);
        let mut sites = 0u64;
        for instr in api.get_instrs(*func).expect("inspection").iter() {
            if instr.proxy_id() != Some(id) {
                continue;
            }
            let (dst, src) = instr.proxy_regs().expect("proxy carries registers");
            api.insert_call(*func, instr.idx, "wfft32_emu", IPoint::Before).unwrap();
            api.add_call_arg_imm32(*func, instr.idx, src.0 as i32).unwrap();
            api.add_call_arg_imm32(*func, instr.idx, dst.0 as i32).unwrap();
            api.remove_orig(*func, instr.idx).unwrap();
            self.replaced += 1;
            sites += 1;
        }
        common::obs::counter("tool.wfft_emu.sites", sites);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuda::{Driver, FatBinary, KernelArg};
    use gpu::{DeviceSpec, Dim3};
    use nvbit::attach_tool;
    use sass::Arch;
    use workloads::fft;

    fn pack(input: &[(f32, f32); 32]) -> Vec<u8> {
        input
            .iter()
            .flat_map(|(r, i)| {
                let mut v = r.to_bits().to_le_bytes().to_vec();
                v.extend(i.to_bits().to_le_bytes());
                v
            })
            .collect()
    }

    fn unpack(bytes: &[u8]) -> Vec<(f32, f32)> {
        bytes
            .chunks(8)
            .map(|c| {
                (
                    f32::from_bits(u32::from_le_bytes(c[0..4].try_into().unwrap())),
                    f32::from_bits(u32::from_le_bytes(c[4..8].try_into().unwrap())),
                )
            })
            .collect()
    }

    #[test]
    fn emulated_wfft_matches_the_software_fft_bit_for_bit() {
        let input: [(f32, f32); 32] =
            std::array::from_fn(|i| ((i as f32 * 0.7).cos(), (i as f32 * 0.2).sin()));
        let bytes = pack(&input);

        // Software FFT.
        let soft = {
            let drv = Driver::new(DeviceSpec::test(Arch::Volta));
            let ctx = drv.ctx_create().unwrap();
            let m = drv
                .module_load(&ctx, FatBinary::from_ptx("fft", fft::soft_fft_kernel_ptx()))
                .unwrap();
            let f = drv.module_get_function(&m, "fft32_soft").unwrap();
            let din = drv.mem_alloc(256).unwrap();
            let dout = drv.mem_alloc(256).unwrap();
            drv.memcpy_htod(din, &bytes).unwrap();
            drv.launch_kernel(
                &f,
                Dim3::linear(1),
                Dim3::linear(32),
                &[KernelArg::Ptr(din), KernelArg::Ptr(dout)],
            )
            .unwrap();
            let mut out = vec![0u8; 256];
            drv.memcpy_dtoh(&mut out, dout).unwrap();
            out
        };

        // Emulated WFFT32 (proxy instruction + instrumentation).
        let emulated = {
            let drv = Driver::new(DeviceSpec::test(Arch::Volta));
            attach_tool(&drv, WfftEmu::new());
            let ctx = drv.ctx_create().unwrap();
            let m =
                drv.module_load(&ctx, FatBinary::from_ptx("fft", fft::wfft_kernel_ptx())).unwrap();
            let f = drv.module_get_function(&m, "fft32").unwrap();
            let din = drv.mem_alloc(256).unwrap();
            let dout = drv.mem_alloc(256).unwrap();
            drv.memcpy_htod(din, &bytes).unwrap();
            drv.launch_kernel(
                &f,
                Dim3::linear(1),
                Dim3::linear(32),
                &[KernelArg::Ptr(din), KernelArg::Ptr(dout)],
            )
            .unwrap();
            let mut out = vec![0u8; 256];
            drv.memcpy_dtoh(&mut out, dout).unwrap();
            out
        };

        assert_eq!(soft, emulated, "emulation must match the software FFT exactly");
        // And both match the reference DFT approximately.
        let got = unpack(&emulated);
        let want = fft::reference_dft(&input);
        for k in 0..32 {
            assert!(
                (got[k].0 - want[k].0).abs() < 0.05 && (got[k].1 - want[k].1).abs() < 0.05,
                "bin {k}: got {:?}, want {:?}",
                got[k],
                want[k]
            );
        }
    }
}
