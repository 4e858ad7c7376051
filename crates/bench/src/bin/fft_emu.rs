//! **§6.3**: instruction-count impact of the hypothetical `WFFT32`
//! warp-wide FFT instruction.
//!
//! Combines the instruction-count tool with the FFT-emulation tool (as the
//! paper does) and compares the per-warp instruction count of the kernel
//! using `WFFT32` against the software shuffle-based implementation.
//! The paper reports 21 vs 150 instructions per warp.
//!
//! ```text
//! cargo run --release -p nvbit-bench --bin fft_emu
//! ```
//!
//! Writes `results/BENCH_fft_emu.json`.

use bench_harness::{titan_v, Report};
use cuda::{CbId, CbParams, FatBinary, KernelArg};
use gpu::Dim3;
use nvbit::{attach_tool, IPoint, NvbitApi, NvbitTool};
use std::cell::Cell;
use std::rc::Rc;
use workloads::fft;

const COUNT_FN: &str = r#"
.func bench_count_one(.reg .u32 %pred, .reg .u64 %ctr)
{
    .reg .u64 %rd<3>;
    .reg .pred %p<2>;
    setp.eq.u32 %p1, %pred, 0;
    @%p1 ret;
    mov.u64 %rd1, 1;
    atom.global.add.u64 %rd2, [%ctr], %rd1;
    ret;
}
"#;

/// Instruction counter + WFFT32 emulation in one tool (paper: "we combined
/// the FFT instruction emulation tool with the instruction count tool").
struct CountAndEmulate {
    ctr: Rc<Cell<u64>>,
    emulate: bool,
    done: bool,
}

impl NvbitTool for CountAndEmulate {
    fn at_init(&mut self, api: &NvbitApi<'_>) {
        api.load_tool_functions(COUNT_FN).unwrap();
        if self.emulate {
            api.load_tool_functions(&fft::wfft_emu_function_ptx()).unwrap();
        }
        self.ctr.set(api.driver().with_device(|d| d.alloc(8)).unwrap());
    }

    fn at_cuda_event(
        &mut self,
        api: &NvbitApi<'_>,
        is_exit: bool,
        cbid: CbId,
        params: &CbParams<'_>,
    ) {
        let CbParams::LaunchKernel { func, .. } = params else { return };
        if is_exit || cbid != CbId::LaunchKernel || self.done {
            return;
        }
        self.done = true;
        let id = ptx::lower::proxy_id(fft::WFFT32);
        for instr in api.get_instrs(*func).unwrap().iter() {
            // Count every original instruction of the kernel, including the
            // hypothetical one.
            api.insert_call(*func, instr.idx, "bench_count_one", IPoint::Before).unwrap();
            api.add_call_arg_guard_pred(*func, instr.idx).unwrap();
            api.add_call_arg_imm64(*func, instr.idx, self.ctr.get()).unwrap();
            if self.emulate && instr.proxy_id() == Some(id) {
                let (dst, src) = instr.proxy_regs().unwrap();
                api.insert_call(*func, instr.idx, "wfft32_emu", IPoint::Before).unwrap();
                api.add_call_arg_imm32(*func, instr.idx, src.0 as i32).unwrap();
                api.add_call_arg_imm32(*func, instr.idx, dst.0 as i32).unwrap();
                api.remove_orig(*func, instr.idx).unwrap();
            }
        }
    }
}

fn run(src: String, kernel: &str, emulate: bool, warps: u32) -> f64 {
    let drv = titan_v();
    let counter = Rc::new(Cell::new(0u64));
    attach_tool(&drv, CountAndEmulate { ctr: counter.clone(), emulate, done: false });
    let ctx = drv.ctx_create().unwrap();
    let m = drv.module_load(&ctx, FatBinary::from_ptx("fft", src)).unwrap();
    let f = drv.module_get_function(&m, kernel).unwrap();
    let n = warps * 32;
    let din = drv.mem_alloc(n as u64 * 8).unwrap();
    let dout = drv.mem_alloc(n as u64 * 8).unwrap();
    let data: Vec<u8> = (0..n)
        .flat_map(|i| [(i as f32 * 0.1).sin(), (i as f32 * 0.2).cos()])
        .flat_map(|x| x.to_bits().to_le_bytes())
        .collect();
    drv.memcpy_htod(din, &data).unwrap();
    let args = [KernelArg::Ptr(din), KernelArg::Ptr(dout)];
    drv.launch_kernel(&f, Dim3::linear(warps), Dim3::linear(32), &args).unwrap();
    let mut count = [0u8; 8];
    drv.memcpy_dtoh(&mut count, counter.get()).unwrap();
    drv.shutdown();
    // Thread-level count -> per-warp count.
    u64::from_le_bytes(count) as f64 / (warps as f64 * 32.0)
}

fn main() {
    let warps = 4;
    let with_proxy = run(fft::wfft_kernel_ptx(), "fft32", true, warps);
    let software = run(fft::soft_fft_kernel_ptx(), "fft32_soft", false, warps);
    let mut report = Report::new("fft_emu");
    report.row(
        "fft32",
        "instr_count + wfft_emu",
        &[
            ("wfft32_instrs_per_warp", with_proxy),
            ("software_instrs_per_warp", software),
            ("ratio", software / with_proxy),
        ],
    );
    report.finish();
}
