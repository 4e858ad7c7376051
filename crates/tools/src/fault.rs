//! Single-bit register fault injection (one of the paper's motivating use
//! cases, citing SASSIFI-style tools).
//!
//! The injector flips one bit of one architectural register of one lane,
//! immediately after a chosen instruction executes — a *permanent* state
//! change via the device-API write-back.

use cuda::{CbId, CbParams};
use nvbit::{IPoint, NvbitApi, NvbitTool};

/// Where and what to corrupt.
#[derive(Debug, Clone)]
pub struct FaultSpec {
    /// Kernel name to target.
    pub kernel: String,
    /// Instruction index after which the flip happens.
    pub instr_idx: usize,
    /// Register to corrupt.
    pub reg: u8,
    /// Bit to flip (0–31).
    pub bit: u8,
    /// Lane whose register is corrupted (0–31).
    pub lane: u8,
}

pub(crate) const FLIP_FN: &str = r#"
.func nvbit_flip(.reg .u32 %regidx, .reg .u32 %mask, .reg .u32 %lane)
{
    .reg .u32 %r<4>;
    .reg .pred %p<2>;
    mov.u32 %r1, %laneid;
    setp.ne.u32 %p1, %r1, %lane;
    @%p1 ret;
    nvbit.readreg.b32 %r2, %regidx;
    xor.b32 %r2, %r2, %mask;
    nvbit.writereg.b32 %regidx, %r2;
    ret;
}
"#;

/// The fault-injection tool.
pub struct FaultInjector {
    spec: FaultSpec,
    injected: bool,
}

impl FaultInjector {
    /// Creates an injector for one fault site.
    pub fn new(spec: FaultSpec) -> FaultInjector {
        FaultInjector { spec, injected: false }
    }
}

impl NvbitTool for FaultInjector {
    fn at_init(&mut self, api: &NvbitApi<'_>) {
        api.load_tool_functions(FLIP_FN).expect("tool functions compile");
    }

    fn at_cuda_event(
        &mut self,
        api: &NvbitApi<'_>,
        is_exit: bool,
        cbid: CbId,
        params: &CbParams<'_>,
    ) {
        let CbParams::LaunchKernel { func, .. } = params else { return };
        if is_exit || cbid != CbId::LaunchKernel || self.injected {
            return;
        }
        let name = api.get_func_name(*func).unwrap_or_default();
        if name != self.spec.kernel {
            return;
        }
        self.injected = true;
        api.insert_call(*func, self.spec.instr_idx, "nvbit_flip", IPoint::After).unwrap();
        api.add_call_arg_imm32(*func, self.spec.instr_idx, self.spec.reg as i32).unwrap();
        api.add_call_arg_imm32(*func, self.spec.instr_idx, 1i32 << self.spec.bit).unwrap();
        api.add_call_arg_imm32(*func, self.spec.instr_idx, self.spec.lane as i32).unwrap();
        common::obs::counter("tool.fault.sites", 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuda::{Driver, FatBinary, KernelArg};
    use gpu::{DeviceSpec, Dim3};
    use nvbit::attach_tool;
    use sass::Arch;

    const APP: &str = r#"
.entry k(.param .u64 buf)
{
    .reg .u32 %r<4>;
    .reg .u64 %rd<4>;
    ld.param.u64 %rd1, [buf];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd2, %r1, 4;
    add.u64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r1;
    exit;
}
"#;

    fn run(fault: Option<FaultSpec>) -> Vec<u32> {
        let drv = Driver::new(DeviceSpec::test(Arch::Volta));
        if let Some(spec) = fault {
            attach_tool(&drv, FaultInjector::new(spec));
        }
        let ctx = drv.ctx_create().unwrap();
        let m = drv.module_load(&ctx, FatBinary::from_ptx("app", APP)).unwrap();
        let f = drv.module_get_function(&m, "k").unwrap();
        let buf = drv.mem_alloc(128).unwrap();
        drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(32), &[KernelArg::Ptr(buf)]).unwrap();
        let mut out = vec![0u8; 128];
        drv.memcpy_dtoh(&mut out, buf).unwrap();
        drv.shutdown();
        out.chunks(4).map(|c| u32::from_le_bytes(c.try_into().unwrap())).collect()
    }

    #[test]
    fn flipping_a_bit_corrupts_exactly_one_lane() {
        let clean = run(None);
        assert_eq!(clean, (0..32).collect::<Vec<u32>>());

        // Find the register holding %r1 by compiling the app: the MOV from
        // SR_TID writes it; target the instruction after the S2R (index 2
        // in the compiled order). Simpler: corrupt after the mul.wide's
        // source still holds tid. We flip bit 4 of the tid register of
        // lane 3, after the S2R (instruction 2 in compiled code).
        let drv = Driver::new(DeviceSpec::test(Arch::Volta));
        let ctx = drv.ctx_create().unwrap();
        let m = drv.module_load(&ctx, FatBinary::from_ptx("app", APP)).unwrap();
        let f = drv.module_get_function(&m, "k").unwrap();
        // Locate the S2R instruction and its destination register.
        let code = drv.read_code(f).unwrap();
        let instrs = sass::codec::codec_for(drv.arch()).decode_stream(&code).unwrap();
        let (s2r_idx, s2r) =
            instrs.iter().enumerate().find(|(_, i)| i.op == sass::Op::S2r).expect("app reads tid");
        let dst = match s2r.operands[0] {
            sass::Operand::Reg(r) => r.0,
            _ => unreachable!(),
        };
        drop(drv);

        let faulty = run(Some(FaultSpec {
            kernel: "k".into(),
            instr_idx: s2r_idx,
            reg: dst,
            bit: 4,
            lane: 3,
        }));
        // Lane 3 stored tid ^ 16 = 19, and the store went to buf[19]...
        // no: the address is computed from the corrupted tid too, so lane 3
        // writes value 19 at slot 19, leaving slot 3 untouched (0).
        assert_eq!(faulty[3], 0, "lane 3's original slot is never written");
        assert_eq!(faulty[19], 19, "lane 3 wrote its corrupted tid at the corrupted index");
        for (t, v) in faulty.iter().enumerate() {
            if t != 3 && t != 19 {
                assert_eq!(*v, t as u32, "lane {t} unaffected");
            }
        }
    }
}
