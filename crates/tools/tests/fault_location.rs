//! A fault under instrumentation is reported where the program faulted.
//!
//! Every instruction of an instrumented function runs from its relocated
//! body, so a faulting load or store executes at a body address. The body's
//! code label maps each relocated word back to the instruction it copies:
//! the launch must fail with exactly the native `GpuError::Fault` — the
//! native pc (the same offset into `k`, which a tool's own code may have
//! moved in device memory) and the native ``in `k` at instruction i`` —
//! whatever the tool and the rung, on both encoding families.

use common::channel::Backpressure;
use cuda::{CbId, CbParams, Driver, DriverError, FatBinary, KernelArg};
use gpu::{DeviceSpec, Dim3, GpuError};
use nvbit::{attach_tool, NvbitApi, NvbitTool, PlanLevel, PlanOpts};
use nvbit_tools::{InstrCount, MemTrace, OpcodeHistogram, SamplingMode};
use shared::FAMILIES;

mod shared;

/// Wraps a tool so the plan options are fixed before anything is lifted.
struct WithOpts<T> {
    opts: PlanOpts,
    inner: T,
}

impl<T: NvbitTool> NvbitTool for WithOpts<T> {
    fn at_init(&mut self, api: &NvbitApi<'_>) {
        api.set_plan_opts(self.opts);
        self.inner.at_init(api);
    }
    fn at_term(&mut self, api: &NvbitApi<'_>) {
        self.inner.at_term(api);
    }
    fn at_cuda_event(
        &mut self,
        api: &NvbitApi<'_>,
        is_exit: bool,
        cbid: CbId,
        params: &CbParams<'_>,
    ) {
        self.inner.at_cuda_event(api, is_exit, cbid, params);
    }
}

/// Loads `in[tid]` behind a data-dependent branch and stores it plus one
/// to `out[tid]`: the load and the store each sit a few instructions past
/// a site, so their body words are far from their image words.
const KERNEL: &str = r#".version 6.0
.entry k(.param .u64 pin, .param .u64 pout, .param .u32 pn)
{
    .reg .u32 %r<5>;
    .reg .u64 %rd<6>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [pin];
    ld.param.u64 %rd2, [pout];
    ld.param.u32 %r4, [pn];
    mov.u32 %r1, %tid.x;
    setp.ge.u32 %p1, %r1, %r4;
    @%p1 bra DONE;
    mul.wide.u32 %rd3, %r1, 4;
    add.u64 %rd4, %rd1, %rd3;
    ld.global.u32 %r2, [%rd4];
    add.u32 %r3, %r2, 1;
    add.u64 %rd5, %rd2, %rd3;
    st.global.u32 [%rd5], %r3;
DONE:
    exit;
}
"#;

/// An address no allocation reaches.
const UNMAPPED: u64 = 0x7f00_0000_0000;

/// Launches [`KERNEL`] once, its load (`store = false`) or its store
/// reading or writing [`UNMAPPED`], under `tool` at `level` (natively when
/// `None`), and returns the launch's fault with its pc made relative to `k`.
fn fault(arch: sass::Arch, tool: Option<(&str, PlanLevel)>, store: bool) -> GpuError {
    let drv = Driver::new(DeviceSpec::test(arch));
    if let Some((name, level)) = tool {
        let opts = PlanOpts { level };
        match name {
            "instr_count" => attach_tool(&drv, WithOpts { opts, inner: InstrCount::new().0 }),
            "mem_trace" => {
                let inner = MemTrace::channel(Backpressure::Block, 4096).0;
                attach_tool(&drv, WithOpts { opts, inner });
            }
            "opcode_hist" => {
                let inner = OpcodeHistogram::new(SamplingMode::Full).0;
                attach_tool(&drv, WithOpts { opts, inner });
            }
            other => unreachable!("unknown tool {other}"),
        }
    }
    let ctx = drv.ctx_create().unwrap();
    let m = drv.module_load(&ctx, FatBinary::from_ptx("k", KERNEL)).unwrap();
    let f = drv.module_get_function(&m, "k").unwrap();
    let buf = drv.mem_alloc(4 * 32).unwrap();
    let (input, output) = if store { (buf, UNMAPPED) } else { (UNMAPPED, buf) };
    let args = [KernelArg::Ptr(input), KernelArg::Ptr(output), KernelArg::U32(32)];
    let err = drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(32), &args).unwrap_err();
    let k = drv.with_function_info(f, |i| i.addr).unwrap();
    drv.shutdown();
    match err {
        DriverError::Gpu(GpuError::Fault { pc, reason }) => GpuError::Fault { pc: pc - k, reason },
        other => panic!("expected a device fault, got {other}"),
    }
}

#[test]
fn a_fault_under_instrumentation_is_the_native_fault() {
    let tools = ["instr_count", "mem_trace", "opcode_hist"];
    let levels = [PlanLevel::Naive, PlanLevel::Block, PlanLevel::Region, PlanLevel::Promoted];
    for arch in FAMILIES {
        for store in [false, true] {
            let native = fault(arch, None, store);
            let GpuError::Fault { reason, .. } = &native else { unreachable!() };
            assert!(reason.contains("in `k` at instruction"), "{reason}");
            for tool in tools {
                for level in levels {
                    let got = fault(arch, Some((tool, level)), store);
                    assert_eq!(got, native, "{tool} at {level:?} on {arch}, store {store}");
                }
            }
        }
    }
}
