//! The `verify_all` CI gate: every bundled tool instruments every workload
//! kernel, and the pre-swap static verifier must accept every generated
//! image with zero diagnostics (paper §5.1 — a bad image corrupts the
//! *application*, so the verifier is the last line of defense against
//! codegen bugs), on one architecture per encoding family.
//!
//! The full sweep is heavy and runs in release under `ci.sh` (the debug
//! `cargo test` run covers a single-workload slice).

use common::channel::Backpressure;
use cuda::{CbId, CbParams, Driver};
use gpu::{DeviceSpec, Dim3};
use nvbit::{attach_tool, NvbitApi, NvbitTool};
use nvbit_tools::{InstrCount, MemDivergence, MemTrace, OpcodeHistogram, SamplingMode};
use sass::Arch;
use shared::FAMILIES;
use std::cell::RefCell;
use std::rc::Rc;
use workloads::specaccel::{self, Size};

mod shared;

/// Wraps a tool and re-verifies every instrumented function (the launched
/// kernel and its related functions) at every launch exit.
struct VerifyEverything<T> {
    inner: T,
    verified: Rc<RefCell<usize>>,
}

impl<T: NvbitTool> NvbitTool for VerifyEverything<T> {
    fn at_init(&mut self, api: &NvbitApi<'_>) {
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
        if !is_exit || cbid != CbId::LaunchKernel {
            return;
        }
        let CbParams::LaunchKernel { func, .. } = params else { return };
        let mut targets = vec![*func];
        targets.extend(api.get_related_funcs(*func).unwrap_or_default());
        for target in targets {
            if !api.is_instrumented(target) {
                continue;
            }
            let name = api.get_func_name(target).unwrap_or_default();
            let diags = api.verify_instrumented(target).unwrap();
            assert!(diags.is_empty(), "verifier rejected `{name}`: {:?}", diags);
            *self.verified.borrow_mut() += 1;
        }
    }
}

const TOOLS: [&str; 4] = ["instr_count", "opcode_hist", "mem_trace", "mem_divergence"];

/// Runs `app` on `arch` under the named tool with the verifying wrapper;
/// returns how many instrumented images the verifier accepted.
fn run_verified(arch: Arch, tool: &str, app: &dyn Fn(&Driver)) -> usize {
    let drv = Driver::new(DeviceSpec::test(arch));
    let verified = Rc::new(RefCell::new(0usize));
    match tool {
        "instr_count" => {
            let (t, _r) = InstrCount::new();
            attach_tool(&drv, VerifyEverything { inner: t, verified: verified.clone() });
        }
        "opcode_hist" => {
            let (t, _r) = OpcodeHistogram::new(SamplingMode::Full);
            attach_tool(&drv, VerifyEverything { inner: t, verified: verified.clone() });
        }
        "mem_trace" => {
            let (t, _r) = MemTrace::channel(Backpressure::Block, 1024);
            attach_tool(&drv, VerifyEverything { inner: t, verified: verified.clone() });
        }
        "mem_divergence" => {
            let (t, _r) = MemDivergence::new(true);
            attach_tool(&drv, VerifyEverything { inner: t, verified: verified.clone() });
        }
        other => unreachable!("unknown tool {other}"),
    }
    app(&drv);
    drv.shutdown();
    let n = *verified.borrow();
    n
}

#[test]
fn every_tool_verifies_on_the_fft_pipeline() {
    let app = |drv: &Driver| {
        let ctx = drv.ctx_create().unwrap();
        let src = workloads::fft::soft_fft_kernel_ptx();
        let m = drv.module_load(&ctx, cuda::FatBinary::from_ptx("fft", src)).unwrap();
        let f = drv.module_get_function(&m, "fft32_soft").unwrap();
        let din = drv.mem_alloc(32 * 8).unwrap();
        let dout = drv.mem_alloc(32 * 8).unwrap();
        drv.launch_kernel(
            &f,
            Dim3::linear(1),
            Dim3::linear(32),
            &[cuda::KernelArg::Ptr(din), cuda::KernelArg::Ptr(dout)],
        )
        .unwrap();
    };
    for arch in FAMILIES {
        for tool in TOOLS {
            let verified = run_verified(arch, tool, &app);
            assert!(verified > 0, "{tool} instrumented nothing on the fft pipeline on {arch}");
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "heavy; ci.sh runs this in release as the verify_all gate")]
fn every_tool_verifies_on_every_specaccel_benchmark() {
    for arch in FAMILIES {
        for tool in TOOLS {
            for bench in specaccel::suite() {
                let verified = run_verified(arch, tool, &|drv: &Driver| {
                    bench.run(drv, Size::Small).unwrap();
                });
                assert!(verified > 0, "{tool} instrumented nothing on {} on {arch}", bench.name);
            }
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "heavy; ci.sh runs this in release as the verify_all gate")]
fn every_tool_verifies_on_every_ml_model() {
    for arch in FAMILIES {
        for tool in TOOLS {
            for model in workloads::ml_models() {
                let verified = run_verified(arch, tool, &|drv: &Driver| {
                    model.run(drv).unwrap();
                });
                assert!(verified > 0, "{tool} instrumented nothing on {} on {arch}", model.name);
            }
        }
    }
}
