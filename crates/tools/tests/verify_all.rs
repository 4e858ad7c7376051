//! The `verify_all` CI gate: every bundled tool instruments every workload
//! kernel, and the pre-swap static verifier must accept every generated
//! image with zero diagnostics (paper §5.1 — a bad image corrupts the
//! *application*, so the verifier is the last line of defense against
//! codegen bugs), on one architecture per encoding family and at each of
//! [`RUNGS`]: out-of-line brackets at `Region`, lowered code at `Promoted`.
//! Each suite proves from `plan_stats` that it reached both: `instr_count`
//! calls out of line at `Region` and lowers calls at `Promoted`.
//!
//! The full sweep is heavy and runs in release under `ci.sh`, which prints
//! the suite × rung matrix (the debug `cargo test` run covers the fft
//! slice).

use common::channel::Backpressure;
use cuda::{CbId, CbParams, Driver};
use gpu::{DeviceSpec, Dim3};
use nvbit::{attach_tool, NvbitApi, NvbitTool, PlanLevel, PlanOpts, PlanStats};
use nvbit_tools::{InstrCount, MemDivergence, MemTrace, OpcodeHistogram, SamplingMode};
use sass::Arch;
use shared::{FAMILIES, RUNGS};
use std::cell::RefCell;
use std::rc::Rc;
use workloads::specaccel::{self, Size};

mod shared;

/// What a verified run reached: images accepted, and the calls their
/// plans emitted and lowered.
#[derive(Clone, Copy, Default)]
struct Reached {
    verified: usize,
    emitted: u64,
    promoted: u64,
}

/// Wraps a tool, sets `level` after the tool's own `at_init`, and
/// re-verifies every instrumented function (the launched kernel and its
/// related functions) at every launch exit.
struct VerifyEverything<T> {
    inner: T,
    level: PlanLevel,
    reached: Rc<RefCell<Reached>>,
}

impl<T: NvbitTool> NvbitTool for VerifyEverything<T> {
    fn at_init(&mut self, api: &NvbitApi<'_>) {
        self.inner.at_init(api);
        api.set_plan_opts(PlanOpts { level: self.level });
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
            assert!(diags.is_empty(), "verifier rejected `{name}` at {:?}: {diags:?}", self.level);
            let PlanStats { emitted_calls, promoted_calls, .. } =
                api.plan_stats(target).unwrap().unwrap_or_default();
            let mut reached = self.reached.borrow_mut();
            reached.verified += 1;
            reached.emitted += emitted_calls;
            reached.promoted += promoted_calls;
        }
    }
}

const TOOLS: [&str; 4] = ["instr_count", "opcode_hist", "mem_trace", "mem_divergence"];

/// Runs `app` on `arch` under the named tool with the verifying wrapper at
/// `level`; returns what the verifier accepted and the plans reached.
fn run_verified(arch: Arch, level: PlanLevel, tool: &str, app: &dyn Fn(&Driver)) -> Reached {
    fn attach(
        drv: &Driver,
        inner: impl NvbitTool + 'static,
        level: PlanLevel,
    ) -> Rc<RefCell<Reached>> {
        let reached = Rc::new(RefCell::new(Reached::default()));
        attach_tool(drv, VerifyEverything { inner, level, reached: reached.clone() });
        reached
    }
    let drv = Driver::new(DeviceSpec::test(arch));
    let reached = match tool {
        "instr_count" => attach(&drv, InstrCount::new().0, level),
        "opcode_hist" => attach(&drv, OpcodeHistogram::new(SamplingMode::Full).0, level),
        "mem_trace" => attach(&drv, MemTrace::channel(Backpressure::Block, 1024).0, level),
        "mem_divergence" => attach(&drv, MemDivergence::new(true).0, level),
        other => unreachable!("unknown tool {other}"),
    };
    app(&drv);
    drv.shutdown();
    let r = *reached.borrow();
    r
}

/// Runs `app` under every tool on every family at every rung, requiring
/// each run to verify some image and `instr_count` to reach out-of-line
/// calls at `Region` and lowered ones at `Promoted`; prints `suite`'s row
/// of the suite × rung matrix.
fn sweep(suite: &str, app: &dyn Fn(&Driver)) {
    for level in RUNGS {
        let mut total = Reached::default();
        for arch in FAMILIES {
            for tool in TOOLS {
                let r = run_verified(arch, level, tool, app);
                assert!(r.verified > 0, "{tool} instrumented nothing on {suite} on {arch}");
                if tool == "instr_count" && level == PlanLevel::Region {
                    assert!(
                        r.emitted > 0 && r.promoted == 0,
                        "{suite} on {arch}: no call out of line"
                    );
                }
                if tool == "instr_count" && level == PlanLevel::Promoted {
                    assert!(r.promoted > 0, "{suite} on {arch}: no call lowered");
                }
                total.verified += r.verified;
                total.emitted += r.emitted;
                total.promoted += r.promoted;
            }
        }
        let out_of_line = total.emitted - total.promoted;
        println!(
            "verify_all {suite:<10} {:<9} images {:>6}  calls out of line {:>7}  lowered {:>7}",
            format!("{level:?}"),
            total.verified,
            out_of_line,
            total.promoted
        );
    }
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
    sweep("fft", &app);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "heavy; ci.sh runs this in release as the verify_all gate")]
fn every_tool_verifies_on_every_specaccel_benchmark() {
    for bench in specaccel::suite() {
        sweep(bench.name, &|drv: &Driver| bench.run(drv, Size::Small).unwrap());
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "heavy; ci.sh runs this in release as the verify_all gate")]
fn every_tool_verifies_on_every_ml_model() {
    for model in workloads::ml_models() {
        sweep(model.name, &|drv: &Driver| model.run(drv).unwrap());
    }
}
