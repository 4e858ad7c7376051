//! The executed-jump ledger of the relocated body: an instrumented function
//! runs from one body, and the only jump instrumentation adds is the one
//! into it. So an instrumented run executes exactly one `JMP` more than the
//! native run per warp that enters an instrumented function — at a launch,
//! through a call, or (without a CFG) through a computed branch into the
//! image — and the count tool still counts exactly what runs natively.

use cuda::{CbId, CbParams, Driver, FatBinary, KernelArg};
use gpu::{DeviceSpec, Dim3, ExecStats};
use nvbit::{attach_tool, NvbitApi, NvbitTool, PlanLevel, PlanOpts};
use nvbit_tools::InstrCount;
use sass::Arch;
use shared::FAMILIES;
use workloads::apps;

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

const LEVELS: [PlanLevel; 4] =
    [PlanLevel::Naive, PlanLevel::Block, PlanLevel::Region, PlanLevel::Promoted];

/// A guest application: runs its kernels on the driver.
type App = fn(&Driver);

const APPS: [(&str, App); 4] = [
    ("fft", |drv| drop(apps::fft_soft(drv, 2, 1).unwrap())),
    ("stencil", |drv| drop(apps::stencil(drv, 1).unwrap())),
    ("spmv", |drv| drop(apps::spmv(drv, 1).unwrap())),
    ("spmv_calls", |drv| drop(apps::spmv_calls(drv, 1).unwrap())),
];

/// Warp-level executions of `op` in `stats`.
fn count(stats: &ExecStats, op: &str) -> u64 {
    stats.per_op.get(op).copied().unwrap_or(0)
}

/// The warps the run's launches started.
fn launched_warps(drv: &Driver) -> u64 {
    let size = |d: Dim3| u64::from(d.x) * u64::from(d.y) * u64::from(d.z);
    drv.launches().iter().map(|l| size(l.grid) * size(l.block).div_ceil(32)).sum()
}

/// `app` on `arch`, natively when `level` is `None`, else under the count
/// tool at `level`: the run's statistics, the warps its launches started
/// and the tool's total.
fn run(arch: Arch, app: App, level: Option<PlanLevel>) -> (ExecStats, u64, Option<u64>) {
    let drv = Driver::new(DeviceSpec::test(arch));
    let results = level.map(|level| {
        let (inner, results) = InstrCount::new();
        attach_tool(&drv, WithOpts { opts: PlanOpts { level }, inner });
        results
    });
    app(&drv);
    drv.shutdown();
    (drv.total_stats(), launched_warps(&drv), results.map(|r| r.total()))
}

#[test]
fn instrumentation_adds_one_jump_per_warp_entry() {
    for arch in FAMILIES {
        for (name, app) in APPS {
            let (native, warps, _) = run(arch, app, None);
            // Every call of these apps enters an instrumented device function.
            let entries = warps + count(&native, "JCAL");
            for level in LEVELS {
                let (stats, _, total) = run(arch, app, Some(level));
                let added = count(&stats, "JMP") - count(&native, "JMP");
                assert_eq!(added, entries, "{name} at {level:?} on {arch}");
                assert_eq!(
                    total,
                    Some(native.thread_instructions),
                    "{name} at {level:?} on {arch}"
                );
            }
        }
    }
}

/// `.entry k(.param .u64 target)` with its code replaced by an `LDC` of
/// `target` and a `BRX` to it, past the first of the two `IADD`s behind it,
/// launched over one warp: no CFG, so the image jumps into the body at
/// every instruction and the `BRX` enters the body through the image.
fn brx_into_the_image(arch: Arch, level: Option<PlanLevel>) -> (ExecStats, Option<u64>) {
    const SRC: &str = ".entry k(.param .u64 target)\n{\n    exit;\n}\n";
    let mut image = ptx::compile_module(SRC, arch).unwrap();
    let text =
        "LDC.64 R2, c[0x0][0x160] ;\nBRX R2 ;\nIADD R4, R4, 0x1 ;\nIADD R4, R4, 0x1 ;\nEXIT ;";
    let code = sass::asm::assemble_arch(text, arch).unwrap();
    image.functions[0].code = sass::codec::codec_for(arch).encode_stream(&code).unwrap();
    let drv = Driver::new(DeviceSpec::test(arch));
    let results = level.map(|level| {
        let (inner, results) = InstrCount::new();
        attach_tool(&drv, WithOpts { opts: PlanOpts { level }, inner });
        results
    });
    let ctx = drv.ctx_create().unwrap();
    let m = drv.module_load(&ctx, FatBinary::from_ptx("brx", SRC).with_image(image)).unwrap();
    let f = drv.module_get_function(&m, "k").unwrap();
    let target = drv.function_info(f).unwrap().addr + 3 * arch.instruction_size() as u64;
    drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(32), &[KernelArg::U64(target)]).unwrap();
    drv.shutdown();
    (drv.total_stats(), results.map(|r| r.total()))
}

#[test]
fn a_computed_branch_enters_the_body_through_the_image_and_counts_exactly() {
    for arch in FAMILIES {
        let (native, _) = brx_into_the_image(arch, None);
        assert_eq!(native.thread_instructions, 32 * 4, "LDC, BRX, the second IADD and EXIT");
        for level in LEVELS {
            let (stats, total) = brx_into_the_image(arch, Some(level));
            // The launch's entry and the `BRX`'s landing, one warp each.
            let added = count(&stats, "JMP") - count(&native, "JMP");
            assert_eq!(added, 1 + count(&native, "BRX"), "{level:?} on {arch}");
            assert_eq!(total, Some(native.thread_instructions), "{level:?} on {arch}");
        }
    }
}
