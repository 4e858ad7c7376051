//! Workspace-level integration tests spanning every crate: workloads and
//! libraries running under instrumentation on the full stack.

use cuda::{CbId, CbParams, Driver, FatBinary};
use gpu::DeviceSpec;
use nvbit::{attach_tool, NvbitApi, NvbitTool};
use nvbit_tools::{InstrCount, MemDivergence};
use sass::Arch;
use std::cell::Cell;
use std::rc::Rc;
use workloads::specaccel::{benchmark, suite, Size};

mod shared;

/// At every module load, compares `get_live_regs` at every instruction of
/// every function with the standalone solve over the same body.
struct LiveRegsProbe {
    functions: Rc<Cell<u32>>,
}

impl NvbitTool for LiveRegsProbe {
    fn at_cuda_event(
        &mut self,
        api: &NvbitApi<'_>,
        is_exit: bool,
        cbid: CbId,
        params: &CbParams<'_>,
    ) {
        let CbParams::Module { module, .. } = params else { return };
        if !is_exit || cbid != CbId::ModuleLoad {
            return;
        }
        for func in api.driver().module_functions(module).unwrap() {
            let body: Vec<sass::Instruction> =
                api.get_instrs(func).unwrap().iter().map(|i| *i.raw()).collect();
            let standalone = sass::Dataflow::analyze(&body, api.hal().arch()).ok();
            for idx in 0..body.len() {
                let live = api.get_live_regs(func, idx).unwrap();
                assert_eq!(live, standalone.as_ref().map(|df| df.live_regs(idx)), "{func} @ {idx}");
            }
            self.functions.set(self.functions.get() + 1);
        }
    }
}

/// `get_live_regs` solves liveness on its first demand, over the flow graph
/// the lift built; on every kernel and device function of every workload —
/// the SpecAccel suite, the fft / stencil / spmv applications and a
/// `jit_unique` stratum — it equals `sass::Dataflow::analyze`.
#[test]
fn live_regs_equal_the_standalone_solve_on_every_workload_kernel() {
    let drv = Driver::new(DeviceSpec::test(Arch::Volta));
    let functions = Rc::new(Cell::new(0));
    attach_tool(&drv, LiveRegsProbe { functions: functions.clone() });
    for b in suite() {
        b.run(&drv, Size::Small).unwrap();
    }
    workloads::apps::fft_soft(&drv, 1, 1).unwrap();
    workloads::apps::stencil(&drv, 1).unwrap();
    workloads::apps::spmv(&drv, 1).unwrap();
    workloads::apps::spmv_calls(&drv, 1).unwrap();
    let ctx = drv.ctx_create().unwrap();
    drv.module_load(&ctx, FatBinary::from_ptx("stratum", shared::stratum().0)).unwrap();
    drv.shutdown();
    assert!(functions.get() > 50, "{} functions checked", functions.get());
}

/// For a representative slice of the suite, the instruction-count tool's
/// dynamic count must equal the simulator's native thread-instruction
/// count — instrumentation observes exactly what executes.
#[test]
#[cfg_attr(debug_assertions, ignore = "heavy; run with --release")]
fn tool_counts_equal_native_counts_across_the_suite() {
    for name in ["ostencil", "md", "cg", "ep", "ilbdc"] {
        let b = benchmark(name).unwrap();

        let native = Driver::new(DeviceSpec::test(Arch::Volta));
        b.run(&native, Size::Small).unwrap();
        let native_count = native.total_stats().thread_instructions;

        let drv = Driver::new(DeviceSpec::test(Arch::Volta));
        let (tool, results) = InstrCount::new();
        attach_tool(&drv, tool);
        b.run(&drv, Size::Small).unwrap();
        drv.shutdown();

        assert_eq!(
            results.total(),
            native_count,
            "{name}: tool count diverges from native execution"
        );
    }
}

/// The same invariant holds on every architecture family (each arch
/// compiles its own SASS, so counts are checked against that arch's own
/// native run).
#[test]
#[cfg_attr(debug_assertions, ignore = "heavy; run with --release")]
fn instrumentation_is_correct_on_every_architecture() {
    let b = benchmark("olbm").unwrap();
    for arch in Arch::ALL {
        let native = Driver::new(DeviceSpec::test(arch));
        b.run(&native, Size::Small).unwrap();
        let native_count = native.total_stats().thread_instructions;

        let drv = Driver::new(DeviceSpec::test(arch));
        let (tool, results) = InstrCount::new();
        attach_tool(&drv, tool);
        b.run(&drv, Size::Small).unwrap();
        drv.shutdown();
        assert_eq!(results.total(), native_count, "mismatch on {arch}");
    }
}

/// Instrumenting a SASS-only pre-compiled library preserves its numerics —
/// the capability compiler-based approaches lack (paper §6.1).
#[test]
fn instrumented_library_gemm_produces_identical_results() {
    let run = |with_tool: bool| -> (Vec<u8>, u64) {
        let drv = Driver::new(DeviceSpec::test(Arch::Volta));
        let mut count = 0;
        let results = if with_tool {
            let (tool, results) = InstrCount::new();
            attach_tool(&drv, tool);
            Some(results)
        } else {
            None
        };
        let ctx = drv.ctx_create().unwrap();
        let blas = accel::Cublas::load(&drv, &ctx).unwrap();
        let n = 16u32;
        let bytes = (n * n * 4) as u64;
        let a = drv.mem_alloc(bytes).unwrap();
        let b = drv.mem_alloc(bytes).unwrap();
        let c = drv.mem_alloc(bytes).unwrap();
        let data: Vec<u8> = (0..n * n)
            .flat_map(|i| (((i % 7) as f32) * 0.25 - 0.5).to_bits().to_le_bytes())
            .collect();
        drv.memcpy_htod(a, &data).unwrap();
        drv.memcpy_htod(b, &data).unwrap();
        blas.sgemm_nn(&drv, n, n, n, 1.5, a, b, 0.0, c).unwrap();
        let mut out = vec![0u8; bytes as usize];
        drv.memcpy_dtoh(&mut out, c).unwrap();
        drv.shutdown();
        if let Some(r) = results {
            count = r.total();
        }
        (out, count)
    };
    let (native_out, _) = run(false);
    let (instrumented_out, count) = run(true);
    assert_eq!(native_out, instrumented_out, "library results corrupted by instrumentation");
    assert!(count > 0, "the tool must observe library instructions");
}

/// The headline of Figure 6 holds end-to-end: excluding libraries from
/// instrumentation overestimates memory divergence on every ML model.
#[test]
#[cfg_attr(debug_assertions, ignore = "heavy; run with --release")]
fn figure6_shape_holds_for_all_models() {
    for model in workloads::ml_models() {
        let measure = |include: bool| {
            let drv = Driver::new(DeviceSpec::test(Arch::Volta));
            let (tool, results) = MemDivergence::new(include);
            attach_tool(&drv, tool);
            model.run(&drv).unwrap();
            drv.shutdown();
            results.average()
        };
        let with_libs = measure(true);
        let without = measure(false);
        assert!(
            without > with_libs,
            "{}: exclusion should overestimate divergence ({without:.2} <= {with_libs:.2})",
            model.name
        );
    }
}

/// The §6.1 statistic: every model spends most of its instructions in
/// pre-compiled libraries, within the paper's reported range.
#[test]
#[cfg_attr(debug_assertions, ignore = "heavy; run with --release")]
fn library_instruction_fractions_are_in_the_papers_range() {
    let mut fractions = Vec::new();
    for model in workloads::ml_models() {
        let drv = Driver::new(DeviceSpec::test(Arch::Volta));
        let (tool, results) = InstrCount::new();
        attach_tool(&drv, tool);
        model.run(&drv).unwrap();
        drv.shutdown();
        fractions.push((model.name, results.library_fraction()));
    }
    for (name, f) in &fractions {
        assert!(
            (0.70..=0.99).contains(f),
            "{name}: library fraction {f:.2} outside the plausible range"
        );
    }
    let avg: f64 = fractions.iter().map(|(_, f)| f).sum::<f64>() / fractions.len() as f64;
    assert!((0.80..=0.95).contains(&avg), "average fraction {avg:.2} (paper: 0.88)");
}
