//! The instruction-count tool (paper Listing 1).

use crate::{count_site, read_u64, uninstrumented, COUNT_PMULT_FN, COUNT_WIDE_FN};
use cuda::{CbId, CbParams, Driver};
use nvbit::{NvbitApi, NvbitTool, PlanOpts};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashSet};
use std::rc::Rc;

/// Results handle of [`InstrCount`], complete at `at_term`;
/// mid-run reads are lower bounds (see its launch-exit handler).
#[derive(Debug, Default)]
pub struct InstrCountResults {
    total: RefCell<u64>,
    /// Thread-level instructions attributed to library modules.
    library: RefCell<u64>,
    per_kernel: RefCell<BTreeMap<String, u64>>,
}

impl InstrCountResults {
    /// Total thread-level instructions executed.
    pub fn total(&self) -> u64 {
        *self.total.borrow()
    }

    /// Thread-level instructions executed inside pre-compiled libraries
    /// (the §6.1 statistic: 74–96 %, average 88 %).
    pub fn library(&self) -> u64 {
        *self.library.borrow()
    }

    /// The library fraction in [0, 1].
    pub fn library_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.library() as f64 / t as f64
        }
    }

    /// Per-kernel totals.
    pub fn per_kernel(&self) -> BTreeMap<String, u64> {
        self.per_kernel.borrow().clone()
    }
}

/// Thread-level instruction counter (paper Listing 1), with per-kernel and
/// per-module-origin attribution.
///
/// Every instruction is counted by `nvbit_count_pmult` under the
/// multiplicity protocol (see `count_site`): guarded sites pass their guard
/// predicate, unguarded ones constant 1. From [`nvbit::PlanLevel::Block`]
/// up the planner merges each basic block's unguarded sites into one call
/// whose multiplicity is their number — the per-block optimization the
/// paper sketches after Listing 1, exact — and at
/// [`nvbit::PlanLevel::Promoted`] each call is lowered to a register add. The total is the executed
/// thread-instruction count whichever [`PlanOpts`] the plan is built with;
/// the rungs only change what it costs.
///
/// A device function two kernels reach, directly or not, is instrumented
/// once and counts into the first kernel's [`InstrCountResults::per_kernel`] total.
pub struct InstrCount {
    results: Rc<InstrCountResults>,
    /// kernel → (counter address, is-library, name, value last published).
    counters: BTreeMap<u32, (u64, bool, String, u64)>,
    /// The functions instrumented so far.
    instrumented: HashSet<u32>,
    /// The plan options set at `at_init`, if the tool pins them.
    opts: Option<PlanOpts>,
    /// The counting body: function name and PTX source.
    body: (&'static str, &'static str),
}

/// [`InstrCount`] under its former name, which the repo benchmark calls.
pub type CoalescedInstrCount = InstrCount;

impl InstrCount {
    /// Creates the tool and its results handle. It sets no plan options, so
    /// its plan is built at whatever rung the core is at.
    pub fn new() -> (InstrCount, Rc<InstrCountResults>) {
        Self::build(None, ("nvbit_count_pmult", COUNT_PMULT_FN))
    }

    /// [`InstrCount::new`] with `opts` set at `at_init`, before any kernel
    /// is built.
    pub fn executed(opts: PlanOpts) -> (InstrCount, Rc<InstrCountResults>) {
        Self::build(Some(opts), ("nvbit_count_pmult", COUNT_PMULT_FN))
    }

    /// [`InstrCount::executed`] through `nvbit_count_wide`, the
    /// semantically identical but register-hungry counting body: it writes
    /// past R16, where the out-of-line call's callee-save cap stops its
    /// clobber window, and it is spliceable but has no effect to lower, so
    /// every rung calls it out of line (the whole-function tier it raises
    /// is 32 slots on the fft pipeline, the liveness tier 16).
    pub fn executed_wide(opts: PlanOpts) -> (InstrCount, Rc<InstrCountResults>) {
        Self::build(Some(opts), ("nvbit_count_wide", COUNT_WIDE_FN))
    }

    fn build(
        opts: Option<PlanOpts>,
        body: (&'static str, &'static str),
    ) -> (InstrCount, Rc<InstrCountResults>) {
        let results = Rc::new(InstrCountResults::default());
        let (counters, instrumented) = (BTreeMap::new(), HashSet::new());
        let tool = InstrCount { results: results.clone(), counters, instrumented, opts, body };
        (tool, results)
    }

    /// Re-reads one counter and folds what it gained into `results`.
    fn fold(results: &InstrCountResults, drv: &Driver, entry: &mut (u64, bool, String, u64)) {
        let (addr, is_lib, name, seen) = entry;
        let now = read_u64(drv, *addr);
        let gained = now - std::mem::replace(seen, now);
        *results.total.borrow_mut() += gained;
        if *is_lib {
            *results.library.borrow_mut() += gained;
        }
        *results.per_kernel.borrow_mut().entry(name.clone()).or_insert(0) += gained;
    }
}

impl NvbitTool for InstrCount {
    fn at_init(&mut self, api: &NvbitApi<'_>) {
        if let Some(opts) = self.opts {
            api.set_plan_opts(opts);
        }
        api.load_tool_functions(self.body.1).expect("tool functions compile");
    }

    /// Publishes every counter: the end-of-run sweep.
    fn at_term(&mut self, api: &NvbitApi<'_>) {
        let drv = api.driver();
        self.counters.values_mut().for_each(|e| Self::fold(&self.results, drv, e));
    }

    fn at_cuda_event(
        &mut self,
        api: &NvbitApi<'_>,
        is_exit: bool,
        cbid: CbId,
        params: &CbParams<'_>,
    ) {
        let CbParams::LaunchKernel { func, .. } = params else { return };
        if cbid != CbId::LaunchKernel {
            return;
        }
        if is_exit {
            // Publishes the kernel's own counter, so callers can read mid-run.
            let entry = self.counters.get_mut(&func.raw());
            entry.into_iter().for_each(|e| Self::fold(&self.results, api.driver(), e));
            return;
        }
        let Some(targets) = uninstrumented(api, *func, &mut self.instrumented) else { return };
        let named = |i: &cuda::FunctionInfo| (i.library, i.name.clone());
        let (library, name) =
            api.driver().with_function_info(*func, named).expect("launched function exists");
        let ctr = api.driver().with_device(|d| d.alloc(8)).expect("counter alloc");
        self.counters.insert(func.raw(), (ctr, library, name, 0));
        let mut sites = 0u64;
        for t in targets {
            for instr in api.get_instrs(t).unwrap_or_default().iter() {
                count_site(api, t, instr, self.body.0, ctr);
                sites += 1;
            }
        }
        common::obs::counter("tool.instr_count.sites", sites);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuda::{FatBinary, KernelArg};
    use gpu::{DeviceSpec, Dim3};
    use nvbit::{attach_tool, PlanLevel};
    use sass::Arch;

    const APP: &str = r#"
.entry k(.param .u64 out, .param .u32 n)
{
    .reg .u32 %r<4>;
    .reg .u64 %rd<4>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [out];
    ld.param.u32 %r1, [n];
    mov.u32 %r2, %tid.x;
    setp.ge.u32 %p1, %r2, %r1;
    @%p1 bra DONE;
    mul.wide.u32 %rd2, %r2, 4;
    add.u64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r2;
DONE:
    exit;
}
"#;

    fn run_app(drv: &Driver) -> u64 {
        let ctx = drv.ctx_create().unwrap();
        let m = drv.module_load(&ctx, FatBinary::from_ptx("app", APP)).unwrap();
        let f = drv.module_get_function(&m, "k").unwrap();
        let out = drv.mem_alloc(256).unwrap();
        drv.launch_kernel(
            &f,
            Dim3::linear(1),
            Dim3::linear(64),
            &[KernelArg::Ptr(out), KernelArg::U32(40)],
        )
        .unwrap();
        drv.total_stats().thread_instructions
    }

    #[test]
    fn per_instruction_count_matches_native() {
        let native = Driver::new(DeviceSpec::test(Arch::Volta));
        let native_count = run_app(&native);

        let drv = Driver::new(DeviceSpec::test(Arch::Volta));
        let (tool, results) = InstrCount::new();
        attach_tool(&drv, tool);
        run_app(&drv);
        drv.shutdown();
        assert_eq!(results.total(), native_count);
        assert_eq!(results.library(), 0);
        assert_eq!(results.per_kernel().len(), 1);
    }

    #[test]
    fn mid_run_reads_are_lower_bounds_until_the_final_sweep() {
        // `a` and `b` share `mix`, which therefore carries both counters:
        // b's launch also bumps a's, which b's launch exit does not re-read.
        let kernel = |name: &str| {
            format!(
                ".entry {name}(.param .u64 out)\n{{\n    .reg .u32 %r<3>;\n    .reg .u64 %rd<2>;\n    \
                 ld.param.u64 %rd1, [out];\n    mov.u32 %r1, %tid.x;\n    call (%r2), mix, (%r1);\n    \
                 st.global.u32 [%rd1], %r2;\n    exit;\n}}\n"
            )
        };
        let mix =
            ".func (.reg .u32 %out) mix(.reg .u32 %x)\n{\n    add.u32 %out, %x, 7;\n    ret;\n}\n";
        let app = format!("{mix}{}{}", kernel("a"), kernel("b"));

        let drv = Driver::new(DeviceSpec::test(Arch::Volta));
        let (tool, results) = InstrCount::new();
        attach_tool(&drv, tool);
        let ctx = drv.ctx_create().unwrap();
        let m = drv.module_load(&ctx, FatBinary::from_ptx("app", &app)).unwrap();
        let out = drv.mem_alloc(4).unwrap();
        let mut totals = Vec::new();
        for name in ["a", "b"] {
            let f = drv.module_get_function(&m, name).unwrap();
            drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(32), &[KernelArg::Ptr(out)])
                .unwrap();
            totals.push(results.total());
        }
        drv.shutdown();
        assert!(totals[0] > 0 && totals[0] < totals[1]);
        assert!(totals[1] < results.total(), "b's gain on a's counter shows in the sweep");
        assert_eq!(results.per_kernel().values().sum::<u64>(), results.total());
        assert_eq!(results.per_kernel().len(), 2);
    }

    /// `tool` with the plan options fixed before it instruments anything.
    struct AtRung<T>(PlanOpts, T);

    impl<T: NvbitTool> NvbitTool for AtRung<T> {
        fn at_init(&mut self, api: &NvbitApi<'_>) {
            api.set_plan_opts(self.0);
            self.1.at_init(api);
        }
        fn at_term(&mut self, api: &NvbitApi<'_>) {
            self.1.at_term(api);
        }
        fn at_cuda_event(&mut self, api: &NvbitApi<'_>, exit: bool, id: CbId, p: &CbParams<'_>) {
            self.1.at_cuda_event(api, exit, id, p);
        }
    }

    /// The total and cycles of [`run_app`] under `tool`.
    fn run_under(tool: impl NvbitTool + 'static, results: &InstrCountResults) -> (u64, u64) {
        let drv = Driver::new(DeviceSpec::test(Arch::Volta));
        attach_tool(&drv, tool);
        run_app(&drv);
        drv.shutdown();
        (results.total(), drv.total_stats().cycles)
    }

    #[test]
    fn block_coalescing_counts_exactly_and_costs_less() {
        // The paper's per-basic-block variant as an ablation of the tool
        // itself: the same sites, merged per block by the planner.
        let native = Driver::new(DeviceSpec::test(Arch::Volta));
        let native_count = run_app(&native);
        let at = |level| {
            let (tool, results) = InstrCount::new();
            run_under(AtRung(PlanOpts { level }, tool), &results)
        };
        let (naive, naive_cycles) = at(PlanLevel::Naive);
        let (block, block_cycles) = at(PlanLevel::Block);
        assert_eq!((naive, block), (native_count, native_count));
        assert!(block_cycles < naive_cycles, "{block_cycles} vs {naive_cycles}");
        assert!(block_cycles > native.total_stats().cycles);
    }

    #[test]
    fn coalesced_count_is_invariant_under_the_planner_passes() {
        let native = run_app(&Driver::new(DeviceSpec::test(Arch::Volta)));
        let run_with = |opts: PlanOpts| {
            let (tool, results) = InstrCount::executed(opts);
            run_under(tool, &results)
        };
        let (naive, naive_cycles) = run_with(PlanOpts::naive());
        let (merged, merged_cycles) = run_with(PlanOpts { level: PlanLevel::Block });
        let (promoted, promoted_cycles) = run_with(PlanOpts::default());
        // The multiplicity protocol makes the total independent of whether
        // the passes actually ran: every rung counts what the kernel
        // executed.
        assert_eq!([naive, merged, promoted], [native; 3]);
        // Each pass strictly reduces runtime work.
        assert!(merged_cycles < naive_cycles, "{merged_cycles} vs {naive_cycles}");
        assert!(promoted_cycles < merged_cycles, "{promoted_cycles} vs {merged_cycles}");
    }

    #[test]
    fn promoted_counts_match_native_on_both_encoding_families() {
        // `IADD.U64` and `RED.ADD.U64` run, not only encode, on Enc64 too.
        for arch in [Arch::Pascal, Arch::Volta] {
            let native = run_app(&Driver::new(DeviceSpec::test(arch)));
            let drv = Driver::new(DeviceSpec::test(arch));
            let (tool, results) = InstrCount::executed(PlanOpts::default());
            attach_tool(&drv, tool);
            run_app(&drv);
            drv.shutdown();
            assert_eq!(results.total(), native, "{arch:?}");
            assert_eq!(drv.total_stats().per_op.get("RED"), Some(&2), "{arch:?}: one per warp");
        }
    }
}
