//! The instruction-count tool (paper Listing 1) and its basic-block
//! optimized variant.

use crate::{read_u64, COUNT_BB_FN, COUNT_FN, COUNT_MULT_FN, COUNT_PMULT_FN, COUNT_WIDE_FN};
use cuda::{CbId, CbParams, CuFunction, Driver};
use nvbit::{IPoint, NvbitApi, NvbitTool, PlanOpts};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashSet};
use std::rc::Rc;

/// Results handle of [`InstrCount`]/[`BbInstrCount`], complete at `at_term`;
/// mid-run reads are lower bounds (see `KernelCounters::publish`).
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

/// The per-kernel device counters every counting tool keeps, and the
/// results handle they are published to.
struct KernelCounters {
    results: Rc<InstrCountResults>,
    /// kernel → (counter address, is-library, name, value last published).
    counters: BTreeMap<u32, (u64, bool, String, u64)>,
}

impl KernelCounters {
    fn new() -> (KernelCounters, Rc<InstrCountResults>) {
        let results = Rc::new(InstrCountResults::default());
        (KernelCounters { results: results.clone(), counters: BTreeMap::new() }, results)
    }

    /// Allocates the launched kernel's counter and returns its address.
    fn alloc(&mut self, api: &NvbitApi<'_>, func: CuFunction) -> u64 {
        let named = |i: &cuda::FunctionInfo| (i.library, i.name.clone());
        let (library, name) =
            api.driver().with_function_info(func, named).expect("launched function exists");
        let ctr = api.driver().with_device(|d| d.alloc(8)).expect("counter alloc");
        self.counters.insert(func.raw(), (ctr, library, name, 0));
        ctr
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

    /// Publishes `func`'s own counter. Its launch also moves the counter of
    /// any kernel sharing a related device function with it; that gain shows
    /// at the other kernel's next launch exit, or in the `at_term` sweep.
    fn publish(&mut self, drv: &Driver, func: u32) {
        self.counters.get_mut(&func).into_iter().for_each(|e| Self::fold(&self.results, drv, e));
    }

    /// Publishes every counter: the end-of-run sweep.
    fn publish_all(&mut self, drv: &Driver) {
        self.counters.values_mut().for_each(|e| Self::fold(&self.results, drv, e));
    }
}

/// Per-instruction instruction counter (paper Listing 1), with per-kernel
/// and per-module-origin attribution.
pub struct InstrCount {
    counters: KernelCounters,
    seen: HashSet<u32>,
}

impl InstrCount {
    /// Creates the tool and its results handle.
    pub fn new() -> (InstrCount, Rc<InstrCountResults>) {
        let (counters, results) = KernelCounters::new();
        (InstrCount { counters, seen: HashSet::new() }, results)
    }
}

impl NvbitTool for InstrCount {
    fn at_init(&mut self, api: &NvbitApi<'_>) {
        api.load_tool_functions(COUNT_FN).expect("tool functions compile");
    }

    fn at_term(&mut self, api: &NvbitApi<'_>) {
        self.counters.publish_all(api.driver());
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
            // Keep results fresh so callers can also read mid-run.
            self.counters.publish(api.driver(), func.raw());
            return;
        }
        if !self.seen.insert(func.raw()) {
            return;
        }
        let ctr = self.counters.alloc(api, *func);
        // Instrument the kernel and every function it can call.
        let mut targets = vec![*func];
        targets.extend(api.get_related_funcs(*func).unwrap_or_default());
        let mut sites = 0u64;
        for t in targets {
            let n = api.get_instrs(t).map(|v| v.len()).unwrap_or(0);
            for idx in 0..n {
                api.insert_call(t, idx, "nvbit_count_one", IPoint::Before).unwrap();
                api.add_call_arg_guard_pred(t, idx).unwrap();
                api.add_call_arg_imm64(t, idx, ctr).unwrap();
                sites += 1;
            }
            if t != *func {
                api.enable_instrumented(t, true).unwrap();
            }
        }
        common::obs::counter("tool.instr_count.sites", sites);
    }
}

/// Basic-block-granularity instruction counter: one injection per block
/// passing the block length, instead of one per instruction — the paper's
/// suggested optimization. Falls back to per-instruction instrumentation
/// for functions with indirect control flow (the ICF flat-view case).
pub struct BbInstrCount {
    counters: KernelCounters,
    seen: HashSet<u32>,
}

impl BbInstrCount {
    /// Creates the tool and its results handle.
    pub fn new() -> (BbInstrCount, Rc<InstrCountResults>) {
        let (counters, results) = KernelCounters::new();
        (BbInstrCount { counters, seen: HashSet::new() }, results)
    }
}

impl NvbitTool for BbInstrCount {
    fn at_init(&mut self, api: &NvbitApi<'_>) {
        api.load_tool_functions(COUNT_FN).expect("tool functions compile");
        api.load_tool_functions(COUNT_BB_FN).expect("tool functions compile");
    }

    fn at_term(&mut self, api: &NvbitApi<'_>) {
        self.counters.publish_all(api.driver());
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
        let ctr = self.counters.alloc(api, *func);

        let mut sites = 0u64;
        match api.get_basic_blocks(*func).expect("inspection") {
            Some(blocks) => {
                // NOTE: counting at block heads counts every block entry.
                // Predicated non-branch instructions inside the block still
                // count as "executed" at warp level (the guard argument
                // reflects the *block head*), so this variant is an
                // approximation — the same trade-off the paper describes.
                for b in blocks {
                    let head = b.range.start;
                    api.insert_call(*func, head, "nvbit_count_block", IPoint::Before).unwrap();
                    api.add_call_arg_guard_pred(*func, head).unwrap();
                    api.add_call_arg_imm32(*func, head, b.len() as i32).unwrap();
                    api.add_call_arg_imm64(*func, head, ctr).unwrap();
                    sites += 1;
                }
            }
            None => {
                for idx in 0..api.get_instrs(*func).unwrap().len() {
                    api.insert_call(*func, idx, "nvbit_count_one", IPoint::Before).unwrap();
                    api.add_call_arg_guard_pred(*func, idx).unwrap();
                    api.add_call_arg_imm64(*func, idx, ctr).unwrap();
                    sites += 1;
                }
            }
        }
        common::obs::counter("tool.bb_instr_count.sites", sites);
    }
}

/// Issue-level instruction counter built for the planner's optimization
/// passes: every site injects `nvbit_count_mult` under the multiplicity
/// protocol and opts into coalescing, so from [`nvbit::PlanLevel::Block`] up the
/// planner merges each basic block's sites into one call whose multiplicity
/// is the block's site count, and at [`nvbit::PlanLevel::Spliced`] the counting
/// body is spliced into the trampoline (no `CALL`/`RET`).
///
/// Unlike [`InstrCount`] there is no guard argument — a predicated-off
/// instruction still counts as issued — because the guard predicate is
/// per-site dynamic state that would defeat merging. Within a basic block
/// the active mask is constant, so the total is *identical* whichever
/// [`PlanOpts`] the plan is built with; the passes only change how many
/// trampoline calls execute to produce it.
pub struct CoalescedInstrCount {
    counters: KernelCounters,
    seen: HashSet<u32>,
    opts: PlanOpts,
    ipoint: IPoint,
    body: CountBody,
}

/// Which counting body [`CoalescedInstrCount`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CountBody {
    /// `nvbit_count_mult`: issue-level, no guard argument.
    Issued,
    /// `nvbit_count_pmult`: executed-level — the guard predicate gates the
    /// count inside the body's guarded diamond.
    Executed,
    /// `nvbit_count_wide`: executed-level through the register-hungry body
    /// whose splices still have live registers left to save.
    ExecutedWide,
}

impl CountBody {
    fn func(self) -> &'static str {
        match self {
            CountBody::Issued => "nvbit_count_mult",
            CountBody::Executed => "nvbit_count_pmult",
            CountBody::ExecutedWide => "nvbit_count_wide",
        }
    }

    fn ptx(self) -> &'static str {
        match self {
            CountBody::Issued => COUNT_MULT_FN,
            CountBody::Executed => COUNT_PMULT_FN,
            CountBody::ExecutedWide => COUNT_WIDE_FN,
        }
    }
}

impl CoalescedInstrCount {
    /// Creates the tool and its results handle. `opts` selects which
    /// planner passes run (set at `at_init`, before any kernel is built).
    pub fn new(opts: PlanOpts) -> (CoalescedInstrCount, Rc<InstrCountResults>) {
        Self::build(opts, IPoint::Before, CountBody::Issued)
    }

    /// Like [`CoalescedInstrCount::new`] but injecting at `IPoint::After`:
    /// the count increments once an instruction has retired rather than
    /// when it issues, so always-guarded block exits (`EXIT`, `RET`) and
    /// lanes dropped by a guarded exit are *not* counted. The totals
    /// therefore differ from the `Before` tool — but they must still be
    /// identical whichever [`PlanOpts`] the plan is built with, which is
    /// what makes this the exercise vehicle for the after-lowering pass.
    pub fn after(opts: PlanOpts) -> (CoalescedInstrCount, Rc<InstrCountResults>) {
        Self::build(opts, IPoint::After, CountBody::Issued)
    }

    /// *Executed*-level counter under the multiplicity protocol: injects
    /// `nvbit_count_pmult`, whose guarded early return skips the count for
    /// lanes where the instrumented instruction's guard predicate is
    /// false. Unguarded sites pass a constant-true predicate and stay
    /// block-invariant (so they coalesce); guarded sites pass the dynamic
    /// guard value and stay per-site. The body is a single guarded
    /// diamond, the shape the planner splices past the straight-leaf
    /// threshold.
    pub fn executed(opts: PlanOpts) -> (CoalescedInstrCount, Rc<InstrCountResults>) {
        Self::build(opts, IPoint::Before, CountBody::Executed)
    }

    /// [`CoalescedInstrCount::executed`] through `nvbit_count_wide`, the
    /// semantically identical but register-hungry counting body: its write
    /// window reaches past the first save tier, so where more registers are
    /// live than its pairs can move off, its splice — spliced like any
    /// other spliceable body — still has some to store (4 slots on the fft
    /// pipeline, where `nvbit_count_pmult` stores none).
    pub fn executed_wide(opts: PlanOpts) -> (CoalescedInstrCount, Rc<InstrCountResults>) {
        Self::build(opts, IPoint::Before, CountBody::ExecutedWide)
    }

    fn build(
        opts: PlanOpts,
        ipoint: IPoint,
        body: CountBody,
    ) -> (CoalescedInstrCount, Rc<InstrCountResults>) {
        let (counters, results) = KernelCounters::new();
        (CoalescedInstrCount { counters, seen: HashSet::new(), opts, ipoint, body }, results)
    }
}

impl NvbitTool for CoalescedInstrCount {
    fn at_init(&mut self, api: &NvbitApi<'_>) {
        api.set_plan_opts(self.opts);
        api.load_tool_functions(self.body.ptx()).expect("tool functions compile");
    }

    fn at_term(&mut self, api: &NvbitApi<'_>) {
        self.counters.publish_all(api.driver());
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
            self.counters.publish(api.driver(), func.raw());
            return;
        }
        if !self.seen.insert(func.raw()) {
            return;
        }
        let ctr = self.counters.alloc(api, *func);
        let mut targets = vec![*func];
        targets.extend(api.get_related_funcs(*func).unwrap_or_default());
        let mut sites = 0u64;
        for t in targets {
            let instrs = api.get_instrs(t).unwrap_or_default();
            for (idx, instr) in instrs.iter().enumerate() {
                api.insert_call(t, idx, self.body.func(), self.ipoint).unwrap();
                if self.body != CountBody::Issued {
                    // Executed-level bodies take the guard predicate first.
                    // Unguarded sites pass constant 1 and stay
                    // block-invariant (mergeable); guarded sites pass the
                    // dynamic guard and keep multiplicity 1.
                    if instr.has_guard() {
                        api.add_call_arg_guard_pred(t, idx).unwrap();
                    } else {
                        api.add_call_arg_imm32(t, idx, 1).unwrap();
                    }
                }
                api.add_call_arg_imm64(t, idx, ctr).unwrap();
                api.set_coalesce(t, idx).unwrap();
                sites += 1;
            }
            if t != *func {
                api.enable_instrumented(t, true).unwrap();
            }
        }
        common::obs::counter("tool.coalesced_instr_count.sites", sites);
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

    #[test]
    fn basic_block_variant_is_cheaper_but_close() {
        let native = Driver::new(DeviceSpec::test(Arch::Volta));
        let native_count = run_app(&native);
        let native_cycles = native.total_stats().cycles;

        let run_with = |bb: bool, level: PlanLevel| -> (u64, u64) {
            let drv = Driver::new(DeviceSpec::test(Arch::Volta));
            let (count, cycles);
            if bb {
                let (tool, results) = BbInstrCount::new();
                attach_tool(&drv, AtRung(PlanOpts { level }, tool));
                run_app(&drv);
                drv.shutdown();
                count = results.total();
                cycles = drv.total_stats().cycles;
            } else {
                let (tool, results) = InstrCount::new();
                attach_tool(&drv, AtRung(PlanOpts { level }, tool));
                run_app(&drv);
                drv.shutdown();
                count = results.total();
                cycles = drv.total_stats().cycles;
            }
            (count, cycles)
        };
        let (per_instr_count, per_instr_cycles) = run_with(false, PlanLevel::Spliced);
        let (bb_count, bb_cycles) = run_with(true, PlanLevel::Spliced);
        assert_eq!(per_instr_count, native_count);
        // The BB variant approximates within the kernel's size (guarded
        // instructions inside blocks are charged by block-entry).
        let diff = bb_count.abs_diff(native_count) as f64 / native_count as f64;
        assert!(diff < 0.35, "bb count {bb_count} vs native {native_count}");
        // And where every site pays for its atomic it is substantially
        // cheaper than per-instruction counting while still slower than
        // native.
        assert!(bb_cycles < per_instr_cycles / 2, "{bb_cycles} vs {per_instr_cycles}");
        assert!(bb_cycles > native_cycles);
        // Counter promotion leaves each site one register add and each
        // thread one flush: both variants get cheaper, with the same counts,
        // and the per-block one stays the cheaper.
        let (promoted_count, promoted_cycles) = run_with(false, PlanLevel::Promoted);
        let (bb_promoted_count, bb_promoted_cycles) = run_with(true, PlanLevel::Promoted);
        assert_eq!((promoted_count, bb_promoted_count), (per_instr_count, bb_count));
        assert!(promoted_cycles < per_instr_cycles && bb_promoted_cycles < bb_cycles);
        assert!(bb_promoted_cycles < promoted_cycles, "{bb_promoted_cycles} vs {promoted_cycles}");
    }

    #[test]
    fn coalesced_count_is_invariant_under_the_planner_passes() {
        let run_with = |opts: PlanOpts| -> (u64, u64) {
            let drv = Driver::new(DeviceSpec::test(Arch::Volta));
            let (tool, results) = CoalescedInstrCount::new(opts);
            attach_tool(&drv, tool);
            run_app(&drv);
            drv.shutdown();
            (results.total(), drv.total_stats().cycles)
        };
        let (naive, naive_cycles) = run_with(PlanOpts::naive());
        let (merged, merged_cycles) = run_with(PlanOpts { level: PlanLevel::Block });
        let (inlined, inlined_cycles) = run_with(PlanOpts { level: PlanLevel::Spliced });
        let (promoted, promoted_cycles) = run_with(PlanOpts::default());
        // The multiplicity protocol makes the total independent of whether
        // the passes actually ran.
        assert_eq!(naive, merged);
        assert_eq!(naive, inlined);
        assert_eq!(naive, promoted);
        // Issue-level counting: 64 threads each issue the whole straight
        // kernel path (predication does not skip issue).
        assert!(naive > 0);
        // Each pass strictly reduces runtime work.
        assert!(merged_cycles < naive_cycles, "{merged_cycles} vs {naive_cycles}");
        assert!(inlined_cycles < merged_cycles, "{inlined_cycles} vs {merged_cycles}");
        assert!(promoted_cycles < inlined_cycles, "{promoted_cycles} vs {inlined_cycles}");
    }

    #[test]
    fn promoted_counts_match_native_on_both_encoding_families() {
        // `IADD.U64` and `RED.ADD.U64` run, not only encode, on Enc64 too.
        for arch in [Arch::Pascal, Arch::Volta] {
            let native = run_app(&Driver::new(DeviceSpec::test(arch)));
            let drv = Driver::new(DeviceSpec::test(arch));
            let (tool, results) = CoalescedInstrCount::executed(PlanOpts::default());
            attach_tool(&drv, tool);
            run_app(&drv);
            drv.shutdown();
            assert_eq!(results.total(), native, "{arch:?}");
            assert_eq!(drv.total_stats().per_op.get("RED"), Some(&2), "{arch:?}: one per warp");
        }
    }
}
