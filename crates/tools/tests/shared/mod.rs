//! What more than one instrumentation test builds.
#![allow(dead_code)] // each test uses its part

use cuda::{CbId, CbParams, CuFunction};
use nvbit::{IPoint, NvbitApi, NvbitTool, PlanLevel};
use sass::Arch;
use std::cell::Cell;
use std::collections::HashSet;
use std::rc::Rc;

/// One architecture per encoding family, each suite runs on both: Pascal
/// (8-byte words, ABI version 1) and Volta (16-byte words, ABI version 2,
/// whose calls also save the convergence-barrier state).
pub const FAMILIES: [Arch; 2] = [Arch::Pascal, Arch::Volta];

/// The plan rungs a suite that is not about the ladder runs at: `Region`,
/// where every call is out of line between the save routines, and the
/// default `Promoted`, where the calls with an effect are lowered.
pub const RUNGS: [PlanLevel; 2] = [PlanLevel::Region, PlanLevel::Promoted];

/// Counts thread-level instructions once they have retired: the shipped
/// counting body `nvbit_count_pmult` at `IPoint::After` of every site of
/// every launched kernel and the functions it can call, coalesce-marked,
/// with a constant-1 predicate, into one counter. An instruction that
/// leaves has no `After` call and lanes a guarded exit drops are not
/// counted, so the total differs from the executed count. No pass merges
/// or moves an `After` call: every rung emits one per site, and the total
/// must be the same at every rung and under every save policy.
pub struct CountAfter {
    ctr: u64,
    instrumented: HashSet<CuFunction>,
    total: Rc<Cell<u64>>,
}

impl CountAfter {
    /// Creates the tool and the cell its total is published to at exit.
    pub fn new() -> (CountAfter, Rc<Cell<u64>>) {
        let total = Rc::new(Cell::new(0));
        (CountAfter { ctr: 0, instrumented: HashSet::new(), total: total.clone() }, total)
    }
}

impl NvbitTool for CountAfter {
    fn at_init(&mut self, api: &NvbitApi<'_>) {
        let body = nvbit_tools::TOOL_PTX.iter().find(|(name, _)| *name == "COUNT_PMULT_FN");
        api.load_tool_functions(body.unwrap().1).unwrap();
        self.ctr = api.driver().with_device(|d| d.alloc(8)).unwrap();
    }
    fn at_term(&mut self, api: &NvbitApi<'_>) {
        let mut word = [0u8; 8];
        api.driver().memcpy_dtoh(&mut word, self.ctr).unwrap();
        self.total.set(u64::from_le_bytes(word));
    }
    fn at_cuda_event(
        &mut self,
        api: &NvbitApi<'_>,
        is_exit: bool,
        cbid: CbId,
        params: &CbParams<'_>,
    ) {
        let CbParams::LaunchKernel { func, .. } = params else { return };
        if is_exit || cbid != CbId::LaunchKernel {
            return;
        }
        let mut targets = vec![*func];
        targets.extend(api.get_related_funcs(*func).unwrap_or_default());
        for t in targets.into_iter().filter(|t| self.instrumented.insert(*t)) {
            for idx in 0..api.get_instrs(t).unwrap().len() {
                api.insert_call(t, idx, "nvbit_count_pmult", IPoint::After).unwrap();
                api.add_call_arg_imm32(t, idx, 1).unwrap();
                api.add_call_arg_imm64(t, idx, self.ctr).unwrap();
                api.set_coalesce(t, idx).unwrap();
            }
        }
    }
}
