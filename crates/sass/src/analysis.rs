//! The static analysis bundle of one function body.
//!
//! **Paper mapping:** §5.2 / Fig. 5 — analysis is one of the JIT phases
//! paid per function, so it runs once: the body is partitioned once, its
//! per-lane flow graph is built once ([`cfg::flow`]: successors plus the
//! matched `SYNC` resume edges), and the dominator solution and — on first
//! demand, since most builds never read it — the liveness solution both walk
//! that one graph.

use crate::arch::Arch;
use crate::cfg::{self, BasicBlock, CfgFailure};
use crate::dataflow::{Dataflow, LiveSet};
use crate::dom::Dom;
use crate::inst::Instruction;
use common::graph::Graph;
use std::borrow::Borrow;
use std::sync::OnceLock;

/// Everything the planner, the code generator and the verifier know
/// statically about a function body. Either all of it exists or — when
/// indirect control flow or a misaligned target defeats partitioning —
/// none of it does, and [`Analysis::of`] says why.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The [`cfg::basic_blocks`] partition of the body.
    pub blocks: Vec<BasicBlock>,
    /// Dominators, post-dominators and coalescing regions.
    pub dom: Dom,
    /// The [`cfg::flow`] graph both solutions walk.
    flow: Graph,
    /// [`Dataflow::bound`] of the body.
    bound: LiveSet,
    /// The highest general-purpose register the body names, if any.
    pub max_reg: Option<u8>,
    /// Per-instruction live sets, solved by [`Analysis::liveness`].
    liveness: OnceLock<Dataflow>,
}

impl Analysis {
    /// Analyzes a function body; one `sass.analysis` obs event per call.
    ///
    /// # Errors
    ///
    /// The [`CfgFailure`] of [`cfg::basic_blocks`] — callers fall back to
    /// their conservative whole-function policy.
    pub fn of(instrs: &[Instruction], arch: Arch) -> Result<Analysis, CfgFailure> {
        common::obs::counter("sass.analysis", 1);
        let blocks = cfg::basic_blocks(instrs, arch)?;
        let flow = cfg::flow(instrs, &blocks, arch);
        let dom = Dom::solve(instrs, &blocks, &flow);
        let (bound, max_reg) = Dataflow::bound(instrs, arch);
        Ok(Analysis { blocks, dom, flow, bound, max_reg, liveness: OnceLock::new() })
    }

    /// Per-instruction live sets of `instrs`, the body this analysis was
    /// made of, or views of it: solved over the one flow graph on the first
    /// call (one `sass.liveness` obs event), then kept. Its readers are an
    /// out-of-line call's save tier, `get_live_regs` and
    /// [`Analysis::live_around`].
    pub fn liveness(&self, instrs: &[impl Borrow<Instruction>]) -> &Dataflow {
        self.liveness.get_or_init(|| {
            common::obs::counter("sass.liveness", 1);
            Dataflow::solve(instrs, &self.blocks, &self.flow)
        })
    }

    /// The live sets before and after instruction `idx` of `instrs` as a
    /// check of `writes` against them sees them, solving liveness only
    /// when it must: while `writes` does not meet [`Dataflow::bound`], no
    /// live set holds any of them, and the bound stands in for both.
    /// Everything is live around an instruction the body does not have.
    pub fn live_around(
        &self,
        instrs: &[impl Borrow<Instruction>],
        idx: usize,
        writes: &LiveSet,
    ) -> (LiveSet, LiveSet) {
        if idx >= instrs.len() {
            (LiveSet::all(), LiveSet::all())
        } else if !writes.meets(&self.bound) {
            (self.bound, self.bound)
        } else {
            let df = self.liveness(instrs);
            (*df.live_in(idx), *df.live_out(idx))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble_arch;

    #[test]
    fn bundle_matches_the_standalone_entry_points() {
        // SSY/SYNC diamond inside a loop: exercises the matched SYNC edges.
        let text = "\
top:
    SSY join ;
    ISETP.EQ.S32 P0, R0, RZ ;
@P0 BRA merge ;
    IADD R1, R1, 0x1 ;
merge:
    SYNC ;
join:
    IADD R0, R0, 0x1 ;
    ISETP.LT.S32 P1, R0, 0x10 ;
@P1 BRA top ;
    STG [R2], R1 ;
    EXIT ;
";
        let prog = assemble_arch(text, Arch::Maxwell).unwrap();
        let a = Analysis::of(&prog, Arch::Maxwell).unwrap();
        assert_eq!(a.blocks, cfg::basic_blocks(&prog, Arch::Maxwell).unwrap());
        let df = Dataflow::analyze(&prog, Arch::Maxwell).unwrap();
        let dom = Dom::analyze(&prog, &a.blocks, Arch::Maxwell);
        let liveness = a.liveness(&prog);
        for idx in 0..prog.len() {
            assert_eq!(liveness.live_in(idx), df.live_in(idx), "live-in {idx}");
            assert_eq!(liveness.live_out(idx), df.live_out(idx), "live-out {idx}");
        }
        for b in 0..a.blocks.len() {
            assert_eq!(a.dom.idom(b), dom.idom(b));
            assert_eq!(a.dom.ipdom(b), dom.ipdom(b));
            assert_eq!(a.dom.region_head(b), dom.region_head(b));
        }
    }

    #[test]
    fn cfg_failure_means_no_analysis_at_all() {
        let prog = assemble_arch("BRX R4 ;\nEXIT ;", Arch::Kepler).unwrap();
        assert_eq!(
            Analysis::of(&prog, Arch::Kepler).unwrap_err(),
            CfgFailure::IndirectBranch { index: 0 }
        );
    }
}
