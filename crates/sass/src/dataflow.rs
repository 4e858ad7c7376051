//! Dataflow analysis over SASS basic blocks: backward liveness.
//!
//! **Paper mapping:** §5.1 — the register save/restore cost around every
//! injected call is NVBit's dominant instrumentation overhead. A liveness
//! analysis over the function body lets the code generator pick a per-site
//! save tier covering only the registers whose values actually matter at the
//! injection point, instead of the whole function's register demand.
//!
//! The analysis operates on a [`crate::cfg::basic_blocks`] partition and is
//! deliberately conservative wherever static knowledge runs out:
//!
//! * **predicated definitions are may-defs** — a write under a guard other
//!   than `@PT` does not kill the previous value, because some lanes may
//!   keep it;
//! * **calls** (`CAL`/`JCAL`) treat every register and predicate as used and
//!   may-defined — the callee is not analyzed;
//! * **absolute jumps, returns and traps** leave the function body, so
//!   everything is considered live across them; an unguarded **`EXIT`**
//!   leaves nothing live, a guarded one (`@P0 EXIT`, the bounds check)
//!   what its fall-through needs — the surviving lanes run on;
//! * **`SYNC`** resumes at the reconvergence point its lane's innermost
//!   `SSY` pushed: the analysis walks the [`crate::cfg::flow`] graph the
//!   dominator analysis walks, whose matched resume edges cover callees
//!   entered by an in-body `CAL` and fall back to every `SSY` target when
//!   the bracket structure cannot be established.
//!
//! Indirect branches (`BRX`) defeat the CFG itself; [`Dataflow::analyze`]
//! then returns the [`CfgFailure`] and callers must fall back to a
//! conservative whole-function policy.

use crate::arch::Arch;
use crate::cfg::{self, BasicBlock, CfgFailure};
use crate::inst::{span_regs, Instruction};
use crate::op::CfClass;
use crate::reg::{Pred, Reg};
use common::graph::Graph;
use std::borrow::Borrow;

/// A bitset over the 255 general-purpose registers `R0`..`R254`.
///
/// `RZ` (index 255) is hardwired zero and never appears in the set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegSet {
    words: [u64; 4],
}

impl RegSet {
    /// The empty set.
    pub const EMPTY: RegSet = RegSet { words: [0; 4] };

    /// The set of all writable registers `R0`..`R254`.
    pub fn all() -> RegSet {
        RegSet { words: [u64::MAX, u64::MAX, u64::MAX, u64::MAX >> 1] }
    }

    /// Inserts a register; `RZ` is ignored.
    pub fn insert(&mut self, r: Reg) {
        if !r.is_zero() {
            self.words[r.0 as usize / 64] |= 1 << (r.0 % 64);
        }
    }

    /// Removes a register.
    pub fn remove(&mut self, r: Reg) {
        if !r.is_zero() {
            self.words[r.0 as usize / 64] &= !(1 << (r.0 % 64));
        }
    }

    /// Membership test; always false for `RZ`.
    pub fn contains(&self, r: Reg) -> bool {
        !r.is_zero() && self.words[r.0 as usize / 64] & (1 << (r.0 % 64)) != 0
    }

    /// Unions `other` into `self`; returns true if `self` changed.
    pub fn union_with(&mut self, other: &RegSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let new = *a | *b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// Number of registers in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no register is in the set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Highest register index in the set, if any.
    pub fn max(&self) -> Option<u8> {
        for (wi, w) in self.words.iter().enumerate().rev() {
            if *w != 0 {
                return Some((wi * 64 + 63 - w.leading_zeros() as usize) as u8);
            }
        }
        None
    }

    /// Register indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u8> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                let bit = (rest != 0).then(|| rest.trailing_zeros())?;
                rest &= rest - 1;
                Some((wi as u32 * 64 + bit) as u8)
            })
        })
    }

    /// Highest register index strictly below `bound`, if any.
    ///
    /// Used to size save areas: a caller that only clobbers `R0`..`R{bound-1}`
    /// does not care about live registers at or above `bound`.
    pub fn max_below(&self, bound: u8) -> Option<u8> {
        let bound = usize::from(bound);
        for (wi, w) in self.words.iter().enumerate().rev() {
            let base = wi * 64;
            if base >= bound {
                continue;
            }
            let keep = (bound - base).min(64);
            let masked = if keep == 64 { *w } else { w & ((1u64 << keep) - 1) };
            if masked != 0 {
                return Some((base + 63 - masked.leading_zeros() as usize) as u8);
            }
        }
        None
    }
}

/// The live set at a program point: general-purpose registers plus the
/// writable predicates `P0`..`P6` as a bitmask (`PT` is hardwired and never
/// tracked).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LiveSet {
    /// Live general-purpose registers.
    pub gprs: RegSet,
    /// Live predicates, bit `i` for `Pi` (`i < 7`).
    pub preds: u8,
}

impl LiveSet {
    /// The empty live set.
    pub const EMPTY: LiveSet = LiveSet { gprs: RegSet::EMPTY, preds: 0 };

    /// Everything live: all registers and all writable predicates.
    pub fn all() -> LiveSet {
        LiveSet { gprs: RegSet::all(), preds: 0x7f }
    }

    /// Unions `other` into `self`; returns true if `self` changed.
    pub fn union_with(&mut self, other: &LiveSet) -> bool {
        let g = self.gprs.union_with(&other.gprs);
        let p = self.preds | other.preds;
        let changed = g || p != self.preds;
        self.preds = p;
        changed
    }

    /// True when a predicate is live.
    pub fn pred_live(&self, p: Pred) -> bool {
        !p.is_true_reg() && self.preds & (1 << p.0) != 0
    }

    /// Every register and predicate `instrs` write, guarded or not.
    pub fn written_by<'a>(instrs: impl IntoIterator<Item = &'a Instruction>) -> LiveSet {
        let mut set = LiveSet::EMPTY;
        for i in instrs {
            i.reg_writes().iter().for_each(|r| set.gprs.insert(*r));
            set.preds |= i.pred_writes();
        }
        set
    }

    /// True when a register or predicate is in both sets.
    pub fn meets(&self, other: &LiveSet) -> bool {
        let gprs = self.gprs.words.iter().zip(&other.gprs.words).any(|(a, b)| a & b != 0);
        gprs || self.preds & other.preds != 0
    }
}

/// The liveness solution of one function body: per-instruction live-in /
/// live-out sets, queryable by instruction index.
#[derive(Debug, Clone)]
pub struct Dataflow {
    live_in: Vec<LiveSet>,
    live_out: Vec<LiveSet>,
}

impl Dataflow {
    /// Partitions the body and solves liveness over it. The JIT path gets
    /// its solution from [`crate::Analysis::liveness`], which shares the
    /// partition and flow graph with the dominator analysis; this entry
    /// point serves callers that want liveness alone.
    ///
    /// # Errors
    ///
    /// Propagates the [`CfgFailure`] of [`cfg::basic_blocks`] when the body
    /// cannot be statically partitioned (indirect branches, misaligned
    /// targets) — the caller must fall back to a conservative policy.
    pub fn analyze(instrs: &[Instruction], arch: Arch) -> Result<Dataflow, CfgFailure> {
        let blocks = cfg::basic_blocks(instrs, arch)?;
        Ok(Dataflow::solve(instrs, &blocks, &cfg::flow(instrs, &blocks, arch)))
    }

    /// A sound bound on every live set of `instrs`' solution, found without
    /// solving: the registers and predicates the body reads, or everything
    /// once control can leave the body (a call, `RET`, a trap, an absolute
    /// jump, an indirect branch or a relative branch out of the body), where
    /// a solution makes everything live. A set of writes that does not meet
    /// it writes nothing live anywhere in the body. Beside it, from the same
    /// walk over every register span, the highest register `instrs` name.
    pub fn bound(instrs: &[Instruction], arch: Arch) -> (LiveSet, Option<u8>) {
        let isize = arch.instruction_size() as i64;
        let (mut bound, mut leaves, mut max) = (LiveSet::EMPTY, false, None);
        for (idx, i) in instrs.iter().enumerate() {
            let inside =
                |off: i64| (0..instrs.len() as i64).contains(&(idx as i64 + 1 + off / isize));
            leaves |= match i.cf_class() {
                CfClass::RelCall | CfClass::AbsCall | CfClass::IndirectBranch => true,
                CfClass::AbsJump | CfClass::Ret | CfClass::Trap => true,
                CfClass::RelBranch => !i.rel_target().is_some_and(inside),
                _ => false,
            };
            i.each_span(|r, n, w| {
                max = max.max(span_regs(r, n).last().map(|r| r.0));
                span_regs(r, n).filter(|_| !w).for_each(|r| bound.gprs.insert(r))
            });
            bound.preds |= i.pred_reads();
        }
        (if leaves { LiveSet::all() } else { bound }, max)
    }

    /// Solves backward liveness over a partition and its [`cfg::flow`].
    pub(crate) fn solve(
        instrs: &[impl Borrow<Instruction>],
        blocks: &[BasicBlock],
        flow: &Graph,
    ) -> Dataflow {
        let n = instrs.len();
        let mut block_in = vec![LiveSet::EMPTY; blocks.len()];
        let mut changed = true;
        while changed {
            changed = false;
            for b in blocks.iter().rev() {
                let mut live = block_out(instrs, b, flow.succ(b.id), &block_in);
                for idx in b.range.clone().rev() {
                    transfer_backward(instrs[idx].borrow(), &mut live);
                }
                changed |= block_in[b.id].union_with(&live);
            }
        }
        // Final pass: per-instruction sets.
        let mut live_in = vec![LiveSet::EMPTY; n];
        let mut live_out = vec![LiveSet::EMPTY; n];
        for b in blocks {
            let mut live = block_out(instrs, b, flow.succ(b.id), &block_in);
            for idx in b.range.clone().rev() {
                live_out[idx] = live;
                transfer_backward(instrs[idx].borrow(), &mut live);
                live_in[idx] = live;
            }
        }
        Dataflow { live_in, live_out }
    }

    /// Number of instructions analyzed.
    pub fn len(&self) -> usize {
        self.live_in.len()
    }

    /// True when the analyzed body is empty.
    pub fn is_empty(&self) -> bool {
        self.live_in.is_empty()
    }

    /// The live set immediately before instruction `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn live_in(&self, idx: usize) -> &LiveSet {
        &self.live_in[idx]
    }

    /// The live set immediately after instruction `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn live_out(&self, idx: usize) -> &LiveSet {
        &self.live_out[idx]
    }

    /// Live general-purpose register indices before instruction `idx`, in
    /// ascending order — the paper-API-style query backing
    /// `nvbit`-level `get_live_regs`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn live_regs(&self, idx: usize) -> Vec<u8> {
        self.live_in[idx].gprs.iter().collect()
    }
}

/// Live-out of a block: the union of the live-ins of its `succ`essors in
/// the flow graph, or the conservative extreme when control leaves the
/// function body.
fn block_out(
    instrs: &[impl Borrow<Instruction>],
    b: &BasicBlock,
    succ: &[usize],
    block_in: &[LiveSet],
) -> LiveSet {
    if b.is_empty() {
        return LiveSet::EMPTY;
    }
    match instrs[b.range.end - 1].borrow().cf_class() {
        // Control leaves the body for statically unknown code.
        CfClass::AbsJump | CfClass::Ret | CfClass::Trap => return LiveSet::all(),
        // A relative branch whose target is outside the body behaves like
        // a jump to unknown code.
        CfClass::RelBranch if succ.is_empty() => return LiveSet::all(),
        _ => {}
    }
    // Nothing is live after an `EXIT` — unless it is guarded: the lanes it
    // does not retire run on into its fall-through successor.
    let mut out = LiveSet::EMPTY;
    for &s in succ {
        out.union_with(&block_in[s]);
    }
    out
}

/// One backward transfer step: kill must-defs, add uses.
fn transfer_backward(i: &Instruction, live: &mut LiveSet) {
    if matches!(i.cf_class(), CfClass::RelCall | CfClass::AbsCall) {
        // The callee may read and write anything.
        *live = LiveSet::all();
        return;
    }
    if i.guard.is_always() {
        i.each_span(|r, n, w| span_regs(r, n).filter(|_| w).for_each(|r| live.gprs.remove(r)));
        live.preds &= !i.pred_writes();
    }
    i.each_span(|r, n, w| span_regs(r, n).filter(|_| !w).for_each(|r| live.gprs.insert(r)));
    live.preds |= i.pred_reads();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble_arch;

    fn analyze(text: &str, arch: Arch) -> Dataflow {
        let prog = assemble_arch(text, arch).unwrap();
        Dataflow::analyze(&prog, arch).unwrap()
    }

    #[test]
    fn straight_line_liveness() {
        // R2 is read by the store, R4 feeds R5 which feeds the store address.
        let df = analyze(
            "S2R R4, SR_TID.X ;\n\
             IADD R5, R4, 0x1 ;\n\
             STG [R2], R5 ;\n\
             EXIT ;",
            Arch::Volta,
        );
        // Before the IADD: R4 (its source) and R2/R3 (the store base pair).
        let live = df.live_regs(1);
        assert!(live.contains(&4) && live.contains(&2) && live.contains(&3));
        assert!(!live.contains(&5), "R5 is defined here, not used before");
        // After the store nothing is live (EXIT follows).
        assert!(df.live_out(2).gprs.is_empty());
        // Before the S2R, R4 is dead (it is about to be overwritten).
        assert!(!df.live_regs(0).contains(&4));
    }

    #[test]
    fn branch_joins_union_liveness() {
        // R6 is used only on the fall-through path; it must be live before
        // the branch too.
        let df = analyze(
            "ISETP.GE.S32 P0, R4, 0x10 ;\n\
             @P0 BRA skip ;\n\
             IADD R5, R6, 0x1 ;\n\
             STG [R2], R5 ;\n\
             skip:\n\
             EXIT ;",
            Arch::Kepler,
        );
        assert!(df.live_regs(1).contains(&6));
        assert!(df.live_in(1).pred_live(Pred(0)), "the guard predicate is live");
        // P0 is written by ISETP: dead before it.
        assert!(!df.live_in(0).pred_live(Pred(0)));
    }

    #[test]
    fn predicated_defs_are_may_defs() {
        // The guarded MOV may not execute, so R5's previous value survives:
        // R5 stays live across the predicated write.
        let df = analyze(
            "@P1 MOV R5, R6 ;\n\
             STG [R2], R5 ;\n\
             EXIT ;",
            Arch::Pascal,
        );
        assert!(df.live_regs(0).contains(&5), "may-def does not kill R5");
        // An unconditional def does kill.
        let df2 = analyze(
            "MOV R5, R6 ;\n\
             STG [R2], R5 ;\n\
             EXIT ;",
            Arch::Pascal,
        );
        assert!(!df2.live_regs(0).contains(&5));
    }

    #[test]
    fn loops_reach_fixpoint() {
        // R4 is the induction variable: live throughout the loop.
        let df = analyze(
            "MOV32I R4, 0x0 ;\n\
             loop:\n\
             IADD R4, R4, 0x1 ;\n\
             ISETP.LT.S32 P0, R4, 0x10 ;\n\
             @P0 BRA loop ;\n\
             STG [R2], R4 ;\n\
             EXIT ;",
            Arch::Volta,
        );
        assert!(df.live_regs(1).contains(&4));
        assert!(df.live_out(3).gprs.contains(Reg(4)));
    }

    #[test]
    fn calls_are_fully_conservative() {
        let df = analyze(
            "MOV R4, R5 ;\n\
             JCAL `0x8000 ;\n\
             EXIT ;",
            Arch::Volta,
        );
        // Everything is live going into the call.
        assert_eq!(df.live_in(1).gprs.len(), 255);
        assert_eq!(df.live_in(1).preds, 0x7f);
        // And hence before the MOV too (minus its own must-def R4).
        assert!(!df.live_regs(0).contains(&4));
        assert!(df.live_regs(0).contains(&200));
    }

    #[test]
    fn exit_terminates_liveness_but_ret_does_not() {
        let exit = analyze("MOV R4, R5 ;\nEXIT ;", Arch::Volta);
        assert!(exit.live_out(0).gprs.is_empty());
        let ret = analyze("MOV R4, R5 ;\nRET ;", Arch::Volta);
        // The caller may use anything.
        assert_eq!(ret.live_out(0).gprs.len(), 255);
    }

    #[test]
    fn a_guarded_exit_keeps_its_fall_through_live() {
        // The bounds check: lanes with P0 clear run on into the load, so its
        // base pair, the compared index and P0 itself stay live up to the EXIT.
        let df = analyze(
            "ISETP.GE.S32 P0, R4, 0x10 ;\n\
             @P0 EXIT ;\n\
             LDG R6, [R2] ;\n\
             STG [R2], R6 ;\n\
             EXIT ;",
            Arch::Volta,
        );
        for idx in 0..2 {
            let live = df.live_regs(idx);
            assert!(live.contains(&2) && live.contains(&3), "base pair live at {idx}");
        }
        assert!(df.live_out(1).gprs.contains(Reg(2)), "live across the guarded EXIT");
        assert!(df.live_in(1).pred_live(Pred(0)));
        assert!(!df.live_regs(1).contains(&6), "R6 is defined after it");
        // The unguarded EXIT still ends everything.
        assert!(df.live_out(3).gprs.is_empty());
    }

    #[test]
    fn sync_edges_cover_reconvergence_targets() {
        // The SYNC-ended path must see liveness from the SSY target: R9 is
        // used only at `merge`, after reconvergence.
        let df = analyze(
            "SSY merge ;\n\
             ISETP.EQ.S32 P0, R4, RZ ;\n\
             @P0 BRA merge ;\n\
             IADD R5, R5, 0x1 ;\n\
             SYNC ;\n\
             merge:\n\
             STG [R2], R9 ;\n\
             EXIT ;",
            Arch::Maxwell,
        );
        assert!(df.live_regs(3).contains(&9), "R9 flows through the SYNC edge");
    }

    #[test]
    fn a_sync_resumes_only_at_its_own_regions_target() {
        // Two SSY regions in sequence. R7 is written at the first target and
        // read only after the second: the first region's SYNC resumes at
        // `j1`, which kills R7, never at `j2`, so R7 is dead inside it.
        let text = "\
    SSY j1 ;
    ISETP.EQ.S32 P0, R4, RZ ;
@P0 BRA m1 ;
    IADD R5, R5, 0x1 ;
m1:
    SYNC ;
j1:
    MOV R7, R5 ;
    SSY j2 ;
    ISETP.EQ.S32 P1, R4, 0x1 ;
@P1 BRA m2 ;
    IADD R6, R6, 0x1 ;
m2:
    SYNC ;
j2:
    STG [R2], R7 ;
    EXIT ;
";
        let df = analyze(text, Arch::Maxwell);
        for idx in 0..5 {
            assert!(!df.live_regs(idx).contains(&7), "R7 live in the first region at {idx}");
        }
        assert!(df.live_out(6).gprs.contains(Reg(7)), "live from its write at j1 on");
        assert!(df.live_regs(11).contains(&7), "and across the second region's SYNC");
    }

    #[test]
    fn a_callee_inside_the_body_resumes_at_its_own_target() {
        // `f` runs only through the CAL. Its first arm's SYNC resumes at
        // `j`, which stores R7, so R7 stays live after `MOV R7, 0x1` even
        // though the SYNC falls through to the second arm, which kills it.
        let text = "\
    CAL f ;
    EXIT ;
f:
    SSY j ;
@P0 BRA e ;
    MOV R7, 0x1 ;
    SYNC ;
e:
    MOV R7, 0x2 ;
    SYNC ;
j:
    STG [R2], R7 ;
    RET ;
";
        let df = analyze(text, Arch::Maxwell);
        assert!(df.live_out(4).gprs.contains(Reg(7)), "R7 live after the first arm's MOV");
    }

    #[test]
    fn a_callee_returning_inside_its_own_region_falls_back() {
        // `f` pushes `j` and returns without its SYNC, so the caller's SYNC
        // pops `j`, not `k`: the brackets cannot be matched and the SYNC may
        // resume at every SSY target, making R8 live there.
        let text = "\
    SSY k ;
    CAL f ;
    SYNC ;
k:
    STG [R2], R9 ;
    EXIT ;
f:
    SSY j ;
    RET ;
j:
    STG [R2], R8 ;
    EXIT ;
";
        let df = analyze(text, Arch::Maxwell);
        let sync = 2;
        assert!(df.live_regs(sync).contains(&8) && df.live_regs(sync).contains(&9));
    }

    #[test]
    fn a_sync_on_an_empty_stack_resumes_at_every_ssy_target() {
        // The branch reaches the SYNC before any SSY ran, so the brackets
        // cannot be matched: the SYNC may resume at the fall-through and at
        // `join`, the one SSY target, and its live-out is the union of both.
        let text = "\
    ISETP.EQ.S32 P0, R4, RZ ;
@P0 BRA pad ;
    SSY join ;
    IADD R5, R5, 0x1 ;
pad:
    SYNC ;
    STG [R2], R5 ;
    EXIT ;
join:
    STG [R2], R9 ;
    EXIT ;
";
        let df = analyze(text, Arch::Maxwell);
        let sync = 4;
        assert_eq!(df.live_regs(sync), vec![2, 3, 5, 9]);
        assert_eq!(df.live_out(sync), df.live_in(sync), "SYNC reads and writes nothing");
    }

    #[test]
    fn regset_bit_operations() {
        let mut s = RegSet::EMPTY;
        assert!(s.is_empty() && s.max().is_none());
        s.insert(Reg(0));
        s.insert(Reg(254));
        s.insert(Reg::RZ); // ignored
        assert_eq!(s.len(), 2);
        assert_eq!(s.max(), Some(254));
        assert!(s.contains(Reg(0)) && !s.contains(Reg(7)) && !s.contains(Reg::RZ));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 254]);
        s.remove(Reg(254));
        assert_eq!(s.max(), Some(0));
        assert_eq!(RegSet::all().len(), 255);
        assert_eq!(RegSet::all().max(), Some(254));
    }

    #[test]
    fn regset_max_below_respects_the_bound() {
        let mut s = RegSet::EMPTY;
        s.insert(Reg(3));
        s.insert(Reg(63));
        s.insert(Reg(64));
        s.insert(Reg(200));
        assert_eq!(s.max_below(255), Some(200));
        assert_eq!(s.max_below(200), Some(64), "the bound itself is excluded");
        // Word-boundary cases around bit 64.
        assert_eq!(s.max_below(65), Some(64));
        assert_eq!(s.max_below(64), Some(63));
        assert_eq!(s.max_below(63), Some(3));
        assert_eq!(s.max_below(3), None);
        assert_eq!(s.max_below(0), None);
        assert_eq!(RegSet::EMPTY.max_below(255), None);
    }

    #[test]
    fn icf_propagates_cfg_failure() {
        let prog = assemble_arch("BRX R4 ;\nEXIT ;", Arch::Kepler).unwrap();
        let err = Dataflow::analyze(&prog, Arch::Kepler).unwrap_err();
        assert_eq!(err, CfgFailure::IndirectBranch { index: 0 });
    }

    #[test]
    fn empty_body_analyzes_trivially() {
        let df = Dataflow::analyze(&[], Arch::Volta).unwrap();
        assert!(df.is_empty());
    }
}
