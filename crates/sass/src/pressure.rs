//! Register-pressure cost model for inline splicing (paper §5, Fig. 9).
//!
//! The paper's headline overhead reduction depends on inlining tool code at
//! the injection site *without* paying for it in extra register
//! save/restore traffic. This module is the static analysis that makes the
//! trade explicit: it combines the [`crate::dataflow`] liveness solution
//! with the save-tier ladder to answer, per candidate splice site, whether
//! splicing the tool body's write window into the trampoline raises the
//! site's save tier above what the bare call scaffold (save routine, frame
//! pointer, ABI argument slots) already requires.
//!
//! Two exports drive the planner:
//!
//! * [`splice_verdict`] — the accept/decline rule. A splice is **accepted**
//!   when the save tier with the body's write window charged
//!   (`tier_after`) does not exceed the tier the bare call scaffold needs
//!   (`tier_before`), and — when an [`OccupancyCfg`] is supplied — also
//!   when the tier *does* grow but both tiers sit on the same step of the
//!   SM occupancy curve at the launch's block shape (extra registers that
//!   evict no blocks are free). It is **declined** only when the body's
//!   writes would drop resident blocks/SM (or, without an occupancy
//!   model, whenever they cross a tier boundary). Declined calls stay out
//!   of line and the whole-function fallback remains available.
//! * [`body_shape`] — the control-flow classification that extends
//!   inlining past the straight-line leaf threshold: a body is spliceable
//!   when it is a single basic block ([`BodyShape::Straight`]) or a single
//!   guarded forward diamond ([`BodyShape::Diamond`]) — one conditional
//!   branch, two arms, one join — verified against the immediate
//!   (post)dominators of the body's own CFG rather than by an ad-hoc
//!   instruction scan. Loops, multiple conditionals and irreducible shapes
//!   are rejected.

use crate::arch::Arch;
use crate::cfg;
use crate::dataflow::Dataflow;
use crate::dom::Dom;
use crate::inst::Instruction;
use crate::occupancy::{OccupancyCfg, OccupancyPoint};
use crate::op::{CfClass, Op};

/// The save-tier ladder: the save/restore routine sizes the framework
/// emits, ascending, topping out at the full 255-register file. This is
/// the single source of truth — `core::saverestore` re-exports it, and
/// [`tier_of`] prices demands against it.
pub const TIERS: [u16; 6] = [16, 32, 64, 128, 192, 255];

/// Maps a register demand to the smallest ladder tier covering it, or
/// `None` when the demand exceeds the 255-register ladder top — no save
/// routine can cover such a demand, and silently saturating to the top
/// tier would under-save (the pre-ladder bug this replaces).
pub fn tier_of(demand: u16) -> Option<u16> {
    TIERS.iter().copied().find(|&t| t >= demand)
}

/// One candidate splice site, as the planner sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpliceSite {
    /// Index of the instrumented instruction in the original body.
    pub index: usize,
    /// One past the highest register the call *scaffold* clobbers at this
    /// site regardless of inlining: the frame pointer, the argument
    /// materialization scratch, and the ABI argument window.
    pub scaffold_window: u8,
    /// One past the highest register the spliced body writes (its write
    /// ceiling).
    pub body_window: u8,
    /// Save slots any argument reads back from the frame (the maximum
    /// per-argument register demand, in units of "slot r+1 must exist").
    pub arg_demand: u16,
}

/// The rule of [`splice_verdict`]'s ladder that decided a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerdictRule {
    /// Accepted: the body's write window never leaves the call scaffold's.
    ScaffoldContains,
    /// Accepted: both demands land on the same save tier.
    TierFlat,
    /// Accepted: the tier grows but stays on the same occupancy step —
    /// the extra registers evict no blocks at this block shape.
    OccupancyFlat,
    /// Declined: the splice would drop resident blocks/SM (or leave the
    /// launch unlaunchable) at this block shape.
    OccupancyDrop,
    /// Declined: the tier grows and no occupancy model was supplied to
    /// price the growth.
    TierRaise,
    /// Declined: a register demand exceeds the save-tier ladder top.
    LadderOverflow,
}

impl VerdictRule {
    /// Human-readable form of the rule, for diagnostics and traces.
    pub fn reason(self) -> &'static str {
        match self {
            VerdictRule::ScaffoldContains => "write window inside the call scaffold",
            VerdictRule::TierFlat => "no live register crosses a tier boundary",
            VerdictRule::OccupancyFlat => "tier growth stays on the occupancy step",
            VerdictRule::OccupancyDrop => "splice drops resident blocks per SM",
            VerdictRule::TierRaise => "body writes raise the save tier",
            VerdictRule::LadderOverflow => "register demand exceeds the save ladder",
        }
    }
}

/// The cost model's answer for one candidate splice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InlineVerdict {
    /// Splice the body (`true`) or keep the out-of-line call (`false`).
    pub accept: bool,
    /// Save tier the call scaffold alone needs at this site. On a
    /// [`VerdictRule::LadderOverflow`] decline this carries the raw
    /// (un-tiered) demand instead.
    pub tier_before: u16,
    /// Save tier with the body's write window charged (raw demand on
    /// ladder overflow, like `tier_before`).
    pub tier_after: u16,
    /// Occupancy of `tier_before` at the configured block shape, when an
    /// [`OccupancyCfg`] was supplied and both demands fit the ladder.
    pub occ_before: Option<OccupancyPoint>,
    /// Occupancy of `tier_after`, under the same conditions.
    pub occ_after: Option<OccupancyPoint>,
    /// The rule that decided this candidate.
    pub rule: VerdictRule,
}

impl InlineVerdict {
    /// Human-readable form of the rule that fired.
    pub fn reason(&self) -> &'static str {
        self.rule.reason()
    }
}

/// The accept/decline rule (DESIGN §4h/§4i): compute the site's save tier
/// with and without the body's write window, then price any tier growth
/// on the SM occupancy curve.
///
/// `tier_before` charges live registers below the scaffold window plus the
/// argument read-back demand; `tier_after` widens the clobber window to
/// the body's write ceiling. Both are lower bounds on a *sound* save for
/// the respective shapes. The rule ladder, first match wins:
///
/// 1. either demand overflows [`TIERS`] → decline
///    ([`VerdictRule::LadderOverflow`]; the tier fields carry the raw
///    demands);
/// 2. the body's write window fits the *unclamped* scaffold window →
///    accept ([`VerdictRule::ScaffoldContains`]);
/// 3. `tier_after <= tier_before` → accept ([`VerdictRule::TierFlat`]);
/// 4. with an [`OccupancyCfg`]: accept the growth iff `tier_after` keeps
///    at least `tier_before`'s blocks/SM and stays launchable
///    ([`VerdictRule::OccupancyFlat`] / [`VerdictRule::OccupancyDrop`]);
/// 5. without one, tier growth declines ([`VerdictRule::TierRaise`]).
pub fn splice_verdict(
    df: &Dataflow,
    site: &SpliceSite,
    occ: Option<&OccupancyCfg>,
) -> InlineVerdict {
    // The clamp applies only to the *live window* (a zero-wide scaffold
    // still occupies the frame-pointer register), not to rule 2's
    // containment test below.
    let scaffold = site.scaffold_window.max(1);
    let spliced = scaffold.max(site.body_window);

    let live_demand = |window: u8| -> u16 {
        df.max_live_below(site.index, window).map_or(0, |r| u16::from(r) + 1)
    };
    let before_demand = live_demand(scaffold).max(site.arg_demand);
    let after_demand = live_demand(spliced).max(site.arg_demand);
    let (Some(tier_before), Some(tier_after)) = (tier_of(before_demand), tier_of(after_demand))
    else {
        return InlineVerdict {
            accept: false,
            tier_before: before_demand,
            tier_after: after_demand,
            occ_before: None,
            occ_after: None,
            rule: VerdictRule::LadderOverflow,
        };
    };

    let (occ_before, occ_after) = match occ {
        Some(cfg) => (
            Some(cfg.model.occupancy(tier_before, cfg.block_threads)),
            Some(cfg.model.occupancy(tier_after, cfg.block_threads)),
        ),
        None => (None, None),
    };

    let (accept, rule) = if site.body_window <= site.scaffold_window {
        (true, VerdictRule::ScaffoldContains)
    } else if tier_after <= tier_before {
        (true, VerdictRule::TierFlat)
    } else if let (Some(b), Some(a)) = (occ_before, occ_after) {
        if a.blocks_per_sm >= b.blocks_per_sm && a.blocks_per_sm > 0 {
            (true, VerdictRule::OccupancyFlat)
        } else {
            (false, VerdictRule::OccupancyDrop)
        }
    } else {
        (false, VerdictRule::TierRaise)
    };
    InlineVerdict { accept, tier_before, tier_after, occ_before, occ_after, rule }
}

/// Control-flow shape of a spliceable tool body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyShape {
    /// A single basic block ending in the trailing `RET` — the classic
    /// inlinable leaf.
    Straight,
    /// A single guarded forward diamond (the `nvbit_count_one` early-ret
    /// pattern): one conditional branch in the entry block, at most one
    /// fall-through arm, reconverging at a single join that leads
    /// straight to the trailing `RET`.
    Diamond,
}

/// Classifies a tool body's control-flow shape for inline splicing.
///
/// Returns `None` when the body is not spliceable: empty, no unguarded
/// trailing `RET`, an extra `RET`, any backward (loop) branch, more than
/// one conditional branch, or a shape whose entry/join do not satisfy the
/// diamond dominance relation `idom(join) == entry && ipdom(entry) ==
/// join` over the body's own CFG.
pub fn body_shape(body: &[Instruction], arch: Arch) -> Option<BodyShape> {
    if body.is_empty() {
        return None;
    }
    let last = body.len() - 1;
    if body[last].op != Op::Ret || !body[last].guard.is_always() {
        return None;
    }
    let isize = arch.instruction_size() as i64;
    let mut guarded_branches = 0usize;
    for (i, ins) in body.iter().enumerate() {
        match ins.cf_class() {
            CfClass::Ret if i == last => {}
            CfClass::Ret => return None,
            CfClass::None | CfClass::Sync | CfClass::Ssy | CfClass::Bar => {}
            CfClass::RelBranch => {
                if !ins.guard.is_always() {
                    guarded_branches += 1;
                }
            }
            // Calls, indirect branches, EXIT, traps, absolute jumps: the
            // body escapes the trampoline — never spliceable.
            _ => return None,
        }
        if let Some(off) = ins.rel_target() {
            if off % isize != 0 {
                return None; // misaligned target: not an instruction boundary
            }
            if off < 0 {
                return None; // backward branch: a loop is never spliceable
            }
            let t = i as i64 + 1 + off / isize;
            if !(0..=last as i64).contains(&t) {
                return None; // control flow escapes the body
            }
        }
    }

    let blocks = cfg::basic_blocks(body, arch).ok()?;
    if blocks.len() == 1 {
        return Some(BodyShape::Straight);
    }
    if guarded_branches != 1 {
        return None;
    }

    // The single conditional must terminate the entry block, and the body
    // must reconverge at a single join: idom(join) == entry and
    // ipdom(entry) == join, with everything from the join onward a
    // straight fall-through chain to the trailing RET.
    let dom = Dom::analyze(body, &blocks, arch);
    let entry = 0usize;
    let branch_idx = blocks[entry].range.end - 1;
    let branch = &body[branch_idx];
    if branch.cf_class() != CfClass::RelBranch || branch.guard.is_always() {
        return None;
    }
    let join = dom.ipdom(entry)?;
    if dom.idom(join) != Some(entry) {
        return None;
    }
    for b in &blocks {
        if !dom.reachable(b.id) {
            return None;
        }
        // Past the join everything must fall straight through to the RET:
        // no further branching decisions.
        if b.id >= join {
            let succs = cfg::successors(body, &blocks, b, arch);
            if succs.len() > 1 {
                return None;
            }
        } else if b.id != entry {
            // Arm blocks flow only into the join region.
            let succs = cfg::successors(body, &blocks, b, arch);
            if succs.iter().any(|&s| s < join) {
                return None;
            }
        }
    }
    Some(BodyShape::Diamond)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble_arch;

    fn shapes(text: &str) -> Option<BodyShape> {
        let body = assemble_arch(text, Arch::Volta).unwrap();
        body_shape(&body, Arch::Volta)
    }

    #[test]
    fn straight_line_bodies_classify_as_leaves() {
        assert_eq!(shapes("IADD R4, R4, 0x1 ;\nRET ;"), Some(BodyShape::Straight));
    }

    #[test]
    fn guarded_early_ret_diamonds_classify() {
        // The compiled `nvbit_count_one` shape: guarded skip over the
        // counting arm, SSY/SYNC reconvergence, trailing RET.
        let text = "\
    ISETP.EQ.U32 P0, R4, 0x0 ;
    SSY end ;
@P0 BRA join ;
    IADD R5, R5, 0x1 ;
    BRA join ;
join:
    SYNC ;
end:
    RET ;
";
        assert_eq!(shapes(text), Some(BodyShape::Diamond));
    }

    #[test]
    fn loops_and_extra_rets_are_rejected() {
        // Backward branch: a loop is never spliceable.
        let looped = "\
top:
    IADD R4, R4, 0x1 ;
@P0 BRA top ;
    RET ;
";
        assert_eq!(shapes(looped), None);
        // Guarded RET is not a trailing unguarded RET.
        assert_eq!(shapes("@P1 RET ;\nIADD R4, R4, 0x1 ;\nRET ;"), None);
        // Two conditionals: not a single diamond.
        let double = "\
@P0 BRA a ;
    IADD R4, R4, 0x1 ;
a:
@P1 BRA b ;
    IADD R5, R5, 0x1 ;
b:
    RET ;
";
        assert_eq!(shapes(double), None);
    }

    #[test]
    fn verdict_accepts_when_the_window_stays_inside_the_scaffold() {
        let body = assemble_arch("MOV R0, R4 ;\nIADD R0, R0, 0x1 ;\nEXIT ;", Arch::Volta).unwrap();
        let df = Dataflow::analyze(&body, Arch::Volta).unwrap();
        let v = splice_verdict(
            &df,
            &SpliceSite { index: 1, scaffold_window: 8, body_window: 6, arg_demand: 0 },
            None,
        );
        assert!(v.accept);
        assert_eq!(v.rule, VerdictRule::ScaffoldContains);
        assert_eq!(v.tier_before, v.tier_after);
    }

    #[test]
    fn verdict_declines_when_body_writes_cross_a_tier_boundary() {
        // R20 is live across instruction 1; a body window of 24 pulls it
        // into the save window (tier 32), the bare scaffold does not.
        let text = "\
    MOV R20, R4 ;
    IADD R0, R4, 0x1 ;
    STG [R20], R0 ;
    EXIT ;
";
        let body = assemble_arch(text, Arch::Volta).unwrap();
        let df = Dataflow::analyze(&body, Arch::Volta).unwrap();
        let v = splice_verdict(
            &df,
            &SpliceSite { index: 1, scaffold_window: 8, body_window: 24, arg_demand: 0 },
            None,
        );
        assert!(!v.accept, "{v:?}");
        assert_eq!(v.rule, VerdictRule::TierRaise);
        assert_eq!(v.tier_before, 16);
        assert_eq!(v.tier_after, 32);
        assert_eq!((v.occ_before, v.occ_after), (None, None));
    }

    #[test]
    fn verdict_accepts_at_the_ladder_top_tier() {
        // R250 is live across the site: both demands land on the ladder's
        // last tier, so widening the window cannot raise the tier further
        // and the splice is free.
        let text = "\
    MOV R250, R4 ;
    IADD R0, R4, 0x1 ;
    STG [R250], R0 ;
    EXIT ;
";
        let body = assemble_arch(text, Arch::Volta).unwrap();
        let df = Dataflow::analyze(&body, Arch::Volta).unwrap();
        let v = splice_verdict(
            &df,
            &SpliceSite { index: 1, scaffold_window: 255, body_window: 255, arg_demand: 255 },
            None,
        );
        assert!(v.accept, "{v:?}");
        assert_eq!(v.tier_before, 255);
        assert_eq!(v.tier_after, 255);
    }

    #[test]
    fn verdict_ignores_predicate_only_deltas() {
        // Only a predicate (P3) and a low register are live across the
        // site. Predicates live in their own file — the save tiers ladder
        // general-purpose registers — so widening the window from the
        // scaffold to the body must not move the GPR demand and the splice
        // is accepted.
        let text = "\
    ISETP.EQ.U32 P3, R4, 0x0 ;
    IADD R0, R4, 0x1 ;
@P3 STG [R4], R0 ;
    EXIT ;
";
        let body = assemble_arch(text, Arch::Volta).unwrap();
        let df = Dataflow::analyze(&body, Arch::Volta).unwrap();
        let v = splice_verdict(
            &df,
            &SpliceSite { index: 1, scaffold_window: 8, body_window: 24, arg_demand: 0 },
            None,
        );
        assert!(v.accept, "{v:?}");
        assert_eq!(v.rule, VerdictRule::TierFlat);
        assert_eq!(v.tier_before, 16, "{v:?}");
        assert_eq!(
            v.tier_after, 16,
            "a predicate crossing the window must not widen the GPR demand: {v:?}"
        );
    }

    #[test]
    fn tier_ladder_is_total_below_the_register_file() {
        assert_eq!(tier_of(0), Some(16));
        assert_eq!(tier_of(16), Some(16));
        assert_eq!(tier_of(17), Some(32));
        assert_eq!(tier_of(128), Some(128));
        assert_eq!(tier_of(255), Some(255));
        // Regression: demands beyond the ladder top used to saturate to
        // 255 silently — they must be unrepresentable instead.
        assert_eq!(tier_of(256), None);
        assert_eq!(tier_of(u16::MAX), None);
    }

    #[test]
    fn verdict_declines_demands_beyond_the_ladder() {
        let body = assemble_arch("MOV R0, R4 ;\nIADD R0, R0, 0x1 ;\nEXIT ;", Arch::Volta).unwrap();
        let df = Dataflow::analyze(&body, Arch::Volta).unwrap();
        // An argument reading back slot 300 cannot be covered by any save
        // routine: decline, with the raw demands (not a fake tier).
        let v = splice_verdict(
            &df,
            &SpliceSite { index: 1, scaffold_window: 8, body_window: 6, arg_demand: 300 },
            None,
        );
        assert!(!v.accept, "{v:?}");
        assert_eq!(v.rule, VerdictRule::LadderOverflow);
        assert_eq!((v.tier_before, v.tier_after), (300, 300));
    }

    #[test]
    fn zero_scaffold_sites_fall_through_to_the_tier_rules() {
        let body = assemble_arch("MOV R0, R4 ;\nIADD R0, R0, 0x1 ;\nEXIT ;", Arch::Volta).unwrap();
        let df = Dataflow::analyze(&body, Arch::Volta).unwrap();
        // Regression: `scaffold_window: 0` with `body_window: 1` was
        // accepted under the containment rule via the max(1) live-window
        // clamp. The body does NOT fit a zero-wide scaffold — it must be
        // accepted (if at all) by the tier rules.
        let v = splice_verdict(
            &df,
            &SpliceSite { index: 1, scaffold_window: 0, body_window: 1, arg_demand: 0 },
            None,
        );
        assert!(v.accept, "{v:?}");
        assert_eq!(v.rule, VerdictRule::TierFlat, "containment must use the unclamped window");
        // A genuinely contained window still fires the scaffold rule.
        let v = splice_verdict(
            &df,
            &SpliceSite { index: 1, scaffold_window: 0, body_window: 0, arg_demand: 0 },
            None,
        );
        assert_eq!(v.rule, VerdictRule::ScaffoldContains);
    }

    #[test]
    fn occupancy_flat_tier_growth_is_accepted() {
        // Same site as verdict_declines_when_body_writes_cross_a_tier_boundary:
        // the 16 → 32 tier raise. On Volta at block dim 128 both tiers fit
        // 16 blocks/SM, so with an occupancy model the growth is free.
        let text = "\
    MOV R20, R4 ;
    IADD R0, R4, 0x1 ;
    STG [R20], R0 ;
    EXIT ;
";
        let body = assemble_arch(text, Arch::Volta).unwrap();
        let df = Dataflow::analyze(&body, Arch::Volta).unwrap();
        let cfg = crate::occupancy::OccupancyCfg::volta(128);
        let v = splice_verdict(
            &df,
            &SpliceSite { index: 1, scaffold_window: 8, body_window: 24, arg_demand: 0 },
            Some(&cfg),
        );
        assert!(v.accept, "{v:?}");
        assert_eq!(v.rule, VerdictRule::OccupancyFlat);
        assert_eq!((v.tier_before, v.tier_after), (16, 32));
        let (b, a) = (v.occ_before.unwrap(), v.occ_after.unwrap());
        assert_eq!(b.blocks_per_sm, 16);
        assert_eq!(a.blocks_per_sm, 16);
    }

    #[test]
    fn occupancy_cliff_tier_growth_is_declined() {
        // A 32 → 64 raise crosses an allocation cliff on Volta at block
        // dim 128 (16 → 8 blocks/SM): still declined, now with the curve
        // as the stated reason.
        let text = "\
    MOV R40, R4 ;
    IADD R0, R4, 0x1 ;
    STG [R40], R0 ;
    EXIT ;
";
        let body = assemble_arch(text, Arch::Volta).unwrap();
        let df = Dataflow::analyze(&body, Arch::Volta).unwrap();
        let cfg = crate::occupancy::OccupancyCfg::volta(128);
        let v = splice_verdict(
            &df,
            &SpliceSite { index: 1, scaffold_window: 8, body_window: 48, arg_demand: 20 },
            Some(&cfg),
        );
        assert!(!v.accept, "{v:?}");
        assert_eq!(v.rule, VerdictRule::OccupancyDrop);
        assert_eq!((v.tier_before, v.tier_after), (32, 64));
        assert!(v.occ_after.unwrap().blocks_per_sm < v.occ_before.unwrap().blocks_per_sm);
    }

    #[test]
    fn unlaunchable_after_tiers_are_declined() {
        // At block dim 512 a 192-register tier already fits zero blocks:
        // "no drop" is not enough, the post-splice shape must actually be
        // launchable.
        let text = "\
    MOV R250, R4 ;
    IADD R0, R4, 0x1 ;
    STG [R250], R0 ;
    EXIT ;
";
        let body = assemble_arch(text, Arch::Volta).unwrap();
        let df = Dataflow::analyze(&body, Arch::Volta).unwrap();
        let cfg = crate::occupancy::OccupancyCfg::volta(512);
        let v = splice_verdict(
            &df,
            &SpliceSite { index: 1, scaffold_window: 8, body_window: 255, arg_demand: 150 },
            Some(&cfg),
        );
        assert!(!v.accept, "{v:?}");
        assert_eq!(v.rule, VerdictRule::OccupancyDrop);
        assert_eq!((v.tier_before, v.tier_after), (192, 255));
        assert_eq!(v.occ_after.unwrap().blocks_per_sm, 0);
    }

    #[test]
    fn misaligned_forward_targets_are_rejected() {
        use crate::inst::Operand;
        use crate::reg::Reg;
        // The assembler cannot emit a misaligned target, so build the body
        // directly: a forward branch whose offset (8) is not a multiple of
        // the Volta instruction size (16).
        let misaligned = vec![
            Instruction::new(Op::Bra, vec![Operand::Rel(8)]),
            Instruction::new(
                Op::Iadd,
                vec![Operand::Reg(Reg(4)), Operand::Reg(Reg(4)), Operand::Imm(1)],
            ),
            Instruction::new(Op::Ret, vec![]),
        ];
        assert_eq!(body_shape(&misaligned, Arch::Volta), None);
        // Forward and aligned, the same offset expressed in whole
        // instructions is structurally fine (it fails diamond
        // classification later, not the alignment check) — the misaligned
        // case must be rejected *before* any dominance reasoning.
        let aligned = vec![
            Instruction::new(Op::Bra, vec![Operand::Rel(16)]),
            Instruction::new(
                Op::Iadd,
                vec![Operand::Reg(Reg(4)), Operand::Reg(Reg(4)), Operand::Imm(1)],
            ),
            Instruction::new(Op::Ret, vec![]),
        ];
        // An unguarded forward branch is not a guarded diamond: still not
        // spliceable, but it gets past the per-instruction target checks.
        assert_eq!(body_shape(&aligned, Arch::Volta), None);
    }
}
