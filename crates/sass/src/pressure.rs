//! The save-tier ladder and the tool-body shape classifier (paper §5.1,
//! Fig. 9).
//!
//! Two things the code generator and the pre-swap verifier must agree on
//! live here, below both:
//!
//! * [`TIERS`] / [`tier_of`] — the sizes of the generic save/restore
//!   routines a *called* tool (and a splice that cannot keep its
//!   predicates) goes through, and the map from a register demand to the
//!   smallest routine covering it. A spliced body under liveness sizing
//!   does not use the ladder at all: it saves exactly the registers it
//!   clobbers that are live at the site.
//! * [`body_shape`] — the control-flow half of the one splice rule. A tool
//!   body is spliceable when it is a single basic block
//!   ([`BodyShape::Straight`]) or a single guarded forward diamond
//!   ([`BodyShape::Diamond`]) — one conditional branch, two arms, one join —
//!   verified against the immediate (post)dominators of the body's own CFG
//!   rather than by an ad-hoc instruction scan. Loops, multiple
//!   conditionals and irreducible shapes are rejected. Whether a call is
//!   spliced is a static property of its body (this shape plus the size,
//!   call, stack and device-API conditions of the core's classifier),
//!   never of the site.

use crate::arch::Arch;
use crate::cfg;
use crate::dom::Dom;
use crate::inst::Instruction;
use crate::op::{CfClass, Op};

/// The save-tier ladder: the save/restore routine sizes the framework
/// emits, ascending, topping out at the full 255-register file. This is
/// the single source of truth — `core::saverestore` re-exports it, and
/// [`tier_of`] maps demands onto it.
pub const TIERS: [u16; 6] = [16, 32, 64, 128, 192, 255];

/// Maps a register demand to the smallest ladder tier covering it, or
/// `None` when the demand exceeds the 255-register ladder top — no save
/// routine can cover such a demand, and silently saturating to the top
/// tier would under-save (the pre-ladder bug this replaces).
pub fn tier_of(demand: u16) -> Option<u16> {
    TIERS.iter().copied().find(|&t| t >= demand)
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
    fn misaligned_forward_targets_are_rejected() {
        use crate::inst::Operand;
        use crate::reg::Reg;
        // The assembler cannot emit a misaligned target, so build the body
        // directly: a forward branch whose offset (8) is not a multiple of
        // the Volta instruction size (16).
        let misaligned = vec![
            Instruction::new(Op::Bra, [Operand::Rel(8)]),
            Instruction::new(
                Op::Iadd,
                [Operand::Reg(Reg(4)), Operand::Reg(Reg(4)), Operand::Imm(1)],
            ),
            Instruction::new(Op::Ret, []),
        ];
        assert_eq!(body_shape(&misaligned, Arch::Volta), None);
        // Forward and aligned, the same offset expressed in whole
        // instructions is structurally fine (it fails diamond
        // classification later, not the alignment check) — the misaligned
        // case must be rejected *before* any dominance reasoning.
        let aligned = vec![
            Instruction::new(Op::Bra, [Operand::Rel(16)]),
            Instruction::new(
                Op::Iadd,
                [Operand::Reg(Reg(4)), Operand::Reg(Reg(4)), Operand::Imm(1)],
            ),
            Instruction::new(Op::Ret, []),
        ];
        // An unguarded forward branch is not a guarded diamond: still not
        // spliceable, but it gets past the per-instruction target checks.
        assert_eq!(body_shape(&aligned, Arch::Volta), None);
    }
}
