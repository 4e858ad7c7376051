//! Basic-block partitioning of instruction sequences.
//!
//! Implements the paper's definition (§4, Inspection API): blocks are maximal
//! runs of consecutive PCs ending at (a) the PC before a control-flow
//! instruction or (b) the PC that is the target of a control-flow
//! instruction. Indirect control flow (`BRX`) makes static partitioning
//! impossible, in which case [`basic_blocks`] returns a [`CfgFailure`]
//! explaining why and callers must fall back to the flat view — the same
//! behaviour NVBit documents, with the failure reason made explicit so the
//! dataflow fallback and the image verifier can report it. There is no
//! partial partition: an indirect branch may land on any instruction, so
//! without the full CFG no two instructions are known to execute together,
//! and the instrumentation planner merges no calls.

use crate::arch::Arch;
use crate::inst::Instruction;
use crate::op::CfClass;
use common::graph::Graph;
use std::ops::Range;

/// Why static basic-block partitioning (and hence dataflow analysis) bailed
/// out on a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CfgFailure {
    /// The body contains an indirect branch (`BRX`) whose target set is not
    /// statically known — the paper's ICF exception.
    IndirectBranch {
        /// Index of the offending instruction.
        index: usize,
    },
    /// A relative control-flow target is not aligned to the architecture's
    /// instruction size, so it cannot land on an instruction boundary.
    MisalignedTarget {
        /// Index of the offending instruction.
        index: usize,
        /// The byte offset that failed to align.
        offset: i64,
    },
}

impl std::fmt::Display for CfgFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CfgFailure::IndirectBranch { index } => {
                write!(f, "indirect branch (BRX) at instruction {index} defeats static analysis")
            }
            CfgFailure::MisalignedTarget { index, offset } => write!(
                f,
                "relative target {offset:#x} of instruction {index} is not instruction-aligned"
            ),
        }
    }
}

impl std::error::Error for CfgFailure {}

/// A basic block: a half-open range of instruction indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// Block id, equal to its position in the returned vector.
    pub id: usize,
    /// Indices into the instruction slice this block covers.
    pub range: Range<usize>,
}

impl BasicBlock {
    /// Number of instructions in the block.
    pub fn len(&self) -> usize {
        self.range.len()
    }

    /// True if the block is empty (never produced by [`basic_blocks`]).
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }
}

/// Partitions a function body into basic blocks.
///
/// `instrs` is the complete body in program order; relative targets are
/// interpreted using `arch`'s instruction size. Returns a [`CfgFailure`]
/// when the body contains indirect control flow (the paper's ICF exception)
/// or a misaligned relative target. Targets that fall outside the body
/// (calls into other functions, absolute jumps) do not create leaders.
///
/// # Errors
///
/// [`CfgFailure::IndirectBranch`] on `BRX`,
/// [`CfgFailure::MisalignedTarget`] when a relative offset is not a multiple
/// of the instruction size.
pub fn basic_blocks(
    instrs: &[Instruction],
    arch: Arch,
) -> std::result::Result<Vec<BasicBlock>, CfgFailure> {
    if instrs.is_empty() {
        return Ok(Vec::new());
    }
    let isize = arch.instruction_size() as i64;
    let n = instrs.len();
    let mut leader = vec![false; n];
    leader[0] = true;

    for (idx, i) in instrs.iter().enumerate() {
        let cf = i.cf_class();
        if cf == CfClass::IndirectBranch {
            return Err(CfgFailure::IndirectBranch { index: idx });
        }
        // Reconvergence-point pushes (SSY) mark their target a leader but do
        // not themselves end a block.
        if let Some(off) = i.rel_target() {
            if off % isize != 0 {
                return Err(CfgFailure::MisalignedTarget { index: idx, offset: off });
            }
            let next = idx as i64 + 1;
            let target = next + off / isize;
            if (0..n as i64).contains(&target) {
                leader[target as usize] = true;
            }
        }
        if cf.ends_block() && idx + 1 < n {
            leader[idx + 1] = true;
        }
    }

    let mut blocks = Vec::new();
    let mut start = 0usize;
    for idx in (1..n).filter(|idx| leader[*idx]) {
        blocks.push(BasicBlock { id: blocks.len(), range: start..idx });
        start = idx;
    }
    blocks.push(BasicBlock { id: blocks.len(), range: start..n });
    Ok(blocks)
}

/// Index of the block containing instruction `idx` within a partition
/// produced by [`basic_blocks`]. Blocks are contiguous, sorted and cover
/// the whole body, so this is a binary search; `None` means `idx` lies
/// outside the partition (past the end of the body).
///
/// This is the block↔site mapping the instrumentation planner uses to
/// group injection sites by basic block.
pub fn block_of(blocks: &[BasicBlock], idx: usize) -> Option<usize> {
    let i = blocks.partition_point(|b| b.range.end <= idx);
    (i < blocks.len() && blocks[i].range.contains(&idx)).then_some(i)
}

/// The static successors of one block: a branch target and a fall-through
/// at most.
pub type Successors = common::InlineVec<usize, 2>;

/// Successor block ids of `block` within a partition, following fall-through
/// and in-range relative branch edges. Calls fall through; an unguarded
/// `EXIT`/`RET`/trap has no successors, a guarded one retires only its
/// guard-true lanes and the rest fall through.
pub fn successors(
    instrs: &[Instruction],
    blocks: &[BasicBlock],
    block: &BasicBlock,
    arch: Arch,
) -> Successors {
    let isize = arch.instruction_size() as i64;
    let last_idx = block.range.end - 1;
    let last = &instrs[last_idx];
    let cf = last.cf_class();
    // The branch target, then the fall-through: a predicated branch or
    // terminator also falls through, an unconditional one does not. `SYNC`
    // transfers to the pushed reconvergence point, which is not statically
    // known here; it is treated as fall-through for CFG purposes.
    let target = last.rel_target().filter(|_| cf == CfClass::RelBranch);
    let target = target.map(|off| last_idx as i64 + 1 + off / isize);
    let leaves = matches!(cf, CfClass::Ret | CfClass::Exit | CfClass::Trap | CfClass::RelBranch);
    let falls = (!leaves || !last.guard.is_always()).then_some(last_idx as i64 + 1);
    let mut out = Successors::default();
    for idx in target.into_iter().chain(falls).filter(|t| (0..instrs.len() as i64).contains(t)) {
        if let Some(id) = block_starting_at(blocks, idx as usize).filter(|id| !out.contains(id)) {
            out.push(id);
        }
    }
    out
}

/// Id of the block whose first instruction is `idx`, if `idx` is a leader.
fn block_starting_at(blocks: &[BasicBlock], idx: usize) -> Option<usize> {
    blocks.binary_search_by_key(&idx, |b| b.range.start).ok()
}

/// The static edges of a [`basic_blocks`] partition, built once per body
/// and shared by the liveness and dominator analyses (which differ only in
/// how they turn the `SSY` records into `SYNC` edges).
#[derive(Debug, Clone)]
pub(crate) struct Edges {
    /// [`successors`] of every block, indexed by block id.
    pub succ: Graph,
    /// Every `SSY` in program order as `(host block, target block)`; the
    /// target is `None` when it is malformed, outside the body or not a
    /// block leader.
    pub ssy: Vec<(usize, Option<usize>)>,
    /// The coarse reconvergence model: every block some `SSY` targets, in
    /// program order without duplicates. A `SYNC` may resume at any of them.
    pub ssy_targets: Vec<usize>,
}

impl Edges {
    /// Builds the edges of `blocks`, which must partition `instrs`.
    pub fn of(instrs: &[Instruction], blocks: &[BasicBlock], arch: Arch) -> Edges {
        let isize = arch.instruction_size() as i64;
        let mut succ = Graph::with_capacity(blocks.len(), 2 * blocks.len());
        for b in blocks {
            succ.push_node(successors(instrs, blocks, b, arch).iter().copied());
        }
        let mut ssy = Vec::new();
        for b in blocks {
            for idx in b.range.clone() {
                if instrs[idx].cf_class() != CfClass::Ssy {
                    continue;
                }
                let target = instrs[idx]
                    .rel_target()
                    .map(|off| idx as i64 + 1 + off / isize)
                    .filter(|t| (0..instrs.len() as i64).contains(t))
                    .and_then(|t| block_starting_at(blocks, t as usize));
                ssy.push((b.id, target));
            }
        }
        let mut ssy_targets = Vec::new();
        for t in ssy.iter().filter_map(|&(_, t)| t) {
            if !ssy_targets.contains(&t) {
                ssy_targets.push(t);
            }
        }
        Edges { succ, ssy, ssy_targets }
    }

    /// Where the `SYNC` ending `block` may resume under the coarse model
    /// (nowhere when the block does not end in one).
    pub fn coarse_sync(&self, instrs: &[Instruction], block: &BasicBlock) -> &[usize] {
        match instrs[block.range.end - 1].cf_class() {
            CfClass::Sync => &self.ssy_targets,
            _ => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble_arch;

    const BODY: &str = "\
    S2R R0, SR_TID.X ;
    ISETP.GE.S32 P0, R0, 0x10 ;
@P0 BRA skip ;
    IADD R1, R0, 0x1 ;
    STG [R2], R1 ;
skip:
    EXIT ;
";

    #[test]
    fn blocks_split_at_branches_and_targets() {
        for arch in [Arch::Kepler, Arch::Volta] {
            let prog = assemble_arch(BODY, arch).unwrap();
            let blocks = basic_blocks(&prog, arch).unwrap();
            let ranges: Vec<_> = blocks.iter().map(|b| b.range.clone()).collect();
            assert_eq!(ranges, vec![0..3, 3..5, 5..6], "arch {arch}");
        }
    }

    #[test]
    fn blocks_partition_all_instructions() {
        let prog = assemble_arch(BODY, Arch::Pascal).unwrap();
        let blocks = basic_blocks(&prog, Arch::Pascal).unwrap();
        let total: usize = blocks.iter().map(BasicBlock::len).sum();
        assert_eq!(total, prog.len());
        // Contiguous and ordered.
        let mut next = 0;
        for b in &blocks {
            assert_eq!(b.range.start, next);
            assert!(!b.is_empty());
            next = b.range.end;
        }
        assert_eq!(next, prog.len());
    }

    #[test]
    fn indirect_branches_defeat_partitioning() {
        let prog = assemble_arch("BRX R4 ;\nEXIT ;", Arch::Kepler).unwrap();
        assert_eq!(basic_blocks(&prog, Arch::Kepler), Err(CfgFailure::IndirectBranch { index: 0 }));
    }

    #[test]
    fn misaligned_targets_are_reported() {
        use crate::inst::{Instruction, Operand};
        use crate::op::Op;
        let prog =
            vec![Instruction::new(Op::Bra, [Operand::Rel(3)]), Instruction::new(Op::Exit, [])];
        assert_eq!(
            basic_blocks(&prog, Arch::Volta),
            Err(CfgFailure::MisalignedTarget { index: 0, offset: 3 })
        );
    }

    #[test]
    fn ssy_targets_are_leaders_but_ssy_does_not_end_a_block() {
        let text = "\
    SSY merge ;
    ISETP.EQ.S32 P0, R0, RZ ;
@P0 BRA merge ;
    IADD R1, R1, 0x1 ;
merge:
    SYNC ;
    EXIT ;
";
        let prog = assemble_arch(text, Arch::Maxwell).unwrap();
        let blocks = basic_blocks(&prog, Arch::Maxwell).unwrap();
        let ranges: Vec<_> = blocks.iter().map(|b| b.range.clone()).collect();
        // SSY and the compare/branch share a block; the SSY target (`merge`)
        // starts one.
        assert_eq!(ranges, vec![0..3, 3..4, 4..5, 5..6]);
    }

    #[test]
    fn successor_edges() {
        let prog = assemble_arch(BODY, Arch::Kepler).unwrap();
        let blocks = basic_blocks(&prog, Arch::Kepler).unwrap();
        // Block 0 ends in a predicated branch: both the target and the
        // fall-through are successors.
        let s0 = successors(&prog, &blocks, &blocks[0], Arch::Kepler);
        assert_eq!(*s0, [2, 1]);
        // Block 1 falls through to block 2.
        assert_eq!(*successors(&prog, &blocks, &blocks[1], Arch::Kepler), [2]);
        // Block 2 exits.
        assert!(successors(&prog, &blocks, &blocks[2], Arch::Kepler).is_empty());
    }

    #[test]
    fn a_guarded_exit_falls_through() {
        let text = "ISETP.GE.S32 P0, R0, 0x10 ;\n@P0 EXIT ;\nSTG [R2], R0 ;\nEXIT ;";
        let prog = assemble_arch(text, Arch::Volta).unwrap();
        let blocks = basic_blocks(&prog, Arch::Volta).unwrap();
        assert_eq!(blocks.len(), 2);
        assert_eq!(*successors(&prog, &blocks, &blocks[0], Arch::Volta), [1]);
        assert!(successors(&prog, &blocks, &blocks[1], Arch::Volta).is_empty());
    }

    #[test]
    fn empty_body_yields_no_blocks() {
        assert_eq!(basic_blocks(&[], Arch::Volta), Ok(Vec::new()));
    }

    #[test]
    fn block_of_maps_every_site_to_its_block() {
        let prog = assemble_arch(BODY, Arch::Volta).unwrap();
        let blocks = basic_blocks(&prog, Arch::Volta).unwrap();
        for (idx, expect) in [(0, 0), (2, 0), (3, 1), (4, 1), (5, 2)] {
            assert_eq!(block_of(&blocks, idx), Some(expect), "instruction {idx}");
        }
        assert_eq!(block_of(&blocks, prog.len()), None);
        assert_eq!(block_of(&[], 0), None);
    }
}
