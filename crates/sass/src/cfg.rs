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
    // transfers to the pushed reconvergence point, which the block alone
    // does not know; it falls through here and [`flow`] adds where it
    // resumes.
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

/// The per-lane flow graph of a [`basic_blocks`] partition, built once per
/// body and walked by both the liveness and the dominator analyses: each
/// block's [`successors`], then, for a block ending in `SYNC`, the blocks
/// it may resume at. Those resume edges are matched: a lane's `SSY` pushes
/// its target on the reconvergence stack, the lane's `SYNC` pops the
/// innermost one and resumes there, and ordinary branches leave the stack
/// untouched, so abstractly interpreting that stack yields each `SYNC`'s
/// exact per-lane successors. A lane enters the body at its first block
/// or, through a relative `CAL`, at a callee inside it. When the bracket
/// structure cannot be established (see `matched_sync_edges`), every `SYNC`
/// block may resume at every `SSY` target instead.
pub fn flow(instrs: &[Instruction], blocks: &[BasicBlock], arch: Arch) -> Graph {
    let isize = arch.instruction_size() as i64;
    let mut succ = Graph::with_capacity(blocks.len(), 2 * blocks.len());
    for b in blocks {
        succ.push_node(successors(instrs, blocks, b, arch).iter().copied());
    }
    // Every `SSY` in program order as `(host block, target block)`, the
    // target `None` when it is malformed, outside the body or not a block
    // leader; and every in-body `CAL` target, where a lane also enters.
    let (mut ssy, mut callees) = (Vec::new(), Vec::new());
    for b in blocks {
        for idx in b.range.clone() {
            let target = || {
                let t = instrs[idx].rel_target().map(|off| idx as i64 + 1 + off / isize);
                let t = t.filter(|t| (0..instrs.len() as i64).contains(t));
                t.and_then(|t| block_starting_at(blocks, t as usize))
            };
            match instrs[idx].cf_class() {
                CfClass::Ssy => ssy.push((b.id, target())),
                CfClass::RelCall => callees.extend(target()),
                _ => {}
            }
        }
    }
    let resumes = matched_sync_edges(instrs, blocks, &succ, &ssy, &callees).unwrap_or_else(|| {
        let mut targets: Vec<usize> = Vec::new();
        for t in ssy.iter().filter_map(|&(_, t)| t) {
            if !targets.contains(&t) {
                targets.push(t);
            }
        }
        let syncs = blocks.iter().filter(|b| instrs[b.range.end - 1].cf_class() == CfClass::Sync);
        syncs.flat_map(|b| targets.iter().map(move |&t| (b.id, t))).collect()
    });
    let mut flow = Graph::with_capacity(blocks.len(), 2 * blocks.len() + resumes.len());
    for b in blocks {
        let base = succ.succ(b.id);
        let resumed = resumes.iter().filter(|(from, _)| *from == b.id).map(|(_, t)| *t);
        flow.push_node(base.iter().copied().chain(resumed.filter(|t| !base.contains(t))));
    }
    flow
}

/// The matched resume edges of the `SYNC`-terminated blocks, as `(block,
/// target)` pairs without duplicates. States are `(block, stack)` pairs
/// propagated over `succ` until a fixed point, from the first block and
/// each of `callees` on an empty stack (a callee's brackets sit above its
/// caller's): each `SSY` of `ssy` (as [`flow`] lists them) pushes its
/// target block, a `SYNC` pops the innermost target and the lane resumes
/// there. A `CAL` falls through on the caller's stack, which holds when
/// every `RET` of a body with callees runs on an empty one.
///
/// Returns `None`, and [`flow`] falls back to every `SSY` target, when the
/// bracket structure cannot be established statically: an `SSY` with a
/// malformed or non-leader target, a reachable `SYNC` on an empty stack
/// (the executor faults there), in a body with callees a `RET` on a
/// non-empty one, a `SYNC` block no entry reaches (so it runs by a way the
/// model does not know), or abstract state exceeding its depth/width bounds.
fn matched_sync_edges(
    instrs: &[Instruction],
    blocks: &[BasicBlock],
    succ: &Graph,
    ssy: &[(usize, Option<usize>)],
    callees: &[usize],
) -> Option<Vec<(usize, usize)>> {
    const MAX_DEPTH: usize = 16;
    const MAX_STATES: usize = 16;
    type Stack = common::InlineVec<usize, MAX_DEPTH>;

    if ssy.iter().any(|(_, target)| target.is_none()) {
        return None;
    }
    let mut sync_succ: Vec<(usize, usize)> = Vec::new();
    if blocks.is_empty() {
        return Some(sync_succ);
    }
    // Every state reached so far; the ones from `next` on are still to be
    // propagated.
    let mut states: Vec<(usize, Stack)> = Vec::with_capacity(2 * blocks.len());
    states.extend(std::iter::once(0).chain(callees.iter().copied()).map(|e| (e, Stack::default())));
    let mut next = 0;
    while let Some(&(b, mut stack)) = states.get(next) {
        next += 1;
        // SSY pushes of the block, in program order.
        for target in ssy.iter().filter(|(host, _)| *host == b).filter_map(|(_, t)| *t) {
            stack.try_push(target).ok()?; // deeper than MAX_DEPTH
        }
        let last = instrs[blocks[b].range.end - 1].cf_class();
        if last == CfClass::Ret && !stack.is_empty() && !callees.is_empty() {
            return None;
        }
        let mut reach = |s: usize, stack: Stack| {
            if states.contains(&(s, stack)) {
                return Some(());
            }
            states.push((s, stack));
            (states.iter().filter(|(at, _)| *at == s).count() <= MAX_STATES).then_some(())
        };
        if last == CfClass::Sync {
            // A reachable SYNC on an empty stack faults.
            let (&t, rest) = stack.split_last()?;
            if !sync_succ.contains(&(b, t)) {
                sync_succ.push((b, t));
            }
            reach(t, Stack::try_from_slice(rest).expect("shorter than the stack it came from"))?;
        } else {
            for &s in succ.succ(b) {
                reach(s, stack)?;
            }
        }
    }
    let synced = |b: &BasicBlock| sync_succ.iter().any(|&(from, _)| from == b.id);
    let all =
        blocks.iter().all(|b| instrs[b.range.end - 1].cf_class() != CfClass::Sync || synced(b));
    all.then_some(sync_succ)
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
    fn a_sync_no_entry_reaches_resumes_at_every_ssy_target() {
        // Neither region runs from the entry or a CAL, so nothing is known
        // of the stack its SYNCs pop: the first may resume at `j2` too.
        let text = "EXIT ;\nSSY j1 ;\nSYNC ;\nj1:\nSSY j2 ;\nSYNC ;\nj2:\nEXIT ;";
        let prog = assemble_arch(text, Arch::Maxwell).unwrap();
        let blocks = basic_blocks(&prog, Arch::Maxwell).unwrap();
        assert_eq!(blocks.len(), 4);
        let flow = flow(&prog, &blocks, Arch::Maxwell);
        assert_eq!(flow.succ(1), [2, 3]);
        assert_eq!(flow.succ(2), [3, 2]);
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
