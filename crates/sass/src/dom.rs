//! Dominator / post-dominator analysis and coalescing-region enumeration
//! over [`crate::cfg`] basic blocks.
//!
//! **Paper mapping:** §5.2 and Fig. 9 — the win from merging instrumentation
//! calls grows with the size of the single-entry region one call can cover.
//! Per-block merging (the plan IR's first pass) stops at block boundaries;
//! this module provides the static analysis that lets the planner hoist
//! calls across blocks without changing what the tool observes.
//!
//! Three results are computed over the block graph:
//!
//! * **immediate dominators** (and, against a virtual exit node, immediate
//!   post-dominators) from the shared [`common::graph`] implementation of
//!   the Cooper–Harvey–Kennedy iterative algorithm;
//! * **reducibility**: a depth-first search classifies retreating edges;
//!   a retreating edge whose target does not dominate its source makes the
//!   graph irreducible and the region analysis falls back to the
//!   conservative answer (every block is its own region);
//! * **coalescing regions**: the partition of blocks into classes whose
//!   members execute *exactly as often, per lane,* as the class head.
//!
//! # The exactness condition
//!
//! A tool call carrying a multiplicity argument may stand for instructions
//! of several blocks only if, for every lane, each of those blocks runs
//! exactly once per execution of the block hosting the call. Because a
//! lane's trajectory is an ordinary path through the CFG (the SIMT
//! reconvergence stack only interleaves lanes, it never changes any
//! single lane's path), the per-lane condition for blocks `h` and `b` is:
//!
//! 1. `h` dominates `b` and `b` post-dominates `h` (control equivalence —
//!    rules out conditionally-executed blocks), **and**
//! 2. `h` and `b` are *cycle equivalent*: no cycle passes through one but
//!    not the other (rules out loop bodies executing more often than their
//!    surroundings — dominance alone cannot, e.g. a loop header both
//!    dominates and is post-dominated by the block after the loop yet runs
//!    once per iteration).
//!
//! Both conditions are evaluated on an edge over-approximation of real
//! lane transitions, which only ever shrinks regions, never grows them:
//!
//! * `cfg::successors` edges (branch target plus fall-through for guarded
//!   branches; fall-through after a *guarded* `EXIT`/`RET`/`TRAP` — the
//!   terminator only retires the guard-true lanes, the rest continue);
//! * *matched* reconvergence edges from every `SYNC`-terminated block: a
//!   lane's `SSY` pushes its target on the reconvergence stack and the
//!   lane's `SYNC` pops the innermost enclosing target and resumes there
//!   (branches never touch the stack), so a bounded abstract
//!   interpretation of that stack yields the exact per-lane successors of
//!   each `SYNC`. When the bracket structure cannot be established — an
//!   `SSY` target that is not a block leader, a possible `SYNC` on an
//!   empty stack, or abstract state beyond its bounds — the analysis
//!   falls back to an edge from every `SYNC` block to every `SSY` target
//!   (the coarse over-approximation shared with [`crate::dataflow`]);
//! * a virtual exit node fed by every `EXIT`/`RET`/`TRAP`/absolute-jump
//!   terminator and every successor-less block, so post-dominance accounts
//!   for early exits (a bounds-check `@P0 EXIT` correctly splits regions).

use crate::arch::Arch;
use crate::cfg::{BasicBlock, Edges};
use crate::inst::Instruction;
use crate::op::CfClass;
use common::graph::Graph;

/// Dominator, post-dominator and coalescing-region analysis of one
/// function body. Built by [`Dom::analyze`]; all queries are on block ids
/// of the [`crate::cfg::basic_blocks`] partition the analysis was given.
#[derive(Debug, Clone)]
pub struct Dom {
    /// Immediate dominator per block; `None` for the entry block and for
    /// blocks unreachable from it.
    idom: Vec<Option<usize>>,
    /// Immediate post-dominator per block, the virtual exit node being the
    /// block count; `None` when the block cannot reach any exit.
    ipdom: Vec<Option<usize>>,
    /// A retreating edge whose target does not dominate its source exists.
    irreducible: bool,
    /// Region head per block (the block itself when it heads its region or
    /// when the analysis fell back).
    region_head: Vec<usize>,
}

impl Dom {
    /// Runs the analysis. `blocks` must be the
    /// [`crate::cfg::basic_blocks`] partition of `instrs`; an empty
    /// partition yields a trivial analysis. The JIT path gets its `Dom`
    /// from [`crate::Analysis::of`], which shares the edges with liveness.
    pub fn analyze(instrs: &[Instruction], blocks: &[BasicBlock], arch: Arch) -> Dom {
        Dom::solve(instrs, blocks, &Edges::of(instrs, blocks, arch))
    }

    /// Runs the analysis over an existing partition and its edges.
    pub(crate) fn solve(instrs: &[Instruction], blocks: &[BasicBlock], edges: &Edges) -> Dom {
        let nb = blocks.len();

        // --- Edge model (module docs) -----------------------------------
        // Where each `SYNC` block may resume, as `(block, target)` pairs:
        // matched, or every `SSY` target under the coarse model.
        let resumes = matched_sync_edges(instrs, blocks, edges).unwrap_or_else(|| {
            let coarse = |b| edges.coarse_sync(instrs, b).iter().map(move |t| (b.id, *t));
            blocks.iter().flat_map(coarse).collect()
        });
        // Successor lists under the over-approximated edge model (module docs).
        let mut succ = Graph::with_capacity(nb, 2 * nb + resumes.len());
        for b in blocks {
            let base = edges.succ.succ(b.id);
            let resumed = resumes.iter().filter(|(from, _)| *from == b.id).map(|(_, t)| *t);
            succ.push_node(base.iter().copied().chain(resumed.filter(|t| !base.contains(t))));
        }
        if nb == 0 {
            let (idom, ipdom, region_head) = (Vec::new(), Vec::new(), Vec::new());
            return Dom { idom, ipdom, irreducible: false, region_head };
        }

        // --- Dominators (forward graph, entry = block 0) ----------------
        let common::graph::DomTree { idom, rpo } = common::graph::idoms(&succ, 0);

        // --- Post-dominators (reverse graph from a virtual exit node nb,
        // fed by every block that leaves the body or has no successor) ---
        let leaves = |b: usize| {
            let exits = matches!(
                instrs[blocks[b].range.end - 1].cf_class(),
                CfClass::Exit | CfClass::Ret | CfClass::Trap | CfClass::AbsJump
            );
            exits || succ.succ(b).is_empty()
        };
        let ipdom = common::graph::post_idoms(&succ, leaves);
        let region_head = (0..nb).collect();
        let mut dom = Dom { idom, ipdom, irreducible: false, region_head };

        // --- Reducibility: every retreating DFS edge must target a
        // dominator of its source --------------------------------------
        let mut state = vec![0u8; nb]; // 0 unvisited, 1 on stack, 2 done
        let mut stack = Vec::with_capacity(nb);
        stack.push((0usize, 0usize));
        state[0] = 1;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            if let Some(&s) = succ.succ(b).get(*i) {
                *i += 1;
                match state[s] {
                    0 => {
                        state[s] = 1;
                        stack.push((s, 0));
                    }
                    1 if !dom.dominates(s, b) => dom.irreducible = true,
                    _ => {}
                }
            } else {
                state[b] = 2;
                stack.pop();
            }
        }

        // --- Regions ----------------------------------------------------
        // Attach each block to the nearest strict dominator it is control-
        // and cycle-equivalent to; heads resolve before members because
        // reverse postorder visits dominators first. Transitivity makes
        // the classes consistent: equivalence of (head, h) and (h, b)
        // implies equivalence of (head, b).
        if !dom.irreducible {
            // The walk's visited marks and worklist, reused by every query.
            let (mut seen, mut work) = (state, Vec::with_capacity(2 * nb));
            let mut equivalent = |a, b| {
                !cycles_back_avoiding(&succ, a, b, &mut seen, &mut work)
                    && !cycles_back_avoiding(&succ, b, a, &mut seen, &mut work)
            };
            for &b in &rpo {
                let mut up = dom.idom[b];
                while let Some(h) = up {
                    if dom.post_dominates(b, h) && equivalent(h, b) {
                        dom.region_head[b] = dom.region_head[h];
                        break;
                    }
                    up = dom.idom[h];
                }
            }
        }
        dom
    }

    /// Immediate dominator of `b`; `None` for the entry block and for
    /// blocks unreachable from it.
    pub fn idom(&self, b: usize) -> Option<usize> {
        self.idom.get(b).copied().flatten()
    }

    /// Immediate post-dominator of `b`; `None` when the virtual exit node
    /// immediately post-dominates `b`, or `b` cannot reach any exit.
    pub fn ipdom(&self, b: usize) -> Option<usize> {
        self.ipdom.get(b).copied().flatten().filter(|&p| p < self.ipdom.len())
    }

    /// True when `b` is reachable from the entry block: it is the entry
    /// block or has an immediate dominator.
    pub fn reachable(&self, b: usize) -> bool {
        self.idom(b).is_some() || (b == 0 && !self.idom.is_empty())
    }

    /// True when a retreating edge does not target a dominator of its
    /// source; the region analysis then falls back to singleton regions.
    pub fn irreducible(&self) -> bool {
        self.irreducible
    }

    /// Does `a` dominate `b` (reflexively)? False when `b` is unreachable.
    pub fn dominates(&self, a: usize, b: usize) -> bool {
        if !self.reachable(b) {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom[cur] {
                Some(up) => cur = up,
                None => return false,
            }
        }
    }

    /// Does `a` post-dominate `b` (reflexively)? False when `b` cannot
    /// reach any exit.
    pub fn post_dominates(&self, a: usize, b: usize) -> bool {
        // A block that reaches an exit has a post-dominator, if only the
        // virtual exit node.
        if self.ipdom.get(b).copied().flatten().is_none() {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.ipdom(cur) {
                Some(up) => cur = up,
                None => return false,
            }
        }
    }

    /// Head of the coalescing region containing `b`: the highest block in
    /// the dominator tree that provably executes exactly as often as `b`
    /// for every lane (module docs). Returns `b` itself when nothing
    /// merges with it — always the case on irreducible graphs and for
    /// unreachable blocks.
    pub fn region_head(&self, b: usize) -> usize {
        self.region_head.get(b).copied().unwrap_or(b)
    }
}

/// True when some non-empty path of `succ` leads from `x` back to `x`
/// without passing through `avoid` — two blocks are cycle equivalent when
/// this holds for neither order of them. `seen` (one mark per block) and
/// `work` are scratch.
fn cycles_back_avoiding(
    succ: &Graph,
    x: usize,
    avoid: usize,
    seen: &mut [u8],
    work: &mut Vec<usize>,
) -> bool {
    seen.fill(0);
    work.clear();
    work.extend(succ.succ(x).iter().filter(|&&s| s != avoid));
    while let Some(c) = work.pop() {
        if c == x {
            return true;
        }
        if seen[c] == 0 {
            seen[c] = 1;
            work.extend(succ.succ(c).iter().filter(|&&s| s != avoid));
        }
    }
    false
}

/// Exact per-lane successors of the `SYNC`-terminated blocks, as `(block,
/// target)` pairs without duplicates, found by abstractly interpreting the
/// per-lane reconvergence stack: each `SSY` pushes its target block, a
/// `SYNC` pops the innermost enclosing target and the lane resumes there,
/// and ordinary branches leave the stack untouched. States are `(block,
/// stack)` pairs propagated over the shared successor lists (plus the
/// guarded-exit fall-through) until a fixed point.
///
/// Returns `None` — and the caller falls back to the coarse
/// every-`SSY`-target model — when the bracket structure cannot be
/// established statically: an `SSY` with a malformed or non-leader
/// target, a reachable `SYNC` on an empty stack (the executor faults
/// there), or abstract state exceeding its depth/width bounds.
fn matched_sync_edges(
    instrs: &[Instruction],
    blocks: &[BasicBlock],
    edges: &Edges,
) -> Option<Vec<(usize, usize)>> {
    const MAX_DEPTH: usize = 16;
    const MAX_STATES: usize = 16;
    type Stack = common::InlineVec<usize, MAX_DEPTH>;

    if edges.ssy.iter().any(|(_, target)| target.is_none()) {
        return None;
    }
    let mut sync_succ: Vec<(usize, usize)> = Vec::new();
    if blocks.is_empty() {
        return Some(sync_succ);
    }
    // Every state reached so far; the ones from `next` on are still to be
    // propagated.
    let mut states: Vec<(usize, Stack)> = Vec::with_capacity(2 * blocks.len());
    states.push((0, Stack::default()));
    let mut next = 0;
    while let Some(&(b, mut stack)) = states.get(next) {
        next += 1;
        // SSY pushes of the block, in program order.
        for target in edges.ssy.iter().filter(|(host, _)| *host == b).filter_map(|(_, t)| *t) {
            stack.try_push(target).ok()?; // deeper than MAX_DEPTH
        }
        let mut reach = |s: usize, stack: Stack| {
            if states.contains(&(s, stack)) {
                return Some(());
            }
            states.push((s, stack));
            (states.iter().filter(|(at, _)| *at == s).count() <= MAX_STATES).then_some(())
        };
        if instrs[blocks[b].range.end - 1].cf_class() == CfClass::Sync {
            // A reachable SYNC on an empty stack faults.
            let (&t, rest) = stack.split_last()?;
            if !sync_succ.contains(&(b, t)) {
                sync_succ.push((b, t));
            }
            reach(t, Stack::try_from_slice(rest).expect("shorter than the stack it came from"))?;
        } else {
            for &s in edges.succ.succ(b) {
                reach(s, stack)?;
            }
        }
    }
    Some(sync_succ)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble_arch;

    fn analyzed(text: &str, arch: Arch) -> (Dom, Vec<BasicBlock>) {
        let prog = assemble_arch(text, arch).unwrap();
        let blocks = crate::cfg::basic_blocks(&prog, arch).unwrap();
        let dom = Dom::analyze(&prog, &blocks, arch);
        (dom, blocks)
    }

    /// Diamond: B0 branches to B2 (then) or falls into B1 (else); both
    /// rejoin at B3.
    ///
    /// ```text
    ///        B0
    ///       /  \
    ///      B1   B2
    ///       \  /
    ///        B3
    /// ```
    const DIAMOND: &str = "\
    ISETP.GE.S32 P0, R0, 0x10 ;
@P0 BRA then ;
    IADD R1, R0, 0x1 ;
    BRA join ;
then:
    IADD R1, R0, 0x2 ;
join:
    IADD R2, R1, 0x3 ;
    EXIT ;
";

    #[test]
    fn diamond_dominators_and_postdominators() {
        let (dom, blocks) = analyzed(DIAMOND, Arch::Volta);
        assert_eq!(blocks.len(), 4);
        assert_eq!(dom.idom(0), None);
        assert_eq!(dom.idom(1), Some(0));
        assert_eq!(dom.idom(2), Some(0));
        assert_eq!(dom.idom(3), Some(0), "join is dominated by the fork, not an arm");
        assert_eq!(dom.ipdom(0), Some(3));
        assert_eq!(dom.ipdom(1), Some(3));
        assert_eq!(dom.ipdom(2), Some(3));
        assert_eq!(dom.ipdom(3), None, "exit block post-dominated only by the virtual exit");
        assert!(!dom.irreducible());
    }

    #[test]
    fn diamond_merges_fork_and_join_but_not_the_arms() {
        let (dom, _) = analyzed(DIAMOND, Arch::Volta);
        assert_eq!(dom.region_head(0), 0);
        assert_eq!(dom.region_head(3), 0, "join executes exactly once per fork");
        assert_eq!(dom.region_head(1), 1, "arms run conditionally");
        assert_eq!(dom.region_head(2), 2);
    }

    /// Loop: B0 (setup) → B1 (body, branches back to itself) → B2 (tail).
    const LOOP: &str = "\
    MOV32I R0, 0x0 ;
body:
    IADD R0, R0, 0x1 ;
    ISETP.GE.S32 P0, R0, 0x10 ;
@!P0 BRA body ;
    STG [R2], R0 ;
    EXIT ;
";

    #[test]
    fn loop_body_stays_out_of_the_setup_tail_region() {
        let (dom, blocks) = analyzed(LOOP, Arch::Volta);
        assert_eq!(blocks.len(), 3);
        assert!(!dom.irreducible());
        assert!(dom.dominates(0, 1) && dom.dominates(0, 2));
        assert!(dom.post_dominates(1, 0), "the body post-dominates the setup...");
        assert_eq!(dom.region_head(1), 1, "...but runs once per iteration, so it never merges");
        assert_eq!(dom.region_head(2), 0, "setup and tail both run exactly once");
        assert_eq!(dom.region_head(0), 0);
    }

    /// Irreducible: two blocks jump into each other's target without a
    /// single loop header (entry branches into the middle of the cycle).
    const IRREDUCIBLE: &str = "\
    ISETP.GE.S32 P0, R0, 0x10 ;
@P0 BRA b ;
a:
    IADD R1, R1, 0x1 ;
b:
    ISETP.GE.S32 P1, R1, 0x20 ;
@!P1 BRA a ;
    EXIT ;
";

    #[test]
    fn irreducible_graphs_fall_back_to_singleton_regions() {
        let (dom, blocks) = analyzed(IRREDUCIBLE, Arch::Volta);
        assert!(dom.irreducible(), "the a↔b cycle has two entries");
        for b in 0..blocks.len() {
            assert_eq!(dom.region_head(b), b, "block {b} must stay alone");
        }
    }

    /// An SSY-bracketed diamond following the lowerer's convention: the
    /// `SSY` targets the join block *after* the shared `SYNC` landing
    /// pad, so the matched reconvergence model resolves the `SYNC`'s
    /// successor to exactly that join. Every lane runs the entry, the
    /// landing pad and the join once — all three merge; the
    /// conditionally-skipped arm stays alone.
    const SSY_DIAMOND: &str = "\
    SSY join ;
    ISETP.EQ.S32 P0, R0, RZ ;
@P0 BRA merge ;
    IADD R1, R1, 0x1 ;
merge:
    SYNC ;
join:
    IADD R2, R2, 0x1 ;
    EXIT ;
";

    #[test]
    fn matched_reconvergence_merges_entry_landing_pad_and_join() {
        let (dom, blocks) = analyzed(SSY_DIAMOND, Arch::Maxwell);
        assert_eq!(blocks.len(), 4);
        assert!(!dom.irreducible());
        let (sync_block, join) = (2, 3);
        assert_eq!(dom.region_head(sync_block), 0, "every lane syncs exactly once per entry");
        assert_eq!(dom.region_head(join), 0, "the join past the reconvergence merges too");
        assert_eq!(dom.region_head(1), 1, "the fall-through arm runs conditionally");
    }

    /// The same diamond with the `SSY` aimed at the `SYNC` itself: a lane
    /// popping there would re-execute the `SYNC` on an empty stack, so
    /// the bracket simulation bails and the coarse model (every `SYNC`
    /// block targets every `SSY` target, itself included) keeps the
    /// landing pad alone.
    const SSY_AT_SYNC: &str = "\
    SSY merge ;
    ISETP.EQ.S32 P0, R0, RZ ;
@P0 BRA merge ;
    IADD R1, R1, 0x1 ;
merge:
    SYNC ;
    EXIT ;
";

    #[test]
    fn unmatched_reconvergence_falls_back_to_the_coarse_edges() {
        let (dom, blocks) = analyzed(SSY_AT_SYNC, Arch::Maxwell);
        assert_eq!(blocks.len(), 4);
        let sync_block = 2;
        assert_eq!(
            dom.region_head(sync_block),
            sync_block,
            "the coarse SYNC self-edge keeps the target alone"
        );
        assert_eq!(dom.region_head(3), 0, "the exit past the reconvergence merges with the entry");
    }

    /// A guarded EXIT is a partial exit: the post-check code must not
    /// merge with the code before the check.
    const BOUNDS_CHECK: &str = "\
    ISETP.GE.S32 P0, R0, 0x10 ;
@P0 EXIT ;
    IADD R1, R0, 0x1 ;
    STG [R2], R1 ;
    EXIT ;
";

    #[test]
    fn guarded_exit_splits_regions() {
        let (dom, blocks) = analyzed(BOUNDS_CHECK, Arch::Volta);
        assert_eq!(blocks.len(), 2);
        assert!(!dom.post_dominates(1, 0), "lanes retired by the bounds check never reach block 1");
        assert_eq!(dom.region_head(1), 1);
    }

    /// The classic dominance-only trap: a loop header both dominates and
    /// is post-dominated by the block after the loop (every exit path
    /// funnels through it), yet runs once per iteration. The cycle-
    /// equivalence test must keep them apart.
    const HEADER_TRAP: &str = "\
    MOV32I R0, 0x0 ;
head:
    IADD R0, R0, 0x1 ;
    ISETP.GE.S32 P0, R0, 0x10 ;
@P0 BRA out ;
    IADD R1, R1, 0x2 ;
    BRA head ;
out:
    EXIT ;
";

    #[test]
    fn loop_header_never_merges_with_the_loop_exit() {
        let (dom, blocks) = analyzed(HEADER_TRAP, Arch::Volta);
        assert_eq!(blocks.len(), 4);
        // head = block 1, out = block 3.
        assert!(dom.dominates(1, 3));
        assert!(dom.post_dominates(3, 1));
        let head = |b| dom.region_head(b);
        assert_ne!(head(1), head(3), "control equivalence alone is not enough");
        assert_eq!(head(0), head(3), "setup and exit do run in lockstep");
    }

    #[test]
    fn empty_body_is_trivial() {
        let dom = Dom::analyze(&[], &[], Arch::Volta);
        assert!(!dom.irreducible());
        assert_eq!(dom.idom(0), None);
        assert!(!dom.reachable(0));
    }

    #[test]
    fn unreachable_blocks_stay_alone() {
        // Block 1 (after the unconditional branch) is dead code.
        let text = "\
    BRA tail ;
    IADD R0, R0, 0x1 ;
tail:
    EXIT ;
";
        let (dom, blocks) = analyzed(text, Arch::Volta);
        assert_eq!(blocks.len(), 3);
        assert!(!dom.reachable(1));
        assert_eq!(dom.region_head(1), 1, "dead code never merges");
        assert_eq!(dom.region_head(0), dom.region_head(2));
    }
}
