//! Control-flow graph and dominance analyses over PTX function bodies.
//!
//! Used by the backend for reconvergence-point (`SSY`) placement and by the
//! reference interpreter as its idealized reconvergence oracle. Each table
//! fills in place ([`Linear::fill`], [`FnCfg::fill`]), so the backend keeps
//! one per module and reuses its storage for every function.

use crate::ast::{Function, PtxInstr, PtxOp, Statement, Sym};
use common::graph::{Dominators, Graph};

/// A function body flattened to instructions, with label and line-info side
/// tables.
#[derive(Debug, Default)]
pub struct Linear {
    /// Instructions in program order.
    pub instrs: Vec<PtxInstr>,
    /// Per-instruction source location from the nearest preceding `.loc`.
    pub loc: Vec<Option<(Sym, u32)>>,
    /// Per [`crate::ast::LabelId`], the index of the instruction the label
    /// precedes; `None` for a label that is branched to but never defined.
    pub labels: Vec<Option<usize>>,
}

impl Linear {
    /// Flattens a function body.
    pub fn of(f: &Function) -> Linear {
        let mut lin = Linear::default();
        lin.fill(f);
        lin
    }

    /// Makes these tables `f`'s flattened body.
    pub fn fill(&mut self, f: &Function) {
        let Linear { instrs, loc, labels } = self;
        instrs.clear();
        loc.clear();
        labels.clear();
        labels.resize(f.labels.len(), None);
        let mut cur: Option<(Sym, u32)> = None;
        for s in &f.body {
            match s {
                Statement::Label(l) => labels[l.index()] = Some(instrs.len()),
                Statement::Loc { file, line } => cur = Some((*file, *line)),
                Statement::Instr(i) => {
                    instrs.push(*i);
                    loc.push(cur);
                }
            }
        }
    }

    /// The instruction index a `bra` at `i` targets, when its label is defined.
    pub fn target_of(&self, i: &PtxInstr) -> Option<usize> {
        match i.op {
            PtxOp::Bra { target } => self.labels[target.index()],
            _ => None,
        }
    }
}

/// A basic block over the linearized instruction list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// First instruction index.
    pub start: usize,
    /// One past the last instruction index.
    pub end: usize,
}

/// The control-flow graph of a linearized function.
#[derive(Debug, Default)]
pub struct FnCfg {
    /// Blocks in program order (block 0 is the entry).
    pub blocks: Vec<Block>,
    /// Block id of every instruction.
    pub instr_block: Vec<usize>,
    /// Successor lists (a branch's target before its fall-through), and
    /// their reversal: predecessors in ascending order.
    succ: Graph,
    pred: Graph,
    /// Per instruction, whether a block starts there.
    leader: Vec<bool>,
}

impl FnCfg {
    /// Successor block ids of `b`.
    pub fn succs(&self, b: usize) -> &[usize] {
        self.succ.succ(b)
    }

    /// Predecessor block ids of `b`.
    pub fn preds(&self, b: usize) -> &[usize] {
        self.pred.succ(b)
    }

    /// Builds the CFG.
    pub fn build(lin: &Linear) -> FnCfg {
        let mut cfg = FnCfg::default();
        cfg.fill(lin);
        cfg
    }

    /// Makes this the CFG of `lin`. Labels that never resolve are treated
    /// as function exits (the verifier reports them before code generation).
    pub fn fill(&mut self, lin: &Linear) {
        let n = lin.instrs.len();
        let FnCfg { blocks, instr_block, succ, pred, leader } = self;
        leader.clear();
        leader.resize(n, false);
        if n > 0 {
            leader[0] = true;
        }
        let is_term = |i: &PtxInstr| {
            matches!(i.op, PtxOp::Bra { .. } | PtxOp::Ret | PtxOp::RetVal { .. } | PtxOp::Exit)
        };
        for (idx, i) in lin.instrs.iter().enumerate() {
            if let Some(t) = lin.target_of(i) {
                if t < n {
                    leader[t] = true;
                }
            }
            if is_term(i) && idx + 1 < n {
                leader[idx + 1] = true;
            }
        }

        // Materialize the blocks.
        blocks.clear();
        instr_block.clear();
        instr_block.resize(n, 0);
        let mut start = 0usize;
        for idx in 1..=n {
            if idx == n || leader[idx] {
                instr_block[start..idx].fill(blocks.len());
                blocks.push(Block { start, end: idx });
                start = idx;
            }
        }

        // Edges.
        succ.clear();
        for (bid, b) in blocks.iter().enumerate() {
            let i = &lin.instrs[b.end - 1];
            let next = (bid + 1 < blocks.len()).then_some(bid + 1);
            let (taken, fall) = match &i.op {
                PtxOp::Ret | PtxOp::RetVal { .. } | PtxOp::Exit => (None, None),
                PtxOp::Bra { .. } => (
                    lin.target_of(i).filter(|&t| t < n).map(|t| instr_block[t]),
                    next.filter(|_| i.guard.is_some()),
                ),
                _ => (None, next),
            };
            succ.push_node(taken.into_iter().chain(fall.filter(|&f| Some(f) != taken)));
        }
        succ.reverse_into(pred);
    }

    /// Immediate post-dominators, solved in `solver`'s buffers: per block,
    /// the immediate post-dominator block id, or `None` for blocks
    /// post-dominated only by the virtual exit every successor-less block
    /// feeds (e.g. blocks ending in `exit` themselves), and for blocks that
    /// reach no exit.
    pub fn ipostdom<'s>(
        &self,
        solver: &'s mut Dominators,
    ) -> impl Iterator<Item = Option<usize>> + 's {
        let exit = self.blocks.len();
        let succ = &self.succ;
        solver
            .post_idoms(succ, |b| succ.succ(b).is_empty())
            .iter()
            .map(move |ip| ip.filter(|&p| p != exit))
    }
}

/// `rows` sets over `0..bits`, one bit per member, in one vector.
#[derive(Debug, Default)]
pub struct BitRows {
    words: usize,
    bits: Vec<u64>,
}

impl BitRows {
    /// Makes these `rows` empty sets, keeping the storage.
    pub fn reset(&mut self, rows: usize, bits: usize) {
        self.words = bits.div_ceil(64);
        self.bits.clear();
        self.bits.resize(rows * self.words, 0);
    }

    /// True when set `row` holds `i`.
    pub fn contains(&self, row: usize, i: usize) -> bool {
        self.bits[row * self.words + i / 64] >> (i % 64) & 1 != 0
    }

    /// Adds `i` to set `row`; true when it was not there.
    pub fn insert(&mut self, row: usize, i: usize) -> bool {
        let fresh = !self.contains(row, i);
        self.bits[row * self.words + i / 64] |= 1 << (i % 64);
        fresh
    }

    /// The members of set `row`, ascending.
    pub fn ones(&self, row: usize) -> impl Iterator<Item = usize> + '_ {
        ones(&self.bits[row * self.words..][..self.words])
    }
}

/// The set bits of a bit row, ascending.
pub fn ones(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(w, &word)| {
        std::iter::successors(Some(word), |rest| Some(rest & rest.wrapping_sub(1)))
            .take_while(|&rest| rest != 0)
            .map(move |rest| w * 64 + rest.trailing_zeros() as usize)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn cfg_of(src: &str) -> (usize, Vec<Vec<usize>>, Vec<Option<usize>>) {
        let m = parse(src).unwrap();
        let lin = Linear::of(&m.functions[0]);
        let cfg = FnCfg::build(&lin);
        let succs = (0..cfg.blocks.len()).map(|b| cfg.succs(b).to_vec()).collect();
        let ipd = cfg.ipostdom(&mut Dominators::default()).collect();
        (cfg.blocks.len(), succs, ipd)
    }

    const DIAMOND: &str = r#"
.entry k()
{
    .reg .u32 %r<4>;
    .reg .pred %p<2>;
    setp.eq.u32 %p1, %r1, 0;
    @%p1 bra ELSE;
    add.u32 %r2, %r1, 1;
    bra JOIN;
ELSE:
    add.u32 %r2, %r1, 2;
JOIN:
    mov.u32 %r3, %r2;
    exit;
}
"#;

    #[test]
    fn diamond_blocks_and_ipostdoms() {
        let (n, succs, ipd) = cfg_of(DIAMOND);
        assert_eq!(n, 4);
        assert_eq!(succs[0], vec![2, 1]); // cond branch: target ELSE, fallthrough THEN
        assert_eq!(succs[1], vec![3]); // THEN -> JOIN
        assert_eq!(succs[2], vec![3]); // ELSE -> JOIN
        assert!(succs[3].is_empty());
        assert_eq!(ipd[0], Some(3)); // branch reconverges at JOIN
        assert_eq!(ipd[1], Some(3));
        assert_eq!(ipd[2], Some(3));
        assert_eq!(ipd[3], None); // exits to the virtual exit
    }

    const LOOP: &str = r#"
.entry k()
{
    .reg .u32 %r<4>;
    .reg .pred %p<2>;
    mov.u32 %r1, 0;
TOP:
    add.u32 %r1, %r1, 1;
    setp.lt.u32 %p1, %r1, 10;
    @%p1 bra TOP;
    exit;
}
"#;

    #[test]
    fn loop_backedge_forms_a_cycle() {
        let (n, succs, ipd) = cfg_of(LOOP);
        assert_eq!(n, 3);
        assert_eq!(succs[0], vec![1]);
        assert_eq!(succs[1], vec![1, 2]); // backedge + exit
        assert_eq!(ipd[1], Some(2)); // loop body reconverges after the loop
        assert!(succs[2].is_empty());
    }

    #[test]
    fn instr_block_maps_every_instruction() {
        let m = parse(DIAMOND).unwrap();
        let lin = Linear::of(&m.functions[0]);
        let cfg = FnCfg::build(&lin);
        assert_eq!(cfg.instr_block.len(), lin.instrs.len());
        for (idx, &b) in cfg.instr_block.iter().enumerate() {
            assert!(cfg.blocks[b].start <= idx && idx < cfg.blocks[b].end);
        }
    }

    #[test]
    fn loc_side_table_attaches_to_following_instructions() {
        let src = r#"
.entry k()
{
    .reg .u32 %r<2>;
    .loc "a.cu" 10 ;
    mov.u32 %r1, 1;
    .loc "a.cu" 11 ;
    exit;
}
"#;
        let m = parse(src).unwrap();
        let lin = Linear::of(&m.functions[0]);
        let a_cu = m.names.get("a.cu");
        assert_eq!(lin.loc[0].map(|(f, l)| (Some(f), l)), Some((a_cu, 10)));
        assert_eq!(lin.loc[1].map(|(f, l)| (Some(f), l)), Some((a_cu, 11)));
    }
}
