//! Control-flow graph and dominance analyses over PTX function bodies.
//!
//! Used by the backend for reconvergence-point (`SSY`) placement and by the
//! reference interpreter as its idealized reconvergence oracle.

use crate::ast::{Function, PtxInstr, PtxOp, Statement};
use std::collections::HashMap;

/// A function body flattened to instructions, with label and line-info side
/// tables.
#[derive(Debug)]
pub struct Linear<'a> {
    /// Instructions in program order.
    pub instrs: Vec<&'a PtxInstr>,
    /// Per-instruction source location from the nearest preceding `.loc`.
    pub loc: Vec<Option<(String, u32)>>,
    /// Label name → index of the instruction it precedes.
    pub labels: HashMap<String, usize>,
}

impl<'a> Linear<'a> {
    /// Flattens a function body.
    pub fn of(f: &'a Function) -> Linear<'a> {
        let mut instrs = Vec::new();
        let mut loc = Vec::new();
        let mut labels = HashMap::new();
        let mut cur: Option<(String, u32)> = None;
        for s in &f.body {
            match s {
                Statement::Label(l) => {
                    labels.insert(l.clone(), instrs.len());
                }
                Statement::Loc { file, line } => cur = Some((file.clone(), *line)),
                Statement::Instr(i) => {
                    instrs.push(i);
                    loc.push(cur.clone());
                }
            }
        }
        Linear { instrs, loc, labels }
    }
}

/// A basic block over the linearized instruction list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// First instruction index.
    pub start: usize,
    /// One past the last instruction index.
    pub end: usize,
    /// Successor block ids.
    pub succs: Vec<usize>,
    /// Predecessor block ids.
    pub preds: Vec<usize>,
}

/// The control-flow graph of a linearized function.
#[derive(Debug)]
pub struct FnCfg {
    /// Blocks in program order (block 0 is the entry).
    pub blocks: Vec<Block>,
    /// Block id of every instruction.
    pub instr_block: Vec<usize>,
}

impl FnCfg {
    /// Builds the CFG. Labels that never resolve are treated as function
    /// exits (the verifier reports them before code generation).
    pub fn build(lin: &Linear<'_>) -> FnCfg {
        let n = lin.instrs.len();
        let mut leader = vec![false; n];
        if n > 0 {
            leader[0] = true;
        }
        let target_of = |i: &PtxInstr| -> Option<usize> {
            match &i.op {
                PtxOp::Bra { target } => lin.labels.get(target).copied(),
                _ => None,
            }
        };
        let is_term = |i: &PtxInstr| {
            matches!(i.op, PtxOp::Bra { .. } | PtxOp::Ret | PtxOp::RetVal { .. } | PtxOp::Exit)
        };
        for (idx, i) in lin.instrs.iter().enumerate() {
            if let Some(t) = target_of(i) {
                if t < n {
                    leader[t] = true;
                }
            }
            if is_term(i) && idx + 1 < n {
                leader[idx + 1] = true;
            }
        }

        // Materialize the blocks.
        let mut blocks = Vec::new();
        let mut instr_block = vec![0usize; n];
        let mut start = 0usize;
        #[allow(clippy::needless_range_loop)] // index IS the leader position
        for idx in 1..=n {
            if idx == n || leader[idx] {
                let id = blocks.len();
                for slot in instr_block.iter_mut().take(idx).skip(start) {
                    *slot = id;
                }
                blocks.push(Block { start, end: idx, succs: Vec::new(), preds: Vec::new() });
                start = idx;
            }
        }

        // Edges.
        for bid in 0..blocks.len() {
            let last = blocks[bid].end - 1;
            let i = lin.instrs[last];
            let mut succs = Vec::new();
            match &i.op {
                PtxOp::Ret | PtxOp::RetVal { .. } | PtxOp::Exit => {}
                PtxOp::Bra { target } => {
                    if let Some(t) = lin.labels.get(target).copied() {
                        if t < n {
                            succs.push(instr_block[t]);
                        }
                    }
                    if i.guard.is_some() && bid + 1 < blocks.len() {
                        succs.push(bid + 1);
                    }
                }
                _ => {
                    if bid + 1 < blocks.len() {
                        succs.push(bid + 1);
                    }
                }
            }
            succs.dedup();
            for &s in &succs {
                blocks[s].preds.push(bid);
            }
            blocks[bid].succs = succs;
        }

        FnCfg { blocks, instr_block }
    }
}

/// Computes immediate post-dominators of a CFG ([`common::graph`] on the
/// reversed graph rooted at a virtual exit node fed by every
/// successor-less block).
///
/// Returns, per block, the immediate post-dominator block id, or `None` for
/// blocks post-dominated only by the virtual exit (e.g. blocks ending in
/// `exit` themselves).
pub fn ipostdom(cfg: &FnCfg) -> Vec<Option<usize>> {
    let mut succ = common::graph::Graph::with_capacity(cfg.blocks.len(), 2 * cfg.blocks.len());
    cfg.blocks.iter().for_each(|b| succ.push_node(b.succs.iter().copied()));
    let exit = succ.nodes();
    common::graph::post_idoms(&succ, |b| succ.succ(b).is_empty())
        .into_iter()
        .map(|ip| ip.filter(|&p| p != exit))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn cfg_of(src: &str) -> (usize, Vec<Vec<usize>>, Vec<Option<usize>>) {
        let m = parse(src).unwrap();
        let lin = Linear::of(&m.functions[0]);
        let cfg = FnCfg::build(&lin);
        let succs = cfg.blocks.iter().map(|b| b.succs.clone()).collect();
        let ipd = ipostdom(&cfg);
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
        assert_eq!(lin.loc[0], Some(("a.cu".into(), 10)));
        assert_eq!(lin.loc[1], Some(("a.cu".into(), 11)));
    }
}
