//! Dominance over flat successor-list graphs — the one implementation of
//! the Cooper–Harvey–Kennedy iterative algorithm ("A Simple, Fast
//! Dominance Algorithm") shared by the PTX front end (`ptx::cfg`,
//! reconvergence-point placement) and the SASS analyses (`sass::dom`,
//! coalescing regions).
//!
//! A [`Graph`] is two arrays, offsets and targets, so building one,
//! reversing it and solving over it cost a fixed handful of allocations
//! whatever the node count. Immediate dominators are unique, so the result
//! depends only on the edge set, never on successor order.

/// A directed graph over nodes `0..nodes()` as flat successor lists: the
/// successors of node `b` are `targets[offsets[b]..offsets[b + 1]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<usize>,
    targets: Vec<usize>,
}

impl Graph {
    /// A graph with no nodes yet and room for `nodes` nodes and `edges` edges.
    pub fn with_capacity(nodes: usize, edges: usize) -> Graph {
        let mut offsets = Vec::with_capacity(nodes + 1);
        offsets.push(0);
        Graph { offsets, targets: Vec::with_capacity(edges) }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Successors of node `b`, in insertion order.
    #[inline]
    pub fn succ(&self, b: usize) -> &[usize] {
        &self.targets[self.offsets[b]..self.offsets[b + 1]]
    }

    /// Appends the next node, with `succ` as its successor list.
    pub fn push_node(&mut self, succ: impl IntoIterator<Item = usize>) {
        self.targets.extend(succ);
        self.offsets.push(self.targets.len());
    }

    /// The graph with every edge turned around (node count unchanged).
    pub fn reversed(&self) -> Graph {
        let n = self.nodes();
        // In-degrees, then their prefix sums: `offsets[b]` is where `b`'s
        // list starts. Filling advances each start to its list's end — the
        // next list's start — so one shift restores the offsets.
        let mut offsets = vec![0; n + 1];
        for &t in &self.targets {
            offsets[t + 1] += 1;
        }
        for b in 0..n {
            offsets[b + 1] += offsets[b];
        }
        let mut targets = vec![0; self.targets.len()];
        for b in 0..n {
            for &t in self.succ(b) {
                targets[offsets[t]] = b;
                offsets[t] += 1;
            }
        }
        offsets.copy_within(0..n, 1);
        offsets[0] = 0;
        Graph { offsets, targets }
    }
}

/// Immediate dominators from one root, plus the traversal that produced
/// them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomTree {
    /// Immediate dominator per node; `None` for the root and for nodes
    /// unreachable from it.
    pub idom: Vec<Option<usize>>,
    /// Reverse postorder of the nodes reachable from the root (dominators
    /// come before the nodes they dominate).
    pub rpo: Vec<usize>,
}

/// Reverse postorder of the nodes reachable from `root`, and each node's
/// position in it (`usize::MAX` for the others).
fn reverse_postorder(succ: &Graph, root: usize) -> (Vec<usize>, Vec<usize>) {
    let mut post = Vec::with_capacity(succ.nodes());
    // Doubles as the visited mark until the positions are known.
    let mut order = vec![usize::MAX; succ.nodes()];
    let mut stack = Vec::with_capacity(succ.nodes());
    stack.push((root, 0usize));
    order[root] = 0;
    while let Some(&mut (b, ref mut i)) = stack.last_mut() {
        if let Some(&s) = succ.succ(b).get(*i) {
            *i += 1;
            if order[s] == usize::MAX {
                order[s] = 0;
                stack.push((s, 0));
            }
        } else {
            post.push(b);
            stack.pop();
        }
    }
    post.reverse();
    for (pos, &b) in post.iter().enumerate() {
        order[b] = pos;
    }
    (post, order)
}

/// The CHK two-finger walk: nearest common dominator of `a` and `b`.
fn intersect(idom: &[Option<usize>], order: &[usize], mut a: usize, mut b: usize) -> usize {
    while a != b {
        while order[a] > order[b] {
            a = idom[a].expect("walk stays above the root");
        }
        while order[b] > order[a] {
            b = idom[b].expect("walk stays above the root");
        }
    }
    a
}

/// The CHK iteration over `succ` from `root`, given `succ`'s reversal.
fn solve(succ: &Graph, pred: &Graph, root: usize) -> DomTree {
    let (rpo, order) = reverse_postorder(succ, root);
    let mut idom: Vec<Option<usize>> = vec![None; succ.nodes()];
    idom[root] = Some(root); // self-loop sentinel during iteration
    let mut changed = true;
    while changed {
        changed = false;
        for &b in rpo.iter().skip(1) {
            let mut new: Option<usize> = None;
            for &p in pred.succ(b) {
                if idom[p].is_none() {
                    continue; // not yet processed, or unreachable
                }
                new = Some(match new {
                    None => p,
                    Some(cur) => intersect(&idom, &order, cur, p),
                });
            }
            if new.is_some() && idom[b] != new {
                idom[b] = new;
                changed = true;
            }
        }
    }
    idom[root] = None; // drop the sentinel
    DomTree { idom, rpo }
}

/// Immediate dominators of every node reachable from `root`.
///
/// # Panics
///
/// When `root` or a successor id is out of range.
pub fn idoms(succ: &Graph, root: usize) -> DomTree {
    solve(succ, &succ.reversed(), root)
}

/// Immediate post-dominators: [`idoms`] on the reversed graph, rooted at a
/// virtual exit node with id `succ.nodes()` that every node for which
/// `is_exit` holds feeds.
///
/// The result has one entry per real node: `Some(succ.nodes())` when only
/// the virtual exit post-dominates the node, `None` when the node cannot
/// reach any exit.
pub fn post_idoms(succ: &Graph, is_exit: impl Fn(usize) -> bool) -> Vec<Option<usize>> {
    let n = succ.nodes();
    let mut with_exit = Graph::with_capacity(n + 1, succ.targets.len() + n);
    for b in 0..n {
        with_exit.push_node(succ.succ(b).iter().copied().chain(is_exit(b).then_some(n)));
    }
    with_exit.push_node([]);
    let mut idom = solve(&with_exit.reversed(), &with_exit, n).idom;
    idom.truncate(n);
    idom
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 → {1, 2} → 3.
    fn diamond() -> Graph {
        graph(&[&[2, 1], &[3], &[3], &[]])
    }

    fn graph(lists: &[&[usize]]) -> Graph {
        let mut g = Graph::with_capacity(lists.len(), 0);
        lists.iter().for_each(|l| g.push_node(l.iter().copied()));
        g
    }

    #[test]
    fn reversal_turns_every_edge_around() {
        let r = diamond().reversed();
        assert_eq!(r.nodes(), 4);
        let preds: Vec<&[usize]> = (0..4).map(|b| r.succ(b)).collect();
        assert_eq!(preds, [&[][..], &[0], &[0], &[1, 2]]);
        assert_eq!(r.reversed().succ(0), [1, 2], "twice reversed: the edges, sorted by target");
    }

    #[test]
    fn diamond_join_is_dominated_by_the_fork() {
        let t = idoms(&diamond(), 0);
        assert_eq!(t.idom, vec![None, Some(0), Some(0), Some(0)]);
        assert_eq!(t.rpo[0], 0);
        assert_eq!(*t.rpo.last().unwrap(), 3);
    }

    #[test]
    fn diamond_arms_reconverge_at_the_join() {
        let ipd = post_idoms(&diamond(), |b| b == 3);
        assert_eq!(ipd, vec![Some(3), Some(3), Some(3), Some(4)]);
    }

    #[test]
    fn loops_and_unreachable_nodes() {
        // 0 → 1 ⇄ 1 → 2; node 3 is dead code pointing at 2.
        let succ = graph(&[&[1], &[1, 2], &[], &[2]]);
        let t = idoms(&succ, 0);
        assert_eq!(t.idom, vec![None, Some(0), Some(1), None]);
        assert_eq!(t.rpo, vec![0, 1, 2]);
        // Node 3 still reaches the exit, so it has a post-dominator.
        let ipd = post_idoms(&succ, |b| succ.succ(b).is_empty());
        assert_eq!(ipd, vec![Some(1), Some(2), Some(4), Some(2)]);
    }

    #[test]
    fn nodes_that_cannot_exit_have_no_post_dominator() {
        // 0 → 1 → 1 (infinite loop); 0 → 2 exits.
        let succ = graph(&[&[1, 2], &[1], &[]]);
        let ipd = post_idoms(&succ, |b| b == 2);
        assert_eq!(ipd, vec![Some(2), None, Some(3)]);
    }

    #[test]
    fn irreducible_cycle_entries_are_dominated_by_the_fork() {
        // 0 → {1, 2}, 1 ⇄ 2, 2 → 3.
        let succ = graph(&[&[1, 2], &[2], &[1, 3], &[]]);
        let t = idoms(&succ, 0);
        assert_eq!(t.idom, vec![None, Some(0), Some(0), Some(2)]);
    }
}
