//! Dominance over flat successor-list graphs — the one implementation of
//! the Cooper–Harvey–Kennedy iterative algorithm ("A Simple, Fast
//! Dominance Algorithm") shared by the PTX front end (`ptx::cfg`,
//! reconvergence-point placement) and the SASS analyses (`sass::dom`,
//! coalescing regions).
//!
//! A [`Graph`] is two arrays, offsets and targets, so building one,
//! reversing it and solving over it cost a fixed handful of allocations
//! whatever the node count, and none when a caller that solves many graphs
//! keeps them and a [`Dominators`] for the next. Immediate dominators are
//! unique, so the result depends only on the edge set, never on successor
//! order.

/// A directed graph over nodes `0..nodes()` as flat successor lists: the
/// successors of node `b` are `targets[offsets[b]..offsets[b + 1]]`
/// (`offsets` is `[0]` or empty when there is no node).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
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
        self.offsets.len().saturating_sub(1)
    }

    /// Successors of node `b`, in insertion order.
    #[inline]
    pub fn succ(&self, b: usize) -> &[usize] {
        &self.targets[self.offsets[b]..self.offsets[b + 1]]
    }

    /// Appends the next node, with `succ` as its successor list.
    pub fn push_node(&mut self, succ: impl IntoIterator<Item = usize>) {
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        self.targets.extend(succ);
        self.offsets.push(self.targets.len());
    }

    /// Removes every node, keeping the storage.
    pub fn clear(&mut self) {
        self.offsets.clear();
        self.targets.clear();
    }

    /// The graph with every edge turned around (node count unchanged).
    pub fn reversed(&self) -> Graph {
        let mut out = Graph::with_capacity(self.nodes(), self.targets.len());
        self.reverse_into(&mut out);
        out
    }

    /// Makes `out` this graph with every edge turned around, in `out`'s
    /// storage.
    pub fn reverse_into(&self, out: &mut Graph) {
        let n = self.nodes();
        // In-degrees, then their prefix sums: `offsets[b]` is where `b`'s
        // list starts. Filling advances each start to its list's end — the
        // next list's start — so one shift restores the offsets.
        let Graph { offsets, targets } = out;
        offsets.clear();
        offsets.resize(n + 1, 0);
        for &t in &self.targets {
            offsets[t + 1] += 1;
        }
        for b in 0..n {
            offsets[b + 1] += offsets[b];
        }
        targets.clear();
        targets.resize(self.targets.len(), 0);
        for b in 0..n {
            for &t in self.succ(b) {
                targets[offsets[t]] = b;
                offsets[t] += 1;
            }
        }
        offsets.copy_within(0..n, 1);
        offsets[0] = 0;
    }
}

/// Immediate dominators from one root, plus the traversal that produced
/// them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DomTree {
    /// Immediate dominator per node; `None` for the root and for nodes
    /// unreachable from it.
    pub idom: Vec<Option<usize>>,
    /// Reverse postorder of the nodes reachable from the root (dominators
    /// come before the nodes they dominate).
    pub rpo: Vec<usize>,
}

/// The buffers of a solve, kept for the next: a caller that solves one
/// small graph after another (a compiler, one per function) allocates only
/// while they grow.
#[derive(Debug, Default)]
pub struct Dominators {
    /// The graph solved over and its reversal (for post-dominators, the
    /// caller's graph plus the virtual exit).
    graph: Graph,
    reversed: Graph,
    /// Per node, its position in the reverse postorder.
    order: Vec<usize>,
    /// The depth-first walk's `(node, next successor)` stack.
    stack: Vec<(usize, usize)>,
    tree: DomTree,
}

impl Dominators {
    /// [`post_idoms`] in these buffers: the result has one entry per node of
    /// `succ`, and lives until the next solve.
    pub fn post_idoms(
        &mut self,
        succ: &Graph,
        is_exit: impl Fn(usize) -> bool,
    ) -> &[Option<usize>] {
        let n = succ.nodes();
        let Dominators { graph, reversed, order, stack, tree } = self;
        graph.clear();
        graph.offsets.reserve(n + 2);
        graph.targets.reserve(succ.targets.len() + n);
        for b in 0..n {
            graph.push_node(succ.succ(b).iter().copied().chain(is_exit(b).then_some(n)));
        }
        graph.push_node([]);
        graph.reverse_into(reversed);
        solve(reversed, graph, n, order, stack, tree);
        &tree.idom[..n]
    }
}

/// Writes into `post` the reverse postorder of the nodes reachable from
/// `root`, and into `order` each node's position in it (`usize::MAX` for
/// the others).
fn reverse_postorder(
    succ: &Graph,
    root: usize,
    post: &mut Vec<usize>,
    order: &mut Vec<usize>,
    stack: &mut Vec<(usize, usize)>,
) {
    post.clear();
    post.reserve(succ.nodes());
    // Doubles as the visited mark until the positions are known.
    order.clear();
    order.resize(succ.nodes(), usize::MAX);
    stack.clear();
    stack.reserve(succ.nodes());
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

/// The CHK iteration over `succ` from `root`, given `succ`'s reversal, into
/// `tree`.
fn solve(
    succ: &Graph,
    pred: &Graph,
    root: usize,
    order: &mut Vec<usize>,
    stack: &mut Vec<(usize, usize)>,
    tree: &mut DomTree,
) {
    let DomTree { idom, rpo } = tree;
    reverse_postorder(succ, root, rpo, order, stack);
    idom.clear();
    idom.resize(succ.nodes(), None);
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
                    Some(cur) => intersect(idom, order, cur, p),
                });
            }
            if new.is_some() && idom[b] != new {
                idom[b] = new;
                changed = true;
            }
        }
    }
    idom[root] = None; // drop the sentinel
}

/// Immediate dominators of every node reachable from `root`.
///
/// # Panics
///
/// When `root` or a successor id is out of range.
pub fn idoms(succ: &Graph, root: usize) -> DomTree {
    let (mut order, mut stack, mut tree) = (Vec::new(), Vec::new(), DomTree::default());
    solve(succ, &succ.reversed(), root, &mut order, &mut stack, &mut tree);
    tree
}

/// Immediate post-dominators: [`idoms`] on the reversed graph, rooted at a
/// virtual exit node with id `succ.nodes()` that every node for which
/// `is_exit` holds feeds.
///
/// The result has one entry per real node: `Some(succ.nodes())` when only
/// the virtual exit post-dominates the node, `None` when the node cannot
/// reach any exit.
pub fn post_idoms(succ: &Graph, is_exit: impl Fn(usize) -> bool) -> Vec<Option<usize>> {
    let mut solver = Dominators::default();
    solver.post_idoms(succ, is_exit);
    let mut idom = solver.tree.idom;
    idom.truncate(succ.nodes());
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
