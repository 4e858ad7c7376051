//! Dominance over plain successor-list graphs — the one implementation of
//! the Cooper–Harvey–Kennedy iterative algorithm ("A Simple, Fast
//! Dominance Algorithm") shared by the PTX front end (`ptx::cfg`,
//! reconvergence-point placement) and the SASS analyses (`sass::dom`,
//! coalescing regions).
//!
//! Nodes are `0..succ.len()`. Immediate dominators are unique, so the
//! result depends only on the edge set, never on successor order.

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

/// Reverse postorder of the nodes reachable from `root`.
fn reverse_postorder(succ: &[Vec<usize>], root: usize) -> Vec<usize> {
    let mut post = Vec::with_capacity(succ.len());
    let mut visited = vec![false; succ.len()];
    let mut stack = vec![(root, 0usize)];
    visited[root] = true;
    while let Some(&mut (b, ref mut i)) = stack.last_mut() {
        if let Some(&s) = succ[b].get(*i) {
            *i += 1;
            if !visited[s] {
                visited[s] = true;
                stack.push((s, 0));
            }
        } else {
            post.push(b);
            stack.pop();
        }
    }
    post.reverse();
    post
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

/// Immediate dominators of every node reachable from `root`.
///
/// # Panics
///
/// When `root` or a successor id is out of range.
pub fn idoms(succ: &[Vec<usize>], root: usize) -> DomTree {
    let n = succ.len();
    let rpo = reverse_postorder(succ, root);
    let mut order = vec![usize::MAX; n]; // position in rpo; MAX = unreachable
    for (pos, &b) in rpo.iter().enumerate() {
        order[b] = pos;
    }
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &b in &rpo {
        for &s in &succ[b] {
            preds[s].push(b);
        }
    }
    let mut idom: Vec<Option<usize>> = vec![None; n];
    idom[root] = Some(root); // self-loop sentinel during iteration
    let mut changed = true;
    while changed {
        changed = false;
        for &b in rpo.iter().skip(1) {
            let mut new: Option<usize> = None;
            for &p in &preds[b] {
                if idom[p].is_none() {
                    continue; // not yet processed
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

/// Immediate post-dominators: [`idoms`] on the reversed graph, rooted at a
/// virtual exit node with id `succ.len()` that every node for which
/// `is_exit` holds feeds.
///
/// The result has one entry per real node: `Some(succ.len())` when only
/// the virtual exit post-dominates the node, `None` when the node cannot
/// reach any exit.
pub fn post_idoms(succ: &[Vec<usize>], is_exit: impl Fn(usize) -> bool) -> Vec<Option<usize>> {
    let n = succ.len();
    let mut rsucc: Vec<Vec<usize>> = vec![Vec::new(); n + 1];
    for (b, ss) in succ.iter().enumerate() {
        for &s in ss {
            rsucc[s].push(b);
        }
        if is_exit(b) {
            rsucc[n].push(b);
        }
    }
    let mut idom = idoms(&rsucc, n).idom;
    idom.truncate(n);
    idom
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 → {1, 2} → 3.
    fn diamond() -> Vec<Vec<usize>> {
        vec![vec![2, 1], vec![3], vec![3], vec![]]
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
        let succ = vec![vec![1], vec![1, 2], vec![], vec![2]];
        let t = idoms(&succ, 0);
        assert_eq!(t.idom, vec![None, Some(0), Some(1), None]);
        assert_eq!(t.rpo, vec![0, 1, 2]);
        // Node 3 still reaches the exit, so it has a post-dominator.
        let ipd = post_idoms(&succ, |b| succ[b].is_empty());
        assert_eq!(ipd, vec![Some(1), Some(2), Some(4), Some(2)]);
    }

    #[test]
    fn nodes_that_cannot_exit_have_no_post_dominator() {
        // 0 → 1 → 1 (infinite loop); 0 → 2 exits.
        let succ = vec![vec![1, 2], vec![1], vec![]];
        let ipd = post_idoms(&succ, |b| b == 2);
        assert_eq!(ipd, vec![Some(2), None, Some(3)]);
    }

    #[test]
    fn irreducible_cycle_entries_are_dominated_by_the_fork() {
        // 0 → {1, 2}, 1 ⇄ 2, 2 → 3.
        let succ = vec![vec![1, 2], vec![2], vec![1, 3], vec![]];
        let t = idoms(&succ, 0);
        assert_eq!(t.idom, vec![None, Some(0), Some(0), Some(2)]);
    }
}
