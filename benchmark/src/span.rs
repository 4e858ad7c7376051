//! In-memory span recorder owned by the benchmark.
//!
//! A span is recorded around every call the benchmark makes into a layer of
//! the program; nothing inside the program is read. Spans nest through an
//! explicit stack (the driver and its tool callbacks run on one thread), so
//! a span's parent is the span that was open when it started. A layer's
//! *self time* is its span's duration minus the part of that interval its
//! child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Recorder::spans`].
    pub parent: Option<usize>,
    /// Timed-iteration id the span belongs to.
    pub iter: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The recorder: spans in start order plus the stack of open spans.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    iter: u32,
}

/// Shared handle: the application runner and the tool wrapper record into
/// the same span tree.
pub type Trace = Rc<RefCell<Recorder>>;

impl Recorder {
    pub fn new() -> Recorder {
        Recorder { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), iter: 0 }
    }

    pub fn shared() -> Trace {
        Rc::new(RefCell::new(Recorder::new()))
    }

    /// Sets the iteration id stamped on spans opened from now on.
    pub fn set_iter(&mut self, iter: u32) {
        self.iter = iter;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str) -> usize {
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            iter: self.iter,
        });
        self.open.push(id);
        id
    }

    fn exit(&mut self, id: usize) {
        let now = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close in LIFO order");
        self.spans[id].end_ns = now;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

/// Runs `f` inside a span named `name` when tracing is on, and plainly
/// otherwise. The recorder is not borrowed while `f` runs, so `f` may open
/// child spans.
pub fn scoped<R>(trace: Option<&Trace>, name: &'static str, f: impl FnOnce() -> R) -> R {
    let Some(trace) = trace else { return f() };
    let id = trace.borrow_mut().enter(name);
    let r = f();
    trace.borrow_mut().exit(id);
    r
}

/// Self time of every span, in span order: duration minus the union of the
/// direct children's intervals, clipped to the parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per-iteration totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub inclusive_ns: u64,
    pub self_ns: u64,
}

/// `(iteration, span name) → totals`, for spans whose root ancestor is
/// named `root` (the native and the instrumented run of one iteration share
/// an iteration id but not a root).
pub fn totals_under(spans: &[Span], root: &str) -> BTreeMap<(u32, &'static str), NameTotals> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<(u32, &'static str), NameTotals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let mut top = i;
        while let Some(p) = spans[top].parent {
            top = p;
        }
        if spans[top].name != root {
            continue;
        }
        let t = out.entry((s.iter, s.name)).or_default();
        t.count += 1;
        t.inclusive_ns += s.duration_ns();
        t.self_ns += selfs[i];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, iter: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),   // sibling 1
            span("a.x", 15, 25, Some(1)), // nested in a
            span("b", 50, 70, Some(0)),   // sibling 2
            span("a.y", 30, 40, Some(1)), // second child of a
        ];
        let st = self_times_ns(&spans);
        assert_eq!(st[0], 100 - 30 - 20, "root loses both direct children, not grandchildren");
        assert_eq!(st[1], 30 - 10 - 10);
        assert_eq!(st[2], 10);
        assert_eq!(st[3], 20);
        assert_eq!(st[4], 10);
        // Self times partition the root's duration.
        assert_eq!(st.iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = vec![
            span("root", 10, 50, None),
            span("c1", 10, 30, Some(0)),
            span("c2", 20, 40, Some(0)), // overlaps c1 by 10
            span("c3", 45, 60, Some(0)), // sticks out of the parent by 10
        ];
        // Covered: [10,40) ∪ [45,50) = 35.
        assert_eq!(self_times_ns(&spans)[0], 40 - 35);
    }

    #[test]
    fn recorder_nests_through_the_open_stack() {
        let trace = Recorder::shared();
        scoped(Some(&trace), "outer", || {
            scoped(Some(&trace), "inner", || ());
            trace.borrow_mut().set_iter(1);
            scoped(Some(&trace), "inner", || ());
        });
        let rec = trace.borrow();
        let s = rec.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent), ("outer", None));
        assert_eq!((s[1].parent, s[1].iter), (Some(0), 0));
        assert_eq!((s[2].parent, s[2].iter), (Some(0), 1));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
    }

    #[test]
    fn scoped_without_a_trace_just_runs() {
        assert_eq!(scoped(None, "x", || 7), 7);
    }

    #[test]
    fn totals_group_by_iteration_name_and_root() {
        let mut spans = vec![
            span("run.native", 0, 10, None),
            span("driver.launch", 2, 6, Some(0)),
            span("run.instr", 20, 60, None),
            span("driver.launch", 22, 42, Some(2)),
            span("tools.user", 24, 30, Some(3)),
            span("driver.launch", 44, 50, Some(2)),
        ];
        spans[5].iter = 1;
        let t = totals_under(&spans, "run.instr");
        let l0 = t[&(0, "driver.launch")];
        assert_eq!((l0.count, l0.inclusive_ns, l0.self_ns), (1, 20, 14));
        assert_eq!(t[&(1, "driver.launch")].inclusive_ns, 6);
        assert_eq!(t[&(0, "tools.user")].self_ns, 6);
        assert!(!t.contains_key(&(0, "run.native")));
        assert_eq!(totals_under(&spans, "run.native")[&(0, "driver.launch")].self_ns, 4);
    }
}
