//! Pipeline observability: a [`Recorder`] each context owns, span guards,
//! named counters and a report with JSON / Chrome-trace export.
//!
//! The instrumentation pipeline (driver interposition → lifting → code
//! generation → execution) is itself instrumented with this module, the
//! same way production DBI frameworks expose their own phase costs
//! (paper §7, Figs. 9–11 measure exactly this decomposition). Three
//! primitives cover the whole surface:
//!
//! * [`span`] — a RAII guard timing one phase (`obs::span("lift")`);
//! * [`counter`] — a named monotonic counter (`obs::counter("decode.hit", n)`);
//! * [`Recorder::report`] — per-phase and per-counter totals, as a JSON
//!   summary ([`Report::to_json`]) or a Chrome `trace_event` file
//!   ([`Report::to_chrome_trace`]) for `chrome://tracing` and Perfetto.
//!
//! # Ownership and scope
//!
//! There is no process-wide recorder. A [`Recorder`] is a value (one per
//! `Driver`), and the free functions reach whichever recorder is *bound*
//! on the calling thread: [`Recorder::enter`] binds it until the returned
//! [`Scope`] drops, which puts the previous binding back. A thread spawned
//! to work for the current scope is handed [`current`] and enters it first
//! thing (the CTA workers of a launch and the channel's drain thread do),
//! so two recorders never see each other's events, whatever runs at once.
//!
//! # Overhead contract
//!
//! A recorder starts disabled, and a disabled recorder binds nothing: every
//! hook is one thread-local load and a branch, and entering a scope
//! allocates nothing (the `obs_overhead` bench gates both modes). An
//! enabled hook locks its thread's own *lane* — a mutex nothing else
//! contends for while the thread records — and aggregates there and then:
//! a span stack yields inclusive and exclusive time when the guard drops,
//! and totals are kept per name. Totals are therefore exact for any run
//! length; only the raw events kept for the Chrome trace are bounded
//! ([`TRACE_CAP`] per lane, the overflow counted in [`Report::dropped`]).
//!
//! ```
//! use common::obs;
//! let rec = obs::Recorder::new();
//! rec.set_enabled(true);
//! {
//!     let _scope = rec.enter();
//!     let _outer = obs::span("launch");
//!     let _inner = obs::span("lift");
//!     obs::counter("decode.hit", 3);
//! }
//! let report = rec.report();
//! assert_eq!(report.phases["launch"].count, 1);
//! assert_eq!(report.counters["decode.hit"].sum, 3);
//! common::json::Json::parse(&report.to_chrome_trace().to_pretty()).unwrap();
//! ```

use crate::json::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Raw events each lane keeps for the Chrome trace; later ones are counted
/// in [`Report::dropped`]. The totals do not depend on it.
pub const TRACE_CAP: usize = 8192;

/// An open span: its name, start and the time its closed children took.
struct Frame {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
}

struct Lane {
    /// Stable display id (Chrome-trace `tid`).
    tid: u64,
    /// The recorder's time origin.
    origin: Instant,
    /// The stack of open spans and the totals so far (whose `open_spans`
    /// only [`Recorder::report`] fills).
    state: Mutex<(Vec<Frame>, Report)>,
}

impl Lane {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// A panic while recording leaves both halves valid (every update is
    /// one push, pop or add), so a poisoned lane keeps recording.
    fn state(&self) -> MutexGuard<'_, (Vec<Frame>, Report)> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn begin(&self, name: &'static str) {
        let start_ns = self.now_ns();
        self.state().0.push(Frame { name, start_ns, child_ns: 0 });
    }

    fn end(&self) {
        let now = self.now_ns();
        let (open, totals) = &mut *self.state();
        let Some(Frame { name, start_ns, child_ns }) = open.pop() else { return };
        let dur_ns = now.saturating_sub(start_ns);
        if let Some(parent) = open.last_mut() {
            parent.child_ns += dur_ns;
        }
        let phase = totals.phases.entry(name).or_default();
        phase.count += 1;
        phase.total_ns += dur_ns;
        phase.self_ns += dur_ns.saturating_sub(child_ns);
        totals.keep(Event { name, tid: self.tid, ts_ns: start_ns, is_span: true, value: dur_ns });
    }

    fn count(&self, name: &'static str, value: u64) {
        let ts_ns = self.now_ns();
        let totals = &mut self.state().1;
        let c = totals.counters.entry(name).or_default();
        c.count += 1;
        c.sum += value;
        totals.keep(Event { name, tid: self.tid, ts_ns, is_span: false, value });
    }
}

/// One context's recorder, shared by the threads that record into it.
pub struct Recorder {
    enabled: AtomicBool,
    origin: Instant,
    lanes: Mutex<Vec<Arc<Lane>>>,
}

/// What a thread's hooks reach: the lane this thread claimed, and the
/// recorder it is a lane of (for [`current`]).
struct Binding {
    recorder: Arc<Recorder>,
    lane: Arc<Lane>,
}

thread_local! {
    static BOUND: RefCell<Option<Binding>> = const { RefCell::new(None) };
}

/// Runs `f` on this thread's binding; `None` on a thread past its
/// thread-local teardown, where nothing records.
fn with_bound<R>(f: impl FnOnce(&mut Option<Binding>) -> R) -> Option<R> {
    BOUND.try_with(|bound| f(&mut bound.borrow_mut())).ok()
}

impl Recorder {
    /// A disabled recorder with no events; its time origin is now.
    #[must_use]
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            enabled: AtomicBool::new(false),
            origin: Instant::now(),
            lanes: Mutex::default(),
        })
    }

    /// Turns recording on or off for scopes entered from now on. A scope
    /// already entered keeps the binding it made, and a thread that was
    /// handed [`current`] while this was off was handed `None`: it records
    /// nothing for as long as it lives, so enable before spawning.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    fn lanes(&self) -> MutexGuard<'_, Vec<Arc<Lane>>> {
        // Pushes only: valid whatever panicked while holding it.
        self.lanes.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A lane nothing records into, else a new one: lanes number the
    /// threads that recorded at once, not those that ever ran. A lane is
    /// free when this list holds its only handle (bindings and span guards
    /// hold the others), and a free lane gains one only under this lock.
    /// A binding an inner scope has stashed holds its lane too: re-entering
    /// recorder A on a thread where B is bound inside A's scope claims a
    /// second lane, whose spans do not nest in the outer A span (that span's
    /// `self_ns` then includes them).
    fn claim_lane(&self) -> Arc<Lane> {
        let mut lanes = self.lanes();
        if let Some(free) = lanes.iter().find(|l| Arc::strong_count(l) == 1) {
            return free.clone();
        }
        let (tid, origin) = (lanes.len() as u64, self.origin);
        lanes.push(Arc::new(Lane { tid, origin, state: Mutex::default() }));
        lanes[tid as usize].clone()
    }

    /// Binds this recorder on the calling thread until the returned scope
    /// drops. Disabled, it binds *nothing* — hooks inside the scope are
    /// no-ops even when an enclosing scope records. Entering the recorder
    /// that is already bound costs one comparison. Scopes must drop in the
    /// reverse of the order they were entered (as locals do); one dropped
    /// early puts back a binding that is not the enclosing one.
    #[must_use = "the binding ends when the scope drops"]
    pub fn enter(self: &Arc<Self>) -> Scope {
        let on = self.enabled.load(Ordering::Relaxed);
        let restore = with_bound(|bound| {
            let unchanged = match bound {
                Some(b) => on && Arc::ptr_eq(&b.recorder, self),
                None => !on,
            };
            if unchanged {
                return None;
            }
            let new = on.then(|| Binding { recorder: self.clone(), lane: self.claim_lane() });
            Some(std::mem::replace(bound, new))
        });
        Scope { restore: restore.flatten(), _on_this_thread: std::marker::PhantomData }
    }

    /// Everything recorded so far: the lanes' totals and trace events
    /// merged. Recording may go on meanwhile (each lane is locked for the
    /// copy only); spans still open are counted in [`Report::open_spans`].
    #[must_use]
    pub fn report(&self) -> Report {
        let mut report = Report::default();
        for lane in self.lanes().iter() {
            let (open, totals) = &*lane.state();
            report.open_spans += open.len() as u64;
            for (name, p) in &totals.phases {
                let q = report.phases.entry(name).or_default();
                q.count += p.count;
                q.total_ns += p.total_ns;
                q.self_ns += p.self_ns;
            }
            for (name, c) in &totals.counters {
                let d = report.counters.entry(name).or_default();
                d.count += c.count;
                d.sum += c.sum;
            }
            report.events.extend_from_slice(&totals.events);
            report.dropped += totals.dropped;
        }
        report
    }
}

/// The guard of [`Recorder::enter`]: puts the previous binding back on
/// drop, on the thread that entered.
pub struct Scope {
    /// The binding this scope replaced; `None` when it changed nothing.
    restore: Option<Option<Binding>>,
    _on_this_thread: std::marker::PhantomData<*const ()>,
}

impl Drop for Scope {
    fn drop(&mut self) {
        if let Some(previous) = self.restore.take() {
            with_bound(|bound| *bound = previous);
        }
    }
}

/// The recorder bound on this thread (`None`: hooks here record nothing),
/// for a thread spawned from here to [`enter`](Recorder::enter) first thing.
#[must_use]
pub fn current() -> Option<Arc<Recorder>> {
    with_bound(|bound| bound.as_ref().map(|b| b.recorder.clone())).flatten()
}

/// Times a phase: opens a span now and closes it when the returned guard
/// drops (guards close innermost first). A no-op while nothing is bound.
#[inline]
#[must_use = "the span ends when the guard drops"]
pub fn span(name: &'static str) -> SpanGuard {
    let lane = with_bound(|bound| bound.as_ref().map(|b| b.lane.clone())).flatten();
    if let Some(lane) = &lane {
        lane.begin(name);
    }
    SpanGuard { lane }
}

/// Adds `delta` to the named counter. A no-op while nothing is bound.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    with_bound(|bound| {
        if let Some(b) = bound {
            b.lane.count(name, delta);
        }
    });
}

/// RAII guard returned by [`span`]; closes the span on drop, in the lane
/// that opened it (whatever is bound by then).
pub struct SpanGuard {
    lane: Option<Arc<Lane>>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(lane) = &self.lane {
            lane.end();
        }
    }
}

/// Aggregated timing of one phase (all spans with the same name).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Phase {
    /// Completed spans.
    pub count: u64,
    /// Inclusive wall time (child spans counted in their parents).
    pub total_ns: u64,
    /// Exclusive wall time (child span time subtracted).
    pub self_ns: u64,
}

/// Aggregated state of one named counter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterTotal {
    /// Number of [`counter`] calls.
    pub count: u64,
    /// Sum of the deltas.
    pub sum: u64,
}

/// One raw event (the material of the Chrome trace).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Phase or counter name.
    pub name: &'static str,
    /// Lane it was recorded on.
    pub tid: u64,
    /// When the span started or the counter was bumped, nanoseconds since
    /// the recorder's origin.
    pub ts_ns: u64,
    /// Whether this is a completed span (else one [`counter`] call).
    pub is_span: bool,
    /// The span's duration in nanoseconds, or the counter's delta.
    pub value: u64,
}

/// What a recorder holds: exact per-phase totals and counter sums, and the
/// raw events kept for trace export.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Aggregated spans keyed by phase name.
    pub phases: BTreeMap<&'static str, Phase>,
    /// Aggregated counters keyed by name.
    pub counters: BTreeMap<&'static str, CounterTotal>,
    /// The first [`TRACE_CAP`] raw events of each lane, lane by lane in
    /// the order recorded (a span is recorded when it completes).
    pub events: Vec<Event>,
    /// Raw events the cap left out of `events`; the totals include them.
    pub dropped: u64,
    /// Spans begun and not yet ended when the report was taken.
    pub open_spans: u64,
}

impl Report {
    /// Keeps a lane's raw event while it has room, else counts it dropped.
    fn keep(&mut self, event: Event) {
        if self.events.len() < TRACE_CAP {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }

    /// The inclusive total of a phase, in nanoseconds (0 when absent).
    #[must_use]
    pub fn phase_ns(&self, name: &str) -> u64 {
        self.phases.get(name).map(|p| p.total_ns).unwrap_or(0)
    }

    /// The sum of a counter (0 when absent).
    #[must_use]
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.counters.get(name).map(|c| c.sum).unwrap_or(0)
    }

    /// Renders the per-phase/per-counter summary as a JSON document
    /// (`common::json`), the shape written to `results/BENCH_*.json`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let nums = |fields: &[(&str, u64)]| {
            Json::obj(fields.iter().map(|&(k, v)| (k, Json::Num(v as f64))).collect())
        };
        let phases = self.phases.iter().map(|(name, p)| {
            let fields = [("count", p.count), ("total_ns", p.total_ns), ("self_ns", p.self_ns)];
            (name.to_string(), nums(&fields))
        });
        let counters = self
            .counters
            .iter()
            .map(|(name, c)| (name.to_string(), nums(&[("count", c.count), ("sum", c.sum)])));
        let spans = self.events.iter().filter(|e| e.is_span).count();
        Json::obj(vec![
            ("phases", Json::Obj(phases.collect())),
            ("counters", Json::Obj(counters.collect())),
            ("spans", Json::Num(spans as f64)),
            ("dropped", Json::Num(self.dropped as f64)),
            ("open_spans", Json::Num(self.open_spans as f64)),
        ])
    }

    /// Renders the raw events in Chrome `trace_event` format: an object
    /// with a `traceEvents` array of `ph:"X"` complete events (spans) and
    /// `ph:"C"` counter samples, timestamps in microseconds — loadable in
    /// `chrome://tracing` and Perfetto.
    #[must_use]
    pub fn to_chrome_trace(&self) -> Json {
        let events = self.events.iter().map(|e| {
            let mut fields = vec![
                ("name", Json::Str(e.name.to_string())),
                ("ts", Json::Num(e.ts_ns as f64 / 1000.0)),
                ("pid", Json::Num(0.0)),
                ("tid", Json::Num(e.tid as f64)),
            ];
            if e.is_span {
                fields.extend([
                    ("cat", Json::Str("nvbit".into())),
                    ("ph", Json::Str("X".into())),
                    ("dur", Json::Num(e.value as f64 / 1000.0)),
                ]);
            } else {
                fields.extend([
                    ("ph", Json::Str("C".into())),
                    ("args", Json::obj(vec![("value", Json::Num(e.value as f64))])),
                ]);
            }
            Json::obj(fields)
        });
        Json::obj(vec![
            ("traceEvents", Json::Arr(events.collect())),
            ("displayTimeUnit", Json::Str("ns".into())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recording() -> Arc<Recorder> {
        let rec = Recorder::new();
        rec.set_enabled(true);
        rec
    }

    #[test]
    fn disabled_mode_records_nothing() {
        let rec = Recorder::new();
        {
            let _scope = rec.enter();
            assert!(current().is_none());
            let _s = span("launch");
            counter("hit", 10);
        }
        let r = rec.report();
        assert!(r.phases.is_empty(), "{:?}", r.phases);
        assert!(r.counters.is_empty());
        assert!(rec.lanes().is_empty(), "a disabled scope claims no lane");
    }

    #[test]
    fn spans_nest_and_split_inclusive_exclusive() {
        let rec = recording();
        {
            let _scope = rec.enter();
            let _outer = span("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            assert_eq!(rec.report().open_spans, 1, "outer is still open");
        }
        let r = rec.report();
        let outer = &r.phases["outer"];
        let inner = &r.phases["inner"];
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert!(outer.total_ns >= inner.total_ns, "outer includes inner");
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns, "self excludes inner");
        assert_eq!(inner.self_ns, inner.total_ns);
        assert_eq!(r.events.len(), 2, "both spans closed");
        assert_eq!(r.open_spans, 0);
    }

    #[test]
    fn spans_pair_independently_across_threads() {
        let rec = recording();
        let barrier = std::sync::Barrier::new(4);
        {
            let _scope = rec.enter();
            let parent = current().expect("bound above");
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        let _scope = parent.enter();
                        barrier.wait(); // all four hold a lane at once
                        for _ in 0..10 {
                            let _sp = span("worker");
                            counter("items", 2);
                        }
                    });
                }
            });
        }
        let r = rec.report();
        assert_eq!(r.phases["worker"].count, 40);
        assert_eq!(r.counters["items"].sum, 80);
        assert_eq!(r.counters["items"].count, 40);
        // Four workers → four lanes besides the spawning thread's.
        let tids: std::collections::BTreeSet<u64> =
            r.events.iter().filter(|e| e.is_span).map(|e| e.tid).collect();
        assert_eq!(tids.into_iter().collect::<Vec<_>>(), [1, 2, 3, 4]);
    }

    /// Threads that record one after the other share a lane: lanes count
    /// concurrency, so a long run's launches do not grow the recorder.
    #[test]
    fn a_released_lane_is_claimed_by_the_next_thread() {
        let rec = recording();
        for _ in 0..3 {
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _scope = rec.enter();
                    counter("visits", 1);
                });
            });
        }
        assert_eq!(rec.lanes().len(), 1);
        assert_eq!(rec.report().counters["visits"].count, 3);
    }

    /// The ring this replaces kept the newest 8,192 events and lost the
    /// counts of the rest; the cap now bounds the trace list only.
    #[test]
    fn totals_stay_exact_past_the_raw_event_cap() {
        let rec = recording();
        let n = 10 * TRACE_CAP as u64;
        {
            let _scope = rec.enter();
            for i in 0..n / 2 {
                let _s = span("tick");
                counter("wrap", i);
            }
        }
        let r = rec.report();
        assert_eq!(r.phases["tick"].count, n / 2);
        assert_eq!(r.counters["wrap"].count, n / 2);
        assert_eq!(r.counters["wrap"].sum, (0..n / 2).sum::<u64>());
        assert_eq!(r.events.len(), TRACE_CAP);
        assert_eq!((r.events[0].name, r.events[0].value), ("wrap", 0), "the oldest are kept");
        assert_eq!(r.dropped, n - TRACE_CAP as u64);
    }

    #[test]
    fn an_inner_scope_restores_the_outer_binding_on_drop() {
        let (outer, inner, off) = (recording(), recording(), Recorder::new());
        let _o = outer.enter();
        counter("seen", 1);
        {
            let _i = inner.enter();
            counter("seen", 10);
            let _again = inner.enter(); // re-entering what is bound changes nothing
            counter("seen", 10);
        }
        counter("seen", 2);
        {
            let _d = off.enter(); // a disabled recorder masks the outer one
            counter("seen", 100);
        }
        counter("seen", 4);
        assert_eq!(outer.report().counter_sum("seen"), 7);
        assert_eq!(inner.report().counter_sum("seen"), 20);
        assert!(off.report().counters.is_empty());
        drop(_o);
        assert!(current().is_none());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_schema() {
        let rec = recording();
        {
            let _scope = rec.enter();
            let _s = span("execute");
            counter("miss", 7);
        }
        let r = rec.report();
        // Golden schema check: round-trip through the JSON parser and
        // verify the trace_event fields Perfetto requires.
        let text = r.to_chrome_trace().to_pretty();
        let doc = Json::parse(&text).expect("chrome trace must be valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        let span_ev = events
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .expect("one complete event");
        assert_eq!(span_ev.get("name").unwrap().as_str(), Some("execute"));
        assert!(span_ev.get("ts").unwrap().as_f64().is_some());
        assert!(span_ev.get("dur").unwrap().as_f64().is_some());
        assert!(span_ev.get("tid").unwrap().as_u64().is_some());
        let ctr_ev = events
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("C"))
            .expect("one counter event");
        assert_eq!(ctr_ev.get("args").unwrap().get("value").unwrap().as_u64(), Some(7));
        // The JSON summary parses too.
        let summary = Json::parse(&r.to_json().to_pretty()).unwrap();
        let phase = summary.get("phases").unwrap().get("execute").unwrap();
        assert_eq!(phase.get("count").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn guard_spanning_a_disable_still_closes() {
        let rec = recording();
        let scope = rec.enter();
        let guard = span("toggled");
        rec.set_enabled(false);
        drop(scope);
        drop(guard); // the span closes in the lane that opened it
        let r = rec.report();
        assert_eq!(r.phases["toggled"].count, 1);
        assert_eq!((r.events.len(), r.open_spans), (1, 0), "the span closed");
    }
}
