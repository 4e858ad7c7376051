//! Pipeline observability: per-thread event rings, span guards, named
//! counters and a report aggregator with JSON / Chrome-trace export.
//!
//! The instrumentation pipeline (driver interposition → lifting → code
//! generation → execution) is itself instrumented with this module, the
//! same way production DBI frameworks expose their own phase costs
//! (paper §7, Figs. 9–11 measure exactly this decomposition). Three
//! primitives cover the whole surface:
//!
//! * [`span`] — a RAII guard timing one phase (`obs::span("lift")`);
//! * [`counter`] — a named monotonic counter (`obs::counter("decode.hit", n)`);
//! * [`Report::capture`] — drains every thread's ring into per-phase
//!   totals and exports a JSON summary ([`Report::to_json`]) or Chrome
//!   `trace_event` JSON ([`Report::to_chrome_trace`]) loadable in
//!   `chrome://tracing` and Perfetto.
//!
//! # Overhead contract
//!
//! Collection is **off by default**. Every hook first checks one atomic
//! flag ([`enabled`]) and returns immediately when it is clear — the
//! disabled cost is a single relaxed load plus a branch, verified by the
//! `obs_overhead` bench target. When enabled ([`set_enabled`] or the
//! `NVBIT_OBS=1` environment variable), recording an event is four
//! relaxed atomic stores into a fixed-size per-thread ring — no locks,
//! no allocation on the hot path (a thread's first event registers its
//! ring under a mutex, once). Rings hold [`RING_CAPACITY`] events; when
//! a ring wraps, the oldest events are overwritten and counted in
//! [`Report::dropped`].
//!
//! # Event model
//!
//! Events carry a monotonic nanosecond timestamp (from one process-wide
//! origin), an interned name, a kind (span begin/end or counter) and a
//! 64-bit value. Spans are paired per thread during [`Report::capture`];
//! nesting is derived from pairing order, so per-phase totals come in
//! both inclusive ([`Phase::total_ns`]) and exclusive ([`Phase::self_ns`])
//! flavors.
//!
//! ```
//! common::obs::reset();
//! common::obs::set_enabled(true);
//! {
//!     let _outer = common::obs::span("launch");
//!     let _inner = common::obs::span("lift");
//!     common::obs::counter("decode.hit", 3);
//! }
//! let report = common::obs::Report::capture();
//! common::obs::set_enabled(false);
//! assert_eq!(report.phases["launch"].count, 1);
//! assert_eq!(report.counters["decode.hit"].sum, 3);
//! // The trace export is valid JSON.
//! common::json::Json::parse(&report.to_chrome_trace().to_pretty()).unwrap();
//! ```

use crate::json::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Events each per-thread ring can hold before wrapping (oldest events
/// are overwritten; [`Report::dropped`] counts the loss).
pub const RING_CAPACITY: usize = 8192;

// ---------------------------------------------------------------------------
// Global enable flag (the one branch every hook pays).
// ---------------------------------------------------------------------------

/// 0 = unresolved (consult `NVBIT_OBS`), 1 = off, 2 = on.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether event collection is currently on. The first call resolves the
/// `NVBIT_OBS` environment variable (`1`/`true` turn collection on);
/// afterwards this is a single relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => {
            let on = std::env::var("NVBIT_OBS").map(|v| v == "1" || v == "true").unwrap_or(false);
            ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
    }
}

/// Turns event collection on or off (overrides `NVBIT_OBS`).
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Time origin.
// ---------------------------------------------------------------------------

static START: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process-wide observability origin (the first
/// event ever recorded). Monotonic across threads.
#[must_use]
pub fn now_ns() -> u64 {
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Names: interned to u16 ids so ring slots stay plain atomics (no unsafe).
// ---------------------------------------------------------------------------

static NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

fn intern(name: &'static str) -> u16 {
    let mut names = NAMES.lock().unwrap();
    if let Some(i) = names.iter().position(|n| std::ptr::eq(*n as *const str, name) || *n == name) {
        return i as u16;
    }
    names.push(name);
    (names.len() - 1) as u16
}

fn name_table() -> Vec<&'static str> {
    NAMES.lock().unwrap().clone()
}

// ---------------------------------------------------------------------------
// The per-thread ring.
// ---------------------------------------------------------------------------

/// What one ring slot records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    SpanBegin,
    SpanEnd,
    Counter,
}

/// One event slot: a per-slot sequence number (even = stable, odd = mid
/// write; the high bits carry the wrap generation so a reader detects
/// overwritten slots) plus the event payload. All fields are atomics, so
/// a racing reader observes stale or torn *values*, never undefined
/// behaviour — and the sequence check discards torn tuples.
struct Slot {
    seq: AtomicU64,
    ts: AtomicU64,
    /// `kind << 16 | name_id`.
    meta: AtomicU64,
    value: AtomicU64,
}

/// A single-writer event ring. The owning thread is the only writer;
/// [`Report::capture`] reads concurrently without locking.
struct Ring {
    /// Stable display id (Chrome-trace `tid`).
    tid: u64,
    /// Total events ever pushed (wraps happen modulo capacity).
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl Ring {
    fn new(tid: u64) -> Ring {
        let slots = (0..RING_CAPACITY)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                ts: AtomicU64::new(0),
                meta: AtomicU64::new(0),
                value: AtomicU64::new(0),
            })
            .collect();
        Ring { tid, head: AtomicU64::new(0), slots }
    }

    /// Pushes one event (owner thread only).
    fn push(&self, ts: u64, kind: Kind, name_id: u16, value: u64) {
        let i = self.head.load(Ordering::Relaxed);
        let cap = self.slots.len() as u64;
        let slot = &self.slots[(i % cap) as usize];
        let generation = i / cap + 1;
        // Mark mid-write (odd), fill, mark stable for this generation.
        slot.seq.store(2 * generation - 1, Ordering::Release);
        slot.ts.store(ts, Ordering::Relaxed);
        slot.meta.store(((kind as u64) << 16) | name_id as u64, Ordering::Relaxed);
        slot.value.store(value, Ordering::Relaxed);
        slot.seq.store(2 * generation, Ordering::Release);
        self.head.store(i + 1, Ordering::Release);
    }

    /// Reads the currently visible window: the last `capacity` events (or
    /// fewer). Returns `(events, dropped)` where `dropped` counts events
    /// lost to wraparound or to a concurrent overwrite.
    fn read(&self) -> (Vec<(u64, Kind, u16, u64)>, u64) {
        let h = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let start = h.saturating_sub(cap);
        let mut dropped = start;
        let mut out = Vec::with_capacity((h - start) as usize);
        for i in start..h {
            let slot = &self.slots[(i % cap) as usize];
            let generation = i / cap + 1;
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 != 2 * generation {
                dropped += 1; // overwritten by a later generation or mid-write
                continue;
            }
            let ts = slot.ts.load(Ordering::Relaxed);
            let meta = slot.meta.load(Ordering::Relaxed);
            let value = slot.value.load(Ordering::Relaxed);
            if slot.seq.load(Ordering::Acquire) != 2 * generation {
                dropped += 1;
                continue;
            }
            let kind = match meta >> 16 {
                0 => Kind::SpanBegin,
                1 => Kind::SpanEnd,
                _ => Kind::Counter,
            };
            out.push((ts, kind, (meta & 0xffff) as u16, value));
        }
        (out, dropped)
    }
}

// ---------------------------------------------------------------------------
// Registry + thread-local state.
// ---------------------------------------------------------------------------

struct Registry {
    rings: Vec<Arc<Ring>>,
    next_tid: u64,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry { rings: Vec::new(), next_tid: 0 });

/// Bumped by [`reset`]; threads re-register their ring when their cached
/// epoch is stale. Read with one relaxed load per event.
static EPOCH: AtomicU64 = AtomicU64::new(0);

struct LocalState {
    ring: Option<Arc<Ring>>,
    epoch: u64,
    /// Per-thread `&'static str` pointer → interned id cache, so the hot
    /// path never takes the global name lock.
    names: Vec<(*const u8, u16)>,
}

thread_local! {
    static LOCAL: RefCell<LocalState> =
        const { RefCell::new(LocalState { ring: None, epoch: 0, names: Vec::new() }) };
}

fn record(kind: Kind, name: &'static str, value: u64) {
    let ts = now_ns();
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        let name_id = match local.names.iter().find(|(p, _)| *p == name.as_ptr()) {
            Some((_, id)) => *id,
            None => {
                let id = intern(name);
                local.names.push((name.as_ptr(), id));
                id
            }
        };
        let global_epoch = EPOCH.load(Ordering::Relaxed);
        if local.ring.is_none() || local.epoch != global_epoch {
            // Cold path: first event of this thread, or first after a
            // reset — register a fresh ring under the registry lock.
            let mut reg = REGISTRY.lock().unwrap();
            let ring = Arc::new(Ring::new(reg.next_tid));
            reg.next_tid += 1;
            reg.rings.push(ring.clone());
            local.epoch = global_epoch;
            local.ring = Some(ring);
        }
        local.ring.as_ref().expect("registered above").push(ts, kind, name_id, value);
    });
}

/// Discards all recorded events and forgets dead threads' rings. Call
/// between measured runs; threads that are still recording re-register
/// their rings transparently on their next event.
pub fn reset() {
    let mut reg = REGISTRY.lock().unwrap();
    reg.rings.clear();
    EPOCH.fetch_add(1, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Public recording API.
// ---------------------------------------------------------------------------

/// Times a phase: records a begin event now and an end event when the
/// returned guard drops. A no-op (one branch) while collection is
/// disabled.
#[must_use = "the span ends when the guard drops"]
pub fn span(name: &'static str) -> SpanGuard {
    let active = enabled();
    if active {
        record(Kind::SpanBegin, name, 0);
    }
    SpanGuard { name, active }
}

/// Adds `delta` to the named counter. A no-op (one branch) while
/// collection is disabled.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if enabled() {
        record(Kind::Counter, name, delta);
    }
}

/// RAII guard returned by [`span`]; records the end event on drop.
pub struct SpanGuard {
    name: &'static str,
    active: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.active {
            record(Kind::SpanEnd, self.name, 0);
        }
    }
}

// ---------------------------------------------------------------------------
// Report.
// ---------------------------------------------------------------------------

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

/// One completed span occurrence (the raw material of the Chrome trace).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Phase name.
    pub name: &'static str,
    /// Ring (thread) id the span ran on.
    pub tid: u64,
    /// Start, nanoseconds since the observability origin.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// One counter occurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterEvent {
    /// Counter name.
    pub name: &'static str,
    /// Ring (thread) id.
    pub tid: u64,
    /// Timestamp, nanoseconds since the origin.
    pub ts_ns: u64,
    /// Delta recorded.
    pub value: u64,
}

/// A drained snapshot of every thread's ring: per-phase totals, counter
/// sums and the raw span/counter events for trace export.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Aggregated spans keyed by phase name.
    pub phases: BTreeMap<&'static str, Phase>,
    /// Aggregated counters keyed by name.
    pub counters: BTreeMap<&'static str, CounterTotal>,
    /// Every completed span, in per-thread order.
    pub spans: Vec<SpanEvent>,
    /// Every counter event.
    pub counter_events: Vec<CounterEvent>,
    /// Events lost to ring wraparound (or mid-write skips).
    pub dropped: u64,
    /// Span begins without a matching end at capture time.
    pub open_spans: u64,
}

impl Report {
    /// Drains all registered rings into an aggregated report. Does not
    /// stop collection and may run while other threads record (their
    /// in-flight events are picked up by a later capture).
    #[must_use]
    pub fn capture() -> Report {
        let rings: Vec<Arc<Ring>> = REGISTRY.lock().unwrap().rings.clone();
        let names = name_table();
        let mut report = Report::default();
        for ring in rings {
            let (events, dropped) = ring.read();
            report.dropped += dropped;
            // Pair begin/end per thread; the stack also yields child time
            // for exclusive totals.
            let mut stack: Vec<(u16, u64, u64)> = Vec::new(); // (name, start, child_ns)
            for (ts, kind, name_id, value) in events {
                let Some(name) = names.get(name_id as usize).copied() else { continue };
                match kind {
                    Kind::SpanBegin => stack.push((name_id, ts, 0)),
                    Kind::SpanEnd => {
                        // Tolerate lost begins (wraparound): unwind to the
                        // matching name if present, else drop the end.
                        let Some(pos) = stack.iter().rposition(|(n, _, _)| *n == name_id) else {
                            continue;
                        };
                        report.open_spans += (stack.len() - pos - 1) as u64;
                        stack.truncate(pos + 1);
                        let (_, start, child_ns) = stack.pop().expect("found above");
                        let dur = ts.saturating_sub(start);
                        if let Some((_, _, parent_child)) = stack.last_mut() {
                            *parent_child += dur;
                        }
                        let phase = report.phases.entry(name).or_default();
                        phase.count += 1;
                        phase.total_ns += dur;
                        phase.self_ns += dur.saturating_sub(child_ns);
                        report.spans.push(SpanEvent {
                            name,
                            tid: ring.tid,
                            start_ns: start,
                            dur_ns: dur,
                        });
                    }
                    Kind::Counter => {
                        let c = report.counters.entry(name).or_default();
                        c.count += 1;
                        c.sum += value;
                        report.counter_events.push(CounterEvent {
                            name,
                            tid: ring.tid,
                            ts_ns: ts,
                            value,
                        });
                    }
                }
            }
            report.open_spans += stack.len() as u64;
        }
        report
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
        let phases = self
            .phases
            .iter()
            .map(|(name, p)| {
                (
                    name.to_string(),
                    Json::obj(vec![
                        ("count", Json::Num(p.count as f64)),
                        ("total_ns", Json::Num(p.total_ns as f64)),
                        ("self_ns", Json::Num(p.self_ns as f64)),
                    ]),
                )
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|(name, c)| {
                (
                    name.to_string(),
                    Json::obj(vec![
                        ("count", Json::Num(c.count as f64)),
                        ("sum", Json::Num(c.sum as f64)),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("phases", Json::Obj(phases)),
            ("counters", Json::Obj(counters)),
            ("spans", Json::Num(self.spans.len() as f64)),
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
        let mut events: Vec<Json> = Vec::with_capacity(self.spans.len());
        for s in &self.spans {
            events.push(Json::obj(vec![
                ("name", Json::Str(s.name.to_string())),
                ("cat", Json::Str("nvbit".into())),
                ("ph", Json::Str("X".into())),
                ("ts", Json::Num(s.start_ns as f64 / 1000.0)),
                ("dur", Json::Num(s.dur_ns as f64 / 1000.0)),
                ("pid", Json::Num(0.0)),
                ("tid", Json::Num(s.tid as f64)),
            ]));
        }
        for c in &self.counter_events {
            events.push(Json::obj(vec![
                ("name", Json::Str(c.name.to_string())),
                ("ph", Json::Str("C".into())),
                ("ts", Json::Num(c.ts_ns as f64 / 1000.0)),
                ("pid", Json::Num(0.0)),
                ("tid", Json::Num(c.tid as f64)),
                ("args", Json::obj(vec![("value", Json::Num(c.value as f64))])),
            ]));
        }
        Json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::Str("ns".into())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The obs tests share mutable global state (the enable flag and the
    /// ring registry), so they serialize on one lock.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Other unit tests in this binary (the channel's) emit `chan.*`
    /// events whenever an obs test has collection switched on, and their
    /// drain threads can wrap their own rings. Each obs test therefore
    /// asserts only on events it created: every test uses names no other
    /// code emits, and [`mine`] narrows a capture to those names.
    /// Ring-level accounting (`dropped`, `open_spans`) is checked through
    /// the recording thread's own ring, never the process-wide sums.
    fn mine(r: &Report, names: &[&str]) -> Report {
        let keep = |n: &&'static str| names.contains(n);
        Report {
            phases: r
                .phases
                .iter()
                .filter(|(n, _)| keep(n))
                .map(|(n, p)| (*n, p.clone()))
                .collect(),
            counters: r
                .counters
                .iter()
                .filter(|(n, _)| keep(n))
                .map(|(n, c)| (*n, c.clone()))
                .collect(),
            spans: r.spans.iter().filter(|s| keep(&s.name)).cloned().collect(),
            counter_events: r.counter_events.iter().filter(|c| keep(&c.name)).cloned().collect(),
            dropped: 0,
            open_spans: 0,
        }
    }

    /// The calling thread's ring after recording (registered by then).
    fn my_ring() -> Arc<Ring> {
        LOCAL.with(|l| l.borrow().ring.clone().expect("this thread has recorded an event"))
    }

    #[test]
    fn disabled_mode_records_nothing() {
        let _g = locked();
        reset();
        set_enabled(false);
        {
            let _s = span("t.disabled.launch");
            counter("t.disabled.hit", 10);
        }
        let r = mine(&Report::capture(), &["t.disabled.launch", "t.disabled.hit"]);
        assert!(r.phases.is_empty(), "{:?}", r.phases);
        assert!(r.counters.is_empty());
    }

    #[test]
    fn spans_nest_and_split_inclusive_exclusive() {
        let _g = locked();
        reset();
        set_enabled(true);
        {
            let _outer = span("t.nest.outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span("t.nest.inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let r = mine(&Report::capture(), &["t.nest.outer", "t.nest.inner"]);
        set_enabled(false);
        let outer = &r.phases["t.nest.outer"];
        let inner = &r.phases["t.nest.inner"];
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert!(outer.total_ns >= inner.total_ns, "outer includes inner");
        assert!(outer.self_ns <= outer.total_ns - inner.total_ns, "self excludes inner");
        assert_eq!(r.spans.len(), 2, "both spans closed");
    }

    #[test]
    fn spans_pair_independently_across_threads() {
        let _g = locked();
        reset();
        set_enabled(true);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10 {
                        let _sp = span("t.threads.worker");
                        counter("t.threads.items", 2);
                    }
                });
            }
        });
        let r = mine(&Report::capture(), &["t.threads.worker", "t.threads.items"]);
        set_enabled(false);
        assert_eq!(r.phases["t.threads.worker"].count, 40);
        assert_eq!(r.counters["t.threads.items"].sum, 80);
        assert_eq!(r.counters["t.threads.items"].count, 40);
        // Four worker rings → four distinct tids among this test's spans.
        let tids: std::collections::HashSet<u64> = r.spans.iter().map(|s| s.tid).collect();
        assert_eq!(tids.len(), 4);
    }

    #[test]
    fn ring_wraparound_drops_oldest_and_counts_them() {
        let _g = locked();
        reset();
        set_enabled(true);
        let n = (RING_CAPACITY + 100) as u64;
        for i in 0..n {
            counter("t.wrap", i);
        }
        let r = mine(&Report::capture(), &["t.wrap"]);
        let (_, dropped) = my_ring().read();
        set_enabled(false);
        let c = &r.counters["t.wrap"];
        assert_eq!(c.count, RING_CAPACITY as u64, "ring keeps the newest window");
        assert_eq!(dropped, 100, "this thread's ring lost exactly the overwritten events");
        // The survivors are the newest events: 100..n sum.
        let expect: u64 = (100..n).sum();
        assert_eq!(c.sum, expect);
    }

    #[test]
    fn reset_discards_events_and_reregisters_live_threads() {
        let _g = locked();
        reset();
        set_enabled(true);
        counter("t.reset.before", 1);
        reset();
        counter("t.reset.after", 1);
        let r = Report::capture();
        set_enabled(false);
        assert!(!r.counters.contains_key("t.reset.before"));
        assert_eq!(r.counters["t.reset.after"].sum, 1);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_schema() {
        let _g = locked();
        reset();
        set_enabled(true);
        {
            let _s = span("t.trace.execute");
            counter("t.trace.miss", 7);
        }
        let r = mine(&Report::capture(), &["t.trace.execute", "t.trace.miss"]);
        set_enabled(false);
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
        assert_eq!(span_ev.get("name").unwrap().as_str(), Some("t.trace.execute"));
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
        let phase = summary.get("phases").unwrap().get("t.trace.execute").unwrap();
        assert_eq!(phase.get("count").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn guard_spanning_a_disable_still_closes() {
        let _g = locked();
        reset();
        set_enabled(true);
        let guard = span("t.toggled");
        set_enabled(false);
        drop(guard); // end event must still record: the begin did
        let r = mine(&Report::capture(), &["t.toggled"]);
        assert_eq!(r.phases["t.toggled"].count, 1);
        assert_eq!(r.spans.len(), 1, "the span closed");
    }
}
