//! Streaming GPU→host tool channel with three owned flush buffers and a
//! parallel host drain (the paper's `mem_trace`/cache-simulator receiver
//! thread, §6.1).
//!
//! The channel carries fixed-size [`Record`]s from device-side injected
//! tool code (the producer half, [`ChannelDev`], driven by the executor's
//! `CHAN` instruction) to a dedicated host receiver `std::thread` (the
//! consumer half, [`ChannelHost`]). Per producer *stream* (one record tag,
//! e.g. one CTA) the channel is order-preserving; mechanically many
//! streams push concurrently.
//!
//! ## Three owned buffers
//!
//! Everything the two halves share sits behind one [`Mutex`]. Three
//! `Vec<Record>` buffers of `cap` records circulate by ownership:
//! producers append to the *filling* buffer; a full one moves onto a queue
//! the host drains in order, and an empty one from the free pool takes its
//! place. The host runs the consumer on the buffer itself, outside the
//! lock, and returns it empty to the pool: no record is copied on the way.
//! Three, so that one can fill while one waits in the queue and one is in
//! the consumer's hands; a frozen consumer lets exactly `3 × cap` records
//! in.
//!
//! ## Backpressure
//!
//! A full filling buffer with an empty pool means every other buffer is
//! queued or being drained. [`Backpressure::Block`] parks the producer
//! until the host returns one — lossless, used for trace capture.
//! [`Backpressure::DropCount`] drops what is left of the row and counts
//! it, so a row only ever loses a suffix, with exact accounting:
//! `delivered() + dropped() == demanded()` holds after every
//! [`ChannelDev::flush`], independent of timing. After
//! [`ChannelHost::shutdown`] every push drops, under either policy.
//!
//! A consumer that panics does not take the channel with it: the receiver
//! catches the unwind and from then on drains and discards, counting that
//! batch and every later one as dropped ([`ChannelHost::consumer_failed`]);
//! the identity still holds and nobody waits on a dead thread.
//!
//! The lock is taken over poison: every update under it is a counter step
//! or a whole buffer move, and the consumer never runs under it, so the
//! state is consistent at any point a holder could panic.
//!
//! Observability: `chan.flush`, `chan.doorbell_stall`, `chan.records`,
//! `chan.bytes` and `chan.drop` counters plus a `chan.drain` span land in
//! the [`crate::obs`] recorder bound where [`ChannelHost::spawn`] is called.

use crate::obs;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Bytes one [`Record`] occupies in a flush buffer (tag + payload).
pub const RECORD_BYTES: u64 = 16;

/// One channel record: a producer stream tag (the executor uses the
/// CTA-linear index) and a payload word (e.g. an effective address).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// Producer stream identifier; records with equal tags arrive in push
    /// order.
    pub tag: u64,
    /// Payload word.
    pub payload: u64,
}

/// The host-side consumer callback: invoked by the receiver thread once
/// per drained batch.
pub type Consumer = Box<dyn FnMut(&[Record]) + Send>;

/// What an overflowing producer does while every other buffer is busy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backpressure {
    /// Park until the host hands a buffer back: lossless.
    Block,
    /// Drop the record and count it: the bounded-buffer truncation
    /// contract with exact accounting.
    DropCount,
}

/// Result of one [`ChannelDev::push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// The record reached a flush buffer and will be drained.
    Delivered,
    /// The record was dropped under [`Backpressure::DropCount`] or after shutdown.
    Dropped,
}

/// Everything the two halves share.
struct State {
    /// The buffer producers append to. Full only while the pool is empty:
    /// the host hands it over as soon as it returns a buffer.
    filling: Vec<Record>,
    /// Handed-over buffers, drained by the host in order.
    full: VecDeque<Vec<Record>>,
    /// Empty buffers.
    free: Vec<Vec<Record>>,
    /// Buffers handed over, and buffers the host is done with: a flush
    /// waits for `drained` to reach the `handed` it saw.
    handed: u64,
    drained: u64,
    demanded: u64,
    delivered: u64,
    dropped: u64,
    /// Set by the receiver when the consumer panicked.
    consumer_failed: bool,
    shutdown: bool,
}

impl State {
    /// Moves `filling` onto the host's queue and puts an empty buffer from
    /// the pool in its place; false when the pool is empty.
    fn hand_over(&mut self) -> bool {
        let Some(empty) = self.free.pop() else { return false };
        self.full.push_back(std::mem::replace(&mut self.filling, empty));
        self.handed += 1;
        true
    }
}

struct Inner {
    state: Mutex<State>,
    cap: usize,
    policy: Backpressure,
    /// The host waits here for a handed-over buffer or shutdown.
    host_cv: Condvar,
    /// Blocked producers and flushers wait here for a returned buffer.
    prod_cv: Condvar,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

fn wait<'a>(cv: &Condvar, state: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
    cv.wait(state).unwrap_or_else(PoisonError::into_inner)
}

/// The producer half: cloneable, `Sync`, usable from any executor worker
/// thread.
#[derive(Clone)]
pub struct ChannelDev {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for ChannelDev {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelDev")
            .field("capacity", &self.inner.cap)
            .field("policy", &self.inner.policy)
            .finish()
    }
}

impl ChannelDev {
    /// Pushes one record. Blocks or drops on overflow per the channel's
    /// [`Backpressure`] policy.
    pub fn push(&self, tag: u64, payload: u64) -> PushOutcome {
        match self.push_row(tag, &[payload]) {
            1 => PushOutcome::Delivered,
            _ => PushOutcome::Dropped,
        }
    }

    /// Pushes `payloads` as consecutive records of stream `tag` — a warp's
    /// worth at once — and returns how many were delivered. Each round
    /// appends as many as the filling buffer has room for and hands it over
    /// once full; a row that straddles two buffers keeps its order, since
    /// the host drains them in order. On overflow [`Backpressure::Block`]
    /// parks as for one record; [`Backpressure::DropCount`] (and a
    /// shutdown) drops what is left of the row together, so the dropped
    /// records are always a suffix of it.
    pub fn push_row(&self, tag: u64, payloads: &[u64]) -> usize {
        let x = &*self.inner;
        let mut st = x.lock();
        st.demanded += payloads.len() as u64;
        let mut rest = payloads;
        while !rest.is_empty() && !st.shutdown {
            let room = x.cap - st.filling.len();
            if room == 0 {
                if x.policy == Backpressure::DropCount {
                    break;
                }
                obs::counter("chan.doorbell_stall", 1);
                st = wait(&x.prod_cv, st);
                continue;
            }
            let (row, later) = rest.split_at(room.min(rest.len()));
            st.filling.extend(row.iter().map(|&payload| Record { tag, payload }));
            rest = later;
            if st.filling.len() == x.cap && st.hand_over() {
                x.host_cv.notify_one();
            }
        }
        let lost = rest.len() as u64;
        if lost > 0 {
            st.dropped += lost;
            drop(st);
            obs::counter("chan.drop", lost);
        }
        payloads.len() - rest.len()
    }

    /// Quiesce barrier: hands every record pushed *before* this call to
    /// the consumer, including a partly filled buffer, and returns once the
    /// consumer has seen them. Callers must guarantee no concurrent pushes
    /// (the device calls this after all CTA workers of a launch have
    /// joined).
    pub fn flush(&self) {
        let x = &*self.inner;
        let mut st = x.lock();
        // A full buffer the host hands over itself when it returns one.
        while !st.filling.is_empty() && !st.shutdown && !st.hand_over() {
            st = wait(&x.prod_cv, st);
        }
        x.host_cv.notify_one();
        let target = st.handed;
        while st.drained < target && !st.shutdown {
            st = wait(&x.prod_cv, st);
        }
    }

    /// Total records producers tried to push.
    pub fn demanded(&self) -> u64 {
        self.inner.lock().demanded
    }

    /// Records dropped: under [`Backpressure::DropCount`], after shutdown,
    /// or since the consumer panicked.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// Records handed to the consumer callback.
    pub fn delivered(&self) -> u64 {
        self.inner.lock().delivered
    }
}

/// The consumer half: owns the receiver thread. Dropping it flushes,
/// stops the receiver and joins it.
pub struct ChannelHost {
    inner: Arc<Inner>,
    thread: Option<JoinHandle<()>>,
}

impl ChannelHost {
    /// Builds a channel with three `cap_records`-record flush buffers and
    /// spawns the receiver thread, which invokes `consumer` once per
    /// drained batch (in stream order: batches arrive in the order they
    /// filled, and records with equal tags in push order).
    pub fn spawn(
        cap_records: usize,
        policy: Backpressure,
        consumer: Consumer,
    ) -> (ChannelHost, ChannelDev) {
        let cap = cap_records.max(1);
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                filling: Vec::with_capacity(cap),
                full: VecDeque::with_capacity(3),
                free: (0..2).map(|_| Vec::with_capacity(cap)).collect(),
                handed: 0,
                drained: 0,
                demanded: 0,
                delivered: 0,
                dropped: 0,
                consumer_failed: false,
                shutdown: false,
            }),
            cap,
            policy,
            host_cv: Condvar::new(),
            prod_cv: Condvar::new(),
        });
        let dev = ChannelDev { inner: inner.clone() };
        let drain_inner = inner.clone();
        let recorder = obs::current();
        let thread = std::thread::Builder::new()
            .name("nvbit-chan-drain".into())
            .spawn(move || {
                let _obs = recorder.as_ref().map(obs::Recorder::enter);
                drain_loop(&drain_inner, consumer)
            })
            .expect("spawn channel receiver");
        (ChannelHost { inner, thread: Some(thread) }, dev)
    }

    /// Total records producers tried to push.
    pub fn demanded(&self) -> u64 {
        self.inner.lock().demanded
    }

    /// Records dropped: under [`Backpressure::DropCount`], after shutdown,
    /// or since the consumer panicked.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// Records handed to the consumer callback.
    pub fn delivered(&self) -> u64 {
        self.inner.lock().delivered
    }

    /// True once the consumer has panicked; that batch and everything
    /// drained since are counted in [`dropped`](Self::dropped).
    pub fn consumer_failed(&self) -> bool {
        self.inner.lock().consumer_failed
    }

    /// Flushes, stops the receiver thread and joins it. Every later push
    /// drops.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.inner.lock().shutdown = true;
        self.inner.host_cv.notify_all();
        self.inner.prod_cv.notify_all();
        if let Some(h) = self.thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ChannelHost {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl std::fmt::Debug for ChannelHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelHost")
            .field("capacity", &self.inner.cap)
            .field("policy", &self.inner.policy)
            .finish()
    }
}

/// The receiver thread: takes handed-over buffers in order, runs the
/// consumer on each outside the lock — or discards it, once the consumer
/// has panicked — and returns it empty to the pool. On shutdown it hands
/// over the partly filled buffer and drains it before it exits, so
/// shutdown is itself a flush.
fn drain_loop(x: &Inner, mut consumer: Consumer) {
    let mut st = x.lock();
    loop {
        let Some(mut batch) = st.full.pop_front() else {
            if !st.shutdown {
                st = wait(&x.host_cv, st);
            } else if st.filling.is_empty() || !st.hand_over() {
                return;
            }
            continue;
        };
        let n = batch.len() as u64;
        // Counted before the call: a producer polling `delivered` sees the
        // batch as soon as the host has taken it.
        let failed = st.consumer_failed;
        if failed {
            st.dropped += n;
        } else {
            st.delivered += n;
        }
        drop(st);
        let span = obs::span("chan.drain");
        obs::counter("chan.flush", 1);
        obs::counter("chan.records", n);
        obs::counter("chan.bytes", n * RECORD_BYTES);
        // A batch the consumer unwinds out of was not delivered either:
        // `delivered + dropped` accounts for every record.
        let panicked = !failed && catch_unwind(AssertUnwindSafe(|| consumer(&batch))).is_err();
        if failed || panicked {
            obs::counter("chan.drop", n);
        }
        drop(span);
        batch.clear();
        st = x.lock();
        if panicked {
            st.delivered -= n;
            st.dropped += n;
            st.consumer_failed = true;
        }
        st.drained += 1;
        st.free.push(batch);
        if st.filling.len() == x.cap {
            st.hand_over();
        }
        x.prod_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn collecting(
        cap: usize,
        policy: Backpressure,
    ) -> (ChannelHost, ChannelDev, Arc<Mutex<Vec<Record>>>) {
        let store = Arc::new(Mutex::new(Vec::new()));
        let sink = store.clone();
        let (host, dev) = ChannelHost::spawn(
            cap,
            policy,
            Box::new(move |batch| sink.lock().unwrap().extend_from_slice(batch)),
        );
        (host, dev, store)
    }

    #[test]
    fn delivers_in_order_through_many_flips() {
        let (host, dev, store) = collecting(4, Backpressure::Block);
        for i in 0..100u64 {
            assert_eq!(dev.push(7, i), PushOutcome::Delivered);
        }
        dev.flush();
        let got = store.lock().unwrap().clone();
        assert_eq!(got.len(), 100);
        for (i, r) in got.iter().enumerate() {
            assert_eq!((r.tag, r.payload), (7, i as u64));
        }
        assert_eq!(host.demanded(), 100);
        assert_eq!(host.delivered(), 100);
        assert_eq!(host.dropped(), 0);
        host.shutdown();
    }

    #[test]
    fn partial_flush_then_refill_keeps_every_record() {
        let (host, dev, store) = collecting(8, Backpressure::Block);
        for i in 0..3u64 {
            dev.push(0, i);
        }
        dev.flush();
        assert_eq!(store.lock().unwrap().len(), 3);
        // The flush handed the partial buffer over and swapped in an empty
        // one; nothing is lost or duplicated.
        for i in 3..20u64 {
            dev.push(0, i);
        }
        dev.flush();
        let got = store.lock().unwrap().clone();
        assert_eq!(got.len(), 20);
        for (i, r) in got.iter().enumerate() {
            assert_eq!(r.payload, i as u64);
        }
        host.shutdown();
    }

    /// A consumer stuck on its first batch freezes the drain, so exactly
    /// `3 * cap` records fit (the buffer in the consumer's hands, one in
    /// the queue and the full filling buffer); every later push must drop —
    /// deterministically, not racily.
    #[test]
    fn dropcount_reports_exact_drops_with_a_stuck_consumer() {
        let cap = 4usize;
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let gate_rx = Mutex::new(gate_rx);
        let store = Arc::new(Mutex::new(Vec::new()));
        let sink = store.clone();
        let mut first = true;
        let (host, dev) = ChannelHost::spawn(
            cap,
            Backpressure::DropCount,
            Box::new(move |batch| {
                if first {
                    first = false;
                    gate_rx.lock().unwrap().recv().unwrap();
                }
                sink.lock().unwrap().extend_from_slice(batch);
            }),
        );
        let total = 100u64;
        let mut delivered = 4u64;
        for i in 0..4u64 {
            assert_eq!(dev.push(1, i), PushOutcome::Delivered);
        }
        // Wait until the receiver has taken the first buffer (it bumps
        // `delivered` before entering the stuck consumer), so the fill
        // sequence below is deterministic.
        while dev.delivered() < 4 {
            std::thread::yield_now();
        }
        for i in 4..total {
            if dev.push(1, i) == PushOutcome::Delivered {
                delivered += 1;
            }
        }
        assert_eq!(delivered, 3 * cap as u64, "exactly three buffers' worth fit");
        assert_eq!(dev.dropped(), total - delivered);
        gate_tx.send(()).unwrap();
        dev.flush();
        assert_eq!(dev.delivered() + dev.dropped(), dev.demanded());
        assert_eq!(store.lock().unwrap().len(), delivered as usize);
        host.shutdown();
    }

    #[test]
    fn block_policy_is_lossless_under_a_slow_consumer() {
        let store = Arc::new(Mutex::new(Vec::new()));
        let sink = store.clone();
        let (host, dev) = ChannelHost::spawn(
            2,
            Backpressure::Block,
            Box::new(move |batch| {
                std::thread::sleep(std::time::Duration::from_micros(50));
                sink.lock().unwrap().extend_from_slice(batch);
            }),
        );
        for i in 0..200u64 {
            assert_eq!(dev.push(0, i), PushOutcome::Delivered);
        }
        dev.flush();
        assert_eq!(host.dropped(), 0);
        assert_eq!(host.delivered(), 200);
        let got = store.lock().unwrap().clone();
        assert_eq!(got.iter().map(|r| r.payload).collect::<Vec<_>>(), (0..200).collect::<Vec<_>>());
        host.shutdown();
    }

    #[test]
    fn concurrent_streams_each_keep_push_order() {
        let (host, dev, store) = collecting(8, Backpressure::Block);
        let threads = 4u64;
        let per = 500u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let dev = dev.clone();
                s.spawn(move || {
                    for i in 0..per {
                        assert_eq!(dev.push(t, i), PushOutcome::Delivered);
                    }
                });
            }
        });
        dev.flush();
        let got = store.lock().unwrap().clone();
        assert_eq!(got.len(), (threads * per) as usize);
        for t in 0..threads {
            let stream: Vec<u64> = got.iter().filter(|r| r.tag == t).map(|r| r.payload).collect();
            assert_eq!(stream, (0..per).collect::<Vec<_>>(), "stream {t} out of order");
        }
        assert_eq!(host.delivered(), threads * per);
        host.shutdown();
    }

    /// Rows under `Block` against an 8-record buffer: rows of 8 fill a
    /// buffer exactly with one append, rows of 5 straddle two buffers every
    /// other push, and a row of 20 overflows every buffer and parks until
    /// the host hands one back. Nothing is lost and the stream keeps push
    /// order, across every straddle.
    #[test]
    fn rows_that_fill_straddle_and_overflow_the_buffers_keep_their_order() {
        for row_len in [8usize, 5, 20] {
            let (host, dev, store) = collecting(8, Backpressure::Block);
            let rows: Vec<Vec<u64>> =
                (0..12).map(|r| (0..row_len as u64).map(|i| 100 * r + i).collect()).collect();
            for row in &rows {
                assert_eq!(dev.push_row(3, row), row_len, "rows of {row_len}");
            }
            dev.flush();
            let got: Vec<u64> = store.lock().unwrap().iter().map(|r| r.payload).collect();
            assert_eq!(got, rows.concat(), "rows of {row_len}");
            assert!(store.lock().unwrap().iter().all(|r| r.tag == 3));
            assert_eq!((host.demanded(), host.dropped()), (12 * row_len as u64, 0));
            assert_eq!(host.delivered(), host.demanded());
            host.shutdown();
        }
    }

    /// Rows under `DropCount` with the drain frozen (as in
    /// `dropcount_reports_exact_drops_with_a_stuck_consumer`, eight more
    /// records fit): a row of 5 straddles into the last free buffer, the
    /// next delivers the 3 that fit and drops its last 2 together, the
    /// third finds every buffer busy and drops whole. What is dropped is
    /// always a suffix of its row.
    #[test]
    fn dropcount_drops_the_rest_of_a_row_together() {
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let gate_rx = Mutex::new(gate_rx);
        let store = Arc::new(Mutex::new(Vec::new()));
        let sink = store.clone();
        let mut first = true;
        let (host, dev) = ChannelHost::spawn(
            4,
            Backpressure::DropCount,
            Box::new(move |batch| {
                if first {
                    first = false;
                    gate_rx.lock().unwrap().recv().unwrap();
                }
                sink.lock().unwrap().extend_from_slice(batch);
            }),
        );
        assert_eq!(dev.push_row(1, &[0, 1, 2, 3]), 4, "exactly fills the first buffer");
        while dev.delivered() < 4 {
            std::thread::yield_now();
        }
        assert_eq!(dev.push_row(1, &[10, 11, 12, 13, 14]), 5);
        assert_eq!(dev.push_row(1, &[20, 21, 22, 23, 24]), 3);
        assert_eq!(dev.push_row(1, &[30, 31, 32, 33, 34]), 0);
        assert_eq!(dev.push(1, 40), PushOutcome::Dropped);
        assert_eq!(dev.dropped(), 2 + 5 + 1);
        gate_tx.send(()).unwrap();
        dev.flush();
        assert_eq!(dev.demanded(), 20);
        assert_eq!(dev.delivered() + dev.dropped(), dev.demanded());
        let got: Vec<u64> = store.lock().unwrap().iter().map(|r| r.payload).collect();
        assert_eq!(got, [0, 1, 2, 3, 10, 11, 12, 13, 14, 20, 21, 22]);
        host.shutdown();
    }

    /// Concurrent rows from several streams: every stream keeps its order
    /// and `DropCount` accounting stays exact with multi-slot claims.
    #[test]
    fn concurrent_rows_keep_stream_order_and_exact_accounting() {
        for policy in [Backpressure::Block, Backpressure::DropCount] {
            let (host, dev, store) = collecting(8, policy);
            std::thread::scope(|s| {
                for t in 0..4u64 {
                    let dev = dev.clone();
                    s.spawn(move || {
                        for r in 0..300u64 {
                            let row: Vec<u64> = (0..1 + (r + t) % 7).map(|i| 8 * r + i).collect();
                            dev.push_row(t, &row);
                        }
                    });
                }
            });
            dev.flush();
            assert_eq!(host.delivered() + host.dropped(), host.demanded(), "{policy:?}");
            assert_eq!(store.lock().unwrap().len() as u64, host.delivered(), "{policy:?}");
            if policy == Backpressure::Block {
                assert_eq!(host.dropped(), 0);
            }
            for t in 0..4u64 {
                let got = store.lock().unwrap().clone();
                let stream: Vec<u64> =
                    got.iter().filter(|r| r.tag == t).map(|r| r.payload).collect();
                assert!(stream.windows(2).all(|w| w[0] < w[1]), "{policy:?}: stream {t}");
            }
            host.shutdown();
        }
    }

    #[test]
    fn flush_on_an_empty_channel_returns() {
        let (host, dev, store) = collecting(4, Backpressure::Block);
        dev.flush();
        dev.flush();
        assert!(store.lock().unwrap().is_empty());
        assert_eq!(host.demanded(), 0);
        host.shutdown();
    }

    #[test]
    fn accounting_is_exact_under_contention() {
        let (host, dev, _store) = collecting(8, Backpressure::DropCount);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let dev = dev.clone();
                s.spawn(move || {
                    for i in 0..2000u64 {
                        dev.push(t, i);
                    }
                });
            }
        });
        dev.flush();
        assert_eq!(host.demanded(), 8000);
        assert_eq!(host.delivered() + host.dropped(), host.demanded());
        host.shutdown();
    }

    /// Nobody drains after shutdown, so a push then drops and counts its
    /// records under both policies, and the identity still holds.
    #[test]
    fn a_push_after_shutdown_drops_and_is_counted() {
        for policy in [Backpressure::Block, Backpressure::DropCount] {
            let (host, dev, store) = collecting(4, policy);
            assert_eq!(dev.push(0, 1), PushOutcome::Delivered);
            host.shutdown();
            assert_eq!(dev.push_row(0, &[1, 2, 3]), 0, "{policy:?}");
            assert_eq!(dev.push(0, 4), PushOutcome::Dropped, "{policy:?}");
            dev.flush();
            assert_eq!((dev.demanded(), dev.delivered(), dev.dropped()), (5, 1, 4), "{policy:?}");
            assert_eq!(store.lock().unwrap().len(), 1, "{policy:?}");
        }
    }
}
