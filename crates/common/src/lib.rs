//! The std-only engine layer shared by every crate in the workspace.
//!
//! This crate exists so the whole stack builds with `CARGO_NET_OFFLINE=true`
//! and an empty registry cache: it provides in-tree, dependency-free
//! replacements for the external crates the workspace used to pull in.
//!
//! * [`rng`] — a seeded SplitMix64/xoshiro256** PRNG covering the `rand`
//!   surface the workloads and tests actually use (`seed_from_u64`,
//!   `gen_range`, `shuffle`);
//! * [`prop`] — a shrink-free randomized property-test harness replacing
//!   `proptest` (deterministic per-case seeds, reproducible via
//!   `NVBIT_PROP_SEED`);
//! * [`json`] — a minimal JSON value type with parser and printer, replacing
//!   the `serde` derives (device specs round-trip through it);
//! * [`obs`] — the pipeline observability layer: a recorder each context
//!   owns, bound per thread by scope; span guards and named counters that
//!   aggregate as they record, with JSON and Chrome-trace export (off by
//!   default; one thread-local load and a branch per hook when disabled);
//! * [`channel`] — the streaming GPU→host tool channel: three flush
//!   buffers passed by ownership under one lock, dedicated receiver
//!   thread, `Block`/`DropCount` backpressure;
//! * [`hash`] — a multiplicative hasher for short keys whose collisions
//!   cost only their author (a PTX module's names);
//! * [`graph`] — Cooper–Harvey–Kennedy immediate dominators and
//!   post-dominators over flat successor lists, shared by `ptx::cfg` and
//!   `sass::dom`;
//! * [`InlineVec`] — a fixed-capacity list stored inline (the operands of
//!   a `sass::Instruction`, its register lists);
//! * [`Dim3`] — the single definition of a 3-component launch dimension,
//!   re-exported by the `gpu` and `driver` crates.

#![warn(missing_docs)]

pub mod channel;
pub mod dim3;
pub mod graph;
pub mod hash;
pub mod inline;
pub mod json;
pub mod obs;
pub mod prop;
pub mod rng;

pub use dim3::Dim3;
pub use inline::InlineVec;
pub use rng::Rng;
