//! A host-side, trace-driven set-associative cache simulator.
//!
//! The paper notes that "entire cache simulators can be built around these
//! mechanisms" (§6.1): [`crate::MemTrace`] captures the address stream and
//! this module replays it through an LRU cache model — either offline
//! ([`CacheSim::replay`] over a finished trace) or online
//! ([`ChannelCacheSim`]), where the streaming channel's drain thread
//! feeds each record into the model *while the kernel runs*, so the
//! full trace never has to be materialised.

use crate::mem_trace::TraceChannel;
use common::channel::Backpressure;
use cuda::{CbId, CbParams};
use nvbit::{NvbitApi, NvbitTool};
use std::sync::{Arc, Mutex};

/// Cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Line size in bytes (power of two).
    pub line: u64,
    /// Associativity (ways per set).
    pub ways: u32,
}

impl CacheConfig {
    /// A 128 KiB, 4-way, 128 B-line L1-style cache.
    pub fn l1() -> CacheConfig {
        CacheConfig { capacity: 128 * 1024, line: 128, ways: 4 }
    }

    /// A 4 MiB, 16-way L2-style cache.
    pub fn l2() -> CacheConfig {
        CacheConfig { capacity: 4 * 1024 * 1024, line: 128, ways: 16 }
    }

    fn sets(&self) -> u64 {
        (self.capacity / self.line / self.ways as u64).max(1)
    }
}

/// Replay results.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheSimResults {
    /// Accesses replayed.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Misses.
    pub misses: u64,
}

impl CacheSimResults {
    /// Hit rate in [0, 1].
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// An LRU set-associative cache model.
#[derive(Debug)]
pub struct CacheSim {
    config: CacheConfig,
    /// Per set: tags in LRU order (front = most recent).
    sets: Vec<Vec<u64>>,
    results: CacheSimResults,
}

impl CacheSim {
    /// Creates a cache.
    pub fn new(config: CacheConfig) -> CacheSim {
        CacheSim {
            config,
            sets: vec![Vec::new(); config.sets() as usize],
            results: CacheSimResults::default(),
        }
    }

    /// Replays one access; returns `true` on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.config.line;
        let set = (line % self.config.sets()) as usize;
        let ways = self.config.ways as usize;
        self.results.accesses += 1;
        let entries = &mut self.sets[set];
        if let Some(pos) = entries.iter().position(|t| *t == line) {
            entries.remove(pos);
            entries.insert(0, line);
            self.results.hits += 1;
            true
        } else {
            entries.insert(0, line);
            entries.truncate(ways);
            self.results.misses += 1;
            false
        }
    }

    /// Replays a full trace.
    pub fn replay(&mut self, addrs: &[u64]) -> &CacheSimResults {
        for &a in addrs {
            self.access(a);
        }
        &self.results
    }

    /// The accumulated results.
    pub fn results(&self) -> &CacheSimResults {
        &self.results
    }
}

/// The online cache-simulation tool: instruments every global memory
/// access to `chan.push` its effective address, and accumulates
/// hits/misses in the channel's host drain thread as records arrive —
/// the paper §6.1 receiver pattern. It is [`crate::MemTrace`]'s transport
/// with a cache model as the drain consumer, and uses
/// [`Backpressure::Block`] so the simulated counts cover every access.
///
/// Records are simulated in delivery order. With one CTA (one
/// producer) that is program order; with parallel CTAs the interleave
/// between CTAs follows drain timing, mirroring how a real streaming
/// receiver observes concurrent warps.
pub struct ChannelCacheSim {
    chan: TraceChannel,
}

impl ChannelCacheSim {
    /// Creates the tool with the given cache geometry and channel
    /// flush-buffer capacity. The returned handle exposes the live
    /// model; read final results after `Driver::shutdown`.
    pub fn new(config: CacheConfig, buf_records: usize) -> (ChannelCacheSim, Arc<Mutex<CacheSim>>) {
        let sim = Arc::new(Mutex::new(CacheSim::new(config)));
        let model = sim.clone();
        let chan = TraceChannel::new(
            Backpressure::Block,
            buf_records,
            Box::new(move |batch| {
                let mut model = model.lock().unwrap();
                for r in batch {
                    model.access(r.payload);
                }
            }),
        );
        (ChannelCacheSim { chan }, sim)
    }
}

impl NvbitTool for ChannelCacheSim {
    fn at_init(&mut self, api: &NvbitApi<'_>) {
        self.chan.at_init(api);
    }

    fn at_term(&mut self, api: &NvbitApi<'_>) {
        self.chan.at_term(api);
    }

    fn at_cuda_event(
        &mut self,
        api: &NvbitApi<'_>,
        is_exit: bool,
        cbid: CbId,
        params: &CbParams<'_>,
    ) {
        let CbParams::LaunchKernel { func, .. } = params else { return };
        if cbid == CbId::LaunchKernel && !is_exit {
            if let Some(sites) = self.chan.instrument(api, *func) {
                common::obs::counter("tool.cache_sim.sites", sites);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_accesses_hit() {
        let mut c = CacheSim::new(CacheConfig::l1());
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1040), "same 128B line");
        assert_eq!(c.results().misses, 1);
        assert_eq!(c.results().hits, 2);
    }

    #[test]
    fn conflict_evictions_follow_lru() {
        // 2-way tiny cache: 2 sets of 2 ways with 128B lines.
        let cfg = CacheConfig { capacity: 512, line: 128, ways: 2 };
        let mut c = CacheSim::new(cfg);
        // Three distinct lines mapping to set 0: 0, 2*128, 4*128.
        assert!(!c.access(0));
        assert!(!c.access(256));
        assert!(c.access(0)); // still resident
        assert!(!c.access(512)); // evicts 256 (LRU)
        assert!(c.access(0));
        assert!(!c.access(256));
    }

    #[test]
    fn streaming_pattern_misses_then_sequential_rereads_hit() {
        let mut c = CacheSim::new(CacheConfig::l1());
        let trace: Vec<u64> = (0..1000u64).map(|i| i * 4).collect();
        c.replay(&trace);
        // 1000 word accesses over 128B lines: 32 per line => high hit rate.
        assert!(c.results().hit_rate() > 0.95);
    }

    #[test]
    fn end_to_end_with_mem_trace() {
        use cuda::{Driver, FatBinary, KernelArg};
        use gpu::{DeviceSpec, Dim3};
        use nvbit::attach_tool;
        use sass::Arch;

        const APP: &str = r#"
.entry k(.param .u64 buf)
{
    .reg .u32 %r<4>;
    .reg .u64 %rd<4>;
    ld.param.u64 %rd1, [buf];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd2, %r1, 4;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.u32 %r2, [%rd3];
    ld.global.u32 %r2, [%rd3];
    exit;
}
"#;
        let drv = Driver::new(DeviceSpec::test(Arch::Volta));
        let (tool, trace) = crate::MemTrace::channel(Backpressure::Block, 8192);
        attach_tool(&drv, tool);
        let ctx = drv.ctx_create().unwrap();
        let m = drv.module_load(&ctx, FatBinary::from_ptx("app", APP)).unwrap();
        let f = drv.module_get_function(&m, "k").unwrap();
        let buf = drv.mem_alloc(1024).unwrap();
        drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(32), &[KernelArg::Ptr(buf)]).unwrap();
        drv.shutdown();

        let mut cache = CacheSim::new(CacheConfig::l1());
        cache.replay(&trace.addresses());
        // 64 accesses over a single 128B line region: only the very first
        // access misses.
        assert_eq!(cache.results().accesses, 64);
        assert!(cache.results().hit_rate() > 0.95);
    }

    /// The online receiver matches the offline replay: one CTA pushes
    /// in program order, so simulating in delivery order gives the
    /// same counts the trace-then-replay path does — without ever
    /// materialising the trace (the 8-record buffer is 8× smaller
    /// than the access stream).
    #[test]
    fn online_channel_sim_matches_offline_replay() {
        use cuda::{Driver, FatBinary, KernelArg};
        use gpu::{DeviceSpec, Dim3};
        use nvbit::attach_tool;
        use sass::Arch;

        const APP: &str = r#"
.entry k(.param .u64 buf)
{
    .reg .u32 %r<4>;
    .reg .u64 %rd<4>;
    ld.param.u64 %rd1, [buf];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd2, %r1, 4;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.u32 %r2, [%rd3];
    ld.global.u32 %r2, [%rd3];
    exit;
}
"#;
        let drv = Driver::new(DeviceSpec::test(Arch::Volta));
        let (tool, sim) = ChannelCacheSim::new(CacheConfig::l1(), 8);
        attach_tool(&drv, tool);
        let ctx = drv.ctx_create().unwrap();
        let m = drv.module_load(&ctx, FatBinary::from_ptx("app", APP)).unwrap();
        let f = drv.module_get_function(&m, "k").unwrap();
        let buf = drv.mem_alloc(1024).unwrap();
        drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(32), &[KernelArg::Ptr(buf)]).unwrap();
        drv.shutdown();

        let sim = sim.lock().unwrap();
        assert_eq!(sim.results().accesses, 64, "every access simulated online");
        assert!(sim.results().hit_rate() > 0.95);
    }
}
