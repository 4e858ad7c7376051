//! The device: memory, decoded code pages and launch orchestration.

use crate::executor::{CodeCache, ExecEnv, LaunchState, WARP};
use crate::mem::{Memory, SharedMem};
use crate::spec::{DeviceSpec, Dim3};
use crate::stats::LaunchStats;
use crate::{GpuError, Result};
use sass::PARAM_BASE;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Code-region labels: start address → (end address, name, and for a relocated
/// body its function's address and each word's [`Origin`]). Purely diagnostic
/// — the executor uses them to say *which function* a fault landed in.
pub(crate) type CodeLabels = BTreeMap<u64, (u64, String, Option<(u64, Vec<Origin>)>)>;

/// Where one word of a relocated body comes from (see [`Device::label_body`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// Instruction `i` of the function, relocated.
    Relocated(u32),
    /// Code the site of instruction `site` injected, for the tool function at
    /// address `tool` (`None`: the site's own code).
    Injected { site: u32, tool: Option<std::num::NonZeroU64> },
}

/// A kernel launch description.
#[derive(Debug, Clone)]
pub struct LaunchConfig {
    /// Device address of the kernel's first instruction.
    pub entry_pc: u64,
    /// Grid dimensions (CTAs).
    pub grid: Dim3,
    /// Block dimensions (threads).
    pub block: Dim3,
    /// Constant bank 0 contents. [`LaunchConfig::push_param_u32`] and
    /// friends append kernel parameters at [`PARAM_BASE`]. Banks 1–3 are
    /// empty: every read of them is out of bounds.
    pub cbank0: Vec<u8>,
    /// Static shared memory bytes per CTA.
    pub shared_size: u32,
    /// Per-thread local-memory bytes (0 = the device default). NVBit's code
    /// loader raises this to make room for register save areas.
    pub local_size: u32,
}

impl LaunchConfig {
    /// Creates a launch with an empty parameter area.
    pub fn new(entry_pc: u64, grid: Dim3, block: Dim3) -> LaunchConfig {
        LaunchConfig::with_params(entry_pc, grid, block, 0)
    }

    /// Creates a launch whose parameter area is `size` zero bytes, allocated
    /// once at that size for [`write_param_bytes`](Self::write_param_bytes)
    /// to fill.
    pub fn with_params(entry_pc: u64, grid: Dim3, block: Dim3, size: u32) -> LaunchConfig {
        let cbank0 = vec![0; usize::from(PARAM_BASE) + size as usize];
        LaunchConfig { entry_pc, grid, block, cbank0, shared_size: 0, local_size: 0 }
    }

    fn pad_to(&mut self, align: usize) {
        while !(self.cbank0.len() - usize::from(PARAM_BASE)).is_multiple_of(align) {
            self.cbank0.push(0);
        }
    }

    /// Appends a 32-bit parameter, returning its byte offset within the
    /// parameter area.
    pub fn push_param_u32(&mut self, v: u32) -> u32 {
        self.pad_to(4);
        let off = self.cbank0.len() - usize::from(PARAM_BASE);
        self.cbank0.extend_from_slice(&v.to_le_bytes());
        off as u32
    }

    /// Appends a 64-bit parameter (8-byte aligned).
    pub fn push_param_u64(&mut self, v: u64) -> u32 {
        self.pad_to(8);
        let off = self.cbank0.len() - usize::from(PARAM_BASE);
        self.cbank0.extend_from_slice(&v.to_le_bytes());
        off as u32
    }

    /// Writes raw parameter bytes at a specific offset (used by the driver's
    /// generic launch path), growing the area if they end past it.
    pub fn write_param_bytes(&mut self, offset: u32, bytes: &[u8]) {
        let start = usize::from(PARAM_BASE) + offset as usize;
        if self.cbank0.len() < start + bytes.len() {
            self.cbank0.resize(start + bytes.len(), 0);
        }
        self.cbank0[start..start + bytes.len()].copy_from_slice(bytes);
    }
}

/// How CTAs of a launch are mapped onto host threads.
///
/// For a launch that completes without faulting, every scheduler produces
/// **bit-identical** statistics, both decode counters included: per-CTA
/// state (registers, shared and local memory, statistics) is owned by the
/// worker and its integer counters sum the same in any order, and the one shared
/// structure, the decoded code pages, fills each slot exactly once whoever
/// gets there first. Final device memory is also bit-identical
/// whenever the kernel is race-free across CTAs and its cross-CTA atomics
/// are commutative with unobserved results — true of every shipped
/// workload. The CTA schedule *is* observable through atomics, though:
/// `ATOM` returns the location's old value into a destination register,
/// and `EXCH`/`CAS` are non-commutative, so a kernel that stores an
/// atomic's return value (the atomicAdd unique-index idiom) or exchanges
/// through memory sees CTA completion order — run-to-run nondeterministic
/// under [`Scheduler::Parallel`], CTA-linear under [`Scheduler::Serial`].
/// Use `Serial` when reproducibility of such kernels matters more than
/// speed. After a *faulting* launch, device memory and the decode counters
/// of later launches are unspecified under `Parallel`: CTAs above the first
/// faulting index may already have run, and while the launch returns no
/// statistics, their global-memory writes are not rolled back and the code
/// pages they decoded stay decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduler {
    /// One CTA at a time, in CTA-linear order, on the calling thread.
    Serial,
    /// CTAs distributed over a pool of scoped worker threads.
    Parallel {
        /// Worker count; `0` means one per available hardware thread.
        threads: usize,
    },
}

impl Default for Scheduler {
    fn default() -> Scheduler {
        Scheduler::Parallel { threads: 0 }
    }
}

impl Scheduler {
    fn workers(self) -> usize {
        match self {
            Scheduler::Serial => 1,
            Scheduler::Parallel { threads: 0 } => {
                std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
            }
            Scheduler::Parallel { threads } => threads,
        }
    }
}

/// A simulated GPU device.
pub struct Device {
    spec: DeviceSpec,
    mem: Memory,
    code: CodeCache,
    /// CTA-to-host-thread mapping; see [`Scheduler`] for the exact
    /// determinism contract.
    pub scheduler: Scheduler,
    launches: u64,
    labels: CodeLabels,
    /// Producer half of the attached tool record channel; injected tool
    /// code reaches it through the executor's `CHAN` instruction.
    channel: Option<common::channel::ChannelDev>,
    /// One CTA worker state per worker of the last launch, kept for the
    /// next one (DESIGN.md "Per-worker launch state").
    states: Vec<LaunchState>,
}

impl Device {
    /// Creates a device from a specification.
    pub fn new(spec: DeviceSpec) -> Device {
        let mem = Memory::new(spec.global_mem);
        Device {
            spec,
            mem,
            code: CodeCache::default(),
            scheduler: Scheduler::default(),
            launches: 0,
            labels: CodeLabels::new(),
            channel: None,
            states: Vec::new(),
        }
    }

    /// Attaches the producer half of a tool record channel: until
    /// [`Device::detach_channel`], every `CHAN` instruction pushes to it,
    /// and each launch ends with a channel flush (the kernel-completion
    /// barrier drains even a partially filled device buffer).
    pub fn attach_channel(&mut self, chan: common::channel::ChannelDev) {
        self.channel = Some(chan);
    }

    /// Detaches the channel, returning it; subsequent `CHAN` instructions
    /// fault.
    pub fn detach_channel(&mut self) -> Option<common::channel::ChannelDev> {
        self.channel.take()
    }

    /// The attached channel, if any.
    pub fn channel(&self) -> Option<&common::channel::ChannelDev> {
        self.channel.as_ref()
    }

    /// Names the code region `[addr, addr + len)` for fault diagnostics:
    /// an execution fault whose pc falls inside a labelled region reports
    /// the label and the instruction index within it. Re-labelling an
    /// address replaces the previous label; a zero-length label is ignored.
    pub fn label_code(&mut self, addr: u64, len: u64, name: &str) {
        if len > 0 {
            self.labels.insert(addr, (addr + len, name.to_string(), None));
        }
    }

    /// Labels the relocated body of function `name` at `of`, a word per entry
    /// of `origin`: a fault in a relocated instruction reads as the function's
    /// own, at its own pc; one in injected code names its site and tool.
    pub fn label_body(&mut self, addr: u64, name: &str, of: u64, origin: Vec<Origin>) {
        let end = addr + origin.len() as u64 * self.spec.arch.instruction_size() as u64;
        self.labels.insert(addr, (end, name.to_string(), Some((of, origin))));
    }

    /// The device specification.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Direct access to device memory (host-side "PCIe" view).
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Allocates device memory.
    ///
    /// # Errors
    ///
    /// [`GpuError::OutOfMemory`].
    pub fn alloc(&mut self, len: u64) -> Result<u64> {
        self.mem.alloc(len)
    }

    /// Frees device memory, and with it the allocation's code label and
    /// decoded code pages.
    ///
    /// # Errors
    ///
    /// [`GpuError::BadAddress`] for an unknown allocation.
    pub fn free(&mut self, addr: u64) -> Result<()> {
        self.labels.remove(&addr);
        let len = self.mem.free(addr)?;
        let pages = self.code.pages.get_mut().expect("no worker panics holding it");
        pages.retain(|base, _| !(addr..addr + len).contains(base));
        Ok(())
    }

    /// Number of code pages currently held decoded (leak accounting, like
    /// [`Memory::live_allocs`]).
    pub fn decoded_pages(&self) -> usize {
        self.code.pages.read().expect("no worker panics holding it").len()
    }

    /// Copies host bytes to the device.
    ///
    /// # Errors
    ///
    /// [`GpuError::BadAddress`].
    pub fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<()> {
        self.mem.write(addr, bytes)
    }

    /// Copies device bytes to the host.
    ///
    /// # Errors
    ///
    /// [`GpuError::BadAddress`].
    pub fn read(&self, addr: u64, out: &mut [u8]) -> Result<()> {
        self.mem.read(addr, out)
    }

    /// Launches a kernel and runs it to completion.
    ///
    /// Warps round-robin inside each CTA; CTAs run serially or on a worker
    /// pool per [`Device::scheduler`]. Every CTA owns its statistics and
    /// shared/local memories, and the per-CTA counters sum per worker and
    /// then across workers once all CTAs retire, so a non-faulting launch reports the
    /// same statistics under every scheduler; see [`Scheduler`] for what
    /// that guarantee does and does not cover (observable atomics,
    /// post-fault memory).
    ///
    /// Code is fetched through decoded code pages that are compared with
    /// memory on their first touch in each launch: whatever wrote the code
    /// (host write, code swap, a guest store) is seen from the next launch
    /// on. `decode_misses` counts the instruction slots this launch
    /// decoded, `decode_hits` every other executed warp instruction.
    ///
    /// # Errors
    ///
    /// [`GpuError::BadLaunch`] for invalid configurations and
    /// [`GpuError::Fault`] for execution faults. When several CTAs fault,
    /// the fault of the lowest CTA-linear index is reported, matching
    /// serial execution; device memory after a fault is unspecified under
    /// [`Scheduler::Parallel`].
    pub fn launch(&mut self, cfg: &LaunchConfig) -> Result<LaunchStats> {
        let block_threads = cfg.block.count();
        if block_threads == 0 || block_threads > 1024 {
            return Err(GpuError::BadLaunch(format!(
                "block size {block_threads} outside 1..=1024"
            )));
        }
        let cta_count = cfg.grid.count();
        if cta_count == 0 {
            return Err(GpuError::BadLaunch("empty grid".into()));
        }
        if cfg.shared_size > self.spec.shared_per_cta {
            return Err(GpuError::BadLaunch(format!(
                "shared size {} exceeds the per-CTA capacity {}",
                cfg.shared_size, self.spec.shared_per_cta
            )));
        }
        let local_size = if cfg.local_size == 0 { self.spec.default_local } else { cfg.local_size };

        self.launches += 1;
        let launch_id = self.launches;
        self.code.launch = launch_id;
        let shared = self.mem.shared_view();

        // Scheduler observability: the workers enter the launching thread's
        // recorder, so `cta` spans land in one lane per worker, and the
        // queue-wait counter records how long each CTA sat between launch
        // start and being claimed.
        let recorder = common::obs::current();
        let exec_span = common::obs::span("execute");
        let exec_t0 = recorder.as_ref().map(|_| std::time::Instant::now());

        let labels = &self.labels;
        let chan = self.channel.as_ref();
        let run_one = |state: &mut LaunchState, cta_linear: u64| -> Result<LaunchStats> {
            if let Some(t0) = exec_t0 {
                common::obs::counter("cta.queue_wait_ns", t0.elapsed().as_nanos() as u64);
            }
            let _cta_span = common::obs::span("cta");
            run_cta(
                &self.spec, &shared, &self.code, cfg, labels, launch_id, chan, state, cta_linear,
            )
        };

        // One worker loop: CTA indices are handed out in increasing order,
        // so by the time any CTA faults, every lower index has already been
        // claimed and will produce a result. Each worker returns its own
        // `(index, result)` list. Their states are out of the device while
        // they run: a panic drops them rather than leave them half reset.
        let workers = self.scheduler.workers().max(1).min(cta_count as usize);
        let mut states = std::mem::take(&mut self.states);
        states.resize_with(workers, LaunchState::default);
        let next = AtomicU64::new(0);
        let failed = AtomicBool::new(false);
        let work = |state: &mut LaunchState| {
            state.reshape(block_threads as u32, local_size, cfg.shared_size);
            let (mut sum, mut fault) = (LaunchStats::default(), None);
            while !failed.load(Ordering::Relaxed) {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= cta_count {
                    break;
                }
                match run_one(state, i) {
                    Ok(s) => sum.add(&s),
                    Err(e) => {
                        failed.store(true, Ordering::Relaxed);
                        fault = Some((i, e));
                    }
                }
            }
            // A page is validated per launch: the next one starts with none.
            state.pages.clear();
            (sum, fault)
        };
        let (mut stats, fault) = if workers <= 1 {
            work(&mut states[0])
        } else {
            let worker = |state| {
                let _obs = recorder.as_ref().map(common::obs::Recorder::enter);
                work(state)
            };
            std::thread::scope(|s| {
                let spawned: Vec<_> = states.iter_mut().map(|st| s.spawn(|| worker(st))).collect();
                let joined = spawned.into_iter().map(|h| h.join());
                let sums = joined.map(|r| r.unwrap_or_else(|e| std::panic::resume_unwind(e)));
                sums.fold((LaunchStats::default(), None), |(mut stats, first), (sum, fault)| {
                    stats.add(&sum);
                    (stats, first.into_iter().chain(fault).min_by_key(|f: &(u64, _)| f.0))
                })
            })
        };
        self.states = states;
        drop(exec_span);

        // Kernel-completion barrier: every CTA worker has joined, so the
        // channel flush drains even a partially filled flush buffer and
        // returns once the host consumer has seen every record the launch
        // produced.
        if let Some(chan) = chan {
            let _wait = common::obs::span("chan.flush_wait");
            chan.flush();
        }

        // Each worker summed the CTAs it ran and stopped at its first fault;
        // the launch reports the fault of the lowest CTA index, and every CTA
        // below it was claimed and ran to completion. Integer sums do not
        // depend on the order they are taken in, and a faulting launch
        // returns no statistics.
        let merge_span = common::obs::span("merge");
        stats.warp_instructions = stats.ops().map(|(_, n)| n).sum();
        // Every step fetched one slot; the steps that filled theirs are the
        // misses. (Only CTAs that ran to completion are summed, and those
        // recorded every step that counted a miss.)
        stats.decode_hits = stats.warp_instructions - stats.decode_misses;
        drop(merge_span);
        common::obs::counter("decode.hit", stats.decode_hits);
        common::obs::counter("decode.miss", stats.decode_misses);
        match fault {
            Some((_, e)) => Err(e),
            None => Ok(stats),
        }
    }
}

/// Runs one CTA to completion on `state`, returning its statistics.
#[allow(clippy::too_many_arguments)]
fn run_cta(
    spec: &DeviceSpec,
    mem: &SharedMem,
    code: &CodeCache,
    cfg: &LaunchConfig,
    labels: &CodeLabels,
    launch_id: u64,
    chan: Option<&common::channel::ChannelDev>,
    state: &mut LaunchState,
    cta_linear: u64,
) -> Result<LaunchStats> {
    let g = cfg.grid;
    let cta_coords = Dim3::xyz(
        (cta_linear % g.x as u64) as u32,
        ((cta_linear / g.x as u64) % g.y as u64) as u32,
        (cta_linear / (g.x as u64 * g.y as u64)) as u32,
    );
    let mut env = ExecEnv {
        spec,
        mem,
        code,
        stats: LaunchStats::default(),
        grid: cfg.grid,
        block: cfg.block,
        cbank0: &cfg.cbank0,
        labels,
        launch_id,
        steps: 0,
        chan,
        addrs: [0; WARP],
        unit: false,
    };
    state.enter(cta_coords, cta_linear, cfg.entry_pc);
    let LaunchState { warps, cta, pages } = state;

    let result = loop {
        let mut progressed = false;
        let mut fault = None;
        for w in warps.iter_mut() {
            if w.done || w.at_barrier {
                continue;
            }
            progressed = true;
            if let Err(e) = env.run_warp(w, cta, pages) {
                fault = Some(e);
                break;
            }
        }
        if let Some(e) = fault {
            break Err(e);
        }
        if warps.iter().all(|w| w.done) {
            break Ok(());
        }
        if warps.iter().all(|w| w.done || w.at_barrier) {
            for w in warps.iter_mut() {
                w.at_barrier = false;
            }
            continue;
        }
        if !progressed {
            break Err(GpuError::Fault {
                pc: cfg.entry_pc,
                reason: "CTA scheduling deadlock".into(),
            });
        }
    };
    result.map(|()| env.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sass::{asm, codec::codec_for, Arch};

    fn encode(arch: Arch, text: &str) -> Vec<u8> {
        codec_for(arch).encode_stream(&asm::assemble_arch(text, arch).unwrap()).unwrap()
    }

    fn load(dev: &mut Device, text: &str) -> u64 {
        let code = encode(dev.spec().arch, text);
        let addr = dev.alloc(code.len() as u64).unwrap();
        dev.write(addr, &code).unwrap();
        addr
    }

    #[test]
    fn launch_validates_configuration() {
        let mut dev = Device::new(DeviceSpec::test(Arch::Volta));
        let pc = load(&mut dev, "EXIT ;");
        let bad_block = LaunchConfig::new(pc, Dim3::linear(1), Dim3::linear(0));
        assert!(matches!(dev.launch(&bad_block), Err(GpuError::BadLaunch(_))));
        let bad_grid = LaunchConfig::new(pc, Dim3::xyz(0, 1, 1), Dim3::linear(32));
        assert!(matches!(dev.launch(&bad_grid), Err(GpuError::BadLaunch(_))));
        let huge_shared = {
            let mut c = LaunchConfig::new(pc, Dim3::linear(1), Dim3::linear(32));
            c.shared_size = 1 << 30;
            c
        };
        assert!(matches!(dev.launch(&huge_shared), Err(GpuError::BadLaunch(_))));
    }

    #[test]
    fn params_land_in_cbank0_at_the_abi_offset() {
        let mut cfg = LaunchConfig::new(0, Dim3::linear(1), Dim3::linear(32));
        cfg.push_param_u32(7);
        cfg.push_param_u64(0xdead_beef); // must align to 8
        let base = usize::from(PARAM_BASE);
        assert_eq!(cfg.cbank0.len(), base + 16);
        assert_eq!(cfg.cbank0[base], 7);
        assert_eq!(
            u64::from_le_bytes(cfg.cbank0[base + 8..base + 16].try_into().unwrap()),
            0xdead_beef
        );
    }

    #[test]
    fn simple_kernel_runs_and_reports_stats() {
        let mut dev = Device::new(DeviceSpec::test(Arch::Pascal));
        let pc = load(
            &mut dev,
            "S2R R4, SR_TID.X ;\n\
             IADD R4, R4, 0x1 ;\n\
             EXIT ;",
        );
        let cfg = LaunchConfig::new(pc, Dim3::linear(2), Dim3::linear(64));
        let stats = dev.launch(&cfg).unwrap();
        // 2 CTAs × 2 warps × 3 instructions.
        assert_eq!(stats.warp_instructions, 12);
        assert_eq!(stats.thread_instructions, 3 * 128);
        assert!(stats.cycles > 0);
        assert_eq!(stats.op_count(sass::Op::Iadd), 4);
    }

    #[test]
    fn guarded_exit_retires_only_matching_threads() {
        // Threads with tid >= 16 exit early; the rest store to a buffer.
        let mut dev = Device::new(DeviceSpec::test(Arch::Volta));
        let pc = load(
            &mut dev,
            "S2R R4, SR_TID.X ;\n\
             ISETP.GE.S32 P0, R4, 0x10 ;\n\
             @P0 EXIT ;\n\
             LDC.64 R6, c[0x0][0x160] ;\n\
             SHL R8, R4, 0x2 ;\n\
             IADD.U64 R6, R6, R8 ;\n\
             MOV32I R5, 0x7 ;\n\
             STG [R6], R5 ;\n\
             EXIT ;",
        );
        let buf = dev.alloc(128).unwrap();
        let mut cfg = LaunchConfig::new(pc, Dim3::linear(1), Dim3::linear(32));
        cfg.push_param_u64(buf);
        dev.launch(&cfg).unwrap();
        let mut out = vec![0u8; 128];
        dev.read(buf, &mut out).unwrap();
        for t in 0..32 {
            let v = u32::from_le_bytes(out[t * 4..t * 4 + 4].try_into().unwrap());
            assert_eq!(v, if t < 16 { 7 } else { 0 }, "thread {t}");
        }
    }

    #[test]
    fn ssy_sync_reconverges_divergent_paths() {
        // if (tid & 1) R5 = 100 else R5 = 200; all store R5 + tid.
        let mut dev = Device::new(DeviceSpec::test(Arch::Volta));
        let pc = load(
            &mut dev,
            "S2R R4, SR_TID.X ;\n\
             LOP.AND R5, R4, 0x1 ;\n\
             ISETP.EQ.S32 P0, R5, RZ ;\n\
             SSY join ;\n\
             @P0 BRA even ;\n\
             MOV32I R5, 0x64 ;\n\
             SYNC ;\n\
             even:\n\
             MOV32I R5, 0xc8 ;\n\
             SYNC ;\n\
             join:\n\
             IADD R5, R5, R4 ;\n\
             LDC.64 R6, c[0x0][0x160] ;\n\
             SHL R8, R4, 0x2 ;\n\
             IADD.U64 R6, R6, R8 ;\n\
             STG [R6], R5 ;\n\
             EXIT ;",
        );
        let buf = dev.alloc(128).unwrap();
        let mut cfg = LaunchConfig::new(pc, Dim3::linear(1), Dim3::linear(32));
        cfg.push_param_u64(buf);
        dev.launch(&cfg).unwrap();
        let mut out = vec![0u8; 128];
        dev.read(buf, &mut out).unwrap();
        for t in 0..32u32 {
            let v = u32::from_le_bytes(out[t as usize * 4..t as usize * 4 + 4].try_into().unwrap());
            let expect = if t % 2 == 0 { 200 + t } else { 100 + t };
            assert_eq!(v, expect, "thread {t}");
        }
    }

    #[test]
    fn call_and_ret_roundtrip() {
        // CAL to a leaf that doubles R4, then store.
        let mut dev = Device::new(DeviceSpec::test(Arch::Kepler));
        let pc = load(
            &mut dev,
            "S2R R4, SR_TID.X ;\n\
             CAL dbl ;\n\
             LDC.64 R6, c[0x0][0x160] ;\n\
             S2R R8, SR_TID.X ;\n\
             SHL R8, R8, 0x2 ;\n\
             IADD.U64 R6, R6, R8 ;\n\
             STG [R6], R4 ;\n\
             EXIT ;\n\
             dbl:\n\
             IADD R4, R4, R4 ;\n\
             RET ;",
        );
        let buf = dev.alloc(128).unwrap();
        let mut cfg = LaunchConfig::new(pc, Dim3::linear(1), Dim3::linear(32));
        cfg.push_param_u64(buf);
        dev.launch(&cfg).unwrap();
        let mut out = vec![0u8; 128];
        dev.read(buf, &mut out).unwrap();
        for t in 0..32u32 {
            let v = u32::from_le_bytes(out[t as usize * 4..t as usize * 4 + 4].try_into().unwrap());
            assert_eq!(v, 2 * t);
        }
    }

    #[test]
    fn shared_memory_with_barrier() {
        // Stage tid into shared, barrier, read neighbour (tid+1)%32.
        let mut dev = Device::new(DeviceSpec::test(Arch::Maxwell));
        let pc = load(
            &mut dev,
            "S2R R4, SR_TID.X ;\n\
             SHL R5, R4, 0x2 ;\n\
             STS [R5], R4 ;\n\
             BAR ;\n\
             IADD R6, R4, 0x1 ;\n\
             LOP.AND R6, R6, 0x1f ;\n\
             SHL R6, R6, 0x2 ;\n\
             LDS R7, [R6] ;\n\
             LDC.64 R8, c[0x0][0x160] ;\n\
             MOV R10, R5 ;\n\
             MOV R11, RZ ;\n\
             IADD.U64 R8, R8, R10 ;\n\
             STG [R8], R7 ;\n\
             EXIT ;",
        );
        let buf = dev.alloc(128).unwrap();
        let mut cfg = LaunchConfig::new(pc, Dim3::linear(1), Dim3::linear(32));
        cfg.shared_size = 128;
        cfg.push_param_u64(buf);
        dev.launch(&cfg).unwrap();
        let mut out = vec![0u8; 128];
        dev.read(buf, &mut out).unwrap();
        for t in 0..32u32 {
            let v = u32::from_le_bytes(out[t as usize * 4..t as usize * 4 + 4].try_into().unwrap());
            assert_eq!(v, (t + 1) % 32);
        }
    }

    #[test]
    fn chan_pushes_one_record_per_lane_and_flushes_at_launch_end() {
        use common::channel::{Backpressure, ChannelHost, Record};
        use std::sync::{Arc, Mutex};
        let mut dev = Device::new(DeviceSpec::test(Arch::Volta));
        // Each lane pushes its tid as a 64-bit payload.
        let pc = load(
            &mut dev,
            "S2R R4, SR_TID.X ;\n\
             MOV R5, RZ ;\n\
             CHAN.64 R4 ;\n\
             EXIT ;",
        );
        let store: Arc<Mutex<Vec<Record>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = store.clone();
        // A 7-record buffer forces mid-launch buffer handovers.
        let (host, chan) = ChannelHost::spawn(
            7,
            Backpressure::Block,
            Box::new(move |batch| sink.lock().unwrap().extend_from_slice(batch)),
        );
        dev.attach_channel(chan);
        let cfg = LaunchConfig::new(pc, Dim3::linear(2), Dim3::linear(32));
        dev.launch(&cfg).unwrap();
        // The launch-end flush already drained everything: no host-side
        // flush needed before reading.
        let got = store.lock().unwrap().clone();
        assert_eq!(got.len(), 64);
        for cta in 0..2u64 {
            let stream: Vec<u64> = got.iter().filter(|r| r.tag == cta).map(|r| r.payload).collect();
            assert_eq!(stream, (0..32).collect::<Vec<_>>(), "CTA {cta} stream");
        }
        assert_eq!(host.dropped(), 0);
        assert!(dev.detach_channel().is_some());
        host.shutdown();
    }

    #[test]
    fn chan_respects_the_guard_predicate() {
        use common::channel::{Backpressure, ChannelHost, Record};
        use std::sync::{Arc, Mutex};
        let mut dev = Device::new(DeviceSpec::test(Arch::Volta));
        // Only threads with tid < 4 push.
        let pc = load(
            &mut dev,
            "S2R R4, SR_TID.X ;\n\
             ISETP.GE.S32 P0, R4, 0x4 ;\n\
             @P0 EXIT ;\n\
             MOV R5, RZ ;\n\
             CHAN.64 R4 ;\n\
             EXIT ;",
        );
        let store: Arc<Mutex<Vec<Record>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = store.clone();
        let (host, chan) = ChannelHost::spawn(
            64,
            Backpressure::Block,
            Box::new(move |batch| sink.lock().unwrap().extend_from_slice(batch)),
        );
        dev.attach_channel(chan);
        let cfg = LaunchConfig::new(pc, Dim3::linear(1), Dim3::linear(32));
        dev.launch(&cfg).unwrap();
        let got: Vec<u64> = store.lock().unwrap().iter().map(|r| r.payload).collect();
        assert_eq!(got, vec![0, 1, 2, 3]);
        host.shutdown();
    }

    #[test]
    fn chan_faults_without_an_attached_channel() {
        let mut dev = Device::new(DeviceSpec::test(Arch::Volta));
        let pc = load(&mut dev, "CHAN.64 R4 ;\nEXIT ;");
        let cfg = LaunchConfig::new(pc, Dim3::linear(1), Dim3::linear(32));
        match dev.launch(&cfg) {
            Err(GpuError::Fault { reason, .. }) => {
                assert!(reason.contains("no channel attached"), "{reason}")
            }
            other => panic!("expected chan fault, got {other:?}"),
        }
    }

    #[test]
    fn proxy_instruction_faults_without_instrumentation() {
        let mut dev = Device::new(DeviceSpec::test(Arch::Volta));
        let pc = load(&mut dev, "PROXY R4, R5, 0x1234 ;\nEXIT ;");
        let cfg = LaunchConfig::new(pc, Dim3::linear(1), Dim3::linear(32));
        match dev.launch(&cfg) {
            Err(GpuError::Fault { reason, .. }) => assert!(reason.contains("PROXY")),
            other => panic!("expected proxy fault, got {other:?}"),
        }
    }

    #[test]
    fn a_relocated_body_reports_its_faults_where_they_come_from() {
        // A body relocating `k` (at 0x40, instruction 2 the `PROXY`) behind
        // code its site 5 injected for the tool `t` and code of its own.
        let mut dev = Device::new(DeviceSpec::test(Arch::Volta));
        let isize = dev.spec().arch.instruction_size() as u64;
        let tool = load(&mut dev, "RET ;");
        dev.label_code(tool, isize, "t");
        let origin = |o| vec![o, Origin::Relocated(3)];
        let tool_site = Origin::Injected { site: 5, tool: std::num::NonZeroU64::new(tool) };
        let cases = [
            (Origin::Relocated(2), 0x40 + 2 * isize, " in `k` at instruction 2"),
            (tool_site, 0, " in code injected at instruction 5 of `k` for `t`"),
            (
                Origin::Injected { site: 5, tool: None },
                0,
                " in code injected at instruction 5 of `k`",
            ),
        ];
        for (first, want_pc, place) in cases {
            let body = load(&mut dev, "PROXY R4, R5, 0x1234 ;\nEXIT ;");
            dev.label_body(body, "k", 0x40, origin(first));
            let cfg = LaunchConfig::new(body, Dim3::linear(1), Dim3::linear(32));
            match dev.launch(&cfg) {
                Err(GpuError::Fault { pc, reason }) => {
                    assert_eq!(pc, if want_pc == 0 { body } else { want_pc }, "{reason}");
                    assert!(reason.ends_with(place), "{reason}");
                }
                other => panic!("expected proxy fault, got {other:?}"),
            }
        }
    }

    #[test]
    fn faults_name_the_labelled_function_and_instruction() {
        let mut dev = Device::new(DeviceSpec::test(Arch::Volta));
        let pc = load(&mut dev, "NOP ;\nPROXY R4, R5, 0x1234 ;\nEXIT ;");
        let isize = dev.spec().arch.instruction_size() as u64;
        dev.label_code(pc, 3 * isize, "emu_kernel");
        let cfg = LaunchConfig::new(pc, Dim3::linear(1), Dim3::linear(32));
        match dev.launch(&cfg) {
            Err(GpuError::Fault { pc: fpc, reason }) => {
                assert_eq!(fpc, pc + isize);
                assert!(reason.contains("PROXY"), "{reason}");
                assert!(reason.contains("in `emu_kernel` at instruction 1"), "{reason}");
            }
            other => panic!("expected proxy fault, got {other:?}"),
        }
        // Freeing the region drops the label; an unlabelled fault reports
        // the bare pc again.
        dev.free(pc).unwrap();
        let pc2 = load(&mut dev, "PROXY R4, R5, 0x1 ;\nEXIT ;");
        let cfg2 = LaunchConfig::new(pc2, Dim3::linear(1), Dim3::linear(32));
        match dev.launch(&cfg2) {
            Err(GpuError::Fault { reason, .. }) => {
                assert!(!reason.contains("emu_kernel"), "{reason}")
            }
            other => panic!("expected proxy fault, got {other:?}"),
        }
    }

    #[test]
    fn decode_cache_revalidates_after_code_patch() {
        let mut dev = Device::new(DeviceSpec::test(Arch::Volta));
        // First version stores 1; patch to store 2 in place.
        let pc = load(
            &mut dev,
            "LDC.64 R6, c[0x0][0x160] ;\n\
             MOV32I R5, 0x1 ;\n\
             STG [R6], R5 ;\n\
             EXIT ;",
        );
        let buf = dev.alloc(64).unwrap();
        let mut cfg = LaunchConfig::new(pc, Dim3::linear(1), Dim3::linear(1));
        cfg.push_param_u64(buf);
        dev.launch(&cfg).unwrap();
        let mut out = [0u8; 4];
        dev.read(buf, &mut out).unwrap();
        assert_eq!(u32::from_le_bytes(out), 1);

        // Patch the MOV32I in place (what NVBit's code swap does).
        let arch = Arch::Volta;
        let patched = asm::assemble("MOV32I R5, 0x2 ;").unwrap();
        let bytes = codec_for(arch).encode_stream(&patched).unwrap();
        dev.write(pc + arch.instruction_size() as u64, &bytes).unwrap();
        dev.launch(&cfg).unwrap();
        dev.read(buf, &mut out).unwrap();
        assert_eq!(u32::from_le_bytes(out), 2, "stale decode cache after patch");
        let s = dev.launch(&cfg).unwrap();
        assert!(s.decode_hits > 0);
    }

    /// `MOV32I R5, imm ; STG [R6], R5` behind `pad` NOPs, one thread's worth.
    fn store_imm(pad: usize, imm: u32) -> String {
        format!(
            "{}LDC.64 R6, c[0x0][0x160] ;\nMOV32I R5, 0x{imm:x} ;\nSTG [R6], R5 ;\nEXIT ;",
            "NOP ;\n".repeat(pad)
        )
    }

    /// Launches `pc` on one thread with `buf` as its parameter; returns the
    /// launch's `(decode_hits, decode_misses)` and the word at `buf`.
    fn run_store(dev: &mut Device, pc: u64, buf: u64) -> ((u64, u64), u32) {
        let mut cfg = LaunchConfig::new(pc, Dim3::linear(1), Dim3::linear(1));
        cfg.push_param_u64(buf);
        let s = dev.launch(&cfg).unwrap();
        assert_eq!(s.decode_hits + s.decode_misses, s.warp_instructions);
        let mut out = [0u8; 4];
        dev.read(buf, &mut out).unwrap();
        ((s.decode_hits, s.decode_misses), u32::from_le_bytes(out))
    }

    #[test]
    fn a_patch_re_decodes_the_patched_page_and_no_other() {
        let mut dev = Device::new(DeviceSpec::test(Arch::Volta));
        // 16 words per page: 20 NOPs put the 4-instruction tail, and 4 of
        // the NOPs, in the kernel's second page.
        let pc = load(&mut dev, &store_imm(20, 1));
        let buf = dev.alloc(64).unwrap();
        assert_eq!(run_store(&mut dev, pc, buf), ((0, 24), 1));

        let mov = pc + 21 * Arch::Volta.instruction_size() as u64;
        for (imm, text) in [(2, "MOV32I R5, 0x2 ;"), (1, "MOV32I R5, 0x1 ;")] {
            dev.write(mov, &encode(Arch::Volta, text)).unwrap();
            assert_eq!(run_store(&mut dev, pc, buf), ((16, 8), imm), "patched to {imm}");
        }
        assert_eq!(run_store(&mut dev, pc, buf), ((24, 0), 1), "nothing changed");
    }

    /// The coherence point is the launch boundary for guest stores too: a
    /// kernel that overwrites another kernel's `MOV32I` from a data buffer
    /// is seen by the victim's next launch.
    #[test]
    fn a_guest_store_into_code_is_seen_by_the_next_launch() {
        let mut dev = Device::new(DeviceSpec::test(Arch::Volta));
        let victim = load(&mut dev, &store_imm(0, 1));
        let copy = load(
            &mut dev,
            "LDC.64 R6, c[0x0][0x160] ;\n\
             LDC.64 R8, c[0x0][0x168] ;\n\
             LDG.128 R12, [R6] ;\n\
             STG.128 [R8], R12 ;\n\
             EXIT ;",
        );
        let buf = dev.alloc(64).unwrap();
        assert_eq!(run_store(&mut dev, victim, buf).1, 1);

        let src = load(&mut dev, "MOV32I R5, 0x2 ;");
        let mut cfg = LaunchConfig::new(copy, Dim3::linear(1), Dim3::linear(1));
        cfg.push_param_u64(src);
        cfg.push_param_u64(victim + Arch::Volta.instruction_size() as u64);
        dev.launch(&cfg).unwrap();

        // Only the victim's one page is re-read: 4 slots re-decoded.
        assert_eq!(run_store(&mut dev, victim, buf), ((0, 4), 2));
    }

    #[test]
    fn freeing_code_drops_its_decoded_pages_and_the_region_runs_new_code() {
        let mut dev = Device::new(DeviceSpec::test(Arch::Volta));
        let buf = dev.alloc(64).unwrap();
        let pc = load(&mut dev, &store_imm(20, 1));
        assert_eq!(dev.decoded_pages(), 0);
        assert_eq!(run_store(&mut dev, pc, buf).1, 1);
        assert_eq!(dev.decoded_pages(), 2);
        dev.free(pc).unwrap();
        assert_eq!(dev.decoded_pages(), 0, "freed code keeps no decoded page");

        // Different code of the same length lands in the same region.
        assert_eq!(load(&mut dev, &store_imm(20, 2)), pc);
        assert_eq!(run_store(&mut dev, pc, buf), ((0, 24), 2));
    }

    fn fault_of(r: Result<LaunchStats>) -> (u64, String) {
        match r {
            Err(GpuError::Fault { pc, reason }) => (pc, reason),
            other => panic!("expected a fault, got {other:?}"),
        }
    }

    #[test]
    fn misaligned_fetch_faults() {
        let mut dev = Device::new(DeviceSpec::test(Arch::Volta));
        let pc = load(&mut dev, "NOP ;\nEXIT ;");
        let cfg = LaunchConfig::new(pc + 8, Dim3::linear(1), Dim3::linear(32));
        assert_eq!(fault_of(dev.launch(&cfg)), (pc + 8, "misaligned instruction fetch".into()));
    }

    #[test]
    fn fetch_at_address_zero_faults_but_the_rest_of_the_null_page_is_fetchable() {
        let mut dev = Device::new(DeviceSpec::test(Arch::Volta));
        let pc = load(&mut dev, &store_imm(0, 7));
        assert_eq!(pc, crate::mem::ALLOC_ALIGN, "the kernel follows the null page");
        let buf = dev.alloc(64).unwrap();
        let null = LaunchConfig::new(0, Dim3::linear(1), Dim3::linear(1));
        assert_eq!(
            fault_of(dev.launch(&null)),
            (0, "instruction fetch outside device memory".into())
        );
        // From the second word on, the null page's zeroes execute as inert
        // instructions and control falls into the kernel behind it.
        let isize = Arch::Volta.instruction_size() as u64;
        assert_eq!(run_store(&mut dev, isize, buf), ((0, 15 + 4), 7));
    }

    #[test]
    fn fetch_past_the_end_of_memory_faults_at_the_first_word_that_does_not_fit() {
        // One whole instruction word and half of another behind the last
        // full page.
        let mut spec = DeviceSpec::test(Arch::Volta);
        spec.global_mem = (1 << 16) + 24;
        let mut dev = Device::new(spec);
        let outside = "instruction fetch outside device memory".to_string();
        let cfg = LaunchConfig::new(1 << 16, Dim3::linear(1), Dim3::linear(32));
        assert_eq!(fault_of(dev.launch(&cfg)), ((1 << 16) + 16, outside.clone()));
        let cfg = LaunchConfig::new(1 << 20, Dim3::linear(1), Dim3::linear(32));
        assert_eq!(fault_of(dev.launch(&cfg)), (1 << 20, outside));
    }

    #[test]
    fn an_undecodable_word_faults_only_if_it_is_executed() {
        let junk = [0xffu8; 16];
        assert!(codec_for(Arch::Volta).decode(&junk).is_err());
        let mut dev = Device::new(DeviceSpec::test(Arch::Volta));
        // Data behind the EXIT, in the same page: never fetched.
        let pc = load(&mut dev, "NOP ;\nEXIT ;\nNOP ;");
        dev.write(pc + 32, &junk).unwrap();
        let cfg = LaunchConfig::new(pc, Dim3::linear(1), Dim3::linear(32));
        let s = dev.launch(&cfg).unwrap();
        assert_eq!((s.decode_hits, s.decode_misses), (0, 2));
        // The same word where the EXIT was.
        dev.write(pc + 16, &junk).unwrap();
        let (at, reason) = fault_of(dev.launch(&cfg));
        assert_eq!(at, pc + 16);
        assert!(reason.starts_with("undecodable instruction: "), "{reason}");
    }

    #[test]
    fn multi_warp_cta_barrier_synchronizes_all_warps() {
        // 64 threads: warp 0 writes shared[0], barrier, warp 1 reads it.
        let mut dev = Device::new(DeviceSpec::test(Arch::Pascal));
        let pc = load(
            &mut dev,
            "S2R R4, SR_TID.X ;\n\
             ISETP.EQ.S32 P0, R4, RZ ;\n\
             MOV32I R5, 0x2a ;\n\
             @P0 STS [RZ], R5 ;\n\
             BAR ;\n\
             LDS R6, [RZ] ;\n\
             LDC.64 R8, c[0x0][0x160] ;\n\
             SHL R10, R4, 0x2 ;\n\
             MOV R11, RZ ;\n\
             IADD.U64 R8, R8, R10 ;\n\
             STG [R8], R6 ;\n\
             EXIT ;",
        );
        let buf = dev.alloc(256).unwrap();
        let mut cfg = LaunchConfig::new(pc, Dim3::linear(1), Dim3::linear(64));
        cfg.shared_size = 64;
        cfg.push_param_u64(buf);
        dev.launch(&cfg).unwrap();
        let mut out = vec![0u8; 256];
        dev.read(buf, &mut out).unwrap();
        for t in 0..64usize {
            let v = u32::from_le_bytes(out[t * 4..t * 4 + 4].try_into().unwrap());
            assert_eq!(v, 42, "thread {t}");
        }
    }

    /// Every thread first stores what a fresh CTA must read as zero — two
    /// high registers nothing has written, its predicates, the bottom word of
    /// its local frame and the one just under the top — and only then dirties
    /// all of it: the registers (one as a row, one lane by lane), every
    /// predicate, the whole frame through per-lane different addresses (and,
    /// in a one-lane warp, through the row copy) and through `[R1+off]`.
    const LEAVES_A_MESS: &str = "\
S2R R4, SR_TID.X ;\n\
S2R R5, SR_CTAID.X ;\n\
S2R R6, SR_NTID.X ;\n\
IMAD R4, R5, R6, R4 ;\n\
SHL R8, R4, 0x4 ;\n\
MOV R9, RZ ;\n\
LDC.64 R6, c[0x0][0x160] ;\n\
IADD.U64 R6, R6, R8 ;\n\
LOP.OR R18, R200, R201 ;\n\
STG [R6], R18 ;\n\
P2R R10 ;\n\
STG [R6+0x4], R10 ;\n\
LDL R11, [RZ] ;\n\
STG [R6+0x8], R11 ;\n\
LDL R12, [R1-0x4] ;\n\
STG [R6+0xc], R12 ;\n\
MOV32I R200, 0x5eadbeef ;\n\
LDC R201, c[0x0][0x160] ;\n\
S2R R16, SR_LANEID ;\n\
LOP.AND R16, R16, 0x1 ;\n\
ISETP.NE.U32 P1, R16, RZ ;\n\
MOV32I R17, 0x4 ;\n\
MOV R14, RZ ;\n\
fill:\n\
ISUB R15, R1, R17 ;\n\
ISUB R15, R15, R14 ;\n\
@!P1 MOV R15, R14 ;\n\
STL [R15], R200 ;\n\
IADD R14, R14, 0x4 ;\n\
ISETP.LT.U32 P0, R14, R1 ;\n\
@P0 BRA fill ;\n\
STL [R1-0x4], R200 ;\n\
MOV32I R13, 0x7f ;\n\
R2P R13 ;\n\
EXIT ;";

    /// A CTA cannot tell who ran before it on its worker: under every
    /// scheduler and worker count, and on one `Device` across launches with a
    /// larger and then a smaller block and local frame, every word
    /// `LEAVES_A_MESS` observes is zero.
    #[test]
    fn a_cta_starts_clean_whoever_ran_on_its_worker_before() {
        let scheds = [Scheduler::Serial]
            .into_iter()
            .chain([1, 2, 4].map(|threads| Scheduler::Parallel { threads }));
        for sched in scheds {
            let mut dev = Device::new(DeviceSpec::test(Arch::Volta));
            dev.scheduler = sched;
            let pc = load(&mut dev, LEAVES_A_MESS);
            for (block, local) in [(33, 64), (65, 256), (17, 32)] {
                let len = 16 * block as usize * 16;
                let buf = dev.alloc(len as u64).unwrap();
                dev.write(buf, &vec![0xff; len]).unwrap();
                let mut cfg = LaunchConfig::new(pc, Dim3::linear(16), Dim3::linear(block));
                cfg.local_size = local;
                cfg.push_param_u64(buf);
                dev.launch(&cfg).unwrap();
                let mut out = vec![0u8; len];
                dev.read(buf, &mut out).unwrap();
                let dirty = out.chunks_exact(16).position(|slot| slot != [0; 16]);
                assert_eq!(dirty, None, "{sched:?}, block {block}, local {local}: {out:x?}");
            }
        }
    }

    /// Each thread stores, before it dirties anything, what a fresh CTA must
    /// read: the or of two registers nothing wrote and its predicates, the or
    /// of its whole local frame, the or of its share of shared memory (every
    /// `T`-th word, `T` the block's threads), its `SR_TID.X | SR_TID.Y << 16`
    /// and the marker the first instruction loads. After a barrier it writes
    /// all of that: the registers, every predicate, the frame in a per-lane
    /// order and at its top through `[R1-0x4]`, and shared memory.
    const DIRTIES_WHAT_IT_READ: &str = "\
MOV32I R19, 0x1 ;\n\
S2R R4, SR_TID.X ;\n\
S2R R5, SR_TID.Y ;\n\
S2R R6, SR_NTID.X ;\n\
S2R R7, SR_NTID.Y ;\n\
S2R R20, SR_CTAID.X ;\n\
IMAD R8, R5, R6, R4 ;\n\
IMUL R9, R6, R7 ;\n\
IMAD R10, R20, R9, R8 ;\n\
SHL R10, R10, 0x5 ;\n\
MOV R11, RZ ;\n\
LDC.64 R12, c[0x0][0x160] ;\n\
IADD.U64 R12, R12, R10 ;\n\
LOP.OR R14, R200, R201 ;\n\
P2R R15 ;\n\
LOP.OR R14, R14, R15 ;\n\
STG [R12], R14 ;\n\
MOV R16, RZ ;\n\
MOV R17, RZ ;\n\
scan_local:\n\
ISETP.GE.U32 P0, R17, R1 ;\n\
@P0 BRA local_done ;\n\
LDL R18, [R17] ;\n\
LOP.OR R16, R16, R18 ;\n\
IADD R17, R17, 0x4 ;\n\
BRA scan_local ;\n\
local_done:\n\
STG [R12+0x4], R16 ;\n\
LDC R21, c[0x0][0x168] ;\n\
SHL R22, R8, 0x2 ;\n\
SHL R23, R9, 0x2 ;\n\
MOV R16, RZ ;\n\
MOV R17, RZ ;\n\
scan_shared:\n\
ISETP.GE.U32 P0, R17, R21 ;\n\
@P0 BRA shared_done ;\n\
IADD R24, R17, R22 ;\n\
ISETP.LT.U32 P1, R24, R21 ;\n\
@P1 LDS R18, [R24] ;\n\
@P1 LOP.OR R16, R16, R18 ;\n\
IADD R17, R17, R23 ;\n\
BRA scan_shared ;\n\
shared_done:\n\
STG [R12+0x8], R16 ;\n\
SHL R25, R5, 0x10 ;\n\
LOP.OR R25, R25, R4 ;\n\
STG [R12+0xc], R25 ;\n\
STG [R12+0x10], R19 ;\n\
BAR ;\n\
MOV32I R200, 0x5eadbeef ;\n\
LDC R201, c[0x0][0x160] ;\n\
S2R R27, SR_LANEID ;\n\
LOP.AND R27, R27, 0x1 ;\n\
ISETP.NE.U32 P1, R27, RZ ;\n\
MOV R17, RZ ;\n\
fill_local:\n\
ISUB R28, R1, R17 ;\n\
ISUB R28, R28, 0x4 ;\n\
@!P1 MOV R28, R17 ;\n\
STL [R28], R200 ;\n\
IADD R17, R17, 0x4 ;\n\
ISETP.LT.U32 P0, R17, R1 ;\n\
@P0 BRA fill_local ;\n\
STL [R1-0x4], R200 ;\n\
MOV R17, RZ ;\n\
fill_shared:\n\
ISETP.GE.U32 P0, R17, R21 ;\n\
@P0 BRA shared_filled ;\n\
IADD R24, R17, R22 ;\n\
ISETP.LT.U32 P2, R24, R21 ;\n\
@P2 STS [R24], R200 ;\n\
IADD R17, R17, R23 ;\n\
BRA fill_shared ;\n\
shared_filled:\n\
MOV32I R26, 0x7f ;\n\
R2P R26 ;\n\
EXIT ;";

    /// A CTA cannot tell who ran before it on its worker in an earlier
    /// launch either: launches in sequence on one `Device`, under every
    /// scheduler and worker count, each read zero registers, predicates,
    /// local and shared memory, their own thread indices and the code as it
    /// stands. Between launches the block shrinks and grows (with partial
    /// last warps, and 64×1 after 32×2: the same threads in another shape),
    /// the local frame grows, shrinks and grows, the shared size moves and
    /// the code is patched.
    #[test]
    fn a_launch_starts_clean_whatever_launched_before_it_on_the_device() {
        let scheds = [Scheduler::Serial]
            .into_iter()
            .chain([1, 2, 4].map(|threads| Scheduler::Parallel { threads }));
        for sched in scheds {
            let mut dev = Device::new(DeviceSpec::test(Arch::Volta));
            dev.scheduler = sched;
            let pc = load(&mut dev, DIRTIES_WHAT_IT_READ);
            let mut marker = 1;
            let launches = [
                (Dim3::xyz(48, 1, 1), 256, 512, None),
                (Dim3::xyz(32, 2, 1), 64, 128, None),
                (Dim3::xyz(64, 1, 1), 512, 1024, Some(2)),
                (Dim3::xyz(17, 1, 1), 128, 0, None),
                (Dim3::xyz(40, 2, 1), 384, 256, Some(3)),
            ];
            for (block, local, shared, patch) in launches {
                if let Some(m) = patch {
                    dev.write(pc, &encode(Arch::Volta, &format!("MOV32I R19, 0x{m:x} ;"))).unwrap();
                    marker = m;
                }
                let threads = 8 * block.count() as usize;
                let buf = dev.alloc(32 * threads as u64).unwrap();
                dev.write(buf, &vec![0xff; 32 * threads]).unwrap();
                let mut cfg = LaunchConfig::new(pc, Dim3::linear(8), block);
                (cfg.local_size, cfg.shared_size) = (local, shared);
                cfg.push_param_u64(buf);
                cfg.push_param_u32(shared);
                dev.launch(&cfg).unwrap();
                let mut out = vec![0u8; 32 * threads];
                dev.read(buf, &mut out).unwrap();
                for (g, slot) in out.chunks_exact(32).enumerate() {
                    let t = g as u32 % block.count() as u32;
                    let want = [0, 0, 0, (t % block.x) | (t / block.x) << 16, marker];
                    let got: Vec<u32> = slot[..20]
                        .chunks_exact(4)
                        .map(|w| u32::from_le_bytes(w.try_into().unwrap()))
                        .collect();
                    assert_eq!(got, want, "{sched:?}, block {block:?}, local {local}, thread {g}");
                }
            }
        }
    }

    /// Each thread stores its `SR_TID.{X,Y,Z}` and its grid-flat index at
    /// that index. The thread-index rows are the launch's: two launches with
    /// different block shapes on one `Device`, serial and parallel, each see
    /// their own shape, in full and partial warps.
    #[test]
    fn thread_indices_follow_each_launchs_block_shape() {
        const TIDS: &str = "\
LDC.64 R6, c[0x0][0x160] ;\n\
S2R R0, SR_TID.X ;\n\
S2R R1, SR_TID.Y ;\n\
S2R R2, SR_TID.Z ;\n\
S2R R8, SR_NTID.X ;\n\
S2R R9, SR_NTID.Y ;\n\
S2R R10, SR_NTID.Z ;\n\
S2R R11, SR_CTAID.X ;\n\
IMAD R12, R2, R9, R1 ;\n\
IMAD R12, R12, R8, R0 ;\n\
IMUL R13, R8, R9 ;\n\
IMUL R13, R13, R10 ;\n\
IMAD R12, R11, R13, R12 ;\n\
SHL R14, R12, 0x4 ;\n\
MOV R15, RZ ;\n\
IADD.U64 R6, R6, R14 ;\n\
STG [R6], R0 ;\n\
STG [R6+0x4], R1 ;\n\
STG [R6+0x8], R2 ;\n\
STG [R6+0xc], R12 ;\n\
EXIT ;";
        for sched in [Scheduler::Serial, Scheduler::Parallel { threads: 2 }] {
            let mut dev = Device::new(DeviceSpec::test(Arch::Volta));
            dev.scheduler = sched;
            let pc = load(&mut dev, TIDS);
            for block in [Dim3::xyz(5, 3, 3), Dim3::xyz(8, 4, 2), Dim3::xyz(1, 2, 33)] {
                let threads = block.count() as u32 * 3;
                let buf = dev.alloc(16 * threads as u64).unwrap();
                let mut cfg = LaunchConfig::new(pc, Dim3::linear(3), block);
                cfg.push_param_u64(buf);
                dev.launch(&cfg).unwrap();
                let mut out = vec![0u8; 16 * threads as usize];
                dev.read(buf, &mut out).unwrap();
                for (g, got) in out.chunks_exact(16).enumerate() {
                    let t = g as u32 % block.count() as u32;
                    let want =
                        [t % block.x, t / block.x % block.y, t / (block.x * block.y), g as u32];
                    let want: Vec<u8> = want.into_iter().flat_map(u32::to_le_bytes).collect();
                    assert_eq!(got, want, "{sched:?}, block {block:?}, thread {g}");
                }
            }
        }
    }

    /// Two CTAs on two workers store, again and again, different misaligned
    /// words that share an aligned word (bytes 1..5 and 5..9 of the buffer)
    /// and read their own back each time. A misaligned store is one atomic
    /// update per word, so neither ever sees its bytes disturbed; a load
    /// followed by a store would write the neighbour's stale bytes back.
    #[test]
    fn racing_misaligned_stores_to_shared_words_keep_both_values() {
        let mut dev = Device::new(DeviceSpec::test(Arch::Volta));
        dev.scheduler = Scheduler::Parallel { threads: 2 };
        let pc = load(
            &mut dev,
            "S2R R4, SR_CTAID.X ;\n\
             LDC.64 R6, c[0x0][0x160] ;\n\
             SHL R8, R4, 0x2 ;\n\
             MOV R9, RZ ;\n\
             IADD.U64 R16, R6, R8 ;\n\
             MOV32I R14, 0x4e20 ;\n\
             MOV32I R15, 0x1e3779b1 ;\n\
             MOV R10, RZ ;\n\
             MOV R11, RZ ;\n\
             again:\n\
             IADD R10, R10, 0x1 ;\n\
             IMUL R12, R10, R15 ;\n\
             STG [R16+0x1], R12 ;\n\
             LDG R13, [R16+0x1] ;\n\
             ISETP.NE.U32 P0, R13, R12 ;\n\
             @P0 IADD R11, R11, 0x1 ;\n\
             ISETP.LT.U32 P1, R10, R14 ;\n\
             @P1 BRA again ;\n\
             STG [R16+0x10], R11 ;\n\
             EXIT ;",
        );
        let buf = dev.alloc(64).unwrap();
        let mut cfg = LaunchConfig::new(pc, Dim3::linear(2), Dim3::linear(1));
        cfg.push_param_u64(buf);
        dev.launch(&cfg).unwrap();
        let mut out = [0u8; 24];
        dev.read(buf, &mut out).unwrap();
        let last = 0x4e20u32.wrapping_mul(0x1e37_79b1).to_le_bytes();
        assert_eq!(out[1..5], last, "CTA 0's last store");
        assert_eq!(out[5..9], last, "CTA 1's last store");
        assert_eq!(out[16..24], [0; 8], "stores read back disturbed");
    }

    /// A line size that is not a power of two takes the division, and counts
    /// exactly the lines division says.
    #[test]
    fn a_non_power_of_two_cache_line_counts_lines_by_division() {
        let spec = DeviceSpec { cache_line: 96, ..DeviceSpec::test(Arch::Volta) };
        let mut dev = Device::new(spec);
        let pc = load(
            &mut dev,
            "S2R R4, SR_TID.X ;\n\
             IMUL R10, R4, 0x14 ;\n\
             MOV R11, RZ ;\n\
             LDC.64 R6, c[0x0][0x160] ;\n\
             IADD.U64 R6, R6, R10 ;\n\
             LDG R8, [R6+0x8] ;\n\
             EXIT ;",
        );
        let buf = dev.alloc(1024).unwrap();
        let mut cfg = LaunchConfig::new(pc, Dim3::linear(1), Dim3::linear(32));
        cfg.push_param_u64(buf);
        let lines: std::collections::BTreeSet<u64> =
            (0..32).map(|t| (buf + 8 + 20 * t) / 96).collect();
        assert_eq!(dev.launch(&cfg).unwrap().mem.global_lines, lines.len() as u64);
    }

    #[test]
    fn coalesced_access_costs_less_than_strided() {
        let kernel = |stride_shift: u32| {
            format!(
                "S2R R4, SR_TID.X ;\n\
                 SHL R10, R4, 0x{stride_shift:x} ;\n\
                 MOV R11, RZ ;\n\
                 LDC.64 R6, c[0x0][0x160] ;\n\
                 IADD.U64 R6, R6, R10 ;\n\
                 LDG R8, [R6] ;\n\
                 EXIT ;"
            )
        };
        let run = |shift: u32| {
            let mut dev = Device::new(DeviceSpec::test(Arch::Volta));
            let pc = load(&mut dev, &kernel(shift));
            let buf = dev.alloc(32 * 1024).unwrap();
            let mut cfg = LaunchConfig::new(pc, Dim3::linear(1), Dim3::linear(32));
            cfg.push_param_u64(buf);
            dev.launch(&cfg).unwrap()
        };
        let coalesced = run(2); // 4-byte stride: one 128B line per warp access
        let strided = run(9); // 512-byte stride: 32 lines
        assert!(strided.cycles > coalesced.cycles);
        assert_eq!(coalesced.mem.global_lines, 1);
        assert_eq!(strided.mem.global_lines, 32);
    }
}
