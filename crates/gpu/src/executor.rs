//! The SIMT warp executor.
//!
//! Executes encoded instructions fetched from device memory, one warp at a
//! time, with a runtime SIMT stack driven by `SSY`/`SYNC`:
//!
//! * `SSY target` inserts a *reconvergence entry* `{pc: target}` underneath
//!   the executing entry;
//! * a divergent predicated branch replaces the executing entry with the
//!   fall-through path and pushes the taken path;
//! * `SYNC` pops the executing entry — control continues at the new top,
//!   which is either the sibling path or the reconvergence entry;
//! * `EXIT` clears the exiting lanes from **every** entry.
//!
//! This discipline needs no static analysis of the code, which is exactly
//! why it survives NVBit's binary rewriting (trampolines relocate an `SSY`
//! or branch, and the adjusted offsets keep the runtime stack coherent).
//!
//! Calls (`CAL`/`JCAL`/`RET`) use a per-entry return-address stack, cloned
//! on divergence, so device functions may be called from partially-active
//! warps.
//!
//! # Operands
//!
//! Decoding builds every operand list from its opcode's format, so each
//! operand is read by its position there: a register through `reg` or
//! `Warp::row`, a register-or-immediate through `Warp::src`, a predicate
//! through `pred`, a branch or call target through `target`. The readers are
//! total, and no fault re-checks an operand's kind.
//!
//! # State layout
//!
//! One operand of one warp instruction is one contiguous 32-lane `Row`:
//! the register file is register-major (`regs[reg][lane]`), a predicate
//! register is one `u32` lane-mask, and local memory is interleaved by
//! 32-bit word (`local[word][lane]`, the layout real GPUs use so that
//! same-offset per-thread accesses coalesce). Under a full execution mask
//! an ALU operation is a straight 32-lane loop the compiler can vectorise,
//! guards and votes are mask algebra, and an `LDL`/`STL` whose active lanes
//! share one 4-aligned in-bounds address — every `[R1+off]` register
//! save/restore of a trampoline — is a 128-byte row copy. An `LDC` whose
//! active lanes share one address — every `c[0x0][param]` — reads each
//! word once and fills its destination row, and an `S2R` of a register
//! that is the same in every lane (all but `SR_TID.*` and `SR_LANEID`) is
//! evaluated once. A global access or atomic forms its 32 addresses once,
//! as a row the cost model and the access both read; an `LDG`/`STG` whose
//! active lanes' words are all aligned and in bounds, validated at once by
//! `SharedMem::row`, loads each register as a row or stores lane-major
//! with no per-word check. `CHAN` hands its lanes' records over as one row.
//! Everything else (partial masks, per-lane or unaligned addresses, faults)
//! takes the per-lane loop behind the row path — the one in `fill` for
//! register rows, the lane loops of `LDC` and `load_store` for memory;
//! there is no other fallback and no switch between the two but the input.
//! A CTA runs on its worker's `LaunchState`, re-entered rather than
//! allocated.

use crate::mem::SharedMem;
use crate::spec::{DeviceSpec, Dim3};
use crate::stats::CtaStats;
use crate::{GpuError, Result};
use sass::op::{CfClass, IType};
use sass::{CmpOp, Instruction, MemSpace, Op, OpCategory, Operand, Pred, Reg, SpecialReg, SubOp};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

pub(crate) const WARP: usize = 32;
/// Per-CTA warp-instruction budget; a runaway kernel faults instead of
/// hanging the host. Counted per CTA so the limit is independent of the
/// CTA schedule.
const STEP_LIMIT: u64 = 2_000_000_000;

/// Code-page size: the allocation granule, so a page never spans two
/// allocations and `Device::free` can drop a freed one's pages whole.
const PAGE: u64 = crate::mem::ALLOC_ALIGN;

/// One page of code: the bytes it holds and one lazily decoded slot per
/// instruction word. A slot is decoded by the first step that executes it,
/// so data sharing a page with code is never decoded; an `Err` slot is the
/// reason a fetch of that word faults.
pub(crate) struct CodePage {
    raw: [u8; PAGE as usize],
    /// [`CodeCache::launch`] at which `raw` was last compared with memory.
    /// Relaxed: it publishes nothing — `raw` is immutable, the slots
    /// synchronise themselves and the page is published by the map's lock.
    checked: AtomicU64,
    slots: Box<[OnceLock<std::result::Result<Instruction, String>>]>,
}

impl CodePage {
    /// Reads the page at `base` one instruction word at a time, so that a
    /// word memory refuses any part of (address 0, the end of memory) is one
    /// faulting slot rather than a faulting page.
    fn read(mem: &SharedMem, base: u64, isize: usize, launch: u64) -> CodePage {
        let mut raw = [0u8; PAGE as usize];
        let slots = raw.chunks_exact_mut(isize).enumerate().map(|(i, word)| {
            let at = base + (i * isize) as u64;
            let read = word.chunks_exact_mut(4).enumerate().try_for_each(|(j, w)| {
                mem.load(at + 4 * j as u64).map(|v| w.copy_from_slice(&v.to_le_bytes()))
            });
            match read {
                Ok(()) => OnceLock::new(),
                Err(_) => OnceLock::from(Err("instruction fetch outside device memory".into())),
            }
        });
        CodePage { slots: slots.collect(), raw, checked: AtomicU64::new(launch) }
    }
}

/// The device's decoded code, shared by every CTA worker of every launch.
/// Coherence point is the launch boundary: the first touch of a page in a
/// launch compares it with memory and replaces it if a host write, a code
/// swap or a guest store of an earlier launch changed it.
#[derive(Default)]
pub(crate) struct CodeCache {
    /// Serial of the current launch, set by `Device::launch`.
    pub launch: u64,
    pub pages: RwLock<HashMap<u64, Arc<CodePage>>>,
}

impl CodeCache {
    /// The page at `base`, validated against memory for this launch.
    fn page(&self, mem: &SharedMem, base: u64, isize: usize) -> Arc<CodePage> {
        let seen = |p: &&Arc<CodePage>| p.checked.load(Ordering::Relaxed) == self.launch;
        // Neither lock is held across anything that can panic, so neither
        // is ever poisoned.
        let pages = self.pages.read().expect("no worker panics holding it");
        if let Some(p) = pages.get(&base).filter(seen) {
            return Arc::clone(p);
        }
        drop(pages);
        // First touch in this launch. Of the workers that get here together
        // one inserts or keeps the page and the rest take what it left, so
        // no slot is ever decoded twice.
        let now = CodePage::read(mem, base, isize, self.launch);
        let mut pages = self.pages.write().expect("no worker panics holding it");
        match pages.get(&base) {
            Some(p) if seen(&p) || p.raw == now.raw => {
                p.checked.store(self.launch, Ordering::Relaxed);
                Arc::clone(p)
            }
            _ => {
                let p = Arc::new(now);
                pages.insert(base, Arc::clone(&p));
                p
            }
        }
    }
}

/// The code pages one worker has already fetched in this launch,
/// direct-mapped by page number. An entry is valid by construction — the
/// table is born after [`CodeCache::launch`] is set and dropped with the
/// launch, and a page validated in a launch is never replaced in it — so a
/// hit is a compare with no lock, hash or refcount, and nothing ever has to
/// invalidate the table. Only a miss goes to [`CodeCache::page`]. (128
/// entries: 32 already leave the coalesced benchmark workloads with first
/// touches only; `sample_swap`'s per-instruction trampolines miss on 6 % of
/// page switches at 64 and on 1 % here.)
pub(crate) type PageTable = [Option<(u64, Arc<CodePage>)>; 128];

/// One 32-bit value per lane: a register, or one word of local memory.
pub(crate) type Row = [u32; WARP];

/// One SIMT-stack entry.
#[derive(Debug, Clone)]
pub(crate) struct Entry {
    pub pc: u64,
    pub mask: u32,
    pub retstack: Vec<u64>,
}

/// The lanes of `mask`, ascending: one step per set bit, so a sparse mask
/// (a tool body under its leader-lane guard) costs what it has lanes.
fn lanes(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let lane = mask.trailing_zeros() as usize;
        (mask != 0).then(|| {
            mask &= mask - 1;
            lane
        })
    })
}

/// The lane-mask on which `f` holds.
#[inline(always)]
fn lanes_where(f: impl Fn(usize) -> bool) -> u32 {
    (0..WARP).fold(0, |m, l| m | u32::from(f(l)) << l)
}

/// The value every lane of `exec` holds in `row`, if they all hold one.
/// (`execute` runs only with an active lane, so `exec` has a first.)
fn uniform(row: &Row, exec: u32) -> Option<u32> {
    let first = row[exec.trailing_zeros() as usize];
    (lanes_where(|l| row[l] == first) & exec == exec).then_some(first)
}

/// The lane-mask on which `a[lane] <cmp> b[lane]` (NaN compares not-equal,
/// matching the interpreter).
fn cmp_mask<T: PartialOrd>(cmp: CmpOp, a: &[T; WARP], b: &[T; WARP]) -> u32 {
    match cmp {
        CmpOp::Eq => lanes_where(|l| a[l] == b[l]),
        CmpOp::Ne => lanes_where(|l| a[l] != b[l]),
        CmpOp::Lt => lanes_where(|l| a[l] < b[l]),
        CmpOp::Le => lanes_where(|l| a[l] <= b[l]),
        CmpOp::Gt => lanes_where(|l| a[l] > b[l]),
        CmpOp::Ge => lanes_where(|l| a[l] >= b[l]),
    }
}

/// `row[lane] = f(lane)` on the lanes of `exec`: a straight 32-lane loop
/// under a full mask (the row path), the per-lane loop otherwise.
#[inline(always)]
fn fill(row: &mut Row, exec: u32, f: impl Fn(usize) -> u32) {
    if exec == u32::MAX {
        for (lane, v) in row.iter_mut().enumerate() {
            *v = f(lane);
        }
    } else {
        for lane in lanes(exec) {
            row[lane] = f(lane);
        }
    }
}

/// The register at a register position of an operand format; `RZ` for any
/// other kind.
fn reg(o: &Operand) -> Reg {
    match o {
        Operand::Reg(r) => *r,
        _ => Reg::RZ,
    }
}

/// The predicate at a predicate position of an operand format, and whether
/// it is read negated; `PT` for any other kind.
fn pred(o: &Operand) -> (Pred, bool) {
    match o {
        Operand::Pred { pred: p, negated } => (*p, *negated),
        _ => (Pred::PT, false),
    }
}

/// The target of a branch, jump, call or `SSY` whose next instruction is at
/// `next`; `next` itself for an instruction without one.
fn target(instr: &Instruction, next: u64) -> u64 {
    match instr.operands.first() {
        Some(Operand::Rel(off)) => next.wrapping_add(*off as u64),
        Some(Operand::Abs(a)) => *a,
        _ => next,
    }
}

/// Per-warp architectural state.
pub(crate) struct Warp {
    /// Flat thread index (within the CTA) of lane 0.
    pub base_tid: u32,
    /// The lanes that exist: all 32 but in a block's partial last warp.
    lane_mask: u32,
    pub entries: Vec<Entry>,
    /// `regs[reg][lane]`. Row 255 (`RZ`) is never written, so it reads as
    /// zero without a branch.
    pub regs: Box<[Row; 256]>,
    /// Rows `high..` are still all zero: every register write raises it past
    /// its row, so [`Warp::reset`] clears what a CTA used and no more.
    high: usize,
    /// The range of this warp's local rows a store has touched, for the
    /// same purpose (`start > end`: none).
    stored: (usize, usize),
    /// `preds[p]` is the lane-mask of predicate `p`; index 7 is the
    /// constant-true `PT`.
    pub preds: [u32; 8],
    pub done: bool,
    pub at_barrier: bool,
}

impl Warp {
    /// A warp of `lanes` threads with all-zero registers; [`Warp::reset`]
    /// makes it runnable.
    pub fn new(base_tid: u32, lanes: u32) -> Warp {
        // 256 rows by construction, so the conversion to the array holds.
        let regs = vec![[0u32; WARP]; 256].into_boxed_slice();
        Warp {
            base_tid,
            lane_mask: if lanes >= 32 { u32::MAX } else { (1u32 << lanes) - 1 },
            entries: Vec::new(),
            regs: regs.try_into().expect("256 rows"),
            high: 0,
            stored: (usize::MAX, 0),
            preds: [0; 8],
            done: false,
            at_barrier: false,
        }
    }

    /// CTA entry state — every register zero but `R1`, which the ABI starts
    /// at the top of the thread's local memory (stacks grow downward);
    /// predicates zero, `PT` set; one SIMT entry at `entry_pc`; `rows`, this
    /// warp's local memory, zero — whatever ran on this warp before.
    pub fn reset(&mut self, entry_pc: u64, local_size: u32, rows: &mut [Row]) {
        self.regs[..self.high].fill([0; WARP]);
        self.regs[Reg::SP.index()] = [local_size; WARP];
        self.high = Reg::SP.index() + 1;
        if self.stored.0 < self.stored.1 {
            rows[self.stored.0..self.stored.1].fill([0; WARP]);
        }
        self.stored = (usize::MAX, 0);
        self.preds = [0, 0, 0, 0, 0, 0, 0, u32::MAX];
        self.entries.clear();
        self.entries.push(Entry { pc: entry_pc, mask: self.lane_mask, retstack: Vec::new() });
        (self.done, self.at_barrier) = (false, false);
    }

    fn reg(&self, lane: usize, r: Reg) -> u32 {
        self.regs[r.index()][lane]
    }

    fn set_reg(&mut self, lane: usize, r: Reg, v: u32) {
        if !r.is_zero() {
            self.high = self.high.max(r.index() + 1);
            self.regs[r.index()][lane] = v;
        }
    }

    /// The 64-bit value of the pair starting at `r`; `R254`'s high half and
    /// both halves of `RZ` are the zero row.
    fn pair(&self, lane: usize, r: Reg) -> u64 {
        self.regs[r.index()][lane] as u64 | (self.regs[(r.index() + 1).min(255)][lane] as u64) << 32
    }

    fn set_pair(&mut self, lane: usize, r: Reg, v: u64) {
        self.set_reg(lane, r, v as u32);
        if r.index() + 1 < 255 {
            self.set_reg(lane, Reg(r.0 + 1), (v >> 32) as u32);
        }
    }

    /// Notes a store to local rows `rows` of this warp.
    fn store_to(&mut self, rows: std::ops::Range<usize>) {
        self.stored = (self.stored.0.min(rows.start), self.stored.1.max(rows.end));
    }

    /// The executing SIMT entry. The stack is never empty where this is
    /// called: `run_warp` drops empty entries and returns on an empty stack
    /// before it dispatches an instruction, and `SYNC`, which pops, checks
    /// its own underflow.
    fn top(&mut self) -> &mut Entry {
        self.entries.last_mut().expect("a dispatched instruction has an executing entry")
    }

    /// The row of a register-only (`RegR`) source position.
    fn row(&self, o: &Operand) -> Row {
        self.regs[reg(o).index()]
    }

    /// The row of a register-or-immediate (`RegRI`) source position.
    fn src(&self, o: &Operand) -> Row {
        match o {
            Operand::Reg(r) => self.regs[r.index()],
            Operand::Imm(v) => [*v as u32; WARP],
            _ => [0; WARP],
        }
    }

    /// [`Warp::pair`] of every lane: a straight loop over the two rows.
    fn pairs(&self, r: Reg) -> [u64; WARP] {
        let (low, high) = (&self.regs[r.index()], &self.regs[(r.index() + 1).min(255)]);
        std::array::from_fn(|l| low[l] as u64 | (high[l] as u64) << 32)
    }

    fn doubles(&self, r: Reg) -> [f64; WARP] {
        self.pairs(r).map(f64::from_bits)
    }

    /// [`fill`]s register `d`; writes to `RZ` are discarded.
    #[inline(always)]
    fn set(&mut self, d: Reg, exec: u32, f: impl Fn(usize) -> u32) {
        if !d.is_zero() {
            self.high = self.high.max(d.index() + 1);
            fill(&mut self.regs[d.index()], exec, f);
        }
    }

    /// [`Warp::set`] of the register pair starting at `d`.
    #[inline(always)]
    fn set_pairs(&mut self, d: Reg, exec: u32, f: impl Fn(usize) -> u64) {
        let v: [u64; WARP] = std::array::from_fn(f);
        self.set(d, exec, |l| v[l] as u32);
        if d.index() + 1 < 255 {
            self.set(Reg(d.0 + 1), exec, |l| (v[l] >> 32) as u32);
        }
    }

    #[inline(always)]
    fn zip(&mut self, d: Reg, exec: u32, a: &Row, b: &Row, f: impl Fn(u32, u32) -> u32) {
        self.set(d, exec, |l| f(a[l], b[l]));
    }

    #[inline(always)]
    fn zip_f32(&mut self, d: Reg, exec: u32, a: &Row, b: &Row, f: impl Fn(f32, f32) -> f32) {
        self.set(d, exec, |l| f(f32::from_bits(a[l]), f32::from_bits(b[l])).to_bits());
    }

    /// The lane-mask of a (possibly negated) predicate.
    fn pred(&self, (p, negated): (Pred, bool)) -> u32 {
        self.preds[p.index()] ^ if negated { u32::MAX } else { 0 }
    }

    /// Writes the lanes of `exec` in predicate `d` from the mask `m`.
    fn set_pred(&mut self, d: Pred, exec: u32, m: u32) {
        if !d.is_true_reg() {
            let p = &mut self.preds[d.index()];
            *p = *p & !exec | m & exec;
        }
    }
}

/// The execution context of one CTA.
pub(crate) struct CtaCtx {
    /// CTA coordinates within the grid.
    pub cta: Dim3,
    /// Linear CTA index.
    pub cta_linear: u64,
    pub shared: Vec<u8>,
    /// Local memory of every warp, interleaved by 32-bit word: thread
    /// `32 * w + lane`'s bytes `4 * word..4 * word + 4` (little-endian) are
    /// `local[w * local_words + word][lane]`.
    pub local: Vec<Row>,
    /// Rows per warp: the per-thread size rounded up to whole words.
    pub local_words: usize,
    /// Per-thread local-memory bytes; accesses are bounds-checked against
    /// this, not the rounded-up rows.
    pub local_size: usize,
}

/// What one CTA worker (the serial loop included) keeps for the length of a
/// launch and re-enters for each CTA it runs, instead of allocating a
/// register file and a local memory per CTA. It is born after the launch's
/// geometry is fixed and dropped with the launch: a worst-case block is
/// 16 MiB of local rows, not something to keep on the device.
pub(crate) struct LaunchState {
    pub warps: Vec<Warp>,
    pub cta: CtaCtx,
    pub pages: PageTable,
}

impl LaunchState {
    pub fn new(block_threads: u32, local_size: u32, shared_size: u32) -> LaunchState {
        let warps: Vec<Warp> = (0..block_threads.div_ceil(32))
            .map(|w| Warp::new(32 * w, (block_threads - 32 * w).min(32)))
            .collect();
        let local_words = local_size.div_ceil(4) as usize;
        LaunchState {
            cta: CtaCtx {
                cta: Dim3::linear(0),
                cta_linear: 0,
                shared: vec![0u8; shared_size.max(4) as usize],
                local: vec![[0u32; WARP]; warps.len() * local_words],
                local_words,
                local_size: local_size as usize,
            },
            warps,
            pages: std::array::from_fn(|_| None),
        }
    }

    /// Makes this the state of CTA `cta_linear` at its entry. A CTA cannot
    /// tell who ran here before it: shared memory is cleared whole, each
    /// warp clears the registers and local rows its predecessor wrote.
    pub fn enter(&mut self, cta: Dim3, cta_linear: u64, entry_pc: u64) {
        let CtaCtx { shared, local, local_words, local_size, .. } = &mut self.cta;
        shared.fill(0);
        for (w, warp) in self.warps.iter_mut().enumerate() {
            let rows = &mut local[w * *local_words..][..*local_words];
            warp.reset(entry_pc, *local_size as u32, rows);
        }
        (self.cta.cta, self.cta.cta_linear) = (cta, cta_linear);
    }
}

/// Start of the 4-byte access at `addr + 4 * k` in a `len`-byte space, or
/// `None` when any byte of it lies outside — including when the address
/// arithmetic wraps.
fn span(addr: u64, k: usize, len: usize) -> Option<usize> {
    let a = usize::try_from(addr.checked_add(4 * k as u64)?).ok()?;
    (a.checked_add(4)? <= len).then_some(a)
}

/// The little-endian word at byte `a` of `lane`'s local memory.
fn local_word(rows: &[Row], lane: usize, a: usize) -> u32 {
    match 8 * (a % 4) as u32 {
        0 => rows[a / 4][lane],
        sh => rows[a / 4][lane] >> sh | rows[a / 4 + 1][lane] << (32 - sh),
    }
}

fn set_local_word(rows: &mut [Row], lane: usize, a: usize, v: u32) {
    match 8 * (a % 4) as u32 {
        0 => rows[a / 4][lane] = v,
        sh => {
            let high = u32::MAX << sh;
            rows[a / 4][lane] = rows[a / 4][lane] & !high | v << sh;
            rows[a / 4 + 1][lane] = rows[a / 4 + 1][lane] & high | v >> (32 - sh);
        }
    }
}

/// Everything one CTA's execution needs. Shared state comes in behind
/// `Sync` references; mutable state (statistics, the step counter) is owned
/// per CTA, which is what makes the environment `Send`-able into a worker
/// thread and the collected results independent of the CTA schedule.
pub(crate) struct ExecEnv<'d> {
    pub spec: &'d DeviceSpec,
    pub mem: &'d SharedMem,
    pub code: &'d CodeCache,
    pub stats: CtaStats,
    pub grid: Dim3,
    pub block: Dim3,
    /// Constant bank 0; banks 1–3 are empty.
    pub cbank0: &'d [u8],
    /// Code-region labels for fault context (see `Device::label_code`).
    pub labels: &'d crate::device::CodeLabels,
    pub launch_id: u64,
    pub steps: u64,
    /// Producer half of the launch's tool record channel, when attached.
    pub chan: Option<&'d common::channel::ChannelDev>,
    /// The address each lane of the current `LDG`/`STG`/`ATOM`/`RED` forms,
    /// offset included: built once per warp instruction by `account_cost`,
    /// read by its line count and by the access itself.
    pub addrs: [u64; WARP],
}

impl<'d> ExecEnv<'d> {
    /// Builds an execution fault, locating `pc` in the labelled code
    /// regions so the report names the function and instruction index
    /// instead of a bare address.
    fn fault(&self, pc: u64, reason: impl Into<String>) -> GpuError {
        let mut reason = reason.into();
        if let Some((start, (end, name))) = self.labels.range(..=pc).next_back() {
            if pc < *end {
                let idx = (pc - start) / self.spec.arch.instruction_size() as u64;
                reason.push_str(&format!(" in `{name}` at instruction {idx}"));
            }
        }
        GpuError::Fault { pc, reason }
    }

    /// Runs one warp until it exits, faults, or reaches a CTA barrier.
    ///
    /// The current code page stays in a local, so a step whose pc stays in
    /// the page fetches with an index and a borrow; one that leaves it looks
    /// the new page up in `pages`, and in the shared cache only if this
    /// worker has not fetched it in this launch yet.
    pub fn run_warp(
        &mut self,
        warp: &mut Warp,
        cta: &mut CtaCtx,
        pages: &mut PageTable,
    ) -> Result<()> {
        // 8 or 16 bytes: a power of two, so alignment and the slot index
        // are a mask and a shift, not divisions by a runtime value.
        let isize = self.spec.arch.instruction_size();
        debug_assert!(isize.is_power_of_two());
        let slot_shift = isize.trailing_zeros();
        let codec = sass::codec::codec_for(self.spec.arch);
        let mut cur: Option<(u64, &CodePage)> = None;
        loop {
            // Drop empty entries.
            while matches!(warp.entries.last(), Some(e) if e.mask == 0) {
                warp.entries.pop();
            }
            let Some(top) = warp.entries.last() else {
                warp.done = true;
                return Ok(());
            };
            let pc = top.pc;
            let mask = top.mask;

            self.steps += 1;
            if self.steps > STEP_LIMIT {
                return Err(self.fault(pc, "step limit exceeded (runaway kernel)"));
            }

            if pc & (isize as u64 - 1) != 0 {
                return Err(self.fault(pc, "misaligned instruction fetch"));
            }
            if !matches!(cur, Some((base, _)) if pc.wrapping_sub(base) < PAGE) {
                let base = pc & !(PAGE - 1);
                let entry = &mut pages[(base / PAGE) as usize % pages.len()];
                if !matches!(entry, Some((b, _)) if *b == base) {
                    *entry = Some((base, self.code.page(self.mem, base, isize)));
                }
                cur = entry.as_ref().map(|(b, p)| (*b, &**p));
            }
            // Set above whenever the step left the page it held, or held none.
            let (base, page) = cur.expect("set above");
            let at = (pc - base) as usize;
            // A miss is counted by the one step that fills the slot (a step
            // that loses the race counts a hit), which keeps the launch's
            // total independent of the CTA schedule.
            let instr = match page.slots[at >> slot_shift].get_or_init(|| {
                self.stats.sum.decode_misses += 1;
                let word = &page.raw[at..at + isize];
                codec.decode(word).map_err(|e| format!("undecodable instruction: {e}"))
            }) {
                Ok(instr) => instr,
                Err(reason) => return Err(self.fault(pc, reason.as_str())),
            };
            // Classified once per step; statistics, the cost model and the
            // dispatch below all read these.
            let (cat, cf) = (instr.op.category(), instr.op.cf_class());
            let exec = mask & warp.pred((instr.guard.pred, instr.guard.negated));
            self.stats.record(instr.op, cat, exec);
            self.account_cost(warp, instr, cat, exec);

            if cf == CfClass::None {
                if exec != 0 {
                    self.execute(warp, cta, instr, exec, pc)?;
                }
                warp.top().pc = pc + isize as u64;
            } else if !self.control_flow(warp, instr, cf, exec, pc, isize as u64)? {
                return Ok(()); // barrier or done
            }
        }
    }

    /// Timing-model accounting, including memory-divergence cost.
    fn account_cost(&mut self, warp: &Warp, instr: &Instruction, cat: OpCategory, exec: u32) {
        let cost = &self.spec.cost;
        let mut cycles = cost.issue + cost.category[cat as usize];
        if exec != 0 && matches!(cat, OpCategory::MemGlobal | OpCategory::Atomic) {
            let mref = instr.operands.iter().find_map(|o| match o {
                Operand::MRef { base, offset } => Some((*base, *offset as i64 as u64)),
                _ => None,
            });
            // (An access without a reference does nothing in `execute`.)
            if let Some((base, offset)) = mref {
                self.addrs = warp.pairs(base).map(|a| a.wrapping_add(offset));
            }
        }
        let sum = &mut self.stats.sum;
        match cat {
            OpCategory::MemGlobal if exec != 0 => {
                let lines = global_lines(&self.addrs, exec, self.spec.cache_line as u64);
                sum.mem.global_lines += lines;
                cycles += cost.global_per_line * lines.saturating_sub(1);
                if instr.op.is_load() {
                    sum.mem.global_loads += 1;
                } else {
                    sum.mem.global_stores += 1;
                }
            }
            OpCategory::MemShared if exec != 0 => sum.mem.shared_accesses += 1,
            OpCategory::MemLocal if exec != 0 => sum.mem.local_accesses += 1,
            OpCategory::Atomic if exec != 0 => {
                sum.mem.atomics += exec.count_ones() as u64;
                cycles += cost.atomic_per_lane * exec.count_ones() as u64;
            }
            _ => {}
        }
        sum.cycles += cycles;
    }

    /// Handles a control-flow instruction; returns `false` when the caller
    /// must yield (barrier) or the warp finished.
    fn control_flow(
        &mut self,
        warp: &mut Warp,
        instr: &Instruction,
        cf: CfClass,
        exec: u32,
        pc: u64,
        isize: u64,
    ) -> Result<bool> {
        let next = pc + isize;
        let mask = warp.top().mask;
        match cf {
            CfClass::RelBranch | CfClass::AbsJump => {
                let (target, fall) = (target(instr, next), mask & !exec);
                let top = warp.top();
                if fall == 0 {
                    top.pc = target;
                } else if exec == 0 {
                    top.pc = next;
                } else {
                    // Divergence: fall-through stays in place, the taken
                    // path is pushed and executes first.
                    top.pc = next;
                    top.mask = fall;
                    let retstack = top.retstack.clone();
                    warp.entries.push(Entry { pc: target, mask: exec, retstack });
                }
                Ok(true)
            }
            CfClass::IndirectBranch => {
                if exec != mask {
                    return Err(self.fault(pc, "predicated BRX is unsupported"));
                }
                let r = reg(&instr.operands[0]);
                let mut targets = lanes(exec).map(|lane| warp.pair(lane, r));
                let target = targets.next().unwrap_or(next);
                if targets.any(|t| t != target) {
                    return Err(self.fault(pc, "divergent indirect branch"));
                }
                warp.top().pc = target;
                Ok(true)
            }
            CfClass::RelCall | CfClass::AbsCall => {
                if exec == 0 {
                    warp.top().pc = next;
                    return Ok(true);
                }
                if exec != mask {
                    return Err(self.fault(pc, "divergent call"));
                }
                let top = warp.top();
                if top.retstack.len() > 1024 {
                    return Err(self.fault(pc, "call stack overflow"));
                }
                top.retstack.push(next);
                top.pc = target(instr, next);
                Ok(true)
            }
            CfClass::Ret => {
                if exec == 0 {
                    warp.top().pc = next;
                    return Ok(true);
                }
                if exec != mask {
                    return Err(self.fault(pc, "divergent return"));
                }
                let top = warp.top();
                let ra = top
                    .retstack
                    .pop()
                    .ok_or_else(|| self.fault(pc, "RET with empty call stack"))?;
                top.pc = ra;
                Ok(true)
            }
            CfClass::Exit => {
                // An entry that survives a partially guarded EXIT moves on.
                // One that retires whole uncovers an entry that resumes at
                // its own pc — which may be this same EXIT, so the decision
                // is the executing entry's mask, not a pc comparison.
                // `run_warp` drops the emptied entries.
                if mask & !exec != 0 {
                    warp.top().pc = next;
                }
                for e in warp.entries.iter_mut() {
                    e.mask &= !exec;
                }
                Ok(true)
            }
            CfClass::Ssy => {
                // The reconvergence entry goes underneath the executing one.
                let top = warp.top();
                let reconverge = Entry { pc: target(instr, next), ..top.clone() };
                top.pc = next;
                warp.entries.insert(warp.entries.len() - 1, reconverge);
                Ok(true)
            }
            CfClass::Sync => {
                warp.entries.pop();
                if warp.entries.is_empty() {
                    return Err(
                        self.fault(pc, "SYNC with no reconvergence entry (stack underflow)")
                    );
                }
                Ok(true)
            }
            CfClass::Bar => {
                if exec != mask {
                    return Err(self.fault(pc, "divergent barrier"));
                }
                warp.top().pc = next;
                warp.at_barrier = true;
                Ok(false)
            }
            CfClass::Trap => Err(self.fault(pc, "breakpoint trap (BPT)")),
            CfClass::None => unreachable!("dispatched in run_warp"),
        }
    }

    /// Executes a non-control-flow instruction, reading its operands by
    /// format position (see the module doc). A special-register, constant or
    /// memory reference has no hardwired register to stand in for it, so an
    /// instruction without one does nothing.
    #[allow(clippy::too_many_lines)]
    fn execute(
        &mut self,
        warp: &mut Warp,
        cta: &mut CtaCtx,
        instr: &Instruction,
        exec: u32,
        pc: u64,
    ) -> Result<()> {
        let ops = &instr.operands;
        let f = f32::from_bits;
        let (sub, itype) = (instr.mods.sub, instr.mods.itype);
        let s32 = itype == IType::S32;

        match instr.op {
            Op::Nop | Op::Membar => {}
            Op::Mov | Op::Mov32i => {
                let v = warp.src(&ops[1]);
                warp.set(reg(&ops[0]), exec, |l| v[l]);
            }
            Op::Sel => {
                let (p, a, b) = (warp.pred(pred(&ops[3])), warp.row(&ops[1]), warp.src(&ops[2]));
                warp.set(reg(&ops[0]), exec, |l| if p >> l & 1 != 0 { a[l] } else { b[l] });
            }
            Op::S2r => {
                let Operand::SReg(sr) = ops[1] else { return Ok(()) };
                // Only the thread and lane indices differ between lanes.
                use SpecialReg::{LaneId, TidX, TidY, TidZ};
                let v: Row = if matches!(sr, TidX | TidY | TidZ | LaneId) {
                    std::array::from_fn(|lane| self.special(warp, cta, lane, sr, exec))
                } else {
                    [self.special(warp, cta, 0, sr, exec); WARP]
                };
                warp.set(reg(&ops[0]), exec, |l| v[l]);
            }
            Op::P2r => {
                let p = warp.preds;
                warp.set(reg(&ops[0]), exec, |l| {
                    (0..Pred::NUM_WRITABLE).fold(0, |v, i| v | (p[i] >> l & 1) << i)
                });
            }
            Op::R2p => {
                let v = warp.row(&ops[0]);
                for i in 0..Pred::NUM_WRITABLE {
                    warp.set_pred(Pred(i as u8), exec, lanes_where(|l| v[l] >> i & 1 != 0));
                }
            }
            Op::Shfl => {
                if !matches!(sub, SubOp::Idx | SubOp::Up | SubOp::Down | SubOp::Bfly) {
                    return Err(self.fault(pc, "SHFL with invalid mode"));
                }
                let (snapshot, b) = (warp.row(&ops[1]), warp.src(&ops[2]));
                warp.set(reg(&ops[0]), exec, |lane| {
                    let b = b[lane] as usize;
                    snapshot[match sub {
                        SubOp::Idx => b % WARP,
                        SubOp::Up if lane >= b => lane - b,
                        SubOp::Down if lane + b < WARP => lane + b,
                        SubOp::Bfly => lane ^ (b % WARP),
                        _ => lane,
                    }]
                });
            }
            Op::Vote => {
                let ballot = exec & warp.pred(pred(&ops[1]));
                let v = match sub {
                    SubOp::Ballot => ballot,
                    SubOp::All => u32::from(ballot == exec),
                    SubOp::Any => u32::from(ballot != 0),
                    _ => return Err(self.fault(pc, "VOTE with invalid mode")),
                };
                warp.set(reg(&ops[0]), exec, |_| v);
            }
            Op::Popc => {
                let v = warp.src(&ops[1]);
                warp.set(reg(&ops[0]), exec, |l| v[l].count_ones());
            }
            Op::Iadd | Op::Isub if itype == IType::U64 => {
                let a = warp.pairs(reg(&ops[1]));
                let b = match &ops[2] {
                    Operand::Reg(r) => warp.pairs(*r),
                    Operand::Imm(v) => [*v as u64; WARP],
                    _ => [0; WARP],
                };
                if instr.op == Op::Iadd {
                    warp.set_pairs(reg(&ops[0]), exec, |l| a[l].wrapping_add(b[l]));
                } else {
                    warp.set_pairs(reg(&ops[0]), exec, |l| a[l].wrapping_sub(b[l]));
                }
            }
            Op::Iadd
            | Op::Isub
            | Op::Imul
            | Op::Imnmx
            | Op::Shl
            | Op::Shr
            | Op::Lop
            | Op::Iadd32i => {
                let (d, a, b) = (reg(&ops[0]), reg(&ops[1]), warp.src(&ops[2]));
                if itype == IType::U64 && matches!(instr.op, Op::Shl | Op::Shr) {
                    let a = warp.pairs(a);
                    if instr.op == Op::Shl {
                        warp.set_pairs(d, exec, |l| a[l].wrapping_shl(b[l] & 63));
                    } else {
                        warp.set_pairs(d, exec, |l| a[l] >> (b[l] & 63));
                    }
                    return Ok(());
                }
                let a = warp.regs[a.index()];
                match (instr.op, sub) {
                    (Op::Iadd | Op::Iadd32i, _) => warp.zip(d, exec, &a, &b, u32::wrapping_add),
                    (Op::Isub, _) => warp.zip(d, exec, &a, &b, u32::wrapping_sub),
                    (Op::Imul, _) => warp.zip(d, exec, &a, &b, u32::wrapping_mul),
                    (Op::Imnmx, SubOp::Min) if s32 => {
                        warp.zip(d, exec, &a, &b, |x, y| (x as i32).min(y as i32) as u32);
                    }
                    (Op::Imnmx, SubOp::Min) => warp.zip(d, exec, &a, &b, u32::min),
                    (Op::Imnmx, SubOp::Max) if s32 => {
                        warp.zip(d, exec, &a, &b, |x, y| (x as i32).max(y as i32) as u32);
                    }
                    (Op::Imnmx, _) => warp.zip(d, exec, &a, &b, u32::max),
                    (Op::Shl, _) => warp.zip(d, exec, &a, &b, |x, y| x.wrapping_shl(y & 31)),
                    (Op::Shr, _) if s32 => {
                        warp.zip(d, exec, &a, &b, |x, y| ((x as i32) >> (y & 31)) as u32);
                    }
                    (Op::Shr, _) => warp.zip(d, exec, &a, &b, |x, y| x >> (y & 31)),
                    (Op::Lop, SubOp::And) => warp.zip(d, exec, &a, &b, |x, y| x & y),
                    (Op::Lop, SubOp::Or) => warp.zip(d, exec, &a, &b, |x, y| x | y),
                    (Op::Lop, SubOp::Xor) => warp.zip(d, exec, &a, &b, |x, y| x ^ y),
                    (Op::Lop, SubOp::Not) => warp.zip(d, exec, &a, &b, |_, y| !y),
                    _ => return Err(self.fault(pc, "LOP with invalid mode")),
                }
            }
            Op::Imad => {
                let (d, a, b) = (reg(&ops[0]), warp.row(&ops[1]), warp.row(&ops[2]));
                if itype == IType::U64 {
                    let c = warp.pairs(reg(&ops[3]));
                    warp.set_pairs(d, exec, |l| {
                        (a[l] as u64).wrapping_mul(b[l] as u64).wrapping_add(c[l])
                    });
                } else {
                    let c = warp.row(&ops[3]);
                    warp.set(d, exec, |l| a[l].wrapping_mul(b[l]).wrapping_add(c[l]));
                }
            }
            Op::Isetp => {
                let (a, b) = (warp.row(&ops[1]), warp.src(&ops[2]));
                let m = if s32 {
                    cmp_mask(instr.mods.cmp, &a.map(|v| v as i32), &b.map(|v| v as i32))
                } else {
                    cmp_mask(instr.mods.cmp, &a, &b)
                };
                warp.set_pred(pred(&ops[0]).0, exec, m);
            }
            Op::Psetp => {
                let (a, b) = (warp.pred(pred(&ops[1])), warp.pred(pred(&ops[2])));
                let m = match sub {
                    SubOp::And => a & b,
                    SubOp::Or => a | b,
                    SubOp::Xor => a ^ b,
                    _ => return Err(self.fault(pc, "PSETP with invalid mode")),
                };
                warp.set_pred(pred(&ops[0]).0, exec, m);
            }
            Op::Fadd | Op::Fmul | Op::Fmnmx => {
                let (d, a, b) = (reg(&ops[0]), warp.row(&ops[1]), warp.src(&ops[2]));
                match (instr.op, sub) {
                    (Op::Fadd, _) => warp.zip_f32(d, exec, &a, &b, |x, y| x + y),
                    (Op::Fmul, _) => warp.zip_f32(d, exec, &a, &b, |x, y| x * y),
                    (_, SubOp::Min) => warp.zip_f32(d, exec, &a, &b, f32::min),
                    _ => warp.zip_f32(d, exec, &a, &b, f32::max),
                }
            }
            Op::Ffma => {
                let (a, b, c) = (warp.row(&ops[1]), warp.row(&ops[2]), warp.row(&ops[3]));
                warp.set(reg(&ops[0]), exec, |l| f(a[l]).mul_add(f(b[l]), f(c[l])).to_bits());
            }
            Op::Fsetp => {
                let (a, b) = (warp.row(&ops[1]).map(f), warp.src(&ops[2]).map(f));
                warp.set_pred(pred(&ops[0]).0, exec, cmp_mask(instr.mods.cmp, &a, &b));
            }
            Op::Mufu => {
                let g: fn(f32) -> f32 = match sub {
                    SubOp::Rcp => |v| 1.0 / v,
                    SubOp::Sqrt => f32::sqrt,
                    SubOp::Rsq => |v| 1.0 / v.sqrt(),
                    SubOp::Sin => f32::sin,
                    SubOp::Cos => f32::cos,
                    SubOp::Ex2 => f32::exp2,
                    SubOp::Lg2 => f32::log2,
                    _ => return Err(self.fault(pc, "MUFU with invalid mode")),
                };
                let a = warp.row(&ops[1]);
                warp.set(reg(&ops[0]), exec, |l| g(f(a[l])).to_bits());
            }
            Op::Dadd | Op::Dmul => {
                let (a, b) = (warp.doubles(reg(&ops[1])), warp.doubles(reg(&ops[2])));
                if instr.op == Op::Dadd {
                    warp.set_pairs(reg(&ops[0]), exec, |l| (a[l] + b[l]).to_bits());
                } else {
                    warp.set_pairs(reg(&ops[0]), exec, |l| (a[l] * b[l]).to_bits());
                }
            }
            Op::Dfma => {
                let [a, b, c] = [1, 2, 3].map(|i| warp.doubles(reg(&ops[i])));
                warp.set_pairs(reg(&ops[0]), exec, |l| a[l].mul_add(b[l], c[l]).to_bits());
            }
            Op::Dsetp => {
                let (a, b) = (warp.doubles(reg(&ops[1])), warp.doubles(reg(&ops[2])));
                warp.set_pred(pred(&ops[0]).0, exec, cmp_mask(instr.mods.cmp, &a, &b));
            }
            Op::I2f => {
                let v = warp.src(&ops[1]);
                if s32 {
                    warp.set(reg(&ops[0]), exec, |l| (v[l] as i32 as f32).to_bits());
                } else {
                    warp.set(reg(&ops[0]), exec, |l| (v[l] as f32).to_bits());
                }
            }
            Op::F2i | Op::F2d => {
                let (d, a) = (reg(&ops[0]), warp.row(&ops[1]));
                match (instr.op, s32) {
                    (Op::F2d, _) => warp.set_pairs(d, exec, |l| (f(a[l]) as f64).to_bits()),
                    (_, true) => warp.set(d, exec, |l| f(a[l]) as i32 as u32),
                    (_, false) => warp.set(d, exec, |l| f(a[l]) as u32),
                }
            }
            Op::D2f => {
                let a = warp.pairs(reg(&ops[1]));
                warp.set(reg(&ops[0]), exec, |l| (f64::from_bits(a[l]) as f32).to_bits());
            }
            Op::Ldg | Op::Stg | Op::Lds | Op::Sts | Op::Ldl | Op::Stl => {
                self.load_store(warp, cta, instr, exec, pc)?;
            }
            Op::Ldc => {
                let Operand::CBank { bank, base, offset } = ops[1] else { return Ok(()) };
                let d = reg(&ops[0]);
                let nregs = self.span_regs(d, instr, pc)?;
                let bank_data = if bank == 0 { self.cbank0 } else { &[] };
                // Row path: a warp-uniform address (every `c[0x0][param]`
                // load, whose base is `RZ`) whose words are all in the bank
                // reads each word once for the whole warp.
                let at = |b: u32| b as usize + offset as usize;
                let words = uniform(&warp.regs[base.index()], exec)
                    .and_then(|b| bank_data.get(at(b)..at(b) + 4 * nregs));
                if let Some(words) = words {
                    for (k, w) in words.chunks_exact(4).enumerate() {
                        let v = u32::from_le_bytes(std::array::from_fn(|j| w[j]));
                        warp.set(Reg(base_plus(d, k)), exec, |_| v);
                    }
                    return Ok(());
                }
                for lane in lanes(exec) {
                    let idx = warp.reg(lane, base) as usize + offset as usize;
                    for k in 0..nregs {
                        let off = idx + 4 * k;
                        let Some(word) = bank_data.get(off..).and_then(<[u8]>::first_chunk) else {
                            return Err(self.fault(
                                pc,
                                format!("constant read out of bounds: c[{bank}][0x{off:x}]"),
                            ));
                        };
                        warp.set_reg(lane, Reg(base_plus(d, k)), u32::from_le_bytes(*word));
                    }
                }
            }
            Op::Atom | Op::Red => self.atomic(warp, instr, exec, pc)?,
            Op::Proxy => {
                let id = instr.operands.get(2).and_then(|o| o.as_imm()).unwrap_or(-1);
                return Err(self.fault(
                    pc,
                    format!(
                        "PROXY instruction (id 0x{id:x}) has no hardware implementation — \
                         emulate it with an instrumentation tool"
                    ),
                ));
            }
            Op::Chan => {
                let Some(chan) = self.chan else {
                    return Err(self.fault(
                        pc,
                        "CHAN instruction with no channel attached — attach a \
                         ChannelDev to the device before launching",
                    ));
                };
                // One record per executing lane, in lane order, tagged with
                // the CTA-linear index: per-CTA streams are push-ordered, so
                // the drained trace is scheduler-independent after per-tag
                // reassembly. The warp's records go out as one row.
                let (all, mut row, mut n) = (warp.pairs(reg(&ops[0])), [0u64; WARP], 0);
                for lane in lanes(exec) {
                    row[n] = all[lane];
                    n += 1;
                }
                chan.push_row(cta.cta_linear, &row[..n]);
            }
            _ => {
                return Err(self.fault(pc, format!("unimplemented opcode {}", instr.op.mnemonic())))
            }
        }
        Ok(())
    }

    fn special(&self, warp: &Warp, cta: &CtaCtx, lane: usize, sr: SpecialReg, exec: u32) -> u32 {
        // The thread's index in the block is a division per component: only
        // the `SR_TID` arms pay for theirs.
        let flat = warp.base_tid + lane as u32;
        let b = self.block;
        match sr {
            SpecialReg::TidX => flat % b.x,
            SpecialReg::TidY => (flat / b.x) % b.y,
            SpecialReg::TidZ => flat / (b.x * b.y),
            SpecialReg::NTidX => b.x,
            SpecialReg::NTidY => b.y,
            SpecialReg::NTidZ => b.z,
            SpecialReg::CtaIdX => cta.cta.x,
            SpecialReg::CtaIdY => cta.cta.y,
            SpecialReg::CtaIdZ => cta.cta.z,
            SpecialReg::NCtaIdX => self.grid.x,
            SpecialReg::NCtaIdY => self.grid.y,
            SpecialReg::NCtaIdZ => self.grid.z,
            SpecialReg::LaneId => lane as u32,
            SpecialReg::WarpId => warp.base_tid / 32,
            SpecialReg::SmId => (cta.cta_linear % self.spec.num_sms as u64) as u32,
            SpecialReg::Clock => self.stats.sum.cycles as u32,
            SpecialReg::ActiveMask => exec,
            SpecialReg::GridId => self.launch_id as u32,
            SpecialReg::BarrierState => {
                // ABI v2 convergence state: stack depth in the high half,
                // call depth in the low half (saved/restored cosmetically by
                // the instrumentation save routines).
                let top = warp.entries.last();
                ((warp.entries.len() as u32) << 16)
                    | top.map(|e| e.retstack.len() as u32).unwrap_or(0)
            }
        }
    }

    /// The number of registers a load or store of `instr`'s width moves
    /// from or into `r`: the span must end inside the register file, and a
    /// span starting at `RZ` reads zeros and discards its writes.
    fn span_regs(&self, r: Reg, instr: &Instruction, pc: u64) -> Result<usize> {
        let nregs = instr.mods.width.regs();
        if r.index() + nregs > 255 && !r.is_zero() {
            return Err(self.fault(pc, "register quad out of range"));
        }
        Ok(nregs)
    }

    fn load_store(
        &mut self,
        warp: &mut Warp,
        cta: &mut CtaCtx,
        instr: &Instruction,
        exec: u32,
        pc: u64,
    ) -> Result<()> {
        let is_load = instr.op.is_load();
        let ops = &instr.operands;
        let (rv, mref) = if is_load { (reg(&ops[0]), &ops[1]) } else { (reg(&ops[1]), &ops[0]) };
        let Operand::MRef { base, offset } = mref else { return Ok(()) };
        let nregs = self.span_regs(rv, instr, pc)?;
        // `execute` sends only the six loads and stores here, each of which
        // names its space.
        let space = instr.op.mem_space().unwrap();
        let offset = *offset as i64 as u64;
        let CtaCtx { shared, local, local_words, local_size, .. } = cta;
        let rows = &mut local[warp.base_tid as usize / WARP * *local_words..][..*local_words];

        // Row path: the active lanes of a local access share one 4-aligned,
        // in-bounds address, so each register moves as one masked row.
        let first = (space == MemSpace::Local).then(|| uniform(&warp.regs[base.index()], exec));
        if let Some(first) = first.flatten() {
            let addr = (first as u64).wrapping_add(offset);
            if addr.is_multiple_of(4) && span(addr, nregs - 1, *local_size).is_some() {
                if !is_load {
                    warp.store_to(addr as usize / 4..addr as usize / 4 + nregs);
                }
                for k in 0..nregs {
                    let (r, row) = (Reg(base_plus(rv, k)), &mut rows[addr as usize / 4 + k]);
                    if is_load {
                        warp.set(r, exec, |l| row[l]);
                    } else {
                        fill(row, exec, |l| warp.regs[r.index()][l]);
                    }
                }
                return Ok(());
            }
        }
        // Row path: every active lane's global words are 4-aligned and in
        // bounds — validated for all lanes before any is touched — so a load
        // fills each register as a row; a store stays lane-major, because
        // the words of neighbouring lanes' wide stores may overlap.
        let row = (space == MemSpace::Global).then(|| self.mem.row(&self.addrs, exec, nregs));
        if let Some(word) = row.flatten() {
            if is_load {
                for k in 0..nregs {
                    warp.set(Reg(base_plus(rv, k)), exec, |l| word(l, k).load(Ordering::Relaxed));
                }
            } else {
                for lane in lanes(exec) {
                    for k in 0..nregs {
                        let v = warp.reg(lane, Reg(base_plus(rv, k)));
                        word(lane, k).store(v, Ordering::Relaxed);
                    }
                }
            }
            return Ok(());
        }

        let what = match (space, is_load) {
            (MemSpace::Shared, true) => "shared load",
            (MemSpace::Shared, false) => "shared store",
            (_, true) => "local load",
            (_, false) => "local store",
        };
        for lane in lanes(exec) {
            // Global addresses are 64-bit; shared and local addresses 32-bit.
            let addr = match space {
                MemSpace::Shared | MemSpace::Local => {
                    (warp.reg(lane, *base) as u64).wrapping_add(offset)
                }
                _ => self.addrs[lane],
            };
            for k in 0..nregs {
                let a = addr.wrapping_add(4 * k as u64);
                let r = Reg(base_plus(rv, k));
                match (space, is_load) {
                    (MemSpace::Global, true) => {
                        let v = self.mem.load(a).map_err(|_| {
                            self.fault(pc, format!("global load fault at 0x{a:x} (lane {lane})"))
                        })?;
                        warp.set_reg(lane, r, v);
                    }
                    (MemSpace::Global, false) => {
                        self.mem.store(a, warp.reg(lane, r)).map_err(|_| {
                            self.fault(pc, format!("global store fault at 0x{a:x} (lane {lane})"))
                        })?;
                    }
                    (MemSpace::Constant, _) => unreachable!("LDC handled separately"),
                    _ => {
                        let len =
                            if space == MemSpace::Shared { shared.len() } else { *local_size };
                        let i = span(addr, k, len).ok_or_else(|| {
                            self.fault(pc, format!("{what} out of bounds at 0x{a:x}"))
                        })?;
                        match (space, is_load) {
                            (MemSpace::Shared, true) => {
                                let v = u32::from_le_bytes(std::array::from_fn(|j| shared[i + j]));
                                warp.set_reg(lane, r, v);
                            }
                            (MemSpace::Shared, false) => {
                                shared[i..i + 4].copy_from_slice(&warp.reg(lane, r).to_le_bytes());
                            }
                            (_, true) => warp.set_reg(lane, r, local_word(rows, lane, i)),
                            (_, false) => {
                                set_local_word(rows, lane, i, warp.reg(lane, r));
                                warp.store_to(i / 4..(i + 4).div_ceil(4));
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn atomic(&mut self, warp: &mut Warp, instr: &Instruction, exec: u32, pc: u64) -> Result<()> {
        // `RED` returns nothing: its old values go to `RZ`. (The addresses
        // were formed from the reference by `account_cost`.)
        let ops = &instr.operands;
        let (d, mref, src, src2) = if instr.op == Op::Atom {
            (reg(&ops[0]), &ops[1], reg(&ops[2]), reg(&ops[3]))
        } else {
            (Reg::RZ, &ops[0], reg(&ops[1]), reg(&ops[1]))
        };
        if !matches!(mref, Operand::MRef { .. }) {
            return Ok(());
        }
        let wide = instr.mods.itype == IType::U64;
        // `(old, operand, CAS swap value) -> new`, of which the low 4 (wide:
        // 8) bytes are stored: chosen, and so validated, once for the warp.
        let op: fn(u64, u64, u64) -> u64 = match (instr.mods.sub, instr.mods.itype) {
            (SubOp::Add, IType::F32) => {
                |old, v, _| (f32::from_bits(old as u32) + f32::from_bits(v as u32)).to_bits() as u64
            }
            (SubOp::Add, _) => |old, v, _| old.wrapping_add(v),
            (SubOp::Min, IType::S32) => |old, v, _| (old as i32).min(v as i32) as u32 as u64,
            (SubOp::Min, _) => |old, v, _| old.min(v),
            (SubOp::Max, IType::S32) => |old, v, _| (old as i32).max(v as i32) as u32 as u64,
            (SubOp::Max, _) => |old, v, _| old.max(v),
            (SubOp::And, _) => |old, v, _| old & v,
            (SubOp::Or, _) => |old, v, _| old | v,
            (SubOp::Xor, _) => |old, v, _| old ^ v,
            (SubOp::Exch, _) => |_, v, _| v,
            (SubOp::Cas, _) => |old, v, swap| if old == v { swap } else { old },
            _ => return Err(self.fault(pc, "atomic with invalid operation")),
        };
        // One lock round-trip per warp instruction: holding it across the
        // lanes, applied in ascending order, is a legal linearisation.
        let atomics = self.mem.atomics();
        for lane in lanes(exec) {
            let addr = self.addrs[lane];
            let (sv, s2v) = if wide {
                (warp.pair(lane, src), warp.pair(lane, src2))
            } else {
                (warp.reg(lane, src) as u64, warp.reg(lane, src2) as u64)
            };
            let old = atomics
                .rmw(addr, wide, |old| op(old, sv, s2v))
                .map_err(|_| self.fault(pc, format!("atomic fault at 0x{addr:x}")))?;
            if wide {
                warp.set_pair(lane, d, old);
            } else {
                warp.set_reg(lane, d, old as u32);
            }
        }
        Ok(())
    }
}

/// Number of distinct cache lines the lanes of `exec` touch at `addrs`. The
/// line of an address is a shift when the line size is a power of two, and a
/// lane on the line of the active lane before it — every lane but the first
/// of a coalesced access — needs no search.
fn global_lines(addrs: &[u64; WARP], exec: u32, line: u64) -> u64 {
    let shift = line.is_power_of_two().then(|| line.trailing_zeros());
    let (mut lines, mut n, mut prev) = ([0u64; WARP], 0, None);
    for lane in lanes(exec) {
        let l = shift.map_or_else(|| addrs[lane] / line, |s| addrs[lane] >> s);
        if prev != Some(l) && !lines[..n].contains(&l) {
            lines[n] = l;
            n += 1;
        }
        prev = Some(l);
    }
    n as u64
}

fn base_plus(r: Reg, k: usize) -> u8 {
    if r.is_zero() {
        255
    } else {
        (r.index() + k).min(254) as u8
    }
}

#[cfg(test)]
mod tests {
    use crate::{Device, DeviceSpec, Dim3, GpuError, LaunchConfig};
    use sass::{asm, codec::codec_for, Arch};

    /// A Volta test device with `text` assembled into it, and its address.
    fn load(text: &str) -> (Device, u64) {
        let mut dev = Device::new(DeviceSpec::test(Arch::Volta));
        let prog = asm::assemble_arch(text, Arch::Volta).unwrap();
        let code = codec_for(Arch::Volta).encode_stream(&prog).unwrap();
        let addr = dev.alloc(code.len() as u64).unwrap();
        dev.write(addr, &code).unwrap();
        (dev, addr)
    }

    fn run(text: &str) -> crate::Result<crate::ExecStats> {
        let (mut dev, addr) = load(text);
        dev.launch(&LaunchConfig::new(addr, Dim3::linear(1), Dim3::linear(32)))
    }

    /// Runs `text` on one warp with a zeroed `words`-word buffer (starting
    /// with `init`) as its parameter; returns the buffer.
    fn run_on_buffer(text: &str, words: usize, init: &[u8]) -> Vec<u32> {
        let (mut dev, pc) = load(text);
        let buf = dev.alloc(4 * words as u64).unwrap();
        dev.write(buf, init).unwrap();
        let mut cfg = LaunchConfig::new(pc, Dim3::linear(1), Dim3::linear(32));
        cfg.push_param_u64(buf);
        dev.launch(&cfg).unwrap();
        let mut out = vec![0u8; 4 * words];
        dev.read(buf, &mut out).unwrap();
        out.chunks_exact(4).map(|w| u32::from_le_bytes(w.try_into().unwrap())).collect()
    }

    /// The little-endian `len`-byte (≤ 8) scalar at `addr` of `dev`.
    fn scalar(dev: &Device, addr: u64, len: usize) -> u64 {
        let mut v = [0u8; 8];
        dev.read(addr, &mut v[..len]).unwrap();
        u64::from_le_bytes(v)
    }

    /// A negative or wrapping shared/local address is an out-of-bounds
    /// fault like any other — in debug builds (where the address sum used
    /// to overflow) and in release builds (where it used to wrap into a
    /// slice-index panic) alike. The `.64` cases wrap on the second register.
    fn assert_oob(cases: &[(&str, &str)]) {
        for (text, what) in cases {
            match run(&format!("{text}\nEXIT ;")) {
                Err(GpuError::Fault { reason, .. }) => assert!(reason.contains(what), "{reason}"),
                other => panic!("`{text}`: expected fault, got {other:?}"),
            }
        }
    }

    #[test]
    fn lds_at_a_hostile_address_faults_instead_of_panicking() {
        assert_oob(&[
            ("LDS R4, [RZ-0x1] ;", "shared load out of bounds at 0xffffffffffffffff"),
            ("LDS.64 R4, [RZ-0x4] ;", "shared load out of bounds at 0xfffffffffffffffc"),
        ]);
    }

    #[test]
    fn sts_at_a_hostile_address_faults_instead_of_panicking() {
        assert_oob(&[
            ("STS [RZ-0x1], R4 ;", "shared store out of bounds at 0xffffffffffffffff"),
            ("STS.64 [RZ-0x4], R4 ;", "shared store out of bounds at 0xfffffffffffffffc"),
        ]);
    }

    #[test]
    fn ldl_at_a_hostile_address_faults_instead_of_panicking() {
        assert_oob(&[
            ("LDL R4, [RZ-0x1] ;", "local load out of bounds at 0xffffffffffffffff"),
            ("LDL.64 R4, [RZ-0x4] ;", "local load out of bounds at 0xfffffffffffffffc"),
            // Past the end by less than one access.
            ("LDL R4, [R1-0x2] ;", "local load out of bounds"),
        ]);
    }

    #[test]
    fn stl_at_a_hostile_address_faults_instead_of_panicking() {
        assert_oob(&[
            ("STL [RZ-0x1], R4 ;", "local store out of bounds at 0xffffffffffffffff"),
            ("STL.64 [RZ-0x4], R4 ;", "local store out of bounds at 0xfffffffffffffffc"),
        ]);
    }

    /// `R2P` then `P2R` and the three `VOTE` modes, under an execution mask
    /// that a data-dependent early `EXIT` thins to a random subset, against
    /// a lane-by-lane reference.
    #[test]
    fn predicate_masks_agree_with_a_lane_by_lane_reference() {
        let text = "\
LDC.64 R6, c[0x0][0x160] ;\n\
S2R R4, SR_LANEID ;\n\
SHL R8, R4, 0x4 ;\n\
MOV R9, RZ ;\n\
IADD.U64 R6, R6, R8 ;\n\
LDG R10, [R6] ;\n\
LOP.AND R11, R10, 0x100 ;\n\
ISETP.NE.U32 P0, R11, RZ ;\n\
@P0 EXIT ;\n\
R2P R10 ;\n\
P2R R12 ;\n\
VOTE.BALLOT R13, P0 ;\n\
VOTE.ALL R14, P1 ;\n\
VOTE.ANY R15, !P2 ;\n\
SHL R14, R14, 0x1 ;\n\
LOP.OR R14, R14, R15 ;\n\
STG [R6+0x4], R12 ;\n\
STG [R6+0x8], R13 ;\n\
STG [R6+0xc], R14 ;\n\
EXIT ;";
        let mut rng = common::Rng::seed_from_u64(0x7e57);
        for case in 0..64 {
            // Bit 8 retires the lane early; bits 0..7 become P0..P6. Early
            // cases force the all/any/none corners.
            let words: Vec<u32> = (0..32)
                .map(|_| match case {
                    0 => 0x002,
                    1 => 0x0fb,
                    2 => 0x1ff,
                    _ => rng.next_u32() & if case % 2 == 0 { 0x1ff } else { 0x0ff },
                })
                .collect();
            let mut dev = Device::new(DeviceSpec::test(Arch::Volta));
            let prog = asm::assemble_arch(text, Arch::Volta).unwrap();
            let code = codec_for(Arch::Volta).encode_stream(&prog).unwrap();
            let pc = dev.alloc(code.len() as u64).unwrap();
            dev.write(pc, &code).unwrap();
            let buf = dev.alloc(32 * 16).unwrap();
            let init: Vec<u8> =
                words.iter().flat_map(|w| [*w, 0, 0, 0]).flat_map(u32::to_le_bytes).collect();
            dev.write(buf, &init).unwrap();
            let mut cfg = LaunchConfig::new(pc, Dim3::linear(1), Dim3::linear(32));
            cfg.push_param_u64(buf);
            dev.launch(&cfg).unwrap();
            let mut out = vec![0u8; init.len()];
            dev.read(buf, &mut out).unwrap();
            let got: Vec<u32> =
                out.chunks_exact(4).map(|w| u32::from_le_bytes(w.try_into().unwrap())).collect();

            let active: Vec<usize> = (0..32).filter(|l| words[*l] & 0x100 == 0).collect();
            let ballot = active.iter().fold(0u32, |m, l| m | (words[*l] & 1) << l);
            let all = active.iter().all(|l| words[*l] & 2 != 0) as u32;
            let any = active.iter().any(|l| words[*l] & 4 == 0) as u32;
            for lane in 0..32 {
                let want = if active.contains(&lane) {
                    [words[lane], words[lane] & 0x7f, ballot, all << 1 | any]
                } else {
                    [words[lane], 0, 0, 0]
                };
                assert_eq!(got[4 * lane..4 * lane + 4], want, "case {case}, lane {lane}");
            }
        }
    }

    /// One thread per lane adds 1 to a word holding `0xffff_fffe`: the sum
    /// wraps inside its 32 bits, lanes apply in ascending order (each sees
    /// its predecessor's result) and the word behind it is not touched.
    #[test]
    fn atom_add_u32_wraps_within_its_word_and_applies_lanes_in_order() {
        let text = "\
LDC.64 R6, c[0x0][0x160] ;\n\
MOV32I R5, 0x1 ;\n\
ATOM.ADD.U32 R8, [R6], R5, RZ ;\n\
S2R R4, SR_LANEID ;\n\
SHL R10, R4, 0x2 ;\n\
MOV R11, RZ ;\n\
IADD.U64 R6, R6, R10 ;\n\
STG [R6+0x8], R8 ;\n\
EXIT ;";
        let got = run_on_buffer(text, 2 + 32, &[0xfe, 0xff, 0xff, 0xff, 0x77, 0x77, 0x77, 0x77]);
        assert_eq!(got[..2], [30, 0x7777_7777]);
        let olds: Vec<u32> = (0..32u32).map(|l| 0xffff_fffeu32.wrapping_add(l)).collect();
        assert_eq!(got[2..], olds);
    }

    /// 64-bit atomics on a pair of words that is 4-aligned but not
    /// 8-aligned: 32 lanes' `ADD`s carry from the low word into the high one,
    /// then one lane's `CAS` matches the sum and swaps both words.
    #[test]
    fn wide_atomics_work_at_a_four_aligned_address() {
        let text = "\
LDC.64 R6, c[0x0][0x160] ;\n\
MOV32I R4, 0x1 ;\n\
MOV R5, RZ ;\n\
ATOM.ADD.U64 R8, [R6+0x4], R4, RZ ;\n\
S2R R14, SR_LANEID ;\n\
ISETP.NE.U32 P0, R14, RZ ;\n\
@P0 EXIT ;\n\
MOV32I R10, 0x10 ;\n\
MOV32I R11, 0x1 ;\n\
MOV32I R12, 0x55 ;\n\
MOV32I R13, 0x66 ;\n\
ATOM.CAS.U64 R16, [R6+0x4], R10, R12 ;\n\
STG [R6+0x10], R16 ;\n\
STG [R6+0x14], R17 ;\n\
EXIT ;";
        let init: Vec<u8> = [0x7777_7777u32, 0xffff_fff0, 0, 0x7777_7777]
            .into_iter()
            .flat_map(u32::to_le_bytes)
            .collect();
        let got = run_on_buffer(text, 6, &init);
        assert_eq!(got, [0x7777_7777, 0x55, 0x66, 0x7777_7777, 0x10, 0x1]);
    }

    /// `global_lines` against sorting and deduplicating the lines, over
    /// random masks, line sizes (powers of two and not) and address shapes.
    #[test]
    fn global_lines_agrees_with_a_sort_and_dedup_reference() {
        use super::{global_lines, WARP};
        let mut rng = common::Rng::seed_from_u64(0x11e5);
        for case in 0..1000 {
            let base = rng.next_u64() >> 20;
            let stride = rng.gen_range(1u64..600);
            let addrs: [u64; WARP] = match case % 5 {
                0 => std::array::from_fn(|l| base + 4 * l as u64),
                1 => std::array::from_fn(|l| base + stride * l as u64),
                2 => std::array::from_fn(|_| base + rng.gen_range(0u64..4096)),
                3 => [base; WARP],
                _ => std::array::from_fn(|l| base + stride * (WARP - l) as u64),
            };
            let exec = match case % 7 {
                0 => u32::MAX,
                1 => 1 << rng.gen_range(0u32..32),
                _ => rng.next_u32() | 1 << rng.gen_range(0u32..32),
            };
            let line = *rng.choose(&[128u64, 32, 96, 1, 100, 256]);
            let mut want: Vec<u64> =
                (0..WARP).filter(|l| exec >> l & 1 != 0).map(|l| addrs[l] / line).collect();
            want.sort_unstable();
            want.dedup();
            assert_eq!(global_lines(&addrs, exec, line), want.len() as u64, "case {case}");
        }
    }

    /// `LDC` follows the register-span rule of the other loads: a wide load
    /// into `RZ` discards every word instead of wrapping into `R0`, and one
    /// that would run past `R254` faults instead of wrapping into `R0`/`R1`.
    #[test]
    fn ldc_follows_the_register_span_rule_of_the_other_loads() {
        let text = "\
MOV32I R0, 0x7 ;\n\
LDC.64 RZ, c[0x0][0x160] ;\n\
LDC.64 R6, c[0x0][0x160] ;\n\
STG [R6], R0 ;\n\
EXIT ;";
        assert_eq!(run_on_buffer(text, 1, &[0]), [7], "R0 keeps its value");
        match run("LDC.128 R254, c[0x0][0x0] ;\nEXIT ;") {
            Err(GpuError::Fault { reason, .. }) => {
                assert!(reason.contains("register quad out of range"), "{reason}")
            }
            other => panic!("expected fault, got {other:?}"),
        }
    }

    /// `LDC` through a register base: one that holds the same value in every
    /// lane reads that address for the whole warp, under a full mask and
    /// under a guard; one that differs per lane reads each lane's own word.
    #[test]
    fn ldc_through_a_uniform_and_a_per_lane_register_base() {
        let text = "\
LDC.64 R6, c[0x0][0x160] ;\n\
S2R R4, SR_LANEID ;\n\
SHL R8, R4, 0x4 ;\n\
MOV R9, RZ ;\n\
IADD.U64 R6, R6, R8 ;\n\
MOV32I R2, 0x8 ;\n\
LDC.64 R10, c[0x0][R2+0x160] ;\n\
SHL R14, R4, 0x2 ;\n\
LDC R12, c[0x0][R14+0x16c] ;\n\
LOP.AND R5, R4, 0x1 ;\n\
ISETP.NE.U32 P0, R5, RZ ;\n\
MOV R13, RZ ;\n\
@P0 LDC R13, c[0x0][R2+0x168] ;\n\
STG [R6], R10 ;\n\
STG [R6+0x4], R11 ;\n\
STG [R6+0x8], R12 ;\n\
STG [R6+0xc], R13 ;\n\
EXIT ;";
        let (mut dev, pc) = load(text);
        let buf = dev.alloc(32 * 16).unwrap();
        let mut cfg = LaunchConfig::new(pc, Dim3::linear(1), Dim3::linear(32));
        cfg.push_param_u64(buf);
        let v = |i: u32| 0x1000 + 0x11 * i;
        for i in 0..33 {
            cfg.push_param_u32(v(i));
        }
        dev.launch(&cfg).unwrap();
        for lane in 0..32u32 {
            let got = scalar(&dev, buf + 16 * lane as u64, 8);
            assert_eq!(got, v(0) as u64 | (v(1) as u64) << 32, "lane {lane}: uniform pair");
            let per_lane = scalar(&dev, buf + 16 * lane as u64 + 8, 4);
            assert_eq!(per_lane, v(lane + 1) as u64, "lane {lane}: its own word");
            let guarded = scalar(&dev, buf + 16 * lane as u64 + 12, 4);
            assert_eq!(guarded, if lane % 2 == 1 { v(2) as u64 } else { 0 }, "lane {lane}");
        }
    }

    /// A uniform `LDC` whose words leave the bank faults naming the first
    /// word outside it, through an immediate and through a register base.
    #[test]
    fn an_out_of_bounds_uniform_ldc_faults_at_its_first_outside_word() {
        assert_oob(&[
            ("LDC.64 R4, c[0x0][0x15c] ;", "constant read out of bounds: c[0][0x160]"),
            (
                "MOV32I R2, 0x100000 ;\nLDC R4, c[0x0][R2+0x10] ;",
                "constant read out of bounds: c[0][0x100010]",
            ),
        ]);
    }

    /// A global load or store in which exactly one lane's access is out of
    /// bounds — lane 5's `.64` at the last word of memory, whose second word
    /// is past its end — faults at that lane and word with the per-lane
    /// text. The store leaves the lanes before it written, lane 5's first
    /// word stored and the lanes after it untouched.
    #[test]
    fn a_global_access_with_one_lane_out_of_bounds_faults_at_that_lane() {
        for (access, what) in [("LDG.64 R10, [R6]", "load"), ("STG.64 [R6], R10", "store")] {
            let cap = DeviceSpec::test(Arch::Volta).global_mem;
            let last = cap - 4;
            let text = format!(
                "\
LDC.64 R6, c[0x0][0x160] ;\n\
S2R R4, SR_LANEID ;\n\
SHL R8, R4, 0x3 ;\n\
MOV R9, RZ ;\n\
IADD.U64 R6, R6, R8 ;\n\
ISETP.NE.U32 P0, R4, 0x5 ;\n\
@!P0 MOV32I R6, 0x{:x} ;\n\
@!P0 MOV32I R7, 0x{:x} ;\n\
IADD R10, R4, 0x64 ;\n\
IADD R11, R4, 0xc8 ;\n\
{access} ;\n\
EXIT ;",
                last as u32,
                (last >> 32) as u32
            );
            let (mut dev, pc) = load(&text);
            let buf = dev.alloc(32 * 8).unwrap();
            dev.write(buf, &[0x77; 32 * 8]).unwrap();
            let mut cfg = LaunchConfig::new(pc, Dim3::linear(1), Dim3::linear(32));
            cfg.push_param_u64(buf);
            match dev.launch(&cfg) {
                Err(GpuError::Fault { reason, .. }) => {
                    let want = format!("global {what} fault at 0x{cap:x} (lane 5)");
                    assert!(reason.contains(&want), "{reason}");
                }
                other => panic!("{access}: expected fault, got {other:?}"),
            }
            let stored = what == "store";
            for lane in 0..32u64 {
                let got = scalar(&dev, buf + 8 * lane, 8);
                let want = if stored && lane < 5 {
                    (100 + lane) | (200 + lane) << 32
                } else {
                    0x7777_7777_7777_7777
                };
                assert_eq!(got, want, "{access}: lane {lane}");
            }
            let tail = scalar(&dev, last, 4);
            assert_eq!(tail, if stored { 105 } else { 0 }, "{access}: lane 5's first word");
        }
    }

    /// `STG.64` and `STG.128` at `base + 4 * lane`, so each lane's words
    /// overlap its neighbours', land lane-major — all of lane `l`'s words
    /// before lane `l + 1`'s — over all lanes and over the odd lanes; an
    /// overlapping `LDG.128` then reads every lane's four words back.
    #[test]
    fn overlapping_wide_global_stores_land_lane_major() {
        for (width, n) in [("64", 2), ("128", 4)] {
            for (guard, odd_only) in [("", false), ("@P0 ", true)] {
                let text = format!(
                    "\
LDC.64 R6, c[0x0][0x160] ;\n\
S2R R4, SR_LANEID ;\n\
SHL R8, R4, 0x2 ;\n\
MOV R9, RZ ;\n\
IADD.U64 R6, R6, R8 ;\n\
LOP.AND R5, R4, 0x1 ;\n\
ISETP.NE.U32 P0, R5, RZ ;\n\
SHL R12, R4, 0x4 ;\n\
IADD R13, R12, 0x1 ;\n\
IADD R14, R12, 0x2 ;\n\
IADD R15, R12, 0x3 ;\n\
{guard}STG.{width} [R6], R12 ;\n\
LDG.128 R16, [R6] ;\n\
STG.128 [R6+0x100], R16 ;\n\
EXIT ;"
                );
                // Lane-major: of the lanes that write a word, the last wins.
                let lane_major = |lanes: &[usize], words: &dyn Fn(usize) -> Vec<u32>| {
                    let mut mem = [0u32; 35];
                    for &l in lanes {
                        mem[l..][..words(l).len()].copy_from_slice(&words(l));
                    }
                    mem
                };
                let active: Vec<usize> = (0..32).filter(|l| !odd_only || l % 2 == 1).collect();
                let want = lane_major(&active, &|l| (0..n).map(|k| 16 * l as u32 + k).collect());
                // The read-back is overlapping too: lane `l`'s four words
                // at `0x100 + 4 * l`.
                let all: Vec<usize> = (0..32).collect();
                let back = lane_major(&all, &|l| want[l..l + 4].to_vec());
                let got = run_on_buffer(&text, 64 + 35, &[]);
                assert_eq!(got[..35], want, "STG.{width}, odd only: {odd_only}");
                assert_eq!(got[64..], back, "STG.{width} read back, odd only: {odd_only}");
            }
        }
    }

    #[test]
    fn ret_with_empty_call_stack_faults() {
        match run("RET ;") {
            Err(GpuError::Fault { reason, .. }) => assert!(reason.contains("empty call stack")),
            other => panic!("expected fault, got {other:?}"),
        }
    }

    #[test]
    fn sync_without_reconvergence_entry_faults() {
        match run("SYNC ;") {
            Err(GpuError::Fault { reason, .. }) => {
                assert!(reason.contains("SYNC"), "{reason}")
            }
            other => panic!("expected fault, got {other:?}"),
        }
    }

    #[test]
    fn runaway_call_recursion_faults() {
        // A function that calls itself: the per-entry return stack is
        // bounded.
        match run("top:\nCAL top ;\nEXIT ;") {
            Err(GpuError::Fault { reason, .. }) => {
                assert!(reason.contains("call stack overflow"), "{reason}")
            }
            other => panic!("expected fault, got {other:?}"),
        }
    }

    #[test]
    fn trap_instruction_faults() {
        match run("BPT ;") {
            Err(GpuError::Fault { reason, .. }) => assert!(reason.contains("trap")),
            other => panic!("expected fault, got {other:?}"),
        }
    }

    #[test]
    fn falling_off_code_faults_cleanly() {
        // NOP then execution runs past the code region; zeroed memory
        // decodes as inert instructions until the fetch leaves the device.
        let run = |text: &str| {
            let mut spec = DeviceSpec::test(Arch::Volta);
            spec.global_mem = 1 << 20; // keep the runaway walk short
            let mut dev = Device::new(spec);
            let prog = asm::assemble_arch(text, Arch::Volta).unwrap();
            let code = codec_for(Arch::Volta).encode_stream(&prog).unwrap();
            let addr = dev.alloc(code.len() as u64).unwrap();
            dev.write(addr, &code).unwrap();
            dev.launch(&LaunchConfig::new(addr, Dim3::linear(1), Dim3::linear(32)))
        };
        match run("NOP ;") {
            Err(GpuError::Fault { reason, .. }) => {
                assert!(reason.contains("undecodable") || reason.contains("fetch"), "{reason}")
            }
            other => panic!("expected fault, got {other:?}"),
        }
    }

    #[test]
    fn divergent_indirect_branch_faults() {
        // Each lane computes a different BRX target.
        let text = "\
S2R R4, SR_LANEID ;\n\
SHL R4, R4, 0x4 ;\n\
MOV R5, RZ ;\n\
BRX R4 ;\n\
EXIT ;";
        match run(text) {
            Err(GpuError::Fault { reason, .. }) => {
                assert!(reason.contains("divergent indirect"), "{reason}")
            }
            other => panic!("expected fault, got {other:?}"),
        }
    }

    #[test]
    fn guarded_exit_then_divergent_paths_run_to_completion_without_ssy() {
        // Divergence without SSY/SYNC: both paths run to EXIT independently
        // (correct, just unreconverged) — the documented fallback.
        let text = "\
S2R R4, SR_TID.X ;\n\
LOP.AND R5, R4, 0x1 ;\n\
ISETP.NE.S32 P0, R5, RZ ;\n\
@P0 BRA odd ;\n\
IADD R6, R4, 0x64 ;\n\
EXIT ;\n\
odd:\n\
IADD R6, R4, 0xc8 ;\n\
EXIT ;";
        let stats = run(text).unwrap();
        // Both halves execute their 2-instruction tails.
        assert!(stats.warp_instructions >= 8);
    }

    /// The even lanes park at `done` while the odd path runs, and the odd
    /// path retires at that same `EXIT`: the entry it uncovers must still
    /// execute its own `EXIT` there instead of being stepped past it.
    #[test]
    fn an_entry_uncovered_at_the_exit_that_retired_its_sibling_still_exits() {
        let text = "\
LDC.64 R6, c[0x0][0x160] ;\n\
S2R R4, SR_TID.X ;\n\
SHL R8, R4, 0x2 ;\n\
MOV R9, RZ ;\n\
IADD.U64 R6, R6, R8 ;\n\
LOP.AND R5, R4, 0x1 ;\n\
ISETP.NE.S32 P0, R5, RZ ;\n\
@P0 BRA odd ;\n\
done:\n\
EXIT ;\n\
odd:\n\
MOV32I R10, 0x2 ;\n\
STG [R6], R10 ;\n\
BRA done ;";
        let want: Vec<u32> = (0..32).map(|t| 2 * (t % 2)).collect();
        assert_eq!(run_on_buffer(text, 32, &[0]), want, "only the odd lanes store");
    }
}
