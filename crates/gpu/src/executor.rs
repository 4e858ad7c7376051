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

use crate::mem::SharedMem;
use crate::spec::{DeviceSpec, Dim3};
use crate::stats::ExecStats;
use crate::{GpuError, Result};
use sass::op::IType;
use sass::{CmpOp, Instruction, Op, Operand, Reg, SpecialReg, SubOp};
use std::collections::HashMap;
use std::sync::Arc;

const WARP: usize = 32;
/// Per-CTA warp-instruction budget; a runaway kernel faults instead of
/// hanging the host. Counted per CTA so the limit is independent of the
/// CTA schedule.
const STEP_LIMIT: u64 = 2_000_000_000;

/// A decoded-instruction cache keyed by fetch address, each entry holding
/// the raw encoding it was decoded from (for revalidation under patching).
pub(crate) type DecodeCache = HashMap<u64, (u128, Arc<Instruction>)>;

/// One SIMT-stack entry.
#[derive(Debug, Clone)]
pub(crate) struct Entry {
    pub pc: u64,
    pub mask: u32,
    pub retstack: Vec<u64>,
}

/// Per-warp architectural state.
pub(crate) struct Warp {
    /// Flat thread index (within the CTA) of lane 0.
    pub base_tid: u32,
    pub entries: Vec<Entry>,
    /// `regs[lane][reg]`.
    pub regs: Vec<[u32; 256]>,
    /// `preds[lane][p]`, index 7 is the constant-true `PT`.
    pub preds: Vec<[bool; 8]>,
    pub done: bool,
    pub at_barrier: bool,
}

impl Warp {
    pub fn new(base_tid: u32, lanes: u32, entry_pc: u64) -> Warp {
        let mask = if lanes >= 32 { u32::MAX } else { (1u32 << lanes) - 1 };
        let mut preds = vec![[false; 8]; WARP];
        for p in &mut preds {
            p[7] = true;
        }
        Warp {
            base_tid,
            entries: vec![Entry { pc: entry_pc, mask, retstack: Vec::new() }],
            regs: vec![[0u32; 256]; WARP],
            preds,
            done: false,
            at_barrier: false,
        }
    }

    fn reg(&self, lane: usize, r: Reg) -> u32 {
        if r.is_zero() {
            0
        } else {
            self.regs[lane][r.index()]
        }
    }

    fn set_reg(&mut self, lane: usize, r: Reg, v: u32) {
        if !r.is_zero() {
            self.regs[lane][r.index()] = v;
        }
    }

    fn pair(&self, lane: usize, r: Reg) -> u64 {
        if r.is_zero() {
            return 0;
        }
        let lo = self.regs[lane][r.index()] as u64;
        let hi = if r.index() + 1 < 255 { self.regs[lane][r.index() + 1] as u64 } else { 0 };
        lo | (hi << 32)
    }

    fn set_pair(&mut self, lane: usize, r: Reg, v: u64) {
        if r.is_zero() {
            return;
        }
        self.regs[lane][r.index()] = v as u32;
        if r.index() + 1 < 255 {
            self.regs[lane][r.index() + 1] = (v >> 32) as u32;
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
    /// Per-thread local memory, indexed by flat thread id within the CTA.
    pub locals: Vec<Vec<u8>>,
}

/// Everything one CTA's execution needs. Shared state comes in behind
/// `Sync` references; mutable state (statistics, the decode-cache overlay,
/// the step counter) is owned per CTA, which is what makes the environment
/// `Send`-able into a worker thread and the collected results independent
/// of the CTA schedule.
pub(crate) struct ExecEnv<'d> {
    pub spec: &'d DeviceSpec,
    pub mem: &'d SharedMem,
    /// Immutable per-launch snapshot of the device decode cache.
    pub snapshot: &'d DecodeCache,
    /// Entries this CTA decoded; merged back in CTA-linear order after the
    /// launch so cross-launch cache state is scheduler-independent.
    pub overlay: DecodeCache,
    pub stats: ExecStats,
    pub grid: Dim3,
    pub block: Dim3,
    pub cbanks: &'d [Vec<u8>; 4],
    /// Code-region labels for fault context (see `Device::label_code`).
    pub labels: &'d crate::device::CodeLabels,
    pub launch_id: u64,
    pub steps: u64,
    /// Producer half of the launch's tool record channel, when attached.
    pub chan: Option<&'d common::channel::ChannelDev>,
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

    /// Fetches and decodes the instruction at `pc`. The decode cache is
    /// coherent under code patching: cached entries revalidate against the
    /// current raw bytes on every fetch. Lookups consult this CTA's overlay
    /// before the launch snapshot, so hit/miss counts do not depend on how
    /// CTAs interleave across worker threads.
    fn fetch(&mut self, pc: u64) -> Result<Arc<Instruction>> {
        let isize = self.spec.arch.instruction_size() as u64;
        if !pc.is_multiple_of(isize) {
            return Err(self.fault(pc, "misaligned instruction fetch"));
        }
        let mut raw = [0u8; 16];
        self.mem
            .read_into(pc, &mut raw[..isize as usize])
            .map_err(|_| self.fault(pc, "instruction fetch outside device memory"))?;
        let raw_word = u128::from_le_bytes(raw);
        if let Some((cached_raw, decoded)) =
            self.overlay.get(&pc).or_else(|| self.snapshot.get(&pc))
        {
            if *cached_raw == raw_word {
                self.stats.decode_hits += 1;
                return Ok(Arc::clone(decoded));
            }
        }
        self.stats.decode_misses += 1;
        let codec = sass::codec::codec_for(self.spec.arch);
        let instr = Arc::new(
            codec
                .decode(&raw[..isize as usize])
                .map_err(|e| self.fault(pc, format!("undecodable instruction: {e}")))?,
        );
        self.overlay.insert(pc, (raw_word, Arc::clone(&instr)));
        Ok(instr)
    }

    /// Runs one warp until it exits, faults, or reaches a CTA barrier.
    pub fn run_warp(&mut self, warp: &mut Warp, cta: &mut CtaCtx) -> Result<()> {
        let isize = self.spec.arch.instruction_size() as u64;
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

            let instr = self.fetch(pc)?;
            let exec = self.guard_mask(warp, &instr, mask);
            self.stats.record(instr.op, exec);
            self.account_cost(warp, &instr, exec)?;

            match instr.op.cf_class() {
                sass::op::CfClass::None => {
                    if exec != 0 {
                        self.execute(warp, cta, &instr, exec, pc)?;
                    }
                    warp.entries.last_mut().unwrap().pc = pc + isize;
                }
                _ => {
                    let continue_warp = self.control_flow(warp, &instr, exec, pc, isize)?;
                    if !continue_warp {
                        return Ok(()); // barrier or done
                    }
                }
            }
        }
    }

    fn guard_mask(&self, warp: &Warp, instr: &Instruction, mask: u32) -> u32 {
        if instr.guard.is_always() {
            return mask;
        }
        let p = instr.guard.pred.index();
        let mut m = 0u32;
        for lane in 0..WARP {
            if mask & (1 << lane) != 0 && (warp.preds[lane][p] != instr.guard.negated) {
                m |= 1 << lane;
            }
        }
        m
    }

    /// Timing-model accounting, including memory-divergence cost.
    fn account_cost(&mut self, warp: &Warp, instr: &Instruction, exec: u32) -> Result<()> {
        let cat = instr.op.category();
        let mut cycles = self.spec.cost.issue + self.spec.cost.of(cat);
        match cat {
            sass::OpCategory::MemGlobal if exec != 0 => {
                let lines = self.global_lines(warp, instr, exec)?;
                self.stats.mem.global_lines += lines;
                cycles += self.spec.cost.global_per_line * lines.saturating_sub(1);
                if instr.op.is_load() {
                    self.stats.mem.global_loads += 1;
                } else {
                    self.stats.mem.global_stores += 1;
                }
            }
            sass::OpCategory::MemShared if exec != 0 => self.stats.mem.shared_accesses += 1,
            sass::OpCategory::MemLocal if exec != 0 => self.stats.mem.local_accesses += 1,
            sass::OpCategory::Atomic if exec != 0 => {
                self.stats.mem.atomics += exec.count_ones() as u64;
                cycles += self.spec.cost.atomic_per_lane * exec.count_ones() as u64;
            }
            _ => {}
        }
        self.stats.cycles += cycles;
        Ok(())
    }

    /// Number of distinct cache lines a warp-level global access touches.
    fn global_lines(&self, warp: &Warp, instr: &Instruction, exec: u32) -> Result<u64> {
        let Some(Operand::MRef { base, offset }) =
            instr.operands.iter().find(|o| matches!(o, Operand::MRef { .. }))
        else {
            return Ok(1);
        };
        let line = self.spec.cache_line as u64;
        let mut lines: Vec<u64> = Vec::with_capacity(4);
        for lane in 0..WARP {
            if exec & (1 << lane) == 0 {
                continue;
            }
            let addr = warp.pair(lane, *base).wrapping_add(*offset as i64 as u64);
            let l = addr / line;
            if !lines.contains(&l) {
                lines.push(l);
            }
        }
        Ok(lines.len().max(1) as u64)
    }

    /// Handles a control-flow instruction; returns `false` when the caller
    /// must yield (barrier) or the warp finished.
    fn control_flow(
        &mut self,
        warp: &mut Warp,
        instr: &Instruction,
        exec: u32,
        pc: u64,
        isize: u64,
    ) -> Result<bool> {
        use sass::op::CfClass;
        let next = pc + isize;
        let mask = warp.entries.last().unwrap().mask;
        match instr.op.cf_class() {
            CfClass::RelBranch | CfClass::AbsJump => {
                let target = match instr.operands.first() {
                    Some(Operand::Rel(off)) => next.wrapping_add(*off as u64),
                    Some(Operand::Abs(a)) => *a,
                    _ => return Err(self.fault(pc, "branch without target")),
                };
                let fall = mask & !exec;
                let top = warp.entries.last_mut().unwrap();
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
                let Some(Operand::Reg(r)) = instr.operands.first() else {
                    return Err(self.fault(pc, "BRX without register"));
                };
                let mut target = None;
                for lane in 0..WARP {
                    if exec & (1 << lane) != 0 {
                        let t = warp.pair(lane, *r);
                        match target {
                            None => target = Some(t),
                            Some(prev) if prev != t => {
                                return Err(self.fault(pc, "divergent indirect branch"));
                            }
                            _ => {}
                        }
                    }
                }
                warp.entries.last_mut().unwrap().pc =
                    target.ok_or_else(|| self.fault(pc, "BRX with no active lanes"))?;
                Ok(true)
            }
            CfClass::RelCall | CfClass::AbsCall => {
                if exec == 0 {
                    warp.entries.last_mut().unwrap().pc = next;
                    return Ok(true);
                }
                if exec != mask {
                    return Err(self.fault(pc, "divergent call"));
                }
                let target = match instr.operands.first() {
                    Some(Operand::Rel(off)) => next.wrapping_add(*off as u64),
                    Some(Operand::Abs(a)) => *a,
                    _ => return Err(self.fault(pc, "call without target")),
                };
                let top = warp.entries.last_mut().unwrap();
                if top.retstack.len() > 1024 {
                    return Err(self.fault(pc, "call stack overflow"));
                }
                top.retstack.push(next);
                top.pc = target;
                Ok(true)
            }
            CfClass::Ret => {
                if exec == 0 {
                    warp.entries.last_mut().unwrap().pc = next;
                    return Ok(true);
                }
                if exec != mask {
                    return Err(self.fault(pc, "divergent return"));
                }
                let top = warp.entries.last_mut().unwrap();
                let ra = top
                    .retstack
                    .pop()
                    .ok_or_else(|| self.fault(pc, "RET with empty call stack"))?;
                top.pc = ra;
                Ok(true)
            }
            CfClass::Exit => {
                for e in warp.entries.iter_mut() {
                    e.mask &= !exec;
                }
                while matches!(warp.entries.last(), Some(e) if e.mask == 0) {
                    warp.entries.pop();
                }
                if warp.entries.is_empty() {
                    warp.done = true;
                    return Ok(false);
                }
                // If the current entry survived a partially-guarded EXIT it
                // continues; otherwise the new top resumes at its own pc.
                let top = warp.entries.last_mut().unwrap();
                if top.pc == pc {
                    top.pc = next;
                }
                Ok(true)
            }
            CfClass::Ssy => {
                let target = match instr.operands.first() {
                    Some(Operand::Rel(off)) => next.wrapping_add(*off as u64),
                    _ => return Err(self.fault(pc, "SSY without target")),
                };
                let top_idx = warp.entries.len() - 1;
                let (mask, retstack) = {
                    let top = &warp.entries[top_idx];
                    (top.mask, top.retstack.clone())
                };
                warp.entries.insert(top_idx, Entry { pc: target, mask, retstack });
                warp.entries.last_mut().unwrap().pc = next;
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
                warp.entries.last_mut().unwrap().pc = next;
                warp.at_barrier = true;
                Ok(false)
            }
            CfClass::Trap => Err(self.fault(pc, "breakpoint trap (BPT)")),
            CfClass::None => unreachable!("dispatched in run_warp"),
        }
    }

    /// Executes a non-control-flow instruction.
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
        let val32 = |warp: &Warp, lane: usize, o: &Operand| -> u32 {
            match o {
                Operand::Reg(r) => warp.reg(lane, *r),
                Operand::Imm(v) => *v as u32,
                _ => 0,
            }
        };
        let dst_reg = |o: &Operand| -> Reg {
            match o {
                Operand::Reg(r) => *r,
                _ => Reg::RZ,
            }
        };
        let f = f32::from_bits;
        let lanes = (0..WARP).filter(|l| exec & (1 << l) != 0);

        match instr.op {
            Op::Nop | Op::Membar => {}
            Op::Mov => {
                let d = dst_reg(&ops[0]);
                for lane in lanes {
                    let v = val32(warp, lane, &ops[1]);
                    warp.set_reg(lane, d, v);
                }
            }
            Op::Mov32i => {
                let d = dst_reg(&ops[0]);
                let v = ops[1].as_imm().unwrap_or(0) as u32;
                for lane in lanes {
                    warp.set_reg(lane, d, v);
                }
            }
            Op::Sel => {
                let d = dst_reg(&ops[0]);
                let Operand::Pred { pred, negated } = ops[3] else {
                    return Err(self.fault(pc, "SEL without predicate"));
                };
                for lane in lanes {
                    let p = warp.preds[lane][pred.index()] != negated;
                    let v = if p { val32(warp, lane, &ops[1]) } else { val32(warp, lane, &ops[2]) };
                    warp.set_reg(lane, d, v);
                }
            }
            Op::S2r => {
                let d = dst_reg(&ops[0]);
                let Operand::SReg(sr) = ops[1] else {
                    return Err(self.fault(pc, "S2R without special register"));
                };
                for lane in lanes {
                    let v = self.special(warp, cta, lane, sr, exec);
                    warp.set_reg(lane, d, v);
                }
            }
            Op::P2r => {
                let d = dst_reg(&ops[0]);
                for lane in lanes {
                    let mut v = 0u32;
                    for p in 0..7 {
                        if warp.preds[lane][p] {
                            v |= 1 << p;
                        }
                    }
                    warp.set_reg(lane, d, v);
                }
            }
            Op::R2p => {
                let Operand::Reg(s) = ops[0] else {
                    return Err(self.fault(pc, "R2P without register"));
                };
                for lane in lanes {
                    let v = warp.reg(lane, s);
                    for p in 0..7 {
                        warp.preds[lane][p] = v & (1 << p) != 0;
                    }
                }
            }
            Op::Shfl => {
                let d = dst_reg(&ops[0]);
                let Operand::Reg(a) = ops[1] else {
                    return Err(self.fault(pc, "SHFL without source"));
                };
                let snapshot: Vec<u32> = (0..WARP).map(|l| warp.reg(l, a)).collect();
                for lane in lanes {
                    let b = val32(warp, lane, &ops[2]) as usize;
                    let src_lane = match instr.mods.sub {
                        SubOp::Idx => b % WARP,
                        SubOp::Up => {
                            if lane >= b {
                                lane - b
                            } else {
                                lane
                            }
                        }
                        SubOp::Down => {
                            if lane + b < WARP {
                                lane + b
                            } else {
                                lane
                            }
                        }
                        SubOp::Bfly => lane ^ (b % WARP),
                        _ => return Err(self.fault(pc, "SHFL with invalid mode")),
                    };
                    warp.set_reg(lane, d, snapshot[src_lane]);
                }
            }
            Op::Vote => {
                let d = dst_reg(&ops[0]);
                let Operand::Pred { pred, negated } = ops[1] else {
                    return Err(self.fault(pc, "VOTE without predicate"));
                };
                let mut ballot = 0u32;
                for lane in 0..WARP {
                    if exec & (1 << lane) != 0 && (warp.preds[lane][pred.index()] != negated) {
                        ballot |= 1 << lane;
                    }
                }
                let v = match instr.mods.sub {
                    SubOp::Ballot => ballot,
                    SubOp::All => u32::from(ballot == exec),
                    SubOp::Any => u32::from(ballot != 0),
                    _ => return Err(self.fault(pc, "VOTE with invalid mode")),
                };
                for lane in 0..WARP {
                    if exec & (1 << lane) != 0 {
                        warp.set_reg(lane, d, v);
                    }
                }
            }
            Op::Popc => {
                let d = dst_reg(&ops[0]);
                for lane in lanes {
                    let v = val32(warp, lane, &ops[1]).count_ones();
                    warp.set_reg(lane, d, v);
                }
            }
            Op::Iadd | Op::Isub if instr.mods.itype == IType::U64 => {
                let d = dst_reg(&ops[0]);
                let Operand::Reg(a) = ops[1] else {
                    return Err(self.fault(pc, "wide add without register source"));
                };
                for lane in lanes {
                    let av = warp.pair(lane, a);
                    let bv = match &ops[2] {
                        Operand::Reg(r) => warp.pair(lane, *r),
                        Operand::Imm(v) => *v as u64,
                        _ => 0,
                    };
                    let r = if instr.op == Op::Iadd {
                        av.wrapping_add(bv)
                    } else {
                        av.wrapping_sub(bv)
                    };
                    warp.set_pair(lane, d, r);
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
                let d = dst_reg(&ops[0]);
                let Operand::Reg(a) = ops[1] else {
                    return Err(self.fault(pc, "integer op without register source"));
                };
                if instr.mods.itype == IType::U64 && matches!(instr.op, Op::Shl | Op::Shr) {
                    for lane in lanes {
                        let av = warp.pair(lane, a);
                        let b = val32(warp, lane, &ops[2]) & 63;
                        let r = if instr.op == Op::Shl { av.wrapping_shl(b) } else { av >> b };
                        warp.set_pair(lane, d, r);
                    }
                    return Ok(());
                }
                for lane in lanes {
                    let av = warp.reg(lane, a);
                    let bv = val32(warp, lane, &ops[2]);
                    let r = match instr.op {
                        Op::Iadd | Op::Iadd32i => av.wrapping_add(bv),
                        Op::Isub => av.wrapping_sub(bv),
                        Op::Imul => av.wrapping_mul(bv),
                        Op::Imnmx => match (instr.mods.sub, instr.mods.itype) {
                            (SubOp::Min, IType::S32) => (av as i32).min(bv as i32) as u32,
                            (SubOp::Min, _) => av.min(bv),
                            (SubOp::Max, IType::S32) => (av as i32).max(bv as i32) as u32,
                            (_, _) => av.max(bv),
                        },
                        Op::Shl => av.wrapping_shl(bv & 31),
                        Op::Shr => {
                            if instr.mods.itype == IType::S32 {
                                ((av as i32) >> (bv & 31)) as u32
                            } else {
                                av >> (bv & 31)
                            }
                        }
                        Op::Lop => match instr.mods.sub {
                            SubOp::And => av & bv,
                            SubOp::Or => av | bv,
                            SubOp::Xor => av ^ bv,
                            SubOp::Not => !bv,
                            _ => return Err(self.fault(pc, "LOP with invalid mode")),
                        },
                        _ => unreachable!(),
                    };
                    warp.set_reg(lane, d, r);
                }
            }
            Op::Imad => {
                let d = dst_reg(&ops[0]);
                let (Operand::Reg(a), Operand::Reg(b), Operand::Reg(c)) =
                    (&ops[1], &ops[2], &ops[3])
                else {
                    return Err(self.fault(pc, "IMAD operands must be registers"));
                };
                for lane in lanes {
                    if instr.mods.itype == IType::U64 {
                        let prod =
                            (warp.reg(lane, *a) as u64).wrapping_mul(warp.reg(lane, *b) as u64);
                        let r = prod.wrapping_add(warp.pair(lane, *c));
                        warp.set_pair(lane, d, r);
                    } else {
                        let r = warp
                            .reg(lane, *a)
                            .wrapping_mul(warp.reg(lane, *b))
                            .wrapping_add(warp.reg(lane, *c));
                        warp.set_reg(lane, d, r);
                    }
                }
            }
            Op::Isetp => {
                let Operand::Pred { pred: d, .. } = ops[0] else {
                    return Err(self.fault(pc, "ISETP without predicate destination"));
                };
                let Operand::Reg(a) = ops[1] else {
                    return Err(self.fault(pc, "ISETP without register source"));
                };
                for lane in lanes {
                    let av = warp.reg(lane, a);
                    let bv = val32(warp, lane, &ops[2]);
                    let r = if instr.mods.itype == IType::S32 {
                        cmp_i(instr.mods.cmp, av as i32 as i64, bv as i32 as i64)
                    } else {
                        cmp_i(instr.mods.cmp, av as i64, bv as i64)
                    };
                    if !d.is_true_reg() {
                        warp.preds[lane][d.index()] = r;
                    }
                }
            }
            Op::Psetp => {
                let Operand::Pred { pred: d, .. } = ops[0] else {
                    return Err(self.fault(pc, "PSETP without destination"));
                };
                let (
                    Operand::Pred { pred: a, negated: na },
                    Operand::Pred { pred: b, negated: nb },
                ) = (&ops[1], &ops[2])
                else {
                    return Err(self.fault(pc, "PSETP without predicate sources"));
                };
                for lane in lanes {
                    let av = warp.preds[lane][a.index()] != *na;
                    let bv = warp.preds[lane][b.index()] != *nb;
                    let r = match instr.mods.sub {
                        SubOp::And => av && bv,
                        SubOp::Or => av || bv,
                        SubOp::Xor => av != bv,
                        _ => return Err(self.fault(pc, "PSETP with invalid mode")),
                    };
                    if !d.is_true_reg() {
                        warp.preds[lane][d.index()] = r;
                    }
                }
            }
            Op::Fadd | Op::Fmul | Op::Fmnmx => {
                let d = dst_reg(&ops[0]);
                let Operand::Reg(a) = ops[1] else {
                    return Err(self.fault(pc, "float op without register source"));
                };
                for lane in lanes {
                    let av = f(warp.reg(lane, a));
                    let bv = f(val32(warp, lane, &ops[2]));
                    let r = match instr.op {
                        Op::Fadd => av + bv,
                        Op::Fmul => av * bv,
                        Op::Fmnmx => {
                            if instr.mods.sub == SubOp::Min {
                                av.min(bv)
                            } else {
                                av.max(bv)
                            }
                        }
                        _ => unreachable!(),
                    };
                    warp.set_reg(lane, d, r.to_bits());
                }
            }
            Op::Ffma => {
                let d = dst_reg(&ops[0]);
                let (Operand::Reg(a), Operand::Reg(b), Operand::Reg(c)) =
                    (&ops[1], &ops[2], &ops[3])
                else {
                    return Err(self.fault(pc, "FFMA operands must be registers"));
                };
                for lane in lanes {
                    let r =
                        f(warp.reg(lane, *a)).mul_add(f(warp.reg(lane, *b)), f(warp.reg(lane, *c)));
                    warp.set_reg(lane, d, r.to_bits());
                }
            }
            Op::Fsetp => {
                let Operand::Pred { pred: d, .. } = ops[0] else {
                    return Err(self.fault(pc, "FSETP without predicate destination"));
                };
                let Operand::Reg(a) = ops[1] else {
                    return Err(self.fault(pc, "FSETP without register source"));
                };
                for lane in lanes {
                    let av = f(warp.reg(lane, a));
                    let bv = f(val32(warp, lane, &ops[2]));
                    let r = cmp_f64(instr.mods.cmp, av as f64, bv as f64);
                    if !d.is_true_reg() {
                        warp.preds[lane][d.index()] = r;
                    }
                }
            }
            Op::Mufu => {
                let d = dst_reg(&ops[0]);
                let Operand::Reg(a) = ops[1] else {
                    return Err(self.fault(pc, "MUFU without register source"));
                };
                for lane in lanes {
                    let v = f(warp.reg(lane, a));
                    let r = match instr.mods.sub {
                        SubOp::Rcp => 1.0 / v,
                        SubOp::Sqrt => v.sqrt(),
                        SubOp::Rsq => 1.0 / v.sqrt(),
                        SubOp::Sin => v.sin(),
                        SubOp::Cos => v.cos(),
                        SubOp::Ex2 => v.exp2(),
                        SubOp::Lg2 => v.log2(),
                        _ => return Err(self.fault(pc, "MUFU with invalid mode")),
                    };
                    warp.set_reg(lane, d, r.to_bits());
                }
            }
            Op::Dadd | Op::Dmul => {
                let d = dst_reg(&ops[0]);
                let (Operand::Reg(a), Operand::Reg(b)) = (&ops[1], &ops[2]) else {
                    return Err(self.fault(pc, "double op operands must be registers"));
                };
                for lane in lanes {
                    let av = f64::from_bits(warp.pair(lane, *a));
                    let bv = f64::from_bits(warp.pair(lane, *b));
                    let r = if instr.op == Op::Dadd { av + bv } else { av * bv };
                    warp.set_pair(lane, d, r.to_bits());
                }
            }
            Op::Dfma => {
                let d = dst_reg(&ops[0]);
                let (Operand::Reg(a), Operand::Reg(b), Operand::Reg(c)) =
                    (&ops[1], &ops[2], &ops[3])
                else {
                    return Err(self.fault(pc, "DFMA operands must be registers"));
                };
                for lane in lanes {
                    let r = f64::from_bits(warp.pair(lane, *a)).mul_add(
                        f64::from_bits(warp.pair(lane, *b)),
                        f64::from_bits(warp.pair(lane, *c)),
                    );
                    warp.set_pair(lane, d, r.to_bits());
                }
            }
            Op::Dsetp => {
                let Operand::Pred { pred: d, .. } = ops[0] else {
                    return Err(self.fault(pc, "DSETP without predicate destination"));
                };
                let (Operand::Reg(a), Operand::Reg(b)) = (&ops[1], &ops[2]) else {
                    return Err(self.fault(pc, "DSETP operands must be registers"));
                };
                for lane in lanes {
                    let av = f64::from_bits(warp.pair(lane, *a));
                    let bv = f64::from_bits(warp.pair(lane, *b));
                    let r = cmp_f64(instr.mods.cmp, av, bv);
                    if !d.is_true_reg() {
                        warp.preds[lane][d.index()] = r;
                    }
                }
            }
            Op::I2f => {
                let d = dst_reg(&ops[0]);
                for lane in lanes {
                    let v = val32(warp, lane, &ops[1]);
                    let r =
                        if instr.mods.itype == IType::S32 { (v as i32) as f32 } else { v as f32 };
                    warp.set_reg(lane, d, r.to_bits());
                }
            }
            Op::F2i => {
                let d = dst_reg(&ops[0]);
                let Operand::Reg(a) = ops[1] else {
                    return Err(self.fault(pc, "F2I without register source"));
                };
                for lane in lanes {
                    let v = f(warp.reg(lane, a));
                    let r =
                        if instr.mods.itype == IType::S32 { (v as i32) as u32 } else { v as u32 };
                    warp.set_reg(lane, d, r);
                }
            }
            Op::F2d => {
                let d = dst_reg(&ops[0]);
                let Operand::Reg(a) = ops[1] else {
                    return Err(self.fault(pc, "F2D without register source"));
                };
                for lane in lanes {
                    let r = (f(warp.reg(lane, a)) as f64).to_bits();
                    warp.set_pair(lane, d, r);
                }
            }
            Op::D2f => {
                let d = dst_reg(&ops[0]);
                let Operand::Reg(a) = ops[1] else {
                    return Err(self.fault(pc, "D2F without register source"));
                };
                for lane in lanes {
                    let r = (f64::from_bits(warp.pair(lane, a)) as f32).to_bits();
                    warp.set_reg(lane, d, r);
                }
            }
            Op::Ldg | Op::Stg | Op::Lds | Op::Sts | Op::Ldl | Op::Stl => {
                self.load_store(warp, cta, instr, exec, pc)?;
            }
            Op::Ldc => {
                let d = dst_reg(&ops[0]);
                let Operand::CBank { bank, base, offset } = ops[1] else {
                    return Err(self.fault(pc, "LDC without constant reference"));
                };
                let bank_data = &self.cbanks[(bank as usize).min(3)];
                let regs = instr.mods.width.regs();
                for lane in 0..WARP {
                    if exec & (1 << lane) == 0 {
                        continue;
                    }
                    let idx = warp.reg(lane, base) as usize + offset as usize;
                    for k in 0..regs {
                        let off = idx + 4 * k;
                        if off + 4 > bank_data.len() {
                            return Err(self.fault(
                                pc,
                                format!("constant read out of bounds: c[{bank}][0x{off:x}]"),
                            ));
                        }
                        let v = u32::from_le_bytes(bank_data[off..off + 4].try_into().unwrap());
                        let dr = Reg(d.0.wrapping_add(k as u8));
                        warp.set_reg(lane, dr, v);
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
                let Operand::Reg(a) = ops[0] else {
                    return Err(self.fault(pc, "CHAN without register source"));
                };
                // One record per executing lane, in lane order, tagged with
                // the CTA-linear index: per-CTA streams are push-ordered, so
                // the drained trace is scheduler-independent after per-tag
                // reassembly.
                for lane in lanes {
                    chan.push(cta.cta_linear, warp.pair(lane, a));
                }
            }
            _ => {
                return Err(self.fault(pc, format!("unimplemented opcode {}", instr.op.mnemonic())))
            }
        }
        Ok(())
    }

    fn special(&self, warp: &Warp, cta: &CtaCtx, lane: usize, sr: SpecialReg, exec: u32) -> u32 {
        let flat = warp.base_tid + lane as u32;
        let b = self.block;
        let (tx, ty, tz) = (flat % b.x, (flat / b.x) % b.y, flat / (b.x * b.y));
        match sr {
            SpecialReg::TidX => tx,
            SpecialReg::TidY => ty,
            SpecialReg::TidZ => tz,
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
            SpecialReg::Clock => self.stats.cycles as u32,
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

    fn load_store(
        &mut self,
        warp: &mut Warp,
        cta: &mut CtaCtx,
        instr: &Instruction,
        exec: u32,
        pc: u64,
    ) -> Result<()> {
        let is_load = instr.op.is_load();
        let (dst_or_src, mref) = if is_load {
            (&instr.operands[0], &instr.operands[1])
        } else {
            (&instr.operands[1], &instr.operands[0])
        };
        let Operand::MRef { base, offset } = mref else {
            return Err(self.fault(pc, "memory op without address"));
        };
        let Operand::Reg(rv) = dst_or_src else {
            return Err(self.fault(pc, "memory op without register"));
        };
        let nregs = instr.mods.width.regs();
        if rv.index() + nregs > 255 && !rv.is_zero() {
            return Err(self.fault(pc, "register quad out of range"));
        }
        let space = instr.op.mem_space().unwrap();
        for lane in 0..WARP {
            if exec & (1 << lane) == 0 {
                continue;
            }
            // Global/local addresses are 64-bit; shared addresses 32-bit.
            let addr = match space {
                sass::MemSpace::Shared | sass::MemSpace::Local => {
                    (warp.reg(lane, *base) as u64).wrapping_add(*offset as i64 as u64)
                }
                _ => warp.pair(lane, *base).wrapping_add(*offset as i64 as u64),
            };
            for k in 0..nregs {
                let a = addr + 4 * k as u64;
                let r = Reg(base_plus(rv, k));
                match (space, is_load) {
                    (sass::MemSpace::Global, true) => {
                        let v = self.mem.read_scalar(a, 4).map_err(|_| {
                            self.fault(pc, format!("global load fault at 0x{a:x} (lane {lane})"))
                        })? as u32;
                        warp.set_reg(lane, r, v);
                    }
                    (sass::MemSpace::Global, false) => {
                        let v = warp.reg(lane, r) as u64;
                        self.mem.write_scalar(a, 4, v).map_err(|_| {
                            self.fault(pc, format!("global store fault at 0x{a:x} (lane {lane})"))
                        })?;
                    }
                    (sass::MemSpace::Shared, true) => {
                        let v = read_buf(&cta.shared, a).ok_or_else(|| {
                            self.fault(pc, format!("shared load out of bounds at 0x{a:x}"))
                        })?;
                        warp.set_reg(lane, r, v);
                    }
                    (sass::MemSpace::Shared, false) => {
                        let v = warp.reg(lane, r);
                        write_buf(&mut cta.shared, a, v).ok_or_else(|| {
                            self.fault(pc, format!("shared store out of bounds at 0x{a:x}"))
                        })?;
                    }
                    (sass::MemSpace::Local, true) => {
                        let tid = warp.base_tid as usize + lane;
                        let buf = cta.locals.get(tid).ok_or_else(|| {
                            self.fault(pc, format!("local access from inactive thread {tid}"))
                        })?;
                        let v = read_buf(buf, a).ok_or_else(|| {
                            self.fault(pc, format!("local load out of bounds at 0x{a:x}"))
                        })?;
                        warp.set_reg(lane, r, v);
                    }
                    (sass::MemSpace::Local, false) => {
                        let v = warp.reg(lane, r);
                        let tid = warp.base_tid as usize + lane;
                        let buf = cta.locals.get_mut(tid).ok_or_else(|| {
                            self.fault(pc, format!("local access from inactive thread {tid}"))
                        })?;
                        write_buf(buf, a, v).ok_or_else(|| {
                            self.fault(pc, format!("local store out of bounds at 0x{a:x}"))
                        })?;
                    }
                    (sass::MemSpace::Constant, _) => unreachable!("LDC handled separately"),
                }
            }
        }
        Ok(())
    }

    fn atomic(&mut self, warp: &mut Warp, instr: &Instruction, exec: u32, pc: u64) -> Result<()> {
        let (dst, mref, src, src2) = if instr.op == Op::Atom {
            (Some(&instr.operands[0]), &instr.operands[1], &instr.operands[2], &instr.operands[3])
        } else {
            (None, &instr.operands[0], &instr.operands[1], &instr.operands[1])
        };
        let Operand::MRef { base, offset } = mref else {
            return Err(self.fault(pc, "atomic without address"));
        };
        let wide = instr.mods.itype == IType::U64;
        let len = if wide { 8 } else { 4 };
        for lane in 0..WARP {
            if exec & (1 << lane) == 0 {
                continue;
            }
            let addr = warp.pair(lane, *base).wrapping_add(*offset as i64 as u64);
            let sv = if wide {
                match src {
                    Operand::Reg(r) => warp.pair(lane, *r),
                    _ => 0,
                }
            } else {
                match src {
                    Operand::Reg(r) => warp.reg(lane, *r) as u64,
                    _ => 0,
                }
            };
            let s2v = match src2 {
                Operand::Reg(r) if !wide => warp.reg(lane, *r) as u64,
                Operand::Reg(r) => warp.pair(lane, *r),
                _ => 0,
            };
            let (sub, itype) = (instr.mods.sub, instr.mods.itype);
            if !matches!(
                sub,
                SubOp::Add
                    | SubOp::Min
                    | SubOp::Max
                    | SubOp::And
                    | SubOp::Or
                    | SubOp::Xor
                    | SubOp::Exch
                    | SubOp::Cas
            ) {
                return Err(self.fault(pc, "atomic with invalid operation"));
            }
            let old = self
                .mem
                .atomic_rmw(addr, len, |old| match (sub, itype) {
                    (SubOp::Add, IType::F32) => {
                        ((f32::from_bits(old as u32) + f32::from_bits(sv as u32)).to_bits()) as u64
                    }
                    (SubOp::Add, _) => old.wrapping_add(sv) & mask_len(len),
                    (SubOp::Min, IType::S32) => ((old as i32).min(sv as i32)) as u32 as u64,
                    (SubOp::Min, _) => old.min(sv),
                    (SubOp::Max, IType::S32) => ((old as i32).max(sv as i32)) as u32 as u64,
                    (SubOp::Max, _) => old.max(sv),
                    (SubOp::And, _) => old & sv,
                    (SubOp::Or, _) => old | sv,
                    (SubOp::Xor, _) => old ^ sv,
                    (SubOp::Exch, _) => sv,
                    (SubOp::Cas, _) => {
                        if old == sv {
                            s2v
                        } else {
                            old
                        }
                    }
                    _ => unreachable!("validated above"),
                })
                .map_err(|_| self.fault(pc, format!("atomic fault at 0x{addr:x}")))?;
            if let Some(Operand::Reg(d)) = dst {
                if wide {
                    warp.set_pair(lane, *d, old);
                } else {
                    warp.set_reg(lane, *d, old as u32);
                }
            }
        }
        Ok(())
    }
}

fn base_plus(r: &Reg, k: usize) -> u8 {
    if r.is_zero() {
        255
    } else {
        (r.index() + k).min(254) as u8
    }
}

fn mask_len(len: usize) -> u64 {
    if len >= 8 {
        u64::MAX
    } else {
        (1u64 << (8 * len)) - 1
    }
}

fn read_buf(buf: &[u8], addr: u64) -> Option<u32> {
    let a = addr as usize;
    if a + 4 > buf.len() {
        return None;
    }
    Some(u32::from_le_bytes(buf[a..a + 4].try_into().unwrap()))
}

fn write_buf(buf: &mut [u8], addr: u64, v: u32) -> Option<()> {
    let a = addr as usize;
    if a + 4 > buf.len() {
        return None;
    }
    buf[a..a + 4].copy_from_slice(&v.to_le_bytes());
    Some(())
}

fn cmp_i(cmp: CmpOp, a: i64, b: i64) -> bool {
    match cmp {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

fn cmp_f64(cmp: CmpOp, a: f64, b: f64) -> bool {
    match cmp {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b, // NaN compares not-equal, matching the interpreter
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

#[cfg(test)]
mod tests {
    use crate::{Device, DeviceSpec, Dim3, GpuError, LaunchConfig};
    use sass::{asm, codec::codec_for, Arch};

    fn run(text: &str) -> crate::Result<crate::ExecStats> {
        let mut dev = Device::new(DeviceSpec::test(Arch::Volta));
        let prog = asm::assemble_arch(text, Arch::Volta).unwrap();
        let code = codec_for(Arch::Volta).encode_stream(&prog).unwrap();
        let addr = dev.alloc(code.len() as u64).unwrap();
        dev.write(addr, &code).unwrap();
        dev.launch(&LaunchConfig::new(addr, Dim3::linear(1), Dim3::linear(32)))
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
}
