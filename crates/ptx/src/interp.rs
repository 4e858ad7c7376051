//! Reference interpreter with SIMT semantics.
//!
//! Executes entry kernels directly at the PTX level, using an idealized
//! immediate-post-dominator reconvergence oracle (legitimate here because
//! PTX is never rewritten — unlike the machine code, which NVBit patches and
//! which therefore uses the runtime `SSY`/`SYNC` discipline in the `gpu`
//! crate). The interpreter is the differential-testing oracle for the
//! compiler + simulator pipeline: for any supported program, compiled SASS
//! executed by the simulator must produce byte-identical global memory.

use crate::ast::*;
use crate::cfg::{FnCfg, Linear};
use crate::types::PtxType;
use crate::{PtxError, Result};
use common::graph::Dominators;
pub use common::Dim3;
use sass::{CmpOp, SpecialReg};

/// Launch dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchGrid {
    /// Grid dimensions in blocks.
    pub grid: Dim3,
    /// Block dimensions in threads.
    pub block: Dim3,
}

impl LaunchGrid {
    /// A 1-D launch.
    pub fn linear(blocks: u32, threads: u32) -> LaunchGrid {
        LaunchGrid { grid: Dim3::linear(blocks), block: Dim3::linear(threads) }
    }

    /// Total threads per block.
    pub fn block_size(&self) -> u32 {
        self.block.count() as u32
    }
}

/// A kernel parameter value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamValue {
    /// 32-bit integer (also used for `f32` bit patterns via [`ParamValue::f32`]).
    U32(u32),
    /// 64-bit integer / pointer into the interpreter's global memory.
    U64(u64),
}

impl ParamValue {
    /// Wraps an `f32` as its bit pattern.
    pub fn f32(v: f32) -> ParamValue {
        ParamValue::U32(v.to_bits())
    }
}

/// Execution statistics of an interpreted launch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InterpOutcome {
    /// Thread-level instructions executed (sum over active lanes).
    pub thread_instructions: u64,
    /// Warp-level instructions executed.
    pub warp_instructions: u64,
}

const WARP: usize = 32;

/// Interprets an entry kernel over a full grid.
///
/// `mem` is the flat global memory; `u64` parameters index into it.
///
/// # Errors
///
/// [`PtxError::Interp`] on out-of-bounds accesses, unsupported constructs
/// (`proxy`, device-API intrinsics, guarded calls) or barrier deadlock.
pub fn interpret_entry(
    module: &Module,
    name: &str,
    launch: LaunchGrid,
    params: &[ParamValue],
    mem: &mut [u8],
) -> Result<InterpOutcome> {
    let f = module
        .function(name)
        .ok_or_else(|| PtxError::Interp { reason: format!("no kernel `{name}`") })?;
    if f.kind != FunctionKind::Entry {
        return Err(PtxError::Interp { reason: format!("`{name}` is not an entry kernel") });
    }
    if params.len() != f.params.len() {
        return Err(PtxError::Interp {
            reason: format!(
                "kernel `{name}` takes {} params, got {}",
                f.params.len(),
                params.len()
            ),
        });
    }
    let mut outcome = InterpOutcome::default();
    let mut machine = Machine { module, mem, outcome: &mut outcome };
    for bz in 0..launch.grid.z {
        for by in 0..launch.grid.y {
            for bx in 0..launch.grid.x {
                machine.run_block(f, launch, Dim3::xyz(bx, by, bz), params)?;
            }
        }
    }
    Ok(outcome)
}

/// Per-function interpretation context, reused for device-function calls.
struct Frame<'a> {
    f: &'a Function,
    lin: Linear,
    cfg: FnCfg,
    /// Per-instruction reconvergence PC (first instruction of the branch
    /// block's immediate post-dominator), if any.
    rpc_of: Vec<Option<usize>>,
    names: &'a Interner,
}

impl<'a> Frame<'a> {
    fn new(names: &'a Interner, f: &'a Function) -> Frame<'a> {
        let lin = Linear::of(f);
        let cfg = FnCfg::build(&lin);
        let ipd: Vec<Option<usize>> = cfg.ipostdom(&mut Dominators::default()).collect();
        let rpc_of = (0..lin.instrs.len())
            .map(|idx| {
                let b = cfg.instr_block[idx];
                ipd[b].map(|d| cfg.blocks[d].start)
            })
            .collect();
        Frame { f, lin, cfg, rpc_of, names }
    }

    /// The register-file slot of `v`, which must be declared.
    fn slot(&self, v: VReg) -> Result<usize> {
        let reg = &self.f.regs[v.index()];
        match reg.ty {
            Some(_) => Ok(v.index()),
            None => Err(PtxError::Interp {
                reason: format!("undeclared register `{}`", self.names.resolve(reg.name)),
            }),
        }
    }
}

/// One SIMT-stack entry.
#[derive(Debug, Clone)]
struct StackEntry {
    pc: usize,
    rpc: Option<usize>,
    mask: u32,
}

/// Warp state within one function activation.
struct WarpState {
    stack: Vec<StackEntry>,
    /// Per-lane register files (slot-indexed raw bits).
    regs: Vec<Vec<u64>>,
    preds: Vec<Vec<bool>>,
    /// Lanes waiting at a `bar.sync`.
    at_barrier: bool,
    done: bool,
}

struct Machine<'m, 'a> {
    module: &'a Module,
    mem: &'m mut [u8],
    outcome: &'m mut InterpOutcome,
}

impl<'m, 'a> Machine<'m, 'a> {
    fn run_block(
        &mut self,
        f: &'a Function,
        launch: LaunchGrid,
        block_id: Dim3,
        params: &[ParamValue],
    ) -> Result<()> {
        let frame = Frame::new(&self.module.names, f);
        let bs = launch.block_size() as usize;
        let warps = bs.div_ceil(WARP);
        let shared_size: u32 = f
            .shared
            .iter()
            .map(|s| {
                let a = s.align.max(4);
                // Offsets are assigned in order with alignment, matching
                // the backend's layout.
                s.bytes.div_ceil(a) * a
            })
            .sum();
        let mut shared = vec![0u8; shared_size.max(4) as usize];
        let mut locals: Vec<Vec<u8>> = vec![vec![0u8; 4096]; bs];

        let mut states: Vec<WarpState> = (0..warps)
            .map(|w| {
                let lanes = (bs - w * WARP).min(WARP);
                let mask = if lanes == 32 { u32::MAX } else { (1u32 << lanes) - 1 };
                WarpState {
                    stack: vec![StackEntry { pc: 0, rpc: None, mask }],
                    regs: vec![vec![0u64; frame.f.regs.len()]; WARP],
                    preds: vec![vec![false; frame.f.regs.len()]; WARP],
                    at_barrier: false,
                    done: false,
                }
            })
            .collect();

        // Round-robin warps until the block finishes, releasing barriers
        // when every live warp arrives.
        loop {
            let mut progressed = false;
            #[allow(clippy::needless_range_loop)] // w doubles as the warp id
            for w in 0..warps {
                if states[w].done || states[w].at_barrier {
                    continue;
                }
                progressed = true;
                self.run_warp(
                    &frame,
                    &mut states[w],
                    launch,
                    block_id,
                    w,
                    params,
                    &mut shared,
                    &mut locals,
                )?;
            }
            if states.iter().all(|s| s.done) {
                break;
            }
            if states.iter().all(|s| s.done || s.at_barrier) {
                if states.iter().any(|s| s.at_barrier) {
                    for s in &mut states {
                        s.at_barrier = false;
                    }
                } else {
                    break;
                }
            } else if !progressed {
                return Err(PtxError::Interp { reason: "barrier deadlock".into() });
            }
        }
        Ok(())
    }

    /// Runs one warp until it exits or reaches a barrier.
    #[allow(clippy::too_many_arguments)]
    fn run_warp(
        &mut self,
        frame: &Frame<'a>,
        st: &mut WarpState,
        launch: LaunchGrid,
        block_id: Dim3,
        warp_idx: usize,
        params: &[ParamValue],
        shared: &mut [u8],
        locals: &mut [Vec<u8>],
    ) -> Result<()> {
        let mut steps: u64 = 0;
        loop {
            steps += 1;
            if steps > 100_000_000 {
                return Err(PtxError::Interp { reason: "runaway kernel (100M steps)".into() });
            }
            // Merge at reconvergence points: a path that reaches its rpc is
            // folded into the reconvergence entry deeper in the stack (which
            // waits with `pc == rpc` and accumulates arriving lanes).
            #[allow(clippy::while_let_loop)] // the loop has three exits
            loop {
                let Some(top) = st.stack.last() else { break };
                if top.mask == 0 && st.stack.len() > 1 {
                    st.stack.pop();
                    continue;
                }
                let (pc, rpc, is_path) = (top.pc, top.rpc, st.stack.len());
                if let Some(rpc) = rpc {
                    if pc == rpc && is_path >= 2 {
                        let popped = st.stack.pop().unwrap();
                        if let Some(anc) =
                            st.stack.iter_mut().rev().find(|e| e.pc == popped.rpc.unwrap())
                        {
                            anc.mask |= popped.mask;
                        } else {
                            // No reconvergence ancestor (should not happen):
                            // continue as an independent entry.
                            st.stack.push(StackEntry {
                                pc: popped.pc,
                                rpc: None,
                                mask: popped.mask,
                            });
                            break;
                        }
                        continue;
                    }
                }
                break;
            }
            // A lone empty entry means every lane has exited.
            if st.stack.len() == 1 && st.stack[0].mask == 0 {
                st.stack.pop();
            }
            let Some(top) = st.stack.last().cloned() else {
                st.done = true;
                return Ok(());
            };
            if top.pc >= frame.lin.instrs.len() {
                // Fell off the end: implicit exit.
                st.done = true;
                return Ok(());
            }

            let i = &frame.lin.instrs[top.pc];
            let exec_mask = self.eval_guard(frame, st, i, top.mask)?;
            self.outcome.warp_instructions += 1;
            self.outcome.thread_instructions += exec_mask.count_ones() as u64;

            match &i.op {
                PtxOp::Bra { target } => {
                    let t = frame.lin.labels[target.index()].ok_or_else(|| {
                        let label = frame.names.resolve(frame.f.labels[target.index()]);
                        PtxError::Interp { reason: format!("undefined label `{label}`") }
                    })?;
                    let taken = exec_mask;
                    let fall = top.mask & !exec_mask;
                    let tos = st.stack.last_mut().unwrap();
                    if fall == 0 {
                        tos.pc = t;
                    } else if taken == 0 {
                        tos.pc = top.pc + 1;
                    } else {
                        // Divergence: convert top into the reconvergence
                        // entry and push both paths.
                        let rpc = frame.rpc_of[top.pc];
                        match rpc {
                            Some(r) => {
                                tos.pc = r;
                                tos.rpc = top.rpc;
                                // Start with no lanes; paths merge in.
                                tos.mask = 0;
                                st.stack.push(StackEntry { pc: top.pc + 1, rpc, mask: fall });
                                st.stack.push(StackEntry { pc: t, rpc, mask: taken });
                            }
                            None => {
                                // No static reconvergence: paths run to exit
                                // independently.
                                tos.pc = top.pc + 1;
                                tos.mask = fall;
                                st.stack.push(StackEntry { pc: t, rpc: None, mask: taken });
                            }
                        }
                    }
                    continue;
                }
                PtxOp::Exit | PtxOp::Ret | PtxOp::RetVal { .. } => {
                    // In an entry kernel all three terminate the lanes.
                    for e in st.stack.iter_mut() {
                        e.mask &= !exec_mask;
                    }
                    let tos = st.stack.last_mut().unwrap();
                    if tos.mask != 0 {
                        tos.pc += 1; // guarded exit: survivors continue
                    }
                    while matches!(st.stack.last(), Some(e) if e.mask == 0) {
                        st.stack.pop();
                    }
                    if st.stack.is_empty() {
                        st.done = true;
                        return Ok(());
                    }
                    continue;
                }
                PtxOp::BarSync => {
                    st.stack.last_mut().unwrap().pc += 1;
                    st.at_barrier = true;
                    return Ok(());
                }
                _ => {}
            }

            self.exec_straightline(
                frame, st, i, exec_mask, launch, block_id, warp_idx, params, shared, locals,
            )?;
            st.stack.last_mut().unwrap().pc += 1;
        }
    }

    fn eval_guard(
        &self,
        frame: &Frame<'a>,
        st: &WarpState,
        i: &PtxInstr,
        mask: u32,
    ) -> Result<u32> {
        match &i.guard {
            None => Ok(mask),
            Some(g) => {
                let slot = frame.slot(g.reg)?;
                let mut m = 0u32;
                for lane in 0..WARP {
                    if mask & (1 << lane) != 0 {
                        let v = st.preds[lane][slot];
                        if v != g.negated {
                            m |= 1 << lane;
                        }
                    }
                }
                Ok(m)
            }
        }
    }

    #[allow(clippy::too_many_arguments, clippy::too_many_lines)]
    fn exec_straightline(
        &mut self,
        frame: &Frame<'a>,
        st: &mut WarpState,
        i: &PtxInstr,
        exec: u32,
        launch: LaunchGrid,
        block_id: Dim3,
        warp_idx: usize,
        params: &[ParamValue],
        shared: &mut [u8],
        locals: &mut [Vec<u8>],
    ) -> Result<()> {
        use PtxOp as P;
        let err = |reason: String| PtxError::Interp { reason };

        // Warp-level operations read all lanes before any lane writes.
        match i.op {
            P::Vote { mode, dst, src, negated } => {
                let ps = frame.slot(src)?;
                let ds = frame.slot(dst)?;
                let mut ballot = 0u32;
                for lane in 0..WARP {
                    if exec & (1 << lane) != 0 && (st.preds[lane][ps] != negated) {
                        ballot |= 1 << lane;
                    }
                }
                let value = match mode {
                    VoteMode::Ballot => ballot,
                    VoteMode::All => u32::from(ballot == exec),
                    VoteMode::Any => u32::from(ballot != 0),
                };
                for lane in 0..WARP {
                    if exec & (1 << lane) != 0 {
                        st.regs[lane][ds] = value as u64;
                    }
                }
                return Ok(());
            }
            P::Shfl { mode, dst, a, b } => {
                let asl = frame.slot(a)?;
                let ds = frame.slot(dst)?;
                let snapshot: Vec<u64> = (0..WARP).map(|l| st.regs[l][asl]).collect();
                for lane in 0..WARP {
                    if exec & (1 << lane) == 0 {
                        continue;
                    }
                    let bv = self.read_src32(frame, st, lane, &b)? as usize;
                    // CUDA semantics: out-of-range sources keep the lane's
                    // own value (mirrored exactly by the machine executor).
                    let src_lane = match mode {
                        ShflMode::Idx => bv % WARP,
                        ShflMode::Up => {
                            if lane >= bv {
                                lane - bv
                            } else {
                                lane
                            }
                        }
                        ShflMode::Down => {
                            if lane + bv < WARP {
                                lane + bv
                            } else {
                                lane
                            }
                        }
                        ShflMode::Bfly => lane ^ (bv % WARP),
                    };
                    st.regs[lane][ds] = snapshot[src_lane];
                }
                return Ok(());
            }
            P::Call { ret, func, args } => {
                if i.guard.is_some() {
                    return Err(err("guarded calls are unsupported".into()));
                }
                return self.call(
                    frame,
                    st,
                    exec,
                    func,
                    frame.f.args(args),
                    ret,
                    launch,
                    block_id,
                    warp_idx,
                    params,
                    shared,
                    locals,
                );
            }
            _ => {}
        }

        for lane in 0..WARP {
            if exec & (1 << lane) == 0 {
                continue;
            }
            self.exec_lane(
                frame, st, i, lane, exec, launch, block_id, warp_idx, params, shared, locals,
            )?;
        }
        Ok(())
    }

    fn read_src32(&self, frame: &Frame<'a>, st: &WarpState, lane: usize, s: &Src) -> Result<u32> {
        match s {
            Src::Reg(r) => Ok(st.regs[lane][frame.slot(*r)?] as u32),
            Src::Imm(v) => Ok(*v as u32),
        }
    }

    fn read_src(
        &self,
        frame: &Frame<'a>,
        st: &WarpState,
        lane: usize,
        s: &Src,
        wide: bool,
    ) -> Result<u64> {
        match s {
            Src::Reg(r) => Ok(st.regs[lane][frame.slot(*r)?]),
            Src::Imm(v) => {
                if wide {
                    Ok(*v as u64)
                } else {
                    Ok(*v as u32 as u64)
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments, clippy::too_many_lines)]
    fn exec_lane(
        &mut self,
        frame: &Frame<'a>,
        st: &mut WarpState,
        i: &PtxInstr,
        lane: usize,
        exec: u32,
        launch: LaunchGrid,
        block_id: Dim3,
        warp_idx: usize,
        params: &[ParamValue],
        shared: &mut [u8],
        locals: &mut [Vec<u8>],
    ) -> Result<()> {
        use PtxOp as P;
        let err = |reason: String| PtxError::Interp { reason };
        let tid_flat = warp_idx * WARP + lane;

        match i.op {
            P::LdParam { ty, dst, param, offset } => {
                let idx =
                    frame.f.params.iter().position(|&(n, _)| n == param).ok_or_else(|| {
                        err(format!("unknown param `{}`", frame.names.resolve(param)))
                    })?;
                let v = match params[idx] {
                    ParamValue::U32(v) => v as u64,
                    ParamValue::U64(v) => v,
                };
                let v = if offset == 4 { v >> 32 } else { v };
                let ds = frame.slot(dst)?;
                st.regs[lane][ds] = if ty.is_wide() { v } else { v as u32 as u64 };
            }
            P::Ld { space, ty, dst, addr } => {
                let a = self.resolve_addr(frame, st, lane, &addr)?;
                let bytes = ty.bytes() as usize;
                let buf: &[u8] = match space {
                    Space::Global => self.mem,
                    Space::Shared => shared,
                    Space::Local => &locals[tid_flat],
                };
                let end =
                    a.checked_add(bytes as u64).ok_or_else(|| err("address overflow".into()))?;
                if end as usize > buf.len() {
                    return Err(err(format!("{space:?} load out of bounds at 0x{a:x}")));
                }
                let mut v = 0u64;
                for (k, b) in buf[a as usize..end as usize].iter().enumerate() {
                    v |= (*b as u64) << (8 * k);
                }
                st.regs[lane][frame.slot(dst)?] = v;
            }
            P::St { space, ty, addr, src } => {
                let a = self.resolve_addr(frame, st, lane, &addr)?;
                let bytes = ty.bytes() as usize;
                let v = st.regs[lane][frame.slot(src)?];
                let buf: &mut [u8] = match space {
                    Space::Global => self.mem,
                    Space::Shared => shared,
                    Space::Local => &mut locals[tid_flat],
                };
                let end =
                    a.checked_add(bytes as u64).ok_or_else(|| err("address overflow".into()))?;
                if end as usize > buf.len() {
                    return Err(err(format!("{space:?} store out of bounds at 0x{a:x}")));
                }
                for k in 0..bytes {
                    buf[a as usize + k] = (v >> (8 * k)) as u8;
                }
            }
            P::Mov { ty, dst, src, special, shared_addr } => {
                let ds = frame.slot(dst)?;
                if let Some(sp) = special {
                    let tid = thread_coords(tid_flat as u32, launch);
                    let v = match sp {
                        SpecialReg::TidX => tid.x,
                        SpecialReg::TidY => tid.y,
                        SpecialReg::TidZ => tid.z,
                        SpecialReg::NTidX => launch.block.x,
                        SpecialReg::NTidY => launch.block.y,
                        SpecialReg::NTidZ => launch.block.z,
                        SpecialReg::CtaIdX => block_id.x,
                        SpecialReg::CtaIdY => block_id.y,
                        SpecialReg::CtaIdZ => block_id.z,
                        SpecialReg::NCtaIdX => launch.grid.x,
                        SpecialReg::NCtaIdY => launch.grid.y,
                        SpecialReg::NCtaIdZ => launch.grid.z,
                        SpecialReg::LaneId => lane as u32,
                        SpecialReg::WarpId => warp_idx as u32,
                        SpecialReg::ActiveMask => exec,
                        SpecialReg::SmId
                        | SpecialReg::Clock
                        | SpecialReg::GridId
                        | SpecialReg::BarrierState => 0,
                    };
                    st.regs[lane][ds] = v as u64;
                } else if let Some(name) = shared_addr {
                    st.regs[lane][ds] = shared_offset(frame, name)? as u64;
                } else {
                    let v = self.read_src(
                        frame,
                        st,
                        lane,
                        &src.expect("a mov has exactly one source"),
                        ty.is_wide(),
                    )?;
                    st.regs[lane][ds] = if ty.is_wide() { v } else { v as u32 as u64 };
                }
            }
            P::Bin { kind, ty, dst, a, b } => {
                let av = st.regs[lane][frame.slot(a)?];
                let bv = self.read_src(frame, st, lane, &b, ty.is_wide())?;
                let r = eval_bin(kind, ty, av, bv).map_err(err)?;
                st.regs[lane][frame.slot(dst)?] = r;
            }
            P::Mad { wide, ty, dst, a, b, c } => {
                let av = st.regs[lane][frame.slot(a)?];
                let bv = self.read_src(frame, st, lane, &b, false)?;
                let cv = st.regs[lane][frame.slot(c)?];
                let r = if wide {
                    (av as u32 as u64).wrapping_mul(bv as u32 as u64).wrapping_add(cv)
                } else {
                    match ty {
                        PtxType::F32 => {
                            let v = f32::from_bits(av as u32)
                                .mul_add(f32::from_bits(bv as u32), f32::from_bits(cv as u32));
                            v.to_bits() as u64
                        }
                        PtxType::F64 => {
                            let v =
                                f64::from_bits(av).mul_add(f64::from_bits(bv), f64::from_bits(cv));
                            v.to_bits()
                        }
                        _ => (av as u32).wrapping_mul(bv as u32).wrapping_add(cv as u32) as u64,
                    }
                };
                st.regs[lane][frame.slot(dst)?] = r;
            }
            P::Setp { cmp, ty, dst, a, b } => {
                let av = st.regs[lane][frame.slot(a)?];
                let bv = self.read_src(frame, st, lane, &b, ty.is_wide())?;
                let r = eval_cmp(cmp, ty, av, bv).map_err(err)?;
                let ds = frame.slot(dst)?;
                st.preds[lane][ds] = r;
            }
            P::Selp { ty, dst, a, b, p } => {
                let av = st.regs[lane][frame.slot(a)?];
                let bv = self.read_src(frame, st, lane, &b, ty.is_wide())?;
                let pv = st.preds[lane][frame.slot(p)?];
                st.regs[lane][frame.slot(dst)?] = if pv { av } else { bv };
            }
            P::Cvt { dty, sty, dst, src } => {
                let sv = st.regs[lane][frame.slot(src)?];
                let r = eval_cvt(dty, sty, sv).map_err(err)?;
                st.regs[lane][frame.slot(dst)?] = r;
            }
            P::Atom { op, ty, dst, addr, src, src2 } => {
                let a = self.resolve_addr(frame, st, lane, &addr)?;
                let sv = st.regs[lane][frame.slot(src)?];
                let s2v = match src2 {
                    Some(r) => st.regs[lane][frame.slot(r)?],
                    None => 0,
                };
                let old = self.atomic(a, op, ty, sv, s2v)?;
                st.regs[lane][frame.slot(dst)?] = old;
            }
            P::Red { op, ty, addr, src } => {
                let a = self.resolve_addr(frame, st, lane, &addr)?;
                let sv = st.regs[lane][frame.slot(src)?];
                self.atomic(a, op, ty, sv, 0)?;
            }
            P::Popc { dst, src } => {
                let v = st.regs[lane][frame.slot(src)?] as u32;
                st.regs[lane][frame.slot(dst)?] = v.count_ones() as u64;
            }
            P::Mufu { func, dst, src } => {
                let v = f32::from_bits(st.regs[lane][frame.slot(src)?] as u32);
                let r = eval_mufu(func, v);
                st.regs[lane][frame.slot(dst)?] = r.to_bits() as u64;
            }
            P::Membar => {}
            P::Proxy { name, .. } => {
                return Err(err(format!(
                    "proxy instruction `{}` has no architectural semantics (instrument it)",
                    frame.names.resolve(name)
                )));
            }
            P::ChanPush { .. } => {
                return Err(err(
                    "chan.push has no host channel in the PTX interpreter (run on the device)"
                        .into(),
                ));
            }
            P::NvReadReg { .. } | P::NvWriteReg { .. } => {
                return Err(err("device-API intrinsics are only valid in instrumentation".into()));
            }
            // Handled in run_warp / exec_straightline.
            P::Bra { .. }
            | P::Ret
            | P::RetVal { .. }
            | P::Exit
            | P::BarSync
            | P::Call { .. }
            | P::Vote { .. }
            | P::Shfl { .. } => unreachable!("handled at warp level"),
        }
        Ok(())
    }

    /// Performs an atomic read-modify-write on global memory.
    fn atomic(&mut self, addr: u64, op: AtomOp, ty: PtxType, v: u64, v2: u64) -> Result<u64> {
        let bytes = ty.bytes() as usize;
        let end = addr as usize + bytes;
        if end > self.mem.len() {
            return Err(PtxError::Interp { reason: format!("atomic out of bounds at 0x{addr:x}") });
        }
        let mut old = 0u64;
        for k in 0..bytes {
            old |= (self.mem[addr as usize + k] as u64) << (8 * k);
        }
        let new = match (op, ty) {
            (AtomOp::Add, PtxType::F32) => {
                (f32::from_bits(old as u32) + f32::from_bits(v as u32)).to_bits() as u64
            }
            (AtomOp::Add, _) => old.wrapping_add(v),
            (AtomOp::Min, PtxType::S32) => ((old as i32).min(v as i32)) as u32 as u64,
            (AtomOp::Min, _) => old.min(v),
            (AtomOp::Max, PtxType::S32) => ((old as i32).max(v as i32)) as u32 as u64,
            (AtomOp::Max, _) => old.max(v),
            (AtomOp::And, _) => old & v,
            (AtomOp::Or, _) => old | v,
            (AtomOp::Xor, _) => old ^ v,
            (AtomOp::Exch, _) => v,
            (AtomOp::Cas, _) => {
                if old == v {
                    v2
                } else {
                    old
                }
            }
        };
        for k in 0..bytes {
            self.mem[addr as usize + k] = (new >> (8 * k)) as u8;
        }
        Ok(old)
    }

    fn resolve_addr(
        &self,
        frame: &Frame<'a>,
        st: &WarpState,
        lane: usize,
        addr: &Address,
    ) -> Result<u64> {
        let base = match addr.base {
            AddrBase::Reg(r) => st.regs[lane][frame.slot(r)?],
            AddrBase::Shared(name) => shared_offset(frame, name)? as u64,
        };
        Ok(base.wrapping_add(addr.offset as i64 as u64))
    }

    /// Calls a device function with warp-uniform control flow.
    #[allow(clippy::too_many_arguments)]
    fn call(
        &mut self,
        caller: &Frame<'a>,
        st: &mut WarpState,
        exec: u32,
        func: Sym,
        args: &[VReg],
        ret: Option<VReg>,
        launch: LaunchGrid,
        block_id: Dim3,
        warp_idx: usize,
        params: &[ParamValue],
        shared: &mut [u8],
        locals: &mut [Vec<u8>],
    ) -> Result<()> {
        let callee = self.module.functions.iter().find(|f| f.name == func);
        let func = self.module.names.resolve(func);
        let callee =
            callee.ok_or_else(|| PtxError::Interp { reason: format!("no function `{func}`") })?;
        if callee.kind != FunctionKind::Device {
            return Err(PtxError::Interp { reason: format!("`{func}` is not a device function") });
        }
        let cframe = Frame::new(&self.module.names, callee);
        let mut cst = WarpState {
            stack: vec![StackEntry { pc: 0, rpc: None, mask: exec }],
            regs: vec![vec![0u64; cframe.f.regs.len()]; WARP],
            preds: vec![vec![false; cframe.f.regs.len()]; WARP],
            at_barrier: false,
            done: false,
        };
        // Marshal arguments by position.
        if args.len() != callee.params.len() {
            return Err(PtxError::Interp {
                reason: format!("`{func}` takes {} args, got {}", callee.params.len(), args.len()),
            });
        }
        for (a, (pname, _)) in args.iter().zip(&callee.params) {
            let src_slot = caller.slot(*a)?;
            let param =
                callee.reg_named(*pname).expect("a device function's parameters are registers");
            let dst_slot = cframe.slot(param)?;
            for lane in 0..WARP {
                cst.regs[lane][dst_slot] = st.regs[lane][src_slot];
            }
        }
        // Run the callee to completion. `Ret` terminates lanes in the callee
        // state; barriers inside device functions are unsupported.
        self.run_warp(&cframe, &mut cst, launch, block_id, warp_idx, params, shared, locals)?;
        if cst.at_barrier {
            return Err(PtxError::Interp {
                reason: format!("bar.sync inside device function `{func}`"),
            });
        }
        // Return value.
        if let Some(r) = ret {
            let rr = callee
                .ret_reg
                .ok_or_else(|| PtxError::Interp { reason: format!("`{func}` returns no value") })?;
            let src_slot = cframe.slot(rr)?;
            let dst_slot = caller.slot(r)?;
            for lane in 0..WARP {
                if exec & (1 << lane) != 0 {
                    st.regs[lane][dst_slot] = cst.regs[lane][src_slot];
                }
            }
        }
        let _ = &cframe.cfg; // cfg retained for symmetry with the caller
        Ok(())
    }
}

fn shared_offset(frame: &Frame<'_>, name: Sym) -> Result<u32> {
    let mut off = 0u32;
    for s in &frame.f.shared {
        let a = s.align.max(4);
        off = off.div_ceil(a) * a;
        if s.name == name {
            return Ok(off);
        }
        off += s.bytes;
    }
    Err(PtxError::Interp { reason: format!("unknown shared `{}`", frame.names.resolve(name)) })
}

fn thread_coords(flat: u32, launch: LaunchGrid) -> Dim3 {
    let x = flat % launch.block.x;
    let y = (flat / launch.block.x) % launch.block.y;
    let z = flat / (launch.block.x * launch.block.y);
    Dim3::xyz(x, y, z)
}

/// The reference's own semantics of a binary operation. The executor has
/// its own; `gpu/tests/differential.rs` compares the two through whole
/// kernels, as it does for the three evaluators below.
fn eval_bin(kind: BinKind, ty: PtxType, a: u64, b: u64) -> std::result::Result<u64, String> {
    use BinKind as K;
    let f32s = |x: u64| f32::from_bits(x as u32);
    let wide = ty.is_wide();
    let norm = |v: u64| if wide { v } else { v as u32 as u64 };
    Ok(match (kind, ty) {
        (K::Add, PtxType::F32) => (f32s(a) + f32s(b)).to_bits() as u64,
        (K::Add, PtxType::F64) => (f64::from_bits(a) + f64::from_bits(b)).to_bits(),
        (K::Add, _) => norm(a.wrapping_add(b)),
        (K::Sub, PtxType::F32) => (f32s(a) - f32s(b)).to_bits() as u64,
        (K::Sub, PtxType::F64) => (f64::from_bits(a) - f64::from_bits(b)).to_bits(),
        (K::Sub, _) => norm(a.wrapping_sub(b)),
        (K::MulLo, PtxType::F32) => (f32s(a) * f32s(b)).to_bits() as u64,
        (K::MulLo, PtxType::F64) => (f64::from_bits(a) * f64::from_bits(b)).to_bits(),
        (K::MulLo, t) if t.is_wide() => return Err("mul.lo 64-bit unsupported".into()),
        (K::MulLo, _) => (a as u32).wrapping_mul(b as u32) as u64,
        (K::MulWide, _) => (a as u32 as u64).wrapping_mul(b as u32 as u64),
        (K::Min, PtxType::F32) => f32s(a).min(f32s(b)).to_bits() as u64,
        (K::Min, PtxType::S32) => ((a as i32).min(b as i32)) as u32 as u64,
        (K::Min, _) => norm(a.min(b)),
        (K::Max, PtxType::F32) => f32s(a).max(f32s(b)).to_bits() as u64,
        (K::Max, PtxType::S32) => ((a as i32).max(b as i32)) as u32 as u64,
        (K::Max, _) => norm(a.max(b)),
        (K::And, _) => norm(a & b),
        (K::Or, _) => norm(a | b),
        (K::Xor, _) => norm(a ^ b),
        (K::Shl, t) if t.is_wide() => a.wrapping_shl(b as u32 & 63),
        (K::Shl, _) => ((a as u32).wrapping_shl(b as u32 & 31)) as u64,
        (K::Shr, PtxType::S32) => ((a as i32).wrapping_shr(b as u32 & 31)) as u32 as u64,
        (K::Shr, t) if t.is_wide() => a.wrapping_shr(b as u32 & 63),
        (K::Shr, _) => ((a as u32).wrapping_shr(b as u32 & 31)) as u64,
    })
}

/// The reference's own semantics of a comparison.
fn eval_cmp(cmp: CmpOp, ty: PtxType, a: u64, b: u64) -> std::result::Result<bool, String> {
    use std::cmp::Ordering;
    let ord: Option<Ordering> = match ty {
        PtxType::F32 => f32::from_bits(a as u32).partial_cmp(&f32::from_bits(b as u32)),
        PtxType::F64 => f64::from_bits(a).partial_cmp(&f64::from_bits(b)),
        PtxType::S32 => Some((a as i32).cmp(&(b as i32))),
        PtxType::U32 | PtxType::B32 => Some((a as u32).cmp(&(b as u32))),
        PtxType::U64 | PtxType::B64 => Some(a.cmp(&b)),
        PtxType::S64 => Some((a as i64).cmp(&(b as i64))),
        PtxType::Pred => return Err("setp on predicates".into()),
    };
    Ok(match (cmp, ord) {
        (CmpOp::Eq, Some(Ordering::Equal)) => true,
        (CmpOp::Ne, Some(o)) => o != Ordering::Equal,
        (CmpOp::Ne, None) => true, // unordered compares as not-equal
        (CmpOp::Lt, Some(Ordering::Less)) => true,
        (CmpOp::Le, Some(Ordering::Less | Ordering::Equal)) => true,
        (CmpOp::Gt, Some(Ordering::Greater)) => true,
        (CmpOp::Ge, Some(Ordering::Greater | Ordering::Equal)) => true,
        _ => false,
    })
}

/// The reference's own semantics of a conversion.
fn eval_cvt(dty: PtxType, sty: PtxType, v: u64) -> std::result::Result<u64, String> {
    Ok(match (dty, sty) {
        (PtxType::U64 | PtxType::B64, PtxType::U32 | PtxType::B32) => v as u32 as u64,
        (PtxType::S64, PtxType::S32) => (v as i32) as i64 as u64,
        (PtxType::U32 | PtxType::S32 | PtxType::B32, s) if s.is_wide() && !s.is_float() => {
            v as u32 as u64
        }
        (PtxType::F32, PtxType::S32) => ((v as i32) as f32).to_bits() as u64,
        (PtxType::F32, PtxType::U32 | PtxType::B32) => ((v as u32) as f32).to_bits() as u64,
        (PtxType::S32, PtxType::F32) => (f32::from_bits(v as u32) as i32) as u32 as u64,
        (PtxType::U32, PtxType::F32) => (f32::from_bits(v as u32) as u32) as u64,
        (PtxType::F64, PtxType::F32) => (f32::from_bits(v as u32) as f64).to_bits(),
        (PtxType::F32, PtxType::F64) => (f64::from_bits(v) as f32).to_bits() as u64,
        // Via-f32 routes, matching the backend's lowering exactly.
        (PtxType::F64, PtxType::S32) => (((v as i32) as f32) as f64).to_bits(),
        (PtxType::F64, PtxType::U32) => (((v as u32) as f32) as f64).to_bits(),
        (PtxType::S32, PtxType::F64) => ((f64::from_bits(v) as f32) as i32) as u32 as u64,
        (PtxType::U32, PtxType::F64) => ((f64::from_bits(v) as f32) as u32) as u64,
        (a, b) if a == b => v,
        (a, b) => return Err(format!("unsupported conversion {b} -> {a}")),
    })
}

/// The reference's own semantics of a special-function operation.
fn eval_mufu(func: MufuFunc, v: f32) -> f32 {
    match func {
        MufuFunc::Rcp => 1.0 / v,
        MufuFunc::Sqrt => v.sqrt(),
        MufuFunc::Rsq => 1.0 / v.sqrt(),
        MufuFunc::Sin => v.sin(),
        MufuFunc::Cos => v.cos(),
        MufuFunc::Ex2 => v.exp2(),
        MufuFunc::Lg2 => v.log2(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn run(src: &str, kernel: &str, launch: LaunchGrid, params: &[ParamValue], mem: &mut [u8]) {
        let m = parse(src).unwrap();
        interpret_entry(&m, kernel, launch, params, mem).unwrap();
    }

    #[test]
    fn vecadd_computes_elementwise_sum() {
        let src = r#"
.entry vecadd(.param .u64 a, .param .u64 b, .param .u64 out, .param .u32 n)
{
    .reg .u32 %r<4>;
    .reg .u64 %rd<6>;
    .reg .f32 %f<4>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [a];
    ld.param.u64 %rd2, [b];
    ld.param.u64 %rd3, [out];
    ld.param.u32 %r1, [n];
    mov.u32 %r2, %ctaid.x;
    mov.u32 %r3, %tid.x;
    mad.lo.u32 %r2, %r2, 32, %r3;
    setp.ge.u32 %p1, %r2, %r1;
    @%p1 bra DONE;
    mul.wide.u32 %rd4, %r2, 4;
    add.u64 %rd5, %rd1, %rd4;
    ld.global.f32 %f1, [%rd5];
    add.u64 %rd5, %rd2, %rd4;
    ld.global.f32 %f2, [%rd5];
    add.f32 %f1, %f1, %f2;
    add.u64 %rd5, %rd3, %rd4;
    st.global.f32 [%rd5], %f1;
DONE:
    exit;
}
"#;
        let n = 100u32;
        let mut mem = vec![0u8; 3 * 4 * n as usize];
        for i in 0..n as usize {
            mem[i * 4..i * 4 + 4].copy_from_slice(&(i as f32).to_bits().to_le_bytes());
            let boff = 400 + i * 4;
            mem[boff..boff + 4].copy_from_slice(&(2.0f32 * i as f32).to_bits().to_le_bytes());
        }
        run(
            src,
            "vecadd",
            LaunchGrid::linear(4, 32),
            &[ParamValue::U64(0), ParamValue::U64(400), ParamValue::U64(800), ParamValue::U32(n)],
            &mut mem,
        );
        for i in 0..n as usize {
            let off = 800 + i * 4;
            let bits = u32::from_le_bytes(mem[off..off + 4].try_into().unwrap());
            assert_eq!(f32::from_bits(bits), 3.0 * i as f32, "element {i}");
        }
    }

    #[test]
    fn divergent_threads_reconverge_and_all_store() {
        let src = r#"
.entry k(.param .u64 out)
{
    .reg .u32 %r<5>;
    .reg .u64 %rd<4>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, %tid.x;
    and.b32 %r2, %r1, 1;
    setp.eq.u32 %p1, %r2, 0;
    @%p1 bra EVEN;
    mov.u32 %r3, 100;
    bra JOIN;
EVEN:
    mov.u32 %r3, 200;
JOIN:
    add.u32 %r3, %r3, %r1;
    mul.wide.u32 %rd2, %r1, 4;
    add.u64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r3;
    exit;
}
"#;
        let mut mem = vec![0u8; 32 * 4];
        run(src, "k", LaunchGrid::linear(1, 32), &[ParamValue::U64(0)], &mut mem);
        for t in 0..32usize {
            let v = u32::from_le_bytes(mem[t * 4..t * 4 + 4].try_into().unwrap());
            let expect = if t % 2 == 0 { 200 + t as u32 } else { 100 + t as u32 };
            assert_eq!(v, expect, "thread {t}");
        }
    }

    #[test]
    fn shared_memory_and_barrier_reverse_within_block() {
        let src = r#"
.entry rev(.param .u64 buf)
{
    .reg .u32 %r<8>;
    .reg .u64 %rd<4>;
    .shared .align 4 .b8 tile[128];
    ld.param.u64 %rd1, [buf];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd2, %r1, 4;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.u32 %r2, [%rd3];
    mov.u32 %r3, tile;
    shl.b32 %r4, %r1, 2;
    add.u32 %r4, %r4, %r3;
    st.shared.u32 [%r4], %r2;
    bar.sync 0;
    mov.u32 %r5, 31;
    sub.u32 %r5, %r5, %r1;
    shl.b32 %r6, %r5, 2;
    add.u32 %r6, %r6, %r3;
    ld.shared.u32 %r7, [%r6];
    st.global.u32 [%rd3], %r7;
    exit;
}
"#;
        let mut mem = vec![0u8; 32 * 4];
        for t in 0..32usize {
            mem[t * 4..t * 4 + 4].copy_from_slice(&(t as u32).to_le_bytes());
        }
        run(src, "rev", LaunchGrid::linear(1, 32), &[ParamValue::U64(0)], &mut mem);
        for t in 0..32usize {
            let v = u32::from_le_bytes(mem[t * 4..t * 4 + 4].try_into().unwrap());
            assert_eq!(v, 31 - t as u32);
        }
    }

    #[test]
    fn atomics_accumulate_across_threads() {
        let src = r#"
.entry count(.param .u64 ctr)
{
    .reg .u32 %r<3>;
    .reg .u64 %rd<2>;
    ld.param.u64 %rd1, [ctr];
    mov.u32 %r1, 1;
    atom.global.add.u32 %r2, [%rd1], %r1;
    exit;
}
"#;
        let mut mem = vec![0u8; 8];
        run(src, "count", LaunchGrid::linear(4, 64), &[ParamValue::U64(0)], &mut mem);
        let v = u32::from_le_bytes(mem[0..4].try_into().unwrap());
        assert_eq!(v, 256);
    }

    #[test]
    fn warp_shuffle_butterfly_sums() {
        // Warp-wide reduction via shfl.bfly: every lane ends with the sum of
        // all lane ids = 496.
        let src = r#"
.entry wsum(.param .u64 out)
{
    .reg .u32 %r<8>;
    .reg .u64 %rd<4>;
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, %laneid;
    mov.u32 %r2, %r1;
    shfl.bfly.b32 %r3, %r2, 16;
    add.u32 %r2, %r2, %r3;
    shfl.bfly.b32 %r3, %r2, 8;
    add.u32 %r2, %r2, %r3;
    shfl.bfly.b32 %r3, %r2, 4;
    add.u32 %r2, %r2, %r3;
    shfl.bfly.b32 %r3, %r2, 2;
    add.u32 %r2, %r2, %r3;
    shfl.bfly.b32 %r3, %r2, 1;
    add.u32 %r2, %r2, %r3;
    mul.wide.u32 %rd2, %r1, 4;
    add.u64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r2;
    exit;
}
"#;
        let mut mem = vec![0u8; 32 * 4];
        run(src, "wsum", LaunchGrid::linear(1, 32), &[ParamValue::U64(0)], &mut mem);
        for t in 0..32usize {
            let v = u32::from_le_bytes(mem[t * 4..t * 4 + 4].try_into().unwrap());
            assert_eq!(v, 496, "lane {t}");
        }
    }

    #[test]
    fn device_function_calls_return_values() {
        let src = r#"
.func (.reg .u32 %out) square(.reg .u32 %x)
{
    mul.lo.u32 %out, %x, %x;
    ret;
}
.entry k(.param .u64 buf)
{
    .reg .u32 %r<4>;
    .reg .u64 %rd<4>;
    ld.param.u64 %rd1, [buf];
    mov.u32 %r1, %tid.x;
    call (%r2), square, (%r1);
    mul.wide.u32 %rd2, %r1, 4;
    add.u64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r2;
    exit;
}
"#;
        let mut mem = vec![0u8; 32 * 4];
        run(src, "k", LaunchGrid::linear(1, 32), &[ParamValue::U64(0)], &mut mem);
        for t in 0..32u32 {
            let off = t as usize * 4;
            let v = u32::from_le_bytes(mem[off..off + 4].try_into().unwrap());
            assert_eq!(v, t * t);
        }
    }

    #[test]
    fn loops_with_data_dependent_trip_counts() {
        // Each thread sums 1..=tid, divergent trip counts.
        let src = r#"
.entry tri(.param .u64 out)
{
    .reg .u32 %r<6>;
    .reg .u64 %rd<4>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, %tid.x;
    mov.u32 %r2, 0;
    mov.u32 %r3, 0;
TOP:
    setp.ge.u32 %p1, %r3, %r1;
    @%p1 bra DONE;
    add.u32 %r3, %r3, 1;
    add.u32 %r2, %r2, %r3;
    bra TOP;
DONE:
    mul.wide.u32 %rd2, %r1, 4;
    add.u64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r2;
    exit;
}
"#;
        let mut mem = vec![0u8; 32 * 4];
        run(src, "tri", LaunchGrid::linear(1, 32), &[ParamValue::U64(0)], &mut mem);
        for t in 0..32u64 {
            let off = t as usize * 4;
            let v = u32::from_le_bytes(mem[off..off + 4].try_into().unwrap());
            assert_eq!(v as u64, t * (t + 1) / 2, "thread {t}");
        }
    }

    #[test]
    fn out_of_bounds_access_traps() {
        let src = r#"
.entry bad(.param .u64 p)
{
    .reg .u32 %r<2>;
    .reg .u64 %rd<2>;
    ld.param.u64 %rd1, [p];
    ld.global.u32 %r1, [%rd1+1000000];
    exit;
}
"#;
        let m = parse(src).unwrap();
        let mut mem = vec![0u8; 64];
        let r =
            interpret_entry(&m, "bad", LaunchGrid::linear(1, 1), &[ParamValue::U64(0)], &mut mem);
        assert!(matches!(r, Err(PtxError::Interp { .. })));
    }
}
