//! Backend: instruction selection, reconvergence placement and encoding.
//!
//! The pipeline per function:
//!
//! 1. **Return merging** — device functions with early `ret`s are rewritten
//!    to branch to a single return block, so the warp reconverges before the
//!    hardware return-address stack pops.
//! 2. **CFG + dominance analyses** over the PTX body.
//! 3. **Reconvergence planning** — for each potentially-divergent branch, an
//!    `SSY` push site and a shared `SYNC` landing block before the
//!    reconvergence point are planned (forward regions and natural loops).
//!    Branches whose region does not fit a supported shape simply get no
//!    `SSY`: the SIMT-stack runtime discipline stays *correct* without it,
//!    the warp just reconverges later (see `gpu` crate docs).
//! 4. **Register allocation** ([`crate::regalloc`]).
//! 5. **Selection** of SASS per PTX instruction, with immediate legalization
//!    against the narrower `Enc64` fields using the reserved scratch pair
//!    `R2:R3`.
//! 6. **Encoding** via the target family codec, with branch fix-ups and call
//!    relocations.

use crate::ast::*;
use crate::cfg::{ipostdom, FnCfg, Linear};
use crate::regalloc::{self, Allocation, Loc};
use crate::types::PtxType;
use crate::{CompiledFunction, LineInfo, ParamInfo, PtxError, Reloc, Result, PARAM_BASE};
use sass::{
    codec::codec_for, Arch, Guard, Instruction, Mods, Op, Operand, Pred, Reg, SubOp, Width,
};
use std::collections::{HashMap, HashSet};

use sass::op::IType;

/// Computes the stable 22-bit id of a proxy instruction name (paper §6.3's
/// hypothetical instructions). Tools match `PROXY` instructions by comparing
/// their immediate operand with this value.
pub fn proxy_id(name: &str) -> i64 {
    // FNV-1a, folded to 22 bits so it encodes on both families.
    let mut h: u32 = 0x811c9dc5;
    for b in name.bytes() {
        h ^= b as u32;
        h = h.wrapping_mul(0x01000193);
    }
    ((h ^ (h >> 22)) & 0x3f_ffff) as i64
}

/// Compiles one function to encoded SASS plus metadata.
///
/// # Errors
///
/// See [`crate::compile_module`].
pub fn compile_function(f: &Function, arch: Arch) -> Result<CompiledFunction> {
    compile_function_abi(f, arch, crate::Abi::Standard)
}

/// [`compile_function`] under an explicit calling convention.
///
/// # Errors
///
/// See [`crate::compile_module_abi`].
pub fn compile_function_abi(f: &Function, arch: Arch, abi: crate::Abi) -> Result<CompiledFunction> {
    let f = merge_returns(f);
    let lin = Linear::of(&f);
    let cfg = FnCfg::build(&lin);
    let alloc = regalloc::allocate_abi(&f, &lin, &cfg, abi)?;
    let plan = plan_reconvergence(&lin, &cfg);
    let mut e = Emitter::new(&f, arch, &alloc, &lin, &cfg, plan)?;
    e.run()?;
    e.finish()
}

/// Rewrites multiple/early `ret`s into branches to a single return block.
fn merge_returns(f: &Function) -> Function {
    let is_ret = |s: &Statement| matches!(s, Statement::Instr(i) if matches!(i.op, PtxOp::Ret | PtxOp::RetVal{..}));
    let ret_count = f.body.iter().filter(|s| is_ret(s)).count();
    let last_is_ret = f.body.last().map(is_ret).unwrap_or(false);
    if ret_count == 0 || (ret_count == 1 && last_is_ret) {
        return f.clone();
    }
    let merge_label = "$ret_merge".to_string();
    let ret_ty = f.ret.unwrap_or(crate::types::PtxType::B32);
    // Early `ret.val %r` sites stash their value in a hidden register so the
    // single merged return block can materialize it into the ABI register.
    let retval_tmp = "$retval".to_string();
    let mut uses_retval = false;
    let mut body = Vec::with_capacity(f.body.len() + 3);
    for s in &f.body {
        match s {
            Statement::Instr(i) if matches!(i.op, PtxOp::Ret) => {
                body.push(Statement::Instr(PtxInstr {
                    guard: i.guard.clone(),
                    op: PtxOp::Bra { target: merge_label.clone() },
                }));
            }
            Statement::Instr(i) => {
                if let PtxOp::RetVal { src } = &i.op {
                    uses_retval = true;
                    body.push(Statement::Instr(PtxInstr {
                        guard: i.guard.clone(),
                        op: PtxOp::Mov {
                            ty: ret_ty,
                            dst: retval_tmp.clone(),
                            src: Some(Src::Reg(src.clone())),
                            special: None,
                            shared_addr: None,
                        },
                    }));
                    body.push(Statement::Instr(PtxInstr {
                        guard: i.guard.clone(),
                        op: PtxOp::Bra { target: merge_label.clone() },
                    }));
                } else {
                    body.push(s.clone());
                }
            }
            other => body.push(other.clone()),
        }
    }
    body.push(Statement::Label(merge_label));
    if uses_retval {
        body.push(Statement::Instr(PtxInstr::new(PtxOp::RetVal { src: retval_tmp.clone() })));
    } else {
        body.push(Statement::Instr(PtxInstr::new(PtxOp::Ret)));
    }
    let mut out = f.clone();
    if uses_retval {
        out.regs.insert(retval_tmp, ret_ty);
    }
    out.body = body;
    out
}

/// The reconvergence plan for one function.
#[derive(Debug, Default)]
struct ReconvPlan {
    /// Blocks receiving `SSY` pushes before their terminator, with the
    /// reconvergence blocks to push (outermost first).
    ssy_at: HashMap<usize, Vec<usize>>,
    /// Reconvergence blocks that receive a `SYNC` landing pad.
    sync_before: HashSet<usize>,
    /// For each reconvergence block `d`, the set of blocks whose branches to
    /// `d` must be retargeted to the landing pad.
    region_of: HashMap<usize, HashSet<usize>>,
}

fn plan_reconvergence(lin: &Linear<'_>, cfg: &FnCfg) -> ReconvPlan {
    let mut plan = ReconvPlan::default();
    let ipd = ipostdom(cfg);
    let nb = cfg.blocks.len();

    let reach_without = |from: &[usize], avoid: usize| -> HashSet<usize> {
        let mut seen = HashSet::new();
        let mut stack: Vec<usize> = from.iter().copied().filter(|&b| b != avoid).collect();
        while let Some(b) = stack.pop() {
            if !seen.insert(b) {
                continue;
            }
            for &s in &cfg.blocks[b].succs {
                if s != avoid && !seen.contains(&s) {
                    stack.push(s);
                }
            }
        }
        seen
    };

    let has_ret = |b: usize| {
        (cfg.blocks[b].start..cfg.blocks[b].end)
            .any(|i| matches!(lin.instrs[i].op, PtxOp::Ret | PtxOp::RetVal { .. }))
    };

    // Candidate branches, largest region first so that nested regions are
    // planned after enclosing ones (claim order favours the outer join).
    let mut candidates: Vec<(usize, usize, HashSet<usize>)> = Vec::new();
    #[allow(clippy::needless_range_loop)] // b is a block id, not just an index
    for b in 0..nb {
        let term = cfg.blocks[b].end - 1;
        let i = lin.instrs[term];
        let is_cond_branch = matches!(i.op, PtxOp::Bra { .. }) && i.guard.is_some();
        if !is_cond_branch {
            continue;
        }
        let Some(d) = ipd[b] else { continue };
        let region = reach_without(&cfg.blocks[b].succs, d);
        candidates.push((b, d, region));
    }
    candidates.sort_by_key(|(_, _, r)| std::cmp::Reverse(r.len()));

    'cand: for (b, d, region) in candidates {
        if plan.sync_before.contains(&d) {
            continue; // join already claimed
        }
        // All region exits must go to `d` (or terminate), and no returns.
        for &x in &region {
            if has_ret(x) {
                continue 'cand;
            }
            for &s in &cfg.blocks[x].succs {
                if s != d && !region.contains(&s) {
                    continue 'cand;
                }
            }
        }
        // The block laid out immediately before `d` must not accidentally
        // fall into the landing pad from outside the region.
        if d > 0 {
            let layout_pred = d - 1;
            #[allow(clippy::nonminimal_bool)] // mirrors the prose condition
            let falls_through = {
                let t = cfg.blocks[layout_pred].end - 1;
                !matches!(lin.instrs[t].op, PtxOp::Ret | PtxOp::RetVal { .. } | PtxOp::Exit)
                    && !(matches!(lin.instrs[t].op, PtxOp::Bra { .. })
                        && lin.instrs[t].guard.is_none())
            };
            if falls_through && !region.contains(&layout_pred) && layout_pred != b {
                continue 'cand;
            }
        } else {
            continue 'cand;
        }

        // Determine the SSY site.
        let ssy_block = if !region.contains(&b) {
            b // forward divergence: push right before the branch
        } else {
            // Loop shape: find the unique region-entry block and its unique
            // outside predecessor with an unconditional edge.
            let entries: Vec<usize> = region
                .iter()
                .copied()
                .filter(|&x| cfg.blocks[x].preds.iter().any(|p| !region.contains(p)))
                .collect();
            if entries.len() != 1 {
                continue 'cand;
            }
            let entry = entries[0];
            let outside: Vec<usize> =
                cfg.blocks[entry].preds.iter().copied().filter(|p| !region.contains(p)).collect();
            if outside.len() != 1 {
                continue 'cand;
            }
            let p = outside[0];
            if cfg.blocks[p].succs != vec![entry] {
                continue 'cand;
            }
            p
        };

        plan.ssy_at.entry(ssy_block).or_default().push(d);
        plan.sync_before.insert(d);
        let mut r = region;
        r.insert(b);
        plan.region_of.insert(d, r);
    }
    plan
}

/// A source register or legal immediate after legalization.
#[derive(Debug, Clone, Copy)]
enum SVal {
    R(Reg),
    I(i64),
}

impl SVal {
    fn operand(self) -> Operand {
        match self {
            SVal::R(r) => Operand::Reg(r),
            SVal::I(v) => Operand::Imm(v),
        }
    }
}

/// Immediates up to this magnitude fit every operand slot on both families.
const IMM_SAFE: i64 = 1 << 17;

/// Scratch registers reserved for the lowering (an even pair).
const SCRATCH_LO: Reg = Reg(2);
#[allow(dead_code)]
const SCRATCH_HI: Reg = Reg(3);
/// The NVBit device-API frame pointer.
const NVBIT_FRAME: Reg = Reg(0);
/// First ABI argument register.
const ARG_BASE: u8 = 4;

struct Emitter<'a> {
    f: &'a Function,
    arch: Arch,
    isize: i64,
    alloc: &'a Allocation,
    lin: &'a Linear<'a>,
    cfg: &'a FnCfg,
    plan: ReconvPlan,
    out: Vec<Instruction>,
    /// (out index, block label id) pairs to fix up. Label ids: block id, or
    /// `nb + d` for the SYNC landing pad of block `d`.
    fixups: Vec<(usize, usize)>,
    labels: HashMap<usize, usize>,
    relocs: Vec<Reloc>,
    related: Vec<String>,
    line_table: Vec<LineInfo>,
    params: Vec<ParamInfo>,
    param_offset: HashMap<String, u32>,
    shared_offsets: HashMap<String, u32>,
    shared_size: u32,
    frame_bytes: u32,
    uses_reg_api: bool,
}

impl<'a> Emitter<'a> {
    fn new(
        f: &'a Function,
        arch: Arch,
        alloc: &'a Allocation,
        lin: &'a Linear<'a>,
        cfg: &'a FnCfg,
        plan: ReconvPlan,
    ) -> Result<Emitter<'a>> {
        // Kernel parameter layout.
        let mut params = Vec::new();
        let mut param_offset = HashMap::new();
        if f.kind == FunctionKind::Entry {
            let mut off = 0u32;
            for (name, ty) in &f.params {
                let size = ty.bytes().max(4);
                off = off.div_ceil(size) * size; // align to own size
                params.push(ParamInfo { name: name.clone(), size, offset: off });
                param_offset.insert(name.clone(), off);
                off += size;
            }
        }
        // Shared-memory layout.
        let mut shared_offsets = HashMap::new();
        let mut soff = 0u32;
        for s in &f.shared {
            let a = s.align.max(4);
            soff = soff.div_ceil(a) * a;
            shared_offsets.insert(s.name.clone(), soff);
            soff += s.bytes;
        }
        let frame_bytes = (alloc.used_callee_saved.len() as u32) * 4;
        Ok(Emitter {
            f,
            arch,
            isize: arch.instruction_size() as i64,
            alloc,
            lin,
            cfg,
            plan,
            out: Vec::new(),
            fixups: Vec::new(),
            labels: HashMap::new(),
            relocs: Vec::new(),
            related: Vec::new(),
            line_table: Vec::new(),
            params,
            param_offset,
            shared_offsets,
            shared_size: soff,
            frame_bytes,
            uses_reg_api: false,
        })
    }

    fn sem(&self, reason: String) -> PtxError {
        PtxError::Semantic { function: self.f.name.clone(), reason }
    }

    fn push(&mut self, i: Instruction) {
        self.out.push(i);
    }

    fn gpr_of(&self, name: &str) -> Result<Reg> {
        match self.alloc.map.get(name) {
            Some(Loc::Gpr(r)) | Some(Loc::Pair(r)) => Ok(Reg(*r)),
            Some(Loc::Pred(_)) => Err(self.sem(format!("`{name}` is a predicate, expected GPR"))),
            None => Err(self.sem(format!("`{name}` has no location"))),
        }
    }

    fn pred_of(&self, name: &str) -> Result<Pred> {
        match self.alloc.map.get(name) {
            Some(Loc::Pred(p)) => Ok(Pred(*p)),
            _ => Err(self.sem(format!("`{name}` is not a predicate"))),
        }
    }

    fn guard_of(&self, i: &PtxInstr) -> Result<Guard> {
        match &i.guard {
            None => Ok(Guard::ALWAYS),
            Some(g) => Ok(Guard { pred: self.pred_of(&g.reg)?, negated: g.negated }),
        }
    }

    /// Resolves a `Src` to a register or in-range immediate, materializing
    /// oversized immediates into the scratch register (32-bit ops).
    fn sval32(&mut self, s: &Src, guard: Guard) -> Result<SVal> {
        match s {
            Src::Reg(r) => Ok(SVal::R(self.gpr_of(r)?)),
            Src::Imm(v) if (-IMM_SAFE..IMM_SAFE).contains(v) => Ok(SVal::I(*v)),
            Src::Imm(v) => {
                self.push(
                    Instruction::new(
                        Op::Mov32i,
                        [Operand::Reg(SCRATCH_LO), Operand::Imm((*v as i32) as i64)],
                    )
                    .with_guard(guard),
                );
                Ok(SVal::R(SCRATCH_LO))
            }
        }
    }

    /// Resolves a 64-bit `Src` to a register pair or in-range immediate
    /// (wide ops sign-extend immediates).
    fn sval64(&mut self, s: &Src, guard: Guard) -> Result<SVal> {
        match s {
            Src::Reg(r) => Ok(SVal::R(self.gpr_of(r)?)),
            Src::Imm(v) if (-IMM_SAFE..IMM_SAFE).contains(v) => Ok(SVal::I(*v)),
            Src::Imm(v) => {
                self.mov64_imm(SCRATCH_LO, *v, guard);
                Ok(SVal::R(SCRATCH_LO))
            }
        }
    }

    fn mov64_imm(&mut self, lo: Reg, v: i64, guard: Guard) {
        let lo_bits = (v as u32 as i32) as i64;
        let hi_bits = ((v >> 32) as u32 as i32) as i64;
        self.push(
            Instruction::new(Op::Mov32i, [Operand::Reg(lo), Operand::Imm(lo_bits)])
                .with_guard(guard),
        );
        self.push(
            Instruction::new(Op::Mov32i, [Operand::Reg(Reg(lo.0 + 1)), Operand::Imm(hi_bits)])
                .with_guard(guard),
        );
    }

    /// Forces a `Src` into a register (for all-register forms like `IMAD`).
    fn force_reg32(&mut self, s: &Src, guard: Guard) -> Result<Reg> {
        match s {
            Src::Reg(r) => self.gpr_of(r),
            Src::Imm(v) => {
                self.push(
                    Instruction::new(
                        Op::Mov32i,
                        [Operand::Reg(SCRATCH_LO), Operand::Imm((*v as i32) as i64)],
                    )
                    .with_guard(guard),
                );
                Ok(SCRATCH_LO)
            }
        }
    }

    /// Emits everything and resolves fix-ups.
    fn run(&mut self) -> Result<()> {
        self.prologue()?;
        let cfg = self.cfg;
        let nb = cfg.blocks.len();
        for b in 0..nb {
            if self.plan.sync_before.contains(&b) {
                // The SYNC landing pad, labelled nb + b.
                self.labels.insert(nb + b, self.out.len());
                let mods = if self.arch.abi_version() >= 2 {
                    Mods { barrier: 1, ..Mods::default() }
                } else {
                    Mods::default()
                };
                self.push(Instruction::new(Op::Sync, []).with_mods(mods));
            }
            self.labels.insert(b, self.out.len());
            let block = &cfg.blocks[b];
            let term = block.end.saturating_sub(1);
            for idx in block.start..block.end {
                // SSY pushes go immediately before the block's terminator
                // (or at the very end if the block falls through — handled
                // below since the terminator of a fallthrough block is just
                // its last instruction).
                let is_term = idx == term;
                if is_term {
                    if let Some(ds) = self.plan.ssy_at.get(&b).cloned() {
                        let terminator_is_branch = matches!(
                            self.lin.instrs[idx].op,
                            PtxOp::Bra { .. } | PtxOp::Ret | PtxOp::RetVal { .. } | PtxOp::Exit
                        );
                        if terminator_is_branch {
                            for d in &ds {
                                self.emit_ssy(*d);
                            }
                            self.instr(b, idx)?;
                        } else {
                            self.instr(b, idx)?;
                            for d in &ds {
                                self.emit_ssy(*d);
                            }
                        }
                        continue;
                    }
                }
                self.instr(b, idx)?;
            }
        }
        // Resolve branch fix-ups.
        for (at, label) in std::mem::take(&mut self.fixups) {
            let target = *self
                .labels
                .get(&label)
                .ok_or_else(|| self.sem(format!("unresolved label id {label}")))?;
            let off = (target as i64 - (at as i64 + 1)) * self.isize;
            self.out[at].set_rel_target(off);
        }
        Ok(())
    }

    fn emit_ssy(&mut self, d: usize) {
        let mods = if self.arch.abi_version() >= 2 {
            Mods { barrier: 1, ..Mods::default() }
        } else {
            Mods::default()
        };
        let at = self.out.len();
        self.push(Instruction::new(Op::Ssy, [Operand::Rel(0)]).with_mods(mods));
        // SSY targets the join block itself (after the landing pad).
        self.fixups.push((at, d));
    }

    fn prologue(&mut self) -> Result<()> {
        if self.frame_bytes > 0 {
            self.push(Instruction::new(
                Op::Iadd,
                [
                    Operand::Reg(Reg::SP),
                    Operand::Reg(Reg::SP),
                    Operand::Imm(-(self.frame_bytes as i64)),
                ],
            ));
            let saved = self.alloc.used_callee_saved.clone();
            for (slot, &r) in saved.iter().enumerate() {
                self.push(Instruction::new(
                    Op::Stl,
                    [
                        Operand::MRef { base: Reg::SP, offset: (slot as i32) * 4 },
                        Operand::Reg(Reg(r)),
                    ],
                ));
            }
        }
        // Device-function arguments: move ABI registers into their allocated
        // homes (the allocator does not pre-colour).
        if self.f.kind == FunctionKind::Device {
            let mut slot = ARG_BASE;
            let mut moves: Vec<(Reg, Reg, bool)> = Vec::new();
            for (name, ty) in &self.f.params {
                let wide = ty.is_wide();
                if wide && !slot.is_multiple_of(2) {
                    slot += 1;
                }
                let dst = self.gpr_of(name)?;
                moves.push((dst, Reg(slot), wide));
                slot += if wide { 2 } else { 1 };
            }
            self.parallel_moves(&moves);
        }
        Ok(())
    }

    /// Emits a set of register moves that may overlap, resolving cycles via
    /// the scratch register.
    fn parallel_moves(&mut self, moves: &[(Reg, Reg, bool)]) {
        // Expand pairs into 32-bit unit moves.
        let mut units: Vec<(u8, u8)> = Vec::new();
        for (dst, src, wide) in moves {
            units.push((dst.0, src.0));
            if *wide {
                units.push((dst.0 + 1, src.0 + 1));
            }
        }
        units.retain(|(d, s)| d != s);
        // Iteratively emit moves whose destination is not a pending source.
        let mut emitted = vec![false; units.len()];
        loop {
            let mut progress = false;
            for i in 0..units.len() {
                if emitted[i] {
                    continue;
                }
                let (d, _) = units[i];
                let blocking =
                    units.iter().enumerate().any(|(j, (_, s2))| !emitted[j] && j != i && *s2 == d);
                if !blocking {
                    let (d, s) = units[i];
                    self.push(Instruction::new(
                        Op::Mov,
                        [Operand::Reg(Reg(d)), Operand::Reg(Reg(s))],
                    ));
                    emitted[i] = true;
                    progress = true;
                }
            }
            if emitted.iter().all(|&e| e) {
                break;
            }
            if !progress {
                // A cycle: rotate through scratch.
                let i = emitted.iter().position(|&e| !e).unwrap();
                let (_d, s) = units[i];
                self.push(Instruction::new(
                    Op::Mov,
                    [Operand::Reg(SCRATCH_LO), Operand::Reg(Reg(s))],
                ));
                // Redirect every pending read of `d`'s old value... the value
                // we must preserve is `s`'s (now in scratch).
                for (j, (_, s2)) in units.iter_mut().enumerate() {
                    if !emitted[j] && *s2 == s {
                        *s2 = SCRATCH_LO.0;
                    }
                }
            }
        }
    }

    fn epilogue_and_ret(&mut self, guard: Guard) {
        for (slot, &r) in self.alloc.used_callee_saved.clone().iter().enumerate() {
            self.push(
                Instruction::new(
                    Op::Ldl,
                    [
                        Operand::Reg(Reg(r)),
                        Operand::MRef { base: Reg::SP, offset: (slot as i32) * 4 },
                    ],
                )
                .with_guard(guard),
            );
        }
        if self.frame_bytes > 0 {
            self.push(
                Instruction::new(
                    Op::Iadd,
                    [
                        Operand::Reg(Reg::SP),
                        Operand::Reg(Reg::SP),
                        Operand::Imm(self.frame_bytes as i64),
                    ],
                )
                .with_guard(guard),
            );
        }
        self.push(Instruction::new(Op::Ret, []).with_guard(guard));
    }

    /// Emits one PTX instruction.
    fn instr(&mut self, block: usize, idx: usize) -> Result<()> {
        let lin = self.lin;
        let i = lin.instrs[idx];
        let loc = lin.loc[idx].clone();
        let g = self.guard_of(i)?;
        let start_len = self.out.len();
        self.select(block, i, g)?;
        // Attach line info to the first instruction this PTX op produced.
        if let Some((file, line)) = loc {
            if self.out.len() > start_len {
                self.line_table.push(LineInfo { instr_index: start_len, file, line });
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_lines)]
    fn select(&mut self, block: usize, i: &PtxInstr, g: Guard) -> Result<()> {
        use PtxOp as P;
        match &i.op {
            P::LdParam { ty, dst, param, offset } => {
                let base = *self
                    .param_offset
                    .get(param)
                    .ok_or_else(|| self.sem(format!("unknown parameter `{param}`")))?;
                let d = self.gpr_of(dst)?;
                let off = (PARAM_BASE + base + offset) as u16;
                let width = if ty.is_wide() { Width::B64 } else { Width::B32 };
                self.push(
                    Instruction::new(
                        Op::Ldc,
                        [Operand::Reg(d), Operand::CBank { bank: 0, base: Reg::RZ, offset: off }],
                    )
                    .with_mods(Mods { width, ..Mods::default() })
                    .with_guard(g),
                );
            }
            P::Ld { space, ty, dst, addr } => {
                let d = self.gpr_of(dst)?;
                let (op, base, off) = self.mem_operand(*space, addr, g, false)?;
                let width = if ty.is_wide() { Width::B64 } else { Width::B32 };
                self.push(
                    Instruction::new(op, [Operand::Reg(d), Operand::MRef { base, offset: off }])
                        .with_mods(Mods { width, ..Mods::default() })
                        .with_guard(g),
                );
            }
            P::St { space, ty, addr, src } => {
                let s = self.gpr_of(src)?;
                let (op, base, off) = self.mem_operand(*space, addr, g, true)?;
                let width = if ty.is_wide() { Width::B64 } else { Width::B32 };
                self.push(
                    Instruction::new(op, [Operand::MRef { base, offset: off }, Operand::Reg(s)])
                        .with_mods(Mods { width, ..Mods::default() })
                        .with_guard(g),
                );
            }
            P::Mov { ty, dst, src, special, shared_addr } => {
                let d = self.gpr_of(dst)?;
                if let Some(sp) = special {
                    self.push(
                        Instruction::new(Op::S2r, [Operand::Reg(d), Operand::SReg(sp.to_sass())])
                            .with_guard(g),
                    );
                } else if let Some(name) = shared_addr {
                    let off = *self
                        .shared_offsets
                        .get(name)
                        .ok_or_else(|| self.sem(format!("unknown shared variable `{name}`")))?;
                    self.push(
                        Instruction::new(Op::Mov32i, [Operand::Reg(d), Operand::Imm(off as i64)])
                            .with_guard(g),
                    );
                } else {
                    match src.as_ref().unwrap() {
                        Src::Reg(r) => {
                            let s = self.gpr_of(r)?;
                            self.push(
                                Instruction::new(Op::Mov, [Operand::Reg(d), Operand::Reg(s)])
                                    .with_guard(g),
                            );
                            if ty.is_wide() {
                                self.push(
                                    Instruction::new(
                                        Op::Mov,
                                        [Operand::Reg(Reg(d.0 + 1)), Operand::Reg(Reg(s.0 + 1))],
                                    )
                                    .with_guard(g),
                                );
                            }
                        }
                        Src::Imm(v) => {
                            if ty.is_wide() {
                                self.mov64_imm(d, *v, g);
                            } else {
                                self.push(
                                    Instruction::new(
                                        Op::Mov32i,
                                        [Operand::Reg(d), Operand::Imm((*v as i32) as i64)],
                                    )
                                    .with_guard(g),
                                );
                            }
                        }
                    }
                }
            }
            P::Bin { kind, ty, dst, a, b } => self.bin(*kind, *ty, dst, a, b, g)?,
            P::Mad { wide, ty, dst, a, b, c } => {
                let d = self.gpr_of(dst)?;
                let ra = self.gpr_of(a)?;
                let rb = self.force_reg32(b, g)?;
                let rc = self.gpr_of(c)?;
                let (op, itype) = match (wide, ty) {
                    (true, _) => (Op::Imad, IType::U64),
                    (false, PtxType::F32) => (Op::Ffma, IType::S32),
                    (false, PtxType::F64) => (Op::Dfma, IType::S32),
                    (false, t) if t.is_float() => (Op::Ffma, IType::S32),
                    (false, PtxType::U32) => (Op::Imad, IType::U32),
                    (false, _) => (Op::Imad, IType::S32),
                };
                self.push(
                    Instruction::new(
                        op,
                        [Operand::Reg(d), Operand::Reg(ra), Operand::Reg(rb), Operand::Reg(rc)],
                    )
                    .with_mods(Mods { itype, ..Mods::default() })
                    .with_guard(g),
                );
            }
            P::Setp { cmp, ty, dst, a, b } => {
                let p = self.pred_of(dst)?;
                let ra = self.gpr_of(a)?;
                let (op, itype) = match ty {
                    PtxType::F32 => (Op::Fsetp, IType::S32),
                    PtxType::F64 => (Op::Dsetp, IType::S32),
                    PtxType::U32 => (Op::Isetp, IType::U32),
                    PtxType::S32 | PtxType::B32 => (Op::Isetp, IType::S32),
                    other => return Err(self.sem(format!("setp unsupported for {other}"))),
                };
                let bv = if op == Op::Dsetp {
                    SVal::R(self.force_reg32(b, g)?)
                } else {
                    self.sval32(b, g)?
                };
                self.push(
                    Instruction::new(op, [Operand::pred(p), Operand::Reg(ra), bv.operand()])
                        .with_mods(Mods { cmp: cmp.to_sass(), itype, ..Mods::default() })
                        .with_guard(g),
                );
            }
            P::Selp { ty, dst, a, b, p } => {
                let d = self.gpr_of(dst)?;
                let ra = self.gpr_of(a)?;
                let pp = self.pred_of(p)?;
                if ty.is_wide() {
                    let rb = match b {
                        Src::Reg(r) => self.gpr_of(r)?,
                        Src::Imm(v) => {
                            self.mov64_imm(SCRATCH_LO, *v, g);
                            SCRATCH_LO
                        }
                    };
                    for half in 0..2u8 {
                        self.push(
                            Instruction::new(
                                Op::Sel,
                                [
                                    Operand::Reg(Reg(d.0 + half)),
                                    Operand::Reg(Reg(ra.0 + half)),
                                    Operand::Reg(Reg(rb.0 + half)),
                                    Operand::pred(pp),
                                ],
                            )
                            .with_guard(g),
                        );
                    }
                } else {
                    let bv = self.sval32(b, g)?;
                    self.push(
                        Instruction::new(
                            Op::Sel,
                            [Operand::Reg(d), Operand::Reg(ra), bv.operand(), Operand::pred(pp)],
                        )
                        .with_guard(g),
                    );
                }
            }
            P::Cvt { dty, sty, dst, src } => self.cvt(*dty, *sty, dst, src, g)?,
            P::Bra { target } => {
                let tidx = *self
                    .lin
                    .labels
                    .get(target)
                    .ok_or_else(|| self.sem(format!("undefined label `{target}`")))?;
                let tblock = self.cfg.instr_block.get(tidx).copied().unwrap_or(0);
                // Retarget branches into a claimed join to its landing pad.
                let label = if self.plan.sync_before.contains(&tblock)
                    && self.plan.region_of.get(&tblock).is_some_and(|r| r.contains(&block))
                    && self.cfg.blocks[tblock].start == tidx
                {
                    self.cfg.blocks.len() + tblock
                } else {
                    tblock
                };
                let at = self.out.len();
                self.push(Instruction::new(Op::Bra, [Operand::Rel(0)]).with_guard(g));
                self.fixups.push((at, label));
            }
            P::Call { ret, func, args } => {
                if !g.is_always() {
                    return Err(
                        self.sem(format!("guarded call to `{func}`: calls must be warp-uniform"))
                    );
                }
                // Marshal arguments.
                let mut slot = ARG_BASE;
                let mut moves: Vec<(Reg, Reg, bool)> = Vec::new();
                for a in args {
                    let ty = *self
                        .f
                        .regs
                        .get(a)
                        .ok_or_else(|| self.sem(format!("undeclared register `{a}`")))?;
                    let wide = ty.is_wide();
                    if wide && !slot.is_multiple_of(2) {
                        slot += 1;
                    }
                    let src = self.gpr_of(a)?;
                    moves.push((Reg(slot), src, wide));
                    slot += if wide { 2 } else { 1 };
                }
                self.parallel_moves(&moves);
                let at = self.out.len();
                self.push(Instruction::new(Op::Jcal, [Operand::Abs(0)]));
                self.relocs.push(Reloc { instr_index: at, target: func.clone() });
                if !self.related.contains(func) {
                    self.related.push(func.clone());
                }
                if let Some(r) = ret {
                    let ty = *self
                        .f
                        .regs
                        .get(r)
                        .ok_or_else(|| self.sem(format!("undeclared register `{r}`")))?;
                    let d = self.gpr_of(r)?;
                    self.push(Instruction::new(
                        Op::Mov,
                        [Operand::Reg(d), Operand::Reg(Reg(ARG_BASE))],
                    ));
                    if ty.is_wide() {
                        self.push(Instruction::new(
                            Op::Mov,
                            [Operand::Reg(Reg(d.0 + 1)), Operand::Reg(Reg(ARG_BASE + 1))],
                        ));
                    }
                }
            }
            P::Ret => {
                if self.f.kind == FunctionKind::Entry {
                    self.push(Instruction::new(Op::Exit, []).with_guard(g));
                } else {
                    if let Some(rr) = &self.f.ret_reg {
                        let src = self.gpr_of(rr)?;
                        let wide = self.f.ret.map(|t| t.is_wide()).unwrap_or(false);
                        if src.0 != ARG_BASE {
                            self.push(
                                Instruction::new(
                                    Op::Mov,
                                    [Operand::Reg(Reg(ARG_BASE)), Operand::Reg(src)],
                                )
                                .with_guard(g),
                            );
                            if wide {
                                self.push(
                                    Instruction::new(
                                        Op::Mov,
                                        [
                                            Operand::Reg(Reg(ARG_BASE + 1)),
                                            Operand::Reg(Reg(src.0 + 1)),
                                        ],
                                    )
                                    .with_guard(g),
                                );
                            }
                        }
                    }
                    self.epilogue_and_ret(g);
                }
            }
            P::RetVal { src } => {
                let s = self.gpr_of(src)?;
                if s.0 != ARG_BASE {
                    self.push(
                        Instruction::new(Op::Mov, [Operand::Reg(Reg(ARG_BASE)), Operand::Reg(s)])
                            .with_guard(g),
                    );
                }
                if self.f.kind == FunctionKind::Device {
                    self.epilogue_and_ret(g);
                } else {
                    self.push(Instruction::new(Op::Exit, []).with_guard(g));
                }
            }
            P::Exit => self.push(Instruction::new(Op::Exit, []).with_guard(g)),
            P::BarSync => self.push(Instruction::new(Op::Bar, []).with_guard(g)),
            P::Membar => self.push(Instruction::new(Op::Membar, []).with_guard(g)),
            P::Atom { op, ty, dst, addr, src, src2 } => {
                let d = self.gpr_of(dst)?;
                let (base, off) = self.global_addr(addr, g)?;
                let s = self.gpr_of(src)?;
                let s2 = match src2 {
                    Some(r) => self.gpr_of(r)?,
                    None => Reg::RZ,
                };
                let itype = atom_itype(*ty)
                    .ok_or_else(|| self.sem(format!("atomics unsupported for {ty}")))?;
                self.push(
                    Instruction::new(
                        Op::Atom,
                        [
                            Operand::Reg(d),
                            Operand::MRef { base, offset: off },
                            Operand::Reg(s),
                            Operand::Reg(s2),
                        ],
                    )
                    .with_mods(Mods { sub: op.to_sass(), itype, ..Mods::default() })
                    .with_guard(g),
                );
            }
            P::Red { op, ty, addr, src } => {
                let (base, off) = self.global_addr(addr, g)?;
                let s = self.gpr_of(src)?;
                let itype = atom_itype(*ty)
                    .ok_or_else(|| self.sem(format!("reductions unsupported for {ty}")))?;
                self.push(
                    Instruction::new(
                        Op::Red,
                        [Operand::MRef { base, offset: off }, Operand::Reg(s)],
                    )
                    .with_mods(Mods { sub: op.to_sass(), itype, ..Mods::default() })
                    .with_guard(g),
                );
            }
            P::Vote { mode, dst, src, negated } => {
                let d = self.gpr_of(dst)?;
                let p = self.pred_of(src)?;
                let sub = match mode {
                    VoteMode::All => SubOp::All,
                    VoteMode::Any => SubOp::Any,
                    VoteMode::Ballot => SubOp::Ballot,
                };
                self.push(
                    Instruction::new(
                        Op::Vote,
                        [Operand::Reg(d), Operand::Pred { pred: p, negated: *negated }],
                    )
                    .with_mods(Mods { sub, ..Mods::default() })
                    .with_guard(g),
                );
            }
            P::Shfl { mode, dst, a, b } => {
                let d = self.gpr_of(dst)?;
                let ra = self.gpr_of(a)?;
                let bv = self.sval32(b, g)?;
                let sub = match mode {
                    ShflMode::Idx => SubOp::Idx,
                    ShflMode::Up => SubOp::Up,
                    ShflMode::Down => SubOp::Down,
                    ShflMode::Bfly => SubOp::Bfly,
                };
                self.push(
                    Instruction::new(Op::Shfl, [Operand::Reg(d), Operand::Reg(ra), bv.operand()])
                        .with_mods(Mods { sub, ..Mods::default() })
                        .with_guard(g),
                );
            }
            P::Popc { dst, src } => {
                let d = self.gpr_of(dst)?;
                let s = self.gpr_of(src)?;
                self.push(
                    Instruction::new(Op::Popc, [Operand::Reg(d), Operand::Reg(s)]).with_guard(g),
                );
            }
            P::Mufu { func, dst, src } => {
                let d = self.gpr_of(dst)?;
                let s = self.gpr_of(src)?;
                self.push(
                    Instruction::new(Op::Mufu, [Operand::Reg(d), Operand::Reg(s)])
                        .with_mods(Mods { sub: func.to_sass(), ..Mods::default() })
                        .with_guard(g),
                );
            }
            P::Proxy { dst, src, name } => {
                let d = self.gpr_of(dst)?;
                let s = self.gpr_of(src)?;
                self.push(
                    Instruction::new(
                        Op::Proxy,
                        [Operand::Reg(d), Operand::Reg(s), Operand::Imm(proxy_id(name))],
                    )
                    .with_guard(g),
                );
            }
            P::ChanPush { src } => {
                let s = self.gpr_of(src)?;
                self.push(
                    Instruction::new(Op::Chan, [Operand::Reg(s)])
                        .with_mods(Mods { width: Width::B64, ..Mods::default() })
                        .with_guard(g),
                );
            }
            P::NvReadReg { dst, idx } => {
                self.uses_reg_api = true;
                let d = self.gpr_of(dst)?;
                match idx {
                    Src::Imm(v) => {
                        self.push(
                            Instruction::new(
                                Op::Ldl,
                                [
                                    Operand::Reg(d),
                                    Operand::MRef { base: NVBIT_FRAME, offset: (*v as i32) * 4 },
                                ],
                            )
                            .with_guard(g),
                        );
                    }
                    Src::Reg(r) => {
                        let ri = self.gpr_of(r)?;
                        self.frame_index(ri, g);
                        self.push(
                            Instruction::new(
                                Op::Ldl,
                                [Operand::Reg(d), Operand::MRef { base: SCRATCH_LO, offset: 0 }],
                            )
                            .with_guard(g),
                        );
                    }
                }
            }
            P::NvWriteReg { idx, src } => {
                self.uses_reg_api = true;
                let s = self.gpr_of(src)?;
                match idx {
                    Src::Imm(v) => {
                        self.push(
                            Instruction::new(
                                Op::Stl,
                                [
                                    Operand::MRef { base: NVBIT_FRAME, offset: (*v as i32) * 4 },
                                    Operand::Reg(s),
                                ],
                            )
                            .with_guard(g),
                        );
                    }
                    Src::Reg(r) => {
                        let ri = self.gpr_of(r)?;
                        self.frame_index(ri, g);
                        self.push(
                            Instruction::new(
                                Op::Stl,
                                [Operand::MRef { base: SCRATCH_LO, offset: 0 }, Operand::Reg(s)],
                            )
                            .with_guard(g),
                        );
                    }
                }
            }
        }
        Ok(())
    }

    /// Computes `SCRATCH_LO = NVBIT_FRAME + idx * 4` for dynamic device-API
    /// register indices.
    fn frame_index(&mut self, idx: Reg, g: Guard) {
        self.push(
            Instruction::new(
                Op::Shl,
                [Operand::Reg(SCRATCH_LO), Operand::Reg(idx), Operand::Imm(2)],
            )
            .with_guard(g),
        );
        self.push(
            Instruction::new(
                Op::Iadd,
                [Operand::Reg(SCRATCH_LO), Operand::Reg(SCRATCH_LO), Operand::Reg(NVBIT_FRAME)],
            )
            .with_guard(g),
        );
    }

    /// Resolves a load/store address: returns the opcode for the space and
    /// the base register + offset of the `MRef`.
    fn mem_operand(
        &mut self,
        space: Space,
        addr: &Address,
        g: Guard,
        store: bool,
    ) -> Result<(Op, Reg, i32)> {
        let op = match (space, store) {
            (Space::Global, false) => Op::Ldg,
            (Space::Global, true) => Op::Stg,
            (Space::Shared, false) => Op::Lds,
            (Space::Shared, true) => Op::Sts,
            (Space::Local, false) => Op::Ldl,
            (Space::Local, true) => Op::Stl,
        };
        match &addr.base {
            AddrBase::Reg(r) => {
                let base = self.gpr_of(r)?;
                Ok((op, base, addr.offset))
            }
            AddrBase::Shared(name) => {
                if space != Space::Shared {
                    return Err(self
                        .sem(format!("shared variable `{name}` addressed with {space:?} access")));
                }
                let off = *self
                    .shared_offsets
                    .get(name)
                    .ok_or_else(|| self.sem(format!("unknown shared variable `{name}`")))?;
                let _ = g;
                Ok((op, Reg::RZ, off as i32 + addr.offset))
            }
        }
    }

    /// Resolves a global address for atomics, folding non-zero offsets into
    /// the scratch pair (the atomic offset field is narrow).
    fn global_addr(&mut self, addr: &Address, g: Guard) -> Result<(Reg, i32)> {
        let AddrBase::Reg(r) = &addr.base else {
            return Err(self.sem("atomics require a register address".into()));
        };
        let base = self.gpr_of(r)?;
        if addr.offset == 0 {
            return Ok((base, 0));
        }
        if (-128..128).contains(&addr.offset) {
            return Ok((base, addr.offset));
        }
        self.push(
            Instruction::new(
                Op::Iadd,
                [Operand::Reg(SCRATCH_LO), Operand::Reg(base), Operand::Imm(addr.offset as i64)],
            )
            .with_mods(Mods { itype: IType::U64, ..Mods::default() })
            .with_guard(g),
        );
        Ok((SCRATCH_LO, 0))
    }

    fn bin(
        &mut self,
        kind: BinKind,
        ty: PtxType,
        dst: &str,
        a: &str,
        b: &Src,
        g: Guard,
    ) -> Result<()> {
        let d = self.gpr_of(dst)?;
        let ra = self.gpr_of(a)?;
        let mods = |itype| Mods { itype, ..Mods::default() };
        match (kind, ty) {
            (BinKind::Add, PtxType::F32) => {
                let bv = self.sval32(b, g)?;
                self.push(
                    Instruction::new(Op::Fadd, [Operand::Reg(d), Operand::Reg(ra), bv.operand()])
                        .with_guard(g),
                );
            }
            (BinKind::Add, PtxType::F64) => {
                let rb = self.wide_reg(b, g)?;
                self.push(
                    Instruction::new(
                        Op::Dadd,
                        [Operand::Reg(d), Operand::Reg(ra), Operand::Reg(rb)],
                    )
                    .with_guard(g),
                );
            }
            (BinKind::Add, t) if t.is_wide() => {
                let bv = self.sval64(b, g)?;
                self.push(
                    Instruction::new(Op::Iadd, [Operand::Reg(d), Operand::Reg(ra), bv.operand()])
                        .with_mods(mods(IType::U64))
                        .with_guard(g),
                );
            }
            (BinKind::Add, _) => {
                let bv = self.sval32(b, g)?;
                self.push(
                    Instruction::new(Op::Iadd, [Operand::Reg(d), Operand::Reg(ra), bv.operand()])
                        .with_guard(g),
                );
            }
            (BinKind::Sub, PtxType::F32) => match b {
                Src::Imm(v) => {
                    // Negate the float immediate by flipping its sign bit.
                    let neg = ((*v as u32) ^ 0x8000_0000) as i32 as i64;
                    self.push(
                        Instruction::new(
                            Op::Fadd,
                            [Operand::Reg(d), Operand::Reg(ra), Operand::Imm(neg)],
                        )
                        .with_guard(g),
                    );
                }
                Src::Reg(r) => {
                    let rb = self.gpr_of(r)?;
                    // d = a - b  via  d = b * (-1.0) + a
                    self.push(
                        Instruction::new(
                            Op::Mov32i,
                            [
                                Operand::Reg(SCRATCH_LO),
                                Operand::Imm((-1.0f32).to_bits() as i32 as i64),
                            ],
                        )
                        .with_guard(g),
                    );
                    self.push(
                        Instruction::new(
                            Op::Ffma,
                            [
                                Operand::Reg(d),
                                Operand::Reg(rb),
                                Operand::Reg(SCRATCH_LO),
                                Operand::Reg(ra),
                            ],
                        )
                        .with_guard(g),
                    );
                }
            },
            (BinKind::Sub, t) if t.is_wide() && !t.is_float() => {
                let bv = match b {
                    Src::Reg(_) => self.sval64(b, g)?,
                    Src::Imm(v) => SVal::I(-*v), // fold negation
                };
                match bv {
                    SVal::I(v) if (-IMM_SAFE..IMM_SAFE).contains(&v) => {
                        self.push(
                            Instruction::new(
                                Op::Iadd,
                                [Operand::Reg(d), Operand::Reg(ra), Operand::Imm(v)],
                            )
                            .with_mods(mods(IType::U64))
                            .with_guard(g),
                        );
                    }
                    SVal::I(v) => {
                        self.mov64_imm(SCRATCH_LO, v, g);
                        self.push(
                            Instruction::new(
                                Op::Iadd,
                                [Operand::Reg(d), Operand::Reg(ra), Operand::Reg(SCRATCH_LO)],
                            )
                            .with_mods(mods(IType::U64))
                            .with_guard(g),
                        );
                    }
                    SVal::R(rb) => {
                        self.push(
                            Instruction::new(
                                Op::Isub,
                                [Operand::Reg(d), Operand::Reg(ra), Operand::Reg(rb)],
                            )
                            .with_mods(mods(IType::U64))
                            .with_guard(g),
                        );
                    }
                }
            }
            (BinKind::Sub, PtxType::F64) => {
                return Err(self.sem("f64 subtraction: use dfma with a negated operand".into()));
            }
            (BinKind::Sub, _) => {
                let bv = self.sval32(b, g)?;
                self.push(
                    Instruction::new(Op::Isub, [Operand::Reg(d), Operand::Reg(ra), bv.operand()])
                        .with_guard(g),
                );
            }
            (BinKind::MulLo, PtxType::F32) => {
                let bv = self.sval32(b, g)?;
                self.push(
                    Instruction::new(Op::Fmul, [Operand::Reg(d), Operand::Reg(ra), bv.operand()])
                        .with_guard(g),
                );
            }
            (BinKind::MulLo, PtxType::F64) => {
                let rb = self.wide_reg(b, g)?;
                self.push(
                    Instruction::new(
                        Op::Dmul,
                        [Operand::Reg(d), Operand::Reg(ra), Operand::Reg(rb)],
                    )
                    .with_guard(g),
                );
            }
            (BinKind::MulLo, t) if t.is_wide() => {
                return Err(self.sem("64-bit integer mul.lo is not supported".into()));
            }
            (BinKind::MulLo, _) => {
                let bv = self.sval32(b, g)?;
                self.push(
                    Instruction::new(Op::Imul, [Operand::Reg(d), Operand::Reg(ra), bv.operand()])
                        .with_guard(g),
                );
            }
            (BinKind::MulWide, _) => {
                // d64 = a32 * b32 + 0
                let rb = self.force_reg32(b, g)?;
                self.push(
                    Instruction::new(
                        Op::Imad,
                        [
                            Operand::Reg(d),
                            Operand::Reg(ra),
                            Operand::Reg(rb),
                            Operand::Reg(Reg::RZ),
                        ],
                    )
                    .with_mods(mods(IType::U64))
                    .with_guard(g),
                );
            }
            (BinKind::Min | BinKind::Max, t) => {
                let sub = if kind == BinKind::Min { SubOp::Min } else { SubOp::Max };
                let (op, itype) = match t {
                    PtxType::F32 => (Op::Fmnmx, IType::S32),
                    PtxType::U32 => (Op::Imnmx, IType::U32),
                    PtxType::S32 | PtxType::B32 => (Op::Imnmx, IType::S32),
                    other => return Err(self.sem(format!("min/max unsupported for {other}"))),
                };
                let bv = self.sval32(b, g)?;
                self.push(
                    Instruction::new(op, [Operand::Reg(d), Operand::Reg(ra), bv.operand()])
                        .with_mods(Mods { sub, itype, ..Mods::default() })
                        .with_guard(g),
                );
            }
            (BinKind::And | BinKind::Or | BinKind::Xor, _) => {
                let sub = match kind {
                    BinKind::And => SubOp::And,
                    BinKind::Or => SubOp::Or,
                    _ => SubOp::Xor,
                };
                let bv = self.sval32(b, g)?;
                self.push(
                    Instruction::new(Op::Lop, [Operand::Reg(d), Operand::Reg(ra), bv.operand()])
                        .with_mods(Mods { sub, ..Mods::default() })
                        .with_guard(g),
                );
            }
            (BinKind::Shl, t) => {
                let bv = self.sval32(b, g)?;
                let itype = if t.is_wide() { IType::U64 } else { IType::S32 };
                self.push(
                    Instruction::new(Op::Shl, [Operand::Reg(d), Operand::Reg(ra), bv.operand()])
                        .with_mods(mods(itype))
                        .with_guard(g),
                );
            }
            (BinKind::Shr, t) => {
                let bv = self.sval32(b, g)?;
                let itype = match t {
                    PtxType::S32 => IType::S32,
                    t if t.is_wide() => IType::U64,
                    _ => IType::U32,
                };
                self.push(
                    Instruction::new(Op::Shr, [Operand::Reg(d), Operand::Reg(ra), bv.operand()])
                        .with_mods(mods(itype))
                        .with_guard(g),
                );
            }
        }
        Ok(())
    }

    /// Resolves a 64-bit source into a register pair (doubles never take
    /// immediates in the machine ISA).
    fn wide_reg(&mut self, b: &Src, g: Guard) -> Result<Reg> {
        match b {
            Src::Reg(r) => self.gpr_of(r),
            Src::Imm(v) => {
                self.mov64_imm(SCRATCH_LO, *v, g);
                Ok(SCRATCH_LO)
            }
        }
    }

    fn cvt(&mut self, dty: PtxType, sty: PtxType, dst: &str, src: &str, g: Guard) -> Result<()> {
        let d = self.gpr_of(dst)?;
        let s = self.gpr_of(src)?;
        let mov = |e: &mut Self, dd: Reg, ss: Reg| {
            e.push(Instruction::new(Op::Mov, [Operand::Reg(dd), Operand::Reg(ss)]).with_guard(g));
        };
        match (dty, sty) {
            // Widening integer converts.
            (PtxType::U64 | PtxType::B64, PtxType::U32 | PtxType::B32) => {
                mov(self, d, s);
                mov(self, Reg(d.0 + 1), Reg::RZ);
            }
            (PtxType::S64, PtxType::S32) => {
                mov(self, d, s);
                self.push(
                    Instruction::new(
                        Op::Shr,
                        [Operand::Reg(Reg(d.0 + 1)), Operand::Reg(s), Operand::Imm(31)],
                    )
                    .with_mods(Mods { itype: IType::S32, ..Mods::default() })
                    .with_guard(g),
                );
            }
            // Narrowing.
            (PtxType::U32 | PtxType::S32 | PtxType::B32, t) if t.is_wide() && !t.is_float() => {
                mov(self, d, s);
            }
            // Int <-> float.
            (PtxType::F32, PtxType::S32) => self.push(
                Instruction::new(Op::I2f, [Operand::Reg(d), Operand::Reg(s)])
                    .with_mods(Mods { itype: IType::S32, ..Mods::default() })
                    .with_guard(g),
            ),
            (PtxType::F32, PtxType::U32 | PtxType::B32) => self.push(
                Instruction::new(Op::I2f, [Operand::Reg(d), Operand::Reg(s)])
                    .with_mods(Mods { itype: IType::U32, ..Mods::default() })
                    .with_guard(g),
            ),
            (PtxType::S32, PtxType::F32) => self.push(
                Instruction::new(Op::F2i, [Operand::Reg(d), Operand::Reg(s)])
                    .with_mods(Mods { itype: IType::S32, ..Mods::default() })
                    .with_guard(g),
            ),
            (PtxType::U32, PtxType::F32) => self.push(
                Instruction::new(Op::F2i, [Operand::Reg(d), Operand::Reg(s)])
                    .with_mods(Mods { itype: IType::U32, ..Mods::default() })
                    .with_guard(g),
            ),
            // Float <-> double.
            (PtxType::F64, PtxType::F32) => self
                .push(Instruction::new(Op::F2d, [Operand::Reg(d), Operand::Reg(s)]).with_guard(g)),
            (PtxType::F32, PtxType::F64) => self
                .push(Instruction::new(Op::D2f, [Operand::Reg(d), Operand::Reg(s)]).with_guard(g)),
            // Int -> double via float (documented precision simplification).
            (PtxType::F64, PtxType::S32 | PtxType::U32) => {
                let itype = if sty == PtxType::S32 { IType::S32 } else { IType::U32 };
                self.push(
                    Instruction::new(Op::I2f, [Operand::Reg(SCRATCH_LO), Operand::Reg(s)])
                        .with_mods(Mods { itype, ..Mods::default() })
                        .with_guard(g),
                );
                self.push(
                    Instruction::new(Op::F2d, [Operand::Reg(d), Operand::Reg(SCRATCH_LO)])
                        .with_guard(g),
                );
            }
            (PtxType::S32 | PtxType::U32, PtxType::F64) => {
                let itype = if dty == PtxType::S32 { IType::S32 } else { IType::U32 };
                self.push(
                    Instruction::new(Op::D2f, [Operand::Reg(SCRATCH_LO), Operand::Reg(s)])
                        .with_guard(g),
                );
                self.push(
                    Instruction::new(Op::F2i, [Operand::Reg(d), Operand::Reg(SCRATCH_LO)])
                        .with_mods(Mods { itype, ..Mods::default() })
                        .with_guard(g),
                );
            }
            (a, b) if a == b => mov(self, d, s),
            (a, b) => return Err(self.sem(format!("unsupported conversion {b} -> {a}"))),
        }
        Ok(())
    }

    fn finish(self) -> Result<CompiledFunction> {
        let codec = codec_for(self.arch);
        let code = codec
            .encode_stream(&self.out)
            .map_err(|source| PtxError::Encode { function: self.f.name.clone(), source })?;
        let reg_count = self
            .out
            .iter()
            .filter_map(|i| i.max_reg())
            .max()
            .map(|m| m as u32 + 1)
            .unwrap_or(0)
            .max(4);
        Ok(CompiledFunction {
            name: self.f.name.clone(),
            kind: self.f.kind,
            arch: self.arch,
            code,
            reg_count,
            stack_size: self.frame_bytes,
            shared_size: self.shared_size,
            params: self.params,
            relocs: self.relocs,
            related: self.related,
            line_table: self.line_table,
            uses_reg_api: self.uses_reg_api,
        })
    }
}

fn atom_itype(ty: PtxType) -> Option<IType> {
    match ty {
        PtxType::S32 => Some(IType::S32),
        PtxType::U32 | PtxType::B32 => Some(IType::U32),
        PtxType::F32 => Some(IType::F32),
        PtxType::U64 | PtxType::B64 => Some(IType::U64),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn compile(src: &str, arch: Arch) -> CompiledFunction {
        let m = parse(src).unwrap();
        compile_function(&m.functions[0], arch).unwrap()
    }

    const GUARDED: &str = r#"
.entry k(.param .u64 buf, .param .u32 n)
{
    .reg .u32 %r<4>;
    .reg .u64 %rd<3>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [buf];
    ld.param.u32 %r1, [n];
    mov.u32 %r2, %tid.x;
    setp.ge.u32 %p1, %r2, %r1;
    @%p1 bra DONE;
    mul.wide.u32 %rd2, %r2, 4;
    add.u64 %rd2, %rd1, %rd2;
    ld.global.u32 %r3, [%rd2];
    add.u32 %r3, %r3, 1;
    st.global.u32 [%rd2], %r3;
DONE:
    exit;
}
"#;

    #[test]
    fn compiles_on_all_architectures() {
        for arch in Arch::ALL {
            let f = compile(GUARDED, arch);
            assert_eq!(f.code.len() % arch.instruction_size(), 0);
            let instrs = f.decode();
            assert!(instrs.iter().any(|i| i.op == Op::Ldg));
            assert!(instrs.iter().any(|i| i.op == Op::Exit));
            assert!(f.reg_count >= 4);
        }
    }

    #[test]
    fn divergent_forward_branch_gets_ssy_and_sync() {
        let f = compile(GUARDED, Arch::Volta);
        let instrs = f.decode();
        let ssy_count = instrs.iter().filter(|i| i.op == Op::Ssy).count();
        let sync_count = instrs.iter().filter(|i| i.op == Op::Sync).count();
        assert_eq!(ssy_count, 1, "{}", sass::asm::disassemble(&instrs));
        assert_eq!(sync_count, 1);
        // SSY must precede the conditional branch.
        let ssy_pos = instrs.iter().position(|i| i.op == Op::Ssy).unwrap();
        let bra_pos = instrs.iter().position(|i| i.op == Op::Bra).unwrap();
        assert!(ssy_pos < bra_pos);
        // The branch targets the SYNC landing pad: its target must be the
        // SYNC instruction.
        let isz = Arch::Volta.instruction_size() as i64;
        let off = instrs[bra_pos].rel_target().unwrap();
        let target = (bra_pos as i64 + 1 + off / isz) as usize;
        assert_eq!(instrs[target].op, Op::Sync);
        // And the SSY targets the instruction after the SYNC.
        let ssy_off = instrs[ssy_pos].rel_target().unwrap();
        let ssy_target = (ssy_pos as i64 + 1 + ssy_off / isz) as usize;
        assert_eq!(ssy_target, target + 1);
    }

    #[test]
    fn loop_gets_preheader_ssy() {
        let src = r#"
.entry k(.param .u64 buf)
{
    .reg .u32 %r<4>;
    .reg .u64 %rd<2>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [buf];
    mov.u32 %r1, 0;
TOP:
    add.u32 %r1, %r1, 1;
    setp.lt.u32 %p1, %r1, 10;
    @%p1 bra TOP;
    st.global.u32 [%rd1], %r1;
    exit;
}
"#;
        let f = compile(src, Arch::Pascal);
        let instrs = f.decode();
        let ssy_pos = instrs.iter().position(|i| i.op == Op::Ssy).expect("loop gets SSY");
        // The SSY must be before the loop body (before the first IADD of the
        // loop counter), i.e. executed once.
        let backedge =
            instrs.iter().enumerate().rev().find(|(_, i)| i.op == Op::Bra).map(|(p, _)| p).unwrap();
        let isz = Arch::Pascal.instruction_size() as i64;
        let off = instrs[backedge].rel_target().unwrap();
        assert!(off < 0, "backedge branches backwards");
        let loop_head = (backedge as i64 + 1 + off / isz) as usize;
        assert!(ssy_pos < loop_head, "SSY at {ssy_pos} must precede loop head {loop_head}");
        assert_eq!(instrs.iter().filter(|i| i.op == Op::Sync).count(), 1);
    }

    #[test]
    fn device_function_saves_callee_saved_registers() {
        let src = r#"
.func helper()
{
    ret;
}
.entry unused() { exit; }
"#;
        let m = parse(src).unwrap();
        // Compile a function that calls helper with a live value across it.
        let src2 = r#"
.func (.reg .u32 %out) caller(.reg .u32 %x)
{
    .reg .u32 %t<2>;
    add.u32 %t1, %x, 5;
    call helper;
    add.u32 %out, %t1, 1;
    ret;
}
"#;
        let _ = m;
        let m2 = parse(src2).unwrap();
        let f = compile_function(&m2.functions[0], Arch::Maxwell).unwrap();
        assert!(f.stack_size > 0, "frame for callee-saved registers");
        let instrs = f.decode();
        assert!(instrs.iter().any(|i| i.op == Op::Stl));
        assert!(instrs.iter().any(|i| i.op == Op::Ldl));
        assert!(instrs.iter().any(|i| i.op == Op::Jcal));
        assert_eq!(f.relocs.len(), 1);
        assert_eq!(f.relocs[0].target, "helper");
        assert_eq!(f.related, vec!["helper".to_string()]);
    }

    #[test]
    fn early_returns_are_merged() {
        let src = r#"
.func noop(.reg .u32 %x)
{
    .reg .pred %p<2>;
    setp.eq.u32 %p1, %x, 0;
    @%p1 ret;
    ret;
}
"#;
        let m = parse(src).unwrap();
        let f = compile_function(&m.functions[0], Arch::Volta).unwrap();
        let instrs = f.decode();
        // Exactly one RET instruction after merging.
        assert_eq!(instrs.iter().filter(|i| i.op == Op::Ret).count(), 1);
    }

    #[test]
    fn large_immediates_are_legalized_for_enc64() {
        let src = r#"
.entry k(.param .u64 buf)
{
    .reg .u32 %r<3>;
    .reg .u64 %rd<2>;
    ld.param.u64 %rd1, [buf];
    mov.u32 %r1, 0x12345678;
    add.u32 %r2, %r1, 0x7fffffff;
    st.global.u32 [%rd1], %r2;
    exit;
}
"#;
        // Must encode on the narrow family without FieldRange errors.
        let f = compile(src, Arch::Kepler);
        let instrs = f.decode();
        // The big addend goes through MOV32I + register IADD.
        assert!(instrs.iter().filter(|i| i.op == Op::Mov32i).count() >= 2);
    }

    #[test]
    fn line_tables_follow_loc_directives() {
        let src = r#"
.entry k(.param .u64 buf)
{
    .reg .u64 %rd<2>;
    .reg .u32 %r<2>;
    .loc "kern.cu" 7 ;
    ld.param.u64 %rd1, [buf];
    .loc "kern.cu" 8 ;
    ld.global.u32 %r1, [%rd1];
    st.global.u32 [%rd1], %r1;
    exit;
}
"#;
        let f = compile(src, Arch::Volta);
        assert!(f.line_table.iter().any(|l| l.line == 7));
        assert!(f.line_table.iter().any(|l| l.line == 8));
        assert!(f.line_table.iter().all(|l| l.file == "kern.cu"));
    }

    #[test]
    fn proxy_ids_are_stable_and_fit_the_encoding() {
        let id = proxy_id("WFFT32");
        assert_eq!(id, proxy_id("WFFT32"));
        assert!((0..(1 << 22)).contains(&id));
        assert_ne!(id, proxy_id("WFFT64"));
    }

    #[test]
    fn entry_params_are_laid_out_with_alignment() {
        let src = r#"
.entry k(.param .u32 a, .param .u64 b, .param .u32 c)
{
    exit;
}
"#;
        let f = compile(src, Arch::Volta);
        assert_eq!(f.params[0].offset, 0);
        assert_eq!(f.params[1].offset, 8); // aligned up for the u64
        assert_eq!(f.params[2].offset, 16);
    }
}
