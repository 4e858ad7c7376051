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
use crate::cfg::{ipostdom, BitRows, FnCfg, Linear};
use crate::regalloc::{self, Allocation, Loc, FIRST_CALLER, NVBIT_FRAME, SCRATCH_LO};
use crate::types::PtxType;
use crate::{CompiledFunction, LineInfo, ParamInfo, PtxError, Reloc, Result};
use sass::{
    codec::codec_for, Arch, Guard, Instruction, Mods, Op, Operand, Pred, Reg, SubOp, Width,
    PARAM_BASE,
};
use std::borrow::Cow;
use std::cmp::Reverse;

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

/// Compiles one function (of the module owning `names`) to encoded SASS
/// plus metadata.
///
/// # Errors
///
/// See [`crate::compile_module`].
pub fn compile_function(names: &Interner, f: &Function, arch: Arch) -> Result<CompiledFunction> {
    let f = &*merge_returns(f);
    let lin = Linear::of(f);
    let cfg = FnCfg::build(&lin);
    let alloc = regalloc::allocate(names, f, &lin, &cfg)?;
    let plan = plan_reconvergence(&lin, &cfg);
    let mut e = Emitter::new(names, f, arch, &alloc, &lin, &cfg, plan)?;
    e.run()?;
    e.finish()
}

/// Ends a body that would fall off its end — with `exit` in a kernel, with
/// `ret` in a device function — and rewrites multiple/early `ret`s into
/// branches to a single return block; a function with nothing to change is
/// handed back as it is.
fn merge_returns(f: &Function) -> Cow<'_, Function> {
    let mut f = Cow::Borrowed(f);
    let ends = |s: &Statement| {
        matches!(s, Statement::Instr(i) if i.guard.is_none()
            && matches!(i.op, PtxOp::Ret | PtxOp::RetVal { .. } | PtxOp::Exit | PtxOp::Bra { .. }))
    };
    if !f.body.last().is_some_and(ends) {
        let op = if f.kind == FunctionKind::Entry { PtxOp::Exit } else { PtxOp::Ret };
        f.to_mut().body.push(Statement::Instr(PtxInstr::new(op)));
    }
    let is_ret = |s: &Statement| matches!(s, Statement::Instr(i) if matches!(i.op, PtxOp::Ret | PtxOp::RetVal{..}));
    let ret_count = f.body.iter().filter(|s| is_ret(s)).count();
    let last_is_ret = f.body.last().map(is_ret).unwrap_or(false);
    if ret_count == 0 || (ret_count == 1 && last_is_ret) {
        return f;
    }
    let mut out = f.as_ref().clone();
    let target = LabelId(out.labels.len() as u32);
    out.labels.push(Sym::RET_MERGE);
    let ret_ty = f.ret.unwrap_or(crate::types::PtxType::B32);
    // Early `ret.val %r` sites stash their value in a hidden register so the
    // single merged return block can materialize it into the ABI register.
    let retval_tmp = VReg(out.regs.len() as u32);
    let mut uses_retval = false;
    out.body.clear();
    for s in &f.body {
        match s {
            Statement::Instr(i) if matches!(i.op, PtxOp::Ret | PtxOp::RetVal { .. }) => {
                if let PtxOp::RetVal { src } = i.op {
                    uses_retval = true;
                    let (src, dst) = (Some(Src::Reg(src)), retval_tmp);
                    let op = PtxOp::Mov { ty: ret_ty, dst, src, special: None, shared_addr: None };
                    out.body.push(Statement::Instr(PtxInstr { guard: i.guard, op }));
                }
                let op = PtxOp::Bra { target };
                out.body.push(Statement::Instr(PtxInstr { guard: i.guard, op }));
            }
            other => out.body.push(*other),
        }
    }
    out.body.push(Statement::Label(target));
    if uses_retval {
        out.regs.push(RegInfo { name: Sym::RETVAL, ty: Some(ret_ty) });
        out.body.push(Statement::Instr(PtxInstr::new(PtxOp::RetVal { src: retval_tmp })));
    } else {
        out.body.push(Statement::Instr(PtxInstr::new(PtxOp::Ret)));
    }
    Cow::Owned(out)
}

/// The reconvergence plan for one function.
#[derive(Debug)]
struct ReconvPlan {
    /// `(block, join)`: the block receives an `SSY` push for reconvergence
    /// block `join` before its terminator. Ordered by block, a block's
    /// pushes outermost first.
    ssy: Vec<(usize, usize)>,
    /// Per block, the row of `regions` when the block is a reconvergence
    /// block that receives a `SYNC` landing pad.
    region_of: Vec<Option<usize>>,
    /// For each such block `d`, the set of blocks whose branches to `d`
    /// must be retargeted to the landing pad.
    regions: BitRows,
}

impl ReconvPlan {
    /// True when a branch from `block` to reconvergence block `d` goes to
    /// `d`'s landing pad.
    fn retargets(&self, d: usize, block: usize) -> bool {
        self.region_of[d].is_some_and(|row| self.regions.contains(row, block))
    }
}

fn plan_reconvergence(lin: &Linear<'_>, cfg: &FnCfg) -> ReconvPlan {
    let ipd = ipostdom(cfg);
    let nb = cfg.blocks.len();
    let ends_in = |b: usize| lin.instrs[cfg.blocks[b].end - 1];
    let has_ret = |b: usize| {
        (cfg.blocks[b].start..cfg.blocks[b].end)
            .any(|i| matches!(lin.instrs[i].op, PtxOp::Ret | PtxOp::RetVal { .. }))
    };

    // Candidate branches `(block, join, region size)`; row `c` of `regions`
    // is what candidate `c`'s successors reach without passing its join.
    let mut candidates: Vec<(usize, usize, usize)> = (0..nb)
        .filter(|&b| matches!(ends_in(b).op, PtxOp::Bra { .. }) && ends_in(b).guard.is_some())
        .filter_map(|b| ipd[b].map(|d| (b, d, 0)))
        .collect();
    let mut regions = BitRows::new(candidates.len(), nb);
    let mut stack = Vec::new();
    for (c, cand) in candidates.iter_mut().enumerate() {
        let (b, d, _) = *cand;
        stack.extend(cfg.succs(b).iter().copied().filter(|&s| s != d));
        while let Some(x) = stack.pop() {
            if regions.insert(c, x) {
                cand.2 += 1;
                stack.extend(cfg.succs(x).iter().copied().filter(|&s| s != d));
            }
        }
    }
    // Largest region first so that nested regions are planned after
    // enclosing ones (claim order favours the outer join); equal sizes in
    // block order.
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.sort_by_key(|&c| Reverse(candidates[c].2));

    let mut plan = ReconvPlan { ssy: Vec::new(), region_of: vec![None; nb], regions };
    'cand: for c in order {
        let (b, d, _) = candidates[c];
        let inside = |x: usize| plan.regions.contains(c, x);
        if plan.region_of[d].is_some() {
            continue; // join already claimed
        }
        // All region exits must go to `d` (or terminate), and no returns.
        for x in plan.regions.ones(c) {
            if has_ret(x) || cfg.succs(x).iter().any(|&s| s != d && !inside(s)) {
                continue 'cand;
            }
        }
        // The block laid out immediately before `d` must not accidentally
        // fall into the landing pad from outside the region.
        if d > 0 {
            let layout_pred = d - 1;
            let t = ends_in(layout_pred);
            let leaves = matches!(t.op, PtxOp::Ret | PtxOp::RetVal { .. } | PtxOp::Exit)
                || (matches!(t.op, PtxOp::Bra { .. }) && t.guard.is_none());
            let falls_through = !leaves;
            if falls_through && !inside(layout_pred) && layout_pred != b {
                continue 'cand;
            }
        } else {
            continue 'cand;
        }

        // Determine the SSY site.
        let ssy_block = if !inside(b) {
            b // forward divergence: push right before the branch
        } else {
            // Loop shape: find the unique region-entry block and its unique
            // outside predecessor with an unconditional edge.
            let mut entries =
                plan.regions.ones(c).filter(|&x| cfg.preds(x).iter().any(|&p| !inside(p)));
            let (Some(entry), None) = (entries.next(), entries.next()) else { continue 'cand };
            let mut outside = cfg.preds(entry).iter().copied().filter(|&p| !inside(p));
            let (Some(p), None) = (outside.next(), outside.next()) else { continue 'cand };
            if cfg.succs(p) != [entry] {
                continue 'cand;
            }
            p
        };

        plan.ssy.push((ssy_block, d));
        plan.region_of[d] = Some(c);
        plan.regions.insert(c, b);
    }
    plan.ssy.sort_by_key(|&(block, _)| block);
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
            SVal::R(r) => reg(r),
            SVal::I(v) => imm(v),
        }
    }
}

/// A register operand.
fn reg(r: Reg) -> Operand {
    Operand::Reg(r)
}

/// An immediate operand.
fn imm(v: i64) -> Operand {
    Operand::Imm(v)
}

/// A memory operand.
fn mem(base: Reg, offset: i32) -> Operand {
    Operand::MRef { base, offset }
}

/// Modifiers that only select a scalar type.
fn typed(itype: IType) -> Mods {
    Mods { itype, ..Mods::default() }
}

/// Modifiers that only select a sub-operation.
fn sub_op(sub: SubOp) -> Mods {
    Mods { sub, ..Mods::default() }
}

/// Modifiers that only select the access width.
fn width_of(ty: PtxType) -> Mods {
    Mods { width: if ty.is_wide() { Width::B64 } else { Width::B32 }, ..Mods::default() }
}

/// Immediates up to this magnitude fit every operand slot on both families.
const IMM_SAFE: i64 = 1 << 17;

struct Emitter<'a> {
    names: &'a Interner,
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
    /// Out index per block label id (`usize::MAX` until emitted).
    labels: Vec<usize>,
    relocs: Vec<Reloc>,
    line_table: Vec<LineInfo>,
    params: Vec<ParamInfo>,
    /// Byte offset of each of `f.shared`, in declaration order.
    shared_offsets: Vec<u32>,
    shared_size: u32,
    frame_bytes: u32,
    uses_reg_api: bool,
}

impl<'a> Emitter<'a> {
    fn new(
        names: &'a Interner,
        f: &'a Function,
        arch: Arch,
        alloc: &'a Allocation,
        lin: &'a Linear<'a>,
        cfg: &'a FnCfg,
        plan: ReconvPlan,
    ) -> Result<Emitter<'a>> {
        // Kernel parameter layout.
        let mut params = Vec::new();
        if f.kind == FunctionKind::Entry {
            let mut off = 0u32;
            for (name, ty) in &f.params {
                let size = ty.bytes().max(4);
                off = off.div_ceil(size) * size; // align to own size
                params.push(ParamInfo {
                    name: names.resolve(*name).to_string(),
                    size,
                    offset: off,
                });
                off += size;
            }
        }
        // Shared-memory layout.
        let mut shared_offsets = Vec::with_capacity(f.shared.len());
        let mut soff = 0u32;
        for s in &f.shared {
            let at = soff.checked_next_multiple_of(s.align.max(4));
            let (Some(at), Some(end)) = (at, at.and_then(|at| at.checked_add(s.bytes))) else {
                return Err(PtxError::Semantic {
                    function: names.resolve(f.name).to_string(),
                    reason: "shared memory exceeds the 32-bit address space".into(),
                });
            };
            shared_offsets.push(at);
            soff = end;
        }
        let frame_bytes = (alloc.used_callee_saved.len() as u32) * 4;
        Ok(Emitter {
            names,
            f,
            arch,
            isize: arch.instruction_size() as i64,
            alloc,
            lin,
            cfg,
            plan,
            out: Vec::with_capacity(2 * lin.instrs.len()),
            fixups: Vec::new(),
            labels: vec![usize::MAX; 2 * cfg.blocks.len()],
            relocs: Vec::new(),
            line_table: Vec::new(),
            params,
            shared_offsets,
            shared_size: soff,
            frame_bytes,
            uses_reg_api: false,
        })
    }

    fn sem(&self, reason: String) -> PtxError {
        PtxError::Semantic { function: self.names.resolve(self.f.name).to_string(), reason }
    }

    /// Appends `op operands` under `guard`.
    fn emit<const N: usize>(&mut self, guard: Guard, op: Op, mods: Mods, operands: [Operand; N]) {
        self.out.push(Instruction::new(op, operands).with_mods(mods).with_guard(guard));
    }

    /// `MOV d, s`, then `MOV d+1, s+1` when `wide`.
    fn mov(&mut self, g: Guard, d: Reg, s: Reg, wide: bool) {
        self.emit(g, Op::Mov, Mods::default(), [reg(d), reg(s)]);
        if wide {
            self.emit(g, Op::Mov, Mods::default(), [reg(Reg(d.0 + 1)), reg(Reg(s.0 + 1))]);
        }
    }

    fn reg_name(&self, v: VReg) -> &'a str {
        self.names.resolve(self.f.regs[v.index()].name)
    }

    fn gpr_of(&self, v: VReg) -> Result<Reg> {
        match self.alloc.map[v.index()] {
            Some(Loc::Gpr(r)) | Some(Loc::Pair(r)) => Ok(Reg(r)),
            Some(Loc::Pred(_)) => {
                Err(self.sem(format!("`{}` is a predicate, expected GPR", self.reg_name(v))))
            }
            None => Err(self.sem(format!("`{}` has no location", self.reg_name(v)))),
        }
    }

    fn pred_of(&self, v: VReg) -> Result<Pred> {
        match self.alloc.map[v.index()] {
            Some(Loc::Pred(p)) => Ok(Pred(p)),
            _ => Err(self.sem(format!("`{}` is not a predicate", self.reg_name(v)))),
        }
    }

    /// Byte offset of shared variable `name` (the last so named).
    fn shared_offset(&self, name: Sym) -> Result<u32> {
        match self.f.shared.iter().rposition(|s| s.name == name) {
            Some(k) => Ok(self.shared_offsets[k]),
            None => {
                Err(self.sem(format!("unknown shared variable `{}`", self.names.resolve(name))))
            }
        }
    }

    fn guard_of(&self, i: &PtxInstr) -> Result<Guard> {
        match &i.guard {
            None => Ok(Guard::ALWAYS),
            Some(g) => Ok(Guard { pred: self.pred_of(g.reg)?, negated: g.negated }),
        }
    }

    /// Resolves a `Src` to a register or in-range immediate, materializing
    /// oversized immediates into the scratch register (32-bit ops).
    fn sval32(&mut self, s: &Src, guard: Guard) -> Result<SVal> {
        match s {
            Src::Imm(v) if (-IMM_SAFE..IMM_SAFE).contains(v) => Ok(SVal::I(*v)),
            _ => self.force_reg32(s, guard).map(SVal::R),
        }
    }

    /// Resolves a 64-bit `Src` to a register pair or in-range immediate
    /// (wide ops sign-extend immediates).
    fn sval64(&mut self, s: &Src, guard: Guard) -> Result<SVal> {
        match s {
            Src::Reg(r) => Ok(SVal::R(self.gpr_of(*r)?)),
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
        self.emit(guard, Op::Mov32i, Mods::default(), [reg(lo), imm(lo_bits)]);
        self.emit(guard, Op::Mov32i, Mods::default(), [reg(Reg(lo.0 + 1)), imm(hi_bits)]);
    }

    /// Forces a `Src` into a register (for all-register forms like `IMAD`).
    fn force_reg32(&mut self, s: &Src, guard: Guard) -> Result<Reg> {
        match s {
            Src::Reg(r) => self.gpr_of(*r),
            Src::Imm(v) => {
                self.emit(
                    guard,
                    Op::Mov32i,
                    Mods::default(),
                    [reg(SCRATCH_LO), imm((*v as i32) as i64)],
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
        let mut planned = 0; // `plan.ssy` is in block order
        for b in 0..nb {
            if self.plan.region_of[b].is_some() {
                // The SYNC landing pad, labelled nb + b.
                self.labels[nb + b] = self.out.len();
                let mods = if self.arch.abi_version() >= 2 {
                    Mods { barrier: 1, ..Mods::default() }
                } else {
                    Mods::default()
                };
                self.emit(Guard::ALWAYS, Op::Sync, mods, []);
            }
            self.labels[b] = self.out.len();
            let block = &cfg.blocks[b];
            let first = planned;
            planned += self.plan.ssy[first..].iter().take_while(|&&(at, _)| at == b).count();
            for idx in block.start..block.end {
                // SSY pushes go immediately before the block's terminator,
                // or after the last instruction of a block that falls
                // through.
                let pushes_after = idx + 1 == block.end
                    && !matches!(
                        self.lin.instrs[idx].op,
                        PtxOp::Bra { .. } | PtxOp::Ret | PtxOp::RetVal { .. } | PtxOp::Exit
                    );
                if idx + 1 == block.end && !pushes_after {
                    (first..planned).for_each(|k| self.emit_ssy(self.plan.ssy[k].1));
                }
                self.instr(b, idx)?;
                if pushes_after {
                    (first..planned).for_each(|k| self.emit_ssy(self.plan.ssy[k].1));
                }
            }
        }
        // Resolve branch fix-ups.
        for (at, label) in std::mem::take(&mut self.fixups) {
            let target = self.labels[label];
            if target == usize::MAX {
                return Err(self.sem(format!("unresolved label id {label}")));
            }
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
        self.emit(Guard::ALWAYS, Op::Ssy, mods, [Operand::Rel(0)]);
        // SSY targets the join block itself (after the landing pad).
        self.fixups.push((at, d));
    }

    /// Assigns `values`, in order, their ABI argument registers
    /// ([`regalloc::arg_slot`]): `(home, ABI register, wide)`.
    fn abi_slots(
        &self,
        values: impl Iterator<Item = (VReg, PtxType)>,
    ) -> Result<Vec<(Reg, Reg, bool)>> {
        let mut slot = FIRST_CALLER;
        let mut slots = Vec::new();
        for (v, ty) in values {
            let wide = ty.is_wide();
            slot = regalloc::arg_slot(slot, wide);
            if slot >= regalloc::LAST_ALLOC {
                return Err(self.sem("arguments run past the register file".into()));
            }
            // A value nothing reads (an unused parameter) keeps its slot
            // but has no home to move to.
            if self.alloc.map[v.index()].is_some() {
                slots.push((self.gpr_of(v)?, Reg(slot), wide));
            }
            slot += if wide { 2 } else { 1 };
        }
        Ok(slots)
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
                    self.emit(Guard::ALWAYS, Op::Mov, Mods::default(), [reg(Reg(d)), reg(Reg(s))]);
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
                self.emit(Guard::ALWAYS, Op::Mov, Mods::default(), [reg(SCRATCH_LO), reg(Reg(s))]);
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

    /// Emits one PTX instruction.
    fn instr(&mut self, block: usize, idx: usize) -> Result<()> {
        let lin = self.lin;
        let i = lin.instrs[idx];
        let loc = lin.loc[idx];
        let g = self.guard_of(i)?;
        let start_len = self.out.len();
        self.select(block, i, g)?;
        // Attach line info to the first instruction this PTX op produced.
        if let Some((file, line)) = loc {
            if self.out.len() > start_len {
                let file = self.names.resolve(file).to_string();
                self.line_table.push(LineInfo { instr_index: start_len, file, line });
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_lines)]
    fn select(&mut self, block: usize, i: &PtxInstr, g: Guard) -> Result<()> {
        use PtxOp as P;
        match i.op {
            P::LdParam { ty, dst, param, offset } => {
                // The last parameter so named, as when a map was filled in
                // declaration order.
                let declared = self.f.params.iter().rposition(|&(name, _)| name == param);
                let off = declared
                    .and_then(|k| self.params.get(k))
                    .ok_or_else(|| {
                        self.sem(format!("unknown parameter `{}`", self.names.resolve(param)))
                    })?
                    .offset
                    .checked_add(u32::from(PARAM_BASE))
                    .and_then(|off| off.checked_add(offset))
                    .and_then(|off| u16::try_from(off).ok())
                    .ok_or_else(|| {
                        self.sem(format!("parameter offset {offset} is out of range"))
                    })?;
                let d = self.gpr_of(dst)?;
                self.emit(
                    g,
                    Op::Ldc,
                    width_of(ty),
                    [reg(d), Operand::CBank { bank: 0, base: Reg::RZ, offset: off }],
                );
            }
            P::Ld { space, ty, dst, addr } => {
                let d = self.gpr_of(dst)?;
                let (op, base, off) = self.mem_operand(space, &addr, g, false)?;
                self.emit(g, op, width_of(ty), [reg(d), mem(base, off)]);
            }
            P::St { space, ty, addr, src } => {
                let s = self.gpr_of(src)?;
                let (op, base, off) = self.mem_operand(space, &addr, g, true)?;
                self.emit(g, op, width_of(ty), [mem(base, off), reg(s)]);
            }
            P::Mov { ty, dst, src, special, shared_addr } => {
                let d = self.gpr_of(dst)?;
                if let Some(sp) = special {
                    self.emit(g, Op::S2r, Mods::default(), [reg(d), Operand::SReg(sp)]);
                } else if let Some(name) = shared_addr {
                    let off = self.shared_offset(name)?;
                    self.emit(g, Op::Mov32i, Mods::default(), [reg(d), imm(off as i64)]);
                } else {
                    match src.expect("a mov has exactly one source") {
                        Src::Reg(r) => {
                            let s = self.gpr_of(r)?;
                            self.mov(g, d, s, ty.is_wide());
                        }
                        Src::Imm(v) => {
                            if ty.is_wide() {
                                self.mov64_imm(d, v, g);
                            } else {
                                self.emit(
                                    g,
                                    Op::Mov32i,
                                    Mods::default(),
                                    [reg(d), imm((v as i32) as i64)],
                                );
                            }
                        }
                    }
                }
            }
            P::Bin { kind, ty, dst, a, b } => self.bin(kind, ty, dst, a, &b, g)?,
            P::Mad { wide, ty, dst, a, b, c } => {
                let d = self.gpr_of(dst)?;
                let ra = self.gpr_of(a)?;
                let rb = self.force_reg32(&b, g)?;
                let rc = self.gpr_of(c)?;
                let (op, itype) = match (wide, ty) {
                    (true, _) => (Op::Imad, IType::U64),
                    (false, PtxType::F32) => (Op::Ffma, IType::S32),
                    (false, PtxType::F64) => (Op::Dfma, IType::S32),
                    (false, t) if t.is_float() => (Op::Ffma, IType::S32),
                    (false, PtxType::U32) => (Op::Imad, IType::U32),
                    (false, _) => (Op::Imad, IType::S32),
                };
                self.emit(g, op, typed(itype), [reg(d), reg(ra), reg(rb), reg(rc)]);
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
                    SVal::R(self.force_reg32(&b, g)?)
                } else {
                    self.sval32(&b, g)?
                };
                self.emit(
                    g,
                    op,
                    Mods { cmp, itype, ..Mods::default() },
                    [Operand::pred(p), reg(ra), bv.operand()],
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
                            self.mov64_imm(SCRATCH_LO, v, g);
                            SCRATCH_LO
                        }
                    };
                    for half in 0..2u8 {
                        self.emit(
                            g,
                            Op::Sel,
                            Mods::default(),
                            [
                                reg(Reg(d.0 + half)),
                                reg(Reg(ra.0 + half)),
                                reg(Reg(rb.0 + half)),
                                Operand::pred(pp),
                            ],
                        );
                    }
                } else {
                    let bv = self.sval32(&b, g)?;
                    self.emit(
                        g,
                        Op::Sel,
                        Mods::default(),
                        [reg(d), reg(ra), bv.operand(), Operand::pred(pp)],
                    );
                }
            }
            P::Cvt { dty, sty, dst, src } => self.cvt(dty, sty, dst, src, g)?,
            P::Bra { target } => {
                let tidx = self.lin.labels[target.index()].ok_or_else(|| {
                    let label = self.names.resolve(self.f.labels[target.index()]);
                    self.sem(format!("undefined label `{label}`"))
                })?;
                let tblock = self.cfg.instr_block.get(tidx).copied().unwrap_or(0);
                // Retarget branches into a claimed join to its landing pad.
                let label = if self.plan.retargets(tblock, block)
                    && self.cfg.blocks[tblock].start == tidx
                {
                    self.cfg.blocks.len() + tblock
                } else {
                    tblock
                };
                let at = self.out.len();
                self.emit(g, Op::Bra, Mods::default(), [Operand::Rel(0)]);
                self.fixups.push((at, label));
            }
            P::Call { ret, func, args } => {
                let f = self.f;
                let callee = self.names.resolve(func);
                if !g.is_always() {
                    return Err(
                        self.sem(format!("guarded call to `{callee}`: calls must be warp-uniform"))
                    );
                }
                // Marshal arguments.
                let ty_of = |v: VReg| f.regs[v.index()].ty.expect("allocation saw it declared");
                let mut moves = self.abi_slots(f.args(args).iter().map(|&a| (a, ty_of(a))))?;
                moves.iter_mut().for_each(|(home, abi, _)| std::mem::swap(home, abi));
                self.parallel_moves(&moves);
                let at = self.out.len();
                self.emit(Guard::ALWAYS, Op::Jcal, Mods::default(), [Operand::Abs(0)]);
                self.relocs.push(Reloc { instr_index: at, target: callee.to_string() });
                if let Some(r) = ret {
                    let d = self.gpr_of(r)?;
                    self.mov(Guard::ALWAYS, d, Reg(FIRST_CALLER), ty_of(r).is_wide());
                }
            }
            P::Ret => {
                if self.f.kind == FunctionKind::Entry {
                    self.emit(g, Op::Exit, Mods::default(), []);
                } else {
                    if let Some(rr) = self.f.ret_reg {
                        let src = self.gpr_of(rr)?;
                        let wide = self.f.ret.map(|t| t.is_wide()).unwrap_or(false);
                        if src.0 != FIRST_CALLER {
                            self.mov(g, Reg(FIRST_CALLER), src, wide);
                        }
                    }
                    self.epilogue_and_ret(g);
                }
            }
            P::RetVal { src } => {
                let s = self.gpr_of(src)?;
                if s.0 != FIRST_CALLER {
                    self.mov(g, Reg(FIRST_CALLER), s, false);
                }
                if self.f.kind == FunctionKind::Device {
                    self.epilogue_and_ret(g);
                } else {
                    self.emit(g, Op::Exit, Mods::default(), []);
                }
            }
            P::Exit => self.emit(g, Op::Exit, Mods::default(), []),
            P::BarSync => self.emit(g, Op::Bar, Mods::default(), []),
            P::Membar => self.emit(g, Op::Membar, Mods::default(), []),
            P::Atom { op, ty, dst, addr, src, src2 } => {
                let d = self.gpr_of(dst)?;
                let (base, off) = self.global_addr(&addr, g)?;
                let s = self.gpr_of(src)?;
                let s2 = match src2 {
                    Some(r) => self.gpr_of(r)?,
                    None => Reg::RZ,
                };
                let itype = atom_itype(ty)
                    .ok_or_else(|| self.sem(format!("atomics unsupported for {ty}")))?;
                self.emit(
                    g,
                    Op::Atom,
                    Mods { sub: op.to_sass(), itype, ..Mods::default() },
                    [reg(d), mem(base, off), reg(s), reg(s2)],
                );
            }
            P::Red { op, ty, addr, src } => {
                let (base, off) = self.global_addr(&addr, g)?;
                let s = self.gpr_of(src)?;
                let itype = atom_itype(ty)
                    .ok_or_else(|| self.sem(format!("reductions unsupported for {ty}")))?;
                self.emit(
                    g,
                    Op::Red,
                    Mods { sub: op.to_sass(), itype, ..Mods::default() },
                    [mem(base, off), reg(s)],
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
                self.emit(g, Op::Vote, sub_op(sub), [reg(d), Operand::Pred { pred: p, negated }]);
            }
            P::Shfl { mode, dst, a, b } => {
                let d = self.gpr_of(dst)?;
                let ra = self.gpr_of(a)?;
                let bv = self.sval32(&b, g)?;
                let sub = match mode {
                    ShflMode::Idx => SubOp::Idx,
                    ShflMode::Up => SubOp::Up,
                    ShflMode::Down => SubOp::Down,
                    ShflMode::Bfly => SubOp::Bfly,
                };
                self.emit(g, Op::Shfl, sub_op(sub), [reg(d), reg(ra), bv.operand()]);
            }
            P::Popc { dst, src } => {
                let d = self.gpr_of(dst)?;
                let s = self.gpr_of(src)?;
                self.emit(g, Op::Popc, Mods::default(), [reg(d), reg(s)]);
            }
            P::Mufu { func, dst, src } => {
                let d = self.gpr_of(dst)?;
                let s = self.gpr_of(src)?;
                self.emit(g, Op::Mufu, sub_op(func.to_sass()), [reg(d), reg(s)]);
            }
            P::Proxy { dst, src, name } => {
                let d = self.gpr_of(dst)?;
                let s = self.gpr_of(src)?;
                self.emit(
                    g,
                    Op::Proxy,
                    Mods::default(),
                    [reg(d), reg(s), imm(proxy_id(self.names.resolve(name)))],
                );
            }
            P::ChanPush { src } => {
                let s = self.gpr_of(src)?;
                self.emit(g, Op::Chan, Mods { width: Width::B64, ..Mods::default() }, [reg(s)]);
            }
            P::NvReadReg { dst, idx } => {
                self.uses_reg_api = true;
                let d = self.gpr_of(dst)?;
                match idx {
                    Src::Imm(v) => {
                        self.emit(
                            g,
                            Op::Ldl,
                            Mods::default(),
                            [reg(d), mem(NVBIT_FRAME, self.frame_slot(v)?)],
                        );
                    }
                    Src::Reg(r) => {
                        let ri = self.gpr_of(r)?;
                        self.frame_index(ri, g);
                        self.emit(g, Op::Ldl, Mods::default(), [reg(d), mem(SCRATCH_LO, 0)]);
                    }
                }
            }
            P::NvWriteReg { idx, src } => {
                self.uses_reg_api = true;
                let s = self.gpr_of(src)?;
                match idx {
                    Src::Imm(v) => {
                        self.emit(
                            g,
                            Op::Stl,
                            Mods::default(),
                            [mem(NVBIT_FRAME, self.frame_slot(v)?), reg(s)],
                        );
                    }
                    Src::Reg(r) => {
                        let ri = self.gpr_of(r)?;
                        self.frame_index(ri, g);
                        self.emit(g, Op::Stl, Mods::default(), [mem(SCRATCH_LO, 0), reg(s)]);
                    }
                }
            }
        }
        Ok(())
    }

    /// Byte offset of saved register `idx` in the device-API frame.
    fn frame_slot(&self, idx: i64) -> Result<i32> {
        (idx as i32)
            .checked_mul(4)
            .ok_or_else(|| self.sem(format!("saved-register index {idx} is out of range")))
    }

    /// Computes `SCRATCH_LO = NVBIT_FRAME + idx * 4` for dynamic device-API
    /// register indices.
    fn frame_index(&mut self, idx: Reg, g: Guard) {
        self.emit(g, Op::Shl, Mods::default(), [reg(SCRATCH_LO), reg(idx), imm(2)]);
        self.emit(
            g,
            Op::Iadd,
            Mods::default(),
            [reg(SCRATCH_LO), reg(SCRATCH_LO), reg(NVBIT_FRAME)],
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
        match addr.base {
            AddrBase::Reg(r) => {
                let base = self.gpr_of(r)?;
                Ok((op, base, addr.offset))
            }
            AddrBase::Shared(name) => {
                if space != Space::Shared {
                    let name = self.names.resolve(name);
                    return Err(self
                        .sem(format!("shared variable `{name}` addressed with {space:?} access")));
                }
                let off = i32::try_from(self.shared_offset(name)?)
                    .ok()
                    .and_then(|off| off.checked_add(addr.offset))
                    .ok_or_else(|| self.sem("shared address is out of range".into()))?;
                let _ = g;
                Ok((op, Reg::RZ, off))
            }
        }
    }

    /// Resolves a global address for atomics, folding non-zero offsets into
    /// the scratch pair (the atomic offset field is narrow).
    fn global_addr(&mut self, addr: &Address, g: Guard) -> Result<(Reg, i32)> {
        let AddrBase::Reg(r) = addr.base else {
            return Err(self.sem("atomics require a register address".into()));
        };
        let base = self.gpr_of(r)?;
        if addr.offset == 0 {
            return Ok((base, 0));
        }
        if (-128..128).contains(&addr.offset) {
            return Ok((base, addr.offset));
        }
        self.emit(
            g,
            Op::Iadd,
            typed(IType::U64),
            [reg(SCRATCH_LO), reg(base), imm(addr.offset as i64)],
        );
        Ok((SCRATCH_LO, 0))
    }

    fn bin(
        &mut self,
        kind: BinKind,
        ty: PtxType,
        dst: VReg,
        a: VReg,
        b: &Src,
        g: Guard,
    ) -> Result<()> {
        let d = self.gpr_of(dst)?;
        let ra = self.gpr_of(a)?;
        match (kind, ty) {
            (BinKind::Add, PtxType::F32) => {
                let bv = self.sval32(b, g)?;
                self.emit(g, Op::Fadd, Mods::default(), [reg(d), reg(ra), bv.operand()]);
            }
            (BinKind::Add, PtxType::F64) => {
                let rb = self.wide_reg(b, g)?;
                self.emit(g, Op::Dadd, Mods::default(), [reg(d), reg(ra), reg(rb)]);
            }
            (BinKind::Add, t) if t.is_wide() => {
                let bv = self.sval64(b, g)?;
                self.emit(g, Op::Iadd, typed(IType::U64), [reg(d), reg(ra), bv.operand()]);
            }
            (BinKind::Add, _) => {
                let bv = self.sval32(b, g)?;
                self.emit(g, Op::Iadd, Mods::default(), [reg(d), reg(ra), bv.operand()]);
            }
            (BinKind::Sub, PtxType::F32) => match b {
                Src::Imm(v) => {
                    // Negate the float immediate by flipping its sign bit.
                    let neg = ((*v as u32) ^ 0x8000_0000) as i32 as i64;
                    self.emit(g, Op::Fadd, Mods::default(), [reg(d), reg(ra), imm(neg)]);
                }
                Src::Reg(r) => {
                    let rb = self.gpr_of(*r)?;
                    // d = a - b  via  d = b * (-1.0) + a
                    self.emit(
                        g,
                        Op::Mov32i,
                        Mods::default(),
                        [reg(SCRATCH_LO), imm((-1.0f32).to_bits() as i32 as i64)],
                    );
                    self.emit(
                        g,
                        Op::Ffma,
                        Mods::default(),
                        [reg(d), reg(rb), reg(SCRATCH_LO), reg(ra)],
                    );
                }
            },
            (BinKind::Sub, t) if t.is_wide() && !t.is_float() => {
                let bv = match b {
                    Src::Reg(_) => self.sval64(b, g)?,
                    Src::Imm(v) => SVal::I(v.wrapping_neg()), // fold negation
                };
                match bv {
                    SVal::I(v) if (-IMM_SAFE..IMM_SAFE).contains(&v) => {
                        self.emit(g, Op::Iadd, typed(IType::U64), [reg(d), reg(ra), imm(v)]);
                    }
                    SVal::I(v) => {
                        self.mov64_imm(SCRATCH_LO, v, g);
                        self.emit(
                            g,
                            Op::Iadd,
                            typed(IType::U64),
                            [reg(d), reg(ra), reg(SCRATCH_LO)],
                        );
                    }
                    SVal::R(rb) => {
                        self.emit(g, Op::Isub, typed(IType::U64), [reg(d), reg(ra), reg(rb)]);
                    }
                }
            }
            (BinKind::Sub, PtxType::F64) => {
                return Err(self.sem("f64 subtraction: use dfma with a negated operand".into()));
            }
            (BinKind::Sub, _) => {
                let bv = self.sval32(b, g)?;
                self.emit(g, Op::Isub, Mods::default(), [reg(d), reg(ra), bv.operand()]);
            }
            (BinKind::MulLo, PtxType::F32) => {
                let bv = self.sval32(b, g)?;
                self.emit(g, Op::Fmul, Mods::default(), [reg(d), reg(ra), bv.operand()]);
            }
            (BinKind::MulLo, PtxType::F64) => {
                let rb = self.wide_reg(b, g)?;
                self.emit(g, Op::Dmul, Mods::default(), [reg(d), reg(ra), reg(rb)]);
            }
            (BinKind::MulLo, t) if t.is_wide() => {
                return Err(self.sem("64-bit integer mul.lo is not supported".into()));
            }
            (BinKind::MulLo, _) => {
                let bv = self.sval32(b, g)?;
                self.emit(g, Op::Imul, Mods::default(), [reg(d), reg(ra), bv.operand()]);
            }
            (BinKind::MulWide, _) => {
                // d64 = a32 * b32 + 0
                let rb = self.force_reg32(b, g)?;
                self.emit(g, Op::Imad, typed(IType::U64), [reg(d), reg(ra), reg(rb), reg(Reg::RZ)]);
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
                self.emit(
                    g,
                    op,
                    Mods { sub, itype, ..Mods::default() },
                    [reg(d), reg(ra), bv.operand()],
                );
            }
            (BinKind::And | BinKind::Or | BinKind::Xor, _) => {
                let sub = match kind {
                    BinKind::And => SubOp::And,
                    BinKind::Or => SubOp::Or,
                    _ => SubOp::Xor,
                };
                let bv = self.sval32(b, g)?;
                self.emit(g, Op::Lop, sub_op(sub), [reg(d), reg(ra), bv.operand()]);
            }
            (BinKind::Shl, t) => {
                let bv = self.sval32(b, g)?;
                let itype = if t.is_wide() { IType::U64 } else { IType::S32 };
                self.emit(g, Op::Shl, typed(itype), [reg(d), reg(ra), bv.operand()]);
            }
            (BinKind::Shr, t) => {
                let bv = self.sval32(b, g)?;
                let itype = match t {
                    PtxType::S32 => IType::S32,
                    t if t.is_wide() => IType::U64,
                    _ => IType::U32,
                };
                self.emit(g, Op::Shr, typed(itype), [reg(d), reg(ra), bv.operand()]);
            }
        }
        Ok(())
    }

    /// Resolves a 64-bit source into a register pair (doubles never take
    /// immediates in the machine ISA).
    fn wide_reg(&mut self, b: &Src, g: Guard) -> Result<Reg> {
        match b {
            Src::Reg(r) => self.gpr_of(*r),
            Src::Imm(v) => {
                self.mov64_imm(SCRATCH_LO, *v, g);
                Ok(SCRATCH_LO)
            }
        }
    }

    fn cvt(&mut self, dty: PtxType, sty: PtxType, dst: VReg, src: VReg, g: Guard) -> Result<()> {
        let d = self.gpr_of(dst)?;
        let s = self.gpr_of(src)?;
        match (dty, sty) {
            // Widening integer converts.
            (PtxType::U64 | PtxType::B64, PtxType::U32 | PtxType::B32) => {
                self.mov(g, d, s, false);
                self.mov(g, Reg(d.0 + 1), Reg::RZ, false);
            }
            (PtxType::S64, PtxType::S32) => {
                self.mov(g, d, s, false);
                self.emit(g, Op::Shr, typed(IType::S32), [reg(Reg(d.0 + 1)), reg(s), imm(31)]);
            }
            // Narrowing.
            (PtxType::U32 | PtxType::S32 | PtxType::B32, t) if t.is_wide() && !t.is_float() => {
                self.mov(g, d, s, false);
            }
            // Int <-> float.
            (PtxType::F32, PtxType::S32) => {
                self.emit(g, Op::I2f, typed(IType::S32), [reg(d), reg(s)])
            }
            (PtxType::F32, PtxType::U32 | PtxType::B32) => {
                self.emit(g, Op::I2f, typed(IType::U32), [reg(d), reg(s)])
            }
            (PtxType::S32, PtxType::F32) => {
                self.emit(g, Op::F2i, typed(IType::S32), [reg(d), reg(s)])
            }
            (PtxType::U32, PtxType::F32) => {
                self.emit(g, Op::F2i, typed(IType::U32), [reg(d), reg(s)])
            }
            // Float <-> double.
            (PtxType::F64, PtxType::F32) => {
                self.emit(g, Op::F2d, Mods::default(), [reg(d), reg(s)])
            }
            (PtxType::F32, PtxType::F64) => {
                self.emit(g, Op::D2f, Mods::default(), [reg(d), reg(s)])
            }
            // Int -> double via float (documented precision simplification).
            (PtxType::F64, PtxType::S32 | PtxType::U32) => {
                let itype = if sty == PtxType::S32 { IType::S32 } else { IType::U32 };
                self.emit(g, Op::I2f, typed(itype), [reg(SCRATCH_LO), reg(s)]);
                self.emit(g, Op::F2d, Mods::default(), [reg(d), reg(SCRATCH_LO)]);
            }
            (PtxType::S32 | PtxType::U32, PtxType::F64) => {
                let itype = if dty == PtxType::S32 { IType::S32 } else { IType::U32 };
                self.emit(g, Op::D2f, Mods::default(), [reg(SCRATCH_LO), reg(s)]);
                self.emit(g, Op::F2i, typed(itype), [reg(d), reg(SCRATCH_LO)]);
            }
            (a, b) if a == b => self.mov(g, d, s, false),
            (a, b) => return Err(self.sem(format!("unsupported conversion {b} -> {a}"))),
        }
        Ok(())
    }

    fn finish(self) -> Result<CompiledFunction> {
        let codec = codec_for(self.arch);
        let code = codec.encode_stream(&self.out).map_err(|source| PtxError::Encode {
            function: self.names.resolve(self.f.name).to_string(),
            source,
        })?;
        let reg_count = self
            .out
            .iter()
            .filter_map(|i| i.max_reg())
            .max()
            .map(|m| m as u32 + 1)
            .unwrap_or(0)
            .max(4);
        Ok(CompiledFunction {
            name: self.names.resolve(self.f.name).to_string(),
            kind: self.f.kind,
            arch: self.arch,
            code,
            reg_count,
            stack_size: self.frame_bytes,
            shared_size: self.shared_size,
            params: self.params,
            relocs: self.relocs,
            line_table: self.line_table,
            uses_reg_api: self.uses_reg_api,
        })
    }

    /// Opens the callee-save bracket (`IADD R1, R1, -4k`, k `STL`s) and
    /// moves a device function's arguments home.
    fn prologue(&mut self) -> Result<()> {
        if self.frame_bytes > 0 {
            self.emit(
                Guard::ALWAYS,
                Op::Iadd,
                Mods::default(),
                [reg(Reg::SP), reg(Reg::SP), imm(-(self.frame_bytes as i64))],
            );
            let alloc = self.alloc;
            for (slot, &r) in alloc.used_callee_saved.iter().enumerate() {
                self.emit(
                    Guard::ALWAYS,
                    Op::Stl,
                    Mods::default(),
                    [mem(Reg::SP, (slot as i32) * 4), reg(Reg(r))],
                );
            }
        }
        // Device-function arguments: move ABI registers into their allocated
        // homes (the allocator does not pre-colour).
        if self.f.kind == FunctionKind::Device {
            let f = self.f;
            let params = f.params.iter().map(|&(name, ty)| {
                (f.reg_named(name).expect("a device function's parameters are registers"), ty)
            });
            let moves = self.abi_slots(params)?;
            self.parallel_moves(&moves);
        }
        Ok(())
    }

    /// Closes the callee-save bracket (k `LDL`s, `IADD R1, R1, 4k`), returns.
    fn epilogue_and_ret(&mut self, guard: Guard) {
        let alloc = self.alloc;
        for (slot, &r) in alloc.used_callee_saved.iter().enumerate() {
            self.emit(
                guard,
                Op::Ldl,
                Mods::default(),
                [reg(Reg(r)), mem(Reg::SP, (slot as i32) * 4)],
            );
        }
        if self.frame_bytes > 0 {
            self.emit(
                guard,
                Op::Iadd,
                Mods::default(),
                [reg(Reg::SP), reg(Reg::SP), imm(self.frame_bytes as i64)],
            );
        }
        self.emit(guard, Op::Ret, Mods::default(), []);
    }
}

impl CompiledFunction {
    /// The decoded body without the callee-save bracket `prologue` and
    /// `epilogue_and_ret` emit for `k` saved registers: the first `1 + k`
    /// instructions and the `k + 1` before the trailing `RET`. `None` when
    /// the function makes calls. With no call, no value is live across one,
    /// so every value sits where it would if no register were callee-saved:
    /// this is the body the core classifies for effect lowering. No
    /// branch moves: branches land on block starts, which the opening half
    /// precedes, and the `RET` takes the closing half's place.
    pub fn leaf_body(&self) -> Option<Vec<Instruction>> {
        if !self.relocs.is_empty() {
            return None;
        }
        let mut body = self.decode();
        let saved = (self.stack_size / 4) as usize;
        if saved > 0 {
            if body.last().is_some_and(|i| i.op == Op::Ret) {
                let ret = body.len() - 1;
                body.drain(ret - 1 - saved..ret);
            }
            body.drain(..1 + saved);
        }
        Some(body)
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
        compile_function(&m.names, &m.functions[0], arch).unwrap()
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
        // A function that calls a helper with a live value across the call.
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
        let f = compile(src2, Arch::Maxwell);
        assert!(f.stack_size > 0, "frame for callee-saved registers");
        let instrs = f.decode();
        assert!(instrs.iter().any(|i| i.op == Op::Stl));
        assert!(instrs.iter().any(|i| i.op == Op::Ldl));
        assert!(instrs.iter().any(|i| i.op == Op::Jcal));
        assert_eq!(f.relocs.len(), 1);
        assert_eq!(f.relocs[0].target, "helper");
    }

    /// Fifteen values live at once (R4 to R18 and up), an early `ret` and a
    /// loop: a bracket of several registers, a branch into its closing half
    /// and one backwards across the body.
    const WIDE: &str = r#"
.func wide(.reg .u32 %x, .reg .u64 %out)
{
    .reg .u32 %r<16>;
    .reg .pred %p<2>;
    setp.eq.u32 %p1, %x, 0;
    @%p1 ret;
    add.u32 %r1, %x, 1;
    add.u32 %r2, %x, 2;
    add.u32 %r3, %x, 3;
    add.u32 %r4, %x, 4;
    add.u32 %r5, %x, 5;
    add.u32 %r6, %x, 6;
    add.u32 %r7, %x, 7;
    add.u32 %r8, %x, 8;
    add.u32 %r9, %x, 9;
    add.u32 %r10, %x, 10;
    add.u32 %r11, %x, 11;
    add.u32 %r12, %x, 12;
    add.u32 %r13, %x, 13;
TOP:
    add.u32 %r14, %r1, %r2;
    add.u32 %r14, %r14, %r3;
    add.u32 %r14, %r14, %r4;
    add.u32 %r14, %r14, %r5;
    add.u32 %r14, %r14, %r6;
    add.u32 %r14, %r14, %r7;
    add.u32 %r14, %r14, %r8;
    add.u32 %r14, %r14, %r9;
    add.u32 %r14, %r14, %r10;
    add.u32 %r14, %r14, %r11;
    add.u32 %r14, %r14, %r12;
    add.u32 %r14, %r14, %r13;
    sub.u32 %r1, %r1, 1;
    setp.ne.u32 %p1, %r1, 0;
    @%p1 bra TOP;
    st.global.u32 [%out], %r14;
    ret;
}
"#;

    #[test]
    fn leaf_body_drops_exactly_the_callee_save_bracket() {
        for arch in Arch::ALL {
            let f = compile(WIDE, arch);
            let full = f.decode();
            let leaf = f.leaf_body().unwrap();
            let k = (f.stack_size / 4) as usize;
            assert!(k >= 2, "{arch}: saves {k} registers");
            assert_eq!(leaf.len(), full.len() - 2 * (k + 1), "{arch}");
            // No stack-pointer write and no frame access is left.
            for i in &leaf {
                assert!(!i.reg_writes().contains(&Reg::SP), "{arch}: {i}");
                let frame = |o: &Operand| matches!(o, Operand::MRef { base: Reg::SP, .. });
                assert!(!i.operands.iter().any(frame), "{arch}: {i}");
            }
            let ret = leaf.last().unwrap();
            assert!(ret.op == Op::Ret && ret.guard.is_always(), "{arch}");
            // Every branch lands where it did: on the same instruction, or
            // on the RET for a landing inside the closing half.
            let isize = arch.instruction_size() as i64;
            let lands = |body: &[Instruction], at: usize| {
                (at as i64 + 1 + body[at].rel_target().unwrap() / isize) as usize
            };
            let full_index =
                |at: usize| if at + 1 == leaf.len() { full.len() - 1 } else { at + 1 + k };
            let closing = full.len() - 2 - k..full.len() - 1;
            let (mut branches, mut into_closing) = (0, 0);
            for at in (0..leaf.len()).filter(|&at| leaf[at].rel_target().is_some()) {
                let (got, was) = (lands(&leaf, at), lands(&full, full_index(at)));
                let want = if closing.contains(&was) {
                    into_closing += 1;
                    full.len() - 1
                } else {
                    was
                };
                assert_eq!(full_index(got), want, "{arch}: branch at {at}");
                branches += 1;
            }
            assert!(branches >= 2 && into_closing >= 1, "{arch}: {branches}, {into_closing}");
        }
    }

    #[test]
    fn a_body_without_a_bracket_is_its_own_leaf_and_one_with_calls_has_none() {
        let f = compile(
            ".func bump(.reg .u32 %x)\n{\n    add.u32 %x, %x, 1;\n    ret;\n}\n",
            Arch::Volta,
        );
        assert_eq!((f.stack_size, f.leaf_body()), (0, Some(f.decode())));
        let caller = ".func caller()\n{\n    call helper;\n    ret;\n}\n";
        assert_eq!(compile(caller, Arch::Volta).leaf_body(), None);
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
        let f = compile(src, Arch::Volta);
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
    fn sums_the_backend_forms_are_checked_not_wrapped() {
        let reason = |src: &str| {
            let m = parse(src).unwrap();
            match compile_function(&m.names, &m.functions[0], Arch::Pascal) {
                Err(PtxError::Semantic { reason, .. }) => reason,
                other => panic!("expected a semantic error for {src}, got {other:?}"),
            }
        };
        let shared =
            ".entry k()\n{\n    .shared .b8 a[4294967295];\n    .shared .b8 b[8];\n    exit;\n}\n";
        assert!(reason(shared).contains("shared memory exceeds"));
        let param = ".entry k(.param .u64 p)\n{\n    .reg .u32 %r<2>;\n    ld.param.u32 %r1, [p+70000];\n    exit;\n}\n";
        assert!(reason(param).contains("parameter offset 70000"));
        let index = ".func f(.reg .u32 %x)\n{\n    .reg .u32 %r<2>;\n    nvbit.readreg.b32 %r1, 1073741824;\n    add.u32 %r1, %r1, %x;\n    ret;\n}\n";
        assert!(reason(index).contains("saved-register index 1073741824"));
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
