//! The Code Generator: builds the instrumented copy of a function and its
//! relocated body (paper §5.1, Figure 4, with the whole function as the unit
//! a DBI code cache relocates). The generator:
//!
//! 1. relocates every original instruction once, in order, into one body,
//!    each site's code in line around its instruction: per call the save
//!    routine, the device-API frame pointer, the arguments (read from the
//!    *saved* registers, so no WAR hazard with the ABI argument registers),
//!    the tool call and the restore routine — or, for a call the planner
//!    lowered, the code of its effect (no save at all);
//! 2. links every control-flow target inside the function to its target
//!    instruction's group (a target outside keeps its address), and relocates
//!    a removed instruction as a `NOP`;
//! 3. keeps the image the original's size and bytes but for a `JMP` into the
//!    body at instruction 0 — at every instruction without a CFG, where a
//!    computed target enters through the image — so a swap is a memcpy.
//!
//! A site then costs no jump: a warp pays one `JMP` per entry.

use crate::hal::Hal;
use crate::instr::Instr;
use crate::lift::Lifted;
use crate::plan::{InstrumentationPlan, Lowering, PlanStats, PlannedCall, Promotion};
use crate::saverestore::{frame_bytes, tier_for, Routines};
use crate::spec::{abi_slots, arg_window, Arg, IPoint};
use crate::{NvbitError, Result};
use cuda::FunctionInfo;
use gpu::Origin;
use ptx::regalloc::{FIRST_CALLEE, FIRST_CALLER, NVBIT_FRAME, SCRATCH_HI};
use sass::op::{CfClass, CmpOp, IType, SubOp};
use sass::{Instruction, Mods, Op, Operand, Reg};
use std::collections::{HashMap, HashSet};

/// Size ceiling (in instructions) under which a tool body is spliceable,
/// the precondition of effect lowering.
pub const INLINE_MAX_INSTRS: usize = 24;
/// Register ceiling under which a tool body is spliceable. Wider than the
/// classic 16-register leaf threshold: a lowered call runs none of the
/// body's registers, so the cap only has to bound pathological bodies.
pub const INLINE_MAX_REGS: u32 = 24;

/// A loaded tool function's index in [`ToolFns`]: dense, in first-load
/// order and kept by a reload under the same name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ToolId(pub usize);

/// The loaded tool functions by [`ToolId`], and their names, which only the
/// name-taking entry points (`insert_call`, `load_tool_functions`,
/// `tool_functions`) read.
#[derive(Debug, Clone, Default)]
pub struct ToolFns {
    /// Every loaded function, by id.
    pub(crate) fns: Vec<ToolFn>,
    /// The name each function is loaded under, by id.
    pub(crate) names: Vec<String>,
}

impl ToolFns {
    /// The id of the function loaded under `name`, by a scan: a tool loads a
    /// handful, and comparing their names costs less than hashing one.
    pub fn id(&self, name: &str) -> Option<ToolId> {
        self.names.iter().position(|n| n == name).map(ToolId)
    }

    /// Loads `f` under `name` and returns its id; a reload under a loaded
    /// name replaces the function and keeps the id.
    pub fn insert(&mut self, name: &str, f: ToolFn) -> ToolId {
        let Some(id) = self.id(name) else {
            self.names.push(name.to_string());
            self.fns.push(f);
            return ToolId(self.fns.len() - 1);
        };
        self.fns[id.0] = f;
        id
    }
}

impl std::ops::Index<ToolId> for ToolFns {
    type Output = ToolFn;

    fn index(&self, id: ToolId) -> &ToolFn {
        &self.fns[id.0]
    }
}

/// A tool device function loaded by the Tool Functions Loader.
#[derive(Debug, Clone)]
pub struct ToolFn {
    /// Device address of the first instruction.
    pub addr: u64,
    /// General-purpose registers the function uses.
    pub reg_count: u32,
    /// Stack bytes the function needs.
    pub stack_size: u32,
    /// Whether the function uses the `nvbit.readreg`/`nvbit.writereg`
    /// device API. Such functions address arbitrary save-area slots at run
    /// time, so sites injecting them always get the conservative
    /// whole-function tier regardless of liveness.
    pub uses_reg_api: bool,
    /// One past the highest general-purpose register an *out-of-line call*
    /// to [`addr`](ToolFn::addr) can leave clobbered. The callable copy is
    /// compiled under the standard ABI, whose epilogue restores every
    /// callee-saved register, so this never exceeds the first
    /// callee-saved register (R16) even when the body itself writes higher.
    /// `None` when unknown (a body with calls); the clobber then falls back
    /// to `reg_count`.
    pub call_ceiling: Option<u8>,
    /// Set when the body is spliceable (`classify_body`) and has one
    /// effect it can be lowered to.
    pub effect: Option<Effect>,
}

/// The one effect of a spliceable body ([`crate::plan::PlanLevel::Promoted`]),
/// taken where argument `pred`, if the body tests one, is non-zero. Arguments
/// are named by their ABI slot (`spec::abi_slots`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // each variant's doc names its fields
pub enum Effect {
    /// Adds `value`, an argument (`Reg`) or a constant (`Imm`), zero-extended,
    /// to the `u64` at argument `addr`.
    Counter { pred: Option<u8>, addr: u8, value: Operand },
    /// Pushes argument pair `base` plus argument `off`, sign-extended, to the
    /// host channel.
    Push { pred: Option<u8>, base: u8, off: u8 },
}

/// What a register holds in [`effect_of`]'s walk: an argument, a constant, an
/// argument's sign word, or half (`false`: low) of a pair plus an argument.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Val {
    Param(u8),
    Imm(i64),
    Sign(u8),
    Sum(u8, u8, bool),
}

/// The effect a spliceable `body` has: one unguarded `ATOM.ADD.U64` (result
/// unused) or `RED.ADD.U64` of an argument or a constant, zero-extended,
/// through an address argument, or one unguarded `CHAN.64` of an argument
/// pair plus an argument, sign-extended — unconditional, or skipped by the
/// early return an `ISETP.EQ` of an argument against zero takes. Everything
/// else computes, moves or tests.
fn effect_of(body: &[Instruction], arch: sass::Arch) -> Option<Effect> {
    use Val::{Imm, Param, Sign, Sum};
    // Per register what it holds or, once written otherwise, nothing known;
    // per predicate the argument it tests for zero; the early return's
    // argument and join.
    let mut val: [Option<Val>; 256] = std::array::from_fn(|r| Some(Param(r as u8)));
    val[255] = Some(Imm(0));
    let (mut tests, mut skip, mut effect) = ([None; 8], None, None);
    for (pos, ins) in body.iter().enumerate() {
        let eval = |o: &Operand| o.as_imm().map(Imm).or_else(|| val[o.as_reg()?.index()]);
        let pair = |o: &Operand| Some((eval(o)?, val.get(o.as_reg()?.index() + 1).copied()??));
        let arg = |o: &Operand| eval(o).and_then(|v| if let Param(r) = v { Some(r) } else { None });
        let (always, mods) = (ins.guard.is_always(), ins.mods);
        let first = always && effect.is_none();
        // Before the early return's join an effect takes its argument.
        let pred = skip.map_or(Some(None), |(slot, join)| (pos < join).then_some(Some(slot)));
        match (ins.op, &ins.operands[..]) {
            (Op::Atom, [_, Operand::MRef { base, offset: 0 }, v, _])
            | (Op::Red, [Operand::MRef { base, offset: 0 }, v])
                if (mods.sub, mods.itype) == (SubOp::Add, IType::U64) =>
            {
                let written = ins.reg_writes();
                let read = |l: &Instruction| l.reg_reads().iter().any(|r| written.contains(r));
                let value = match pair(v)? {
                    (Param(r), Imm(0)) => Operand::Reg(Reg(r)),
                    (Imm(c), Imm(0)) => Operand::Imm(c),
                    _ => return None,
                };
                let (Param(addr), Param(hi)) = pair(&Operand::Reg(*base))? else {
                    return None;
                };
                let once = first && hi == addr + 1 && !body[pos + 1..].iter().any(read);
                effect = Some(once.then_some(Effect::Counter { pred: pred?, addr, value })?);
            }
            (Op::Chan, [v]) if mods.width == sass::Width::B64 => {
                let (Sum(base, off, false), hi) = pair(v)? else { return None };
                let once = first && hi == Sum(base, off, true);
                effect = Some(once.then_some(Effect::Push { pred: pred?, base, off })?);
            }
            (Op::Bra, _) if !always && !ins.guard.negated && skip.is_none() && effect.is_none() => {
                let join = pos as i64 + 1 + ins.rel_target()? / arch.instruction_size() as i64;
                skip = Some((tests[ins.guard.pred.index()]?, join as usize));
            }
            // Past the effect: the arm's way to the join.
            (Op::Bra | Op::Sync, _) if effect.is_some() => {}
            (Op::Nop | Op::Ssy | Op::Ret, _) => {}
            // The categories up to `Warp` compute, move or test.
            _ if ins.op.category() <= sass::OpCategory::Warp => {}
            _ => return None,
        }
        let moved = match (ins.op, &ins.operands[..]) {
            _ if !always => [None; 2],
            (Op::Mov | Op::Mov32i, [_, s]) => [eval(s), None],
            (Op::Shr, [_, s, Operand::Imm(31)]) if mods.itype == IType::S32 => {
                [arg(s).map(Sign), None]
            }
            (Op::Iadd, [_, a, b]) if mods.itype == IType::U64 => match (pair(a), pair(b)) {
                (Some((Param(x), Param(y))), Some((Param(o), Sign(s)))) if (y, s) == (x + 1, o) => {
                    [false, true].map(|hi| Some(Sum(x, o, hi)))
                }
                _ => [None; 2],
            },
            _ => [None; 2],
        };
        let tested = match (ins.op, mods.cmp, &ins.operands[..]) {
            (Op::Isetp, CmpOp::Eq, [_, a, b]) if always && eval(b) == Some(Imm(0)) => arg(a),
            _ => None,
        };
        for (i, r) in ins.reg_writes().iter().enumerate() {
            val[r.index()] = moved.get(i).copied().flatten();
        }
        (0..7).filter(|p| ins.pred_writes() >> p & 1 == 1).for_each(|p| tests[p] = tested);
    }
    effect
}

/// Whether `i` transfers control out of the body and back (callee
/// clobbers unknown).
fn calls(i: &Instruction) -> bool {
    matches!(i.cf_class(), CfClass::AbsCall | CfClass::RelCall | CfClass::IndirectBranch)
}

/// One past the highest general-purpose register `body` writes.
fn write_ceiling_of(body: &[Instruction]) -> u8 {
    let max_written = body.iter().filter_map(|i| i.reg_writes().iter().map(|r| r.0).max()).max();
    max_written.map_or(0, |r| r.saturating_add(1))
}

impl ToolFn {
    /// The entry of a function installed at `addr` whose compile used
    /// `reg_count` registers and a `stack_size`-byte callee-save frame:
    /// `body` is that compile without its callee-save bracket
    /// (`ptx::CompiledFunction::leaf_body`), which is what classification
    /// reasons about, while out-of-line calls run the installed code, whose
    /// epilogue restores every callee-saved register.
    /// `arch` selects the instruction size and the CFG rules for validating
    /// that control flow stays inside the body.
    pub fn with_body(
        addr: u64,
        reg_count: u32,
        stack_size: u32,
        uses_reg_api: bool,
        body: Vec<Instruction>,
        arch: sass::Arch,
    ) -> ToolFn {
        let spliceable = classify_body(&body, reg_count, uses_reg_api, arch);
        // The installed epilogue restores every callee-saved register.
        let call_ceiling =
            (!body.iter().any(calls)).then(|| write_ceiling_of(&body).min(FIRST_CALLEE));
        ToolFn {
            addr,
            reg_count,
            stack_size,
            uses_reg_api,
            call_ceiling,
            effect: spliceable.then(|| effect_of(&body, arch)).flatten(),
        }
    }
}

/// Whether a loaded tool body is spliceable, the precondition of effect
/// lowering: a control-flow shape [`sass::pressure::body_shape`] accepts
/// (straight leaf or guarded diamond), within the size and register caps.
pub(crate) fn classify_body(
    body: &[Instruction],
    reg_count: u32,
    uses_reg_api: bool,
    arch: sass::Arch,
) -> bool {
    // A lowered call runs none of the body, so everything the body does must
    // be visible in it: no call, no frame-pointer write, no reach into the
    // save area through the register device API. The shape classification
    // requires the single unguarded trailing RET, rejects control flow that
    // leaves the body, and rejects loops and multi-branch shapes that happen
    // to stay in-body.
    let writes_sp = body.iter().any(|i| i.reg_writes().contains(&Reg::SP));
    !body.iter().any(calls)
        && !writes_sp
        && !uses_reg_api
        && sass::pressure::body_shape(body, arch).is_some()
        && reg_count <= INLINE_MAX_REGS
        && body.len() <= INLINE_MAX_INSTRS
}

/// How the code generator sizes each injection site's register save.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SavePolicy {
    /// Size each call from the dataflow analysis: only registers live at
    /// its injection point inside its clobber window need saving, by the
    /// smallest tier covering them. Falls back to
    /// [`SavePolicy::FullTier`] per function when the analysis is
    /// unavailable, and per call when the tool uses the register device
    /// API.
    #[default]
    Liveness,
    /// One conservative tier covering the whole function's register
    /// demand at every site (the paper's baseline §5.1 behaviour).
    FullTier,
}

/// Where an emitted call's lowered code sits within its site: `(offset,
/// len)`; `None` for a call made out of line.
pub type CodeSpan = Option<(usize, usize)>;

/// Layout record for one injection site's group in the body, used by the
/// pre-swap verifier and the save-reduction accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteMeta {
    /// Index of the instrumented instruction in the original body.
    pub instr_idx: usize,
    /// Index of the group's first instruction within the body.
    pub start: usize,
    /// Body instructions the group spans: the site's code and the original.
    pub len: usize,
    /// Offset within the group of the relocated original instruction (or
    /// its `NOP` replacement when `remove_orig` was requested).
    pub orig_pos: usize,
    /// Save tier of the site's calls that go through the save routines
    /// (0 when every call is lowered).
    pub tier: u16,
    /// One entry per emitted call, in emission order.
    pub calls: Vec<CodeSpan>,
}

/// The output of code generation for one function.
#[derive(Debug, Clone)]
pub struct InstrumentedImage {
    /// Instrumented copy: the original's bytes but for its entry jumps.
    pub instrumented: Vec<u8>,
    /// Device address of the relocated body.
    pub body_addr: u64,
    /// The body bytes (the caller uploads them to `body_addr`).
    pub body_code: Vec<u8>,
    /// Each body word's origin, an original or a site, for its code label.
    pub origin: Vec<Origin>,
    /// Extra per-thread local memory every launch of the instrumented
    /// version needs (save frame + tool stack frames).
    pub extra_local: u32,
    /// The largest save tier used by any site (0: no routine is called).
    pub tier: u16,
    /// Per-site group layout, in body order.
    pub sites: Vec<SiteMeta>,
    /// Σ slots stored per out-of-line call: its site's tier.
    pub saved_slots: u64,
    /// Register slots the conservative whole-function tier would have
    /// saved for the same injections.
    pub full_tier_slots: u64,
    /// Why liveness-driven sizing was not applied, when it was not
    /// (`None` when every site was sized from the analysis).
    pub fallback: Option<String>,
    /// What the plan passes did for this image (coalescing/lowering
    /// accounting).
    pub plan: PlanStats,
}

/// Where a function of `len` instructions at `addr` runs from, its body at
/// `base`: each instruction's group is its site's, or its relocated copy
/// alone. The code generator places by it and the verifier checks by it.
pub(crate) struct Layout<'a> {
    pub(crate) addr: u64,
    pub(crate) len: usize,
    pub(crate) base: u64,
    pub(crate) sites: &'a [SiteMeta],
    pub(crate) isize: u64,
    /// Image words that jump into the body: 0, or all without a CFG.
    pub(crate) entries: usize,
}

impl<'a> Layout<'a> {
    pub(crate) fn of(hal: &Hal, original: &Lifted, at: (u64, u64), sites: &'a [SiteMeta]) -> Self {
        let len = original.instrs.len();
        let entries = if original.analysis.is_ok() { len.min(1) } else { len };
        Layout { addr: at.0, len, base: at.1, sites, isize: hal.instruction_size(), entries }
    }

    /// The body index of instruction `t`'s group.
    pub(crate) fn group(&self, t: usize) -> usize {
        let k = self.sites.partition_point(|s| s.instr_idx < t);
        match (self.sites.get(k), k.checked_sub(1).map(|j| &self.sites[j])) {
            (Some(s), _) if s.instr_idx == t => s.start,
            (_, Some(p)) => p.start + p.len + (t - p.instr_idx - 1),
            _ => t,
        }
    }

    /// The body index of each instruction's relocated copy, in order.
    pub(crate) fn slots(&self) -> impl Iterator<Item = usize> + '_ {
        let (mut sites, mut shift) = (self.sites.iter().peekable(), 0);
        (0..self.len).map(move |t| {
            let Some(s) = sites.next_if(|s| s.instr_idx == t) else { return t + shift };
            shift = (s.start + s.len).saturating_sub(t + 1);
            s.start + s.orig_pos
        })
    }

    /// The entry jump at image word `i`: to its group.
    pub(crate) fn entry(&self, i: usize) -> Instruction {
        Instruction::new(Op::Jmp, [Operand::Abs(self.base + self.group(i) as u64 * self.isize)])
    }

    /// Instruction `i`, `ins`, relocated to body word `at` when that moves
    /// it: a control-flow target inside the function linked to its group, a
    /// relative one outside aimed at the same address; `None` for the rest.
    pub(crate) fn relocate(&self, ins: &Instruction, i: usize, at: usize) -> Option<Instruction> {
        let link = |t: u64| {
            let off = t.wrapping_sub(self.addr);
            let inside = off < self.len as u64 * self.isize && off.is_multiple_of(self.isize);
            let k = inside.then_some(off / self.isize);
            k.map_or(t, |k| self.base + self.group(k as usize) as u64 * self.isize)
        };
        // Only `BRA`, `CAL`, `SSY`, `JMP` and `JCAL` decode with these operands.
        let mut moved = (ins.cf_class() != CfClass::None).then_some(*ins)?;
        match moved.operands.first_mut()? {
            Operand::Rel(rel) => {
                let t = link((self.addr + (i as u64 + 1) * self.isize).wrapping_add(*rel as u64));
                *rel = t.wrapping_sub(self.base + (at as u64 + 1) * self.isize) as i64;
            }
            Operand::Abs(t) => *t = link(*t),
            _ => return None,
        }
        Some(moved)
    }
}

/// The register demand of reading one saved register: slot `r` must have
/// been stored. `RZ` and the reconstructed `SP` need no slot.
fn reg_demand(r: u8) -> u32 {
    match r {
        255 | 1 => 0,
        _ => r as u32 + 1,
    }
}

/// The register demand an argument places on the save tier.
pub(crate) fn arg_demand(arg: &Arg) -> u32 {
    match arg {
        Arg::RegVal(r) => reg_demand(*r),
        Arg::RegVal64(r) => reg_demand(*r).max(reg_demand(r.saturating_add(1))),
        _ => 0,
    }
}

/// One past the highest register an out-of-line `call` of `tf` clobbers:
/// R0 (the frame pointer), the ABI argument window and what the
/// standard-ABI callee leaves clobbered.
pub(crate) fn clobber(call: &PlannedCall, tf: &ToolFn) -> u32 {
    let ceiling = tf.call_ceiling.map_or(tf.reg_count, u32::from);
    ceiling.max(u32::from(arg_window(&call.args))).max(1)
}

/// A function's instrumentation emitted position-independently: everything
/// [`prepare`] decides before the body has an address.
/// [`Prepared::finish`] turns it into the installable image.
pub(crate) struct Prepared {
    /// Size of the body to allocate.
    pub(crate) body_bytes: u64,
    /// The image with every address-independent field final; `body_addr`,
    /// `body_code` and `instrumented` are filled in by `finish`.
    image: InstrumentedImage,
    /// The injected words, in body order; `finish` places the originals.
    injected: Vec<Instruction>,
}

/// What emitting a function's sites needs to know.
struct Emit<'a> {
    hal: &'a Hal,
    original: &'a [Instr],
    removed: &'a HashSet<usize>,
    tool_fns: &'a ToolFns,
    routines: &'a HashMap<u16, Routines>,
    promotion: &'a Promotion,
}

/// The first half of code generation over a validated
/// [`InstrumentationPlan`] (built by [`crate::plan::build`], which also runs
/// the coalescing and lowering passes): save sizing and site emission.
/// `routines` must cover every tier. Under
/// [`SavePolicy::Liveness`] with the body's [`sass::Analysis`] available,
/// each out-of-line call gets the ladder tier covering the registers that
/// are both live at its injection point and inside its clobber window, plus
/// any saved value an argument reads back; otherwise every site uses the
/// conservative whole-function tier and [`InstrumentedImage::fallback`]
/// records why. A lowered call saves nothing.
///
/// Each site is emitted once, position-independently, so this half needs no
/// device memory and every emission error precedes the body's allocation
/// (the bulk allocation the paper mentions), which the caller makes between
/// this and [`Prepared::finish`].
///
/// # Errors
///
/// [`NvbitError::BadRequest`] for argument-ABI violations or register
/// demands beyond the register file.
#[allow(clippy::too_many_arguments)] // the paper's six codegen inputs + policy
pub(crate) fn prepare(
    hal: &Hal,
    info: &FunctionInfo,
    original: &Lifted,
    plan: &InstrumentationPlan,
    tool_fns: &ToolFns,
    routines: &HashMap<u16, Routines>,
    policy: SavePolicy,
) -> Result<Prepared> {
    let plan_stats = plan.stats;

    // The conservative whole-function demand (§5.1 baseline): the
    // instrumented function's registers, every injected function's
    // registers, the ABI argument registers, and any register a tool asks
    // to read.
    let mut whole: u32 = info.reg_count.max(u32::from(FIRST_CALLEE));
    let mut tool_stack_max: u32 = 0;
    for calls in plan.sites.values() {
        for call in calls {
            let tf = &tool_fns[call.func];
            whole = whole.max(tf.reg_count);
            tool_stack_max = tool_stack_max.max(tf.stack_size);
            for arg in &call.args {
                whole = whole.max(arg_demand(arg));
            }
        }
    }
    let whole_tier = tier_for(u16::try_from(whole).unwrap_or(u16::MAX))?;

    // The analysis whose liveness sizes the tiers — solved only once an
    // out-of-line call asks — or why the whole-function tier applies.
    let (analysis, fallback) = match (policy, &original.analysis) {
        (SavePolicy::FullTier, _) => (None, Some("full-tier save policy requested".into())),
        (SavePolicy::Liveness, Err(reason)) => (None, Some(reason.to_string())),
        (SavePolicy::Liveness, Ok(a)) => (Some(a), None),
    };

    let cx = Emit {
        hal,
        original: &original.instrs,
        removed: &plan.removed,
        tool_fns,
        routines,
        promotion: &plan.promotion,
    };

    // Emit every site once, in body order, between the relocated instructions
    // no site claims, into vectors sized for what the calls emit.
    let calls = plan.sites.values().flatten();
    let words =
        calls.map(|c| if let Lowering::Code(k) = &c.lowering { k.len() } else { 4 + c.args.len() });
    let injected = words.sum::<usize>() + 4 * plan.promotion.pairs.len();
    let (mut injected, mut origin) =
        (Vec::with_capacity(injected), Vec::with_capacity(original.instrs.len() + injected));
    let relocated = |from: usize, to: usize| (from..to).map(|i| Origin::Relocated(i as u32));
    let mut sites: Vec<SiteMeta> = Vec::with_capacity(plan.sites.len());
    let (mut saved_slots, mut full_tier_slots, mut zero_save_sites) = (0u64, 0u64, 0u64);
    let mut max_tier = if plan.sites.is_empty() { whole_tier } else { 0 };
    for (&idx, planned) in &plan.sites {
        // Decided here, once per site, and handed down to emission: the
        // ladder tier covers every call the site makes out of line.
        let mut tier = 0u16;
        let mut ladder_calls = 0u64;
        for call in planned.iter().filter(|c| c.lowering == Lowering::Call) {
            ladder_calls += 1;
            let tf = &tool_fns[call.func];
            let need = match analysis {
                // Register-device-API tools index save-area slots computed
                // at run time; only the whole-function tier is safe for them.
                Some(a) if !tf.uses_reg_api => {
                    // Save what is live at the injection point (before or after
                    // the instruction) below the call's clobber window, and
                    // what an argument reads back.
                    let ceiling = u8::try_from(clobber(call, tf)).unwrap_or(u8::MAX);
                    let df = a.liveness(&original.instrs);
                    let live = if call.ipoint == IPoint::Before {
                        df.live_in(idx)
                    } else {
                        df.live_out(idx)
                    };
                    let live = live.gprs.max_below(ceiling);
                    let demand = call.args.iter().map(arg_demand).max().unwrap_or(0);
                    let demand = demand.max(live.map_or(0, |r| u32::from(r) + 1));
                    tier_for(u16::try_from(demand).unwrap_or(u16::MAX))?
                }
                _ => whole_tier,
            };
            tier = tier.max(need);
        }
        origin.extend(relocated(sites.last().map_or(0, |s| s.instr_idx + 1), idx));
        let start = origin.len();
        let (orig_pos, calls) = emit_site(&cx, tier, idx, planned, &mut injected, &mut origin)?;
        saved_slots += u64::from(tier) * ladder_calls;
        full_tier_slots += u64::from(whole_tier) * planned.len() as u64;
        zero_save_sites += u64::from(ladder_calls == 0);
        max_tier = max_tier.max(tier);
        let len = origin.len() - start;
        sites.push(SiteMeta { instr_idx: idx, start, len, orig_pos, tier, calls });
    }
    origin.extend(relocated(sites.last().map_or(0, |s| s.instr_idx + 1), original.instrs.len()));
    origin.shrink_to_fit();
    common::obs::counter("codegen.zero_save_sites", zero_save_sites);
    let ladder_frame = if max_tier > 0 { frame_bytes(max_tier, hal) } else { 0 };

    Ok(Prepared {
        body_bytes: origin.len() as u64 * hal.instruction_size(),
        image: InstrumentedImage {
            instrumented: Vec::new(),
            body_addr: 0,
            body_code: Vec::new(),
            origin,
            extra_local: ladder_frame + tool_stack_max + 128,
            tier: max_tier,
            sites,
            saved_slots,
            full_tier_slots,
            fallback,
            plan: plan_stats,
        },
        injected,
    })
}

impl Prepared {
    /// The second half of code generation, once the body of the function at
    /// `at.0` sits at `at.1`: each instruction of `original` linked at its
    /// slot ([`Layout::relocate`]; a `NOP` where `removed`), a word that does
    /// not change copied, so only injected and relinked words are encoded;
    /// the image the original's bytes with its entry jumps encoded.
    ///
    /// # Errors
    ///
    /// [`NvbitError::Encode`] when the target family cannot encode the result.
    pub(crate) fn finish(
        self,
        hal: &Hal,
        original: &Lifted,
        removed: &HashSet<usize>,
        at: (u64, u64),
    ) -> Result<InstrumentedImage> {
        let (mut image, mut injected) = (self.image, self.injected.into_iter());
        let (codec, size) = (hal.codec(), hal.instruction_size() as usize);
        let layout = Layout::of(hal, original, at, &image.sites);
        let mut body = vec![0u8; image.origin.len() * size];
        for (at, (origin, w)) in image.origin.iter().zip(body.chunks_exact_mut(size)).enumerate() {
            let Origin::Relocated(i) = *origin else {
                codec.encode_to(&injected.next().expect("one word per injected origin"), w)?;
                continue;
            };
            let (i, was) = (i as usize, original.instrs[i as usize].raw());
            let gone = !removed.is_empty() && removed.contains(&i);
            match if gone { Some(Instruction::nop()) } else { layout.relocate(was, i, at) } {
                Some(ins) if ins != *was => codec.encode_to(&ins, w)?,
                _ => w.copy_from_slice(&original.code[i * size..][..size]),
            }
        }
        let mut instrumented = original.code.clone();
        for (i, w) in instrumented.chunks_exact_mut(size).enumerate().take(layout.entries) {
            codec.encode_to(&layout.entry(i), w)?;
        }
        (image.body_addr, image.body_code, image.instrumented) = (at.1, body, instrumented);
        Ok(image)
    }
}

/// Appends one site's injected code to `injected` and its origins, the
/// relocated original's among them, to `origin` (body order); reports the
/// original's position in the site and each call's lowered-code span.
fn emit_site(
    cx: &Emit<'_>,
    tier: u16,
    idx: usize,
    planned: &[PlannedCall],
    injected: &mut Vec<Instruction>,
    origin: &mut Vec<Origin>,
) -> Result<(usize, Vec<CodeSpan>)> {
    let (site, mut spans) = (origin.len(), Vec::with_capacity(planned.len()));
    // Marks what `out` gained as this site's, for `tool`: `origin` holds a
    // word more per relocated instruction, `idx` of them up to the original.
    let mark = |origin: &mut Vec<Origin>, out: &[Instruction], relocated: usize, tool| {
        origin.resize(out.len() + relocated, Origin::Injected { site: idx as u32, tool });
    };
    let mut emit_calls = |ipoint, out: &mut Vec<_>, origin: &mut Vec<_>, relocated| -> Result<()> {
        for call in planned.iter().filter(|c| c.ipoint == ipoint) {
            let (from, lowered) = (origin.len(), emit_call(cx, tier, idx, call, out)?);
            mark(origin, out, relocated, std::num::NonZeroU64::new(cx.tool_fns[call.func].addr));
            spans.push(lowered.then_some((from - site, origin.len() - from)));
        }
        Ok(())
    };

    // Counter promotion zeroes its pairs at entry and flushes them ahead of
    // each `EXIT`, under the `EXIT`'s guard.
    injected.extend(cx.promotion.prologue(idx));
    mark(origin, injected, idx, None);
    emit_calls(IPoint::Before, injected, origin, idx)?;
    let orig = if cx.removed.contains(&idx) { Instruction::nop() } else { *cx.original[idx].raw() };
    injected.extend(cx.promotion.epilogue(&orig));
    mark(origin, injected, idx, None);

    // The relocated original (Figure 4, step 5; a NOP when removed, the
    // PROXY-emulation path of §6.3), placed by `finish`.
    let orig_pos = origin.len() - site;
    origin.push(Origin::Relocated(idx as u32));

    // Behind an original that unconditionally leaves, After-injections would
    // be dead code; any other site falls into the next instruction's group.
    if !orig.leaves() {
        emit_calls(IPoint::After, injected, origin, idx + 1)?;
    }
    Ok((orig_pos, spans))
}

/// Emits one planned call — a lowered one as its code, any other as save
/// routine, frame pointer, arguments, tool call, restore routine — and
/// returns whether it was lowered.
fn emit_call(
    cx: &Emit<'_>,
    tier: u16,
    idx: usize,
    call: &PlannedCall,
    out: &mut Vec<Instruction>,
) -> Result<bool> {
    if let Lowering::Code(code) = &call.lowering {
        out.extend_from_slice(code);
        return Ok(true);
    }
    let routine = cx
        .routines
        .get(&tier)
        .copied()
        .ok_or_else(|| NvbitError::BadRequest(format!("no save routine for tier {tier}")))?;
    // 1. Save the thread state. 2. Device-API frame pointer: R0 = save-area
    //    base. 3. Materialize arguments into the ABI registers from the
    //    *saved* state: register r sits in slot r, the packed predicates
    //    after the tier's registers.
    out.push(Instruction::new(Op::Jcal, [Operand::Abs(routine.save_addr)]));
    out.push(op2(Op::Mov, NVBIT_FRAME, Operand::Reg(Reg::SP)));
    emit_args(call, cx.original[idx].raw().guard, tier, frame_bytes(tier, cx.hal), out)?;
    // 4. Call the tool function; 5. restore the thread state.
    out.push(Instruction::new(Op::Jcal, [Operand::Abs(cx.tool_fns[call.func].addr)]));
    out.push(Instruction::new(Op::Jcal, [Operand::Abs(routine.restore_addr)]));
    Ok(false)
}

/// `op d, s`.
fn op2(op: Op, d: Reg, s: Operand) -> Instruction {
    Instruction::new(op, [Operand::Reg(d), s])
}

/// Slot `i` of the open save frame.
fn frame_slot(i: usize) -> Operand {
    Operand::MRef { base: Reg::SP, offset: 4 * i as i32 }
}

/// Materializes `call`'s arguments into the ABI registers from the open
/// `frame`-byte save frame of `tier` at a site guarded by `guard`.
fn emit_args(
    call: &PlannedCall,
    guard: sass::Guard,
    tier: u16,
    frame: u32,
    out: &mut Vec<Instruction>,
) -> Result<()> {
    // Unpacks bit `p` of the packed-predicate slot through R3 into `d`,
    // complemented when `negated`.
    let predval = |p: u8, negated, d, out: &mut Vec<_>| {
        let bit = |op, by: i64, mods| {
            let s = Operand::Reg(SCRATCH_HI);
            Instruction::new(op, [s, s, Operand::Imm(by)]).with_mods(mods)
        };
        out.push(op2(Op::Ldl, SCRATCH_HI, frame_slot(tier as usize)));
        out.push(bit(Op::Shr, p as i64, Mods { itype: IType::U32, ..Mods::default() }));
        out.push(bit(Op::Lop, 1, Mods { sub: SubOp::And, ..Mods::default() }));
        if negated {
            out.push(bit(Op::Lop, 1, Mods { sub: SubOp::Xor, ..Mods::default() }));
        }
        out.push(op2(Op::Mov, d, Operand::Reg(SCRATCH_HI)));
    };
    for (slot, arg) in abi_slots(&call.args) {
        if slot as u32 + arg.slots() as u32 > u32::from(FIRST_CALLEE) {
            return Err(NvbitError::BadRequest(format!(
                "arguments of {:?} exceed the ABI register window (R{FIRST_CALLER}..R{})",
                call.func,
                FIRST_CALLEE - 1
            )));
        }
        let (lo, hi) = (Reg(slot), Reg(slot + 1));
        let imm = |d, v: u32| op2(Op::Mov32i, d, Operand::Imm((v as i32) as i64));
        let regval = |r: u8, d| load_reg(r, d, frame);
        match *arg {
            // PT: constant true (negated PT is constant false).
            Arg::GuardPred if guard.pred.is_true_reg() => out.push(imm(lo, !guard.negated as u32)),
            Arg::PredVal(p) if p >= 7 => out.push(imm(lo, 1)),
            Arg::GuardPred => predval(guard.pred.0, guard.negated, lo, out),
            Arg::PredVal(p) => predval(p, false, lo, out),
            Arg::RegVal(r) => out.push(regval(r, lo)),
            Arg::RegVal64(r) => out.extend([regval(r, lo), regval(r.saturating_add(1), hi)]),
            Arg::Imm32(v) => out.push(imm(lo, v as u32)),
            Arg::Imm64(v) => out.extend([imm(lo, v as u32), imm(hi, (v >> 32) as u32)]),
            Arg::CBank { bank, offset } => {
                out.push(op2(Op::Ldc, lo, Operand::CBank { bank, base: Reg::RZ, offset }));
            }
        }
    }
    Ok(())
}

/// Loads the application's register `r` into `d` from its slot of the open
/// `frame`-byte save frame.
fn load_reg(r: u8, d: Reg, frame: u32) -> Instruction {
    match r {
        255 => op2(Op::Mov, d, Operand::Reg(Reg::RZ)),
        // The stack pointer is not stored; reconstruct the pre-save value.
        1 => Instruction::new(
            Op::Iadd,
            [Operand::Reg(d), Operand::Reg(Reg::SP), Operand::Imm(frame as i64)],
        ),
        _ => op2(Op::Ldl, d, frame_slot(r as usize)),
    }
}

#[cfg(test)]
/// A tool function whose body makes a call (`JCAL 0x0 ; RET`): never
/// lowered, and an out-of-line call of it clobbers `reg_count` registers.
pub(crate) fn calling(addr: u64, reg_count: u32, stack_size: u32, uses_reg_api: bool) -> ToolFn {
    let body = vec![Instruction::new(Op::Jcal, [Operand::Abs(0)]), Instruction::new(Op::Ret, [])];
    // A body with a call is classified no further, on either family.
    ToolFn::with_body(addr, reg_count, stack_size, uses_reg_api, body, sass::Arch::Volta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lift::lifted;
    use crate::plan::{self, PlanLevel, PlanOpts, NO_ANALYSIS};
    use crate::saverestore::TIERS;
    use crate::spec::FuncSpec;
    use cuda::CuModule;
    use sass::{Arch, Pred};

    /// Both halves of code generation around one `alloc` call, as
    /// `CoreState::build` sequences them.
    #[allow(clippy::too_many_arguments)]
    fn generate(
        hal: &Hal,
        info: &FunctionInfo,
        original: &[Instruction],
        plan: &InstrumentationPlan,
        tool_fns: &ToolFns,
        routines: &HashMap<u16, Routines>,
        analysis: &std::result::Result<sass::Analysis, sass::CfgFailure>,
        policy: SavePolicy,
        mut alloc: impl FnMut(u64) -> Result<u64>,
    ) -> Result<InstrumentedImage> {
        let lifted = Lifted { code: hal.assemble(original)?, ..lifted(original, analysis.clone()) };
        let prepared = prepare(hal, info, &lifted, plan, tool_fns, routines, policy)?;
        let body_addr = alloc(prepared.body_bytes)?;
        prepared.finish(hal, &lifted, &plan.removed, (info.addr, body_addr))
    }

    /// Naive (pass-free) plan over the spec — the pre-plan pipeline shape.
    /// (The architecture only matters to the planner's effect lowering,
    /// which needs the analysis `NO_ANALYSIS` withholds.)
    fn plan_of(spec: &FuncSpec, body: &[Instruction], fns: &ToolFns) -> InstrumentationPlan {
        plan::build(spec, &lifted(body, NO_ANALYSIS), Arch::Volta, fns, PlanOpts::naive()).unwrap()
    }

    fn fake_info(addr: u64, reg_count: u32) -> FunctionInfo {
        FunctionInfo {
            name: "k".into(),
            module: CuModule::from_raw(1),
            library: false,
            kind: ptx::FunctionKind::Entry,
            addr,
            code_len: 0,
            reg_count,
            stack_size: 0,
            shared_size: 0,
            params: vec![],
            related: vec![],
            line_table: vec![],
            local_override: 0,
        }
    }

    fn fake_routines() -> HashMap<u16, Routines> {
        TIERS
            .iter()
            .map(|&t| {
                (
                    t,
                    Routines {
                        tier: t,
                        save_addr: 0x10_0000 + t as u64 * 0x1000,
                        restore_addr: 0x20_0000 + t as u64 * 0x1000,
                        frame_bytes: 0,
                    },
                )
            })
            .collect()
    }

    /// `plan` generated over `original` with no analysis, and the decoded
    /// body: the image jumps into it at every instruction.
    fn naive_body(
        hal: &Hal,
        info: &FunctionInfo,
        original: &[Instruction],
        plan: &InstrumentationPlan,
        tool_fns: &ToolFns,
    ) -> (InstrumentedImage, Vec<Instruction>) {
        let routines = fake_routines();
        let policy = SavePolicy::Liveness;
        let img =
            generate(hal, info, original, plan, tool_fns, &routines, &NO_ANALYSIS, policy, |_| {
                Ok(0x9000)
            })
            .unwrap();
        let body = hal.disassemble(&img.body_code).unwrap();
        (img, body)
    }

    fn setup(arch: Arch, text: &str) -> (Hal, FunctionInfo, Vec<Instruction>) {
        let hal = Hal::new(arch);
        let instrs = hal.disassemble(&hal.assemble_text(text).unwrap()).unwrap();
        let info = fake_info(0x4000, 12);
        (hal, info, instrs)
    }

    impl<const N: usize> From<[(&str, ToolFn); N]> for ToolFns {
        /// The table with each function loaded in turn: ids `0..N`.
        fn from(fns: [(&str, ToolFn); N]) -> ToolFns {
            let mut table = ToolFns::default();
            fns.into_iter().for_each(|(name, f)| _ = table.insert(name, f));
            table
        }
    }

    /// The first function a table loads: `ifunc` of [`tool_fns`], the
    /// leaf of [`leaf_fns`], the one function of [`tool`].
    const FIRST: ToolId = ToolId(0);

    fn tool_fns() -> ToolFns {
        ToolFns::from([("ifunc", calling(0x8000, 8, 16, false))])
    }

    #[test]
    fn a_reload_under_a_loaded_name_keeps_its_id() {
        let mut fns = tool_fns();
        assert_eq!(fns.insert("other", calling(0x9000, 8, 0, false)), ToolId(1));
        assert_eq!(fns.insert("ifunc", calling(0xa000, 12, 0, false)), FIRST);
        assert_eq!(fns.names, ["ifunc", "other"]);
        assert_eq!(
            (fns[FIRST].addr, fns[FIRST].reg_count, fns[ToolId(1)].addr),
            (0xa000, 12, 0x9000)
        );
    }

    #[test]
    fn trampoline_structure_matches_figure_4() {
        for arch in [Arch::Kepler, Arch::Volta] {
            let (hal, info, instrs) = setup(
                arch,
                "S2R R4, SR_TID.X ;\n\
                 IADD R5, R4, 0x1 ;\n\
                 STG [R6], R5 ;\n\
                 EXIT ;",
            );
            let mut spec = FuncSpec::default();
            spec.insert_call(2, FIRST, IPoint::Before);
            spec.add_arg(2, Arg::GuardPred);
            spec.add_arg(2, Arg::Imm64(0xdead_beef_1234));

            let img = generate(
                &hal,
                &info,
                &instrs,
                &plan_of(&spec, &instrs, &tool_fns()),
                &tool_fns(),
                &fake_routines(),
                &sass::Analysis::of(&instrs, arch),
                SavePolicy::Liveness,
                |_len| Ok(0x9000),
            )
            .unwrap();

            // Same size, instruction 0 replaced by an absolute JMP into the
            // body; every other instruction untouched.
            assert_eq!(img.instrumented.len(), instrs.len() * hal.instruction_size() as usize);
            let patched = hal.disassemble(&img.instrumented).unwrap();
            assert_eq!(patched[0], Instruction::new(Op::Jmp, [Operand::Abs(0x9000)]));
            assert_eq!(patched[1..], instrs[1..]);

            // The body: the relocated originals in order, and site 2's save,
            // frame ptr, args, tool call and restore in line before its STG.
            let body = hal.disassemble(&img.body_code).unwrap();
            let ops: Vec<Op> = body.iter().map(|i| i.op).collect();
            assert_eq!(
                ops,
                vec![
                    Op::S2r,
                    Op::Iadd,
                    Op::Jcal,   // save
                    Op::Mov,    // R0 = frame
                    Op::Mov32i, // guard (unguarded => constant 1)
                    Op::Mov32i, // imm64 lo (slot aligned to R6)
                    Op::Mov32i, // imm64 hi
                    Op::Jcal,   // tool
                    Op::Jcal,   // restore
                    Op::Stg,    // relocated original
                    Op::Exit,
                ],
                "{}",
                sass::asm::disassemble(&body)
            );
            assert_eq!(
                img.sites[0],
                SiteMeta {
                    instr_idx: 2,
                    start: 2,
                    len: 8,
                    orig_pos: 7,
                    tier: img.tier,
                    calls: vec![None]
                }
            );
        }
    }

    /// Instruments a guarded relative branch with the body placed at
    /// `body_base` and returns the relocated branch plus the absolute
    /// address it transfers to.
    fn relocated_branch(body_base: u64) -> (Instruction, u64) {
        let (hal, info, instrs) = setup(
            Arch::Pascal,
            "ISETP.EQ.S32 P0, R4, RZ ;\n\
             @P0 BRA .+0x10 ;\n\
             IADD R5, R5, 0x1 ;\n\
             IADD R5, R5, 0x2 ;\n\
             EXIT ;",
        );
        let mut spec = FuncSpec::default();
        spec.insert_call(1, FIRST, IPoint::Before);
        let img = generate(
            &hal,
            &info,
            &instrs,
            &plan_of(&spec, &instrs, &tool_fns()),
            &tool_fns(),
            &fake_routines(),
            &NO_ANALYSIS,
            SavePolicy::Liveness,
            |_| Ok(body_base),
        )
        .unwrap();
        let isize = hal.instruction_size();
        let body = hal.disassemble(&img.body_code).unwrap();
        let pos = img.sites[0].start + img.sites[0].orig_pos;
        let bra = body[pos];
        assert_eq!(bra.op, Op::Bra, "relocated branch present");
        let reloc_pc = body_base + pos as u64 * isize;
        let target = (reloc_pc + isize).wrapping_add(bra.rel_target().unwrap() as u64);
        // Instruction 4's group: the one after the site's.
        assert_eq!(target, body_base + (img.sites[0].start + img.sites[0].len + 2) as u64 * isize);
        (bra, target - body_base)
    }

    #[test]
    fn relative_branches_are_relativized_when_relocated() {
        // The branch reaches instruction 4, the EXIT, in the body.
        let (bra, target) = relocated_branch(0x20_0000);
        assert_eq!(target, 8 * 8);
        // Guard preserved on the relocated instruction.
        assert!(!bra.guard.is_always());
    }

    #[test]
    fn rebased_branches_reach_the_same_target_at_any_trampoline_address() {
        // A link inside the function is relative within the body: wherever
        // the body sits, the branch reaches the same group.
        let (low, low_target) = relocated_branch(0x1000);
        let (high, high_target) = relocated_branch(0x4000_0000);
        assert_eq!((low, low_target), (high, high_target));
    }

    /// A branch out of the function keeps its absolute target from any
    /// body address, and a `JMP` to an instruction of the function is
    /// linked to that instruction's group.
    #[test]
    fn a_target_outside_the_function_keeps_its_address_and_one_inside_is_linked() {
        let (hal, info, instrs) = setup(
            Arch::Volta,
            "ISETP.EQ.S32 P0, R4, RZ ;\n@P0 BRA .+0x100 ;\n@P0 JMP `0x4030 ;\n\
             IADD R5, R5, 0x1 ;\nEXIT ;",
        );
        let mut spec = FuncSpec::default();
        spec.insert_call(3, FIRST, IPoint::Before);
        let plan = plan_of(&spec, &instrs, &tool_fns());
        for base in [0x1000u64, 0x4000_0000] {
            let (fns, routines) = (tool_fns(), fake_routines());
            let policy = SavePolicy::Liveness;
            let img = generate(
                &hal,
                &info,
                &instrs,
                &plan,
                &fns,
                &routines,
                &NO_ANALYSIS,
                policy,
                |_| Ok(base),
            )
            .unwrap();
            let body = hal.disassemble(&img.body_code).unwrap();
            let reached = (base + 2 * 16).wrapping_add(body[1].rel_target().unwrap() as u64);
            assert_eq!(reached, 0x4000 + 2 * 16 + 0x100);
            assert_eq!(body[2].operands[0], Operand::Abs(base + 3 * 16));
        }
    }

    #[test]
    fn emitted_arguments_fill_exactly_the_window_the_planner_prices() {
        // [GuardPred, Imm64]: R4, then the pair even-aligned to R6:R7. The
        // tier loop's clobber window comes from `arg_window`; the emitted
        // code must write that far and no further.
        let (hal, info, instrs) = setup(Arch::Volta, "NOP ;\nEXIT ;");
        let args = [Arg::GuardPred, Arg::Imm64(0xdead_beef_1234)];
        let mut spec = FuncSpec::default();
        spec.insert_call(0, FIRST, IPoint::Before);
        for arg in &args {
            spec.add_arg(0, *arg);
        }
        let img = generate(
            &hal,
            &info,
            &instrs,
            &plan_of(&spec, &instrs, &tool_fns()),
            &tool_fns(),
            &fake_routines(),
            &NO_ANALYSIS,
            SavePolicy::Liveness,
            |_| Ok(0x9000),
        )
        .unwrap();
        let body = hal.disassemble(&img.body_code).unwrap();
        let highest_written = body
            .iter()
            .filter(|i| i.op == Op::Mov32i)
            .flat_map(|i| i.reg_writes().to_vec())
            .map(|r| r.0)
            .max()
            .unwrap();
        assert_eq!(arg_window(&args), 8);
        assert_eq!(highest_written + 1, arg_window(&args));
    }

    #[test]
    fn remove_orig_replaces_the_instruction_with_nop() {
        let (hal, info, instrs) = setup(
            Arch::Volta,
            "PROXY R4, R5, 0x1234 ;\n\
             EXIT ;",
        );
        let mut spec = FuncSpec::default();
        spec.insert_call(0, FIRST, IPoint::Before);
        spec.remove_orig(0);
        let plan = plan_of(&spec, &instrs, &tool_fns());
        let (img, body) = naive_body(&hal, &info, &instrs, &plan, &tool_fns());
        assert!(body.iter().all(|i| i.op != Op::Proxy));
        assert_eq!(body[img.sites[0].start + img.sites[0].orig_pos].op, Op::Nop);
    }

    #[test]
    fn removed_without_injection_becomes_inplace_nop() {
        // No site: the body relocates the `BPT` as a `NOP` in its place.
        let (hal, info, instrs) = setup(Arch::Volta, "BPT ;\nEXIT ;");
        let mut spec = FuncSpec::default();
        spec.remove_orig(0);
        let plan = plan_of(&spec, &instrs, &tool_fns());
        let (img, body) = naive_body(&hal, &info, &instrs, &plan, &tool_fns());
        assert!(img.sites.is_empty());
        assert_eq!(body, [Instruction::nop(), instrs[1]]);
    }

    #[test]
    fn before_and_after_injections_bracket_the_original() {
        let (hal, info, instrs) = setup(Arch::Maxwell, "IADD R4, R4, 0x1 ;\nEXIT ;");
        let mut spec = FuncSpec::default();
        spec.insert_call(0, FIRST, IPoint::After);
        spec.insert_call(0, FIRST, IPoint::Before);
        let plan = plan_of(&spec, &instrs, &tool_fns());
        let (img, out) = naive_body(&hal, &info, &instrs, &plan, &tool_fns());
        let orig_pos = img.sites[0].start + img.sites[0].orig_pos;
        assert_eq!(img.sites[0].calls.len(), 2);
        let iadd_pos = out.iter().position(|i| i.op == Op::Iadd).unwrap();
        assert_eq!(iadd_pos, orig_pos);
        let jcal_positions: Vec<usize> =
            out.iter().enumerate().filter(|(_, i)| i.op == Op::Jcal).map(|(p, _)| p).collect();
        // 3 JCALs before the original (save/tool/restore) and 3 after.
        assert_eq!(jcal_positions.iter().filter(|&&p| p < iadd_pos).count(), 3);
        assert_eq!(jcal_positions.iter().filter(|&&p| p > iadd_pos).count(), 3);
    }

    #[test]
    fn unknown_tool_function_is_rejected() {
        // Validation moved into the planner, which codegen consumes.
        let (_hal, _info, instrs) = setup(Arch::Volta, "NOP ;\nEXIT ;");
        let mut spec = FuncSpec::default();
        spec.insert_call(0, ToolId(1), IPoint::Before);
        let e = plan::build(
            &spec,
            &lifted(&instrs, NO_ANALYSIS),
            Arch::Volta,
            &tool_fns(),
            PlanOpts::naive(),
        );
        assert!(matches!(e, Err(NvbitError::UnknownToolFunction(_))));
    }

    #[test]
    fn out_of_range_site_is_rejected() {
        let (_hal, _info, instrs) = setup(Arch::Volta, "EXIT ;");
        let mut spec = FuncSpec::default();
        spec.insert_call(5, FIRST, IPoint::Before);
        let e = plan::build(
            &spec,
            &lifted(&instrs, NO_ANALYSIS),
            Arch::Volta,
            &tool_fns(),
            PlanOpts::naive(),
        );
        assert!(matches!(e, Err(NvbitError::BadInstrIndex { .. })));
    }

    #[test]
    fn tier_selection_covers_function_tool_and_args() {
        let (hal, mut info, instrs) = setup(Arch::Volta, "NOP ;\nEXIT ;");
        info.reg_count = 40; // forces tier 64
        let mut spec = FuncSpec::default();
        spec.insert_call(0, FIRST, IPoint::Before);
        spec.add_arg(0, Arg::RegVal(70)); // forces tier 128
        let img = generate(
            &hal,
            &info,
            &instrs,
            &plan_of(&spec, &instrs, &tool_fns()),
            &tool_fns(),
            &fake_routines(),
            &NO_ANALYSIS,
            SavePolicy::Liveness,
            |_| Ok(0x9000),
        )
        .unwrap();
        assert_eq!(img.tier, 128);
        assert!(img.extra_local >= frame_bytes(128, &hal));
        // No analysis was supplied, so the fallback is recorded and the
        // conservative accounting shows no savings.
        assert!(img.fallback.is_some());
        assert_eq!(img.saved_slots, img.full_tier_slots);
    }

    #[test]
    fn liveness_shrinks_the_site_tier() {
        let (hal, mut info, instrs) = setup(
            Arch::Volta,
            "S2R R4, SR_TID.X ;\n\
             IADD R5, R4, 0x1 ;\n\
             STG [R6], R5 ;\n\
             EXIT ;",
        );
        info.reg_count = 40; // whole-function demand => tier 64
        let analysis = sass::Analysis::of(&instrs, Arch::Volta);
        let mut spec = FuncSpec::default();
        spec.insert_call(1, FIRST, IPoint::Before);
        let img = generate(
            &hal,
            &info,
            &instrs,
            &plan_of(&spec, &instrs, &tool_fns()),
            &tool_fns(),
            &fake_routines(),
            &analysis,
            SavePolicy::Liveness,
            |_| Ok(0x9000),
        )
        .unwrap();
        // Only R4/R5/R6 are live around the site: the minimum tier covers
        // them, while the baseline policy would have saved 64 slots.
        assert_eq!(img.sites.len(), 1);
        assert_eq!(img.sites[0].tier, 16);
        assert_eq!(img.tier, 16);
        assert_eq!(img.saved_slots, 16);
        assert_eq!(img.full_tier_slots, 64);
        assert!(img.fallback.is_none());
        // The site calls the tier-16 routines.
        let routines = fake_routines();
        let body = hal.disassemble(&img.body_code).unwrap();
        let save = body[img.sites[0].start];
        assert_eq!(save, Instruction::new(Op::Jcal, [Operand::Abs(routines[&16].save_addr)]));
    }

    #[test]
    fn live_registers_above_the_clobber_window_need_no_save() {
        // R200 is live across the site, but the site's call clobbers only
        // R0, the ABI argument window and the 8-register tool function —
        // R200 survives untouched, so the site keeps the minimum tier.
        let (hal, mut info, instrs) = setup(
            Arch::Volta,
            "IADD R5, R4, 0x1 ;\n\
             STG [R6], R5 ;\n\
             STG [R6], R200 ;\n\
             EXIT ;",
        );
        info.reg_count = 201; // whole-function demand => tier 255
        let analysis = sass::Analysis::of(&instrs, Arch::Volta);
        let mut spec = FuncSpec::default();
        spec.insert_call(0, FIRST, IPoint::Before);
        spec.add_arg(0, Arg::GuardPred);
        let img = generate(
            &hal,
            &info,
            &instrs,
            &plan_of(&spec, &instrs, &tool_fns()),
            &tool_fns(),
            &fake_routines(),
            &analysis,
            SavePolicy::Liveness,
            |_| Ok(0x9000),
        )
        .unwrap();
        assert_eq!(img.sites[0].tier, 16);
        assert_eq!(img.full_tier_slots, 255);
        assert!(img.fallback.is_none());

        // Reading the saved R200 back as an argument *does* demand its
        // save slot, clobber window or not.
        let mut spec2 = FuncSpec::default();
        spec2.insert_call(0, FIRST, IPoint::Before);
        spec2.add_arg(0, Arg::RegVal(200));
        let img2 = generate(
            &hal,
            &info,
            &instrs,
            &plan_of(&spec2, &instrs, &tool_fns()),
            &tool_fns(),
            &fake_routines(),
            &analysis,
            SavePolicy::Liveness,
            |_| Ok(0x9000),
        )
        .unwrap();
        assert_eq!(img2.sites[0].tier, 255);
    }

    #[test]
    fn full_tier_policy_ignores_the_analysis() {
        let (hal, mut info, instrs) = setup(Arch::Volta, "IADD R5, R4, 0x1 ;\nEXIT ;");
        info.reg_count = 40;
        let analysis = sass::Analysis::of(&instrs, Arch::Volta);
        let mut spec = FuncSpec::default();
        spec.insert_call(0, FIRST, IPoint::Before);
        let img = generate(
            &hal,
            &info,
            &instrs,
            &plan_of(&spec, &instrs, &tool_fns()),
            &tool_fns(),
            &fake_routines(),
            &analysis,
            SavePolicy::FullTier,
            |_| Ok(0x9000),
        )
        .unwrap();
        assert_eq!(img.sites[0].tier, 64);
        assert_eq!(img.saved_slots, img.full_tier_slots);
        assert!(img.fallback.is_some());
    }

    #[test]
    fn reg_api_tools_force_the_conservative_tier() {
        let (hal, mut info, instrs) = setup(Arch::Volta, "IADD R5, R4, 0x1 ;\nEXIT ;");
        info.reg_count = 40;
        let analysis = sass::Analysis::of(&instrs, Arch::Volta);
        let mut fns = tool_fns();
        let regapi = fns.insert("regapi", calling(0x8800, 8, 0, true));
        let mut spec = FuncSpec::default();
        spec.insert_call(0, regapi, IPoint::Before);
        let img = generate(
            &hal,
            &info,
            &instrs,
            &plan_of(&spec, &instrs, &fns),
            &fns,
            &fake_routines(),
            &analysis,
            SavePolicy::Liveness,
            |_| Ok(0x9000),
        )
        .unwrap();
        // The tool addresses save-area slots at run time; only the
        // whole-function tier is safe, even though liveness is tiny.
        assert_eq!(img.sites[0].tier, 64);
        // But the fallback field stays clear: the analysis itself applied.
        assert!(img.fallback.is_none());
    }

    #[test]
    fn argument_demand_extends_the_liveness_tier() {
        let (hal, info, instrs) = setup(Arch::Volta, "IADD R5, R4, 0x1 ;\nEXIT ;");
        let analysis = sass::Analysis::of(&instrs, Arch::Volta);
        let mut spec = FuncSpec::default();
        spec.insert_call(0, FIRST, IPoint::Before);
        spec.add_arg(0, Arg::RegVal(70)); // reading saved R70 needs its slot
        let img = generate(
            &hal,
            &info,
            &instrs,
            &plan_of(&spec, &instrs, &tool_fns()),
            &tool_fns(),
            &fake_routines(),
            &analysis,
            SavePolicy::Liveness,
            |_| Ok(0x9000),
        )
        .unwrap();
        assert_eq!(img.sites[0].tier, 128);
    }

    #[test]
    fn site_meta_locates_the_relocated_original() {
        let (hal, info, instrs) = setup(
            Arch::Volta,
            "IADD R5, R4, 0x1 ;\n\
             STG [R6], R5 ;\n\
             EXIT ;",
        );
        let analysis = sass::Analysis::of(&instrs, Arch::Volta);
        let mut spec = FuncSpec::default();
        spec.insert_call(0, FIRST, IPoint::Before);
        spec.insert_call(1, FIRST, IPoint::After);
        let img = generate(
            &hal,
            &info,
            &instrs,
            &plan_of(&spec, &instrs, &tool_fns()),
            &tool_fns(),
            &fake_routines(),
            &analysis,
            SavePolicy::Liveness,
            |_| Ok(0x9000),
        )
        .unwrap();
        let body = hal.disassemble(&img.body_code).unwrap();
        assert_eq!(img.sites.len(), 2);
        for site in &img.sites {
            let reloc = &body[site.start + site.orig_pos];
            assert_eq!(reloc.op, instrs[site.instr_idx].op);
            // Each group falls through into the next instruction's.
            assert_eq!(body[site.start + site.len], instrs[site.instr_idx + 1]);
        }
    }

    #[test]
    fn too_many_arguments_error() {
        let (hal, info, instrs) = setup(Arch::Volta, "NOP ;\nEXIT ;");
        let mut spec = FuncSpec::default();
        spec.insert_call(0, FIRST, IPoint::Before);
        for _ in 0..7 {
            spec.add_arg(0, Arg::Imm64(1)); // 14 slots > 12 available
        }
        let e = generate(
            &hal,
            &info,
            &instrs,
            &plan_of(&spec, &instrs, &tool_fns()),
            &tool_fns(),
            &fake_routines(),
            &NO_ANALYSIS,
            SavePolicy::Liveness,
            |_| Ok(0x9000),
        );
        assert!(matches!(e, Err(NvbitError::BadRequest(_))));
    }

    /// A leaf tool body: bump the first argument register and return.
    fn leaf_fn(hal: &Hal, reg_count: u32) -> ToolFn {
        let code = hal.assemble_text("IADD R4, R4, 0x1 ;\nRET ;").unwrap();
        let body = hal.disassemble(&code).unwrap();
        ToolFn::with_body(0x8000, reg_count, 0, false, body, hal.arch())
    }

    /// [`leaf_fn`] loaded as `leaf`.
    fn leaf_fns(hal: &Hal, reg_count: u32) -> ToolFns {
        ToolFns::from([("leaf", leaf_fn(hal, reg_count))])
    }

    #[test]
    fn leaf_classification() {
        let hal = Hal::new(Arch::Volta);
        let arch = hal.arch();
        let dis = |t: &str| hal.disassemble(&hal.assemble_text(t).unwrap()).unwrap();

        let leaf = dis("IADD R4, R4, 0x1 ;\nRET ;");
        assert!(classify_body(&leaf, 8, false, arch));

        // Calls, guarded trailing RET, the register device API, stack-pointer
        // writes and oversized bodies all disqualify.
        let calls = dis("JCAL `0x100 ;\nRET ;");
        assert!(!classify_body(&calls, 8, false, arch));
        let guarded = dis("ISETP.EQ.S32 P1, R4, RZ ;\n@P1 RET ;");
        assert!(!classify_body(&guarded, 8, false, arch));
        assert!(!classify_body(&leaf, 8, true, arch), "reg-api");
        let frame = dis("IADD R1, R1, 0x8 ;\nRET ;");
        assert!(!classify_body(&frame, 8, false, arch), "stack pointer");
        assert!(!classify_body(&leaf, INLINE_MAX_REGS + 1, false, arch), "regs");
        let long: Vec<Instruction> = std::iter::repeat_with(Instruction::nop)
            .take(INLINE_MAX_INSTRS)
            .chain(dis("RET ;"))
            .collect();
        assert!(!classify_body(&long, 8, false, arch), "size");

        // An early guarded branch to a merge label (single trailing RET —
        // what the PTX pipeline produces) classifies as a guarded diamond
        // and stays spliceable.
        let merged = dis("ISETP.EQ.S32 P1, R4, RZ ;\n\
             @P1 BRA done ;\n\
             IADD R5, R4, 0x1 ;\n\
             done:\n\
             RET ;");
        assert!(classify_body(&merged, 8, false, arch));

        // A backward (loop) branch was loosely accepted by the old scan;
        // the shape classifier rejects it.
        let looped = dis("top:\nIADD R4, R4, 0x1 ;\n@P1 BRA top ;\nRET ;");
        assert!(!classify_body(&looped, 8, false, arch), "loop");
    }

    /// The compiled shape of `nvbit_count_pmult(pred, ctr, mult)`: a guarded
    /// diamond over R4..R9 and P0.
    const PMULT: &str = "\
        MOV R5, R8 ;
        ISETP.EQ.U32 P0, R4, 0x0 ;
        SSY end ;
    @P0 BRA join ;
        MOV R8, R5 ;
        MOV R9, RZ ;
        ATOM.ADD.U64 R4, [R6], R8, RZ ;
        BRA join ;
    join:
        SYNC ;
    end:
        RET ;
    ";

    fn tool(hal: &Hal, name: &str, text: &str) -> ToolFns {
        let body = hal.disassemble(&hal.assemble_text(text).unwrap()).unwrap();
        let regs = body.iter().filter_map(Instruction::max_reg).max().map_or(4, |r| r as u32 + 1);
        assert!(classify_body(&body, regs, false, hal.arch()), "{name} must be spliceable");
        ToolFns::from([(name, ToolFn::with_body(0x8000, regs, 0, false, body, hal.arch()))])
    }

    /// The rung below effect lowering: every call out of line.
    const REGION: PlanOpts = PlanOpts { level: PlanLevel::Region };

    /// `spec` planned under `opts` over a 12-register kernel of either
    /// encoding family and generated under the liveness policy: the image
    /// and its body.
    fn built(
        arch: Arch,
        opts: PlanOpts,
        text: &str,
        fns: &ToolFns,
        spec: &FuncSpec,
    ) -> (InstrumentedImage, Vec<Instruction>) {
        let (hal, info, instrs) = setup(arch, text);
        let analysis = sass::Analysis::of(&instrs, arch);
        let plan = plan::build(spec, &lifted(&instrs, analysis.clone()), arch, fns, opts).unwrap();
        let img = generate(
            &hal,
            &info,
            &instrs,
            &plan,
            fns,
            &fake_routines(),
            &analysis,
            SavePolicy::Liveness,
            |_| Ok(0x9000),
        )
        .unwrap();
        let body = hal.disassemble(&img.body_code).unwrap();
        (img, body)
    }

    fn text_of(instrs: &[Instruction]) -> String {
        sass::asm::disassemble(instrs)
    }

    #[test]
    fn a_before_call_does_not_pay_for_what_its_instruction_defines() {
        // The site's instruction defines R20, dead before it and live after:
        // queried by injection point, a Before call of a tool that clobbers
        // 40 registers saves the first tier and an After call the one
        // covering R20.
        let fns = ToolFns::from([("wide", calling(0x8000, 40, 0, false))]);
        let app = "MOV R20, R2 ;\nSTG [R6], R20 ;\nEXIT ;";
        for (ipoint, tier) in [(IPoint::Before, 16), (IPoint::After, 32)] {
            let mut spec = FuncSpec::default();
            spec.insert_call(0, FIRST, ipoint);
            let (img, _) = built(Arch::Volta, REGION, app, &fns, &spec);
            assert_eq!((img.tier, img.saved_slots), (tier, u64::from(tier)), "{ipoint:?}");
        }
    }

    // ----- The verifier on mutated routine brackets ------------------------

    use crate::verify::{DiagKind, Request};

    /// The kinds `verify::verify` reports for `img` with `image` and
    /// `body` assembled as its code (`None` when they do not encode), the
    /// original's bytes `code` at 0x4000, against `spec` planned under
    /// `opts` over their decode and analysis, with `fns` and the fake
    /// routines.
    fn verdict(
        hal: &Hal,
        code: &[u8],
        img: &InstrumentedImage,
        (image, body): (&[Instruction], &[Instruction]),
        (spec, fns, opts): (&FuncSpec, &ToolFns, PlanOpts),
    ) -> Option<Vec<DiagKind>> {
        let (instrumented, body_code) = (hal.assemble(image).ok()?, hal.assemble(body).ok()?);
        let img = InstrumentedImage { instrumented, body_code, ..img.clone() };
        // Planned and verified over the lifted views, as the core does.
        let original = crate::lift::lift(hal, &fake_info(0x4000, 12), code).unwrap();
        let plan = plan::build(spec, &original, hal.arch(), fns, opts).unwrap();
        let routines = fake_routines();
        let req = Request { tool_fns: fns, routines: &routines };
        let diags = crate::verify::verify(hal, 0x4000, &original, &plan, &img, &req).unwrap();
        Some(diags.iter().map(|d| d.kind).collect())
    }

    /// The guarded store of [`Accepted::APP`] counted through `pmult` at
    /// the `Region` rung, and the request it was built for. Body positions:
    /// 0 the relocated `ISETP`, 1 the save call, 2 the frame pointer, 3–9
    /// the arguments (3–6 the guard predicate, 7–8 the counter's address, 9
    /// the multiplicity), 10 the tool call, 11 the restore call, 12 the
    /// relocated store. R20 is live across the site, above the tier.
    struct Accepted {
        code: Vec<u8>,
        img: InstrumentedImage,
        body: Vec<Instruction>,
        spec: FuncSpec,
        fns: ToolFns,
    }

    impl Accepted {
        const APP: &str = "\
            ISETP.EQ.S32 P0, R2, RZ ;
        @P0 STG [R6], R8 ;
            STG [R2], R20 ;
            EXIT ;
        ";

        fn new() -> Accepted {
            let hal = Hal::new(Arch::Volta);
            let fns = tool(&hal, "pmult", PMULT);
            let mut spec = FuncSpec::default();
            spec.insert_call(1, FIRST, IPoint::Before);
            spec.add_arg(1, Arg::GuardPred);
            spec.add_arg(1, Arg::Imm64(0xdead_0000_beef));
            spec.add_arg(1, Arg::Imm32(3));
            let (img, body) = built(Arch::Volta, REGION, Self::APP, &fns, &spec);
            assert_eq!(img.sites[0].tier, 16);
            assert_eq!(body[10].operands[0], Operand::Abs(0x8000));
            Accepted { code: hal.assemble_text(Self::APP).unwrap(), img, body, spec, fns }
        }

        /// The diagnostic kinds the verifier reports, the image as generated
        /// and the body as it stands.
        fn verify(&self) -> Vec<DiagKind> {
            let hal = Hal::new(Arch::Volta);
            let image = hal.disassemble(&self.img.instrumented).unwrap();
            let request = (&self.spec, &self.fns, REGION);
            verdict(&hal, &self.code, &self.img, (&image, &self.body), request).unwrap()
        }
    }

    /// A site at a call of a device function relocates the call into the
    /// body. Outside the image and the body the one target it
    /// may name is the callee's entry, the address the original names: any
    /// other word of the callee is a `BranchTarget` (and, being no longer
    /// the original, a `LinkMismatch`).
    #[test]
    fn a_relocated_call_retargeted_into_its_callee_is_rejected() {
        let hal = Hal::new(Arch::Volta);
        let fns = tool(&hal, "pmult", PMULT);
        let app = "JCAL `0x6000 ;\nSTG [R2], R9 ;\nEXIT ;";
        let mut spec = FuncSpec::default();
        spec.insert_call(0, FIRST, IPoint::Before);
        spec.add_arg(0, Arg::Imm32(1));
        spec.add_arg(0, Arg::Imm64(0xdead_0000_beef));
        spec.add_arg(0, Arg::Imm32(1));
        let (img, mut body) = built(Arch::Volta, REGION, app, &fns, &spec);
        let code = hal.assemble_text(app).unwrap();
        let image = hal.disassemble(&img.instrumented).unwrap();
        let request = (&spec, &fns, REGION);
        assert_eq!(verdict(&hal, &code, &img, (&image, &body), request), Some(vec![]));
        let call = body.iter().position(|i| i.operands.first() == Some(&Operand::Abs(0x6000)));
        let call = call.unwrap();
        body[call].operands[0] = Operand::Abs(0x6010);
        let kinds = verdict(&hal, &code, &img, (&image, &body), request);
        assert_eq!(kinds, Some(vec![DiagKind::BranchTarget, DiagKind::LinkMismatch]));
    }

    #[test]
    fn a_live_register_written_but_not_saved_is_rejected() {
        assert_eq!(Accepted::new().verify(), vec![]);
        // The multiplicity lands in R20, live and above the tier.
        let mut img = Accepted::new();
        assert_eq!(img.body[9].op, Op::Mov32i);
        img.body[9].operands[0] = Operand::Reg(Reg(20));
        assert!(img.verify().contains(&DiagKind::PressureExceeded));
    }

    #[test]
    fn a_reload_missing_on_the_taken_arm_is_rejected() {
        // A guarded branch over the tool and restore calls: lanes taking it
        // reach the relocated store with the frame still open, the saved
        // registers not reloaded.
        let mut img = Accepted::new();
        let skip = Instruction::new(Op::Bra, [Operand::Rel(2 * 16)])
            .with_guard(sass::Guard { pred: Pred(0), negated: false });
        img.body[9] = skip;
        assert!(img.verify().contains(&DiagKind::UnbalancedFrame));
    }

    #[test]
    fn a_frame_left_open_is_rejected() {
        let mut img = Accepted::new();
        img.body[11] = Instruction::nop(); // the restore call
        assert!(img.verify().contains(&DiagKind::UnbalancedFrame));
    }

    #[test]
    fn register_arguments_read_in_place_or_from_the_frame() {
        // Register arguments load the application's values from their slots
        // of the open frame; the stack pointer, which the save routine does
        // not store, is rebuilt in place from R1 and the frame size.
        for arch in [Arch::Kepler, Arch::Volta] {
            let hal = Hal::new(arch);
            let fns = tool(&hal, "pair", "IADD R8, R4, R6 ;\nRET ;");
            let app = "IADD R10, R4, R5 ;\nSTG [R6], R8 ;\nSTG [R2], R10 ;\nEXIT ;";
            let mut spec = FuncSpec::default();
            spec.insert_call(1, FIRST, IPoint::Before);
            spec.add_arg(1, Arg::RegVal(2));
            spec.add_arg(1, Arg::RegVal64(6));
            spec.add_arg(1, Arg::RegVal(1));
            let (img, body) = built(arch, PlanOpts::default(), app, &fns, &spec);
            let frame = frame_bytes(16, &hal);
            let expect = sass::asm::assemble_arch(
                &format!(
                    "JCAL `0x110000 ;\nMOV R0, R1 ;\nLDL R4, [R1+0x8] ;\nLDL R6, [R1+0x18] ;\n\
                     LDL R7, [R1+0x1c] ;\nIADD R8, R1, {frame:#x} ;\nJCAL `0x8000 ;\n\
                     JCAL `0x210000 ;"
                ),
                arch,
            )
            .unwrap();
            assert_eq!(text_of(&body[1..=expect.len()]), text_of(&expect));
            assert_eq!((img.saved_slots, img.plan.inline_declined), (16, 1));
        }
    }

    #[test]
    fn a_live_predicate_with_no_free_predicate_keeps_the_save_routines() {
        // All seven predicates are live across the site and the spliceable
        // body writes P0. It has no effect to lower, so at the top rung it
        // is called out of line behind the save routines, which save the
        // predicate file, with the first tier.
        for arch in [Arch::Pascal, Arch::Volta] {
            let hal = Hal::new(arch);
            let fns = tool(&hal, "setp", "ISETP.EQ.U32 P0, R4, 0x0 ;\nRET ;");
            let guarded: String =
                (0..7).map(|p| format!("@P{p} STG [R2], R{} ;\n", 6 + p)).collect();
            let app = format!("MOV R6, R2 ;\n{guarded}EXIT ;");
            let mut spec = FuncSpec::default();
            spec.insert_call(0, FIRST, IPoint::Before);
            spec.add_arg(0, Arg::Imm32(0));
            let opts = PlanOpts::default();
            let (img, body) = built(arch, opts, &app, &fns, &spec);
            let ops: Vec<Op> = body.iter().map(|i| i.op).collect();
            let expect = [Op::Jcal, Op::Mov, Op::Mov32i, Op::Jcal, Op::Jcal, Op::Mov];
            assert_eq!((&ops[..6], ops.len()), (&expect[..], 6 + 8), "{}", text_of(&body));
            assert_eq!(img.sites[0].calls, [None]);
            assert_eq!((img.tier, img.saved_slots), (16, 16));

            let code = hal.assemble_text(&app).unwrap();
            let image = hal.disassemble(&img.instrumented).unwrap();
            let request = (&spec, &fns, opts);
            let kinds = verdict(&hal, &code, &img, (&image, &body), request).unwrap();
            assert_eq!(kinds, vec![]);
            // Behind nothing at all, the tool runs on unsaved state.
            let mut bare = body.clone();
            (bare[0], bare[4]) = (Instruction::nop(), Instruction::nop());
            let kinds = verdict(&hal, &code, &img, (&image, &bare), request).unwrap();
            assert!(kinds.contains(&DiagKind::ReadBeforeSave), "{kinds:?}");
        }
    }

    #[test]
    fn counters_in_a_function_that_returns_are_called_and_verify_clean() {
        // A device function leaves by `RET`, so the top rung lowers none of
        // its counters: each merged call runs out of line, behind the save
        // routines, and the image verifies clean.
        for arch in [Arch::Pascal, Arch::Volta] {
            let hal = Hal::new(arch);
            let fns = tool(&hal, "pmult", PMULT);
            let app = "ISETP.GE.S32 P0, R2, 0x10 ;\n@P0 RET ;\nIADD R8, R8, 0x1 ;\n\
                       STG [R6], R8 ;\nRET ;";
            let (_, _, original) = setup(arch, app);
            let mut spec = FuncSpec::default();
            for (idx, ins) in original.iter().enumerate() {
                spec.insert_call(idx, FIRST, IPoint::Before);
                let pred = if ins.guard.is_always() { Arg::Imm32(1) } else { Arg::GuardPred };
                spec.add_arg(idx, pred);
                spec.add_arg(idx, Arg::Imm64(0xdead_0000_beef));
                spec.set_coalesce(idx);
            }
            let opts = PlanOpts::default();
            let (img, body) = built(arch, opts, app, &fns, &spec);
            let s = img.plan;
            assert_eq!((s.promoted_calls, s.inline_declined, s.emitted_calls), (0, 3, 3));
            assert!(img.sites.iter().all(|site| site.calls.iter().all(Option::is_none)));
            assert_eq!((img.tier, img.saved_slots), (16, 48));
            let code = hal.assemble(&original).unwrap();
            let image = hal.disassemble(&img.instrumented).unwrap();
            let kinds = verdict(&hal, &code, &img, (&image, &body), (&spec, &fns, opts));
            assert_eq!(kinds, Some(vec![]), "{arch:?}");
        }
    }

    #[test]
    fn coalesced_site_materializes_the_multiplicity_argument() {
        let (hal, info, instrs) = setup(
            Arch::Volta,
            "IADD R4, R4, 0x1 ;\n\
             IADD R5, R5, 0x1 ;\n\
             IADD R6, R6, 0x1 ;\n\
             EXIT ;",
        );
        let analysis = sass::Analysis::of(&instrs, Arch::Volta);
        let mut spec = FuncSpec::default();
        for idx in 0..instrs.len() {
            spec.insert_call(idx, FIRST, IPoint::Before);
            spec.add_arg(idx, Arg::Imm64(0xbeef));
            spec.set_coalesce(idx);
        }
        let plan = plan::build(
            &spec,
            &lifted(&instrs, analysis.clone()),
            Arch::Volta,
            &tool_fns(),
            PlanOpts { level: PlanLevel::Block },
        )
        .unwrap();
        let img = generate(
            &hal,
            &info,
            &instrs,
            &plan,
            &tool_fns(),
            &fake_routines(),
            &analysis,
            SavePolicy::Liveness,
            |_| Ok(0x9000),
        )
        .unwrap();
        // One block → one site, at the block head.
        assert_eq!(img.sites.len(), 1);
        assert_eq!(img.sites[0].instr_idx, 0);
        assert_eq!(img.sites[0].calls, [None], "one call, out of line");
        // Only the entry is patched; the merged-away sites run relocated.
        let patched = hal.disassemble(&img.instrumented).unwrap();
        assert_eq!(patched[0].op, Op::Jmp);
        assert_eq!(patched[1], instrs[1]);
        assert_eq!(patched[2], instrs[2]);
        // The trailing Imm32 argument lands in the slot after the Imm64
        // pair (R6) with the multiplicity value.
        let body = hal.disassemble(&img.body_code).unwrap();
        let mult = body
            .iter()
            .find(|i| i.op == Op::Mov32i && i.operands.first() == Some(&Operand::Reg(Reg(6))))
            .expect("multiplicity materialization");
        assert_eq!(mult.operands[1], Operand::Imm(4));
        assert_eq!(img.plan.coalesced_away, 3);
    }

    #[test]
    fn write_ceiling_shrinks_the_clobber_window() {
        // The leaf body only writes R4; a high-register value live across
        // the site needs no save slot even though the tool *uses* 100
        // registers by its own accounting.
        let (hal, mut info, instrs) = setup(
            Arch::Volta,
            "IADD R5, R4, 0x1 ;\n\
             STG [R6], R90 ;\n\
             EXIT ;",
        );
        info.reg_count = 91;
        let analysis = sass::Analysis::of(&instrs, Arch::Volta);
        let mut spec = FuncSpec::default();
        spec.insert_call(0, FIRST, IPoint::Before);
        let run = |fns: &ToolFns| {
            let plan = plan_of(&spec, &instrs, fns);
            generate(
                &hal,
                &info,
                &instrs,
                &plan,
                fns,
                &fake_routines(),
                &analysis,
                SavePolicy::Liveness,
                |_| Ok(0x9000),
            )
            .unwrap()
        };
        let with_body = run(&leaf_fns(&hal, 100));
        assert_eq!(with_body.sites[0].tier, 16);
        let called = ToolFns::from([("leaf", calling(0x8000, 100, 0, false))]);
        let without = run(&called);
        assert_eq!(without.sites[0].tier, 128, "R90 inside the 100-register clobber window");
    }

    // ----- Effect lowering --------------------------------------------------

    /// The compiled shape of `nvbit_trace_chan(pred, base, off)`: a push of
    /// R6:R7 plus R8, sign-extended, inside a guarded diamond over R4..R9.
    const TRACE: &str = "\
        MOV R5, R8 ;
        ISETP.EQ.U32 P0, R4, 0x0 ;
        SSY end ;
    @P0 BRA join ;
        MOV R8, R5 ;
        SHR.S32 R9, R5, 0x1f ;
        IADD.U64 R4, R6, R8 ;
        CHAN.64 R4 ;
        BRA join ;
    join:
        SYNC ;
    end:
        RET ;
    ";

    #[test]
    fn the_counting_bodies_classify_by_their_effect() {
        let hal = Hal::new(Arch::Volta);
        let effect = |text: &str| {
            let body = hal.disassemble(&hal.assemble_text(text).unwrap()).unwrap();
            ToolFn::with_body(0x8000, 10, 0, false, body, hal.arch()).effect
        };
        let pred_mult = |value| Some(Effect::Counter { pred: Some(4), addr: 6, value });
        assert_eq!(effect(PMULT), pred_mult(Operand::Reg(Reg(8))));
        // Listing 1's body adds a constant; an unguarded multiplicity body
        // tests no predicate and finds its address and value through moves.
        let one = PMULT.replace("MOV R8, R5 ;", "MOV32I R8, 0x1 ;");
        assert_eq!(effect(&one), pred_mult(Operand::Imm(1)));
        let mult = "MOV R7, R5 ;\nMOV R2, R4 ;\nMOV R4, R6 ;\nMOV R6, R2 ;\nMOV R8, R4 ;\n\
                    MOV R9, RZ ;\nATOM.ADD.U64 R4, [R6], R8, RZ ;\nRET ;";
        let value = Operand::Reg(Reg(6));
        assert_eq!(effect(mult), Some(Effect::Counter { pred: None, addr: 4, value }));
        // `nvbit_trace_chan` pushes its base plus its offset.
        assert_eq!(effect(TRACE), Some(Effect::Push { pred: Some(4), base: 6, off: 8 }));
        // None: a computed value (`nvbit_count_wide`), a second effect, a
        // used result, a 32-bit add, a count past the join; a push of a
        // zero-extended offset, of the base alone, of a special register.
        for not in [
            PMULT.replace("MOV R8, R5 ;", "SHL R8, R5, 0x1 ;"),
            PMULT.replace("MOV R9, RZ ;", "MOV R9, RZ ;\nSTG [R6], R5 ;"),
            PMULT.replace("R8, RZ ;", "R8, RZ ;\nMOV R5, R4 ;"),
            PMULT.replace("ATOM.ADD.U64", "ATOM.ADD.U32"),
            "MOV R5, R8 ;\nISETP.EQ.U32 P0, R4, 0x0 ;\n@P0 BRA join ;\nMOV R8, R5 ;\njoin:\n\
             MOV R9, RZ ;\nATOM.ADD.U64 R4, [R6], R8, RZ ;\nRET ;"
                .to_string(),
            TRACE.replace("SHR.S32 R9, R5, 0x1f ;", "MOV R9, RZ ;"),
            TRACE.replace("CHAN.64 R4 ;", "CHAN.64 R6 ;"),
            TRACE.replace("CHAN.64 R4 ;", "S2R R4, SR_TID.X ;\nCHAN.64 R4 ;"),
        ] {
            assert_eq!(effect(&not), None, "{not}");
        }
    }

    /// A guarded load at a negative offset and a store, each traced the way
    /// `MemTrace` does it, and instruction 2 through the leaf, which has no
    /// effect to lower, planned at the top rung.
    fn pushed_image(arch: Arch) -> Pristine {
        let hal = Hal::new(arch);
        let app = "ISETP.GE.S32 P0, R2, 0x10 ;\n@P0 LDG R8, [R6-0x40] ;\nIADD R8, R8, 0x1 ;\n\
                   STG [R6], R8 ;\nEXIT ;";
        let mut fns = tool(&hal, "trace", TRACE);
        let leaf = fns.insert("leaf", leaf_fn(&hal, 8));
        let (_, _, original) = setup(arch, app);
        let mut spec = FuncSpec::default();
        for (idx, off) in [(1, -0x40), (3, 0)] {
            spec.insert_call(idx, FIRST, IPoint::Before);
            spec.add_arg(idx, Arg::GuardPred);
            spec.add_arg(idx, Arg::RegVal64(6));
            spec.add_arg(idx, Arg::Imm32(off));
        }
        spec.insert_call(2, leaf, IPoint::Before);
        let opts = PlanOpts::default();
        let (img, body) = built(arch, opts, app, &fns, &spec);
        let (code, image) = (hal.assemble(&original).unwrap(), hal.disassemble(&img.instrumented));
        Pristine { code, image: image.unwrap(), original, img, body, spec, fns, opts }
    }

    #[test]
    fn lowered_pushes_encode_and_verify_on_both_families() {
        for arch in [Arch::Pascal, Arch::Volta] {
            let (hal, p) = (Hal::new(arch), pushed_image(arch));
            // Each push adds into the scratch pair past the ABI window and
            // pushes it under the site's guard: no argument, no save. The
            // leaf is called out of line. Every instruction is relocated,
            // each site's code in line before it.
            let body = format!(
                "ISETP.GE.S32 P0, R2, 0x10 ;\n\
                 IADD.U64 R16, R6, -0x40 ;\n@P0 CHAN.64 R16 ;\n@P0 LDG R8, [R6-0x40] ;\n\
                 {CALLED_LEAF}IADD R8, R8, 0x1 ;\n\
                 IADD.U64 R16, R6, 0x0 ;\nCHAN.64 R16 ;\nSTG [R6], R8 ;\nEXIT ;"
            );
            let expect = sass::asm::assemble_arch(&body, arch).unwrap();
            assert_eq!(p.body, expect, "{arch:?}:\n{}", text_of(&p.body));
            let s = p.img.plan;
            assert_eq!((s.promoted_calls, s.promoted_pairs, s.inline_declined), (2, 0, 1));
            assert_eq!((p.img.saved_slots, p.img.tier), (16, 16));
            assert_eq!(p.img.sites[0].calls, [Some((0, 2))]);
            assert_eq!(p.img.sites[1].calls, [None]);
            let kinds = verdict(&hal, &p.code, &p.img, (&p.image, &p.body), p.request());
            assert_eq!(kinds, Some(vec![]), "{arch:?}");
        }
    }

    /// An out-of-line call of the leaf, at a tier-16 site of a
    /// [`fake_routines`] image.
    const CALLED_LEAF: &str = "JCAL `0x110000 ;\nMOV R0, R1 ;\nJCAL `0x8000 ;\nJCAL `0x210000 ;\n";

    /// The kinds the verifier reports for the Volta [`pushed_image`] once
    /// `corrupt` has changed its body, given each site's start by
    /// instruction.
    fn corrupted_push(
        corrupt: impl FnOnce(&mut [Instruction], &dyn Fn(usize) -> usize),
    ) -> Vec<DiagKind> {
        corrupted(pushed_image(Arch::Volta), corrupt)
    }

    #[test]
    fn a_dropped_push_is_rejected() {
        assert_eq!(corrupted_push(|_, _| {}), vec![]);
        // The guarded load's site: the add, `@P0 CHAN.64`, the load.
        let kinds = corrupted_push(|t, site| t[site(1) + 1] = Instruction::nop());
        assert_eq!(kinds, vec![DiagKind::PlanMismatch]);
    }

    #[test]
    fn a_push_under_another_guard_than_its_sites_is_rejected() {
        let kinds = corrupted_push(|t, site| t[site(1) + 1].guard.negated = true);
        assert_eq!(kinds, vec![DiagKind::PlanMismatch]);
        let kinds = corrupted_push(|t, site| t[site(1) + 1].guard = sass::Guard::ALWAYS);
        assert_eq!(kinds, vec![DiagKind::PlanMismatch]);
    }

    #[test]
    fn a_push_address_retargeted_onto_an_application_register_is_rejected() {
        // The add now writes R6:R7, the base the load and the store read.
        let onto_base = |r: Reg| if r == Reg(16) { Reg(6) } else { r };
        let kinds = corrupted_push(|t, site| t[site(1)].map_regs(onto_base, |p| p));
        assert!(kinds.contains(&DiagKind::PlanMismatch), "{kinds:?}");
    }

    #[test]
    fn a_push_offset_changed_is_rejected() {
        let kinds = corrupted_push(|t, site| t[site(1)].operands[2] = Operand::Imm(-0x3c));
        assert_eq!(kinds, vec![DiagKind::PlanMismatch]);
    }

    /// A guarded `EXIT`, then a block ending in the `EXIT`, every instruction
    /// counted the way `CoalescedInstrCount::executed` does it, and
    /// instruction 2 also through the leaf, planned at the top rung.
    fn promoted_image(arch: Arch) -> Pristine {
        counted_image(arch, true)
    }

    /// [`promoted_image`], its leaf call at instruction 2 only if `leaf`.
    fn counted_image(arch: Arch, with_leaf: bool) -> Pristine {
        let hal = Hal::new(arch);
        let app =
            "ISETP.GE.S32 P0, R2, 0x10 ;\n@P0 EXIT ;\nIADD R8, R8, 0x1 ;\nSTG [R6], R8 ;\nEXIT ;";
        let mut fns = tool(&hal, "pmult", PMULT);
        let leaf = fns.insert("leaf", leaf_fn(&hal, 8));
        let (_, _, original) = setup(arch, app);
        let mut spec = FuncSpec::default();
        for (idx, ins) in original.iter().enumerate() {
            spec.insert_call(idx, FIRST, IPoint::Before);
            spec.add_arg(idx, if ins.guard.is_always() { Arg::Imm32(1) } else { Arg::GuardPred });
            spec.add_arg(idx, Arg::Imm64(0xdead_0000_beef));
            spec.set_coalesce(idx);
        }
        if with_leaf {
            spec.insert_call(2, leaf, IPoint::Before);
        }
        let opts = PlanOpts::default();
        let (img, body) = built(arch, opts, app, &fns, &spec);
        let (code, image) = (hal.assemble(&original).unwrap(), hal.disassemble(&img.instrumented));
        Pristine { code, image: image.unwrap(), original, img, body, spec, fns, opts }
    }

    #[test]
    fn promoted_counters_encode_and_verify_on_both_families() {
        for arch in [Arch::Pascal, Arch::Volta] {
            let (hal, p) = (Hal::new(arch), promoted_image(arch));
            let flush = |guard| {
                format!(
                    "MOV32I R16, 0xbeef ;\nMOV32I R17, 0xdead ;\n{guard} RED.ADD.U64 [R16], R18 ;"
                )
            };
            // The zeroing, then each site's increment: the pair sits past
            // the ABI window, the scratch pair below it. The store, merged
            // into instruction 2's site, runs relocated.
            let body = [
                "IADD.U64 R18, RZ, 0x0 ;\nIADD.U64 R18, R18, 0x1 ;\nISETP.GE.S32 P0, R2, 0x10 ;"
                    .to_string(),
                format!("@P0 IADD.U64 R18, R18, 0x1 ;\n{}\n@P0 EXIT ;", flush("@P0")),
                format!(
                    "IADD.U64 R18, R18, 0x3 ;\n{CALLED_LEAF}IADD R8, R8, 0x1 ;\nSTG [R6], R8 ;"
                ),
                format!("{}\nEXIT ;", flush("")),
            ];
            let expect = sass::asm::assemble_arch(&body.join("\n"), arch).unwrap();
            assert_eq!(p.body, expect, "{arch:?}:\n{}", text_of(&p.body));
            let s = p.img.plan;
            assert_eq!((s.promoted_calls, s.promoted_pairs, s.inline_declined), (3, 1, 1));
            assert_eq!(p.img.sites[2].calls, [Some((0, 1)), None]);
            let kinds = verdict(&hal, &p.code, &p.img, (&p.image, &p.body), p.request());
            assert_eq!(kinds, Some(vec![]), "{arch:?}");
        }
    }

    /// The kinds the verifier reports for the Volta [`promoted_image`] once
    /// `corrupt` has changed its body, given each site's start by
    /// instruction.
    fn corrupted_promotion(
        corrupt: impl FnOnce(&mut [Instruction], &dyn Fn(usize) -> usize),
    ) -> Vec<DiagKind> {
        corrupted(promoted_image(Arch::Volta), corrupt)
    }

    /// The kinds the verifier reports for `p` once `corrupt` has changed its
    /// body.
    fn corrupted(
        mut p: Pristine,
        corrupt: impl FnOnce(&mut [Instruction], &dyn Fn(usize) -> usize),
    ) -> Vec<DiagKind> {
        let sites = p.img.sites.clone();
        let start = |idx: usize| sites.iter().find(|s| s.instr_idx == idx).unwrap().start;
        corrupt(&mut p.body, &start);
        verdict(&Hal::new(Arch::Volta), &p.code, &p.img, (&p.image, &p.body), p.request()).unwrap()
    }

    #[test]
    fn a_dropped_flush_is_rejected() {
        assert_eq!(corrupted_promotion(|_, _| {}), vec![]);
        // The last EXIT's site: two MOV32Is, the RED, the EXIT.
        let kinds = corrupted_promotion(|t, site| t[site(4) + 2] = Instruction::nop());
        assert_eq!(kinds, vec![DiagKind::PromotionMismatch]);
    }

    #[test]
    fn a_flush_under_another_guard_than_its_exits_is_rejected() {
        // The guarded EXIT's site: the increment, two MOV32Is, `@P0 RED`.
        let kinds = corrupted_promotion(|t, site| t[site(1) + 3].guard.negated = true);
        assert_eq!(kinds, vec![DiagKind::PromotionMismatch]);
        let kinds = corrupted_promotion(|t, site| t[site(1) + 3].guard = sass::Guard::ALWAYS);
        assert_eq!(kinds, vec![DiagKind::PromotionMismatch]);
    }

    #[test]
    fn a_dropped_zeroing_is_rejected() {
        let kinds = corrupted_promotion(|t, site| t[site(0)] = Instruction::nop());
        assert_eq!(kinds, vec![DiagKind::PromotionMismatch]);
    }

    #[test]
    fn an_increment_retargeted_onto_an_application_register_is_rejected() {
        // Instruction 2's increment now adds into R8:R9, which the
        // application reads right after.
        let kinds = corrupted_promotion(|t, site| t[site(2)].map_regs(|_| Reg(8), |p| p));
        assert!(kinds.contains(&DiagKind::PlanMismatch), "{kinds:?}");
    }

    /// The verifier solves liveness only for a site whose writes meet what
    /// the body reads: none of the sites of the promoted image without its
    /// leaf call, whose lowered code writes the reserved pairs only.
    /// Renamed onto R8:R9, which the body reads, instruction 2's increment
    /// meets the bound, the solve runs, and R8 — live there — is reported
    /// written and not saved.
    #[test]
    fn a_lowered_pair_renamed_onto_a_register_the_body_reads_is_solved_and_rejected() {
        fn solves(
            corrupt: impl FnOnce(&mut [Instruction], &dyn Fn(usize) -> usize),
        ) -> (u64, Vec<DiagKind>) {
            let (p, recorder) = (counted_image(Arch::Volta, false), common::obs::Recorder::new());
            recorder.set_enabled(true);
            let kinds = {
                let _scope = recorder.enter();
                corrupted(p, corrupt)
            };
            (recorder.report().counter_sum("sass.liveness"), kinds)
        }
        assert_eq!(solves(|_, _| {}), (0, vec![]));
        let (solved, kinds) = solves(|t, site| t[site(2)].map_regs(|_| Reg(8), |p| p));
        assert_eq!(solved, 1);
        assert!(kinds.contains(&DiagKind::PressureExceeded), "{kinds:?}");
    }

    // ----- The verifier's verdicts under seeded mutation -------------------

    /// The single-instruction corruptions of an accepted image the verdict
    /// pins draw from (ROADMAP item 4's classes, after *WarpGuard*). The
    /// last is the default rung's own code, which only the promoted
    /// stream draws.
    const CLASSES: [&str; 9] = [
        "entry jump retargeted or replaced",
        "a relocated branch's link retargeted",
        "save or reload dropped or moved a slot",
        "lowered code's register renamed",
        "guard swapped or negated",
        "an injected instruction writes R1 inside a save frame",
        "relocated original is its neighbour",
        "application instruction replaced by NOP",
        "promoted pair, flush, zeroing or push",
    ];

    /// An accepted image, decoded for mutation, with the request it was
    /// built for.
    struct Pristine {
        code: Vec<u8>,
        img: InstrumentedImage,
        original: Vec<Instruction>,
        image: Vec<Instruction>,
        body: Vec<Instruction>,
        spec: FuncSpec,
        fns: ToolFns,
        opts: PlanOpts,
    }

    impl Pristine {
        fn request(&self) -> (&FuncSpec, &ToolFns, PlanOpts) {
            (&self.spec, &self.fns, self.opts)
        }
    }

    /// The pin's apps: the `Accepted` app, a loop, an `SSY` diamond and a
    /// guarded `EXIT`.
    const PIN_APPS: [&str; 4] = [
        "ISETP.EQ.S32 P0, R2, RZ ;\n@P0 STG [R6], R8 ;\nSTG [R2], R9 ;\nEXIT ;",
        "MOV R4, RZ ;\ntop:\nIADD R4, R4, 0x1 ;\nISETP.LT.S32 P0, R4, R2 ;\n\
         @P0 BRA top ;\nSTG [R6], R4 ;\nEXIT ;",
        "ISETP.EQ.S32 P0, R2, RZ ;\nSSY end ;\n@P0 BRA join ;\nIADD R8, R8, 0x1 ;\n\
         BRA join ;\njoin:\nSYNC ;\nend:\nSTG [R6], R8 ;\nEXIT ;",
        "ISETP.GE.S32 P0, R2, 0x10 ;\n@P0 EXIT ;\nIADD R8, R8, 0x1 ;\nSTG [R6], R8 ;\nEXIT ;",
    ];

    /// `app` with every instruction counted the way
    /// `CoalescedInstrCount::executed` does it through `fns`, planned under
    /// `opts` and accepted by the verifier.
    fn pristine(hal: &Hal, app: &str, fns: &ToolFns, opts: PlanOpts) -> Pristine {
        let (_, info, instrs) = setup(hal.arch(), app);
        let analysis = sass::Analysis::of(&instrs, hal.arch());
        let mut spec = FuncSpec::default();
        for (idx, ins) in instrs.iter().enumerate() {
            spec.insert_call(idx, FIRST, IPoint::Before);
            let pred = if ins.guard.is_always() { Arg::Imm32(1) } else { Arg::GuardPred };
            spec.add_arg(idx, pred);
            spec.add_arg(idx, Arg::Imm64(0xdead_0000_beef));
            spec.set_coalesce(idx);
        }
        let plan =
            plan::build(&spec, &lifted(&instrs, analysis.clone()), hal.arch(), fns, opts).unwrap();
        let routines = fake_routines();
        let img = generate(
            hal,
            &info,
            &instrs,
            &plan,
            fns,
            &routines,
            &analysis,
            SavePolicy::Liveness,
            |_| Ok(0x9000),
        )
        .unwrap();
        let p = Pristine {
            image: hal.disassemble(&img.instrumented).unwrap(),
            body: hal.disassemble(&img.body_code).unwrap(),
            original: instrs.clone(),
            code: hal.assemble(&instrs).unwrap(),
            img,
            spec,
            fns: fns.clone(),
            opts,
        };
        let kinds = verdict(hal, &p.code, &p.img, (&p.image, &p.body), p.request());
        assert_eq!(kinds, Some(vec![]), "{app} at {:?}", opts.level);
        p
    }

    /// The first pin's images: each of [`PIN_APPS`] at each rung below the
    /// default, through the spliceable counter and through a counter with a
    /// call.
    fn pristine_images(hal: &Hal) -> Vec<Pristine> {
        let spliceable = tool(hal, "pmult", PMULT);
        let calls = ToolFns::from([("pmult", calling(0x8000, 10, 0, false))]);
        let levels = [PlanLevel::Naive, PlanLevel::Block, PlanLevel::Region];
        let each = |app| [&spliceable, &calls].map(|fns| levels.map(|level| (app, fns, level)));
        let all = PIN_APPS.into_iter().flat_map(each).flatten();
        all.map(|(app, fns, level)| pristine(hal, app, fns, PlanOpts { level })).collect()
    }

    /// The promoted pin's images, at the default rung: each of
    /// [`PIN_APPS`] through the spliceable counter, and [`pushed_image`].
    fn promoted_images(hal: &Hal) -> Vec<Pristine> {
        let spliceable = tool(hal, "pmult", PMULT);
        let mut out: Vec<Pristine> = PIN_APPS
            .iter()
            .map(|app| pristine(hal, app, &spliceable, PlanOpts::default()))
            .collect();
        out.push(pushed_image(hal.arch()));
        for p in &out {
            assert!(p.img.plan.promoted_calls > 0, "{}", text_of(&p.original));
        }
        out
    }

    /// One mutant of `p` in `class`, as `(image, body)`; `None` when the
    /// draw does not apply to this image or changes nothing.
    fn mutant(
        p: &Pristine,
        class: usize,
        rng: &mut common::rng::Rng,
    ) -> Option<(Vec<Instruction>, Vec<Instruction>)> {
        let (mut image, mut body) = (p.image.clone(), p.body.clone());
        let isize = 16;
        let n = p.original.len();
        let layout =
            Layout { addr: 0x4000, len: n, base: 0x9000, sites: &p.img.sites, isize, entries: 1 };
        let jmp = |addr: u64| Instruction::new(Op::Jmp, [Operand::Abs(addr)]);
        let frame_access = |ins: &Instruction| {
            matches!(ins.op, Op::Stl | Op::Ldl)
                && ins.operands.iter().any(|o| matches!(o, Operand::MRef { base: Reg::SP, .. }))
        };
        let routine =
            |ins: &Instruction| ins.op == Op::Jcal && ins.operands[0] != Operand::Abs(0x8000);
        let any = |rng: &mut common::rng::Rng, hit: &dyn Fn(usize, &Instruction) -> bool| {
            let hits: Vec<usize> = (0..body.len()).filter(|&i| hit(i, &body[i])).collect();
            (!hits.is_empty()).then(|| *rng.choose(&hits))
        };
        match class {
            0 => {
                image[0] = match rng.index(4) {
                    0 => jmp(0x9000 + rng.index(body.len()) as u64 * isize),
                    1 => Instruction::nop(),
                    2 => p.original[0],
                    _ => Instruction::new(Op::Jcal, [Operand::Abs(0x9000)]),
                }
            }
            1 => {
                let linked = |i: &usize| {
                    p.original[*i].cf_class() != CfClass::None
                        && (p.original[*i].rel_target().is_some()
                            || p.original[*i].operands.iter().any(|o| matches!(o, Operand::Abs(_))))
                };
                let branches: Vec<usize> = (0..n).filter(linked).collect();
                if branches.is_empty() {
                    return None;
                }
                let at = layout.slots().nth(*rng.choose(&branches))?;
                let to = 0x9000 + rng.index(body.len() + 1) as u64 * isize;
                match body[at].rel_target() {
                    Some(_) => body[at].set_rel_target(to as i64 - (0x9000 + (at as i64 + 1) * 16)),
                    None => body[at].operands.iter_mut().for_each(|o| {
                        if let Operand::Abs(t) = o {
                            *t = to;
                        }
                    }),
                }
            }
            2 => {
                let i = any(rng, &|_, ins| frame_access(ins) || routine(ins))?;
                match body[i].operands.iter_mut().find_map(|o| match o {
                    Operand::MRef { offset, .. } => Some(offset),
                    _ => None,
                }) {
                    Some(offset) if rng.gen_bool() => {
                        *offset += if rng.gen_bool() { 4 } else { -4 }
                    }
                    _ => body[i] = Instruction::nop(),
                }
            }
            3 => {
                let lowered = |i: usize| {
                    p.img.sites.iter().any(|s| {
                        s.calls
                            .iter()
                            .flatten()
                            .any(|(off, len)| (s.start + off..s.start + off + len - 1).contains(&i))
                    })
                };
                let i = any(rng, &|i, ins| lowered(i) && ins.max_reg().is_some())?;
                let mut regs = Vec::new();
                body[i].each_span(|r, _, _| regs.push(r));
                let from = *rng.choose(&regs);
                let to = Reg(rng.gen_range(0u8..32));
                body[i].map_regs(|r| if r == from { to } else { r }, |p| p);
            }
            4 => {
                let i = rng.index(body.len());
                let g = &mut body[i].guard;
                if rng.gen_bool() {
                    g.negated = !g.negated;
                } else {
                    g.pred = Pred(rng.gen_range(0u8..8));
                }
            }
            // An instruction between a save call and its restore that writes
            // a register, its first written register renamed to `R1`.
            5 => {
                let save = |ins: &Instruction| {
                    routine(ins) && matches!(ins.operands[0], Operand::Abs(a) if a < 0x20_0000)
                };
                let mut framed = vec![false; body.len()];
                for s in &p.img.sites {
                    let mut depth = 0;
                    for at in s.start..s.start + s.len {
                        match &body[at] {
                            ins if save(ins) => depth += 1,
                            ins if routine(ins) => depth -= 1,
                            _ => framed[at] = depth > 0,
                        }
                    }
                }
                let i = any(rng, &|i, ins| framed[i] && !ins.reg_writes().is_empty())?;
                let written = body[i].reg_writes()[0];
                body[i].map_regs(|r| if r == written { Reg::SP } else { r }, |p| p);
            }
            6 => {
                let i = rng.index(n);
                let j = if rng.gen_bool() { i + 1 } else { i.checked_sub(1)? };
                body[layout.slots().nth(i)?] = *p.original.get(j)?;
            }
            // Nothing in the pin's requests removes an instruction.
            7 => {
                let i = rng.index(n);
                if rng.gen_bool() {
                    if i < layout.entries {
                        return None;
                    }
                    image[i] = Instruction::nop();
                } else {
                    body[layout.slots().nth(i)?] = Instruction::nop();
                }
            }
            // The default rung's code: a pair's zeroing `IADD.U64 Rp, RZ, 0`,
            // its increments `IADD.U64 Rp, Rp, n`, its flushes
            // `RED.ADD.U64 [Rs], Rp`, and a push's `IADD.U64 Rs, Rb, off`
            // before its `CHAN.64 Rs`.
            _ => {
                let wide_add =
                    |ins: &Instruction| ins.op == Op::Iadd && ins.mods.itype == IType::U64;
                let zeroing =
                    |ins: &Instruction| wide_add(ins) && ins.operands[1] == Operand::Reg(Reg::RZ);
                let counted =
                    |ins: &Instruction| wide_add(ins) && ins.operands[1] == ins.operands[0];
                let to = Reg(2 * rng.gen_range(0u8..16));
                let len = body.len();
                let neighbour = |rng: &mut common::rng::Rng, i: usize| {
                    let j = if rng.gen_bool() { i + 1 } else { i.checked_sub(1)? };
                    (j < len).then_some(j)
                };
                match rng.index(4) {
                    // A promoted pair renamed where it is zeroed, counted or flushed.
                    0 => {
                        let i =
                            any(rng, &|_, ins| ins.op == Op::Red || zeroing(ins) || counted(ins))?;
                        let at = usize::from(body[i].op == Op::Red);
                        let Operand::Reg(from) = body[i].operands[at] else { return None };
                        body[i].map_regs(|r| if r == from { to } else { r }, |p| p);
                    }
                    // A flush dropped, moved past a neighbour or re-guarded.
                    1 => {
                        let i = any(rng, &|_, ins| ins.op == Op::Red)?;
                        match rng.index(3) {
                            0 => body[i] = Instruction::nop(),
                            1 => body.swap(i, neighbour(rng, i)?),
                            _ if rng.gen_bool() => body[i].guard.negated ^= true,
                            _ => body[i].guard.pred = Pred(rng.gen_range(0u8..8)),
                        }
                    }
                    // The zeroing moved past a neighbour.
                    2 => {
                        let i = any(rng, &|_, ins| zeroing(ins))?;
                        body.swap(i, neighbour(rng, i)?);
                    }
                    // A push's offset, or its scratch pair in the add or the push.
                    _ => {
                        let j = any(rng, &|_, ins| ins.op == Op::Chan)?;
                        let i = j.checked_sub(1)?;
                        match (rng.index(3), &mut body[i].operands[2]) {
                            (0, Operand::Imm(off)) => *off += if rng.gen_bool() { 4 } else { -4 },
                            (1, _) => body[i].operands[0] = Operand::Reg(to),
                            _ => body[j].operands[0] = Operand::Reg(to),
                        }
                    }
                }
            }
        }
        ((image.as_slice(), body.as_slice()) != (&p.image[..], &p.body[..]))
            .then_some((image, body))
    }

    /// The pin: the sorted `DiagKind`s of every seeded mutant, hashed with
    /// FNV-1a. The hash was `0xb566_8569_58f9_cb6d` at the commit before the
    /// verifier classified tool bodies once and decoded unchanged image
    /// words once, and still was after it: that change dropped no check. The
    /// trailing-call fix moved it here, through six site jumps replaced by a
    /// `JCAL` on an image's last instruction, which now report
    /// `FallThrough` beside `LinkMismatch`, and the guarded-routine check
    /// from `0x0cc4_c71c_e2c1_d267` to here, through 78 guard mutants (34 of
    /// a tier-16 save call, 44 of its restore) that survived before and now
    /// report `UnbalancedFrame`, and from `0x08d0_c4d5_99c1_9363` to here
    /// when the verifier began checking each image against a plan, then
    /// re-derived from the request: 38 guard mutants that put the
    /// out-of-line tool call under a guard (16 under P0–P6, 22 under `!PT`)
    /// now report `PlanMismatch`, and the NOP class (added then; 70 of 512
    /// killed before) is killed whole by `LinkMismatch`, a `NOP` standing
    /// only where the plan removes the instruction. No other verdict moved.
    /// Retiring the re-checks of the planner's groups and of what decoding
    /// guarantees left it unchanged, and so did handing the verifier the
    /// build's own plan in place of its second derivation (this helper
    /// plans as the verifier did). Differential execution of the
    /// survivors is ROADMAP item 4's other half. This stream draws the
    /// first eight classes over [`pristine_images`], the rungs below the
    /// default. Retiring the splicing rung took its eight images out of the
    /// draw (it was `0x9df6_56fb_42ee_d865` over 32): the same draw over the
    /// 24 left, run at the commit before, gave `0x3214_6c2c_7ca8_ae29`.
    /// Relocating each function into one body re-derived it here from the
    /// same seed: the classes follow the layout (the entry jump stands for
    /// the site jumps, a relocated branch's link for the back-jump, an
    /// injected write of `R1` inside a save frame for the frame `IADD` no
    /// site emits), and the guard, neighbour and NOP classes draw from the
    /// whole body.
    #[test]
    fn verifier_verdicts_under_seeded_mutation_are_pinned() {
        let hal = Hal::new(Arch::Volta);
        let (hash, _) = verdict_hash(&hal, &pristine_images(&hal), 25, 8);
        assert_eq!(hash, 0x0881_937f_5e67_d81b);
    }

    /// The same pin over the default rung's images ([`promoted_images`]),
    /// with its own seed, drawing every class and the promoted code's own.
    /// Surviving mutants are ROADMAP item 4's inputs; the pin holds their
    /// verdicts still, it does not claim them killed. It was
    /// `0x5847_a67a_9edb_186a` (3,584 mutants) while [`pushed_image`]'s leaf
    /// was spliced; called out of line, its save and restore calls give the
    /// save class 512 mutants more. The commit before, given the leaf as
    /// not spliceable and so the same images, gave `0xca41_4770_00e5_e93b`,
    /// and the body layout re-derived it here from the same seed, as the
    /// first pin.
    #[test]
    fn verifier_verdicts_under_seeded_mutation_of_the_default_rung_are_pinned() {
        let hal = Hal::new(Arch::Volta);
        let (hash, _) = verdict_hash(&hal, &promoted_images(&hal), 41, CLASSES.len());
        assert_eq!(hash, 0xe92f_c8aa_2bff_77f3);
    }

    /// A class that draws few mutants pins nothing: over both streams each
    /// draws at least 256.
    #[test]
    fn every_mutation_class_draws_256_mutants_over_both_streams() {
        let hal = Hal::new(Arch::Volta);
        let (_, first) = verdict_hash(&hal, &pristine_images(&hal), 25, 8);
        let (_, promoted) = verdict_hash(&hal, &promoted_images(&hal), 41, CLASSES.len());
        for (c, name) in CLASSES.iter().enumerate() {
            assert!(first[c] + promoted[c] >= 256, "{name}: {} + {}", first[c], promoted[c]);
        }
    }

    /// Draws 512 mutants of `images` in each of the first `classes` classes
    /// from `seed`, prints the verifier's kills per class and returns the
    /// sorted `DiagKind`s of every mutant, hashed with FNV-1a, and the
    /// mutants each class made.
    fn verdict_hash(
        hal: &Hal,
        images: &[Pristine],
        seed: u64,
        classes: usize,
    ) -> (u64, [u32; CLASSES.len()]) {
        let mut rng = common::rng::Rng::seed_from_u64(seed);
        let (mut made, mut killed) = ([0u32; CLASSES.len()], [0u32; CLASSES.len()]);
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fnv = |b: u8| hash = (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        for class in 0..classes {
            // Each draw picks an image the class applies to: only the
            // default rung has lowered code to rename.
            for _ in 0..512 {
                let draw = (0..64).find_map(|_| {
                    let p = rng.choose(images);
                    Some((p, mutant(p, class, &mut rng)?))
                });
                let Some((p, (image, body))) = draw else { continue };
                let request = p.request();
                let Some(kinds) = verdict(hal, &p.code, &p.img, (&image, &body), request) else {
                    continue;
                };
                let mut kinds: Vec<u8> = kinds.iter().map(|k| *k as u8).collect();
                kinds.sort_unstable();
                made[class] += 1;
                killed[class] += u32::from(!kinds.is_empty());
                fnv(class as u8);
                kinds.iter().for_each(|k| fnv(*k));
                fnv(0xff);
            }
        }
        println!(
            "verifier kills, {} mutants of {} accepted images (seed {seed})",
            made.iter().sum::<u32>(),
            images.len()
        );
        for (c, name) in CLASSES.iter().enumerate().take(classes) {
            println!("  {name:<54} {:>5} / {:<5}", killed[c], made[c]);
        }
        println!("  verdict hash {hash:#018x}");
        assert!(made.iter().sum::<u32>() >= 2_000);
        (hash, made)
    }
}
