//! The Code Generator: builds the instrumented copy of a function and its
//! trampolines (paper §5.1, Figure 4).
//!
//! For every instrumented instruction the generator:
//!
//! 1. substitutes the instruction with an unconditional `JMP` to a
//!    trampoline (preserving the instruction layout — both code versions
//!    have the same size and addresses, so absolute jumps keep working and
//!    switching versions is a plain memcpy);
//! 2. emits the trampoline: for each injection a call to the save routine,
//!    the device-API frame pointer setup, the argument materialization
//!    (reading the *saved* register values, never live ones — no WAR
//!    hazards with ABI argument registers), the call to the tool function
//!    and the restore call — or, for a spliced tool body under liveness
//!    sizing, the body renamed onto dead registers inside a bracket that
//!    saves exactly what it still clobbers (`emit_exact`);
//! 3. re-emits the relocated original instruction with its PC-relative
//!    offset adjusted (or a `NOP` when `remove_orig` was requested);
//! 4. jumps back to the next original instruction.

use crate::hal::Hal;
use crate::plan::{InstrumentationPlan, Lowering, PlanStats, PlannedCall, Promotion};
use crate::saverestore::{frame_bytes, tier_for, Routines};
use crate::spec::{abi_slots, arg_window, Arg, IPoint};
use crate::{NvbitError, Result};
use cuda::FunctionInfo;
use ptx::regalloc::{FIRST_CALLEE, FIRST_CALLER, NVBIT_FRAME, SCRATCH_HI};
use sass::inst::span_regs;
use sass::op::{CfClass, CmpOp, IType, SubOp};
use sass::{Instruction, LiveSet, Mods, Op, Operand, Pred, Reg, RegSet};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Size ceiling (in instructions) under which a tool body qualifies for
/// inline splicing.
pub const INLINE_MAX_INSTRS: usize = 24;
/// Register ceiling under which a tool body qualifies for inlining. Wider
/// than the classic 16-register leaf threshold: a splice saves exactly what
/// it clobbers of the site's live registers, so the cap only has to bound
/// pathological bodies.
pub const INLINE_MAX_REGS: u32 = 24;

/// The loaded tool functions by name. An injection and every call planned
/// from it share the name with this table's key.
pub type ToolFns = HashMap<Arc<str>, ToolFn>;

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
    /// The function's instruction body as loaded, retained for the inline
    /// pass and the pre-swap verifier.
    pub body: Arc<[Instruction]>,
    /// Set when the body is spliceable: small, call-free, no stack-pointer
    /// writes, no register device API, a single unguarded trailing `RET`, and a
    /// control-flow shape [`sass::pressure::body_shape`] accepts
    /// (straight-line or a single guarded diamond). This is the whole
    /// splice rule: at [`crate::plan::PlanLevel::Spliced`] the planner
    /// splices every call to such a body into the trampoline in place of
    /// the `JCAL`/`RET` pair, and no call to any other.
    pub inlinable: bool,
    /// One past the highest general-purpose register the body *writes*
    /// (`None` when unknown — e.g. the body makes calls): the clobber window
    /// of a splice that goes through the save routines instead of an exact
    /// bracket (no liveness, or no dead predicate to move onto).
    pub write_ceiling: Option<u8>,
    /// One past the highest general-purpose register an *out-of-line call*
    /// to [`addr`](ToolFn::addr) can leave clobbered. The callable copy is
    /// compiled under the standard ABI, whose epilogue restores every
    /// callee-saved register, so this never exceeds the first
    /// callee-saved register (R16) even when the body itself writes higher.
    /// `None` when unknown (a body with calls); the clobber then falls back
    /// to `reg_count`.
    pub call_ceiling: Option<u8>,
    /// Set when the body is spliceable and has one effect it can be lowered to.
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
    /// and inline splicing reason about, while out-of-line calls run the
    /// installed code, whose epilogue restores every callee-saved register.
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
        let (inlinable, write_ceiling) = classify_body(&body, reg_count, uses_reg_api, arch);
        // The installed epilogue restores every callee-saved register.
        let call_ceiling =
            (!body.iter().any(calls)).then(|| write_ceiling_of(&body).min(FIRST_CALLEE));
        ToolFn {
            addr,
            reg_count,
            stack_size,
            uses_reg_api,
            call_ceiling,
            effect: inlinable.then(|| effect_of(&body, arch)).flatten(),
            body: body.into(),
            inlinable,
            write_ceiling,
        }
    }
}

/// Classifies a loaded tool body: whether it qualifies for inline splicing
/// (which takes a control-flow shape [`sass::pressure::body_shape`] accepts:
/// straight leaf or guarded diamond), and its register write ceiling.
fn classify_body(
    body: &[Instruction],
    reg_count: u32,
    uses_reg_api: bool,
    arch: sass::Arch,
) -> (bool, Option<u8>) {
    // The write ceiling is only knowable for call-free bodies that leave
    // the frame pointer alone; the register device API reaches the save
    // area behind the analysis's back.
    let call_free = !body.iter().any(calls);
    let writes_sp = body.iter().any(|i| i.reg_writes().contains(&Reg::SP));
    let write_ceiling = (call_free && !writes_sp && !uses_reg_api).then(|| write_ceiling_of(body));

    // The shape classification subsumes the old per-instruction scan: it
    // requires the single unguarded trailing RET, rejects control flow
    // that leaves the body, and — unlike the scan — rejects loops and
    // multi-branch shapes that happened to stay in-body.
    let inlinable = write_ceiling.is_some()
        && sass::pressure::body_shape(body, arch).is_some()
        && reg_count <= INLINE_MAX_REGS
        && body.len() <= INLINE_MAX_INSTRS;
    (inlinable, write_ceiling)
}

/// How the code generator sizes each injection site's register save.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SavePolicy {
    /// Size each call from the dataflow analysis: only registers live at
    /// its injection point need saving — exactly the clobbered ones for a
    /// spliced body, the covering tier for a called tool. Falls back to
    /// [`SavePolicy::FullTier`] per function when the analysis is
    /// unavailable, and per call when the tool uses the register device
    /// API.
    #[default]
    Liveness,
    /// One conservative tier covering the whole function's register
    /// demand at every site (the paper's baseline §5.1 behaviour).
    FullTier,
}

/// Where an emitted call's code sits within its site: `(offset, len)` of a
/// spliced body, the final `RET` replaced by `NOP`, or of a lowered call's
/// code; `None` for a call made out of line.
pub type Splice = Option<(usize, usize)>;

/// Layout record for one injection site's trampoline, used by the
/// pre-swap verifier and the save-reduction accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteMeta {
    /// Index of the instrumented instruction in the original body.
    pub instr_idx: usize,
    /// Index of the site's first instruction within the trampoline stream.
    pub start: usize,
    /// Number of trampoline instructions the site spans.
    pub len: usize,
    /// Offset within the site of the relocated original instruction (or
    /// its `NOP` replacement when `remove_orig` was requested).
    pub orig_pos: usize,
    /// Save tier of the site's calls that go through the save routines
    /// (0 when every call brings its own exact bracket).
    pub tier: u16,
    /// One entry per emitted call, in emission order.
    pub calls: Vec<Splice>,
}

/// The output of code generation for one function.
#[derive(Debug, Clone)]
pub struct InstrumentedImage {
    /// Instrumented copy — byte-for-byte the same size as the original.
    pub instrumented: Vec<u8>,
    /// Device address of the trampoline region.
    pub tramp_addr: u64,
    /// The trampoline bytes (the caller uploads them to `tramp_addr`).
    pub tramp_code: Vec<u8>,
    /// Extra per-thread local memory every launch of the instrumented
    /// version needs (save frame + tool stack frames).
    pub extra_local: u32,
    /// The largest save tier used by any site (0: no routine is called).
    pub tier: u16,
    /// Per-site trampoline layout, in trampoline order.
    pub sites: Vec<SiteMeta>,
    /// Σ slots stored per call (exact for spliced calls, tier for called
    /// ones).
    pub saved_slots: u64,
    /// Register slots the conservative whole-function tier would have
    /// saved for the same injections.
    pub full_tier_slots: u64,
    /// Why liveness-driven sizing was not applied, when it was not
    /// (`None` when every site was sized from the analysis).
    pub fallback: Option<String>,
    /// What the plan passes did for this image (coalescing/inlining
    /// accounting).
    pub plan: PlanStats,
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

/// One past the highest register a ladder-saved `call` of `tf` clobbers: R0
/// (the frame pointer), the ABI argument window and what the standard-ABI
/// callee leaves clobbered (a spliced body: all it writes).
pub(crate) fn clobber(call: &PlannedCall, tf: &ToolFn) -> u32 {
    let ceiling =
        if call.lowering == Lowering::Splice { tf.write_ceiling } else { tf.call_ceiling };
    ceiling.map_or(tf.reg_count, u32::from).max(u32::from(arg_window(&call.args))).max(1)
}

/// A function's instrumentation emitted position-independently: everything
/// [`prepare`] decides before the trampoline region has an address.
/// [`Prepared::finish`] turns it into the installable image.
pub(crate) struct Prepared {
    /// Size of the trampoline region to allocate.
    pub(crate) tramp_bytes: u64,
    /// The image with every address-independent field final; `tramp_addr`,
    /// `tramp_code` and `instrumented` are filled in by `finish`.
    image: InstrumentedImage,
    /// The original body with removed-but-uninstrumented sites NOPed.
    patched: Vec<Instruction>,
    /// Every site's trampoline, relocated originals relative to site
    /// offset 0.
    tramp: Vec<Instruction>,
}

/// The live set at a call's injection point: before the instrumented
/// instruction for `Before` calls, after it for `After` calls.
fn live_at(df: &sass::Dataflow, idx: usize, ipoint: IPoint) -> &LiveSet {
    match ipoint {
        IPoint::Before => df.live_in(idx),
        IPoint::After => df.live_out(idx),
    }
}

/// The application state that materializing `call` at a site guarded by
/// `guard` reads — register and predicate arguments — although it is not in
/// `live` there.
fn dead_reads(call: &PlannedCall, guard: sass::Guard, live: &LiveSet) -> LiveSet {
    let mut reads = LiveSet::EMPTY;
    for arg in &call.args {
        match *arg {
            Arg::RegVal(r) | Arg::RegVal64(r) => span_regs(Reg(r), arg.slots() as usize)
                .filter(|r| !live.gprs.contains(*r))
                .for_each(|r| reads.gprs.insert(r)),
            Arg::PredVal(p) if p < 7 => reads.preds |= 1 << p,
            Arg::GuardPred if !guard.pred.is_true_reg() => reads.preds |= 1 << guard.pred.0,
            _ => {}
        }
    }
    reads.preds &= !live.preds;
    reads
}

/// What emitting a function's sites needs to know, plus the exact-save
/// accounting the emission accumulates.
struct Emit<'a> {
    hal: &'a Hal,
    info: &'a FunctionInfo,
    original: &'a [Instruction],
    removed: &'a HashSet<usize>,
    tool_fns: &'a ToolFns,
    routines: &'a HashMap<u16, Routines>,
    promotion: &'a Promotion,
    /// The liveness solution when per-site sizing applies.
    liveness: Option<&'a sass::Dataflow>,
    /// What some argument reads where the application has no further use
    /// for it, and promotion's registers: live to every exact save.
    observed: LiveSet,
    /// Σ slots exact brackets store, aligned pairs they moved onto dead
    /// registers, and their largest frame in bytes.
    exact_slots: u64,
    renamed_pairs: u64,
    exact_frame: u32,
    /// The register spans of the marshalling + body sequence an exact
    /// bracket is being emitted for (one buffer for every call).
    spans: Vec<(Reg, usize, bool)>,
}

/// The predicates `body` touches and those it writes, as bitmasks.
fn pred_masks(body: &[Instruction]) -> (u8, u8) {
    let written = body.iter().fold(0, |m, ins| m | ins.pred_writes());
    let read = body.iter().fold(0, |m, ins| m | ins.pred_reads());
    (read | written, written)
}

impl Emit<'_> {
    /// What an exact bracket around `call` at site `idx` must preserve —
    /// `None` when the call keeps the save routines instead: it is not a
    /// splice, sizing is not liveness-driven, or the body writes more live
    /// predicates than there are dead unused ones to move them onto (the
    /// routines save the predicate file; an exact bracket does not).
    fn exact_live(&self, idx: usize, call: &PlannedCall) -> Option<LiveSet> {
        let df = self.liveness.filter(|_| call.lowering == Lowering::Splice)?;
        let body = &self.tool_fns[&call.func].body;
        let mut live = *live_at(df, idx, call.ipoint);
        live.union_with(&self.observed);
        let (used, written) = pred_masks(body);
        let free = !(live.preds | used) & 0x7f;
        ((written & live.preds).count_ones() <= free.count_ones()).then_some(live)
    }
}

/// The first half of code generation over a validated
/// [`InstrumentationPlan`] (built by [`crate::plan::build`], which also runs
/// the coalescing and inlining passes): save sizing and trampoline
/// emission. `routines` must cover every tier. Under
/// [`SavePolicy::Liveness`] with the body's [`sass::Analysis`] available,
/// an inline-spliced call gets an exact bracket ([`emit_exact`]) and any
/// other call the ladder tier covering the registers that are both live at
/// its injection point and inside its clobber window, plus any saved value
/// an argument reads back; otherwise every site uses the conservative
/// whole-function tier and [`InstrumentedImage::fallback`] records why.
///
/// Each site's trampoline is emitted once, position-independently, so this
/// half needs no device memory and every emission error precedes the
/// trampoline allocation (the bulk allocation the paper mentions), which
/// the caller makes between this and [`Prepared::finish`].
///
/// # Errors
///
/// [`NvbitError::BadRequest`] for argument-ABI violations or register
/// demands beyond the register file.
#[allow(clippy::too_many_arguments)] // the paper's six codegen inputs + policy
pub(crate) fn prepare(
    hal: &Hal,
    info: &FunctionInfo,
    original: &[Instruction],
    plan: &InstrumentationPlan,
    tool_fns: &ToolFns,
    routines: &HashMap<u16, Routines>,
    analysis: &std::result::Result<sass::Analysis, sass::CfgFailure>,
    policy: SavePolicy,
) -> Result<Prepared> {
    let isize = hal.instruction_size();
    let plan_stats = plan.stats;

    // The conservative whole-function demand (§5.1 baseline): the
    // instrumented function's registers, every injected function's
    // registers, the ABI argument registers, and any register a tool asks
    // to read.
    let mut whole: u32 = info.reg_count.max(u32::from(FIRST_CALLEE));
    let mut tool_stack_max: u32 = 0;
    for calls in plan.sites.values() {
        for call in calls {
            let tf = &tool_fns[&call.func];
            whole = whole.max(tf.reg_count);
            tool_stack_max = tool_stack_max.max(tf.stack_size);
            for arg in &call.args {
                whole = whole.max(arg_demand(arg));
            }
        }
    }
    let whole_tier = tier_for(u16::try_from(whole).unwrap_or(u16::MAX))?;

    // Resolve the liveness solution, falling back to the whole-function
    // tier when it cannot be applied.
    let (liveness, fallback): (Option<&sass::Dataflow>, Option<String>) = match (policy, analysis) {
        (SavePolicy::FullTier, _) => (None, Some("full-tier save policy requested".into())),
        (SavePolicy::Liveness, Err(reason)) => (None, Some(reason.to_string())),
        (SavePolicy::Liveness, Ok(a)) if a.liveness.len() != original.len() => {
            (None, Some("dataflow analysis does not match the function body".into()))
        }
        (SavePolicy::Liveness, Ok(a)) => (Some(&a.liveness), None),
    };

    let mut observed = LiveSet::EMPTY;
    plan.promotion.registers().for_each(|r| observed.gprs.insert(Reg(r)));
    for (&idx, calls) in &plan.sites {
        for (df, call) in liveness.iter().flat_map(|df| calls.iter().map(move |c| (df, c))) {
            let live = live_at(df, idx, call.ipoint);
            observed.union_with(&dead_reads(call, original[idx].guard, live));
        }
    }
    let mut cx = Emit {
        hal,
        info,
        original,
        removed: &plan.removed,
        tool_fns,
        routines,
        promotion: &plan.promotion,
        liveness,
        observed,
        exact_slots: 0,
        renamed_pairs: 0,
        exact_frame: 0,
        // A spliceable body's operands plus the ABI argument window.
        spans: Vec::with_capacity(sass::inst::MAX_OPERANDS * INLINE_MAX_INSTRS + 12),
    };

    // Size and emit every site once, position-independently (`emit_site`
    // computes a relocated original's relative target against offset 0).
    let mut tramp_instrs: Vec<Instruction> = Vec::new();
    let mut sites: Vec<SiteMeta> = Vec::with_capacity(plan.sites.len());
    let (mut saved_slots, mut full_tier_slots, mut zero_save_sites) = (0u64, 0u64, 0u64);
    let mut max_tier = if plan.sites.is_empty() { whole_tier } else { 0 };
    let mut exact: Vec<Option<LiveSet>> = Vec::new();
    for (&idx, planned) in &plan.sites {
        // Decided here, once per call, and handed down to emission: the
        // ladder tier covers the calls that keep the save routines; exact
        // splices bring their own frame.
        exact.clear();
        exact.extend(planned.iter().map(|c| cx.exact_live(idx, c)));
        let mut tier = 0u16;
        let mut ladder_calls = 0u64;
        let ladder = |(c, e): &(&PlannedCall, &Option<_>)| {
            e.is_none() && !matches!(c.lowering, Lowering::Code(_))
        };
        for (call, _) in planned.iter().zip(&exact).filter(ladder) {
            ladder_calls += 1;
            let tf = &tool_fns[&call.func];
            let need = match liveness {
                // Register-device-API tools index save-area slots computed
                // at run time; only the whole-function tier is safe for them.
                Some(df) if !tf.uses_reg_api => {
                    // Save what is live at the injection point below the
                    // call's clobber window, and what an argument reads back.
                    let ceiling = u8::try_from(clobber(call, tf)).unwrap_or(u8::MAX);
                    let live = live_at(df, idx, call.ipoint).gprs.max_below(ceiling);
                    let demand = call.args.iter().map(arg_demand).max().unwrap_or(0);
                    let demand = demand.max(live.map_or(0, |r| u32::from(r) + 1));
                    tier_for(u16::try_from(demand).unwrap_or(u16::MAX))?
                }
                _ => whole_tier,
            };
            tier = tier.max(need);
        }
        let (exact_before, start, injections) = (cx.exact_slots, tramp_instrs.len(), planned.len());
        let (orig_pos, calls) = emit_site(&mut cx, tier, idx, planned, &exact, &mut tramp_instrs)?;
        saved_slots += u64::from(tier) * ladder_calls + (cx.exact_slots - exact_before);
        full_tier_slots += u64::from(whole_tier) * injections as u64;
        zero_save_sites += u64::from(ladder_calls == 0 && cx.exact_slots == exact_before);
        max_tier = max_tier.max(tier);
        let len = tramp_instrs.len() - start;
        sites.push(SiteMeta { instr_idx: idx, start, len, orig_pos, tier, calls });
    }
    common::obs::counter("codegen.exact_slots", cx.exact_slots);
    common::obs::counter("codegen.renamed_pairs", cx.renamed_pairs);
    common::obs::counter("codegen.zero_save_sites", zero_save_sites);
    let ladder_frame = if max_tier > 0 { frame_bytes(max_tier, hal) } else { 0 };

    // Removed-but-uninstrumented sites become NOPs in place.
    let mut patched = original.to_vec();
    for &idx in &plan.removed {
        if !sites.iter().any(|site| site.instr_idx == idx) {
            patched[idx] = Instruction::nop();
        }
    }

    Ok(Prepared {
        tramp_bytes: (tramp_instrs.len() as u64 * isize).max(isize),
        image: InstrumentedImage {
            instrumented: Vec::new(),
            tramp_addr: 0,
            tramp_code: Vec::new(),
            extra_local: ladder_frame.max(cx.exact_frame.next_multiple_of(8))
                + tool_stack_max
                + 128,
            tier: max_tier,
            sites,
            saved_slots,
            full_tier_slots,
            fallback,
            plan: plan_stats,
        },
        patched,
        tramp: tramp_instrs,
    })
}

impl Prepared {
    /// The second half of code generation, once the trampoline region sits
    /// at `tramp_addr`: rebase each relocated original's site-relative
    /// target onto its final address, replace every instrumented site of
    /// the body with an unconditional jump to its trampoline, and assemble
    /// both.
    ///
    /// # Errors
    ///
    /// [`NvbitError::Encode`] when the target family cannot encode the
    /// result.
    pub(crate) fn finish(self, hal: &Hal, tramp_addr: u64) -> Result<InstrumentedImage> {
        let Prepared { mut image, mut patched, mut tramp, .. } = self;
        let isize = hal.instruction_size();
        for site in &image.sites {
            let site_pc = tramp_addr + site.start as u64 * isize;
            let orig = &mut tramp[site.start + site.orig_pos];
            if let Some(rel) = orig.rel_target() {
                orig.set_rel_target(rel.wrapping_sub(site_pc as i64));
            }
            patched[site.instr_idx] = Instruction::new(Op::Jmp, [Operand::Abs(site_pc)]);
        }
        image.tramp_addr = tramp_addr;
        image.tramp_code = hal.assemble(&tramp)?;
        image.instrumented = hal.assemble(&patched)?;
        Ok(image)
    }
}

/// Appends one site's trampoline instruction sequence to `out` and reports
/// the position of the relocated original instruction within it plus the
/// splice span of each call, in emission order. The
/// sequence is position-independent except for a relocated original with a
/// relative target, which is computed as if the site sat at address 0 —
/// [`Prepared::finish`] rebases it once the trampoline region is allocated.
/// `exact` holds [`Emit::exact_live`] of each of the site's planned calls,
/// in plan order.
fn emit_site(
    cx: &mut Emit<'_>,
    tier: u16,
    idx: usize,
    planned: &[PlannedCall],
    exact: &[Option<LiveSet>],
    out: &mut Vec<Instruction>,
) -> Result<(usize, Vec<Splice>)> {
    let isize = cx.hal.instruction_size();
    let next_pc = cx.info.addr + (idx as u64 + 1) * isize;
    let site = out.len();
    let mut spans = Vec::with_capacity(planned.len());
    let mut emit_calls = |cx: &mut Emit<'_>, ipoint, out: &mut Vec<Instruction>| -> Result<()> {
        for (call, exact) in planned.iter().zip(exact).filter(|(c, _)| c.ipoint == ipoint) {
            spans.push(emit_call(cx, tier, idx, call, exact.as_ref(), site, out)?);
        }
        Ok(())
    };

    // Counter promotion zeroes its pairs at entry and flushes them ahead of
    // each `EXIT`, under the `EXIT`'s guard.
    out.extend(cx.promotion.prologue(idx));
    emit_calls(cx, IPoint::Before, out)?;
    let mut orig = if cx.removed.contains(&idx) { Instruction::nop() } else { cx.original[idx] };
    out.extend(cx.promotion.epilogue(&orig));

    // The relocated original instruction (Figure 4, step 5) — a NOP when
    // removed (the PROXY-emulation path of §6.3).
    let orig_pos = out.len() - site;
    if let Some(rel) = orig.rel_target() {
        // Critically, relative control flow must be re-relativized to
        // its new home (Figure 4's "offset must be adjusted").
        let abs_target = next_pc.wrapping_add(rel as u64);
        let reloc_off = orig_pos as u64 * isize;
        orig.set_rel_target(abs_target.wrapping_sub(reloc_off + isize) as i64);
    }
    out.push(orig);

    // When the relocated original unconditionally leaves the trampoline,
    // nothing after it can execute: After-injections would be dead code and
    // the Figure-4 back-jump would target past the end of the image for a
    // site on the last instruction. Emit neither.
    if !orig.leaves() {
        emit_calls(cx, IPoint::After, out)?;
        // Back to the instruction after the instrumented one (Figure 4, step 6).
        out.push(Instruction::new(Op::Jmp, [Operand::Abs(next_pc)]));
    }
    Ok((orig_pos, spans))
}

/// Emits one planned call — a lowered one as its code, a splice with
/// something `exact` to preserve inside its exact bracket ([`emit_exact`]),
/// any other as save routine, frame pointer, arguments, tool call (or
/// spliced body), restore routine — and returns its [`Splice`] relative to
/// the `site` start in `out`.
fn emit_call(
    cx: &mut Emit<'_>,
    tier: u16,
    idx: usize,
    call: &PlannedCall,
    exact: Option<&LiveSet>,
    site: usize,
    out: &mut Vec<Instruction>,
) -> Result<Option<(usize, usize)>> {
    let tool = &cx.tool_fns[&call.func];
    let guard = cx.original[idx].guard;
    let body = match &call.lowering {
        Lowering::Code(code) => {
            out.extend_from_slice(code);
            return Ok(Some((out.len() - code.len() - site, code.len())));
        }
        Lowering::Splice => Some(&tool.body[..]),
        Lowering::Call => None,
    };
    let inline_span = match (exact, body) {
        (Some(live), Some(body)) => Some(emit_exact(cx, live, guard, call, body, out)?),
        _ => {
            let routine = cx.routines.get(&tier).copied().ok_or_else(|| {
                NvbitError::BadRequest(format!("no save routine for tier {tier}"))
            })?;
            // 1. Save the thread state. 2. Device-API frame pointer:
            //    R0 = save-area base. 3. Materialize arguments into the ABI
            //    registers from the *saved* state: register r sits in slot
            //    r, the packed predicates after the tier's registers.
            out.push(Instruction::new(Op::Jcal, [Operand::Abs(routine.save_addr)]));
            out.push(op2(Op::Mov, NVBIT_FRAME, Operand::Reg(Reg::SP)));
            let frame = frame_bytes(tier, cx.hal);
            let regval = |r: u8, d| load_reg(r, d, Some(r as usize), frame);
            let predval = |p, negated, d, out: &mut Vec<_>| {
                // Unpack bit `p` of the packed-predicate slot through R3.
                let bit = |op, by: i64, mods| {
                    let s = Operand::Reg(SCRATCH_HI);
                    Instruction::new(op, [s, s, Operand::Imm(by)]).with_mods(mods)
                };
                out.push(op2(Op::Ldl, SCRATCH_HI, frame_slot(tier as usize)));
                out.push(bit(Op::Shr, p as i64, Mods { itype: IType::U32, ..Mods::default() }));
                out.push(bit(Op::Lop, 1, Mods { sub: sass::SubOp::And, ..Mods::default() }));
                if negated {
                    out.push(bit(Op::Lop, 1, Mods { sub: sass::SubOp::Xor, ..Mods::default() }));
                }
                out.push(op2(Op::Mov, d, Operand::Reg(SCRATCH_HI)));
            };
            emit_args(call, guard, |r| r, regval, predval, out)?;
            // 4. Call the tool function — or splice its body in place of
            //    the CALL/RET pair; 5. restore the thread state.
            let span = body.map(|body| splice(body, &Rename::identity(), out));
            if span.is_none() {
                out.push(Instruction::new(Op::Jcal, [Operand::Abs(tool.addr)]));
            }
            out.push(Instruction::new(Op::Jcal, [Operand::Abs(routine.restore_addr)]));
            span
        }
    };
    Ok(inline_span.map(|(at, len)| (at - site, len)))
}

/// `op d, s`.
fn op2(op: Op, d: Reg, s: Operand) -> Instruction {
    Instruction::new(op, [Operand::Reg(d), s])
}

/// Slot `i` of the open save frame.
fn frame_slot(i: usize) -> Operand {
    Operand::MRef { base: Reg::SP, offset: 4 * i as i32 }
}

/// Splices `body`, renamed through `rn`, onto `out` and returns its
/// `(offset, len)` there. The compiler pipeline guarantees a single trailing `RET`
/// (`ptx::lower::merge_returns`); it becomes a `NOP`, so early returns
/// branch onto it and fall through to the restore. Relative distances
/// inside the body are preserved verbatim.
fn splice(body: &[Instruction], rn: &Rename, out: &mut Vec<Instruction>) -> (usize, usize) {
    let at = out.len();
    out.extend(body.iter().map(|ins| {
        let mut ins = *ins;
        ins.map_regs(|r| rn.reg(r), |p| rn.pred(p));
        ins
    }));
    let last = out.last_mut().expect("inlinable body is non-empty");
    debug_assert_eq!(last.op, Op::Ret);
    *last = Instruction::nop();
    (at, body.len())
}

/// The per-site register bijection of an exact splice: which aligned pair
/// each aligned pair of the marshalling + body sequence occupies, and which
/// predicate each of its predicates. `RZ` and `PT` map to themselves.
struct Rename {
    pairs: [u8; 128],
    preds: [u8; 8],
}

impl Rename {
    fn identity() -> Rename {
        Rename { pairs: std::array::from_fn(|p| p as u8), preds: [0, 1, 2, 3, 4, 5, 6, 7] }
    }

    fn reg(&self, r: Reg) -> Reg {
        if r.is_zero() {
            r
        } else {
            Reg(self.pairs[r.index() / 2] * 2 + r.0 % 2)
        }
    }

    fn pred(&self, p: Pred) -> Pred {
        Pred(self.preds[p.index() & 7])
    }

    /// Moves every aligned pair with a written half that is live onto the
    /// lowest aligned pair that is dead, unused by the sequence, below the
    /// function's own `reg_count` and not `R0:R1` — staying put when none is
    /// left — and every written live predicate onto a dead unused one.
    /// Returns the renaming and the number of pairs moved. A sequence with
    /// a span wider than a pair, or an unaligned pair, is left in place.
    fn scavenge(
        spans: &[(Reg, usize, bool)],
        (pred_used, pred_written): (u8, u8),
        live: &LiveSet,
        reg_count: u32,
    ) -> (Rename, u64) {
        let mut rn = Rename::identity();
        let live_reg = |r: usize| live.gprs.contains(Reg(r as u8));
        let (mut used, mut hit, mut aligned) = ([false; 128], [false; 128], true);
        for &(first, n, written) in spans {
            aligned &= first.is_zero() || n == 1 || (n == 2 && first.0 % 2 == 0);
            for r in span_regs(first, n) {
                used[r.index() / 2] = true;
                hit[r.index() / 2] |= written && live_reg(r.index());
            }
        }
        let mut free = (1..(reg_count as usize / 2).min(127))
            .filter(|&q| !used[q] && !live_reg(2 * q) && !live_reg(2 * q + 1));
        let mut moved = 0;
        for (p, q) in (1..127).filter(|&p| aligned && hit[p]).zip(&mut free) {
            rn.pairs[p] = q as u8;
            moved += 1;
        }
        let free = (0..7u8).filter(|q| (live.preds | pred_used) >> q & 1 == 0);
        for (p, q) in (0..7).filter(|p| (pred_written & live.preds) >> p & 1 == 1).zip(free) {
            rn.preds[p] = q;
        }
        (rn, moved)
    }
}

/// Emits an accepted splice inside its exact bracket (DESIGN §4d): the
/// marshalling + body sequence renamed off the registers `live` at the
/// injection point ([`Rename::scavenge`]), and what it still clobbers of
/// them stored into a frame of exactly that many slots and reloaded after
/// the body — no frame at all when that set is empty.
fn emit_exact(
    cx: &mut Emit<'_>,
    live: &LiveSet,
    guard: sass::Guard,
    call: &PlannedCall,
    body: &[Instruction],
    out: &mut Vec<Instruction>,
) -> Result<(usize, usize)> {
    let spans = &mut cx.spans;
    spans.clear();
    spans.extend(abi_slots(&call.args).map(|(slot, arg)| (Reg(slot), arg.slots() as usize, true)));
    for ins in body {
        ins.each_span(|r, n, written| spans.push((r, n, written)));
    }
    let (rn, moved) = Rename::scavenge(spans, pred_masks(body), live, cx.info.reg_count);

    // What the renamed sequence still writes of the live registers.
    let mut saved = RegSet::EMPTY;
    for &(first, n, _) in spans.iter().filter(|(.., written)| *written) {
        let clobbered = span_regs(first, n).map(|r| rn.reg(r));
        clobbered.filter(|r| live.gprs.contains(*r)).for_each(|r| saved.insert(r));
    }
    let frame = 4 * saved.len() as u32;
    cx.exact_slots += saved.len() as u64;
    cx.renamed_pairs += moved;
    cx.exact_frame = cx.exact_frame.max(frame);

    let adjust_sp = |by: i64| {
        let sp = Operand::Reg(Reg::SP);
        Instruction::new(Op::Iadd, [sp, sp, Operand::Imm(by)])
    };
    out.extend((frame > 0).then(|| adjust_sp(-i64::from(frame))));
    for (i, r) in saved.iter().enumerate() {
        out.push(Instruction::new(Op::Stl, [frame_slot(i), Operand::Reg(Reg(r))]));
    }
    // Registers outside the save set and every predicate still hold the
    // application's values: read them in place.
    let regval = |r: u8, d| load_reg(r, d, saved.iter().position(|s| s == r), frame);
    let predval = |p, negated, d, out: &mut Vec<_>| {
        out.push(op2(Op::Mov32i, d, Operand::Imm(0)));
        out.push(
            op2(Op::Mov32i, d, Operand::Imm(1)).with_guard(sass::Guard { pred: Pred(p), negated }),
        );
    };
    emit_args(call, guard, |r| rn.reg(r), regval, predval, out)?;
    let span = splice(body, &rn, out);
    out.extend(saved.iter().enumerate().map(|(i, r)| op2(Op::Ldl, Reg(r), frame_slot(i))));
    out.extend((frame > 0).then(|| adjust_sp(i64::from(frame))));
    Ok(span)
}

/// Materializes `call`'s arguments into the ABI registers, each placed by
/// `dst`. `regval(r, d)` loads the application's register `r` into `d`;
/// `predval(p, negated, d, out)` its predicate `p` (complemented when
/// `negated`) as 0/1.
fn emit_args(
    call: &PlannedCall,
    guard: sass::Guard,
    dst: impl Fn(Reg) -> Reg,
    regval: impl Fn(u8, Reg) -> Instruction,
    predval: impl Fn(u8, bool, Reg, &mut Vec<Instruction>),
    out: &mut Vec<Instruction>,
) -> Result<()> {
    for (slot, arg) in abi_slots(&call.args) {
        if slot as u32 + arg.slots() as u32 > u32::from(FIRST_CALLEE) {
            return Err(NvbitError::BadRequest(format!(
                "arguments of `{}` exceed the ABI register window (R{FIRST_CALLER}..R{})",
                call.func,
                FIRST_CALLEE - 1
            )));
        }
        let (lo, hi) = (dst(Reg(slot)), dst(Reg(slot + 1)));
        let imm = |d, v: u32| op2(Op::Mov32i, d, Operand::Imm((v as i32) as i64));
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

/// Loads the application's register `r` into `d`: from `slot` of the open
/// `frame`-byte frame when it was saved, in place otherwise.
fn load_reg(r: u8, d: Reg, slot: Option<usize>, frame: u32) -> Instruction {
    match (r, slot) {
        (255, _) => op2(Op::Mov, d, Operand::Reg(Reg::RZ)),
        // The stack pointer is not stored; reconstruct the pre-save value.
        (1, _) => Instruction::new(
            Op::Iadd,
            [Operand::Reg(d), Operand::Reg(Reg::SP), Operand::Imm(frame as i64)],
        ),
        (_, Some(slot)) => op2(Op::Ldl, d, frame_slot(slot)),
        (_, None) => op2(Op::Mov, d, Operand::Reg(Reg(r))),
    }
}

#[cfg(test)]
/// A tool function whose body makes a call (`JCAL 0x0 ; RET`): never spliced
/// or lowered, and an out-of-line call of it clobbers `reg_count` registers.
pub(crate) fn calling(addr: u64, reg_count: u32, stack_size: u32, uses_reg_api: bool) -> ToolFn {
    let body = vec![Instruction::new(Op::Jcal, [Operand::Abs(0)]), Instruction::new(Op::Ret, [])];
    // A body with a call is classified no further, on either family.
    ToolFn::with_body(addr, reg_count, stack_size, uses_reg_api, body, sass::Arch::Volta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{self, PlanLevel, PlanOpts, NO_ANALYSIS};
    use crate::saverestore::TIERS;
    use crate::spec::FuncSpec;
    use cuda::CuModule;
    use sass::Arch;

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
        let prepared = prepare(hal, info, original, plan, tool_fns, routines, analysis, policy)?;
        let tramp_addr = alloc(prepared.tramp_bytes)?;
        prepared.finish(hal, tramp_addr)
    }

    /// Naive (pass-free) plan over the spec — the pre-plan pipeline shape.
    /// (The architecture only matters to the planner's effect lowering,
    /// which needs the analysis `NO_ANALYSIS` withholds.)
    fn plan_of(spec: &FuncSpec, body: &[Instruction], fns: &ToolFns) -> InstrumentationPlan {
        plan::build(spec, body, Arch::Volta, &NO_ANALYSIS, fns, PlanOpts::naive()).unwrap()
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

    /// One site emitted behind the tier-16 routines, no liveness applied.
    fn ladder_site(
        hal: &Hal,
        info: &FunctionInfo,
        original: &[Instruction],
        plan: &InstrumentationPlan,
        tool_fns: &ToolFns,
        idx: usize,
    ) -> (Vec<Instruction>, usize, Vec<Splice>) {
        let routines = fake_routines();
        let mut cx = Emit {
            hal,
            info,
            original,
            removed: &plan.removed,
            tool_fns,
            routines: &routines,
            promotion: &plan.promotion,
            liveness: None,
            observed: LiveSet::EMPTY,
            exact_slots: 0,
            renamed_pairs: 0,
            exact_frame: 0,
            spans: Vec::new(),
        };
        let planned = &plan.sites[&idx];
        let (exact, mut out) = (vec![None; planned.len()], Vec::new());
        let (orig_pos, calls) = emit_site(&mut cx, 16, idx, planned, &exact, &mut out).unwrap();
        (out, orig_pos, calls)
    }

    fn setup(arch: Arch, text: &str) -> (Hal, FunctionInfo, Vec<Instruction>) {
        let hal = Hal::new(arch);
        let instrs = hal.disassemble(&hal.assemble_text(text).unwrap()).unwrap();
        let info = fake_info(0x4000, 12);
        (hal, info, instrs)
    }

    fn tool_fns() -> ToolFns {
        let mut m = HashMap::new();
        m.insert("ifunc".into(), calling(0x8000, 8, 16, false));
        m
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
            spec.insert_call(2, "ifunc", IPoint::Before);
            spec.add_arg(2, Arg::GuardPred);
            spec.add_arg(2, Arg::Imm64(0xdead_beef_1234));

            let img = generate(
                &hal,
                &info,
                &instrs,
                &plan_of(&spec, &instrs, &tool_fns()),
                &tool_fns(),
                &fake_routines(),
                &NO_ANALYSIS,
                SavePolicy::Liveness,
                |_len| Ok(0x9000),
            )
            .unwrap();

            // Same size, site 2 replaced by an absolute JMP to the
            // trampoline.
            assert_eq!(img.instrumented.len(), instrs.len() * hal.instruction_size() as usize);
            let patched = hal.disassemble(&img.instrumented).unwrap();
            assert_eq!(patched[2].op, Op::Jmp);
            assert_eq!(patched[2].operands[0], Operand::Abs(0x9000));
            // Other instructions untouched.
            assert_eq!(patched[0], instrs[0]);
            assert_eq!(patched[3], instrs[3]);

            // Trampoline: save, frame ptr, args, tool call, restore,
            // relocated STG, jump back.
            let tramp = hal.disassemble(&img.tramp_code).unwrap();
            let ops: Vec<Op> = tramp.iter().map(|i| i.op).collect();
            assert_eq!(
                ops,
                vec![
                    Op::Jcal,   // save
                    Op::Mov,    // R0 = frame
                    Op::Mov32i, // guard (unguarded => constant 1)
                    Op::Mov32i, // imm64 lo (slot aligned to R6)
                    Op::Mov32i, // imm64 hi
                    Op::Jcal,   // tool
                    Op::Jcal,   // restore
                    Op::Stg,    // relocated original
                    Op::Jmp,    // back
                ],
                "{}",
                sass::asm::disassemble(&tramp)
            );
            // Return target is the instruction after the site.
            assert_eq!(
                tramp.last().unwrap().operands[0],
                Operand::Abs(info.addr + 3 * hal.instruction_size())
            );
        }
    }

    /// Instruments a guarded relative branch with the trampoline placed at
    /// `tramp_base` and returns the relocated branch plus the absolute
    /// address it transfers to.
    fn relocated_branch(tramp_base: u64) -> (Instruction, u64) {
        let (hal, info, instrs) = setup(
            Arch::Pascal,
            "ISETP.EQ.S32 P0, R4, RZ ;\n\
             @P0 BRA .+0x10 ;\n\
             IADD R5, R5, 0x1 ;\n\
             IADD R5, R5, 0x2 ;\n\
             EXIT ;",
        );
        let mut spec = FuncSpec::default();
        spec.insert_call(1, "ifunc", IPoint::Before);
        let img = generate(
            &hal,
            &info,
            &instrs,
            &plan_of(&spec, &instrs, &tool_fns()),
            &tool_fns(),
            &fake_routines(),
            &NO_ANALYSIS,
            SavePolicy::Liveness,
            |_| Ok(tramp_base),
        )
        .unwrap();
        let isize = hal.instruction_size();
        let tramp = hal.disassemble(&img.tramp_code).unwrap();
        let pos = img.sites[0].orig_pos;
        let bra = tramp[pos];
        assert_eq!(bra.op, Op::Bra, "relocated branch present");
        let reloc_pc = tramp_base + pos as u64 * isize;
        let target = (reloc_pc + isize).wrapping_add(bra.rel_target().unwrap() as u64);
        (bra, target)
    }

    /// Original target of [`relocated_branch`]'s branch: the instruction
    /// after it (index 2 of the Pascal body at 0x4000) plus 0x10.
    const BRANCH_TARGET: u64 = 0x4000 + 2 * 8 + 0x10;

    #[test]
    fn relative_branches_are_relativized_when_relocated() {
        let (bra, target) = relocated_branch(0x20_0000);
        assert_eq!(target, BRANCH_TARGET);
        // Guard preserved on the relocated instruction.
        assert!(!bra.guard.is_always());
    }

    #[test]
    fn rebased_branches_reach_the_same_target_at_any_trampoline_address() {
        // Sites are emitted against offset 0 and rebased after the single
        // allocation: below the image the offset is positive, above it
        // negative, and the absolute target never moves.
        let (low, low_target) = relocated_branch(0x1000);
        let (high, high_target) = relocated_branch(0x4000_0000);
        assert_eq!((low_target, high_target), (BRANCH_TARGET, BRANCH_TARGET));
        assert!(low.rel_target().unwrap() > 0 && high.rel_target().unwrap() < 0);
    }

    #[test]
    fn emitted_arguments_fill_exactly_the_window_the_planner_prices() {
        // [GuardPred, Imm64]: R4, then the pair even-aligned to R6:R7. The
        // tier loop's clobber window comes from `arg_window`; the emitted
        // code must write that far and no further.
        let (hal, info, instrs) = setup(Arch::Volta, "NOP ;\nEXIT ;");
        let args = [Arg::GuardPred, Arg::Imm64(0xdead_beef_1234)];
        let mut spec = FuncSpec::default();
        spec.insert_call(0, "ifunc", IPoint::Before);
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
        let tramp = hal.disassemble(&img.tramp_code).unwrap();
        let highest_written = tramp
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
        spec.insert_call(0, "ifunc", IPoint::Before);
        spec.remove_orig(0);
        let plan = plan_of(&spec, &instrs, &tool_fns());
        let (out, orig_pos, _) = ladder_site(&hal, &info, &instrs, &plan, &tool_fns(), 0);
        assert!(out.iter().all(|i| i.op != Op::Proxy));
        assert_eq!(out[orig_pos].op, Op::Nop);
    }

    #[test]
    fn removed_without_injection_becomes_inplace_nop() {
        let (hal, info, instrs) = setup(Arch::Volta, "BPT ;\nEXIT ;");
        let mut spec = FuncSpec::default();
        spec.remove_orig(0);
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
        let patched = hal.disassemble(&img.instrumented).unwrap();
        assert_eq!(patched[0].op, Op::Nop);
        assert_eq!(patched[1].op, Op::Exit);
    }

    #[test]
    fn before_and_after_injections_bracket_the_original() {
        let (hal, info, instrs) = setup(Arch::Maxwell, "IADD R4, R4, 0x1 ;\nEXIT ;");
        let mut spec = FuncSpec::default();
        spec.insert_call(0, "ifunc", IPoint::After);
        spec.insert_call(0, "ifunc", IPoint::Before);
        let plan = plan_of(&spec, &instrs, &tool_fns());
        let (out, orig_pos, metas) = ladder_site(&hal, &info, &instrs, &plan, &tool_fns(), 0);
        assert_eq!(metas.len(), 2);
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
        spec.insert_call(0, "missing", IPoint::Before);
        let e =
            plan::build(&spec, &instrs, Arch::Volta, &NO_ANALYSIS, &tool_fns(), PlanOpts::naive());
        assert!(matches!(e, Err(NvbitError::UnknownToolFunction(_))));
    }

    #[test]
    fn out_of_range_site_is_rejected() {
        let (_hal, _info, instrs) = setup(Arch::Volta, "EXIT ;");
        let mut spec = FuncSpec::default();
        spec.insert_call(5, "ifunc", IPoint::Before);
        let e =
            plan::build(&spec, &instrs, Arch::Volta, &NO_ANALYSIS, &tool_fns(), PlanOpts::naive());
        assert!(matches!(e, Err(NvbitError::BadInstrIndex { .. })));
    }

    #[test]
    fn tier_selection_covers_function_tool_and_args() {
        let (hal, mut info, instrs) = setup(Arch::Volta, "NOP ;\nEXIT ;");
        info.reg_count = 40; // forces tier 64
        let mut spec = FuncSpec::default();
        spec.insert_call(0, "ifunc", IPoint::Before);
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
        spec.insert_call(1, "ifunc", IPoint::Before);
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
        // The trampoline calls the tier-16 routines.
        let routines = fake_routines();
        let tramp = hal.disassemble(&img.tramp_code).unwrap();
        assert_eq!(tramp[0].op, Op::Jcal);
        assert_eq!(tramp[0].operands[0], Operand::Abs(routines[&16].save_addr));
    }

    #[test]
    fn live_registers_above_the_clobber_window_need_no_save() {
        // R200 is live across the site, but the trampoline clobbers only
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
        spec.insert_call(0, "ifunc", IPoint::Before);
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
        spec2.insert_call(0, "ifunc", IPoint::Before);
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
        spec.insert_call(0, "ifunc", IPoint::Before);
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
        fns.insert("regapi".into(), calling(0x8800, 8, 0, true));
        let mut spec = FuncSpec::default();
        spec.insert_call(0, "regapi", IPoint::Before);
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
        spec.insert_call(0, "ifunc", IPoint::Before);
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
        spec.insert_call(0, "ifunc", IPoint::Before);
        spec.insert_call(1, "ifunc", IPoint::After);
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
        let tramp = hal.disassemble(&img.tramp_code).unwrap();
        assert_eq!(img.sites.len(), 2);
        for site in &img.sites {
            let reloc = &tramp[site.start + site.orig_pos];
            assert_eq!(reloc.op, instrs[site.instr_idx].op);
            // Each site ends with the jump back into the image.
            assert_eq!(tramp[site.start + site.len - 1].op, Op::Jmp);
        }
    }

    #[test]
    fn too_many_arguments_error() {
        let (hal, info, instrs) = setup(Arch::Volta, "NOP ;\nEXIT ;");
        let mut spec = FuncSpec::default();
        spec.insert_call(0, "ifunc", IPoint::Before);
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
    fn leaf_fns(hal: &Hal, reg_count: u32) -> ToolFns {
        let code = hal.assemble_text("IADD R4, R4, 0x1 ;\nRET ;").unwrap();
        let body = hal.disassemble(&code).unwrap();
        let mut m = HashMap::new();
        m.insert("leaf".into(), ToolFn::with_body(0x8000, reg_count, 0, false, body, hal.arch()));
        m
    }

    #[test]
    fn leaf_classification() {
        let hal = Hal::new(Arch::Volta);
        let arch = hal.arch();
        let dis = |t: &str| hal.disassemble(&hal.assemble_text(t).unwrap()).unwrap();

        let leaf = dis("IADD R4, R4, 0x1 ;\nRET ;");
        assert_eq!(classify_body(&leaf, 8, false, arch), (true, Some(5)));

        // Calls, guarded trailing RET, the register device API, stack-pointer
        // writes and oversized bodies all disqualify.
        let calls = dis("JCAL `0x100 ;\nRET ;");
        assert_eq!(classify_body(&calls, 8, false, arch), (false, None));
        let guarded = dis("ISETP.EQ.S32 P1, R4, RZ ;\n@P1 RET ;");
        assert!(!classify_body(&guarded, 8, false, arch).0);
        assert!(!classify_body(&leaf, 8, true, arch).0, "reg-api");
        let frame = dis("IADD R1, R1, 0x8 ;\nRET ;");
        assert_eq!(classify_body(&frame, 8, false, arch), (false, None), "stack pointer");
        assert!(!classify_body(&leaf, INLINE_MAX_REGS + 1, false, arch).0, "regs");
        let long: Vec<Instruction> = std::iter::repeat_with(Instruction::nop)
            .take(INLINE_MAX_INSTRS)
            .chain(dis("RET ;"))
            .collect();
        assert!(!classify_body(&long, 8, false, arch).0, "size");

        // An early guarded branch to a merge label (single trailing RET —
        // what the PTX pipeline produces) classifies as a guarded diamond
        // and stays inlinable.
        let merged = dis("ISETP.EQ.S32 P1, R4, RZ ;\n\
             @P1 BRA done ;\n\
             IADD R5, R4, 0x1 ;\n\
             done:\n\
             RET ;");
        assert_eq!(classify_body(&merged, 8, false, arch), (true, Some(6)));

        // A backward (loop) branch was loosely accepted by the old scan;
        // the shape classifier rejects it.
        let looped = dis("top:\nIADD R4, R4, 0x1 ;\n@P1 BRA top ;\nRET ;");
        assert!(!classify_body(&looped, 8, false, arch).0, "loop");
    }

    #[test]
    fn inline_call_splices_the_body_and_drops_the_call_ret_pair() {
        let (hal, info, instrs) = setup(Arch::Volta, "IADD R7, R7, 0x1 ;\nEXIT ;");
        let fns = leaf_fns(&hal, 8);
        let mut spec = FuncSpec::default();
        spec.insert_call(0, "leaf", IPoint::Before);
        let plan =
            plan::build(&spec, &instrs, Arch::Volta, &NO_ANALYSIS, &fns, PlanOpts::default())
                .unwrap();
        let img = generate(
            &hal,
            &info,
            &instrs,
            &plan,
            &fns,
            &fake_routines(),
            &NO_ANALYSIS,
            SavePolicy::Liveness,
            |_| Ok(0x9000),
        )
        .unwrap();
        let tramp = hal.disassemble(&img.tramp_code).unwrap();
        let ops: Vec<Op> = tramp.iter().map(|i| i.op).collect();
        assert_eq!(
            ops,
            vec![
                Op::Jcal, // save
                Op::Mov,  // R0 = frame
                Op::Iadd, // spliced body
                Op::Nop,  //   (its RET)
                Op::Jcal, // restore
                Op::Iadd, // relocated original
                Op::Jmp,  // back
            ],
            "{}",
            sass::asm::disassemble(&tramp)
        );
        // No call to the tool's address anywhere.
        assert!(tramp.iter().all(|i| i.operands.first() != Some(&Operand::Abs(0x8000))));
        // The site meta records the splice span.
        assert_eq!(img.sites[0].calls.len(), 1);
        assert_eq!(img.sites[0].calls, [Some((2, 2))]);
        assert_eq!(img.plan.inline_accepted, 1);
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
        let tf = ToolFn::with_body(0x8000, regs, 0, false, body, hal.arch());
        assert!(tf.inlinable, "{name} must be spliceable");
        HashMap::from([(name.into(), tf)])
    }

    /// The splicing rung: exact brackets, nothing promoted.
    const SPLICED: PlanOpts = PlanOpts { level: PlanLevel::Spliced };

    /// Plans `spec` at the splicing rung over a 12-register Volta kernel and
    /// generates it under the liveness policy; returns the image and its
    /// trampoline.
    fn exact(text: &str, fns: &ToolFns, spec: &FuncSpec) -> (InstrumentedImage, Vec<Instruction>) {
        built(Arch::Volta, SPLICED, text, fns, spec)
    }

    /// `spec` planned under `opts` over a 12-register kernel of either
    /// encoding family and generated under the liveness policy: the image
    /// and its trampoline.
    fn built(
        arch: Arch,
        opts: PlanOpts,
        text: &str,
        fns: &ToolFns,
        spec: &FuncSpec,
    ) -> (InstrumentedImage, Vec<Instruction>) {
        let (hal, info, instrs) = setup(arch, text);
        let analysis = sass::Analysis::of(&instrs, arch);
        let plan = plan::build(spec, &instrs, arch, &analysis, fns, opts).unwrap();
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
        let tramp = hal.disassemble(&img.tramp_code).unwrap();
        (img, tramp)
    }

    fn text_of(instrs: &[Instruction]) -> String {
        sass::asm::disassemble(instrs)
    }

    #[test]
    fn a_before_splice_does_not_pay_for_what_its_instruction_defines() {
        // The site's instruction defines R4, and R4 is dead before it: the
        // union of live-in and live-out used to charge the Before splice a
        // slot for it. Queried by injection point, nothing the leaf writes
        // is live — no frame, no local access, no renaming.
        let hal = Hal::new(Arch::Volta);
        let fns = leaf_fns(&hal, 8);
        let app = "MOV R4, R2 ;\nSTG [R6], R4 ;\nEXIT ;";
        let mut spec = FuncSpec::default();
        spec.insert_call(0, "leaf", IPoint::Before);
        let (img, tramp) = exact(app, &fns, &spec);
        assert_eq!(img.saved_slots, 0);
        assert_eq!(img.tier, 0, "no save routine is called");
        let ops: Vec<Op> = tramp.iter().map(|i| i.op).collect();
        assert_eq!(ops, vec![Op::Iadd, Op::Nop, Op::Mov, Op::Jmp], "{}", text_of(&tramp));
        assert_eq!(tramp[0].operands[0], Operand::Reg(Reg(4)));

        // After the instruction R4 is live: the same splice moves onto the
        // dead pair R2:R3 instead of saving it.
        let mut spec = FuncSpec::default();
        spec.insert_call(0, "leaf", IPoint::After);
        let (img, tramp) = exact(app, &fns, &spec);
        assert_eq!(img.saved_slots, 0);
        let ops: Vec<Op> = tramp.iter().map(|i| i.op).collect();
        assert_eq!(ops, vec![Op::Mov, Op::Iadd, Op::Nop, Op::Jmp], "{}", text_of(&tramp));
        assert_eq!(tramp[1].operands[..2], [Operand::Reg(Reg(2)), Operand::Reg(Reg(2))]);
    }

    #[test]
    fn exact_bracket_renames_then_saves_what_is_left() {
        // At the guarded store R2:R3, R6:R7, R8, R9 and P0 are live; R4:R5
        // and R10:R11 are dead. Of the body's pairs R4:R5 stays, R6:R7
        // takes the one dead pair below reg_count = 12, and R8:R9 has
        // nowhere to go: exactly R8 and R9 are saved. P0 moves to P1.
        let hal = Hal::new(Arch::Volta);
        let fns = tool(&hal, "pmult", PMULT);
        let app = "\
            ISETP.EQ.S32 P0, R2, RZ ;
        @P0 STG [R6], R8 ;
            STG [R2], R9 ;
            EXIT ;
        ";
        let mut spec = FuncSpec::default();
        spec.insert_call(1, "pmult", IPoint::Before);
        spec.add_arg(1, Arg::GuardPred);
        spec.add_arg(1, Arg::Imm64(0xdead_0000_beef));
        spec.add_arg(1, Arg::Imm32(3));
        let (img, tramp) = exact(app, &fns, &spec);
        assert_eq!(img.saved_slots, 2);
        let expect = sass::asm::assemble_arch(
            "\
            IADD R1, R1, -0x8 ;
            STL [R1], R8 ;
            STL [R1+0x4], R9 ;
            MOV32I R4, 0x0 ;
        @P0 MOV32I R4, 0x1 ;
            MOV32I R10, 0xbeef ;
            MOV32I R11, 0xdead ;
            MOV32I R8, 0x3 ;
            MOV R5, R8 ;
            ISETP.EQ.U32 P1, R4, 0x0 ;
            SSY end ;
        @P1 BRA join ;
            MOV R8, R5 ;
            MOV R9, RZ ;
            ATOM.ADD.U64 R4, [R10], R8, RZ ;
            BRA join ;
        join:
            SYNC ;
        end:
            NOP ;
            LDL R8, [R1] ;
            LDL R9, [R1+0x4] ;
            IADD R1, R1, 0x8 ;
        ",
            Arch::Volta,
        )
        .unwrap();
        assert_eq!(text_of(&tramp[..expect.len()]), text_of(&expect));
        assert_eq!(img.sites[0].calls, [Some((8, 10))]);
    }

    // ----- The verifier on mutated exact brackets --------------------------

    use crate::verify::{DiagKind, Request};

    /// The kinds `verify::verify` reports for `img` with `image` and
    /// `tramp` assembled as its code (`None` when they do not encode), the
    /// original's bytes `code` at 0x4000, against `spec` planned under
    /// `opts` over their decode and analysis, with `fns` and the fake
    /// routines.
    fn verdict(
        hal: &Hal,
        code: &[u8],
        img: &InstrumentedImage,
        (image, tramp): (&[Instruction], &[Instruction]),
        (spec, fns, opts): (&FuncSpec, &ToolFns, PlanOpts),
    ) -> Option<Vec<DiagKind>> {
        let (instrumented, tramp_code) = (hal.assemble(image).ok()?, hal.assemble(tramp).ok()?);
        let img = InstrumentedImage { instrumented, tramp_code, ..img.clone() };
        let original = hal.disassemble(code).unwrap();
        let analysis = sass::Analysis::of(&original, hal.arch());
        let plan = plan::build(spec, &original, hal.arch(), &analysis, fns, opts).unwrap();
        let routines = fake_routines();
        let req = Request { tool_fns: fns, routines: &routines };
        let planned = (code, &original[..], analysis.as_ref().ok());
        let diags = crate::verify::verify(hal, 0x4000, planned, &plan, &img, &req).unwrap();
        Some(diags.iter().map(|d| d.kind).collect())
    }

    /// The image of `exact_bracket_renames_then_saves_what_is_left` and
    /// the request it was built for. Trampoline positions: 0 frame open,
    /// 1–2 stores of R8/R9, 3–7 arguments, 8–17 the splice (11 its guarded
    /// branch, 17 the RET's NOP), 18–19 reloads, 20 frame close, 21 the
    /// relocated store.
    struct Accepted {
        code: Vec<u8>,
        img: InstrumentedImage,
        tramp: Vec<Instruction>,
        spec: FuncSpec,
        fns: ToolFns,
    }

    impl Accepted {
        fn new() -> Accepted {
            let hal = Hal::new(Arch::Volta);
            let fns = tool(&hal, "pmult", PMULT);
            let app = "\
                ISETP.EQ.S32 P0, R2, RZ ;
            @P0 STG [R6], R8 ;
                STG [R2], R9 ;
                EXIT ;
            ";
            let mut spec = FuncSpec::default();
            spec.insert_call(1, "pmult", IPoint::Before);
            spec.add_arg(1, Arg::GuardPred);
            spec.add_arg(1, Arg::Imm64(0xdead_0000_beef));
            spec.add_arg(1, Arg::Imm32(3));
            let (img, tramp) = exact(app, &fns, &spec);
            Accepted { code: hal.assemble_text(app).unwrap(), img, tramp, spec, fns }
        }

        /// The diagnostic kinds the verifier reports, the image as generated
        /// and the trampoline as it stands.
        fn verify(&self) -> Vec<DiagKind> {
            let hal = Hal::new(Arch::Volta);
            let image = hal.disassemble(&self.img.instrumented).unwrap();
            let request = (&self.spec, &self.fns, SPLICED);
            verdict(&hal, &self.code, &self.img, (&image, &self.tramp), request).unwrap()
        }
    }

    /// A site at a call of a device function relocates the call into the
    /// trampoline. Outside the image and the trampolines the one target it
    /// may name is the callee's entry, the address the original names: any
    /// other word of the callee is a `BranchTarget` (and, being no longer
    /// the original, a `LinkMismatch`).
    #[test]
    fn a_relocated_call_retargeted_into_its_callee_is_rejected() {
        let hal = Hal::new(Arch::Volta);
        let fns = tool(&hal, "pmult", PMULT);
        let app = "JCAL `0x6000 ;\nSTG [R2], R9 ;\nEXIT ;";
        let mut spec = FuncSpec::default();
        spec.insert_call(0, "pmult", IPoint::Before);
        spec.add_arg(0, Arg::Imm32(1));
        spec.add_arg(0, Arg::Imm64(0xdead_0000_beef));
        spec.add_arg(0, Arg::Imm32(1));
        let (img, mut tramp) = exact(app, &fns, &spec);
        let code = hal.assemble_text(app).unwrap();
        let image = hal.disassemble(&img.instrumented).unwrap();
        let request = (&spec, &fns, SPLICED);
        assert_eq!(verdict(&hal, &code, &img, (&image, &tramp), request), Some(vec![]));
        let call = tramp.iter().position(|i| i.operands.first() == Some(&Operand::Abs(0x6000)));
        let call = call.unwrap();
        tramp[call].operands[0] = Operand::Abs(0x6010);
        let kinds = verdict(&hal, &code, &img, (&image, &tramp), request);
        assert_eq!(kinds, Some(vec![DiagKind::BranchTarget, DiagKind::LinkMismatch]));
    }

    #[test]
    fn the_accepted_exact_bracket_verifies_clean() {
        assert_eq!(Accepted::new().verify(), vec![]);
    }

    #[test]
    fn a_live_register_written_but_not_saved_is_rejected() {
        let mut img = Accepted::new();
        img.tramp[2] = Instruction::nop(); // R9 is never stored
        assert!(img.verify().contains(&DiagKind::PressureExceeded));
    }

    #[test]
    fn a_reload_missing_on_the_taken_arm_is_rejected() {
        // The diamond's guarded branch now lands on the frame close, past
        // both reloads: lanes taking it return with R8 and R9 clobbered.
        let mut img = Accepted::new();
        assert_eq!(img.tramp[11].op, Op::Bra);
        img.tramp[11].set_rel_target((20 - 12) * 16);
        assert!(img.verify().contains(&DiagKind::PressureExceeded));
    }

    #[test]
    fn a_body_predicate_renamed_onto_a_live_predicate_is_rejected() {
        // Still a bijection of the loaded body (P0 ↦ P0), so the splice
        // matches — but P0 guards the instrumented store.
        let mut img = Accepted::new();
        for ins in &mut img.tramp[8..18] {
            ins.map_regs(|r| r, |p| if p == Pred(1) { Pred(0) } else { p });
        }
        let kinds = img.verify();
        assert!(kinds.contains(&DiagKind::PressureExceeded), "{kinds:?}");
        assert!(!kinds.contains(&DiagKind::InlineMismatch), "{kinds:?}");
    }

    #[test]
    fn a_rename_that_is_not_a_pair_preserving_bijection_is_rejected() {
        // Splitting the aligned pair R8:R9 (R9 alone moves to R3).
        let mut img = Accepted::new();
        img.tramp[13].operands[0] = Operand::Reg(Reg(3));
        assert!(img.verify().contains(&DiagKind::InlineMismatch));
        // Two source pairs on one target: R4:R5 joins R6:R7 on R10:R11.
        let mut img = Accepted::new();
        for ins in &mut img.tramp[8..18] {
            ins.map_regs(|r| if r.0 / 2 == 2 { Reg(r.0 + 6) } else { r }, |p| p);
        }
        assert!(img.verify().contains(&DiagKind::InlineMismatch));
    }

    #[test]
    fn a_frame_left_open_is_rejected() {
        let mut img = Accepted::new();
        img.tramp[20] = Instruction::nop(); // R1 stays decremented
        assert!(img.verify().contains(&DiagKind::UnbalancedFrame));
    }

    #[test]
    fn a_frame_access_past_the_exact_frame_is_rejected() {
        let mut img = Accepted::new();
        let slot_2 = Operand::MRef { base: Reg::SP, offset: 8 }; // the frame has two
        img.tramp[19] = Instruction::new(Op::Ldl, [Operand::Reg(Reg(9)), slot_2]);
        assert!(img.verify().contains(&DiagKind::TierExceeded));
    }

    #[test]
    fn register_arguments_read_in_place_or_from_the_frame() {
        // RegVal64(6) names a pair the splice cannot move off (no dead pair
        // below reg_count): it is saved, and the argument loads come from
        // its two frame slots. RegVal(2) is outside the clobber set: a MOV.
        for arch in [Arch::Kepler, Arch::Volta] {
            let hal = Hal::new(arch);
            let fns = tool(&hal, "pair", "IADD R8, R4, R6 ;\nRET ;");
            let app = "\
            IADD R10, R4, R5 ;
            STG [R6], R8 ;
            STG [R2], R10 ;
            STG [R2], R11 ;
            EXIT ;
        ";
            let mut spec = FuncSpec::default();
            spec.insert_call(1, "pair", IPoint::Before);
            spec.add_arg(1, Arg::RegVal(2));
            spec.add_arg(1, Arg::RegVal64(6));
            let (img, tramp) = built(arch, SPLICED, app, &fns, &spec);
            let expect = sass::asm::assemble_arch(
                "\
            IADD R1, R1, -0xc ;
            STL [R1], R6 ;
            STL [R1+0x4], R7 ;
            STL [R1+0x8], R8 ;
            MOV R4, R2 ;
            LDL R6, [R1] ;
            LDL R7, [R1+0x4] ;
            IADD R8, R4, R6 ;
            NOP ;
            LDL R6, [R1] ;
            LDL R7, [R1+0x4] ;
            LDL R8, [R1+0x8] ;
            IADD R1, R1, 0xc ;
        ",
                arch,
            )
            .unwrap();
            assert_eq!(text_of(&tramp[..expect.len()]), text_of(&expect));
            assert_eq!(img.saved_slots, 3);
        }
    }

    #[test]
    fn a_live_predicate_with_no_free_predicate_keeps_the_save_routines() {
        // All seven predicates are live across the site, so the body's P0
        // cannot move and an exact bracket has nowhere to keep it: the
        // splice goes behind the save routines, which save the predicate
        // file, with the tier its window needs (R2:R3 live below R5).
        for arch in [Arch::Pascal, Arch::Volta] {
            let hal = Hal::new(arch);
            let fns = tool(&hal, "setp", "ISETP.EQ.U32 P0, R4, 0x0 ;\nRET ;");
            let guarded: String =
                (0..7).map(|p| format!("@P{p} STG [R2], R{} ;\n", 6 + p)).collect();
            let app = format!("MOV R6, R2 ;\n{guarded}EXIT ;");
            let mut spec = FuncSpec::default();
            spec.insert_call(0, "setp", IPoint::Before);
            spec.add_arg(0, Arg::Imm32(0));
            let (img, tramp) = built(arch, SPLICED, &app, &fns, &spec);
            let ops: Vec<Op> = tramp.iter().map(|i| i.op).collect();
            let expect =
                [Op::Jcal, Op::Mov, Op::Mov32i, Op::Isetp, Op::Nop, Op::Jcal, Op::Mov, Op::Jmp];
            assert_eq!(ops, expect, "{}", text_of(&tramp));
            assert_eq!(img.sites[0].calls, [Some((3, 2))]);
            assert_eq!((img.tier, img.saved_slots), (16, 16));

            let code = hal.assemble_text(&app).unwrap();
            let image = hal.disassemble(&img.instrumented).unwrap();
            let request = (&spec, &fns, SPLICED);
            let kinds = verdict(&hal, &code, &img, (&image, &tramp), request).unwrap();
            assert_eq!(kinds, vec![]);
            // Behind nothing at all, the write of live P0 is caught.
            let mut bare = tramp.clone();
            (bare[0], bare[5]) = (Instruction::nop(), Instruction::nop());
            let kinds = verdict(&hal, &code, &img, (&image, &bare), request).unwrap();
            assert!(kinds.contains(&DiagKind::PressureExceeded), "{kinds:?}");
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
            spec.insert_call(idx, "ifunc", IPoint::Before);
            spec.add_arg(idx, Arg::Imm64(0xbeef));
            spec.set_coalesce(idx);
        }
        let plan = plan::build(
            &spec,
            &instrs,
            Arch::Volta,
            &analysis,
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
            &NO_ANALYSIS,
            SavePolicy::Liveness,
            |_| Ok(0x9000),
        )
        .unwrap();
        // One block → one trampoline site, at the block head.
        assert_eq!(img.sites.len(), 1);
        assert_eq!(img.sites[0].instr_idx, 0);
        assert_eq!(img.sites[0].calls, [None], "one call, out of line");
        // Only site 0 is patched; the merged-away sites run in place.
        let patched = hal.disassemble(&img.instrumented).unwrap();
        assert_eq!(patched[0].op, Op::Jmp);
        assert_eq!(patched[1], instrs[1]);
        assert_eq!(patched[2], instrs[2]);
        // The trailing Imm32 argument lands in the slot after the Imm64
        // pair (R6) with the multiplicity value.
        let tramp = hal.disassemble(&img.tramp_code).unwrap();
        let mult = tramp
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
        spec.insert_call(0, "leaf", IPoint::Before);
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
        let mut called = HashMap::new();
        called.insert("leaf".into(), calling(0x8000, 100, 0, false));
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
    /// `MemTrace` does it, and instruction 2 through the spliced leaf,
    /// planned at the top rung.
    fn pushed_image(arch: Arch) -> Pristine {
        let hal = Hal::new(arch);
        let app = "ISETP.GE.S32 P0, R2, 0x10 ;\n@P0 LDG R8, [R6-0x40] ;\nIADD R8, R8, 0x1 ;\n\
                   STG [R6], R8 ;\nEXIT ;";
        let mut fns = tool(&hal, "trace", TRACE);
        fns.extend(leaf_fns(&hal, 8));
        let (_, _, original) = setup(arch, app);
        let mut spec = FuncSpec::default();
        for (idx, off) in [(1, -0x40), (3, 0)] {
            spec.insert_call(idx, "trace", IPoint::Before);
            spec.add_arg(idx, Arg::GuardPred);
            spec.add_arg(idx, Arg::RegVal64(6));
            spec.add_arg(idx, Arg::Imm32(off));
        }
        spec.insert_call(2, "leaf", IPoint::Before);
        let opts = PlanOpts::default();
        let (img, tramp) = built(arch, opts, app, &fns, &spec);
        let (code, image) = (hal.assemble(&original).unwrap(), hal.disassemble(&img.instrumented));
        Pristine { code, image: image.unwrap(), original, img, tramp, spec, fns, opts }
    }

    #[test]
    fn lowered_pushes_encode_and_verify_on_both_families() {
        for arch in [Arch::Pascal, Arch::Volta] {
            let (hal, p) = (Hal::new(arch), pushed_image(arch));
            let back =
                |idx: u64| format!("JMP `{:#x} ;", 0x4000 + (idx + 1) * hal.instruction_size());
            // Each push adds into the scratch pair past the ABI window and
            // pushes it under the site's guard: no argument, no save.
            let sites = [
                format!(
                    "IADD.U64 R16, R6, -0x40 ;\n@P0 CHAN.64 R16 ;\n@P0 LDG R8, [R6-0x40] ;\n{}",
                    back(1)
                ),
                format!("IADD R4, R4, 0x1 ;\nNOP ;\nIADD R8, R8, 0x1 ;\n{}", back(2)),
                format!("IADD.U64 R16, R6, 0x0 ;\nCHAN.64 R16 ;\nSTG [R6], R8 ;\n{}", back(3)),
            ];
            let expect: Vec<Instruction> =
                sites.iter().flat_map(|s| sass::asm::assemble_arch(s, arch).unwrap()).collect();
            assert_eq!(p.tramp, expect, "{arch:?}:\n{}", text_of(&p.tramp));
            let s = p.img.plan;
            assert_eq!((s.promoted_calls, s.promoted_pairs, s.inline_accepted), (2, 0, 1));
            assert_eq!((p.img.saved_slots, p.img.tier), (0, 0));
            assert_eq!(p.img.sites[0].calls, [Some((0, 2))]);
            let kinds = verdict(&hal, &p.code, &p.img, (&p.image, &p.tramp), p.request());
            assert_eq!(kinds, Some(vec![]), "{arch:?}");
        }
    }

    /// The kinds the verifier reports for the Volta [`pushed_image`] once
    /// `corrupt` has changed its trampoline, given each site's start by
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

    #[test]
    fn a_splice_renamed_onto_the_scratch_pair_is_rejected() {
        // Still a bijection of the loaded body (R4:R5 ↦ R16:R17), and R16 is
        // dead to the application — but it is the pushes' scratch pair.
        let onto_scratch = |r: Reg| if r == Reg(4) { Reg(16) } else { r };
        let kinds = corrupted_push(|t, site| t[site(2)].map_regs(onto_scratch, |p| p));
        assert_eq!(kinds, vec![DiagKind::PromotionMismatch]);
    }

    /// A guarded `EXIT`, then a block ending in the `EXIT`, every instruction
    /// counted the way `CoalescedInstrCount::executed` does it, and
    /// instruction 2 also through the spliced leaf, planned at the top rung.
    fn promoted_image(arch: Arch) -> Pristine {
        let hal = Hal::new(arch);
        let app =
            "ISETP.GE.S32 P0, R2, 0x10 ;\n@P0 EXIT ;\nIADD R8, R8, 0x1 ;\nSTG [R6], R8 ;\nEXIT ;";
        let mut fns = tool(&hal, "pmult", PMULT);
        fns.extend(leaf_fns(&hal, 8));
        let (_, _, original) = setup(arch, app);
        let mut spec = FuncSpec::default();
        for (idx, ins) in original.iter().enumerate() {
            spec.insert_call(idx, "pmult", IPoint::Before);
            spec.add_arg(idx, if ins.guard.is_always() { Arg::Imm32(1) } else { Arg::GuardPred });
            spec.add_arg(idx, Arg::Imm64(0xdead_0000_beef));
            spec.set_coalesce(idx);
        }
        spec.insert_call(2, "leaf", IPoint::Before);
        let opts = PlanOpts::default();
        let (img, tramp) = built(arch, opts, app, &fns, &spec);
        let (code, image) = (hal.assemble(&original).unwrap(), hal.disassemble(&img.instrumented));
        Pristine { code, image: image.unwrap(), original, img, tramp, spec, fns, opts }
    }

    #[test]
    fn promoted_counters_encode_and_verify_on_both_families() {
        for arch in [Arch::Pascal, Arch::Volta] {
            let (hal, p) = (Hal::new(arch), promoted_image(arch));
            let back =
                |idx: u64| format!("JMP `{:#x} ;", 0x4000 + (idx + 1) * hal.instruction_size());
            let flush = |guard| {
                format!(
                    "MOV32I R16, 0xbeef ;\nMOV32I R17, 0xdead ;\n{guard} RED.ADD.U64 [R16], R18 ;"
                )
            };
            // The zeroing, then each site's increment: the pair sits past
            // the ABI window, the scratch pair below it.
            let sites = [
                format!("IADD.U64 R18, RZ, 0x0 ;\nIADD.U64 R18, R18, 0x1 ;\nISETP.GE.S32 P0, R2, 0x10 ;\n{}", back(0)),
                format!("@P0 IADD.U64 R18, R18, 0x1 ;\n{}\n@P0 EXIT ;\n{}", flush("@P0"), back(1)),
                format!("IADD.U64 R18, R18, 0x3 ;\nIADD R4, R4, 0x1 ;\nNOP ;\nIADD R8, R8, 0x1 ;\n{}", back(2)),
                format!("{}\nEXIT ;", flush("")),
            ];
            let expect: Vec<Instruction> =
                sites.iter().flat_map(|s| sass::asm::assemble_arch(s, arch).unwrap()).collect();
            assert_eq!(p.tramp, expect, "{arch:?}:\n{}", text_of(&p.tramp));
            let s = p.img.plan;
            assert_eq!((s.promoted_calls, s.promoted_pairs, s.inline_accepted), (3, 1, 1));
            assert_eq!(p.img.sites[2].calls, [Some((0, 1)), Some((1, 2))]);
            let kinds = verdict(&hal, &p.code, &p.img, (&p.image, &p.tramp), p.request());
            assert_eq!(kinds, Some(vec![]), "{arch:?}");
        }
    }

    /// The kinds the verifier reports for the Volta [`promoted_image`] once
    /// `corrupt` has changed its trampoline, given each site's start by
    /// instruction.
    fn corrupted_promotion(
        corrupt: impl FnOnce(&mut [Instruction], &dyn Fn(usize) -> usize),
    ) -> Vec<DiagKind> {
        corrupted(promoted_image(Arch::Volta), corrupt)
    }

    /// The kinds the verifier reports for `p` once `corrupt` has changed its
    /// trampoline.
    fn corrupted(
        mut p: Pristine,
        corrupt: impl FnOnce(&mut [Instruction], &dyn Fn(usize) -> usize),
    ) -> Vec<DiagKind> {
        let sites = p.img.sites.clone();
        let start = |idx: usize| sites.iter().find(|s| s.instr_idx == idx).unwrap().start;
        corrupt(&mut p.tramp, &start);
        verdict(&Hal::new(Arch::Volta), &p.code, &p.img, (&p.image, &p.tramp), p.request()).unwrap()
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

    #[test]
    fn a_splice_renamed_onto_a_promoted_pair_is_rejected() {
        // Still a bijection of the loaded body (R4:R5 ↦ R18:R19), so the
        // splice matches, and R18 is dead to the application — but it holds
        // the count.
        let onto_pair = |r: Reg| if r == Reg(4) { Reg(18) } else { r };
        let kinds = corrupted_promotion(|t, site| t[site(2) + 1].map_regs(onto_pair, |p| p));
        assert_eq!(kinds, vec![DiagKind::PromotionMismatch]);
    }

    // ----- The verifier's verdicts under seeded mutation -------------------

    /// The single-instruction corruptions of an accepted image the verdict
    /// pins draw from (ROADMAP item 4's classes, after *WarpGuard*). The
    /// last is the default rung's own code, which only the promoted
    /// stream draws.
    const CLASSES: [&str; 9] = [
        "site jump retargeted or replaced",
        "back-jump retargeted",
        "save or reload dropped or moved a slot",
        "splice register renamed",
        "guard swapped or negated",
        "frame IADD R1 off by 4",
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
        tramp: Vec<Instruction>,
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
            spec.insert_call(idx, "pmult", IPoint::Before);
            let pred = if ins.guard.is_always() { Arg::Imm32(1) } else { Arg::GuardPred };
            spec.add_arg(idx, pred);
            spec.add_arg(idx, Arg::Imm64(0xdead_0000_beef));
            spec.set_coalesce(idx);
        }
        let plan = plan::build(&spec, &instrs, hal.arch(), &analysis, fns, opts).unwrap();
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
            tramp: hal.disassemble(&img.tramp_code).unwrap(),
            original: instrs.clone(),
            code: hal.assemble(&instrs).unwrap(),
            img,
            spec,
            fns: fns.clone(),
            opts,
        };
        let kinds = verdict(hal, &p.code, &p.img, (&p.image, &p.tramp), p.request());
        assert_eq!(kinds, Some(vec![]), "{app} at {:?}", opts.level);
        p
    }

    /// The first pin's images: each of [`PIN_APPS`] at each rung below the
    /// default, through the spliceable counter and through an out-of-line
    /// one.
    fn pristine_images(hal: &Hal) -> Vec<Pristine> {
        let spliced = tool(hal, "pmult", PMULT);
        let out_of_line = HashMap::from([("pmult".into(), calling(0x8000, 10, 0, false))]);
        let levels = [PlanLevel::Naive, PlanLevel::Block, PlanLevel::Region, PlanLevel::Spliced];
        let each = |app| [&spliced, &out_of_line].map(|fns| levels.map(|level| (app, fns, level)));
        let all = PIN_APPS.into_iter().flat_map(each).flatten();
        all.map(|(app, fns, level)| pristine(hal, app, fns, PlanOpts { level })).collect()
    }

    /// The promoted pin's images, at the default rung: each of
    /// [`PIN_APPS`] through the spliceable counter, and [`pushed_image`].
    fn promoted_images(hal: &Hal) -> Vec<Pristine> {
        let spliced = tool(hal, "pmult", PMULT);
        let mut out: Vec<Pristine> =
            PIN_APPS.iter().map(|app| pristine(hal, app, &spliced, PlanOpts::default())).collect();
        out.push(pushed_image(hal.arch()));
        for p in &out {
            assert!(p.img.plan.promoted_calls > 0, "{}", text_of(&p.original));
        }
        out
    }

    /// One mutant of `p` in `class`, as `(image, trampoline)`; `None` when
    /// the draw does not apply to this image or changes nothing.
    fn mutant(
        p: &Pristine,
        class: usize,
        rng: &mut common::rng::Rng,
    ) -> Option<(Vec<Instruction>, Vec<Instruction>)> {
        let (mut image, mut tramp) = (p.image.clone(), p.tramp.clone());
        let isize = 16;
        let site = rng.choose(&p.img.sites);
        let jmp = |addr: u64| Instruction::new(Op::Jmp, [Operand::Abs(addr)]);
        let site_pc = 0x9000 + site.start as u64 * isize;
        let frame_access = |ins: &Instruction| {
            matches!(ins.op, Op::Stl | Op::Ldl)
                && ins.operands.iter().any(|o| matches!(o, Operand::MRef { base: Reg::SP, .. }))
        };
        let routine =
            |ins: &Instruction| ins.op == Op::Jcal && ins.operands[0] != Operand::Abs(0x8000);
        let any = |rng: &mut common::rng::Rng, hit: &dyn Fn(usize, &Instruction) -> bool| {
            let hits: Vec<usize> = (0..tramp.len()).filter(|&i| hit(i, &tramp[i])).collect();
            (!hits.is_empty()).then(|| *rng.choose(&hits))
        };
        match class {
            0 => {
                image[site.instr_idx] = match rng.index(4) {
                    0 => jmp(0x9000 + rng.index(tramp.len()) as u64 * isize),
                    1 => Instruction::nop(),
                    2 => p.original[site.instr_idx],
                    _ => Instruction::new(Op::Jcal, [Operand::Abs(site_pc)]),
                }
            }
            1 => {
                let i = any(rng, &|i, ins| {
                    ins.op == Op::Jmp && p.img.sites.iter().any(|s| s.start + s.len - 1 == i)
                })?;
                tramp[i] = jmp(0x4000 + rng.index(image.len() + 1) as u64 * isize);
            }
            2 => {
                let i = any(rng, &|_, ins| frame_access(ins) || routine(ins))?;
                match tramp[i].operands.iter_mut().find_map(|o| match o {
                    Operand::MRef { offset, .. } => Some(offset),
                    _ => None,
                }) {
                    Some(offset) if rng.gen_bool() => {
                        *offset += if rng.gen_bool() { 4 } else { -4 }
                    }
                    _ => tramp[i] = Instruction::nop(),
                }
            }
            3 => {
                let spliced = |i: usize| {
                    p.img.sites.iter().any(|s| {
                        s.calls
                            .iter()
                            .flatten()
                            .any(|(off, len)| (s.start + off..s.start + off + len - 1).contains(&i))
                    })
                };
                let i = any(rng, &|i, ins| spliced(i) && ins.max_reg().is_some())?;
                let mut regs = Vec::new();
                tramp[i].each_span(|r, _, _| regs.push(r));
                let from = *rng.choose(&regs);
                let to = Reg(rng.gen_range(0u8..32));
                tramp[i].map_regs(|r| if r == from { to } else { r }, |p| p);
            }
            4 => {
                let i = rng.index(tramp.len());
                let g = &mut tramp[i].guard;
                if rng.gen_bool() {
                    g.negated = !g.negated;
                } else {
                    g.pred = Pred(rng.gen_range(0u8..8));
                }
            }
            5 => {
                let i = any(rng, &|_, ins| {
                    ins.op == Op::Iadd && ins.operands[..2] == [Operand::Reg(Reg::SP); 2]
                })?;
                if let Operand::Imm(by) = &mut tramp[i].operands[2] {
                    *by += if rng.gen_bool() { 4 } else { -4 };
                }
            }
            6 => {
                let n = if rng.gen_bool() {
                    site.instr_idx + 1
                } else {
                    site.instr_idx.checked_sub(1)?
                };
                tramp[site.start + site.orig_pos] = *p.original.get(n)?;
            }
            // Nothing in the pin's requests removes an instruction.
            7 => {
                if rng.gen_bool() {
                    let i = rng.index(image.len());
                    if p.img.sites.iter().any(|s| s.instr_idx == i) {
                        return None;
                    }
                    image[i] = Instruction::nop();
                } else {
                    tramp[site.start + site.orig_pos] = Instruction::nop();
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
                let len = tramp.len();
                let neighbour = |rng: &mut common::rng::Rng, i: usize| {
                    let j = if rng.gen_bool() { i + 1 } else { i.checked_sub(1)? };
                    (j < len).then_some(j)
                };
                match rng.index(4) {
                    // A promoted pair renamed where it is zeroed, counted or flushed.
                    0 => {
                        let i =
                            any(rng, &|_, ins| ins.op == Op::Red || zeroing(ins) || counted(ins))?;
                        let at = usize::from(tramp[i].op == Op::Red);
                        let Operand::Reg(from) = tramp[i].operands[at] else { return None };
                        tramp[i].map_regs(|r| if r == from { to } else { r }, |p| p);
                    }
                    // A flush dropped, moved past a neighbour or re-guarded.
                    1 => {
                        let i = any(rng, &|_, ins| ins.op == Op::Red)?;
                        match rng.index(3) {
                            0 => tramp[i] = Instruction::nop(),
                            1 => tramp.swap(i, neighbour(rng, i)?),
                            _ if rng.gen_bool() => tramp[i].guard.negated ^= true,
                            _ => tramp[i].guard.pred = Pred(rng.gen_range(0u8..8)),
                        }
                    }
                    // The zeroing moved past a neighbour.
                    2 => {
                        let i = any(rng, &|_, ins| zeroing(ins))?;
                        tramp.swap(i, neighbour(rng, i)?);
                    }
                    // A push's offset, or its scratch pair in the add or the push.
                    _ => {
                        let j = any(rng, &|_, ins| ins.op == Op::Chan)?;
                        let i = j.checked_sub(1)?;
                        match (rng.index(3), &mut tramp[i].operands[2]) {
                            (0, Operand::Imm(off)) => *off += if rng.gen_bool() { 4 } else { -4 },
                            (1, _) => tramp[i].operands[0] = Operand::Reg(to),
                            _ => tramp[j].operands[0] = Operand::Reg(to),
                        }
                    }
                }
            }
        }
        ((image.as_slice(), tramp.as_slice()) != (&p.image[..], &p.tramp[..]))
            .then_some((image, tramp))
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
    /// default.
    #[test]
    fn verifier_verdicts_under_seeded_mutation_are_pinned() {
        let hal = Hal::new(Arch::Volta);
        let hash = verdict_hash(&hal, &pristine_images(&hal), 25, 8);
        assert_eq!(hash, 0x9df6_56fb_42ee_d865);
    }

    /// The same pin over the default rung's images ([`promoted_images`]),
    /// with its own seed, drawing every class and the promoted code's own.
    /// Surviving mutants are ROADMAP item 4's inputs; the pin holds their
    /// verdicts still, it does not claim them killed.
    #[test]
    fn verifier_verdicts_under_seeded_mutation_of_the_default_rung_are_pinned() {
        let hal = Hal::new(Arch::Volta);
        let hash = verdict_hash(&hal, &promoted_images(&hal), 41, CLASSES.len());
        assert_eq!(hash, 0x5847_a67a_9edb_186a);
    }

    /// Draws 512 mutants of `images` in each of the first `classes` classes
    /// from `seed`, prints the verifier's kills per class and returns the
    /// sorted `DiagKind`s of every mutant, hashed with FNV-1a.
    fn verdict_hash(hal: &Hal, images: &[Pristine], seed: u64, classes: usize) -> u64 {
        let mut rng = common::rng::Rng::seed_from_u64(seed);
        let (mut made, mut killed) = ([0u32; CLASSES.len()], [0u32; CLASSES.len()]);
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fnv = |b: u8| hash = (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        for class in 0..classes {
            // Each draw picks an image the class applies to: only the
            // spliced rung of the spliceable counter has splices to rename.
            for _ in 0..512 {
                let draw = (0..64).find_map(|_| {
                    let p = rng.choose(images);
                    Some((p, mutant(p, class, &mut rng)?))
                });
                let Some((p, (image, tramp))) = draw else { continue };
                let request = p.request();
                let Some(kinds) = verdict(hal, &p.code, &p.img, (&image, &tramp), request) else {
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
            println!("  {name:<40} {:>5} / {:<5}", killed[c], made[c]);
        }
        println!("  verdict hash {hash:#018x}");
        assert!(made.iter().sum::<u32>() >= 2_000);
        hash
    }
}
