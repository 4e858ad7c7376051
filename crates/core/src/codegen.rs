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
//!    and the restore call;
//! 3. re-emits the relocated original instruction with its PC-relative
//!    offset adjusted (or a `NOP` when `remove_orig` was requested);
//! 4. jumps back to the next original instruction.

use crate::hal::Hal;
use crate::plan::{InstrumentationPlan, PlanOpts, PlanStats, PlannedCall};
use crate::saverestore::{frame_bytes, tier_for, Routines};
use crate::spec::{abi_slots, arg_window, Arg, IPoint};
use crate::{NvbitError, Result};
use cuda::FunctionInfo;
use sass::op::CfClass;
use sass::pressure::BodyShape;
use sass::{Instruction, Mods, Op, Operand, Reg};
use std::collections::HashMap;
use std::sync::Arc;

/// Size ceiling (in instructions) under which a tool body qualifies for
/// inline splicing.
pub const INLINE_MAX_INSTRS: usize = 24;
/// Register ceiling under which a tool body qualifies for inlining. Wider
/// than the classic 16-register leaf threshold: the per-site pressure
/// verdict ([`sass::pressure::splice_verdict`]) now declines splices whose
/// write window would raise the save tier, so the blunt cap only has to
/// bound pathological bodies.
pub const INLINE_MAX_REGS: u32 = 24;

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
    /// pass and the pre-swap verifier (`None` for opaque registrations).
    pub body: Option<Arc<Vec<Instruction>>>,
    /// Set when the body is spliceable: small, call-free, stack-free, no
    /// register device API, a single unguarded trailing `RET`, and a
    /// control-flow shape the classifier accepts (straight-line or a
    /// single guarded diamond — see [`shape`](ToolFn::shape)). The planner
    /// splices such bodies into the trampoline in place of the
    /// `JCAL`/`RET` pair, subject to the per-site pressure verdict.
    pub inlinable: bool,
    /// Control-flow shape of the body as classified by
    /// [`sass::pressure::body_shape`] (`None` for opaque registrations and
    /// shapes that are never spliceable — loops, multiple conditionals,
    /// escaping control flow).
    pub shape: Option<BodyShape>,
    /// One past the highest general-purpose register the body *writes*
    /// (`None` when unknown — e.g. the body makes calls). Registers at or
    /// above this ceiling survive the call untouched, letting liveness
    /// tier selection shrink further than the used-register count allows.
    pub write_ceiling: Option<u8>,
    /// One past the highest general-purpose register an *out-of-line call*
    /// to [`addr`](ToolFn::addr) can leave clobbered. The callable copy is
    /// compiled under the standard ABI, whose epilogue restores every
    /// callee-saved register, so this never exceeds the first
    /// callee-saved register (R16) even when the body itself writes higher —
    /// which is exactly what makes declining a pressure-raising splice
    /// profitable. `None` when unknown (opaque registration or a body
    /// with calls); the clobber then falls back to `reg_count`.
    pub call_ceiling: Option<u8>,
}

/// First callee-saved general-purpose register of the standard PTX call
/// ABI (mirrored by the `ptx` crate's register allocator). A standard-ABI
/// callee restores everything from here up before returning.
pub(crate) const CALLEE_SAVE_BASE: u8 = 16;

/// The caller-visible clobber ceiling of calling `body` out of line under
/// the standard ABI: one past the highest written GPR, capped at
/// [`CALLEE_SAVE_BASE`] (higher registers are restored by the epilogue).
/// `None` when the body makes calls of its own (callee clobbers unknown).
fn call_ceiling_of(body: &[Instruction]) -> Option<u8> {
    let call_free = !body.iter().any(|i| {
        matches!(i.cf_class(), CfClass::AbsCall | CfClass::RelCall | CfClass::IndirectBranch)
    });
    if !call_free {
        return None;
    }
    let max_written = body.iter().flat_map(Instruction::reg_writes).map(|r| r.0).max();
    Some(max_written.map_or(0, |r| r.saturating_add(1)).min(CALLEE_SAVE_BASE))
}

impl ToolFn {
    /// A registration with no retained body: never inlined, clobber sized
    /// by `reg_count` alone.
    pub fn opaque(addr: u64, reg_count: u32, stack_size: u32, uses_reg_api: bool) -> ToolFn {
        ToolFn {
            addr,
            reg_count,
            stack_size,
            uses_reg_api,
            body: None,
            inlinable: false,
            shape: None,
            write_ceiling: None,
            call_ceiling: None,
        }
    }

    /// Builds the entry from the loaded body, running the body
    /// classification. `arch` selects the instruction size and the CFG
    /// rules for validating that control flow stays inside the body.
    pub fn with_body(
        addr: u64,
        reg_count: u32,
        stack_size: u32,
        uses_reg_api: bool,
        body: Vec<Instruction>,
        arch: sass::Arch,
    ) -> ToolFn {
        let (inlinable, write_ceiling, shape) =
            classify_body(&body, reg_count, stack_size, uses_reg_api, arch);
        let call_ceiling = call_ceiling_of(&body);
        ToolFn {
            addr,
            reg_count,
            stack_size,
            uses_reg_api,
            body: Some(Arc::new(body)),
            inlinable,
            shape,
            write_ceiling,
            call_ceiling,
        }
    }

    /// Builds the entry from a dual-ABI load: `callable_body` is the
    /// standard-ABI compile installed at `addr` (what out-of-line calls
    /// execute — its epilogue restores every callee-saved register), while
    /// `scratch_body` is the scratch-ABI compile of the same source (no
    /// prologue, every register fair game), which is what classification,
    /// inline splicing and the pressure cost model reason about.
    pub fn dual_abi(
        addr: u64,
        callable: (u32, u32, &[Instruction]),
        scratch: (u32, u32, Vec<Instruction>),
        uses_reg_api: bool,
        arch: sass::Arch,
    ) -> ToolFn {
        let (callable_regs, callable_stack, callable_body) = callable;
        let (scratch_regs, scratch_stack, scratch_body) = scratch;
        let (inlinable, write_ceiling, shape) =
            classify_body(&scratch_body, scratch_regs, scratch_stack, uses_reg_api, arch);
        let call_ceiling = call_ceiling_of(callable_body);
        ToolFn {
            addr,
            reg_count: callable_regs.max(scratch_regs),
            stack_size: callable_stack,
            uses_reg_api,
            body: Some(Arc::new(scratch_body)),
            inlinable,
            shape,
            write_ceiling,
            call_ceiling,
        }
    }
}

/// Classifies a loaded tool body: its control-flow shape (straight leaf or
/// guarded diamond, via [`sass::pressure::body_shape`]), whether it
/// qualifies for inline splicing, and its register write ceiling.
fn classify_body(
    body: &[Instruction],
    reg_count: u32,
    stack_size: u32,
    uses_reg_api: bool,
    arch: sass::Arch,
) -> (bool, Option<u8>, Option<BodyShape>) {
    // The write ceiling is only knowable for call-free bodies that leave
    // the frame pointer alone; the register device API reaches the save
    // area behind the analysis's back.
    let call_free = !body.iter().any(|i| {
        matches!(i.cf_class(), CfClass::AbsCall | CfClass::RelCall | CfClass::IndirectBranch)
    });
    let writes_sp = body.iter().any(|i| i.reg_writes().contains(&Reg::SP));
    let write_ceiling = if call_free && !writes_sp && !uses_reg_api {
        let max_written = body.iter().flat_map(Instruction::reg_writes).map(|r| r.0).max();
        Some(max_written.map_or(0, |r| r.saturating_add(1)))
    } else {
        None
    };

    // The shape classification subsumes the old per-instruction scan: it
    // requires the single unguarded trailing RET, rejects control flow
    // that leaves the body, and — unlike the scan — rejects loops and
    // multi-branch shapes that happened to stay in-body.
    let shape = sass::pressure::body_shape(body, arch);
    let inlinable = write_ceiling.is_some()
        && shape.is_some()
        && stack_size == 0
        && reg_count <= INLINE_MAX_REGS
        && body.len() <= INLINE_MAX_INSTRS;
    (inlinable, write_ceiling, if write_ceiling.is_some() { shape } else { None })
}

/// How the code generator sizes each injection site's register save.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SavePolicy {
    /// Size each site from the dataflow analysis: only registers live
    /// across the site (plus the tool's own demand) need saving. Falls
    /// back to [`SavePolicy::FullTier`] per function when the analysis is
    /// unavailable, and per site when an injected tool uses the register
    /// device API.
    #[default]
    Liveness,
    /// One conservative tier covering the whole function's register
    /// demand at every site (the paper's baseline §5.1 behaviour).
    FullTier,
}

/// Layout record for one emitted call within a site's trampoline, used by
/// the plan-consistency checks of the pre-swap verifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallMeta {
    /// The tool function the call invokes (or splices).
    pub func: String,
    /// Sites the call represents (1 unless coalesced).
    pub multiplicity: u32,
    /// The original instruction indices it stands for, sorted.
    pub group: Vec<usize>,
    /// The subset of `group` lowered from `IPoint::After` sites: origin *o*
    /// is represented at the `Before` slot of site *o + 1*.
    pub lowered: Vec<usize>,
    /// The call follows the multiplicity protocol.
    pub coalesce: bool,
    /// When inlined: `(offset, len)` of the spliced body within the site's
    /// trampoline instructions (the final `RET` replaced by `NOP`).
    pub inline: Option<(usize, usize)>,
    /// `(tier_before, tier_after)` the pressure verdict claimed for an
    /// accepted splice; the verifier re-prices the claim on the occupancy
    /// curve from original bytes. `None` for calls the verdict did not
    /// price (out of line, or no dataflow solution).
    pub occ: Option<(u16, u16)>,
}

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
    /// Save tier selected for this site.
    pub tier: u16,
    /// Number of injections at this site.
    pub injections: usize,
    /// Per-call layout, in emission order.
    pub calls: Vec<CallMeta>,
}

/// The output of code generation for one function.
#[derive(Debug, Clone)]
pub struct InstrumentedImage {
    /// Pristine original code (for swapping back).
    pub original: Vec<u8>,
    /// Instrumented copy — byte-for-byte the same size as the original.
    pub instrumented: Vec<u8>,
    /// Device address of the trampoline region.
    pub tramp_addr: u64,
    /// The trampoline bytes (the caller uploads them to `tramp_addr`).
    pub tramp_code: Vec<u8>,
    /// Extra per-thread local memory every launch of the instrumented
    /// version needs (save frame + tool stack frames).
    pub extra_local: u32,
    /// The largest save tier used by any site.
    pub tier: u16,
    /// Per-site trampoline layout, in trampoline order.
    pub sites: Vec<SiteMeta>,
    /// Register slots actually saved across all injections
    /// (Σ site tier × site injections).
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
    /// The options the plan was built with — the verifier reads the
    /// level and occupancy configuration from here to re-price splice
    /// claims against the same model.
    pub opts: PlanOpts,
}

/// The register demand of reading one saved register: slot `r` must have
/// been stored. `RZ` and the reconstructed `SP` need no slot.
pub(crate) fn reg_demand(r: u8) -> u32 {
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

/// The first half of code generation over a validated
/// [`InstrumentationPlan`] (built by [`crate::plan::build`], which also runs
/// the coalescing and inlining passes): save sizing and trampoline
/// emission. `routines` must cover every tier. `analysis` and `policy`
/// control per-site save sizing: under [`SavePolicy::Liveness`] with the
/// body's [`sass::Analysis`] available, each site saves only the registers
/// that are both live across it and inside the trampoline's clobber window
/// (frame pointer, ABI argument slots and the injected functions' registers
/// — shrunk to the body's write ceiling when known), plus any saved value
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
/// [`NvbitError::BadRequest`] for argument-ABI violations, register
/// demands beyond the register file, or an inline-marked call without a
/// retained body.
#[allow(clippy::too_many_arguments)] // the paper's six codegen inputs + policy
pub(crate) fn prepare(
    hal: &Hal,
    info: &FunctionInfo,
    original: &[Instruction],
    original_code: &[u8],
    plan: &InstrumentationPlan,
    tool_fns: &HashMap<String, ToolFn>,
    routines: &HashMap<u16, Routines>,
    analysis: &std::result::Result<sass::Analysis, sass::CfgFailure>,
    policy: SavePolicy,
) -> Result<Prepared> {
    let isize = hal.instruction_size();

    // The conservative whole-function demand (§5.1 baseline): the
    // instrumented function's registers, every injected function's
    // registers, the ABI argument registers, and any register a tool asks
    // to read.
    let mut whole: u32 = info.reg_count.max(16);
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

    // Per-site tier selection.
    let mut site_tier: HashMap<usize, u16> = HashMap::new();
    let mut saved_slots = 0u64;
    let mut full_tier_slots = 0u64;
    let mut max_tier = 0u16;
    let mut max_frame = 0u32;
    for (&idx, calls) in &plan.sites {
        let uses_reg_api = calls.iter().any(|c| tool_fns[&c.func].uses_reg_api);
        let tier = match liveness {
            // Register-device-API tools index save-area slots computed at
            // run time; only the whole-function tier is safe for them.
            Some(df) if !uses_reg_api => {
                // The trampoline only clobbers R0 (the frame pointer), the
                // ABI argument window from R4 up, and the injected
                // functions' own registers — shrunk to the registers the
                // body actually *writes* when its write ceiling is known.
                // Registers at or above that ceiling survive the call
                // untouched, so a save slot is needed only for (a) live
                // registers *below* the ceiling and (b) saved values an
                // argument reads back.
                let mut clobber: u32 = 1;
                let mut demand: u32 = 0;
                for call in calls {
                    let tf = &tool_fns[&call.func];
                    // A spliced body clobbers up to its raw write ceiling;
                    // an out-of-line call executes the standard-ABI copy,
                    // which restores callee-saved registers on return.
                    let body_clobber = if call.inline {
                        tf.write_ceiling.map_or(tf.reg_count, u32::from)
                    } else {
                        tf.call_ceiling.map_or(tf.reg_count, u32::from)
                    };
                    clobber = clobber.max(body_clobber).max(u32::from(arg_window(&call.args)));
                    for arg in &call.args {
                        demand = demand.max(arg_demand(arg));
                    }
                }
                let ceiling = u8::try_from(clobber).unwrap_or(u8::MAX);
                if let Some(live) = df.max_live_below(idx, ceiling) {
                    demand = demand.max(u32::from(live) + 1);
                }
                tier_for(u16::try_from(demand).unwrap_or(u16::MAX))?
            }
            _ => whole_tier,
        };
        site_tier.insert(idx, tier);
        saved_slots += u64::from(tier) * calls.len() as u64;
        full_tier_slots += u64::from(whole_tier) * calls.len() as u64;
        max_tier = max_tier.max(tier);
        max_frame = max_frame.max(frame_bytes(tier, hal));
    }
    if plan.sites.is_empty() {
        max_tier = whole_tier;
        max_frame = frame_bytes(whole_tier, hal);
    }
    let routine_for = |tier: u16| -> Result<Routines> {
        routines
            .get(&tier)
            .copied()
            .ok_or_else(|| NvbitError::BadRequest(format!("no save routine for tier {tier}")))
    };

    // Emit every site once, position-independently: the only instruction
    // that depends on where the trampoline lands is a relocated original
    // with a relative target, which `emit_site` computes against site
    // offset 0.
    let mut tramp_instrs: Vec<Instruction> = Vec::new();
    let mut sites: Vec<SiteMeta> = Vec::with_capacity(plan.sites.len());
    for (&idx, planned) in &plan.sites {
        let tier = site_tier[&idx];
        let (instrs, orig_pos, calls) =
            emit_site(hal, info, original, plan, tool_fns, &routine_for(tier)?, tier, idx)?;
        sites.push(SiteMeta {
            instr_idx: idx,
            start: tramp_instrs.len(),
            len: instrs.len(),
            orig_pos,
            tier,
            injections: planned.len(),
            calls,
        });
        tramp_instrs.extend(instrs);
    }

    // Removed-but-uninstrumented sites become NOPs in place.
    let mut patched = original.to_vec();
    for &idx in &plan.removed {
        if !plan.sites.contains_key(&idx) {
            patched[idx] = Instruction::nop();
        }
    }

    Ok(Prepared {
        tramp_bytes: (tramp_instrs.len() as u64 * isize).max(isize),
        image: InstrumentedImage {
            original: original_code.to_vec(),
            instrumented: Vec::new(),
            tramp_addr: 0,
            tramp_code: Vec::new(),
            extra_local: max_frame + tool_stack_max + 128,
            tier: max_tier,
            sites,
            saved_slots,
            full_tier_slots,
            fallback,
            plan: plan.stats,
            opts: plan.opts,
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
            patched[site.instr_idx] = Instruction::new(Op::Jmp, vec![Operand::Abs(site_pc)]);
        }
        image.tramp_addr = tramp_addr;
        image.tramp_code = hal.assemble(&tramp)?;
        image.instrumented = hal.assemble(&patched)?;
        debug_assert_eq!(image.instrumented.len(), image.original.len());
        Ok(image)
    }
}

/// Emits one site's trampoline instruction sequence and reports the
/// position of the relocated original instruction within it plus the
/// per-call layout records. The sequence is position-independent except
/// for a relocated original with a relative target, which is computed as
/// if the site sat at address 0 — [`Prepared::finish`] rebases it once the
/// trampoline region is allocated.
#[allow(clippy::too_many_arguments)]
fn emit_site(
    hal: &Hal,
    info: &FunctionInfo,
    original: &[Instruction],
    plan: &InstrumentationPlan,
    tool_fns: &HashMap<String, ToolFn>,
    routine: &Routines,
    tier: u16,
    idx: usize,
) -> Result<(Vec<Instruction>, usize, Vec<CallMeta>)> {
    let isize = hal.instruction_size();
    let next_pc = info.addr + (idx as u64 + 1) * isize;
    let calls = &plan.sites[&idx];
    let mut out: Vec<Instruction> = Vec::new();
    let mut metas: Vec<CallMeta> = Vec::new();

    for call in calls.iter().filter(|c| c.ipoint == IPoint::Before) {
        metas.push(emit_call(hal, original, routine, tier, idx, call, tool_fns, &mut out)?);
    }

    // The relocated original instruction (Figure 4, step 5) — a NOP when
    // removed (the PROXY-emulation path of §6.3).
    let orig_pos = out.len();
    if plan.removed.contains(&idx) {
        out.push(Instruction::nop());
    } else {
        let mut orig = original[idx].clone();
        if let Some(rel) = orig.rel_target() {
            // Critically, relative control flow must be re-relativized to
            // its new home (Figure 4's "offset must be adjusted").
            let abs_target = next_pc.wrapping_add(rel as u64);
            let reloc_off = out.len() as u64 * isize;
            orig.set_rel_target(abs_target.wrapping_sub(reloc_off + isize) as i64);
        }
        out.push(orig);
    }

    // When the relocated original unconditionally leaves the trampoline
    // (EXIT, RET, an unguarded jump/branch, SYNC, a trap), nothing after it
    // can execute: After-injections would be dead code and the Figure-4
    // back-jump would target past the end of the image for a site on the
    // last instruction. Emit neither.
    let no_fall_through = out[orig_pos].guard.is_always()
        && matches!(
            out[orig_pos].cf_class(),
            CfClass::Exit
                | CfClass::Ret
                | CfClass::Trap
                | CfClass::Sync
                | CfClass::RelBranch
                | CfClass::AbsJump
        );
    if no_fall_through {
        return Ok((out, orig_pos, metas));
    }

    for call in calls.iter().filter(|c| c.ipoint == IPoint::After) {
        metas.push(emit_call(hal, original, routine, tier, idx, call, tool_fns, &mut out)?);
    }

    // Back to the instruction after the instrumented one (Figure 4, step 6).
    out.push(Instruction::new(Op::Jmp, vec![Operand::Abs(next_pc)]));
    Ok((out, orig_pos, metas))
}

/// Emits one planned call: save, frame pointer, arguments, tool call (or
/// the inline-spliced body), restore. Returns the call's layout record,
/// with inline spans relative to the start of `out`'s site.
///
/// With `pred_filter` set on a guarded site, the whole sequence is wrapped
/// in an `SSY`-bracketed diamond so that guard-false lanes never enter the
/// injected function (the paper's §7 "predicate matching" extension):
///
/// ```text
///       SSY  L_skip
/// @!Pg  BRA  L_other        ; guard-false lanes take their own path
///       <save / args / call / restore>
///       SYNC                ; guard-true path done
/// L_other: SYNC             ; guard-false path done
/// L_skip:  ...
/// ```
#[allow(clippy::too_many_arguments)]
fn emit_call(
    hal: &Hal,
    original: &[Instruction],
    routine: &Routines,
    tier: u16,
    idx: usize,
    call: &PlannedCall,
    tool_fns: &HashMap<String, ToolFn>,
    out: &mut Vec<Instruction>,
) -> Result<CallMeta> {
    let tool = &tool_fns[&call.func];
    let guard = original[idx].guard;
    if call.pred_filter && !guard.is_always() {
        let isize = hal.instruction_size() as i64;
        let barrier = if hal.saves_barrier_state() { 1 } else { 0 };
        let mods = Mods { barrier, ..Mods::default() };
        // Emit the body first to learn its length, then splice the wrapper.
        let wrapper_base = out.len();
        let mut body = Vec::new();
        let plain = PlannedCall { pred_filter: false, ..call.clone() };
        let mut meta = emit_call(hal, original, routine, tier, idx, &plain, tool_fns, &mut body)?;
        let n = body.len() as i64;
        out.push(Instruction::new(Op::Ssy, vec![Operand::Rel((n + 3) * isize)]).with_mods(mods));
        out.push(
            Instruction::new(Op::Bra, vec![Operand::Rel((n + 1) * isize)])
                .with_guard(sass::Guard { pred: guard.pred, negated: !guard.negated }),
        );
        out.extend(body);
        out.push(Instruction::new(Op::Sync, vec![]).with_mods(mods));
        out.push(Instruction::new(Op::Sync, vec![]).with_mods(mods));
        // The recursion recorded offsets relative to its own body; shift
        // them past the SSY/BRA prefix into site coordinates.
        if let Some((off, len)) = meta.inline {
            meta.inline = Some((wrapper_base + 2 + off, len));
        }
        return Ok(meta);
    }

    let frame = frame_bytes(tier, hal);
    let pred_mask_off = 4 * tier as i32;
    let scratch = Reg(3);

    // 1. Save the thread state.
    out.push(Instruction::new(Op::Jcal, vec![Operand::Abs(routine.save_addr)]));
    // 2. Device-API frame pointer: R0 = save-area base.
    out.push(Instruction::new(Op::Mov, vec![Operand::Reg(Reg(0)), Operand::Reg(Reg::SP)]));

    // 3. Materialize arguments into the ABI registers from the *saved*
    //    state.
    let emit_pred_value = |p: u8, negated: bool, slot: u8, out: &mut Vec<Instruction>| {
        if p >= 7 {
            // PT: constant true (negated PT is constant false).
            out.push(Instruction::new(
                Op::Mov32i,
                vec![Operand::Reg(Reg(slot)), Operand::Imm(i64::from(!negated))],
            ));
            return;
        }
        out.push(Instruction::new(
            Op::Ldl,
            vec![Operand::Reg(scratch), Operand::MRef { base: Reg::SP, offset: pred_mask_off }],
        ));
        out.push(
            Instruction::new(
                Op::Shr,
                vec![Operand::Reg(scratch), Operand::Reg(scratch), Operand::Imm(p as i64)],
            )
            .with_mods(Mods { itype: sass::op::IType::U32, ..Mods::default() }),
        );
        out.push(
            Instruction::new(
                Op::Lop,
                vec![Operand::Reg(scratch), Operand::Reg(scratch), Operand::Imm(1)],
            )
            .with_mods(Mods { sub: sass::SubOp::And, ..Mods::default() }),
        );
        if negated {
            out.push(
                Instruction::new(
                    Op::Lop,
                    vec![Operand::Reg(scratch), Operand::Reg(scratch), Operand::Imm(1)],
                )
                .with_mods(Mods { sub: sass::SubOp::Xor, ..Mods::default() }),
            );
        }
        out.push(Instruction::new(Op::Mov, vec![Operand::Reg(Reg(slot)), Operand::Reg(scratch)]));
    };

    for (slot, arg) in abi_slots(&call.args) {
        if slot as u32 + arg.slots() as u32 > 16 {
            return Err(NvbitError::BadRequest(format!(
                "arguments of `{}` exceed the ABI register window (R4..R15)",
                call.func
            )));
        }
        match arg {
            Arg::GuardPred => {
                let guard = original[idx].guard;
                emit_pred_value(guard.pred.0, guard.negated, slot, out);
            }
            Arg::PredVal(p) => emit_pred_value(*p, false, slot, out),
            Arg::RegVal(r) => emit_regval(*r, slot, frame, out),
            Arg::RegVal64(r) => {
                emit_regval(*r, slot, frame, out);
                emit_regval(r.saturating_add(1), slot + 1, frame, out);
            }
            Arg::Imm32(v) => {
                out.push(Instruction::new(
                    Op::Mov32i,
                    vec![Operand::Reg(Reg(slot)), Operand::Imm(*v as i64)],
                ));
            }
            Arg::Imm64(v) => {
                out.push(Instruction::new(
                    Op::Mov32i,
                    vec![Operand::Reg(Reg(slot)), Operand::Imm((*v as u32 as i32) as i64)],
                ));
                out.push(Instruction::new(
                    Op::Mov32i,
                    vec![
                        Operand::Reg(Reg(slot + 1)),
                        Operand::Imm(((*v >> 32) as u32 as i32) as i64),
                    ],
                ));
            }
            Arg::CBank { bank, offset } => {
                out.push(Instruction::new(
                    Op::Ldc,
                    vec![
                        Operand::Reg(Reg(slot)),
                        Operand::CBank { bank: *bank, base: Reg::RZ, offset: *offset },
                    ],
                ));
            }
        }
    }

    // 4. Call the tool function — or splice its body in place of the
    //    CALL/RET pair when the plan inlined it; 5. restore the thread
    //    state.
    let inline_span = if call.inline {
        let body = tool.body.as_ref().ok_or_else(|| {
            NvbitError::BadRequest(format!(
                "call to `{}` marked inline but no body was retained",
                call.func
            ))
        })?;
        let at = out.len();
        // The compiler pipeline guarantees a single trailing RET
        // (`ptx::lower::merge_returns`); replace it with a NOP so early
        // returns branch onto it and fall through to the restore call.
        // Relative distances inside the body are preserved verbatim.
        out.extend(body.iter().cloned());
        let last = out.last_mut().expect("inlinable body is non-empty");
        debug_assert_eq!(last.op, Op::Ret);
        *last = Instruction::nop();
        Some((at, body.len()))
    } else {
        out.push(Instruction::new(Op::Jcal, vec![Operand::Abs(tool.addr)]));
        None
    };
    out.push(Instruction::new(Op::Jcal, vec![Operand::Abs(routine.restore_addr)]));
    Ok(CallMeta {
        func: call.func.clone(),
        multiplicity: call.multiplicity,
        group: call.group.clone(),
        lowered: call.lowered.clone(),
        coalesce: call.coalesce,
        inline: inline_span,
        occ: call.occ,
    })
}

/// Loads saved register `r` into ABI slot register `slot`.
fn emit_regval(r: u8, slot: u8, frame: u32, out: &mut Vec<Instruction>) {
    match r {
        255 => out
            .push(Instruction::new(Op::Mov, vec![Operand::Reg(Reg(slot)), Operand::Reg(Reg::RZ)])),
        1 => {
            // The stack pointer is not stored; reconstruct the pre-save
            // value.
            out.push(Instruction::new(
                Op::Iadd,
                vec![Operand::Reg(Reg(slot)), Operand::Reg(Reg::SP), Operand::Imm(frame as i64)],
            ));
        }
        _ => out.push(Instruction::new(
            Op::Ldl,
            vec![Operand::Reg(Reg(slot)), Operand::MRef { base: Reg::SP, offset: 4 * r as i32 }],
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{self, PlanLevel, PlanOpts, NO_ANALYSIS};
    use crate::saverestore::TIERS;
    use crate::spec::FuncSpec;
    use cuda::{CuFunction, CuModule};
    use sass::Arch;

    /// Both halves of code generation around one `alloc` call, as
    /// `core::build_all` sequences them.
    #[allow(clippy::too_many_arguments)]
    fn generate(
        hal: &Hal,
        info: &FunctionInfo,
        original: &[Instruction],
        original_code: &[u8],
        plan: &InstrumentationPlan,
        tool_fns: &HashMap<String, ToolFn>,
        routines: &HashMap<u16, Routines>,
        analysis: &std::result::Result<sass::Analysis, sass::CfgFailure>,
        policy: SavePolicy,
        mut alloc: impl FnMut(u64) -> Result<u64>,
    ) -> Result<InstrumentedImage> {
        let prepared = prepare(
            hal,
            info,
            original,
            original_code,
            plan,
            tool_fns,
            routines,
            analysis,
            policy,
        )?;
        let tramp_addr = alloc(prepared.tramp_bytes)?;
        prepared.finish(hal, tramp_addr)
    }

    /// Naive (pass-free) plan over the spec — the pre-plan pipeline shape.
    /// (The architecture only matters to the planner under the ICF
    /// exception, which `NO_ANALYSIS` is not.)
    fn plan_of(
        spec: &FuncSpec,
        body: &[Instruction],
        fns: &HashMap<String, ToolFn>,
    ) -> InstrumentationPlan {
        plan::build(spec, body, Arch::Volta, &NO_ANALYSIS, fns, PlanOpts::naive()).unwrap()
    }

    fn fake_info(addr: u64, reg_count: u32, arch: Arch) -> FunctionInfo {
        FunctionInfo {
            handle: CuFunction::from_raw(1),
            name: "k".into(),
            module: CuModule::from_raw(1),
            library: false,
            kind: ptx::FunctionKind::Entry,
            addr,
            code_len: 0,
            arch,
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

    fn setup(arch: Arch, text: &str) -> (Hal, FunctionInfo, Vec<Instruction>, Vec<u8>) {
        let hal = Hal::new(arch);
        let code = hal.assemble_text(text).unwrap();
        let instrs = hal.disassemble(&code).unwrap();
        let info = fake_info(0x4000, 12, arch);
        (hal, info, instrs, code)
    }

    fn tool_fns() -> HashMap<String, ToolFn> {
        let mut m = HashMap::new();
        m.insert("ifunc".to_string(), ToolFn::opaque(0x8000, 8, 16, false));
        m
    }

    #[test]
    fn trampoline_structure_matches_figure_4() {
        for arch in [Arch::Kepler, Arch::Volta] {
            let (hal, info, instrs, code) = setup(
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
                &code,
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
            assert_eq!(img.instrumented.len(), code.len());
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
        let (hal, info, instrs, code) = setup(
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
            &code,
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
        let bra = tramp[pos].clone();
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
        // planner's scaffold window and the tier loop's clobber window both
        // come from `arg_window`; the emitted code must write that far and
        // no further.
        let (hal, info, instrs, code) = setup(Arch::Volta, "NOP ;\nEXIT ;");
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
            &code,
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
            .flat_map(Instruction::reg_writes)
            .map(|r| r.0)
            .max()
            .unwrap();
        assert_eq!(arg_window(&args), 8);
        assert_eq!(highest_written + 1, arg_window(&args));
    }

    #[test]
    fn remove_orig_replaces_the_instruction_with_nop() {
        let (hal, info, instrs, code) = setup(
            Arch::Volta,
            "PROXY R4, R5, 0x1234 ;\n\
             EXIT ;",
        );
        let mut spec = FuncSpec::default();
        spec.insert_call(0, "ifunc", IPoint::Before);
        spec.remove_orig(0);
        let routines = fake_routines();
        let plan = plan_of(&spec, &instrs, &tool_fns());
        let (out, orig_pos, _) =
            emit_site(&hal, &info, &instrs, &plan, &tool_fns(), &routines[&16], 16, 0).unwrap();
        assert!(out.iter().all(|i| i.op != Op::Proxy));
        assert_eq!(out[orig_pos].op, Op::Nop);
        let _ = code;
    }

    #[test]
    fn removed_without_injection_becomes_inplace_nop() {
        let (hal, info, instrs, code) = setup(Arch::Volta, "BPT ;\nEXIT ;");
        let mut spec = FuncSpec::default();
        spec.remove_orig(0);
        let img = generate(
            &hal,
            &info,
            &instrs,
            &code,
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
        let (hal, info, instrs, _code) = setup(Arch::Maxwell, "IADD R4, R4, 0x1 ;\nEXIT ;");
        let mut spec = FuncSpec::default();
        spec.insert_call(0, "ifunc", IPoint::After);
        spec.insert_call(0, "ifunc", IPoint::Before);
        let routines = fake_routines();
        let plan = plan_of(&spec, &instrs, &tool_fns());
        let (out, orig_pos, metas) =
            emit_site(&hal, &info, &instrs, &plan, &tool_fns(), &routines[&16], 16, 0).unwrap();
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
        let (_hal, _info, instrs, _code) = setup(Arch::Volta, "NOP ;\nEXIT ;");
        let mut spec = FuncSpec::default();
        spec.insert_call(0, "missing", IPoint::Before);
        let e =
            plan::build(&spec, &instrs, Arch::Volta, &NO_ANALYSIS, &tool_fns(), PlanOpts::naive());
        assert!(matches!(e, Err(NvbitError::UnknownToolFunction(_))));
    }

    #[test]
    fn out_of_range_site_is_rejected() {
        let (_hal, _info, instrs, _code) = setup(Arch::Volta, "EXIT ;");
        let mut spec = FuncSpec::default();
        spec.insert_call(5, "ifunc", IPoint::Before);
        let e =
            plan::build(&spec, &instrs, Arch::Volta, &NO_ANALYSIS, &tool_fns(), PlanOpts::naive());
        assert!(matches!(e, Err(NvbitError::BadInstrIndex { .. })));
    }

    #[test]
    fn tier_selection_covers_function_tool_and_args() {
        let (hal, mut info, instrs, code) = setup(Arch::Volta, "NOP ;\nEXIT ;");
        info.reg_count = 40; // forces tier 64
        let mut spec = FuncSpec::default();
        spec.insert_call(0, "ifunc", IPoint::Before);
        spec.add_arg(0, Arg::RegVal(70)); // forces tier 128
        let img = generate(
            &hal,
            &info,
            &instrs,
            &code,
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
        let (hal, mut info, instrs, code) = setup(
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
            &code,
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
        let (hal, mut info, instrs, code) = setup(
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
            &code,
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
            &code,
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
        let (hal, mut info, instrs, code) = setup(Arch::Volta, "IADD R5, R4, 0x1 ;\nEXIT ;");
        info.reg_count = 40;
        let analysis = sass::Analysis::of(&instrs, Arch::Volta);
        let mut spec = FuncSpec::default();
        spec.insert_call(0, "ifunc", IPoint::Before);
        let img = generate(
            &hal,
            &info,
            &instrs,
            &code,
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
        let (hal, mut info, instrs, code) = setup(Arch::Volta, "IADD R5, R4, 0x1 ;\nEXIT ;");
        info.reg_count = 40;
        let analysis = sass::Analysis::of(&instrs, Arch::Volta);
        let mut fns = tool_fns();
        fns.insert("regapi".to_string(), ToolFn::opaque(0x8800, 8, 0, true));
        let mut spec = FuncSpec::default();
        spec.insert_call(0, "regapi", IPoint::Before);
        let img = generate(
            &hal,
            &info,
            &instrs,
            &code,
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
        let (hal, info, instrs, code) = setup(Arch::Volta, "IADD R5, R4, 0x1 ;\nEXIT ;");
        let analysis = sass::Analysis::of(&instrs, Arch::Volta);
        let mut spec = FuncSpec::default();
        spec.insert_call(0, "ifunc", IPoint::Before);
        spec.add_arg(0, Arg::RegVal(70)); // reading saved R70 needs its slot
        let img = generate(
            &hal,
            &info,
            &instrs,
            &code,
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
        let (hal, info, instrs, code) = setup(
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
            &code,
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
        let (hal, info, instrs, code) = setup(Arch::Volta, "NOP ;\nEXIT ;");
        let mut spec = FuncSpec::default();
        spec.insert_call(0, "ifunc", IPoint::Before);
        for _ in 0..7 {
            spec.add_arg(0, Arg::Imm64(1)); // 14 slots > 12 available
        }
        let e = generate(
            &hal,
            &info,
            &instrs,
            &code,
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
    fn leaf_fns(hal: &Hal, reg_count: u32) -> HashMap<String, ToolFn> {
        let code = hal.assemble_text("IADD R4, R4, 0x1 ;\nRET ;").unwrap();
        let body = hal.disassemble(&code).unwrap();
        let mut m = HashMap::new();
        m.insert(
            "leaf".to_string(),
            ToolFn::with_body(0x8000, reg_count, 0, false, body, hal.arch()),
        );
        m
    }

    #[test]
    fn leaf_classification() {
        let hal = Hal::new(Arch::Volta);
        let arch = hal.arch();
        let dis = |t: &str| hal.disassemble(&hal.assemble_text(t).unwrap()).unwrap();

        let leaf = dis("IADD R4, R4, 0x1 ;\nRET ;");
        assert_eq!(
            classify_body(&leaf, 8, 0, false, arch),
            (true, Some(5), Some(BodyShape::Straight))
        );

        // Calls, guarded trailing RET, the register device API, stack use
        // and oversized bodies all disqualify.
        let calls = dis("JCAL `0x100 ;\nRET ;");
        assert_eq!(classify_body(&calls, 8, 0, false, arch), (false, None, None));
        let guarded = dis("ISETP.EQ.S32 P1, R4, RZ ;\n@P1 RET ;");
        assert!(!classify_body(&guarded, 8, 0, false, arch).0);
        assert!(!classify_body(&leaf, 8, 0, true, arch).0, "reg-api");
        assert!(!classify_body(&leaf, 8, 64, false, arch).0, "stack");
        assert!(!classify_body(&leaf, INLINE_MAX_REGS + 1, 0, false, arch).0, "regs");
        let long: Vec<Instruction> = std::iter::repeat_with(Instruction::nop)
            .take(INLINE_MAX_INSTRS)
            .chain(dis("RET ;"))
            .collect();
        assert!(!classify_body(&long, 8, 0, false, arch).0, "size");

        // An early guarded branch to a merge label (single trailing RET —
        // what the PTX pipeline produces) classifies as a guarded diamond
        // and stays inlinable.
        let merged = dis("ISETP.EQ.S32 P1, R4, RZ ;\n\
             @P1 BRA done ;\n\
             IADD R5, R4, 0x1 ;\n\
             done:\n\
             RET ;");
        let (ok, ceiling, shape) = classify_body(&merged, 8, 0, false, arch);
        assert!(ok);
        assert_eq!(ceiling, Some(6));
        assert_eq!(shape, Some(BodyShape::Diamond));

        // A backward (loop) branch was loosely accepted by the old scan;
        // the shape classifier rejects it.
        let looped = dis("top:\nIADD R4, R4, 0x1 ;\n@P1 BRA top ;\nRET ;");
        assert!(!classify_body(&looped, 8, 0, false, arch).0, "loop");
    }

    #[test]
    fn inline_call_splices_the_body_and_drops_the_call_ret_pair() {
        let (hal, info, instrs, code) = setup(Arch::Volta, "IADD R7, R7, 0x1 ;\nEXIT ;");
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
            &code,
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
        assert_eq!(img.sites[0].calls[0].inline, Some((2, 2)));
        assert_eq!(img.plan.inlined_calls, 1);
    }

    #[test]
    fn inline_span_shifts_inside_the_pred_filter_diamond() {
        let (hal, info, instrs, _code) = setup(
            Arch::Volta,
            "ISETP.EQ.S32 P0, R4, RZ ;\n\
             @P0 IADD R7, R7, 0x1 ;\n\
             EXIT ;",
        );
        let fns = leaf_fns(&hal, 8);
        let mut spec = FuncSpec::default();
        spec.insert_call(1, "leaf", IPoint::Before);
        spec.set_pred_filter(1);
        let plan =
            plan::build(&spec, &instrs, Arch::Volta, &NO_ANALYSIS, &fns, PlanOpts::default())
                .unwrap();
        let routines = fake_routines();
        let (out, _, metas) =
            emit_site(&hal, &info, &instrs, &plan, &fns, &routines[&16], 16, 1).unwrap();
        let (off, len) = metas[0].inline.expect("inlined");
        assert_eq!(len, 2);
        assert_eq!(out[off].op, Op::Iadd, "{}", sass::asm::disassemble(&out));
        assert_eq!(out[off + 1].op, Op::Nop);
        assert_eq!(out[0].op, Op::Ssy);
        assert_eq!(out[1].op, Op::Bra);
    }

    #[test]
    fn coalesced_site_materializes_the_multiplicity_argument() {
        let (hal, info, instrs, code) = setup(
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
            PlanOpts { level: PlanLevel::Block, occupancy: None },
        )
        .unwrap();
        let img = generate(
            &hal,
            &info,
            &instrs,
            &code,
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
        assert_eq!(img.sites[0].calls[0].multiplicity, 4);
        assert_eq!(img.sites[0].calls[0].group, vec![0, 1, 2, 3]);
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
        let (hal, mut info, instrs, code) = setup(
            Arch::Volta,
            "IADD R5, R4, 0x1 ;\n\
             STG [R6], R90 ;\n\
             EXIT ;",
        );
        info.reg_count = 91;
        let analysis = sass::Analysis::of(&instrs, Arch::Volta);
        let mut spec = FuncSpec::default();
        spec.insert_call(0, "leaf", IPoint::Before);
        let run = |fns: &HashMap<String, ToolFn>| {
            let plan = plan_of(&spec, &instrs, fns);
            generate(
                &hal,
                &info,
                &instrs,
                &code,
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
        let mut opaque = HashMap::new();
        opaque.insert("leaf".to_string(), ToolFn::opaque(0x8000, 100, 0, false));
        let without = run(&opaque);
        assert_eq!(without.sites[0].tier, 128, "R90 inside the 100-register clobber window");
    }
}
