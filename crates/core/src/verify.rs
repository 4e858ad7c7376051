//! Pre-swap static verification of instrumented images.
//!
//! Before the core swaps a function to its instrumented version, the image
//! and its trampolines are checked statically: a malformed trampoline would
//! corrupt the *application*, not the tool, so failures must be caught
//! before the first instrumented launch (paper §5.1 — the swap is the
//! point of no return; §5.2 budgets it as part of JIT overhead).
//!
//! The verifier checks, per [`crate::codegen::InstrumentedImage`]:
//!
//! * every control-flow target lands on an instruction boundary inside the
//!   image, the trampoline region, or known external code (save/restore
//!   routines, tool functions, related functions);
//! * the image cannot fall off its last instruction, and every trampoline
//!   site ends with an unconditional jump back to the instruction after the
//!   one it instruments;
//! * Figure 4's other links hold against the original's bytes: the image is
//!   the original except for a jump to the start of each site's trampoline
//!   (and `NOP`s), and each site runs the instruction it displaced;
//! * register and predicate operands stay within the architectural bounds
//!   (including multi-register spans of wide loads/stores);
//! * operand lists match their opcode formats;
//! * trampoline save discipline, walked along every path of a site's
//!   injected code: a frame (a save routine's, or an exact bracket's) is
//!   open before any save-area access or tool call and closed again
//!   wherever the application resumes, accesses stay inside it, and
//!   whatever the injected code writes is dead there or saved and restored.

use crate::codegen::SiteMeta;
use crate::hal::Hal;
use crate::saverestore::frame_slots;
use common::InlineVec;
use sass::cfg::block_of;
use sass::op::CfClass;
use sass::pressure::BodyShape;
use sass::{Arch, Instruction, Op, Operand, Reg};
use std::sync::Arc;

/// Which code region a diagnostic points into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// The instrumented copy of the function body.
    Image,
    /// The trampoline region.
    Trampoline,
}

impl std::fmt::Display for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Region::Image => write!(f, "image"),
            Region::Trampoline => write!(f, "trampoline"),
        }
    }
}

/// The class of defect a diagnostic reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiagKind {
    /// A control-flow target is outside every known code region, or not on
    /// an instruction boundary.
    BranchTarget,
    /// Execution can run off the end of the image, or a trampoline site
    /// does not end with an unconditional jump back to the instruction after
    /// the one it instruments.
    FallThrough,
    /// The image and the original disagree outside Figure 4's links: the
    /// instruction at a site is not an unguarded jump to the start of the
    /// site's trampoline, the site's relocated original is neither the
    /// instruction it displaced (relative target re-relativised) nor a
    /// `NOP`, or an off-site instruction is neither the original's nor a
    /// `NOP`.
    LinkMismatch,
    /// A register operand (or its multi-register span) exceeds the
    /// register file.
    BadRegister,
    /// A predicate operand or guard exceeds the predicate file.
    BadPredicate,
    /// An operand list does not match its opcode's format.
    BadOperands,
    /// The save area is read (or a tool called) before the save routine
    /// has run.
    ReadBeforeSave,
    /// A restore call without a matching save.
    RestoreWithoutSave,
    /// The application resumes (at the relocated original, or behind the
    /// back-jump) with a save frame open or `R1` off its entry value.
    UnbalancedFrame,
    /// A coalesced call's bookkeeping is inconsistent: its multiplicity does
    /// not match its group size, its group is not anchored at the site, or
    /// a merge exists without a recoverable CFG to justify it.
    CoalesceMismatch,
    /// A coalesced group spans basic blocks of the original body that are
    /// not in the same dominator coalescing region (see [`sass::Dom`]): the
    /// member sites are not proven to execute exactly as often as the
    /// placement site.
    RegionMismatch,
    /// A lowered `IPoint::After` call's bookkeeping is inconsistent: a
    /// lowered origin is missing from the group, has no fall-through
    /// successor inside its own basic block, or there is no CFG to justify
    /// the move.
    AfterMismatch,
    /// An inline-spliced call does not reproduce the loaded tool function's
    /// body (trailing `RET` turned into a `NOP`) under one injective,
    /// aligned-pair-preserving renaming of registers and predicates.
    InlineMismatch,
    /// A save-area access addresses a slot outside the open frame: the
    /// site's save tier, or the bytes an exact bracket opened.
    TierExceeded,
    /// Injected code writes a register or predicate that is live at its
    /// injection point (per a dataflow analysis recomputed from the
    /// original bytes) without it being saved first and restored on every
    /// path: executing the site would corrupt the application's state.
    /// Re-proven here without trusting the planner or the code generator.
    PressureExceeded,
    /// The spliced instructions do not form a shape the body classifier
    /// accepts (a straight line or a single guarded diamond whose control
    /// flow stays inside the splice). Recomputed from the emitted
    /// trampoline bytes: an escaping or looping splice inside a
    /// trampoline would run code outside the save/restore bracket.
    DiamondMismatch,
}

/// One verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Defect class.
    pub kind: DiagKind,
    /// Region the offending instruction lives in.
    pub region: Region,
    /// Instruction index within the region.
    pub index: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    fn new(kind: DiagKind, region: Region, index: usize, message: String) -> Diagnostic {
        Diagnostic { kind, region, index, message }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?} at {} instruction {}: {}", self.kind, self.region, self.index, self.message)
    }
}

/// Code outside the image/trampoline that control flow may legitimately
/// reach: the embedded save/restore routines, the loaded tool functions and
/// the code regions of related functions.
#[derive(Debug, Clone, Default)]
pub struct ExternalCode {
    /// Save-routine entry addresses (one per tier).
    pub save_addrs: Vec<u64>,
    /// Restore-routine entry addresses (one per tier).
    pub restore_addrs: Vec<u64>,
    /// Tool-function entry addresses.
    pub tool_addrs: Vec<u64>,
    /// `[start, end)` byte ranges of other known device code (related
    /// functions the original body may call).
    pub code_regions: Vec<(u64, u64)>,
    /// Decoded bodies of loaded tool functions by name, for checking inline
    /// splices against the code they claim to reproduce, each with its
    /// splice shape ([`ExternalCode::load_tool_body`]).
    tool_bodies: Vec<(Arc<str>, ToolBody, Option<BodyShape>)>,
}

/// A loaded tool body, shared with its [`crate::codegen::ToolFn`].
type ToolBody = Arc<Vec<Instruction>>;

impl ExternalCode {
    /// Registers the decoded body of tool function `name` (shared with its
    /// [`crate::codegen::ToolFn`]), in place of any loaded under that name
    /// before, with its splice shape classified once.
    pub fn load_tool_body(&mut self, name: Arc<str>, body: ToolBody, arch: Arch) {
        let shape = splice_shape(&body[..body.len().saturating_sub(1)], arch);
        self.tool_bodies.retain(|(loaded, ..)| *loaded != name);
        self.tool_bodies.push((name, body, shape));
    }

    fn is_entry(&self, addr: u64) -> bool {
        self.save_addrs.contains(&addr)
            || self.restore_addrs.contains(&addr)
            || self.tool_addrs.contains(&addr)
            || self.code_regions.iter().any(|&(s, e)| addr >= s && addr < e)
    }
}

/// What the body classifier makes of a splice: `spliced` followed by the
/// unguarded `RET` its trailing `NOP` stands for.
fn splice_shape(spliced: &[Instruction], arch: Arch) -> Option<BodyShape> {
    sass::pressure::body_shape(&[spliced, &[Instruction::new(Op::Ret, [])]].concat(), arch)
}

/// The byte offset of a save-area access: a local load/store through the
/// stack pointer (`[R1 + off]`).
fn frame_offset(ins: &Instruction) -> Option<i32> {
    ins.operands.iter().find_map(|o| match o {
        Operand::MRef { base: Reg::SP, offset } if matches!(ins.op, Op::Ldl | Op::Stl) => {
            Some(*offset)
        }
        _ => None,
    })
}

/// What is known at one point of a site's injected code, on every path
/// reaching it.
#[derive(Clone, Copy, Default)]
struct Bracket {
    /// `R1` relative to its value at the injection point.
    sp: i64,
    /// Save-routine frames open.
    depth: u32,
    /// `(frame offset, register)` slots of the open exact frame that hold
    /// the application's value of the register: at most `INLINE_MAX_REGS`
    /// in an emitted frame. A store past 32 is not recorded, so its reload
    /// is not credited (a diagnostic more, never one less).
    stores: InlineVec<(i32, Reg), 32>,
    /// Registers and predicates that may no longer hold the application's
    /// value.
    dirty: sass::LiveSet,
}

impl Bracket {
    /// Joins the state of another path into this one; `false` when the
    /// paths disagree about the frame.
    fn join(&mut self, other: &Bracket) -> bool {
        self.stores.retain(|s| other.stores.contains(s));
        self.dirty.union_with(&other.dirty);
        (self.sp, self.depth) == (other.sp, other.depth)
    }
}

/// Walks one site's injected instructions along every path (its control
/// flow is forward-only: the predicate-filter wrapper and the spliced
/// diamond) and checks the save discipline against liveness recomputed
/// from the original bytes: frames balance, frame accesses stay inside
/// the open frame, and every register or predicate an injected instruction
/// writes is dead at that injection point (`live.0` before the relocated
/// original, `live.1` after it), or holds a value stored before the write
/// and reloaded on every path before the application runs again. `pending`
/// is the caller's scratch for the states waiting at forward targets.
fn check_brackets(
    hal: &Hal,
    site: &SiteMeta,
    body: &[Instruction],
    live: (sass::LiveSet, sass::LiveSet),
    ext: &ExternalCode,
    pending: &mut Vec<(usize, Bracket)>,
    diags: &mut Vec<Diagnostic>,
) {
    let isize = hal.instruction_size() as i64;
    let target = |pos: usize, ins: &Instruction| -> Option<usize> {
        let t = pos as i64 + 1 + ins.rel_target()? / isize;
        usize::try_from(t).ok().filter(|t| *t > pos && *t < body.len())
    };
    pending.clear();
    let mut cur = Some(Bracket::default());
    for (pos, ins) in body.iter().enumerate() {
        let mut diag = |kind, what: &str| {
            let message = format!("site for instruction {}: {what}", site.instr_idx);
            diags.push(Diagnostic::new(kind, Region::Trampoline, site.start + pos, message));
        };
        let mut balanced = true;
        pending.retain(|(t, arriving)| {
            if *t == pos {
                match cur.as_mut() {
                    Some(st) => balanced &= st.join(arriving),
                    None => cur = Some(*arriving),
                }
            }
            *t != pos
        });
        let Some(st) = cur.as_mut() else { continue };
        let live = if pos <= site.orig_pos { &live.0 } else { &live.1 };
        let live_reg = |r: Reg| r == Reg::SP || live.gprs.contains(r);
        if !balanced {
            diag(DiagKind::UnbalancedFrame, "paths join with different frames");
        }

        // The application runs again at the relocated original and behind
        // the back-jump: frames closed, live state restored.
        if pos == site.orig_pos || pos + 1 == body.len() {
            if st.sp != 0 || st.depth != 0 {
                let what = format!("R1 off by {}, {} save frame(s) open", st.sp, st.depth);
                diag(DiagKind::UnbalancedFrame, &what);
            }
            let lost = st.dirty.gprs.iter().find(|r| live_reg(Reg(*r)));
            let lost_preds = st.dirty.preds & live.preds;
            if lost.is_some() || lost_preds != 0 {
                let what = format!("live R{lost:?} / predicates {lost_preds:#x} not restored");
                diag(DiagKind::PressureExceeded, &what);
            }
            cur = Some(Bracket::default());
            continue;
        }

        let always = ins.guard.is_always();
        if let (Op::Jcal, Some(Operand::Abs(t))) = (ins.op, ins.operands.first()) {
            // The code generator never guards a routine call: a guarded one
            // may or may not open (or close) its frame.
            let routine = ext.save_addrs.contains(t) || ext.restore_addrs.contains(t);
            if routine && !always {
                diag(DiagKind::UnbalancedFrame, "guarded save or restore call");
            }
            if ext.save_addrs.contains(t) {
                st.depth += 1;
            } else if ext.restore_addrs.contains(t) && st.depth == 0 {
                diag(DiagKind::RestoreWithoutSave, "restore call without a matching save");
            } else if ext.restore_addrs.contains(t) {
                st.depth -= 1;
                (0..site.tier.min(255) as u8).for_each(|r| st.dirty.gprs.remove(Reg(r)));
                st.dirty.preds = 0;
            } else if ext.tool_addrs.contains(t) && st.depth == 0 {
                diag(DiagKind::ReadBeforeSave, "tool called before the thread state is saved");
            }
            continue;
        }
        if let (Op::Iadd, true, [Operand::Reg(Reg::SP), Operand::Reg(Reg::SP), Operand::Imm(by)]) =
            (ins.op, always, &ins.operands[..])
        {
            // Recorded offsets are relative to the `R1` that just moved.
            st.sp += by;
            st.stores = InlineVec::default();
            if st.sp > 0 {
                diag(DiagKind::UnbalancedFrame, "R1 raised past the frame it opened");
            }
            continue;
        }

        let (mut reload, off) = (false, frame_offset(ins));
        if let Some(off) = off {
            let slots = if st.depth > 0 { frame_slots(site.tier, hal) as i64 } else { -st.sp / 4 };
            if st.depth == 0 && st.sp >= 0 {
                diag(DiagKind::ReadBeforeSave, "save-area access with no frame open");
            } else if off < 0 || off as i64 + 4 * ins.mods.width.regs() as i64 > 4 * slots {
                let what = format!("[R1+{off:#x}] is outside the {slots} slots of the open frame");
                diag(DiagKind::TierExceeded, &what);
            }
        }
        match (ins.op, off, &ins.operands[..]) {
            // An unguarded one-word store of a register that still holds
            // the application's value saves it in that slot.
            (Op::Stl, Some(off), [_, Operand::Reg(r)])
                if always && off % 4 == 0 && *ins.reg_reads() == [Reg::SP, *r] =>
            {
                st.stores.retain(|(o, _)| *o != off);
                if st.depth == 0 && !st.dirty.gprs.contains(*r) {
                    let _ = st.stores.try_push((off, *r));
                }
            }
            // Any other local store may land on any slot.
            (Op::Stl, ..) => st.stores = InlineVec::default(),
            // An unguarded one-word load of the slot restores the register.
            (Op::Ldl, Some(off), [Operand::Reg(r), _])
                if always && *ins.reg_writes() == [*r] && st.stores.contains(&(off, *r)) =>
            {
                st.dirty.gprs.remove(*r);
                reload = true;
            }
            _ => {}
        }

        for &r in &ins.reg_writes() {
            let saved = (st.depth > 0 && u16::from(r.0) < site.tier)
                || st.stores.iter().any(|(_, s)| *s == r);
            if !reload && live_reg(r) && !saved {
                diag(DiagKind::PressureExceeded, &format!("live {r} written but not saved"));
            }
            if !reload {
                st.dirty.gprs.insert(r);
            }
        }
        // Only a save routine's frame holds the predicate file.
        let written = ins.pred_writes();
        let unsaved = if st.depth == 0 { written & live.preds } else { 0 };
        for p in (0..7).filter(|p| unsaved >> p & 1 == 1).map(sass::Pred) {
            diag(DiagKind::PressureExceeded, &format!("live {p} written but not saved"));
        }
        st.dirty.preds |= written;

        match ins.cf_class() {
            CfClass::RelBranch => {
                pending.extend(target(pos, ins).map(|t| (t, *st)));
                if always {
                    cur = None;
                }
            }
            CfClass::Sync => {
                let ssy = body.iter().enumerate().filter(|(_, i)| i.cf_class() == CfClass::Ssy);
                let ssy = ssy.filter_map(|(at, i)| target(at, i)).filter(|t| *t > pos);
                pending.extend(ssy.map(|t| (t, *st)));
            }
            _ => {}
        }
    }
}

/// True when `emitted` reproduces `loaded` under one renaming of registers
/// and predicates that is injective and moves aligned register pairs as
/// units (`RZ` and `PT` fixed) — every other field equal.
fn renamed_match(loaded: &[Instruction], emitted: &[Instruction]) -> bool {
    /// Binds `from ↦ to` unless either name is bound otherwise: `table`
    /// holds the renaming in its lower half and the inverse in its upper,
    /// so injectivity is one lookup.
    fn bind(table: &mut [Option<u8>], from: u8, to: u8) -> bool {
        let (f, t) = (from as usize, table.len() / 2 + to as usize);
        match (table[f], table[t]) {
            (None, None) => {
                (table[f], table[t]) = (Some(to), Some(from));
                true
            }
            bound => bound == (Some(to), Some(from)),
        }
    }
    let (mut pairs, mut preds) = ([None; 256], [None; 16]);
    (pairs[127], pairs[255], preds[7], preds[15]) = (Some(127), Some(127), Some(7), Some(7));
    let mut reg = |a: Reg, b: Reg| a.0 % 2 == b.0 % 2 && bind(&mut pairs, a.0 / 2, b.0 / 2);
    let mut pred = |a: sass::Pred, b: sass::Pred| bind(&mut preds, a.0 & 7, b.0 & 7);
    loaded.len() == emitted.len()
        && loaded.iter().zip(emitted).all(|(l, e)| {
            (l.op, l.mods, l.guard.negated, l.operands.len())
                == (e.op, e.mods, e.guard.negated, e.operands.len())
                && pred(l.guard.pred, e.guard.pred)
                && l.operands.iter().zip(&e.operands).all(|pair| match pair {
                    (Operand::Reg(a), Operand::Reg(b)) => reg(*a, *b),
                    (Operand::Pred { pred: a, negated }, Operand::Pred { pred: b, negated: n }) => {
                        negated == n && pred(*a, *b)
                    }
                    (Operand::MRef { base: a, offset }, Operand::MRef { base: b, offset: o }) => {
                        offset == o && reg(*a, *b)
                    }
                    (
                        Operand::CBank { bank, base: a, offset },
                        Operand::CBank { bank: k, base: b, offset: o },
                    ) => (bank, offset) == (k, o) && reg(*a, *b),
                    (a, b) => a == b,
                })
        })
}

/// Verifies an instrumented image plus trampoline against the `original`
/// body it was made from, all already disassembled. `sites` is the per-site
/// layout recorded by the code generator. Returns every defect found
/// (empty = image is safe to swap).
#[allow(clippy::too_many_arguments)] // three code regions, two of them placed
pub fn verify_instrs(
    hal: &Hal,
    original: &[Instruction],
    image_addr: u64,
    image: &[Instruction],
    tramp_addr: u64,
    tramp: &[Instruction],
    sites: &[SiteMeta],
    ext: &ExternalCode,
) -> Vec<Diagnostic> {
    let isize = hal.instruction_size();
    let image_end = image_addr + image.len() as u64 * isize;
    let tramp_end = tramp_addr + tramp.len() as u64 * isize;
    let mut diags = Vec::new();

    let in_image = |t: u64| t >= image_addr && t < image_end;
    let in_tramp = |t: u64| t >= tramp_addr && t < tramp_end;
    let target_ok = |t: u64| -> bool {
        if in_image(t) {
            (t - image_addr).is_multiple_of(isize)
        } else if in_tramp(t) {
            (t - tramp_addr).is_multiple_of(isize)
        } else {
            ext.is_entry(t)
        }
    };

    // Per-instruction structural checks over both regions.
    for (region, base, instrs) in
        [(Region::Image, image_addr, image), (Region::Trampoline, tramp_addr, tramp)]
    {
        for (index, ins) in instrs.iter().enumerate() {
            let mut bad = |kind, message| diags.push(Diagnostic::new(kind, region, index, message));
            if let Err(e) = ins.validate() {
                bad(DiagKind::BadOperands, e.to_string());
            }
            let operand_preds = ins.operands.iter().filter_map(|o| match o {
                Operand::Pred { pred, .. } => Some(*pred),
                _ => None,
            });
            for p in std::iter::once(ins.guard.pred).chain(operand_preds).filter(|p| p.0 > 7) {
                bad(DiagKind::BadPredicate, format!("{p} exceeds the predicate file"));
            }
            ins.each_span(|reg, span, _| {
                // RZ is a single pseudo-register; any other operand must fit
                // its whole span below R255.
                if !reg.is_zero() && reg.0 as usize + span - 1 > 254 {
                    let what = format!("{span}-register span at {reg} runs past the register file");
                    bad(DiagKind::BadRegister, what);
                }
            });
            let target = match ins.cf_class() {
                CfClass::RelBranch | CfClass::RelCall | CfClass::Ssy => ins
                    .rel_target()
                    .map(|off| (base + (index as u64 + 1) * isize).wrapping_add(off as u64)),
                CfClass::AbsJump | CfClass::AbsCall => ins.operands.iter().find_map(|o| match o {
                    Operand::Abs(t) => Some(*t),
                    _ => None,
                }),
                _ => None,
            };
            if let Some(t) = target.filter(|t| !target_ok(*t)) {
                bad(
                    DiagKind::BranchTarget,
                    format!("target {t:#x} is outside known code or misaligned"),
                );
            }
        }
    }

    // The image must not fall off its end; execution resumes behind a call.
    let leaves =
        |cf: CfClass| cf.ends_block() && !matches!(cf, CfClass::RelCall | CfClass::AbsCall);
    match image.last() {
        Some(last) if leaves(last.cf_class()) && last.guard.is_always() => {}
        Some(_) => {
            let (index, what) = (image.len() - 1, "execution can fall off the end of the image");
            diags.push(Diagnostic::new(DiagKind::FallThrough, Region::Image, index, what.into()));
        }
        None => {}
    }

    // Figure 4's links into the trampoline: at a site the image jumps to the
    // start of the site's code; everywhere else it is the original, or a
    // `NOP` (a removed instruction).
    let link =
        |region, index, message| Diagnostic::new(DiagKind::LinkMismatch, region, index, message);
    let jumps_to = |ins: &Instruction, pc: u64| {
        ins.op == Op::Jmp && ins.guard.is_always() && *ins.operands == [Operand::Abs(pc)]
    };
    if image.len() != original.len() {
        diags.push(link(Region::Image, 0, "the image is not the size of the original".into()));
    }
    let mut site_start: Vec<Option<u64>> = vec![None; image.len()];
    for site in sites {
        if let Some(slot) = site_start.get_mut(site.instr_idx) {
            *slot = Some(tramp_addr + site.start as u64 * isize);
        }
    }
    for (index, (ins, site_start)) in image.iter().zip(site_start).enumerate() {
        let (linked, what) = match site_start {
            Some(pc) => (jumps_to(ins, pc), "a jump to the start of its site"),
            None => {
                (original.get(index) == Some(ins) || *ins == Instruction::nop(), "the original's")
            }
        };
        if !linked {
            diags.push(link(Region::Image, index, format!("instruction is not {what}")));
        }
    }

    // Per-site trampoline discipline.
    for site in sites {
        let end = site.start + site.len;
        if end > tramp.len() || site.len == 0 {
            let i = site.instr_idx;
            let what = format!("site for instruction {i} extends past the trampoline region");
            let index = site.start.min(tramp.len().saturating_sub(1));
            diags.push(Diagnostic::new(DiagKind::FallThrough, Region::Trampoline, index, what));
            continue;
        }
        let body = &tramp[site.start..end];

        // The site runs the instruction it displaced, relative targets
        // adjusted for the move (a removed one is a `NOP`).
        let instr_pc = image_addr + site.instr_idx as u64 * isize;
        let moved =
            (tramp_addr + (site.start + site.orig_pos) as u64 * isize).wrapping_sub(instr_pc);
        let mut displaced = original.get(site.instr_idx).copied();
        if let Some(orig) = &mut displaced {
            if let Some(rel) = orig.rel_target() {
                orig.set_rel_target(rel.wrapping_sub(moved as i64));
            }
        }
        let relocated = body.get(site.orig_pos);
        if displaced.is_none()
            || (relocated != displaced.as_ref() && relocated != Some(&Instruction::nop()))
        {
            diags.push(link(
                Region::Trampoline,
                site.start + site.orig_pos.min(site.len - 1),
                format!("site does not run instruction {} of the original", site.instr_idx),
            ));
        }

        // The site must end with an unconditional jump back to the
        // instruction after the one it instruments, or with a relocated
        // original that itself unconditionally leaves the trampoline
        // (EXIT/RET/branch — target validity is checked by the
        // per-instruction pass above).
        let last = &body[site.len - 1];
        let exits_to_image = jumps_to(last, instr_pc + isize);
        let terminal_original = site.orig_pos == site.len - 1
            && last.guard.is_always()
            && matches!(
                last.cf_class(),
                CfClass::Exit
                    | CfClass::Ret
                    | CfClass::Trap
                    | CfClass::Sync
                    | CfClass::RelBranch
                    | CfClass::AbsJump
            );
        if !exits_to_image && !terminal_original {
            let i = site.instr_idx;
            let what = format!("site for instruction {i} does not end with a jump back behind it");
            diags.push(Diagnostic::new(DiagKind::FallThrough, Region::Trampoline, end - 1, what));
        }
    }

    diags
}

/// Plan-consistency checks: the coalescing and inlining bookkeeping the
/// code generator recorded per site must agree with the trampoline it
/// actually emitted and with the original body's basic-block structure.
/// Complements [`verify_instrs`] (which checks structural safety); run
/// both before a swap.
///
/// `original` is the *original* function body — coalesced groups must lie
/// within one of its basic blocks, since the merged call's exactness
/// argument (a block-constant active mask) holds only there. When static
/// CFG recovery fails on the body, any coalesced group is itself a defect:
/// the planner may not merge under the ICF exception.
pub fn verify_plan_instrs(
    hal: &Hal,
    original: &[Instruction],
    tramp: &[Instruction],
    sites: &[SiteMeta],
    ext: &ExternalCode,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    // Recomputed from the verifier's own decode of the original bytes —
    // never trusted from the lifter or the plan: region checks and save
    // brackets must hold against the body as the verifier sees it. `None`
    // when the body cannot be statically partitioned (merges are then
    // defects, and nothing is provably dead).
    let analysis = sass::Analysis::of(original, hal.arch()).ok();
    let blocks = analysis.as_ref().map(|a| &a.blocks);
    let dom = analysis.as_ref().map(|a| &a.dom);
    let dataflow = analysis.as_ref().map(|a| &a.liveness);
    let mut pending = Vec::new();
    let at = |kind, index, message| Diagnostic::new(kind, Region::Trampoline, index, message);

    for site in sites {
        let end = site.start + site.len;
        if end > tramp.len() || site.len == 0 {
            continue; // verify_instrs reports the structural defect
        }
        let body = &tramp[site.start..end];
        // Without a CFG nothing is provably dead: everything must be saved.
        let live = match dataflow.filter(|df| site.instr_idx < df.len()) {
            Some(df) => (*df.live_in(site.instr_idx), *df.live_out(site.instr_idx)),
            None => (sass::LiveSet::all(), sass::LiveSet::all()),
        };
        check_brackets(hal, site, body, live, ext, &mut pending, &mut diags);

        for call in &site.calls {
            let (func, i, group) = (&call.func, site.instr_idx, &call.group);
            // Coalescing bookkeeping: multiplicity matches the group, the
            // group is strictly ascending, and the call is anchored at its
            // first origin — directly, or at that origin's fall-through
            // slot when the origin was After-lowered.
            let anchored = match call.group.first() {
                Some(&first) => {
                    first == site.instr_idx
                        || (call.lowered.contains(&first) && first + 1 == site.instr_idx)
                }
                None => false,
            };
            let mut bad_group = call.multiplicity as usize != call.group.len()
                || !anchored
                || call.group.windows(2).any(|w| w[0] >= w[1]);
            if !bad_group && call.multiplicity > 1 && blocks.is_none() {
                // Merging without a CFG is never legitimate.
                bad_group = true;
            }
            if bad_group {
                let m = call.multiplicity;
                let what = format!(
                    "call to `{func}` at instruction {i} has multiplicity {m} but group {group:?}"
                );
                diags.push(at(DiagKind::CoalesceMismatch, site.start, what));
            }

            // After-lowering bookkeeping: every lowered origin must be a
            // group member whose fall-through slot stays inside its own
            // basic block (the move must never cross a taken branch).
            if !call.lowered.is_empty() {
                let mut bad_after = call.lowered.windows(2).any(|w| w[0] >= w[1])
                    || call.lowered.iter().any(|l| !call.group.contains(l));
                if !bad_after {
                    bad_after = match blocks {
                        Some(blocks) => call.lowered.iter().any(|&l| {
                            block_of(blocks, l).is_none()
                                || block_of(blocks, l + 1) != block_of(blocks, l)
                        }),
                        // Lowering without a CFG is never legitimate.
                        None => true,
                    };
                }
                if bad_after {
                    let what = format!(
                        "call to `{func}` at instruction {i} claims lowered origins {:?} \
                         inconsistent with group {group:?} or the CFG",
                        call.lowered
                    );
                    diags.push(at(DiagKind::AfterMismatch, site.start, what));
                }
            }

            // Region consistency: every merged origin's block must share
            // the placement site's coalescing region, which is exactly the
            // per-lane execution-count equivalence the merge relies on.
            if call.multiplicity > 1 {
                if let (Some(blocks), Some(dom)) = (blocks, dom) {
                    let bad_region = match block_of(blocks, site.instr_idx) {
                        Some(home) => call.group.iter().any(|&i| {
                            !block_of(blocks, i).is_some_and(|b| dom.same_region(home, b))
                        }),
                        None => true,
                    };
                    if bad_region {
                        let what = format!(
                            "call to `{func}` at instruction {i} merges group {group:?} across \
                             blocks outside the site's coalescing region"
                        );
                        diags.push(at(DiagKind::RegionMismatch, site.start, what));
                    }
                }
            }

            // Inline splices must reproduce the loaded tool body, up to
            // the site's register renaming.
            let Some((off, len)) = call.inline else { continue };
            let loaded = ext.tool_bodies.iter().find(|(name, ..)| *name == call.func);
            let matched = loaded.filter(|(_, fn_body, _)| {
                off + len <= site.len
                    && len > 0
                    && fn_body.len() == len
                    && fn_body.last().is_some_and(|i| i.op == Op::Ret)
                    && body[off + len - 1].op == Op::Nop
                    && renamed_match(&fn_body[..len - 1], &body[off..off + len - 1])
            });
            if matched.is_none() {
                let what = format!(
                    "inline splice of `{func}` at instruction {i} does not match the loaded body"
                );
                diags.push(at(DiagKind::InlineMismatch, site.start + off.min(site.len - 1), what));
            }
            if off + len > site.len || len == 0 {
                continue; // out-of-range splice: already reported above
            }

            // Shape check: a splice whose guarded branch escapes the splice
            // (or loops) would execute foreign code inside the save/restore
            // bracket, whatever body it matches. `body_shape` reads only
            // opcodes, relative targets and whether a guard is `PT`, all of
            // which a matching renaming keeps, so a matched splice takes the
            // shape its body was given at load; any other is classified
            // from its own emitted instructions.
            let shape = match matched {
                Some((.., shape)) => *shape,
                None => splice_shape(&body[off..off + len - 1], hal.arch()),
            };
            if shape.is_none() {
                let what = format!(
                    "inline splice of `{func}` at instruction {i} is not a straight line or a \
                     single guarded diamond contained in the splice"
                );
                diags.push(at(DiagKind::DiamondMismatch, site.start + off, what));
            }
        }
    }
    diags
}

/// Disassembles and verifies a generated image: structural checks
/// ([`verify_instrs`]) plus plan-consistency checks
/// ([`verify_plan_instrs`]).
///
/// # Errors
///
/// Decode failures on the image, trampoline or original bytes (anything
/// else is reported as diagnostics, not errors).
pub fn verify(
    hal: &Hal,
    image_addr: u64,
    original_code: &[u8],
    img: &crate::codegen::InstrumentedImage,
    ext: &ExternalCode,
) -> crate::Result<Vec<Diagnostic>> {
    let original = hal.disassemble(original_code)?;
    // Decode is a function of the word: an image word byte-equal to the
    // original's at its index is the instruction decoded there already.
    let size = hal.instruction_size() as usize;
    let image = if img.instrumented.len() == original_code.len() {
        let mut image = original.clone();
        let words = img.instrumented.chunks(size).zip(original_code.chunks(size));
        for (ins, (word, _)) in image.iter_mut().zip(words).filter(|(_, (w, was))| w != was) {
            *ins = hal.codec().decode(word)?;
        }
        image
    } else {
        hal.disassemble(&img.instrumented)?
    };
    let tramp = hal.disassemble(&img.tramp_code)?;
    let (tramp_addr, sites) = (img.tramp_addr, &img.sites);
    let mut diags =
        verify_instrs(hal, &original, image_addr, &image, tramp_addr, &tramp, sites, ext);
    diags.extend(verify_plan_instrs(hal, &original, &tramp, &img.sites, ext));
    Ok(diags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sass::{Arch, Mods, Width};

    const IMAGE_ADDR: u64 = 0x4000;
    const TRAMP_ADDR: u64 = 0x9000;
    const SAVE: u64 = 0x10_0000;
    const RESTORE: u64 = 0x20_0000;
    const TOOL: u64 = 0x8000;

    fn ext() -> ExternalCode {
        ExternalCode {
            save_addrs: vec![SAVE],
            restore_addrs: vec![RESTORE],
            tool_addrs: vec![TOOL],
            ..ExternalCode::default()
        }
    }

    fn hal() -> Hal {
        Hal::new(Arch::Volta)
    }

    fn jmp(addr: u64) -> Instruction {
        Instruction::new(Op::Jmp, [Operand::Abs(addr)])
    }

    fn jcal(addr: u64) -> Instruction {
        Instruction::new(Op::Jcal, [Operand::Abs(addr)])
    }

    /// A well-formed one-site image: `IADD; JMP tramp; EXIT` plus a
    /// Figure-4 trampoline.
    fn good() -> (Vec<Instruction>, Vec<Instruction>, Vec<SiteMeta>) {
        let image = vec![
            Instruction::new(
                Op::Iadd,
                [Operand::Reg(Reg(4)), Operand::Reg(Reg(4)), Operand::Imm(1)],
            ),
            jmp(TRAMP_ADDR),
            Instruction::new(Op::Exit, []),
        ];
        let isize = hal().instruction_size();
        let tramp = vec![
            jcal(SAVE),
            Instruction::new(Op::Mov, [Operand::Reg(Reg(0)), Operand::Reg(Reg::SP)]),
            jcal(TOOL),
            jcal(RESTORE),
            Instruction::new(
                Op::Iadd,
                [Operand::Reg(Reg(5)), Operand::Reg(Reg(5)), Operand::Imm(2)],
            ),
            jmp(IMAGE_ADDR + 2 * isize),
        ];
        let sites = vec![SiteMeta {
            instr_idx: 1,
            start: 0,
            len: tramp.len(),
            orig_pos: 4,
            tier: 16,
            calls: vec![],
        }];
        (image, tramp, sites)
    }

    /// Both halves of [`verify`], over the body `image` patches: the site's
    /// jump put back to the instruction the trampoline relocated.
    fn run(image: &[Instruction], tramp: &[Instruction], sites: &[SiteMeta]) -> Vec<Diagnostic> {
        let mut original = image.to_vec();
        for site in sites {
            original[site.instr_idx] = tramp[site.start + site.orig_pos];
        }
        run_against(&original, image, tramp, sites)
    }

    /// Both halves of [`verify`] against a given original body.
    fn run_against(
        original: &[Instruction],
        image: &[Instruction],
        tramp: &[Instruction],
        sites: &[SiteMeta],
    ) -> Vec<Diagnostic> {
        let (hal, ext) = (hal(), ext());
        let mut d =
            verify_instrs(&hal, original, IMAGE_ADDR, image, TRAMP_ADDR, tramp, sites, &ext);
        d.extend(run_plan(original, tramp, sites, &ext));
        d
    }

    /// The kinds reported for [`good`] after `corrupt` had its way with the
    /// image and the trampoline, verified against the body `good` was made
    /// from.
    fn corrupted(
        corrupt: impl FnOnce(&mut Vec<Instruction>, &mut Vec<Instruction>),
    ) -> Vec<DiagKind> {
        let (mut image, mut tramp, sites) = good();
        let mut original = image.clone();
        original[1] = tramp[4];
        corrupt(&mut image, &mut tramp);
        run_against(&original, &image, &tramp, &sites).iter().map(|d| d.kind).collect()
    }

    /// A hand-written exact bracket: `injected` in front of the first of
    /// three stores that keep R2:R3 and R4, R5, R6 live across the site.
    fn bracket(injected: &str) -> Vec<DiagKind> {
        let asm = |text: &str| sass::asm::assemble_arch(text, Arch::Volta).unwrap();
        let mut image = asm("STG [R2], R4 ;\nSTG [R2], R5 ;\nSTG [R2], R6 ;\nEXIT ;");
        let mut tramp = asm(injected);
        let orig_pos = tramp.len();
        tramp.push(std::mem::replace(&mut image[0], jmp(TRAMP_ADDR)));
        tramp.push(jmp(IMAGE_ADDR + hal().instruction_size()));
        let (len, calls) = (tramp.len(), vec![]);
        let site = SiteMeta { instr_idx: 0, start: 0, len, orig_pos, tier: 0, calls };
        run(&image, &tramp, &[site]).iter().map(|d| d.kind).collect()
    }

    #[test]
    fn exact_brackets_are_rederived_slot_by_slot() {
        let good = "IADD R1, R1, -0x8 ;\nSTL [R1], R4 ;\nSTL [R1+0x4], R6 ;\n\
                    MOV32I R4, 0x7 ;\nMOV32I R6, 0x7 ;\n\
                    LDL R4, [R1] ;\nLDL R6, [R1+0x4] ;\nIADD R1, R1, 0x8 ;";
        assert_eq!(bracket(good), vec![]);
        // A two-word reload of R4's slot also drops R6's value into live R5.
        let wide = good.replace("LDL R4, [R1] ;", "LDL.64 R4, [R1] ;");
        assert!(bracket(&wide).contains(&DiagKind::PressureExceeded));
        // R1 moves inside the open frame: `[R1]` is no longer R4's slot.
        let nested = "IADD R1, R1, -0x4 ;\nSTL [R1], R4 ;\nIADD R1, R1, -0x4 ;\n\
                      MOV32I R4, 0x7 ;\nLDL R4, [R1] ;\nIADD R1, R1, 0x8 ;";
        assert!(bracket(nested).contains(&DiagKind::PressureExceeded));
        // A guarded store may have replaced the saved value.
        let guarded = "IADD R1, R1, -0x4 ;\nSTL [R1], R4 ;\nMOV32I R4, 0x7 ;\n\
                       @P0 STL [R1], R4 ;\nLDL R4, [R1] ;\nIADD R1, R1, 0x4 ;";
        assert!(bracket(guarded).contains(&DiagKind::PressureExceeded));
        // A two-word store into the frame's last slot runs past it.
        let past = "IADD R1, R1, -0x4 ;\nSTL.64 [R1], R4 ;\nIADD R1, R1, 0x4 ;";
        assert!(bracket(past).contains(&DiagKind::TierExceeded));
    }

    #[test]
    fn a_well_formed_image_passes() {
        let (image, tramp, sites) = good();
        assert_eq!(run(&image, &tramp, &sites), vec![]);
    }

    #[test]
    fn out_of_range_branch_is_rejected() {
        let (mut image, tramp, sites) = good();
        // Branch way past the end of every known region.
        image[0] = Instruction::new(Op::Bra, [Operand::Rel(0x4_0000)]);
        let d = run(&image, &tramp, &sites);
        assert!(d.iter().any(|d| d.kind == DiagKind::BranchTarget && d.region == Region::Image));
    }

    #[test]
    fn misaligned_branch_target_is_rejected() {
        let (mut image, tramp, sites) = good();
        image[0] = Instruction::new(Op::Bra, [Operand::Rel(4)]); // mid-instruction
        let d = run(&image, &tramp, &sites);
        assert!(d.iter().any(|d| d.kind == DiagKind::BranchTarget));
    }

    #[test]
    fn fall_through_off_the_image_end_is_rejected() {
        let (mut image, _tramp, _sites) = good();
        image.truncate(1); // image now ends in a plain IADD
        let d = run(&image, &[], &[]);
        assert!(d.iter().any(|d| d.kind == DiagKind::FallThrough && d.region == Region::Image));
    }

    #[test]
    fn guarded_terminator_still_falls_through() {
        let (mut image, tramp, sites) = good();
        let n = image.len();
        image[n - 1] = Instruction::new(Op::Exit, [])
            .with_guard(sass::Guard { pred: sass::Pred(0), negated: false });
        let d = run(&image, &tramp, &sites);
        assert!(d.iter().any(|d| d.kind == DiagKind::FallThrough && d.region == Region::Image));
    }

    /// The kinds reported for `good()` with its trailing `EXIT` replaced by
    /// `last`.
    fn ending_in(last: Instruction) -> Vec<DiagKind> {
        let (mut image, tramp, sites) = good();
        image[2] = last;
        run(&image, &tramp, &sites).iter().map(|d| d.kind).collect()
    }

    #[test]
    fn an_image_ending_in_an_absolute_call_falls_off_its_end() {
        // Execution resumes behind the call, past the image.
        assert_eq!(ending_in(jcal(TOOL)), vec![DiagKind::FallThrough]);
    }

    #[test]
    fn an_image_ending_in_a_relative_call_falls_off_its_end() {
        let to_entry = -3 * hal().instruction_size() as i64;
        let cal = Instruction::new(Op::Cal, [Operand::Rel(to_entry)]);
        assert_eq!(ending_in(cal), vec![DiagKind::FallThrough]);
    }

    #[test]
    fn register_span_overflow_is_rejected() {
        let (mut image, tramp, sites) = good();
        // LDG.128 R253 spans R253..R256 — past the register file.
        image[0] = Instruction::new(
            Op::Ldg,
            [Operand::Reg(Reg(253)), Operand::MRef { base: Reg(8), offset: 0 }],
        )
        .with_mods(Mods { width: Width::B128, ..Mods::default() });
        let d = run(&image, &tramp, &sites);
        assert!(d.iter().any(|d| d.kind == DiagKind::BadRegister));
    }

    #[test]
    fn bad_predicate_is_rejected() {
        let (mut image, tramp, sites) = good();
        image[0] = image[0].with_guard(sass::Guard { pred: sass::Pred(9), negated: false });
        // Structural half only: P9 cannot be decoded from bytes, and the
        // liveness bitmask behind the plan half has no bit for it.
        let d =
            verify_instrs(&hal(), &image, IMAGE_ADDR, &image, TRAMP_ADDR, &tramp, &sites, &ext());
        assert!(d.iter().any(|d| d.kind == DiagKind::BadPredicate));
    }

    #[test]
    fn malformed_operand_lists_are_rejected() {
        let (mut image, tramp, sites) = good();
        image[0] = Instruction::new(Op::Iadd, [Operand::Reg(Reg(4))]); // arity 1, needs 3
        let d = run(&image, &tramp, &sites);
        assert!(d.iter().any(|d| d.kind == DiagKind::BadOperands));
    }

    #[test]
    fn unbalanced_frame_is_rejected() {
        let (image, mut tramp, sites) = good();
        tramp[3] = Instruction::nop(); // drop the restore call
        let d = run(&image, &tramp, &sites);
        assert!(d.iter().any(|d| d.kind == DiagKind::UnbalancedFrame));
    }

    #[test]
    fn restore_without_save_is_rejected() {
        let (image, mut tramp, sites) = good();
        tramp[0] = Instruction::nop(); // drop the save call
        let d = run(&image, &tramp, &sites);
        assert!(d.iter().any(|d| d.kind == DiagKind::RestoreWithoutSave));
    }

    #[test]
    fn a_guarded_save_call_is_rejected() {
        let p0 = sass::Guard { pred: sass::Pred(0), negated: false };
        let kinds = corrupted(|_, tramp| tramp[0] = jcal(SAVE).with_guard(p0));
        assert_eq!(kinds, vec![DiagKind::UnbalancedFrame]);
    }

    #[test]
    fn a_guarded_restore_call_is_rejected() {
        let not_p0 = sass::Guard { pred: sass::Pred(0), negated: true };
        let kinds = corrupted(|_, tramp| tramp[3] = jcal(RESTORE).with_guard(not_p0));
        assert_eq!(kinds, vec![DiagKind::UnbalancedFrame]);
    }

    #[test]
    fn tool_call_before_save_is_rejected() {
        let (image, mut tramp, sites) = good();
        tramp.swap(0, 2); // tool call now precedes the save
        let d = run(&image, &tramp, &sites);
        assert!(d.iter().any(|d| d.kind == DiagKind::ReadBeforeSave));
    }

    #[test]
    fn save_area_read_before_save_is_rejected() {
        let (image, mut tramp, sites) = good();
        tramp[0] = Instruction::new(
            Op::Ldl,
            [Operand::Reg(Reg(4)), Operand::MRef { base: Reg::SP, offset: 16 }],
        );
        let d = run(&image, &tramp, &sites);
        assert!(d.iter().any(|d| d.kind == DiagKind::ReadBeforeSave));
        assert!(
            d.iter()
                .any(|d| d.kind == DiagKind::UnbalancedFrame
                    || d.kind == DiagKind::RestoreWithoutSave)
        );
    }

    #[test]
    fn site_missing_terminal_jump_is_rejected() {
        let (image, mut tramp, sites) = good();
        let n = tramp.len();
        tramp[n - 1] = jmp(TRAMP_ADDR); // jumps inside the trampoline, not the image
        let d = run(&image, &tramp, &sites);
        assert!(d
            .iter()
            .any(|d| d.kind == DiagKind::FallThrough && d.region == Region::Trampoline));
    }

    // ----- Figure 4's links, one corruption each -------------------------

    #[test]
    fn a_back_jump_to_another_instruction_is_rejected() {
        assert_eq!(corrupted(|_, _| {}), vec![]);
        // Aligned and inside the image, but instruction 0 is not behind site 1.
        let kinds = corrupted(|_, tramp| tramp[5] = jmp(IMAGE_ADDR));
        assert_eq!(kinds, vec![DiagKind::FallThrough]);
    }

    #[test]
    fn a_site_jump_into_the_middle_of_its_site_is_rejected() {
        // Past the save call: the tool would run on unsaved state.
        let past_save = TRAMP_ADDR + hal().instruction_size();
        let kinds = corrupted(|image, _| image[1] = jmp(past_save));
        assert_eq!(kinds, vec![DiagKind::LinkMismatch]);
    }

    #[test]
    fn a_site_without_its_jump_is_rejected() {
        // A `NOP` is what a removed instruction becomes, but not at a site:
        // nothing would run the original instruction, or the tool.
        let kinds = corrupted(|image, _| image[1] = Instruction::nop());
        assert_eq!(kinds, vec![DiagKind::LinkMismatch]);
    }

    #[test]
    fn an_off_site_instruction_that_is_not_the_originals_is_rejected() {
        let kinds = corrupted(|image, _| image[0].operands[2] = Operand::Imm(2));
        assert_eq!(kinds, vec![DiagKind::LinkMismatch]);
        // Removing it is the one edit the image may make.
        assert_eq!(corrupted(|image, _| image[0] = Instruction::nop()), vec![]);
    }

    #[test]
    fn a_relocated_original_that_is_another_instruction_is_rejected() {
        let kinds = corrupted(|_, tramp| tramp[4].operands[2] = Operand::Imm(3));
        assert_eq!(kinds, vec![DiagKind::LinkMismatch]);
        assert_eq!(corrupted(|_, tramp| tramp[4] = Instruction::nop()), vec![]);
    }

    #[test]
    fn a_relocated_branch_must_reach_what_the_original_reached() {
        // Site 1 of a body whose instruction 1 branches to instruction 3;
        // the relocated copy sits at trampoline slot 4.
        let isize = hal().instruction_size() as i64;
        let (mut image, mut tramp, sites) = good();
        image.push(Instruction::new(Op::Exit, []));
        let mut original = image.clone();
        original[1] = Instruction::new(Op::Bra, [Operand::Rel(isize)])
            .with_guard(sass::Guard { pred: sass::Pred(0), negated: false });
        let reached = IMAGE_ADDR as i64 + 3 * isize;
        tramp[4] = original[1];
        tramp[4].set_rel_target(reached - (TRAMP_ADDR as i64 + 5 * isize));
        assert_eq!(run_against(&original, &image, &tramp, &sites), vec![]);
        // Copied without the adjustment it lands somewhere else.
        tramp[4] = original[1];
        let d = run_against(&original, &image, &tramp, &sites);
        assert!(d.iter().any(|d| d.kind == DiagKind::LinkMismatch), "{d:?}");
    }

    // ----- Plan-consistency checks ------------------------------------

    use crate::codegen::CallMeta;

    /// A two-block original body (`IADD; BRA +0; IADD; EXIT` → blocks
    /// 0..2 and 2..4) for exercising the group-per-block rule.
    fn original() -> Vec<Instruction> {
        vec![
            Instruction::new(
                Op::Iadd,
                [Operand::Reg(Reg(4)), Operand::Reg(Reg(4)), Operand::Imm(1)],
            ),
            Instruction::new(Op::Bra, [Operand::Rel(0)]),
            Instruction::new(
                Op::Iadd,
                [Operand::Reg(Reg(5)), Operand::Reg(Reg(5)), Operand::Imm(1)],
            ),
            Instruction::new(Op::Exit, []),
        ]
    }

    fn call_meta(multiplicity: u32, group: Vec<usize>) -> CallMeta {
        CallMeta {
            func: "f".into(),
            multiplicity,
            group,
            lowered: vec![],
            coalesce: true,
            inline: None,
        }
    }

    fn run_plan(
        original: &[Instruction],
        tramp: &[Instruction],
        sites: &[SiteMeta],
        ext: &ExternalCode,
    ) -> Vec<Diagnostic> {
        verify_plan_instrs(&hal(), original, tramp, sites, ext)
    }

    #[test]
    fn consistent_plan_metadata_passes() {
        let (_, tramp, mut sites) = good();
        sites[0].instr_idx = 0;
        sites[0].calls = vec![call_meta(2, vec![0, 1])]; // both in block 0..2
        assert_eq!(run_plan(&original(), &tramp, &sites, &ext()), vec![]);
    }

    #[test]
    fn multiplicity_must_match_the_group_size() {
        let (_, tramp, mut sites) = good();
        sites[0].instr_idx = 0;
        sites[0].calls = vec![call_meta(3, vec![0, 1])];
        let d = run_plan(&original(), &tramp, &sites, &ext());
        assert!(d.iter().any(|d| d.kind == DiagKind::CoalesceMismatch));
    }

    #[test]
    fn group_must_be_anchored_at_the_site_and_sorted() {
        let (_, tramp, mut sites) = good();
        sites[0].instr_idx = 0;
        sites[0].calls = vec![call_meta(2, vec![1, 0])]; // not sorted / not anchored
        let d = run_plan(&original(), &tramp, &sites, &ext());
        assert!(d.iter().any(|d| d.kind == DiagKind::CoalesceMismatch));
    }

    /// A conditional-skip body: `IADD; @P0 BRA +16; IADD; EXIT` → blocks
    /// 0..2, 2..3 (the guarded arm) and 3..4. The arm does not
    /// post-dominate the entry, so entry ↔ arm merges are illegal.
    fn conditional() -> Vec<Instruction> {
        let mut body = original();
        body[1] = Instruction::new(Op::Bra, [Operand::Rel(16)])
            .with_guard(sass::Guard { pred: sass::Pred(0), negated: false });
        body
    }

    #[test]
    fn coalesced_group_may_span_region_equivalent_blocks_only() {
        let (_, tramp, mut sites) = good();
        sites[0].instr_idx = 0;
        // original()'s two blocks are control- and cycle-equivalent (the
        // branch is unconditional): a cross-block group is legal.
        sites[0].calls = vec![call_meta(2, vec![0, 2])];
        assert_eq!(run_plan(&original(), &tramp, &sites, &ext()), vec![]);
        // In the conditional body, site 2 executes only when P0 is false:
        // merging it into the entry block is rejected.
        let d = run_plan(&conditional(), &tramp, &sites, &ext());
        assert!(d.iter().any(|d| d.kind == DiagKind::RegionMismatch));
        // The exit block (instr 3) post-dominates the entry again, so an
        // entry ↔ exit merge stays legal even in the conditional body.
        sites[0].calls = vec![call_meta(2, vec![0, 3])];
        assert_eq!(run_plan(&conditional(), &tramp, &sites, &ext()), vec![]);
        // A merge within one block remains fine.
        sites[0].instr_idx = 2;
        sites[0].calls = vec![call_meta(2, vec![2, 3])];
        assert_eq!(run_plan(&original(), &tramp, &sites, &ext()), vec![]);
    }

    /// A self-loop body: `IADD; @P0 BRA -32; EXIT` — block 0..2 cycles
    /// back to itself, block 2..3 runs once. Control-equivalent to the
    /// loop (entry dominates, exit post-dominates) but not
    /// cycle-equivalent, so merging across the loop boundary is illegal.
    fn looped() -> Vec<Instruction> {
        vec![
            Instruction::new(
                Op::Iadd,
                [Operand::Reg(Reg(4)), Operand::Reg(Reg(4)), Operand::Imm(1)],
            ),
            Instruction::new(Op::Bra, [Operand::Rel(-32)])
                .with_guard(sass::Guard { pred: sass::Pred(0), negated: false }),
            Instruction::new(Op::Exit, []),
        ]
    }

    #[test]
    fn coalesced_group_may_not_cross_a_loop_boundary() {
        let (_, tramp, mut sites) = good();
        sites[0].instr_idx = 0;
        sites[0].calls = vec![call_meta(2, vec![0, 2])];
        let d = run_plan(&looped(), &tramp, &sites, &ext());
        assert!(d.iter().any(|d| d.kind == DiagKind::RegionMismatch));
        // Within the loop block itself the merge is fine.
        sites[0].calls = vec![call_meta(2, vec![0, 1])];
        assert_eq!(run_plan(&looped(), &tramp, &sites, &ext()), vec![]);
    }

    #[test]
    fn lowered_calls_anchor_at_the_fall_through_slot() {
        let (_, tramp, mut sites) = good();
        // A lowered After-point from origin 0 is emitted at site 1.
        sites[0].instr_idx = 1;
        sites[0].calls = vec![CallMeta { lowered: vec![0], ..call_meta(1, vec![0]) }];
        assert_eq!(run_plan(&original(), &tramp, &sites, &ext()), vec![]);
        // Without the lowered marker the same metadata is mis-anchored.
        sites[0].calls = vec![call_meta(1, vec![0])];
        let d = run_plan(&original(), &tramp, &sites, &ext());
        assert!(d.iter().any(|d| d.kind == DiagKind::CoalesceMismatch));
    }

    #[test]
    fn lowered_origin_must_fall_through_within_its_block() {
        let (_, tramp, mut sites) = good();
        // Origin 1 is the block terminator: its fall-through slot (2) is
        // in the next block, so the claimed lowering crossed a branch.
        sites[0].instr_idx = 2;
        sites[0].calls = vec![CallMeta { lowered: vec![1], ..call_meta(1, vec![1]) }];
        let d = run_plan(&original(), &tramp, &sites, &ext());
        assert!(d.iter().any(|d| d.kind == DiagKind::AfterMismatch));
    }

    #[test]
    fn lowered_origins_must_be_group_members() {
        let (_, tramp, mut sites) = good();
        sites[0].instr_idx = 0;
        sites[0].calls = vec![CallMeta { lowered: vec![3], ..call_meta(2, vec![0, 1]) }];
        let d = run_plan(&original(), &tramp, &sites, &ext());
        assert!(d.iter().any(|d| d.kind == DiagKind::AfterMismatch));
    }

    #[test]
    fn lowering_without_a_cfg_is_rejected() {
        let (_, tramp, mut sites) = good();
        sites[0].instr_idx = 1;
        sites[0].calls = vec![CallMeta { lowered: vec![0], ..call_meta(1, vec![0]) }];
        let icf =
            vec![Instruction::new(Op::Brx, [Operand::Reg(Reg(4))]), Instruction::new(Op::Exit, [])];
        let d = run_plan(&icf, &tramp, &sites, &ext());
        assert!(d.iter().any(|d| d.kind == DiagKind::AfterMismatch));
    }

    #[test]
    fn merging_without_a_cfg_is_rejected() {
        let (_, tramp, mut sites) = good();
        sites[0].instr_idx = 0;
        sites[0].calls = vec![call_meta(2, vec![0, 1])];
        // BRX defeats static partitioning — merged groups are then illegal.
        let icf =
            vec![Instruction::new(Op::Brx, [Operand::Reg(Reg(4))]), Instruction::new(Op::Exit, [])];
        let d = run_plan(&icf, &tramp, &sites, &ext());
        assert!(d.iter().any(|d| d.kind == DiagKind::CoalesceMismatch));
    }

    /// Replaces `good()`'s tool call (position 2) with `body` plus the
    /// `NOP` its trailing `RET` becomes, inside the same save/restore pair.
    fn splice_over_call(
        tramp: &mut Vec<Instruction>,
        sites: &mut [SiteMeta],
        body: Vec<Instruction>,
    ) {
        let n = body.len();
        tramp.splice(2..3, body.into_iter().chain([Instruction::nop()]));
        sites[0].len += n;
        sites[0].orig_pos += n;
    }

    #[test]
    fn inline_splice_must_match_the_loaded_body() {
        let (_, mut tramp, mut sites) = good();
        let fn_body = vec![
            Instruction::new(
                Op::Iadd,
                [Operand::Reg(Reg(5)), Operand::Reg(Reg(5)), Operand::Imm(2)],
            ),
            Instruction::new(Op::Ret, []),
        ];
        let mut e = ext();
        e.load_tool_body("f".into(), fn_body.clone().into(), Arch::Volta);
        // Splice the body over the tool call: IADD at 2, its NOP at 3.
        let head = Instruction::new(
            Op::Iadd,
            [Operand::Reg(Reg(5)), Operand::Reg(Reg(5)), Operand::Imm(2)],
        );
        splice_over_call(&mut tramp, &mut sites, vec![head]);
        sites[0].calls =
            vec![CallMeta { inline: Some((2, 2)), ..call_meta(1, vec![sites[0].instr_idx]) }];
        assert_eq!(run_plan(&original(), &tramp, &sites, &e), vec![]);

        // A drifted splice (wrong immediate) is flagged.
        tramp[2] = Instruction::new(
            Op::Iadd,
            [Operand::Reg(Reg(5)), Operand::Reg(Reg(5)), Operand::Imm(3)],
        );
        let d = run_plan(&original(), &tramp, &sites, &e);
        assert!(d.iter().any(|d| d.kind == DiagKind::InlineMismatch));

        // So is a splice whose tool body was never retained.
        let d = run_plan(&original(), &tramp, &sites, &ext());
        assert!(d.iter().any(|d| d.kind == DiagKind::InlineMismatch));
    }

    #[test]
    fn pressure_exceeding_splice_is_rejected() {
        // Original body where R20 is live across instruction 1 (defined at
        // 0, read at 2).
        let original = vec![
            Instruction::new(
                Op::Iadd,
                [Operand::Reg(Reg(20)), Operand::Reg(Reg(20)), Operand::Imm(1)],
            ),
            Instruction::new(
                Op::Iadd,
                [Operand::Reg(Reg(4)), Operand::Reg(Reg(4)), Operand::Imm(1)],
            ),
            Instruction::new(
                Op::Iadd,
                [Operand::Reg(Reg(5)), Operand::Reg(Reg(20)), Operand::Imm(1)],
            ),
            Instruction::new(Op::Exit, []),
        ];
        // A loaded body that writes R20 — byte-matched by the splice, so
        // `InlineMismatch` stays silent; only the recomputed liveness
        // catches that tier 16 does not cover the clobber.
        let head = Instruction::new(
            Op::Iadd,
            [Operand::Reg(Reg(20)), Operand::Reg(Reg(20)), Operand::Imm(2)],
        );
        let fn_body = vec![head, Instruction::new(Op::Ret, [])];
        let mut e = ext();
        e.load_tool_body("f".into(), fn_body.clone().into(), Arch::Volta);
        let (_, mut tramp, mut sites) = good();
        splice_over_call(&mut tramp, &mut sites, vec![head]);
        sites[0].instr_idx = 1;
        sites[0].calls = vec![CallMeta { inline: Some((2, 2)), ..call_meta(1, vec![1]) }];
        let d = run_plan(&original, &tramp, &sites, &e);
        assert!(d.iter().any(|d| d.kind == DiagKind::PressureExceeded), "{d:?}");
        assert!(!d.iter().any(|d| d.kind == DiagKind::InlineMismatch), "{d:?}");

        // The same splice where R20 is dead (its last read is instruction
        // 2, so nothing is live across the exit) is fine.
        sites[0].instr_idx = 3;
        sites[0].calls = vec![CallMeta { inline: Some((2, 2)), ..call_meta(1, vec![3]) }];
        let d = run_plan(&original, &tramp, &sites, &e);
        assert!(!d.iter().any(|d| d.kind == DiagKind::PressureExceeded), "{d:?}");
    }

    #[test]
    fn escaping_diamond_splice_is_rejected() {
        // A "loaded" body whose guarded branch escapes past its RET: the
        // shape classifier rejects it, so even a byte-exact splice of it
        // must be refused — it would run foreign code inside the
        // save/restore bracket.
        let isize = hal().instruction_size() as i64;
        let fn_body = vec![
            Instruction::new(Op::Bra, [Operand::Rel(4 * isize)])
                .with_guard(sass::Guard { pred: sass::Pred(0), negated: false }),
            Instruction::new(
                Op::Iadd,
                [Operand::Reg(Reg(5)), Operand::Reg(Reg(5)), Operand::Imm(2)],
            ),
            Instruction::new(Op::Ret, []),
        ];
        let mut e = ext();
        e.load_tool_body("f".into(), fn_body.clone().into(), Arch::Volta);
        let (_, mut tramp, mut sites) = good();
        splice_over_call(&mut tramp, &mut sites, fn_body[..2].to_vec());
        sites[0].calls =
            vec![CallMeta { inline: Some((2, 3)), ..call_meta(1, vec![sites[0].instr_idx]) }];
        let d = run_plan(&original(), &tramp, &sites, &e);
        assert!(d.iter().any(|d| d.kind == DiagKind::DiamondMismatch), "{d:?}");
        assert!(!d.iter().any(|d| d.kind == DiagKind::InlineMismatch), "{d:?}");

        // The contained diamond — the branch landing exactly on the
        // splice's RET slot — is the accepted shape.
        let contained = vec![
            Instruction::new(Op::Bra, [Operand::Rel(isize)])
                .with_guard(sass::Guard { pred: sass::Pred(0), negated: false }),
            fn_body[1],
            Instruction::new(Op::Ret, []),
        ];
        let mut e = ext();
        e.load_tool_body("f".into(), contained.clone().into(), Arch::Volta);
        tramp[2] = contained[0];
        let d = run_plan(&original(), &tramp, &sites, &e);
        assert!(!d.iter().any(|d| d.kind == DiagKind::DiamondMismatch), "{d:?}");
    }

    /// `IADD R5, R5, 0x2` behind a `@P0 BRA` over `skip` instructions, then
    /// `RET`: a contained diamond for `skip` 1, an escaping one for 4.
    fn diamond(skip: i64) -> Vec<Instruction> {
        let isize = hal().instruction_size() as i64;
        vec![
            Instruction::new(Op::Bra, [Operand::Rel(skip * isize)])
                .with_guard(sass::Guard { pred: sass::Pred(0), negated: false }),
            Instruction::new(
                Op::Iadd,
                [Operand::Reg(Reg(5)), Operand::Reg(Reg(5)), Operand::Imm(2)],
            ),
            Instruction::new(Op::Ret, []),
        ]
    }

    /// The splice kinds reported for `body` without its `RET` spliced over
    /// `good()`'s tool call as a call to `f`, checked against `e`.
    fn splice_kinds(body: &[Instruction], e: &ExternalCode) -> Vec<DiagKind> {
        let (_, mut tramp, mut sites) = good();
        splice_over_call(&mut tramp, &mut sites, body[..body.len() - 1].to_vec());
        let inline = Some((2, body.len()));
        sites[0].calls = vec![CallMeta { inline, ..call_meta(1, vec![sites[0].instr_idx]) }];
        let kinds = run_plan(&original(), &tramp, &sites, e).into_iter().map(|d| d.kind);
        kinds
            .filter(|k| matches!(k, DiagKind::InlineMismatch | DiagKind::DiamondMismatch))
            .collect()
    }

    #[test]
    fn a_splice_that_does_not_match_its_body_is_shaped_from_what_was_emitted() {
        use DiagKind::{DiamondMismatch, InlineMismatch};
        let (escaping, contained) = (diamond(4), diamond(1));
        let mut e = ext();
        e.load_tool_body("f".into(), contained.clone().into(), Arch::Volta);
        // The loaded body's shape is accepted, the splice's is not.
        assert_eq!(splice_kinds(&escaping, &e), [InlineMismatch, DiamondMismatch]);
        // A drifted splice of an escaping body has a shape of its own.
        let mut drifted = contained;
        drifted[1].operands[2] = Operand::Imm(3);
        e.load_tool_body("f".into(), escaping.clone().into(), Arch::Volta);
        assert_eq!(splice_kinds(&drifted, &e), [InlineMismatch]);
    }

    #[test]
    fn a_reloaded_tool_body_brings_its_own_shape() {
        use DiagKind::{DiamondMismatch, InlineMismatch};
        let (escaping, contained) = (diamond(4), diamond(1));
        let mut e = ext();
        e.load_tool_body("f".into(), escaping.clone().into(), Arch::Volta);
        assert_eq!(splice_kinds(&escaping, &e), [DiamondMismatch]);
        e.load_tool_body("f".into(), contained.clone().into(), Arch::Volta);
        assert_eq!(splice_kinds(&contained, &e), []);
        assert_eq!(splice_kinds(&escaping, &e), [InlineMismatch, DiamondMismatch]);
        e.load_tool_body("f".into(), escaping.clone().into(), Arch::Volta);
        assert_eq!(splice_kinds(&escaping, &e), [DiamondMismatch]);
        assert_eq!(splice_kinds(&contained, &e), [InlineMismatch]);
    }

    #[test]
    fn save_area_access_beyond_the_tier_is_rejected() {
        let (_, mut tramp, mut sites) = good();
        sites[0].instr_idx = 0;
        // Tier 16 on Volta addresses slots 0..=17 (16 regs + preds +
        // barrier state); slot 18 is out of frame.
        let slots = frame_slots(16, &hal());
        assert_eq!(slots, 18);
        // An argument load inside the bracket, ahead of the tool call.
        tramp.insert(
            2,
            Instruction::new(
                Op::Ldl,
                [Operand::Reg(Reg(4)), Operand::MRef { base: Reg::SP, offset: 4 * slots as i32 }],
            ),
        );
        sites[0].len += 1;
        sites[0].orig_pos += 1;
        let d = run_plan(&original(), &tramp, &sites, &ext());
        assert!(d.iter().any(|d| d.kind == DiagKind::TierExceeded));
        // The slot just below the bound is fine.
        tramp[2] = Instruction::new(
            Op::Ldl,
            [Operand::Reg(Reg(4)), Operand::MRef { base: Reg::SP, offset: 4 * (slots as i32 - 1) }],
        );
        assert_eq!(run_plan(&original(), &tramp, &sites, &ext()), vec![]);
    }

    #[test]
    fn relocated_original_may_use_the_stack() {
        let (image, mut tramp, mut sites) = good();
        // The relocated original is a local store at depth 0 — legitimate.
        tramp[4] = Instruction::new(
            Op::Stl,
            [Operand::MRef { base: Reg::SP, offset: 8 }, Operand::Reg(Reg(5))],
        );
        sites[0].orig_pos = 4;
        assert_eq!(run(&image, &tramp, &sites), vec![]);
    }
}
