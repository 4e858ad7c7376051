//! Pre-swap static verification of instrumented images.
//!
//! Before the core swaps a function to its instrumented version, the image
//! and its trampolines are checked statically: a malformed trampoline would
//! corrupt the *application*, not the tool, so failures must be caught
//! before the first instrumented launch (paper §5.1 — the swap is the
//! point of no return; §5.2 budgets it as part of JIT overhead).
//!
//! The verifier takes the build's own decode of the original, its
//! [`sass::Analysis`], the [`InstrumentationPlan`] made of them and the
//! core's tool-function and routine tables ([`Request`]): a second run of the
//! pure planner could only agree with the first. Only the image is decoded
//! here, since the image is what is checked, site by site, in one walk:
//!
//! * the sites are the plan's, and each site's calls, in Before → relocated
//!   original → After order, are the plan's tool functions, spliced or
//!   called as planned, each splice its body renamed, in an accepted shape;
//! * Figure 4's links: the image is the original but for a jump to each
//!   site and a `NOP` where the plan removes an instruction; a site runs
//!   what it displaced and jumps back behind it; nothing falls off the end;
//! * control-flow targets are instruction boundaries of the image or the
//!   trampolines, or routine, tool or related-function code; register
//!   spans fit the register file;
//! * save discipline on every path of a site: a frame is open before any
//!   save-area access or tool call and closed wherever the application
//!   resumes, accesses stay inside it, and what is written is dead there
//!   or saved and restored;
//! * effect lowering: each lowered call is the plan's code, verbatim; only
//!   the zeroing opening instruction 0's site, that code and the flush ahead
//!   of each relocated `EXIT`, under its guard, name a reserved register;
//!   the original never does.
//!
//! Not checked: what decoding guarantees (each operand list in its opcode's
//! format, no predicate past `P7`), and how the planner grouped calls, which
//! the `plan` unit tests and the plan-ladder differential pin.

use crate::codegen::{SiteMeta, ToolFns};
use crate::hal::Hal;
use crate::plan::{InstrumentationPlan, PlannedCall};
use crate::saverestore::{frame_slots, Routines};
use crate::spec::IPoint;
use common::InlineVec;
use sass::op::CfClass;
use sass::{Analysis, Instruction, Op, Operand, Reg};
use std::collections::HashMap;

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

/// The class of defect a diagnostic reports; a retired kind's number stays
/// unused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum DiagKind {
    /// A control-flow target is outside every known code region, or not on
    /// an instruction boundary.
    BranchTarget = 0,
    /// Execution can run off the end of the image, or a site does not end
    /// with an unconditional jump back behind the instruction it instruments.
    FallThrough = 1,
    /// The image and the original disagree outside Figure 4's links: a site
    /// is not an unguarded jump to its trampoline, or a relocated original
    /// (relative target adjusted) or off-site instruction is not the
    /// original's — or its `NOP` where, and only where, the plan removes it.
    LinkMismatch = 2,
    /// A register operand or its multi-register span exceeds the file.
    BadRegister = 3,
    /// The save area is read (or a tool called) with no frame open.
    ReadBeforeSave = 6,
    /// A restore call without a matching save.
    RestoreWithoutSave = 7,
    /// The application resumes (at the relocated original, or behind the
    /// back-jump) with a save frame open or `R1` off its entry value.
    UnbalancedFrame = 8,
    /// A splice does not reproduce the loaded tool body (trailing `RET` a
    /// `NOP`) under one injective, aligned-pair-preserving renaming.
    InlineMismatch = 12,
    /// A save-area access addresses a slot outside the open frame: the
    /// site's save tier, or the bytes an exact bracket opened.
    TierExceeded = 13,
    /// Injected code writes a register or predicate live at its injection
    /// point (recomputed liveness) without saving and restoring it.
    PressureExceeded = 14,
    /// A splice is not a straight line or one guarded diamond contained in
    /// it (the body classifier's shapes): it would run code outside.
    DiamondMismatch = 15,
    /// The image is not the plan it was built from: a site is
    /// missing or unplanned, or its calls are not the plan's (function,
    /// count, or spliced where the plan calls out of line and vice versa).
    PlanMismatch = 16,
    /// The original, or an instruction other than the zeroing, a lowered
    /// call's code or a flush, names a reserved register; or the zeroing of
    /// every pair or their flush under an `EXIT`'s guard is missing.
    PromotionMismatch = 17,
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

/// The tables the core served an image's plan from, beside that plan.
#[derive(Clone, Copy)]
pub struct Request<'a> {
    /// The loaded tool functions.
    pub tool_fns: &'a ToolFns,
    /// The save/restore routines, by tier.
    pub routines: &'a HashMap<u16, Routines>,
    /// `[start, end)` byte ranges of the functions the original may call:
    /// the one code instrumented control flow may reach that no table holds.
    pub related: &'a [(u64, u64)],
}

impl Request<'_> {
    fn is_save(&self, addr: u64) -> bool {
        self.routines.values().any(|r| r.save_addr == addr)
    }

    fn is_restore(&self, addr: u64) -> bool {
        self.routines.values().any(|r| r.restore_addr == addr)
    }

    fn is_routine(&self, addr: u64) -> bool {
        self.is_save(addr) || self.is_restore(addr)
    }

    fn is_tool(&self, addr: u64) -> bool {
        self.tool_fns.values().any(|f| f.addr == addr)
    }
}

/// What is known at one point of a site's injected code, on every path
/// reaching it.
#[derive(Clone, Copy, Default)]
struct Bracket {
    /// `R1` relative to its value at the injection point.
    sp: i64,
    /// Save-routine frames open.
    depth: u32,
    /// `(frame offset, register)` slots of the open exact frame holding the
    /// application's value (at most `INLINE_MAX_REGS` are emitted; a store
    /// past 32 is not recorded: a diagnostic more, never one less).
    stores: InlineVec<(i32, Reg), 32>,
    /// Registers and predicates that may no longer hold their values.
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

/// Walks a site's injected code along every (forward-only) path and checks
/// the save discipline against recomputed liveness: frames balance, frame
/// accesses stay inside the open frame, and whatever is written is dead at
/// its injection point (`live.0` before the relocated original, `live.1`
/// after it) or stored before and reloaded on every path before the
/// application runs again. `pending` is scratch for forward targets.
fn check_brackets(
    hal: &Hal,
    (site, body): (&SiteMeta, &[Instruction]),
    live: (sass::LiveSet, sass::LiveSet),
    req: &Request<'_>,
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
            let (save, restore) = (req.is_save(*t), req.is_restore(*t));
            if (save || restore) && !always {
                diag(DiagKind::UnbalancedFrame, "guarded save or restore call");
            }
            if save {
                st.depth += 1;
            } else if restore && st.depth == 0 {
                diag(DiagKind::RestoreWithoutSave, "restore call without a matching save");
            } else if restore {
                st.depth -= 1;
                (0..site.tier.min(255) as u8).for_each(|r| st.dirty.gprs.remove(Reg(r)));
                st.dirty.preds = 0;
            } else if req.is_tool(*t) && st.depth == 0 {
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

        // A save-area access: a local load or store through `[R1 + off]`.
        let off = ins.operands.iter().find_map(|o| match o {
            Operand::MRef { base: Reg::SP, offset } if matches!(ins.op, Op::Ldl | Op::Stl) => {
                Some(*offset)
            }
            _ => None,
        });
        let mut reload = false;
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

/// An instrumented image as the walker reads it: both code regions decoded
/// and placed, and the code generator's layout of the trampoline sites.
struct Decoded<'a> {
    image_addr: u64,
    image: &'a [Instruction],
    tramp_addr: u64,
    tramp: &'a [Instruction],
    sites: &'a [SiteMeta],
}

/// A site's calls against the plan's, in emission order: Before calls, the
/// relocated original, then (if it `falls_through`) After calls. Each is
/// spliced, called or lowered as planned, a call unguarded and on its side
/// of the original, a splice its body renamed, in an accepted shape, a
/// lowered call the plan's code. `report` takes a position within the site.
fn check_calls(
    hal: &Hal,
    req: &Request<'_>,
    (site, body): (&SiteMeta, &[Instruction]),
    planned: &[PlannedCall],
    falls_through: bool,
    mut report: impl FnMut(DiagKind, usize, String),
) {
    let i = site.instr_idx;
    let after = |c: &&PlannedCall| c.ipoint == IPoint::After;
    let emitted = || {
        planned
            .iter()
            .filter(|c| !after(c))
            .chain(planned.iter().filter(after).filter(|_| falls_through))
    };
    let called = emitted().filter(|c| !c.inline && c.promoted.is_empty());
    let called = called.map(|c| (after(&c), req.tool_fns.get(&c.func).map(|f| f.addr)));
    let calls =
        body.iter().enumerate().filter_map(|(pos, ins)| match (ins.op, ins.operands.first()) {
            (Op::Jcal, Some(&Operand::Abs(t))) if pos != site.orig_pos && !req.is_routine(t) => {
                Some((pos > site.orig_pos, ins.guard.is_always().then_some(t)))
            }
            _ => None,
        });
    if emitted().count() != site.calls.len() || !called.eq(calls) {
        report(DiagKind::PlanMismatch, 0, format!("site {i} does not make the plan's calls"));
    }

    for (call, splice) in emitted().zip(&site.calls) {
        let func = &call.func;
        if (call.inline || !call.promoted.is_empty()) != splice.is_some() {
            let what = format!("`{func}` at {i} is not spliced or called as the plan has it");
            report(DiagKind::PlanMismatch, 0, what);
        }
        let Some((off, len)) = *splice else { continue };
        if !call.promoted.is_empty() {
            if body.get(off..off + len) != Some(&call.promoted[..]) {
                let what = format!("`{func}` at {i} is not its lowered code");
                report(DiagKind::PlanMismatch, off.min(site.len - 1), what);
            }
            continue;
        }
        let tool = req.tool_fns.get(func);
        let loaded = tool.and_then(|t| t.body.as_deref()).filter(|fn_body| {
            off + len <= site.len
                && len > 0
                && fn_body.len() == len
                && fn_body.last().is_some_and(|i| i.op == Op::Ret)
                && body[off + len - 1].op == Op::Nop
                && renamed_match(&fn_body[..len - 1], &body[off..off + len - 1])
        });
        if loaded.is_none() {
            let what = format!("splice of `{func}` at {i} does not match the loaded body");
            report(DiagKind::InlineMismatch, off.min(site.len - 1), what);
        }
        if off + len > site.len || len == 0 {
            continue; // out of range: already reported
        }
        // An escaping or looping splice runs foreign code in the bracket.
        // A renaming keeps all `body_shape` reads, so a matched splice has
        // its body's shape, classified at load for every body the planner
        // splices (`ToolFn::inlinable`); an unmatched one is classified as
        // emitted, its `NOP` standing for the `RET`.
        let shaped = match loaded {
            Some(_) if tool.is_some_and(|t| t.inlinable) => true,
            Some(b) => sass::pressure::body_shape(b, hal.arch()).is_some(),
            None => {
                let spliced = [&body[off..off + len - 1], &[Instruction::new(Op::Ret, [])]];
                sass::pressure::body_shape(&spliced.concat(), hal.arch()).is_some()
            }
        };
        if !shaped {
            let what = format!("splice of `{func}` at {i} is not a line or a contained diamond");
            report(DiagKind::DiamondMismatch, off, what);
        }
    }
}

/// Checks `img` against `plan`, built over `original` and its `analysis`
/// (`None` without a CFG: nothing is then provably dead). Returns every
/// defect (empty = safe to swap).
fn walk(
    hal: &Hal,
    req: &Request<'_>,
    original: &[Instruction],
    analysis: Option<&Analysis>,
    plan: &InstrumentationPlan,
    img: &Decoded<'_>,
) -> Vec<Diagnostic> {
    let isize = hal.instruction_size();
    let mut diags = Vec::new();
    let regions = [
        (Region::Image, img.image_addr, img.image),
        (Region::Trampoline, img.tramp_addr, img.tramp),
    ];
    let inside =
        |t: u64| regions.into_iter().find(|r| (r.1..r.1 + r.2.len() as u64 * isize).contains(&t));
    let external = |t| {
        req.is_routine(t) || req.is_tool(t) || req.related.iter().any(|r| (r.0..r.1).contains(&t))
    };
    let target_ok =
        |t: u64| inside(t).map_or_else(|| external(t), |r| (t - r.1).is_multiple_of(isize));
    for (region, base, instrs) in regions {
        for (index, ins) in instrs.iter().enumerate() {
            let mut bad = |kind, message| diags.push(Diagnostic::new(kind, region, index, message));
            ins.each_span(|reg, span, _| {
                // RZ is a single pseudo-register; any other operand must fit
                // its whole span below R255.
                if !reg.is_zero() && reg.0 as usize + span - 1 > 254 {
                    bad(DiagKind::BadRegister, format!("{span} registers at {reg} overflow"));
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
                let what = format!("target {t:#x} is outside known code or misaligned");
                bad(DiagKind::BranchTarget, what);
            }
        }
    }

    // The image does not fall off its end (execution resumes behind a call),
    // and it is the original, as the plan removes from it, but for a jump
    // to the start of each of the plan's sites.
    let in_image = |kind, index, message| Diagnostic::new(kind, Region::Image, index, message);
    let (promotion, owned) = (&plan.promotion, plan.promotion.registers());
    let names = |i: &Instruction| {
        [i.reg_reads(), i.reg_writes()].iter().flatten().any(|r| owned.contains(&r.0))
    };
    if let Some(index) = original.iter().position(names) {
        let what = "the original names a reserved register".into();
        diags.push(in_image(DiagKind::PromotionMismatch, index, what));
    }
    if img.image.last().is_some_and(|l| !l.leaves()) {
        let what = "execution can fall off the end of the image".into();
        diags.push(in_image(DiagKind::FallThrough, img.image.len() - 1, what));
    }
    let applied = |index: usize| {
        let removed = plan.removed.contains(&index);
        original.get(index).map(|o| if removed { Instruction::nop() } else { *o })
    };
    let jumps_to = |ins: &Instruction, pc: u64| {
        ins.op == Op::Jmp && ins.guard.is_always() && *ins.operands == [Operand::Abs(pc)]
    };
    let site_pc = |site: &SiteMeta| img.tramp_addr + site.start as u64 * isize;
    if img.image.len() != original.len() {
        let what = "the image is not the size of the original".into();
        diags.push(in_image(DiagKind::LinkMismatch, 0, what));
    }
    let mut site_at: Vec<Option<u64>> = vec![None; img.image.len()];
    for site in img.sites {
        if let Some(slot) = site_at.get_mut(site.instr_idx) {
            *slot = Some(site_pc(site));
        }
    }
    for &idx in plan.sites.keys().filter(|i| site_at.get(**i).copied().flatten().is_none()) {
        let what = "a planned site is not instrumented".into();
        diags.push(in_image(DiagKind::PlanMismatch, idx, what));
    }
    for (index, (ins, site_pc)) in img.image.iter().zip(site_at).enumerate() {
        let (linked, what) = match site_pc {
            Some(pc) => (jumps_to(ins, pc), "a jump to the start of its site"),
            None => (applied(index) == Some(*ins), "what the original runs there"),
        };
        if !linked {
            let what = format!("instruction is not {what}");
            diags.push(in_image(DiagKind::LinkMismatch, index, what));
        }
    }

    let mut pending = Vec::new();
    for site in img.sites {
        let (i, end) = (site.instr_idx, site.start + site.len);
        if end > img.tramp.len() || site.len == 0 {
            let what = format!("site for instruction {i} extends past the trampoline region");
            let index = site.start.min(img.tramp.len().saturating_sub(1));
            diags.push(Diagnostic::new(DiagKind::FallThrough, Region::Trampoline, index, what));
            continue;
        }
        let body = &img.tramp[site.start..end];
        let at = |kind, pos, message| {
            Diagnostic::new(kind, Region::Trampoline, site.start + pos, message)
        };

        // The site runs the instruction it displaced, relative target
        // adjusted for the move, and ends with an unconditional jump back
        // behind it, unless that instruction itself leaves the trampoline.
        let instr_pc = img.image_addr + i as u64 * isize;
        let moved = (site_pc(site) + site.orig_pos as u64 * isize).wrapping_sub(instr_pc);
        let mut displaced = applied(i);
        if let Some(orig) = &mut displaced {
            if let Some(rel) = orig.rel_target() {
                orig.set_rel_target(rel.wrapping_sub(moved as i64));
            }
        }
        if displaced.is_none() || body.get(site.orig_pos) != displaced.as_ref() {
            let what = format!("site does not run instruction {i} of the original");
            diags.push(at(DiagKind::LinkMismatch, site.orig_pos.min(site.len - 1), what));
        }
        let last = &body[site.len - 1];
        if !(jumps_to(last, instr_pc + isize) || (site.orig_pos == site.len - 1 && last.leaves())) {
            let what = format!("site for instruction {i} does not end with a jump back behind it");
            diags.push(at(DiagKind::FallThrough, site.len - 1, what));
        }

        // Without a CFG nothing is provably dead: everything must be saved.
        let live = match analysis.map(|a| &a.liveness).filter(|df| i < df.len()) {
            Some(df) => (*df.live_in(i), *df.live_out(i)),
            None => (sass::LiveSet::all(), sass::LiveSet::all()),
        };
        check_brackets(hal, (site, body), live, req, &mut pending, &mut diags);

        // Effect lowering: the zeroing opens instruction 0's site, the flush
        // ends an `EXIT`'s, and they and the spans of a lowered call's length
        // alone name a reserved register.
        let n = promotion.pairs.len();
        let exit = displaced.filter(|d| d.op == Op::Exit && n > 0);
        let zero = 0..if i == 0 { n } else { 0 };
        let flush = exit.map_or(0..0, |_| site.orig_pos.saturating_sub(3 * n)..site.orig_pos);
        let runs = |at: &std::ops::Range<usize>, code: &mut dyn Iterator<Item = Instruction>| {
            body.get(at.clone()).is_some_and(|b| b.iter().copied().eq(code))
        };
        let planned = plan.sites.get(&i);
        let lowered = |l: usize| planned.into_iter().flatten().any(|c| c.promoted.len() == l);
        let owns = |p: usize| {
            let in_lowered = |&(o, l): &(usize, usize)| (o..o + l).contains(&p) && lowered(l);
            zero.contains(&p) || flush.contains(&p) || site.calls.iter().flatten().any(in_lowered)
        };
        let stray = (0..site.len).find(|&p| !owned.is_empty() && names(&body[p]) && !owns(p));
        let flushed = exit.is_none_or(|d| runs(&flush, &mut promotion.flush(d.guard)));
        if !runs(&zero, &mut promotion.zeroing().take(zero.len())) || !flushed || stray.is_some() {
            let what = format!("site for instruction {i} breaks effect lowering");
            diags.push(at(DiagKind::PromotionMismatch, stray.unwrap_or(0), what));
        }
        let Some(planned) = planned else {
            diags.push(at(DiagKind::PlanMismatch, 0, format!("the plan has no site at {i}")));
            continue;
        };
        let falls_through = displaced.is_some_and(|d| !d.leaves());
        let report = |kind, pos, what| diags.push(at(kind, pos, what));
        check_calls(hal, req, (site, body), planned, falls_through, report);
    }
    diags
}

/// Disassembles a generated image and verifies it against `plan`, built over
/// `original` (the decode of `code`) and its `analysis` (see the module docs).
///
/// # Errors
///
/// Decode failures on the image or trampoline bytes (anything else is
/// reported as diagnostics).
pub fn verify(
    hal: &Hal,
    image_addr: u64,
    (code, original, analysis): (&[u8], &[Instruction], Option<&Analysis>),
    plan: &InstrumentationPlan,
    img: &crate::codegen::InstrumentedImage,
    req: &Request<'_>,
) -> crate::Result<Vec<Diagnostic>> {
    // Decode is a function of the word: an image word byte-equal to the
    // original's at its index is the instruction decoded there already.
    let size = hal.instruction_size() as usize;
    let image = if img.instrumented.len() == code.len() {
        let mut image = original.to_vec();
        let words = img.instrumented.chunks(size).zip(code.chunks(size));
        for (ins, (word, _)) in image.iter_mut().zip(words).filter(|(_, (w, was))| w != was) {
            *ins = hal.codec().decode(word)?;
        }
        image
    } else {
        hal.disassemble(&img.instrumented)?
    };
    let tramp = hal.disassemble(&img.tramp_code)?;
    let (tramp_addr, sites) = (img.tramp_addr, &img.sites);
    let decoded = Decoded { image_addr, image: &image, tramp_addr, tramp: &tramp, sites };
    Ok(walk(hal, req, original, analysis, plan, &decoded))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::ToolFn;
    use sass::{Arch, Mods, Width};

    const IMAGE_ADDR: u64 = 0x4000;
    const TRAMP_ADDR: u64 = 0x9000;
    const SAVE: u64 = 0x10_0000;
    const RESTORE: u64 = 0x20_0000;
    const TOOL: u64 = 0x8000;

    fn hal() -> Hal {
        Hal::new(Arch::Volta)
    }

    fn jmp(addr: u64) -> Instruction {
        Instruction::new(Op::Jmp, [Operand::Abs(addr)])
    }

    fn jcal(addr: u64) -> Instruction {
        Instruction::new(Op::Jcal, [Operand::Abs(addr)])
    }

    /// `f` at `TOOL` with no body the verifier could compare a splice to.
    fn opaque() -> ToolFns {
        HashMap::from([("f".into(), ToolFn::opaque(TOOL, 8, 0, false))])
    }

    /// `f` at `TOOL` with `body` loaded.
    fn loaded(body: Vec<Instruction>) -> ToolFns {
        HashMap::from([("f".into(), ToolFn::with_body(TOOL, 8, 0, false, body, Arch::Volta))])
    }

    /// A planned `Before` call of `f` under the multiplicity protocol.
    fn planned() -> PlannedCall {
        PlannedCall {
            func: "f".into(),
            ipoint: IPoint::Before,
            args: vec![],
            pred_filter: false,
            coalesce: true,
            inline: false,
            promoted: InlineVec::default(),
        }
    }

    /// The plan an image's layout stands for: at each site, one `Before`
    /// call of `f` per call the site makes, spliced where it is.
    fn plan_of(sites: &[SiteMeta]) -> InstrumentationPlan {
        let mut plan = InstrumentationPlan::default();
        for site in sites {
            let call = |s: &Option<_>| PlannedCall { inline: s.is_some(), ..planned() };
            plan.sites.insert(site.instr_idx, site.calls.iter().map(call).collect());
        }
        plan
    }

    /// The walker's findings on an image at `IMAGE_ADDR` with its
    /// trampolines at `TRAMP_ADDR`, against `plan` with `fns` loaded.
    fn walk_with(
        original: &[Instruction],
        (image, tramp, sites): (&[Instruction], &[Instruction], &[SiteMeta]),
        plan: &InstrumentationPlan,
        fns: &ToolFns,
    ) -> Vec<Diagnostic> {
        let routines = HashMap::from([(
            16,
            Routines { tier: 16, save_addr: SAVE, restore_addr: RESTORE, frame_bytes: 0 },
        )]);
        let req = Request { tool_fns: fns, routines: &routines, related: &[] };
        let analysis = Analysis::of(original, Arch::Volta);
        let img = Decoded { image_addr: IMAGE_ADDR, image, tramp_addr: TRAMP_ADDR, tramp, sites };
        walk(&hal(), &req, original, analysis.as_ref().ok(), plan, &img)
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
            calls: vec![None],
        }];
        (image, tramp, sites)
    }

    /// The walker over the body `image` patches (the site's jump put back
    /// to the instruction the trampoline relocated), against the plan its
    /// layout stands for.
    fn run(image: &[Instruction], tramp: &[Instruction], sites: &[SiteMeta]) -> Vec<Diagnostic> {
        let mut original = image.to_vec();
        for site in sites {
            original[site.instr_idx] = tramp[site.start + site.orig_pos];
        }
        run_against(&original, image, tramp, sites)
    }

    /// The walker against a given original body.
    fn run_against(
        original: &[Instruction],
        image: &[Instruction],
        tramp: &[Instruction],
        sites: &[SiteMeta],
    ) -> Vec<Diagnostic> {
        walk_with(original, (image, tramp, sites), &plan_of(sites), &opaque())
    }

    /// The kinds reported for [`good`] after `corrupt` had its way with the
    /// image and the trampoline, verified against the body `good` was made
    /// from under a plan that removes the instructions in `removed`.
    fn corrupted_removing(
        removed: &[usize],
        corrupt: impl FnOnce(&mut Vec<Instruction>, &mut Vec<Instruction>),
    ) -> Vec<DiagKind> {
        let (mut image, mut tramp, sites) = good();
        let mut original = image.clone();
        original[1] = tramp[4];
        corrupt(&mut image, &mut tramp);
        let mut plan = plan_of(&sites);
        plan.removed.extend(removed);
        let d = walk_with(&original, (&image, &tramp, &sites), &plan, &opaque());
        d.iter().map(|d| d.kind).collect()
    }

    /// [`corrupted_removing`] under a plan that removes nothing.
    fn corrupted(
        corrupt: impl FnOnce(&mut Vec<Instruction>, &mut Vec<Instruction>),
    ) -> Vec<DiagKind> {
        corrupted_removing(&[], corrupt)
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
    }

    #[test]
    fn an_off_site_nop_stands_only_where_the_plan_removes_the_instruction() {
        // The application's `IADD` dropped from under it.
        let nop_at_0 = |image: &mut Vec<Instruction>, _: &mut Vec<Instruction>| {
            image[0] = Instruction::nop();
        };
        assert_eq!(corrupted(nop_at_0), vec![DiagKind::LinkMismatch]);
        assert_eq!(corrupted_removing(&[0], nop_at_0), vec![]);
        // Where the plan removes it, the original's is no longer right.
        assert_eq!(corrupted_removing(&[0], |_, _| {}), vec![DiagKind::LinkMismatch]);
    }

    #[test]
    fn a_relocated_original_that_is_another_instruction_is_rejected() {
        let kinds = corrupted(|_, tramp| tramp[4].operands[2] = Operand::Imm(3));
        assert_eq!(kinds, vec![DiagKind::LinkMismatch]);
    }

    #[test]
    fn a_relocated_nop_stands_only_where_the_plan_removes_the_instruction() {
        let nop_at_site = |_: &mut Vec<Instruction>, tramp: &mut Vec<Instruction>| {
            tramp[4] = Instruction::nop();
        };
        assert_eq!(corrupted(nop_at_site), vec![DiagKind::LinkMismatch]);
        assert_eq!(corrupted_removing(&[1], nop_at_site), vec![]);
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

    // ----- The image against the plan ------------------------------------

    #[test]
    fn an_image_missing_a_planned_site_is_rejected() {
        let (image, tramp, sites) = good();
        let mut original = image.clone();
        original[1] = tramp[4];
        let mut plan = plan_of(&sites);
        plan.sites.insert(0, vec![planned()]);
        let d = walk_with(&original, (&image, &tramp, &sites), &plan, &opaque());
        let kinds: Vec<_> = d.iter().map(|d| (d.kind, d.region, d.index)).collect();
        assert_eq!(kinds, vec![(DiagKind::PlanMismatch, Region::Image, 0)]);
    }

    #[test]
    fn an_image_with_a_site_the_plan_lacks_is_rejected() {
        let (image, tramp, sites) = good();
        let mut original = image.clone();
        original[1] = tramp[4];
        let plan = InstrumentationPlan::default();
        let d = walk_with(&original, (&image, &tramp, &sites), &plan, &opaque());
        let kinds: Vec<_> = d.iter().map(|d| (d.kind, d.region)).collect();
        assert_eq!(kinds, vec![(DiagKind::PlanMismatch, Region::Trampoline)]);
    }

    #[test]
    fn a_site_calling_another_tool_function_is_rejected() {
        let kinds = corrupted(|_, tramp| tramp[2] = jcal(TOOL + 0x100));
        assert!(kinds.contains(&DiagKind::PlanMismatch), "{kinds:?}");
        // Or calling the planned one under a guard.
        let p0 = sass::Guard { pred: sass::Pred(0), negated: false };
        assert_eq!(
            corrupted(|_, tramp| tramp[2] = jcal(TOOL).with_guard(p0)),
            vec![DiagKind::PlanMismatch]
        );
    }

    #[test]
    fn a_call_spliced_where_the_plan_calls_it_out_of_line_is_rejected() {
        let head = Instruction::new(
            Op::Iadd,
            [Operand::Reg(Reg(5)), Operand::Reg(Reg(5)), Operand::Imm(2)],
        );
        let fns = loaded(vec![head, Instruction::new(Op::Ret, [])]);
        let (image, mut tramp, mut sites) = one_site(&original(), 0);
        splice_over_call(&mut tramp, &mut sites, vec![head]);
        let spliced = PlannedCall { inline: true, ..planned() };
        assert_eq!(check(&original(), (&image, &tramp, &sites), vec![spliced], &fns), vec![]);
        let d = check(&original(), (&image, &tramp, &sites), vec![planned()], &fns);
        let kinds: Vec<_> = d.iter().map(|d| d.kind).collect();
        assert_eq!(kinds, vec![DiagKind::PlanMismatch, DiagKind::PlanMismatch], "{d:?}");
    }

    // ----- One-site images on hand-built plans ----------------------------

    /// A two-block original body: `IADD; BRA +0; IADD; EXIT`.
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

    /// `original` instrumented at `idx` with a `good()`-shaped site: save,
    /// frame pointer, the call of `f`, restore, the relocated original and,
    /// unless it leaves the site, the jump back.
    fn one_site(
        original: &[Instruction],
        idx: usize,
    ) -> (Vec<Instruction>, Vec<Instruction>, Vec<SiteMeta>) {
        let isize = hal().instruction_size();
        let mut relocated = original[idx];
        if let Some(rel) = relocated.rel_target() {
            let moved = (TRAMP_ADDR + 4 * isize) as i64 - (IMAGE_ADDR + idx as u64 * isize) as i64;
            relocated.set_rel_target(rel - moved);
        }
        let frame = Instruction::new(Op::Mov, [Operand::Reg(Reg(0)), Operand::Reg(Reg::SP)]);
        let mut tramp = vec![jcal(SAVE), frame, jcal(TOOL), jcal(RESTORE), relocated];
        if !relocated.leaves() {
            tramp.push(jmp(IMAGE_ADDR + (idx as u64 + 1) * isize));
        }
        let mut image = original.to_vec();
        image[idx] = jmp(TRAMP_ADDR);
        let (len, calls) = (tramp.len(), vec![None]);
        (
            image,
            tramp,
            vec![SiteMeta { instr_idx: idx, start: 0, len, orig_pos: 4, tier: 16, calls }],
        )
    }

    /// The walker on an image of `original` with one site, against a plan
    /// with `calls` there.
    fn check(
        original: &[Instruction],
        (image, tramp, sites): (&[Instruction], &[Instruction], &[SiteMeta]),
        calls: Vec<PlannedCall>,
        fns: &ToolFns,
    ) -> Vec<Diagnostic> {
        let mut plan = InstrumentationPlan::default();
        plan.sites.insert(sites[0].instr_idx, calls);
        walk_with(original, (image, tramp, sites), &plan, fns)
    }

    // ----- Splices --------------------------------------------------------

    /// Replaces the tool call (position 2) of a `one_site` trampoline with
    /// `body` plus the `NOP` its trailing `RET` becomes, inside the same
    /// save/restore pair.
    fn splice_over_call(
        tramp: &mut Vec<Instruction>,
        sites: &mut [SiteMeta],
        body: Vec<Instruction>,
    ) {
        let n = body.len();
        tramp.splice(2..3, body.into_iter().chain([Instruction::nop()]));
        sites[0].len += n;
        sites[0].orig_pos += n;
        sites[0].calls = vec![Some((2, n + 1))];
    }

    /// The walker on `original` spliced at `idx` with `body`, against a
    /// plan that splices `f`.
    fn spliced_at(
        original: &[Instruction],
        idx: usize,
        body: Vec<Instruction>,
        fns: &ToolFns,
    ) -> Vec<Diagnostic> {
        let (image, mut tramp, mut sites) = one_site(original, idx);
        splice_over_call(&mut tramp, &mut sites, body);
        let call = PlannedCall { inline: true, ..planned() };
        check(original, (&image, &tramp, &sites), vec![call], fns)
    }

    fn iadd(r: u8, by: i64) -> Instruction {
        Instruction::new(Op::Iadd, [Operand::Reg(Reg(r)), Operand::Reg(Reg(r)), Operand::Imm(by)])
    }

    #[test]
    fn inline_splice_must_match_the_loaded_body() {
        let fns = loaded(vec![iadd(5, 2), Instruction::new(Op::Ret, [])]);
        // Splice the body over the tool call: IADD at 2, its NOP at 3.
        assert_eq!(spliced_at(&original(), 0, vec![iadd(5, 2)], &fns), vec![]);
        // A drifted splice (wrong immediate) is flagged.
        let d = spliced_at(&original(), 0, vec![iadd(5, 3)], &fns);
        assert!(d.iter().any(|d| d.kind == DiagKind::InlineMismatch));
        // So is a splice whose tool body was never retained.
        let d = spliced_at(&original(), 0, vec![iadd(5, 2)], &opaque());
        assert!(d.iter().any(|d| d.kind == DiagKind::InlineMismatch));
    }

    #[test]
    fn pressure_exceeding_splice_is_rejected() {
        // Original body where R20 is live across instruction 1 (defined at
        // 0, read at 2).
        let original = vec![
            iadd(20, 1),
            iadd(4, 1),
            Instruction::new(
                Op::Iadd,
                [Operand::Reg(Reg(5)), Operand::Reg(Reg(20)), Operand::Imm(1)],
            ),
            Instruction::new(Op::Exit, []),
        ];
        // A loaded body that writes R20 — byte-matched by the splice, so
        // `InlineMismatch` stays silent; only the recomputed liveness
        // catches that tier 16 does not cover the clobber.
        let fns = loaded(vec![iadd(20, 2), Instruction::new(Op::Ret, [])]);
        let d = spliced_at(&original, 1, vec![iadd(20, 2)], &fns);
        assert!(d.iter().any(|d| d.kind == DiagKind::PressureExceeded), "{d:?}");
        assert!(!d.iter().any(|d| d.kind == DiagKind::InlineMismatch), "{d:?}");

        // The same splice where R20 is dead (its last read is instruction
        // 2, so nothing is live across the exit) is fine.
        let d = spliced_at(&original, 3, vec![iadd(20, 2)], &fns);
        assert!(!d.iter().any(|d| d.kind == DiagKind::PressureExceeded), "{d:?}");
    }

    /// `IADD R5, R5, 0x2` behind a `@P0 BRA` over `skip` instructions, then
    /// `RET`: a contained diamond for `skip` 1, an escaping one for 4.
    fn diamond(skip: i64) -> Vec<Instruction> {
        let isize = hal().instruction_size() as i64;
        vec![
            Instruction::new(Op::Bra, [Operand::Rel(skip * isize)])
                .with_guard(sass::Guard { pred: sass::Pred(0), negated: false }),
            iadd(5, 2),
            Instruction::new(Op::Ret, []),
        ]
    }

    /// The splice kinds reported for `body` without its `RET` spliced at
    /// `original()`'s instruction 0 as a splice of `f`, checked against
    /// `fns`.
    fn splice_kinds(body: &[Instruction], fns: &ToolFns) -> Vec<DiagKind> {
        let d = spliced_at(&original(), 0, body[..body.len() - 1].to_vec(), fns);
        let kinds = d.into_iter().map(|d| d.kind);
        kinds
            .filter(|k| matches!(k, DiagKind::InlineMismatch | DiagKind::DiamondMismatch))
            .collect()
    }

    #[test]
    fn escaping_diamond_splice_is_rejected() {
        // A loaded body whose guarded branch escapes past its RET: the
        // shape classifier rejects it, so even a byte-exact splice of it
        // must be refused — it would run foreign code inside the
        // save/restore bracket.
        let escaping = diamond(4);
        assert_eq!(splice_kinds(&escaping, &loaded(escaping.clone())), [DiagKind::DiamondMismatch]);
        // The contained diamond — the branch landing exactly on the
        // splice's RET slot — is the accepted shape.
        let contained = diamond(1);
        assert_eq!(splice_kinds(&contained, &loaded(contained.clone())), []);
    }

    #[test]
    fn a_splice_that_does_not_match_its_body_is_shaped_from_what_was_emitted() {
        use DiagKind::{DiamondMismatch, InlineMismatch};
        let (escaping, contained) = (diamond(4), diamond(1));
        // The loaded body's shape is accepted, the splice's is not.
        assert_eq!(
            splice_kinds(&escaping, &loaded(contained.clone())),
            [InlineMismatch, DiamondMismatch]
        );
        // A drifted splice of an escaping body has a shape of its own.
        let mut drifted = contained;
        drifted[1].operands[2] = Operand::Imm(3);
        assert_eq!(splice_kinds(&drifted, &loaded(escaping)), [InlineMismatch]);
    }

    #[test]
    fn a_reloaded_tool_body_brings_its_own_shape() {
        use DiagKind::{DiamondMismatch, InlineMismatch};
        let (escaping, contained) = (diamond(4), diamond(1));
        let (first, reloaded) = (loaded(escaping.clone()), loaded(contained.clone()));
        assert_eq!(splice_kinds(&escaping, &first), [DiamondMismatch]);
        assert_eq!(splice_kinds(&contained, &reloaded), []);
        assert_eq!(splice_kinds(&escaping, &reloaded), [InlineMismatch, DiamondMismatch]);
        assert_eq!(splice_kinds(&contained, &first), [InlineMismatch]);
    }

    #[test]
    fn save_area_access_beyond_the_tier_is_rejected() {
        // Tier 16 on Volta addresses slots 0..=17 (16 regs + preds +
        // barrier state); slot 18 is out of frame.
        let slots = frame_slots(16, &hal());
        assert_eq!(slots, 18);
        // An argument load inside the bracket, ahead of the tool call.
        let (image, mut tramp, mut sites) = one_site(&original(), 0);
        let arg = |slot: u32| {
            let at = Operand::MRef { base: Reg::SP, offset: 4 * slot as i32 };
            Instruction::new(Op::Ldl, [Operand::Reg(Reg(4)), at])
        };
        tramp.insert(2, arg(slots));
        sites[0].len += 1;
        sites[0].orig_pos += 1;
        let run = |tramp: &[Instruction]| {
            check(&original(), (&image, tramp, &sites), vec![planned()], &opaque())
        };
        assert!(run(&tramp).iter().any(|d| d.kind == DiagKind::TierExceeded));
        // The slot just below the bound is fine.
        tramp[2] = arg(slots - 1);
        assert_eq!(run(&tramp), vec![]);
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
