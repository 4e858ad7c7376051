//! Pre-swap static verification of instrumented images.
//!
//! Before the core swaps a function to its instrumented version, the image
//! and its relocated body are checked statically: a malformed body would
//! corrupt the *application*, not the tool, so failures must be caught
//! before the first instrumented launch (paper §5.1 — the swap is the
//! point of no return; §5.2 budgets it as part of JIT overhead).
//!
//! The verifier takes the build's own decode of the original, its
//! [`sass::Analysis`], the [`InstrumentationPlan`] made of them and the
//! core's tool-function and routine tables ([`Request`]): a second run of the
//! pure planner could only agree with the first. Only the image is decoded
//! here, since the image is what is checked — and of it only the words that
//! differ from the original's — site by site, in one walk:
//!
//! * the sites are the plan's, and each site's calls, in Before → relocated
//!   original → After order, are the plan's tool functions, called or
//!   lowered as planned;
//! * the links: the image is the original but for its entry jumps to their
//!   groups; the body relocates each original once, in order, with only its
//!   site's code around it, each target inside the function at its group,
//!   a `NOP` where, and only where, the plan removes an instruction, and
//!   nothing falls off its end;
//! * control-flow targets are instruction boundaries of the image or the
//!   body, a routine, a tool or an address the original names (a callee's
//!   entry); register spans fit the register file;
//! * save discipline on every path of a site: a frame is open before any
//!   save-area access or tool call and closed wherever the application
//!   resumes, accesses stay inside it, `R1` is left alone inside it, and
//!   what is written is dead there or saved and restored;
//! * effect lowering: each lowered call is the plan's code, verbatim; only
//!   the zeroing opening instruction 0's site, that code and the flush ahead
//!   of each relocated `EXIT`, under its guard, name a reserved register,
//!   and all lie above the highest register the original names.
//!
//! Not checked: what decoding guarantees (each operand list in its opcode's
//! format, no predicate past `P7`), and how the planner grouped calls, which
//! the `plan` unit tests and the plan-ladder differential pin.

use crate::codegen::{Layout, SiteMeta, ToolFns};
use crate::hal::Hal;
use crate::lift::Lifted;
use crate::plan::{InstrumentationPlan, Lowering, PlannedCall};
use crate::saverestore::{frame_slots, Routines};
use crate::spec::IPoint;
use sass::op::CfClass;
use sass::{Instruction, LiveSet, Op, Operand, Reg};
use std::collections::HashMap;

/// Which code region a diagnostic points into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// The instrumented copy of the function body.
    Image,
    /// The relocated body.
    Body,
}

impl std::fmt::Display for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Region::Image => write!(f, "image"),
            Region::Body => write!(f, "body"),
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
    /// Execution can run off the end of the body.
    FallThrough = 1,
    /// The image is not the original but for an unguarded jump to its group
    /// at each entry, or the body does not relocate each original once, in
    /// order, at its group, its targets inside the function linked — or its
    /// `NOP` where, and only where, the plan removes it.
    LinkMismatch = 2,
    /// A register operand or its multi-register span exceeds the file.
    BadRegister = 3,
    /// The save area is read (or a tool called) with no frame open.
    ReadBeforeSave = 6,
    /// A restore call without a matching save.
    RestoreWithoutSave = 7,
    /// The application resumes (at the relocated original, or behind the
    /// site's code) with a save frame open or `R1` off its entry value, or
    /// injected code writes `R1` inside a save frame, which the restore
    /// routine rebuilds `R1` from.
    UnbalancedFrame = 8,
    /// A save-area access addresses a slot outside the open frame: the
    /// site's save tier.
    TierExceeded = 13,
    /// Injected code writes a register or predicate live at its injection
    /// point (recomputed liveness) without saving and restoring it.
    PressureExceeded = 14,
    /// The image is not the plan it was built from: a site is
    /// missing or unplanned, or its calls are not the plan's (function,
    /// count, or lowered where the plan calls out of line and vice versa).
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

/// The core's tables: the code an image may reach besides itself, its body and its callees.
#[derive(Clone, Copy)]
pub struct Request<'a> {
    /// The loaded tool functions.
    pub tool_fns: &'a ToolFns,
    /// The save/restore routines, by tier.
    pub routines: &'a HashMap<u16, Routines>,
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
        self.tool_fns.fns.iter().any(|f| f.addr == addr)
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
    /// Registers and predicates that may no longer hold their values.
    dirty: LiveSet,
}

impl Bracket {
    /// Joins the state of another path into this one; `false` when the
    /// paths disagree about the frame.
    fn join(&mut self, other: &Bracket) -> bool {
        self.dirty.union_with(&other.dirty);
        (self.sp, self.depth) == (other.sp, other.depth)
    }
}

/// Walks a site's injected code along every (forward-only) path and checks
/// the save discipline against recomputed liveness: frames balance, frame
/// accesses stay inside the open frame, nothing writes `R1` inside one, and
/// whatever is written is dead at its injection point (`live.0` before the
/// relocated original, `live.1` after it) or inside the routines' tier.
/// The application resumes at both and at the group's end. `pending` is
/// scratch for forward targets.
fn check_brackets(
    hal: &Hal,
    (site, body): (&SiteMeta, &[Instruction]),
    live: (LiveSet, LiveSet),
    req: &Request<'_>,
    pending: &mut Vec<(usize, Bracket)>,
    diags: &mut Vec<Diagnostic>,
) {
    let isize = hal.instruction_size() as i64;
    let target = |pos: usize, ins: &Instruction| -> Option<usize> {
        let t = pos as i64 + 1 + ins.rel_target()? / isize;
        usize::try_from(t).ok().filter(|t| *t > pos && *t <= body.len())
    };
    pending.clear();
    let mut cur = Some(Bracket::default());
    for pos in 0..=body.len() {
        let mut diag = |kind, what: &str| {
            let message = format!("site for instruction {}: {what}", site.instr_idx);
            let at = site.start + pos.min(body.len() - 1);
            diags.push(Diagnostic::new(kind, Region::Body, at, message));
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
        // the site's code: frames closed, live state restored.
        if pos == site.orig_pos || pos == body.len() {
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

        let (ins, always) = (&body[pos], body[pos].guard.is_always());
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
        // The restore routine rebuilds `R1`: inside a save frame nothing may write it.
        let writes = ins.reg_writes();
        if st.depth > 0 && writes.contains(&Reg::SP) {
            diag(DiagKind::UnbalancedFrame, "R1 written inside a save frame");
        }
        if let (Op::Iadd, true, [Operand::Reg(Reg::SP), Operand::Reg(Reg::SP), Operand::Imm(by)]) =
            (ins.op, always, &ins.operands[..])
        {
            st.sp += by;
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
        if let Some(off) = off {
            let slots = if st.depth > 0 { frame_slots(site.tier, hal) as i64 } else { -st.sp / 4 };
            if st.depth == 0 && st.sp >= 0 {
                diag(DiagKind::ReadBeforeSave, "save-area access with no frame open");
            } else if off < 0 || off as i64 + 4 * ins.mods.width.regs() as i64 > 4 * slots {
                let what = format!("[R1+{off:#x}] is outside the {slots} slots of the open frame");
                diag(DiagKind::TierExceeded, &what);
            }
        }

        for &r in &writes {
            let saved = st.depth > 0 && u16::from(r.0) < site.tier;
            if live_reg(r) && !saved {
                diag(DiagKind::PressureExceeded, &format!("live {r} written but not saved"));
            }
            st.dirty.gprs.insert(r);
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

/// An instrumented image as the walker reads it: the image and the body
/// decoded and placed, and the code generator's layout of the site groups.
/// Image words from `image.len()` to `image_len` are the original's bytes.
struct Decoded<'a> {
    image_addr: u64,
    image: &'a [Instruction],
    image_len: usize,
    body_addr: u64,
    body: &'a [Instruction],
    sites: &'a [SiteMeta],
}

/// A site's calls against the plan's, in emission order: Before calls, the
/// relocated original, then (if it `falls_through`) After calls. Each is
/// called or lowered as planned, a call unguarded and on its side of the
/// original, a lowered call the plan's code. `report` takes a position
/// within the site.
fn check_calls(
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
    let called = emitted().filter(|c| c.lowering == Lowering::Call);
    let called = called.map(|c| (after(&c), req.tool_fns.fns.get(c.func.0).map(|f| f.addr)));
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

    for (call, span) in emitted().zip(&site.calls) {
        if (call.lowering == Lowering::Call) == span.is_some() {
            let what = format!("{:?} at {i} is not called or lowered as planned", call.func);
            report(DiagKind::PlanMismatch, 0, what);
        }
        if let (Lowering::Code(code), Some((off, len))) = (&call.lowering, *span) {
            if body.get(off..off + len) != Some(&code[..]) {
                let what = format!("{:?} at {i} is not its lowered code", call.func);
                report(DiagKind::PlanMismatch, off.min(site.len - 1), what);
            }
        }
    }
}

/// Checks `img` against `plan`, built over the lifted `original`. Returns
/// every defect (empty = safe to swap).
fn walk(
    hal: &Hal,
    req: &Request<'_>,
    original: &Lifted,
    plan: &InstrumentationPlan,
    img: &Decoded<'_>,
) -> Vec<Diagnostic> {
    let (isize, analysis) = (hal.instruction_size(), original.analysis.as_ref().ok());
    let mut diags = Vec::new();
    let layout = Layout::of(hal, original, (img.image_addr, img.body_addr), img.sites);
    let regions =
        [(Region::Image, img.image_addr, img.image), (Region::Body, img.body_addr, img.body)];
    let lens = [(img.image_addr, img.image_len), (img.body_addr, img.body.len())];
    let inside = |t: u64| lens.into_iter().find(|r| (r.0..r.0 + r.1 as u64 * isize).contains(&t));
    let named = |t| original.instrs.iter().any(|i| i.operands().contains(&Operand::Abs(t)));
    let external = |t| req.is_routine(t) || req.is_tool(t) || named(t);
    let target_ok =
        |t: u64| inside(t).map_or_else(|| external(t), |r| (t - r.0).is_multiple_of(isize));
    for (region, base, instrs) in regions {
        // Past its entry jumps the image is checked to be the original, whose
        // relocated copies the body's own checks cover.
        let checked = if region == Region::Image { layout.entries } else { instrs.len() };
        for (index, ins) in instrs.iter().enumerate().take(checked) {
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

    // The body does not fall off its end (execution resumes behind a call),
    // the image is the original but for its entry jumps, and the body
    // relocates each original once, in order, at its group.
    let in_image = |kind, index, message| Diagnostic::new(kind, Region::Image, index, message);
    let in_body = |kind, index, message| Diagnostic::new(kind, Region::Body, index, message);
    let (promotion, owned) = (&plan.promotion, plan.promotion.registers());
    let names = |i: &Instruction| {
        let mut hit = false;
        i.each_span(|r, n, _| hit |= sass::inst::span_regs(r, n).any(|r| owned.contains(&r.0)));
        hit
    };
    if !owned.is_empty() && analysis.is_none_or(|a| a.max_reg >= Some(owned.start)) {
        let what = "a reserved register is not above every register the original names".into();
        diags.push(in_image(DiagKind::PromotionMismatch, 0, what));
    }
    if img.body.last().is_none_or(|l| !l.leaves()) {
        let what = "execution can fall off the end of the body".into();
        diags.push(in_body(DiagKind::FallThrough, img.body.len().saturating_sub(1), what));
    }
    let applied = |index: usize| {
        let removed = !plan.removed.is_empty() && plan.removed.contains(&index);
        original.instrs.get(index).map(|o| if removed { Instruction::nop() } else { *o.raw() })
    };
    let copied = img.image.len()..img.image_len;
    for index in (0..img.image_len.max(original.instrs.len())).filter(|i| !copied.contains(i)) {
        let entry = (index < layout.entries).then(|| layout.entry(index));
        if img.image.get(index) != entry.as_ref().or(original.instrs.get(index).map(|o| o.raw())) {
            let what = "instruction is not the original's, or its entry jump to its group".into();
            diags.push(in_image(DiagKind::LinkMismatch, index, what));
        }
    }
    let (mut next, mut sites) = (0, img.sites.iter().peekable());
    let mut planned = plan.sites.keys().peekable();
    for i in 0..original.instrs.len() {
        let site = sites.next_if(|s| s.instr_idx == i);
        if planned.next_if(|&&k| k == i).is_some() && site.is_none() {
            diags.push(in_image(DiagKind::PlanMismatch, i, "a planned site is not placed".into()));
        }
        let (start, len, pos) = site.map_or((next, 1, 0), |s| (s.start, s.len, s.orig_pos));
        let was = original.instrs[i].raw();
        let want = match !plan.removed.is_empty() && plan.removed.contains(&i) {
            true => Some(Instruction::nop()),
            false => layout.relocate(was, i, start + pos),
        };
        let at = img.body.get(start + pos);
        if start != next || pos >= len || at != Some(want.as_ref().unwrap_or(was)) {
            let what = format!("the body does not relocate instruction {i} at its group");
            diags.push(in_body(DiagKind::LinkMismatch, next.min(img.body.len().max(1) - 1), what));
        }
        next = start + len;
    }
    if next != img.body.len() || sites.peek().is_some() {
        let what = "the body is not the original's groups".into();
        diags.push(in_body(DiagKind::LinkMismatch, next.min(img.body.len().max(1) - 1), what));
    }

    let mut pending = Vec::new();
    for site in img.sites {
        // A group past the body's end is the group walk's `LinkMismatch`.
        let i = site.instr_idx;
        let Some(body) = img.body.get(site.start..site.start + site.len) else { continue };
        let at = |kind, pos, message| in_body(kind, site.start + pos, message);

        // Without a CFG nothing is provably dead: everything must be saved.
        let writes = body.iter().enumerate().filter(|p| p.0 != site.orig_pos).map(|p| p.1);
        let writes = LiveSet::written_by(writes);
        let all = (LiveSet::all(), LiveSet::all());
        let live = analysis.map_or(all, |a| a.live_around(&original.instrs, i, &writes));
        check_brackets(hal, (site, body), live, req, &mut pending, &mut diags);

        // Effect lowering: the site's prologue opens it, its epilogue runs
        // ahead of the relocated original, and they and the spans of a
        // lowered call's length alone name a reserved register.
        let displaced = applied(i);
        let epilogue = || displaced.iter().flat_map(|d| promotion.epilogue(d));
        let (zero, flushes) = (0..promotion.prologue(i).count(), epilogue().count());
        let flush = site.orig_pos.saturating_sub(flushes)..site.orig_pos;
        let runs = |at: &std::ops::Range<usize>, code: &mut dyn Iterator<Item = Instruction>| {
            body.get(at.clone()).is_some_and(|b| b.iter().copied().eq(code))
        };
        let planned = plan.sites.get(&i);
        let code = |c: &PlannedCall, l| matches!(&c.lowering, Lowering::Code(k) if k.len() == l);
        let lowered = |l: usize| planned.into_iter().flatten().any(|c| code(c, l));
        let owns = |p: usize| {
            let in_lowered = |&(o, l): &(usize, usize)| (o..o + l).contains(&p) && lowered(l);
            zero.contains(&p) || flush.contains(&p) || site.calls.iter().flatten().any(in_lowered)
        };
        let stray = (0..site.len).find(|&p| !owned.is_empty() && names(&body[p]) && !owns(p));
        let flushed = flushes == 0 || runs(&flush, &mut epilogue());
        if !runs(&zero, &mut promotion.prologue(i)) || !flushed || stray.is_some() {
            let what = format!("site for instruction {i} breaks effect lowering");
            diags.push(at(DiagKind::PromotionMismatch, stray.unwrap_or(0), what));
        }
        let Some(planned) = planned else {
            diags.push(at(DiagKind::PlanMismatch, 0, format!("the plan has no site at {i}")));
            continue;
        };
        let falls_through = displaced.is_some_and(|d| !d.leaves());
        let report = |kind, pos, what| diags.push(at(kind, pos, what));
        check_calls(req, (site, body), planned, falls_through, report);
    }
    diags
}

/// Decodes `code`, whose word `slots[i]` may be instruction `i` of `original`:
/// a word byte-equal to the original's is the instruction decoded already.
fn decoded(
    hal: &Hal,
    original: &Lifted,
    code: &[u8],
    slots: impl Iterator<Item = usize>,
) -> crate::Result<Vec<Instruction>> {
    let (size, mut slots) = (hal.instruction_size() as usize, slots.enumerate().peekable());
    let mut out = Vec::with_capacity(code.len() / size);
    for (at, w) in code.chunks(size).enumerate() {
        out.push(match slots.next_if(|s| s.1 == at) {
            Some((i, _)) if original.code.get(i * size..(i + 1) * size) == Some(w) => {
                *original.instrs[i].raw()
            }
            _ => hal.codec().decode(w)?,
        });
    }
    Ok(out)
}

/// Disassembles a generated image and verifies it against `plan`, built over
/// `original`, its views, register fact and analysis (see the module docs).
///
/// # Errors
///
/// Decode failures on the image or body bytes (anything else is reported
/// as diagnostics).
pub fn verify(
    hal: &Hal,
    image_addr: u64,
    original: &Lifted,
    plan: &InstrumentationPlan,
    img: &crate::codegen::InstrumentedImage,
    req: &Request<'_>,
) -> crate::Result<Vec<Diagnostic>> {
    let layout = Layout::of(hal, original, (image_addr, img.body_addr), &img.sites);
    // Past its entry jumps an image that is the original's bytes needs no decode.
    let (code, size) = (&img.instrumented, hal.instruction_size() as usize);
    let tail = layout.entries * size;
    let words = if code.get(tail..) == original.code.get(tail..) { tail } else { code.len() };
    let image = decoded(hal, original, &code[..words.min(code.len())], 0..original.instrs.len())?;
    let body = decoded(hal, original, &img.body_code, layout.slots())?;
    let (image_len, body_addr, sites) = (code.len() / size, img.body_addr, &img.sites);
    let decoded = Decoded { image_addr, image: &image, image_len, body_addr, body: &body, sites };
    Ok(walk(hal, req, original, plan, &decoded))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sass::{Arch, Mods, Width};

    const IMAGE_ADDR: u64 = 0x4000;
    const BODY_ADDR: u64 = 0x9000;
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

    fn iadd(r: u8, by: i64) -> Instruction {
        Instruction::new(Op::Iadd, [Operand::Reg(Reg(r)), Operand::Reg(Reg(r)), Operand::Imm(by)])
    }

    /// `f` at `TOOL`, its body a call.
    fn out_of_line() -> ToolFns {
        ToolFns::from([("f", crate::codegen::calling(TOOL, 8, 0, false))])
    }

    /// A planned `Before` call of `f`, out of line.
    fn planned() -> PlannedCall {
        PlannedCall {
            func: crate::codegen::ToolId(0),
            ipoint: IPoint::Before,
            args: vec![],
            lowering: Lowering::Call,
        }
    }

    /// The plan an image's layout stands for: at each site, one `Before`
    /// call of `f` per call the site makes out of line.
    fn plan_of(sites: &[SiteMeta]) -> InstrumentationPlan {
        let mut plan = InstrumentationPlan::default();
        for site in sites {
            plan.sites.insert(site.instr_idx, site.calls.iter().map(|_| planned()).collect());
        }
        plan
    }

    /// Where a function of `len` instructions at `IMAGE_ADDR` runs from with
    /// its body at `BODY_ADDR` and `sites` in it.
    fn layout(len: usize, sites: &[SiteMeta]) -> Layout<'_> {
        Layout { addr: IMAGE_ADDR, len, base: BODY_ADDR, sites, isize: 16, entries: 1 }
    }

    /// The walker's findings on an image at `IMAGE_ADDR` with its body at
    /// `BODY_ADDR`, against `plan` with `fns` loaded, over `original` with
    /// its analysis (`cfg`) or without.
    fn walk_cfg(
        (original, cfg): (&[Instruction], bool),
        (image, body, sites): (&[Instruction], &[Instruction], &[SiteMeta]),
        plan: &InstrumentationPlan,
        fns: &ToolFns,
    ) -> Vec<Diagnostic> {
        let routines = HashMap::from([(
            16,
            Routines { tier: 16, save_addr: SAVE, restore_addr: RESTORE, frame_bytes: 0 },
        )]);
        let req = Request { tool_fns: fns, routines: &routines };
        let analysis = match cfg {
            true => sass::Analysis::of(original, Arch::Volta),
            false => crate::plan::NO_ANALYSIS,
        };
        let original = crate::lift::lifted(original, analysis);
        let image_len = image.len();
        let img =
            Decoded { image_addr: IMAGE_ADDR, image, image_len, body_addr: BODY_ADDR, body, sites };
        walk(&hal(), &req, &original, plan, &img)
    }

    /// [`walk_cfg`] over `original` with its analysis.
    fn walk_with(
        original: &[Instruction],
        image: (&[Instruction], &[Instruction], &[SiteMeta]),
        plan: &InstrumentationPlan,
        fns: &ToolFns,
    ) -> Vec<Diagnostic> {
        walk_cfg((original, true), image, plan, fns)
    }

    /// The original [`good`] relocates.
    fn good_original() -> Vec<Instruction> {
        vec![iadd(4, 1), iadd(5, 2), Instruction::new(Op::Exit, [])]
    }

    /// A well-formed one-site image: `JMP body; IADD; EXIT` and the body
    /// relocating the original with site 1's code in line.
    fn good() -> (Vec<Instruction>, Vec<Instruction>, Vec<SiteMeta>) {
        let mut image = good_original();
        image[0] = jmp(BODY_ADDR);
        let frame = Instruction::new(Op::Mov, [Operand::Reg(Reg(0)), Operand::Reg(Reg::SP)]);
        let body = vec![
            iadd(4, 1),
            jcal(SAVE),
            frame,
            jcal(TOOL),
            jcal(RESTORE),
            iadd(5, 2),
            Instruction::new(Op::Exit, []),
        ];
        let sites = vec![SiteMeta {
            instr_idx: 1,
            start: 1,
            len: 5,
            orig_pos: 4,
            tier: 16,
            calls: vec![None],
        }];
        (image, body, sites)
    }

    /// The walker over `image` and `body` against the original the body
    /// relocates (each instruction read back from its slot), under the
    /// plan its layout stands for.
    fn run(image: &[Instruction], body: &[Instruction], sites: &[SiteMeta]) -> Vec<Diagnostic> {
        let layout = layout(image.len(), sites);
        let original: Vec<_> = (0..image.len())
            .map(|i| body.get(layout.slots().nth(i).unwrap()).copied().unwrap_or_default())
            .collect();
        run_against(&original, image, body, sites)
    }

    /// The walker against a given original body.
    fn run_against(
        original: &[Instruction],
        image: &[Instruction],
        body: &[Instruction],
        sites: &[SiteMeta],
    ) -> Vec<Diagnostic> {
        walk_with(original, (image, body, sites), &plan_of(sites), &out_of_line())
    }

    /// The kinds reported for [`good`] after `corrupt` had its way with the
    /// image and the body, verified against the body `good` was made from
    /// under a plan that removes the instructions in `removed`.
    fn corrupted_removing(
        removed: &[usize],
        corrupt: impl FnOnce(&mut Vec<Instruction>, &mut Vec<Instruction>),
    ) -> Vec<DiagKind> {
        let (mut image, mut body, sites) = good();
        corrupt(&mut image, &mut body);
        let mut plan = plan_of(&sites);
        plan.removed.extend(removed);
        let d = walk_with(&good_original(), (&image, &body, &sites), &plan, &out_of_line());
        d.iter().map(|d| d.kind).collect()
    }

    /// [`corrupted_removing`] under a plan that removes nothing.
    fn corrupted(
        corrupt: impl FnOnce(&mut Vec<Instruction>, &mut Vec<Instruction>),
    ) -> Vec<DiagKind> {
        corrupted_removing(&[], corrupt)
    }

    #[test]
    fn a_well_formed_image_passes() {
        let (image, body, sites) = good();
        assert_eq!(run(&image, &body, &sites), vec![]);
    }

    #[test]
    fn out_of_range_branch_is_rejected() {
        let (image, mut body, sites) = good();
        // Branch way past the end of every known region.
        body[0] = Instruction::new(Op::Bra, [Operand::Rel(0x4_0000)]);
        let d = run(&image, &body, &sites);
        assert!(d.iter().any(|d| d.kind == DiagKind::BranchTarget && d.region == Region::Body));
    }

    #[test]
    fn misaligned_branch_target_is_rejected() {
        let (image, mut body, sites) = good();
        body[0] = Instruction::new(Op::Bra, [Operand::Rel(4)]); // mid-instruction
        let d = run(&image, &body, &sites);
        assert!(d.iter().any(|d| d.kind == DiagKind::BranchTarget));
    }

    #[test]
    fn fall_through_off_the_image_end_is_rejected() {
        // A one-instruction function whose body ends in a plain IADD.
        let (mut image, mut body, _) = good();
        image.truncate(1);
        body.truncate(1);
        let d = run(&image, &body, &[]);
        assert!(d.iter().any(|d| d.kind == DiagKind::FallThrough && d.region == Region::Body));
    }

    #[test]
    fn guarded_terminator_still_falls_through() {
        let (mut image, mut body, sites) = good();
        let exit = Instruction::new(Op::Exit, [])
            .with_guard(sass::Guard { pred: sass::Pred(0), negated: false });
        (image[2], body[6]) = (exit, exit);
        let d = run(&image, &body, &sites);
        assert!(d.iter().any(|d| d.kind == DiagKind::FallThrough && d.region == Region::Body));
    }

    /// The kinds reported for `good()` with its trailing `EXIT` replaced by
    /// `last`, relocated.
    fn ending_in(last: Instruction) -> Vec<DiagKind> {
        let (mut image, mut body, sites) = good();
        image[2] = last;
        body[6] = layout(3, &sites).relocate(&last, 2, 6).unwrap_or(last);
        run_against(&[good_original()[0], good_original()[1], last], &image, &body, &sites)
            .iter()
            .map(|d| d.kind)
            .collect()
    }

    #[test]
    fn an_image_ending_in_an_absolute_call_falls_off_its_end() {
        // Execution resumes behind the call, past the body.
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
        let (image, mut body, sites) = good();
        // LDG.128 R253 spans R253..R256 — past the register file.
        body[0] = Instruction::new(
            Op::Ldg,
            [Operand::Reg(Reg(253)), Operand::MRef { base: Reg(8), offset: 0 }],
        )
        .with_mods(Mods { width: Width::B128, ..Mods::default() });
        let d = run(&image, &body, &sites);
        assert!(d.iter().any(|d| d.kind == DiagKind::BadRegister));
    }

    #[test]
    fn unbalanced_frame_is_rejected() {
        let (image, mut body, sites) = good();
        body[4] = Instruction::nop(); // drop the restore call
        let d = run(&image, &body, &sites);
        assert!(d.iter().any(|d| d.kind == DiagKind::UnbalancedFrame));
    }

    #[test]
    fn an_r1_write_inside_a_save_frame_is_rejected() {
        // The restore routine rebuilds R1 as `IADD R1, R1, frame` from
        // whatever R1 holds then: a write of it inside the frame, although
        // below the tier, resumes the application on a wrong stack pointer.
        let (image, mut body, mut sites) = good();
        let to_r1 = Instruction::new(Op::Mov, [Operand::Reg(Reg::SP), Operand::Reg(Reg(4))]);
        body.insert(3, to_r1);
        sites[0].len += 1;
        sites[0].orig_pos += 1;
        let kinds: Vec<_> = run(&image, &body, &sites).iter().map(|d| d.kind).collect();
        assert_eq!(kinds, vec![DiagKind::UnbalancedFrame]);
    }

    #[test]
    fn restore_without_save_is_rejected() {
        let (image, mut body, sites) = good();
        body[1] = Instruction::nop(); // drop the save call
        let d = run(&image, &body, &sites);
        assert!(d.iter().any(|d| d.kind == DiagKind::RestoreWithoutSave));
    }

    #[test]
    fn a_guarded_save_call_is_rejected() {
        let p0 = sass::Guard { pred: sass::Pred(0), negated: false };
        let kinds = corrupted(|_, body| body[1] = jcal(SAVE).with_guard(p0));
        assert_eq!(kinds, vec![DiagKind::UnbalancedFrame]);
    }

    #[test]
    fn a_guarded_restore_call_is_rejected() {
        let not_p0 = sass::Guard { pred: sass::Pred(0), negated: true };
        let kinds = corrupted(|_, body| body[4] = jcal(RESTORE).with_guard(not_p0));
        assert_eq!(kinds, vec![DiagKind::UnbalancedFrame]);
    }

    #[test]
    fn tool_call_before_save_is_rejected() {
        let (image, mut body, sites) = good();
        body.swap(1, 3); // tool call now precedes the save
        let d = run(&image, &body, &sites);
        assert!(d.iter().any(|d| d.kind == DiagKind::ReadBeforeSave));
    }

    #[test]
    fn save_area_read_before_save_is_rejected() {
        let (image, mut body, sites) = good();
        body[1] = Instruction::new(
            Op::Ldl,
            [Operand::Reg(Reg(4)), Operand::MRef { base: Reg::SP, offset: 16 }],
        );
        let d = run(&image, &body, &sites);
        assert!(d.iter().any(|d| d.kind == DiagKind::ReadBeforeSave));
        assert!(
            d.iter()
                .any(|d| d.kind == DiagKind::UnbalancedFrame
                    || d.kind == DiagKind::RestoreWithoutSave)
        );
    }

    #[test]
    fn a_site_group_past_the_end_of_the_body_is_rejected() {
        let (image, body, mut sites) = good();
        sites[0].len += 2;
        let d = run(&image, &body, &sites);
        assert!(d.iter().any(|d| d.kind == DiagKind::LinkMismatch && d.region == Region::Body));
    }

    // ----- The links, one corruption each -------------------------------

    #[test]
    fn an_entry_jump_to_another_group_is_rejected() {
        assert_eq!(corrupted(|_, _| {}), vec![]);
        // Aligned and inside the body, but past instruction 0's group.
        let kinds = corrupted(|image, _| image[0] = jmp(BODY_ADDR + 16));
        assert_eq!(kinds, vec![DiagKind::LinkMismatch]);
        // Under a CFG no other instruction enters the body.
        let kinds = corrupted(|image, _| image[1] = jmp(BODY_ADDR + 16));
        assert_eq!(kinds, vec![DiagKind::LinkMismatch]);
    }

    /// [`good`] without a CFG: every image word jumps to its group.
    fn without_cfg(corrupt: impl FnOnce(&mut Vec<Instruction>)) -> Vec<(DiagKind, Region, usize)> {
        let (_, body, sites) = good();
        let mut image: Vec<_> = (0..3).map(|i| layout(3, &sites).entry(i)).collect();
        corrupt(&mut image);
        let (original, plan) = (good_original(), plan_of(&sites));
        let d = walk_cfg((&original, false), (&image, &body, &sites), &plan, &out_of_line());
        d.iter().map(|d| (d.kind, d.region, d.index)).collect()
    }

    #[test]
    fn a_site_jump_into_the_middle_of_its_site_is_rejected() {
        assert_eq!(without_cfg(|_| {}), vec![]);
        // Past the save call: the tool would run on unsaved state.
        let kinds = without_cfg(|image| image[1] = jmp(BODY_ADDR + 2 * 16));
        assert_eq!(kinds, vec![(DiagKind::LinkMismatch, Region::Image, 1)]);
    }

    #[test]
    fn a_site_without_its_jump_is_rejected() {
        // The original's own word, or a `NOP`: a computed target reaching
        // it would run the original instruction uninstrumented, or nothing.
        let kinds = without_cfg(|image| image[1] = iadd(5, 2));
        assert_eq!(kinds, vec![(DiagKind::LinkMismatch, Region::Image, 1)]);
        let kinds = without_cfg(|image| image[1] = Instruction::nop());
        assert_eq!(kinds, vec![(DiagKind::LinkMismatch, Region::Image, 1)]);
    }

    #[test]
    fn an_off_site_instruction_that_is_not_the_originals_is_rejected() {
        let kinds = corrupted(|_, body| body[0].operands[2] = Operand::Imm(2));
        assert_eq!(kinds, vec![DiagKind::LinkMismatch]);
        let kinds = corrupted(|image, _| image[2] = Instruction::nop());
        assert_eq!(kinds, vec![DiagKind::LinkMismatch]);
    }

    #[test]
    fn an_off_site_nop_stands_only_where_the_plan_removes_the_instruction() {
        // The application's `IADD` dropped from under it.
        let nop_at_0 = |_: &mut Vec<Instruction>, body: &mut Vec<Instruction>| {
            body[0] = Instruction::nop();
        };
        assert_eq!(corrupted(nop_at_0), vec![DiagKind::LinkMismatch]);
        assert_eq!(corrupted_removing(&[0], nop_at_0), vec![]);
        // Where the plan removes it, the original's is no longer right.
        assert_eq!(corrupted_removing(&[0], |_, _| {}), vec![DiagKind::LinkMismatch]);
    }

    #[test]
    fn a_relocated_original_that_is_another_instruction_is_rejected() {
        let kinds = corrupted(|_, body| body[5].operands[2] = Operand::Imm(3));
        assert_eq!(kinds, vec![DiagKind::LinkMismatch]);
    }

    #[test]
    fn a_relocated_nop_stands_only_where_the_plan_removes_the_instruction() {
        let nop_at_site = |_: &mut Vec<Instruction>, body: &mut Vec<Instruction>| {
            body[5] = Instruction::nop();
        };
        assert_eq!(corrupted(nop_at_site), vec![DiagKind::LinkMismatch]);
        assert_eq!(corrupted_removing(&[1], nop_at_site), vec![]);
    }

    #[test]
    fn a_relocated_branch_must_reach_what_the_original_reached() {
        // Site 1 of a body whose instruction 1 branches back to instruction
        // 0: relocated to body word 5, it must reach instruction 0's group.
        let isize = hal().instruction_size() as i64;
        let (image, mut body, sites) = good();
        let mut original = good_original();
        original[1] = Instruction::new(Op::Bra, [Operand::Rel(-2 * isize)])
            .with_guard(sass::Guard { pred: sass::Pred(0), negated: false });
        let mut image = image;
        image[1] = original[1];
        body[5] = original[1];
        body[5].set_rel_target(-6 * isize);
        assert_eq!(run_against(&original, &image, &body, &sites), vec![]);
        // Copied without the link it lands somewhere else.
        body[5] = original[1];
        let d = run_against(&original, &image, &body, &sites);
        assert!(d.iter().any(|d| d.kind == DiagKind::LinkMismatch), "{d:?}");
    }

    // ----- The image against the plan ------------------------------------

    #[test]
    fn an_image_missing_a_planned_site_is_rejected() {
        let (image, body, sites) = good();
        let mut plan = plan_of(&sites);
        plan.sites.insert(0, vec![planned()]);
        let d = walk_with(&good_original(), (&image, &body, &sites), &plan, &out_of_line());
        let kinds: Vec<_> = d.iter().map(|d| (d.kind, d.region, d.index)).collect();
        assert_eq!(kinds, vec![(DiagKind::PlanMismatch, Region::Image, 0)]);
    }

    #[test]
    fn an_image_with_a_site_the_plan_lacks_is_rejected() {
        let (image, body, sites) = good();
        let plan = InstrumentationPlan::default();
        let d = walk_with(&good_original(), (&image, &body, &sites), &plan, &out_of_line());
        let kinds: Vec<_> = d.iter().map(|d| (d.kind, d.region)).collect();
        assert_eq!(kinds, vec![(DiagKind::PlanMismatch, Region::Body)]);
    }

    #[test]
    fn a_site_calling_another_tool_function_is_rejected() {
        let kinds = corrupted(|_, body| body[3] = jcal(TOOL + 0x100));
        assert!(kinds.contains(&DiagKind::PlanMismatch), "{kinds:?}");
        // Or calling the planned one under a guard.
        let p0 = sass::Guard { pred: sass::Pred(0), negated: false };
        assert_eq!(
            corrupted(|_, body| body[3] = jcal(TOOL).with_guard(p0)),
            vec![DiagKind::PlanMismatch]
        );
    }

    #[test]
    fn a_call_lowered_where_the_plan_calls_it_out_of_line_is_rejected() {
        // The site runs one `IADD.U64` where it called `f`, and its layout
        // records that code's span.
        let (image, mut body, mut sites) = one_site(&original(), 0);
        let code = Instruction::new(
            Op::Iadd,
            [Operand::Reg(Reg(16)), Operand::Reg(Reg(16)), Operand::Imm(1)],
        )
        .with_mods(Mods { itype: sass::op::IType::U64, ..Mods::default() });
        body.splice(0..4, [code]);
        sites[0].len -= 3;
        sites[0].orig_pos -= 3;
        sites[0].calls = vec![Some((0, 1))];
        let lowered = PlannedCall { lowering: Lowering::Code([code].into()), ..planned() };
        let mut plan = InstrumentationPlan::default();
        plan.sites.insert(0, vec![lowered]);
        let walked = |plan: &InstrumentationPlan| {
            let d = walk_with(&original(), (&image, &body, &sites), plan, &out_of_line());
            d.iter().map(|d| d.kind).collect::<Vec<_>>()
        };
        assert_eq!(walked(&plan), vec![]);
        plan.sites.insert(0, vec![planned()]);
        assert_eq!(walked(&plan), vec![DiagKind::PlanMismatch, DiagKind::PlanMismatch]);
    }

    // ----- One-site images on hand-built plans ----------------------------

    /// A two-block original body: `IADD; BRA +0; IADD; EXIT`.
    fn original() -> Vec<Instruction> {
        vec![iadd(4, 1), Instruction::new(Op::Bra, [Operand::Rel(0)]), iadd(5, 1), {
            Instruction::new(Op::Exit, [])
        }]
    }

    /// `original` instrumented at `idx` with a `good()`-shaped site: save,
    /// frame pointer, the call of `f`, restore and the relocated original,
    /// every other instruction relocated around it.
    fn one_site(
        original: &[Instruction],
        idx: usize,
    ) -> (Vec<Instruction>, Vec<Instruction>, Vec<SiteMeta>) {
        let sites = vec![SiteMeta {
            instr_idx: idx,
            start: idx,
            len: 5,
            orig_pos: 4,
            tier: 16,
            calls: vec![None],
        }];
        let layout = layout(original.len(), &sites);
        let relocated = original
            .iter()
            .zip(layout.slots())
            .enumerate()
            .map(|(i, (o, at))| layout.relocate(o, i, at).unwrap_or(*o));
        let mut body: Vec<_> = relocated.collect();
        let frame = Instruction::new(Op::Mov, [Operand::Reg(Reg(0)), Operand::Reg(Reg::SP)]);
        body.splice(idx..idx, [jcal(SAVE), frame, jcal(TOOL), jcal(RESTORE)]);
        let mut image = original.to_vec();
        image[0] = layout.entry(0);
        (image, body, sites)
    }

    /// The walker on an image of `original` with one site, against a plan
    /// with `calls` there.
    fn check(
        original: &[Instruction],
        (image, body, sites): (&[Instruction], &[Instruction], &[SiteMeta]),
        calls: Vec<PlannedCall>,
        fns: &ToolFns,
    ) -> Vec<Diagnostic> {
        let mut plan = InstrumentationPlan::default();
        plan.sites.insert(sites[0].instr_idx, calls);
        walk_with(original, (image, body, sites), &plan, fns)
    }

    #[test]
    fn save_area_access_beyond_the_tier_is_rejected() {
        // Tier 16 on Volta addresses slots 0..=17 (16 regs + preds +
        // barrier state); slot 18 is out of frame.
        let slots = frame_slots(16, &hal());
        assert_eq!(slots, 18);
        // An argument load inside the bracket, ahead of the tool call.
        let (image, mut body, mut sites) = one_site(&original(), 0);
        let arg = |slot: u32| {
            let at = Operand::MRef { base: Reg::SP, offset: 4 * slot as i32 };
            Instruction::new(Op::Ldl, [Operand::Reg(Reg(4)), at])
        };
        body.insert(2, arg(slots));
        sites[0].len += 1;
        sites[0].orig_pos += 1;
        let run = |body: &[Instruction]| {
            check(&original(), (&image, body, &sites), vec![planned()], &out_of_line())
        };
        assert!(run(&body).iter().any(|d| d.kind == DiagKind::TierExceeded));
        // The slot just below the bound is fine.
        body[2] = arg(slots - 1);
        assert_eq!(run(&body), vec![]);
    }

    /// Effect lowering's registers are checked against the highest register
    /// the original names, the lift's fact, not against the plan's choice:
    /// `R30`, named only by an instruction no site displaces, rules out a
    /// scratch pair at or below it.
    #[test]
    fn reserved_registers_must_lie_above_every_register_the_original_names() {
        let (image, mut body, sites) = good();
        body[0] = iadd(30, 1);
        let mut original = good_original();
        original[0] = body[0];
        let found = |scratch| {
            let mut plan = plan_of(&sites);
            plan.promotion.scratch = Some(Reg(scratch));
            let diags = walk_with(&original, (&image, &body, &sites), &plan, &out_of_line());
            diags.iter().map(|d| (d.kind, d.region, d.index)).collect::<Vec<_>>()
        };
        assert_eq!(found(30), [(DiagKind::PromotionMismatch, Region::Image, 0)]);
        assert_eq!(found(32), []);
    }

    #[test]
    fn relocated_original_may_use_the_stack() {
        let (mut image, mut body, sites) = good();
        // The relocated original is a local store at depth 0 — legitimate.
        let stl = Instruction::new(
            Op::Stl,
            [Operand::MRef { base: Reg::SP, offset: 8 }, Operand::Reg(Reg(5))],
        );
        (image[1], body[5]) = (stl, stl);
        assert_eq!(run(&image, &body, &sites), vec![]);
    }
}
