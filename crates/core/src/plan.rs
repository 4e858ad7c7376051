//! The instrumentation plan IR: the typed middle layer between the raw
//! injection list a tool records ([`FuncSpec`]) and the code generator.
//!
//! The spec is *what the tool asked for*; the plan is *what will be
//! emitted*. [`build`] validates the request, groups injection sites by
//! `sass::cfg` basic block, and climbs the [`PlanLevel`] ladder of
//! optimization passes over the result — the callback-coalescing and
//! inlining levers every mature DBI framework applies (Pin, DynamoRIO; see
//! the DBI survey), mapped onto the paper's Fig. 9 overhead breakdown
//! (block coalescing from [`PlanLevel::Block`]; after-point lowering and
//! region coalescing from [`PlanLevel::Region`]; leaf inlining at
//! [`PlanLevel::Spliced`]):
//!
//! 1. **After-point lowering** (paper Fig. 4 — the trampoline's
//!    post-original slot): an `IPoint::After` injection at a mid-block
//!    instruction *i* is observationally identical to an `IPoint::Before`
//!    injection at *i + 1* — nothing executes between "after *i*" and
//!    "before *i + 1*" on the fall-through edge, and a mid-block
//!    instruction always falls through (only block terminators transfer
//!    control; predication gates effects, not issue). The pass rewrites
//!    such coalesce-marked injections to the block-exit `Before` position
//!    so the coalescing passes can merge them; After-points on block
//!    terminators are never moved (that would cross a taken branch).
//! 2. **Block coalescing** (opt-in per injection via
//!    [`crate::spec::Injection::coalesce`]): injections of the same tool
//!    function with identical *block-invariant* arguments (immediates,
//!    constant-bank reads) and no predicate filter are merged into a single
//!    call per basic block carrying a multiplicity argument. This is exact,
//!    not approximate: the warp's active mask cannot change inside a basic
//!    block (control flow only occurs at block ends, and predication does
//!    not alter the mask), so one call with multiplicity *N* observes the
//!    same active lanes as *N* calls with multiplicity 1.
//! 3. **Region coalescing**: per-block merged calls are hoisted further,
//!    into one call per [`sass::Dom`] coalescing region — the dominator/
//!    post-dominator/cycle-equivalence classes whose blocks provably
//!    execute exactly as often, per lane, as the class head (see
//!    [`sass::dom`] for the exactness argument). Irreducible control flow
//!    makes every block its own region, so this pass degrades to a no-op
//!    rather than to an approximation.
//! 4. **Leaf inlining**: a call is spliced iff its tool body is spliceable
//!    (small, call-free, stack-free, no `nvbit.readreg`/`writereg` use, a
//!    straight line or one guarded diamond — see
//!    [`crate::codegen::ToolFn::inlinable`]): the body goes directly into
//!    the trampoline, eliminating the CALL/RET pair. The rule is a static
//!    property of the body, never of the site; how a splice is *saved* is
//!    the code generator's business.
//! 5. **Counter promotion** (LLVM PGO's): a call of a promotable counter
//!    body becomes one `IADD.U64` into a register pair, zeroed at entry and
//!    flushed by one `RED.ADD.U64` per thread before each `EXIT` ([`Promotion`]).
//!
//! Every coalesce-marked injection follows the **multiplicity protocol**:
//! the plan appends one trailing `Imm32` argument — 1 when the call stands
//! alone, *N* when it represents *N* merged sites — so the tool function's
//! signature (and its output) is identical whether or not the passes run.

use crate::codegen::{arg_demand, clobber, ToolFn};
use crate::spec::{abi_slots, Arg, FuncSpec, IPoint, Injection};
use crate::{NvbitError, Result};
use sass::cfg::{block_of, BasicBlock};
use sass::op::{CfClass, IType, SubOp};
use sass::{Analysis, CfgFailure, Guard, Instruction, Mods, Op, Operand, Reg};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// How far up the pass ladder [`build`] climbs. Each rung runs every pass
/// of the rungs below it, so the legal configurations are exactly the
/// rungs (paper Fig. 9: each rung removes more of the per-site overhead).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PlanLevel {
    /// One call per requested site — no pass runs.
    Naive,
    /// Block coalescing over coalesce-marked injections.
    Block,
    /// Adds after-point lowering and dominator-region coalescing.
    Region,
    /// Adds leaf splicing: every call whose tool body is spliceable
    /// ([`crate::codegen::ToolFn::inlinable`]) is spliced; any other stays
    /// an out-of-line call.
    Spliced,
    /// Adds counter promotion ([`Promotion`]).
    Promoted,
}

/// Which optimization passes [`build`] runs. Part of the image-cache key:
/// different options produce different trampolines for the same spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanOpts {
    /// The highest rung of the pass ladder to run.
    pub level: PlanLevel,
}

impl Default for PlanOpts {
    /// The top rung.
    fn default() -> Self {
        PlanOpts { level: PlanLevel::Promoted }
    }
}

impl PlanOpts {
    /// Every pass disabled — the naive one-call-per-site pipeline.
    pub fn naive() -> Self {
        PlanOpts { level: PlanLevel::Naive }
    }
}

/// One call the code generator will emit at a site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedCall {
    /// Tool device function to invoke.
    pub func: Arc<str>,
    /// Before or after the original instruction.
    pub ipoint: IPoint,
    /// Finalized positional arguments. For coalesce-marked calls this
    /// already includes the trailing `Imm32` multiplicity argument.
    pub args: Vec<Arg>,
    /// Wrap the call in the guard-predicate diamond.
    pub pred_filter: bool,
    /// The call follows the multiplicity protocol.
    pub coalesce: bool,
    /// Splice the tool function's body instead of emitting a `JCAL`.
    pub inline: bool,
    /// Instead of a call or a splice, the increment `[@guard] IADD.U64 pair,
    /// pair, value` of a promoted call ([`Promotion`]).
    pub promoted: Option<Instruction>,
}

/// `op` on 64-bit values.
fn wide<const N: usize>(op: Op, operands: [Operand; N], sub: SubOp) -> Instruction {
    Instruction::new(op, operands).with_mods(Mods { itype: IType::U64, sub, ..Mods::default() })
}

/// Counter promotion's registers ([`PlanLevel::Promoted`], DESIGN §4i): a
/// pair per counter address, in first-site order, above everything the
/// image touches, and below them the scratch pair a flush addresses the
/// counter through. Instruction 0's site zeroes every pair; each `EXIT`'s
/// site adds every pair to its counter under the `EXIT`'s guard.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Promotion {
    /// `(counter address, pair)`.
    pub pairs: Vec<(u64, Reg)>,
    /// The flushes' address pair.
    pub scratch: Reg,
}

impl Promotion {
    /// The registers promotion owns.
    pub(crate) fn registers(&self) -> std::ops::Range<u8> {
        let n = if self.pairs.is_empty() { 0 } else { 2 * self.pairs.len() as u8 + 2 };
        self.scratch.0..self.scratch.0 + n
    }

    /// `IADD.U64 pair, RZ, 0` per pair.
    pub(crate) fn zeroing(&self) -> impl Iterator<Item = Instruction> + '_ {
        let zero = |p| [Operand::Reg(p), Operand::Reg(Reg::RZ), Operand::Imm(0)];
        self.pairs.iter().map(move |&(_, p)| wide(Op::Iadd, zero(p), SubOp::None))
    }

    /// Per pair, the counter's address into the scratch pair, then
    /// `@guard RED.ADD.U64 [scratch], pair`.
    pub(crate) fn flush(&self, guard: Guard) -> impl Iterator<Item = Instruction> + '_ {
        let s = self.scratch;
        let mov = |r, v| Instruction::new(Op::Mov32i, [Operand::Reg(r), Operand::Imm(v)]);
        self.pairs.iter().flat_map(move |&(addr, p)| {
            let red =
                wide(Op::Red, [Operand::MRef { base: s, offset: 0 }, Operand::Reg(p)], SubOp::Add);
            let (lo, hi) = (i64::from(addr as i32), i64::from((addr >> 32) as i32));
            [mov(s, lo), mov(Reg(s.0 + 1), hi), red.with_guard(guard)]
        })
    }
}

/// Per-pass accounting reported through [`crate::codegen::InstrumentedImage`] and
/// the obs counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Injections the tool requested.
    pub requested_calls: u64,
    /// Calls the plan actually emits after coalescing.
    pub emitted_calls: u64,
    /// Requested calls eliminated by the coalescing pass
    /// (`requested_calls − emitted_calls`).
    pub coalesced_away: u64,
    /// Merged groups with more than one member.
    pub coalesced_groups: u64,
    /// Instrumentation sites left with no calls and dropped entirely (the
    /// original instruction runs in place, unpatched).
    pub sites_dropped: u64,
    /// `IPoint::After` injections lowered to the fall-through `Before`
    /// slot by the after-lowering pass.
    pub after_lowered: u64,
    /// Groups merged by the region-coalescing pass (beyond what block
    /// coalescing already merged).
    pub region_groups: u64,
    /// Whether a basic-block partition was available (coalescing needs
    /// one; indirect control flow defeats it — the ICF exception).
    pub cfg_available: bool,
    /// Groups merged over the conservative *partial* partition recovered
    /// under the ICF exception ([`sass::cfg::partial_blocks`]) — merges
    /// the naive fallback would have lost.
    pub icf_recovered: u64,
    /// Emitted calls [`PlanLevel::Spliced`] splices inline.
    pub inline_accepted: u64,
    /// Emitted calls [`PlanLevel::Spliced`] leaves out of line because the
    /// tool body is not spliceable. With `inline_accepted` and
    /// `promoted_calls` it sums to `emitted_calls`; all three are 0 below it.
    pub inline_declined: u64,
    /// Emitted calls [`PlanLevel::Promoted`] promotes.
    pub promoted_calls: u64,
    /// Register pairs they add into, one per counter address.
    pub promoted_pairs: u64,
}

/// The validated, optimized instrumentation plan for one function.
#[derive(Debug, Clone, Default)]
pub struct InstrumentationPlan {
    /// Planned calls per instruction index. Sites merged away by
    /// coalescing are absent: their original instructions run in place.
    pub sites: BTreeMap<usize, Vec<PlannedCall>>,
    /// Instructions whose original operation is removed.
    pub removed: HashSet<usize>,
    /// Counter promotion's registers.
    pub promotion: Promotion,
    /// What the passes did.
    pub stats: PlanStats,
}

/// One requested injection on its way through the passes: where it sits
/// now, and the group of requests it has come to stand for. The passes work
/// on one flat list of these, in emission order; a [`PlannedCall`] is only
/// made of the ones still standing at the end.
struct Request<'a> {
    inj: &'a Injection,
    /// The injection's explicit arguments (no multiplicity argument).
    args: &'a [Arg],
    /// The site the call is emitted at.
    site: usize,
    ipoint: IPoint,
    /// The call was an `IPoint::After` at `inj.idx`, lowered to `site`.
    lowered: bool,
    /// The next member of the group this request belongs to; the group's
    /// representative heads the chain.
    next: Option<usize>,
    /// False once merged into another request's group.
    stands: bool,
}

impl Request<'_> {
    /// Coalesce-marked, unfiltered and every explicit argument the same at
    /// every site of a basic block (it depends on nothing per dynamic
    /// instance: no guard predicate, no register or predicate value): what
    /// both the lowering and the merging passes require.
    fn movable(&self) -> bool {
        let invariant = |a: &Arg| matches!(a, Arg::Imm32(_) | Arg::Imm64(_) | Arg::CBank { .. });
        self.inj.coalesce && !self.inj.pred_filter && self.args.iter().all(invariant)
    }
}

/// The members of the group `head` represents, itself first.
fn group<'r, 'a>(
    requests: &'r [Request<'a>],
    head: usize,
) -> impl Iterator<Item = &'r Request<'a>> {
    std::iter::successors(Some(head), |&m| requests[m].next).map(|m| &requests[m])
}

/// Builds the plan: validates the spec against the function body and the
/// loaded tool functions, then runs the passes up to `opts.level`.
///
/// `analysis` is the body's [`sass::Analysis`] as the lifter computed it:
/// coalescing uses its block partition and region coalescing its dominator
/// regions. When static CFG recovery failed there is nothing to merge —
/// except under the ICF exception, where the conservative
/// [`sass::cfg::partial_blocks`] partition of `body` still supports block
/// coalescing ([`PlanStats::cfg_available`] and
/// [`PlanStats::icf_recovered`] record what happened).
///
/// # Errors
///
/// [`NvbitError::BadInstrIndex`] for sites or removals outside the body,
/// [`NvbitError::UnknownToolFunction`] for unregistered injections.
pub fn build(
    spec: &FuncSpec,
    body: &[Instruction],
    arch: sass::Arch,
    analysis: &std::result::Result<Analysis, CfgFailure>,
    tool_fns: &HashMap<Arc<str>, ToolFn>,
    opts: PlanOpts,
) -> Result<InstrumentationPlan> {
    let body_len = body.len();
    // Validation — lifted here from the code generator, which now consumes
    // an already-validated plan.
    let sited = spec.injections().iter().map(|inj| inj.idx);
    if let Some(index) = sited.chain(spec.removed.iter().copied()).find(|idx| *idx >= body_len) {
        return Err(NvbitError::BadInstrIndex { index, len: body_len });
    }
    if let Some(inj) = spec.injections().iter().find(|inj| !tool_fns.contains_key(&inj.func)) {
        return Err(NvbitError::UnknownToolFunction(inj.func.to_string()));
    }

    // Under the ICF exception, recover the partial partition.
    let partial: Option<Vec<BasicBlock>> = match analysis {
        Err(CfgFailure::IndirectBranch { .. }) => Some(sass::cfg::partial_blocks(body, arch)),
        _ => None,
    };
    let analysis = analysis.as_ref().ok();
    let blocks = analysis.map(|a| a.blocks.as_slice());

    let mut stats = PlanStats {
        cfg_available: blocks.is_some(),
        requested_calls: spec.injections().len() as u64,
        ..PlanStats::default()
    };

    // Every injection starts as a call of its own at its own site; sites
    // ascend and a site's calls keep their request order.
    let mut requests: Vec<Request<'_>> = spec
        .injections()
        .iter()
        .map(|inj| Request {
            inj,
            args: spec.args(inj),
            site: inj.idx,
            ipoint: inj.ipoint,
            lowered: false,
            next: None,
            stands: true,
        })
        .collect();
    requests.sort_by_key(|r| r.site);
    // Sites that carry a call at some point of the passes (2 while one
    // still stands there): the ones left empty are counted as dropped.
    let mut carries = vec![0u8; body_len];
    requests.iter().for_each(|r| carries[r.site] = 1);

    // Pass 1: after-point lowering (must precede coalescing so the lowered
    // calls participate in it): an eligible `IPoint::After` call at a
    // mid-block site moves to the `Before` slot of the next instruction —
    // the next instruction lies in the same basic block, so the move never
    // crosses a taken branch — ahead of that site's own calls.
    if let Some(blocks) = blocks.filter(|_| opts.level >= PlanLevel::Region) {
        for r in requests.iter_mut().filter(|r| r.ipoint == IPoint::After && r.movable()) {
            if block_of(blocks, r.site + 1) == block_of(blocks, r.site) {
                (r.site, r.ipoint, r.lowered) = (r.site + 1, IPoint::Before, true);
                carries[r.site] = 1;
                stats.after_lowered += 1;
            }
        }
        requests.sort_by_key(|r| (r.site, !r.lowered));
    }

    // Pass 2: block coalescing — merge within each basic block. Under the
    // ICF exception the partial partition still bounds runs of straight-
    // line code between statically known leaders, so per-block merging
    // applies there too; `icf_recovered` counts what the naive fallback
    // would have lost.
    let mut scratch = MergeScratch::default();
    if opts.level >= PlanLevel::Block {
        if let Some(blocks) = blocks {
            stats.coalesced_groups +=
                merge_calls(&mut requests, &mut scratch, |site| block_of(blocks, site));
        } else if let Some(partial) = &partial {
            let recovered =
                merge_calls(&mut requests, &mut scratch, |site| block_of(partial, site));
            stats.coalesced_groups += recovered;
            stats.icf_recovered += recovered;
        }
    }

    // Pass 3: region coalescing — merge across control-equivalent,
    // cycle-equivalent blocks. Identity regions under irreducible control
    // flow make this a no-op, so skip the walk entirely.
    if opts.level >= PlanLevel::Region {
        if let Some(a) = analysis.filter(|a| !a.dom.irreducible()) {
            stats.region_groups += merge_calls(&mut requests, &mut scratch, |site| {
                block_of(&a.blocks, site).map(|b| a.dom.region_head(b))
            });
        }
    }

    // What is left standing is what is emitted; pass 4, inline splicing: a
    // call is spliced iff its tool body is spliceable. Sites whose calls
    // were all merged or lowered away are dropped — safe even for sites
    // also marked removed: the generator NOPs removed-but-callless
    // instructions in place, with no trampoline needed.
    let mut sites: BTreeMap<usize, Vec<PlannedCall>> = BTreeMap::new();
    for (head, r) in requests.iter().enumerate().filter(|(_, r)| r.stands) {
        let mut args = Vec::with_capacity(r.args.len() + 1);
        args.extend_from_slice(r.args);
        // The multiplicity protocol's trailing argument — how many requested
        // sites the call stands for — merged or not, so naive and coalesced
        // plans present identical tool signatures.
        let multiplicity = group(&requests, head).count() as i32;
        args.extend(r.inj.coalesce.then_some(Arg::Imm32(multiplicity)));
        let inline = opts.level >= PlanLevel::Spliced && tool_fns[&r.inj.func].inlinable;
        stats.emitted_calls += 1;
        carries[r.site] = 2;
        sites.entry(r.site).or_default().push(PlannedCall {
            func: r.inj.func.clone(),
            ipoint: r.ipoint,
            args,
            pred_filter: r.inj.pred_filter,
            coalesce: r.inj.coalesce,
            inline,
            promoted: None,
        });
    }
    stats.sites_dropped = carries.iter().filter(|c| **c == 1).count() as u64;
    stats.coalesced_away = stats.requested_calls - stats.emitted_calls;

    // Pass 5, counter promotion: only with a CFG, which rules out `BRX`.
    let promotion = match analysis.filter(|_| opts.level >= PlanLevel::Promoted) {
        Some(_) => promote(&mut sites, body, arch, tool_fns, &spec.removed),
        None => Promotion::default(),
    };
    if opts.level >= PlanLevel::Spliced {
        for c in sites.values().flatten() {
            stats.inline_accepted += u64::from(c.inline);
            stats.promoted_calls += u64::from(c.promoted.is_some());
            stats.inline_declined += u64::from(!c.inline && c.promoted.is_none());
        }
    }
    stats.promoted_pairs = promotion.pairs.len() as u64;
    Ok(InstrumentationPlan { sites, removed: spec.removed.clone(), promotion, stats })
}

/// Promotes each unfiltered call of a [`crate::codegen::Counter`] body whose
/// address argument is an `Imm64`, value an `Imm32` or constant below 2²²
/// (an `IADD` immediate on both encodings) and predicate, if tested,
/// `GuardPred` (the increment takes the site's guard) or a non-zero `Imm32` —
/// unless the function leaves by anything but `EXIT` (a call, `RET`, trap or
/// jump), branches to instruction 0 or calls the register device API. Pairs
/// go above every register the original names, every call's clobber window
/// and the ABI window, where no splice, call or renaming reaches them; past
/// `R253` the remaining counters stay as they were. Instruction 0 and every
/// kept `EXIT` become sites.
fn promote(
    sites: &mut BTreeMap<usize, Vec<PlannedCall>>,
    body: &[Instruction],
    arch: sass::Arch,
    tool_fns: &HashMap<Arc<str>, ToolFn>,
    removed: &HashSet<usize>,
) -> Promotion {
    use CfClass::{AbsCall, AbsJump, RelCall, Ret, Trap};
    let isize = arch.instruction_size() as i64;
    let leaves = body.iter().enumerate().any(|(i, ins)| {
        matches!(ins.cf_class(), RelCall | AbsCall | AbsJump | Ret | Trap)
            || ins.rel_target().is_some_and(|off| i as i64 + 1 + off / isize == 0)
    });
    let calls = || sites.values().flatten();
    if leaves || calls().any(|c| tool_fns[&c.func].uses_reg_api) {
        return Promotion::default();
    }
    let names = body.iter().filter_map(|i| i.max_reg().map(|r| u32::from(r) + 1));
    let clobbers =
        calls().flat_map(|c| c.args.iter().map(arg_demand).chain([clobber(c, &tool_fns[&c.func])]));
    let mut free = (names.chain(clobbers).fold(16, u32::max).next_multiple_of(2)..253).step_by(2);
    let Some(scratch) = free.next() else { return Promotion::default() };
    let mut promotion = Promotion { pairs: Vec::new(), scratch: Reg(scratch as u8) };
    for (&idx, call) in
        sites.iter_mut().flat_map(|(i, calls)| calls.iter_mut().map(move |c| (i, c)))
    {
        let Some(c) = tool_fns[&call.func].counter.filter(|_| !call.pred_filter) else { continue };
        let arg = |slot: u8| abi_slots(&call.args).find(|(s, _)| *s == slot).map(|(_, a)| *a);
        let value = match (c.value, c.value.as_reg().and_then(|r| arg(r.0))) {
            (_, Some(Arg::Imm32(v))) => i64::from(v as u32),
            (Operand::Imm(v), None) => i64::from(v as u32),
            _ => continue,
        };
        let guard = match c.pred.map(arg) {
            None => Guard::ALWAYS,
            Some(Some(Arg::GuardPred)) => body[idx].guard,
            Some(Some(Arg::Imm32(p))) if p != 0 => Guard::ALWAYS,
            _ => continue,
        };
        let Some(Arg::Imm64(addr)) = arg(c.addr).filter(|_| value < 1 << 22) else { continue };
        let known = promotion.pairs.iter().find(|(a, _)| *a == addr).map(|&(_, pair)| pair);
        let Some(pair) = known.or_else(|| free.next().map(|r| Reg(r as u8))) else { continue };
        if known.is_none() {
            promotion.pairs.push((addr, pair));
        }
        let p = Operand::Reg(pair);
        let add = wide(Op::Iadd, [p, p, Operand::Imm(value)], SubOp::None);
        (call.inline, call.promoted) = (false, Some(add.with_guard(guard)));
    }
    let exits =
        body.iter().enumerate().filter(|(i, ins)| ins.op == Op::Exit && !removed.contains(i));
    for i in [0].into_iter().chain(exits.map(|(i, _)| i)).filter(|_| !promotion.pairs.is_empty()) {
        sites.entry(i).or_default();
    }
    promotion
}

/// The buffers [`merge_calls`] works in, kept across passes.
#[derive(Default)]
struct MergeScratch {
    /// `(class, request)` of every mergeable standing call.
    candidates: Vec<(usize, usize)>,
    /// The members of the group being formed and the origins they cover.
    members: Vec<usize>,
    origins: Vec<usize>,
}

/// Merges mergeable calls whose sites share an equivalence class, as
/// defined by `class_of` (basic block for the block pass, dominator-region
/// head for the region pass). Returns the number of groups merged.
///
/// Calls merge when they agree on class, tool function and explicit
/// arguments. The representative is the member with the lowest origin; it
/// keeps its placement and takes over the members' groups, and the others
/// stand no longer. Two calls covering a common origin site never merge
/// (each origin is represented at most once per group).
fn merge_calls(
    requests: &mut [Request<'_>],
    scratch: &mut MergeScratch,
    class_of: impl Fn(usize) -> Option<usize>,
) -> u64 {
    let MergeScratch { candidates, members, origins } = scratch;
    candidates.clear();
    candidates.reserve(requests.len());
    for (i, r) in requests.iter().enumerate() {
        if r.stands && r.ipoint == IPoint::Before && r.movable() {
            candidates.extend(class_of(r.site).map(|class| (class, i)));
        }
    }
    // Calls that merge become neighbours, in emission order. Ordering
    // between different keys has no semantics; it only has to be total.
    candidates.sort_unstable_by(|&(ca, a), &(cb, b)| {
        (ca, merge_key(&requests[a]), a).cmp(&(cb, merge_key(&requests[b]), b))
    });

    let mut merged_groups = 0u64;
    let mut rest = candidates.as_slice();
    while let Some(&(class, first)) = rest.first() {
        let same = |&(c, i): &(usize, usize)| {
            c == class && merge_key(&requests[i]) == merge_key(&requests[first])
        };
        let (run, later) = rest.split_at(rest.iter().take_while(|c| same(c)).count());
        rest = later;
        members.clear();
        origins.clear();
        for &(_, i) in run {
            if group(requests, i).any(|m| origins.contains(&m.inj.idx)) {
                continue; // overlapping origin — leave this call standalone
            }
            origins.extend(group(requests, i).map(|m| m.inj.idx));
            members.push(i);
        }
        if members.len() < 2 {
            continue;
        }
        // Origins are disjoint across members, so the lowest is unique.
        let lowest = |i: &usize| group(requests, *i).map(|m| m.inj.idx).min();
        let rep = *members.iter().min_by_key(|i| lowest(i)).expect("non-empty group");
        let mut tail = group_tail(requests, rep);
        for &m in members.iter().filter(|m| **m != rep) {
            requests[m].stands = false;
            requests[tail].next = Some(m);
            tail = group_tail(requests, m);
        }
        merged_groups += 1;
    }
    merged_groups
}

/// What two calls of one class must agree on to merge: the tool function
/// and the explicit arguments, borrowed from the spec.
fn merge_key<'a>(r: &Request<'a>) -> (&'a str, &'a [Arg]) {
    (&r.inj.func, r.args)
}

/// The last member of the group `head` represents.
fn group_tail(requests: &[Request<'_>], head: usize) -> usize {
    std::iter::successors(Some(head), |&m| requests[m].next).last().expect("the head itself")
}

/// What the lifter hands down when static CFG recovery failed — for tests
/// that exercise the no-analysis fallbacks.
#[cfg(test)]
pub(crate) const NO_ANALYSIS: std::result::Result<Analysis, CfgFailure> =
    Err(CfgFailure::MisalignedTarget { index: 0, offset: 0 });

#[cfg(test)]
mod tests {
    use super::*;
    use sass::{asm::assemble_arch, Arch};

    const BODY: &str = "\
    S2R R0, SR_TID.X ;
    ISETP.GE.S32 P0, R0, 0x10 ;
@P0 BRA skip ;
    IADD R1, R0, 0x1 ;
    STG [R2], R1 ;
skip:
    EXIT ;
";

    fn at(level: PlanLevel) -> PlanOpts {
        PlanOpts { level }
    }

    /// A body with its analysis, as the lifter hands them to [`build`].
    type Analyzed = (Vec<Instruction>, std::result::Result<Analysis, CfgFailure>);

    fn analyzed(src: &str) -> Analyzed {
        let prog = assemble_arch(src, Arch::Volta).unwrap();
        let analysis = Analysis::of(&prog, Arch::Volta);
        (prog, analysis)
    }

    fn build_for(
        spec: &FuncSpec,
        (prog, analysis): &Analyzed,
        tool_fns: &HashMap<Arc<str>, ToolFn>,
        opts: PlanOpts,
    ) -> Result<InstrumentationPlan> {
        build(spec, prog, Arch::Volta, analysis, tool_fns, opts)
    }

    fn fns(inlinable: bool) -> HashMap<Arc<str>, ToolFn> {
        let mut m = HashMap::new();
        let mut f = ToolFn::opaque(0x8000, 8, 0, false);
        f.inlinable = inlinable;
        m.insert("f".into(), f);
        m
    }

    /// The multiplicity a coalesce-marked call passes: its trailing `Imm32`.
    fn multiplicity(call: &PlannedCall) -> Option<i32> {
        match call.args.last() {
            Some(Arg::Imm32(m)) if call.coalesce => Some(*m),
            _ => None,
        }
    }

    fn count_spec(n: usize, ctr: u64) -> FuncSpec {
        let mut s = FuncSpec::default();
        for idx in 0..n {
            s.insert_call(idx, "f", IPoint::Before);
            s.add_arg(idx, Arg::Imm64(ctr));
            s.set_coalesce(idx);
        }
        s
    }

    #[test]
    fn coalescing_merges_per_block_and_appends_multiplicity() {
        let body = analyzed(BODY);
        let n = body.0.len();
        let spec = count_spec(n, 0xdead);
        let plan = build_for(&spec, &body, &fns(false), at(PlanLevel::Block)).unwrap();
        // Blocks are 0..3, 3..5, 5..6 → one call each, at the block heads.
        let idxs: Vec<usize> = plan.sites.keys().copied().collect();
        assert_eq!(idxs, vec![0, 3, 5]);
        assert_eq!(plan.sites[&0][0].args, vec![Arg::Imm64(0xdead), Arg::Imm32(3)]);
        assert_eq!(multiplicity(&plan.sites[&3][0]), Some(2));
        assert_eq!(multiplicity(&plan.sites[&5][0]), Some(1));
        assert_eq!(plan.stats.requested_calls, 6);
        assert_eq!(plan.stats.emitted_calls, 3);
        assert_eq!(plan.stats.coalesced_away, 3);
        assert_eq!(plan.stats.coalesced_groups, 2);
        assert_eq!(plan.stats.sites_dropped, 3);
        assert!(plan.stats.cfg_available);
    }

    #[test]
    fn naive_plan_still_appends_multiplicity_one() {
        let body = (analyzed(BODY).0, NO_ANALYSIS);
        let n = body.0.len();
        let spec = count_spec(n, 1);
        // Naive by request, or for want of any partition to merge over.
        for opts in [PlanOpts::naive(), PlanOpts::default()] {
            let plan = build_for(&spec, &body, &fns(false), opts).unwrap();
            assert_eq!(plan.sites.len(), n);
            for calls in plan.sites.values() {
                assert_eq!(calls[0].args.last(), Some(&Arg::Imm32(1)));
            }
            assert!(!plan.stats.cfg_available);
            assert_eq!(plan.stats.coalesced_away, 0);
        }
    }

    #[test]
    fn per_instance_args_and_pred_filter_block_coalescing() {
        let body = analyzed(BODY);
        let mut spec = FuncSpec::default();
        // Guard-pred argument is per-dynamic-instance.
        spec.insert_call(0, "f", IPoint::Before);
        spec.add_arg(0, Arg::GuardPred);
        spec.set_coalesce(0);
        spec.insert_call(1, "f", IPoint::Before);
        spec.add_arg(1, Arg::GuardPred);
        spec.set_coalesce(1);
        // Pred-filtered call never merges.
        spec.insert_call(2, "f", IPoint::Before);
        spec.set_coalesce(2);
        spec.set_pred_filter(2);
        let plan = build_for(&spec, &body, &fns(false), at(PlanLevel::Block)).unwrap();
        assert_eq!(plan.sites.len(), 3, "nothing merged");
        assert_eq!(plan.stats.coalesced_groups, 0);
    }

    #[test]
    fn different_args_split_groups() {
        let body = analyzed(BODY);
        let mut spec = FuncSpec::default();
        for (idx, ctr) in [(0usize, 0x10u64), (1, 0x10), (2, 0x20)] {
            spec.insert_call(idx, "f", IPoint::Before);
            spec.add_arg(idx, Arg::Imm64(ctr));
            spec.set_coalesce(idx);
        }
        let plan = build_for(&spec, &body, &fns(false), at(PlanLevel::Block)).unwrap();
        // Sites 0 and 1 merge (same counter); site 2 stands alone.
        assert_eq!(multiplicity(&plan.sites[&0][0]), Some(2));
        assert_eq!(multiplicity(&plan.sites[&2][0]), Some(1));
        assert_eq!(plan.stats.coalesced_groups, 1);
    }

    #[test]
    fn non_coalesce_calls_never_gain_the_multiplicity_arg() {
        let body = analyzed(BODY);
        let mut spec = FuncSpec::default();
        spec.insert_call(0, "f", IPoint::Before);
        spec.add_arg(0, Arg::Imm64(7));
        let plan = build_for(&spec, &body, &fns(false), PlanOpts::default()).unwrap();
        assert_eq!(plan.sites[&0][0].args, vec![Arg::Imm64(7)]);
    }

    #[test]
    fn inline_pass_marks_inlinable_leaves_only_at_the_top_rung() {
        let body = analyzed(BODY);
        let mut spec = FuncSpec::default();
        spec.insert_call(0, "f", IPoint::Before);
        let on = build_for(&spec, &body, &fns(true), PlanOpts::default()).unwrap();
        assert!(on.sites[&0][0].inline);
        assert_eq!(on.stats.inline_accepted, 1);
        let off = build_for(&spec, &body, &fns(true), at(PlanLevel::Region)).unwrap();
        assert!(!off.sites[&0][0].inline, "splicing is the top rung only");
        let opaque = build_for(&spec, &body, &fns(false), PlanOpts::default()).unwrap();
        assert!(!opaque.sites[&0][0].inline, "non-leaf tools are never inlined");
    }

    #[test]
    fn a_spliceable_body_is_spliced_whatever_is_live_at_the_site() {
        // R20 is live across site 1 and the tool body writes up to R23: the
        // splice the retired tier verdict kept out of line. Where it is
        // saved is the code generator's business, not the planner's.
        let src = "\
    MOV R20, R4 ;
    IADD R0, R4, 0x1 ;
    STG [R20], R0 ;
    EXIT ;
";
        let body = analyzed(src);
        let tool = assemble_arch("IADD R23, R23, 0x1 ;\nRET ;", Arch::Volta).unwrap();
        let mut tool_fns = fns(false);
        let g = ToolFn::with_body(0x8000, 8, 0, false, tool, Arch::Volta);
        tool_fns.insert("g".into(), g);
        let mut spec = FuncSpec::default();
        spec.insert_call(1, "g", IPoint::Before);
        spec.insert_call(2, "f", IPoint::Before);

        let top = build_for(&spec, &body, &tool_fns, PlanOpts::default()).unwrap();
        assert!(top.sites[&1][0].inline, "spliceable body");
        assert!(!top.sites[&2][0].inline, "opaque body");
        assert_eq!((top.stats.inline_accepted, top.stats.inline_declined), (1, 1));
        assert_eq!(top.stats.emitted_calls, 2);
        for level in [PlanLevel::Naive, PlanLevel::Block, PlanLevel::Region] {
            let plan = build_for(&spec, &body, &tool_fns, at(level)).unwrap();
            assert!(plan.sites.values().flatten().all(|c| !c.inline), "{level:?}");
            assert_eq!((plan.stats.inline_accepted, plan.stats.inline_declined), (0, 0));
        }
    }

    #[test]
    fn validation_matches_the_old_codegen_errors() {
        let body = analyzed(BODY);
        let mut s = FuncSpec::default();
        s.insert_call(99, "f", IPoint::Before);
        assert!(matches!(
            build_for(&s, &body, &fns(false), PlanOpts::default()),
            Err(NvbitError::BadInstrIndex { index: 99, .. })
        ));
        let mut s2 = FuncSpec::default();
        s2.insert_call(0, "missing", IPoint::Before);
        assert!(matches!(
            build_for(&s2, &body, &fns(false), PlanOpts::default()),
            Err(NvbitError::UnknownToolFunction(_))
        ));
        let mut s3 = FuncSpec::default();
        s3.remove_orig(99);
        assert!(matches!(
            build_for(&s3, &body, &fns(false), PlanOpts::default()),
            Err(NvbitError::BadInstrIndex { index: 99, .. })
        ));
    }

    #[test]
    fn removed_only_sites_survive_in_the_plan() {
        let body = analyzed(BODY);
        let mut s = FuncSpec::default();
        s.remove_orig(3);
        let plan = build_for(&s, &body, &fns(false), PlanOpts::default()).unwrap();
        assert!(plan.sites.is_empty());
        assert!(plan.removed.contains(&3));
    }

    // BODY's skip block (instr 5) is control- and cycle-equivalent to the
    // entry block: the region pass hoists its call into the entry group.
    #[test]
    fn region_pass_hoists_control_equivalent_blocks() {
        let body = analyzed(BODY);
        let spec = count_spec(body.0.len(), 0xdead);
        let opts = at(PlanLevel::Region);
        let plan = build_for(&spec, &body, &fns(false), opts).unwrap();
        let idxs: Vec<usize> = plan.sites.keys().copied().collect();
        assert_eq!(idxs, vec![0, 3], "skip-block call hoisted into the entry call");
        assert_eq!(plan.sites[&0][0].args, vec![Arg::Imm64(0xdead), Arg::Imm32(4)]);
        assert_eq!(multiplicity(&plan.sites[&3][0]), Some(2), "conditional arm stays separate");
        assert_eq!(plan.stats.region_groups, 1);
        assert_eq!(plan.stats.coalesced_groups, 2);
        assert_eq!(plan.stats.emitted_calls, 2);
        assert_eq!(plan.stats.coalesced_away, 4);
    }

    const LOOP: &str = "\
    MOV32I R0, 0x0 ;
body:
    IADD R0, R0, 0x1 ;
    ISETP.GE.S32 P0, R0, 0x10 ;
@!P0 BRA body ;
    STG [R2], R0 ;
    EXIT ;
";

    #[test]
    fn region_pass_skips_loop_bodies() {
        let body = analyzed(LOOP);
        let spec = count_spec(body.0.len(), 1);
        let opts = at(PlanLevel::Region);
        let plan = build_for(&spec, &body, &fns(false), opts).unwrap();
        // Setup (instr 0) and tail (instrs 4,5) merge; the loop body
        // (instrs 1..4) executes more often and must stay out.
        let idxs: Vec<usize> = plan.sites.keys().copied().collect();
        assert_eq!(idxs, vec![0, 1]);
        assert_eq!(multiplicity(&plan.sites[&0][0]), Some(3), "instrs 0, 4 and 5");
        assert_eq!(multiplicity(&plan.sites[&1][0]), Some(3), "instrs 1, 2 and 3");
        assert_eq!(plan.stats.region_groups, 1);
    }

    const IRREDUCIBLE: &str = "\
    ISETP.GE.S32 P0, R0, 0x10 ;
@P0 BRA b ;
a:
    IADD R1, R1, 0x1 ;
b:
    ISETP.GE.S32 P1, R1, 0x20 ;
@!P1 BRA a ;
    EXIT ;
";

    #[test]
    fn region_pass_is_a_noop_on_irreducible_control_flow() {
        let body = analyzed(IRREDUCIBLE);
        assert!(body.1.as_ref().unwrap().dom.irreducible());
        let spec = count_spec(body.0.len(), 1);
        let with_region = at(PlanLevel::Region);
        let block_only = at(PlanLevel::Block);
        let a = build_for(&spec, &body, &fns(false), with_region).unwrap();
        let b = build_for(&spec, &body, &fns(false), block_only).unwrap();
        assert_eq!(a.sites, b.sites, "irreducible graphs degrade to per-block merging");
        assert_eq!(a.stats.region_groups, 0);
    }

    const ICF: &str = "\
    S2R R0, SR_TID.X ;
    IADD R1, R0, 0x1 ;
    BRX R4 ;
    IADD R2, R0, 0x2 ;
    STG [R2], R1 ;
    EXIT ;
";

    // Under the ICF exception calls merge within each straight-line run of
    // the partial partition, never across the `BRX` that ends a run; and
    // no After-point is lowered, for want of the full CFG.
    #[test]
    fn indirect_control_flow_merges_within_runs_only() {
        let body = analyzed(ICF);
        assert!(matches!(body.1, Err(CfgFailure::IndirectBranch { .. })));
        let mut spec = count_spec(body.0.len(), 7);
        spec.insert_call(0, "f", IPoint::After);
        spec.add_arg(0, Arg::Imm64(8));
        spec.set_coalesce(0);
        let plan = build_for(&spec, &body, &fns(false), PlanOpts::default()).unwrap();
        let idxs: Vec<usize> = plan.sites.keys().copied().collect();
        assert_eq!(idxs, vec![0, 3], "one call per run, at its head");
        assert_eq!(multiplicity(&plan.sites[&0][0]), Some(3), "instrs 0, 1 and the BRX");
        assert_eq!(multiplicity(&plan.sites[&3][0]), Some(3), "instrs 3, 4 and 5");
        assert_eq!(plan.sites[&0][1].ipoint, IPoint::After);
        assert!(!plan.stats.cfg_available);
        assert_eq!(plan.stats.icf_recovered, 2);
        assert_eq!((plan.stats.coalesced_groups, plan.stats.region_groups), (2, 0));
        assert_eq!(plan.stats.after_lowered, 0);
    }

    /// One coalesce-marked `After` injection per `(site, counter)` pair.
    fn after_spec(sites: &[(usize, u64)]) -> FuncSpec {
        let mut s = FuncSpec::default();
        for &(idx, ctr) in sites {
            s.insert_call(idx, "f", IPoint::After);
            s.add_arg(idx, Arg::Imm64(ctr));
            s.set_coalesce(idx);
        }
        s
    }

    #[test]
    fn after_points_lower_to_fall_through_slots() {
        let body = analyzed(BODY);
        // Sites 0 and 1 are mid-block; site 2 is the block terminator.
        // Distinct counters keep the lowered calls from merging, so the
        // lowering is visible on its own.
        let spec = after_spec(&[(0, 9), (1, 10), (2, 11)]);
        let opts = at(PlanLevel::Region);
        let plan = build_for(&spec, &body, &fns(false), opts).unwrap();
        // Each lowered call is its origin's (its counter), ahead of the
        // calls of the site it moved to.
        let at = |site: usize| -> Vec<(IPoint, &[Arg])> {
            plan.sites[&site].iter().map(|c| (c.ipoint, c.args.as_slice())).collect()
        };
        let counted = |ctr| [Arg::Imm64(ctr), Arg::Imm32(1)];
        assert_eq!(at(1), [(IPoint::Before, &counted(9)[..])]);
        // The terminator's After-point must not cross the taken branch.
        assert_eq!(at(2), [(IPoint::Before, &counted(10)[..]), (IPoint::After, &counted(11)[..])]);
        assert_eq!(plan.stats.after_lowered, 2);
        assert!(!plan.sites.contains_key(&0), "emptied origin site dropped");
    }

    #[test]
    fn lowered_after_points_coalesce_under_the_multiplicity_protocol() {
        let body = analyzed(BODY);
        let spec = after_spec(&[(0, 9), (1, 9)]);
        let opts = at(PlanLevel::Region);
        let plan = build_for(&spec, &body, &fns(false), opts).unwrap();
        let idxs: Vec<usize> = plan.sites.keys().copied().collect();
        assert_eq!(idxs, vec![1], "anchored at origin 0's fall-through slot");
        let c = &plan.sites[&1][0];
        assert_eq!(c.ipoint, IPoint::Before);
        assert_eq!(c.args, vec![Arg::Imm64(9), Arg::Imm32(2)]);
        assert_eq!(plan.stats.after_lowered, 2);
        assert_eq!(plan.stats.coalesced_groups, 1);
    }

    #[test]
    fn per_instance_after_points_stay_in_place() {
        let body = analyzed(BODY);
        let mut spec = FuncSpec::default();
        spec.insert_call(0, "f", IPoint::After);
        spec.add_arg(0, Arg::GuardPred);
        spec.set_coalesce(0);
        let plan = build_for(&spec, &body, &fns(false), PlanOpts::default()).unwrap();
        assert_eq!(plan.sites[&0][0].ipoint, IPoint::After);
        assert_eq!(plan.stats.after_lowered, 0);
    }

    // A Before-point at site i and a lowered After-point from the same
    // site share origin i: they must never merge into one group (the
    // group would list origin i twice).
    #[test]
    fn overlapping_origins_never_merge() {
        let body = analyzed(BODY);
        let mut spec = FuncSpec::default();
        for ipoint in [IPoint::Before, IPoint::After] {
            spec.insert_call(0, "f", ipoint);
            spec.add_arg(0, Arg::Imm64(9));
            spec.set_coalesce(0);
        }
        let opts = at(PlanLevel::Region);
        let plan = build_for(&spec, &body, &fns(false), opts).unwrap();
        assert_eq!(plan.stats.emitted_calls, 2);
        assert_eq!(plan.stats.coalesced_groups, 0);
        // The Before-point stays at 0, the After-point is lowered to 1.
        let idxs: Vec<usize> = plan.sites.keys().copied().collect();
        assert_eq!(idxs, vec![0, 1]);
        assert!(plan.sites.values().flatten().all(|c| multiplicity(c) == Some(1)));
    }

    // ----- Counter promotion ------------------------------------------------

    /// The compiled `nvbit_count_pmult(pred, ctr, mult)` as `count`: a
    /// promotable counter (pred in R4, the address in R6:R7, mult in R8).
    fn counter() -> HashMap<Arc<str>, ToolFn> {
        let text = "MOV R5, R8 ;\nISETP.EQ.U32 P0, R4, 0x0 ;\nSSY end ;\n@P0 BRA join ;\n\
                    MOV R8, R5 ;\nMOV R9, RZ ;\nATOM.ADD.U64 R4, [R6], R8, RZ ;\nBRA join ;\n\
                    join:\nSYNC ;\nend:\nRET ;";
        let body = assemble_arch(text, Arch::Volta).unwrap();
        let f = ToolFn::with_body(0x8000, 10, 0, false, body, Arch::Volta);
        assert_eq!(f.counter.map(|c| (c.pred, c.addr)), Some((Some(4), 6)));
        HashMap::from([("count".into(), f)])
    }

    /// Every instruction of `prog` counted the way `CoalescedInstrCount::executed`
    /// does it, into counter `ctr(idx)`.
    fn counted(prog: &[Instruction], ctr: impl Fn(usize) -> u64) -> FuncSpec {
        let mut s = FuncSpec::default();
        for (idx, ins) in prog.iter().enumerate() {
            s.insert_call(idx, "count", IPoint::Before);
            s.add_arg(idx, if ins.guard.is_always() { Arg::Imm32(1) } else { Arg::GuardPred });
            s.add_arg(idx, Arg::Imm64(ctr(idx)));
            s.set_coalesce(idx);
        }
        s
    }

    /// `IADD.U64 pair, pair, by`, under `guard`.
    fn increment(guard: &str, pair: u8, by: u32) -> Option<Instruction> {
        let text = format!("{guard} IADD.U64 R{pair}, R{pair}, {by:#x} ;");
        Some(assemble_arch(&text, Arch::Volta).unwrap()[0])
    }

    fn promoted(plan: &InstrumentationPlan) -> Vec<(usize, Option<Instruction>)> {
        let calls = plan.sites.iter().flat_map(|(i, calls)| calls.iter().map(move |c| (*i, c)));
        calls.map(|(i, c)| (i, c.promoted)).collect()
    }

    #[test]
    fn counter_calls_add_into_one_pair_per_address_above_the_image() {
        // BODY names R0..R3 and the counter clobbers up to R9: the pairs start
        // past the ABI window, in first-site order, the scratch pair first.
        let body = analyzed(BODY);
        let spec = counted(&body.0, |idx| if idx < 3 { 0xa0 } else { 0xb0 });
        let plan = build_for(&spec, &body, &counter(), PlanOpts::default()).unwrap();
        assert_eq!(plan.promotion.pairs, [(0xa0, Reg(18)), (0xb0, Reg(20))]);
        assert_eq!((plan.promotion.scratch, plan.promotion.registers()), (Reg(16), 16..22));
        // Instructions 0 and 1 merge; the guarded branch counts under its
        // guard; 3 and 4 merge; the EXIT was a site already.
        let expect = [
            (0, increment("", 18, 2)),
            (2, increment("@P0", 18, 1)),
            (3, increment("", 20, 2)),
            (5, increment("", 20, 1)),
        ];
        assert_eq!(promoted(&plan), expect);
        assert!(plan.sites.values().flatten().all(|c| !c.inline));
        let s = plan.stats;
        assert_eq!((s.promoted_calls, s.promoted_pairs, s.inline_accepted), (4, 2, 0));
        // One rung down nothing is promoted and every call is spliced.
        let spliced = build_for(&spec, &body, &counter(), at(PlanLevel::Spliced)).unwrap();
        assert_eq!(spliced.promotion, Promotion::default());
        assert_eq!((spliced.stats.inline_accepted, spliced.stats.promoted_calls), (4, 0));
    }

    #[test]
    fn instruction_0_and_every_exit_become_sites() {
        // Only instruction 1 is counted; the zeroing needs instruction 0's
        // site and the flushes both EXITs' (the guarded one included).
        let body = analyzed("S2R R0, SR_TID.X ;\nIADD R1, R0, 0x1 ;\n@P0 EXIT ;\nEXIT ;");
        let mut spec = FuncSpec::default();
        spec.insert_call(1, "count", IPoint::Before);
        spec.add_arg(1, Arg::Imm32(1));
        spec.add_arg(1, Arg::Imm64(0xa0));
        spec.add_arg(1, Arg::Imm32(1));
        let plan = build_for(&spec, &body, &counter(), PlanOpts::default()).unwrap();
        let idxs: Vec<usize> = plan.sites.keys().copied().collect();
        assert_eq!(idxs, vec![0, 1, 2, 3]);
        assert_eq!(promoted(&plan), [(1, increment("", 18, 1))]);
        // Removed, an EXIT no longer exits: it gets no flush.
        spec.remove_orig(3);
        let plan = build_for(&spec, &body, &counter(), PlanOpts::default()).unwrap();
        assert!(!plan.sites.contains_key(&3));
    }

    /// Whether `src`, every instruction counted into one counter, promotes
    /// anything; the calls stay spliced when it does not.
    fn promotes(src: &str, fns: &HashMap<Arc<str>, ToolFn>, edit: impl Fn(&mut FuncSpec)) -> bool {
        let body = analyzed(src);
        let mut spec = counted(&body.0, |_| 0xa0);
        edit(&mut spec);
        let plan = build_for(&spec, &body, fns, PlanOpts::default()).unwrap();
        let s = plan.stats;
        assert_eq!(s.inline_accepted + s.inline_declined + s.promoted_calls, s.emitted_calls);
        assert_eq!(
            s.inline_accepted,
            plan.sites.values().flatten().filter(|c| c.inline).count() as u64
        );
        assert_eq!(s.promoted_pairs, plan.promotion.pairs.len() as u64);
        s.promoted_calls > 0
    }

    #[test]
    fn a_function_that_leaves_otherwise_than_by_exit_promotes_nothing() {
        let none = |_: &mut FuncSpec| {};
        assert!(promotes("S2R R0, SR_TID.X ;\nEXIT ;", &counter(), none));
        for src in [
            "S2R R0, SR_TID.X ;\nJCAL `0x100 ;\nEXIT ;",
            "S2R R0, SR_TID.X ;\nCAL .+0x10 ;\nEXIT ;\nRET ;",
            "S2R R0, SR_TID.X ;\nRET ;",
            "S2R R0, SR_TID.X ;\nBPT ;\nEXIT ;",
            "S2R R0, SR_TID.X ;\nJMP `0x100 ;",
            // Under the ICF exception there is no CFG to promote over.
            "S2R R0, SR_TID.X ;\nBRX R4 ;\nEXIT ;",
        ] {
            assert!(!promotes(src, &counter(), none), "{src}");
        }
    }

    #[test]
    fn a_loop_through_instruction_0_promotes_nothing() {
        // The zeroing would run again on every trip.
        let none = |_: &mut FuncSpec| {};
        assert!(!promotes(&LOOP.replace("MOV32I R0, 0x0 ;\n", ""), &counter(), none));
        assert!(promotes(LOOP, &counter(), none));
    }

    #[test]
    fn a_register_device_api_call_promotes_nothing() {
        let mut fns = counter();
        fns.insert("regs".into(), ToolFn::opaque(0x9000, 8, 0, true));
        let with_regs = |s: &mut FuncSpec| s.insert_call(0, "regs", IPoint::Before);
        assert!(!promotes(BODY, &fns, with_regs));
    }

    #[test]
    fn a_register_value_or_a_predicate_filter_keeps_the_call_spliced() {
        let body = analyzed(BODY);
        let mut spec = FuncSpec::default();
        for idx in [3, 4] {
            spec.insert_call(idx, "count", IPoint::Before);
            spec.add_arg(idx, Arg::Imm32(1));
            spec.add_arg(idx, Arg::Imm64(0xa0));
            spec.add_arg(idx, if idx == 3 { Arg::RegVal(2) } else { Arg::Imm32(1) });
        }
        spec.set_pred_filter(4);
        let plan = build_for(&spec, &body, &counter(), PlanOpts::default()).unwrap();
        assert_eq!(promoted(&plan), [(3, None), (4, None)]);
        assert!(plan.sites.values().flatten().all(|c| c.inline));
        // Neither a zero predicate: such a call never counts.
        let mut spec = counted(&body.0, |_| 0xa0);
        spec.insert_call(1, "count", IPoint::Before);
        for arg in [Arg::Imm32(0), Arg::Imm64(0xb0), Arg::Imm32(1)] {
            spec.add_arg(1, arg);
        }
        let plan = build_for(&spec, &body, &counter(), PlanOpts::default()).unwrap();
        assert_eq!(plan.promotion.pairs.len(), 1);
        assert_eq!(plan.stats.inline_accepted, 1);
    }

    #[test]
    fn counters_past_the_register_file_stay_spliced() {
        // R240 leaves room for the scratch pair and five more, R244..R252:
        // the sixth counter on and its calls stay as the Spliced rung has them.
        let src = format!("MOV R240, R0 ;\n{}EXIT ;", "IADD R240, R240, 0x1 ;\n".repeat(6));
        let body = analyzed(&src);
        let spec = counted(&body.0, |idx| 0x100 + 8 * idx as u64);
        let plan = build_for(&spec, &body, &counter(), PlanOpts::default()).unwrap();
        let pairs: Vec<u8> = plan.promotion.pairs.iter().map(|(_, r)| r.0).collect();
        assert_eq!((plan.promotion.scratch, pairs), (Reg(242), vec![244, 246, 248, 250, 252]));
        let s = plan.stats;
        assert_eq!((s.promoted_calls, s.inline_accepted, s.promoted_pairs), (5, 3, 5));
        assert!(plan
            .sites
            .range(5..)
            .flat_map(|(_, c)| c)
            .all(|c| c.inline && c.promoted.is_none()));
        // Past R252 nothing is left, not even the scratch pair.
        let body = analyzed("MOV R252, R0 ;\nEXIT ;");
        let plan = build_for(&counted(&body.0, |_| 8), &body, &counter(), PlanOpts::default());
        assert_eq!(plan.unwrap().promotion, Promotion::default());
    }
}
