//! The instrumentation plan IR: the typed middle layer between the raw
//! injection list a tool records ([`FuncSpec`]) and the code generator.
//!
//! The spec is *what the tool asked for*; the plan is *what will be
//! emitted*. [`build`] validates the request, groups injection sites by
//! `sass::cfg` basic block, and climbs the [`PlanLevel`] ladder of
//! optimization passes over the result — the callback-coalescing and
//! inlining levers every mature DBI framework applies (Pin, DynamoRIO; see
//! the DBI survey), mapped onto the paper's Fig. 9 overhead breakdown
//! (block coalescing from [`PlanLevel::Block`]; region coalescing from
//! [`PlanLevel::Region`]; effect lowering at [`PlanLevel::Promoted`]). Both
//! merging passes need the body's CFG: under the ICF exception, where
//! there is none, the plan merges nothing (the paper's flat view). A
//! planned call is either called out of line, the paper's trampoline
//! (§5.1, Fig. 4), or replaced by the code of its effect.
//!
//! 1. **Block coalescing** (opt-in per injection via
//!    [`crate::spec::Injection::coalesce`]): injections of the same tool
//!    function with identical *block-invariant* arguments (immediates,
//!    constant-bank reads) and an `IPoint::Before` point are merged into a
//!    single call per basic block carrying a multiplicity argument. This is
//!    exact, not approximate: the warp's active mask cannot change inside a
//!    basic block (control flow only occurs at block ends, and predication
//!    does not alter the mask), so one call with multiplicity *N* observes
//!    the same active lanes as *N* calls with multiplicity 1.
//! 2. **Region coalescing**: the same merge over a wider class, one call
//!    per [`sass::Dom`] coalescing region — the dominator/
//!    post-dominator/cycle-equivalence classes whose blocks provably
//!    execute exactly as often, per lane, as the class head (see
//!    [`sass::dom`] for the exactness argument). Irreducible control flow
//!    makes every block its own region, so this rung degrades to block
//!    coalescing rather than to an approximation. One merge runs per plan,
//!    over the class its rung names.
//! 3. **Effect lowering**: a call of a spliceable body (small, call-free,
//!    stack-free, no `nvbit.readreg`/`writereg` use, a straight line or one
//!    guarded diamond — see `codegen::classify_body`) with one
//!    known effect becomes that effect's code ([`crate::codegen::Effect`]):
//!    a counter one `IADD.U64` into a register pair, zeroed at entry and
//!    flushed at each `EXIT` (LLVM PGO's counter promotion); a push
//!    `IADD.U64` and `CHAN.64`. Any other call stays out of line.
//!
//! Every coalesce-marked injection follows the **multiplicity protocol**:
//! the plan appends one trailing `Imm32` argument — 1 when the call stands
//! alone, *N* when it represents *N* merged sites — so the tool function's
//! signature (and its output) is identical whether or not the passes run.

use crate::codegen::{arg_demand, clobber, Effect, ToolFns, ToolId};
use crate::lift::Lifted;
use crate::spec::{abi_slots, Arg, FuncSpec, IPoint, Injection};
use crate::{NvbitError, Result};
use common::InlineVec;
use sass::cfg::block_of;
use sass::op::{CfClass, IType, SubOp};
use sass::{Analysis, Guard, Instruction, Mods, Op, Operand, Reg, Width};
use std::collections::{BTreeMap, HashSet};

/// How far up the pass ladder [`build`] climbs. Each rung runs every pass
/// of the rungs below it, so the legal configurations are exactly the
/// rungs (paper Fig. 9: each rung removes more of the per-site overhead).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PlanLevel {
    /// One call per requested site — no pass runs.
    Naive,
    /// Block coalescing over coalesce-marked injections.
    Block,
    /// Adds dominator-region coalescing.
    Region,
    /// Adds effect lowering ([`Promotion`]); a call it declines stays out
    /// of line.
    Promoted,
}

/// Which optimization passes [`build`] runs. Part of the image-cache key:
/// different options produce different bodies for the same spec.
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
    pub func: ToolId,
    /// Before or after the original instruction.
    pub ipoint: IPoint,
    /// Finalized positional arguments. For coalesce-marked calls this
    /// already includes the trailing `Imm32` multiplicity argument.
    pub args: Vec<Arg>,
    /// What the code generator emits for the call.
    pub lowering: Lowering,
}

/// How a [`PlannedCall`] is emitted: called or lowered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lowering {
    /// A `JCAL` of the tool function between the save and restore routines.
    Call,
    /// Effect lowering's code in place of the call:
    /// `[@g] IADD.U64 pair, pair, value` or `IADD.U64 s, base, off ; [@g] CHAN.64 s`.
    Code(InlineVec<Instruction, 2>),
}

/// `op` on 64-bit values.
fn wide<const N: usize>(op: Op, operands: [Operand; N], sub: SubOp) -> Instruction {
    Instruction::new(op, operands).with_mods(Mods { itype: IType::U64, sub, ..Mods::default() })
}

/// The immediates one `IADD` carries on both encoding families.
const IADD_IMM: std::ops::Range<i64> = -(1 << 22)..1 << 22;

/// Effect lowering's registers ([`PlanLevel::Promoted`], DESIGN §4i): a
/// pair per counter address, in first-site order, above everything the
/// image touches, and below them the scratch pair a flush addresses the
/// counter through and a push computes its address in. Instruction 0's site
/// zeroes every pair; each `EXIT`'s site adds every pair to its counter
/// under the `EXIT`'s guard.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Promotion {
    /// `(counter address, pair)`.
    pub pairs: Vec<(u64, Reg)>,
    /// The scratch pair, reserved when any call is lowered.
    pub scratch: Option<Reg>,
}

impl Promotion {
    /// The registers lowering reserves.
    pub(crate) fn registers(&self) -> std::ops::Range<u8> {
        self.scratch.map_or(0..0, |s| s.0..s.0 + 2 * self.pairs.len() as u8 + 2)
    }

    /// What opens the site of instruction `idx`: at instruction 0, the
    /// zeroing, `IADD.U64 pair, RZ, 0` per pair.
    pub(crate) fn prologue(&self, idx: usize) -> impl Iterator<Item = Instruction> + '_ {
        let zero = |p| [Operand::Reg(p), Operand::Reg(Reg::RZ), Operand::Imm(0)];
        let pairs = self.pairs.iter().filter(move |_| idx == 0);
        pairs.map(move |&(_, p)| wide(Op::Iadd, zero(p), SubOp::None))
    }

    /// What runs ahead of the relocated original `orig`: when it is an
    /// `EXIT`, the flush, per pair the counter's address into the scratch
    /// pair, then `@guard RED.ADD.U64 [scratch], pair` under `orig`'s guard.
    pub(crate) fn epilogue(&self, orig: &Instruction) -> impl Iterator<Item = Instruction> + '_ {
        let mov = |r, v| Instruction::new(Op::Mov32i, [Operand::Reg(r), Operand::Imm(v)]);
        let (scratch, guard) = (self.scratch.filter(|_| orig.op == Op::Exit), orig.guard);
        let pairs = scratch.into_iter().flat_map(|s| self.pairs.iter().map(move |p| (s, p)));
        pairs.flat_map(move |(s, &(addr, p))| {
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
    /// Basic blocks holding two or more members of one merged group.
    pub coalesced_groups: u64,
    /// Merged groups spanning more than one basic block (region
    /// coalescing).
    pub region_groups: u64,
    /// Whether a basic-block partition was available (coalescing needs
    /// one; indirect control flow defeats it — the ICF exception).
    pub cfg_available: bool,
    /// Always 0: no rung splices a call inline any more. The benchmark's
    /// adapter still reads the field.
    pub inline_accepted: u64,
    /// Emitted calls [`PlanLevel::Promoted`] leaves out of line. With
    /// `promoted_calls` it sums to `emitted_calls`; both are 0 below it.
    pub inline_declined: u64,
    /// Emitted calls [`PlanLevel::Promoted`] lowers, counters and pushes.
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
    /// Effect lowering's registers.
    pub promotion: Promotion,
    /// What the passes did.
    pub stats: PlanStats,
}

/// One requested injection on its way through the passes, and how many
/// requested sites it has come to stand for. The passes work on one flat
/// list of these, in site order; a [`PlannedCall`] is only made of the ones
/// still standing at the end, each at its own injection's site.
struct Request<'a> {
    inj: &'a Injection,
    /// The injection's explicit arguments (no multiplicity argument).
    args: &'a [Arg],
    /// The sites the call stands for, its own included; 0 once merged into
    /// another request's call.
    sites: i32,
}

impl Request<'_> {
    /// Coalesce-marked, before its instruction and every explicit argument
    /// the same at every site of a basic block (it depends on nothing per
    /// dynamic instance: no guard predicate, no register or predicate
    /// value): what merging requires.
    fn mergeable(&self) -> bool {
        let invariant = |a: &Arg| matches!(a, Arg::Imm32(_) | Arg::Imm64(_) | Arg::CBank { .. });
        let before = self.inj.ipoint == IPoint::Before;
        before && self.inj.coalesce && self.args.iter().all(invariant)
    }
}

/// Builds the plan: validates the spec against the lifted `original` and
/// the loaded tool functions, then runs the passes up to `opts.level`.
///
/// Coalescing uses the block partition of the lift's [`sass::Analysis`],
/// region coalescing its dominator regions and effect lowering reserves
/// registers above its [`Analysis::max_reg`]. Without a CFG nothing merges
/// or is lowered ([`PlanStats::cfg_available`] records it).
///
/// # Errors
///
/// [`NvbitError::BadInstrIndex`] for sites or removals outside the body,
/// [`NvbitError::UnknownToolFunction`] for an id outside `tool_fns`.
pub fn build(
    spec: &FuncSpec,
    original: &Lifted,
    arch: sass::Arch,
    tool_fns: &ToolFns,
    opts: PlanOpts,
) -> Result<InstrumentationPlan> {
    let body_len = original.instrs.len();
    // Validation — lifted here from the code generator, which now consumes
    // an already-validated plan.
    let sited = spec.injections().iter().map(|inj| inj.idx);
    if let Some(index) = sited.chain(spec.removed.iter().copied()).find(|idx| *idx >= body_len) {
        return Err(NvbitError::BadInstrIndex { index, len: body_len });
    }
    if let Some(inj) = spec.injections().iter().find(|i| i.func.0 >= tool_fns.fns.len()) {
        return Err(NvbitError::UnknownToolFunction(format!("{:?}", inj.func)));
    }

    let analysis = original.analysis.as_ref().ok();
    let mut stats = PlanStats {
        cfg_available: analysis.is_some(),
        requested_calls: spec.injections().len() as u64,
        ..PlanStats::default()
    };

    // Every injection starts as a call of its own at its own site; sites
    // ascend and a site's calls keep their request order.
    let mut requests: Vec<Request<'_>> = spec
        .injections()
        .iter()
        .map(|inj| Request { inj, args: spec.args(inj), sites: 1 })
        .collect();
    requests.sort_by_key(|r| r.inj.idx);

    // Passes 1 and 2, coalescing: merge within each basic block at `Block`,
    // within each control-equivalent, cycle-equivalent region of blocks from
    // `Region` up (every block is its own region under irreducible control
    // flow). Without a CFG nothing merges.
    if let Some(a) = analysis.filter(|_| opts.level >= PlanLevel::Block) {
        (stats.coalesced_groups, stats.region_groups) =
            merge_calls(&mut requests, a, opts.level >= PlanLevel::Region);
    }

    // What is left standing is what is emitted, as a call. Sites whose
    // calls were all merged away are dropped — safe even for sites also
    // marked removed: the generator relocates a removed instruction as a
    // NOP whether or not a site holds it.
    let mut sites: BTreeMap<usize, Vec<PlannedCall>> = BTreeMap::new();
    for r in requests.iter().filter(|r| r.sites > 0) {
        let mut args = Vec::with_capacity(r.args.len() + 1);
        args.extend_from_slice(r.args);
        // The multiplicity protocol's trailing argument — how many requested
        // sites the call stands for — merged or not, so naive and coalesced
        // plans present identical tool signatures.
        args.extend(r.inj.coalesce.then_some(Arg::Imm32(r.sites)));
        stats.emitted_calls += 1;
        sites.entry(r.inj.idx).or_default().push(PlannedCall {
            func: r.inj.func,
            ipoint: r.inj.ipoint,
            args,
            lowering: Lowering::Call,
        });
    }
    stats.coalesced_away = stats.requested_calls - stats.emitted_calls;

    // Pass 3, effect lowering: only with a CFG, which rules out `BRX`.
    let promotion = match analysis.filter(|_| opts.level >= PlanLevel::Promoted) {
        Some(a) => promote(&mut sites, (original, a), arch, tool_fns, &spec.removed),
        None => Promotion::default(),
    };
    if opts.level >= PlanLevel::Promoted {
        for c in sites.values().flatten() {
            match c.lowering {
                Lowering::Call => stats.inline_declined += 1,
                Lowering::Code(_) => stats.promoted_calls += 1,
            }
        }
    }
    stats.promoted_pairs = promotion.pairs.len() as u64;
    Ok(InstrumentationPlan { sites, removed: spec.removed.clone(), promotion, stats })
}

/// Lowers each call of an [`Effect`] body whose predicate, if
/// tested, is `GuardPred` (the effect takes the site's guard) or a non-zero
/// `Imm32`: a counter's address an `Imm64` and value an `Imm32` or constant,
/// a push's base a `RegVal64` and offset an `Imm32`, both in [`IADD_IMM`] —
/// unless the function leaves by anything but `EXIT` (a call, `RET`, trap or
/// jump), branches to instruction 0 or calls the register device API. The
/// scratch pair and the counters' pairs go above [`Analysis::max_reg`], the
/// highest register the original names, every call's clobber window and the
/// ABI window, where no call reaches them; past `R253` the remaining
/// counters stay calls. With a counter, instruction 0 and every kept `EXIT`
/// are sites.
fn promote(
    sites: &mut BTreeMap<usize, Vec<PlannedCall>>,
    (original, analysis): (&Lifted, &Analysis),
    arch: sass::Arch,
    tool_fns: &ToolFns,
    removed: &HashSet<usize>,
) -> Promotion {
    use CfClass::{AbsCall, AbsJump, RelCall, Ret, Trap};
    let (isize, body) = (arch.instruction_size() as i64, &original.instrs);
    let leaves = body.iter().any(|ins| {
        matches!(ins.cf_class(), RelCall | AbsCall | AbsJump | Ret | Trap)
            || ins.raw().rel_target().is_some_and(|off| ins.idx as i64 + 1 + off / isize == 0)
    });
    let calls = || sites.values().flatten();
    if leaves || calls().any(|c| tool_fns[c.func].uses_reg_api) {
        return Promotion::default();
    }
    let names = analysis.max_reg.map_or(16, |r| u32::from(r) + 1);
    let clobbers =
        calls().flat_map(|c| c.args.iter().map(arg_demand).chain([clobber(c, &tool_fns[c.func])]));
    let mut free = (clobbers.fold(names.max(16), u32::max).next_multiple_of(2)..253).step_by(2);
    let Some(scratch) = free.next().map(|r| Reg(r as u8)) else { return Promotion::default() };
    let mut promotion = Promotion::default();
    for (&idx, call) in
        sites.iter_mut().flat_map(|(i, calls)| calls.iter_mut().map(move |c| (i, c)))
    {
        let Some(e) = tool_fns[call.func].effect else { continue };
        let arg = |slot: u8| abi_slots(&call.args).find(|(s, _)| *s == slot).map(|(_, a)| *a);
        let (Effect::Counter { pred, .. } | Effect::Push { pred, .. }) = e;
        let guard = match pred.map(arg) {
            None => Guard::ALWAYS,
            Some(Some(Arg::GuardPred)) => body[idx].raw().guard,
            Some(Some(Arg::Imm32(p))) if p != 0 => Guard::ALWAYS,
            _ => continue,
        };
        call.lowering = Lowering::Code(match e {
            Effect::Counter { addr, value, .. } => {
                let value = match (value, value.as_reg().and_then(|r| arg(r.0))) {
                    (_, Some(Arg::Imm32(v))) => i64::from(v as u32),
                    (Operand::Imm(v), None) => i64::from(v as u32),
                    _ => continue,
                };
                let Some(Arg::Imm64(addr)) = arg(addr).filter(|_| IADD_IMM.contains(&value)) else {
                    continue;
                };
                let known = promotion.pairs.iter().find(|(a, _)| *a == addr).map(|&(_, p)| p);
                let Some(pair) = known.or_else(|| free.next().map(|r| Reg(r as u8))) else {
                    continue;
                };
                if known.is_none() {
                    promotion.pairs.push((addr, pair));
                }
                let p = Operand::Reg(pair);
                [wide(Op::Iadd, [p, p, Operand::Imm(value)], SubOp::None).with_guard(guard)].into()
            }
            Effect::Push { base, off, .. } => match (arg(base), arg(off)) {
                (Some(Arg::RegVal64(b)), Some(Arg::Imm32(off)))
                    if IADD_IMM.contains(&i64::from(off)) =>
                {
                    let (s, b, off) = (Operand::Reg(scratch), Operand::Reg(Reg(b)), off.into());
                    let chan = Mods { width: Width::B64, ..Mods::default() };
                    let push = Instruction::new(Op::Chan, [s]).with_mods(chan).with_guard(guard);
                    [wide(Op::Iadd, [s, b, Operand::Imm(off)], SubOp::None), push].into()
                }
                _ => continue,
            },
        });
    }
    let lowered = |c: &PlannedCall| matches!(c.lowering, Lowering::Code(_));
    promotion.scratch = sites.values().flatten().any(lowered).then_some(scratch);
    let exits = body.iter().filter(|i| i.op() == Op::Exit && !removed.contains(&i.idx));
    for i in [0].into_iter().chain(exits.map(|i| i.idx)).filter(|_| !promotion.pairs.is_empty()) {
        sites.entry(i).or_default();
    }
    promotion
}

/// Merges mergeable calls whose sites share a class — the basic block, or
/// with `by_region` the block's dominator-region head — and returns how
/// many blocks hold two or more members of a group and how many groups span
/// more than one block.
///
/// Calls merge when they agree on class, tool function and explicit
/// arguments. Each such run is in site order: the call at its lowest site
/// stands for the run and counts its sites, and the others stand no longer.
/// A second call at a site the run already covers stays a call of its own
/// (a group represents each site once).
fn merge_calls(requests: &mut [Request<'_>], a: &Analysis, by_region: bool) -> (u64, u64) {
    let class = |b| if by_region { a.dom.region_head(b) } else { b };
    let mut candidates: Vec<_> = requests
        .iter()
        .enumerate()
        .filter(|(_, r)| r.mergeable())
        .filter_map(|(i, r)| {
            block_of(&a.blocks, r.inj.idx).map(|b| ((class(b), merge_key(r)), b, i))
        })
        .collect();
    // Calls that merge become neighbours, in site order. Ordering between
    // different keys has no semantics; it only has to be total.
    candidates.sort_unstable_by(|(ka, _, a), (kb, _, b)| (ka, a).cmp(&(kb, b)));

    let (mut block_groups, mut spanning) = (0, 0);
    for run in candidates.chunk_by(|(ka, ..), (kb, ..)| ka == kb) {
        let (_, first_block, head) = run[0];
        let (mut site, mut block, mut in_block) = (requests[head].inj.idx, first_block, 1);
        for &(_, b, i) in &run[1..] {
            if requests[i].inj.idx == site {
                continue; // a site the run covers — leave this call standalone
            }
            site = requests[i].inj.idx;
            requests[head].sites += 1;
            requests[i].sites = 0;
            in_block = if b == block { in_block + 1 } else { 1 };
            block = b;
            block_groups += u64::from(in_block == 2);
        }
        spanning += u64::from(block != first_block);
    }
    (block_groups, spanning)
}

/// What two calls of one class must agree on to merge: the tool function
/// and the explicit arguments, borrowed from the spec.
fn merge_key<'a>(r: &Request<'a>) -> (ToolId, &'a [Arg]) {
    (r.inj.func, r.args)
}

/// What the lifter hands down when static CFG recovery failed — for tests
/// that exercise the no-analysis fallbacks.
#[cfg(test)]
pub(crate) const NO_ANALYSIS: std::result::Result<Analysis, sass::CfgFailure> =
    Err(sass::CfgFailure::MisalignedTarget { index: 0, offset: 0 });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::ToolFn;
    use sass::{asm::assemble_arch, Arch, CfgFailure};

    /// The first function loaded into a table: `f` of [`fns`], `count` of
    /// [`counter`], `trace` of `traced`.
    const F: ToolId = ToolId(0);

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
        tool_fns: &ToolFns,
        opts: PlanOpts,
    ) -> Result<InstrumentationPlan> {
        build(spec, &crate::lift::lifted(prog, analysis.clone()), Arch::Volta, tool_fns, opts)
    }

    fn fns() -> ToolFns {
        ToolFns::from([("f", crate::codegen::calling(0x8000, 8, 0, false))])
    }

    /// The multiplicity a call planned from `spec` passes: its trailing
    /// `Imm32`, when a coalesce-marked injection asked for the rest.
    fn multiplicity(spec: &FuncSpec, call: &PlannedCall) -> Option<i32> {
        let (Arg::Imm32(m), explicit) = call.args.split_last()? else { return None };
        let marked = |inj: &Injection| inj.coalesce && inj.func == call.func;
        spec.injections().iter().any(|inj| marked(inj) && spec.args(inj) == explicit).then_some(*m)
    }

    fn count_spec(n: usize, ctr: u64) -> FuncSpec {
        let mut s = FuncSpec::default();
        for idx in 0..n {
            s.insert_call(idx, F, IPoint::Before);
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
        let plan = build_for(&spec, &body, &fns(), at(PlanLevel::Block)).unwrap();
        // Blocks are 0..3, 3..5, 5..6 → one call each, at the block heads.
        let idxs: Vec<usize> = plan.sites.keys().copied().collect();
        assert_eq!(idxs, vec![0, 3, 5]);
        assert_eq!(plan.sites[&0][0].args, vec![Arg::Imm64(0xdead), Arg::Imm32(3)]);
        assert_eq!(multiplicity(&spec, &plan.sites[&3][0]), Some(2));
        assert_eq!(multiplicity(&spec, &plan.sites[&5][0]), Some(1));
        assert_eq!(plan.stats.requested_calls, 6);
        assert_eq!(plan.stats.emitted_calls, 3);
        assert_eq!(plan.stats.coalesced_away, 3);
        assert_eq!(plan.stats.coalesced_groups, 2);
        assert!(plan.stats.cfg_available);
    }

    #[test]
    fn naive_plan_still_appends_multiplicity_one() {
        let body = (analyzed(BODY).0, NO_ANALYSIS);
        let n = body.0.len();
        let spec = count_spec(n, 1);
        // Naive by request, or for want of any partition to merge over.
        for opts in [PlanOpts::naive(), PlanOpts::default()] {
            let plan = build_for(&spec, &body, &fns(), opts).unwrap();
            assert_eq!(plan.sites.len(), n);
            for calls in plan.sites.values() {
                assert_eq!(calls[0].args.last(), Some(&Arg::Imm32(1)));
            }
            assert!(!plan.stats.cfg_available);
            assert_eq!(plan.stats.coalesced_away, 0);
        }
    }

    #[test]
    fn per_instance_args_block_coalescing() {
        let body = analyzed(BODY);
        let mut spec = FuncSpec::default();
        // Guard-pred argument is per-dynamic-instance.
        spec.insert_call(0, F, IPoint::Before);
        spec.add_arg(0, Arg::GuardPred);
        spec.set_coalesce(0);
        spec.insert_call(1, F, IPoint::Before);
        spec.add_arg(1, Arg::GuardPred);
        spec.set_coalesce(1);
        let plan = build_for(&spec, &body, &fns(), at(PlanLevel::Block)).unwrap();
        assert_eq!(plan.sites.len(), 2, "nothing merged");
        assert_eq!(plan.stats.coalesced_groups, 0);
    }

    #[test]
    fn different_args_split_groups() {
        let body = analyzed(BODY);
        let mut spec = FuncSpec::default();
        for (idx, ctr) in [(0usize, 0x10u64), (1, 0x10), (2, 0x20)] {
            spec.insert_call(idx, F, IPoint::Before);
            spec.add_arg(idx, Arg::Imm64(ctr));
            spec.set_coalesce(idx);
        }
        let plan = build_for(&spec, &body, &fns(), at(PlanLevel::Block)).unwrap();
        // Sites 0 and 1 merge (same counter); site 2 stands alone.
        assert_eq!(multiplicity(&spec, &plan.sites[&0][0]), Some(2));
        assert_eq!(multiplicity(&spec, &plan.sites[&2][0]), Some(1));
        assert_eq!(plan.stats.coalesced_groups, 1);
    }

    #[test]
    fn non_coalesce_calls_never_gain_the_multiplicity_arg() {
        let body = analyzed(BODY);
        let mut spec = FuncSpec::default();
        spec.insert_call(0, F, IPoint::Before);
        spec.add_arg(0, Arg::Imm64(7));
        let plan = build_for(&spec, &body, &fns(), PlanOpts::default()).unwrap();
        assert_eq!(plan.sites[&0][0].args, vec![Arg::Imm64(7)]);
    }

    /// A spliceable body with no effect, `IADD R5, R4, 0x1 ; RET`.
    fn effectless() -> ToolFn {
        let tool = assemble_arch("IADD R5, R4, 0x1 ;\nRET ;", Arch::Volta).unwrap();
        assert!(crate::codegen::classify_body(&tool, 8, false, Arch::Volta));
        let g = ToolFn::with_body(0x8100, 8, 0, false, tool, Arch::Volta);
        assert!(g.effect.is_none());
        g
    }

    #[test]
    fn the_top_rung_calls_out_of_line_what_it_does_not_lower() {
        // A spliceable body without an effect, a body with a call, and a
        // counter in a function that returns (a device function, like
        // `spmv_calls`' callees): none is lowered, each is one call out of
        // line, and the top rung counts them all as declined.
        let body = analyzed(BODY);
        let mut tool_fns = counter();
        let g = tool_fns.insert("g", effectless());
        let f = tool_fns.insert("f", fns()[F].clone());
        let mut spec = counted(&body.0[..2], |_| 0xa0);
        spec.insert_call(3, g, IPoint::Before);
        spec.insert_call(4, f, IPoint::Before);
        let returns = analyzed(&BODY.replace("EXIT", "RET"));
        for (body, promoted) in [(&body, 1), (&returns, 0)] {
            let top = build_for(&spec, body, &tool_fns, PlanOpts::default()).unwrap();
            let s = top.stats;
            assert_eq!((s.emitted_calls, s.promoted_calls), (3, promoted));
            assert_eq!(s.promoted_calls + s.inline_declined, s.emitted_calls);
            assert_eq!(s.inline_accepted, 0);
            for idx in [3, 4] {
                assert_eq!(top.sites[&idx][0].lowering, Lowering::Call);
            }
            for level in [PlanLevel::Naive, PlanLevel::Block, PlanLevel::Region] {
                let plan = build_for(&spec, body, &tool_fns, at(level)).unwrap();
                assert!(
                    plan.sites.values().flatten().all(|c| c.lowering == Lowering::Call),
                    "{level:?}"
                );
                let s = plan.stats;
                assert_eq!((s.inline_accepted, s.inline_declined, s.promoted_calls), (0, 0, 0));
            }
        }
    }

    #[test]
    fn validation_matches_the_old_codegen_errors() {
        let body = analyzed(BODY);
        let mut s = FuncSpec::default();
        s.insert_call(99, F, IPoint::Before);
        assert!(matches!(
            build_for(&s, &body, &fns(), PlanOpts::default()),
            Err(NvbitError::BadInstrIndex { index: 99, .. })
        ));
        // An id outside the table: nothing was loaded under it.
        let mut s2 = FuncSpec::default();
        s2.insert_call(0, ToolId(1), IPoint::Before);
        assert!(matches!(
            build_for(&s2, &body, &fns(), PlanOpts::default()),
            Err(NvbitError::UnknownToolFunction(_))
        ));
        let mut s3 = FuncSpec::default();
        s3.remove_orig(99);
        assert!(matches!(
            build_for(&s3, &body, &fns(), PlanOpts::default()),
            Err(NvbitError::BadInstrIndex { index: 99, .. })
        ));
    }

    #[test]
    fn removed_only_sites_survive_in_the_plan() {
        let body = analyzed(BODY);
        let mut s = FuncSpec::default();
        s.remove_orig(3);
        let plan = build_for(&s, &body, &fns(), PlanOpts::default()).unwrap();
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
        let plan = build_for(&spec, &body, &fns(), opts).unwrap();
        let idxs: Vec<usize> = plan.sites.keys().copied().collect();
        assert_eq!(idxs, vec![0, 3], "skip-block call hoisted into the entry call");
        assert_eq!(plan.sites[&0][0].args, vec![Arg::Imm64(0xdead), Arg::Imm32(4)]);
        assert_eq!(
            multiplicity(&spec, &plan.sites[&3][0]),
            Some(2),
            "conditional arm stays separate"
        );
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
        let plan = build_for(&spec, &body, &fns(), opts).unwrap();
        // Setup (instr 0) and tail (instrs 4,5) merge; the loop body
        // (instrs 1..4) executes more often and must stay out.
        let idxs: Vec<usize> = plan.sites.keys().copied().collect();
        assert_eq!(idxs, vec![0, 1]);
        assert_eq!(multiplicity(&spec, &plan.sites[&0][0]), Some(3), "instrs 0, 4 and 5");
        assert_eq!(multiplicity(&spec, &plan.sites[&1][0]), Some(3), "instrs 1, 2 and 3");
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
        let a = build_for(&spec, &body, &fns(), with_region).unwrap();
        let b = build_for(&spec, &body, &fns(), block_only).unwrap();
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

    // Under the ICF exception there is no CFG, and an indirect branch may
    // land inside any straight-line run: nothing merges, and every site
    // keeps its own call with multiplicity 1.
    #[test]
    fn indirect_control_flow_merges_nothing() {
        let body = analyzed(ICF);
        assert!(matches!(body.1, Err(CfgFailure::IndirectBranch { .. })));
        let mut spec = count_spec(body.0.len(), 7);
        spec.insert_call(0, F, IPoint::After);
        spec.add_arg(0, Arg::Imm64(8));
        spec.set_coalesce(0);
        let plan = build_for(&spec, &body, &fns(), PlanOpts::default()).unwrap();
        let idxs: Vec<usize> = plan.sites.keys().copied().collect();
        assert_eq!(idxs, (0..body.0.len()).collect::<Vec<_>>(), "one call per site");
        assert!(plan.sites.values().flatten().all(|c| multiplicity(&spec, c) == Some(1)));
        assert_eq!(plan.sites[&0][1].ipoint, IPoint::After);
        assert!(!plan.stats.cfg_available);
        assert_eq!((plan.stats.coalesced_groups, plan.stats.region_groups), (0, 0));
        assert_eq!(plan.stats.emitted_calls, plan.stats.requested_calls);
    }

    #[test]
    fn per_instance_after_points_stay_in_place() {
        let body = analyzed(BODY);
        let mut spec = FuncSpec::default();
        spec.insert_call(0, F, IPoint::After);
        spec.add_arg(0, Arg::GuardPred);
        spec.set_coalesce(0);
        let plan = build_for(&spec, &body, &fns(), PlanOpts::default()).unwrap();
        assert_eq!(plan.sites[&0][0].ipoint, IPoint::After);
    }

    // No pass moves or merges an After-point: at every rung each stays at
    // its own site, a call of its own.
    #[test]
    fn after_points_stay_after_calls_at_every_rung() {
        let body = analyzed(BODY);
        let mut spec = FuncSpec::default();
        for idx in [0, 1] {
            spec.insert_call(idx, F, IPoint::After);
            spec.add_arg(idx, Arg::Imm64(9));
            spec.set_coalesce(idx);
        }
        use PlanLevel::{Block, Naive, Promoted, Region};
        for level in [Naive, Block, Region, Promoted] {
            let plan = build_for(&spec, &body, &fns(), at(level)).unwrap();
            let calls: Vec<_> = plan.sites.iter().map(|(i, c)| (*i, c[0].ipoint)).collect();
            assert_eq!(calls, [(0, IPoint::After), (1, IPoint::After)], "{level:?}");
            assert!(plan.sites.values().flatten().all(|c| multiplicity(&spec, c) == Some(1)));
        }
    }

    // Two identical Before-points at site i share origin i: they must never
    // merge into one group (the group would list origin i twice).
    #[test]
    fn overlapping_origins_never_merge() {
        let body = analyzed(BODY);
        let mut spec = FuncSpec::default();
        for _ in 0..2 {
            spec.insert_call(0, F, IPoint::Before);
            spec.add_arg(0, Arg::Imm64(9));
            spec.set_coalesce(0);
        }
        let opts = at(PlanLevel::Region);
        let plan = build_for(&spec, &body, &fns(), opts).unwrap();
        assert_eq!(plan.stats.emitted_calls, 2);
        assert_eq!(plan.stats.coalesced_groups, 0);
        let idxs: Vec<usize> = plan.sites.keys().copied().collect();
        assert_eq!(idxs, vec![0]);
        assert!(plan.sites.values().flatten().all(|c| multiplicity(&spec, c) == Some(1)));

        // Across a region: site 1 is requested twice in the entry block,
        // whose region takes in the skip block (instr 5). The first call at
        // site 1 joins site 0's group, which also reaches instr 5; the second
        // stays a call of its own.
        let mut spec = FuncSpec::default();
        for idx in [0, 1, 1, 5] {
            spec.insert_call(idx, F, IPoint::Before);
            spec.add_arg(idx, Arg::Imm64(9));
            spec.set_coalesce(idx);
        }
        let plan = build_for(&spec, &body, &fns(), opts).unwrap();
        let calls: Vec<_> = plan
            .sites
            .iter()
            .flat_map(|(i, c)| c.iter().map(|c| (*i, multiplicity(&spec, c))))
            .collect();
        assert_eq!(calls, [(0, Some(3)), (1, Some(1))]);
        assert_eq!((plan.stats.coalesced_groups, plan.stats.region_groups), (1, 1));
        assert_eq!(plan.stats.emitted_calls, 2);
    }

    // ----- Counter promotion ------------------------------------------------

    /// The compiled `nvbit_count_pmult(pred, ctr, mult)` as `count`: a
    /// promotable counter (pred in R4, the address in R6:R7, mult in R8).
    fn counter() -> ToolFns {
        let text = "MOV R5, R8 ;\nISETP.EQ.U32 P0, R4, 0x0 ;\nSSY end ;\n@P0 BRA join ;\n\
                    MOV R8, R5 ;\nMOV R9, RZ ;\nATOM.ADD.U64 R4, [R6], R8, RZ ;\nBRA join ;\n\
                    join:\nSYNC ;\nend:\nRET ;";
        let body = assemble_arch(text, Arch::Volta).unwrap();
        let f = ToolFn::with_body(0x8000, 10, 0, false, body, Arch::Volta);
        assert!(matches!(f.effect, Some(Effect::Counter { pred: Some(4), addr: 6, .. })));
        ToolFns::from([("count", f)])
    }

    /// Every instruction of `prog` counted the way `CoalescedInstrCount::executed`
    /// does it, into counter `ctr(idx)`.
    fn counted(prog: &[Instruction], ctr: impl Fn(usize) -> u64) -> FuncSpec {
        let mut s = FuncSpec::default();
        for (idx, ins) in prog.iter().enumerate() {
            s.insert_call(idx, F, IPoint::Before);
            s.add_arg(idx, if ins.guard.is_always() { Arg::Imm32(1) } else { Arg::GuardPred });
            s.add_arg(idx, Arg::Imm64(ctr(idx)));
            s.set_coalesce(idx);
        }
        s
    }

    /// `IADD.U64 pair, pair, by`, under `guard`.
    fn increment(guard: &str, pair: u8, by: u32) -> Vec<Instruction> {
        assemble_arch(&format!("{guard} IADD.U64 R{pair}, R{pair}, {by:#x} ;"), Arch::Volta)
            .unwrap()
    }

    fn promoted(plan: &InstrumentationPlan) -> Vec<(usize, Vec<Instruction>)> {
        let calls = plan.sites.iter().flat_map(|(i, calls)| calls.iter().map(move |c| (*i, c)));
        let code = |c: &PlannedCall| match &c.lowering {
            Lowering::Code(code) => code.to_vec(),
            Lowering::Call => vec![],
        };
        calls.map(|(i, c)| (i, code(c))).collect()
    }

    #[test]
    fn counter_calls_add_into_one_pair_per_address_above_the_image() {
        // BODY names R0..R3 and the counter clobbers up to R9: the pairs start
        // past the ABI window, in first-site order, the scratch pair first.
        let body = analyzed(BODY);
        let spec = counted(&body.0, |idx| if idx < 3 { 0xa0 } else { 0xb0 });
        let plan = build_for(&spec, &body, &counter(), PlanOpts::default()).unwrap();
        assert_eq!(plan.promotion.pairs, [(0xa0, Reg(18)), (0xb0, Reg(20))]);
        assert_eq!((plan.promotion.scratch, plan.promotion.registers()), (Some(Reg(16)), 16..22));
        // Instructions 0 and 1 merge; the guarded branch counts under its
        // guard; 3 and 4 merge; the EXIT was a site already.
        let expect = [
            (0, increment("", 18, 2)),
            (2, increment("@P0", 18, 1)),
            (3, increment("", 20, 2)),
            (5, increment("", 20, 1)),
        ];
        assert_eq!(promoted(&plan), expect);
        assert!(plan.sites.values().flatten().all(|c| matches!(c.lowering, Lowering::Code(_))));
        let s = plan.stats;
        assert_eq!((s.promoted_calls, s.promoted_pairs, s.inline_accepted), (4, 2, 0));
        // One rung down nothing is promoted and every call is out of line.
        let called = build_for(&spec, &body, &counter(), at(PlanLevel::Region)).unwrap();
        assert_eq!(called.promotion, Promotion::default());
        assert!(called.sites.values().flatten().all(|c| c.lowering == Lowering::Call));
        assert_eq!(called.stats.promoted_calls, 0);
    }

    #[test]
    fn instruction_0_and_every_exit_become_sites() {
        // Only instruction 1 is counted; the zeroing needs instruction 0's
        // site and the flushes both EXITs' (the guarded one included).
        let body = analyzed("S2R R0, SR_TID.X ;\nIADD R1, R0, 0x1 ;\n@P0 EXIT ;\nEXIT ;");
        let mut spec = FuncSpec::default();
        spec.insert_call(1, F, IPoint::Before);
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
    /// anything; the calls stay out of line when it does not.
    fn promotes(src: &str, fns: &ToolFns, edit: impl Fn(&mut FuncSpec)) -> bool {
        let body = analyzed(src);
        let mut spec = counted(&body.0, |_| 0xa0);
        edit(&mut spec);
        let plan = build_for(&spec, &body, fns, PlanOpts::default()).unwrap();
        let s = plan.stats;
        assert_eq!(s.inline_declined + s.promoted_calls, s.emitted_calls);
        assert_eq!(
            s.inline_declined,
            plan.sites.values().flatten().filter(|c| c.lowering == Lowering::Call).count() as u64
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
        let regs = fns.insert("regs", crate::codegen::calling(0x9000, 8, 0, true));
        let with_regs = |s: &mut FuncSpec| s.insert_call(0, regs, IPoint::Before);
        assert!(!promotes(BODY, &fns, with_regs));
    }

    #[test]
    fn a_register_value_or_a_zero_predicate_keeps_the_call_out_of_line() {
        let body = analyzed(BODY);
        let mut spec = FuncSpec::default();
        spec.insert_call(3, F, IPoint::Before);
        for arg in [Arg::Imm32(1), Arg::Imm64(0xa0), Arg::RegVal(2)] {
            spec.add_arg(3, arg);
        }
        let plan = build_for(&spec, &body, &counter(), PlanOpts::default()).unwrap();
        assert_eq!(promoted(&plan), [(3, vec![])]);
        assert!(plan.sites.values().flatten().all(|c| c.lowering == Lowering::Call));
        // Neither a zero predicate: such a call never counts.
        let mut spec = counted(&body.0, |_| 0xa0);
        spec.insert_call(1, F, IPoint::Before);
        for arg in [Arg::Imm32(0), Arg::Imm64(0xb0), Arg::Imm32(1)] {
            spec.add_arg(1, arg);
        }
        let plan = build_for(&spec, &body, &counter(), PlanOpts::default()).unwrap();
        assert_eq!(plan.promotion.pairs.len(), 1);
        assert_eq!(plan.stats.inline_declined, 1);
    }

    #[test]
    fn counters_past_the_register_file_stay_calls() {
        // R240 leaves room for the scratch pair and five more, R244..R252:
        // the sixth counter on and its calls stay out of line.
        let src = format!("MOV R240, R0 ;\n{}EXIT ;", "IADD R240, R240, 0x1 ;\n".repeat(6));
        let body = analyzed(&src);
        let spec = counted(&body.0, |idx| 0x100 + 8 * idx as u64);
        let plan = build_for(&spec, &body, &counter(), PlanOpts::default()).unwrap();
        let pairs: Vec<u8> = plan.promotion.pairs.iter().map(|(_, r)| r.0).collect();
        assert_eq!(
            (plan.promotion.scratch, pairs),
            (Some(Reg(242)), vec![244, 246, 248, 250, 252])
        );
        let s = plan.stats;
        assert_eq!((s.promoted_calls, s.inline_declined, s.promoted_pairs), (5, 3, 5));
        assert!(plan.sites.range(5..).flat_map(|(_, c)| c).all(|c| c.lowering == Lowering::Call));
        // Past R252 nothing is left, not even the scratch pair.
        let body = analyzed("MOV R252, R0 ;\nEXIT ;");
        let plan = build_for(&counted(&body.0, |_| 8), &body, &counter(), PlanOpts::default());
        assert_eq!(plan.unwrap().promotion, Promotion::default());
    }

    // ----- Lowered pushes ---------------------------------------------------

    /// `nvbit_trace_chan(pred, base, off)` as `trace`, at `idx` of BODY with
    /// the base in R2:R3, planned at the top rung.
    fn traced(idx: usize, pred: Arg, off: i32) -> InstrumentationPlan {
        let text = "MOV R5, R8 ;\nISETP.EQ.U32 P0, R4, 0x0 ;\nSSY end ;\n@P0 BRA join ;\n\
                    MOV R8, R5 ;\nSHR.S32 R9, R5, 0x1f ;\nIADD.U64 R4, R6, R8 ;\nCHAN.64 R4 ;\n\
                    BRA join ;\njoin:\nSYNC ;\nend:\nRET ;";
        let f = ToolFn::with_body(
            0x8000,
            10,
            0,
            false,
            assemble_arch(text, Arch::Volta).unwrap(),
            Arch::Volta,
        );
        assert_eq!(f.effect, Some(Effect::Push { pred: Some(4), base: 6, off: 8 }));
        let mut spec = FuncSpec::default();
        spec.insert_call(idx, F, IPoint::Before);
        for arg in [pred, Arg::RegVal64(2), Arg::Imm32(off)] {
            spec.add_arg(idx, arg);
        }
        let fns = ToolFns::from([("trace", f)]);
        build_for(&spec, &analyzed(BODY), &fns, PlanOpts::default()).unwrap()
    }

    #[test]
    fn a_push_adds_into_the_scratch_pair_and_pushes_it_under_the_guard() {
        // A negative offset, at the guarded branch: the add runs on every
        // lane, the push on the guard's.
        let plan = traced(2, Arg::GuardPred, -64);
        let code = "IADD.U64 R16, R2, -0x40 ;\n@P0 CHAN.64 R16 ;";
        assert_eq!(promoted(&plan), [(2, assemble_arch(code, Arch::Volta).unwrap())]);
        assert_eq!((plan.promotion.scratch, plan.promotion.registers()), (Some(Reg(16)), 16..18));
        // No counter: no zeroing, no flush, no sites of their own.
        assert_eq!(plan.sites.keys().copied().collect::<Vec<_>>(), [2]);
        let s = plan.stats;
        assert_eq!((s.promoted_calls, s.promoted_pairs, s.inline_accepted), (1, 0, 0));
        // The bound is the `IADD` immediate's, on both sides.
        for off in [-(1 << 22), (1 << 22) - 1] {
            assert_eq!(traced(4, Arg::Imm32(1), off).stats.promoted_calls, 1, "{off}");
        }
    }

    #[test]
    fn a_far_offset_or_a_zero_predicate_keeps_the_push_a_call() {
        for (pred, off) in [(Arg::GuardPred, 1 << 22), (Arg::Imm32(0), 8)] {
            let plan = traced(4, pred, off);
            assert_eq!(promoted(&plan), [(4, vec![])], "{pred:?} {off}");
            assert_eq!(plan.sites[&4][0].lowering, Lowering::Call);
            assert_eq!(plan.promotion, Promotion::default());
        }
    }
}
