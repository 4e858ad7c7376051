//! Liveness analysis and linear-scan register allocation.
//!
//! Virtual registers are assigned one physical location for the whole
//! function (no live-range splitting, no spilling — a function that exceeds
//! the register file reports [`PtxError::OutOfRegisters`], mirroring how
//! `ptxas` would spill where we instead reject).
//!
//! # ABI
//!
//! * `R0` ([`NVBIT_FRAME`]) — the NVBit device-API frame pointer inside
//!   instrumentation functions (local-memory address of the caller's
//!   register save area); unused elsewhere.
//! * `R1` — stack pointer into per-thread local memory.
//! * `R2`, `R3` ([`SCRATCH_LO`], [`SCRATCH_HI`]) — reserved lowering scratch
//!   (an even-aligned pair, so wide temporaries fit).
//! * `R4`–`R15` — caller-saved; device-function arguments, from
//!   [`FIRST_CALLER`] up in [`arg_slot`] order, and return value.
//! * `R16`+ — callee-saved; values live across a `call` are placed here and
//!   the function saves/restores what it uses.
//!
//! The NVBit core emits its tool calls against these same constants.
//!
//! A call-free function has no value live across a call, so its allocation
//! does not depend on the split: only the save/restore bracket does, and a
//! caller that has saved what it needs can drop that bracket
//! ([`crate::CompiledFunction::leaf_body`]).

use crate::ast::{AddrBase, Address, ArgRange, Function, Interner, PtxInstr, PtxOp, Src, VReg};
use crate::cfg::{ones, FnCfg, Linear};
use crate::types::PtxType;
use crate::{PtxError, Result};
use sass::Reg;

/// First caller-saved allocatable register, and the first argument
/// register: arguments fill `FIRST_CALLER..FIRST_CALLEE`.
pub const FIRST_CALLER: u8 = 4;
/// First callee-saved register, one past the last argument register.
pub const FIRST_CALLEE: u8 = 16;
/// Highest allocatable register (leaving headroom below `RZ`).
pub const LAST_ALLOC: u8 = 250;
/// The NVBit device-API frame pointer.
pub const NVBIT_FRAME: Reg = Reg(0);
/// The low register of the reserved scratch pair.
pub const SCRATCH_LO: Reg = Reg(2);
/// The high register of the reserved scratch pair.
pub const SCRATCH_HI: Reg = Reg(3);

/// The first register of the next argument: `next` is one past the
/// previous argument's last register ([`FIRST_CALLER`] for the first), and a
/// `wide` argument, a pair, starts on an even register.
pub fn arg_slot(next: u8, wide: bool) -> u8 {
    next.saturating_add(u8::from(wide && !next.is_multiple_of(2)))
}

/// Physical location assigned to a virtual register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loc {
    /// One general-purpose register.
    Gpr(u8),
    /// An even-aligned register pair (value is the low register).
    Pair(u8),
    /// A predicate register.
    Pred(u8),
}

impl Loc {
    /// The low general-purpose register index, if not a predicate.
    pub fn gpr(&self) -> Option<u8> {
        match self {
            Loc::Gpr(r) | Loc::Pair(r) => Some(*r),
            Loc::Pred(_) => None,
        }
    }
}

/// Result of allocation for one function, and the tables that computed
/// it: [`Allocation::fill`] reuses them, so the backend keeps one per
/// module.
#[derive(Debug, Default)]
pub struct Allocation {
    /// Physical location per [`VReg`]; `None` for a register no instruction
    /// touches.
    pub map: Vec<Option<Loc>>,
    /// Callee-saved registers this function writes and must preserve,
    /// ascending.
    pub used_callee_saved: Vec<u8>,
    work: Work,
}

/// The allocator's per-function tables.
#[derive(Debug, Default)]
struct Work {
    /// The block-level use/def and live sets (see `Allocation::fill`).
    bits: Vec<u64>,
    /// Per register, the first and last position it is live at.
    spans: Vec<(usize, usize)>,
    /// Positions of the `call`s, for the caller/callee-saved split.
    calls: Vec<usize>,
    intervals: Vec<Interval>,
    active: Vec<Active>,
}

/// The registers one instruction reads and the one it may write.
#[derive(Debug, Clone, Copy)]
pub struct UsesDefs {
    /// Guard, address base and operand registers, in operand order, each
    /// where the instruction has one.
    pub uses: [Option<VReg>; 4],
    /// A `call`'s argument registers, read after `uses`.
    pub args: ArgRange,
    /// The destination register.
    pub def: Option<VReg>,
}

impl UsesDefs {
    /// Uses and defs of one instruction.
    pub fn of(i: &PtxInstr) -> UsesDefs {
        use PtxOp as P;
        let src = |s: &Src| match s {
            Src::Reg(r) => Some(*r),
            Src::Imm(_) => None,
        };
        let base = |a: &Address| match a.base {
            AddrBase::Reg(r) => Some(r),
            AddrBase::Shared(_) => None,
        };
        let mut args = ArgRange { start: 0, len: 0 };
        // The operands read, in operand order, and the register written.
        let (reads, def) = match &i.op {
            P::LdParam { dst, .. } => ([None; 3], Some(*dst)),
            P::Ld { dst, addr, .. } => ([base(addr), None, None], Some(*dst)),
            P::St { addr, src: s, .. } | P::Red { addr, src: s, .. } => {
                ([base(addr), Some(*s), None], None)
            }
            P::Mov { dst, src: s, .. } => ([s.as_ref().and_then(src), None, None], Some(*dst)),
            P::Bin { dst, a, b, .. } | P::Setp { dst, a, b, .. } | P::Shfl { dst, a, b, .. } => {
                ([Some(*a), src(b), None], Some(*dst))
            }
            P::Mad { dst, a, b, c: last, .. } | P::Selp { dst, a, b, p: last, .. } => {
                ([Some(*a), src(b), Some(*last)], Some(*dst))
            }
            P::Cvt { dst, src: s, .. }
            | P::Vote { dst, src: s, .. }
            | P::Popc { dst, src: s }
            | P::Mufu { dst, src: s, .. }
            | P::Proxy { dst, src: s, .. } => ([Some(*s), None, None], Some(*dst)),
            P::Bra { .. } | P::Ret | P::Exit | P::BarSync | P::Membar => ([None; 3], None),
            P::RetVal { src: s } | P::ChanPush { src: s } => ([Some(*s), None, None], None),
            P::Call { ret, args: range, .. } => {
                args = *range;
                ([None; 3], *ret)
            }
            P::Atom { dst, addr, src: s, src2, .. } => ([base(addr), Some(*s), *src2], Some(*dst)),
            P::NvReadReg { dst, idx } => ([src(idx), None, None], Some(*dst)),
            P::NvWriteReg { idx, src: s } => ([src(idx), Some(*s), None], None),
        };
        let uses = [i.guard.map(|g| g.reg), reads[0], reads[1], reads[2]];
        UsesDefs { uses, args, def }
    }

    /// Every register read, `f` being the instruction's function.
    pub fn reads<'f>(&'f self, f: &'f Function) -> impl Iterator<Item = VReg> + 'f {
        self.uses.iter().flatten().chain(f.args(self.args)).copied()
    }

    /// Every register read, then the one written.
    pub fn all<'f>(&'f self, f: &'f Function) -> impl Iterator<Item = VReg> + 'f {
        self.reads(f).chain(self.def)
    }
}

/// A conservative live interval over instruction indices.
#[derive(Debug, Clone, Copy)]
struct Interval {
    reg: usize,
    ty: PtxType,
    start: usize,
    end: usize,
    crosses_call: bool,
}

/// A register in use until `end`.
#[derive(Debug)]
struct Active {
    end: usize,
    loc: Loc,
}

impl Allocation {
    /// Runs liveness and linear-scan allocation for a function, into these
    /// tables.
    ///
    /// # Errors
    ///
    /// [`PtxError::Semantic`] for undeclared registers,
    /// [`PtxError::OutOfRegisters`] when the register file is exhausted.
    pub fn fill(
        &mut self,
        names: &Interner,
        f: &Function,
        lin: &Linear,
        cfg: &FnCfg,
    ) -> Result<()> {
        let function = || names.resolve(f.name).to_string();
        let sem = |reason: String| PtxError::Semantic { function: function(), reason };
        let reg_name = |v: usize| names.resolve(f.regs[v].name);
        let Allocation { map, used_callee_saved, work } = self;
        let Work { bits, spans, calls, intervals, active } = work;

        // Block-level use/def sets and the live sets: four bit rows per
        // block, one bit per virtual register, in one vector.
        const GEN: usize = 0;
        const KILL: usize = 1;
        const LIVE_IN: usize = 2;
        const LIVE_OUT: usize = 3;
        let nb = cfg.blocks.len();
        let words = f.regs.len().div_ceil(64);
        let row = |set: usize, block: usize| (set * nb + block) * words;
        bits.clear();
        bits.resize(4 * nb * words, 0);
        // Conservative intervals: a register is live at position p if it is
        // live anywhere in [start, end] covering p.
        const UNTOUCHED: (usize, usize) = (usize::MAX, 0);
        spans.clear();
        spans.resize(f.regs.len(), UNTOUCHED);
        let mut touch =
            |v: usize, pos: usize| spans[v] = (spans[v].0.min(pos), spans[v].1.max(pos));
        calls.clear();

        // One pass over the instructions, each read once for what it reads
        // and writes: all of it declared, the blocks' use/def sets, every
        // position a register is named at, and the calls.
        for (bid, b) in cfg.blocks.iter().enumerate() {
            for idx in b.start..b.end {
                let ud = UsesDefs::of(&lin.instrs[idx]);
                if let Some(v) = ud.all(f).find(|v| f.regs[v.index()].ty.is_none()) {
                    return Err(sem(format!("undeclared register `{}`", reg_name(v.index()))));
                }
                for u in ud.reads(f) {
                    let (w, bit) = (u.index() / 64, 1u64 << (u.index() % 64));
                    if bits[row(KILL, bid) + w] & bit == 0 {
                        bits[row(GEN, bid) + w] |= bit;
                    }
                    touch(u.index(), idx);
                }
                if let Some(d) = ud.def {
                    bits[row(KILL, bid) + d.index() / 64] |= 1u64 << (d.index() % 64);
                    touch(d.index(), idx);
                }
                if matches!(lin.instrs[idx].op, PtxOp::Call { .. }) {
                    calls.push(idx);
                }
            }
        }

        // Iterative backward liveness.
        let mut changed = true;
        while changed {
            changed = false;
            for bid in (0..nb).rev() {
                for w in 0..words {
                    let out =
                        cfg.succs(bid).iter().fold(0, |out, &s| out | bits[row(LIVE_IN, s) + w]);
                    let inp = bits[row(GEN, bid) + w] | (out & !bits[row(KILL, bid) + w]);
                    if out != bits[row(LIVE_OUT, bid) + w] || inp != bits[row(LIVE_IN, bid) + w] {
                        bits[row(LIVE_OUT, bid) + w] = out;
                        bits[row(LIVE_IN, bid) + w] = inp;
                        changed = true;
                    }
                }
            }
        }

        // The intervals reach every block boundary they are live across.
        for (bid, b) in cfg.blocks.iter().enumerate() {
            ones(&bits[row(LIVE_IN, bid)..][..words]).for_each(|v| touch(v, b.start));
            ones(&bits[row(LIVE_OUT, bid)..][..words]).for_each(|v| touch(v, b.end - 1));
        }

        intervals.clear();
        intervals.extend(spans.iter().enumerate().filter(|(_, span)| **span != UNTOUCHED).map(
            |(reg, &(start, end))| {
                let ty = f.regs[reg].ty.expect("every touched register is declared");
                // Live "across" a call: the interval strictly covers it.
                let crosses_call = calls.iter().any(|&c| start < c && c < end);
                Interval { reg, ty, start, end, crosses_call }
            },
        ));
        // Load-bearing for byte identity: intervals that start and end
        // together are scanned in the order of their registers' spellings
        // (`%r10` before `%r2`), which decides who gets the lower physical
        // register.
        intervals.sort_unstable_by(|a, b| {
            (a.start, a.end)
                .cmp(&(b.start, b.end))
                .then_with(|| reg_name(a.reg).cmp(reg_name(b.reg)))
        });

        // Linear scan with three pools.
        let mut gpr_free = [true; 256];
        for r in 0..FIRST_CALLER {
            gpr_free[r as usize] = false; // reserved scratch + SP
        }
        gpr_free[255] = false; // RZ
        for slot in gpr_free.iter_mut().take(255).skip(LAST_ALLOC as usize + 1) {
            *slot = false;
        }
        let mut pred_free = [true; 7];

        active.clear();
        map.clear();
        map.resize(f.regs.len(), None);
        // The callee-saved registers written, one bit each.
        let mut used_callee = [0u64; 4];

        for iv in intervals.iter() {
            // Expire finished intervals.
            active.retain(|a| {
                if a.end < iv.start {
                    match a.loc {
                        Loc::Gpr(r) => gpr_free[r as usize] = true,
                        Loc::Pair(r) => {
                            gpr_free[r as usize] = true;
                            gpr_free[r as usize + 1] = true;
                        }
                        Loc::Pred(p) => pred_free[p as usize] = true,
                    }
                    false
                } else {
                    true
                }
            });

            let loc = match iv.ty {
                PtxType::Pred => {
                    let p = (0..7).find(|&p| pred_free[p]).ok_or_else(|| {
                        PtxError::OutOfRegisters { function: function(), required: 8 }
                    })?;
                    pred_free[p] = false;
                    Loc::Pred(p as u8)
                }
                ty if ty.is_wide() => {
                    let r = find_pair(&gpr_free, iv.crosses_call).ok_or_else(|| {
                        PtxError::OutOfRegisters { function: function(), required: 256 }
                    })?;
                    gpr_free[r as usize] = false;
                    gpr_free[r as usize + 1] = false;
                    Loc::Pair(r)
                }
                _ => {
                    let r = find_single(&gpr_free, iv.crosses_call).ok_or_else(|| {
                        PtxError::OutOfRegisters { function: function(), required: 256 }
                    })?;
                    gpr_free[r as usize] = false;
                    Loc::Gpr(r)
                }
            };
            if let Some(r) = loc.gpr() {
                let hi = if matches!(loc, Loc::Pair(_)) { r + 1 } else { r };
                for reg in r..=hi {
                    if reg >= FIRST_CALLEE {
                        used_callee[reg as usize / 64] |= 1 << (reg % 64);
                    }
                }
            }
            active.push(Active { end: iv.end, loc });
            map[iv.reg] = Some(loc);
        }

        used_callee_saved.clear();
        used_callee_saved.extend(ones(&used_callee).map(|r| r as u8));
        Ok(())
    }
}

fn find_single(free: &[bool; 256], callee_only: bool) -> Option<u8> {
    let start = if callee_only { FIRST_CALLEE } else { FIRST_CALLER };
    (start..=LAST_ALLOC).find(|&r| free[r as usize])
}

fn find_pair(free: &[bool; 256], callee_only: bool) -> Option<u8> {
    let start = if callee_only { FIRST_CALLEE } else { FIRST_CALLER };
    let mut r = start + (start % 2);
    while r < LAST_ALLOC {
        if free[r as usize] && free[r as usize + 1] {
            return Some(r);
        }
        r += 2;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Module;
    use crate::cfg::{FnCfg, Linear};
    use crate::parser::parse;

    /// One function's allocation, indexable by register spelling.
    struct ByName {
        m: Module,
        func: usize,
        a: Allocation,
    }

    impl std::ops::Index<&str> for ByName {
        type Output = Loc;
        fn index(&self, name: &str) -> &Loc {
            let reg = self.m.functions[self.func].reg_named(self.m.names.get(name).unwrap());
            self.a.map[reg.unwrap().index()].as_ref().unwrap()
        }
    }

    fn alloc_nth(src: &str, func: usize) -> ByName {
        let m = parse(src).unwrap();
        let f = &m.functions[func];
        let lin = Linear::of(f);
        let cfg = FnCfg::build(&lin);
        let mut a = Allocation::default();
        a.fill(&m.names, f, &lin, &cfg).unwrap();
        ByName { m, func, a }
    }

    fn alloc(src: &str) -> ByName {
        alloc_nth(src, 0)
    }

    #[test]
    fn distinct_live_values_get_distinct_registers() {
        let a = alloc(
            r#"
.entry k()
{
    .reg .u32 %r<4>;
    mov.u32 %r1, 1;
    mov.u32 %r2, 2;
    add.u32 %r3, %r1, %r2;
    st.global.u32 [%r3], %r3;
    exit;
}
"#,
        );
        // %r3's address use is bogus PTX (32-bit base) but allocation does
        // not care; r1, r2, r3 overlap pairwise.
        let l1 = a["%r1"];
        let l2 = a["%r2"];
        assert_ne!(l1, l2);
    }

    #[test]
    fn wide_registers_get_even_pairs() {
        let a = alloc(
            r#"
.entry k(.param .u64 p)
{
    .reg .u64 %rd<3>;
    ld.param.u64 %rd1, [p];
    add.u64 %rd2, %rd1, 8;
    st.global.u64 [%rd2], %rd1;
    exit;
}
"#,
        );
        for v in ["%rd1", "%rd2"] {
            match a[v] {
                Loc::Pair(r) => assert_eq!(r % 2, 0, "{v} pair not even-aligned"),
                other => panic!("{v} should be a pair, got {other:?}"),
            }
        }
    }

    #[test]
    fn registers_are_reused_after_death() {
        let a = alloc(
            r#"
.entry k()
{
    .reg .u32 %r<10>;
    mov.u32 %r1, 1;
    st.global.u32 [%r1], %r1;
    mov.u32 %r2, 2;
    st.global.u32 [%r2], %r2;
    mov.u32 %r3, 3;
    st.global.u32 [%r3], %r3;
    exit;
}
"#,
        );
        // All three die immediately; they can share one register.
        assert_eq!(a["%r1"], a["%r2"]);
        assert_eq!(a["%r2"], a["%r3"]);
    }

    #[test]
    fn values_live_across_calls_use_callee_saved() {
        let a = alloc_nth(
            r#"
.func helper()
{
    ret;
}
.entry k()
{
    .reg .u32 %r<3>;
    mov.u32 %r1, 7;
    call helper;
    st.global.u32 [%r1], %r1;
    exit;
}
"#,
            1,
        );
        match a["%r1"] {
            Loc::Gpr(r) => assert!(r >= FIRST_CALLEE, "live-across-call got caller-saved R{r}"),
            other => panic!("unexpected loc {other:?}"),
        }
        assert!(!a.a.used_callee_saved.is_empty());
    }

    #[test]
    fn loop_carried_values_stay_allocated_through_the_loop() {
        let a = alloc(
            r#"
.entry k()
{
    .reg .u32 %r<4>;
    .reg .pred %p<2>;
    mov.u32 %r1, 0;
    mov.u32 %r2, 0;
TOP:
    add.u32 %r2, %r2, %r1;
    add.u32 %r1, %r1, 1;
    setp.lt.u32 %p1, %r1, 10;
    @%p1 bra TOP;
    st.global.u32 [%r2], %r2;
    exit;
}
"#,
        );
        // %r1 and %r2 are simultaneously live through the loop.
        assert_ne!(a["%r1"], a["%r2"]);
    }

    #[test]
    fn undeclared_register_is_a_semantic_error() {
        let m = parse(".entry k()\n{\n    mov.u32 %nope, 1;\n    exit;\n}\n").unwrap();
        let f = &m.functions[0];
        let lin = Linear::of(f);
        let cfg = FnCfg::build(&lin);
        assert!(matches!(
            Allocation::default().fill(&m.names, f, &lin, &cfg),
            Err(PtxError::Semantic { .. })
        ));
    }

    #[test]
    fn predicates_allocate_from_the_predicate_file() {
        let a = alloc(
            r#"
.entry k()
{
    .reg .u32 %r<2>;
    .reg .pred %p<3>;
    setp.eq.u32 %p1, %r1, 0;
    setp.ne.u32 %p2, %r1, 0;
    vote.ballot.b32 %r1, %p1;
    vote.ballot.b32 %r1, %p2;
    exit;
}
"#,
        );
        let (p1, p2) = (a["%p1"], a["%p2"]);
        assert!(matches!(p1, Loc::Pred(_)));
        assert!(matches!(p2, Loc::Pred(_)));
        assert_ne!(p1, p2);
    }
}
// (additional tests appended)
#[cfg(test)]
mod pressure_tests {
    use super::*;
    use crate::cfg::{FnCfg, Linear};
    use crate::parser::parse;

    #[test]
    fn exhausting_the_register_file_is_reported() {
        // 130 simultaneously-live 64-bit pairs = 260 slots > the file.
        let mut src = String::from(".entry k(.param .u64 p)\n{\n    .reg .u64 %rd<132>;\n");
        src.push_str("    ld.param.u64 %rd0, [p];\n");
        for i in 1..130 {
            src.push_str(&format!("    add.u64 %rd{i}, %rd0, {i};\n"));
        }
        // Keep them all live by storing each at the end.
        for i in 0..130 {
            src.push_str(&format!("    st.global.u64 [%rd0+{}], %rd{i};\n", 8 * i));
        }
        src.push_str("    exit;\n}\n");
        let m = parse(&src).unwrap();
        let f = &m.functions[0];
        let lin = Linear::of(f);
        let cfg = FnCfg::build(&lin);
        assert!(matches!(
            Allocation::default().fill(&m.names, f, &lin, &cfg),
            Err(PtxError::OutOfRegisters { .. })
        ));
    }

    #[test]
    fn exhausting_predicates_is_reported() {
        let mut src = String::from(".entry k()\n{\n    .reg .u32 %r<2>;\n    .reg .pred %p<9>;\n");
        for i in 0..8 {
            src.push_str(&format!("    setp.eq.u32 %p{i}, %r1, {i};\n"));
        }
        for i in 0..8 {
            src.push_str(&format!("    @%p{i} st.global.u32 [%r1], %r1;\n"));
        }
        src.push_str("    exit;\n}\n");
        let m = parse(&src).unwrap();
        let f = &m.functions[0];
        let lin = Linear::of(f);
        let cfg = FnCfg::build(&lin);
        assert!(matches!(
            Allocation::default().fill(&m.names, f, &lin, &cfg),
            Err(PtxError::OutOfRegisters { .. })
        ));
    }
}
