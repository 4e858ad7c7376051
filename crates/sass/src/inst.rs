//! The machine instruction structure: guards, modifiers and operands.

use crate::op::{CfClass, CmpOp, IType, OKind, Op, SubOp};
use crate::reg::{Pred, Reg, SpecialReg};

/// Access width of a memory operation (also selects register pairs/quads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(u8)]
pub enum Width {
    /// 32 bits (one register).
    #[default]
    B32 = 0,
    /// 64 bits (an aligned register pair).
    B64 = 1,
    /// 128 bits (an aligned register quad).
    B128 = 2,
}

impl Width {
    /// All widths in encoding order.
    pub const ALL: [Width; 3] = [Width::B32, Width::B64, Width::B128];

    /// Decode from the 2-bit field value.
    pub fn from_index(v: u8) -> Option<Width> {
        Width::ALL.get(v as usize).copied()
    }

    /// Size of the access in bytes.
    pub fn bytes(self) -> usize {
        match self {
            Width::B32 => 4,
            Width::B64 => 8,
            Width::B128 => 16,
        }
    }

    /// Number of consecutive 32-bit registers transferred.
    pub fn regs(self) -> usize {
        self.bytes() / 4
    }

    /// Assembly suffix, empty for the default 32-bit width.
    pub fn suffix(self) -> &'static str {
        match self {
            Width::B32 => "",
            Width::B64 => "64",
            Width::B128 => "128",
        }
    }
}

/// Memory space targeted by a load/store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSpace {
    /// Device-wide global memory.
    Global,
    /// Per-CTA shared memory.
    Shared,
    /// Per-thread local memory (stack).
    Local,
    /// Read-only constant banks.
    Constant,
}

impl std::fmt::Display for MemSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            MemSpace::Global => "global",
            MemSpace::Shared => "shared",
            MemSpace::Local => "local",
            MemSpace::Constant => "constant",
        };
        f.write_str(s)
    }
}

/// The predicate guard of an instruction (`@P3`, `@!P0`, or always-on).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Guard {
    /// Guarding predicate register.
    pub pred: Pred,
    /// True if the guard is negated (`@!P`).
    pub negated: bool,
}

impl Guard {
    /// The always-true guard (`@PT`).
    pub const ALWAYS: Guard = Guard { pred: Pred::PT, negated: false };

    /// The never-true guard (`@!PT`), used to express a disabled instruction.
    pub const NEVER: Guard = Guard { pred: Pred::PT, negated: true };

    /// True if this guard unconditionally enables the instruction.
    pub fn is_always(self) -> bool {
        self.pred.is_true_reg() && !self.negated
    }
}

impl Default for Guard {
    fn default() -> Self {
        Guard::ALWAYS
    }
}

impl std::fmt::Display for Guard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_always() {
            Ok(())
        } else if self.negated {
            write!(f, "@!{} ", self.pred)
        } else {
            write!(f, "@{} ", self.pred)
        }
    }
}

/// Modifier fields shared by all instructions.
///
/// Only the fields meaningful for a given opcode are encoded with non-default
/// values; the codec rejects out-of-range values and the simulator ignores
/// fields irrelevant to the opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Mods {
    /// Access width (memory operations, shuffles of pairs).
    pub width: Width,
    /// Scalar type selector (integer ops, atomics, conversions).
    pub itype: IType,
    /// Comparison operator (`*SETP`, min/max).
    pub cmp: CmpOp,
    /// Sub-operation selector.
    pub sub: SubOp,
    /// Convergence-barrier slot (meaningful on ABI v2 / Volta encodings of
    /// `SSY`/`SYNC`; ignored and encoded as zero elsewhere).
    pub barrier: u8,
}

/// The most operands any opcode takes ([`Op::format`] is checked against it
/// where the opcodes are defined).
pub const MAX_OPERANDS: usize = 4;

/// The operands of one instruction, stored inline: derefs to `[Operand]`.
pub type Operands = common::InlineVec<Operand, MAX_OPERANDS>;

/// General-purpose registers an instruction reads or writes, stored inline:
/// at most [`MAX_OPERANDS`] spans of at most four registers.
pub type RegList = common::InlineVec<Reg, { MAX_OPERANDS * 4 }>;

/// An instruction operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// General-purpose register.
    Reg(Reg),
    /// Predicate register, optionally negated when read.
    Pred {
        /// The predicate register.
        pred: Pred,
        /// True when the source reads the complement.
        negated: bool,
    },
    /// Immediate value (sign-extended to 64 bits).
    Imm(i64),
    /// Memory reference `[base + offset]`; the space comes from the opcode.
    MRef {
        /// Base address register (a 64-bit pair `base:base+1` for global and
        /// local accesses; a 32-bit byte offset register for shared memory).
        base: Reg,
        /// Signed byte offset.
        offset: i32,
    },
    /// Constant-bank reference `c[bank][base + offset]`.
    CBank {
        /// Constant bank index (0..4).
        bank: u8,
        /// Optional 32-bit index register (`RZ` when absent).
        base: Reg,
        /// Unsigned byte offset within the bank.
        offset: u16,
    },
    /// Special register name.
    SReg(SpecialReg),
    /// PC-relative branch target: signed byte offset from the address of the
    /// **next** instruction.
    Rel(i64),
    /// Absolute code address in device memory.
    Abs(u64),
}

/// What an unused slot of [`Operands`] holds; never observable through it.
impl Default for Operand {
    fn default() -> Operand {
        Operand::Imm(0)
    }
}

impl Operand {
    /// Convenience constructor for a non-negated predicate operand.
    pub fn pred(p: Pred) -> Operand {
        Operand::Pred { pred: p, negated: false }
    }

    /// The register, if this operand is [`Operand::Reg`].
    pub fn as_reg(&self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(*r),
            _ => None,
        }
    }

    /// The immediate value, if this operand is [`Operand::Imm`].
    pub fn as_imm(&self) -> Option<i64> {
        match self {
            Operand::Imm(v) => Some(*v),
            _ => None,
        }
    }
}

impl std::fmt::Display for Operand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Pred { pred, negated } => {
                if *negated {
                    write!(f, "!{pred}")
                } else {
                    write!(f, "{pred}")
                }
            }
            Operand::Imm(v) => {
                if *v < 0 {
                    write!(f, "-0x{:x}", -v)
                } else {
                    write!(f, "0x{v:x}")
                }
            }
            Operand::MRef { base, offset } => {
                if *offset == 0 {
                    write!(f, "[{base}]")
                } else if *offset < 0 {
                    write!(f, "[{base}-0x{:x}]", -(*offset as i64))
                } else {
                    write!(f, "[{base}+0x{offset:x}]")
                }
            }
            Operand::CBank { bank, base, offset } => {
                if base.is_zero() {
                    write!(f, "c[0x{bank:x}][0x{offset:x}]")
                } else {
                    write!(f, "c[0x{bank:x}][{base}+0x{offset:x}]")
                }
            }
            Operand::SReg(sr) => write!(f, "{sr}"),
            Operand::Rel(off) => {
                if *off < 0 {
                    write!(f, ".-0x{:x}", -off)
                } else {
                    write!(f, ".+0x{off:x}")
                }
            }
            Operand::Abs(a) => write!(f, "`0x{a:x}"),
        }
    }
}

/// A decoded machine instruction.
///
/// Instructions are plain `Copy` values of at most 80 bytes — the operands
/// sit inline — so decoding, copying, renaming and relocating one never
/// touches the heap. Building one does not validate it against its opcode's
/// format. Validation happens in [`Instruction::validate`], which codecs
/// and the assembler invoke.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Instruction {
    /// Predicate guard.
    pub guard: Guard,
    /// Opcode.
    pub op: Op,
    /// Modifier fields.
    pub mods: Mods,
    /// Operands, in the order required by [`Op::format`].
    pub operands: Operands,
}

/// What an unused slot of an inline list of instructions holds: a `NOP`.
impl Default for Instruction {
    fn default() -> Instruction {
        Instruction::nop()
    }
}

impl Instruction {
    /// Builds an unguarded instruction with default modifiers from a literal
    /// operand list (an array longer than [`MAX_OPERANDS`] does not compile).
    pub fn new(op: Op, operands: impl Into<Operands>) -> Instruction {
        Instruction { guard: Guard::ALWAYS, op, mods: Mods::default(), operands: operands.into() }
    }

    /// [`Instruction::new`] for an operand list whose length is only known
    /// at run time.
    ///
    /// # Errors
    ///
    /// [`crate::SassError::BadOperands`] for more than [`MAX_OPERANDS`].
    pub fn try_new(op: Op, operands: &[Operand]) -> crate::Result<Instruction> {
        let held = Operands::try_from_slice(operands).ok_or_else(|| {
            let reason = format!("{} operands, at most {MAX_OPERANDS} fit", operands.len());
            crate::SassError::BadOperands { instr: op.mnemonic().to_string(), reason }
        })?;
        Ok(Instruction::new(op, held))
    }

    /// Sets the guard, builder-style.
    pub fn with_guard(mut self, guard: Guard) -> Instruction {
        self.guard = guard;
        self
    }

    /// Sets the modifiers, builder-style.
    pub fn with_mods(mut self, mods: Mods) -> Instruction {
        self.mods = mods;
        self
    }

    /// A `NOP` instruction.
    pub fn nop() -> Instruction {
        Instruction::new(Op::Nop, [])
    }

    /// Checks the operand list against the opcode's format.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SassError::BadOperands`] if an operand's kind is not
    /// permitted at its position, or if the operand count mismatches.
    pub fn validate(&self) -> crate::Result<()> {
        let fmt = self.op.format();
        if self.operands.len() != fmt.len() {
            return Err(crate::SassError::BadOperands {
                instr: self.to_string(),
                reason: format!("expected {} operands, found {}", fmt.len(), self.operands.len()),
            });
        }
        for (i, (kind, opnd)) in fmt.iter().zip(&self.operands).enumerate() {
            let ok = match kind {
                OKind::RegW | OKind::RegR => matches!(opnd, Operand::Reg(_)),
                OKind::RegRI => matches!(opnd, Operand::Reg(_) | Operand::Imm(_)),
                OKind::PredW | OKind::PredR => matches!(opnd, Operand::Pred { .. }),
                OKind::MRef | OKind::MRefAtom => matches!(opnd, Operand::MRef { .. }),
                OKind::CBankRef => matches!(opnd, Operand::CBank { .. }),
                OKind::SReg => matches!(opnd, Operand::SReg(_)),
                OKind::Rel => matches!(opnd, Operand::Rel(_)),
                OKind::Abs => matches!(opnd, Operand::Abs(_)),
                OKind::Imm32 => matches!(opnd, Operand::Imm(_)),
            };
            if !ok {
                return Err(crate::SassError::BadOperands {
                    instr: self.to_string(),
                    reason: format!("operand {i} has the wrong kind for {kind:?}"),
                });
            }
        }
        Ok(())
    }

    /// The relative control-flow offset, if the instruction has one.
    #[inline]
    pub fn rel_target(&self) -> Option<i64> {
        self.operands.iter().find_map(|o| match o {
            Operand::Rel(off) => Some(*off),
            _ => None,
        })
    }

    /// Replaces the relative control-flow offset. Panics if none exists.
    pub fn set_rel_target(&mut self, off: i64) {
        for o in self.operands.iter_mut() {
            if let Operand::Rel(v) = o {
                *v = off;
                return;
            }
        }
        panic!("set_rel_target on instruction without a relative target: {self}");
    }

    /// Visits the raw span of every register operand — first register,
    /// registers covered, written? — by the executor's width rules: memory
    /// widths, double-precision pairs, the pairs of `U64` integer ops and
    /// atomics, 64-bit global address bases. Spans are neither clamped to
    /// the register file nor filtered for `RZ` (bounds checks and renaming
    /// want them raw).
    pub fn each_span(&self, mut f: impl FnMut(Reg, usize, bool)) {
        let wide = self.mods.itype == IType::U64;
        for (pos, (kind, opnd)) in self.op.format().iter().zip(&self.operands).enumerate() {
            match (kind, opnd) {
                (OKind::RegW, Operand::Reg(r)) => {
                    let n = if self.op.is_double() && !matches!(self.op, Op::D2f | Op::Dsetp) {
                        2
                    } else if self.op.is_load() && self.op != Op::Atom {
                        self.mods.width.regs()
                    } else if wide
                        && matches!(
                            self.op,
                            Op::Iadd | Op::Isub | Op::Shl | Op::Shr | Op::Imad | Op::Atom
                        )
                    {
                        2
                    } else {
                        1
                    };
                    f(*r, n, true);
                }
                (OKind::RegR | OKind::RegRI, Operand::Reg(r)) => {
                    let wide_src = matches!(
                        (self.op, pos),
                        (Op::Iadd | Op::Isub | Op::Atom | Op::Red, _)
                            | (Op::Shl | Op::Shr, 1)
                            | (Op::Imad, 3)
                    );
                    let n = if self.op.is_double() || self.op == Op::Brx || (wide && wide_src) {
                        2
                    } else if matches!(kind, OKind::RegR)
                        && matches!(self.op, Op::Stg | Op::Sts | Op::Stl | Op::Chan)
                    {
                        self.mods.width.regs()
                    } else {
                        1
                    };
                    f(*r, n, false);
                }
                (OKind::MRef | OKind::MRefAtom, Operand::MRef { base, .. }) => {
                    // Global bases are 64-bit pairs; shared and local
                    // addresses are 32-bit.
                    let n = if self.op.mem_space() == Some(MemSpace::Global) { 2 } else { 1 };
                    f(*base, n, false);
                }
                (OKind::CBankRef, Operand::CBank { base, .. }) => f(*base, 1, false),
                _ => {}
            }
        }
    }

    fn regs_of(&self, written: bool) -> RegList {
        let mut out = RegList::default();
        self.each_span(|r, n, w| {
            span_regs(r, n).filter(|_| w == written).for_each(|r| out.push(r))
        });
        out
    }

    /// General-purpose registers read by this instruction, each span
    /// expanded and clamped to the register file (`RZ` never appears).
    pub fn reg_reads(&self) -> RegList {
        self.regs_of(false)
    }

    /// General-purpose registers written by this instruction.
    pub fn reg_writes(&self) -> RegList {
        self.regs_of(true)
    }

    /// Rewrites every register and predicate the instruction names — the
    /// guard and each operand — through `reg` and `pred`.
    pub fn map_regs(
        &mut self,
        mut reg: impl FnMut(Reg) -> Reg,
        mut pred: impl FnMut(Pred) -> Pred,
    ) {
        self.guard.pred = pred(self.guard.pred);
        for o in self.operands.iter_mut() {
            match o {
                Operand::Reg(r) => *r = reg(*r),
                Operand::MRef { base, .. } | Operand::CBank { base, .. } => *base = reg(*base),
                Operand::Pred { pred: p, .. } => *p = pred(*p),
                _ => {}
            }
        }
    }

    /// Highest general-purpose register index touched, if any.
    pub fn max_reg(&self) -> Option<u8> {
        let mut max = None;
        self.each_span(|r, n, _| max = max.max(span_regs(r, n).last().map(|r| r.0)));
        max
    }

    /// The predicate operands of `kind`, as a mask: bit `i` for `Pi`.
    fn pred_operands(&self, kind: OKind) -> u8 {
        let preds = self.op.format().iter().zip(&self.operands).filter_map(|(k, o)| match o {
            Operand::Pred { pred, .. } if *k == kind => Some(*pred),
            _ => None,
        });
        preds.fold(0, |mask, p| mask | pred_bit(p))
    }

    /// Predicate registers read by this instruction, as a mask (bit `i` for
    /// `Pi`): the guard (when not `PT`), every `PredR` operand, and — for
    /// `P2R`, which packs the whole predicate file into a register — all
    /// writable predicates.
    pub fn pred_reads(&self) -> u8 {
        let all = if self.op == Op::P2r { Pred::WRITABLE_MASK } else { 0 };
        all | pred_bit(self.guard.pred) | self.pred_operands(OKind::PredR)
    }

    /// Predicate registers written by this instruction, as a mask (bit `i`
    /// for `Pi`): every `PredW` operand, or — for `R2P`, which unpacks a
    /// register into the whole predicate file — all writable predicates.
    pub fn pred_writes(&self) -> u8 {
        if self.op == Op::R2p {
            Pred::WRITABLE_MASK
        } else {
            self.pred_operands(OKind::PredW)
        }
    }

    /// The control-flow class of the opcode (convenience forwarder).
    #[inline]
    pub fn cf_class(&self) -> CfClass {
        self.op.cf_class()
    }

    /// True when the instruction unconditionally leaves: it is unguarded and
    /// nothing placed behind it runs next (`EXIT`, `RET`, a trap, `SYNC`,
    /// `BRA`, `JMP` or `BRX`).
    pub fn leaves(&self) -> bool {
        use CfClass::{AbsJump, Exit, IndirectBranch, RelBranch, Ret, Sync, Trap};
        self.guard.is_always()
            && matches!(
                self.cf_class(),
                Exit | Ret | Trap | Sync | RelBranch | AbsJump | IndirectBranch
            )
    }

    /// Full mnemonic including modifier suffixes, e.g. `LDG.64` or
    /// `ISETP.LT.S32`. This is what NVBit's `Instr::getOpcode` exposes.
    pub fn opcode_string(&self) -> String {
        let mut s = String::new();
        self.write_opcode(&mut s).expect("writing to a String cannot fail");
        s
    }

    /// Writes [`Instruction::opcode_string`] to `out`.
    fn write_opcode(&self, out: &mut impl std::fmt::Write) -> std::fmt::Result {
        out.write_str(self.op.mnemonic())?;
        let suffixes = [
            (self.mods.sub != SubOp::None, self.mods.sub.suffix()),
            (uses_cmp(self.op), self.mods.cmp.suffix()),
            (uses_itype(self.op), self.mods.itype.suffix()),
            (uses_width(self.op) && self.mods.width != Width::B32, self.mods.width.suffix()),
        ];
        suffixes.iter().filter(|(used, _)| *used).try_for_each(|(_, s)| write!(out, ".{s}"))
    }
}

/// The mask bit of a writable predicate; none for `PT`.
fn pred_bit(p: Pred) -> u8 {
    if p.index() < Pred::NUM_WRITABLE {
        1 << p.0
    } else {
        0
    }
}

/// The registers of a raw operand span (see [`Instruction::each_span`]),
/// clamped to the register file; none for `RZ`.
pub fn span_regs(first: Reg, len: usize) -> impl Iterator<Item = Reg> {
    let end = if first.is_zero() { 0 } else { (first.index() + len).min(255) };
    (first.index()..end).map(|i| Reg(i as u8))
}

/// True if the opcode consumes the `cmp` modifier.
pub(crate) fn uses_cmp(op: Op) -> bool {
    matches!(op, Op::Isetp | Op::Fsetp | Op::Dsetp)
}

/// True if the opcode consumes the `itype` modifier.
pub(crate) fn uses_itype(op: Op) -> bool {
    matches!(op, Op::Isetp | Op::Shr | Op::Imnmx | Op::I2f | Op::F2i | Op::Atom | Op::Red)
}

/// True if the opcode consumes the `width` modifier.
pub(crate) fn uses_width(op: Op) -> bool {
    matches!(op, Op::Ldg | Op::Stg | Op::Lds | Op::Sts | Op::Ldl | Op::Stl | Op::Ldc | Op::Chan)
}

impl std::fmt::Display for Instruction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.guard)?;
        self.write_opcode(f)?;
        for (i, o) in self.operands.iter().enumerate() {
            if i == 0 {
                write!(f, " {o}")?;
            } else {
                write!(f, ", {o}")?;
            }
        }
        write!(f, " ;")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iadd(dst: u8, a: u8, b: u8) -> Instruction {
        Instruction::new(
            Op::Iadd,
            [Operand::Reg(Reg(dst)), Operand::Reg(Reg(a)), Operand::Reg(Reg(b))],
        )
    }

    #[test]
    fn validate_accepts_wellformed_and_rejects_malformed() {
        assert!(iadd(0, 1, 2).validate().is_ok());

        let bad = Instruction::new(Op::Iadd, [Operand::Reg(Reg(0))]);
        assert!(bad.validate().is_err());

        let wrong_kind = Instruction::new(
            Op::Iadd,
            [Operand::Imm(1), Operand::Reg(Reg(1)), Operand::Reg(Reg(2))],
        );
        assert!(wrong_kind.validate().is_err());

        // RegRI accepts both registers and immediates.
        let with_imm = Instruction::new(
            Op::Iadd,
            [Operand::Reg(Reg(0)), Operand::Reg(Reg(1)), Operand::Imm(5)],
        );
        assert!(with_imm.validate().is_ok());
    }

    #[test]
    fn display_formats_match_expectation() {
        let i = iadd(4, 5, 6);
        assert_eq!(i.to_string(), "IADD R4, R5, R6 ;");

        let mut guarded = iadd(4, 5, 6);
        guarded.guard = Guard { pred: Pred(2), negated: true };
        assert_eq!(guarded.to_string(), "@!P2 IADD R4, R5, R6 ;");

        let ldg = Instruction::new(
            Op::Ldg,
            [Operand::Reg(Reg(2)), Operand::MRef { base: Reg(6), offset: 0x100 }],
        )
        .with_mods(Mods { width: Width::B64, ..Mods::default() });
        assert_eq!(ldg.to_string(), "LDG.64 R2, [R6+0x100] ;");

        let setp = Instruction::new(
            Op::Isetp,
            [Operand::pred(Pred(1)), Operand::Reg(Reg(3)), Operand::Imm(-4)],
        )
        .with_mods(Mods { cmp: CmpOp::Lt, itype: IType::S32, ..Mods::default() });
        assert_eq!(setp.to_string(), "ISETP.LT.S32 P1, R3, -0x4 ;");
    }

    #[test]
    fn reg_reads_and_writes_track_widths() {
        let ldg128 = Instruction::new(
            Op::Ldg,
            [Operand::Reg(Reg(8)), Operand::MRef { base: Reg(2), offset: 0 }],
        )
        .with_mods(Mods { width: Width::B128, ..Mods::default() });
        assert_eq!(*ldg128.reg_writes(), [Reg(8), Reg(9), Reg(10), Reg(11)]);
        // Global base is a 64-bit pair.
        assert_eq!(*ldg128.reg_reads(), [Reg(2), Reg(3)]);

        let dadd = Instruction::new(
            Op::Dadd,
            [Operand::Reg(Reg(4)), Operand::Reg(Reg(6)), Operand::Reg(Reg(8))],
        );
        assert_eq!(*dadd.reg_writes(), [Reg(4), Reg(5)]);
        assert_eq!(*dadd.reg_reads(), [Reg(6), Reg(7), Reg(8), Reg(9)]);

        // RZ never appears in use/def sets.
        let mov = Instruction::new(Op::Mov, [Operand::Reg(Reg::RZ), Operand::Reg(Reg(1))]);
        assert!(mov.reg_writes().is_empty());
    }

    #[test]
    fn wide_integer_ops_and_atomics_use_pairs_like_the_executor() {
        let u64_mods = Mods { itype: IType::U64, ..Mods::default() };
        let regs = |v: &[u8]| {
            RegList::try_from_slice(&v.iter().map(|r| Reg(*r)).collect::<Vec<_>>()).unwrap()
        };
        let rrr = |op, d, a, b| {
            Instruction::new(op, [Operand::Reg(Reg(d)), Operand::Reg(Reg(a)), Operand::Reg(Reg(b))])
        };
        // 64-bit add: all three operands are pairs; the 32-bit form is not.
        let add = rrr(Op::Iadd, 4, 6, 8).with_mods(u64_mods);
        assert_eq!(add.reg_writes(), regs(&[4, 5]));
        assert_eq!(add.reg_reads(), regs(&[6, 7, 8, 9]));
        assert_eq!(rrr(Op::Iadd, 4, 6, 8).reg_reads(), regs(&[6, 8]));
        // 64-bit shift: the amount stays 32-bit.
        let shl = rrr(Op::Shl, 4, 6, 8).with_mods(u64_mods);
        assert_eq!((shl.reg_writes(), shl.reg_reads()), (regs(&[4, 5]), regs(&[6, 7, 8])));
        // Wide multiply-add: 32-bit factors, 64-bit addend and result.
        let mad = Instruction::new(Op::Imad, [10, 2, 3, 12].map(|r| Operand::Reg(Reg(r))))
            .with_mods(u64_mods);
        assert_eq!((mad.reg_writes(), mad.reg_reads()), (regs(&[10, 11]), regs(&[2, 3, 12, 13])));
        // 64-bit atomic: result, address and operand are all pairs.
        let atom = Instruction::new(
            Op::Atom,
            [
                Operand::Reg(Reg(8)),
                Operand::MRef { base: Reg(6), offset: 0 },
                Operand::Reg(Reg(4)),
                Operand::Reg(Reg::RZ),
            ],
        )
        .with_mods(Mods { sub: SubOp::Add, ..u64_mods });
        assert_eq!((atom.reg_writes(), atom.reg_reads()), (regs(&[8, 9]), regs(&[6, 7, 4, 5])));
        // Local addresses are 32-bit: only the base register itself is read.
        let stl = Instruction::new(
            Op::Stl,
            [Operand::MRef { base: Reg::SP, offset: 8 }, Operand::Reg(Reg(5))],
        );
        assert_eq!(stl.reg_reads(), regs(&[1, 5]));
        // The highest register touched comes from the same spans.
        assert_eq!(
            (add.max_reg(), stl.max_reg(), Instruction::nop().max_reg()),
            (Some(9), Some(5), None)
        );
    }

    #[test]
    fn more_than_four_operands_are_refused_not_truncated() {
        let r = |n| Operand::Reg(Reg(n));
        let four = Instruction::try_new(Op::Ffma, &[r(0), r(1), r(2), r(3)]).unwrap();
        assert_eq!(four, Instruction::new(Op::Ffma, [r(0), r(1), r(2), r(3)]));
        let five = Instruction::try_new(Op::Ffma, &[r(0), r(1), r(2), r(3), r(4)]);
        assert!(matches!(five, Err(crate::SassError::BadOperands { .. })), "{five:?}");
        // An instruction is a plain value.
        const fn is_copy<T: Copy>() {}
        is_copy::<Instruction>();
        assert!(std::mem::size_of::<Instruction>() <= 80);
    }

    #[test]
    fn opcode_string_includes_modifiers() {
        let atom = Instruction::new(
            Op::Atom,
            [
                Operand::Reg(Reg(0)),
                Operand::MRef { base: Reg(2), offset: 0 },
                Operand::Reg(Reg(4)),
                Operand::Reg(Reg::RZ),
            ],
        )
        .with_mods(Mods { sub: SubOp::Add, itype: IType::F32, ..Mods::default() });
        assert_eq!(atom.opcode_string(), "ATOM.ADD.F32");
    }

    #[test]
    fn pred_reads_and_writes_cover_guard_operands_and_pack_unpack() {
        let setp = Instruction::new(
            Op::Isetp,
            [Operand::pred(Pred(2)), Operand::Reg(Reg(3)), Operand::Imm(0)],
        )
        .with_guard(Guard { pred: Pred(0), negated: true });
        assert_eq!(setp.pred_reads(), 1 << 0);
        assert_eq!(setp.pred_writes(), 1 << 2);

        // PT never appears in use/def sets.
        let sel = Instruction::new(
            Op::Sel,
            [
                Operand::Reg(Reg(0)),
                Operand::Reg(Reg(1)),
                Operand::Reg(Reg(2)),
                Operand::pred(Pred::PT),
            ],
        );
        assert_eq!(sel.pred_reads(), 0);

        // P2R reads the whole predicate file; R2P writes it.
        let p2r = Instruction::new(Op::P2r, [Operand::Reg(Reg(0))]);
        assert_eq!(p2r.pred_reads(), Pred::WRITABLE_MASK);
        let r2p = Instruction::new(Op::R2p, [Operand::Reg(Reg(0))]);
        assert_eq!(r2p.pred_writes(), Pred::WRITABLE_MASK);
    }

    #[test]
    fn rel_target_accessors() {
        let mut bra = Instruction::new(Op::Bra, [Operand::Rel(16)]);
        assert_eq!(bra.rel_target(), Some(16));
        bra.set_rel_target(-8);
        assert_eq!(bra.rel_target(), Some(-8));
        assert_eq!(Instruction::nop().rel_target(), None);
    }

    #[test]
    fn only_unguarded_transfers_that_never_fall_through_leave() {
        use CfClass::{AbsCall, AbsJump, Bar, Exit, IndirectBranch, RelBranch, RelCall};
        use CfClass::{Ret, Ssy, Sync, Trap};
        let leaving = [
            (CfClass::None, false),
            (RelBranch, true),
            (IndirectBranch, true),
            (AbsJump, true),
            (RelCall, false),
            (AbsCall, false),
            (Ret, true),
            (Exit, true),
            (Ssy, false),
            (Sync, true),
            (Bar, false),
            (Trap, true),
        ];
        for (class, leaves) in leaving {
            let ops = Op::ALL.iter().filter(|op| op.cf_class() == class);
            let instrs: Vec<Instruction> = ops.map(|op| Instruction::new(*op, [])).collect();
            assert!(!instrs.is_empty(), "no opcode of class {class:?}");
            for ins in instrs {
                assert_eq!(ins.leaves(), leaves, "{ins}");
                for negated in [false, true] {
                    let guarded = ins.with_guard(Guard { pred: Pred(0), negated });
                    assert!(!guarded.leaves(), "{guarded}");
                }
                let never = ins.with_guard(Guard { pred: Pred::PT, negated: true });
                assert!(!never.leaves(), "{never}");
            }
        }
    }
}
