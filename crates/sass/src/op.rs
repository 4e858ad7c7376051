//! Opcode definitions: mnemonics, operand formats, categories and
//! control-flow classes.

/// Comparison operator carried in the modifier field of `ISETP`/`FSETP`/
/// `DSETP` and min/max-style instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(u8)]
pub enum CmpOp {
    /// Equal.
    #[default]
    Eq = 0,
    /// Not equal.
    Ne = 1,
    /// Less than.
    Lt = 2,
    /// Less than or equal.
    Le = 3,
    /// Greater than.
    Gt = 4,
    /// Greater than or equal.
    Ge = 5,
}

impl CmpOp {
    /// All comparison operators in encoding order.
    pub const ALL: [CmpOp; 6] = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];

    /// Decode from the 3-bit field value.
    pub fn from_index(v: u8) -> Option<CmpOp> {
        CmpOp::ALL.get(v as usize).copied()
    }

    /// Assembly suffix (`EQ`, `NE`, ...).
    pub fn suffix(self) -> &'static str {
        match self {
            CmpOp::Eq => "EQ",
            CmpOp::Ne => "NE",
            CmpOp::Lt => "LT",
            CmpOp::Le => "LE",
            CmpOp::Gt => "GT",
            CmpOp::Ge => "GE",
        }
    }

    /// Parse an assembly suffix.
    pub fn from_suffix(s: &str) -> Option<CmpOp> {
        CmpOp::ALL.iter().copied().find(|c| c.suffix() == s)
    }
}

/// Sub-operation selector shared by several opcodes (`LOP`, `SHFL`, `VOTE`,
/// `MUFU`, `ATOM`, `RED`, `IMNMX`, `FMNMX`, `PSETP`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(u8)]
pub enum SubOp {
    /// No sub-operation (the opcode's default behaviour).
    #[default]
    None = 0,
    /// Minimum (`IMNMX`, `FMNMX`, `ATOM`).
    Min = 1,
    /// Maximum (`IMNMX`, `FMNMX`, `ATOM`).
    Max = 2,
    /// Bitwise AND (`LOP`, `PSETP`, `ATOM`).
    And = 3,
    /// Bitwise OR (`LOP`, `PSETP`, `ATOM`).
    Or = 4,
    /// Bitwise XOR (`LOP`, `PSETP`, `ATOM`).
    Xor = 5,
    /// Bitwise NOT of the second source (`LOP`).
    Not = 6,
    /// Indexed lane shuffle (`SHFL`).
    Idx = 7,
    /// Shuffle up by a delta (`SHFL`).
    Up = 8,
    /// Shuffle down by a delta (`SHFL`).
    Down = 9,
    /// Butterfly (XOR) shuffle (`SHFL`).
    Bfly = 10,
    /// True iff the predicate holds on all active lanes (`VOTE`).
    All = 11,
    /// True iff the predicate holds on any active lane (`VOTE`).
    Any = 12,
    /// Ballot mask of lanes where the predicate holds (`VOTE`).
    Ballot = 13,
    /// Reciprocal (`MUFU`).
    Rcp = 14,
    /// Square root (`MUFU`).
    Sqrt = 15,
    /// Reciprocal square root (`MUFU`).
    Rsq = 16,
    /// Sine (`MUFU`).
    Sin = 17,
    /// Cosine (`MUFU`).
    Cos = 18,
    /// Base-2 exponential (`MUFU`).
    Ex2 = 19,
    /// Base-2 logarithm (`MUFU`).
    Lg2 = 20,
    /// Atomic add (`ATOM`, `RED`).
    Add = 21,
    /// Atomic exchange (`ATOM`).
    Exch = 22,
    /// Atomic compare-and-swap (`ATOM`).
    Cas = 23,
}

impl SubOp {
    /// All sub-operations in encoding order.
    pub const ALL: [SubOp; 24] = [
        SubOp::None,
        SubOp::Min,
        SubOp::Max,
        SubOp::And,
        SubOp::Or,
        SubOp::Xor,
        SubOp::Not,
        SubOp::Idx,
        SubOp::Up,
        SubOp::Down,
        SubOp::Bfly,
        SubOp::All,
        SubOp::Any,
        SubOp::Ballot,
        SubOp::Rcp,
        SubOp::Sqrt,
        SubOp::Rsq,
        SubOp::Sin,
        SubOp::Cos,
        SubOp::Ex2,
        SubOp::Lg2,
        SubOp::Add,
        SubOp::Exch,
        SubOp::Cas,
    ];

    /// Decode from the 5-bit field value.
    pub fn from_index(v: u8) -> Option<SubOp> {
        SubOp::ALL.get(v as usize).copied()
    }

    /// Assembly suffix, empty for [`SubOp::None`].
    pub fn suffix(self) -> &'static str {
        match self {
            SubOp::None => "",
            SubOp::Min => "MIN",
            SubOp::Max => "MAX",
            SubOp::And => "AND",
            SubOp::Or => "OR",
            SubOp::Xor => "XOR",
            SubOp::Not => "NOT",
            SubOp::Idx => "IDX",
            SubOp::Up => "UP",
            SubOp::Down => "DOWN",
            SubOp::Bfly => "BFLY",
            SubOp::All => "ALL",
            SubOp::Any => "ANY",
            SubOp::Ballot => "BALLOT",
            SubOp::Rcp => "RCP",
            SubOp::Sqrt => "SQRT",
            SubOp::Rsq => "RSQ",
            SubOp::Sin => "SIN",
            SubOp::Cos => "COS",
            SubOp::Ex2 => "EX2",
            SubOp::Lg2 => "LG2",
            SubOp::Add => "ADD",
            SubOp::Exch => "EXCH",
            SubOp::Cas => "CAS",
        }
    }

    /// Parse an assembly suffix produced by [`SubOp::suffix`].
    pub fn from_suffix(s: &str) -> Option<SubOp> {
        SubOp::ALL.iter().copied().find(|x| *x != SubOp::None && x.suffix() == s)
    }
}

/// Scalar type selector carried in the modifier field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(u8)]
pub enum IType {
    /// Signed 32-bit integer.
    #[default]
    S32 = 0,
    /// Unsigned 32-bit integer.
    U32 = 1,
    /// 32-bit IEEE float (atomics).
    F32 = 2,
    /// Unsigned 64-bit integer (atomics and wide shifts).
    U64 = 3,
}

impl IType {
    /// All type selectors in encoding order.
    pub const ALL: [IType; 4] = [IType::S32, IType::U32, IType::F32, IType::U64];

    /// Decode from the 2-bit field value.
    pub fn from_index(v: u8) -> Option<IType> {
        IType::ALL.get(v as usize).copied()
    }

    /// Assembly suffix.
    pub fn suffix(self) -> &'static str {
        match self {
            IType::S32 => "S32",
            IType::U32 => "U32",
            IType::F32 => "F32",
            IType::U64 => "U64",
        }
    }

    /// Parse an assembly suffix.
    pub fn from_suffix(s: &str) -> Option<IType> {
        IType::ALL.iter().copied().find(|x| x.suffix() == s)
    }
}

/// Coarse instruction category, used for statistics and instruction
/// histograms (paper Figure 7) and by the timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpCategory {
    /// Integer arithmetic and logic.
    Integer,
    /// Single-precision floating point.
    Float,
    /// Double-precision floating point (register pairs).
    Double,
    /// Type conversions.
    Conversion,
    /// Register moves, selects and special-register reads.
    Move,
    /// Predicate manipulation.
    Predicate,
    /// Warp-level data exchange (`SHFL`, `VOTE`, `POPC`).
    Warp,
    /// Global-memory loads/stores.
    MemGlobal,
    /// Shared-memory loads/stores.
    MemShared,
    /// Local-memory loads/stores.
    MemLocal,
    /// Constant-memory loads.
    MemConst,
    /// Atomics and reductions.
    Atomic,
    /// Control flow (branches, calls, returns, reconvergence, barriers).
    Control,
    /// Everything else (`NOP`, `MEMBAR`, `PROXY`, `BPT`).
    Misc,
}

impl OpCategory {
    /// All categories, in a stable reporting order.
    pub const ALL: [OpCategory; 14] = [
        OpCategory::Integer,
        OpCategory::Float,
        OpCategory::Double,
        OpCategory::Conversion,
        OpCategory::Move,
        OpCategory::Predicate,
        OpCategory::Warp,
        OpCategory::MemGlobal,
        OpCategory::MemShared,
        OpCategory::MemLocal,
        OpCategory::MemConst,
        OpCategory::Atomic,
        OpCategory::Control,
        OpCategory::Misc,
    ];
}

impl std::fmt::Display for OpCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            OpCategory::Integer => "integer",
            OpCategory::Float => "float",
            OpCategory::Double => "double",
            OpCategory::Conversion => "conversion",
            OpCategory::Move => "move",
            OpCategory::Predicate => "predicate",
            OpCategory::Warp => "warp",
            OpCategory::MemGlobal => "mem.global",
            OpCategory::MemShared => "mem.shared",
            OpCategory::MemLocal => "mem.local",
            OpCategory::MemConst => "mem.const",
            OpCategory::Atomic => "atomic",
            OpCategory::Control => "control",
            OpCategory::Misc => "misc",
        };
        f.write_str(s)
    }
}

/// Control-flow class of an opcode, as seen by basic-block construction and
/// by NVBit's code generator (which must relocate control-flow instructions
/// into trampolines with offset fix-ups).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CfClass {
    /// Not a control-flow instruction.
    None,
    /// Relative (possibly predicated) branch: `BRA`.
    RelBranch,
    /// Indirect branch through a register pair: `BRX` (the paper's "ICF").
    IndirectBranch,
    /// Absolute jump: `JMP`.
    AbsJump,
    /// Relative call: `CAL`.
    RelCall,
    /// Absolute call: `JCAL`.
    AbsCall,
    /// Return from call: `RET`.
    Ret,
    /// Thread exit: `EXIT`.
    Exit,
    /// Push reconvergence point: `SSY`.
    Ssy,
    /// Pop reconvergence point: `SYNC`.
    Sync,
    /// CTA-wide barrier: `BAR`.
    Bar,
    /// Trap: `BPT`.
    Trap,
}

impl CfClass {
    /// True if this instruction can redirect the program counter (hence
    /// terminates a basic block).
    pub fn ends_block(self) -> bool {
        !matches!(self, CfClass::None | CfClass::Ssy | CfClass::Bar)
    }
}

/// Operand kind expected at a given position of an opcode's format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OKind {
    /// Destination general-purpose register.
    RegW,
    /// Source general-purpose register.
    RegR,
    /// Source register **or** immediate (width of the immediate depends on
    /// the encoding family and the number of operands in the format).
    RegRI,
    /// Destination predicate.
    PredW,
    /// Source predicate (optionally negated).
    PredR,
    /// Memory reference `[Rbase + offset]`.
    MRef,
    /// Memory reference with the narrow atomic offset field.
    MRefAtom,
    /// Constant-bank reference `c[bank][Rbase + offset]`.
    CBankRef,
    /// Special register name.
    SReg,
    /// PC-relative branch target (byte offset from the next instruction).
    Rel,
    /// Absolute code address.
    Abs,
    /// Full 32-bit immediate.
    Imm32,
}

macro_rules! define_ops {
    ($( $variant:ident = $idx:literal, $mn:literal, $cat:ident, $cf:ident, [$($ok:ident),*]; )*) => {
        /// A machine opcode.
        ///
        /// The discriminant is the value stored in the encoded opcode field
        /// and is stable across encoding families. It is one byte — the
        /// width of the `Enc64` opcode field — which is also what keeps an
        /// [`crate::Instruction`] at 80 bytes.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        #[repr(u8)]
        #[allow(missing_docs)] // variants are documented by their mnemonic table below
        pub enum Op {
            $($variant = $idx,)*
        }

        impl Op {
            /// Every opcode, in encoding order.
            pub const ALL: &'static [Op] = &[$(Op::$variant,)*];

            /// Decode from the encoded opcode field.
            pub fn from_index(v: u16) -> Option<Op> {
                match v {
                    $($idx => Some(Op::$variant),)*
                    _ => None,
                }
            }

            /// Encoded opcode field value.
            pub fn index(self) -> u16 {
                self as u16
            }

            /// Assembly mnemonic.
            pub fn mnemonic(self) -> &'static str {
                match self {
                    $(Op::$variant => $mn,)*
                }
            }

            /// Parse a bare mnemonic (no modifier suffixes).
            pub fn from_mnemonic(s: &str) -> Option<Op> {
                match s {
                    $($mn => Some(Op::$variant),)*
                    _ => None,
                }
            }

            /// Coarse category for statistics and the timing model.
            pub fn category(self) -> OpCategory {
                match self {
                    $(Op::$variant => OpCategory::$cat,)*
                }
            }

            /// Control-flow class.
            pub fn cf_class(self) -> CfClass {
                match self {
                    $(Op::$variant => CfClass::$cf,)*
                }
            }

            /// Expected operand kinds, in order: never more than
            /// [`crate::inst::MAX_OPERANDS`].
            pub fn format(self) -> &'static [OKind] {
                match self {
                    $(Op::$variant => &[$(OKind::$ok),*],)*
                }
            }
        }

        // An instruction holds its operands inline: a format that does not
        // fit does not compile.
        $(const _: () = assert!(<[OKind]>::len(&[$(OKind::$ok),*]) <= crate::inst::MAX_OPERANDS);)*
    };
}

define_ops! {
    // Moves and selects.
    Nop    = 0,  "NOP",    Misc,       None, [];
    Mov    = 1,  "MOV",    Move,       None, [RegW, RegRI];
    Mov32i = 2,  "MOV32I", Move,       None, [RegW, Imm32];
    Sel    = 3,  "SEL",    Move,       None, [RegW, RegR, RegRI, PredR];
    S2r    = 4,  "S2R",    Move,       None, [RegW, SReg];
    P2r    = 5,  "P2R",    Predicate,  None, [RegW];
    R2p    = 6,  "R2P",    Predicate,  None, [RegR];

    // Warp-level exchange.
    Shfl   = 10, "SHFL",   Warp,       None, [RegW, RegR, RegRI];
    Vote   = 11, "VOTE",   Warp,       None, [RegW, PredR];
    Popc   = 12, "POPC",   Warp,       None, [RegW, RegRI];

    // Integer arithmetic.
    Iadd   = 20, "IADD",   Integer,    None, [RegW, RegR, RegRI];
    Iadd32i= 21, "IADD32I",Integer,    None, [RegW, RegR, Imm32];
    Isub   = 22, "ISUB",   Integer,    None, [RegW, RegR, RegRI];
    Imul   = 23, "IMUL",   Integer,    None, [RegW, RegR, RegRI];
    Imad   = 24, "IMAD",   Integer,    None, [RegW, RegR, RegR, RegR];
    Imnmx  = 25, "IMNMX",  Integer,    None, [RegW, RegR, RegRI];
    Shl    = 26, "SHL",    Integer,    None, [RegW, RegR, RegRI];
    Shr    = 27, "SHR",    Integer,    None, [RegW, RegR, RegRI];
    Lop    = 28, "LOP",    Integer,    None, [RegW, RegR, RegRI];
    Isetp  = 29, "ISETP",  Predicate,  None, [PredW, RegR, RegRI];
    Psetp  = 30, "PSETP",  Predicate,  None, [PredW, PredR, PredR];

    // Single-precision float.
    Fadd   = 40, "FADD",   Float,      None, [RegW, RegR, RegRI];
    Fmul   = 41, "FMUL",   Float,      None, [RegW, RegR, RegRI];
    Ffma   = 42, "FFMA",   Float,      None, [RegW, RegR, RegR, RegR];
    Fsetp  = 43, "FSETP",  Predicate,  None, [PredW, RegR, RegRI];
    Fmnmx  = 44, "FMNMX",  Float,      None, [RegW, RegR, RegRI];
    Mufu   = 45, "MUFU",   Float,      None, [RegW, RegR];

    // Double precision (register pairs, even-aligned).
    Dadd   = 50, "DADD",   Double,     None, [RegW, RegR, RegR];
    Dmul   = 51, "DMUL",   Double,     None, [RegW, RegR, RegR];
    Dfma   = 52, "DFMA",   Double,     None, [RegW, RegR, RegR, RegR];
    Dsetp  = 53, "DSETP",  Predicate,  None, [PredW, RegR, RegR];

    // Conversions.
    I2f    = 60, "I2F",    Conversion, None, [RegW, RegRI];
    F2i    = 61, "F2I",    Conversion, None, [RegW, RegR];
    F2d    = 62, "F2D",    Conversion, None, [RegW, RegR];
    D2f    = 63, "D2F",    Conversion, None, [RegW, RegR];

    // Memory.
    Ldg    = 70, "LDG",    MemGlobal,  None, [RegW, MRef];
    Stg    = 71, "STG",    MemGlobal,  None, [MRef, RegR];
    Lds    = 72, "LDS",    MemShared,  None, [RegW, MRef];
    Sts    = 73, "STS",    MemShared,  None, [MRef, RegR];
    Ldl    = 74, "LDL",    MemLocal,   None, [RegW, MRef];
    Stl    = 75, "STL",    MemLocal,   None, [MRef, RegR];
    Ldc    = 76, "LDC",    MemConst,   None, [RegW, CBankRef];
    Atom   = 77, "ATOM",   Atomic,     None, [RegW, MRefAtom, RegR, RegR];
    Red    = 78, "RED",    Atomic,     None, [MRefAtom, RegR];
    Membar = 79, "MEMBAR", Misc,       None, [];

    // Control flow.
    Bra    = 90, "BRA",    Control,    RelBranch,      [Rel];
    Brx    = 91, "BRX",    Control,    IndirectBranch, [RegR];
    Jmp    = 92, "JMP",    Control,    AbsJump,        [Abs];
    Cal    = 93, "CAL",    Control,    RelCall,        [Rel];
    Jcal   = 94, "JCAL",   Control,    AbsCall,        [Abs];
    Ret    = 95, "RET",    Control,    Ret,            [];
    Exit   = 96, "EXIT",   Control,    Exit,           [];
    Ssy    = 97, "SSY",    Control,    Ssy,            [Rel];
    Sync   = 98, "SYNC",   Control,    Sync,           [];
    Bar    = 99, "BAR",    Control,    Bar,            [];
    Bpt    = 100,"BPT",    Misc,       Trap,           [];

    // Hypothetical-instruction carrier for ISA-extension studies (paper 6.3).
    Proxy  = 110,"PROXY",  Misc,       None,           [RegW, RegR, Imm32];

    // Tool-channel push: sends the source register pair (`CHAN.64 Rn`) to
    // the host-side record channel attached to the launch (paper 6.1's
    // mem_trace/cache-sim receiver). Executor-implemented; faults when no
    // channel is attached.
    Chan   = 111,"CHAN",   Misc,       None,           [RegR];
}

impl Op {
    /// True for loads (any memory space, including `LDC` and `ATOM`, which
    /// returns the prior value).
    pub fn is_load(self) -> bool {
        matches!(self, Op::Ldg | Op::Lds | Op::Ldl | Op::Ldc | Op::Atom)
    }

    /// True for stores (any memory space, including atomics, which write).
    pub fn is_store(self) -> bool {
        matches!(self, Op::Stg | Op::Sts | Op::Stl | Op::Atom | Op::Red)
    }

    /// Memory space accessed, if this is a memory operation.
    pub fn mem_space(self) -> Option<crate::inst::MemSpace> {
        use crate::inst::MemSpace;
        match self {
            Op::Ldg | Op::Stg | Op::Atom | Op::Red => Some(MemSpace::Global),
            Op::Lds | Op::Sts => Some(MemSpace::Shared),
            Op::Ldl | Op::Stl => Some(MemSpace::Local),
            Op::Ldc => Some(MemSpace::Constant),
            _ => None,
        }
    }

    /// True if the destination (and for doubles, sources) occupy an aligned
    /// register pair.
    pub fn is_double(self) -> bool {
        matches!(self, Op::Dadd | Op::Dmul | Op::Dfma | Op::Dsetp | Op::F2d | Op::D2f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_indices_roundtrip() {
        for op in Op::ALL {
            assert_eq!(Op::from_index(op.index()), Some(*op));
            assert_eq!(Op::from_mnemonic(op.mnemonic()), Some(*op));
        }
        assert_eq!(Op::from_index(999), None);
        assert_eq!(Op::from_mnemonic("FROB"), None);
    }

    #[test]
    fn opcode_indices_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for op in Op::ALL {
            assert!(seen.insert(op.index()), "duplicate index for {op:?}");
        }
    }

    #[test]
    fn control_flow_classes_partition() {
        for op in Op::ALL {
            let cf = op.cf_class();
            if matches!(op, Op::Jmp | Op::Jcal | Op::Brx | Op::Ret | Op::Exit | Op::Sync) {
                assert!(cf.ends_block());
            }
        }
        assert!(!CfClass::Ssy.ends_block());
        assert!(CfClass::RelBranch.ends_block());
    }

    #[test]
    fn memory_ops_have_spaces() {
        assert_eq!(Op::Ldg.mem_space(), Some(crate::inst::MemSpace::Global));
        assert_eq!(Op::Sts.mem_space(), Some(crate::inst::MemSpace::Shared));
        assert_eq!(Op::Ldc.mem_space(), Some(crate::inst::MemSpace::Constant));
        assert_eq!(Op::Iadd.mem_space(), None);
        assert!(Op::Atom.is_load() && Op::Atom.is_store());
        assert!(Op::Ldg.is_load() && !Op::Ldg.is_store());
    }

    #[test]
    fn subop_and_cmp_tables_roundtrip() {
        for (i, s) in SubOp::ALL.iter().enumerate() {
            assert_eq!(SubOp::from_index(i as u8), Some(*s));
        }
        for (i, c) in CmpOp::ALL.iter().enumerate() {
            assert_eq!(CmpOp::from_index(i as u8), Some(*c));
            assert_eq!(CmpOp::from_suffix(c.suffix()), Some(*c));
        }
        for (i, t) in IType::ALL.iter().enumerate() {
            assert_eq!(IType::from_index(i as u8), Some(*t));
            assert_eq!(IType::from_suffix(t.suffix()), Some(*t));
        }
    }
}
