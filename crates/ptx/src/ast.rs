//! Abstract syntax tree of the PTX-like dialect.
//!
//! No node owns text. A spelling is interned once per [`Module`] and named
//! by a [`Sym`]; within a function, registers and labels are dense ids
//! ([`VReg`], [`LabelId`]) into the function's own tables, so every
//! statement is a `Copy` value and the analyses index vectors by id.

use crate::types::PtxType;
use std::collections::HashMap;
use std::sync::Arc;

/// Whether a function is a kernel entry point or a callable device function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FunctionKind {
    /// `.entry` — launchable kernel; parameters arrive in constant bank 0.
    Entry,
    /// `.func` — device function; parameters arrive in ABI argument
    /// registers (`R4`...), the optional return value leaves in `R4`(/`R5`).
    Device,
}

/// An interned spelling: index into its module's [`Interner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(u32);

impl Sym {
    /// `$ret_merge`, the label of the single return block the backend
    /// merges early `ret`s into.
    pub const RET_MERGE: Sym = Sym(0);
    /// `$retval`, the hidden register early `ret.val`s stash their value in.
    pub const RETVAL: Sym = Sym(1);

    /// The index into per-spelling tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The module's one owner of name text: each distinct spelling is stored
/// once, whatever the number of functions that use it.
#[derive(Debug, Clone)]
pub struct Interner {
    ids: HashMap<Arc<str>, Sym>,
    names: Vec<Arc<str>>,
}

impl Default for Interner {
    fn default() -> Interner {
        let mut names = Interner { ids: HashMap::new(), names: Vec::new() };
        assert_eq!(names.intern("$ret_merge"), Sym::RET_MERGE);
        assert_eq!(names.intern("$retval"), Sym::RETVAL);
        names
    }
}

impl Interner {
    /// The id of `s`, interning it on first sight.
    pub fn intern(&mut self, s: &str) -> Sym {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = Sym(u32::try_from(self.names.len()).expect("fewer than 2^32 distinct names"));
        let name: Arc<str> = Arc::from(s);
        self.names.push(name.clone());
        self.ids.insert(name, id);
        id
    }

    /// The id of `s`, if some function of the module spelled it.
    pub fn get(&self, s: &str) -> Option<Sym> {
        self.ids.get(s).copied()
    }

    /// The spelling of `id`.
    pub fn resolve(&self, id: Sym) -> &str {
        &self.names[id.index()]
    }
}

/// A parsed module.
#[derive(Debug, Clone, Default)]
pub struct Module {
    /// Functions in source order.
    pub functions: Vec<Function>,
    /// Every name the functions refer to.
    pub names: Interner,
}

impl Module {
    /// Finds a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        let name = self.names.get(name)?;
        self.functions.iter().find(|f| f.name == name)
    }
}

/// A virtual register of one function: index into [`Function::regs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct VReg(pub u32);

impl VReg {
    /// The index into per-register tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A branch-target label of one function: index into [`Function::labels`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LabelId(pub u32);

impl LabelId {
    /// The index into per-label tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One virtual register a function refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegInfo {
    /// Spelling (`%r1`).
    pub name: Sym,
    /// Declared type — of the last matching `.reg` declaration, wherever
    /// in the function it stands; `None` when there is none.
    pub ty: Option<PtxType>,
}

/// A statically-sized shared-memory declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedDecl {
    /// Variable name.
    pub name: Sym,
    /// Size in bytes.
    pub bytes: u32,
    /// Alignment in bytes.
    pub align: u32,
}

/// A parsed function.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name.
    pub name: Sym,
    /// Entry kernel or device function.
    pub kind: FunctionKind,
    /// Parameters in declaration order. A device function's are also
    /// virtual registers: see [`Function::reg_named`].
    pub params: Vec<(Sym, PtxType)>,
    /// Return type (device functions only).
    pub ret: Option<PtxType>,
    /// Virtual register declared as the return slot (device functions with a
    /// `(.reg .ty %out)` return declaration).
    pub ret_reg: Option<VReg>,
    /// The virtual registers the function refers to, in order of first
    /// reference (a device function's parameters and return slot first).
    pub regs: Vec<RegInfo>,
    /// Label spellings, in order of first reference or definition.
    pub labels: Vec<Sym>,
    /// Shared-memory declarations.
    pub shared: Vec<SharedDecl>,
    /// Argument registers of every `call`, back to back ([`ArgRange`]).
    pub call_args: Vec<VReg>,
    /// Body statements.
    pub body: Vec<Statement>,
}

impl Function {
    /// The register spelled `name`, if the function refers to one.
    pub fn reg_named(&self, name: Sym) -> Option<VReg> {
        self.regs.iter().position(|r| r.name == name).map(|i| VReg(i as u32))
    }

    /// The argument registers of a `call`.
    pub fn args(&self, range: ArgRange) -> &[VReg] {
        &self.call_args[range.start as usize..][..range.len as usize]
    }
}

/// The arguments of one `call`: a range of [`Function::call_args`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArgRange {
    /// Index of the first argument.
    pub start: u32,
    /// Number of arguments.
    pub len: u32,
}

/// One body statement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Statement {
    /// A branch-target label.
    Label(LabelId),
    /// A source-location directive (`.loc "file" line`), attaching to the
    /// following instructions.
    Loc {
        /// Source file name.
        file: Sym,
        /// 1-based source line.
        line: u32,
    },
    /// An instruction.
    Instr(PtxInstr),
}

/// Guard prefix on an instruction (`@%p` / `@!%p`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PtxGuard {
    /// Guarding predicate virtual register.
    pub reg: VReg,
    /// True for `@!%p`.
    pub negated: bool,
}

/// A register-or-immediate source operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// A virtual register.
    Reg(VReg),
    /// An immediate; floating constants are stored as raw bits
    /// (sign-extended from 32 bits for `f32` to match the codec's canonical
    /// immediate form).
    Imm(i64),
}

/// Base of a memory address operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddrBase {
    /// Address held in a virtual register.
    Reg(VReg),
    /// A shared-memory variable (its static byte offset).
    Shared(Sym),
}

/// A memory address operand `[base + offset]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Address {
    /// Address base.
    pub base: AddrBase,
    /// Additional signed byte offset.
    pub offset: i32,
}

/// Memory space of a load/store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Space {
    /// Device-wide global memory.
    Global,
    /// Per-CTA shared memory.
    Shared,
    /// Per-thread local memory.
    Local,
}

/// Comparison operator of `setp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PCmp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater or equal.
    Ge,
}

impl PCmp {
    /// Suffix spelling.
    pub fn suffix(self) -> &'static str {
        match self {
            PCmp::Eq => "eq",
            PCmp::Ne => "ne",
            PCmp::Lt => "lt",
            PCmp::Le => "le",
            PCmp::Gt => "gt",
            PCmp::Ge => "ge",
        }
    }

    /// Parses a suffix spelling.
    pub fn from_suffix(s: &str) -> Option<PCmp> {
        Some(match s {
            "eq" => PCmp::Eq,
            "ne" => PCmp::Ne,
            "lt" => PCmp::Lt,
            "le" => PCmp::Le,
            "gt" => PCmp::Gt,
            "ge" => PCmp::Ge,
            _ => return None,
        })
    }

    /// The equivalent machine comparison.
    pub fn to_sass(self) -> sass::CmpOp {
        match self {
            PCmp::Eq => sass::CmpOp::Eq,
            PCmp::Ne => sass::CmpOp::Ne,
            PCmp::Lt => sass::CmpOp::Lt,
            PCmp::Le => sass::CmpOp::Le,
            PCmp::Gt => sass::CmpOp::Gt,
            PCmp::Ge => sass::CmpOp::Ge,
        }
    }
}

/// Atomic operation selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomOp {
    /// Fetch-and-add.
    Add,
    /// Fetch-and-min.
    Min,
    /// Fetch-and-max.
    Max,
    /// Fetch-and-AND.
    And,
    /// Fetch-and-OR.
    Or,
    /// Fetch-and-XOR.
    Xor,
    /// Exchange.
    Exch,
    /// Compare-and-swap.
    Cas,
}

impl AtomOp {
    /// Suffix spelling.
    pub fn suffix(self) -> &'static str {
        match self {
            AtomOp::Add => "add",
            AtomOp::Min => "min",
            AtomOp::Max => "max",
            AtomOp::And => "and",
            AtomOp::Or => "or",
            AtomOp::Xor => "xor",
            AtomOp::Exch => "exch",
            AtomOp::Cas => "cas",
        }
    }

    /// Parses a suffix spelling.
    pub fn from_suffix(s: &str) -> Option<AtomOp> {
        Some(match s {
            "add" => AtomOp::Add,
            "min" => AtomOp::Min,
            "max" => AtomOp::Max,
            "and" => AtomOp::And,
            "or" => AtomOp::Or,
            "xor" => AtomOp::Xor,
            "exch" => AtomOp::Exch,
            "cas" => AtomOp::Cas,
            _ => return None,
        })
    }

    /// The equivalent machine sub-operation.
    pub fn to_sass(self) -> sass::SubOp {
        match self {
            AtomOp::Add => sass::SubOp::Add,
            AtomOp::Min => sass::SubOp::Min,
            AtomOp::Max => sass::SubOp::Max,
            AtomOp::And => sass::SubOp::And,
            AtomOp::Or => sass::SubOp::Or,
            AtomOp::Xor => sass::SubOp::Xor,
            AtomOp::Exch => sass::SubOp::Exch,
            AtomOp::Cas => sass::SubOp::Cas,
        }
    }
}

/// Vote mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VoteMode {
    /// True on all active lanes.
    All,
    /// True on any active lane.
    Any,
    /// Ballot bitmask.
    Ballot,
}

/// Shuffle mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShflMode {
    /// Read from an absolute lane index.
    Idx,
    /// Read from `lane - delta`.
    Up,
    /// Read from `lane + delta`.
    Down,
    /// Read from `lane ^ mask`.
    Bfly,
}

/// Special-function unit operation (`rcp.approx.f32` and friends).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MufuFunc {
    /// Reciprocal.
    Rcp,
    /// Square root.
    Sqrt,
    /// Reciprocal square root.
    Rsq,
    /// Sine.
    Sin,
    /// Cosine.
    Cos,
    /// Base-2 exponential.
    Ex2,
    /// Base-2 logarithm.
    Lg2,
}

impl MufuFunc {
    /// The equivalent machine sub-operation.
    pub fn to_sass(self) -> sass::SubOp {
        match self {
            MufuFunc::Rcp => sass::SubOp::Rcp,
            MufuFunc::Sqrt => sass::SubOp::Sqrt,
            MufuFunc::Rsq => sass::SubOp::Rsq,
            MufuFunc::Sin => sass::SubOp::Sin,
            MufuFunc::Cos => sass::SubOp::Cos,
            MufuFunc::Ex2 => sass::SubOp::Ex2,
            MufuFunc::Lg2 => sass::SubOp::Lg2,
        }
    }
}

/// Special-register sources accepted by `mov`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PtxSpecial {
    /// `%tid.{x,y,z}`.
    Tid(u8),
    /// `%ntid.{x,y,z}`.
    NTid(u8),
    /// `%ctaid.{x,y,z}`.
    CtaId(u8),
    /// `%nctaid.{x,y,z}`.
    NCtaId(u8),
    /// `%laneid`.
    LaneId,
    /// `%warpid`.
    WarpId,
    /// `%smid`.
    SmId,
    /// `%clock`.
    Clock,
    /// `%activemask` (dialect extension; real PTX uses `activemask.b32`).
    ActiveMask,
}

impl PtxSpecial {
    /// The equivalent machine special register.
    pub fn to_sass(self) -> sass::SpecialReg {
        use sass::SpecialReg as S;
        match self {
            PtxSpecial::Tid(0) => S::TidX,
            PtxSpecial::Tid(1) => S::TidY,
            PtxSpecial::Tid(_) => S::TidZ,
            PtxSpecial::NTid(0) => S::NTidX,
            PtxSpecial::NTid(1) => S::NTidY,
            PtxSpecial::NTid(_) => S::NTidZ,
            PtxSpecial::CtaId(0) => S::CtaIdX,
            PtxSpecial::CtaId(1) => S::CtaIdY,
            PtxSpecial::CtaId(_) => S::CtaIdZ,
            PtxSpecial::NCtaId(0) => S::NCtaIdX,
            PtxSpecial::NCtaId(1) => S::NCtaIdY,
            PtxSpecial::NCtaId(_) => S::NCtaIdZ,
            PtxSpecial::LaneId => S::LaneId,
            PtxSpecial::WarpId => S::WarpId,
            PtxSpecial::SmId => S::SmId,
            PtxSpecial::Clock => S::Clock,
            PtxSpecial::ActiveMask => S::ActiveMask,
        }
    }
}

/// A typed PTX operation with its operands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PtxOp {
    /// `ld.param.ty %d, [name+off];`
    LdParam {
        /// Value type.
        ty: PtxType,
        /// Destination register.
        dst: VReg,
        /// Parameter name.
        param: Sym,
        /// Byte offset within the parameter.
        offset: u32,
    },
    /// `ld.space.ty %d, [addr];`
    Ld {
        /// Memory space.
        space: Space,
        /// Value type.
        ty: PtxType,
        /// Destination register.
        dst: VReg,
        /// Address.
        addr: Address,
    },
    /// `st.space.ty [addr], %s;`
    St {
        /// Memory space.
        space: Space,
        /// Value type.
        ty: PtxType,
        /// Address.
        addr: Address,
        /// Source register.
        src: VReg,
    },
    /// `mov.ty %d, src;` where `src` is a register, immediate, special
    /// register or the address of a shared variable.
    Mov {
        /// Value type.
        ty: PtxType,
        /// Destination register.
        dst: VReg,
        /// Plain source, if register/immediate.
        src: Option<Src>,
        /// Special-register source, if any.
        special: Option<PtxSpecial>,
        /// Shared-variable address source, if any.
        shared_addr: Option<Sym>,
    },
    /// Binary arithmetic: `add/sub/mul/min/max/div-free` family.
    Bin {
        /// Which operation.
        kind: BinKind,
        /// Value type.
        ty: PtxType,
        /// Destination register.
        dst: VReg,
        /// First source.
        a: VReg,
        /// Second source.
        b: Src,
    },
    /// `mad.lo.ty %d, %a, %b, %c;` or `mad.wide.u32 %d, %a, %b, %c;` or
    /// `fma.rn.fXX %d, %a, %b, %c;`
    Mad {
        /// Widening multiply (u32×u32 + u64 → u64).
        wide: bool,
        /// Value type (of the multiply inputs).
        ty: PtxType,
        /// Destination register.
        dst: VReg,
        /// Multiplicand.
        a: VReg,
        /// Multiplier.
        b: Src,
        /// Addend.
        c: VReg,
    },
    /// `setp.cmp.ty %p, %a, b;`
    Setp {
        /// Comparison operator.
        cmp: PCmp,
        /// Operand type.
        ty: PtxType,
        /// Destination predicate.
        dst: VReg,
        /// First source.
        a: VReg,
        /// Second source.
        b: Src,
    },
    /// `selp.ty %d, %a, b, %p;`
    Selp {
        /// Value type.
        ty: PtxType,
        /// Destination register.
        dst: VReg,
        /// Value when the predicate is true.
        a: VReg,
        /// Value when the predicate is false.
        b: Src,
        /// Selector predicate.
        p: VReg,
    },
    /// `cvt.dty.sty %d, %s;`
    Cvt {
        /// Destination type.
        dty: PtxType,
        /// Source type.
        sty: PtxType,
        /// Destination register.
        dst: VReg,
        /// Source register.
        src: VReg,
    },
    /// `bra TARGET;` (possibly guarded).
    Bra {
        /// Target label.
        target: LabelId,
    },
    /// `call (%ret), name, (%a, %b, ...);`
    Call {
        /// Destination register for the return value, if any.
        ret: Option<VReg>,
        /// Callee name.
        func: Sym,
        /// Argument registers.
        args: ArgRange,
    },
    /// `ret;`
    Ret,
    /// Return a value: `ret.val %r;` (dialect shorthand for the PTX
    /// `st.param` + `ret` sequence).
    RetVal {
        /// Register holding the return value.
        src: VReg,
    },
    /// `exit;`
    Exit,
    /// `bar.sync 0;`
    BarSync,
    /// `membar.gl;`
    Membar,
    /// `atom.global.op.ty %d, [addr], %s {, %s2};`
    Atom {
        /// Atomic operation.
        op: AtomOp,
        /// Value type.
        ty: PtxType,
        /// Destination register receiving the prior value.
        dst: VReg,
        /// Address.
        addr: Address,
        /// Operand value.
        src: VReg,
        /// Second operand (CAS only).
        src2: Option<VReg>,
    },
    /// `red.global.op.ty [addr], %s;`
    Red {
        /// Reduction operation.
        op: AtomOp,
        /// Value type.
        ty: PtxType,
        /// Address.
        addr: Address,
        /// Operand value.
        src: VReg,
    },
    /// `vote.mode.b32 %d, %p;`
    Vote {
        /// Vote mode.
        mode: VoteMode,
        /// Destination register (mask or 0/1).
        dst: VReg,
        /// Voted predicate.
        src: VReg,
        /// True when the source predicate is negated (`!%p`).
        negated: bool,
    },
    /// `shfl.mode.b32 %d, %a, b;`
    Shfl {
        /// Shuffle mode.
        mode: ShflMode,
        /// Destination register.
        dst: VReg,
        /// Value source.
        a: VReg,
        /// Lane/delta/mask source.
        b: Src,
    },
    /// `popc.b32 %d, %s;`
    Popc {
        /// Destination register.
        dst: VReg,
        /// Source register.
        src: VReg,
    },
    /// Special-function ops: `rcp.approx.f32 %d, %s;` etc.
    Mufu {
        /// Which function.
        func: MufuFunc,
        /// Destination register.
        dst: VReg,
        /// Source register.
        src: VReg,
    },
    /// `proxy.b32 %d, %s, "NAME";` — emits the hypothetical-instruction
    /// carrier used for ISA-extension studies (paper §6.3).
    Proxy {
        /// Destination register.
        dst: VReg,
        /// Source register.
        src: VReg,
        /// Proxy instruction name; hashed into the immediate id field.
        name: Sym,
    },
    /// `chan.push.u64 %rd;` — pushes the 64-bit source register to the
    /// launch's host-side record channel (paper §6.1's mem_trace/cache-sim
    /// receiver). Lowered to the executor-implemented `CHAN` instruction;
    /// faults when the launch has no channel attached.
    ChanPush {
        /// Payload source register (64-bit).
        src: VReg,
    },
    /// `nvbit.readreg.b32 %d, idx;` — device-API intrinsic reading saved
    /// register `idx` of the instrumented thread (paper Listing 7).
    NvReadReg {
        /// Destination register.
        dst: VReg,
        /// Saved-register index.
        idx: Src,
    },
    /// `nvbit.writereg.b32 idx, %s;` — device-API intrinsic overwriting
    /// saved register `idx` (a *permanent* write: the restore routine loads
    /// it back into the register file).
    NvWriteReg {
        /// Saved-register index.
        idx: Src,
        /// Value source register.
        src: VReg,
    },
}

/// Binary arithmetic kind for [`PtxOp::Bin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinKind {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication (low half for integers).
    MulLo,
    /// Widening multiplication `u32 × u32 → u64`.
    MulWide,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Shift left.
    Shl,
    /// Shift right (arithmetic for signed types).
    Shr,
}

/// An instruction: optional guard plus operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PtxInstr {
    /// Optional `@%p` / `@!%p` guard.
    pub guard: Option<PtxGuard>,
    /// The operation.
    pub op: PtxOp,
}

impl PtxInstr {
    /// Builds an unguarded instruction.
    pub fn new(op: PtxOp) -> PtxInstr {
        PtxInstr { guard: None, op }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcmp_roundtrips() {
        for c in [PCmp::Eq, PCmp::Ne, PCmp::Lt, PCmp::Le, PCmp::Gt, PCmp::Ge] {
            assert_eq!(PCmp::from_suffix(c.suffix()), Some(c));
        }
        assert_eq!(PCmp::from_suffix("zz"), None);
    }

    #[test]
    fn atomop_roundtrips() {
        for a in [
            AtomOp::Add,
            AtomOp::Min,
            AtomOp::Max,
            AtomOp::And,
            AtomOp::Or,
            AtomOp::Xor,
            AtomOp::Exch,
            AtomOp::Cas,
        ] {
            assert_eq!(AtomOp::from_suffix(a.suffix()), Some(a));
        }
    }

    #[test]
    fn special_maps_to_machine_registers() {
        assert_eq!(PtxSpecial::Tid(0).to_sass(), sass::SpecialReg::TidX);
        assert_eq!(PtxSpecial::CtaId(2).to_sass(), sass::SpecialReg::CtaIdZ);
        assert_eq!(PtxSpecial::LaneId.to_sass(), sass::SpecialReg::LaneId);
    }
}
