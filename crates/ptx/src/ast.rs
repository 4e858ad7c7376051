//! Abstract syntax tree of the PTX-like dialect.
//!
//! No node owns text. A spelling is interned once per [`Module`] and named
//! by a [`Sym`]; within a function, registers and labels are dense ids
//! ([`VReg`], [`LabelId`]) into the function's own tables, so every
//! statement is a `Copy` value and the analyses index vectors by id.

use crate::types::PtxType;
use common::hash::FastHash;
use sass::{CmpOp, SpecialReg};
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
/// once, whatever the number of functions that use it. Looked up by a
/// [`FastHash`]: the names are the module's own, so names crafted to
/// collide slow only their own module's load.
#[derive(Debug, Clone)]
pub struct Interner {
    ids: HashMap<Arc<str>, Sym, FastHash>,
    names: Vec<Arc<str>>,
}

impl Default for Interner {
    fn default() -> Interner {
        let mut names = Interner { ids: HashMap::default(), names: Vec::new() };
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
        special: Option<SpecialReg>,
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
        cmp: CmpOp,
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

    /// The first operation of a kernel whose body is `op` over `%r1`-`%r2`,
    /// `%p1` and `%rd1`.
    fn first_op(op: &str) -> PtxOp {
        let src = format!(
            ".entry k(.param .u64 p)\n{{\n    .reg .u64 %rd<4>;\n    .reg .u32 %r<3>;\n    \
             .reg .pred %p<2>;\n    {op}\n    exit;\n}}\n"
        );
        let m = crate::parse_module(&src).unwrap_or_else(|e| panic!("{op}: {e}"));
        m.functions[0]
            .body
            .iter()
            .find_map(|s| match s {
                Statement::Instr(i) => Some(i.op),
                _ => None,
            })
            .expect("the kernel has an instruction")
    }

    /// Every machine comparison, spelled as PTX writes it, reads back as
    /// itself in a `setp`.
    #[test]
    fn pcmp_roundtrips() {
        for c in CmpOp::ALL {
            let s = c.suffix().to_ascii_lowercase();
            let op = first_op(&format!("setp.{s}.u32 %p1, %r1, %r2;"));
            assert!(matches!(op, PtxOp::Setp { cmp, .. } if cmp == c), "setp.{s}: {op:?}");
        }
        assert_eq!(CmpOp::ALL.len(), 6);
    }

    #[test]
    fn atomop_roundtrips() {
        let atoms = [
            ("add", AtomOp::Add),
            ("min", AtomOp::Min),
            ("max", AtomOp::Max),
            ("and", AtomOp::And),
            ("or", AtomOp::Or),
            ("xor", AtomOp::Xor),
            ("exch", AtomOp::Exch),
            ("cas", AtomOp::Cas),
        ];
        for (s, a) in atoms {
            assert_eq!(AtomOp::from_suffix(s), Some(a));
            let cas = if a == AtomOp::Cas { ", %r2" } else { "" };
            let op = first_op(&format!("atom.global.{s}.u32 %r1, [%rd1], %r2{cas};"));
            assert!(matches!(op, PtxOp::Atom { op, .. } if op == a), "atom.{s}: {op:?}");
        }
        assert_eq!(AtomOp::from_suffix("bfly"), None);
    }

    /// A PTX special register is the machine register itself: all 17
    /// spellings read as their `SpecialReg`.
    #[test]
    fn special_maps_to_machine_registers() {
        use SpecialReg as S;
        let specials = [
            ("%tid.x", S::TidX),
            ("%tid.y", S::TidY),
            ("%tid.z", S::TidZ),
            ("%ntid.x", S::NTidX),
            ("%ntid.y", S::NTidY),
            ("%ntid.z", S::NTidZ),
            ("%ctaid.x", S::CtaIdX),
            ("%ctaid.y", S::CtaIdY),
            ("%ctaid.z", S::CtaIdZ),
            ("%nctaid.x", S::NCtaIdX),
            ("%nctaid.y", S::NCtaIdY),
            ("%nctaid.z", S::NCtaIdZ),
            ("%laneid", S::LaneId),
            ("%warpid", S::WarpId),
            ("%smid", S::SmId),
            ("%clock", S::Clock),
            ("%activemask", S::ActiveMask),
        ];
        for (s, want) in specials {
            let op = first_op(&format!("mov.u32 %r1, {s};"));
            assert!(
                matches!(op, PtxOp::Mov { special: Some(sr), .. } if sr == want),
                "{s}: {op:?}"
            );
        }
    }
}
