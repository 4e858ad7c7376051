//! The machine-independent instruction view exposed to tools — the paper's
//! `Instr` class (Listing 4).

use sass::{Instruction, MemSpace, Op, Operand};
use std::sync::Arc;

/// A lifted instruction: one-to-one with a SASS instruction of the
/// inspected function, in program order. Views of one entry of the line
/// table share its file name.
#[derive(Debug, Clone)]
pub struct Instr {
    /// Index within the function body (what `insert_call` addresses).
    pub idx: usize,
    /// Byte offset of the instruction from the function start
    /// (`Instr::getOffset` in the paper).
    pub offset: u64,
    /// Source-correlation info, when the binary carries it
    /// (`Instr::getLineInfo`).
    pub line_info: Option<(Arc<str>, u32)>,
    pub(crate) inner: Instruction,
}

impl Instr {
    pub(crate) fn new(
        idx: usize,
        offset: u64,
        inner: Instruction,
        line_info: Option<(Arc<str>, u32)>,
    ) -> Instr {
        Instr { idx, offset, line_info, inner }
    }

    /// The full opcode string including modifiers, e.g. `"LDG.64"` or
    /// `"ISETP.LT.S32"` (`Instr::getOpcode`), rendered on request; tools
    /// that key on the opcode per instruction use [`Instr::op`].
    pub fn opcode(&self) -> String {
        self.inner.opcode_string()
    }

    /// The base machine opcode.
    pub fn op(&self) -> Op {
        self.inner.op
    }

    /// Number of operands (`Instr::getNumOperands`).
    pub fn num_operands(&self) -> usize {
        self.inner.operands.len()
    }

    /// The `n`-th operand (`Instr::getOperand`).
    pub fn operand(&self, n: usize) -> Option<&Operand> {
        self.inner.operands.get(n)
    }

    /// All operands.
    pub fn operands(&self) -> &[Operand] {
        &self.inner.operands
    }

    /// Memory space accessed, if this is a memory operation
    /// (`Instr::getMemOpType`: GLOBAL/SHARED/LOCAL/CONST).
    pub fn mem_space(&self) -> Option<MemSpace> {
        self.inner.op.mem_space()
    }

    /// Access size in bytes for memory operations (`Instr::getSize`).
    pub fn access_bytes(&self) -> Option<usize> {
        self.mem_space().map(|_| self.inner.mods.width.bytes())
    }

    /// True for loads (`Instr::isLoad`).
    pub fn is_load(&self) -> bool {
        self.inner.op.is_load()
    }

    /// True for stores (`Instr::isStore`).
    pub fn is_store(&self) -> bool {
        self.inner.op.is_store()
    }

    /// True if the instruction carries a non-trivial guard predicate
    /// (`Instr::hasPred`).
    pub fn has_guard(&self) -> bool {
        !self.inner.guard.is_always()
    }

    /// The guard predicate register index and negation, if guarded
    /// (`Instr::getPredNum` / `isPredNeg`).
    pub fn guard(&self) -> Option<(u8, bool)> {
        if self.has_guard() {
            Some((self.inner.guard.pred.0, self.inner.guard.negated))
        } else {
            None
        }
    }

    /// The memory-reference operand `[base + offset]`, if any.
    pub fn mref(&self) -> Option<(sass::Reg, i32)> {
        self.inner.operands.iter().find_map(|o| match o {
            Operand::MRef { base, offset } => Some((*base, *offset)),
            _ => None,
        })
    }

    /// The immediate id of a `PROXY` instruction (paper §6.3's
    /// hypothetical-instruction carrier), if this is one.
    pub fn proxy_id(&self) -> Option<i64> {
        if self.inner.op == Op::Proxy {
            self.inner.operands.get(2).and_then(Operand::as_imm)
        } else {
            None
        }
    }

    /// Destination and first source registers of a `PROXY` instruction.
    pub fn proxy_regs(&self) -> Option<(sass::Reg, sass::Reg)> {
        if self.inner.op != Op::Proxy {
            return None;
        }
        match (self.inner.operands.first(), self.inner.operands.get(1)) {
            (Some(Operand::Reg(d)), Some(Operand::Reg(s))) => Some((*d, *s)),
            _ => None,
        }
    }

    /// The raw machine instruction (escape hatch; stable across families
    /// thanks to the lifter).
    pub fn raw(&self) -> &Instruction {
        &self.inner
    }

    /// The control-flow class, used by tools that reason about basic blocks.
    pub fn cf_class(&self) -> sass::op::CfClass {
        self.inner.op.cf_class()
    }
}

/// Plan, codegen and the verifier read the lifted views as the body.
impl std::borrow::Borrow<Instruction> for Instr {
    fn borrow(&self) -> &Instruction {
        &self.inner
    }
}

impl std::fmt::Display for Instr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "/*{:04x}*/ {}", self.offset, self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sass::{asm, Mods, Width};

    fn lift_one(text: &str) -> Instr {
        let i = asm::assemble(text).unwrap().remove(0);
        Instr::new(0, 0x40, i, Some(("k.cu".into(), 12)))
    }

    #[test]
    fn exposes_opcode_and_operand_views() {
        let i = lift_one("LDG.64 R2, [R6+0x100] ;");
        assert_eq!(i.opcode(), "LDG.64");
        assert_eq!(i.op(), Op::Ldg);
        assert_eq!(i.num_operands(), 2);
        assert_eq!(i.mem_space(), Some(MemSpace::Global));
        assert_eq!(i.access_bytes(), Some(8));
        assert!(i.is_load() && !i.is_store());
        assert_eq!(i.mref(), Some((sass::Reg(6), 0x100)));
        assert_eq!(i.line_info.as_ref().unwrap().1, 12);
    }

    #[test]
    fn guards_are_reported() {
        let i = lift_one("@!P2 IADD R4, R5, R6 ;");
        assert!(i.has_guard());
        assert_eq!(i.guard(), Some((2, true)));
        let j = lift_one("IADD R4, R5, R6 ;");
        assert!(!j.has_guard());
        assert_eq!(j.guard(), None);
    }

    #[test]
    fn proxy_accessors() {
        let i = lift_one("PROXY R4, R5, 0x1234 ;");
        assert_eq!(i.proxy_id(), Some(0x1234));
        assert_eq!(i.proxy_regs(), Some((sass::Reg(4), sass::Reg(5))));
        assert_eq!(lift_one("NOP ;").proxy_id(), None);
    }

    #[test]
    fn non_memory_instructions_have_no_access_size() {
        let i = lift_one("FADD R1, R2, R3 ;");
        assert_eq!(i.mem_space(), None);
        assert_eq!(i.access_bytes(), None);
        // Width modifier without memory semantics stays invisible.
        let mut raw = asm::assemble("IADD R1, R2, R3 ;").unwrap().remove(0);
        raw.mods = Mods { width: Width::B64, ..raw.mods };
        let j = Instr::new(0, 0, raw, None);
        assert_eq!(j.access_bytes(), None);
    }
}
