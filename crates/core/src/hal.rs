//! The Hardware Abstraction Layer.
//!
//! Initialized when a context starts on a device, the HAL records the
//! device-specific facts every other NVBit component consults — instruction
//! size and alignment, register budget, ABI version (which decides whether
//! convergence-barrier state participates in save/restore) — and hands out
//! the family's assembler/disassembler (paper §5.1).

use sass::codec::{codec_for, Codec};
use sass::{Arch, Instruction};

/// Per-architecture facts and codec access.
#[derive(Clone, Copy)]
pub struct Hal {
    arch: Arch,
}

impl Hal {
    /// Creates the HAL for a device architecture.
    pub fn new(arch: Arch) -> Hal {
        Hal { arch }
    }

    /// The architecture.
    pub fn arch(&self) -> Arch {
        self.arch
    }

    /// Encoded instruction size in bytes (8 on `Enc64` families, 16 on
    /// Volta-class).
    pub fn instruction_size(&self) -> u64 {
        self.arch.instruction_size() as u64
    }

    /// Code placement alignment in bytes.
    pub fn code_alignment(&self) -> u64 {
        self.arch.code_alignment() as u64
    }

    /// General-purpose registers available per thread.
    pub fn gpr_count(&self) -> u16 {
        self.arch.gpr_count()
    }

    /// ABI version: 2 on Volta-class devices, whose convergence-barrier
    /// state must be saved around injected functions.
    pub fn abi_version(&self) -> u8 {
        self.arch.abi_version()
    }

    /// True when the save/restore routines must include barrier state.
    pub fn saves_barrier_state(&self) -> bool {
        self.abi_version() >= 2
    }

    /// The family codec (assembler/disassembler at the binary level).
    pub fn codec(&self) -> &'static Codec {
        codec_for(self.arch)
    }

    /// Disassembles a raw code buffer.
    ///
    /// # Errors
    ///
    /// Propagates decode failures.
    pub fn disassemble(&self, code: &[u8]) -> sass::Result<Vec<Instruction>> {
        self.codec().decode_stream(code)
    }

    /// Assembles instructions into raw code.
    ///
    /// # Errors
    ///
    /// Propagates encode failures (e.g. out-of-range fields).
    pub fn assemble(&self, instrs: &[Instruction]) -> sass::Result<Vec<u8>> {
        self.codec().encode_stream(instrs)
    }

    /// Assembles textual assembly for this architecture (labels resolve with
    /// this family's instruction size).
    ///
    /// # Errors
    ///
    /// Propagates parse/encode failures.
    pub fn assemble_text(&self, text: &str) -> sass::Result<Vec<u8>> {
        let instrs = sass::asm::assemble_arch(text, self.arch)?;
        self.assemble(&instrs)
    }
}

impl std::fmt::Debug for Hal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hal")
            .field("arch", &self.arch)
            .field("instruction_size", &self.instruction_size())
            .field("abi_version", &self.abi_version())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hal_reports_family_differences() {
        let k = Hal::new(Arch::Kepler);
        let v = Hal::new(Arch::Volta);
        assert_eq!(k.instruction_size(), 8);
        assert_eq!(v.instruction_size(), 16);
        assert!(!k.saves_barrier_state());
        assert!(v.saves_barrier_state());
        assert_eq!(k.gpr_count(), 255);
    }

    #[test]
    fn assemble_disassemble_roundtrip_through_hal() {
        for arch in Arch::ALL {
            let hal = Hal::new(arch);
            let code = hal.assemble_text("MOV32I R4, 0x2a ;\nEXIT ;").unwrap();
            assert_eq!(code.len() as u64, 2 * hal.instruction_size());
            let instrs = hal.disassemble(&code).unwrap();
            assert_eq!(instrs.len(), 2);
            assert_eq!(instrs[1].op, sass::Op::Exit);
        }
    }
}
