//! Register, predicate and special-register names.

/// A general-purpose 32-bit register `R0`..`R254`, or the hardwired zero
/// register [`Reg::RZ`] (encoded as index 255).
///
/// Reads of `RZ` produce zero; writes to it are discarded — exactly the
/// behaviour real SASS relies on to express "no destination".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Reg(pub u8);

impl Reg {
    /// The hardwired zero register.
    pub const RZ: Reg = Reg(255);

    /// The ABI stack-pointer register (points into per-thread local memory).
    pub const SP: Reg = Reg(1);

    /// First ABI argument register for device-function calls.
    pub const ARG0: Reg = Reg(4);

    /// Returns `true` for the zero register.
    pub fn is_zero(self) -> bool {
        self.0 == 255
    }

    /// Register index as `usize` for register-file addressing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_zero() {
            f.write_str("RZ")
        } else {
            write!(f, "R{}", self.0)
        }
    }
}

/// A predicate register `P0`..`P6`, or the hardwired true predicate
/// [`Pred::PT`] (encoded as index 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pred(pub u8);

impl Pred {
    /// The hardwired always-true predicate.
    pub const PT: Pred = Pred(7);

    /// Number of writable predicate registers (`P0`..`P6`).
    pub const NUM_WRITABLE: usize = 7;

    /// All writable predicates as a mask, bit `i` for `Pi` (the unit of
    /// [`crate::Instruction::pred_reads`] and [`crate::LiveSet::preds`]).
    pub const WRITABLE_MASK: u8 = 0x7f;

    /// Returns `true` for the hardwired true predicate.
    pub fn is_true_reg(self) -> bool {
        self.0 == 7
    }

    /// Predicate index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for Pred {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_true_reg() {
            f.write_str("PT")
        } else {
            write!(f, "P{}", self.0)
        }
    }
}

/// Special (read-only) registers accessed via the `S2R` instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SpecialReg {
    /// Thread index within the block, x component.
    TidX = 0,
    /// Thread index within the block, y component.
    TidY = 1,
    /// Thread index within the block, z component.
    TidZ = 2,
    /// Block dimension, x component.
    NTidX = 3,
    /// Block dimension, y component.
    NTidY = 4,
    /// Block dimension, z component.
    NTidZ = 5,
    /// Block index within the grid, x component.
    CtaIdX = 6,
    /// Block index within the grid, y component.
    CtaIdY = 7,
    /// Block index within the grid, z component.
    CtaIdZ = 8,
    /// Grid dimension, x component.
    NCtaIdX = 9,
    /// Grid dimension, y component.
    NCtaIdY = 10,
    /// Grid dimension, z component.
    NCtaIdZ = 11,
    /// Lane index within the warp (0..32).
    LaneId = 12,
    /// Warp index within the SM.
    WarpId = 13,
    /// SM index within the device.
    SmId = 14,
    /// Free-running cycle counter (low 32 bits of simulated cycles).
    Clock = 15,
    /// Warp-wide active mask at the current instruction.
    ActiveMask = 16,
    /// Grid launch identifier.
    GridId = 17,
    /// ABI version 2 convergence-barrier state (Volta-class only).
    BarrierState = 18,
}

impl SpecialReg {
    /// All special registers in encoding order.
    pub const ALL: [SpecialReg; 19] = [
        SpecialReg::TidX,
        SpecialReg::TidY,
        SpecialReg::TidZ,
        SpecialReg::NTidX,
        SpecialReg::NTidY,
        SpecialReg::NTidZ,
        SpecialReg::CtaIdX,
        SpecialReg::CtaIdY,
        SpecialReg::CtaIdZ,
        SpecialReg::NCtaIdX,
        SpecialReg::NCtaIdY,
        SpecialReg::NCtaIdZ,
        SpecialReg::LaneId,
        SpecialReg::WarpId,
        SpecialReg::SmId,
        SpecialReg::Clock,
        SpecialReg::ActiveMask,
        SpecialReg::GridId,
        SpecialReg::BarrierState,
    ];

    /// Decode from the encoding index, if valid.
    pub fn from_index(idx: u8) -> Option<SpecialReg> {
        SpecialReg::ALL.get(idx as usize).copied()
    }

    /// The assembly mnemonic (`SR_TID.X`, `SR_LANEID`, ...).
    pub fn mnemonic(self) -> &'static str {
        match self {
            SpecialReg::TidX => "SR_TID.X",
            SpecialReg::TidY => "SR_TID.Y",
            SpecialReg::TidZ => "SR_TID.Z",
            SpecialReg::NTidX => "SR_NTID.X",
            SpecialReg::NTidY => "SR_NTID.Y",
            SpecialReg::NTidZ => "SR_NTID.Z",
            SpecialReg::CtaIdX => "SR_CTAID.X",
            SpecialReg::CtaIdY => "SR_CTAID.Y",
            SpecialReg::CtaIdZ => "SR_CTAID.Z",
            SpecialReg::NCtaIdX => "SR_NCTAID.X",
            SpecialReg::NCtaIdY => "SR_NCTAID.Y",
            SpecialReg::NCtaIdZ => "SR_NCTAID.Z",
            SpecialReg::LaneId => "SR_LANEID",
            SpecialReg::WarpId => "SR_WARPID",
            SpecialReg::SmId => "SR_SMID",
            SpecialReg::Clock => "SR_CLOCK",
            SpecialReg::ActiveMask => "SR_ACTIVEMASK",
            SpecialReg::GridId => "SR_GRIDID",
            SpecialReg::BarrierState => "SR_BARRIERSTATE",
        }
    }

    /// Parse a mnemonic produced by [`SpecialReg::mnemonic`].
    pub fn from_mnemonic(s: &str) -> Option<SpecialReg> {
        SpecialReg::ALL.iter().copied().find(|sr| sr.mnemonic() == s)
    }
}

impl std::fmt::Display for SpecialReg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rz_reads_as_zero_register() {
        assert!(Reg::RZ.is_zero());
        assert!(!Reg(0).is_zero());
        assert_eq!(Reg::RZ.to_string(), "RZ");
        assert_eq!(Reg(17).to_string(), "R17");
    }

    #[test]
    fn pt_is_true_predicate() {
        assert!(Pred::PT.is_true_reg());
        assert!(!Pred(0).is_true_reg());
        assert_eq!(Pred::PT.to_string(), "PT");
        assert_eq!(Pred(3).to_string(), "P3");
    }

    #[test]
    fn special_regs_roundtrip_index_and_mnemonic() {
        for (i, sr) in SpecialReg::ALL.iter().enumerate() {
            assert_eq!(SpecialReg::from_index(i as u8), Some(*sr));
            assert_eq!(SpecialReg::from_mnemonic(sr.mnemonic()), Some(*sr));
        }
        assert_eq!(SpecialReg::from_index(200), None);
        assert_eq!(SpecialReg::from_mnemonic("SR_BOGUS"), None);
    }
}
