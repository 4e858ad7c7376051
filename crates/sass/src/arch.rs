//! Target architecture families and their fixed properties.

/// A GPU architecture family supported by the stack.
///
/// Mirrors the four families the NVBit paper supports. The first three share
/// the 64-bit encoding ([`EncodingFamily::Enc64`]); Volta uses the 128-bit
/// encoding ([`EncodingFamily::Enc128`]) and a newer ABI that additionally
/// carries convergence-barrier state across instrumentation calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Arch {
    /// Kepler-class device (`sm_35`-era analog).
    Kepler,
    /// Maxwell-class device (`sm_52`-era analog).
    Maxwell,
    /// Pascal-class device (`sm_61`-era analog).
    Pascal,
    /// Volta-class device (`sm_70`-era analog).
    Volta,
}

/// The binary encoding family of an [`Arch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EncodingFamily {
    /// 64-bit (8-byte) instruction words.
    Enc64,
    /// 128-bit (16-byte) instruction words.
    Enc128,
}

impl Arch {
    /// All supported architectures, oldest first.
    pub const ALL: [Arch; 4] = [Arch::Kepler, Arch::Maxwell, Arch::Pascal, Arch::Volta];

    /// The binary encoding family used by this architecture.
    pub fn family(self) -> EncodingFamily {
        match self {
            Arch::Kepler | Arch::Maxwell | Arch::Pascal => EncodingFamily::Enc64,
            Arch::Volta => EncodingFamily::Enc128,
        }
    }

    /// Size in bytes of one encoded instruction on this architecture.
    pub fn instruction_size(self) -> usize {
        crate::codec::codec_for(self).instruction_size()
    }

    /// Required alignment in bytes for code placed in device memory.
    pub fn code_alignment(self) -> usize {
        self.instruction_size()
    }

    /// Number of general-purpose 32-bit registers addressable per thread,
    /// excluding the hardwired zero register `RZ`.
    pub fn gpr_count(self) -> u16 {
        255
    }

    /// ABI version implemented by devices of this family.
    ///
    /// Version 1 is used by the `Enc64` families; version 2 (Volta) adds the
    /// convergence-barrier special state that must be saved and restored
    /// around injected instrumentation functions.
    pub fn abi_version(self) -> u8 {
        match self.family() {
            EncodingFamily::Enc64 => 1,
            EncodingFamily::Enc128 => 2,
        }
    }

    /// Short lowercase name (`"kepler"`, `"maxwell"`, ...).
    pub fn name(self) -> &'static str {
        match self {
            Arch::Kepler => "kepler",
            Arch::Maxwell => "maxwell",
            Arch::Pascal => "pascal",
            Arch::Volta => "volta",
        }
    }
}

impl std::fmt::Display for Arch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_and_sizes_are_consistent() {
        for arch in Arch::ALL {
            match arch.family() {
                EncodingFamily::Enc64 => assert_eq!(arch.instruction_size(), 8),
                EncodingFamily::Enc128 => assert_eq!(arch.instruction_size(), 16),
            }
            assert_eq!(arch.code_alignment(), arch.instruction_size());
        }
    }

    #[test]
    fn volta_is_the_only_abi_v2() {
        let v2: Vec<_> = Arch::ALL.iter().filter(|a| a.abi_version() == 2).collect();
        assert_eq!(v2, vec![&Arch::Volta]);
    }
}
