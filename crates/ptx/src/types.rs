//! Scalar types of the virtual ISA.

/// A PTX scalar type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PtxType {
    /// Unsigned 32-bit integer.
    U32,
    /// Signed 32-bit integer.
    S32,
    /// Untyped 32 bits.
    B32,
    /// 32-bit IEEE float.
    F32,
    /// Unsigned 64-bit integer.
    U64,
    /// Signed 64-bit integer.
    S64,
    /// Untyped 64 bits.
    B64,
    /// 64-bit IEEE float.
    F64,
    /// One-bit predicate.
    Pred,
}

impl PtxType {
    /// Size of a value of this type in bytes (predicates report 0: they live
    /// in predicate registers, not the general-purpose file).
    pub fn bytes(self) -> u32 {
        match self {
            PtxType::Pred => 0,
            PtxType::U32 | PtxType::S32 | PtxType::B32 | PtxType::F32 => 4,
            PtxType::U64 | PtxType::S64 | PtxType::B64 | PtxType::F64 => 8,
        }
    }

    /// True for the 64-bit types (which occupy an aligned register pair).
    pub fn is_wide(self) -> bool {
        self.bytes() == 8
    }

    /// True for the floating-point types.
    pub fn is_float(self) -> bool {
        matches!(self, PtxType::F32 | PtxType::F64)
    }

    /// The type-suffix spelling (`u32`, `f64`, `pred`, ...).
    pub fn suffix(self) -> &'static str {
        match self {
            PtxType::U32 => "u32",
            PtxType::S32 => "s32",
            PtxType::B32 => "b32",
            PtxType::F32 => "f32",
            PtxType::U64 => "u64",
            PtxType::S64 => "s64",
            PtxType::B64 => "b64",
            PtxType::F64 => "f64",
            PtxType::Pred => "pred",
        }
    }

    /// Parses a type-suffix spelling.
    pub fn from_suffix(s: &str) -> Option<PtxType> {
        Some(match s {
            "u32" => PtxType::U32,
            "s32" => PtxType::S32,
            "b32" => PtxType::B32,
            "f32" => PtxType::F32,
            "u64" => PtxType::U64,
            "s64" => PtxType::S64,
            "b64" => PtxType::B64,
            "f64" => PtxType::F64,
            "pred" => PtxType::Pred,
            _ => return None,
        })
    }
}

impl std::fmt::Display for PtxType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.suffix())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_and_suffixes() {
        assert_eq!(PtxType::U32.bytes(), 4);
        assert_eq!(PtxType::F64.bytes(), 8);
        assert!(PtxType::F64.is_wide());
        assert!(!PtxType::F32.is_wide());
        assert!(PtxType::F32.is_float());
        for t in [
            PtxType::U32,
            PtxType::S32,
            PtxType::B32,
            PtxType::F32,
            PtxType::U64,
            PtxType::S64,
            PtxType::B64,
            PtxType::F64,
            PtxType::Pred,
        ] {
            assert_eq!(PtxType::from_suffix(t.suffix()), Some(t));
        }
        assert_eq!(PtxType::from_suffix("u16"), None);
    }
}
