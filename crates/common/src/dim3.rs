//! The single definition of a 3-component launch dimension.
//!
//! The `gpu` and `driver` crates re-export this type; the PTX interpreter
//! uses it for grid/block geometry instead of ad-hoc `(u32, u32, u32)`
//! tuples.

/// A 3-component launch dimension.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Dim3 {
    /// x component.
    pub x: u32,
    /// y component.
    pub y: u32,
    /// z component.
    pub z: u32,
}

impl Dim3 {
    /// Builds a dimension from components.
    #[must_use]
    pub fn xyz(x: u32, y: u32, z: u32) -> Dim3 {
        Dim3 { x, y, z }
    }

    /// A 1-D dimension.
    #[must_use]
    pub fn linear(x: u32) -> Dim3 {
        Dim3 { x, y: 1, z: 1 }
    }

    /// Product of the components.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.x as u64 * self.y as u64 * self.z as u64
    }
}

impl From<(u32, u32, u32)> for Dim3 {
    fn from((x, y, z): (u32, u32, u32)) -> Dim3 {
        Dim3 { x, y, z }
    }
}

impl std::fmt::Display for Dim3 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{{},{},{}}}", self.x, self.y, self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim3_helpers() {
        assert_eq!(Dim3::linear(7).count(), 7);
        assert_eq!(Dim3::xyz(2, 3, 4).count(), 24);
        assert_eq!(Dim3::xyz(128, 128, 1).to_string(), "{128,128,1}");
        assert_eq!(Dim3::from((2, 3, 4)), Dim3::xyz(2, 3, 4));
    }
}
