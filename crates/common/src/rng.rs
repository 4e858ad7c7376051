//! A seeded, dependency-free PRNG: SplitMix64 for state expansion and
//! xoshiro256** for the output stream.
//!
//! Covers the `rand` surface the workspace actually uses: construction from
//! a `u64` seed, uniform integers in a half-open range, booleans, floats in
//! `[0, 1)` and Fisher–Yates shuffling. Streams are deterministic functions
//! of the seed, which is all the workloads and tests require (they never
//! depended on `rand`'s exact stream, only on reproducibility).

/// SplitMix64 step, used to expand a 64-bit seed into xoshiro state and as
/// a standalone mixing function.
#[must_use]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A xoshiro256** generator.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator whose stream is a deterministic function of
    /// `seed` (SplitMix64-expanded, as the xoshiro authors recommend).
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut sm = seed;
        let s =
            [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)];
        Rng { s }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let r = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        r
    }

    /// The next 32 random bits (upper half of the 64-bit output).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniformly random boolean.
    pub fn gen_bool(&mut self) -> bool {
        self.next_u64() >> 63 != 0
    }

    /// A uniform float in `[0, 1)`.
    pub fn gen_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// A uniform value in the half-open range `lo..hi`.
    ///
    /// # Panics
    ///
    /// Panics when the range is empty.
    pub fn gen_range<T: UniformInt>(&mut self, range: std::ops::Range<T>) -> T {
        T::sample(self, range.start, range.end)
    }

    /// A uniform index in `0..len` (convenience for slice indexing).
    ///
    /// # Panics
    ///
    /// Panics when `len` is zero.
    pub fn index(&mut self, len: usize) -> usize {
        self.gen_range(0..len)
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(0..i + 1);
            slice.swap(i, j);
        }
    }

    /// A uniformly chosen element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics when the slice is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        &slice[self.index(slice.len())]
    }

    /// Fills a byte buffer with random data.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

/// Integer types [`Rng::gen_range`] can sample uniformly.
///
/// Sampling maps 64 random bits onto the span by modulo reduction; the bias
/// is below 2⁻⁴⁰ for every span the workspace uses, which is irrelevant for
/// workload synthesis and randomized testing.
pub trait UniformInt: Copy {
    /// A uniform value in `lo..hi`.
    fn sample(rng: &mut Rng, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_uniform_unsigned {
    ($($t:ty),*) => {$(
        impl UniformInt for $t {
            fn sample(rng: &mut Rng, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "empty range {lo}..{hi}");
                let span = (hi as u64).wrapping_sub(lo as u64);
                lo.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
    )*};
}

macro_rules! impl_uniform_signed {
    ($($t:ty => $u:ty),*) => {$(
        impl UniformInt for $t {
            fn sample(rng: &mut Rng, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "empty range {lo}..{hi}");
                let span = (hi as i64).wrapping_sub(lo as i64) as u64;
                lo.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
    )*};
}

impl_uniform_unsigned!(u8, u16, u32, u64, usize);
impl_uniform_signed!(i8 => u8, i16 => u16, i32 => u32, i64 => u64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(10u32..20);
            assert!((10..20).contains(&v));
            let w = rng.gen_range(-5i64..5);
            assert!((-5..5).contains(&w));
        }
    }

    #[test]
    fn gen_range_covers_the_whole_range() {
        let mut rng = Rng::seed_from_u64(1);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[rng.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from_u64(9);
        let mut v: Vec<u32> = (0..64).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
        assert_ne!(
            v, sorted,
            "a 64-element shuffle leaving order intact is astronomically unlikely"
        );
    }

    #[test]
    fn floats_are_unit_interval() {
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..1_000 {
            let f = rng.gen_f32();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn fill_bytes_fills_odd_lengths() {
        let mut rng = Rng::seed_from_u64(5);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|b| *b != 0));
    }
}
