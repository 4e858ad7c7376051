//! A multiplicative hasher for short keys: a word of state, one xor and one
//! folded multiply (the two halves of the 128-bit product, xored) per eight
//! bytes of key, so every bit of the key reaches every bit of the hash.
//!
//! It does not resist keys crafted to collide, as std's SipHash does, so it
//! belongs only where colliding keys can slow no one but their author: a
//! PTX module's names, for instance, whose interning only that module's
//! load pays for. Elsewhere keep the default.

use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier: 2^64 divided by the golden ratio, made odd.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// The hasher's state; [`FastHash`] builds it for a `HashMap` or `HashSet`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * u128::from(K);
        self.0 = (product as u64) ^ (product >> 64) as u64;
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut rest = bytes;
        while let Some((word, tail)) = rest.split_first_chunk::<8>() {
            self.add(u64::from_le_bytes(*word));
            rest = tail;
        }
        // The last 0 to 7 bytes in one word, read as two overlapping
        // halves (or the first, middle and last byte), plus their count.
        let n = rest.len();
        let half = |at: usize| {
            u64::from(u32::from_le_bytes(rest[at..at + 4].try_into().expect("four bytes")))
        };
        let word = match n {
            0 => 0,
            1..=3 => {
                u64::from(rest[0]) | u64::from(rest[n / 2]) << 8 | u64::from(rest[n - 1]) << 16
            }
            _ => half(0) | half(n - 4) << 32,
        };
        self.add(word ^ (n as u64) << 61);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds a [`FastHasher`]: `HashMap<K, V, FastHash>`.
pub type FastHash = BuildHasherDefault<FastHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash(v: impl Hash) -> u64 {
        FastHash::default().hash_one(v)
    }

    #[test]
    fn equal_keys_hash_equal_and_near_keys_apart() {
        assert_eq!(hash("%r12"), hash(String::from("%r12")));
        let names: Vec<String> = (0..4096).map(|i| format!("%r{i}")).collect();
        // The 12 low bits a 4096-slot table indexes by spread the keys as a
        // random function would: about 4096 / e slots stay empty (1,507,
        // give or take 20), and none holds more than a handful.
        let mut slots = vec![0u32; 4096];
        names.iter().for_each(|n| slots[(hash(n) & 4095) as usize] += 1);
        let empty = slots.iter().filter(|&&n| n == 0).count();
        let max = slots.iter().max();
        assert!((1400..1620).contains(&empty), "{empty} empty slots");
        assert!(max <= Some(&12), "max {max:?}");
        // A key and its prefix differ (std's `str` hashing appends a marker).
        assert_ne!(hash("abcdefgh"), hash("abcdefg"));
    }
}
