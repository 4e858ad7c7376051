//! Flat device memory with a first-fit allocator.

use crate::{GpuError, Result};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

/// Allocation alignment (also the cache-line size, so allocations never
/// share a line).
pub const ALLOC_ALIGN: u64 = 256;

/// Device global memory: a flat byte array plus an allocator.
///
/// Address 0 is reserved (never handed out) so that null-pointer bugs in
/// kernels fault instead of silently reading the first allocation.
#[derive(Debug)]
pub struct Memory {
    /// The bytes, as little-endian 32-bit words: 4-aligned and a whole
    /// number of words by construction, which is what lets a launch reach
    /// them through `AtomicU32` only. The bytes of the last word past `len`
    /// are padding no access reaches.
    words: Vec<u32>,
    /// Capacity in bytes; every bounds check is against this.
    len: u64,
    /// Start address → length of live allocations.
    allocs: BTreeMap<u64, u64>,
    /// Bump pointer; freed blocks are merged with adjacent free blocks
    /// (and released back into the bump region when they touch it), then
    /// reused first-fit.
    bump: u64,
    free: Vec<(u64, u64)>,
}

/// Overwrites the bytes of `word` from byte `at` on with `bytes`.
fn merge(word: &mut u32, at: usize, bytes: &[u8]) {
    let mut le = word.to_le_bytes();
    le[at..at + bytes.len()].copy_from_slice(bytes);
    *word = u32::from_le_bytes(le);
}

/// `Ok` iff the `len` bytes at `addr` lie inside a `cap`-byte memory and do
/// not start at the null address.
fn check(addr: u64, len: u64, cap: u64) -> Result<()> {
    match addr.checked_add(len) {
        Some(end) if addr != 0 && end <= cap => Ok(()),
        _ => Err(GpuError::BadAddress { addr, len }),
    }
}

impl Memory {
    /// Creates a memory of `capacity` bytes.
    pub fn new(capacity: u64) -> Memory {
        Memory {
            words: vec![0u32; capacity.div_ceil(4) as usize],
            len: capacity,
            allocs: BTreeMap::new(),
            bump: ALLOC_ALIGN, // reserve the null page
            free: Vec::new(),
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.len
    }

    /// Bytes currently allocated.
    pub fn in_use(&self) -> u64 {
        self.allocs.values().sum()
    }

    /// Number of live allocations (leak accounting: code-cache eviction
    /// tests assert this returns to its baseline after a module unload).
    pub fn live_allocs(&self) -> usize {
        self.allocs.len()
    }

    /// Allocates `len` bytes (rounded up to [`ALLOC_ALIGN`]); returns the
    /// device address.
    ///
    /// # Errors
    ///
    /// [`GpuError::OutOfMemory`] when no region fits.
    pub fn alloc(&mut self, len: u64) -> Result<u64> {
        let size = (len.max(1).checked_next_multiple_of(ALLOC_ALIGN))
            .ok_or(GpuError::OutOfMemory { requested: len, available: 0 })?;
        // First fit among freed blocks.
        if let Some(pos) = self.free.iter().position(|(_, flen)| *flen >= size) {
            let (addr, flen) = self.free.remove(pos);
            if flen > size {
                self.free.push((addr + size, flen - size));
            }
            self.allocs.insert(addr, size);
            return Ok(addr);
        }
        let addr = self.bump;
        let end = addr
            .checked_add(size)
            .ok_or(GpuError::OutOfMemory { requested: size, available: 0 })?;
        if end > self.capacity() {
            return Err(GpuError::OutOfMemory {
                requested: size,
                available: self.capacity().saturating_sub(self.bump),
            });
        }
        self.bump = end;
        self.allocs.insert(addr, size);
        Ok(addr)
    }

    /// Frees an allocation made by [`Memory::alloc`], returning its
    /// (rounded-up) length.
    ///
    /// # Errors
    ///
    /// [`GpuError::BadAddress`] if `addr` is not a live allocation base.
    pub fn free(&mut self, addr: u64) -> Result<u64> {
        let freed = self.allocs.remove(&addr).ok_or(GpuError::BadAddress { addr, len: 0 })?;
        let (mut addr, mut len) = (addr, freed);
        // Coalesce with free blocks adjacent on either side.
        while let Some(pos) = self.free.iter().position(|&(a, l)| a + l == addr || addr + len == a)
        {
            let (a, l) = self.free.swap_remove(pos);
            addr = addr.min(a);
            len += l;
        }
        if addr + len == self.bump {
            // The block reaches the frontier: return it to the bump region.
            self.bump = addr;
        } else {
            self.free.push((addr, len));
        }
        Ok(freed)
    }

    /// Reads bytes at a device address.
    ///
    /// # Errors
    ///
    /// [`GpuError::BadAddress`] for out-of-range accesses.
    pub fn read(&self, addr: u64, out: &mut [u8]) -> Result<()> {
        check(addr, out.len() as u64, self.len)?;
        // Word by word, straight into `out`: the first word from the byte
        // the range enters it at, the last as far as the range reaches.
        let (mut words, skip) =
            (self.words[addr as usize / 4..].iter().peekable(), addr as usize % 4);
        let (head, rest) = out.split_at_mut(out.len().min((4 - skip) % 4));
        if let Some(w) = words.next_if(|_| skip != 0) {
            head.copy_from_slice(&w.to_le_bytes()[skip..skip + head.len()]);
        }
        for (chunk, w) in rest.chunks_mut(4).zip(words) {
            chunk.copy_from_slice(&w.to_le_bytes()[..chunk.len()]);
        }
        Ok(())
    }

    /// Writes bytes at a device address.
    ///
    /// # Errors
    ///
    /// [`GpuError::BadAddress`] for out-of-range accesses.
    pub fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<()> {
        check(addr, bytes.len() as u64, self.len)?;
        // Whole words straight into the store; only a word the range enters
        // or leaves part way is merged with the bytes of it the range keeps.
        let (mut at, skip) = (addr as usize / 4, addr as usize % 4);
        let (head, rest) = bytes.split_at(bytes.len().min((4 - skip) % 4));
        if !head.is_empty() {
            merge(&mut self.words[at], skip, head);
            at += 1;
        }
        let mut chunks = rest.chunks_exact(4);
        for (w, chunk) in self.words[at..].iter_mut().zip(&mut chunks) {
            *w = u32::from_le_bytes(chunk.try_into().expect("4 bytes"));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            merge(&mut self.words[at + rest.len() / 4], 0, tail);
        }
        Ok(())
    }

    /// Reads a little-endian scalar of `len` (≤ 8) bytes.
    pub fn read_scalar(&self, addr: u64, len: usize) -> Result<u64> {
        let mut v = [0u8; 8];
        self.read(addr, &mut v[..len])?;
        Ok(u64::from_le_bytes(v))
    }

    /// Writes a little-endian scalar of `len` (≤ 8) bytes.
    pub fn write_scalar(&mut self, addr: u64, len: usize, v: u64) -> Result<()> {
        self.write(addr, &v.to_le_bytes()[..len])
    }

    /// A [`SharedMem`] view for the duration of a launch. The view aliases
    /// the backing store, so `&mut self` pins out every other access path
    /// while CTAs execute.
    pub(crate) fn shared_view(&mut self) -> SharedMem {
        SharedMem {
            words: self.words.as_mut_ptr(),
            len: self.len,
            atomic_lock: std::sync::Mutex::new(()),
        }
    }
}

/// A launch-scoped view of device memory that CTA worker threads share.
///
/// The store is reached through aligned relaxed `AtomicU32` loads, stores
/// and updates only (plain moves on x86 and ARM), so a guest kernel with a
/// cross-CTA data race produces unspecified *values* — as it would on real
/// hardware — but never undefined behaviour in the host process, and since
/// no other access size exists there is no mixed-size race either. A 4-byte
/// access that is not 4-aligned is composed from the two words that hold
/// it. Atomic read-modify-writes additionally serialize under
/// `atomic_lock`, making them linearizable across all CTA workers.
pub(crate) struct SharedMem {
    words: *mut u32,
    /// Capacity in bytes: the requested one, not the rounded-up words.
    len: u64,
    atomic_lock: std::sync::Mutex<()>,
}

// SAFETY: the view only exists inside `Device::launch`, which holds
// `&mut Memory` for its whole lifetime, so the pointer stays valid and no
// host-side access can alias it; moving the view to another thread moves
// a pointer, a length and a `Mutex<()>`.
unsafe impl Send for SharedMem {}
// SAFETY: sharing is the intended use. CTA workers reach the store only
// through `word` below — an `AtomicU32` per aligned word — so concurrent
// guest accesses are data-race-free at the host level; `len` is read-only
// and `atomic_lock` is `Sync` itself.
unsafe impl Sync for SharedMem {}

impl SharedMem {
    /// The aligned word holding bytes `4 * i..4 * i + 4`, as an atomic.
    fn word(&self, i: usize) -> &AtomicU32 {
        // SAFETY: callers bounds-check against `len`, and the store holds
        // `len.div_ceil(4)` words; it is a `Vec<u32>`, so every word is
        // 4-aligned, and `AtomicU32` has the size and alignment of `u32`.
        // Every access to the store during a launch goes through here.
        unsafe { &*self.words.add(i).cast::<AtomicU32>() }
    }

    /// The little-endian 32-bit value at `addr`: one load when `addr` is
    /// 4-aligned, else the two words that hold it and a shift.
    pub fn load(&self, addr: u64) -> Result<u32> {
        check(addr, 4, self.len)?;
        let (i, sh) = (addr as usize / 4, 8 * (addr % 4) as u32);
        let low = self.word(i).load(Relaxed);
        Ok(if sh == 0 { low } else { low >> sh | self.word(i + 1).load(Relaxed) << (32 - sh) })
    }

    /// Stores a little-endian 32-bit value at `addr`. A misaligned store is
    /// one atomic update per word it straddles, so the neighbouring bytes
    /// of those words keep whatever another worker stores to them meanwhile.
    pub fn store(&self, addr: u64, v: u32) -> Result<()> {
        check(addr, 4, self.len)?;
        let (i, sh) = (addr as usize / 4, 8 * (addr % 4) as u32);
        if sh == 0 {
            self.word(i).store(v, Relaxed);
        } else {
            let high = u32::MAX << sh;
            let merge = |word: &AtomicU32, keep: u32, bits: u32| {
                let _ = word.fetch_update(Relaxed, Relaxed, |w| Some(w & keep | bits));
            };
            merge(self.word(i), !high, v << sh);
            merge(self.word(i + 1), high, v >> (32 - sh));
        }
        Ok(())
    }

    /// Word `k` of the `n` aligned words at `addrs[lane]`, for every lane of
    /// `exec`, when each lane's address is 4-aligned and its `4 * n` bytes
    /// pass `check` like every other access. All lanes are validated, in one
    /// branch-free pass that builds the mask of bad lanes, before any word is
    /// touched, so a `None` has read and written nothing and the caller's
    /// per-lane path meets the first fault itself.
    pub fn row<'m>(
        &'m self,
        addrs: &'m [u64; 32],
        exec: u32,
        n: usize,
    ) -> Option<impl Fn(usize, usize) -> &'m AtomicU32> {
        // Good: a multiple of 4 in `4..=top + 4`. `a - 4` rotated right by two
        // puts a misaligned or null address past any bound: one compare.
        let top = self.len.checked_sub(4 * n as u64 + 4)?;
        let mut bad = 0u32;
        for (lane, &a) in addrs.iter().enumerate() {
            bad |= u32::from(a.wrapping_sub(4).rotate_right(2) > top >> 2) << lane;
        }
        (bad & exec == 0).then_some(move |lane: usize, k| {
            assert!(k < n && exec >> lane & 1 != 0, "a word the row validated");
            self.word(addrs[lane] as usize / 4 + k)
        })
    }

    /// Word `l % 32` of the 32 at `addr`, if 4-aligned and `check`ed as one.
    pub fn run<'m>(&'m self, addr: u64) -> Option<impl Fn(usize) -> &'m AtomicU32> {
        check(addr, 4 * 32, self.len).ok().filter(|_| addr.is_multiple_of(4))?;
        Some(move |l: usize| self.word(addr as usize / 4 + l % 32))
    }

    /// Takes the one lock all atomics of all CTA workers serialize on, which
    /// keeps them linearizable; one hold covers a warp instruction's lanes.
    pub fn atomics(&self) -> Atomics<'_> {
        Atomics { mem: self, _held: self.atomic_lock.lock().expect("no worker panics holding it") }
    }
}

/// A [`SharedMem`] with its atomics lock held.
pub(crate) struct Atomics<'m> {
    mem: &'m SharedMem,
    _held: std::sync::MutexGuard<'m, ()>,
}

impl Atomics<'_> {
    /// Applies `f` to the 32-bit (`wide`: 64-bit, as two words) scalar at
    /// `addr`, returning the old value. The
    /// *order* of atomics is still the CTA schedule's: only commutative
    /// operations whose old value is discarded yield schedule-independent
    /// memory (EXCH/CAS, and any atomic whose returned old value the kernel
    /// stores, observe CTA completion order — see [`crate::Scheduler`]).
    pub fn rmw(&self, addr: u64, wide: bool, f: impl FnOnce(u64) -> u64) -> Result<u64> {
        let high = addr.wrapping_add(4);
        let old = self.mem.load(addr)? as u64
            | if wide { (self.mem.load(high)? as u64) << 32 } else { 0 };
        let new = f(old);
        self.mem.store(addr, new as u32)?;
        if wide {
            self.mem.store(high, (new >> 32) as u32)?;
        }
        Ok(old)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_aligned_and_disjoint() {
        let mut m = Memory::new(1 << 20);
        let a = m.alloc(10).unwrap();
        let b = m.alloc(300).unwrap();
        assert_eq!(a % ALLOC_ALIGN, 0);
        assert_eq!(b % ALLOC_ALIGN, 0);
        assert!(b >= a + ALLOC_ALIGN);
        assert_ne!(a, 0, "null page must stay reserved");
    }

    #[test]
    fn freed_blocks_are_reused() {
        let mut m = Memory::new(1 << 20);
        let a = m.alloc(1000).unwrap();
        m.free(a).unwrap();
        let b = m.alloc(512).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn adjacent_free_blocks_coalesce() {
        let mut m = Memory::new(4 * ALLOC_ALIGN);
        // Fill the heap with three adjacent blocks (plus the null page).
        let a = m.alloc(ALLOC_ALIGN).unwrap();
        let b = m.alloc(ALLOC_ALIGN).unwrap();
        let c = m.alloc(ALLOC_ALIGN).unwrap();
        assert!(m.alloc(1).is_err(), "heap should be full");
        // Free out of order; the blocks must merge (and rejoin the bump
        // region) so one allocation spanning all three succeeds.
        m.free(a).unwrap();
        m.free(c).unwrap();
        m.free(b).unwrap();
        let big = m.alloc(3 * ALLOC_ALIGN).unwrap();
        assert_eq!(big, a);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = Memory::new(1 << 16);
        let a = m.alloc(64).unwrap();
        m.write(a, &[1, 2, 3, 4]).unwrap();
        let mut out = [0u8; 4];
        m.read(a, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3, 4]);
        m.write_scalar(a + 8, 8, 0xdead_beef_cafe).unwrap();
        assert_eq!(m.read_scalar(a + 8, 8).unwrap(), 0xdead_beef_cafe);
    }

    #[test]
    fn null_and_oob_accesses_fail() {
        let mut m = Memory::new(4096);
        assert!(m.read_scalar(0, 4).is_err());
        assert!(m.write(1 << 30, &[0]).is_err());
        assert!(matches!(m.alloc(1 << 30), Err(GpuError::OutOfMemory { .. })));
        assert!(m.free(12345).is_err());
    }

    /// Host bytes in, guest words out and back, at every alignment of
    /// address and length.
    #[test]
    fn host_bytes_and_guest_words_agree_at_every_alignment() {
        let mut m = Memory::new(4096);
        for (addr, len) in [(256, 16), (257, 16), (258, 3), (259, 9), (261, 1), (262, 0)] {
            m.write(256, &[0xee; 32]).unwrap();
            let bytes: Vec<u8> = (1..=len as u8).collect();
            m.write(addr, &bytes).unwrap();
            let mut all = [0u8; 32];
            m.read(256, &mut all).unwrap();
            let off = addr as usize - 256;
            assert_eq!(all[off..off + len], bytes[..], "({addr}, {len})");
            assert!(
                all[..off].iter().chain(&all[off + len..]).all(|b| *b == 0xee),
                "({addr}, {len})"
            );
            let mut back = vec![0u8; len];
            m.read(addr, &mut back).unwrap();
            assert_eq!(back, bytes, "({addr}, {len})");
            let view = m.shared_view();
            for k in 0..len.saturating_sub(3) {
                let want = u32::from_le_bytes(bytes[k..k + 4].try_into().unwrap());
                assert_eq!(view.load(addr + k as u64).unwrap(), want, "({addr}, {len}) + {k}");
            }
        }
    }

    /// Every write lands exactly as a byte-by-byte copy into a plain byte
    /// array would: seeded random offsets and lengths, unaligned at either
    /// end or both, one to three bytes inside one word, and spans that end
    /// at the last byte of memory, on capacities that are and are not a
    /// whole number of words.
    #[test]
    fn writes_match_a_byte_by_byte_reference() {
        let mut rng = common::Rng::seed_from_u64(0x6d65_6d5f_7772_6974);
        for cap in [1024u64, 1022, 1021] {
            let mut m = Memory::new(cap);
            let mut reference = vec![0u8; cap as usize];
            for case in 0..2000 {
                let addr = 1 + rng.index(cap as usize - 1);
                let room = cap as usize - addr;
                let len = match case % 4 {
                    0 => rng.index(4).min(room),
                    1 => room,
                    _ => rng.index(room + 1).min(64),
                };
                let bytes: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
                m.write(addr as u64, &bytes).unwrap();
                reference[addr..addr + len].copy_from_slice(&bytes);
                let mut all = vec![0u8; cap as usize - 1];
                m.read(1, &mut all).unwrap();
                assert_eq!(all, reference[1..], "cap {cap}, case {case}: {len} bytes at {addr}");
            }
            assert!(m.write(cap - 3, &[0; 4]).is_err(), "past the end is refused");
            assert_eq!(m.read_scalar(cap - 3, 3).unwrap(), {
                let r = &reference[cap as usize - 3..];
                u64::from(r[0]) | u64::from(r[1]) << 8 | u64::from(r[2]) << 16
            });
        }
    }

    /// A misaligned access composed from the last two words of memory is
    /// whole; one byte further it is refused, not read past the store —
    /// also when the capacity is not a whole number of words.
    #[test]
    fn misaligned_words_at_the_end_of_memory() {
        for cap in [4096u64, 4094, 4093] {
            let mut m = Memory::new(cap);
            assert_eq!(m.capacity(), cap);
            let last = cap - 4;
            let bytes: Vec<u8> = (1..=8).collect();
            m.write(cap - 8, &bytes).unwrap();
            let view = m.shared_view();
            for a in last - 3..=last {
                let k = (a - (cap - 8)) as usize;
                let want = u32::from_le_bytes(bytes[k..k + 4].try_into().unwrap());
                assert_eq!(view.load(a).unwrap(), want, "cap {cap}, load at {a}");
            }
            view.store(last, 0xa1b2_c3d4).unwrap();
            assert_eq!(view.load(last).unwrap(), 0xa1b2_c3d4, "cap {cap}");
            assert_eq!(view.load(last - 4).unwrap(), 0x0403_0201, "cap {cap}: neighbours kept");
            for a in [last + 1, last + 3, cap, u64::MAX - 2, 0] {
                let bad = GpuError::BadAddress { addr: a, len: 4 };
                assert_eq!(view.load(a), Err(bad.clone()), "cap {cap}");
                assert_eq!(view.store(a, 7), Err(bad), "cap {cap}");
            }
            assert_eq!(m.read_scalar(last, 4).unwrap(), 0xa1b2_c3d4, "cap {cap}");
            assert!(m.read_scalar(last + 1, 4).is_err(), "cap {cap}");
        }
    }

    /// A misaligned store rewrites exactly its own four bytes.
    #[test]
    fn a_misaligned_store_keeps_the_other_bytes_of_both_words() {
        for off in 1..4u64 {
            let mut m = Memory::new(4096);
            m.write(256, &[0xee; 12]).unwrap();
            m.shared_view().store(256 + off, 0x4433_2211).unwrap();
            let mut got = [0u8; 12];
            m.read(256, &mut got).unwrap();
            let mut want = [0xee; 12];
            want[off as usize..off as usize + 4].copy_from_slice(&[0x11, 0x22, 0x33, 0x44]);
            assert_eq!(got, want, "offset {off}");
        }
    }

    /// A 64-bit atomic is two word operations under the lock: it works at
    /// any alignment, and faults before storing anything if either word is
    /// out of range.
    #[test]
    fn wide_atomics_at_any_alignment() {
        let mut m = Memory::new(4096);
        for addr in [256u64, 260, 261, 263] {
            m.write_scalar(addr, 8, 0x7_ffff_ffff).unwrap();
            let old = m.shared_view().atomics().rmw(addr, true, |v| v + 1);
            assert_eq!(old, Ok(0x7_ffff_ffff), "at {addr}");
            assert_eq!(m.read_scalar(addr, 8).unwrap(), 0x8_0000_0000, "at {addr}: carried");
        }
        m.write_scalar(4088, 8, 5).unwrap();
        assert!(m.shared_view().atomics().rmw(4092, true, |v| v + 1).is_err());
        assert_eq!(m.read_scalar(4088, 8).unwrap(), 5, "a refused atomic stores nothing");
        assert_eq!(m.shared_view().atomics().rmw(4092, false, |v| v + 1), Ok(0));
    }

    /// `SharedMem::row` declines a row for a bad address in an active lane —
    /// null, misaligned, its `4 * n` bytes past the end, or an `a + 4 * n`
    /// that wraps — and never for one in an inactive lane; an accepted row's
    /// words are the lanes' own. At one, two and four words, on a memory
    /// that is a whole number of words and on one that is not.
    #[test]
    fn a_row_is_declined_by_its_active_lanes_only() {
        for cap in [4096u64, 4094] {
            let mut m = Memory::new(cap);
            for w in 0..1024u32 {
                m.write(4 * w as u64, &w.to_le_bytes()).unwrap_or(());
            }
            let view = m.shared_view();
            for n in [1usize, 2, 4] {
                let bytes = 4 * n as u64;
                let good: [u64; 32] = std::array::from_fn(|l| 256 + 4 * l as u64);
                let last = (cap - bytes) & !3;
                let mut edge = good;
                edge[31] = last;
                for addrs in [good, edge] {
                    let word = view.row(&addrs, u32::MAX, n).expect("every lane good");
                    for (lane, a) in addrs.iter().enumerate() {
                        for k in 0..n {
                            let want = view.load(a + 4 * k as u64).unwrap();
                            assert_eq!(word(lane, k).load(Relaxed), want, "cap {cap}, n {n}");
                        }
                    }
                }
                let bad = [0, 257, 258, 259, last + 4, cap, u64::MAX - 3, 0u64.wrapping_sub(bytes)];
                for a in bad {
                    for lane in [0, 7, 31] {
                        let mut addrs = good;
                        addrs[lane] = a;
                        let what = format!("cap {cap}, n {n}, lane {lane} at {a:#x}");
                        assert!(view.row(&addrs, u32::MAX, n).is_none(), "{what}: active");
                        assert!(view.row(&addrs, 1 << lane, n).is_none(), "{what}: alone");
                        let others = !(1u32 << lane);
                        assert!(view.row(&addrs, others, n).is_some(), "{what}: inactive");
                    }
                }
            }
        }
    }

    #[test]
    fn in_use_tracks_allocations() {
        let mut m = Memory::new(1 << 20);
        assert_eq!(m.in_use(), 0);
        let a = m.alloc(100).unwrap();
        assert_eq!(m.in_use(), ALLOC_ALIGN);
        m.free(a).unwrap();
        assert_eq!(m.in_use(), 0);
    }
}
