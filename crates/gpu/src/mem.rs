//! Flat device memory with a first-fit allocator.

use crate::{GpuError, Result};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};

/// Allocation alignment (also the cache-line size, so allocations never
/// share a line).
pub const ALLOC_ALIGN: u64 = 256;

/// Device global memory: a flat byte array plus an allocator.
///
/// Address 0 is reserved (never handed out) so that null-pointer bugs in
/// kernels fault instead of silently reading the first allocation.
#[derive(Debug)]
pub struct Memory {
    data: Vec<u8>,
    /// Start address → length of live allocations.
    allocs: BTreeMap<u64, u64>,
    /// Bump pointer; freed blocks are merged with adjacent free blocks
    /// (and released back into the bump region when they touch it), then
    /// reused first-fit.
    bump: u64,
    free: Vec<(u64, u64)>,
}

impl Memory {
    /// Creates a memory of `capacity` bytes.
    pub fn new(capacity: u64) -> Memory {
        Memory {
            data: vec![0u8; capacity as usize],
            allocs: BTreeMap::new(),
            bump: ALLOC_ALIGN, // reserve the null page
            free: Vec::new(),
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.data.len() as u64
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
        let size = len.max(1).div_ceil(ALLOC_ALIGN) * ALLOC_ALIGN;
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

    fn check(&self, addr: u64, len: u64) -> Result<()> {
        let end = addr.checked_add(len).ok_or(GpuError::BadAddress { addr, len })?;
        if addr == 0 || end > self.capacity() {
            return Err(GpuError::BadAddress { addr, len });
        }
        Ok(())
    }

    /// Reads bytes at a device address.
    ///
    /// # Errors
    ///
    /// [`GpuError::BadAddress`] for out-of-range accesses.
    pub fn read(&self, addr: u64, out: &mut [u8]) -> Result<()> {
        self.check(addr, out.len() as u64)?;
        out.copy_from_slice(&self.data[addr as usize..addr as usize + out.len()]);
        Ok(())
    }

    /// Writes bytes at a device address.
    ///
    /// # Errors
    ///
    /// [`GpuError::BadAddress`] for out-of-range accesses.
    pub fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<()> {
        self.check(addr, bytes.len() as u64)?;
        self.data[addr as usize..addr as usize + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    /// Reads a little-endian scalar of `len` (≤ 8) bytes.
    pub fn read_scalar(&self, addr: u64, len: usize) -> Result<u64> {
        self.check(addr, len as u64)?;
        let mut v = 0u64;
        for k in 0..len {
            v |= (self.data[addr as usize + k] as u64) << (8 * k);
        }
        Ok(v)
    }

    /// Writes a little-endian scalar of `len` (≤ 8) bytes.
    pub fn write_scalar(&mut self, addr: u64, len: usize, v: u64) -> Result<()> {
        self.check(addr, len as u64)?;
        for k in 0..len {
            self.data[addr as usize + k] = (v >> (8 * k)) as u8;
        }
        Ok(())
    }

    /// A [`SharedMem`] view for the duration of a launch. The view aliases
    /// the backing store, so `&mut self` pins out every other access path
    /// while CTAs execute.
    pub(crate) fn shared_view(&mut self) -> SharedMem {
        SharedMem {
            data: self.data.as_mut_ptr(),
            len: self.data.len() as u64,
            atomic_lock: std::sync::Mutex::new(()),
        }
    }
}

/// A launch-scoped view of device memory that CTA worker threads share.
///
/// Every byte access goes through per-byte `AtomicU8` relaxed loads and
/// stores (which compile to plain moves on x86 and ARM), so a guest kernel
/// with a cross-CTA data race produces unspecified *values* — as it would
/// on real hardware — but never undefined behaviour in the host process.
/// Atomic read-modify-writes additionally serialize under `atomic_lock`,
/// making them linearizable across all CTA workers.
pub(crate) struct SharedMem {
    data: *mut u8,
    len: u64,
    atomic_lock: std::sync::Mutex<()>,
}

// SAFETY: the view only exists inside `Device::launch`, which holds
// `&mut Memory` for its whole lifetime, so no host-side access can alias
// it. Cross-thread access from CTA workers is the intended use; all of it
// goes through the `AtomicU8` accessor below, so concurrent guest accesses
// are data-race-free at the host level.
unsafe impl Send for SharedMem {}
unsafe impl Sync for SharedMem {}

impl SharedMem {
    fn check(&self, addr: u64, len: u64) -> Result<()> {
        let end = addr.checked_add(len).ok_or(GpuError::BadAddress { addr, len })?;
        if addr == 0 || end > self.len {
            return Err(GpuError::BadAddress { addr, len });
        }
        Ok(())
    }

    /// The byte at offset `i`, viewed as an atomic.
    fn byte(&self, i: usize) -> &AtomicU8 {
        // SAFETY: callers bounds-check `i`; `AtomicU8` has the same size
        // and alignment as `u8`, and every cross-thread access to the
        // backing store goes through this accessor.
        unsafe { &*self.data.add(i).cast::<AtomicU8>() }
    }

    /// Copies bytes at a device address into `out`.
    pub fn read_into(&self, addr: u64, out: &mut [u8]) -> Result<()> {
        self.check(addr, out.len() as u64)?;
        for (k, b) in out.iter_mut().enumerate() {
            *b = self.byte(addr as usize + k).load(Ordering::Relaxed);
        }
        Ok(())
    }

    /// Reads a little-endian scalar of `len` (≤ 8) bytes.
    pub fn read_scalar(&self, addr: u64, len: usize) -> Result<u64> {
        self.check(addr, len as u64)?;
        let mut v = 0u64;
        for k in 0..len {
            v |= (self.byte(addr as usize + k).load(Ordering::Relaxed) as u64) << (8 * k);
        }
        Ok(v)
    }

    /// Writes a little-endian scalar of `len` (≤ 8) bytes.
    pub fn write_scalar(&self, addr: u64, len: usize, v: u64) -> Result<()> {
        self.check(addr, len as u64)?;
        for k in 0..len {
            self.byte(addr as usize + k).store((v >> (8 * k)) as u8, Ordering::Relaxed);
        }
        Ok(())
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
    /// Applies `f` to the scalar at `addr`, returning the old value. The
    /// *order* of atomics is still the CTA schedule's: only commutative
    /// operations whose old value is discarded yield schedule-independent
    /// memory (EXCH/CAS, and any atomic whose returned old value the kernel
    /// stores, observe CTA completion order — see [`crate::Scheduler`]).
    pub fn rmw(&self, addr: u64, len: usize, f: impl FnOnce(u64) -> u64) -> Result<u64> {
        let old = self.mem.read_scalar(addr, len)?;
        self.mem.write_scalar(addr, len, f(old))?;
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
