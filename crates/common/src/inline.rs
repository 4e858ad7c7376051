//! A fixed-capacity list stored inline: the value type behind
//! `sass::Instruction`'s operands and the per-instruction register lists.
//!
//! `InlineVec<T, N>` holds up to `N` items in an array next to its length,
//! so it is `Copy` when `T` is, never touches the heap, and derefs to
//! `[T]` — callers index, iterate, compare and pattern-match it as the
//! slice it is. A list only grows, so its unused slots always hold
//! `T::default()` and the derived equality and hash agree with the slice's.

use std::ops::{Deref, DerefMut};

/// Up to `N` items of `T`, inline. `N` must fit a `u8`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InlineVec<T, const N: usize> {
    len: u8,
    items: [T; N],
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    #[inline]
    fn default() -> Self {
        const { assert!(N <= u8::MAX as usize) };
        InlineVec { len: 0, items: [T::default(); N] }
    }
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// Appends `item`, or hands it back when the list is full.
    #[inline]
    pub fn try_push(&mut self, item: T) -> Result<(), T> {
        match self.items.get_mut(self.len as usize) {
            Some(slot) => {
                *slot = item;
                self.len += 1;
                Ok(())
            }
            None => Err(item),
        }
    }

    /// Appends `item`.
    ///
    /// # Panics
    ///
    /// When the list is full: for callers whose bound on the item count is
    /// an invariant of the program, not a property of its input.
    #[inline]
    pub fn push(&mut self, item: T) {
        assert!(self.try_push(item).is_ok(), "InlineVec of {N} items is full");
    }

    /// Keeps the items `keep` holds for, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        let mut kept = Self::default();
        self.iter().filter(|i| keep(i)).for_each(|i| kept.push(*i));
        *self = kept;
    }

    /// The list holding `items`, or `None` when there are more than `N`.
    pub fn try_from_slice(items: &[T]) -> Option<Self> {
        let mut out = Self::default();
        items.iter().all(|i| out.try_push(*i).is_ok()).then_some(out)
    }
}

/// From an array no longer than the capacity — checked when the call is
/// compiled, so a literal list that is too long does not build.
impl<T: Copy + Default, const N: usize, const M: usize> From<[T; M]> for InlineVec<T, N> {
    #[inline]
    fn from(items: [T; M]) -> Self {
        const { assert!(M <= N, "more items than the InlineVec holds") };
        let mut out = Self::default();
        out.items[..M].copy_from_slice(&items);
        out.len = M as u8;
        out
    }
}

impl<T, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        &self.items[..self.len as usize]
    }
}

impl<T, const N: usize> DerefMut for InlineVec<T, N> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.items[..self.len as usize]
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pushes_up_to_capacity_and_hands_the_rest_back() {
        let mut v: InlineVec<u32, 2> = InlineVec::default();
        assert!(v.is_empty());
        assert_eq!(v.try_push(7), Ok(()));
        assert_eq!(v.try_push(8), Ok(()));
        assert_eq!(v.try_push(9), Err(9), "full: the item comes back, nothing is dropped");
        assert_eq!(*v, [7, 8]);
        assert_eq!(v.iter().sum::<u32>(), 15);
        v.retain(|i| *i != 7);
        assert_eq!(*v, [8]);
        assert_eq!(v.try_push(9), Ok(()), "the slot it freed takes an item again");
    }

    #[test]
    fn slices_longer_than_the_capacity_are_refused() {
        assert_eq!(InlineVec::<u8, 3>::try_from_slice(&[1, 2, 3]).as_deref(), Some(&[1, 2, 3][..]));
        assert!(InlineVec::<u8, 3>::try_from_slice(&[1, 2, 3, 4]).is_none());
    }
}
