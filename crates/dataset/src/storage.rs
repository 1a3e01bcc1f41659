//! Owned-or-borrowed backing storage for CSR arrays.
//!
//! The zero-copy snapshot path (`cnc-serve`) maps a file and wants the
//! [`crate::Dataset`] / graph / fingerprint arrays to *borrow* the mapped
//! bytes instead of copying them. [`Storage`] is the seam: an array that
//! is either an owned `Vec<T>` (every existing construction path) or a
//! [`SharedSlice`] borrowing from a reference-counted owner (an mmap, a
//! loaded byte buffer). Readers see `&[T]` either way via `Deref`; the
//! rare mutating paths go through [`Storage::to_mut`], which promotes a
//! shared slice to an owned copy first (copy-on-write).

use std::any::Any;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A `&[T]` whose lifetime is carried by a reference-counted owner
/// instead of a borrow — the building block that lets long-lived
/// structures hold views into an mmap without lifetime parameters.
pub struct SharedSlice<T: 'static> {
    ptr: *const T,
    len: usize,
    /// Keeps the backing memory (an `Mmap`, a `Vec<u8>`, …) alive.
    _owner: Arc<dyn Any + Send + Sync>,
}

impl<T> SharedSlice<T> {
    /// Wraps raw parts borrowing from `owner`.
    ///
    /// # Safety
    /// `ptr..ptr + len` must be a properly aligned, initialized run of
    /// `T` that stays valid and **unmutated** for as long as `owner` is
    /// alive (the slice holds a clone of `owner`, so: forever, from the
    /// caller's perspective).
    pub unsafe fn from_raw_parts(
        ptr: *const T,
        len: usize,
        owner: Arc<dyn Any + Send + Sync>,
    ) -> Self {
        SharedSlice { ptr, len, _owner: owner }
    }

    /// The borrowed elements.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: upheld by the `from_raw_parts` contract.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl<T: Send + Sync> SharedSlice<T> {
    /// Moves `vec` behind a reference count and views all of it: clones
    /// of the result are O(1) and read the same elements.
    pub fn from_vec(vec: Vec<T>) -> Self {
        let owner = Arc::new(vec);
        let (ptr, len) = (owner.as_ptr(), owner.len());
        // SAFETY: the vector's buffer is initialized, aligned, and never
        // mutated again (nothing else can reach it), and it lives until the
        // last clone of `owner` drops.
        unsafe { SharedSlice::from_raw_parts(ptr, len, owner) }
    }
}

// SAFETY: a SharedSlice is an immutable view plus an Arc; it is exactly
// as thread-safe as `&[T]` + `Arc<_>`, i.e. Send + Sync when `T: Sync`
// (`T: Send` required for the owned data it may keep alive).
unsafe impl<T: Send + Sync> Send for SharedSlice<T> {}
unsafe impl<T: Send + Sync> Sync for SharedSlice<T> {}

impl<T> Clone for SharedSlice<T> {
    fn clone(&self) -> Self {
        SharedSlice { ptr: self.ptr, len: self.len, _owner: Arc::clone(&self._owner) }
    }
}

impl<T> Deref for SharedSlice<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: fmt::Debug> fmt::Debug for SharedSlice<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedSlice").field("len", &self.len).finish()
    }
}

/// An array that is either owned or borrowed from a shared owner (see
/// the module docs). Equality, hashing-free ordering and `Debug` all go
/// through the element slice, so swapping a `Vec<T>` field for
/// `Storage<T>` preserves the containing type's derived semantics.
pub enum Storage<T: 'static> {
    /// The array owns its elements (every pre-existing path).
    Owned(Vec<T>),
    /// The array borrows from a reference-counted owner (mmap adoption).
    Shared(SharedSlice<T>),
}

impl<T> Storage<T> {
    /// The elements, whatever the backing.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match self {
            Storage::Owned(v) => v,
            Storage::Shared(s) => s.as_slice(),
        }
    }

    /// True when the array is reference-counted — a view into a mapped
    /// file, or a buffer frozen by [`Storage::into_shared`] — so a clone is
    /// O(1) and reads the same elements. It does not say *mapped*: an
    /// array the snapshot copy path decoded is owned (false) until
    /// something freezes it, and whether an adopted snapshot borrows its
    /// file is `cnc-serve`'s `AdoptedSnapshot::mapped`.
    #[inline]
    pub fn is_shared(&self) -> bool {
        matches!(self, Storage::Shared(_))
    }
}

impl<T: Send + Sync> Storage<T> {
    /// Freezes owned storage behind a reference count by moving the
    /// vector (no element is copied); shared storage is returned as is.
    /// Every clone of the result is O(1).
    pub fn into_shared(self) -> Storage<T> {
        match self {
            Storage::Owned(v) => Storage::Shared(SharedSlice::from_vec(v)),
            shared => shared,
        }
    }
}

impl<T: Clone> Storage<T> {
    /// Mutable access, promoting shared storage to an owned copy first
    /// (copy-on-write). Cheap no-op for owned storage.
    pub fn to_mut(&mut self) -> &mut Vec<T> {
        if let Storage::Shared(s) = self {
            *self = Storage::Owned(s.as_slice().to_vec());
        }
        match self {
            Storage::Owned(v) => v,
            Storage::Shared(_) => unreachable!("promoted above"),
        }
    }

    /// Extracts an owned vector (clones only if shared).
    pub fn into_vec(self) -> Vec<T> {
        match self {
            Storage::Owned(v) => v,
            Storage::Shared(s) => s.as_slice().to_vec(),
        }
    }
}

impl<T> From<Vec<T>> for Storage<T> {
    fn from(v: Vec<T>) -> Self {
        Storage::Owned(v)
    }
}

impl<T> From<SharedSlice<T>> for Storage<T> {
    fn from(s: SharedSlice<T>) -> Self {
        Storage::Shared(s)
    }
}

impl<T> Deref for Storage<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Clone> Clone for Storage<T> {
    fn clone(&self) -> Self {
        match self {
            Storage::Owned(v) => Storage::Owned(v.clone()),
            // Cloning a shared view stays shared — an epoch clone must
            // not silently duplicate a mapped gigabyte.
            Storage::Shared(s) => Storage::Shared(s.clone()),
        }
    }
}

impl<T: PartialEq> PartialEq for Storage<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Eq> Eq for Storage<T> {}

impl<T: fmt::Debug> fmt::Debug for Storage<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl<T> Default for Storage<T> {
    fn default() -> Self {
        Storage::Owned(Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared_from_vec(v: Vec<u32>) -> SharedSlice<u32> {
        SharedSlice::from_vec(v)
    }

    #[test]
    fn owned_and_shared_deref_identically() {
        let owned: Storage<u32> = vec![1, 2, 3].into();
        let shared: Storage<u32> = shared_from_vec(vec![1, 2, 3]).into();
        assert_eq!(&owned[..], &[1, 2, 3]);
        assert_eq!(&shared[..], &[1, 2, 3]);
        assert_eq!(owned, shared);
        assert!(!owned.is_shared());
        assert!(shared.is_shared());
    }

    #[test]
    fn to_mut_promotes_shared_to_owned() {
        let mut storage: Storage<u32> = shared_from_vec(vec![5, 6]).into();
        storage.to_mut().push(7);
        assert!(!storage.is_shared());
        assert_eq!(&storage[..], &[5, 6, 7]);
    }

    #[test]
    fn clone_preserves_backing_kind() {
        let shared: Storage<u32> = shared_from_vec(vec![9]).into();
        assert!(shared.clone().is_shared());
        let owned: Storage<u32> = vec![9u32].into();
        assert!(!owned.clone().is_shared());
        assert_eq!(shared, owned);
    }

    #[test]
    fn shared_slice_outlives_its_creation_scope() {
        let storage: Storage<u32> = {
            let slice = shared_from_vec((0..100).collect());
            slice.into()
        };
        assert_eq!(storage.len(), 100);
        assert_eq!(storage[99], 99);
    }

    #[test]
    fn debug_formats_like_a_slice() {
        let storage: Storage<u32> = vec![1, 2].into();
        assert_eq!(format!("{storage:?}"), "[1, 2]");
    }
}
