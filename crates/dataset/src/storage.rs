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
//!
//! # Appending in place
//!
//! A vector frozen by [`SharedSlice::from_vec`] keeps its spare capacity,
//! and [`Storage::appended`] grows a view into it: the serving engine
//! publishes each epoch's arrays as the live epoch's followed by the
//! batch, written past the end the live epoch reads. The frozen vector
//! is a `Buffer`: its allocation plus a *committed length*, and every
//! view of it is a prefix no longer than that length. Two rules keep
//! every view immutable:
//!
//! * slots below the committed length are never written again;
//! * slots past it are written only by the one appender whose
//!   compare-and-swap moved the committed length from the end of its own
//!   view; it builds the longer view once they are written.
//!
//! An append that cannot claim its slots copies instead: the storage is
//! owned or borrowed from another owner (an mmap), the allocation is out
//! of room, or the view does not end at the committed length (another
//! append, perhaps one whose result was dropped, claimed those slots).

use std::any::Any;
use std::fmt;
use std::mem::ManuallyDrop;
use std::ops::Deref;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A vector taken apart behind a reference count: its allocation and
/// the committed length (see the module docs).
struct Buffer<T> {
    ptr: *mut T,
    capacity: usize,
    /// Slots below it are initialized and never written again. It
    /// orders nothing: a claim needs only the compare-and-swap's
    /// atomicity, and a view reaches other threads through whatever
    /// shares it (an `Arc` behind a lock, a scoped join), which orders
    /// the writes of its slots before their reads.
    committed: AtomicUsize,
}

// SAFETY: a Buffer owns its elements as the `Vec<T>` it came from did:
// `ptr` and `capacity` are that vector's allocation, only ever read, and
// `committed` is atomic. Sending the buffer sends the elements
// (`T: Send`); sharing it lets views read the committed slots
// (`T: Sync`) and lets one claimant at a time move values into the slots
// past them from another thread (`T: Send`).
unsafe impl<T: Send + Sync> Send for Buffer<T> {}
// SAFETY: as for `Send` above; the claim protocol serializes writers.
unsafe impl<T: Send + Sync> Sync for Buffer<T> {}

impl<T> Buffer<T> {
    fn new(vec: Vec<T>) -> Self {
        let mut vec = ManuallyDrop::new(vec);
        Buffer {
            ptr: vec.as_mut_ptr(),
            capacity: vec.capacity(),
            committed: AtomicUsize::new(vec.len()),
        }
    }

    /// Claims the `extra` slots past `end` for the caller alone: true iff
    /// `end` is the committed length and the slots fit the allocation.
    fn claim(&self, end: usize, extra: usize) -> bool {
        end.checked_add(extra).is_some_and(|grown| grown <= self.capacity)
            && self
                .committed
                .compare_exchange(end, end + extra, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
    }
}

impl<T> Drop for Buffer<T> {
    fn drop(&mut self) {
        let len = *self.committed.get_mut();
        // SAFETY: `ptr` and `capacity` are the allocation of the vector
        // `new` took apart, `len <= capacity` (`claim` checks it), and the
        // first `len` slots are initialized: the vector's own elements,
        // then slots an append claimed, which it wrote (a copy that cannot
        // panic) while holding a reference to this buffer.
        drop(unsafe { Vec::from_raw_parts(self.ptr, len, self.capacity) });
    }
}

/// A `&[T]` whose lifetime is carried by a reference-counted owner
/// instead of a borrow — the building block that lets long-lived
/// structures hold views into an mmap without lifetime parameters.
pub struct SharedSlice<T: 'static> {
    ptr: *const T,
    len: usize,
    /// Keeps the backing memory (an `Mmap`, a `Buffer`, …) alive.
    owner: Arc<dyn Any + Send + Sync>,
}

impl<T> SharedSlice<T> {
    /// Wraps raw parts borrowing from `owner`. Such a view never grows in
    /// place: [`Storage::appended`] copies it.
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
        SharedSlice { ptr, len, owner }
    }

    /// The borrowed elements.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: upheld by the `from_raw_parts` contract. A view of a
        // `Buffer` covers only committed slots, which are initialized and
        // never written again, so the contract holds for it too.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl<T: Send + Sync> SharedSlice<T> {
    /// Moves `vec` behind a reference count and views all of it: clones
    /// of the result are O(1) and read the same elements. The vector's
    /// spare capacity stays, for [`Storage::appended`] to grow into.
    pub fn from_vec(vec: Vec<T>) -> Self {
        let len = vec.len();
        let buffer = Buffer::new(vec);
        let ptr = buffer.ptr.cast_const();
        // SAFETY: the first `len` slots are the vector's elements, below
        // the buffer's committed length, so never written again; the
        // buffer frees them only when the last clone of the owner drops.
        unsafe { SharedSlice::from_raw_parts(ptr, len, Arc::new(buffer)) }
    }
}

impl<T: Copy + Send + Sync> SharedSlice<T> {
    /// This view followed by `tail`, written into the slots just past the
    /// view when it can claim them (see the module docs); `None` when it
    /// cannot.
    fn appended_in_place(&self, tail: &[T]) -> Option<SharedSlice<T>> {
        let buffer = (*self.owner).downcast_ref::<Buffer<T>>()?;
        if !std::ptr::eq(buffer.ptr.cast_const(), self.ptr) || !buffer.claim(self.len, tail.len()) {
            return None;
        }
        // SAFETY: the claim gave this call alone the slots `len..len +
        // tail.len()`, inside the allocation. No view reaches them (every
        // view ends at or below the committed length the claim moved), so
        // nothing reads them and `tail` does not overlap them. `T: Copy`:
        // the copy cannot panic, and the slots held no value to drop.
        unsafe {
            std::ptr::copy_nonoverlapping(tail.as_ptr(), buffer.ptr.add(self.len), tail.len());
        }
        // The longer view exists only now that its new slots are written.
        Some(SharedSlice {
            ptr: self.ptr,
            len: self.len + tail.len(),
            owner: Arc::clone(&self.owner),
        })
    }
}

// SAFETY: a SharedSlice is an immutable view plus an Arc; it is exactly
// as thread-safe as `&[T]` + `Arc<_>`, i.e. Send + Sync when `T: Sync`
// (`T: Send` required for the owned data it may keep alive).
unsafe impl<T: Send + Sync> Send for SharedSlice<T> {}
// SAFETY: as for `Send` above.
unsafe impl<T: Send + Sync> Sync for SharedSlice<T> {}

impl<T> Clone for SharedSlice<T> {
    fn clone(&self) -> Self {
        SharedSlice { ptr: self.ptr, len: self.len, owner: Arc::clone(&self.owner) }
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

    /// [`Storage::into_shared`], first giving owned storage room for at
    /// least `additional` more elements, so [`Storage::appended`] extends
    /// it in place. Short of room, the vector grows as `Vec::reserve`
    /// grows it: to at least twice its capacity. Only for arrays that will
    /// be appended to: growing may move the vector, a copy that a path
    /// which never appends should not pay.
    pub fn into_growable(self, additional: usize) -> Storage<T> {
        match self {
            Storage::Owned(mut v) => {
                v.reserve(additional);
                Storage::Shared(SharedSlice::from_vec(v))
            }
            shared => shared,
        }
    }
}

impl<T: Copy + Send + Sync> Storage<T> {
    /// These elements followed by `tail`, as shared storage; `self` reads
    /// the same elements as before either way.
    ///
    /// When `self` views a frozen vector up to its committed length and
    /// the allocation has room, `tail` is written into the slots just past
    /// the view and the result views the **same** allocation: O(`tail`)
    /// (see the module docs). Otherwise the elements are copied once into
    /// a new vector with room for as many again, so the appends after it
    /// go in place; a run of appends costs amortized O(`tail`) each.
    pub fn appended(&self, tail: &[T]) -> Storage<T> {
        if let Storage::Shared(view) = self {
            if tail.is_empty() {
                return self.clone();
            }
            if let Some(grown) = view.appended_in_place(tail) {
                return Storage::Shared(grown);
            }
        }
        let mut grown = Vec::with_capacity(2 * (self.len() + tail.len()));
        grown.extend_from_slice(self);
        grown.extend_from_slice(tail);
        Storage::Shared(SharedSlice::from_vec(grown))
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

    /// `[1, 2, 3]` frozen with room for five more.
    fn roomy() -> Storage<u32> {
        let mut v = Vec::with_capacity(8);
        v.extend([1, 2, 3]);
        shared_from_vec(v).into()
    }

    fn in_place(grown: &Storage<u32>, base: &Storage<u32>) -> bool {
        grown.as_ptr() == base.as_ptr()
    }

    #[test]
    fn from_vec_keeps_spare_capacity_and_appends_grow_into_it() {
        let base = roomy();
        let grown = base.appended(&[4, 5]);
        assert_eq!(&grown[..], &[1, 2, 3, 4, 5]);
        assert!(in_place(&grown, &base), "the batch lands past the view");
        assert_eq!(&base[..], &[1, 2, 3], "the base view does not grow");
        let again = grown.appended(&[6, 7, 8]);
        assert_eq!(&again[..], &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert!(in_place(&again, &base), "a chain of appends stays in place");
        assert!(base.appended(&[]).is_shared() && in_place(&base.appended(&[]), &base));
    }

    #[test]
    fn two_appends_from_one_view_copy_the_second() {
        let base = roomy();
        let first = base.appended(&[4]);
        let second = base.appended(&[9, 9]);
        assert!(in_place(&first, &base));
        assert!(!in_place(&second, &base), "the slots past the base are taken");
        assert_eq!(&first[..], &[1, 2, 3, 4], "the second append wrote nothing the first reads");
        assert_eq!(&second[..], &[1, 2, 3, 9, 9]);
        assert_eq!(&base[..], &[1, 2, 3]);
    }

    #[test]
    fn an_append_from_a_view_short_of_the_committed_end_copies() {
        let base = roomy();
        let middle = base.appended(&[4]);
        let end = middle.appended(&[5]);
        assert!(in_place(&end, &base));
        let from_base = base.appended(&[7, 7]);
        let from_middle = middle.appended(&[8]);
        assert!(!in_place(&from_base, &base) && !in_place(&from_middle, &base));
        assert_eq!(&from_base[..], &[1, 2, 3, 7, 7]);
        assert_eq!(&from_middle[..], &[1, 2, 3, 4, 8]);
        assert_eq!(&middle[..], &[1, 2, 3, 4]);
        assert_eq!(&end[..], &[1, 2, 3, 4, 5], "no copy wrote into a live view");
    }

    #[test]
    fn an_aborted_append_keeps_its_slots_and_the_retry_copies_once() {
        let base = roomy();
        drop(base.appended(&[4, 5]));
        let retry = base.appended(&[6]);
        assert!(!in_place(&retry, &base), "dropped views do not hand back their slots");
        assert_eq!(&retry[..], &[1, 2, 3, 6]);
        assert_eq!(&base[..], &[1, 2, 3]);
        let next = retry.appended(&[7]);
        assert!(in_place(&next, &retry), "the copy has room for the appends after it");
        assert_eq!(&next[..], &[1, 2, 3, 6, 7]);
    }

    #[test]
    fn out_of_room_copies_with_room_to_spare() {
        let base: Storage<u32> = shared_from_vec(vec![1, 2]).into();
        let grown = base.appended(&[3, 4, 5]);
        assert!(!in_place(&grown, &base));
        assert_eq!(&grown[..], &[1, 2, 3, 4, 5]);
        assert!(in_place(&grown.appended(&[6, 7, 8, 9, 10]), &grown), "doubled on the copy");
    }

    #[test]
    fn borrowed_storage_copies_on_append_and_its_owner_is_never_written() {
        let owner: Arc<Vec<u32>> = Arc::new(vec![1, 2, 3, 40, 50]);
        // SAFETY: the first three elements of a vector no one mutates,
        // kept alive by the view's clone of the Arc.
        let prefix = unsafe { SharedSlice::from_raw_parts(owner.as_ptr(), 3, owner.clone()) };
        let base = Storage::Shared(prefix);
        let grown = base.appended(&[4]);
        assert!(!in_place(&grown, &base), "a foreign owner's memory is not the view's to grow");
        assert_eq!(&grown[..], &[1, 2, 3, 4]);
        assert_eq!(&owner[..], &[1, 2, 3, 40, 50], "the slots past the view keep their values");
        assert!(in_place(&grown.appended(&[5]), &grown), "the copy appends in place");
    }

    #[test]
    fn owned_storage_copies_on_append() {
        let base: Storage<u32> = Vec::with_capacity(8).into();
        let grown = base.appended(&[1]);
        assert!(grown.is_shared() && !base.is_shared());
        assert_eq!(&grown[..], &[1]);
        assert!(base.appended(&[]).is_shared(), "even an empty batch yields shared storage");
    }

    #[test]
    fn into_growable_makes_room_and_only_freezes_shared() {
        let base = Storage::Owned(vec![1u32, 2, 3]).into_growable(3);
        assert!(base.is_shared());
        let grown = base.appended(&[4, 5, 6]);
        assert!(in_place(&grown, &base));
        assert_eq!(&grown[..], &[1, 2, 3, 4, 5, 6]);
        let frozen: Storage<u32> = shared_from_vec(vec![1]).into();
        assert!(in_place(&frozen.clone().into_growable(8), &frozen), "shared is kept as is");
    }

    #[test]
    fn racing_appends_from_one_view_claim_its_tail_once() {
        for round in 0..200u32 {
            let base = roomy();
            let grown: Vec<Storage<u32>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..4u32)
                    .map(|t| {
                        let base = &base;
                        scope.spawn(move || base.appended(&[round, t, t]))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let winners = grown.iter().filter(|g| in_place(g, &base)).count();
            assert_eq!(winners, 1, "round {round}: exactly one append claims the slots");
            for (t, g) in grown.iter().enumerate() {
                assert_eq!(&g[..], &[1, 2, 3, round, t as u32, t as u32], "round {round}");
            }
            assert_eq!(&base[..], &[1, 2, 3]);
        }
    }
}
