//! Reference-counted backing storage for CSR arrays.
//!
//! Every array of a [`crate::Dataset`], a graph, a fingerprint set and an
//! entry index is a [`Storage`]: a view into a reference-counted owner,
//! so a clone is O(1) and reads the same elements, and a build hands its
//! arrays to the serving epoch, the cluster cache and every snapshot
//! without copying them. The owner is either a frozen vector — what
//! `From<Vec<T>>` makes of a vector, by moving it — or memory someone else
//! keeps alive: the mapped snapshot file `cnc-serve` borrows its arrays
//! from ([`Storage::from_raw_parts`], [`Storage::is_mapped`]). Readers
//! see `&[T]` via `Deref`. No view is ever written: a longer array is a
//! new view ([`Storage::appended`]).
//!
//! # Appending in place
//!
//! A frozen vector keeps its spare capacity, and [`Storage::appended`]
//! grows a view into it: the serving engine publishes each epoch's
//! arrays as the live epoch's followed by the batch, written past the
//! end the live epoch reads. The frozen vector is a `Buffer`: its
//! allocation plus a *committed length*, and every view of it is a
//! prefix no longer than that length. Two rules keep every view
//! immutable:
//!
//! * slots below the committed length are never written again;
//! * slots past it are written only by the one appender whose
//!   compare-and-swap moved the committed length from the end of its own
//!   view; it builds the longer view once they are written.
//!
//! An append that cannot claim its slots copies instead: the storage is
//! borrowed from another owner (an mmap), the allocation is out of room,
//! or the view does not end at the committed length (another append,
//! perhaps one whose result was dropped, claimed those slots).
//!
//! # Taking the vector back
//!
//! [`Storage::into_growable`] makes room for appends ahead of time. A
//! view that is the only holder of its frozen vector takes the vector
//! back, reserves and freezes it again: the elements move only if the
//! allocation has to grow, as `Vec::reserve` moves them. Any other view
//! is copied first.

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

    /// The vector `new` took apart, holding every committed slot.
    fn into_vec(self) -> Vec<T> {
        let mut buffer = ManuallyDrop::new(self);
        let len = *buffer.committed.get_mut();
        // SAFETY: the contract `Drop` relies on: `ptr` and `capacity` are
        // the allocation of the vector `new` took apart, and its first
        // `len <= capacity` slots are initialized. `ManuallyDrop` keeps
        // `Drop` from freeing the allocation the vector now owns.
        unsafe { Vec::from_raw_parts(buffer.ptr, len, buffer.capacity) }
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

/// An array viewed in a reference-counted owner (see the module docs):
/// a `&[T]` whose lifetime is carried by the owner instead of a borrow,
/// so long-lived structures hold views into an mmap without lifetime
/// parameters. Equality and `Debug` go through the element slice, so a
/// `Storage<T>` field keeps the containing type's derived semantics.
pub struct Storage<T: 'static> {
    ptr: *const T,
    len: usize,
    /// Keeps the backing memory (a `Buffer`, an `Mmap`, …) alive.
    owner: Arc<dyn Any + Send + Sync>,
}

impl<T> Storage<T> {
    /// Wraps raw parts borrowing from `owner`. Such a view never grows in
    /// place ([`Storage::appended`] copies it) and reports
    /// [`Storage::is_mapped`].
    ///
    /// # Safety
    /// `ptr..ptr + len` must be a properly aligned, initialized run of
    /// `T` that stays valid and **unmutated** for as long as `owner` is
    /// alive (the view holds a clone of `owner`, so: forever, from the
    /// caller's perspective).
    pub unsafe fn from_raw_parts(
        ptr: *const T,
        len: usize,
        owner: Arc<dyn Any + Send + Sync>,
    ) -> Self {
        Storage { ptr, len, owner }
    }

    /// The elements.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: upheld by the `from_raw_parts` contract. A view of a
        // `Buffer` covers only committed slots, which are initialized and
        // never written again, so the contract holds for it too.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// True when the elements borrow memory another owner keeps alive —
    /// a mapped snapshot file, the one such owner the library makes
    /// ([`Storage::from_raw_parts`]) — rather than a frozen vector.
    pub fn is_mapped(&self) -> bool {
        !(*self.owner).is::<Buffer<T>>()
    }
}

impl<T: Send + Sync> From<Vec<T>> for Storage<T> {
    /// Moves `vec` behind a reference count and views all of it; no
    /// element is copied. The vector's spare capacity stays, for
    /// [`Storage::appended`] to grow into.
    fn from(vec: Vec<T>) -> Self {
        let len = vec.len();
        let buffer = Buffer::new(vec);
        let ptr = buffer.ptr.cast_const();
        // SAFETY: the first `len` slots are the vector's elements, below
        // the buffer's committed length, so never written again; the
        // buffer frees them only when the last clone of the owner drops.
        unsafe { Storage::from_raw_parts(ptr, len, Arc::new(buffer)) }
    }
}

impl<T: Copy + Send + Sync> Storage<T> {
    /// These elements followed by `tail`; `self` reads the same elements
    /// as before either way.
    ///
    /// When `self` views a frozen vector up to its committed length and
    /// the allocation has room, `tail` is written into the slots just past
    /// the view and the result views the **same** allocation: O(`tail`)
    /// (see the module docs). Otherwise the elements are copied once into
    /// a new vector with room for as many again, so the appends after it
    /// go in place; a run of appends costs amortized O(`tail`) each.
    pub fn appended(&self, tail: &[T]) -> Storage<T> {
        if tail.is_empty() {
            return self.clone();
        }
        if let Some(grown) = self.appended_in_place(tail) {
            return grown;
        }
        let mut grown = Vec::with_capacity(2 * (self.len + tail.len()));
        grown.extend_from_slice(self);
        grown.extend_from_slice(tail);
        grown.into()
    }

    /// This view followed by `tail`, written into the slots just past the
    /// view when it can claim them (see the module docs); `None` when it
    /// cannot.
    fn appended_in_place(&self, tail: &[T]) -> Option<Storage<T>> {
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
        Some(Storage { ptr: self.ptr, len: self.len + tail.len(), owner: Arc::clone(&self.owner) })
    }

    /// These elements with room past them for at least `additional` more,
    /// so [`Storage::appended`] extends them in place. A view that is the
    /// only holder of its frozen vector takes the vector back; any other
    /// view, one with other holders or a mapped one, is copied into a
    /// vector of its length. Either vector then grows as `Vec::reserve`
    /// grows it: not at all when it has the room, else to at least twice
    /// its capacity. Only for arrays that will be appended to: making
    /// room may move or copy the elements, which a path that never
    /// appends should not pay.
    pub fn into_growable(self, additional: usize) -> Storage<T> {
        let mut vec = self.try_into_vec().unwrap_or_else(|view| view.to_vec());
        vec.reserve(additional);
        vec.into()
    }

    /// The frozen vector this view starts, cut to the view's length, when
    /// the view is its only holder; the view itself otherwise.
    fn try_into_vec(self) -> Result<Vec<T>, Storage<T>> {
        let Storage { ptr, len, owner } = self;
        let buffer = match owner.downcast::<Buffer<T>>() {
            Ok(buffer) if std::ptr::eq(buffer.ptr.cast_const(), ptr) => buffer,
            Ok(buffer) => return Err(Storage { ptr, len, owner: buffer }),
            Err(owner) => return Err(Storage { ptr, len, owner }),
        };
        match Arc::try_unwrap(buffer) {
            Ok(buffer) => {
                // Slots an append claimed past this view are `Copy`
                // values no view reads any more.
                let mut vec = buffer.into_vec();
                vec.truncate(len);
                Ok(vec)
            }
            Err(buffer) => Err(Storage { ptr, len, owner: buffer }),
        }
    }
}

// SAFETY: a Storage is an immutable view plus an Arc; it is exactly as
// thread-safe as `&[T]` + `Arc<_>`, i.e. Send + Sync when `T: Sync`
// (`T: Send` required for the owned data it may keep alive).
unsafe impl<T: Send + Sync> Send for Storage<T> {}
// SAFETY: as for `Send` above.
unsafe impl<T: Send + Sync> Sync for Storage<T> {}

impl<T> Deref for Storage<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T> Clone for Storage<T> {
    /// O(1): the clone views the same elements — an epoch clone never
    /// duplicates a mapped gigabyte.
    fn clone(&self) -> Self {
        Storage { ptr: self.ptr, len: self.len, owner: Arc::clone(&self.owner) }
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

impl<T: Send + Sync> Default for Storage<T> {
    fn default() -> Self {
        Vec::new().into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first three elements of a vector no one mutates, borrowed.
    fn borrowed(owner: &Arc<Vec<u32>>) -> Storage<u32> {
        // SAFETY: the run lies inside a vector no one mutates, kept alive
        // by the view's clone of the Arc.
        unsafe { Storage::from_raw_parts(owner.as_ptr(), 3, owner.clone()) }
    }

    #[test]
    fn a_frozen_vector_and_a_borrowed_run_deref_identically() {
        let frozen: Storage<u32> = vec![1, 2, 3].into();
        let owner = Arc::new(vec![1, 2, 3, 4]);
        let borrowed = borrowed(&owner);
        assert_eq!(&frozen[..], &[1, 2, 3]);
        assert_eq!(frozen, borrowed);
        assert!(!frozen.is_mapped());
        assert!(borrowed.is_mapped());
    }

    #[test]
    fn a_clone_reads_the_same_elements() {
        let frozen: Storage<u32> = vec![9, 8].into();
        assert_eq!(frozen.clone().as_ptr(), frozen.as_ptr(), "a clone copies nothing");
        let owner = Arc::new(vec![1, 2, 3]);
        let borrowed = borrowed(&owner);
        assert_eq!(borrowed.clone().as_ptr(), owner.as_ptr());
        assert!(borrowed.clone().is_mapped());
    }

    #[test]
    fn a_view_outlives_its_creation_scope() {
        let storage: Storage<u32> = {
            let v: Vec<u32> = (0..100).collect();
            v.into()
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
        v.into()
    }

    fn in_place(grown: &Storage<u32>, base: &Storage<u32>) -> bool {
        grown.as_ptr() == base.as_ptr()
    }

    #[test]
    fn a_frozen_vector_keeps_spare_capacity_and_appends_grow_into_it() {
        let base = roomy();
        let grown = base.appended(&[4, 5]);
        assert_eq!(&grown[..], &[1, 2, 3, 4, 5]);
        assert!(in_place(&grown, &base), "the batch lands past the view");
        assert_eq!(&base[..], &[1, 2, 3], "the base view does not grow");
        let again = grown.appended(&[6, 7, 8]);
        assert_eq!(&again[..], &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert!(in_place(&again, &base), "a chain of appends stays in place");
        assert!(in_place(&base.appended(&[]), &base));
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
        let base: Storage<u32> = vec![1, 2].into();
        let grown = base.appended(&[3, 4, 5]);
        assert!(!in_place(&grown, &base));
        assert_eq!(&grown[..], &[1, 2, 3, 4, 5]);
        assert!(in_place(&grown.appended(&[6, 7, 8, 9, 10]), &grown), "doubled on the copy");
    }

    #[test]
    fn borrowed_storage_copies_on_append_and_its_owner_is_never_written() {
        let owner = Arc::new(vec![1, 2, 3, 40, 50]);
        let base = borrowed(&owner);
        let grown = base.appended(&[4]);
        assert!(!in_place(&grown, &base), "a foreign owner's memory is not the view's to grow");
        assert!(!grown.is_mapped(), "the copy is a frozen vector");
        assert_eq!(&grown[..], &[1, 2, 3, 4]);
        assert_eq!(&owner[..], &[1, 2, 3, 40, 50], "the slots past the view keep their values");
        assert!(in_place(&grown.appended(&[5]), &grown), "the copy appends in place");
    }

    #[test]
    fn into_growable_takes_a_sole_held_vector_back_without_copying() {
        let base = roomy();
        let data = base.as_ptr();
        let growable = base.into_growable(5);
        assert_eq!(growable.as_ptr(), data, "the room was there: nothing moved");
        assert_eq!(&growable[..], &[1, 2, 3]);
        let grown = growable.appended(&[4, 5, 6, 7, 8]);
        assert!(in_place(&grown, &growable));
        // Short of room, the vector grows as `Vec::reserve` grows it.
        let tight: Storage<u32> = vec![1, 2, 3].into();
        let growable = tight.into_growable(1);
        assert!(in_place(&growable.appended(&[4, 5, 6]), &growable), "grown to twice");
        assert_eq!(&growable[..], &[1, 2, 3]);
    }

    #[test]
    fn into_growable_takes_back_a_vector_an_aborted_append_claimed_past() {
        let base = roomy();
        let data = base.as_ptr();
        drop(base.appended(&[4, 5]));
        let growable = base.into_growable(2);
        assert_eq!(growable.as_ptr(), data);
        assert_eq!(&growable[..], &[1, 2, 3], "the claimed slots are cut off");
        let grown = growable.appended(&[6, 7]);
        assert!(in_place(&grown, &growable), "and free again");
        assert_eq!(&grown[..], &[1, 2, 3, 6, 7]);
    }

    #[test]
    fn into_growable_copies_a_view_with_other_holders() {
        let base = roomy();
        let clone = base.clone();
        let growable = base.into_growable(5);
        assert!(!in_place(&growable, &clone), "a live clone keeps its vector");
        let grown = growable.appended(&[9, 9, 9, 9, 9]);
        assert!(in_place(&grown, &growable), "the copy has the room asked for");
        assert_eq!(&clone[..], &[1, 2, 3], "the clone still reads its old elements");
        assert!(in_place(&clone.appended(&[4]), &clone), "and the copy claimed none of its room");
    }

    #[test]
    fn into_growable_copies_a_borrowed_view() {
        let owner = Arc::new(vec![1, 2, 3, 40, 50]);
        let growable = borrowed(&owner).into_growable(2);
        assert_ne!(growable.as_ptr(), owner.as_ptr());
        assert!(!growable.is_mapped());
        assert_eq!(&growable[..], &[1, 2, 3]);
        assert!(in_place(&growable.appended(&[4, 5]), &growable));
        assert_eq!(&owner[..], &[1, 2, 3, 40, 50]);
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
