//! Zero-copy snapshot adoption off a memory map.
//!
//! A v2 snapshot (see [`crate::snapshot`]) lays its bulk arrays out flat
//! at aligned offsets precisely so a serving process can adopt one
//! without decoding: the file is `mmap`ed read-only and handed to the
//! snapshot module's one section-table walker as its byte source. The
//! walker checks the table and the checksum of every section adoption
//! serves — one O(bytes) pass, the cost of an adopt — and passes each
//! array through `array`, which borrows it from the map as a typed
//! slice. No per-user work happens: no neighbour list is built, no
//! profile copied — the epoch's backing memory *is* the file's page
//! cache, shared between every process serving the same snapshot.
//!
//! The wrapper is dependency-free: two `extern "C"` declarations
//! (`mmap`/`munmap`) against the libc that `std` already links. The
//! zero-copy path is compiled only where reinterpreting little-endian
//! file bytes as in-memory values is sound — 64-bit little-endian Unix.
//! The copy loader takes over only when the file cannot be opened or
//! mapped: an unsupported target, a map syscall error, an injected
//! [`Site::SnapshotMmap`](cnc_faults::Site) fault. Every verdict on the
//! bytes themselves comes from the shared walker, so it is the same on
//! both paths. A mapped file must not shrink while mapped — reading a
//! page past its new end raises `SIGBUS` — which is why snapshots are
//! published by renaming a new file into place, never by rewriting one.

use crate::snapshot::{Snapshot, SnapshotError};
use cnc_dataset::{Dataset, Storage};
use cnc_graph::{EntryIndex, KnnGraph, Neighbor};
use cnc_similarity::GoldFinger;
use std::path::Path;
use std::sync::Arc;

/// One serving state opened for adoption: the same parts as a
/// [`Snapshot`] minus the builder-only cluster cache, plus the record of
/// which path produced it. When `mapped` is true the dataset, graph,
/// fingerprints and entry index borrow the underlying memory map (their
/// storages report `is_shared()`), and they keep the map alive for as
/// long as any clone of them lives — dropping the engine epoch unmaps
/// the file. On the copy path they own their arrays and report
/// `is_shared()` false until an epoch freezes them, so `mapped`, not
/// `is_shared()`, says which path ran once an epoch holds them.
pub struct AdoptedSnapshot {
    /// The user profiles (CSR borrowing the map when `mapped`).
    pub dataset: Dataset,
    /// The KNN graph (CSR borrowing the map when `mapped`).
    pub graph: KnnGraph,
    /// Fingerprints, when the snapshot carries them.
    pub goldfinger: Option<GoldFinger>,
    /// The graph's entry index, when the snapshot carries the section
    /// (arrays borrowing the map when `mapped`).
    pub entries: Option<EntryIndex>,
    /// `true` = zero-copy off the map; `false` = decoded copy.
    pub mapped: bool,
}

impl AdoptedSnapshot {
    /// Opens a snapshot for adoption, preferring the zero-copy map. The
    /// copy fallback engages only when the file cannot be opened or
    /// mapped (see the module docs); a verdict on the bytes — bad magic,
    /// a checksum mismatch, a corrupt section — is returned as is, the
    /// same one [`AdoptedSnapshot::load_copied`] gives.
    pub fn open(path: impl AsRef<Path>) -> Result<AdoptedSnapshot, SnapshotError> {
        let path = path.as_ref();
        #[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
        if let Some(adopted) = zc::try_map(path) {
            return adopted;
        }
        Self::load_copied(path)
    }

    /// The copy path: the streaming loader, which like the map never
    /// reads the builder's MEMBERSHIPS section.
    pub fn load_copied(path: impl AsRef<Path>) -> Result<AdoptedSnapshot, SnapshotError> {
        Snapshot::read_file(path.as_ref(), false).map(|snapshot| Self::new(snapshot, false))
    }

    fn new(snapshot: Snapshot, mapped: bool) -> AdoptedSnapshot {
        let Snapshot { dataset, graph, goldfinger, entries, .. } = snapshot;
        AdoptedSnapshot { dataset, graph, goldfinger, entries, mapped }
    }

    /// True when this build can adopt snapshots zero-copy at all.
    pub fn zero_copy_supported() -> bool {
        cfg!(all(unix, target_pointer_width = "64", target_endian = "little"))
    }
}

/// A fixed-width little-endian element of a snapshot array. Implemented
/// only for plain-old-data types — no padding, every bit pattern a valid
/// value — whose layout on the zero-copy targets is their `SIZE`-byte
/// file encoding, so a mapped run of them can be borrowed as `[Self]`.
pub(crate) trait Element: Copy + Send + Sync + 'static {
    /// Bytes per element in the file.
    const SIZE: usize;
    /// Decodes one element from its `SIZE` file bytes.
    fn from_le(bytes: &[u8]) -> Self;
}

impl Element for u32 {
    const SIZE: usize = 4;
    fn from_le(bytes: &[u8]) -> Self {
        u32::from_le_bytes(bytes.try_into().expect("one element's bytes"))
    }
}

impl Element for u64 {
    const SIZE: usize = 8;
    fn from_le(bytes: &[u8]) -> Self {
        u64::from_le_bytes(bytes.try_into().expect("one element's bytes"))
    }
}

/// Profile offsets travel as `u64`. An offset beyond a 32-bit `usize`
/// saturates, which the dataset's validation then refuses.
impl Element for usize {
    const SIZE: usize = 8;
    fn from_le(bytes: &[u8]) -> Self {
        usize::try_from(<u64 as Element>::from_le(bytes)).unwrap_or(usize::MAX)
    }
}

/// `{id u32, sim-bits u32}`: `Neighbor` is `#[repr(C)]` `(u32, f32)`.
impl Element for Neighbor {
    const SIZE: usize = 8;
    fn from_le(bytes: &[u8]) -> Self {
        let half = <u32 as Element>::from_le;
        Neighbor { user: half(&bytes[..4]), sim: f32::from_bits(half(&bytes[4..])) }
    }
}

/// The map a source's bytes may be borrowed from.
#[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
pub(crate) use zc::Mmap as Map;

/// No map exists where there is no zero-copy path.
#[cfg(not(all(unix, target_pointer_width = "64", target_endian = "little")))]
pub(crate) enum Map {}

/// The one materializer of a snapshot array: borrowed in place when
/// `bytes` lie inside `map`, aligned for `T`; otherwise decoded element by
/// element into an owned vector — the copy path's form.
pub(crate) fn array<T: Element>(bytes: &[u8], map: Option<&Arc<Map>>) -> Storage<T> {
    #[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
    if let Some(borrowed) = map.and_then(|map| zc::borrow(bytes, map)) {
        return borrowed;
    }
    #[cfg(not(all(unix, target_pointer_width = "64", target_endian = "little")))]
    let _ = map;
    Storage::Owned(decode(bytes))
}

/// Decodes a little-endian array into an owned vector.
pub(crate) fn decode<T: Element>(bytes: &[u8]) -> Vec<T> {
    bytes.chunks_exact(T::SIZE).map(T::from_le).collect()
}

/// The zero-copy implementation (64-bit little-endian Unix only).
#[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
mod zc {
    use super::{AdoptedSnapshot, Element};
    use crate::snapshot::{path_key, read_snapshot, truncated, SnapshotError, Source};
    use cnc_dataset::{SharedSlice, Storage};
    use cnc_faults::{Faults, Site};
    use cnc_telemetry::Telemetry;
    use std::any::Any;
    use std::fs::File;
    use std::io;
    use std::ops::Deref;
    use std::os::unix::io::AsRawFd;
    use std::path::Path;
    use std::sync::Arc;

    // The two syscalls the wrapper needs, declared directly against the
    // libc `std` already links — no new dependency for one page-table
    // operation.
    mod sys {
        use std::ffi::{c_int, c_void};
        // SAFETY: these are the POSIX `mmap(2)` and `munmap(2)`
        // signatures on the 64-bit targets this module compiles for
        // (`size_t` is `usize`, `off_t` is `i64`).
        unsafe extern "C" {
            pub fn mmap(
                addr: *mut c_void,
                len: usize,
                prot: c_int,
                flags: c_int,
                fd: c_int,
                offset: i64,
            ) -> *mut c_void;
            pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        }
        pub const PROT_READ: c_int = 1;
        pub const MAP_PRIVATE: c_int = 2;
        pub const MAP_FAILED: *mut c_void = !0usize as *mut c_void;
    }

    /// A read-only, private memory map of one file. Pages are faulted in
    /// on demand and shared with every other mapping of the same file.
    pub struct Mmap {
        ptr: *mut std::ffi::c_void,
        len: usize,
    }

    // SAFETY: the mapping is read-only (PROT_READ) for its whole lifetime
    // and `Mmap` hands out only `&[u8]`, so moving it to another thread
    // moves nothing but an address and a length.
    unsafe impl Send for Mmap {}
    // SAFETY: shared access is to immutable bytes only, as for `&[u8]`.
    unsafe impl Sync for Mmap {}

    impl Mmap {
        /// Maps `file` read-only in full. Zero-length files are a map
        /// error (POSIX rejects them), which the caller treats as "use
        /// the copy path" — where the empty file earns its typed error.
        pub fn map(file: &File) -> io::Result<Mmap> {
            let len = file.metadata()?.len();
            let len = usize::try_from(len)
                .ok()
                .filter(|&l| l > 0)
                .ok_or_else(|| io::Error::from(io::ErrorKind::InvalidInput))?;
            // SAFETY: a new read-only private mapping of `len > 0` bytes
            // of an open descriptor, placed by the kernel (null hint), so
            // it aliases no Rust-owned memory; failure is `MAP_FAILED`,
            // checked below.
            let ptr = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    sys::PROT_READ,
                    sys::MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr == sys::MAP_FAILED {
                return Err(io::Error::last_os_error());
            }
            Ok(Mmap { ptr, len })
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            // SAFETY: `ptr`/`len` are exactly the live mapping `map`
            // made, unmapped once, here. Every borrow of it is a `&self`
            // or a `SharedSlice` holding an `Arc<Mmap>`, so none outlives
            // this drop.
            unsafe {
                sys::munmap(self.ptr, self.len);
            }
        }
    }

    impl Deref for Mmap {
        type Target = [u8];
        fn deref(&self) -> &[u8] {
            // SAFETY: `ptr..ptr + len` stays mapped and readable while
            // `self` lives, which bounds the returned borrow, and nothing
            // writes it (PROT_READ; the file is never rewritten in place —
            // see the module docs).
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
    }

    /// A mapped snapshot as the walker's byte source.
    struct Mapped(Arc<Mmap>);

    impl Source for Mapped {
        fn len(&self) -> Option<u64> {
            Some(self.0.len() as u64)
        }

        fn map(&self) -> Option<Arc<Mmap>> {
            Some(Arc::clone(&self.0))
        }

        fn bytes(&mut self, offset: u64, len: u64) -> Result<&[u8], SnapshotError> {
            usize::try_from(offset)
                .ok()
                .zip(usize::try_from(len).ok())
                .and_then(|(at, len)| self.0.get(at..at.checked_add(len)?))
                .ok_or_else(|| truncated(offset.saturating_add(len)))
        }
    }

    /// The zero-copy adoption, or `None` when the file cannot be opened
    /// or mapped — the copy path then reads it.
    pub fn try_map(path: &Path) -> Option<Result<AdoptedSnapshot, SnapshotError>> {
        let telemetry = Telemetry::global();
        let start_ns = telemetry.stamp();
        // An injected map failure exercises the copy fallback.
        Faults::global().inject_io(Site::SnapshotMmap, path_key(path)).ok()?;
        let map = Mmap::map(&File::open(path).ok()?).ok()?;
        let bytes = map.len() as u64;
        let adopted = read_snapshot(&mut Mapped(Arc::new(map)), false)
            .map(|snapshot| AdoptedSnapshot::new(snapshot, true));
        if let Ok(adopted) = &adopted {
            telemetry.record_complete(
                "snapshot.mmap",
                start_ns,
                telemetry.stamp().saturating_sub(start_ns),
                vec![("bytes", bytes), ("users", adopted.dataset.num_users() as u64)],
            );
        }
        Some(adopted)
    }

    /// Reinterprets an aligned little-endian byte region as a typed
    /// slice; `None` on misalignment or a ragged length.
    pub fn cast_slice<T: Element>(bytes: &[u8]) -> Option<&[T]> {
        if size_of::<T>() != T::SIZE
            || bytes.as_ptr().align_offset(align_of::<T>()) != 0
            || !bytes.len().is_multiple_of(T::SIZE)
        {
            return None;
        }
        // SAFETY: the region is aligned and sized for `[T; len / SIZE]`
        // and lives as long as `bytes`; `T: Element` is plain old data
        // whose layout on this little-endian target is its file encoding,
        // so every element reads as the value `T::from_le` decodes.
        Some(unsafe {
            std::slice::from_raw_parts(bytes.as_ptr().cast::<T>(), bytes.len() / T::SIZE)
        })
    }

    /// `bytes` as shared storage kept alive by `map` — `None` unless they
    /// lie inside the map and [`cast_slice`] accepts them.
    pub fn borrow<T: Element>(bytes: &[u8], map: &Arc<Mmap>) -> Option<Storage<T>> {
        let inside = map.as_ptr_range();
        let within = inside.start <= bytes.as_ptr() && bytes.as_ptr_range().end <= inside.end;
        let slice = cast_slice::<T>(bytes).filter(|_| within)?;
        let owner: Arc<dyn Any + Send + Sync> = Arc::clone(map) as _;
        // SAFETY: `slice` lies inside the mapping (checked above), which
        // `owner` keeps mapped, and never written, for as long as any
        // clone of the storage lives.
        Some(Storage::Shared(unsafe {
            SharedSlice::from_raw_parts(slice.as_ptr(), slice.len(), owner)
        }))
    }
}

#[cfg(all(test, unix, target_pointer_width = "64", target_endian = "little"))]
mod tests {
    use super::zc::{cast_slice, Mmap};
    use super::*;

    /// Decodes `bytes` the way the copy path does, one element at a time.
    fn by_hand<T: Element>(bytes: &[u8]) -> Vec<T> {
        (0..bytes.len() / T::SIZE).map(|i| T::from_le(&bytes[i * T::SIZE..][..T::SIZE])).collect()
    }

    /// For one element type: the cast refuses the map's bytes one byte off
    /// alignment and one byte short of whole; `array` borrows the aligned,
    /// whole run and decodes the refused ones, bit-equal to decoding by
    /// hand. Returns the values it borrowed.
    fn cast_contract<T: Element + PartialEq + std::fmt::Debug>(map: &Arc<Mmap>) -> Vec<T> {
        let run = 8 * T::SIZE;
        let (aligned, misaligned, ragged) =
            (&map[T::SIZE..T::SIZE + run], &map[1..1 + run], &map[T::SIZE..T::SIZE + run - 1]);
        assert!(cast_slice::<T>(misaligned).is_none(), "a misaligned run must be refused");
        assert!(cast_slice::<T>(ragged).is_none(), "a ragged run must be refused");
        for refused in [misaligned, ragged] {
            let owned = array::<T>(refused, Some(map));
            assert!(!owned.is_shared(), "a refused run is decoded, not borrowed");
            assert_eq!(&owned[..], &by_hand::<T>(refused)[..]);
        }
        let borrowed = array::<T>(aligned, Some(map));
        assert!(borrowed.is_shared(), "an aligned, whole run inside the map is borrowed");
        assert_eq!(&borrowed[..], &by_hand::<T>(aligned)[..]);
        // The same bytes outside any map are decoded.
        let copy = aligned.to_vec();
        assert!(!array::<T>(&copy, Some(map)).is_shared());
        borrowed.to_vec()
    }

    #[test]
    fn the_cast_refuses_misaligned_and_ragged_input_and_the_owned_decode_is_bit_equal() {
        let bytes: Vec<u8> = (0..256u32).map(|i| (i.wrapping_mul(157) >> 1) as u8).collect();
        let path = std::env::temp_dir().join(format!("cnc-mmap-cast-{}.bin", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let map = Arc::new(Mmap::map(&std::fs::File::open(&path).unwrap()).unwrap());
        std::fs::remove_file(&path).unwrap();
        assert_eq!(&map[..], &bytes[..]);

        let words: Vec<u64> = cast_contract(&map);
        let offsets: Vec<usize> = cast_contract(&map);
        assert_eq!(offsets.iter().map(|&o| o as u64).collect::<Vec<_>>(), words);
        cast_contract::<u32>(&map);
        // A neighbour is its `{id, sim-bits}` word split in two.
        let neighbours: Vec<Neighbor> = cast_contract(&map);
        let halves: Vec<(u32, u32)> = words.iter().map(|&w| (w as u32, (w >> 32) as u32)).collect();
        let pairs: Vec<(u32, u32)> = neighbours.iter().map(|n| (n.user, n.sim.to_bits())).collect();
        assert_eq!(pairs, halves);
    }
}
