//! Zero-copy snapshot adoption off a memory map.
//!
//! A v2 snapshot (see [`crate::snapshot`]) lays its bulk arrays out flat
//! at aligned offsets precisely so a serving process can adopt one
//! without decoding: the file is `mmap`ed read-only, each section's
//! checksum is verified once ([`checksum64`] — the only O(bytes) pass),
//! and the dataset CSR, graph CSR and fingerprint words are handed to
//! the validated shared-storage constructors as **typed slices borrowing
//! the map**. No per-user work happens: no neighbour list is built, no
//! profile copied — the epoch's backing memory *is* the file's page
//! cache, shared between every process serving the same snapshot.
//!
//! The wrapper is dependency-free: two `extern "C"` declarations
//! (`mmap`/`munmap`) against the libc that `std` already links. The
//! zero-copy path is compiled only where reinterpreting little-endian
//! file bytes as in-memory values is sound — 64-bit little-endian Unix —
//! and **every** failure to map (unsupported target, map syscall error,
//! an injected [`Site::SnapshotMmap`] fault, misaligned section) falls
//! back to the bit-exact copy loader, so adoption never fails for want of
//! a map, only for genuinely bad bytes.

use crate::snapshot::{Snapshot, SnapshotError};
use cnc_dataset::Dataset;
use cnc_graph::{EntryIndex, KnnGraph};
use cnc_similarity::GoldFinger;
use std::path::Path;

/// Targets where mapped file bytes can be reinterpreted in place.
#[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
macro_rules! zero_copy_supported {
    () => {
        true
    };
}
#[cfg(not(all(unix, target_pointer_width = "64", target_endian = "little")))]
macro_rules! zero_copy_supported {
    () => {
        false
    };
}

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
    /// copy fallback engages on any map-level failure (see the module
    /// docs); structural verdicts about the bytes themselves — bad
    /// magic, checksum mismatches, corrupt sections — are returned as
    /// their typed [`SnapshotError`] without a second read.
    pub fn open(path: impl AsRef<Path>) -> Result<AdoptedSnapshot, SnapshotError> {
        let path = path.as_ref();
        if zero_copy_supported!() {
            match zc::try_map(path) {
                Ok(Some(adopted)) => return Ok(adopted),
                Ok(None) => {} // map failed or unsuitable — fall back to copy
                Err(error) => return Err(error),
            }
        }
        Self::load_copied(path)
    }

    /// The copy path: the ordinary decoding loader, wrapped as an
    /// adoption.
    pub fn load_copied(path: impl AsRef<Path>) -> Result<AdoptedSnapshot, SnapshotError> {
        let snapshot = Snapshot::load(path)?;
        Ok(AdoptedSnapshot {
            dataset: snapshot.dataset,
            graph: snapshot.graph,
            goldfinger: snapshot.goldfinger,
            entries: snapshot.entries,
            mapped: false,
        })
    }

    /// True when this build can adopt snapshots zero-copy at all.
    pub fn zero_copy_supported() -> bool {
        zero_copy_supported!()
    }
}

/// The zero-copy implementation (64-bit little-endian Unix only).
#[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
mod zc {
    use super::*;
    use crate::snapshot::{
        checksum64, corrupt_entries, cross_validate, parse_dataset_v2, parse_entries_v2,
        parse_goldfinger_v2, parse_graph_v2, path_key, read_v2_table, MAGIC, SECTION_DATASET,
        SECTION_ENTRIES, SECTION_GOLDFINGER, SECTION_GRAPH, SECTION_MEMBERSHIPS,
    };
    use cnc_dataset::{ItemId, SharedSlice, Storage};
    use cnc_faults::{Faults, Site};
    use cnc_graph::Neighbor;
    use cnc_telemetry::Telemetry;
    use std::any::Any;
    use std::fs::File;
    use std::io;
    use std::ops::Deref;
    use std::os::unix::io::AsRawFd;
    use std::sync::Arc;

    // The two syscalls the wrapper needs, declared directly against the
    // libc `std` already links — no new dependency for one page-table
    // operation.
    mod sys {
        use std::ffi::{c_int, c_void};
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

    // The mapping is immutable (PROT_READ) for its whole lifetime.
    unsafe impl Send for Mmap {}
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
            unsafe {
                sys::munmap(self.ptr, self.len);
            }
        }
    }

    impl Deref for Mmap {
        type Target = [u8];
        fn deref(&self) -> &[u8] {
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
    }

    /// Attempts the zero-copy adoption. `Ok(None)` means "map not
    /// usable, fall back to the copy loader" (map syscall failure, an
    /// injected fault, a misaligned section); `Err` means the
    /// bytes themselves are bad and re-reading them cannot help.
    pub fn try_map(path: &Path) -> Result<Option<AdoptedSnapshot>, SnapshotError> {
        let telemetry = Telemetry::global();
        let start_ns = telemetry.stamp();
        if Faults::global().inject_io(Site::SnapshotMmap, path_key(path)).is_err() {
            // An injected map failure: exercise the copy fallback.
            return Ok(None);
        }
        let Ok(file) = File::open(path) else {
            return Ok(None);
        };
        let Ok(map) = Mmap::map(&file) else {
            return Ok(None);
        };
        let map = Arc::new(map);
        match adopt_mapped(&map) {
            Ok(Some(adopted)) => {
                telemetry.record_complete(
                    "snapshot.mmap",
                    start_ns,
                    telemetry.stamp().saturating_sub(start_ns),
                    vec![
                        ("bytes", map.len() as u64),
                        ("users", adopted.dataset.num_users() as u64),
                    ],
                );
                Ok(Some(adopted))
            }
            other => other,
        }
    }

    /// Reinterprets an aligned little-endian byte region as a typed
    /// slice. `None` on misalignment or a ragged length — the caller
    /// falls back to the copy path, which handles any byte layout.
    fn cast_slice<T: Copy>(bytes: &[u8]) -> Option<&[T]> {
        let size = std::mem::size_of::<T>();
        if bytes.as_ptr().align_offset(std::mem::align_of::<T>()) != 0
            || !bytes.len().is_multiple_of(size)
        {
            return None;
        }
        // SAFETY: the region is aligned and sized for `[T; len/size]`,
        // lives as long as `bytes`, and every caller instantiates T with
        // a plain-old-data type (u32/u64/usize/Neighbor) for which any
        // bit pattern is a valid value.
        Some(unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const T, bytes.len() / size) })
    }

    /// Wraps a typed sub-slice of the map as shared storage holding the
    /// map alive.
    fn shared<T: Copy + Send + Sync + 'static>(slice: &[T], owner: &Arc<Mmap>) -> Storage<T> {
        let owner: Arc<dyn Any + Send + Sync> = Arc::clone(owner) as _;
        // SAFETY: `slice` borrows the mapping that `owner` keeps alive;
        // the storage never outlives the map.
        Storage::Shared(unsafe { SharedSlice::from_raw_parts(slice.as_ptr(), slice.len(), owner) })
    }

    /// The mapped-adoption core: parse the v2 geometry, verify the
    /// touched sections' checksums, hand the flat arrays to the
    /// validated shared-storage constructors. The MEMBERSHIPS section is
    /// *skipped* — a serving replica has no builder to feed, and reading
    /// it would be per-cluster work the adopt path promises not to do.
    fn adopt_mapped(map: &Arc<Mmap>) -> Result<Option<AdoptedSnapshot>, SnapshotError> {
        let bytes: &[u8] = map;
        if bytes.len() < 16 {
            return Err(SnapshotError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "snapshot shorter than its header",
            )));
        }
        let magic: [u8; 8] = bytes[0..8].try_into().unwrap();
        if magic != MAGIC {
            return Err(SnapshotError::BadMagic(magic));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != 2 {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let section_count = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
        let table = read_v2_table(&mut &bytes[16..], section_count)?;

        let mut dataset: Option<Dataset> = None;
        let mut graph: Option<KnnGraph> = None;
        let mut goldfinger: Option<GoldFinger> = None;
        // Adopted last: its member ids are checked against the dataset.
        let mut entries_payload: Option<&[u8]> = None;
        for entry in &table {
            match entry.id {
                SECTION_DATASET | SECTION_GRAPH | SECTION_GOLDFINGER | SECTION_ENTRIES => {}
                SECTION_MEMBERSHIPS => continue, // builder state: not touched, not verified
                other => {
                    return Err(SnapshotError::Corrupt(format!("unknown section id {other}")));
                }
            }
            let payload = usize::try_from(entry.offset)
                .ok()
                .and_then(|o| bytes.get(o..o + usize::try_from(entry.len).ok()?))
                .ok_or_else(|| {
                    SnapshotError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        format!("section {} truncated", entry.id),
                    ))
                })?;
            if checksum64(payload) != entry.checksum {
                return Err(SnapshotError::ChecksumMismatch { section: entry.id });
            }
            match entry.id {
                SECTION_DATASET if dataset.is_none() => {
                    let layout = parse_dataset_v2(payload)?;
                    // usize == u64 on this (64-bit LE) target, so the
                    // mapped u64 offsets serve as the dataset's usize
                    // offsets directly.
                    let (Some(offsets), Some(items)) =
                        (cast_slice::<usize>(layout.offsets), cast_slice::<ItemId>(layout.items))
                    else {
                        return Ok(None);
                    };
                    dataset = Some(
                        Dataset::from_csr_storage(
                            shared(offsets, map),
                            shared(items, map),
                            layout.num_items,
                        )
                        .map_err(SnapshotError::Corrupt)?,
                    );
                }
                SECTION_GRAPH if graph.is_none() => {
                    let layout = parse_graph_v2(payload)?;
                    let (Some(offsets), Some(entries)) =
                        (cast_slice::<u64>(layout.offsets), cast_slice::<Neighbor>(layout.entries))
                    else {
                        return Ok(None);
                    };
                    graph = Some(
                        KnnGraph::from_csr_storage(
                            layout.k,
                            shared(offsets, map),
                            shared(entries, map),
                        )
                        .map_err(SnapshotError::Corrupt)?,
                    );
                }
                SECTION_GOLDFINGER if goldfinger.is_none() => {
                    let layout = parse_goldfinger_v2(payload)?;
                    let Some(words) = cast_slice::<u64>(layout.words) else {
                        return Ok(None);
                    };
                    let gf = GoldFinger::from_storage(shared(words, map), layout.bits, layout.seed)
                        .map_err(SnapshotError::Corrupt)?;
                    if gf.num_users() != layout.num_users {
                        return Err(SnapshotError::Corrupt(format!(
                            "fingerprint section claims {} users but holds {}",
                            layout.num_users,
                            gf.num_users()
                        )));
                    }
                    goldfinger = Some(gf);
                }
                SECTION_ENTRIES if entries_payload.is_none() => entries_payload = Some(payload),
                id => {
                    return Err(SnapshotError::Corrupt(format!("duplicate section {id}")));
                }
            }
        }

        let dataset = dataset.ok_or(SnapshotError::MissingSection("dataset"))?;
        let graph = graph.ok_or(SnapshotError::MissingSection("graph"))?;
        cross_validate(&dataset, &graph, goldfinger.as_ref())?;
        let entries = match entries_payload {
            None => None,
            Some(payload) => {
                let layout = parse_entries_v2(payload)?;
                let (Some(seeds), Some(keys), Some(offsets), Some(targets), Some(members)) = (
                    cast_slice::<u64>(layout.seeds),
                    cast_slice::<u64>(layout.keys),
                    cast_slice::<u32>(layout.offsets),
                    cast_slice::<u32>(layout.targets),
                    cast_slice::<u32>(layout.members),
                ) else {
                    return Ok(None);
                };
                Some(
                    EntryIndex::from_storage(
                        layout.b,
                        seeds.to_vec(),
                        shared(keys, map),
                        shared(targets, map),
                        shared(offsets, map),
                        shared(members, map),
                        dataset.num_users(),
                    )
                    .map_err(corrupt_entries)?,
                )
            }
        };
        Ok(Some(AdoptedSnapshot { dataset, graph, goldfinger, entries, mapped: true }))
    }
}
