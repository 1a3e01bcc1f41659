//! The versioned binary snapshot format.
//!
//! A built KNN graph used to die with the process; a serving deployment
//! needs it to survive — rebuilt offline, shipped to servers, and
//! decoded by the copy loader or **adopted off a memory map**.
//! [`Snapshot`] persists everything an online epoch needs into **one
//! file**.
//!
//! Format **v2** — the only version written or read; any other version
//! in the header, 1 included, is refused with
//! [`SnapshotError::UnsupportedVersion`].
//! A 16-byte header, then every payload at a **64-byte-aligned file
//! offset** recorded in the table, with the bulk arrays laid out *flat* so
//! a mapped file can be served without decoding:
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────────┐
//! │ magic "CNCSNAP1" (8) │ version = 2 u32 │ section_count u32        │
//! ├──────────────────────────────────────────────────────────────────┤
//! │ section table: { id u32, offset u64, len u64, checksum u64 }     │
//! ├── zero padding to each 64-byte-aligned offset ───────────────────┤
//! │   1 DATASET       num_users u64, num_items u32, pad u32,         │
//! │                   offsets (num_users+1)×u64, items ×u32          │
//! │   2 GRAPH         num_users u64, k u32, pad u32,                 │
//! │                   offsets (num_users+1)×u64,                     │
//! │                   entries ×{id u32, sim-bits u32} (heap order)   │
//! │   3 GOLDFINGER    bits u32, pad u32, seed u64, num_users u64,    │
//! │                   fingerprint words ×u64                         │
//! │   5 ENTRIES       b u32, functions u32, clusters u64, routes u64,│
//! │     (optional)    members u64, seeds functions×u64,              │
//! │                   keys routes×u64, offsets (clusters+1)×u32,     │
//! │                   targets routes×u32, members ×u32               │
//! │   6 MEMBERSHIPS   config_token u64, clusters u64, members u64,   │
//! │     (optional)    offsets (clusters+1)×u32,                      │
//! │                   members ×u32 (solve order)                     │
//! └──────────────────────────────────────────────────────────────────┘
//! ```
//!
//! The MEMBERSHIPS section is the builder's half of its [`ClusterCache`]:
//! the build plan's cluster member lists. The other half is the GRAPH
//! section the file carries anyway — the cache *is* the previous build's
//! graph plus who sat together when it was built — so a restarted
//! builder's first publish patches that graph instead of rebuilding it.
//! The writer therefore persists a cache only beside the very graph it
//! was captured with.
//!
//! The ENTRIES section is the epoch's [`EntryIndex`] (`cnc_graph::entry`):
//! the flat routing table and cluster member arrays that let a query start
//! in its own FastRandomHash clusters. It is optional — a file without it
//! (an older writer, a MinHash build) loads and serves from random seeds.
//!
//! Alignment rules: each payload starts on a 64-byte boundary (one cache
//! line, and a multiple of every element alignment used), and within a
//! section the headers are sized so `u64` arrays land on 8-byte and
//! interleaved `{u32, f32}` entries on 4-byte boundaries. A mapped v2
//! file can therefore hand out its offset, entry, word and entry-index
//! arrays as typed slices directly (see [`crate::mmap`]) — adoption does
//! no per-user work.
//!
//! Everything is little-endian; similarities travel as raw `f32` bits
//! and fingerprints as raw `u64` words — the same codec discipline as
//! `cnc_runtime::shuffle`, so a write → load round trip is **bit-exact**:
//! the dataset compares equal, the graph's neighbour lists restore their
//! exact heap layout (they are written in [`cnc_graph::NeighborList::iter`] order),
//! and the fingerprint words match word-for-word.
//!
//! # One reader, one verdict
//!
//! Snapshot files are untrusted input. Every load path — [`Snapshot::load`],
//! [`Snapshot::load_from`], `AdoptedSnapshot::load_copied` and the mapped
//! `AdoptedSnapshot::open` — runs one section-table walker; only the
//! source of the bytes differs (a stream read one payload at a time in
//! table order, or the mapped file). One rule decides the verdict, and
//! every failure is a typed [`SnapshotError`], never a panic:
//!
//! 1. **Header:** magic, then version.
//! 2. **Table:** every row, MEMBERSHIPS included, before any payload is
//!    read. Rows are read one at a time, so a lying count sizes nothing.
//!    Every id is known and none repeats; every offset is 64-byte
//!    aligned; the payloads lie in strictly increasing, non-overlapping
//!    offset order, inside the file.
//! 3. **Checksums** (the chunked [`checksum64`]) of every section the
//!    caller reads. DATASET, GRAPH, GOLDFINGER and ENTRIES are always
//!    read; MEMBERSHIPS only by `Snapshot::load*`, which restores the
//!    builder's cache. Adoption never reads it.
//! 4. **Structure:** the validated constructors both paths call
//!    (`Dataset::from_csr_storage`, `KnnGraph::from_csr_storage`,
//!    `GoldFinger::from_storage`, `EntryIndex::from_storage`,
//!    `ClusterCache::from_parts`), plus the cross-section user counts.
//!
//! A file's length is known before its table is read, so a section past
//! the end is refused at step 2. [`Snapshot::load_from`] on a reader of
//! unknown length finds the end by reaching it; the verdict is the same
//! `Io(UnexpectedEof)`.

use crate::mmap::{array, decode, Map};
use cnc_core::build_plan::ClusterCache;
use cnc_dataset::Dataset;
use cnc_faults::{injected_io_error, Fault, Faults, Site};
use cnc_graph::{EntryIndex, KnnGraph};
use cnc_similarity::GoldFinger;
use cnc_telemetry::Telemetry;
use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The 8-byte file magic ("CNC snapshot, format family 1").
pub const MAGIC: [u8; 8] = *b"CNCSNAP1";

/// The format version — the writer's output and the only one the
/// loaders read.
pub const VERSION: u32 = 2;

const SECTION_DATASET: u32 = 1;
const SECTION_GRAPH: u32 = 2;
const SECTION_GOLDFINGER: u32 = 3;
const SECTION_ENTRIES: u32 = 5;
const SECTION_MEMBERSHIPS: u32 = 6;

/// Every v2 payload starts on this file-offset boundary (one cache line;
/// a multiple of every element alignment the format uses).
const V2_ALIGN: u64 = 64;

/// Why a snapshot failed to load (or write).
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying I/O failed; truncated files surface as
    /// [`io::ErrorKind::UnexpectedEof`].
    Io(io::Error),
    /// The file does not start with [`MAGIC`] — not a snapshot at all.
    BadMagic([u8; 8]),
    /// The file is a snapshot of a format version this build cannot read.
    UnsupportedVersion(u32),
    /// A section's payload does not hash to the checksum the table
    /// recorded — bit rot or tampering.
    ChecksumMismatch {
        /// The corrupt section's id.
        section: u32,
    },
    /// The bytes decode but violate a structural invariant (ragged
    /// profiles, out-of-range neighbour ids, broken heap order, …).
    Corrupt(String),
    /// A required section is absent.
    MissingSection(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic(got) => {
                write!(f, "not a snapshot: magic {got:02x?} (expected {MAGIC:02x?})")
            }
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "snapshot version {v} unsupported (this build reads version {VERSION})")
            }
            SnapshotError::ChecksumMismatch { section } => {
                write!(f, "section {section} failed its checksum")
            }
            SnapshotError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
            SnapshotError::MissingSection(name) => {
                write!(f, "snapshot is missing its {name} section")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// The section checksum: FNV-1a-style mixing over **8-byte chunks**
/// (plus a length-salted tail), about 8× fewer multiplies than
/// byte-at-a-time FNV-1a. Mapped adoption verifies every section it
/// serves, so the checksum walk is the dominant cost of an adopt — at
/// one multiply per 8 bytes it stays far below a decode pass while still
/// catching bit rot. Corruption detection, not authentication.
pub fn checksum64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET ^ (bytes.len() as u64).wrapping_mul(PRIME);
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        hash = (hash ^ u64::from_le_bytes(chunk.try_into().unwrap())).wrapping_mul(PRIME);
    }
    let mut tail = [0u8; 8];
    let rest = chunks.remainder();
    if !rest.is_empty() {
        tail[..rest.len()].copy_from_slice(rest);
        hash = (hash ^ u64::from_le_bytes(tail)).wrapping_mul(PRIME);
    }
    hash
}

/// One persisted serving state: the dataset, its KNN graph, (when the
/// backend uses them) the GoldFinger fingerprints the graph was built
/// on, (when the builder persists it) the cluster cache that makes the
/// *next* build incremental, and (when the build recorded
/// one) the entry index that routes queries to their clusters.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// The user profiles the graph was built on.
    pub dataset: Dataset,
    /// The built KNN graph.
    pub graph: KnnGraph,
    /// The fingerprints backing query scoring (`None` for raw-Jaccard
    /// deployments).
    pub goldfinger: Option<GoldFinger>,
    /// The builder's persisted [`ClusterCache`] — the file's memberships
    /// over (a shared view of) `graph` — for v2 files that carry the
    /// MEMBERSHIPS section; `None` otherwise.
    pub cache: Option<ClusterCache>,
    /// The graph's [`EntryIndex`] (v2 files that carry the section;
    /// `None` otherwise — such a state serves from random seeds).
    pub entries: Option<EntryIndex>,
}

impl Snapshot {
    /// Bundles a serving state for persistence.
    ///
    /// # Panics
    /// Panics if the parts disagree on the user count — a snapshot must be
    /// internally consistent by construction; only *loading* returns
    /// errors.
    pub fn new(dataset: Dataset, graph: KnnGraph, goldfinger: Option<GoldFinger>) -> Self {
        assert_eq!(dataset.num_users(), graph.num_users(), "graph/dataset user mismatch");
        if let Some(gf) = &goldfinger {
            assert_eq!(gf.num_users(), dataset.num_users(), "fingerprints must cover the dataset");
        }
        Snapshot { dataset, graph, goldfinger, cache: None, entries: None }
    }

    /// Attaches the graph's entry index for persistence.
    ///
    /// # Panics
    /// Panics if the index names users the dataset does not have.
    pub fn with_entries(mut self, entries: EntryIndex) -> Self {
        assert!(
            entries.user_bound() <= self.dataset.num_users(),
            "entry index must be built on this dataset's users"
        );
        self.entries = Some(entries);
        self
    }

    /// Writes the snapshot to `path` **atomically** (see
    /// [`write_snapshot`]); returns the encoded size in bytes.
    pub fn write(&self, path: impl AsRef<Path>) -> Result<u64, SnapshotError> {
        write_snapshot_full(
            &self.dataset,
            &self.graph,
            self.goldfinger.as_ref(),
            self.cache.as_ref(),
            self.entries.as_ref(),
            path,
        )
    }

    /// Writes the snapshot to any sink; returns the encoded size in bytes.
    pub fn write_to<W: Write>(&self, out: &mut W) -> Result<u64, SnapshotError> {
        write_snapshot_parts_to(
            &self.dataset,
            &self.graph,
            self.goldfinger.as_ref(),
            self.cache.as_ref(),
            self.entries.as_ref(),
            out,
        )
    }

    /// Loads a snapshot from `path` — its cluster cache included — under
    /// the verdict rule of the module docs.
    pub fn load(path: impl AsRef<Path>) -> Result<Snapshot, SnapshotError> {
        Self::read_file(path.as_ref(), true)
    }

    /// Loads a snapshot from any source (see [`Snapshot::load`]), reading
    /// one section payload at a time in table order.
    pub fn load_from<R: Read>(input: &mut R) -> Result<Snapshot, SnapshotError> {
        read_snapshot(&mut Stream { input, len: None, at: 0, buf: Vec::new() }, true)
    }

    /// The copy path over a file, whose length bounds the table before
    /// any payload is read. `memberships` asks for the builder's cache.
    pub(crate) fn read_file(path: &Path, memberships: bool) -> Result<Snapshot, SnapshotError> {
        let telemetry = Telemetry::global();
        let start_ns = telemetry.stamp();
        Faults::global().inject_io(Site::SnapshotLoad, path_key(path))?;
        let file = File::open(path)?;
        let bytes = file.metadata()?.len();
        let input = BufReader::new(file);
        let snap = read_snapshot(
            &mut Stream { input, len: Some(bytes), at: 0, buf: Vec::new() },
            memberships,
        )?;
        telemetry.record_complete(
            "snapshot.load",
            start_ns,
            telemetry.stamp().saturating_sub(start_ns),
            vec![("bytes", bytes), ("users", snap.dataset.num_users() as u64)],
        );
        Ok(snap)
    }
}

/// Where a load path's bytes come from: a stream read front to back (the
/// copy loaders) or a whole mapped file (adoption, in [`crate::mmap`]).
pub(crate) trait Source {
    /// The file's length, when known before reading.
    fn len(&self) -> Option<u64>;
    /// The map the returned bytes may be borrowed from.
    fn map(&self) -> Option<Arc<Map>>;
    /// The `len` bytes at file offset `offset`. The walker asks in
    /// increasing, non-overlapping offset order.
    fn bytes(&mut self, offset: u64, len: u64) -> Result<&[u8], SnapshotError>;
}

/// The typed error of a file that ends before byte `end`.
pub(crate) fn truncated(end: u64) -> SnapshotError {
    SnapshotError::Io(io::Error::new(
        io::ErrorKind::UnexpectedEof,
        format!("snapshot ends before byte {end}"),
    ))
}

/// A snapshot streamed from a reader, one payload buffered at a time.
struct Stream<R> {
    input: R,
    len: Option<u64>,
    /// The input's position.
    at: u64,
    buf: Vec<u8>,
}

impl<R: Read> Source for Stream<R> {
    fn len(&self) -> Option<u64> {
        self.len
    }

    fn map(&self) -> Option<Arc<Map>> {
        None
    }

    fn bytes(&mut self, offset: u64, len: u64) -> Result<&[u8], SnapshotError> {
        assert!(offset >= self.at, "the walker reads in offset order");
        let gap = offset - self.at;
        let skipped = io::copy(&mut (&mut self.input).take(gap), &mut io::sink())?;
        // `take` bounds the read: an untrusted length sizes nothing.
        self.buf.clear();
        (&mut self.input).take(len).read_to_end(&mut self.buf)?;
        self.at = offset + self.buf.len() as u64;
        if skipped < gap || (self.buf.len() as u64) < len {
            return Err(truncated(offset + len));
        }
        Ok(&self.buf)
    }
}

/// The little-endian field at the start of `bytes`, which every caller
/// has checked is long enough.
fn le_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(*bytes.first_chunk().expect("a length-checked field"))
}

/// See [`le_u32`].
fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(*bytes.first_chunk().expect("a length-checked field"))
}

/// The one section-table walker behind every load path; the module docs
/// state the verdict it returns. `memberships` asks for the builder's
/// cluster cache — without it the MEMBERSHIPS payload is never read.
pub(crate) fn read_snapshot(
    src: &mut impl Source,
    memberships: bool,
) -> Result<Snapshot, SnapshotError> {
    let header = src.bytes(0, 16)?;
    let magic = *header.first_chunk::<8>().expect("a 16-byte header");
    if magic != MAGIC {
        return Err(SnapshotError::BadMagic(magic));
    }
    let version = le_u32(&header[8..]);
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let count = u64::from(le_u32(&header[12..]));

    // Ids are known and distinct, so the table never outgrows five rows.
    let mut table = Vec::new();
    let (mut end, mut seen) = (16 + 28 * count, 0u32);
    for row in 0..count {
        let row = src.bytes(16 + 28 * row, 28)?;
        let (id, offset, len) = (le_u32(row), le_u64(&row[4..]), le_u64(&row[12..]));
        let checksum = le_u64(&row[20..]);
        let corrupt = |what: String| Err(SnapshotError::Corrupt(format!("section {id} {what}")));
        if !matches!(
            id,
            SECTION_DATASET
                | SECTION_GRAPH
                | SECTION_GOLDFINGER
                | SECTION_ENTRIES
                | SECTION_MEMBERSHIPS
        ) {
            return Err(SnapshotError::Corrupt(format!("unknown section id {id}")));
        }
        if seen & (1 << id) != 0 {
            return Err(SnapshotError::Corrupt(format!("duplicate section {id}")));
        }
        seen |= 1 << id;
        if !offset.is_multiple_of(V2_ALIGN) {
            return corrupt(format!("offset {offset} is not {V2_ALIGN}-byte aligned"));
        }
        if offset < end {
            return corrupt("overlaps its predecessor".into());
        }
        let Some(next) = offset.checked_add(len) else {
            return corrupt(format!("length {len} overflows"));
        };
        end = next;
        table.push((id, offset, len, checksum));
    }
    // In offset order, the last payload ends last.
    if src.len().is_some_and(|file| end > file) {
        return Err(truncated(end));
    }

    let map = src.map();
    let map = map.as_ref();
    let (mut dataset, mut graph, mut goldfinger) = (None, None, None);
    // Assembled once the dataset they are checked against is in.
    let (mut entries, mut cache) = (None, None);
    for (id, offset, len, checksum) in table {
        if id == SECTION_MEMBERSHIPS && !memberships {
            continue;
        }
        let payload = src.bytes(offset, len)?;
        if checksum64(payload) != checksum {
            return Err(SnapshotError::ChecksumMismatch { section: id });
        }
        match id {
            SECTION_DATASET => dataset = Some(read_dataset(payload, map)?),
            SECTION_GRAPH => graph = Some(read_graph(payload, map)?),
            SECTION_GOLDFINGER => goldfinger = Some(read_goldfinger(payload, map)?),
            SECTION_ENTRIES => entries = Some(read_entries(payload, map)?),
            _ => cache = Some(read_memberships(payload)?),
        }
    }

    let dataset = dataset.ok_or(SnapshotError::MissingSection("dataset"))?;
    let graph = graph.ok_or(SnapshotError::MissingSection("graph"))?;
    cross_validate(&dataset, &graph, goldfinger.as_ref())?;
    // The cache shares the graph's entries instead of copying them.
    let graph = if cache.is_some() { graph.into_shared() } else { graph };
    let cache = cache.map(|cache| cache(&dataset, graph.clone())).transpose()?;
    let entries = entries.map(|index| index(dataset.num_users())).transpose()?;
    Ok(Snapshot { dataset, graph, goldfinger, cache, entries })
}

/// The cheap cross-section consistency checks (per-edge range checks live
/// with the graph's constructor).
fn cross_validate(
    dataset: &Dataset,
    graph: &KnnGraph,
    goldfinger: Option<&GoldFinger>,
) -> Result<(), SnapshotError> {
    if graph.num_users() != dataset.num_users() {
        return Err(SnapshotError::Corrupt(format!(
            "graph covers {} users, dataset {}",
            graph.num_users(),
            dataset.num_users()
        )));
    }
    if let Some(gf) = goldfinger {
        if gf.num_users() != dataset.num_users() {
            return Err(SnapshotError::Corrupt(format!(
                "fingerprints cover {} users, dataset {}",
                gf.num_users(),
                dataset.num_users()
            )));
        }
    }
    Ok(())
}

/// Streams one serving state to a sink from **borrowed** parts — the
/// encoding core shared by [`Snapshot::write_to`] and
/// `ServingEngine::write_snapshot`, which must not deep-clone an epoch
/// (dataset + graph + fingerprint words) just to persist it. Writes
/// format v2 (see the module docs); returns the encoded size in bytes.
///
/// # Panics
/// Panics if the parts disagree on the user count (same contract as
/// [`Snapshot::new`]).
pub fn write_snapshot_parts_to<W: Write>(
    dataset: &Dataset,
    graph: &KnnGraph,
    goldfinger: Option<&GoldFinger>,
    cache: Option<&ClusterCache>,
    entries: Option<&EntryIndex>,
    out: &mut W,
) -> Result<u64, SnapshotError> {
    assert_eq!(dataset.num_users(), graph.num_users(), "graph/dataset user mismatch");
    if let Some(gf) = goldfinger {
        assert_eq!(gf.num_users(), dataset.num_users(), "fingerprints must cover the dataset");
    }
    let mut sections: Vec<(u32, Vec<u8>)> = Vec::with_capacity(4);
    sections.push((SECTION_DATASET, encode_dataset_v2(dataset)));
    sections.push((SECTION_GRAPH, encode_graph_v2(graph)));
    if let Some(gf) = goldfinger {
        sections.push((SECTION_GOLDFINGER, encode_goldfinger_v2(gf)));
    }
    // An index that routes nowhere is what a missing section loads as.
    if let Some(entries) = entries.filter(|e| !e.is_empty()) {
        assert!(
            entries.user_bound() <= dataset.num_users(),
            "entry index must be built on this dataset's users"
        );
        sections.push((SECTION_ENTRIES, encode_entries_v2(entries)));
    }
    // Memberships are only meaningful beside the graph they were captured
    // with: entry-for-entry equality, O(n·k), small next to the write.
    let captured_with = |cache: &&ClusterCache| {
        let theirs = cache.graph();
        theirs.k() == graph.k()
            && theirs.num_users() == graph.num_users()
            && theirs.iter().zip(graph.iter()).all(|((_, a), (_, b))| a.as_slice() == b.as_slice())
    };
    if let Some(cache) = cache.filter(captured_with) {
        sections.push((SECTION_MEMBERSHIPS, encode_memberships(cache)));
    }

    out.write_all(&MAGIC)?;
    out.write_all(&VERSION.to_le_bytes())?;
    out.write_all(&(sections.len() as u32).to_le_bytes())?;
    // Lay payloads out in table order, each at the next 64-byte-aligned
    // file offset.
    let mut at = 16 + 28 * sections.len() as u64;
    let mut offsets = Vec::with_capacity(sections.len());
    for (id, payload) in &sections {
        let offset = at.next_multiple_of(V2_ALIGN);
        offsets.push(offset);
        out.write_all(&id.to_le_bytes())?;
        out.write_all(&offset.to_le_bytes())?;
        out.write_all(&(payload.len() as u64).to_le_bytes())?;
        out.write_all(&checksum64(payload).to_le_bytes())?;
        at = offset + payload.len() as u64;
    }
    let mut written = 16 + 28 * sections.len() as u64;
    for ((_, payload), offset) in sections.iter().zip(offsets) {
        const ZEROS: [u8; V2_ALIGN as usize] = [0; V2_ALIGN as usize];
        out.write_all(&ZEROS[..(offset - written) as usize])?;
        out.write_all(payload)?;
        written = offset + payload.len() as u64;
    }
    Ok(written)
}

/// **Atomic** snapshot-to-file write from borrowed parts: the bytes go to
/// a sibling temp file, are fsynced, and are renamed over `path` in one
/// step — a crash or full disk mid-write never clobbers a previous good
/// snapshot at `path` (the multi-process serving story depends on
/// published files always being loadable). Returns the encoded size.
///
/// Before writing, stale `.tmp-*` siblings of `path` left by a writer
/// *process that no longer exists* — the droppings of a crash between
/// write and rename — are swept. Temps of live writers (this process, or
/// another still-running one) are left alone, so concurrent writers to
/// one path stay independent: per-call unique temp names and the atomic
/// rename guarantee the destination is always a complete snapshot.
/// Same-process crash litter is collected by directory maintenance
/// instead ([`sweep_temp_files`], which
/// [`SnapshotPublisher::open`](crate::SnapshotPublisher::open) runs).
pub fn write_snapshot(
    dataset: &Dataset,
    graph: &KnnGraph,
    goldfinger: Option<&GoldFinger>,
    path: impl AsRef<Path>,
) -> Result<u64, SnapshotError> {
    write_snapshot_full(dataset, graph, goldfinger, None, None, path)
}

/// [`write_snapshot`] with a builder's [`ClusterCache`] (its memberships;
/// the graph section is its other half) and the graph's [`EntryIndex`]
/// persisted alongside the serving state, one flat section each; see the
/// module docs.
pub fn write_snapshot_full(
    dataset: &Dataset,
    graph: &KnnGraph,
    goldfinger: Option<&GoldFinger>,
    cache: Option<&ClusterCache>,
    entries: Option<&EntryIndex>,
    path: impl AsRef<Path>,
) -> Result<u64, SnapshotError> {
    // The temp name must be unique per *call*, not just per process: two
    // engine threads snapshotting to the same path would otherwise
    // interleave writes in one temp file and rename garbage over a good
    // snapshot — exactly what the atomic rename exists to prevent.
    static WRITE_COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let path = path.as_ref();
    let _ = sweep_sibling_temps(path);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".tmp-{}-{}",
        std::process::id(),
        WRITE_COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let tmp = PathBuf::from(tmp);
    let telemetry = Telemetry::global();
    let start_ns = telemetry.stamp();
    // `Fault::Crash` models a writer killed between temp-file write and
    // rename: the temp file stays on disk (the cleanup below is skipped)
    // and the caller sees an error — exactly the litter `sweep_*` exists
    // to collect.
    let mut simulated_crash = false;
    let result = (|| {
        let mut out = BufWriter::new(File::create(&tmp)?);
        let bytes = write_snapshot_parts_to(dataset, graph, goldfinger, cache, entries, &mut out)?;
        out.flush()?;
        out.get_ref().sync_all()?;
        drop(out);
        match Faults::global().inject(Site::SnapshotWrite, path_key(path)) {
            Some(Fault::Crash) => {
                simulated_crash = true;
                return Err(SnapshotError::Io(io::Error::other(
                    "injected crash between temp write and rename at snapshot.write",
                )));
            }
            Some(_) => return Err(SnapshotError::Io(injected_io_error(Site::SnapshotWrite))),
            None => {}
        }
        fs::rename(&tmp, path)?;
        Ok(bytes)
    })();
    if let Ok(bytes) = &result {
        telemetry.record_complete(
            "snapshot.write",
            start_ns,
            telemetry.stamp().saturating_sub(start_ns),
            vec![("bytes", *bytes), ("users", dataset.num_users() as u64)],
        );
    }
    if result.is_err() && !simulated_crash {
        // Best effort: never leave a half-written temp file behind.
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// The fault-registry key of a snapshot path (stable across retries of
/// the same file).
pub(crate) fn path_key(path: &Path) -> u64 {
    cnc_core::build_plan::fnv1a(path.as_os_str().as_encoded_bytes())
}

/// Removes stale `.tmp-*` siblings of `path` left by a writer *process*
/// that died between temp write and rename; returns how many were swept.
/// A temp is only condemned when its embedded pid provably names a dead
/// process — the current process and still-running peers keep their
/// in-flight temps (racing writers must never sweep each other).
fn sweep_sibling_temps(path: &Path) -> io::Result<usize> {
    let (Some(dir), Some(name)) = (path.parent(), path.file_name()) else {
        return Ok(0);
    };
    let prefix = format!("{}.tmp-", name.to_string_lossy());
    let mut swept = 0;
    for entry in fs::read_dir(if dir.as_os_str().is_empty() { Path::new(".") } else { dir })? {
        let entry = entry?;
        let file_name = entry.file_name();
        let Some(suffix) = file_name.to_string_lossy().strip_prefix(&prefix).map(str::to_owned)
        else {
            continue;
        };
        if temp_writer_is_dead(&suffix) && fs::remove_file(entry.path()).is_ok() {
            swept += 1;
        }
    }
    Ok(swept)
}

/// Whether the `<pid>-<counter>` tail of a temp name belongs to a writer
/// process that no longer exists. Unparseable tails count as dead (they
/// are not our in-flight naming scheme). Liveness comes from `/proc`;
/// where that is unavailable any other-process temp counts as dead.
fn temp_writer_is_dead(suffix: &str) -> bool {
    let Some(pid) = suffix.split('-').next().and_then(|p| p.parse::<u32>().ok()) else {
        return true;
    };
    pid != std::process::id() && !Path::new("/proc").join(pid.to_string()).exists()
}

/// Sweeps **every** stale snapshot temp file (`*.tmp-*`) in `dir`,
/// whatever path it was headed for; returns how many were removed. Run
/// when taking over a snapshot directory — after a crash, before serving
/// from it — so dead writers' litter does not accumulate.
pub fn sweep_temp_files(dir: impl AsRef<Path>) -> io::Result<usize> {
    let mut swept = 0;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        if name.to_string_lossy().contains(".tmp-")
            && entry.file_type().map(|t| t.is_file()).unwrap_or(false)
            && fs::remove_file(entry.path()).is_ok()
        {
            swept += 1;
        }
    }
    Ok(swept)
}

/// Moves a snapshot that failed validation aside as
/// `<name>.quarantine-<pid>-<n>`, so the adopter's directory scan
/// ([`SnapshotAdopter::poll`](crate::SnapshotAdopter::poll)) never re-reads it and an operator can post-mortem the bytes; returns
/// the quarantine path. Counted in `cnc_quarantined_snapshots_total`.
pub fn quarantine_snapshot(path: impl AsRef<Path>) -> io::Result<PathBuf> {
    static QUARANTINE_COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let path = path.as_ref();
    let mut target = path.as_os_str().to_owned();
    target.push(format!(
        ".quarantine-{}-{}",
        std::process::id(),
        QUARANTINE_COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let target = PathBuf::from(target);
    fs::rename(path, &target)?;
    let telemetry = Telemetry::global();
    if telemetry.enabled() {
        telemetry.counter("cnc_quarantined_snapshots_total", &[]).inc();
    }
    Ok(target)
}

/// Largest neighbourhood bound a snapshot may declare: an untrusted `k`
/// is bounded before anything is sized from it. The paper runs k ≤ 64;
/// 65 536 leaves two orders of magnitude of headroom.
const MAX_K: usize = 1 << 16;

// ---------------------------------------------------------------------
// Format v2 sections. Each reader checks a verified payload's geometry —
// untrusted counts must account for its length exactly before anything
// is sliced or sized from them — and hands every array to the one
// materializer (`crate::mmap::array`), which borrows it from a map or
// decodes an owned copy. Structural invariants are the validated
// constructors' job.
// ---------------------------------------------------------------------

/// The two arrays after a CSR section's 16-byte header (whose first field
/// is `num_users u64`): `num_users + 1` `u64` offsets, then
/// `offsets[num_users]` elements of `width` bytes, filling the section.
fn csr_arrays<'a>(
    payload: &'a [u8],
    what: &str,
    width: usize,
) -> Result<(&'a [u8], &'a [u8]), SnapshotError> {
    let corrupt = |how: &str| SnapshotError::Corrupt(format!("{what} {how}"));
    if payload.len() < 16 {
        return Err(corrupt("section shorter than its header"));
    }
    let offsets_len = usize::try_from(le_u64(payload))
        .ok()
        .and_then(|n| n.checked_add(1)?.checked_mul(8))
        .filter(|&n| n <= payload.len() - 16)
        .ok_or_else(|| corrupt("offsets overrun the section"))?;
    let (offsets, rest) = payload[16..].split_at(offsets_len);
    let count = usize::try_from(le_u64(&offsets[offsets_len - 8..])).ok();
    if count.and_then(|n| n.checked_mul(width)) != Some(rest.len()) {
        return Err(corrupt("arrays do not fill the section exactly"));
    }
    Ok((offsets, rest))
}

fn read_dataset(payload: &[u8], map: Option<&Arc<Map>>) -> Result<Dataset, SnapshotError> {
    let (offsets, items) = csr_arrays(payload, "dataset", 4)?;
    Dataset::from_csr_storage(array(offsets, map), array(items, map), le_u32(&payload[8..]))
        .map_err(SnapshotError::Corrupt)
}

fn read_graph(payload: &[u8], map: Option<&Arc<Map>>) -> Result<KnnGraph, SnapshotError> {
    let (offsets, entries) = csr_arrays(payload, "graph", 8)?;
    let k = le_u32(&payload[8..]) as usize;
    if k == 0 || k > MAX_K {
        return Err(SnapshotError::Corrupt(format!(
            "graph bound k = {k} outside the sane range 1..={MAX_K}"
        )));
    }
    KnnGraph::from_csr_storage(k, array(offsets, map), array(entries, map))
        .map_err(SnapshotError::Corrupt)
}

fn read_goldfinger(payload: &[u8], map: Option<&Arc<Map>>) -> Result<GoldFinger, SnapshotError> {
    if payload.len() < 24 {
        return Err(SnapshotError::Corrupt("goldfinger section shorter than its header".into()));
    }
    let bits = le_u32(payload) as usize;
    if bits == 0 || !bits.is_multiple_of(64) {
        return Err(SnapshotError::Corrupt(format!(
            "fingerprint width {bits} is not a positive multiple of 64"
        )));
    }
    let words = &payload[24..];
    let num_users = usize::try_from(le_u64(&payload[16..])).ok();
    if num_users.and_then(|n| n.checked_mul(bits / 8)) != Some(words.len()) {
        return Err(SnapshotError::Corrupt(
            "fingerprint words do not fill the section exactly".into(),
        ));
    }
    GoldFinger::from_storage(array(words, map), bits, le_u64(&payload[8..]))
        .map_err(SnapshotError::Corrupt)
}

fn encode_dataset_v2(ds: &Dataset) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + 8 * (ds.num_users() + 1) + 4 * ds.num_ratings());
    out.extend_from_slice(&(ds.num_users() as u64).to_le_bytes());
    out.extend_from_slice(&(ds.num_items() as u32).to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    for &off in ds.offsets() {
        out.extend_from_slice(&(off as u64).to_le_bytes());
    }
    for &item in ds.items() {
        out.extend_from_slice(&item.to_le_bytes());
    }
    out
}

fn encode_graph_v2(graph: &KnnGraph) -> Vec<u8> {
    let n = graph.num_users();
    let mut out = Vec::with_capacity(16 + 8 * (n + 1) + 8 * graph.num_edges());
    out.extend_from_slice(&(n as u64).to_le_bytes());
    out.extend_from_slice(&(graph.k() as u32).to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    let mut at = 0u64;
    out.extend_from_slice(&at.to_le_bytes());
    for (_, list) in graph.iter() {
        at += list.len() as u64;
        out.extend_from_slice(&at.to_le_bytes());
    }
    for (_, list) in graph.iter() {
        // Heap (iter) order, so both load paths expose the identical
        // in-memory layout.
        for n in list.iter() {
            out.extend_from_slice(&n.user.to_le_bytes());
            out.extend_from_slice(&n.sim.to_bits().to_le_bytes());
        }
    }
    out
}

fn encode_goldfinger_v2(gf: &GoldFinger) -> Vec<u8> {
    let mut out = Vec::with_capacity(24 + 8 * gf.words().len());
    out.extend_from_slice(&(gf.bits() as u32).to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(&gf.seed().to_le_bytes());
    out.extend_from_slice(&(gf.num_users() as u64).to_le_bytes());
    for &word in gf.words() {
        out.extend_from_slice(&word.to_le_bytes());
    }
    out
}

const ENTRIES_HEADER: usize = 32;

/// Materializes an ENTRIES section's arrays; the returned assembly
/// validates them once the dataset's user count is known.
fn read_entries(
    payload: &[u8],
    map: Option<&Arc<Map>>,
) -> Result<impl FnOnce(usize) -> Result<EntryIndex, SnapshotError>, SnapshotError> {
    if payload.len() < ENTRIES_HEADER {
        return Err(SnapshotError::Corrupt("entries section shorter than its header".into()));
    }
    let functions = le_u32(&payload[4..]) as usize;
    let count = |at: usize| usize::try_from(le_u64(&payload[at..])).ok();
    let (clusters, routes, members) = (count(8), count(16), count(24));
    // Array byte lengths in file order: seeds, keys, offsets, targets,
    // members.
    let lens = [
        functions.checked_mul(8),
        routes.and_then(|n| n.checked_mul(8)),
        clusters.and_then(|n| n.checked_add(1)?.checked_mul(4)),
        routes.and_then(|n| n.checked_mul(4)),
        members.and_then(|n| n.checked_mul(4)),
    ];
    let mut arrays = [&payload[..0]; 5];
    let mut at = ENTRIES_HEADER;
    for (bytes, len) in arrays.iter_mut().zip(lens) {
        let end = len
            .and_then(|len| at.checked_add(len))
            .filter(|&end| end <= payload.len())
            .ok_or_else(|| SnapshotError::Corrupt("entries arrays overrun the section".into()))?;
        *bytes = &payload[at..end];
        at = end;
    }
    if at != payload.len() {
        return Err(SnapshotError::Corrupt(
            "entries arrays do not fill the section exactly".into(),
        ));
    }
    let (b, [seeds, keys, offsets, targets, members]) = (le_u32(payload), arrays);
    let seeds = decode(seeds);
    let (keys, targets) = (array(keys, map), array(targets, map));
    let (offsets, members) = (array(offsets, map), array(members, map));
    Ok(move |num_users| {
        EntryIndex::from_storage(b, seeds, keys, targets, offsets, members, num_users)
            .map_err(|reason| SnapshotError::Corrupt(format!("entry index: {reason}")))
    })
}

fn encode_entries_v2(entries: &EntryIndex) -> Vec<u8> {
    let wide = entries.seeds().len() + entries.keys().len();
    let half = entries.offsets().len() + entries.targets().len() + entries.members().len();
    let mut out = Vec::with_capacity(ENTRIES_HEADER + 8 * wide + 4 * half);
    out.extend_from_slice(&entries.b().to_le_bytes());
    out.extend_from_slice(&(entries.seeds().len() as u32).to_le_bytes());
    out.extend_from_slice(&(entries.num_clusters() as u64).to_le_bytes());
    out.extend_from_slice(&(entries.keys().len() as u64).to_le_bytes());
    out.extend_from_slice(&(entries.members().len() as u64).to_le_bytes());
    for &word in entries.seeds().iter().chain(entries.keys()) {
        out.extend_from_slice(&word.to_le_bytes());
    }
    for &half in entries.offsets().iter().chain(entries.targets()).chain(entries.members()) {
        out.extend_from_slice(&half.to_le_bytes());
    }
    out
}

/// Bytes before the MEMBERSHIPS section's arrays: the config token and
/// the cluster and member counts.
const MEMBERSHIPS_HEADER: usize = 24;

fn encode_memberships(cache: &ClusterCache) -> Vec<u8> {
    let half = cache.offsets().len() + cache.members().len();
    let mut out = Vec::with_capacity(MEMBERSHIPS_HEADER + 4 * half);
    out.extend_from_slice(&cache.config_token().to_le_bytes());
    out.extend_from_slice(&(cache.len() as u64).to_le_bytes());
    out.extend_from_slice(&(cache.members().len() as u64).to_le_bytes());
    for &half in cache.offsets().iter().chain(cache.members()) {
        out.extend_from_slice(&half.to_le_bytes());
    }
    out
}

/// Decodes a MEMBERSHIPS section; the returned assembly pairs it with the
/// file's dataset and graph, where [`ClusterCache::from_parts`] checks the
/// offsets and every member id against the dataset's user count.
fn read_memberships(
    payload: &[u8],
) -> Result<impl FnOnce(&Dataset, KnnGraph) -> Result<ClusterCache, SnapshotError>, SnapshotError> {
    let corrupt = |what: String| SnapshotError::Corrupt(format!("memberships section: {what}"));
    if payload.len() < MEMBERSHIPS_HEADER {
        return Err(corrupt("shorter than its header".into()));
    }
    let (token, clusters, members) =
        (le_u64(payload), le_u64(&payload[8..]), le_u64(&payload[16..]));
    let expected = clusters
        .checked_add(members)
        .and_then(|halves| halves.checked_mul(4))
        .and_then(|bytes| bytes.checked_add(MEMBERSHIPS_HEADER as u64 + 4));
    if expected != Some(payload.len() as u64) {
        return Err(corrupt(format!(
            "{clusters} clusters and {members} members do not account for {} bytes",
            payload.len()
        )));
    }
    let (offsets, members) = payload[MEMBERSHIPS_HEADER..].split_at(4 * (clusters as usize + 1));
    let (offsets, members) = (decode(offsets), decode(members));
    Ok(move |dataset: &Dataset, graph| {
        ClusterCache::from_parts(token, offsets, members, dataset, graph).map_err(corrupt)
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cnc_baselines::{BruteForce, BuildContext, KnnAlgorithm};
    use cnc_dataset::SyntheticConfig;
    use cnc_similarity::{SimilarityBackend, SimilarityData};

    pub(crate) fn build(seed: u64) -> Snapshot {
        let mut cfg = SyntheticConfig::small(seed);
        cfg.num_users = 150;
        cfg.num_items = 120;
        cfg.mean_profile = 12.0;
        cfg.min_profile = 4;
        let ds = cfg.generate();
        let gf = GoldFinger::build(&ds, 1024, 77);
        let sim =
            SimilarityData::build(SimilarityBackend::GoldFinger { bits: 1024, seed: 77 }, &ds);
        let ctx = BuildContext { dataset: &ds, sim: &sim, k: 8, threads: 0, seed: 3 };
        let graph = BruteForce.build(&ctx);
        Snapshot::new(ds, graph, Some(gf))
    }

    fn round_trip(snap: &Snapshot) -> Snapshot {
        let mut buf = Vec::new();
        let bytes = snap.write_to(&mut buf).unwrap();
        assert_eq!(bytes as usize, buf.len(), "write_to must report the encoded size");
        Snapshot::load_from(&mut buf.as_slice()).unwrap()
    }

    /// Bit-exact equality, including the neighbour lists' heap layout.
    fn assert_identical(a: &Snapshot, b: &Snapshot) {
        assert_eq!(a.dataset, b.dataset);
        assert_eq!(a.graph.num_users(), b.graph.num_users());
        assert_eq!(a.graph.k(), b.graph.k());
        for (u, list) in a.graph.iter() {
            let theirs = b.graph.neighbors(u);
            let mine: Vec<(u32, u32)> = list.iter().map(|n| (n.user, n.sim.to_bits())).collect();
            let got: Vec<(u32, u32)> = theirs.iter().map(|n| (n.user, n.sim.to_bits())).collect();
            assert_eq!(mine, got, "user {u} list layout differs");
        }
        match (&a.goldfinger, &b.goldfinger) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                assert_eq!(x.words(), y.words());
                assert_eq!((x.bits(), x.seed()), (y.bits(), y.seed()));
            }
            _ => panic!("fingerprint presence differs"),
        }
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let snap = build(21);
        assert_identical(&snap, &round_trip(&snap));
    }

    #[test]
    fn round_trip_without_fingerprints() {
        let mut snap = build(22);
        snap.goldfinger = None;
        assert_identical(&snap, &round_trip(&snap));
    }

    #[test]
    fn empty_dataset_round_trips() {
        let snap = Snapshot::new(Dataset::from_profiles(vec![], 0), KnnGraph::new(0, 3), None);
        let back = round_trip(&snap);
        assert_eq!(back.dataset.num_users(), 0);
        assert_eq!(back.graph.num_users(), 0);
        assert_eq!(back.graph.k(), 3);
    }

    #[test]
    fn file_round_trip_works() {
        let _calm = crate::no_faults();
        let snap = build(23);
        let path = std::env::temp_dir().join(format!("cnc-snap-test-{}.bin", std::process::id()));
        let bytes = snap.write(&path).unwrap();
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());
        let back = Snapshot::load(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_identical(&snap, &back);
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp_files() {
        let _calm = crate::no_faults();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("cnc-snap-atomic-{}.bin", std::process::id()));
        let first = build(31);
        let second = build(32);
        first.write(&path).unwrap();
        second.write(&path).unwrap();
        let loaded = Snapshot::load(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_identical(&second, &loaded);
        // Every sibling temp file must be gone after the renames.
        let prefix = format!("cnc-snap-atomic-{}.bin.tmp-", std::process::id());
        let leaked: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(&prefix))
            .collect();
        assert!(leaked.is_empty(), "temp files leaked: {leaked:?}");
    }

    #[test]
    fn failed_write_reports_io_and_cleans_up() {
        let _calm = crate::no_faults();
        let snap = build(33);
        let missing_dir =
            std::env::temp_dir().join(format!("cnc-no-such-dir-{}", std::process::id()));
        match snap.write(missing_dir.join("x.snap")) {
            Err(SnapshotError::Io(_)) => {}
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn borrowed_writer_matches_the_owned_one() {
        let _calm = crate::no_faults();
        let snap = build(34);
        let mut owned = Vec::new();
        snap.write_to(&mut owned).unwrap();
        let mut borrowed = Vec::new();
        let gf = snap.goldfinger.as_ref();
        write_snapshot_parts_to(&snap.dataset, &snap.graph, gf, None, None, &mut borrowed).unwrap();
        assert_eq!(owned, borrowed, "the two writers must produce identical bytes");
    }

    #[test]
    fn bad_magic_is_rejected() {
        let _calm = crate::no_faults();
        let mut buf = Vec::new();
        build(24).write_to(&mut buf).unwrap();
        buf[0] = b'X';
        match Snapshot::load_from(&mut buf.as_slice()) {
            Err(SnapshotError::BadMagic(_)) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn version_skew_is_rejected() {
        let _calm = crate::no_faults();
        let mut buf = Vec::new();
        build(25).write_to(&mut buf).unwrap();
        buf[8..12].copy_from_slice(&3u32.to_le_bytes());
        match Snapshot::load_from(&mut buf.as_slice()) {
            Err(SnapshotError::UnsupportedVersion(3)) => {}
            other => panic!("expected UnsupportedVersion(3), got {other:?}"),
        }
    }

    #[test]
    fn every_truncation_point_errors_without_panicking() {
        let _calm = crate::no_faults();
        let mut buf = Vec::new();
        build(26).write_to(&mut buf).unwrap();
        // Sample truncation points across header, table and payloads.
        for cut in [0, 4, 12, 20, 40, buf.len() / 2, buf.len() - 1] {
            match Snapshot::load_from(&mut buf[..cut].to_vec().as_slice()) {
                Err(_) => {}
                Ok(_) => panic!("truncation at {cut} bytes loaded successfully"),
            }
        }
    }

    #[test]
    fn payload_corruption_fails_the_checksum() {
        let _calm = crate::no_faults();
        let mut buf = Vec::new();
        build(27).write_to(&mut buf).unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x40;
        match Snapshot::load_from(&mut buf.as_slice()) {
            Err(SnapshotError::ChecksumMismatch { .. }) => {}
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
    }

    #[test]
    fn missing_sections_are_reported() {
        let _calm = crate::no_faults();
        // A syntactically valid snapshot with zero sections.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        match Snapshot::load_from(&mut buf.as_slice()) {
            Err(SnapshotError::MissingSection("dataset")) => {}
            other => panic!("expected MissingSection(dataset), got {other:?}"),
        }
    }

    #[test]
    fn error_display_is_informative() {
        let errors = [
            SnapshotError::BadMagic(*b"NOTASNAP"),
            SnapshotError::UnsupportedVersion(9),
            SnapshotError::ChecksumMismatch { section: 2 },
            SnapshotError::Corrupt("x".into()),
            SnapshotError::MissingSection("graph"),
            SnapshotError::Io(io::Error::new(io::ErrorKind::UnexpectedEof, "cut")),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "graph/dataset user mismatch")]
    fn inconsistent_parts_cannot_be_bundled() {
        Snapshot::new(Dataset::from_profiles(vec![vec![1]], 0), KnnGraph::new(5, 2), None);
    }

    fn temp_files(dir: &Path) -> Vec<PathBuf> {
        fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
            .map(|e| e.path())
            .collect()
    }

    pub(crate) fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cnc-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crash_between_write_and_rename_preserves_the_old_snapshot() {
        let _serial = crate::fault_lock();
        let dir = fresh_dir("snap-crash");
        let path = dir.join("epoch.snap");
        let first = build(41);
        let second = build(42);
        first.write(&path).unwrap();

        // p = 1, span 12: the path's write site fails up to 12 times,
        // alternating clean I/O errors with crashes (temp file left
        // behind, no rename). 16 retries always outlast the budget.
        // The schedule is keyed by the path, which names this process:
        // take the first seed whose draws for it include a crash.
        let faults = Faults::global();
        let key = path_key(&path);
        let plan = (90210u64..)
            .map(|seed| {
                cnc_faults::FaultPlan::new(seed, 1.0).only(&[Site::SnapshotWrite]).with_span(12)
            })
            .find(|plan| {
                let _dry_run = faults.arm(*plan);
                std::iter::from_fn(|| faults.inject(Site::SnapshotWrite, key))
                    .any(|kind| kind == Fault::Crash)
            })
            .expect("some seed crashes this path");
        let _guard = faults.arm(plan);
        let mut crashed = false;
        let mut published = false;
        for _ in 0..16 {
            match second.write(&path) {
                Ok(_) => {
                    published = true;
                    break;
                }
                Err(SnapshotError::Io(_)) => {
                    if !temp_files(&dir).is_empty() {
                        crashed = true;
                    }
                    // The published file must stay the old snapshot,
                    // intact, through every failure mode.
                    assert_identical(&first, &Snapshot::load(&path).unwrap());
                }
                Err(other) => panic!("unexpected error: {other:?}"),
            }
        }
        assert!(crashed, "the chosen schedule draws a crash");
        assert!(published, "bounded retries must outlast the fault budget");
        assert_identical(&second, &Snapshot::load(&path).unwrap());
        // Crash litter carries this (live) process's pid, so the publish
        // leaves it alone; directory maintenance collects it instead.
        assert!(!temp_files(&dir).is_empty(), "the schedule left no crash litter to sweep");
        sweep_temp_files(&dir).unwrap();
        assert!(temp_files(&dir).is_empty(), "directory maintenance must sweep crash litter");
        fs::remove_dir_all(&dir).unwrap();
    }
}
