//! Seeded mutation fuzzer over the snapshot readers.
//!
//! The corpus is what the writers produce: GoldFinger-1024 and raw-Jaccard
//! engine snapshots (`ServingEngine::write_snapshot`, ENTRIES and
//! MEMBERSHIPS included) and an epoch-only one (`Snapshot::write`). Every
//! file is mutated in a fixed, seeded set of ways — bit flips in the
//! header, the table and each payload; truncation around every section
//! boundary; lying counts and lengths in every section header and table
//! row with the checksum resealed; swapped, duplicated and reordered table
//! rows — and every mutation is loaded through every path. Each must:
//!
//! * never panic;
//! * get one verdict from `AdoptedSnapshot::open` and `load_copied` — the
//!   same error kind, or bit-equal content — with and without the
//!   `snapshot.mmap` fault armed;
//! * get that verdict from `Snapshot::load_from` too, whenever the
//!   mutation leaves the MEMBERSHIPS section (which only it reads) alone;
//! * never hold more than 4 × the file length + 1 MiB of heap during one
//!   load, as counted by this binary's own allocator.

use cluster_and_conquer::prelude::*;
use cluster_and_conquer::serve::snapshot::VERSION;
use cluster_and_conquer::serve::{checksum64, AdoptedSnapshot, SnapshotError};
use cnc_faults::Site;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The system allocator, counting the current thread's live heap bytes
/// and their high-water mark.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn account(delta: isize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the wrapper
// only updates thread-local counters, which allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `alloc`, passed through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            account(layout.size() as isize);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            account(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) };
        account(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            // Both blocks may be live at once while the bytes move.
            account(new_size as isize);
            account(-(layout.size() as isize));
        }
        new
    }
}

#[global_allocator]
static HEAP: Counting = Counting;

/// Runs `load`; returns its result and the most heap it held at once.
fn peak_heap<T>(load: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let out = load();
    (out, (PEAK.with(Cell::get) - base) as usize)
}

/// What a load path made of one file: an error kind, or the loaded
/// state's canonical encoding (the writer's bytes, which carry every
/// profile, neighbour heap slot, similarity bit, fingerprint word and
/// entry-index array).
#[derive(PartialEq)]
enum Verdict {
    Loaded(Vec<u8>),
    Refused(String),
}

impl std::fmt::Debug for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Loaded(bytes) => {
                write!(f, "Loaded({} bytes, checksum {:#x})", bytes.len(), checksum64(bytes))
            }
            Verdict::Refused(kind) => write!(f, "Refused({kind})"),
        }
    }
}

fn refused(error: SnapshotError) -> Verdict {
    Verdict::Refused(match error {
        SnapshotError::Io(e) => format!("Io({:?})", e.kind()),
        SnapshotError::BadMagic(_) => "BadMagic".into(),
        SnapshotError::UnsupportedVersion(v) => format!("UnsupportedVersion({v})"),
        SnapshotError::ChecksumMismatch { section } => format!("ChecksumMismatch({section})"),
        SnapshotError::Corrupt(_) => "Corrupt".into(),
        SnapshotError::MissingSection(name) => format!("MissingSection({name})"),
    })
}

/// The serving state a load produced, re-encoded without the builder's
/// cache (which only `Snapshot::load*` restores).
fn loaded(snapshot: Snapshot) -> Verdict {
    let mut bytes = Vec::new();
    Snapshot { cache: None, ..snapshot }.write_to(&mut bytes).unwrap();
    Verdict::Loaded(bytes)
}

/// An adoption's verdict and whether it came off the map.
fn adoption(result: Result<AdoptedSnapshot, SnapshotError>) -> (Verdict, bool) {
    match result {
        Ok(AdoptedSnapshot { dataset, graph, goldfinger, entries, mapped }) => {
            (loaded(Snapshot { dataset, graph, goldfinger, cache: None, entries }), mapped)
        }
        Err(e) => (refused(e), false),
    }
}

/// One row of a section table: its id, payload range and file
/// position.
#[derive(Clone, Copy)]
struct Row {
    id: u32,
    offset: usize,
    len: usize,
    at: usize,
}

fn le_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

fn table(file: &[u8]) -> Vec<Row> {
    let count = u32::from_le_bytes(file[12..16].try_into().unwrap()) as usize;
    (0..count)
        .map(|i| {
            let at = 16 + 28 * i;
            let id = u32::from_le_bytes(file[at..at + 4].try_into().unwrap());
            Row {
                id,
                offset: le_u64(file, at + 4) as usize,
                len: le_u64(file, at + 12) as usize,
                at,
            }
        })
        .collect()
}

/// Rewrites a row's checksum to match whatever its range now covers
/// (a buggy or hostile writer), when that range lies inside the file.
fn reseal(file: &mut [u8], row: usize) {
    let at = 16 + 28 * row;
    let (offset, len) = (le_u64(file, at + 4), le_u64(file, at + 12));
    let range = usize::try_from(offset)
        .ok()
        .zip(usize::try_from(len).ok())
        .and_then(|(offset, len)| Some(offset..offset.checked_add(len)?))
        .filter(|range| range.end <= file.len());
    if let Some(range) = range {
        let sum = checksum64(&file[range]);
        file[at + 20..at + 28].copy_from_slice(&sum.to_le_bytes());
    }
}

/// SplitMix64: the fuzzer's seeded positions and bits.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const SECTION_MEMBERSHIPS: u32 = 6;

/// The header fields of each section kind: `(byte offset, width)`.
fn header_fields(id: u32) -> &'static [(usize, usize)] {
    match id {
        1 | 2 => &[(0, 8), (8, 4), (12, 4)],
        3 => &[(0, 4), (4, 4), (8, 8), (16, 8)],
        5 => &[(0, 4), (4, 4), (8, 8), (16, 8), (24, 8)],
        6 => &[(0, 8)],
        other => panic!("the writers produce no section {other}"),
    }
}

/// Values a lying field takes in place of `value`.
fn lies(value: u64, width: usize) -> Vec<u64> {
    let max = if width == 4 { u64::from(u32::MAX) } else { u64::MAX };
    let mut out =
        vec![0, 1, value.wrapping_sub(1), value.wrapping_add(1), value.wrapping_mul(3), max];
    out.retain(|&lie| lie != value && lie <= max);
    out
}

fn put(file: &mut [u8], at: usize, width: usize, value: u64) {
    file[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
}

/// Hands every mutation of `file`, named, to `out`, in a fixed order.
fn mutations(file: &[u8], rng: &mut Rng, out: &mut dyn FnMut(String, Vec<u8>)) {
    let rows = table(file);
    let mut flip = |name: String, at: usize, rng: &mut Rng| {
        let mut bytes = file.to_vec();
        bytes[at] ^= 1 << rng.below(8);
        out(format!("{name}: flip at {at}"), bytes);
    };
    for at in 0..16 {
        flip("header".into(), at, rng);
    }
    for row in &rows {
        for at in row.at..row.at + 28 {
            flip(format!("table row {}", row.id), at, rng);
        }
        for i in 0..8 {
            let at = match i {
                0 => row.offset,
                1 => row.offset + row.len - 1,
                _ => row.offset + rng.below(row.len),
            };
            flip(format!("section {}", row.id), at, rng);
        }
    }
    // The padding between the table and the first payload.
    flip("padding".into(), 16 + 28 * rows.len(), rng);

    for row in &rows {
        for cut in [row.offset - 1, row.offset, row.offset + 1] {
            out(format!("cut at {cut} (section {} start)", row.id), file[..cut].to_vec());
        }
        let end = row.offset + row.len;
        for cut in [end - 1, end, end + 1] {
            let cut = cut.min(file.len());
            out(format!("cut at {cut} (section {} end)", row.id), file[..cut].to_vec());
        }
    }
    for cut in [0, 8, 16, 16 + 14] {
        out(format!("cut at {cut}"), file[..cut].to_vec());
    }

    for (i, row) in rows.iter().enumerate() {
        for &(at, width) in header_fields(row.id) {
            let value = match width {
                4 => {
                    u64::from(u32::from_le_bytes(file[row.offset + at..][..4].try_into().unwrap()))
                }
                _ => le_u64(file, row.offset + at),
            };
            for lie in lies(value, width) {
                let mut bytes = file.to_vec();
                put(&mut bytes, row.offset + at, width, lie);
                reseal(&mut bytes, i);
                out(format!("section {} header +{at} = {lie}", row.id), bytes);
            }
        }
        for (field, name) in [(4, "offset"), (12, "len")] {
            let value = le_u64(file, row.at + field);
            let mut values = lies(value, 8);
            values.extend([value.wrapping_sub(64), value.wrapping_add(64), file.len() as u64]);
            for lie in values {
                let mut bytes = file.to_vec();
                put(&mut bytes, row.at + field, 8, lie);
                reseal(&mut bytes, i);
                out(format!("table row {} {name} = {lie}", row.id), bytes);
            }
        }
    }
    let count = rows.len() as u64;
    for lie in lies(count, 4).into_iter().chain([65_535]) {
        let mut bytes = file.to_vec();
        put(&mut bytes, 12, 4, lie);
        out(format!("section count = {lie}"), bytes);
    }

    let row_bytes = |i: usize| file[16 + 28 * i..16 + 28 * (i + 1)].to_vec();
    let with_rows = |order: &[usize]| {
        let mut bytes = file.to_vec();
        for (slot, &from) in order.iter().enumerate() {
            bytes[16 + 28 * slot..16 + 28 * (slot + 1)].copy_from_slice(&row_bytes(from));
        }
        bytes
    };
    let identity: Vec<usize> = (0..rows.len()).collect();
    for i in 0..rows.len() {
        for j in (0..rows.len()).filter(|&j| j != i) {
            let (mut duplicated, mut swapped) = (identity.clone(), identity.clone());
            duplicated[i] = j;
            let name = format!("row {} overwritten by row {}", rows[i].id, rows[j].id);
            out(name, with_rows(&duplicated));
            if i < j {
                swapped.swap(i, j);
                out(format!("rows {} and {} swapped", rows[i].id, rows[j].id), with_rows(&swapped));
            }
        }
    }
    let reversed: Vec<usize> = identity.iter().rev().copied().collect();
    out("rows reversed".into(), with_rows(&reversed));
    let mut rotated = identity.clone();
    rotated.rotate_left(1);
    out("rows rotated".into(), with_rows(&rotated));
}

/// Whether `mutated` differs from `original` in the MEMBERSHIPS payload or
/// its table row — the only bytes `Snapshot::load_from` reads and the
/// adoption paths do not.
fn touches_memberships(original: &[u8], mutated: &[u8]) -> bool {
    table(original).iter().filter(|row| row.id == SECTION_MEMBERSHIPS).any(|row| {
        [row.at..row.at + 28, row.offset..row.offset + row.len]
            .into_iter()
            .any(|range| range.into_iter().any(|at| original.get(at) != mutated.get(at)))
    })
    // A truncated file is not a touched one: every path must find its end.
    && mutated.len() == original.len()
}

/// Loads one mutated file through every path; returns what disagreed.
/// `load_from` is held to the adoption paths' verdict when
/// `memberships_untouched`.
fn check(bytes: &[u8], memberships_untouched: bool, path: &std::path::Path) -> Vec<String> {
    std::fs::write(path, bytes).unwrap();
    let bound = 4 * bytes.len() + (1 << 20);
    let mut problems = Vec::new();
    let mut heap = |what: &str, peak: usize| {
        if peak > bound {
            problems.push(format!("{what} held {peak} heap bytes, bound {bound}"));
        }
    };

    let ((mapped, was_mapped), peak) = peak_heap(|| adoption(AdoptedSnapshot::open(path)));
    heap("open", peak);
    let ((copied, _), peak) = peak_heap(|| adoption(AdoptedSnapshot::load_copied(path)));
    heap("load_copied", peak);
    let (streamed, peak) = peak_heap(|| match Snapshot::load_from(&mut &bytes[..]) {
        Ok(s) => loaded(s),
        Err(e) => refused(e),
    });
    heap("load_from", peak);
    let (fallen_back, fallback_mapped) = {
        let plan = FaultPlan::new(1, 1.0).only(&[Site::SnapshotMmap]).with_span(1);
        let _armed = Faults::global().arm(plan);
        let (result, peak) = peak_heap(|| adoption(AdoptedSnapshot::open(path)));
        heap("open with snapshot.mmap armed", peak);
        result
    };

    if mapped != copied {
        problems.push(format!("open says {mapped:?}, load_copied says {copied:?}"));
    }
    if matches!(mapped, Verdict::Loaded(_)) && was_mapped != AdoptedSnapshot::zero_copy_supported()
    {
        problems.push("open fell back to the copy path on a mappable file".into());
    }
    if fallen_back != copied || fallback_mapped {
        problems.push(format!(
            "open with snapshot.mmap armed says {fallen_back:?} (mapped {fallback_mapped}), \
             load_copied says {copied:?}"
        ));
    }
    if memberships_untouched && streamed != copied {
        problems.push(format!("load_from says {streamed:?}, load_copied says {copied:?}"));
    }
    problems
}

fn engine_snapshot(backend: SimilarityBackend, path: &std::path::Path) -> Vec<u8> {
    let mut cfg = SyntheticConfig::small(31);
    cfg.num_users = 300;
    cfg.num_items = 300;
    cfg.communities = 8;
    cfg.mean_profile = 18.0;
    cfg.min_profile = 6;
    let config = ServingConfig {
        c2: C2Config { k: 8, backend, seed: 9, threads: 1, ..C2Config::default() },
        runtime: RuntimeConfig::with_workers(1),
        rebuild_after: 0,
        ..ServingConfig::default()
    };
    ServingEngine::build(cfg.generate(), config).write_snapshot(path).unwrap();
    std::fs::read(path).unwrap()
}

/// Removes the fuzzer's scratch file however the test ends.
struct TempPath(std::path::PathBuf);

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn every_mutation_gets_one_verdict_from_every_load_path_within_bounded_heap() {
    let path = TempPath(
        std::env::temp_dir().join(format!("cnc-snapshot-fuzz-{}.snap", std::process::id())),
    );
    let path = &path.0;
    let gf = engine_snapshot(SimilarityBackend::GoldFinger { bits: 1024, seed: 33 }, path);
    let raw = engine_snapshot(SimilarityBackend::Raw, path);
    let epoch_only = {
        let snap = Snapshot::load_from(&mut &gf[..]).unwrap();
        Snapshot::new(snap.dataset, snap.graph, snap.goldfinger).write(path).unwrap();
        std::fs::read(path).unwrap()
    };
    let ids = |file: &[u8]| table(file).iter().map(|row| row.id).collect::<Vec<_>>();
    assert_eq!(ids(&gf), [1, 2, 3, 5, SECTION_MEMBERSHIPS], "the full engine corpus");
    assert_eq!(ids(&raw), [1, 2, 5, SECTION_MEMBERSHIPS], "raw Jaccard carries no fingerprints");
    assert_eq!(ids(&epoch_only), [1, 2, 3], "the epoch-only writer");

    // A bare header whose count promises 65,535 rows.
    let mut lying_header = b"CNCSNAP1".to_vec();
    lying_header.extend_from_slice(&VERSION.to_le_bytes());
    lying_header.extend_from_slice(&65_535u32.to_le_bytes());
    lying_header.resize(64, 0);

    let (mut cases, mut failures) = (0, Vec::new());
    let mut run = |name: String, bytes: Vec<u8>, memberships_untouched: bool| {
        cases += 1;
        match catch_unwind(AssertUnwindSafe(|| check(&bytes, memberships_untouched, path))) {
            Ok(problems) => failures.extend(problems.into_iter().map(|p| format!("{name}: {p}"))),
            Err(_) => failures.push(format!("{name}: a load panicked")),
        }
    };
    run("lying 64-byte header".into(), lying_header, true);
    let mut rng = Rng(0xC2_F022);
    for (name, file) in [("gf1024", &gf), ("raw", &raw), ("epoch-only", &epoch_only)] {
        mutations(file, &mut rng, &mut |mutation, bytes| {
            let untouched = !touches_memberships(file, &bytes);
            run(format!("{name}: {mutation}"), bytes, untouched)
        });
    }
    assert!(
        failures.is_empty(),
        "{} problems over {cases} mutations:\n{}",
        failures.len(),
        failures.join("\n")
    );
    assert_eq!(cases, 1_072, "the case count is fixed by the corpus layout");
}
