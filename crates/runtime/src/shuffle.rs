//! The spill layer: the out-of-core lane of the map stage's merge.
//!
//! A real MapReduce deployment cannot keep the whole map output in
//! memory: each map task *spills* it to local files that are merged once
//! the task is done. This module provides the pieces the engine needs to
//! model that:
//!
//! * a length-prefixed binary codec ([`write_record`] / [`read_record`])
//!   for partial neighbour lists — also the distributed build's wire
//!   format;
//! * [`SpillWriter`], the build's one retrying stream, shared by its
//!   jobs, and [`replay_spill`], which reads a sealed stream back;
//! * the cleanup-on-drop [`SpillDir`] temp-directory guard.
//!
//! The codec is lossless: similarities travel as raw `f32` bits, so a
//! spilled build merges *exactly* the same values as an in-memory one and
//! the final graph stays bit-identical.

use cnc_core::build_plan::fnv1a;
use cnc_dataset::UserId;
use cnc_faults::RETRY_ATTEMPTS;
use cnc_faults::{injected_io_error, retry, Exhausted, Failure, Fault, Faults, Site};
use cnc_graph::NeighborList;
use parking_lot::Mutex;
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Typed failure of the spill layer — what used to unwind as an
/// `.expect()` panic now surfaces with the site, path and root cause
/// attached, so the engine can decide between degradation (merge the
/// record straight into the shared arena instead) and a build-level
/// failure.
#[derive(Debug)]
pub enum ShuffleError {
    /// A single-shot IO failure (e.g. sealing a stream).
    Io {
        /// The fault site's wire name.
        site: &'static str,
        /// The stream file involved.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// A retried operation failed every attempt of its budget, or an
    /// attempt no retry could fix.
    Exhausted {
        /// The fault site's wire name.
        site: &'static str,
        /// The stream file involved.
        path: PathBuf,
        /// How many attempts were made.
        attempts: u32,
        /// The final attempt's error.
        last: io::Error,
    },
}

impl std::fmt::Display for ShuffleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShuffleError::Io { site, path, source } => {
                write!(f, "{site} failed on {}: {source}", path.display())
            }
            ShuffleError::Exhausted { site, path, attempts, last } => write!(
                f,
                "{site} failed on {} after {attempts} attempts (capped backoff): {last}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for ShuffleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShuffleError::Io { source, .. } => Some(source),
            ShuffleError::Exhausted { last, .. } => Some(last),
        }
    }
}

/// Maps [`retry`]'s exhaustion at `site` on `path` to the typed error.
fn exhausted(site: Site, path: &Path, failure: Exhausted<io::Error>) -> ShuffleError {
    let Exhausted { attempts, last } = failure;
    ShuffleError::Exhausted { site: site.name(), path: path.to_path_buf(), attempts, last }
}

/// Encoded size of one spill record, in bytes: an 8-byte header
/// (`user: u32 LE`, `len: u32 LE`) plus 8 bytes (`neighbour: u32 LE`,
/// `sim: f32 bits LE`) per retained neighbour.
#[inline]
pub fn encoded_len(list: &NeighborList) -> u64 {
    8 + 8 * list.len() as u64
}

/// Writes one `(user, partial list)` record; returns its encoded size.
pub fn write_record<W: Write>(out: &mut W, user: UserId, list: &NeighborList) -> io::Result<u64> {
    out.write_all(&user.to_le_bytes())?;
    out.write_all(&(list.len() as u32).to_le_bytes())?;
    for n in list.iter() {
        out.write_all(&n.user.to_le_bytes())?;
        out.write_all(&n.sim.to_bits().to_le_bytes())?;
    }
    Ok(encoded_len(list))
}

/// Reads the next record, reconstructing the partial list with bound `k`.
///
/// Returns `Ok(None)` at a clean end of stream; a stream that ends inside
/// a record, or a record longer than `k`, is an `InvalidData`/
/// `UnexpectedEof` error.
pub fn read_record<R: Read>(input: &mut R, k: usize) -> io::Result<Option<(UserId, NeighborList)>> {
    let mut header = [0u8; 8];
    if !read_exact_or_eof(input, &mut header)? {
        return Ok(None);
    }
    let user = u32::from_le_bytes(header[0..4].try_into().unwrap());
    let len = u32::from_le_bytes(header[4..8].try_into().unwrap()) as usize;
    if len > k {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("spill record for user {user} holds {len} neighbours, bound is {k}"),
        ));
    }
    let mut list = NeighborList::new(k);
    let mut entry = [0u8; 8];
    for _ in 0..len {
        input.read_exact(&mut entry)?;
        let neighbor = u32::from_le_bytes(entry[0..4].try_into().unwrap());
        let sim = f32::from_bits(u32::from_le_bytes(entry[4..8].try_into().unwrap()));
        // Encoded lists hold ≤ k distinct users, so every insert lands and
        // the decoded list equals the encoded one entry-for-entry.
        list.insert(neighbor, sim);
    }
    Ok(Some((user, list)))
}

/// Fills `buf` completely, or reports a clean EOF *before the first byte*
/// as `Ok(false)`. EOF mid-buffer is an `UnexpectedEof` error.
fn read_exact_or_eof<R: Read>(input: &mut R, buf: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match input.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "spill stream truncated mid-record",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Distinguishes spill dirs of concurrent builds within one process.
static SPILL_DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A unique temporary directory for one build's spill files, removed —
/// with everything inside it — when the guard drops.
///
/// The engine holds the guard on the calling thread's stack, outside the
/// thread pool: a panicking job unwinds through the pool and drops the
/// guard, so spill files never outlive the build that wrote
/// them (asserted by `spill_dir_is_removed_when_a_panic_unwinds` below).
#[derive(Debug)]
pub struct SpillDir {
    path: PathBuf,
}

impl SpillDir {
    /// Creates a fresh directory under the system temp dir.
    pub fn create() -> io::Result<SpillDir> {
        let base = std::env::temp_dir();
        loop {
            let id = SPILL_DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
            let path = base.join(format!("cnc-spill-{}-{id}", std::process::id()));
            match fs::create_dir(&path) {
                Ok(()) => return Ok(SpillDir { path }),
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The canonical path of the `index`-th spill stream in this dir.
    pub fn file_path(&self, index: usize) -> PathBuf {
        self.path.join(format!("map{index}.spill"))
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        // Best effort: a failed removal must not turn a successful build
        // (or an already-unwinding panic) into an abort.
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// One spill stream, shared by every job of a build: a buffered file
/// writer with retrying, torn-write-recovering appends.
///
/// A failed append — injected or real — is rolled back by flushing the
/// committed prefix and truncating the file back to it, so a torn write
/// never leaves garbage a replay would trip over; the append is then
/// retried under [`cnc_faults::retry`] ([`RETRY_ATTEMPTS`]). Each attempt
/// takes the stream's lock and drops it before the backoff, so one job's
/// retry never stalls the others. An append that exhausts its attempts,
/// or whose rollback fails, breaks the stream: every later push fails at
/// once, and the records already committed stay replayable.
pub struct SpillWriter {
    tail: Mutex<Tail>,
    path: PathBuf,
    /// Salts the per-record fault keys so streams draw independently.
    fault_base: u64,
    /// Records pushed so far; a record claims its ordinal, and with it its
    /// fault key, once, whatever the other jobs append between its tries.
    records: AtomicU64,
    /// Failed attempts retried so far, the create's included.
    retries: AtomicU64,
}

/// The end of a spill stream, behind its writer's lock.
struct Tail {
    writer: BufWriter<File>,
    /// The stream's committed length: the records accepted (buffered or
    /// flushed).
    bytes: u64,
    entries: u64,
    /// Set once an append exhausts its attempts or a rollback fails.
    broken: bool,
    /// Encode buffer; records are tiny (≤ 8 + 8·k bytes).
    scratch: Vec<u8>,
}

impl SpillWriter {
    /// Creates the stream's file. `fault_base` identifies the stream to
    /// the fault registry.
    pub fn create(path: PathBuf, fault_base: u64) -> Result<SpillWriter, ShuffleError> {
        let created = retry(RETRY_ATTEMPTS, || {
            Faults::global().inject_io(Site::SpillWrite, fault_base)?;
            Ok(File::create(&path)?)
        });
        let (file, retries) = created.map_err(|e| exhausted(Site::SpillWrite, &path, e))?;
        let writer = BufWriter::new(file);
        Ok(SpillWriter {
            tail: Mutex::new(Tail { writer, bytes: 0, entries: 0, broken: false, scratch: vec![] }),
            path,
            fault_base,
            records: AtomicU64::new(0),
            retries: AtomicU64::new(retries.into()),
        })
    }

    /// Appends one record, retrying (with rollback) on failure.
    pub fn push(&self, user: UserId, list: &NeighborList) -> Result<(), ShuffleError> {
        let ordinal = self.records.fetch_add(1, Ordering::Relaxed);
        let key = self.fault_base ^ ordinal.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let pushed = retry(RETRY_ATTEMPTS, || self.tail.lock().append(key, user, list));
        let retries = pushed.as_ref().map_or_else(|e| e.attempts - 1, |&((), retries)| retries);
        self.retries.fetch_add(retries.into(), Ordering::Relaxed);
        pushed.map(drop).map_err(|failure| {
            self.tail.lock().broken = true;
            exhausted(Site::SpillWrite, &self.path, failure)
        })
    }

    /// Flushes and seals the stream, returning its replay handle.
    pub fn finish(self) -> Result<FinishedSpill, ShuffleError> {
        let Tail { mut writer, bytes, entries, .. } = self.tail.into_inner();
        let site = Site::SpillWrite.name();
        let path = self.path;
        if let Err(source) = writer.flush() {
            return Err(ShuffleError::Io { site, path, source });
        }
        Ok(FinishedSpill { path, bytes, entries, retries: self.retries.into_inner() })
    }
}

impl Tail {
    /// One append attempt under the stream's lock. A failure is rolled
    /// back before the lock drops; a failed rollback is permanent.
    fn append(
        &mut self,
        key: u64,
        user: UserId,
        list: &NeighborList,
    ) -> Result<(), Failure<io::Error>> {
        if self.broken {
            return Err(Failure::Permanent(io::Error::other("the spill stream is broken")));
        }
        self.scratch.clear();
        write_record(&mut self.scratch, user, list).expect("encoding into a Vec cannot fail");
        let outcome = match Faults::global().inject(Site::SpillWrite, key) {
            None => self.writer.write_all(&self.scratch),
            Some(Fault::Torn) => {
                // A torn write: flush the committed prefix, land half the
                // record directly in the file, then fail — the rollback
                // below must truncate it away.
                self.writer.flush().and_then(|()| {
                    let torn = self.scratch.len() / 2;
                    self.writer.get_mut().write_all(&self.scratch[..torn])?;
                    Err(injected_io_error(Site::SpillWrite))
                })
            }
            Some(_) => Err(injected_io_error(Site::SpillWrite)),
        };
        let Err(last) = outcome else {
            self.bytes += self.scratch.len() as u64;
            self.entries += list.len() as u64;
            return Ok(());
        };
        match self.rollback() {
            Ok(()) => Err(Failure::Transient(last)),
            Err(rollback) => {
                self.broken = true;
                Err(Failure::Permanent(rollback))
            }
        }
    }

    /// Restores the file to exactly the committed stream: flush the
    /// committed prefix out of the buffer, truncate any torn tail, seek
    /// back to the end.
    fn rollback(&mut self) -> io::Result<()> {
        self.writer.flush()?;
        let file = self.writer.get_mut();
        file.set_len(self.bytes)?;
        file.seek(SeekFrom::End(0))?;
        Ok(())
    }
}

/// Replays a sealed spill file into memory, retrying the whole read under
/// [`cnc_faults::retry`] ([`RETRY_ATTEMPTS`]); returns the records and
/// the retries made. Buffering before the merge keeps retries trivially
/// idempotent: no record reaches a [`NeighborList`] until the full file
/// has decoded cleanly.
pub fn replay_spill(path: &Path, k: usize) -> Result<(Records, u32), ShuffleError> {
    // The path's FNV-1a is the replay side's stable fault key.
    let key = fnv1a(path.as_os_str().as_encoded_bytes());
    let replayed = retry(RETRY_ATTEMPTS, || {
        Faults::global().inject_io(Site::SpillReplay, key)?;
        let mut reader = BufReader::new(File::open(path)?);
        let mut records = Vec::new();
        while let Some(record) = read_record(&mut reader, k)? {
            records.push(record);
        }
        Ok(records)
    });
    replayed.map_err(|e| exhausted(Site::SpillReplay, path, e))
}

/// A sealed spill file, ready to be replayed into the shared arena.
#[derive(Clone, Debug)]
pub struct FinishedSpill {
    /// Where the stream lives (inside the build's [`SpillDir`]).
    pub path: PathBuf,
    /// Encoded bytes written.
    pub bytes: u64,
    /// Neighbour entries `(user, neighbour, sim)` written.
    pub entries: u64,
    /// Failed writes that were rolled back and retried, the create's
    /// included.
    pub retries: u64,
}

/// A replayed spill stream: every `(user, partial list)` record, in
/// stream order.
pub type Records = Vec<(UserId, NeighborList)>;

#[cfg(test)]
mod tests {
    use super::*;

    fn list(k: usize, entries: &[(u32, f32)]) -> NeighborList {
        let mut l = NeighborList::new(k);
        for &(user, sim) in entries {
            l.insert(user, sim);
        }
        l
    }

    #[test]
    fn record_round_trip_is_exact() {
        let original = list(4, &[(9, 0.75), (2, -0.5), (11, 0.75), (3, 0.0)]);
        let mut buf = Vec::new();
        let written = write_record(&mut buf, 42, &original).unwrap();
        assert_eq!(written, encoded_len(&original));
        assert_eq!(written as usize, buf.len());
        let (user, decoded) = read_record(&mut buf.as_slice(), 4).unwrap().unwrap();
        assert_eq!(user, 42);
        assert_eq!(decoded.sorted(), original.sorted());
        assert!(read_record(&mut io::empty(), 4).unwrap().is_none());
    }

    #[test]
    fn empty_list_round_trips() {
        let original = list(3, &[]);
        let mut buf = Vec::new();
        write_record(&mut buf, 7, &original).unwrap();
        let (user, decoded) = read_record(&mut buf.as_slice(), 3).unwrap().unwrap();
        assert_eq!(user, 7);
        assert!(decoded.is_empty());
    }

    #[test]
    fn stream_of_records_decodes_in_order() {
        let lists = [list(2, &[(1, 0.9)]), list(2, &[]), list(2, &[(5, 0.1), (6, 0.2)])];
        let mut buf = Vec::new();
        for (i, l) in lists.iter().enumerate() {
            write_record(&mut buf, i as u32, l).unwrap();
        }
        let mut reader = buf.as_slice();
        for (i, l) in lists.iter().enumerate() {
            let (user, decoded) = read_record(&mut reader, 2).unwrap().unwrap();
            assert_eq!(user, i as u32);
            assert_eq!(decoded.sorted(), l.sorted());
        }
        assert!(read_record(&mut reader, 2).unwrap().is_none());
    }

    #[test]
    fn truncated_record_is_an_error() {
        let mut buf = Vec::new();
        write_record(&mut buf, 1, &list(2, &[(3, 0.5)])).unwrap();
        buf.pop();
        let mut reader = buf.as_slice();
        assert!(read_record(&mut reader, 2).is_err());
    }

    #[test]
    fn oversized_record_is_rejected() {
        let mut buf = Vec::new();
        write_record(&mut buf, 1, &list(5, &[(1, 0.1), (2, 0.2), (3, 0.3)])).unwrap();
        let err = read_record(&mut buf.as_slice(), 2).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn spill_writer_counts_bytes_and_entries() {
        let _calm = crate::no_faults();
        let dir = SpillDir::create().unwrap();
        let w = SpillWriter::create(dir.file_path(0), 0).unwrap();
        let a = list(3, &[(1, 0.5), (2, 0.25)]);
        let b = list(3, &[(9, 0.125)]);
        w.push(10, &a).unwrap();
        w.push(11, &b).unwrap();
        let finished = w.finish().unwrap();
        assert_eq!(finished.bytes, encoded_len(&a) + encoded_len(&b));
        assert_eq!(finished.entries, 3);
        assert_eq!(fs::metadata(&finished.path).unwrap().len(), finished.bytes);
    }

    #[test]
    fn spill_dir_is_removed_on_drop_with_contents() {
        let dir = SpillDir::create().unwrap();
        let path = dir.path().to_path_buf();
        fs::write(dir.file_path(0), b"payload").unwrap();
        assert!(path.exists());
        drop(dir);
        assert!(!path.exists(), "drop must remove the dir and its files");
    }

    #[test]
    fn spill_dir_is_removed_when_a_panic_unwinds() {
        let dir = SpillDir::create().unwrap();
        let path = dir.path().to_path_buf();
        fs::write(dir.file_path(3), b"junk").unwrap();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _guard = dir;
            panic!("worker died mid-spill");
        }));
        assert!(outcome.is_err());
        assert!(!path.exists(), "unwinding past the guard must remove the dir");
    }

    #[test]
    fn concurrent_spill_dirs_are_distinct() {
        let a = SpillDir::create().unwrap();
        let b = SpillDir::create().unwrap();
        assert_ne!(a.path(), b.path());
    }

    use crate::fault_lock;

    #[test]
    fn injected_write_faults_are_retried_and_the_stream_stays_exact() {
        let _serial = fault_lock();
        let dir = SpillDir::create().unwrap();
        let records: Vec<NeighborList> =
            (0..64u32).map(|i| list(4, &[(i, 0.5), (i + 100, 0.25)])).collect();

        // Fault-free reference stream.
        let clean = SpillWriter::create(dir.file_path(0), 7).unwrap();
        for (i, l) in records.iter().enumerate() {
            clean.push(i as u32, l).unwrap();
        }
        let clean = clean.finish().unwrap();
        let clean_bytes = fs::read(&clean.path).unwrap();

        // Same records under a hostile schedule (every key fails 1..=4
        // times, torn and clean IO mixed).
        let faults = Faults::global();
        let plan = cnc_faults::FaultPlan::new(99, 1.0).only(&[Site::SpillWrite]).with_span(4);
        let injected = {
            let _guard = faults.arm(plan);
            let chaotic = SpillWriter::create(dir.file_path(1), 7).unwrap();
            for (i, l) in records.iter().enumerate() {
                chaotic.push(i as u32, l).unwrap();
            }
            let chaotic = chaotic.finish().unwrap();
            let injected = faults.injected(Site::SpillWrite);
            assert_eq!(fs::read(&chaotic.path).unwrap(), clean_bytes, "streams must be identical");
            assert_eq!((chaotic.bytes, chaotic.entries), (clean.bytes, clean.entries));
            // Every injected write fault was rolled back and retried once.
            assert_eq!((clean.retries, chaotic.retries), (0, injected));
            injected
        };
        assert!(injected > 0, "the schedule must actually have fired");
    }

    #[test]
    fn replay_retries_injected_faults_and_decodes_everything() {
        let _serial = fault_lock();
        let dir = SpillDir::create().unwrap();
        let w = SpillWriter::create(dir.file_path(0), 0).unwrap();
        for i in 0..16u32 {
            w.push(i, &list(3, &[(i + 1, 0.5)])).unwrap();
        }
        let finished = w.finish().unwrap();

        let faults = Faults::global();
        let _guard =
            faults.arm(cnc_faults::FaultPlan::new(3, 1.0).only(&[Site::SpillReplay]).with_span(6));
        let (records, retries) = replay_spill(&finished.path, 3).unwrap();
        assert_eq!(records.len(), 16);
        assert!(retries > 0);
        assert_eq!(u64::from(retries), faults.injected(Site::SpillReplay));
        for (i, (user, l)) in records.iter().enumerate() {
            assert_eq!(*user, i as u32);
            assert_eq!(l.len(), 1);
        }
    }

    #[test]
    fn replay_of_a_missing_file_exhausts_with_a_typed_error() {
        let _serial = fault_lock();
        let err = replay_spill(Path::new("/nonexistent/cnc-spill/gone.spill"), 4).unwrap_err();
        match err {
            ShuffleError::Exhausted { site, attempts, .. } => {
                assert_eq!(site, "spill.replay");
                assert_eq!(attempts, RETRY_ATTEMPTS);
            }
            other => panic!("expected Exhausted, got {other}"),
        }
        assert!(err.to_string().contains("spill.replay"), "{err}");
    }
}
