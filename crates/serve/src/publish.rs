//! Snapshot-directory publishing: the builder/serving split over a
//! shared filesystem.
//!
//! The paper's deployment story separates the expensive offline build
//! from cheap online serving. This module is the wire between them when
//! "wire" is a directory: a [`SnapshotPublisher`] on the builder side
//! writes monotonically sequenced `epoch-<seq>.snap` files (each through
//! the atomic temp-write + rename in [`crate::snapshot`], so a reader
//! never sees a torn file), and a [`SnapshotAdopter`] on each serving
//! host polls the directory and hot-swaps newer epochs into a running
//! [`ServingEngine`] via the zero-copy [`AdoptedSnapshot`] path — **no
//! builder ever runs in the serving address space**, and with the mmap
//! path every replica on a host shares one page-cache copy of the data.
//!
//! Sequence numbers, not mtimes, order epochs: the publisher scans for
//! the highest existing `epoch-<seq>.snap` on startup and continues from
//! there, so restarts never publish backwards; the adopter remembers the
//! last sequence it adopted and only moves forward. Loading a published
//! file follows one policy ([`SnapshotAdopter::poll`]): transient I/O is
//! retried under [`cnc_faults::retry`], a file whose bytes are condemned
//! is quarantined, a file of any other format version — older or newer —
//! is left in place, and the adopter falls back to the next-newest
//! candidate.

use crate::mmap::AdoptedSnapshot;
use crate::server::ServingEngine;
use crate::snapshot::{quarantine_snapshot, sweep_temp_files, SnapshotError};
use cnc_faults::{retry, Exhausted, Failure, RETRY_ATTEMPTS};
use cnc_telemetry::Telemetry;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The file-name prefix/suffix of published epochs.
const EPOCH_PREFIX: &str = "epoch-";
const EPOCH_SUFFIX: &str = ".snap";

/// Parses `epoch-<seq>.snap` back into its sequence number.
fn parse_seq(name: &str) -> Option<u64> {
    name.strip_prefix(EPOCH_PREFIX)?.strip_suffix(EPOCH_SUFFIX)?.parse().ok()
}

/// The path of sequence `seq` under `dir`.
fn seq_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("{EPOCH_PREFIX}{seq}{EPOCH_SUFFIX}"))
}

/// Scans `dir` for the highest published sequence number (ignoring temp
/// and quarantined files). `None` when nothing is published yet.
fn newest_seq(dir: &Path) -> io::Result<Option<u64>> {
    let mut newest = None;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.contains(".tmp-") || name.contains(".quarantine-") {
            continue;
        }
        if let Some(seq) = parse_seq(&name) {
            newest = newest.max(Some(seq));
        }
    }
    Ok(newest)
}

/// The builder side: writes sequenced snapshot files into a directory.
pub struct SnapshotPublisher {
    dir: PathBuf,
    next_seq: u64,
}

impl SnapshotPublisher {
    /// Opens (creating if needed) a snapshot directory for publishing,
    /// sweeping dead writers' temp litter and resuming the sequence
    /// after the highest file already present.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<SnapshotPublisher> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let _ = sweep_temp_files(&dir);
        let next_seq = newest_seq(&dir)?.map_or(0, |s| s + 1);
        Ok(SnapshotPublisher { dir, next_seq })
    }

    /// The directory being published into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The sequence number the next publish will use.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Publishes the engine's current epoch (plus its builder cache for
    /// restart incrementality) as the next sequenced snapshot; returns
    /// the sequence number and the published path. The write is atomic —
    /// adopters either see the complete file or nothing.
    pub fn publish(&mut self, engine: &ServingEngine) -> Result<(u64, PathBuf), SnapshotError> {
        let seq = self.next_seq;
        let path = seq_path(&self.dir, seq);
        engine.write_snapshot(&path)?;
        self.next_seq = seq + 1;
        Ok((seq, path))
    }

    /// Removes published files older than the newest `keep` sequences;
    /// returns how many were pruned. Serving hosts that already adopted
    /// a pruned epoch are unaffected — their mapping keeps the inode
    /// alive until they swap forward.
    pub fn prune(&self, keep: usize) -> io::Result<usize> {
        let mut seqs: Vec<u64> = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            if let Some(seq) = parse_seq(&name.to_string_lossy()) {
                seqs.push(seq);
            }
        }
        seqs.sort_unstable();
        let cut = seqs.len().saturating_sub(keep);
        let mut pruned = 0;
        for &seq in &seqs[..cut] {
            if fs::remove_file(seq_path(&self.dir, seq)).is_ok() {
                pruned += 1;
            }
        }
        Ok(pruned)
    }
}

/// The serving side: watches a snapshot directory and hot-swaps newer
/// epochs into an engine. Holds no builder state — adoption goes through
/// [`AdoptedSnapshot::open`], zero-copy where the platform allows.
pub struct SnapshotAdopter {
    dir: PathBuf,
    last_adopted: Option<u64>,
}

impl SnapshotAdopter {
    /// Watches `dir` for published epochs. Nothing is adopted yet.
    pub fn new(dir: impl Into<PathBuf>) -> SnapshotAdopter {
        SnapshotAdopter { dir: dir.into(), last_adopted: None }
    }

    /// The sequence number last adopted, if any.
    pub fn last_adopted(&self) -> Option<u64> {
        self.last_adopted
    }

    /// Opens the newest published snapshot strictly newer than the last
    /// adopted one, without touching an engine. `Ok(None)` when there is
    /// nothing new. Each candidate, newest first, is opened under one
    /// policy:
    ///
    /// * a transient I/O error retries under [`cnc_faults::retry`] (up to
    ///   [`cnc_faults::RETRY_ATTEMPTS`]) and never condemns the file;
    /// * a verdict on the bytes — truncation, bad magic, a checksum
    ///   mismatch, a corrupt or missing section — quarantines the file
    ///   ([`quarantine_snapshot`]), since re-reading them cannot help;
    /// * version skew leaves the file in place: an older or a newer build
    ///   wrote it, and it is unreadable here, not corrupt.
    ///
    /// A candidate that fails makes the scan fall back to the next-newest;
    /// the last error is returned only when every new candidate fails.
    /// A poll that found a candidate records a `snapshot.poll` span: the
    /// sequence adopted, the transient open retries and the files
    /// quarantined on the way to it.
    pub fn poll(&mut self) -> Result<Option<(u64, AdoptedSnapshot)>, SnapshotError> {
        let mut candidates: Vec<u64> = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            if let Some(seq) = parse_seq(&name.to_string_lossy()) {
                if self.last_adopted.is_none_or(|last| seq > last) {
                    candidates.push(seq);
                }
            }
        }
        if candidates.is_empty() {
            return Ok(None);
        }
        candidates.sort_unstable_by(|a, b| b.cmp(a));
        let mut span = Telemetry::global().span("snapshot.poll");
        let mut last_err = None;
        for seq in candidates {
            let path = seq_path(&self.dir, seq);
            let (opened, retries) = open_with_retry(&path);
            span.attr("retries", retries.into());
            match opened {
                Ok(adopted) => {
                    self.last_adopted = Some(seq);
                    span.attr("seq", seq);
                    return Ok(Some((seq, adopted)));
                }
                Err(error) => {
                    if condemns_bytes(&error) && quarantine_snapshot(&path).is_ok() {
                        span.attr("quarantined", 1);
                    }
                    last_err = Some(error);
                }
            }
        }
        match last_err {
            None => Ok(None),
            Some(error) => Err(error),
        }
    }

    /// [`poll`](Self::poll) + [`ServingEngine::adopt`]: hot-swaps the
    /// newest unseen epoch into `engine`. Returns the adopted sequence
    /// number, or `None` when the engine is already current.
    pub fn poll_into(&mut self, engine: &ServingEngine) -> Result<Option<u64>, SnapshotError> {
        match self.poll()? {
            Some((seq, adopted)) => {
                engine.adopt(adopted);
                Ok(Some(seq))
            }
            None => Ok(None),
        }
    }
}

/// [`AdoptedSnapshot::open`] under [`retry`]: an I/O error that does not
/// condemn the bytes is transient and retries; any other verdict returns
/// at once. Also returns the retries made.
fn open_with_retry(path: &Path) -> (Result<AdoptedSnapshot, SnapshotError>, u32) {
    let opened = retry(RETRY_ATTEMPTS, || {
        AdoptedSnapshot::open(path).map_err(|error| match error {
            SnapshotError::Io(_) if !condemns_bytes(&error) => Failure::Transient(error),
            _ => Failure::Permanent(error),
        })
    });
    match opened {
        Ok((adopted, retries)) => (Ok(adopted), retries),
        Err(Exhausted { attempts, last }) => (Err(last), attempts - 1),
    }
}

/// True for open errors that condemn the *bytes* (quarantine material)
/// rather than the read path: truncation, bad magic, checksum or
/// structural failures. Version skew is deliberately excluded — a
/// snapshot from an older or a newer build is not corrupt, just
/// unreadable here.
fn condemns_bytes(error: &SnapshotError) -> bool {
    match error {
        SnapshotError::Io(e) => e.kind() == io::ErrorKind::UnexpectedEof,
        SnapshotError::BadMagic(_)
        | SnapshotError::ChecksumMismatch { .. }
        | SnapshotError::Corrupt(_)
        | SnapshotError::MissingSection(_) => true,
        SnapshotError::UnsupportedVersion(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::tests::{build, fresh_dir};
    use crate::snapshot::Snapshot;
    use cnc_faults::{FaultPlan, Faults, Site};

    /// The adopted state is the published one: same profiles, same rows
    /// down to the similarity bits.
    fn assert_adopts(adopted: &AdoptedSnapshot, published: &Snapshot) {
        let bits = |list: &[cnc_graph::Neighbor]| -> Vec<(u32, u32)> {
            list.iter().map(|n| (n.user, n.sim.to_bits())).collect()
        };
        assert_eq!(adopted.dataset, published.dataset);
        for (u, list) in published.graph.iter() {
            let adopted_row = adopted.graph.neighbors(u);
            assert_eq!(bits(adopted_row.as_slice()), bits(list.as_slice()), "user {u}");
        }
    }

    fn names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn poll_retries_transient_faults_and_leaves_version_skew_in_place() {
        let _serial = crate::fault_lock();
        let dir = fresh_dir("poll-policy");
        let epoch = build(61);
        epoch.write(seq_path(&dir, 0)).unwrap();

        // Both load paths fail 1–3 times for this file: the map, then the
        // copy it falls back to, whose error is the open's.
        let faults = Faults::global();
        let plan = FaultPlan::new(7, 1.0).only(&[Site::SnapshotMmap, Site::SnapshotLoad]);
        let guard = faults.arm(plan.with_span(3));
        let mut adopter = SnapshotAdopter::new(&dir);
        let (seq, adopted) = adopter.poll().unwrap().expect("epoch 0 is new");
        // Each injected copy-path failure was an open that failed outright;
        // the poll outlasted them without condemning the good bytes.
        assert!(faults.injected(Site::SnapshotMmap) > 0, "the map never failed");
        assert!(faults.injected(Site::SnapshotLoad) > 0, "no open ever failed");
        drop(guard);
        assert_eq!(seq, 0);
        assert_adopts(&adopted, &epoch);
        assert_eq!(names(&dir), ["epoch-0.snap"], "transient I/O must never condemn a file");

        // Newer epochs in a newer and an older format version are
        // unreadable here, not corrupt: the scan falls back to the older
        // valid epoch and leaves both files for a build that can read them.
        let version = crate::snapshot::VERSION;
        for (seq, skew) in [(2, version + 1), (3, version - 1)] {
            let mut bytes = Vec::new();
            build(62).write_to(&mut bytes).unwrap();
            bytes[8..12].copy_from_slice(&skew.to_le_bytes());
            fs::write(seq_path(&dir, seq), &bytes).unwrap();
        }
        build(63).write(seq_path(&dir, 1)).unwrap();
        let (seq, _) = adopter.poll().unwrap().expect("epoch 1 is new");
        assert_eq!(seq, 1);
        let all = ["epoch-0.snap", "epoch-1.snap", "epoch-2.snap", "epoch-3.snap"];
        assert_eq!(names(&dir), all);
        // Until then every poll reports the skew, and still moves nothing.
        assert!(matches!(adopter.poll(), Err(SnapshotError::UnsupportedVersion(_))));
        assert_eq!(adopter.last_adopted(), Some(1));
        assert_eq!(names(&dir), all);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn poll_quarantines_corrupt_epochs_and_falls_back() {
        let _calm = crate::no_faults();
        let dir = fresh_dir("poll-quarantine");
        let mut adopter = SnapshotAdopter::new(&dir);
        assert!(adopter.poll().unwrap().is_none(), "an empty directory has nothing new");

        let old = build(51);
        old.write(seq_path(&dir, 0)).unwrap();
        // A dead writer's leftover temp file…
        fs::write(dir.join("epoch-1.snap.tmp-99999-0"), b"partial").unwrap();
        // …and a *newer* epoch whose payload rotted.
        let mut bytes = Vec::new();
        build(52).write_to(&mut bytes).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        fs::write(seq_path(&dir, 1), &bytes).unwrap();

        let (seq, adopted) = adopter.poll().unwrap().expect("epoch 0 still loads");
        assert_eq!(seq, 0, "the scan must fall back to the valid epoch");
        assert_adopts(&adopted, &old);
        let after = names(&dir);
        assert!(!after.contains(&"epoch-1.snap".to_string()), "corrupt epoch kept: {after:?}");
        assert!(
            after.iter().any(|n| n.starts_with("epoch-1.snap.quarantine-")),
            "quarantine rename missing: {after:?}"
        );
        // Temp litter is never a candidate; taking the directory over as
        // its publisher sweeps it.
        assert!(after.contains(&"epoch-1.snap.tmp-99999-0".to_string()), "{after:?}");
        assert!(adopter.poll().unwrap().is_none(), "a quarantined file is no candidate");
        SnapshotPublisher::open(&dir).unwrap();
        assert!(!names(&dir).iter().any(|n| n.contains(".tmp-")), "temp litter not swept");
        fs::remove_dir_all(&dir).unwrap();
    }
}
