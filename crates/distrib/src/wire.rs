//! The coordinator↔worker frame protocol.
//!
//! Every message is one *frame*: `[kind: u8][len: u32 LE][payload]`.
//! Neighbour-list payloads inside `ClusterDone` frames reuse the runtime's
//! spill codec verbatim ([`write_record`]/[`read_record`]: an 8-byte
//! `(user, len)` header, 8 bytes per neighbour, raw `f32` bits) — the
//! spill format *is* the wire format, so a distributed merge is
//! bit-identical to a spilled local one by construction. Each frame
//! groups its records by reduce shard ([`partition_of`]), the routing
//! both ends of the wire share.
//!
//! Frames are the unit of atomicity: a worker that dies mid-frame
//! leaves a truncated stream, the coordinator's reader fails the decode
//! and treats the worker as dead, and none of the partial frame's
//! records are merged. Completed frames already buffered in the pipe
//! still drain after the death, so a cluster is merged exactly once or
//! not at all.

use cnc_core::C2Config;
use cnc_core::ClusteringScheme;
use cnc_dataset::{Dataset, ItemId, UserId};
use cnc_graph::NeighborList;
use cnc_runtime::shuffle::{read_record, write_record};
use cnc_similarity::SimilarityBackend;
use std::io::{self, Read};

/// Bumped on any incompatible change; both ends verify it.
pub const PROTOCOL_VERSION: u32 = 2;

/// The reduce shard owning `user`, in `0..reduce_shards`.
///
/// A multiplicative (Fibonacci) hash rather than `user % R`: consecutive
/// user ids scatter across shards the way an opaque key hash would in a
/// real shuffle.
///
/// # Panics
/// Panics if `reduce_shards == 0`.
#[inline]
pub fn partition_of(user: UserId, reduce_shards: usize) -> usize {
    assert!(reduce_shards > 0, "at least one reduce shard is required");
    let h = (user as u64).wrapping_add(0x9E37_79B9_7F4A_7C15).wrapping_mul(0xD1B5_4A32_D192_ED03);
    ((h >> 32) as usize) % reduce_shards
}

/// The reduce-side view of [`partition_of`]: a total, disjoint cover of
/// `0..n` across `R` shards, plus each user's slot within its shard —
/// enough to concatenate per-shard outputs back into a graph without a
/// merge.
#[derive(Clone, Debug)]
pub struct ReducePartition {
    /// `owned[r]` lists shard r's users in increasing order.
    pub owned: Vec<Vec<UserId>>,
    /// `local_index[u]` is u's slot within `owned[partition_of(u, R)]`.
    pub local_index: Vec<u32>,
}

impl ReducePartition {
    /// Partitions users `0..n` across `reduce_shards` shards.
    pub fn new(n: usize, reduce_shards: usize) -> ReducePartition {
        let mut owned: Vec<Vec<UserId>> = vec![Vec::new(); reduce_shards];
        let mut local_index: Vec<u32> = vec![0; n];
        for u in 0..n as u32 {
            let shard = partition_of(u, reduce_shards);
            local_index[u as usize] = owned[shard].len() as u32;
            owned[shard].push(u);
        }
        ReducePartition { owned, local_index }
    }
}

/// Coordinator → worker: the job preamble (config + dataset + initial
/// cluster assignment).
pub const FRAME_JOB: u8 = 1;
/// Coordinator → worker: more clusters (requeued from a dead peer).
pub const FRAME_ADD_CLUSTERS: u8 = 2;
/// Coordinator → worker: drain and exit cleanly.
pub const FRAME_FINISH: u8 = 3;
/// Worker → coordinator: one solved cluster's routed partial lists.
pub const FRAME_CLUSTER_DONE: u8 = 10;
/// Worker → coordinator: queue drained, awaiting a command.
pub const FRAME_IDLE: u8 = 11;
/// Worker → coordinator: buffered `SpanRecord`s (telemetry on).
pub const FRAME_SPANS: u8 = 12;
/// Worker → coordinator: end-of-job counters.
pub const FRAME_STATS: u8 = 13;
/// Worker → coordinator: clean shutdown marker.
pub const FRAME_BYE: u8 = 14;

/// Decoder guard: larger payloads are corruption, not data.
const MAX_PAYLOAD: u32 = 1 << 30;

/// One decoded frame.
#[derive(Debug)]
pub struct Frame {
    /// `FRAME_*` kind tag.
    pub kind: u8,
    /// Raw payload (kind-specific encoding).
    pub payload: Vec<u8>,
}

/// Reads one frame. `Ok(None)` on clean EOF *before* the first header
/// byte; any mid-frame truncation is an error.
pub fn read_frame<R: Read>(input: &mut R) -> io::Result<Option<Frame>> {
    let mut first = [0u8; 1];
    match input.read_exact(&mut first) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let kind = first[0];
    kind_guard(kind)?;
    let mut len = [0u8; 4];
    input.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len);
    if len > MAX_PAYLOAD {
        return Err(corrupt("frame payload length out of range"));
    }
    let mut payload = vec![0u8; len as usize];
    input.read_exact(&mut payload)?;
    Ok(Some(Frame { kind, payload }))
}

fn kind_guard(kind: u8) -> io::Result<()> {
    match kind {
        FRAME_JOB | FRAME_ADD_CLUSTERS | FRAME_FINISH | FRAME_CLUSTER_DONE | FRAME_IDLE
        | FRAME_SPANS | FRAME_STATS | FRAME_BYE => Ok(()),
        other => Err(corrupt(&format!("unknown frame kind {other}"))),
    }
}

/// Frames a payload for the wire (header + body in one buffer, so the
/// transport writes it with a single `write_all`).
pub fn frame_bytes(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(5 + payload.len());
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn corrupt(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("distrib wire: {what}"))
}

// --- primitive helpers ---------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn read_exact_array<R: Read, const N: usize>(input: &mut R) -> io::Result<[u8; N]> {
    let mut buf = [0u8; N];
    input.read_exact(&mut buf)?;
    Ok(buf)
}

fn read_u8<R: Read>(input: &mut R) -> io::Result<u8> {
    Ok(read_exact_array::<R, 1>(input)?[0])
}

fn read_u32<R: Read>(input: &mut R) -> io::Result<u32> {
    Ok(u32::from_le_bytes(read_exact_array(input)?))
}

fn read_u64<R: Read>(input: &mut R) -> io::Result<u64> {
    Ok(u64::from_le_bytes(read_exact_array(input)?))
}

// --- C2Config codec ------------------------------------------------------

fn put_config(out: &mut Vec<u8>, c2: &C2Config) {
    put_u64(out, c2.k as u64);
    put_u32(out, c2.b);
    put_u64(out, c2.t as u64);
    put_u64(out, c2.max_cluster_size as u64);
    put_u64(out, c2.rho as u64);
    put_u64(out, c2.delta.to_bits());
    match c2.backend {
        SimilarityBackend::Raw => out.push(0),
        SimilarityBackend::GoldFinger { bits, seed } => {
            out.push(1);
            put_u64(out, bits as u64);
            put_u64(out, seed);
        }
    }
    out.push(match c2.scheme {
        ClusteringScheme::FastRandomHash => 0,
        ClusteringScheme::MinHash => 1,
    });
    put_u64(out, c2.threads as u64);
    put_u64(out, c2.seed);
}

fn read_config<R: Read>(input: &mut R) -> io::Result<C2Config> {
    let k = read_u64(input)? as usize;
    let b = read_u32(input)?;
    let t = read_u64(input)? as usize;
    let max_cluster_size = read_u64(input)? as usize;
    let rho = read_u64(input)? as usize;
    let delta = f64::from_bits(read_u64(input)?);
    let backend = match read_u8(input)? {
        0 => SimilarityBackend::Raw,
        1 => {
            let bits = read_u64(input)? as usize;
            let seed = read_u64(input)?;
            SimilarityBackend::GoldFinger { bits, seed }
        }
        other => return Err(corrupt(&format!("unknown backend tag {other}"))),
    };
    let scheme = match read_u8(input)? {
        0 => ClusteringScheme::FastRandomHash,
        1 => ClusteringScheme::MinHash,
        other => return Err(corrupt(&format!("unknown scheme tag {other}"))),
    };
    let threads = read_u64(input)? as usize;
    let seed = read_u64(input)?;
    Ok(C2Config { k, b, t, max_cluster_size, rho, delta, backend, scheme, threads, seed })
}

// --- Dataset codec -------------------------------------------------------

fn put_dataset(out: &mut Vec<u8>, dataset: &Dataset) {
    put_u32(out, dataset.num_users() as u32);
    put_u32(out, dataset.num_items() as u32);
    for user in 0..dataset.num_users() as UserId {
        let profile = dataset.profile(user);
        put_u32(out, profile.len() as u32);
        for &item in profile {
            put_u32(out, item);
        }
    }
}

fn read_dataset<R: Read>(input: &mut R) -> io::Result<Dataset> {
    let num_users = read_u32(input)? as usize;
    let num_items = read_u32(input)?;
    let mut profiles: Vec<Vec<ItemId>> = Vec::with_capacity(num_users);
    for _ in 0..num_users {
        let len = read_u32(input)? as usize;
        let mut profile = Vec::with_capacity(len);
        for _ in 0..len {
            profile.push(read_u32(input)?);
        }
        profiles.push(profile);
    }
    Ok(Dataset::from_profiles(profiles, num_items))
}

// --- Job / AddClusters ---------------------------------------------------

/// The decoded `FRAME_JOB` preamble.
#[derive(Debug)]
pub struct JobFrame {
    /// This worker's ordinal in `0..processes`.
    pub worker: u32,
    /// Total worker processes in the build.
    pub processes: u32,
    /// Reduce shard count (routing arity for [`Assignment`] outputs).
    pub reduce_shards: u32,
    /// Whether to record spans and ship them back at finish.
    pub telemetry: bool,
    /// Fault plan to arm, in [`cnc_faults::FaultPlan::spec`] form.
    pub faults_spec: Option<String>,
    /// The build configuration (decoded exactly; both sides re-derive
    /// the same `BuildPlan` from it).
    pub config: C2Config,
    /// The dataset (profiles cross the wire; the worker re-clusters).
    pub dataset: Dataset,
    /// Initial cluster assignment.
    pub assignments: Vec<Assignment>,
}

/// One assigned cluster: the *global* cluster index plus the
/// coordinator-tracked attempt number (how many processes have already
/// died on it — the `worker.exit` schedule is keyed on this, see
/// [`cnc_faults::Faults::inject_at`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Assignment {
    /// Index into the build plan's cluster list.
    pub cluster: u32,
    /// Prior failed attempts at this cluster, across all processes.
    pub attempt: u32,
}

fn put_assignments(out: &mut Vec<u8>, assignments: &[Assignment]) {
    put_u32(out, assignments.len() as u32);
    for a in assignments {
        put_u32(out, a.cluster);
        put_u32(out, a.attempt);
    }
}

fn read_assignments<R: Read>(input: &mut R) -> io::Result<Vec<Assignment>> {
    let count = read_u32(input)?;
    if count > MAX_PAYLOAD / 8 {
        return Err(corrupt("assignment count out of range"));
    }
    let mut assignments = Vec::with_capacity(count.min(65_536) as usize);
    for _ in 0..count {
        let cluster = read_u32(input)?;
        let attempt = read_u32(input)?;
        assignments.push(Assignment { cluster, attempt });
    }
    Ok(assignments)
}

/// Encodes a `FRAME_JOB` payload.
#[allow(clippy::too_many_arguments)]
pub fn encode_job(
    worker: u32,
    processes: u32,
    reduce_shards: u32,
    telemetry: bool,
    faults_spec: Option<&str>,
    config: &C2Config,
    dataset: &Dataset,
    assignments: &[Assignment],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + dataset.num_users() * 8);
    put_u32(&mut out, PROTOCOL_VERSION);
    put_u32(&mut out, worker);
    put_u32(&mut out, processes);
    put_u32(&mut out, reduce_shards);
    out.push(u8::from(telemetry));
    let spec = faults_spec.unwrap_or("");
    put_u32(&mut out, spec.len() as u32);
    out.extend_from_slice(spec.as_bytes());
    put_config(&mut out, config);
    put_dataset(&mut out, dataset);
    put_assignments(&mut out, assignments);
    out
}

/// Decodes a `FRAME_JOB` payload.
pub fn decode_job(payload: &[u8]) -> io::Result<JobFrame> {
    let input = &mut &payload[..];
    let version = read_u32(input)?;
    if version != PROTOCOL_VERSION {
        return Err(corrupt(&format!(
            "protocol version mismatch: coordinator {version}, worker {PROTOCOL_VERSION}"
        )));
    }
    let worker = read_u32(input)?;
    let processes = read_u32(input)?;
    let reduce_shards = read_u32(input)?;
    let telemetry = read_u8(input)? != 0;
    let spec_len = read_u32(input)? as usize;
    let mut spec = vec![0u8; spec_len];
    input.read_exact(&mut spec)?;
    let faults_spec = if spec.is_empty() {
        None
    } else {
        Some(String::from_utf8(spec).map_err(|_| corrupt("faults spec not UTF-8"))?)
    };
    let config = read_config(input)?;
    let dataset = read_dataset(input)?;
    let assignments = read_assignments(input)?;
    Ok(JobFrame {
        worker,
        processes,
        reduce_shards,
        telemetry,
        faults_spec,
        config,
        dataset,
        assignments,
    })
}

/// Encodes a `FRAME_ADD_CLUSTERS` payload.
pub fn encode_add_clusters(assignments: &[Assignment]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + assignments.len() * 8);
    put_assignments(&mut out, assignments);
    out
}

/// Decodes a `FRAME_ADD_CLUSTERS` payload.
pub fn decode_add_clusters(payload: &[u8]) -> io::Result<Vec<Assignment>> {
    read_assignments(&mut &payload[..])
}

// --- ClusterDone ---------------------------------------------------------

/// Decoded spill records bound for one reduce shard: `(user, partial
/// list)` exactly as the spill codec frames them.
pub type ShardRecords = Vec<(UserId, NeighborList)>;

/// One solved cluster, decoded: per-shard groups of spill records.
#[derive(Debug)]
pub struct ClusterDone {
    /// Global cluster index.
    pub cluster: u32,
    /// Similarity comparisons the solve cost.
    pub comparisons: u64,
    /// `(reduce shard, records)` groups.
    pub groups: Vec<(u32, ShardRecords)>,
}

/// Encodes a `FRAME_CLUSTER_DONE` payload. `groups[shard]` holds the
/// partial lists routed to that shard (empty groups are skipped).
pub fn encode_cluster_done(
    cluster: u32,
    comparisons: u64,
    groups: &[Vec<(UserId, NeighborList)>],
) -> io::Result<Vec<u8>> {
    let mut out = Vec::new();
    put_u32(&mut out, cluster);
    put_u64(&mut out, comparisons);
    let occupied = groups.iter().filter(|g| !g.is_empty()).count();
    put_u32(&mut out, occupied as u32);
    for (shard, group) in groups.iter().enumerate() {
        if group.is_empty() {
            continue;
        }
        put_u32(&mut out, shard as u32);
        put_u32(&mut out, group.len() as u32);
        for (user, list) in group {
            write_record(&mut out, *user, list)?;
        }
    }
    Ok(out)
}

/// Decodes a `FRAME_CLUSTER_DONE` payload (`k` bounds list lengths, as
/// in spill replay).
pub fn decode_cluster_done(payload: &[u8], k: usize) -> io::Result<ClusterDone> {
    let input = &mut &payload[..];
    let cluster = read_u32(input)?;
    let comparisons = read_u64(input)?;
    let n_groups = read_u32(input)?;
    let mut groups = Vec::with_capacity(n_groups.min(1024) as usize);
    for _ in 0..n_groups {
        let shard = read_u32(input)?;
        let count = read_u32(input)?;
        let mut records = Vec::with_capacity(count.min(65_536) as usize);
        for _ in 0..count {
            match read_record(input, k)? {
                Some(record) => records.push(record),
                None => return Err(corrupt("cluster-done record truncated")),
            }
        }
        groups.push((shard, records));
    }
    Ok(ClusterDone { cluster, comparisons, groups })
}

// --- Stats ---------------------------------------------------------------

/// End-of-job counters a worker reports before `FRAME_BYE`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerWireStats {
    /// Clusters solved (and shipped) by this process.
    pub clusters: u64,
    /// Similarity comparisons across its solves.
    pub comparisons: u64,
    /// In-process solve retries (caught injected panics).
    pub solve_retries: u64,
    /// Transport send retries: the sum of this process's `send_frame`
    /// returns, the stats frame's own excluded.
    pub transport_retries: u64,
    /// Total faults injected in this process.
    pub injected: u64,
    /// Wall time spent solving, in nanoseconds.
    pub busy_ns: u64,
}

/// Encodes a `FRAME_STATS` payload.
pub fn encode_stats(stats: &WorkerWireStats) -> Vec<u8> {
    let mut out = Vec::with_capacity(48);
    put_u64(&mut out, stats.clusters);
    put_u64(&mut out, stats.comparisons);
    put_u64(&mut out, stats.solve_retries);
    put_u64(&mut out, stats.transport_retries);
    put_u64(&mut out, stats.injected);
    put_u64(&mut out, stats.busy_ns);
    out
}

/// Decodes a `FRAME_STATS` payload.
pub fn decode_stats(payload: &[u8]) -> io::Result<WorkerWireStats> {
    let input = &mut &payload[..];
    Ok(WorkerWireStats {
        clusters: read_u64(input)?,
        comparisons: read_u64(input)?,
        solve_retries: read_u64(input)?,
        transport_retries: read_u64(input)?,
        injected: read_u64(input)?,
        busy_ns: read_u64(input)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dataset() -> Dataset {
        Dataset::from_profiles(
            vec![vec![0, 2, 5], vec![1, 2], vec![], vec![5, 6, 7, 8], vec![3]],
            9,
        )
    }

    fn sample_config() -> C2Config {
        C2Config {
            k: 7,
            b: 128,
            t: 3,
            max_cluster_size: 50,
            backend: SimilarityBackend::GoldFinger { bits: 256, seed: 99 },
            scheme: ClusteringScheme::MinHash,
            threads: 2,
            seed: 1234,
            ..C2Config::default()
        }
    }

    #[test]
    fn job_round_trips_config_dataset_and_assignment() {
        let dataset = sample_dataset();
        let c2 = sample_config();
        let assignments =
            vec![Assignment { cluster: 4, attempt: 0 }, Assignment { cluster: 9, attempt: 2 }];
        let payload = encode_job(
            1,
            4,
            2,
            true,
            Some("seed=5,p=0.1,sites=worker.exit"),
            &c2,
            &dataset,
            &assignments,
        );
        let job = decode_job(&payload).unwrap();
        assert_eq!(job.worker, 1);
        assert_eq!(job.processes, 4);
        assert_eq!(job.reduce_shards, 2);
        assert!(job.telemetry);
        assert_eq!(job.faults_spec.as_deref(), Some("seed=5,p=0.1,sites=worker.exit"));
        assert_eq!(job.config, c2);
        assert_eq!(job.dataset, dataset, "dataset crosses the wire bit-exactly");
        assert_eq!(job.assignments, assignments);
    }

    #[test]
    fn job_rejects_version_mismatch_and_truncation() {
        let payload = encode_job(0, 1, 1, false, None, &sample_config(), &sample_dataset(), &[]);
        let mut wrong = payload.clone();
        wrong[0] = wrong[0].wrapping_add(1);
        assert!(decode_job(&wrong).is_err());
        for cut in [3usize, 17, payload.len() - 1] {
            assert!(decode_job(&payload[..cut]).is_err(), "prefix {cut} accepted");
        }
    }

    #[test]
    fn cluster_done_round_trips_spill_records() {
        let k = 4;
        let mut a = NeighborList::new(k);
        a.insert(3, 0.25);
        a.insert(9, 0.75);
        let mut b = NeighborList::new(k);
        b.insert(1, f32::from_bits(0x3F80_0001)); // oddball bits stay exact
        let groups = vec![vec![(0u32, a.clone())], vec![], vec![(2u32, b.clone())]];
        let payload = encode_cluster_done(7, 5_000, &groups).unwrap();
        let done = decode_cluster_done(&payload, k).unwrap();
        assert_eq!(done.cluster, 7);
        assert_eq!(done.comparisons, 5_000);
        assert_eq!(done.groups.len(), 2, "empty shard groups are skipped");
        let (shard0, records0) = &done.groups[0];
        assert_eq!(*shard0, 0);
        assert_eq!(records0[0].0, 0);
        assert_eq!(records0[0].1.sorted(), a.sorted());
        let (shard2, records2) = &done.groups[1];
        assert_eq!(*shard2, 2);
        assert_eq!(records2[0].1.sorted(), b.sorted());
    }

    #[test]
    fn partitioner_is_a_function_into_range() {
        for shards in 1..8 {
            for user in 0..5_000u32 {
                let p = partition_of(user, shards);
                assert!(p < shards);
                assert_eq!(p, partition_of(user, shards), "partitioner must be deterministic");
            }
        }
    }

    #[test]
    fn partitioner_spreads_users_roughly_evenly() {
        let shards = 4;
        let mut counts = vec![0usize; shards];
        for user in 0..10_000u32 {
            counts[partition_of(user, shards)] += 1;
        }
        for (shard, &c) in counts.iter().enumerate() {
            assert!((1_500..=3_500).contains(&c), "shard {shard} owns {c} of 10000 users");
        }
    }

    #[test]
    #[should_panic(expected = "at least one reduce shard")]
    fn zero_shards_panics() {
        partition_of(0, 0);
    }

    #[test]
    fn frames_round_trip_and_reject_junk() {
        let bytes = frame_bytes(FRAME_IDLE, &[]);
        let frame = read_frame(&mut bytes.as_slice()).unwrap().unwrap();
        assert_eq!(frame.kind, FRAME_IDLE);
        assert!(frame.payload.is_empty());

        // Clean EOF before a header: None, not an error.
        assert!(read_frame(&mut &[][..]).unwrap().is_none());
        // Mid-frame truncation: error.
        let long = frame_bytes(FRAME_STATS, &encode_stats(&WorkerWireStats::default()));
        assert!(read_frame(&mut &long[..long.len() - 1]).is_err());
        // Unknown kind: error.
        let junk = frame_bytes(99, &[]);
        assert!(read_frame(&mut junk.as_slice()).is_err());
    }

    #[test]
    fn stats_and_add_clusters_round_trip() {
        let stats = WorkerWireStats {
            clusters: 3,
            comparisons: 1_000,
            solve_retries: 2,
            transport_retries: 5,
            injected: 7,
            busy_ns: 123_456,
        };
        assert_eq!(decode_stats(&encode_stats(&stats)).unwrap(), stats);

        let add = vec![Assignment { cluster: 11, attempt: 1 }];
        assert_eq!(decode_add_clusters(&encode_add_clusters(&add)).unwrap(), add);
    }
}
