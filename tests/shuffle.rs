//! The runtime's file-backed spill lane: its directory is gone after a
//! build, the codec round-trips exactly, and the partitioner covers every
//! user once. Every `(workers, spill)` cell's graph, merge traffic and
//! spill route are `tests/conformance.rs`'s.

use cluster_and_conquer::prelude::*;
use cnc_distrib::partition_of;
use cnc_graph::NeighborList;
use cnc_runtime::shuffle::{encoded_len, read_record, write_record};
use cnc_runtime::Runtime;

fn dataset() -> Dataset {
    let mut cfg = SyntheticConfig::small(3131);
    cfg.num_users = 600;
    cfg.num_items = 450;
    cfg.communities = 10;
    cfg.mean_profile = 25.0;
    cfg.min_profile = 8;
    cfg.generate()
}

fn c2_config() -> C2Config {
    C2Config {
        k: 8,
        b: 64,
        t: 4,
        max_cluster_size: 130,
        backend: SimilarityBackend::Raw,
        seed: 31,
        threads: 1,
        ..C2Config::default()
    }
}

/// The spill temp dir must be gone by the time the build returns.
#[test]
fn spill_directory_is_cleaned_up() {
    let ds = dataset();
    let config = RuntimeConfig { workers: 2, spill: SpillMode::Always };
    let result = Runtime::new(config).execute(&ds, &c2_config());
    let dir = result.report.spill_dir.as_ref().expect("spilling build records its dir");
    assert!(!dir.exists(), "{} must be removed after the build", dir.display());
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The distributed build's partitioning is a total disjoint cover:
        /// every user lands in exactly one in-range shard,
        /// deterministically.
        #[test]
        fn partitioning_is_a_total_disjoint_cover(n in 1usize..3000, shards in 1usize..10) {
            let mut counts = vec![0usize; shards];
            for u in 0..n as u32 {
                let p = partition_of(u, shards);
                prop_assert!(p < shards, "user {} escaped to shard {} of {}", u, p, shards);
                prop_assert_eq!(p, partition_of(u, shards), "partitioner must be deterministic");
                counts[p] += 1;
            }
            // Each user is counted once, so shard sizes sum to n: the
            // partition covers the users and the parts are disjoint.
            prop_assert_eq!(counts.iter().sum::<usize>(), n);
        }

        /// Spill-file round-trip (encode→decode) is lossless for
        /// arbitrary partial lists: the decoded list holds exactly the
        /// encoded entries, with bit-identical similarities.
        #[test]
        fn spill_round_trip_is_lossless(
            user in 0u32..100_000,
            inserts in proptest::collection::vec((0u32..5_000, -1000i32..1000), 0..40),
            k in 1usize..16,
        ) {
            let mut original = NeighborList::new(k);
            for &(neighbor, sim_raw) in &inserts {
                original.insert(neighbor, sim_raw as f32 / 128.0);
            }
            let mut buf = Vec::new();
            let written = write_record(&mut buf, user, &original).unwrap();
            prop_assert_eq!(written, encoded_len(&original));
            prop_assert_eq!(written as usize, buf.len());

            let mut reader = buf.as_slice();
            let (decoded_user, decoded) = read_record(&mut reader, k).unwrap().unwrap();
            prop_assert_eq!(decoded_user, user);
            prop_assert_eq!(decoded.len(), original.len());
            let got: Vec<(u32, u32)> =
                decoded.sorted().iter().map(|n| (n.user, n.sim.to_bits())).collect();
            let expect: Vec<(u32, u32)> =
                original.sorted().iter().map(|n| (n.user, n.sim.to_bits())).collect();
            prop_assert_eq!(got, expect, "decoded list differs from the encoded one");
            prop_assert!(read_record(&mut reader, k).unwrap().is_none(), "trailing bytes");
        }

        /// Concatenated records decode back one-for-one, in order — the
        /// exact access pattern of a spill file's replay.
        #[test]
        fn spill_streams_replay_in_order(
            lists in proptest::collection::vec(
                proptest::collection::vec((0u32..2_000, 0i32..256), 0..12),
                0..25,
            ),
        ) {
            let k = 12;
            let originals: Vec<NeighborList> = lists
                .iter()
                .map(|entries| {
                    let mut l = NeighborList::new(k);
                    for &(neighbor, sim_raw) in entries {
                        l.insert(neighbor, sim_raw as f32 / 256.0);
                    }
                    l
                })
                .collect();
            let mut buf = Vec::new();
            for (i, l) in originals.iter().enumerate() {
                write_record(&mut buf, i as u32, l).unwrap();
            }
            let mut reader = buf.as_slice();
            for (i, l) in originals.iter().enumerate() {
                let (user, decoded) = read_record(&mut reader, k).unwrap().unwrap();
                prop_assert_eq!(user, i as u32);
                prop_assert_eq!(decoded.sorted(), l.sorted());
            }
            prop_assert!(read_record(&mut reader, k).unwrap().is_none());
        }
    }
}
