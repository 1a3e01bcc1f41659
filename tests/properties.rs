//! Workspace-level property tests tying the theory to the implementation.

use cluster_and_conquer::prelude::*;
use cnc_core::frh::FastRandomHash;
use cnc_core::theory::collisions;
use cnc_similarity::SimilarityData;
use proptest::prelude::*;

fn profile_strategy() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::btree_set(0u32..2000, 1..80)
        .prop_map(|s| s.into_iter().collect::<Vec<_>>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 1's exact sandwich (Eq. 9) holds for the *conditional*
    /// probability identity (Eq. 6): over many seeds the empirical
    /// frequency stays within the averaged bounds.
    #[test]
    fn frh_collision_probability_is_sandwiched(
        p1 in profile_strategy(),
        p2 in profile_strategy(),
    ) {
        let b = 512u32;
        let trials = 400u64;
        let mut equal = 0u64;
        let (mut lower, mut upper) = (0.0f64, 0.0f64);
        let j = Jaccard::similarity(&p1, &p2);
        let mut union: Vec<u32> = p1.iter().chain(p2.iter()).copied().collect();
        union.sort_unstable();
        union.dedup();
        let ell = union.len() as f64;
        for seed in 0..trials {
            let frh = FastRandomHash::new(seed, b);
            if frh.user_hash(&p1) == frh.user_hash(&p2) {
                equal += 1;
            }
            let kappa = collisions(&frh, &p1, &p2) as f64;
            let density = kappa / ell;
            if density < 1.0 {
                lower += (j - density) / (1.0 - density);
                upper += (j + density) / (1.0 - density);
            } else {
                upper += 1.0;
            }
        }
        let p = equal as f64 / trials as f64;
        // 5σ statistical slack for 400 Bernoulli trials ≈ 0.125.
        prop_assert!(p >= lower / trials as f64 - 0.13,
            "P={p:.3} below lower bound {:.3}", lower / trials as f64);
        prop_assert!(p <= upper / trials as f64 + 0.13,
            "P={p:.3} above upper bound {:.3}", upper / trials as f64);
    }

    /// The clustering step is a partition per hash function, whatever the
    /// dataset and parameters.
    #[test]
    fn clustering_is_a_partition(
        seed in 0u64..1000,
        b in 2u32..64,
        t in 1usize..5,
        n_max in 5usize..100,
    ) {
        let mut cfg = SyntheticConfig::small(seed);
        cfg.num_users = 150;
        cfg.num_items = 120;
        cfg.mean_profile = 12.0;
        cfg.min_profile = 3;
        let ds = cfg.generate();
        let functions = FastRandomHash::family(seed, t, b);
        let clustering = cnc_core::cluster_dataset(&ds, &functions, n_max.max(2));
        let mut counts = vec![0usize; ds.num_users()];
        for cluster in &clustering.clusters {
            prop_assert!(!cluster.is_empty(), "empty cluster emitted");
            for &u in cluster {
                counts[u as usize] += 1;
            }
        }
        prop_assert!(counts.iter().all(|&c| c == t), "not a t-cover: {counts:?}");
    }

    /// The full pipeline returns, for every user, neighbours that actually
    /// exist and are never the user herself, with sims in [0, 1].
    #[test]
    fn c2_graph_is_well_formed(seed in 0u64..50) {
        let mut cfg = SyntheticConfig::small(seed);
        cfg.num_users = 120;
        cfg.num_items = 100;
        cfg.mean_profile = 10.0;
        cfg.min_profile = 3;
        let ds = cfg.generate();
        let config = C2Config {
            k: 5,
            b: 32,
            t: 3,
            max_cluster_size: 60,
            backend: SimilarityBackend::Raw,
            seed,
            threads: 1,
            ..C2Config::default()
        };
        let result = ClusterAndConquer::new(config).build(&ds);
        for (u, list) in result.graph.iter() {
            prop_assert!(list.len() <= 5);
            for nb in list.iter() {
                prop_assert!(nb.user != u, "self loop at {u}");
                prop_assert!((nb.user as usize) < ds.num_users());
                prop_assert!((0.0..=1.0).contains(&nb.sim), "sim {} out of range", nb.sim);
            }
        }
    }

    /// Comparison counting is exact for brute force regardless of threads.
    #[test]
    fn brute_force_comparison_count_is_invariant(threads in 1usize..5) {
        let mut cfg = SyntheticConfig::small(7);
        cfg.num_users = 80;
        cfg.num_items = 60;
        cfg.mean_profile = 8.0;
        cfg.min_profile = 2;
        let ds = cfg.generate();
        let sim = SimilarityData::build(SimilarityBackend::Raw, &ds);
        let ctx = BuildContext { dataset: &ds, sim: &sim, k: 4, threads, seed: 1 };
        BruteForce.build(&ctx);
        prop_assert_eq!(sim.comparisons(), 80 * 79 / 2);
    }
}

/// FNV-1a over a dataset's CSR: every offset and item as little-endian
/// bytes, then the item count. Datasets that differ in any bit differ in
/// their digests (but for a 2⁻⁶⁴-scale collision).
fn dataset_digest(ds: &Dataset) -> u64 {
    let mut bytes = Vec::with_capacity(8 * ds.offsets().len() + 4 * ds.items().len() + 8);
    for &offset in ds.offsets() {
        bytes.extend_from_slice(&(offset as u64).to_le_bytes());
    }
    for &item in ds.items() {
        bytes.extend_from_slice(&item.to_le_bytes());
    }
    bytes.extend_from_slice(&(ds.num_items() as u64).to_le_bytes());
    cnc_core::build_plan::fnv1a(&bytes)
}

/// The synthetic generator's output is pinned bit for bit: every
/// experiment, test and recorded quality figure starts from it, so any
/// change to how it consumes the seeded stream shows here first.
#[test]
fn synthetic_datasets_match_golden_digests() {
    let mut digests: Vec<(String, u64)> = Vec::new();
    for profile in DatasetProfile::ALL {
        for seed in [0u64, 1, 42] {
            let ds = profile.generate(0.02, seed);
            digests.push((format!("{}@{seed}", profile.name()), dataset_digest(&ds)));
        }
    }
    digests.push(("small@42".into(), dataset_digest(&SyntheticConfig::small(42).generate())));
    // Recorded from the generator before its stamp-dedup rewrite.
    let golden: [(&str, u64); 19] = [
        ("ml1M@0", 0x709903c3c60b35a5),
        ("ml1M@1", 0xc611fcfe2aacd808),
        ("ml1M@42", 0x7ea46d4ad083528d),
        ("ml10M@0", 0xfa3e778daead9085),
        ("ml10M@1", 0x684ae9f451001a02),
        ("ml10M@42", 0xa5323c1590340b87),
        ("ml20M@0", 0x38b9d592a7e45093),
        ("ml20M@1", 0x7b38e4092f5f7b9e),
        ("ml20M@42", 0xe317d432ec9be1ab),
        ("AM@0", 0x35a3765584ceb87b),
        ("AM@1", 0x21db7c4b94675f1f),
        ("AM@42", 0xc2c3538bd0a11a5e),
        ("DBLP@0", 0x36a584dd5d7ef29b),
        ("DBLP@1", 0x667c6f3012e1664d),
        ("DBLP@42", 0x4196c718e8be8b39),
        ("GW@0", 0x6a88cea28959e91c),
        ("GW@1", 0xc5a307521a341d8d),
        ("GW@42", 0x90084abcb2147f34),
        ("small@42", 0x068f5b6d4ed4ab57),
    ];
    assert_eq!(digests, golden.map(|(name, digest)| (name.to_string(), digest)));
}

/// The golden digests above cover scale 0.02, where ml10M's 1,396 users
/// and ml20M's 2,767 already fill several of the generator's 256-user
/// chunks; this pins the three presets the benchmark generates at full
/// scale: dense ml20M and ml10M and sparse DBLP, in 541, 273 and 74 chunks,
/// at seed 42 and at `perf`'s first seed, 101.
/// Optimised builds only: a debug build spends ≈ 16 s generating them.
#[test]
#[cfg_attr(debug_assertions, ignore = "full-scale generation; run with --release")]
fn full_scale_presets_match_golden_digests() {
    let presets =
        [DatasetProfile::MovieLens20M, DatasetProfile::MovieLens10M, DatasetProfile::Dblp];
    let mut digests: Vec<(String, u64)> = Vec::new();
    for seed in [42u64, 101] {
        for profile in presets {
            let ds = profile.generate(1.0, seed);
            digests.push((format!("{}@{seed}", profile.name()), dataset_digest(&ds)));
        }
    }
    // Seed 42 recorded from the generator before its look-ahead rewrite,
    // seed 101 before its multiply-shift column pick and bulk window fill.
    let golden: [(&str, u64); 6] = [
        ("ml20M@42", 0x34e47ed7c786a378),
        ("ml10M@42", 0xa8a298cbf945d837),
        ("DBLP@42", 0x4d749e6a62a90a73),
        ("ml20M@101", 0xe9a740018cd95d5c),
        ("ml10M@101", 0x725c8151a8a8aac5),
        ("DBLP@101", 0xa2e35d956d6b75cc),
    ];
    assert_eq!(digests, golden.map(|(name, digest)| (name.to_string(), digest)));
}
