//! Integration suite for the SLO-aware serving layer: token-bucket
//! admission and adaptive-beam controller properties, `query_batch`
//! against `try_query` slot by slot, the recall@k ground-truth harness,
//! and the engine-level overload behaviour (typed shed, never a panic).

use cluster_and_conquer::prelude::*;
use cnc_eval::groundtruth::{GroundTruth, GroundTruthConfig};
use cnc_serve::{BatchRequest, ManualClock, SloAction, SloConfig, SloController, TokenBucket};
use proptest::prelude::*;
use std::time::Duration;

fn dataset(seed: u64, users: usize) -> Dataset {
    let mut cfg = SyntheticConfig::small(seed);
    cfg.num_users = users;
    cfg.num_items = users.max(120);
    cfg.communities = 6;
    cfg.mean_profile = 16.0;
    cfg.min_profile = 5;
    cfg.generate()
}

/// Neighbour lists compared as `(user, sim bit pattern)`.
fn bits(result: &cnc_query::QueryResult) -> Vec<(u32, u32)> {
    result.neighbors.iter().map(|n| (n.user, n.sim.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Token bucket: over any run, admitted work never exceeds
    /// `burst + rate × elapsed` (integer-exact refill, charge-then-settle
    /// refunds included), and the admit/shed pattern is a deterministic
    /// function of the seeded clock.
    #[test]
    fn admitted_work_never_exceeds_the_budget(
        rate in 1u64..50_000,
        burst in 1u64..10_000,
        ops in proptest::collection::vec((0u64..5_000_000, 1u64..400, 0u64..100), 1..120),
    ) {
        let clock = ManualClock::new();
        let bucket = TokenBucket::with_manual_clock(rate, burst, &clock);
        let replay_clock = ManualClock::new();
        let replay = TokenBucket::with_manual_clock(rate, burst, &replay_clock);
        let mut elapsed_ns: u128 = 0;
        let mut admitted_work: u128 = 0;
        for &(advance, cost, spend_pct) in &ops {
            clock.advance(Duration::from_nanos(advance));
            replay_clock.advance(Duration::from_nanos(advance));
            elapsed_ns += advance as u128;
            let outcome = bucket.try_acquire(cost);
            let replayed = replay.try_acquire(cost);
            prop_assert_eq!(
                outcome.map_err(|r| r.retry_after),
                replayed.map_err(|r| r.retry_after),
                "shed decisions must be deterministic under the seeded clock"
            );
            if outcome.is_ok() {
                // The query runs, spending some fraction of its charge.
                let actual = cost * spend_pct.min(100) / 100;
                bucket.settle(cost, actual);
                replay.settle(cost, actual);
                admitted_work += actual as u128;
                // Work admitted so far can never exceed the budget line:
                // the initial burst plus everything refilled since, with
                // one token of slack for the carry numerator.
                let ceiling = burst as u128 + (elapsed_ns * rate as u128) / 1_000_000_000 + 1;
                prop_assert!(
                    admitted_work <= ceiling,
                    "admitted {admitted_work} > budget ceiling {ceiling}"
                );
            } else {
                // A rejection must carry a usable retry hint.
                prop_assert!(outcome.unwrap_err().retry_after > Duration::ZERO);
            }
        }
        prop_assert_eq!(bucket.balance(), replay.balance());
    }

    /// Controller: whatever p99 sequence it observes, the beam scale
    /// stays in [floor, 100] and the derived width never drops below the
    /// configured minimum.
    #[test]
    fn beam_never_drops_below_the_configured_floor(
        target in 1u64..10_000_000,
        full_beam in 8usize..64,
        min_pick in 1usize..8,
        p99s in proptest::collection::vec(0u64..20_000_000, 1..60),
    ) {
        let min_beam = min_pick.min(full_beam);
        let mut controller = SloController::new(target, full_beam, min_beam);
        for &p99 in &p99s {
            controller.observe(p99);
            prop_assert!(controller.scale_pct() <= 100);
            prop_assert!(
                controller.beam_width() >= min_beam,
                "beam {} below floor {min_beam} at scale {}%",
                controller.beam_width(),
                controller.scale_pct()
            );
            prop_assert!(controller.beam_width() <= full_beam);
        }
    }

    /// Recovery: after an arbitrary burst of SLO misses, a healthy stretch
    /// restores the full beam width.
    #[test]
    fn recovery_after_burst_restores_full_width(
        misses in 1usize..20,
        full_beam in 8usize..64,
    ) {
        let target = 1_000_000u64;
        let mut controller = SloController::new(target, full_beam, 2);
        for _ in 0..misses {
            controller.observe(target * 10);
        }
        prop_assert!(controller.scale_pct() < 100, "misses must degrade the beam");
        // Each +25% recovery step needs 2 consecutive healthy windows;
        // from the floor that is bounded by 2 × ceil(100/25) + slack.
        for _ in 0..16 {
            controller.observe(target / 2);
        }
        prop_assert_eq!(controller.scale_pct(), 100);
        prop_assert_eq!(controller.beam_width(), full_beam);
    }
}

#[test]
fn controller_degrades_by_halving_and_reports_actions() {
    let mut controller = SloController::new(1_000, 32, 4);
    assert_eq!(controller.observe(2_000), SloAction::Degrade);
    assert_eq!(controller.scale_pct(), 50);
    assert_eq!(controller.observe(2_000), SloAction::Degrade);
    assert_eq!(controller.scale_pct(), 25);
    // Healthy windows: hold, then recover on the second.
    assert_eq!(controller.observe(500), SloAction::Hold);
    assert_eq!(controller.observe(500), SloAction::Recover);
    assert_eq!(controller.scale_pct(), 50);
    // A miss resets the healthy streak.
    assert_eq!(controller.observe(2_000), SloAction::Degrade);
    assert_eq!(controller.observe(500), SloAction::Hold);
    assert_eq!(controller.observe(2_000), SloAction::Degrade);
}

fn serving_config(users_hint: usize) -> ServingConfig {
    ServingConfig {
        c2: C2Config {
            k: 8,
            backend: SimilarityBackend::GoldFinger { bits: 1024, seed: 21 },
            seed: 5,
            threads: 1,
            ..C2Config::default()
        },
        runtime: RuntimeConfig::with_workers(2),
        beam: BeamSearchConfig {
            beam_width: 16.min(users_hint),
            entry_points: 4,
            max_comparisons: 0,
        },
        rebuild_after: 0,
        ..ServingConfig::default()
    }
}

/// Engine-level equivalence: `query_batch` answers every slot, in order,
/// bit-identically to `try_query` with the same arguments — neighbours,
/// comparison counts and seed counts — and counts each query once.
#[test]
fn engine_batched_paths_match_try_query_bitwise() {
    let ds = dataset(31, 180);
    let engine = ServingEngine::build(ds.clone(), serving_config(180));
    assert!(engine.query_batch(&[]).is_empty());
    for batch in [1usize, 10, 70] {
        let requests: Vec<BatchRequest> = (0..batch)
            .map(|q| BatchRequest {
                // Reversed: the engine normalizes batch profiles too.
                profile: ds.profile((q * 11 % 180) as u32).iter().rev().copied().collect(),
                k: 3 + q % 4,
                seed: 900 + q as u64,
            })
            .collect();
        let before = engine.stats().queries;
        let batched = engine.query_batch(&requests);
        assert_eq!(batched.len(), requests.len());
        assert_eq!(engine.stats().queries - before, batch as u64);
        for (request, outcome) in requests.iter().zip(batched) {
            let got = outcome.expect("no budget configured, nothing sheds");
            let single = engine.try_query(&request.profile, request.k, request.seed).unwrap();
            assert_eq!(bits(&got), bits(&single));
            assert_eq!(
                (got.comparisons, got.routed_seeds, got.random_seeds),
                (single.comparisons, single.routed_seeds, single.random_seeds)
            );
        }
    }
}

/// Overload: a starvation budget sheds with typed rejections carrying a
/// retry hint — never a panic, never a silent slow query — while the
/// queries that were admitted still answer correctly.
#[test]
fn overloaded_engine_sheds_with_typed_rejections() {
    let ds = dataset(41, 150);
    let mut config = serving_config(150);
    // One comparison per second: the burst covers exactly one query's
    // worst-case charge, after which the bucket needs hours to refill.
    config.slo = SloConfig { budget_per_sec: 1, ..SloConfig::default() };
    let engine = ServingEngine::build(ds.clone(), config);

    let first = engine.try_query(ds.profile(0), 5, 1);
    assert!(first.is_ok(), "the initial burst must admit the first query");
    let mut sheds = 0;
    for q in 0..20u64 {
        match engine.try_query(ds.profile((q % 50) as u32), 5, q) {
            Ok(_) => {}
            Err(rejected) => {
                sheds += 1;
                assert!(rejected.retry_after > Duration::ZERO, "shed must carry a retry hint");
                assert!(rejected.to_string().contains("retry"), "typed error must explain itself");
            }
        }
    }
    assert!(sheds >= 19, "starvation budget admitted too much ({sheds} sheds)");
    let stats = engine.stats();
    assert_eq!(stats.shed, sheds);
    assert!(stats.admitted >= 1);

    // The batch path sheds per request, answering every slot.
    let requests: Vec<BatchRequest> = (0..4)
        .map(|q| BatchRequest { profile: ds.profile(q).to_vec(), k: 5, seed: q as u64 })
        .collect();
    let outcomes = engine.query_batch(&requests);
    assert_eq!(outcomes.len(), 4);
    assert!(outcomes.iter().all(|o| o.is_err()), "every slot sheds under starvation");

    // The unmetered path is untouched by the budget.
    let unmetered = engine.query(ds.profile(1), 5, 99);
    assert_eq!(unmetered.neighbors.len(), 5);
}

/// Admission accounting with routed seeds: seeds count against the
/// comparison cap, so the charge (the cap) is a true upper bound on what a
/// query spends, and settling refunds exactly the unspent part — through
/// `try_query` and `query_batch` alike.
#[test]
fn routed_queries_never_outspend_their_charge_and_refunds_are_exact() {
    let ds = dataset(59, 200);
    let burst = 1_000_000u64;
    // (configured cap, the charge admission derives from it): an explicit
    // cap is the charge; an uncapped beam is capped at its seeds plus 64
    // expansions; a cap below the beam width also cuts the seeds short.
    for (max_comparisons, charge) in [(40usize, 40u64), (0, 16 + 64 * 16), (5, 5)] {
        let mut config = serving_config(200);
        config.beam.max_comparisons = max_comparisons;
        // One token a second: nothing refills while the test runs, so the
        // balance moves only by charges and refunds.
        config.slo = SloConfig { budget_per_sec: 1, burst, ..SloConfig::default() };
        let engine = ServingEngine::build(ds.clone(), config);
        let started = std::time::Instant::now();
        assert_eq!(engine.budget_balance(), Some(burst));

        let mut spent = 0u64;
        let mut account = |result: &cnc_query::QueryResult| {
            assert!(result.routed_seeds > 0, "in-sample profiles start in their clusters");
            assert!(
                result.routed_seeds + result.random_seeds <= charge as usize,
                "a capped query scores at most `cap` seeds"
            );
            assert!(
                result.comparisons as u64 <= charge,
                "query spent {} against a charge of {charge}",
                result.comparisons
            );
            spent += result.comparisons as u64;
        };
        for q in 0..40u64 {
            account(&engine.try_query(ds.profile((q * 3 % 200) as u32), 5, q).unwrap());
        }
        let requests: Vec<BatchRequest> = (0..12)
            .map(|q| BatchRequest { profile: ds.profile(q * 7).to_vec(), k: 5, seed: q as u64 })
            .collect();
        for outcome in engine.query_batch(&requests) {
            account(&outcome.expect("the burst covers every query"));
        }

        let balance = engine.budget_balance().unwrap();
        let refilled = balance.checked_sub(burst - spent).expect("a refund underpaid");
        assert!(
            refilled <= started.elapsed().as_secs() + 1,
            "balance {balance} is {refilled} above burst - spent = {}: a refund overpaid",
            burst - spent
        );
    }
}

/// Light load with no budget: nothing sheds, the controller holds the
/// full beam — the CI smoke contract.
#[test]
fn unbudgeted_engine_never_sheds() {
    let ds = dataset(43, 120);
    let engine = ServingEngine::build(ds.clone(), serving_config(120));
    for q in 0..30u64 {
        engine.try_query(ds.profile((q % 40) as u32), 5, q).expect("no budget, no shed");
    }
    let stats = engine.stats();
    assert_eq!(stats.shed, 0);
    assert_eq!(engine.beam_scale_pct(), 100);
}

/// An impossible SLO target forces the adaptive beam to degrade — and
/// the scale floor holds.
#[test]
fn impossible_slo_narrows_the_beam_to_its_floor_but_not_below() {
    let ds = dataset(47, 200);
    let mut config = serving_config(200);
    config.slo = SloConfig {
        target_p99_us: 1, // 1 µs p99: unattainable, every window misses
        min_beam_width: 6,
        controller_every: 16,
        ..SloConfig::default()
    };
    let engine = ServingEngine::build(ds.clone(), config);
    let mut session = engine.session();
    for q in 0..400u64 {
        let result = engine.query_with(&mut session, ds.profile((q % 100) as u32), 5, q);
        assert!(result.neighbors.len() <= 5);
    }
    let scale = engine.beam_scale_pct();
    assert!(scale < 100, "impossible SLO must degrade the beam (scale {scale}%)");
    // floor = ceil(min_beam × 100 / full_beam) = ceil(600/16)
    assert!(scale >= 38, "scale {scale}% fell below the floor");
    // A degraded query fills the *scaled* beam with seeds, not the
    // configured one (the scale only ever falls under this target).
    let width = (16 * scale as usize / 100).max(6);
    let degraded = engine.query_with(&mut session, ds.profile(3), 5, 1);
    assert!(degraded.routed_seeds > 0);
    assert!(
        degraded.routed_seeds + degraded.random_seeds <= width,
        "{} seeds for a beam scaled to {width}",
        degraded.routed_seeds + degraded.random_seeds
    );
}

/// The recall harness against a live engine: exact search scores a
/// perfect recall, the approximate path scores within `[0, 1]`, and
/// recall never falls as the per-query comparison cap loosens.
#[test]
fn recall_harness_is_exact_and_monotone_in_the_comparison_cap() {
    let ds = dataset(53, 170);
    let engine = ServingEngine::build(ds, serving_config(170));
    let truth_cfg = GroundTruthConfig { sample: 10, k: 6, seed: 77 };

    let epoch = engine.current_epoch();
    let truth = GroundTruth::compute(epoch.dataset(), &truth_cfg, 0);

    // Unbudgeted exact search recalls 1.0 on every sampled query.
    let index = epoch.index();
    for (qi, &donor) in truth.queries.iter().enumerate() {
        let exact = index.exact_search(epoch.dataset().profile(donor), truth_cfg.k);
        let ids: Vec<u32> = exact.neighbors.iter().map(|n| n.user).collect();
        assert_eq!(truth.recall_of(qi, &ids), 1.0, "exact search must recall 1.0");
        assert_eq!(exact.comparisons, epoch.dataset().num_users());
    }
    // The approximate path is bounded by 1 and not degenerate.
    for (qi, &donor) in truth.queries.iter().enumerate() {
        let approx = engine.query(epoch.dataset().profile(donor), truth_cfg.k, qi as u64);
        let ids: Vec<u32> = approx.neighbors.iter().map(|n| n.user).collect();
        let recall = truth.recall_of(qi, &ids);
        assert!((0.0..=1.0).contains(&recall));
    }

    // Against the metric the engine ranks by (the GoldFinger estimate), a
    // looser per-query comparison cap never recalls less: a capped search
    // visits a prefix of what the uncapped one visits.
    let gf = epoch.fingerprints().expect("a GoldFinger epoch carries its fingerprints");
    let same_metric =
        GroundTruth::compute_with(epoch.dataset(), &truth_cfg, 0, |d, v| gf.estimate(d, v) as f32);
    let recall_at = |max_comparisons: usize| {
        let beam = BeamSearchConfig { max_comparisons, ..engine.config().beam };
        let answers: Vec<Vec<u32>> = same_metric
            .queries
            .iter()
            .enumerate()
            .map(|(qi, &donor)| {
                let profile = epoch.dataset().profile(donor);
                let found = index.search(profile, truth_cfg.k, &beam, qi as u64).neighbors;
                found.iter().map(|n| n.user).collect()
            })
            .collect();
        same_metric.mean_recall(&answers)
    };
    let recalls = [16, 32, 64, 0].map(recall_at);
    assert!(
        recalls.windows(2).all(|w| w[1] >= w[0] - 1e-9),
        "recall fell as the cap rose: {recalls:?}"
    );
}
