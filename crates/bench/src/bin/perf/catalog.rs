//! The benchmark's declared surface: workload names, metric names, units,
//! directions and bounds. `BENCHMARK.json`, `perf list`, the result
//! records and `perf compare` all read this table, and a test holds the
//! checked-in `BENCHMARK.json` equal to [`benchmark_json`].
//!
//! Every later performance claim in this repo names one metric and one
//! workload from here, so the names are part of the deliverable.

use serde::Value;

/// Seconds one run measures for (`run_seconds` of `BENCHMARK.json`); the
/// repetitions every workload makes are derived from it (see
/// `workloads::Plan`).
pub const RUN_SECONDS: u64 = 10;

/// Where the benchmark lives, relative to the repository root.
pub const PATH: &str = "crates/bench/src/bin/perf";

pub struct Workload {
    pub name: &'static str,
    /// One line: which layers it stresses and which it leaves idle.
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "build_dense",
        why: "ml20M preset, 138k users, GoldFinger-1024: the build is the load (solve ~88%, merge \
              ~8%, assignment ~4%); the short serving phase after it only probes the metrics every \
              workload must report",
    },
    Workload {
        name: "build_sparse_raw",
        why: "DBLP preset, 19k users, t=15, exact Jaccard: 17k tiny clusters, 15 lists per user; the \
              raw kernel is nearly all of the solve and the merge shows; serving phase and \
              GoldFinger kernels are probes only",
    },
    Workload {
        name: "serve_read",
        why: "ml10M preset, 70k users, engine built through cnc-runtime, read-only closed-loop \
              clients: beam search, one-vs-many kernels, epoch pin; no rebuild, and the insert \
              batches after the traffic are a probe",
    },
    Workload {
        name: "serve_mixed",
        why: "same epoch, every 16th operation an insert, rebuild every 256: incremental rebuild, \
              writer lock and epoch swap under read load; throughput is set by rebuild time",
    },
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Tier {
    /// A figure a user of the system sees; measured with tracing off, on
    /// every workload. `bound` is the share of the parent's median by
    /// which it may get worse.
    EndToEnd { bound: f64 },
    /// A user-path timing that could not hold any bound the contract
    /// allows on the box the benchmark was defined on (README, "Demoted
    /// metrics"). Still measured on every workload in both modes under
    /// its end-to-end name and judged by `perf compare` against
    /// [`DEMOTED_BOUND`], but listed under `per_layer` in
    /// `BENCHMARK.json`, where the driver does not gate on it.
    Demoted,
    /// A figure of one layer, measured in the traced run of every
    /// workload (layer = crate name).
    Layer,
    /// A per-layer figure that exists only on the workloads named: kept
    /// in the result records and the README, not in `BENCHMARK.json`,
    /// whose metrics every workload must report.
    Ledger { workloads: &'static [&'static str] },
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub tier: Tier,
    /// A count that must repeat bit for bit across runs with one seed.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name, unit, better, tier: Tier::EndToEnd { bound }, exact: false }
}

const fn demoted(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, tier: Tier::Demoted, exact: false }
}

/// The bound the demoted timings were last tried at: the widest the
/// contract allows.
pub const DEMOTED_BOUND: f64 = 0.25;

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, tier: Tier::Layer, exact: false }
}

const fn count(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, better: Better::Lower, tier: Tier::Layer, exact: true }
}

const fn ledger(
    name: &'static str,
    unit: &'static str,
    better: Better,
    workloads: &'static [&'static str],
) -> Metric {
    Metric { name, unit, better, tier: Tier::Ledger { workloads }, exact: false }
}

const BUILDS: &[&str] = &["build_dense", "build_sparse_raw"];
const SPARSE: &[&str] = &["build_sparse_raw"];
const READ: &[&str] = &["serve_read"];
const MIXED: &[&str] = &["serve_mixed"];
const SERVES: &[&str] = &["serve_read", "serve_mixed"];
const INCREMENTAL: &[&str] = &["build_sparse_raw", "serve_mixed"];

use Better::{Higher, Lower};

/// Every metric the binary can emit. Definitions are in the README next
/// to this file; the order here is the order they print in.
pub const METRICS: &[Metric] = &[
    // ── end to end ─────────────────────────────────────────────────────
    // Bounds: about three times the widest spread across ten seeds that
    // any workload showed (README, "End-to-end metrics"), because the
    // driver refuses a bound a spread exceeds. Recall alone gets less
    // than that: its spread is the dataset instance's, up to 9.6 %.
    e2e("setup_s", "s", Lower, 0.25),
    e2e("build_quality", "ratio", Higher, 0.03),
    e2e("query_recall_at_10", "ratio", Higher, 0.15),
    e2e("query_comparisons", "count", Lower, 0.10),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
    // ── user-path timings, demoted (see `Tier::Demoted`) ───────────────
    demoted("build_s", "s", Lower),
    demoted("query_qps", "1/s", Higher),
    demoted("query_p50_us", "us", Lower),
    demoted("query_p99_us", "us", Lower),
    demoted("insert_p50_us", "us", Lower),
    // ── per layer, every workload ──────────────────────────────────────
    layer("dataset.generate_ms", "ms", Lower),
    count("dataset.csr_bytes", "bytes"),
    layer("similarity.gf_build_serial_ms", "ms", Lower),
    layer("similarity.gf_build_parallel_ms", "ms", Lower),
    layer("similarity.gf1024_pairwise_mcmp_s", "Mcmp/s", Higher),
    layer("similarity.raw_pairwise_mcmp_s", "Mcmp/s", Higher),
    layer("similarity.raw_pairwise_scalar_mcmp_s", "Mcmp/s", Higher),
    layer("similarity.gf1024_one_vs_many_mcmp_s", "Mcmp/s", Higher),
    layer("core.assign_ms", "ms", Lower),
    layer("core.fingerprint_ms", "ms", Lower),
    layer("core.partition_ms", "ms", Lower),
    count("core.clusters", "count"),
    count("core.splits", "count"),
    count("core.max_cluster", "count"),
    count("core.comparisons", "count"),
    layer("core.composed_s", "s", Lower),
    layer("core.attributed_share", "ratio", Higher),
    layer("baselines.solve_s", "s", Lower),
    layer("baselines.solve_mcmp_s", "Mcmp/s", Higher),
    count("baselines.brute_clusters", "count"),
    count("baselines.greedy_clusters", "count"),
    layer("graph.merge_s", "s", Lower),
    count("graph.merge_entries", "count"),
    count("graph.bytes", "bytes"),
    layer("query.search_p50_us", "us", Lower),
    // Not exact: the beam walks neighbour lists in heap order, and a
    // parallel build leaves equal lists in different heap orders.
    layer("query.comparisons_per_query", "count", Lower),
    layer("query.single_qps", "1/s", Higher),
    layer("query.batch16_qps", "1/s", Higher),
    layer("query.recall_at_10_beam128", "ratio", Higher),
    layer("query.search_beam128_p50_us", "us", Lower),
    layer("query.insert_p50_us", "us", Lower),
    layer("serve.query_overhead_us", "us", Lower),
    layer("serve.query_p999_us", "us", Lower),
    layer("serve.single_qps", "1/s", Higher),
    layer("serve.batch16_qps", "1/s", Higher),
    count("serve.shed", "count"),
    layer("trace.overhead_pct", "%", Lower),
    // ── per layer, where the layer does work (ledger) ──────────────────
    ledger("threadpool.speedup", "ratio", Higher, SPARSE),
    ledger("runtime.execute_s", "s", Lower, BUILDS),
    ledger("runtime.vs_core", "ratio", Higher, BUILDS),
    ledger("runtime.shuffle_entries", "count", Lower, BUILDS),
    ledger("runtime.execute_spill_s", "s", Lower, SPARSE),
    ledger("runtime.incremental_s", "s", Lower, SPARSE),
    ledger("distrib.execute_p2_s", "s", Lower, SPARSE),
    ledger("distrib.vs_runtime", "ratio", Higher, SPARSE),
    ledger("core.incremental_s", "s", Lower, INCREMENTAL),
    ledger("core.from_scratch_s", "s", Lower, INCREMENTAL),
    ledger("core.incremental_reuse_ratio", "ratio", Higher, INCREMENTAL),
    ledger("core.incremental_comparisons_share", "ratio", Lower, INCREMENTAL),
    ledger("telemetry.build_overhead_pct", "%", Lower, SPARSE),
    ledger("telemetry.query_overhead_pct", "%", Lower, READ),
    ledger("serve.engine_build_s", "s", Lower, SERVES),
    ledger("serve.mixed_ops_s", "1/s", Higher, MIXED),
    ledger("serve.publish_s", "s", Lower, MIXED),
    ledger("serve.publish_quiet_s", "s", Lower, MIXED),
    ledger("serve.reuse_ratio", "ratio", Higher, MIXED),
    ledger("serve.rebuild_wall_share", "ratio", Lower, MIXED),
    ledger("serve.insert_stall_max_ms", "ms", Lower, MIXED),
    ledger("serve.handoff_s", "s", Lower, MIXED),
    ledger("serve.snapshot_write_s", "s", Lower, MIXED),
    ledger("serve.snapshot_bytes", "bytes", Lower, MIXED),
    ledger("serve.snapshot_amplification", "ratio", Lower, MIXED),
    ledger("serve.adopt_copy_ms", "ms", Lower, MIXED),
    ledger("serve.adopt_mmap_ms", "ms", Lower, MIXED),
];

/// End-to-end metrics that are deterministic for one seed, each with the
/// absolute amount (the issue's own bounds) by which one seed's value may
/// drop between two result sets: `perf compare` judges them seed by seed
/// besides by their medians, which only the spread across seeds loosens.
pub const PER_SEED: [(&str, f64); 2] = [("build_quality", 0.005), ("query_recall_at_10", 0.01)];

pub fn metric(name: &str) -> Option<&'static Metric> {
    METRICS.iter().find(|m| m.name == name)
}

/// The bound of the end-to-end metric `name`.
pub fn bound(name: &str) -> f64 {
    end_to_end().find(|(m, _)| m.name == name).expect("an end-to-end metric").1
}

pub fn end_to_end() -> impl Iterator<Item = (&'static Metric, f64)> {
    METRICS.iter().filter_map(|m| match m.tier {
        Tier::EndToEnd { bound } => Some((m, bound)),
        _ => None,
    })
}

/// The metrics `perf compare` judges: the end-to-end ones and the
/// demoted timings, each with its bound.
pub fn compared() -> impl Iterator<Item = (&'static Metric, f64)> {
    METRICS.iter().filter_map(|m| match m.tier {
        Tier::EndToEnd { bound } => Some((m, bound)),
        Tier::Demoted => Some((m, DEMOTED_BOUND)),
        _ => None,
    })
}

/// What every workload's traced run reports: the demoted timings and
/// the layer metrics.
pub fn per_layer() -> impl Iterator<Item = &'static Metric> {
    METRICS.iter().filter(|m| matches!(m.tier, Tier::Demoted | Tier::Layer))
}

/// Ledger metrics `workload` reports in its traced run.
pub fn ledger_of(workload: &str) -> impl Iterator<Item = &'static Metric> + '_ {
    METRICS.iter().filter(move |m| match m.tier {
        Tier::Ledger { workloads } => workloads.contains(&workload),
        _ => false,
    })
}

/// Whether `workload`'s traced run reports the ledger metric `name`.
pub fn owes(workload: &str, name: &str) -> bool {
    ledger_of(workload).any(|m| m.name == name)
}

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn text(s: &str) -> Value {
    Value::Str(s.to_owned())
}

fn named(m: &Metric) -> Vec<(&'static str, Value)> {
    vec![("name", text(m.name)), ("unit", text(m.unit)), ("better", text(m.better.name()))]
}

/// The contract file at the repository root, generated from the table
/// above (`perf list --benchmark-json`).
pub fn benchmark_json() -> Value {
    let manifest = format!("{PATH}/Cargo.toml");
    let command = ["cargo", "run", "--release", "--offline", "--quiet", "--manifest-path"]
        .into_iter()
        .chain([manifest.as_str(), "--", "run"])
        .map(text)
        .collect();
    object(vec![
        ("command", Value::Array(command)),
        ("paths", Value::Array(vec![text(PATH)])),
        ("run_seconds", Value::UInt(RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|w| object(vec![("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                end_to_end()
                    .map(|(m, bound)| {
                        let mut fields = named(m);
                        fields.push(("bound", Value::Float(bound)));
                        object(fields)
                    })
                    .collect(),
            ),
        ),
        ("per_layer", Value::Array(per_layer().map(|m| object(named(m))).collect())),
    ])
}

/// `perf list`: the contract lists plus the ledger metrics with the
/// workloads they exist on.
pub fn listing() -> Value {
    let Value::Object(mut fields) = benchmark_json() else { unreachable!("built as an object") };
    let ledger = METRICS
        .iter()
        .filter_map(|m| match m.tier {
            Tier::Ledger { workloads } => {
                let mut fields = named(m);
                fields
                    .push(("workloads", Value::Array(workloads.iter().map(|w| text(w)).collect())));
                Some(object(fields))
            }
            _ => None,
        })
        .collect();
    fields.push(("ledger".to_owned(), Value::Array(ledger)));
    let exact = METRICS.iter().filter(|m| m.exact).map(|m| text(m.name)).collect();
    fields.push(("exact".to_owned(), Value::Array(exact)));
    Value::Object(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS.iter().map(|w| w.name).chain(METRICS.iter().map(|m| m.name)) {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(seen.insert(name), "{name} declared twice");
        }
        for m in METRICS {
            assert!(
                m.unit.len() <= 16
                    && m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?} on {}",
                m.unit,
                m.name
            );
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: why too long", w.name);
        }
    }

    #[test]
    fn contract_limits_hold() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&end_to_end().count()));
        assert!((1..=128).contains(&per_layer().count()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let setup = end_to_end().find(|(m, _)| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.0.unit, setup.0.better), ("s", Better::Lower));
        let widest = end_to_end().map(|(_, b)| b).fold(0.0, f64::max);
        assert_eq!(setup.1, widest, "setup_s takes the largest bound");
        assert!(end_to_end().all(|(_, bound)| bound > 0.0 && bound <= 0.25));
    }

    #[test]
    fn ledger_metrics_name_real_workloads() {
        for m in METRICS {
            if let Tier::Ledger { workloads } = m.tier {
                assert!(!workloads.is_empty(), "{} exists nowhere", m.name);
                for w in workloads {
                    assert!(WORKLOADS.iter().any(|known| known.name == *w), "{}: {w}?", m.name);
                }
            }
        }
    }

    /// The checked-in contract is this binary's own listing: regenerate
    /// with `perf list --benchmark-json > BENCHMARK.json` after editing
    /// the table.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let checked_in = include_str!("../../../../../BENCHMARK.json");
        let parsed = serde::json::parse(checked_in).expect("BENCHMARK.json parses");
        assert_eq!(parsed, benchmark_json());
        assert!(checked_in.len() <= 64 * 1024);
    }
}
