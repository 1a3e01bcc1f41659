//! One run's result: what `perf run` prints, appends to a result set and
//! `perf compare` reads back.
//!
//! A result set is a file of these records, one JSON object per line, so
//! a run only ever appends (no read-modify-write of shared keys).

use crate::catalog::{self, Better, Tier};
use crate::stats::Summary;
use crate::trace::LayerTime;
use serde::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Where the numbers were taken.
#[derive(Clone, Debug, PartialEq)]
pub struct Machine {
    /// Build threads, runtime workers and client threads: `min(nproc, 4)`.
    pub threads: usize,
    pub nproc: usize,
    pub isa: String,
    pub rustc: String,
    pub git_sha: String,
}

/// A correctness check a run made before it agreed to print timings.
#[derive(Clone, Debug)]
pub struct Gate {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// The same job measured by a fast path and by the plain path, in one or
/// more alternating rounds.
#[derive(Clone, Debug)]
pub struct Rent {
    pub pair: &'static str,
    /// Medians over the rounds.
    pub fast: f64,
    pub plain: f64,
    pub unit: &'static str,
    /// How many times better the fast path is (> 1 pays rent): the median
    /// of the per-round ratios.
    pub ratio: f64,
    /// Smallest and largest per-round ratio.
    pub range: (f64, f64),
    pub rounds: usize,
}

/// Two timings taken once each, back to back, differ by up to this share
/// on the box the benchmark was defined on (README, "Demoted metrics"); a
/// single pair closer to 1 than that decides nothing.
const SINGLE_PAIR_SWING: f64 = 0.25;

impl Rent {
    /// `fast[i]` and `plain[i]` are the two readings of round `i`.
    pub fn of(
        pair: &'static str,
        unit: &'static str,
        better: Better,
        fast: &[f64],
        plain: &[f64],
    ) -> Rent {
        let ratios: Vec<f64> = fast
            .iter()
            .zip(plain)
            .map(|(fast, plain)| match better {
                Better::Higher => fast / plain,
                Better::Lower => plain / fast,
            })
            .collect();
        let of = |samples: &[f64]| Summary::of(samples).expect("at least one round");
        let ratio = of(&ratios);
        Rent {
            pair,
            fast: of(fast).median,
            plain: of(plain).median,
            unit,
            ratio: ratio.median,
            range: (ratio.min, ratio.max),
            rounds: ratio.n,
        }
    }

    /// `pays` or `loses` when every round falls on the same side of 1 — a
    /// single pair, when it is further from 1 than two single timings
    /// swing — and `unresolved` otherwise.
    pub fn verdict(&self) -> &'static str {
        let (low, high) = match self.rounds {
            1 => (self.ratio / (1.0 + SINGLE_PAIR_SWING), self.ratio * (1.0 + SINGLE_PAIR_SWING)),
            _ => self.range,
        };
        if low > 1.0 {
            "pays"
        } else if high < 1.0 {
            "loses"
        } else {
            "unresolved"
        }
    }
}

#[derive(Clone, Debug)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Scale 0.02: drives the code, never comparable.
    pub smoke: bool,
    pub machine: Machine,
    /// `(users, items, ratings)` of the generated dataset.
    pub sizes: (usize, usize, usize),
    /// Repetitions actually made, by name.
    pub reps: Vec<(&'static str, u64)>,
    pub attempted: u64,
    pub failed: u64,
    pub gates: Vec<Gate>,
    pub metrics: Vec<(&'static str, Summary)>,
    pub layers: BTreeMap<&'static str, LayerTime>,
    pub rent: Vec<Rent>,
}

impl Record {
    /// Adds a metric. Names come from the catalog and are emitted once.
    pub fn emit(&mut self, name: &'static str, value: Summary) {
        assert!(catalog::metric(name).is_some(), "{name} is not in the catalog");
        assert!(self.metrics.iter().all(|(n, _)| *n != name), "{name} emitted twice");
        self.metrics.push((name, value));
    }

    pub fn emit_one(&mut self, name: &'static str, value: f64) {
        self.emit(name, Summary::one(value));
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|(_, s)| s.median)
    }

    /// Records a gate; a failed gate counts as one failed operation.
    pub fn gate(&mut self, name: &'static str, outcome: Result<(), String>) {
        self.attempted += 1;
        let (ok, detail) = match outcome {
            Ok(()) => (true, String::new()),
            Err(detail) => (false, detail),
        };
        if !ok {
            self.failed += 1;
        }
        self.gates.push(Gate { name, ok, detail });
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.gates.iter().all(|g| g.ok)
    }

    /// Declared metrics this run owes but did not emit.
    pub fn missing(&self) -> Vec<&'static str> {
        catalog::METRICS
            .iter()
            .filter(|m| match m.tier {
                Tier::EndToEnd { .. } => !self.trace,
                Tier::Demoted => true,
                Tier::Layer => self.trace,
                Tier::Ledger { workloads } => {
                    self.trace && workloads.contains(&self.workload.as_str())
                }
            })
            .map(|m| m.name)
            .filter(|name| self.value(name).is_none())
            .collect()
    }

    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed` and the contract metrics of this mode (end-to-end without
    /// tracing; demoted timings and per-layer with), each as measured
    /// with all its digits.
    pub fn contract_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .filter(|(name, _)| {
                let tier = catalog::metric(name).expect("emit checked the name").tier;
                if self.trace {
                    matches!(tier, Tier::Demoted | Tier::Layer)
                } else {
                    matches!(tier, Tier::EndToEnd { .. })
                }
            })
            .map(|(name, s)| {
                let unit = catalog::metric(name).expect("emit checked the name").unit;
                let reading = vec![
                    ("value".to_owned(), Value::Float(s.median)),
                    ("unit".to_owned(), Value::Str(unit.to_owned())),
                ];
                ((*name).to_owned(), Value::Object(reading))
            })
            .collect();
        serde::json::to_string(&Value::Object(vec![
            ("correct".to_owned(), Value::Bool(self.correct())),
            ("attempted".to_owned(), Value::UInt(self.attempted.max(1))),
            ("failed".to_owned(), Value::UInt(self.failed)),
            ("metrics".to_owned(), Value::Object(metrics)),
        ]))
    }

    /// The full record as one JSON line of a result set.
    pub fn to_json(&self) -> String {
        let field = |k: &str, v: Value| (k.to_owned(), v);
        let text = |s: &str| Value::Str(s.to_owned());
        let machine = Value::Object(vec![
            field("threads", Value::UInt(self.machine.threads as u64)),
            field("nproc", Value::UInt(self.machine.nproc as u64)),
            field("isa", text(&self.machine.isa)),
            field("rustc", text(&self.machine.rustc)),
            field("git_sha", text(&self.machine.git_sha)),
        ]);
        let metrics = self
            .metrics
            .iter()
            .map(|(name, s)| {
                let unit = catalog::metric(name).expect("emit checked the name").unit;
                let reading = Value::Object(vec![
                    field("value", Value::Float(s.median)),
                    field("unit", text(unit)),
                    field("min", Value::Float(s.min)),
                    field("max", Value::Float(s.max)),
                    field("n", Value::UInt(s.n as u64)),
                ]);
                field(name, reading)
            })
            .collect();
        let layers = self
            .layers
            .iter()
            .map(|(name, t)| {
                let times = Value::Object(vec![
                    field("count", Value::UInt(t.count)),
                    field("total_ms", Value::Float(t.total_ns as f64 / 1e6)),
                    field("self_ms", Value::Float(t.self_ns as f64 / 1e6)),
                ]);
                field(name, times)
            })
            .collect();
        let gates = self
            .gates
            .iter()
            .map(|g| {
                Value::Object(vec![
                    field("name", text(g.name)),
                    field("ok", Value::Bool(g.ok)),
                    field("detail", text(&g.detail)),
                ])
            })
            .collect();
        let rent = self
            .rent
            .iter()
            .map(|r| {
                Value::Object(vec![
                    field("pair", text(r.pair)),
                    field("fast", Value::Float(r.fast)),
                    field("plain", Value::Float(r.plain)),
                    field("unit", text(r.unit)),
                    field("ratio", Value::Float(r.ratio)),
                    field("ratio_min", Value::Float(r.range.0)),
                    field("ratio_max", Value::Float(r.range.1)),
                    field("rounds", Value::UInt(r.rounds as u64)),
                    field("verdict", text(r.verdict())),
                ])
            })
            .collect();
        serde::json::to_string(&Value::Object(vec![
            field("workload", text(&self.workload)),
            field("seed", Value::UInt(self.seed)),
            field("seconds", Value::UInt(self.seconds)),
            field("trace", Value::Bool(self.trace)),
            field("smoke", Value::Bool(self.smoke)),
            field("machine", machine),
            field(
                "sizes",
                Value::Object(vec![
                    field("users", Value::UInt(self.sizes.0 as u64)),
                    field("items", Value::UInt(self.sizes.1 as u64)),
                    field("ratings", Value::UInt(self.sizes.2 as u64)),
                ]),
            ),
            field(
                "reps",
                Value::Object(self.reps.iter().map(|(k, v)| field(k, Value::UInt(*v))).collect()),
            ),
            field("correct", Value::Bool(self.correct())),
            field("attempted", Value::UInt(self.attempted)),
            field("failed", Value::UInt(self.failed)),
            field("gates", Value::Array(gates)),
            field("metrics", Value::Object(metrics)),
            field("layers", Value::Object(layers)),
            field("rent", Value::Array(rent)),
        ]))
    }

    /// The human-readable report: every metric by name with its unit,
    /// operation counts, gates, the machine block, and — for a traced run
    /// — the per-layer self times and the rent table.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "perf {} seed={} seconds={} trace={}{}",
            self.workload,
            self.seed,
            self.seconds,
            self.trace as u8,
            if self.smoke { "  [SMOKE: scale 0.02, not comparable]" } else { "" }
        );
        let m = &self.machine;
        let _ = writeln!(
            out,
            "machine: T={} nproc={} isa={} rustc={} git={}",
            m.threads, m.nproc, m.isa, m.rustc, m.git_sha
        );
        let _ = writeln!(
            out,
            "dataset: {} users, {} items, {} ratings; reps: {}",
            self.sizes.0,
            self.sizes.1,
            self.sizes.2,
            self.reps.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(" ")
        );
        let _ = writeln!(
            out,
            "operations: {} attempted, {} failed; correct: {}",
            self.attempted,
            self.failed,
            self.correct()
        );
        for gate in &self.gates {
            let verdict = if gate.ok { "ok" } else { "FAILED" };
            let _ = writeln!(out, "  gate {:<28} {verdict} {}", gate.name, gate.detail);
        }
        let _ = writeln!(
            out,
            "{:<42} {:>14} {:<7} {:>12} {:>12} {:>4}",
            "metric", "median", "unit", "min", "max", "n"
        );
        for (name, s) in &self.metrics {
            let unit = catalog::metric(name).expect("emit checked the name").unit;
            let _ = writeln!(
                out,
                "{name:<42} {:>14.4} {unit:<7} {:>12.4} {:>12.4} {:>4}",
                s.median, s.min, s.max, s.n
            );
        }
        if !self.layers.is_empty() {
            let _ =
                writeln!(out, "{:<34} {:>9} {:>12} {:>12}", "span", "count", "total ms", "self ms");
            for (name, t) in &self.layers {
                let _ = writeln!(
                    out,
                    "{name:<34} {:>9} {:>12.2} {:>12.2}",
                    t.count,
                    t.total_ns as f64 / 1e6,
                    t.self_ns as f64 / 1e6
                );
            }
        }
        if !self.rent.is_empty() {
            let _ = writeln!(
                out,
                "{:<38} {:>12} {:>12} {:<7} {:>7} {:>13} {:>6}  verdict",
                "rent: fast path vs plain", "fast", "plain", "unit", "ratio", "range", "rounds"
            );
            for r in &self.rent {
                let _ = writeln!(
                    out,
                    "{:<38} {:>12.3} {:>12.3} {:<7} {:>6.2}x {:>6.2}-{:<6.2} {:>6}  {}",
                    r.pair,
                    r.fast,
                    r.plain,
                    r.unit,
                    r.ratio,
                    r.range.0,
                    r.range.1,
                    r.rounds,
                    r.verdict()
                );
            }
        }
        out
    }
}

/// What `perf compare` needs of a stored record.
#[derive(Clone, Debug, PartialEq)]
pub struct Stored {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub smoke: bool,
    pub metrics: BTreeMap<String, f64>,
}

fn number(value: &Value) -> Option<f64> {
    match *value {
        Value::UInt(n) => Some(n as f64),
        Value::Int(n) => Some(n as f64),
        Value::Float(f) => Some(f),
        _ => None,
    }
}

/// Parses a result set: one record per non-empty line.
pub fn parse_set(text: &str) -> Result<Vec<Stored>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(at, line)| {
            let bad = |what: &str| format!("line {}: {what}", at + 1);
            let value = serde::json::parse(line).map_err(|e| bad(&e.to_string()))?;
            let flag = |key: &str| matches!(value.get(key), Some(Value::Bool(true)));
            let workload = match value.get("workload") {
                Some(Value::Str(name)) => name.clone(),
                _ => return Err(bad("no workload")),
            };
            let seed = match value.get("seed") {
                Some(Value::UInt(seed)) => *seed,
                _ => return Err(bad("no seed")),
            };
            let Some(Value::Object(fields)) = value.get("metrics") else {
                return Err(bad("no metrics"));
            };
            let metrics = fields
                .iter()
                .map(|(name, reading)| {
                    let value = reading.get("value").and_then(number);
                    value.map(|v| (name.clone(), v)).ok_or_else(|| bad("metric without a value"))
                })
                .collect::<Result<_, _>>()?;
            Ok(Stored { workload, seed, trace: flag("trace"), smoke: flag("smoke"), metrics })
        })
        .collect()
}

/// Indented JSON, for files people read (`BENCHMARK.json`, `perf list`):
/// one line per metric or workload, nested containers indented.
pub fn pretty(value: &Value) -> String {
    fn flat(value: &Value) -> bool {
        !matches!(value, Value::Array(_) | Value::Object(_))
    }
    fn key(name: &str) -> String {
        serde::json::to_string(&Value::Str(name.to_owned()))
    }
    fn inline(value: &Value) -> String {
        match value {
            Value::Array(items) => {
                format!("[{}]", items.iter().map(inline).collect::<Vec<_>>().join(", "))
            }
            Value::Object(fields) => {
                let fields: Vec<String> =
                    fields.iter().map(|(k, v)| format!("{}: {}", key(k), inline(v))).collect();
                format!("{{{}}}", fields.join(", "))
            }
            scalar => serde::json::to_string(scalar),
        }
    }
    fn write(out: &mut String, value: &Value, depth: usize) {
        let pad = "  ".repeat(depth + 1);
        let items: Vec<String> = match value {
            Value::Array(items) if !items.iter().all(flat) => items
                .iter()
                .map(|item| match item {
                    Value::Object(fields) if fields.iter().all(|(_, v)| flat(v)) => inline(item),
                    nested => {
                        let mut text = String::new();
                        write(&mut text, nested, depth + 1);
                        text
                    }
                })
                .collect(),
            Value::Object(fields) if !fields.is_empty() => fields
                .iter()
                .map(|(name, item)| {
                    let mut text = format!("{}: ", key(name));
                    write(&mut text, item, depth + 1);
                    text
                })
                .collect(),
            simple => return out.push_str(&inline(simple)),
        };
        let (open, close) = if matches!(value, Value::Array(_)) { ('[', ']') } else { ('{', '}') };
        out.push(open);
        out.push('\n');
        for (i, item) in items.iter().enumerate() {
            let _ = writeln!(out, "{pad}{item}{}", if i + 1 < items.len() { "," } else { "" });
        }
        out.push_str(&"  ".repeat(depth));
        out.push(close);
    }
    let mut out = String::new();
    write(&mut out, value, 0);
    out.push('\n');
    out
}

#[cfg(test)]
pub mod tests {
    use super::*;

    pub fn blank(workload: &str, trace: bool) -> Record {
        Record {
            workload: workload.to_owned(),
            seed: 7,
            seconds: 1,
            trace,
            smoke: true,
            machine: Machine {
                threads: 2,
                nproc: 2,
                isa: "x".into(),
                rustc: "r".into(),
                git_sha: "g".into(),
            },
            sizes: (10, 20, 30),
            reps: vec![("builds", 2)],
            attempted: 0,
            failed: 0,
            gates: Vec::new(),
            metrics: Vec::new(),
            layers: BTreeMap::new(),
            rent: Vec::new(),
        }
    }

    #[test]
    fn contract_line_carries_only_the_modes_contract_metrics() {
        let mut record = blank("serve_read", false);
        record.attempted = 5;
        record.emit_one("setup_s", 1.25);
        record.emit_one("build_s", 4.5);
        record.emit_one("core.assign_ms", 3.0);
        let line = serde::json::parse(&record.contract_line()).unwrap();
        let Value::Object(fields) = &line else { panic!("object expected") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = line.get("metrics").unwrap();
        assert_eq!(metrics.get("setup_s").unwrap().get("value"), Some(&Value::Float(1.25)));
        assert_eq!(metrics.get("setup_s").unwrap().get("unit"), Some(&Value::Str("s".into())));
        assert!(metrics.get("build_s").is_none(), "demoted timing in an untraced line");
        assert!(metrics.get("core.assign_ms").is_none(), "per-layer metric in an untraced line");

        record.trace = true;
        let traced = serde::json::parse(&record.contract_line()).unwrap();
        let metrics = traced.get("metrics").unwrap();
        assert!(metrics.get("core.assign_ms").is_some());
        assert!(metrics.get("build_s").is_some(), "demoted timings ride with the per-layer list");
        assert!(metrics.get("setup_s").is_none());
    }

    #[test]
    fn a_failed_gate_fails_the_run() {
        let mut record = blank("build_dense", false);
        record.gate("graph.well_formed", Ok(()));
        assert!(record.correct());
        record.gate("graph.bit_identical", Err("digest differs".into()));
        assert!(!record.correct());
        assert_eq!((record.attempted, record.failed), (2, 1));
        assert!(record.contract_line().contains("\"correct\":false"));
    }

    #[test]
    fn a_rent_pair_is_resolved_only_when_its_rounds_agree() {
        // Lower is better: the fast path took 2 s where the plain took 3 s.
        let clear = Rent::of("x", "s", Better::Lower, &[2.0, 2.1, 1.9], &[3.0, 3.0, 3.1]);
        assert_eq!((clear.verdict(), clear.rounds), ("pays", 3));
        assert!((clear.ratio - 1.5).abs() < 1e-9 && clear.range.0 < 1.5 && clear.range.1 > 1.5);
        let mixed = Rent::of("x", "s", Better::Lower, &[2.0, 2.2, 2.0], &[2.1, 2.1, 2.1]);
        assert_eq!(mixed.verdict(), "unresolved");
        let slower = Rent::of("x", "1/s", Better::Higher, &[5.0, 5.5, 5.2], &[10.0, 10.0, 10.0]);
        assert_eq!(slower.verdict(), "loses");
        // One pair decides only outside the swing of two single timings.
        assert_eq!(Rent::of("x", "s", Better::Lower, &[2.0], &[2.2]).verdict(), "unresolved");
        assert_eq!(Rent::of("x", "s", Better::Lower, &[2.0], &[1.9]).verdict(), "unresolved");
        assert_eq!(Rent::of("x", "ms", Better::Lower, &[40.0], &[390.0]).verdict(), "pays");
        assert_eq!(Rent::of("x", "1/s", Better::Higher, &[5.0], &[10.0]).verdict(), "loses");
    }

    #[test]
    #[should_panic(expected = "emitted twice")]
    fn a_metric_is_emitted_once() {
        let mut record = blank("build_dense", false);
        record.emit_one("build_s", 1.0);
        record.emit_one("build_s", 2.0);
    }

    #[test]
    #[should_panic(expected = "not in the catalog")]
    fn undeclared_metrics_are_refused() {
        blank("build_dense", false).emit_one("made_up", 1.0);
    }

    #[test]
    fn records_round_trip_through_a_result_set() {
        let mut record = blank("serve_mixed", true);
        record.emit("core.clusters", Summary::one(42.0));
        record.emit("serve.publish_s", Summary { median: 1.5, min: 1.0, max: 2.0, n: 3 });
        let set = format!("{}\n\n{}\n", record.to_json(), record.to_json());
        let stored = parse_set(&set).unwrap();
        assert_eq!(stored.len(), 2);
        assert_eq!(stored[0].workload, "serve_mixed");
        assert_eq!((stored[0].seed, stored[0].trace, stored[0].smoke), (7, true, true));
        assert_eq!(stored[0].metrics["core.clusters"], 42.0);
        assert_eq!(stored[0].metrics["serve.publish_s"], 1.5);
        assert!(parse_set("{\"seed\":1}").is_err());
        assert!(parse_set("not json").is_err());
    }

    #[test]
    fn pretty_output_parses_back_to_the_same_value() {
        let value = catalog::benchmark_json();
        assert_eq!(serde::json::parse(&pretty(&value)).unwrap(), value);
    }
}
