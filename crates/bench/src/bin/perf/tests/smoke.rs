//! Drives the built `perf` binary the way the driver does, at `--smoke`
//! scale (0.02, labelled, never comparable): all four workloads in both
//! modes, the multi-process build included, which only a real binary can
//! run because its workers are re-exec'd copies of it.

use serde::Value;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::{Command, Output};

fn perf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perf")).args(args).output().expect("perf starts")
}

fn parse(text: &str) -> Value {
    serde::json::parse(text).unwrap_or_else(|e| panic!("{e}: {text}"))
}

fn entries<'a>(value: &'a Value, key: &str) -> &'a [Value] {
    match value.get(key) {
        Some(Value::Array(items)) => items,
        other => panic!("{key}: expected an array, got {other:?}"),
    }
}

fn text<'a>(value: &'a Value, key: &str) -> &'a str {
    match value.get(key) {
        Some(Value::Str(text)) => text,
        other => panic!("{key}: expected a string, got {other:?}"),
    }
}

fn names(items: &[Value]) -> BTreeSet<&str> {
    items.iter().map(|item| text(item, "name")).collect()
}

fn keys(value: &Value) -> Vec<&str> {
    match value {
        Value::Object(fields) => fields.iter().map(|(key, _)| key.as_str()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

fn number(value: &Value) -> f64 {
    match *value {
        Value::UInt(n) => n as f64,
        Value::Int(n) => n as f64,
        Value::Float(f) => f,
        ref other => panic!("expected a number, got {other:?}"),
    }
}

/// Every gate passes, the contract line carries exactly the metrics
/// `perf list` declares for the mode, and the record adds exactly the
/// ledger metrics the workload owes (`emit` refuses duplicates and
/// undeclared names inside the binary).
#[test]
fn smoke_runs_emit_every_declared_metric() {
    let listed = perf(&["list"]);
    assert!(listed.status.success());
    let catalog = parse(&String::from_utf8(listed.stdout).unwrap());
    let end_to_end = names(entries(&catalog, "end_to_end"));
    let per_layer = names(entries(&catalog, "per_layer"));

    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let _ = std::fs::remove_dir_all(&out);
    let set = out.join("set.jsonl");
    for workload in names(entries(&catalog, "workloads")) {
        for trace in ["0", "1"] {
            let run = perf(&[
                "run",
                "--workload",
                workload,
                "--seed",
                "7",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--smoke",
                "--record",
                set.to_str().unwrap(),
                "--out",
                out.to_str().unwrap(),
            ]);
            let stdout = String::from_utf8(run.stdout).unwrap();
            let stderr = String::from_utf8_lossy(&run.stderr);
            assert!(run.status.success(), "{workload} trace={trace}:\n{stdout}\n{stderr}");

            let line = parse(stdout.lines().last().expect("a result line"));
            assert_eq!(keys(&line), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
            assert_eq!(line.get("failed"), Some(&Value::UInt(0)));
            assert!(number(line.get("attempted").unwrap()) >= 1.0);
            let declared = if trace == "1" { &per_layer } else { &end_to_end };
            let metrics = line.get("metrics").unwrap();
            assert_eq!(&keys(metrics).into_iter().collect::<BTreeSet<_>>(), declared);
            for name in keys(metrics) {
                let reading = metrics.get(name).unwrap();
                assert_eq!(keys(reading), ["value", "unit"], "{name}");
                let value = number(reading.get("value").unwrap());
                assert!(value.is_finite(), "{name} is not a number");
                assert!(trace == "1" || value != 0.0, "{name} must never be 0");
            }
        }
    }

    // The records behind the lines: what the report and `compare` read.
    let records = std::fs::read_to_string(&set).unwrap();
    let records: Vec<Value> = records.lines().map(parse).collect();
    assert_eq!(records.len(), 8);
    let timings: BTreeSet<&str> =
        ["build_s", "query_qps", "query_p50_us", "query_p99_us", "insert_p50_us"].into();
    for record in &records {
        let workload = text(record, "workload");
        let traced = record.get("trace") == Some(&Value::Bool(true));
        assert_eq!(record.get("smoke"), Some(&Value::Bool(true)));
        for gate in entries(record, "gates") {
            assert_eq!(gate.get("ok"), Some(&Value::Bool(true)), "{workload}: {gate:?}");
        }
        let owed: BTreeSet<&str> = entries(&catalog, "ledger")
            .iter()
            .filter(|m| traced && entries(m, "workloads").contains(&Value::Str(workload.into())))
            .map(|m| text(m, "name"))
            .collect();
        let expected: BTreeSet<&str> = if traced {
            per_layer.union(&owed).copied().collect()
        } else {
            end_to_end.union(&timings).copied().collect()
        };
        let emitted: BTreeSet<&str> = keys(record.get("metrics").unwrap()).into_iter().collect();
        assert_eq!(emitted, expected, "{workload} traced={traced}");
        assert_eq!(entries(record, "rent").is_empty(), !traced);

        if traced && workload == "build_sparse_raw" {
            let gates = names(entries(record, "gates"));
            for executor in ["runtime", "distrib", "telemetry", "threadpool"] {
                let gate = format!("{executor}.bit_identical");
                assert!(gates.contains(gate.as_str()), "{gate} did not run");
            }
            let metrics = record.get("metrics").unwrap();
            let took = metrics.get("distrib.execute_p2_s").unwrap();
            assert!(number(took.get("value").unwrap()) > 0.0);
            assert!(number(took.get("n").unwrap()) >= 3.0, "alternating rounds");
        }
    }
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn usage_errors_print_no_result_line() {
    let tmp = env!("CARGO_TARGET_TMPDIR");
    for args in [
        &["run", "--workload", "no_such", "--out", tmp][..],
        &["run", "--workload", "serve_read", "--trace"],
        &["bogus"],
    ] {
        let run = perf(args);
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?}");
    }
}
