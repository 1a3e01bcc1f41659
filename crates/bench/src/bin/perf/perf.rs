//! `perf`: the repo's benchmark — one paper-scale measurement of build,
//! rebuild and serving, with every layer timed from outside.
//!
//! ```text
//! perf run --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>]
//!          [--smoke] [--record <set>] [--out <dir>]
//! perf list [--benchmark-json]
//! perf compare <set A> <set B>
//! ```
//!
//! `run` is one fresh process per workload: it prints the full report and,
//! as the last line of standard output, the contract line `BENCHMARK.json`
//! describes. The README next to this file has the tables.

mod catalog;
mod compare;
mod layers;
mod record;
mod stats;
mod trace;
mod workloads;

use record::Machine;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workloads::Options;

const USAGE: &str = "usage:
  perf run --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>] [--smoke]
           [--record <result set>] [--out <dir>]
  perf list [--benchmark-json]
  perf compare <result set A> <result set B>";

/// First line of `program args…`, or `unknown`.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| String::from_utf8(output.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

fn machine() -> Machine {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Machine {
        threads: nproc.min(4),
        nproc,
        isa: layers::isa().to_owned(),
        rustc: first_line_of("rustc", &["--version"]),
        git_sha: first_line_of("git", &["rev-parse", "--short", "HEAD"]),
    }
}

struct RunArgs {
    options: Options,
    record: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or(PathBuf::from("target"), PathBuf::from);
    let mut options = Options {
        workload: String::new(),
        seed: 42,
        seconds: catalog::RUN_SECONDS,
        trace: false,
        smoke: false,
        out_dir: target.join("perf-out"),
        // The multi-process build re-execs this binary as its workers.
        worker: std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?,
    };
    let mut record = None;
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => options.workload = value("a workload name")?.clone(),
            "--seed" => {
                options.seed = value("a u64")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                options.seconds =
                    value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--out" => options.out_dir = PathBuf::from(value("a directory")?),
            "--record" => record = Some(PathBuf::from(value("a file")?)),
            "--smoke" => options.smoke = true,
            "--trace" => {
                options.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if options.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(RunArgs { options, record })
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let RunArgs { options, record: set } = parse_run(args)?;
    // Spill files and worker sockets of the code under test go to the
    // system temp directory; keep them inside the checkout.
    std::fs::create_dir_all(&options.out_dir)
        .map_err(|e| format!("{}: {e}", options.out_dir.display()))?;
    let scratch = std::fs::canonicalize(&options.out_dir).map_err(|e| e.to_string())?;
    std::env::set_var("TMPDIR", &scratch);

    let record = workloads::run(&options, machine())?;
    if let Some(set) = set {
        use std::io::Write as _;
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&set)
            .and_then(|mut file| writeln!(file, "{}", record.to_json()))
            .map_err(|e| format!("{}: {e}", set.display()))?;
    }
    print!("{}", record.report());
    if !record.correct() {
        // A wrong result has no timings worth reading.
        eprintln!("perf: {} failed its correctness gates; no result line", record.workload);
        return Ok(ExitCode::FAILURE);
    }
    println!("{}", record.contract_line());
    Ok(ExitCode::SUCCESS)
}

fn list(args: &[String]) -> Result<ExitCode, String> {
    let value = match args {
        [] => catalog::listing(),
        [flag] if flag == "--benchmark-json" => catalog::benchmark_json(),
        _ => return Err("list takes only --benchmark-json".into()),
    };
    print!("{}", record::pretty(&value));
    Ok(ExitCode::SUCCESS)
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else { return Err("compare takes two result sets".into()) };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        record::parse_set(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, failed) = compare::compare(&load(a)?, &load(b)?);
    print!("{table}");
    Ok(if failed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

fn main() -> ExitCode {
    // The multi-process build re-execs this binary as its workers.
    layers::maybe_run_worker();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((command, rest)) if command == "run" => run(rest),
        Some((command, rest)) if command == "list" => list(rest),
        Some((command, rest)) if command == "compare" => compare(rest),
        _ => Err("expected run, list or compare".into()),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("perf: {message}\n{USAGE}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_workloads_and_arguments_are_usage_errors() {
        let args = |list: &[&str]| list.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
        assert!(parse_run(&args(&["--seed", "3"])).is_err(), "--workload is required");
        assert!(parse_run(&args(&["--workload", "x", "--seed", "-1"])).is_err());
        assert!(parse_run(&args(&["--workload", "x", "--bogus"])).is_err());
        assert!(parse_run(&args(&["--workload", "x", "--trace"])).is_err());
        assert!(parse_run(&args(&["--workload", "x", "--trace", "yes"])).is_err());
        let parsed = parse_run(&args(&["--workload", "serve_read", "--trace", "0", "--seed", "9"]));
        let options = parsed.unwrap().options;
        assert_eq!(
            (options.trace, options.seed, options.seconds),
            (false, 9, catalog::RUN_SECONDS)
        );
        assert!(parse_run(&args(&["--workload", "x", "--trace", "1"])).unwrap().options.trace);
        let options = Options {
            workload: "no_such".into(),
            ..parse_run(&args(&["--workload", "x"])).unwrap().options
        };
        assert!(workloads::run(&options, machine()).is_err());
    }
}
