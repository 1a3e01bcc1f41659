//! Minimal command-line parsing shared by the reproduction binaries.
//!
//! Implemented by hand (clap is outside the allowed crate set); every
//! binary accepts the same flags:
//!
//! ```text
//! --scale <f64>        dataset scale factor in (0, 1]            (default 0.125)
//! --threads <n>        worker threads, 0 = all cores             (default 0)
//! --seed <u64>         experiment seed                           (default 42)
//! --datasets a,b       restrict to named presets                 (default: all six)
//! --workers <n>        pin the runtime sweep's map worker count  (default: sweep)
//! --reduce-shards <n>  the distributed sweep's reduce shards     (default: 2)
//! --processes <n>      pin the distributed sweep's process count (default: sweep 1,2,4)
//! --telemetry on|off   metric/span recording                     (default: per-binary)
//! --profile-out <path> write a JSON telemetry profile on exit    (default: none)
//! --faults SPEC        arm seeded fault injection, e.g.
//!                      `seed=42,p=0.02[,span=3][,sites=a+b]`     (default: off)
//! ```

use cnc_dataset::DatasetProfile;
use cnc_faults::FaultPlan;
use std::path::PathBuf;

/// Parsed harness options.
#[derive(Clone, Debug)]
pub struct HarnessArgs {
    /// Dataset scale factor in `(0, 1]`.
    pub scale: f64,
    /// Worker threads (0 = all available).
    pub threads: usize,
    /// Root seed.
    pub seed: u64,
    /// Selected dataset presets.
    pub datasets: Vec<DatasetProfile>,
    /// Pins the `scaling` experiment to one map worker count
    /// (`None` = sweep the default ladder).
    pub workers: Option<usize>,
    /// The reduce-shard count of the `scaling` experiment's
    /// *distributed* sweep (`None` = its default of 2).
    pub reduce_shards: Option<usize>,
    /// Pins the `scaling` experiment's *distributed* sweep to
    /// `{1, n}` worker processes (`None` = sweep `{1, 2, 4}`; the
    /// single-process point always runs — it is the speed-up baseline).
    pub processes: Option<usize>,
    /// Telemetry recording override (`None` = the binary's default).
    pub telemetry: Option<bool>,
    /// Writes the run's JSON telemetry profile here on exit. Implies
    /// telemetry unless `--telemetry off` explicitly wins.
    pub profile_out: Option<PathBuf>,
    /// Seeded fault-injection schedule armed for the run (`None` = the
    /// registry stays disabled: one relaxed atomic load per site).
    pub faults: Option<FaultPlan>,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            scale: 0.125,
            threads: 0,
            seed: 42,
            datasets: DatasetProfile::ALL.to_vec(),
            workers: None,
            reduce_shards: None,
            processes: None,
            telemetry: None,
            profile_out: None,
            faults: None,
        }
    }
}

impl HarnessArgs {
    /// Parses `std::env::args()`-style tokens (skipping the program name).
    ///
    /// Unknown flags and malformed values return an error message suitable
    /// for printing alongside usage.
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Result<Self, String> {
        let mut args = HarnessArgs::default();
        let mut it = tokens.into_iter();
        while let Some(flag) = it.next() {
            let mut value =
                |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
            match flag.as_str() {
                "--scale" => {
                    let v: f64 = value("--scale")?.parse().map_err(|e| format!("--scale: {e}"))?;
                    if !(v > 0.0 && v <= 1.0) {
                        return Err("--scale must be in (0, 1]".into());
                    }
                    args.scale = v;
                }
                "--threads" => {
                    args.threads =
                        value("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?;
                }
                "--seed" => {
                    args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
                }
                "--workers" => {
                    args.workers =
                        Some(value("--workers")?.parse().map_err(|e| format!("--workers: {e}"))?);
                }
                "--processes" => {
                    let n: usize =
                        value("--processes")?.parse().map_err(|e| format!("--processes: {e}"))?;
                    if n == 0 {
                        return Err("--processes must be positive".into());
                    }
                    args.processes = Some(n);
                }
                "--reduce-shards" => {
                    args.reduce_shards = Some(
                        value("--reduce-shards")?
                            .parse()
                            .map_err(|e| format!("--reduce-shards: {e}"))?,
                    );
                }
                "--telemetry" => {
                    args.telemetry = match value("--telemetry")?.as_str() {
                        "on" => Some(true),
                        "off" => Some(false),
                        other => {
                            return Err(format!("--telemetry: expected on|off, got {other:?}"))
                        }
                    };
                }
                "--profile-out" => {
                    args.profile_out = Some(PathBuf::from(value("--profile-out")?));
                }
                "--faults" => {
                    args.faults = Some(
                        FaultPlan::parse(&value("--faults")?)
                            .map_err(|e| format!("--faults: {e}"))?,
                    );
                }
                "--datasets" => {
                    let list = value("--datasets")?;
                    args.datasets = list
                        .split(',')
                        .map(|name| {
                            DatasetProfile::ALL
                                .iter()
                                .copied()
                                .find(|p| p.name().eq_ignore_ascii_case(name.trim()))
                                .ok_or_else(|| format!("unknown dataset {name:?}"))
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                }
                "--help" | "-h" => {
                    return Err(Self::usage().to_owned());
                }
                other => return Err(format!("unknown flag {other:?}\n{}", Self::usage())),
            }
        }
        Ok(args)
    }

    /// Parses the real process arguments, exiting with usage on error.
    pub fn from_env() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// The usage string.
    pub fn usage() -> &'static str {
        "usage: [--scale F] [--threads N] [--seed S] [--workers W] [--reduce-shards R] \
         [--processes P] [--datasets ml1M,ml10M,ml20M,AM,DBLP,GW] [--telemetry on|off] \
         [--profile-out PATH] [--faults seed=S,p=P[,span=N][,sites=a+b]]"
    }

    /// Resolves whether telemetry should record for this run:
    /// an explicit `--telemetry` flag wins, otherwise `--profile-out`
    /// implies recording, otherwise the binary's default.
    pub fn telemetry_enabled(&self, default: bool) -> bool {
        self.telemetry.unwrap_or(default || self.profile_out.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<HarnessArgs, String> {
        HarnessArgs::parse(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_without_flags() {
        let args = parse(&[]).unwrap();
        assert_eq!(args.scale, 0.125);
        assert_eq!(args.threads, 0);
        assert_eq!(args.seed, 42);
        assert_eq!(args.datasets.len(), 6);
        assert_eq!(args.workers, None);
        assert_eq!(args.reduce_shards, None);
    }

    #[test]
    fn parses_sweep_pins() {
        let args = parse(&["--workers", "2", "--reduce-shards", "3"]).unwrap();
        assert_eq!(args.workers, Some(2));
        assert_eq!(args.reduce_shards, Some(3));
        assert!(parse(&["--workers"]).is_err());
        assert!(parse(&["--reduce-shards", "two"]).is_err());
    }

    #[test]
    fn parses_processes_pin() {
        assert_eq!(parse(&[]).unwrap().processes, None);
        assert_eq!(parse(&["--processes", "4"]).unwrap().processes, Some(4));
        assert!(parse(&["--processes", "0"]).is_err());
        assert!(parse(&["--processes"]).is_err());
    }

    #[test]
    fn parses_all_flags() {
        let args =
            parse(&["--scale", "0.5", "--threads", "4", "--seed", "7", "--datasets", "AM,DBLP"])
                .unwrap();
        assert_eq!(args.scale, 0.5);
        assert_eq!(args.threads, 4);
        assert_eq!(args.seed, 7);
        assert_eq!(args.datasets, vec![DatasetProfile::AmazonMovies, DatasetProfile::Dblp]);
    }

    #[test]
    fn dataset_names_are_case_insensitive() {
        let args = parse(&["--datasets", "ml10m"]).unwrap();
        assert_eq!(args.datasets, vec![DatasetProfile::MovieLens10M]);
    }

    #[test]
    fn rejects_bad_scale() {
        assert!(parse(&["--scale", "0"]).is_err());
        assert!(parse(&["--scale", "1.5"]).is_err());
        assert!(parse(&["--scale", "abc"]).is_err());
    }

    #[test]
    fn rejects_unknown_flag_and_dataset() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--datasets", "netflix"]).is_err());
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse(&["--seed"]).is_err());
    }

    #[test]
    fn parses_telemetry_switch() {
        assert_eq!(parse(&["--telemetry", "on"]).unwrap().telemetry, Some(true));
        assert_eq!(parse(&["--telemetry", "off"]).unwrap().telemetry, Some(false));
        assert!(parse(&["--telemetry", "maybe"]).is_err());
        assert!(parse(&["--telemetry"]).is_err());
    }

    #[test]
    fn parses_profile_out_path() {
        let args = parse(&["--profile-out", "/tmp/profile.json"]).unwrap();
        assert_eq!(args.profile_out, Some(PathBuf::from("/tmp/profile.json")));
        assert!(parse(&["--profile-out"]).is_err());
    }

    #[test]
    fn parses_fault_spec() {
        assert_eq!(parse(&[]).unwrap().faults, None);
        let plan = parse(&["--faults", "seed=42,p=0.02"]).unwrap().faults.unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.p_mille, 20);
        let narrow =
            parse(&["--faults", "seed=7,p=0.1,span=3,sites=solve.cluster"]).unwrap().faults;
        assert_eq!(narrow.unwrap().span, 3);
        assert!(parse(&["--faults", "p=2"]).is_err(), "p outside [0, 1]");
        assert!(parse(&["--faults", "bogus"]).is_err());
        assert!(parse(&["--faults"]).is_err());
    }

    #[test]
    fn profile_out_implies_telemetry_unless_overridden() {
        assert!(!parse(&[]).unwrap().telemetry_enabled(false));
        assert!(parse(&[]).unwrap().telemetry_enabled(true));
        assert!(parse(&["--profile-out", "p.json"]).unwrap().telemetry_enabled(false));
        assert!(!parse(&["--profile-out", "p.json", "--telemetry", "off"])
            .unwrap()
            .telemetry_enabled(false));
        assert!(parse(&["--telemetry", "on"]).unwrap().telemetry_enabled(false));
    }
}
