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
//! ```

use cnc_dataset::DatasetProfile;

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
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs { scale: 0.125, threads: 0, seed: 42, datasets: DatasetProfile::ALL.to_vec() }
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
        "usage: [--scale F] [--threads N] [--seed S] [--datasets ml1M,ml10M,ml20M,AM,DBLP,GW]"
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
        // Retired flags fail loudly instead of being silently ignored.
        for retired in [
            &["--workers", "2"][..],
            &["--processes", "2"],
            &["--reduce-shards", "2"],
            &["--faults", "seed=1,p=0.1"],
            &["--telemetry", "on"],
            &["--profile-out", "p.json"],
        ] {
            let err = parse(retired).unwrap_err();
            assert!(err.contains("unknown flag") && err.contains("usage:"), "{retired:?}: {err}");
        }
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse(&["--seed"]).is_err());
    }
}
