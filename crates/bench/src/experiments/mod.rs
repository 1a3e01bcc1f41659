//! One module per paper table/figure. Every entry point takes the shared
//! [`HarnessArgs`] and returns a markdown report fragment; binaries print
//! it, `repro_all` concatenates everything into `EXPERIMENTS.md`.

pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod theory;

use crate::args::HarnessArgs;
use cnc_core::C2Config;
use cnc_dataset::{Dataset, DatasetProfile};
use cnc_similarity::SimilarityBackend;

/// Generates one dataset preset at the harness scale (seeded by the
/// harness seed plus the preset's position, so the six datasets are
/// independent draws).
pub fn generate(profile: DatasetProfile, args: &HarnessArgs) -> Dataset {
    let index = DatasetProfile::ALL.iter().position(|p| *p == profile).unwrap_or(0) as u64;
    profile.generate(args.scale, args.seed.wrapping_add(index * 1001))
}

/// The paper's §IV-C per-dataset C² parameters: `b = 4096`, `t = 8` (15 for
/// DBLP and Gowalla), `N = 2000` (4000 for MovieLens20M), `k = 30`,
/// 1024-bit GoldFinger.
pub fn paper_c2_config(profile: DatasetProfile, args: &HarnessArgs) -> C2Config {
    let t = match profile {
        DatasetProfile::Dblp | DatasetProfile::Gowalla => 15,
        _ => 8,
    };
    let max_cluster_size = match profile {
        DatasetProfile::MovieLens20M => 4000,
        _ => 2000,
    };
    C2Config {
        t,
        max_cluster_size,
        threads: args.threads,
        seed: args.seed,
        backend: goldfinger_backend(args),
        ..C2Config::default()
    }
}

/// The paper's default similarity backend: 1024-bit GoldFinger.
pub fn goldfinger_backend(args: &HarnessArgs) -> SimilarityBackend {
    SimilarityBackend::GoldFinger { bits: 1024, seed: args.seed ^ 0x601D }
}

/// The neighbourhood size used throughout the evaluation (§IV-C).
pub const K: usize = 30;

/// Markdown header line for a report section.
pub fn section(title: &str, args: &HarnessArgs) -> String {
    format!(
        "## {title}\n\n*scale = {}, seed = {}, threads = {}*\n\n",
        args.scale,
        args.seed,
        if args.threads == 0 { "all".to_owned() } else { args.threads.to_string() }
    )
}
