//! `cnc` — command-line front end to the Cluster-and-Conquer library.
//!
//! ```text
//! cnc stats  <ratings-file>                         dataset statistics (Table-I row)
//! cnc build  <ratings-file> [options]               build a KNN graph, write edges TSV
//! cnc query  <ratings-file> <item,item,...> [opts]  KNN query for an ad-hoc profile
//!
//! common options:
//!   --algo c2|hyrec|nndescent|lsh|brute   (default c2)
//!   --k <n>            neighbourhood size          (default 30)
//!   --threads <n>      0 = all cores               (default 0)
//!   --seed <n>                                     (default 42)
//!   --raw              exact Jaccard instead of 1024-bit GoldFinger
//!   --out <path>       edges output file           (default stdout)
//!   --binarize <f>     keep ratings > f            (default 3.0)
//!   --min-profile <n>  drop users with < n ratings (default 20)
//! ```
//!
//! The ratings file holds `user item rating` triples (comma/tab/space/`::`
//! separated — MovieLens dumps work unmodified). Users and items are named
//! as the file names them: `build` prints edges between the file's user
//! ids, and `query` takes the file's item ids and answers with user ids.
//!
//! `query` starts its beam search at the users who share the query's
//! FastRandomHash clusters (C²'s Step 1 on the file, whatever `--algo`
//! built the graph), falling back to random users where the query routes
//! nowhere. Routing is not a guarantee: on a file whose graph falls apart
//! into disconnected groups of identical users, a query whose clusters
//! hold none of its true neighbours can still answer from the wrong
//! group.

use cluster_and_conquer::prelude::*;
use cnc_dataset::io::{load_ratings, LoadOptions, Ratings};
use cnc_similarity::SimilarityData;
use std::collections::HashMap;
use std::io::Write;
use std::process::exit;

struct Options {
    algo: String,
    k: usize,
    threads: usize,
    seed: u64,
    raw: bool,
    out: Option<String>,
    binarize: f64,
    min_profile: usize,
    positional: Vec<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        algo: "c2".into(),
        k: 30,
        threads: 0,
        seed: 42,
        raw: false,
        out: None,
        binarize: 3.0,
        min_profile: 20,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--algo" => opts.algo = value("--algo")?.to_lowercase(),
            "--k" => opts.k = value("--k")?.parse().map_err(|e| format!("--k: {e}"))?,
            "--threads" => {
                opts.threads = value("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?
            }
            "--seed" => opts.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--raw" => opts.raw = true,
            "--out" => opts.out = Some(value("--out")?.clone()),
            "--binarize" => {
                opts.binarize =
                    value("--binarize")?.parse().map_err(|e| format!("--binarize: {e}"))?
            }
            "--min-profile" => {
                opts.min_profile =
                    value("--min-profile")?.parse().map_err(|e| format!("--min-profile: {e}"))?
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            positional => opts.positional.push(positional.to_owned()),
        }
    }
    Ok(opts)
}

fn load(path: &str, opts: &Options) -> Ratings {
    let load_opts = LoadOptions { binarize_above: opts.binarize, min_profile: opts.min_profile };
    match load_ratings(path, load_opts) {
        Ok(ratings) => ratings,
        Err(err) => {
            eprintln!("cnc: cannot load {path}: {err}");
            exit(1);
        }
    }
}

fn backend(opts: &Options) -> SimilarityBackend {
    if opts.raw {
        SimilarityBackend::Raw
    } else {
        SimilarityBackend::GoldFinger { bits: 1024, seed: opts.seed ^ 0x601D }
    }
}

/// The C² configuration `--algo c2` builds under; its Step 1 also routes
/// every query.
fn c2_config(opts: &Options) -> C2Config {
    let (k, threads, seed) = (opts.k, opts.threads, opts.seed);
    C2Config { k, threads, seed, backend: backend(opts), ..C2Config::default() }
}

fn build_graph(ds: &Dataset, opts: &Options) -> (KnnGraph, u64, f64) {
    let start = std::time::Instant::now();
    let sim = SimilarityData::build(backend(opts), ds);
    let ctx =
        BuildContext { dataset: ds, sim: &sim, k: opts.k, threads: opts.threads, seed: opts.seed };
    let c2 = ClusterAndConquer::new(c2_config(opts));
    let hyrec = Hyrec::default();
    let nnd = NnDescent::default();
    let lsh = Lsh::default();
    let algo: &dyn KnnAlgorithm = match opts.algo.as_str() {
        "c2" => &c2,
        "hyrec" => &hyrec,
        "nndescent" => &nnd,
        "lsh" => &lsh,
        "brute" => &BruteForce,
        other => {
            eprintln!("cnc: unknown algorithm {other:?} (c2|hyrec|nndescent|lsh|brute)");
            exit(2);
        }
    };
    let graph = algo.build(&ctx);
    (graph, sim.comparisons(), start.elapsed().as_secs_f64())
}

fn cmd_stats(opts: &Options) {
    let Some(path) = opts.positional.first() else {
        eprintln!("usage: cnc stats <ratings-file>");
        exit(2);
    };
    println!("{}", DatasetStats::compute(&load(path, opts).dataset));
}

fn cmd_build(opts: &Options) {
    let Some(path) = opts.positional.first() else {
        eprintln!("usage: cnc build <ratings-file> [options]");
        exit(2);
    };
    let Ratings { dataset: ds, users, .. } = load(path, opts);
    eprintln!("loaded: {}", DatasetStats::compute(&ds));
    let (graph, comparisons, seconds) = build_graph(&ds, opts);
    eprintln!("built {} graph in {seconds:.2}s ({comparisons} similarity computations)", opts.algo);
    let mut out: Box<dyn Write> = match &opts.out {
        Some(path) => {
            Box::new(std::io::BufWriter::new(std::fs::File::create(path).unwrap_or_else(|e| {
                eprintln!("cnc: cannot create {path}: {e}");
                exit(1);
            })))
        }
        None => Box::new(std::io::stdout().lock()),
    };
    for (u, list) in graph.iter() {
        for nb in list.sorted() {
            let (from, to) = (&users[u as usize], &users[nb.user as usize]);
            writeln!(out, "{from}\t{to}\t{:.6}", nb.sim).expect("write edge");
        }
    }
}

fn cmd_query(opts: &Options) {
    let (Some(path), Some(items)) = (opts.positional.first(), opts.positional.get(1)) else {
        eprintln!("usage: cnc query <ratings-file> <item,item,...> [options]");
        exit(2);
    };
    let Ratings { dataset: ds, users, items: names } = load(path, opts);
    let ids: HashMap<&str, u32> =
        names.iter().zip(0..).map(|(name, id)| (name.as_str(), id)).collect();
    let (mut profile, mut unknown) = (Vec::new(), false);
    for name in items.split(',').map(str::trim) {
        match ids.get(name) {
            Some(&id) => profile.push(id),
            None => {
                eprintln!("cnc: unknown item {name:?}: {path} rates it nowhere above --binarize");
                unknown = true;
            }
        }
    }
    if unknown {
        exit(2);
    }
    profile.sort_unstable();
    profile.dedup();
    let (graph, _, _) = build_graph(&ds, opts);
    let entries = BuildPlan::assign(&c2_config(opts), &ds).entry_index();
    let index = QueryIndex::new(&ds, &graph).with_entries(&entries);
    let config =
        BeamSearchConfig { beam_width: (2 * opts.k).max(32), ..BeamSearchConfig::default() };
    let result = index.search(&profile, opts.k, &config, opts.seed);
    println!("# {} comparisons", result.comparisons);
    for nb in result.neighbors {
        println!("{}\t{:.6}", users[nb.user as usize], nb.sim);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().cloned() else {
        eprintln!("usage: cnc <stats|build|query> [args] (see --help in source docs)");
        exit(2);
    };
    let opts = match parse_options(&args[1..]) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("cnc: {msg}");
            exit(2);
        }
    };
    match command.as_str() {
        "stats" => cmd_stats(&opts),
        "build" => cmd_build(&opts),
        "query" => cmd_query(&opts),
        other => {
            eprintln!("cnc: unknown command {other:?} (stats|build|query)");
            exit(2);
        }
    }
}
