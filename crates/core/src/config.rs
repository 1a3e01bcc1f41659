//! Configuration of a Cluster-and-Conquer run (paper §IV-C defaults).

use cnc_similarity::SimilarityBackend;

/// Which clustering scheme Step 1 uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClusteringScheme {
    /// FastRandomHash with recursive splitting — the paper's contribution.
    FastRandomHash,
    /// `t` MinHash functions, one cluster per argmin item, **no** splitting
    /// — the Table IV ablation ("C²/MinHash").
    MinHash,
}

/// All knobs of a C² run. `Default` reproduces the paper's §IV-C setup.
/// Equality is field-wise — the distributed wire codec round-trips a
/// config bit-exactly and asserts it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct C2Config {
    /// Neighbourhood size `k` (paper: 30).
    pub k: usize,
    /// Clusters per hash function `b` (paper: 4096).
    pub b: u32,
    /// Number of hash functions `t` (paper: 8; 15 for DBLP and Gowalla).
    pub t: usize,
    /// Maximum cluster size `N` before recursive splitting (paper: 2000;
    /// 4000 for MovieLens20M). `usize::MAX` disables splitting.
    pub max_cluster_size: usize,
    /// Hyrec iteration bound ρ inside clusters (paper: 5); also sets the
    /// brute-force/Hyrec switch at `|C| < ρ·k²` (Algorithm 2).
    pub rho: usize,
    /// Convergence threshold δ of the greedy local solver (paper: 0.001).
    pub delta: f64,
    /// Similarity backend (paper: 1024-bit GoldFinger; Table V ablates Raw).
    pub backend: SimilarityBackend,
    /// Step 1 scheme (Table IV ablates MinHash).
    pub scheme: ClusteringScheme,
    /// Worker threads; 0 = all available hardware threads.
    pub threads: usize,
    /// Root seed for hash functions and local random inits.
    pub seed: u64,
}

impl Default for C2Config {
    fn default() -> Self {
        C2Config {
            k: 30,
            b: 4096,
            t: 8,
            max_cluster_size: 2000,
            rho: 5,
            delta: 0.001,
            backend: SimilarityBackend::default(),
            scheme: ClusteringScheme::FastRandomHash,
            threads: 0,
            seed: 0xC2C2,
        }
    }
}

impl C2Config {
    /// The Algorithm 2 switch: clusters smaller than `ρ·k²` are solved by
    /// brute force, larger ones by Hyrec.
    pub fn brute_force_threshold(&self) -> usize {
        self.rho * self.k * self.k
    }

    /// The incremental rebuild's switch (`build_plan`, stage 4): predicted
    /// patch + recompute pairs above this share (in percent) of the
    /// from-scratch `Σ|C|(|C|−1)/2` send the rebuild down the from-scratch
    /// path. A patched pair costs more than a from-scratch one — a
    /// one-vs-many sweep over global rows and an offer into a shared row,
    /// against a register-blocked tile of one cluster's rows feeding
    /// cluster-local lists — about 1.6× on GoldFinger-1024 and about 1× on
    /// raw profiles, where the Jaccard itself dominates. Measured on a
    /// 2-vCPU box, 2 threads, best of 3, every graph bit-identical to the
    /// from-scratch one (share of pairs redone → patched ÷ from-scratch
    /// time): ml10M `N`=2000 +256 users 3.3 % → 0.15×, +1,024 11 % → 0.27×,
    /// +4,096 21 % → 0.39×, +8,192 37 % → 0.64×, +16,384 56 % → 0.90×; ml1M
    /// `N`=200 +512 29 % → 0.50×, +2,048 108 % → 0.90×; DBLP raw `N`=100
    /// +256 31 % → 0.38×, +1,024 94 % → 0.91×. Patching still wins a little
    /// past one half; below it, it wins by a quarter or more.
    pub const PATCH_MAX_PAIR_SHARE_PCT: u64 = 50;

    /// Checks parameter sanity; called by the pipeline before running.
    pub fn validate(&self) -> Result<(), String> {
        if self.k == 0 {
            return Err("k must be positive".into());
        }
        if self.b == 0 {
            return Err("b must be positive".into());
        }
        if self.t == 0 {
            return Err("t must be positive".into());
        }
        if self.rho == 0 {
            return Err("rho must be positive".into());
        }
        if self.max_cluster_size < 2 {
            return Err("max_cluster_size must allow at least one pair".into());
        }
        if !(self.delta.is_finite() && self.delta >= 0.0) {
            return Err("delta must be finite and non-negative".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_section_4c() {
        let c = C2Config::default();
        assert_eq!(c.k, 30);
        assert_eq!(c.b, 4096);
        assert_eq!(c.t, 8);
        assert_eq!(c.max_cluster_size, 2000);
        assert_eq!(c.rho, 5);
        assert_eq!(c.scheme, ClusteringScheme::FastRandomHash);
        // ρ·k² = 4500 > N = 2000, so brute force is preferred by default
        // ("in order to privilege Brute Force", §IV-C).
        assert!(c.brute_force_threshold() > c.max_cluster_size);
        assert_eq!(c.brute_force_threshold(), 4500);
        c.validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_parameters() {
        for (field, cfg) in [
            ("k", C2Config { k: 0, ..Default::default() }),
            ("b", C2Config { b: 0, ..Default::default() }),
            ("t", C2Config { t: 0, ..Default::default() }),
            ("rho", C2Config { rho: 0, ..Default::default() }),
            ("N", C2Config { max_cluster_size: 1, ..Default::default() }),
            ("delta", C2Config { delta: f64::NAN, ..Default::default() }),
        ] {
            assert!(cfg.validate().is_err(), "{field} should fail validation");
        }
    }
}
