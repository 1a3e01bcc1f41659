//! Seeded, deterministic fault injection — the chaos counterpart of
//! `cnc-telemetry`.
//!
//! A process-wide [`Faults`] registry exposes typed *sites* — points in
//! the build, shuffle and snapshot paths where the engine asks "does this
//! operation fail now?". Disarmed (the default), every site costs one
//! relaxed atomic load. Armed with a [`FaultPlan`], the registry answers
//! from a **seeded schedule**: each `(site, key)` pair draws a *failure
//! budget* `n ∈ {0, …, span}` from a hash of `(seed, site, key)`, and the
//! first `n` injection queries for that pair fail (with a deterministic
//! fault kind), after which the pair succeeds forever. Two properties
//! follow:
//!
//! * **Determinism per key.** Whether — and how often — a given cluster
//!   solve, spill record or snapshot write fails is a pure function of
//!   the plan's seed, independent of thread interleaving.
//! * **Transience.** Budgets are finite (at most [`MAX_SPAN`]), so a
//!   retry outlasts the schedule *unless* the caller's attempt budget is
//!   smaller than the drawn failure budget — which is exactly how the
//!   schedule escalates a recoverable fault into a build-level failure
//!   the layer above must absorb.
//!
//! Every recovering caller retries through the one loop here, [`retry`],
//! under one of two budgets: [`RETRY_ATTEMPTS`] outlasts every schedule
//! (IO, transport, the coordinator's inline solves), [`SOLVE_ATTEMPTS`]
//! deliberately does not (the solve gates inside a build lane).
//!
//! The registry is dependency-free and knows nothing about the layers it
//! serves: callers map [`Fault::Io`] to an `io::Error`, [`Fault::Panic`]
//! to a failed solve gate ([`Faults::gate`]), [`Fault::Torn`] to a short
//! write, [`Fault::Crash`] to "die between write and rename".

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::Duration;

/// A typed injection point. The eight sites cover every IO or compute
/// step whose failure the engine promises to survive (see the README's
/// fault matrix).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Site {
    /// Appending one record to a spill stream.
    SpillWrite,
    /// Opening/reading a sealed spill file to merge it.
    SpillReplay,
    /// Writing a snapshot (temp file + rename).
    SnapshotWrite,
    /// Opening/reading a snapshot at load.
    SnapshotLoad,
    /// One cluster solve, at the gate in front of each cluster job.
    SolveCluster,
    /// Writing one frame onto a distributed-build transport (socket or
    /// pipe). Injected *before* any byte reaches the wire, so retries
    /// are always safe.
    TransportSend,
    /// A worker *process* dying before a cluster solve — the
    /// multi-process analogue of a solver panic. The budget counter for
    /// this site lives with the coordinator (see [`Faults::inject_at`]),
    /// because the process that draws the fault does not survive it.
    WorkerExit,
    /// Memory-mapping a snapshot for zero-copy adoption. An injected
    /// failure here never fails the adopt — it forces the bit-exact copy
    /// fallback, which is exactly the degraded path chaos runs verify.
    SnapshotMmap,
}

impl Site {
    /// Every site, in stable order (indexes the per-site counters).
    pub const ALL: [Site; 8] = [
        Site::SpillWrite,
        Site::SpillReplay,
        Site::SnapshotWrite,
        Site::SnapshotLoad,
        Site::SolveCluster,
        Site::TransportSend,
        Site::WorkerExit,
        Site::SnapshotMmap,
    ];

    /// The site's wire name, as used in `sites=` plan specs and typed errors.
    pub fn name(self) -> &'static str {
        match self {
            Site::SpillWrite => "spill.write",
            Site::SpillReplay => "spill.replay",
            Site::SnapshotWrite => "snapshot.write",
            Site::SnapshotLoad => "snapshot.load",
            Site::SolveCluster => "solve.cluster",
            Site::TransportSend => "transport.send",
            Site::WorkerExit => "worker.exit",
            Site::SnapshotMmap => "snapshot.mmap",
        }
    }

    fn index(self) -> usize {
        Site::ALL.iter().position(|&s| s == self).unwrap()
    }

    fn parse(name: &str) -> Result<Site, String> {
        Site::ALL
            .iter()
            .copied()
            .find(|s| s.name() == name)
            .ok_or_else(|| format!("unknown fault site {name:?}"))
    }
}

/// What an injected failure looks like to the caller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// A clean IO error (nothing written/read).
    Io,
    /// A torn write: a prefix of the payload reaches the file, then the
    /// operation errors. Recovery must truncate back to the last
    /// committed offset.
    Torn,
    /// An unwinding panic (a solver crash).
    Panic,
    /// A crash between temp-file write and rename: the temp file is left
    /// behind and the operation errors.
    Crash,
}

/// The payload a build unwinds with when a cluster's `solve.cluster` gate
/// exhausts its attempts, so hooks and tests can tell injected panics
/// from genuine ones.
#[derive(Clone, Copy, Debug)]
pub struct InjectedPanic {
    /// The site that fired.
    pub site: Site,
    /// The caller's site key.
    pub key: u64,
}

/// A seeded fault schedule. `p` is the per-key failure probability (a key
/// identifies one retryable operation: a cluster, a spill record, a
/// snapshot path); a failing key draws a failure budget uniformly from
/// `1..=span` and fails its first *budget* attempts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Schedule seed: same seed, same failures.
    pub seed: u64,
    /// Per-key failure probability, in thousandths (20 = 2%).
    pub p_mille: u32,
    /// Upper bound of the per-key failure budget; clamped to
    /// `1..=`[`MAX_SPAN`], so [`RETRY_ATTEMPTS`] always outlasts the
    /// schedule.
    pub span: u32,
    /// Bitmask of armed sites (bit = `Site::ALL` index); 0xFF = all.
    pub sites: u16,
}

/// The mask with every [`Site`] armed.
pub const ALL_SITES: u16 = 0xFF;

/// The widest failure budget a plan draws: [`FaultPlan::span`] is
/// clamped to `1..=MAX_SPAN`.
pub const MAX_SPAN: u32 = 12;

/// The attempt budget that outlasts every schedule: IO (spill, snapshot
/// load), transport sends and the coordinator's inline solves. Only a
/// genuine persistent failure exhausts it.
pub const RETRY_ATTEMPTS: u32 = 16;

/// The attempt budget of a solve gate inside a build lane (the runtime's
/// pool jobs, a worker process). Below [`MAX_SPAN`] on purpose: a wide
/// schedule exhausts it, and the layer above recovers (the serving
/// writer's publish retry, the coordinator's requeue).
pub const SOLVE_ATTEMPTS: u32 = 3;

const _: () = assert!(RETRY_ATTEMPTS > MAX_SPAN, "IO retries must outlast every schedule");

impl FaultPlan {
    /// All sites armed at probability `p` (fraction, not mille).
    pub fn new(seed: u64, p: f64) -> FaultPlan {
        FaultPlan {
            seed,
            p_mille: (p.clamp(0.0, 1.0) * 1000.0).round() as u32,
            span: 4,
            sites: ALL_SITES,
        }
    }

    /// Restricts the plan to the given sites.
    pub fn only(mut self, sites: &[Site]) -> FaultPlan {
        self.sites = sites.iter().fold(0u16, |m, s| m | (1 << s.index()));
        self
    }

    /// Sets the failure-budget span (clamped to `1..=`[`MAX_SPAN`] when
    /// applied).
    pub fn with_span(mut self, span: u32) -> FaultPlan {
        self.span = span;
        self
    }

    /// Parses a fault spec, the form [`FaultPlan::spec`] renders:
    /// comma-separated `key=value` pairs.
    ///
    /// ```text
    /// seed=42,p=0.02                 all sites, 2% per key, span 4
    /// seed=7,p=0.1,span=6            wider budgets (escalation likelier)
    /// seed=1,p=1,sites=solve.cluster+spill.write
    /// ```
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new(42, 0.02);
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (k, v) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec part {part:?} is not key=value"))?;
            match k.trim() {
                "seed" => plan.seed = v.trim().parse().map_err(|e| format!("seed: {e}"))?,
                "p" => {
                    let p: f64 = v.trim().parse().map_err(|e| format!("p: {e}"))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err("p must be in [0, 1]".into());
                    }
                    plan.p_mille = (p * 1000.0).round() as u32;
                }
                "span" => plan.span = v.trim().parse().map_err(|e| format!("span: {e}"))?,
                "sites" => {
                    let mut mask = 0u16;
                    for name in v.split('+') {
                        mask |= 1 << Site::parse(name.trim())?.index();
                    }
                    plan.sites = mask;
                }
                other => return Err(format!("unknown fault spec key {other:?}")),
            }
        }
        Ok(plan)
    }

    /// Renders the plan back into `parse` form. Site restrictions are
    /// preserved, so a spec string is a complete description of the plan
    /// — the distributed coordinator ships plans to worker processes in
    /// exactly this form.
    pub fn spec(&self) -> String {
        let mut spec =
            format!("seed={},p={},span={}", self.seed, self.p_mille as f64 / 1000.0, self.span);
        if self.sites != ALL_SITES {
            let names: Vec<&str> =
                Site::ALL.iter().filter(|s| self.armed_site(**s)).map(|s| s.name()).collect();
            spec.push_str(",sites=");
            spec.push_str(&names.join("+"));
        }
        spec
    }

    fn armed_site(&self, site: Site) -> bool {
        self.sites & (1 << site.index()) != 0
    }

    fn effective_span(&self) -> u64 {
        self.span.clamp(1, MAX_SPAN) as u64
    }

    /// How many times `(site, key)` will fail before succeeding — a pure
    /// function of the plan. 0 for most keys; `1..=span` for the unlucky
    /// `p` fraction.
    pub fn failure_budget(&self, site: Site, key: u64) -> u32 {
        if !self.armed_site(site) || self.p_mille == 0 {
            return 0;
        }
        let h = mix(self.seed ^ SITE_SALT[site.index()] ^ key);
        if h % 1000 < self.p_mille as u64 {
            (1 + (h >> 32) % self.effective_span()) as u32
        } else {
            0
        }
    }

    /// The fault kind of the `n`-th failure of `(site, key)` — IO-flavored
    /// sites alternate deterministically between their two kinds.
    fn kind(&self, site: Site, key: u64, n: u32) -> Fault {
        let h = mix(self.seed ^ SITE_SALT[site.index()].rotate_left(17) ^ key ^ (n as u64) << 48);
        match site {
            Site::SolveCluster => Fault::Panic,
            Site::WorkerExit => Fault::Crash,
            Site::SpillReplay | Site::SnapshotLoad | Site::TransportSend | Site::SnapshotMmap => {
                Fault::Io
            }
            Site::SpillWrite => {
                if h & 1 == 0 {
                    Fault::Io
                } else {
                    Fault::Torn
                }
            }
            Site::SnapshotWrite => {
                if h & 1 == 0 {
                    Fault::Io
                } else {
                    Fault::Crash
                }
            }
        }
    }
}

/// Per-site salts so the same key draws independently across sites.
const SITE_SALT: [u64; 8] = [
    0x9E37_79B9_7F4A_7C15,
    0xBF58_476D_1CE4_E5B9,
    0x94D0_49BB_1331_11EB,
    0xD6E8_FEB8_6659_FD93,
    0xA076_1D64_78BD_642F,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0x2545_F491_4F6C_DD1D,
];

/// splitmix64's finalizer — the same mixer the workspace's vendored PRNG
/// and FNV paths lean on for cheap avalanche.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Armed-plan state: the plan plus the per-`(site, key)` draw counters
/// that make injected failures transient.
struct PlanState {
    plan: FaultPlan,
    draws: HashMap<(u8, u64), u32>,
}

/// The process-wide fault registry. See the module docs for semantics.
pub struct Faults {
    armed: AtomicBool,
    state: Mutex<Option<PlanState>>,
    injected: [AtomicU64; 9],
}

/// Disarms (and clears) the registry when dropped, so a panicking test
/// cannot leave the process chaos-armed.
pub struct ArmedGuard<'a> {
    faults: &'a Faults,
}

impl Drop for ArmedGuard<'_> {
    fn drop(&mut self) {
        self.faults.disarm();
    }
}

impl Faults {
    const fn new() -> Faults {
        Faults {
            armed: AtomicBool::new(false),
            state: Mutex::new(None),
            injected: [
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
            ],
        }
    }

    /// The process-wide registry.
    pub fn global() -> &'static Faults {
        static GLOBAL: OnceLock<Faults> = OnceLock::new();
        GLOBAL.get_or_init(Faults::new)
    }

    /// Whether a plan is armed — the one relaxed load every disarmed site
    /// costs.
    #[inline]
    pub fn armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }

    /// Arms `plan`, resetting draw state and injection counters. The
    /// returned guard disarms on drop; [`std::mem::forget`] it to keep
    /// the plan armed past the current scope.
    pub fn arm(&self, plan: FaultPlan) -> ArmedGuard<'_> {
        {
            let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
            *state = Some(PlanState { plan, draws: HashMap::new() });
        }
        for c in &self.injected {
            c.store(0, Ordering::Relaxed);
        }
        self.armed.store(true, Ordering::Relaxed);
        ArmedGuard { faults: self }
    }

    /// Disarms and clears any armed plan (idempotent).
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::Relaxed);
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        *state = None;
    }

    /// The armed plan, if any.
    pub fn plan(&self) -> Option<FaultPlan> {
        if !self.armed() {
            return None;
        }
        self.state.lock().unwrap_or_else(|p| p.into_inner()).as_ref().map(|s| s.plan)
    }

    /// Asks the schedule whether this attempt at `(site, key)` fails.
    /// Consumes one unit of the pair's failure budget on `Some`; returns
    /// `None` forever once the budget is spent. Disarmed: one relaxed
    /// load, always `None`.
    #[inline]
    pub fn inject(&self, site: Site, key: u64) -> Option<Fault> {
        if !self.armed() {
            return None;
        }
        self.inject_slow(site, key)
    }

    fn inject_slow(&self, site: Site, key: u64) -> Option<Fault> {
        let mut guard = self.state.lock().unwrap_or_else(|p| p.into_inner());
        let state = guard.as_mut()?;
        let budget = state.plan.failure_budget(site, key);
        if budget == 0 {
            return None;
        }
        let n = state.draws.entry((site.index() as u8, key)).or_insert(0);
        if *n >= budget {
            return None;
        }
        let kind = state.plan.kind(site, key, *n);
        *n += 1;
        drop(guard);
        self.injected[site.index()].fetch_add(1, Ordering::Relaxed);
        Some(kind)
    }

    /// The cross-process variant of [`Faults::inject`]: the caller owns
    /// the attempt counter instead of the registry's draw state. Attempt
    /// `n` at `(site, key)` fails iff `n` is below the pair's failure
    /// budget — a pure function of the armed plan — so a *coordinator*
    /// can track attempts across worker processes whose own draw
    /// counters reset every exec (a worker that dies at attempt 0 is
    /// re-asked at attempt 1 by whoever picks up the cluster, and the
    /// schedule stays transient). Bumps the site's injection counter on
    /// `Some`.
    #[inline]
    pub fn inject_at(&self, site: Site, key: u64, attempt: u32) -> Option<Fault> {
        if !self.armed() {
            return None;
        }
        let plan = self.plan()?;
        let budget = plan.failure_budget(site, key);
        if attempt >= budget {
            return None;
        }
        self.injected[site.index()].fetch_add(1, Ordering::Relaxed);
        Some(plan.kind(site, key, attempt))
    }

    /// [`Faults::inject`] mapped to `io::Result`: `Fault::Io`/`Torn`/
    /// `Crash` become an `Err` tagged with the site name (the caller
    /// distinguishes kinds it cares about via [`Faults::inject`]
    /// directly).
    pub fn inject_io(&self, site: Site, key: u64) -> std::io::Result<()> {
        match self.inject(site, key) {
            None => Ok(()),
            Some(_) => Err(injected_io_error(site)),
        }
    }

    /// Asks `(site, key)` under [`retry`] until the schedule lets it
    /// pass: `Ok` with the retries it took, or the last fault once
    /// `attempts` have failed. A gate guards an operation *before* it
    /// touches any state, so passing late is as good as passing first.
    /// Disarmed: one relaxed load, `Ok(0)`.
    #[inline]
    pub fn gate(&self, site: Site, key: u64, attempts: u32) -> Result<u32, Exhausted<Fault>> {
        let pass = || self.inject(site, key).map_or(Ok(()), |fault| Err(Failure::Transient(fault)));
        retry(attempts, pass).map(|((), retries)| retries)
    }

    /// Total injections fired at `site` since the last arm.
    pub fn injected(&self, site: Site) -> u64 {
        self.injected[site.index()].load(Ordering::Relaxed)
    }

    /// Total injections across all sites since the last arm.
    pub fn injected_total(&self) -> u64 {
        self.injected.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

/// The `io::Error` injected faults surface as.
pub fn injected_io_error(site: Site) -> std::io::Error {
    std::io::Error::other(format!("injected fault at {}", site.name()))
}

/// True if a caught panic payload is an [`InjectedPanic`].
pub fn is_injected_panic(payload: &(dyn std::any::Any + Send)) -> bool {
    payload.is::<InjectedPanic>()
}

/// Installs (once) a panic-hook wrapper that suppresses the default
/// "thread panicked" report for [`InjectedPanic`] unwinds — chaos runs
/// drive many builds into an exhausted solve gate and recover above it,
/// and the stderr noise would drown real failures. All other panics
/// report as before.
pub fn silence_injected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<InjectedPanic>() {
                return;
            }
            previous(info);
        }));
    });
}

/// First wait of [`retry`]'s curve.
const RETRY_BASE: Duration = Duration::from_micros(20);

/// Longest wait of [`retry`]'s curve.
const RETRY_CAP: Duration = Duration::from_millis(2);

/// One failed attempt of [`retry`]'s `op`.
#[derive(Debug)]
pub enum Failure<E> {
    /// Back off and try again. Any `E` converts into this, so `?` in `op`
    /// retries.
    Transient(E),
    /// No retry can fix it: [`retry`] returns at once.
    Permanent(E),
}

impl<E> From<E> for Failure<E> {
    fn from(error: E) -> Failure<E> {
        Failure::Transient(error)
    }
}

/// [`retry`] gave up.
#[derive(Debug)]
pub struct Exhausted<E> {
    /// Failed attempts: the budget, or fewer when `op` refused a retry.
    pub attempts: u32,
    /// The last attempt's error.
    pub last: E,
}

/// The one retry loop: runs `op` until it succeeds, returns
/// [`Failure::Permanent`], or has failed `attempts` times, sleeping
/// [`backoff_delay`]`(n - 1, 20 µs, 2 ms)` after the `n`-th straight
/// failure. Returns the value and the retries it took (the failures
/// before the success). A first-try success never sleeps.
#[inline]
pub fn retry<T, E>(
    attempts: u32,
    mut op: impl FnMut() -> Result<T, Failure<E>>,
) -> Result<(T, u32), Exhausted<E>> {
    let mut failed = 0;
    loop {
        match op() {
            Ok(value) => return Ok((value, failed)),
            Err(Failure::Transient(_)) if failed + 1 < attempts => {
                std::thread::sleep(backoff_delay(failed, RETRY_BASE, RETRY_CAP));
                failed += 1;
            }
            Err(Failure::Transient(last) | Failure::Permanent(last)) => {
                return Err(Exhausted { attempts: failed + 1, last })
            }
        }
    }
}

/// The capped exponential curve every recovery waits on: `base` at
/// `n = 0`, doubling per step, never above `cap` (no overflow at any
/// `n`).
pub fn backoff_delay(n: u32, base: Duration, cap: Duration) -> Duration {
    base.saturating_mul(1u32.checked_shl(n).unwrap_or(u32::MAX)).min(cap)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests share the process-global registry; serialize the armed
    /// sections so parallel tests don't observe each other's plans.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disarmed_registry_never_injects() {
        let _serial = lock();
        let faults = Faults::global();
        assert!(!faults.armed());
        for site in Site::ALL {
            for key in 0..200 {
                assert_eq!(faults.inject(site, key), None);
            }
        }
    }

    #[test]
    fn budgets_are_deterministic_and_transient() {
        let _serial = lock();
        let plan = FaultPlan::new(7, 0.5).with_span(3);
        let faults = Faults::global();
        let _guard = faults.arm(plan);
        for key in 0..500u64 {
            let budget = plan.failure_budget(Site::SolveCluster, key);
            assert!(budget <= 3);
            // The first `budget` queries fail, every later one succeeds.
            for _ in 0..budget {
                assert!(faults.inject(Site::SolveCluster, key).is_some());
            }
            for _ in 0..4 {
                assert_eq!(faults.inject(Site::SolveCluster, key), None);
            }
        }
        assert!(faults.injected(Site::SolveCluster) > 0);
    }

    #[test]
    fn rearming_resets_draw_state() {
        let _serial = lock();
        let plan = FaultPlan::new(3, 1.0).with_span(1);
        let faults = Faults::global();
        {
            let _guard = faults.arm(plan);
            assert!(faults.inject(Site::SpillReplay, 9).is_some());
            assert_eq!(faults.inject(Site::SpillReplay, 9), None, "budget spent");
        }
        let _guard = faults.arm(plan);
        assert!(faults.inject(Site::SpillReplay, 9).is_some(), "fresh arm, fresh budget");
    }

    #[test]
    fn guard_disarms_on_drop() {
        let _serial = lock();
        let faults = Faults::global();
        {
            let _guard = faults.arm(FaultPlan::new(1, 1.0));
            assert!(faults.armed());
        }
        assert!(!faults.armed());
        assert_eq!(faults.inject(Site::SnapshotWrite, 0), None);
    }

    #[test]
    fn probability_zero_and_site_masks_suppress_injection() {
        let _serial = lock();
        let faults = Faults::global();
        {
            let _guard = faults.arm(FaultPlan::new(5, 0.0));
            for key in 0..100 {
                assert_eq!(faults.inject(Site::SpillWrite, key), None);
            }
        }
        let only_solve = FaultPlan::new(5, 1.0).only(&[Site::SolveCluster]);
        let _guard = faults.arm(only_solve);
        assert_eq!(faults.inject(Site::SpillWrite, 0), None, "site not armed");
        assert!(faults.inject(Site::SolveCluster, 0).is_some());
    }

    #[test]
    fn kinds_match_their_sites() {
        let _serial = lock();
        let plan = FaultPlan::new(11, 1.0).with_span(12);
        let faults = Faults::global();
        let _guard = faults.arm(plan);
        let mut seen: HashMap<Site, Vec<Fault>> = HashMap::new();
        for site in Site::ALL {
            for key in 0..64u64 {
                while let Some(kind) = faults.inject(site, key) {
                    seen.entry(site).or_default().push(kind);
                }
            }
        }
        for (site, kinds) in &seen {
            for kind in kinds {
                let ok = match site {
                    Site::SolveCluster => *kind == Fault::Panic,
                    Site::WorkerExit => *kind == Fault::Crash,
                    Site::SpillReplay
                    | Site::SnapshotLoad
                    | Site::TransportSend
                    | Site::SnapshotMmap => *kind == Fault::Io,
                    Site::SpillWrite => matches!(kind, Fault::Io | Fault::Torn),
                    Site::SnapshotWrite => matches!(kind, Fault::Io | Fault::Crash),
                };
                assert!(ok, "site {site:?} drew {kind:?}");
            }
        }
        // Both kinds of the two-kind sites appear across enough draws.
        let writes = &seen[&Site::SpillWrite];
        assert!(writes.contains(&Fault::Io) && writes.contains(&Fault::Torn));
        let snaps = &seen[&Site::SnapshotWrite];
        assert!(snaps.contains(&Fault::Io) && snaps.contains(&Fault::Crash));
    }

    #[test]
    fn gate_passes_after_the_budget_or_exhausts_with_the_fault() {
        let _serial = lock();
        let faults = Faults::global();
        assert_eq!(faults.gate(Site::SolveCluster, 77, 1).unwrap(), 0, "disarmed");
        let plan = FaultPlan::new(2, 1.0).with_span(MAX_SPAN).only(&[Site::SolveCluster]);
        let _guard = faults.arm(plan);
        let key = (0..).find(|&k| plan.failure_budget(Site::SolveCluster, k) > 1).unwrap();
        let budget = plan.failure_budget(Site::SolveCluster, key);
        let err = faults.gate(Site::SolveCluster, key, budget - 1).unwrap_err();
        assert_eq!((err.attempts, err.last), (budget - 1, Fault::Panic));
        // One failure left of the budget: the next gate retries it once.
        assert_eq!(faults.gate(Site::SolveCluster, key, RETRY_ATTEMPTS).unwrap(), 1);
        assert_eq!(faults.injected(Site::SolveCluster), u64::from(budget));
    }

    #[test]
    fn retry_counts_the_failures_before_a_success() {
        let mut calls = 0;
        let out = retry(RETRY_ATTEMPTS, || {
            calls += 1;
            if calls <= 3 {
                Err(Failure::Transient(calls))
            } else {
                Ok("done")
            }
        });
        assert_eq!(out.unwrap(), ("done", 3));
        assert_eq!(retry(1, || Ok::<_, Failure<()>>(7)).unwrap(), (7, 0));
    }

    #[test]
    fn retry_exhausts_its_budget_with_the_last_error() {
        let mut calls = 0u32;
        let err = retry(4, || -> Result<(), _> {
            calls += 1;
            Err(Failure::Transient(calls))
        })
        .unwrap_err();
        assert_eq!((err.attempts, err.last, calls), (4, 4, 4));
    }

    #[test]
    fn a_refused_retry_returns_at_once() {
        let mut calls = 0;
        let err = retry(RETRY_ATTEMPTS, || -> Result<(), _> {
            calls += 1;
            Err(Failure::Permanent("condemned"))
        })
        .unwrap_err();
        assert_eq!((err.attempts, err.last, calls), (1, "condemned", 1), "no retry");
    }

    #[test]
    fn backoff_delay_doubles_up_to_its_cap() {
        let (base, cap) = (Duration::from_millis(25), Duration::from_secs(2));
        assert_eq!(backoff_delay(0, base, cap), base);
        assert_eq!(backoff_delay(1, base, cap), 2 * base);
        assert_eq!(backoff_delay(6, base, cap), 64 * base);
        assert_eq!(backoff_delay(7, base, cap), cap, "128 × 25 ms is past the cap");
        for n in [31, 32, 64, u32::MAX] {
            assert_eq!(backoff_delay(n, base, cap), cap);
            assert_eq!(backoff_delay(n, Duration::MAX, Duration::MAX), Duration::MAX);
        }
    }

    #[test]
    fn spec_parsing_round_trips() {
        let plan = FaultPlan::parse("seed=42,p=0.02").unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.p_mille, 20);
        assert_eq!(plan.span, 4);
        assert_eq!(plan.sites, ALL_SITES);
        let again = FaultPlan::parse(&plan.spec()).unwrap();
        assert_eq!(again, plan);

        let narrow =
            FaultPlan::parse("seed=7,p=0.1,span=6,sites=solve.cluster+spill.write").unwrap();
        assert_eq!(narrow.span, 6);
        assert!(narrow.armed_site(Site::SolveCluster));
        assert!(narrow.armed_site(Site::SpillWrite));
        assert!(!narrow.armed_site(Site::SnapshotLoad));
        // Restricted plans round-trip through spec() with their masks.
        assert_eq!(FaultPlan::parse(&narrow.spec()).unwrap(), narrow);

        let distrib =
            FaultPlan::parse("seed=3,p=0.25,span=1,sites=transport.send+worker.exit").unwrap();
        assert!(distrib.armed_site(Site::TransportSend));
        assert!(distrib.armed_site(Site::WorkerExit));
        assert!(!distrib.armed_site(Site::SolveCluster));
        assert_eq!(FaultPlan::parse(&distrib.spec()).unwrap(), distrib);

        assert!(FaultPlan::parse("p=2").is_err());
        assert!(FaultPlan::parse("sites=bogus").is_err());
        assert!(FaultPlan::parse("nope=1").is_err());
        assert!(FaultPlan::parse("seed").is_err());
    }

    #[test]
    fn inject_at_is_pure_in_the_attempt_number() {
        let _serial = lock();
        let plan = FaultPlan::new(21, 0.5).with_span(2);
        let faults = Faults::global();
        let _guard = faults.arm(plan);
        for key in 0..300u64 {
            let budget = plan.failure_budget(Site::WorkerExit, key);
            for attempt in 0..budget {
                // Re-asking the same attempt fails again: no draw state
                // is consumed, exactly what a re-exec'd process sees.
                assert!(faults.inject_at(Site::WorkerExit, key, attempt).is_some());
                assert_eq!(
                    faults.inject_at(Site::WorkerExit, key, attempt),
                    Some(Fault::Crash),
                    "worker.exit draws are crashes"
                );
            }
            for attempt in budget..budget + 3 {
                assert_eq!(faults.inject_at(Site::WorkerExit, key, attempt), None);
            }
        }
        assert!(faults.injected(Site::WorkerExit) > 0);
        // inject_at never touches the shared draw counters, so the
        // classic API still sees the full budget afterwards.
        let key = (0..300).find(|&k| plan.failure_budget(Site::WorkerExit, k) > 0).unwrap();
        for _ in 0..plan.failure_budget(Site::WorkerExit, key) {
            assert!(faults.inject(Site::WorkerExit, key).is_some());
        }
        assert_eq!(faults.inject(Site::WorkerExit, key), None);
    }

    #[test]
    fn budget_distribution_tracks_p() {
        let plan = FaultPlan::new(1234, 0.02).with_span(4);
        let failing =
            (0..100_000u64).filter(|&k| plan.failure_budget(Site::SolveCluster, k) > 0).count();
        // 2% ± generous slack over 100k keys.
        assert!((1_000..3_000).contains(&failing), "{failing} failing keys at p=0.02");
    }

    #[test]
    fn io_helper_maps_faults_to_errors() {
        let _serial = lock();
        let faults = Faults::global();
        let _guard = faults.arm(FaultPlan::new(9, 1.0).with_span(1));
        let err = faults.inject_io(Site::SnapshotLoad, 5).unwrap_err();
        assert!(err.to_string().contains("snapshot.load"), "{err}");
        faults.inject_io(Site::SnapshotLoad, 5).unwrap();
    }
}
