//! SLO machinery for the serving engine: a global comparison-budget
//! token bucket feeding per-query admission, and an adaptive beam-width
//! controller driven by the rolling p99.
//!
//! `max_comparisons` bounds one query; production load needs a *global*
//! budget. [`TokenBucket`] meters admission in **comparison tokens**:
//! every query is charged its worst-case comparison count up front and
//! refunded the unspent part after execution, so over any window the
//! comparisons actually executed by admitted queries never exceed
//! `burst + rate × window` (locked by the property tests in
//! `tests/slo.rs`). A query that cannot be charged is **shed** with a
//! typed [`Rejected`] carrying the earliest time a retry could be
//! admitted — never a panic, never a silently slow answer.
//!
//! [`SloController`] closes the latency loop: the engine samples the
//! rolling p99 from its `cnc_query_latency_ns` histogram (the PR-6
//! telemetry substrate's windowed
//! [`quantile_since`](cnc_telemetry::Histogram::quantile_since)) and the
//! controller halves the effective beam width — never below a configured
//! floor — while the target is being missed, recovering in steps once
//! consecutive windows come back healthy. The decision sequence is a pure
//! function of the observed p99 sequence, so tests drive it
//! deterministically.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub(crate) const NANOS_PER_SEC: u64 = 1_000_000_000;

/// The typed load-shed outcome: the engine's budget could not cover the
/// query. Carries the earliest duration after which a retry could be
/// admitted (given no competing traffic).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rejected {
    /// Time until the bucket will have refilled enough tokens for this
    /// query's charge.
    pub retry_after: Duration,
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "query shed by admission control; retry after {:?}", self.retry_after)
    }
}

impl std::error::Error for Rejected {}

/// SLO knobs of a [`crate::ServingConfig`]. The default disables every
/// mechanism (no admission, no adaptive beam), so existing engines are
/// unaffected unless a budget or target is configured.
#[derive(Clone, Copy, Debug)]
pub struct SloConfig {
    /// Global admission budget in **comparison tokens per second**
    /// (0 = admission disabled; `try_query_with` admits everything).
    pub budget_per_sec: u64,
    /// Bucket capacity — the burst the budget tolerates (0 = one second
    /// of refill). Raised automatically to at least one query's charge.
    pub burst: u64,
    /// Rolling-p99 latency target in microseconds (0 = the adaptive
    /// beam controller is disabled).
    pub target_p99_us: u64,
    /// The controller never narrows the effective beam below this width.
    pub min_beam_width: usize,
    /// Queries between controller evaluations of the rolling p99.
    pub controller_every: u64,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            budget_per_sec: 0,
            burst: 0,
            target_p99_us: 0,
            min_beam_width: 8,
            controller_every: 256,
        }
    }
}

impl SloConfig {
    /// True if any SLO mechanism (admission or adaptive beam) is on.
    pub fn enabled(&self) -> bool {
        self.budget_per_sec > 0 || self.target_p99_us > 0
    }
}

/// The bucket's time source. Production buckets run on the monotonic
/// clock; tests inject a [`ManualClock`] so refill and `retry_after`
/// arithmetic is exactly reproducible.
#[derive(Clone)]
enum ClockSource {
    Monotonic(Instant),
    Manual(Arc<AtomicU64>),
}

/// A hand-driven clock for deterministic admission tests.
#[derive(Clone)]
pub struct ManualClock(Arc<AtomicU64>);

impl ManualClock {
    /// A clock frozen at t = 0.
    pub fn new() -> Self {
        ManualClock(Arc::new(AtomicU64::new(0)))
    }

    /// Advances the clock.
    pub fn advance(&self, by: Duration) {
        self.0.fetch_add(by.as_nanos() as u64, Ordering::SeqCst);
    }

    /// The current reading in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }
}

impl Default for ManualClock {
    fn default() -> Self {
        Self::new()
    }
}

struct BucketState {
    tokens: u64,
    /// Refill numerator remainder (`< NANOS_PER_SEC`), so fractional
    /// refills are never lost to integer division.
    carry: u64,
    /// Tokens owed by settled overruns; repaid from refill before the
    /// balance grows.
    debt: u64,
    last_ns: u64,
}

/// A global comparison-budget token bucket (integer arithmetic
/// throughout, so identical call sequences on identical clocks produce
/// identical decisions).
///
/// Charge-then-settle protocol: [`TokenBucket::try_acquire`] charges a
/// query's worst-case cost at admission; [`TokenBucket::settle`] refunds
/// the unspent part (or books the overrun as debt) after execution. Since
/// an admitted query's actual work never exceeds its charge (the engine
/// caps `max_comparisons` at the charge), total admitted work over any
/// window is bounded by `burst + rate × window`.
pub struct TokenBucket {
    rate: u64,
    burst: u64,
    state: Mutex<BucketState>,
    clock: ClockSource,
}

impl TokenBucket {
    /// A bucket refilling `rate` tokens/second with capacity `burst`
    /// (starts full), on the monotonic clock.
    ///
    /// # Panics
    /// Panics if `rate` or `burst` is zero.
    pub fn new(rate: u64, burst: u64) -> Self {
        Self::with_clock(rate, burst, ClockSource::Monotonic(Instant::now()))
    }

    /// A bucket driven by `clock` (see [`ManualClock`]), for tests.
    ///
    /// # Panics
    /// Panics if `rate` or `burst` is zero.
    pub fn with_manual_clock(rate: u64, burst: u64, clock: &ManualClock) -> Self {
        Self::with_clock(rate, burst, ClockSource::Manual(Arc::clone(&clock.0)))
    }

    fn with_clock(rate: u64, burst: u64, clock: ClockSource) -> Self {
        assert!(rate > 0, "refill rate must be positive");
        assert!(burst > 0, "burst capacity must be positive");
        let now = Self::read(&clock);
        TokenBucket {
            rate,
            burst,
            state: Mutex::new(BucketState { tokens: burst, carry: 0, debt: 0, last_ns: now }),
            clock,
        }
    }

    fn read(clock: &ClockSource) -> u64 {
        match clock {
            ClockSource::Monotonic(origin) => origin.elapsed().as_nanos() as u64,
            ClockSource::Manual(ns) => ns.load(Ordering::SeqCst),
        }
    }

    /// The bucket's capacity.
    pub fn burst(&self) -> u64 {
        self.burst
    }

    fn refill(&self, state: &mut BucketState) {
        let now = Self::read(&self.clock);
        let elapsed = now.saturating_sub(state.last_ns);
        state.last_ns = now;
        let numer = elapsed as u128 * self.rate as u128 + state.carry as u128;
        let mut add = (numer / NANOS_PER_SEC as u128) as u64;
        state.carry = (numer % NANOS_PER_SEC as u128) as u64;
        let repaid = add.min(state.debt);
        state.debt -= repaid;
        add -= repaid;
        state.tokens = state.tokens.saturating_add(add).min(self.burst);
    }

    /// Charges `cost` tokens, or rejects with the earliest retry time.
    /// A cost above the burst capacity can never be admitted; the
    /// rejection saturates `retry_after` at one hour to make the
    /// misconfiguration visible rather than spinning.
    pub fn try_acquire(&self, cost: u64) -> Result<(), Rejected> {
        let mut state = self.state.lock().expect("token bucket poisoned");
        self.refill(&mut state);
        if state.debt == 0 && state.tokens >= cost {
            state.tokens -= cost;
            return Ok(());
        }
        let retry_after = if cost > self.burst {
            Duration::from_secs(3600)
        } else {
            let deficit = (cost - state.tokens.min(cost)) as u128 + state.debt as u128;
            // Time to refill `deficit` tokens, net of the carry already
            // accumulated toward the next token.
            let numer = deficit * NANOS_PER_SEC as u128;
            let ns = numer.saturating_sub(state.carry as u128).div_ceil(self.rate as u128);
            Duration::from_nanos(ns.min(u64::MAX as u128) as u64)
        };
        Err(Rejected { retry_after })
    }

    /// Reconciles a finished query: refunds `charged - actual` unused
    /// tokens, or books `actual - charged` as debt repaid before the
    /// balance grows again.
    pub fn settle(&self, charged: u64, actual: u64) {
        let mut state = self.state.lock().expect("token bucket poisoned");
        if actual < charged {
            let mut refund = charged - actual;
            let repaid = refund.min(state.debt);
            state.debt -= repaid;
            refund -= repaid;
            state.tokens = state.tokens.saturating_add(refund).min(self.burst);
        } else {
            let mut over = actual - charged;
            let taken = over.min(state.tokens);
            state.tokens -= taken;
            over -= taken;
            state.debt = state.debt.saturating_add(over);
        }
    }

    /// The spendable balance right now (refills first). Monitoring /
    /// test hook.
    pub fn balance(&self) -> u64 {
        let mut state = self.state.lock().expect("token bucket poisoned");
        self.refill(&mut state);
        if state.debt > 0 {
            0
        } else {
            state.tokens
        }
    }
}

/// What a controller observation decided.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SloAction {
    /// The target is met (or the beam is already at its bound).
    Hold,
    /// The p99 missed the target: the beam scale was halved.
    Degrade,
    /// Consecutive healthy windows: one recovery step toward full width.
    Recover,
}

/// The adaptive beam-width state machine: multiplicative decrease while
/// the rolling p99 misses the target, stepwise recovery once it holds.
/// `observe` is a pure function of the p99 sequence, so shed/degrade
/// traces replay exactly in tests.
pub struct SloController {
    target_ns: u64,
    full_beam: usize,
    min_beam: usize,
    /// Effective beam = `max(min_beam, full_beam × scale_pct / 100)`.
    scale_pct: u32,
    healthy: u32,
    /// Healthy windows required before each recovery step.
    recover_after: u32,
}

/// Recovery step: scale regained per recovery decision, in percent.
const RECOVER_STEP_PCT: u32 = 25;

impl SloController {
    /// A controller targeting `target_ns` rolling p99, scaling between
    /// `full_beam` and `min_beam`.
    ///
    /// # Panics
    /// Panics if `target_ns == 0` or `min_beam > full_beam` or
    /// `min_beam == 0`.
    pub fn new(target_ns: u64, full_beam: usize, min_beam: usize) -> Self {
        assert!(target_ns > 0, "p99 target must be positive");
        assert!(min_beam > 0, "beam floor must be positive");
        assert!(min_beam <= full_beam, "beam floor above the configured width");
        SloController {
            target_ns,
            full_beam,
            min_beam,
            scale_pct: 100,
            healthy: 0,
            recover_after: 2,
        }
    }

    /// Feeds one rolling-p99 observation; returns what changed.
    pub fn observe(&mut self, p99_ns: u64) -> SloAction {
        if p99_ns > self.target_ns {
            self.healthy = 0;
            let floor = self.floor_pct();
            if self.scale_pct > floor {
                self.scale_pct = (self.scale_pct / 2).max(floor);
                return SloAction::Degrade;
            }
            return SloAction::Hold;
        }
        if self.scale_pct >= 100 {
            return SloAction::Hold;
        }
        self.healthy += 1;
        if self.healthy >= self.recover_after {
            self.healthy = 0;
            self.scale_pct = (self.scale_pct + RECOVER_STEP_PCT).min(100);
            return SloAction::Recover;
        }
        SloAction::Hold
    }

    fn floor_pct(&self) -> u32 {
        ((self.min_beam * 100).div_ceil(self.full_beam)) as u32
    }

    /// The current scale in percent (100 = full width).
    pub fn scale_pct(&self) -> u32 {
        self.scale_pct
    }

    /// The current effective beam width — never below the floor.
    pub fn beam_width(&self) -> usize {
        scaled_beam(self.full_beam, self.min_beam, self.scale_pct)
    }
}

/// `max(min_beam, full × pct / 100)` — shared with the engine's lock-free
/// cached-scale read.
pub(crate) fn scaled_beam(full: usize, min_beam: usize, pct: u32) -> usize {
    (full * pct as usize / 100).max(min_beam).max(1)
}
