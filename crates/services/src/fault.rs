//! Deterministic fault injection, retry policy, and circuit breaking.
//!
//! Real Web services flake, time out, and fail permanently; the engine
//! must keep its paper-level guarantees (Section 4's completeness
//! invariant) in a degraded form under those conditions, and the
//! experiments must stay reproducible. So faults here are *scheduled*,
//! not random: whether attempt `k` of a call fails is a pure function of
//! the profile seed, the service name, a fingerprint of the call
//! parameters, and `k`. The schedule is therefore identical across
//! evaluation strategies, pushed queries and thread interleavings, and two
//! runs with the same seed produce byte-identical reports.
//!
//! All fault costs are charged to the existing [`crate::SimClock`]
//! simulated-time model: a dropped call burns its network latency, a
//! timeout burns the configured per-attempt deadline, a slowdown
//! multiplies the transfer cost, and retry backoff burns simulated idle
//! time. Nothing here consumes wall-clock time.

/// The fate of one attempt of one call, drawn from a [`FaultProfile`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultDecision {
    /// The attempt proceeds normally.
    Healthy,
    /// The attempt fails fast (connection refused / 5xx): the caller pays
    /// the profile latency but transfers nothing.
    Fail,
    /// The attempt never answers: the caller pays the full per-attempt
    /// deadline (or, with no deadline configured, the profile latency).
    Timeout,
    /// The attempt succeeds but its network cost is multiplied; if the
    /// inflated cost exceeds the per-attempt deadline it becomes a
    /// timeout.
    Slow(f64),
}

/// A seeded, deterministic per-call fault schedule.
///
/// `fail_prob` selects which *call sites* (service × parameters) are
/// flaky; a flaky site fails its first `transient_failures` attempts and
/// then succeeds (use [`usize::MAX`] for a permanent outage). Failing
/// attempts time out rather than fail fast with probability
/// `timeout_prob`. Healthy attempts are independently slowed down by
/// `slowdown_factor` with probability `slowdown_prob`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultProfile {
    /// Base seed; every decision mixes this in.
    pub seed: u64,
    /// Probability that a call site is flaky at all.
    pub fail_prob: f64,
    /// How many leading attempts of a flaky site fail before it succeeds.
    pub transient_failures: usize,
    /// Probability that a failing attempt manifests as a timeout instead
    /// of a fast failure.
    pub timeout_prob: f64,
    /// Probability that a healthy attempt is slowed down.
    pub slowdown_prob: f64,
    /// Cost multiplier for slowed-down attempts.
    pub slowdown_factor: f64,
}

impl FaultProfile {
    /// A profile that never injects anything.
    pub fn none() -> Self {
        FaultProfile {
            seed: 0,
            fail_prob: 0.0,
            transient_failures: 0,
            timeout_prob: 0.0,
            slowdown_prob: 0.0,
            slowdown_factor: 1.0,
        }
    }

    /// Every call site fails its first `failures` attempts, then succeeds.
    pub fn transient(seed: u64, failures: usize) -> Self {
        FaultProfile {
            seed,
            fail_prob: 1.0,
            transient_failures: failures,
            ..FaultProfile::none()
        }
    }

    /// Every call site is permanently down (fast failures).
    pub fn permanent(seed: u64) -> Self {
        FaultProfile {
            seed,
            fail_prob: 1.0,
            transient_failures: usize::MAX,
            ..FaultProfile::none()
        }
    }

    /// Every attempt hangs until the per-attempt deadline.
    pub fn timeouts(seed: u64) -> Self {
        FaultProfile {
            seed,
            fail_prob: 1.0,
            transient_failures: usize::MAX,
            timeout_prob: 1.0,
            ..FaultProfile::none()
        }
    }

    /// A mixed workload: a `fail_prob` fraction of call sites flake
    /// transiently (absorbed by the default retry policy), a quarter of
    /// the failures are timeouts, and occasional 4× slowdowns.
    pub fn chaos(seed: u64, fail_prob: f64) -> Self {
        FaultProfile {
            seed,
            fail_prob,
            transient_failures: 1,
            timeout_prob: 0.25,
            slowdown_prob: 0.05,
            slowdown_factor: 4.0,
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Whether this profile can never produce a fault.
    pub fn is_inert(&self) -> bool {
        (self.fail_prob <= 0.0 || self.transient_failures == 0) && self.slowdown_prob <= 0.0
    }

    /// The fate of attempt `attempt` (0-based) of the call identified by
    /// `service` and `params_fingerprint`. Pure: no interior state.
    pub fn decide(&self, service: &str, params_fingerprint: u64, attempt: usize) -> FaultDecision {
        if self.is_inert() {
            return FaultDecision::Healthy;
        }
        let site = mix3(self.seed, fnv64(service.as_bytes()), params_fingerprint);
        let flaky = unit(mix2(site, SALT_FLAKY)) < self.fail_prob;
        if flaky && attempt < self.transient_failures {
            if unit(mix2(site, SALT_TIMEOUT ^ attempt as u64)) < self.timeout_prob {
                return FaultDecision::Timeout;
            }
            return FaultDecision::Fail;
        }
        if unit(mix2(site, SALT_SLOW ^ attempt as u64)) < self.slowdown_prob {
            return FaultDecision::Slow(self.slowdown_factor);
        }
        FaultDecision::Healthy
    }
}

/// How the registry re-drives failing calls.
///
/// A call makes at most `1 + max_retries` attempts. Before retry `k`
/// (0-based) the caller waits `base_backoff_ms * backoff_factor^k`
/// simulated milliseconds. Each attempt is bounded by `timeout_ms`
/// simulated milliseconds ([`f64::INFINITY`] disables the deadline — in
/// that case a scheduled timeout fault degrades to a fast failure, since
/// an unbounded hang would never terminate).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Additional attempts after the first.
    pub max_retries: usize,
    /// Backoff before the first retry, in simulated milliseconds.
    pub base_backoff_ms: f64,
    /// Multiplier applied to the backoff for each subsequent retry.
    pub backoff_factor: f64,
    /// Per-attempt deadline in simulated milliseconds.
    pub timeout_ms: f64,
}

impl Default for RetryPolicy {
    /// Three retries, 25 ms exponential backoff (25/50/100), no deadline.
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff_ms: 25.0,
            backoff_factor: 2.0,
            timeout_ms: f64::INFINITY,
        }
    }
}

impl RetryPolicy {
    /// A single attempt, no backoff, no deadline: the pre-fault behavior.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff_ms: 0.0,
            backoff_factor: 1.0,
            timeout_ms: f64::INFINITY,
        }
    }

    /// Builder-style retry-count override.
    pub fn with_retries(mut self, max_retries: usize) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Builder-style per-attempt deadline override.
    pub fn with_timeout_ms(mut self, timeout_ms: f64) -> Self {
        self.timeout_ms = timeout_ms;
        self
    }

    /// Simulated backoff before retry `retry` (0-based).
    pub fn backoff_ms(&self, retry: usize) -> f64 {
        if self.base_backoff_ms <= 0.0 {
            return 0.0;
        }
        self.base_backoff_ms * self.backoff_factor.powi(retry.min(30) as i32)
    }

    /// The backoff actually scheduled before retry `retry` when only
    /// `remaining_ms` of an end-to-end deadline budget is left: never
    /// negative, never more than the remaining budget.
    pub fn backoff_within(&self, retry: usize, remaining_ms: f64) -> f64 {
        self.backoff_ms(retry).min(remaining_ms.max(0.0))
    }
}

/// Per-service circuit-breaker configuration.
///
/// After `failure_threshold` consecutive *calls* (not attempts) to a
/// service have exhausted their retries, the breaker opens and the engine
/// skips further calls to that service — degrading them immediately —
/// until `cooldown_ms` of simulated time has passed, after which one call
/// is let through to probe the service (half-open behavior).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive failed calls that open the breaker.
    pub failure_threshold: usize,
    /// Simulated milliseconds the breaker stays open.
    pub cooldown_ms: f64,
}

impl Default for BreakerConfig {
    /// Open after 3 consecutive failed calls, cool down for 10 simulated
    /// seconds.
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown_ms: 10_000.0,
        }
    }
}

impl BreakerConfig {
    /// A breaker that never opens.
    pub fn disabled() -> Self {
        BreakerConfig {
            failure_threshold: usize::MAX,
            cooldown_ms: 0.0,
        }
    }
}

/// Mutable per-service breaker bookkeeping (owned by the registry).
#[derive(Clone, Copy, Debug, Default)]
pub struct BreakerState {
    /// Consecutive failed calls since the last success.
    pub consecutive_failures: usize,
    /// Simulated time until which the breaker rejects calls.
    pub open_until_ms: f64,
    /// Times the breaker has opened.
    pub trips: usize,
}

const SALT_FLAKY: u64 = 0xf1ab_f1ab_f1ab_f1ab;
const SALT_TIMEOUT: u64 = 0x7134_e007_7134_e007;
const SALT_SLOW: u64 = 0x510d_0000_510d_0000;

/// Fingerprint salt for hedge legs: a hedged duplicate of a call draws
/// its fault schedule from `fingerprint ^ SALT_HEDGE`, so the hedge leg
/// sees an *independent* (but still deterministic) fate — the point of
/// hedging is that a duplicate sent elsewhere may dodge the tail.
pub(crate) const SALT_HEDGE: u64 = 0x4ed6_4ed6_4ed6_4ed6;

/// FNV-1a over raw bytes.
pub(crate) fn fnv64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn mix2(a: u64, b: u64) -> u64 {
    splitmix(a ^ splitmix(b))
}

fn mix3(a: u64, b: u64, c: u64) -> u64 {
    mix2(mix2(a, b), c)
}

/// Map 64 random-looking bits to `[0, 1)`.
fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let p = FaultProfile::chaos(42, 0.5);
        for attempt in 0..4 {
            assert_eq!(p.decide("svc", 123, attempt), p.decide("svc", 123, attempt));
        }
    }

    #[test]
    fn transient_fails_then_succeeds() {
        let p = FaultProfile::transient(7, 2);
        assert_eq!(p.decide("s", 1, 0), FaultDecision::Fail);
        assert_eq!(p.decide("s", 1, 1), FaultDecision::Fail);
        assert_eq!(p.decide("s", 1, 2), FaultDecision::Healthy);
    }

    #[test]
    fn permanent_never_recovers() {
        let p = FaultProfile::permanent(7);
        for attempt in [0usize, 1, 5, 100] {
            assert_eq!(p.decide("s", 9, attempt), FaultDecision::Fail);
        }
    }

    #[test]
    fn timeouts_profile_times_out() {
        let p = FaultProfile::timeouts(7);
        assert_eq!(p.decide("s", 9, 0), FaultDecision::Timeout);
    }

    #[test]
    fn inert_profile_is_always_healthy() {
        let p = FaultProfile::none().with_seed(99);
        assert!(p.is_inert());
        assert_eq!(p.decide("s", 5, 0), FaultDecision::Healthy);
    }

    #[test]
    fn seeds_change_the_schedule() {
        // with a 50% site fail probability, two seeds must disagree on at
        // least one of many sites
        let a = FaultProfile::chaos(1, 0.5);
        let b = FaultProfile::chaos(2, 0.5);
        let diverges = (0u64..64).any(|fp| a.decide("s", fp, 0) != b.decide("s", fp, 0));
        assert!(diverges);
    }

    #[test]
    fn backoff_grows_exponentially() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_ms(0), 25.0);
        assert_eq!(p.backoff_ms(1), 50.0);
        assert_eq!(p.backoff_ms(2), 100.0);
        assert_eq!(RetryPolicy::none().backoff_ms(3), 0.0);
    }

    #[test]
    fn backoff_within_clips_to_the_remaining_budget() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_within(0, f64::INFINITY), 25.0);
        assert_eq!(p.backoff_within(2, 40.0), 40.0);
        assert_eq!(p.backoff_within(2, 100.0), 100.0);
        assert_eq!(p.backoff_within(0, 0.0), 0.0);
        assert_eq!(p.backoff_within(0, -5.0), 0.0);
    }
}
