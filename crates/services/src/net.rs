//! Deterministic network simulation.
//!
//! The paper's experiments run against remote Web services whose dominant
//! costs are per-call latency and transfer volume. We substitute a
//! deterministic model: each invocation costs
//! `latency_ms + bytes / bandwidth` simulated milliseconds; a batch of
//! parallel invocations (Section 4.4) costs the **maximum** of its members
//! instead of the sum. All experiment figures report this simulated time
//! next to measured CPU time, which makes the call-pruning factors
//! hardware-independent and reproducible.

/// Network cost profile of one service.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetProfile {
    /// Fixed per-invocation latency in simulated milliseconds.
    pub latency_ms: f64,
    /// Transfer rate in bytes per simulated millisecond
    /// (`f64::INFINITY` = free transfer).
    pub bytes_per_ms: f64,
}

impl NetProfile {
    /// A profile with only fixed latency.
    pub fn latency(ms: f64) -> Self {
        NetProfile {
            latency_ms: ms,
            bytes_per_ms: f64::INFINITY,
        }
    }

    /// A zero-cost network (unit tests).
    pub fn free() -> Self {
        NetProfile {
            latency_ms: 0.0,
            bytes_per_ms: f64::INFINITY,
        }
    }

    /// The simulated cost of moving `bytes` over this profile.
    pub fn cost_ms(&self, bytes: usize) -> f64 {
        let transfer = if self.bytes_per_ms.is_finite() && self.bytes_per_ms > 0.0 {
            bytes as f64 / self.bytes_per_ms
        } else {
            0.0
        };
        self.latency_ms + transfer
    }
}

impl Default for NetProfile {
    /// A broadband-ish default: 40 ms round trip, 100 bytes/ms (~100 KB/s).
    fn default() -> Self {
        NetProfile {
            latency_ms: 40.0,
            bytes_per_ms: 100.0,
        }
    }
}

/// A simulated wall clock accumulating invocation costs.
#[derive(Clone, Debug, Default)]
pub struct SimClock {
    now_ms: f64,
}

impl SimClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// A clock starting at `now_ms` — used by long-lived sessions whose
    /// simulated time persists across queries (TTL windows and breaker
    /// cooldowns keep counting between runs).
    pub fn at(now_ms: f64) -> Self {
        SimClock { now_ms }
    }

    /// Current simulated time in milliseconds.
    pub fn now_ms(&self) -> f64 {
        self.now_ms
    }

    /// A sequential step: advance by the full cost.
    pub fn advance(&mut self, cost_ms: f64) {
        self.now_ms += cost_ms;
    }

    /// A parallel batch: advance by the maximum cost of the batch
    /// (Section 4.4 — independent calls are invoked in parallel).
    pub fn advance_parallel(&mut self, costs_ms: &[f64]) {
        if let Some(max) = costs_ms.iter().copied().fold(None, |acc: Option<f64>, c| {
            Some(acc.map_or(c, |a| a.max(c)))
        }) {
            self.now_ms += max;
        }
    }
}

/// An absolute end-to-end expiry point on the simulated clock.
///
/// A deadline is an *instant*, not a duration: it is fixed when a run
/// starts (`Deadline::after(start_ms, budget_ms)`) and every later
/// decision asks how much budget remains at the current simulated time.
/// Because the simulated clock is deterministic, so is every deadline
/// decision — the same seed and flags expire at the same instant on
/// every run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Deadline {
    expiry_ms: f64,
}

impl Deadline {
    /// A deadline that never expires.
    pub fn never() -> Self {
        Deadline {
            expiry_ms: f64::INFINITY,
        }
    }

    /// A deadline at the absolute simulated instant `expiry_ms`.
    pub fn at(expiry_ms: f64) -> Self {
        Deadline { expiry_ms }
    }

    /// A deadline `budget_ms` after `start_ms` (infinite budget = never).
    pub fn after(start_ms: f64, budget_ms: f64) -> Self {
        if budget_ms.is_finite() {
            Deadline {
                expiry_ms: start_ms + budget_ms.max(0.0),
            }
        } else {
            Deadline::never()
        }
    }

    /// The absolute expiry instant in simulated milliseconds.
    pub fn expiry_ms(&self) -> f64 {
        self.expiry_ms
    }

    /// Whether this deadline can ever expire.
    pub fn is_finite(&self) -> bool {
        self.expiry_ms.is_finite()
    }

    /// Budget left at simulated time `now_ms` (clamped at zero;
    /// `f64::INFINITY` for a never-expiring deadline).
    pub fn remaining_ms(&self, now_ms: f64) -> f64 {
        if self.expiry_ms.is_finite() {
            (self.expiry_ms - now_ms).max(0.0)
        } else {
            f64::INFINITY
        }
    }

    /// Whether the deadline has expired at simulated time `now_ms`.
    pub fn expired(&self, now_ms: f64) -> bool {
        now_ms >= self.expiry_ms
    }
}

impl Default for Deadline {
    /// Never expires.
    fn default() -> Self {
        Deadline::never()
    }
}

/// Aggregate traffic statistics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NetStats {
    /// Number of successful invocations.
    pub calls: usize,
    /// Total result bytes transferred.
    pub bytes: usize,
    /// Number of invocations that carried a pushed query.
    pub pushed_calls: usize,
    /// Total simulated cost of all calls — including failed attempts and
    /// retry backoff — as if sequential (the engine's clock accounts for
    /// parallelism separately).
    pub total_cost_ms: f64,
    /// Attempts made, successful or not (≥ `calls`).
    pub attempts: usize,
    /// Attempts that failed (fast failure or timeout).
    pub failed_attempts: usize,
    /// Failed attempts that exceeded the per-attempt deadline.
    pub timed_out_attempts: usize,
    /// Calls that exhausted their retry budget and failed for good.
    pub failed_calls: usize,
    /// Simulated time spent waiting in retry backoff.
    pub backoff_ms: f64,
    /// Calls skipped because a circuit breaker was open.
    pub breaker_skips: usize,
}

impl NetStats {
    /// Records one successful invocation (one successful attempt).
    pub fn record(&mut self, bytes: usize, cost_ms: f64, pushed: bool) {
        self.calls += 1;
        self.attempts += 1;
        self.bytes += bytes;
        self.total_cost_ms += cost_ms;
        if pushed {
            self.pushed_calls += 1;
        }
    }

    /// Records one failed attempt and its simulated cost.
    pub fn record_failed_attempt(&mut self, cost_ms: f64, timed_out: bool) {
        self.attempts += 1;
        self.failed_attempts += 1;
        self.total_cost_ms += cost_ms;
        if timed_out {
            self.timed_out_attempts += 1;
        }
    }

    /// Records a call that failed after exhausting its retries.
    pub fn record_failed_call(&mut self) {
        self.failed_calls += 1;
    }

    /// Records simulated retry-backoff time.
    pub fn record_backoff(&mut self, ms: f64) {
        self.backoff_ms += ms;
        self.total_cost_ms += ms;
    }

    /// Records a call rejected by an open circuit breaker.
    pub fn record_breaker_skip(&mut self) {
        self.breaker_skips += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_combines_latency_and_transfer() {
        let p = NetProfile {
            latency_ms: 10.0,
            bytes_per_ms: 100.0,
        };
        assert_eq!(p.cost_ms(0), 10.0);
        assert_eq!(p.cost_ms(1000), 20.0);
        assert_eq!(NetProfile::latency(5.0).cost_ms(1_000_000), 5.0);
        assert_eq!(NetProfile::free().cost_ms(123), 0.0);
    }

    #[test]
    fn clock_sequential_vs_parallel() {
        let mut c = SimClock::new();
        c.advance(10.0);
        c.advance(20.0);
        assert_eq!(c.now_ms(), 30.0);
        c.advance_parallel(&[5.0, 50.0, 1.0]);
        assert_eq!(c.now_ms(), 80.0);
        c.advance_parallel(&[]);
        assert_eq!(c.now_ms(), 80.0);
    }

    #[test]
    fn deadline_budget_accounting() {
        let d = Deadline::after(100.0, 50.0);
        assert!(d.is_finite());
        assert_eq!(d.expiry_ms(), 150.0);
        assert_eq!(d.remaining_ms(100.0), 50.0);
        assert_eq!(d.remaining_ms(140.0), 10.0);
        assert_eq!(d.remaining_ms(200.0), 0.0);
        assert!(!d.expired(149.9));
        assert!(d.expired(150.0));

        let never = Deadline::after(5.0, f64::INFINITY);
        assert_eq!(never, Deadline::never());
        assert!(!never.is_finite());
        assert_eq!(never.remaining_ms(1e12), f64::INFINITY);
        assert!(!never.expired(1e12));

        // a non-positive budget is already expired at its start instant
        let spent = Deadline::after(10.0, -3.0);
        assert!(spent.expired(10.0));
        assert_eq!(spent.remaining_ms(10.0), 0.0);
    }

    #[test]
    fn stats_accumulate() {
        let mut s = NetStats::default();
        s.record(100, 11.0, false);
        s.record(50, 7.0, true);
        assert_eq!(s.calls, 2);
        assert_eq!(s.bytes, 150);
        assert_eq!(s.pushed_calls, 1);
        assert!((s.total_cost_ms - 18.0).abs() < 1e-9);
    }
}
