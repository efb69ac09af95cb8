//! The service registry — the engine's gateway to "the Web".
//!
//! Dispatches invocations to registered services, applies the per-service
//! network profile to compute simulated costs, plays the provider's side of
//! pushed queries (Section 7), and records traffic statistics.

use crate::fault::{
    fnv64, BreakerConfig, BreakerState, FaultDecision, FaultProfile, RetryPolicy, SALT_HEDGE,
};
use crate::net::{NetProfile, NetStats};
use crate::push::prune_result;
use crate::service::{CallRequest, PushedQuery, Reply, Service};
use axml_xml::Forest;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// A call that exhausted its retry budget without succeeding.
#[derive(Debug, Clone, PartialEq)]
pub struct FailedCall {
    /// Service name.
    pub service: String,
    /// Attempts made (1 + retries used).
    pub attempts: usize,
    /// Total simulated cost burned: failed attempts plus backoff. The
    /// caller must still charge this to its clock.
    pub cost_ms: f64,
    /// Whether the final attempt failed by exceeding the deadline.
    pub timed_out: bool,
    /// Whether the call was cut short because the end-to-end deadline
    /// budget ran out (rather than by exhausting its retries).
    pub deadline_exceeded: bool,
}

/// Failure modes of [`Registry::invoke_within`].
#[derive(Debug, Clone, PartialEq)]
pub enum InvokeError {
    /// No service registered under that name; nothing was attempted and
    /// no cost accrued.
    Unknown(String),
    /// The service exists but every attempt failed.
    Failed(FailedCall),
}

impl fmt::Display for InvokeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvokeError::Unknown(n) => write!(f, "unknown service {n:?}"),
            InvokeError::Failed(c) => write!(
                f,
                "service {:?} failed after {} attempt(s){}",
                c.service,
                c.attempts,
                if c.timed_out { " (timed out)" } else { "" }
            ),
        }
    }
}

impl std::error::Error for InvokeError {}

/// A provider's answer before accounting: its reply, whether a query was
/// pushed, and the base cost.
type Answer = (Reply, bool, f64);

/// Everything the engine learns from one invocation.
#[derive(Clone, Debug)]
pub struct InvokeOutcome {
    /// The (possibly provider-side pruned) result forest. Shared: the call
    /// cache, the engine's `Splice` and the WAL record keep this forest,
    /// not copies of it.
    pub result: Arc<Forest>,
    /// Result bytes on the wire.
    pub bytes: usize,
    /// Simulated cost of this call, including any failed attempts and
    /// retry backoff that preceded the success.
    pub cost_ms: f64,
    /// Whether a pushed query was evaluated by the provider.
    pub pushed: bool,
    /// Attempts made (1 = succeeded first try).
    pub attempts: usize,
}

/// A registry of services with network profiles, fault schedules, and
/// statistics.
pub struct Registry {
    services: HashMap<String, Arc<dyn Service>>,
    net_profile: NetProfile,
    fault_profiles: HashMap<String, FaultProfile>,
    default_fault: Option<FaultProfile>,
    retry: RetryPolicy,
    breaker_config: BreakerConfig,
    breakers: Mutex<HashMap<String, BreakerState>>,
    latency: Mutex<HashMap<String, f64>>,
    stats: Mutex<NetStats>,
}

/// Smoothing factor of the per-service latency EWMA: each observation
/// moves the estimate 30% of the way toward the observed cost.
const LATENCY_EWMA_ALPHA: f64 = 0.3;

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry with a free network and no fault injection.
    pub fn new() -> Self {
        Registry {
            services: HashMap::new(),
            net_profile: NetProfile::free(),
            fault_profiles: HashMap::new(),
            default_fault: None,
            retry: RetryPolicy::default(),
            breaker_config: BreakerConfig::default(),
            breakers: Mutex::new(HashMap::new()),
            latency: Mutex::new(HashMap::new()),
            stats: Mutex::new(NetStats::default()),
        }
    }

    /// Registers a service under its own name.
    pub fn register(&mut self, service: impl Service + 'static) -> &mut Self {
        self.services
            .insert(service.name().to_string(), Arc::new(service));
        self
    }

    /// Sets the network profile every service's calls are charged by.
    pub fn set_default_profile(&mut self, profile: NetProfile) -> &mut Self {
        self.net_profile = profile;
        self
    }

    /// Attaches a fault schedule to one service (overrides both the
    /// default profile and any service-attached profile).
    pub fn set_fault_profile(&mut self, service: &str, profile: FaultProfile) -> &mut Self {
        self.fault_profiles.insert(service.to_string(), profile);
        self
    }

    /// Sets the fault schedule for services without a specific one.
    pub fn set_default_fault_profile(&mut self, profile: FaultProfile) -> &mut Self {
        self.default_fault = Some(profile);
        self
    }

    /// Sets the retry policy used by [`Registry::invoke_within`].
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) -> &mut Self {
        self.retry = policy;
        self
    }

    /// The current retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Sets the per-service circuit-breaker configuration.
    pub fn set_breaker_config(&mut self, config: BreakerConfig) -> &mut Self {
        self.breaker_config = config;
        self
    }

    /// The current circuit-breaker configuration.
    pub fn breaker_config(&self) -> BreakerConfig {
        self.breaker_config
    }

    /// Is the named service registered?
    pub fn has_service(&self, name: &str) -> bool {
        self.services.contains_key(name)
    }

    /// Names of all registered services (sorted).
    pub fn service_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.services.keys().cloned().collect();
        v.sort();
        v
    }

    /// Whether a provider is capable of evaluating pushed queries.
    pub fn supports_push(&self, name: &str) -> bool {
        self.services
            .get(name)
            .map(|s| s.supports_push())
            .unwrap_or(false)
    }

    /// Computes the provider's answer and its network cost without
    /// touching statistics: the (possibly pushed-query-reduced) result,
    /// its wire size, whether a query was pushed, and the base cost. A
    /// plain call is priced by the size the reply carries; a pushed one
    /// by the size of its pruned forest.
    fn answer(
        &self,
        service: &Arc<dyn Service>,
        req: &CallRequest,
        pushed: Option<&PushedQuery>,
    ) -> Answer {
        let reply = service.invoke(req);
        let (reply, was_pushed) = match pushed {
            Some(pq) if service.supports_push() => (
                Reply::new(prune_result(&pq.pattern, &reply.forest, pq.via)),
                true,
            ),
            _ => (reply, false),
        };
        let cost_ms = self.net_profile.cost_ms(reply.bytes);
        (reply, was_pushed, cost_ms)
    }

    /// The fault schedule governing calls to `name`, if any: an explicit
    /// per-service profile wins, then the registry default.
    pub fn fault_profile_for(&self, name: &str) -> Option<FaultProfile> {
        self.fault_profiles
            .get(name)
            .copied()
            .or(self.default_fault)
    }

    /// Invokes a service under the configured fault schedule and retry
    /// policy and an end-to-end deadline: attempts are driven by the
    /// deterministic [`FaultProfile`] for the call site, failed attempts
    /// and exponential backoff are charged to the returned simulated cost,
    /// and a per-attempt deadline turns hangs and pathological slowdowns
    /// into timeouts. At most `budget_ms` of simulated cost may be burned
    /// (`f64::INFINITY` for no deadline): backoff pauses and per-attempt
    /// timeouts are clipped to the remaining budget, and once the budget is
    /// gone no further attempt starts — the call fails with
    /// [`FailedCall::deadline_exceeded`]` == true` and exactly `budget_ms`
    /// burned.
    ///
    /// On success, `cost_ms` in the outcome covers the *whole* call —
    /// failed attempts, backoff, and the final transfer — so callers
    /// charge their clock exactly once. On [`InvokeError::Failed`], the
    /// burned cost is reported in the error and must still be charged.
    ///
    /// Every fault decision is a pure function of (profile seed, service
    /// name, parameter fingerprint, attempt index), so concurrent callers
    /// observe identical schedules regardless of interleaving.
    pub fn invoke_within(
        &self,
        name: &str,
        req: &CallRequest,
        pushed: Option<&PushedQuery>,
        budget_ms: f64,
    ) -> Result<InvokeOutcome, InvokeError> {
        self.invoke_budgeted(name, req, pushed, budget_ms, 0)
    }

    /// The hedge leg of a hedged invocation: same call, same budget
    /// semantics as [`Registry::invoke_within`], but the fault-schedule
    /// fingerprint is salted so the duplicate draws an *independent*
    /// deterministic fate — the point of hedging is that the duplicate may
    /// dodge the tail the primary hit.
    pub fn invoke_hedge(
        &self,
        name: &str,
        req: &CallRequest,
        pushed: Option<&PushedQuery>,
        budget_ms: f64,
    ) -> Result<InvokeOutcome, InvokeError> {
        self.invoke_budgeted(name, req, pushed, budget_ms, SALT_HEDGE)
    }

    fn invoke_budgeted(
        &self,
        name: &str,
        req: &CallRequest,
        pushed: Option<&PushedQuery>,
        budget_ms: f64,
        fp_salt: u64,
    ) -> Result<InvokeOutcome, InvokeError> {
        let service = self
            .services
            .get(name)
            .ok_or_else(|| InvokeError::Unknown(name.to_string()))?;
        if budget_ms <= 0.0 {
            // already expired: nothing is attempted and nothing burned
            // (the engine's deadline gate normally prevents this dispatch)
            return Err(self.fail(name, 0, 0.0, false, true));
        }
        let Some(fault) = self.fault_profile_for(name).filter(|f| !f.is_inert()) else {
            // fault-free: the single attempt either fits the budget or
            // burns the whole of it
            let answer = self.answer(service, req, pushed);
            if answer.2 <= budget_ms {
                return Ok(self.succeed(answer, 1.0, 0.0, 1));
            }
            self.stats
                .lock()
                .unwrap()
                .record_failed_attempt(budget_ms, true);
            return Err(self.fail(name, 1, budget_ms, true, true));
        };
        let policy = self.retry;
        let net = self.net_profile;
        let fingerprint = fnv64(req.to_xml().as_bytes()) ^ fp_salt;
        // deterministic services: the answer is computed at most once and
        // reused across attempts
        let mut answer: Option<Answer> = None;
        let mut total_cost = 0.0;
        let mut timed_out = false;
        let mut deadline_exceeded = false;
        let mut attempts_made = 0usize;
        let attempts_allowed = policy.max_retries + 1;
        for attempt in 0..attempts_allowed {
            if attempt > 0 {
                let pause = policy.backoff_within(attempt - 1, budget_ms - total_cost);
                total_cost += pause;
                self.stats.lock().unwrap().record_backoff(pause);
                if total_cost >= budget_ms {
                    // the deadline expired while backing off: the retry
                    // never starts
                    deadline_exceeded = true;
                    break;
                }
            }
            attempts_made = attempt + 1;
            // the per-attempt timeout never outlives the remaining budget
            let attempt_timeout = policy.timeout_ms.min(budget_ms - total_cost);
            match fault.decide(name, fingerprint, attempt) {
                FaultDecision::Fail => {
                    let cost = net.latency_ms.min(attempt_timeout);
                    total_cost += cost;
                    timed_out = false;
                    self.stats
                        .lock()
                        .unwrap()
                        .record_failed_attempt(cost, false);
                }
                FaultDecision::Timeout => {
                    // with no deadline configured an unbounded hang would
                    // never terminate, so it degrades to a fast failure
                    let cost = if attempt_timeout.is_finite() {
                        attempt_timeout
                    } else {
                        net.latency_ms
                    };
                    total_cost += cost;
                    timed_out = attempt_timeout.is_finite();
                    self.stats
                        .lock()
                        .unwrap()
                        .record_failed_attempt(cost, timed_out);
                }
                healthy_or_slow => {
                    let factor = match healthy_or_slow {
                        FaultDecision::Slow(f) => f,
                        _ => 1.0,
                    };
                    let answer = answer
                        .get_or_insert_with(|| self.answer(service, req, pushed))
                        .clone();
                    if answer.2 * factor > attempt_timeout {
                        // the slowdown ran past the deadline
                        total_cost += attempt_timeout;
                        timed_out = true;
                        self.stats
                            .lock()
                            .unwrap()
                            .record_failed_attempt(attempt_timeout, true);
                    } else {
                        return Ok(self.succeed(answer, factor, total_cost, attempt + 1));
                    }
                }
            }
            if total_cost >= budget_ms {
                // the failed attempt consumed the rest of the budget
                deadline_exceeded = true;
                break;
            }
        }
        Err(self.fail(
            name,
            attempts_made,
            total_cost,
            timed_out,
            deadline_exceeded,
        ))
    }

    /// Records a successful call in the stats and builds its outcome. The
    /// last attempt transferred the `answer` (reply, pushed, base cost) at
    /// `factor` times the base cost, after `earlier_ms` of failed attempts
    /// and backoff.
    fn succeed(
        &self,
        (Reply { forest, bytes }, pushed, base_cost): Answer,
        factor: f64,
        earlier_ms: f64,
        attempts: usize,
    ) -> InvokeOutcome {
        let attempt_ms = base_cost * factor;
        let cost_ms = earlier_ms + attempt_ms;
        self.stats.lock().unwrap().record(bytes, attempt_ms, pushed);
        InvokeOutcome {
            result: forest,
            bytes,
            cost_ms,
            pushed,
            attempts,
        }
    }

    /// Records a call that failed for good in the stats and builds its
    /// error.
    fn fail(
        &self,
        name: &str,
        attempts: usize,
        cost_ms: f64,
        timed_out: bool,
        deadline_exceeded: bool,
    ) -> InvokeError {
        self.stats.lock().unwrap().record_failed_call();
        InvokeError::Failed(FailedCall {
            service: name.to_string(),
            attempts,
            cost_ms,
            timed_out,
            deadline_exceeded,
        })
    }

    /// Whether the circuit breaker currently lets calls through to
    /// `service` at simulated time `now_ms`. An open breaker whose
    /// cooldown has expired lets one probe call through (half-open).
    pub fn breaker_allows(&self, service: &str, now_ms: f64) -> bool {
        let breakers = self.breakers.lock().unwrap();
        match breakers.get(service) {
            Some(state) => now_ms >= state.open_until_ms,
            None => true,
        }
    }

    /// Records the outcome of a completed call for the circuit breaker.
    /// Callers invoke this from a deterministic (sequential) phase so the
    /// breaker state evolution is independent of thread interleaving.
    pub fn breaker_record(&self, service: &str, ok: bool, now_ms: f64) {
        let mut breakers = self.breakers.lock().unwrap();
        let state = breakers.entry(service.to_string()).or_default();
        if ok {
            state.consecutive_failures = 0;
            state.open_until_ms = 0.0;
        } else {
            state.consecutive_failures += 1;
            if state.consecutive_failures >= self.breaker_config.failure_threshold {
                state.open_until_ms = now_ms + self.breaker_config.cooldown_ms;
                state.trips += 1;
                // half-open: after the cooldown one probe call is let
                // through; a further failure re-opens from this count
                state.consecutive_failures = self.breaker_config.failure_threshold - 1;
            }
        }
    }

    /// Counts a call the caller skipped because the breaker was open.
    pub fn record_breaker_skip(&self) {
        self.stats.lock().unwrap().record_breaker_skip();
    }

    /// Feeds one observed call cost into the per-service latency EWMA.
    /// Like [`Registry::breaker_record`], callers invoke this from a
    /// deterministic (sequential) phase so the estimate's evolution is
    /// independent of thread interleaving.
    pub fn latency_observe(&self, service: &str, cost_ms: f64) {
        let mut latency = self.latency.lock().unwrap();
        match latency.get_mut(service) {
            Some(est) => *est += LATENCY_EWMA_ALPHA * (cost_ms - *est),
            None => {
                latency.insert(service.to_string(), cost_ms);
            }
        }
    }

    /// The current latency EWMA of one service, in simulated ms
    /// (`None` before the first observation).
    pub fn latency_ewma(&self, service: &str) -> Option<f64> {
        self.latency.lock().unwrap().get(service).copied()
    }

    /// Breaker bookkeeping for one service, if any calls completed.
    pub fn breaker_state(&self, service: &str) -> Option<BreakerState> {
        self.breakers.lock().unwrap().get(service).copied()
    }

    /// A snapshot of the aggregate statistics.
    pub fn stats(&self) -> NetStats {
        self.stats.lock().unwrap().clone()
    }

    /// Clears statistics, all circuit-breaker state and the latency
    /// EWMAs, so a reused registry starts its next run from a clean slate
    /// instead of with breakers already open from the previous one.
    pub fn reset_stats(&self) {
        *self.stats.lock().unwrap() = NetStats::default();
        self.reset_breakers();
        self.latency.lock().unwrap().clear();
    }

    /// Clears circuit-breaker state only (all breakers closed, failure
    /// counts zeroed).
    pub fn reset_breakers(&self) {
        self.breakers.lock().unwrap().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{PushedQuery, StaticService, TableService};
    use axml_query::{parse_query, EdgeKind};
    use axml_xml::{forest_serialized_len, parse};

    /// A request without parameters.
    fn no_params() -> CallRequest<'static> {
        static NONE: std::sync::LazyLock<Forest> = std::sync::LazyLock::new(Forest::new);
        CallRequest::of_forest(&NONE)
    }

    fn registry() -> Registry {
        let mut r = Registry::new();
        r.register(StaticService::new(
            "getNearbyRestos",
            parse(
                "<restaurant><name>Jo</name><rating>*****</rating></restaurant>\
                 <restaurant><name>Grease</name><rating>*</rating></restaurant>",
            )
            .unwrap(),
        ));
        r
    }

    #[test]
    fn invoke_records_stats() {
        let r = registry();
        let out = r
            .invoke_within("getNearbyRestos", &no_params(), None, f64::INFINITY)
            .unwrap();
        assert_eq!(out.result.roots().len(), 2);
        assert!(out.bytes > 0);
        let s = r.stats();
        assert_eq!(s.calls, 1);
        assert_eq!(s.bytes, out.bytes);
        r.reset_stats();
        assert_eq!(r.stats().calls, 0);
    }

    #[test]
    fn unknown_service_is_an_error() {
        let r = registry();
        let e = r
            .invoke_within("nope", &no_params(), None, f64::INFINITY)
            .unwrap_err();
        assert_eq!(e, InvokeError::Unknown("nope".into()));
        assert_eq!(r.stats().calls, 0);
    }

    #[test]
    fn pushed_queries_shrink_transfer() {
        let r = registry();
        let full = r
            .invoke_within("getNearbyRestos", &no_params(), None, f64::INFINITY)
            .unwrap();
        let q = parse_query("/restaurant[rating=\"*****\"]/name").unwrap();
        let pushed = r
            .invoke_within(
                "getNearbyRestos",
                &no_params(),
                Some(&PushedQuery {
                    pattern: q,
                    via: EdgeKind::Child,
                }),
                f64::INFINITY,
            )
            .unwrap();
        assert!(pushed.pushed);
        assert!(pushed.bytes < full.bytes);
        // each call is priced by the forest it delivers: the stored
        // answer's size for a plain call, the pruned forest's for a
        // pushed one
        assert_eq!(full.bytes, forest_serialized_len(&full.result));
        assert_eq!(pushed.bytes, forest_serialized_len(&pushed.result));
        assert_eq!(r.stats().bytes, full.bytes + pushed.bytes);
        assert!(axml_xml::to_xml(&pushed.result).contains("Jo"));
        assert!(!axml_xml::to_xml(&pushed.result).contains("Grease"));
        assert_eq!(r.stats().pushed_calls, 1);
    }

    #[test]
    fn repeated_calls_share_the_stored_answer() {
        let r = registry();
        let call = || {
            r.invoke_within("getNearbyRestos", &no_params(), None, f64::INFINITY)
                .unwrap()
        };
        let (a, b) = (call(), call());
        assert!(Arc::ptr_eq(&a.result, &b.result), "no copy per call");
        assert_eq!(a.bytes, forest_serialized_len(&a.result));
    }

    #[test]
    fn push_incapable_provider_gets_plain_call() {
        let mut r = Registry::new();
        let mut t = TableService::new("t");
        t.insert("k", parse("<a/><b/>").unwrap());
        r.register(t.without_push());
        let mut params = Forest::new();
        params.add_root_text("k");
        let q = parse_query("/a").unwrap();
        let out = r
            .invoke_within(
                "t",
                &CallRequest::of_forest(&params),
                Some(&PushedQuery {
                    pattern: q,
                    via: EdgeKind::Child,
                }),
                f64::INFINITY,
            )
            .unwrap();
        assert!(!out.pushed);
        assert_eq!(out.result.roots().len(), 2); // unpruned
    }

    #[test]
    fn transient_faults_are_absorbed_by_retries() {
        let mut r = registry();
        r.set_default_profile(NetProfile::latency(10.0));
        r.set_default_fault_profile(FaultProfile::transient(1, 2));
        r.set_retry_policy(RetryPolicy {
            max_retries: 3,
            base_backoff_ms: 5.0,
            backoff_factor: 2.0,
            timeout_ms: f64::INFINITY,
        });
        let out = r
            .invoke_within("getNearbyRestos", &no_params(), None, f64::INFINITY)
            .unwrap();
        assert_eq!(out.attempts, 3);
        // 2 failed attempts at latency 10 + backoffs 5 and 10 + final 10
        assert!((out.cost_ms - (10.0 + 5.0 + 10.0 + 10.0 + 10.0)).abs() < 1e-9);
        let s = r.stats();
        assert_eq!(s.calls, 1);
        assert_eq!(s.attempts, 3);
        assert_eq!(s.failed_attempts, 2);
        assert_eq!(s.failed_calls, 0);
        assert!((s.backoff_ms - 15.0).abs() < 1e-9);
        assert!((s.total_cost_ms - out.cost_ms).abs() < 1e-9);
    }

    #[test]
    fn permanent_faults_exhaust_retries() {
        let mut r = registry();
        r.set_default_profile(NetProfile::latency(10.0));
        r.set_fault_profile("getNearbyRestos", FaultProfile::permanent(1));
        r.set_retry_policy(RetryPolicy {
            max_retries: 2,
            base_backoff_ms: 1.0,
            backoff_factor: 1.0,
            timeout_ms: f64::INFINITY,
        });
        let err = r
            .invoke_within("getNearbyRestos", &no_params(), None, f64::INFINITY)
            .unwrap_err();
        let InvokeError::Failed(failed) = err else {
            panic!("expected Failed");
        };
        assert_eq!(failed.attempts, 3);
        assert!(!failed.timed_out);
        assert!((failed.cost_ms - (10.0 * 3.0 + 1.0 * 2.0)).abs() < 1e-9);
        let s = r.stats();
        assert_eq!(s.calls, 0);
        assert_eq!(s.failed_calls, 1);
        assert_eq!(s.failed_attempts, 3);
        assert_eq!(s.bytes, 0);
    }

    #[test]
    fn timeouts_burn_the_deadline() {
        let mut r = registry();
        r.set_default_profile(NetProfile::latency(10.0));
        r.set_fault_profile("getNearbyRestos", FaultProfile::timeouts(1));
        r.set_retry_policy(RetryPolicy {
            max_retries: 1,
            base_backoff_ms: 0.0,
            backoff_factor: 1.0,
            timeout_ms: 500.0,
        });
        let err = r
            .invoke_within("getNearbyRestos", &no_params(), None, f64::INFINITY)
            .unwrap_err();
        let InvokeError::Failed(failed) = err else {
            panic!("expected Failed");
        };
        assert!(failed.timed_out);
        assert!((failed.cost_ms - 1000.0).abs() < 1e-9);
        assert_eq!(r.stats().timed_out_attempts, 2);
    }

    #[test]
    fn slowdowns_past_the_deadline_time_out() {
        let mut r = registry();
        r.set_default_profile(NetProfile::latency(100.0));
        r.set_fault_profile(
            "getNearbyRestos",
            FaultProfile {
                seed: 1,
                fail_prob: 0.0,
                transient_failures: 0,
                timeout_prob: 0.0,
                slowdown_prob: 1.0,
                slowdown_factor: 10.0,
            },
        );
        // deadline sits between the normal and the slowed cost
        r.set_retry_policy(RetryPolicy {
            max_retries: 0,
            base_backoff_ms: 0.0,
            backoff_factor: 1.0,
            timeout_ms: 300.0,
        });
        let err = r
            .invoke_within("getNearbyRestos", &no_params(), None, f64::INFINITY)
            .unwrap_err();
        let InvokeError::Failed(failed) = err else {
            panic!("expected Failed");
        };
        assert!(failed.timed_out);
        assert!((failed.cost_ms - 300.0).abs() < 1e-9);
    }

    #[test]
    fn policy_invoke_is_deterministic() {
        let run = || {
            let mut r = registry();
            r.set_default_profile(NetProfile::default());
            r.set_default_fault_profile(FaultProfile::chaos(99, 0.9));
            r.set_retry_policy(RetryPolicy::default().with_timeout_ms(2_000.0));
            let out = r.invoke_within("getNearbyRestos", &no_params(), None, f64::INFINITY);
            (out.map(|o| (o.bytes, o.cost_ms, o.attempts)), r.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn deadline_expires_during_backoff() {
        let mut r = registry();
        r.set_default_profile(NetProfile::latency(10.0));
        r.set_fault_profile("getNearbyRestos", FaultProfile::permanent(1));
        r.set_retry_policy(RetryPolicy {
            max_retries: 3,
            base_backoff_ms: 25.0,
            backoff_factor: 2.0,
            timeout_ms: f64::INFINITY,
        });
        // attempt 0 burns 10, backoff 0 would burn 25 — budget 20 dies
        // mid-backoff, so only one attempt ever runs
        let err = r
            .invoke_within("getNearbyRestos", &no_params(), None, 20.0)
            .unwrap_err();
        let InvokeError::Failed(failed) = err else {
            panic!("expected Failed");
        };
        assert!(failed.deadline_exceeded);
        assert_eq!(failed.attempts, 1);
        assert!((failed.cost_ms - 20.0).abs() < 1e-9, "{}", failed.cost_ms);
        assert_eq!(r.stats().failed_attempts, 1);
        assert!((r.stats().backoff_ms - 10.0).abs() < 1e-9);
    }

    #[test]
    fn deadline_clips_the_final_attempt() {
        let mut r = registry();
        r.set_default_profile(NetProfile::latency(10.0));
        r.set_fault_profile("getNearbyRestos", FaultProfile::timeouts(1));
        r.set_retry_policy(RetryPolicy {
            max_retries: 0,
            base_backoff_ms: 0.0,
            backoff_factor: 1.0,
            timeout_ms: f64::INFINITY,
        });
        // no per-attempt timeout, but the budget bounds the hang at 7ms
        let err = r
            .invoke_within("getNearbyRestos", &no_params(), None, 7.0)
            .unwrap_err();
        let InvokeError::Failed(failed) = err else {
            panic!("expected Failed");
        };
        assert!(failed.deadline_exceeded);
        assert!(failed.timed_out);
        assert!((failed.cost_ms - 7.0).abs() < 1e-9);
    }

    #[test]
    fn fault_free_call_past_its_budget_fails_deadline() {
        let mut r = registry();
        r.set_default_profile(NetProfile::latency(10.0));
        let err = r
            .invoke_within("getNearbyRestos", &no_params(), None, 4.0)
            .unwrap_err();
        let InvokeError::Failed(failed) = err else {
            panic!("expected Failed");
        };
        assert!(failed.deadline_exceeded);
        assert!(failed.timed_out);
        assert_eq!(failed.attempts, 1);
        assert!((failed.cost_ms - 4.0).abs() < 1e-9);
        // a roomy budget succeeds without behavioral change
        r.reset_stats();
        let ok = r
            .invoke_within("getNearbyRestos", &no_params(), None, 100.0)
            .unwrap();
        assert_eq!(ok.cost_ms, 10.0);
    }

    #[test]
    fn exhausted_budget_attempts_nothing() {
        let r = registry();
        let err = r
            .invoke_within("getNearbyRestos", &no_params(), None, 0.0)
            .unwrap_err();
        let InvokeError::Failed(failed) = err else {
            panic!("expected Failed");
        };
        assert!(failed.deadline_exceeded);
        assert_eq!(failed.attempts, 0);
        assert_eq!(failed.cost_ms, 0.0);
        assert_eq!(r.stats().attempts, 0);
    }

    #[test]
    fn hedge_legs_draw_an_independent_fault_schedule() {
        let mut r = registry();
        r.set_default_profile(NetProfile::latency(10.0));
        // the primary site is permanently down; the hedge leg's salted
        // fingerprint dodges it for some seed — find one deterministically
        let hedged_survives = (0u64..64).any(|seed| {
            r.set_fault_profile(
                "getNearbyRestos",
                FaultProfile {
                    seed,
                    fail_prob: 0.5,
                    transient_failures: usize::MAX,
                    ..FaultProfile::none()
                },
            );
            r.set_retry_policy(RetryPolicy::none());
            let primary = r.invoke_within("getNearbyRestos", &no_params(), None, f64::INFINITY);
            let hedge = r.invoke_hedge("getNearbyRestos", &no_params(), None, f64::INFINITY);
            primary.is_err() && hedge.is_ok()
        });
        assert!(hedged_survives, "some seed lets the hedge dodge the fault");
    }

    #[test]
    fn latency_ewma_tracks_observations() {
        let r = registry();
        assert_eq!(r.latency_ewma("s"), None);
        r.latency_observe("s", 100.0);
        assert_eq!(r.latency_ewma("s"), Some(100.0));
        r.latency_observe("s", 0.0);
        assert!((r.latency_ewma("s").unwrap() - 70.0).abs() < 1e-9);
        r.reset_stats();
        assert_eq!(r.latency_ewma("s"), None);
    }

    #[test]
    fn breaker_opens_after_consecutive_failures_and_cools_down() {
        let mut r = registry();
        r.set_breaker_config(BreakerConfig {
            failure_threshold: 2,
            cooldown_ms: 100.0,
        });
        assert!(r.breaker_allows("s", 0.0));
        r.breaker_record("s", false, 10.0);
        assert!(r.breaker_allows("s", 10.0));
        r.breaker_record("s", false, 20.0);
        // open until 120
        assert!(!r.breaker_allows("s", 50.0));
        assert!(r.breaker_allows("s", 120.0)); // half-open probe
        let state = r.breaker_state("s").unwrap();
        assert_eq!(state.trips, 1);
        // probe failure re-opens immediately
        r.breaker_record("s", false, 130.0);
        assert!(!r.breaker_allows("s", 131.0));
        // probe success fully closes
        r.breaker_record("s", true, 300.0);
        assert!(r.breaker_allows("s", 300.0));
        assert_eq!(r.breaker_state("s").unwrap().consecutive_failures, 0);
    }

    #[test]
    fn reset_stats_clears_breaker_state() {
        let mut r = registry();
        r.set_breaker_config(BreakerConfig {
            failure_threshold: 2,
            cooldown_ms: 1_000.0,
        });
        r.breaker_record("getNearbyRestos", false, 10.0);
        r.breaker_record("getNearbyRestos", false, 20.0);
        assert!(!r.breaker_allows("getNearbyRestos", 30.0), "breaker open");
        // a reused registry must start its next run with breakers closed
        r.reset_stats();
        assert!(r.breaker_allows("getNearbyRestos", 30.0));
        assert!(r.breaker_state("getNearbyRestos").is_none());
        assert_eq!(r.stats().calls, 0);
    }

    #[test]
    fn network_profile_drives_cost() {
        let mut r = registry();
        r.set_default_profile(NetProfile::latency(250.0));
        let out = r
            .invoke_within("getNearbyRestos", &no_params(), None, f64::INFINITY)
            .unwrap();
        assert_eq!(out.cost_ms, 250.0);
        r.set_default_profile(NetProfile {
            latency_ms: 10.0,
            bytes_per_ms: 1.0,
        });
        let out2 = r
            .invoke_within("getNearbyRestos", &no_params(), None, f64::INFINITY)
            .unwrap();
        assert!((out2.cost_ms - (10.0 + out2.bytes as f64)).abs() < 1e-9);
    }
}
