//! The call path: how a round's candidates become spliced results.
//!
//! Every candidate passes the same gates, in this order, whichever
//! dispatcher runs it:
//!
//! 1. **cache probe** ([`Run::try_cache`]) — a valid call-cache entry is
//!    spliced at zero cost, ahead of every other gate, so a hit is served
//!    past the deadline, with the budget spent or the breaker open. A slot
//!    that no longer holds the call is not probed;
//! 2. **budget** ([`Run::prepare`] from here to the breaker) — with no
//!    invocation budget left the call is skipped unmarked, so a failed
//!    batch mate's refund can let it run in a later round;
//! 3. **deadline** — past the run's deadline the call is skipped unmarked
//!    and the round closes deadline-truncated;
//! 4. **stale slot** — a slot that no longer holds the call is skipped;
//! 5. **unknown service** — the call is marked dead;
//! 6. **shed** — the admission gate marks the call dead when its service
//!    has used the batch's in-flight quota or its latency EWMA is over the
//!    limit;
//! 7. **breaker** — an open circuit breaker marks the call dead;
//! 8. **dispatch** — one unit of budget is reserved and the call runs
//!    under the remaining deadline budget; the service reads the call's
//!    parameters where they stand. In a parallel batch a slow call fires
//!    a hedge leg, and [`combine_hedge`] picks the winner;
//! 9. **settle** ([`Run::settle`]) — a success is stored in the call cache
//!    and spliced ([`Run::apply`]); a failure refunds the budget and marks
//!    the call dead ([`Run::apply_failure`]). Either way the outcome
//!    reaches the stats, the trace, the latency EWMA and the breaker
//!    exactly once.
//!
//! Two dispatchers run the gates. The sequential one charges each call to
//! the clock before the next starts; NFQA and the top-down baseline stop
//! it after the first resolved call. The parallel one (§4.4's condition
//! (✳) batches) probes and gates every candidate first, then dispatches
//! the admitted calls, settles them in candidate order, and charges the
//! clock once, for the batch's slowest call.

use super::{holds_call, Pushes, Run, Splice};
use axml_obs::{CacheOutcome, EventKind, ShedReason};
use axml_query::PNodeId;
use axml_services::{
    CacheLookup, CallKey, CallRequest, FailedCall, InvokeError, InvokeOutcome, PushedQuery,
    Registry,
};
use axml_xml::{CallId, Document, Forest, Label, NodeId};
use std::sync::Arc;

/// One invocation candidate.
#[derive(Clone, Debug)]
pub(super) struct Candidate {
    pub(super) node: NodeId,
    pub(super) call: CallId,
    /// The call's service name, shared with the document's symbol table.
    pub(super) service: Label,
    /// The first query node whose NFQ retrieved it (`None` for LPQ and
    /// naive candidates).
    focus: Option<PNodeId>,
    /// Whether another query node's NFQ retrieved it too.
    shared: bool,
}

impl Candidate {
    /// A candidate no NFQ focus has claimed yet.
    pub(super) fn new(node: NodeId, call: CallId, service: Label) -> Self {
        Candidate {
            node,
            call,
            service,
            focus: None,
            shared: false,
        }
    }

    /// Records that the NFQ of query node `focus` retrieved the call.
    pub(super) fn claim(&mut self, focus: PNodeId) {
        match self.focus {
            None => self.focus = Some(focus),
            Some(first) => self.shared |= first != focus,
        }
    }

    /// The query node whose NFQ retrieved the call, when exactly one did.
    pub(super) fn sole_focus(&self) -> Option<PNodeId> {
        self.focus.filter(|_| !self.shared)
    }
}

/// How a round dispatches its candidates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Dispatch {
    /// In document order, one after another, stopping after the first
    /// resolved call (NFQA's one relevant call, the top-down baseline).
    First,
    /// All of them, one after another, in detection order.
    Sequential,
    /// All of them as one parallel batch.
    Parallel,
}

impl Dispatch {
    /// The whole-round dispatcher the `parallel` switch selects.
    pub(super) fn batch(parallel: bool) -> Self {
        if parallel {
            Dispatch::Parallel
        } else {
            Dispatch::Sequential
        }
    }
}

/// Accounting for one fired hedge leg, produced on the dispatch side and
/// consumed by the batch's sequential accounting phase.
struct HedgeLeg {
    /// Elapsed cost (ms into the call) at which the hedge fired.
    fired_at_ms: f64,
    /// The primary leg's own cost, had it run alone.
    primary_cost_ms: f64,
    /// The hedge leg's own cost, measured from its firing point.
    hedge_cost_ms: f64,
    /// Whether the hedge leg won the race.
    hedge_won: bool,
    /// The losing leg's elapsed run time up to the winner's completion —
    /// the work hedging wasted (never charged to the simulated clock).
    wasted_ms: f64,
}

/// What a cache probe left for the rest of a candidate's gates.
enum Probe {
    /// A valid entry was spliced: the candidate is resolved.
    Hit,
    /// No valid entry. When the probe got as far as building it, the
    /// cache key, for the store after a dispatch to reuse.
    Miss(Option<CallKey>),
}

/// A candidate the gates admitted and, with a cache attached, the key its
/// answer is stored under.
struct Admitted<'c> {
    cand: &'c Candidate,
    key: Option<CallKey>,
}

/// How a resolved call reaches the trace.
enum Resolved<'o> {
    /// Served from the call cache; whether the entry carried a pushed
    /// query.
    Cached { pushed: bool },
    /// Invoked and delivered.
    Invoked(&'o InvokeOutcome),
    /// Invoked and permanently failed.
    Failed(&'o FailedCall),
}

/// The simulated cost a dispatched call burned (none for an unknown
/// service).
fn cost_ms(res: &Result<InvokeOutcome, InvokeError>) -> f64 {
    match res {
        Ok(o) => o.cost_ms,
        Err(InvokeError::Failed(f)) => f.cost_ms,
        Err(InvokeError::Unknown(_)) => 0.0,
    }
}

/// The failure an [`InvokeError`] stands for. `prepare` verified the
/// service exists, so `Unknown` cannot reach a hedged race; it maps to a
/// zero-cost failure defensively.
fn failure(e: InvokeError) -> FailedCall {
    match e {
        InvokeError::Failed(f) => f,
        InvokeError::Unknown(service) => FailedCall {
            service,
            attempts: 0,
            cost_ms: 0.0,
            timed_out: false,
            deadline_exceeded: false,
        },
    }
}

/// Resolves a primary/hedge race into exactly one logical outcome. The
/// hedge leg starts `fired_at_ms` into the primary's run. One rule picks
/// the winner: the first leg to *succeed*, the primary on a tie. The
/// logical call completes when the winner does, and the loser's run time
/// up to then is wasted. When both legs fail there is no winner: the call
/// fails when the later leg gives up, with the primary's attempt count,
/// either leg's timeout and deadline flags, and the hedge leg's whole cost
/// as waste.
fn combine_hedge(
    primary: Result<InvokeOutcome, InvokeError>,
    hedge: Result<InvokeOutcome, InvokeError>,
    fired_at_ms: f64,
) -> (Result<InvokeOutcome, InvokeError>, HedgeLeg) {
    let (primary_cost_ms, hedge_cost_ms) = (cost_ms(&primary), cost_ms(&hedge));
    let hedge_done = fired_at_ms + hedge_cost_ms;
    let hedge_won = hedge.is_ok() && (primary.is_err() || hedge_done < primary_cost_ms);
    let (result, wasted_ms) = match (primary, hedge) {
        (Err(p), Err(h)) => {
            let (p, h) = (failure(p), failure(h));
            let combined = FailedCall {
                cost_ms: primary_cost_ms.max(hedge_done),
                timed_out: p.timed_out || h.timed_out,
                deadline_exceeded: p.deadline_exceeded || h.deadline_exceeded,
                ..p
            };
            (Err(InvokeError::Failed(combined)), hedge_cost_ms)
        }
        (_, hedge) if hedge_won => (
            hedge.map(|h| InvokeOutcome {
                cost_ms: hedge_done,
                ..h
            }),
            primary_cost_ms.min(hedge_done),
        ),
        (primary, _) => (
            primary,
            hedge_cost_ms.min((primary_cost_ms - fired_at_ms).max(0.0)),
        ),
    };
    let leg = HedgeLeg {
        fired_at_ms,
        primary_cost_ms,
        hedge_cost_ms,
        hedge_won,
        wasted_ms,
    };
    (result, leg)
}

/// Dispatches one call with the hedging policy: the primary leg runs
/// under the full remaining deadline budget; when its elapsed cost
/// passes `hedge_after_ms` a duplicate hedge leg fires (with an
/// independent deterministic fault fate) and the race is resolved by
/// [`combine_hedge`]. Both legs read the same request. Reads no engine
/// state: the batch fixed the budget and the trigger before its first
/// dispatch.
fn dispatch_hedged(
    registry: &Registry,
    service: &str,
    req: &CallRequest,
    pushed: Option<&PushedQuery>,
    remaining_ms: f64,
    hedge_after_ms: f64,
) -> (Result<InvokeOutcome, InvokeError>, Option<HedgeLeg>) {
    let primary = registry.invoke_within(service, req, pushed, remaining_ms);
    let hedge_budget_ms = remaining_ms - hedge_after_ms;
    if !hedge_after_ms.is_finite()
        || hedge_budget_ms <= 0.0
        || cost_ms(&primary) <= hedge_after_ms
        || matches!(primary, Err(InvokeError::Unknown(_)))
    {
        return (primary, None);
    }
    let hedge = registry.invoke_hedge(service, req, pushed, hedge_budget_ms);
    let (combined, leg) = combine_hedge(primary, hedge, hedge_after_ms);
    (combined, Some(leg))
}

impl Run<'_, '_, '_> {
    /// Dispatches one round's candidates and returns how many were
    /// *resolved*: successful splices plus permanent failures. Both
    /// advance the rewriting — a failed call joins the dead set and is
    /// never re-detected — so [`Run::drive`] ends with a partial answer
    /// instead of spinning or aborting.
    pub(super) fn dispatch(
        &mut self,
        doc: &mut Document,
        cands: &[Candidate],
        pushes: &Pushes,
        mode: Dispatch,
    ) -> usize {
        self.batch_admitted.clear();
        match mode {
            Dispatch::Parallel => self.dispatch_parallel(doc, cands, pushes),
            Dispatch::Sequential => self.dispatch_sequential(doc, cands.iter(), pushes, false),
            Dispatch::First => {
                let mut order: Vec<&Candidate> = cands.iter().collect();
                order.sort_by_cached_key(|c| doc.order_key(c.node));
                self.dispatch_sequential(doc, order.into_iter(), pushes, true)
            }
        }
    }

    /// Runs candidates one after another, charging each resolved call to
    /// the clock before the next starts; with `first_only`, stops after
    /// the first. Skipped candidates (stale slots, unknown services, open
    /// breakers) never end the round, so degradation cannot strand an
    /// invocable call behind a refused one. The batch's costs include
    /// zero-cost cache hits.
    fn dispatch_sequential<'c>(
        &mut self,
        doc: &mut Document,
        order: impl Iterator<Item = &'c Candidate>,
        pushes: &Pushes,
        first_only: bool,
    ) -> usize {
        let mut costs = Vec::new();
        for c in order {
            if let Some(cost) = self.invoke(doc, c, pushes.get(&c.call)) {
                self.clock.advance(cost);
                costs.push(cost);
                if first_only {
                    break;
                }
            }
        }
        let resolved = costs.len();
        if resolved > 0 {
            let advance_ms = costs.iter().sum();
            self.emit(EventKind::Batch {
                parallel: false,
                costs,
                advance_ms,
            });
        }
        resolved
    }

    /// Runs candidates as one parallel batch under the logical clock. The
    /// batch's costs exclude cache hits, which resolve at zero cost before
    /// any dispatch.
    fn dispatch_parallel(
        &mut self,
        doc: &mut Document,
        cands: &[Candidate],
        pushes: &Pushes,
    ) -> usize {
        let mut resolved = 0;
        // phase 0/1: serve cache hits immediately, then validate the
        // remaining candidates for dispatch. Hits splice right away —
        // candidates are distinct call slots, and calls never nest inside
        // another call's parameters, so a hit cannot invalidate a batch
        // mate.
        let mut admitted: Vec<Admitted<'_>> = Vec::new();
        for c in cands {
            let key = match self.try_cache(doc, c, pushes.get(&c.call)) {
                Probe::Hit => {
                    resolved += 1;
                    continue;
                }
                Probe::Miss(key) => key,
            };
            admitted.extend(self.prepare(doc, c, key));
        }
        // the remaining deadline budget and each call's hedge trigger are
        // fixed before any dispatch: every call of the batch starts at the
        // same instant, so a batch mate's outcome (which moves the latency
        // EWMA in phase 3) cannot change them
        let remaining = self.deadline.remaining_ms(self.clock.now_ms());
        let hedge_cfg = self.config().hedge;
        let registry = self.engine.registry;
        let triggers: Vec<f64> = admitted
            .iter()
            .map(|a| hedge_cfg.trigger_ms(registry.latency_ewma(a.cand.service.as_str())))
            .collect();
        // phase 2: dispatch the whole batch before any result is applied.
        // Each call's parameters are read here, where they stand: a hit
        // spliced in phase 1 after the call was admitted cannot have
        // changed them, for the reason it cannot invalidate the slot
        let results: Vec<_> = admitted
            .iter()
            .zip(&triggers)
            .map(|(a, trigger)| {
                dispatch_hedged(
                    registry,
                    a.cand.service.as_str(),
                    &CallRequest::of_call(doc, a.cand.node),
                    pushes.get(&a.cand.call),
                    remaining,
                    *trigger,
                )
            })
            .collect();
        // phase 3: splice sequentially, deterministically. A fired
        // hedge leg is accounted here, exactly once per logical call:
        // the `hedge` event precedes the single invocation outcome.
        let mut costs = Vec::new();
        for (a, (res, hedge)) in admitted.into_iter().zip(results) {
            let c = a.cand;
            if let Some(leg) = &hedge {
                self.stats.hedged_calls += 1;
                if leg.hedge_won {
                    self.stats.hedge_wins += 1;
                }
                self.stats.hedge_wasted_ms += leg.wasted_ms;
                if self.observing() {
                    self.emit(EventKind::Hedge {
                        service: c.service.to_string(),
                        call: c.call.0,
                        fired_at_ms: leg.fired_at_ms,
                        primary_cost_ms: leg.primary_cost_ms,
                        hedge_cost_ms: leg.hedge_cost_ms,
                        hedge_won: leg.hedge_won,
                    });
                }
            }
            if let Some(cost) = self.settle(doc, a, res) {
                costs.push(cost);
                resolved += 1;
            }
        }
        self.clock.advance_parallel(&costs);
        if !costs.is_empty() {
            let advance_ms = costs.iter().copied().fold(0.0, f64::max);
            self.emit(EventKind::Batch {
                parallel: true,
                costs,
                advance_ms,
            });
        }
        resolved
    }

    /// Runs one candidate through every gate; returns its simulated cost,
    /// or `None` when a gate skipped it. A cache hit resolves at zero
    /// cost; a permanent failure resolves too, returning the burned cost.
    fn invoke(
        &mut self,
        doc: &mut Document,
        cand: &Candidate,
        pushed: Option<&PushedQuery>,
    ) -> Option<f64> {
        let key = match self.try_cache(doc, cand, pushed) {
            Probe::Hit => return Some(0.0),
            Probe::Miss(key) => key,
        };
        let admitted = self.prepare(doc, cand, key)?;
        let remaining = self.deadline.remaining_ms(self.clock.now_ms());
        let registry = self.engine.registry;
        let req = CallRequest::of_call(doc, cand.node);
        let res = registry.invoke_within(cand.service.as_str(), &req, pushed, remaining);
        self.settle(doc, admitted, res)
    }

    /// The cache-probe gate (reconstructed §7): on a valid entry the
    /// cached forest is spliced in at **zero** network cost. Expired
    /// entries and misses fall through to the other gates, with the key
    /// the probe built. The key serializes the parameters where they
    /// stand, so a probe copies none of them.
    fn try_cache(
        &mut self,
        doc: &mut Document,
        cand: &Candidate,
        pushed: Option<&PushedQuery>,
    ) -> Probe {
        let Some(cache) = self.engine.cache else {
            return Probe::Miss(None);
        };
        if !holds_call(doc, cand.node, cand.call) {
            return Probe::Miss(None);
        }
        let req = CallRequest::of_call(doc, cand.node);
        let key = CallKey::new(cand.service.as_str(), &req, pushed);
        let lookup = cache.lookup(&key, self.clock.now_ms());
        let (outcome, hit) = match lookup {
            CacheLookup::Hit(hit) => (CacheOutcome::Hit, Some(hit)),
            CacheLookup::Stale => {
                self.stats.cache_stale += 1;
                (CacheOutcome::Stale, None)
            }
            CacheLookup::Miss => {
                self.stats.cache_misses += 1;
                (CacheOutcome::Miss, None)
            }
        };
        if self.observing() {
            self.emit(EventKind::CacheProbe {
                service: cand.service.to_string(),
                call: cand.call.0,
                outcome,
            });
        }
        let Some(hit) = hit else {
            return Probe::Miss(Some(key));
        };
        let parent = self.splice(doc, cand, hit.result, false, hit.expires_at_ms);
        self.emit_resolved(doc, cand, parent, Resolved::Cached { pushed: hit.pushed });
        self.stats.cache_hits += 1;
        Probe::Hit
    }

    /// The budget, deadline, stale-slot, unknown-service, shed and breaker
    /// gates, in that order. An admitted candidate reserves one unit of
    /// budget (a parallel batch admits every call before dispatching any)
    /// and yields what settling it needs, with the key the cache probe
    /// built.
    fn prepare<'c>(
        &mut self,
        doc: &Document,
        cand: &'c Candidate,
        key: Option<CallKey>,
    ) -> Option<Admitted<'c>> {
        if self.budget == 0 {
            // not marked truncated here: a failed batch mate may refund
            // budget and let this call proceed in a later round. The
            // round loop flags truncation when the budget is still
            // exhausted at re-detection time.
            return None;
        }
        if self.deadline.expired(self.clock.now_ms()) {
            // no dead-marking: the call stays detectable, so a zero-cost
            // cache hit (probed before this gate) can still resolve it.
            // The round loop flags deadline truncation when a round
            // closes without progress.
            self.deadline_hit = true;
            return None;
        }
        if !holds_call(doc, cand.node, cand.call) {
            return None;
        }
        if !self.engine.registry.has_service(cand.service.as_str()) {
            self.skip_unknown(cand);
            return None;
        }
        if let Some(reason) = self.shed_reason(cand.service.as_str()) {
            // the admission gate refuses the dispatch before the breaker
            // even sees it; like a breaker skip, the call is marked
            // exhausted so the answer degrades to a sound partial result
            // instead of spinning
            self.dead.insert(cand.call);
            self.stats.shed_skips += 1;
            if self.observing() {
                self.emit(EventKind::Shed {
                    service: cand.service.to_string(),
                    call: cand.call.0,
                    reason,
                });
            }
            return None;
        }
        if !self
            .engine
            .registry
            .breaker_allows(cand.service.as_str(), self.clock.now_ms())
        {
            // an open circuit breaker refuses the dispatch outright; the
            // call is marked exhausted so the rewriting can terminate with
            // a partial answer instead of spinning on a zero-cost skip
            self.dead.insert(cand.call);
            self.stats.breaker_skips += 1;
            self.engine.registry.record_breaker_skip();
            if self.observing() {
                self.emit(EventKind::BreakerSkip {
                    service: cand.service.to_string(),
                    call: cand.call.0,
                });
            }
            return None;
        }
        self.budget -= 1;
        *self
            .batch_admitted
            .entry(cand.service.to_string())
            .or_default() += 1;
        Some(Admitted { cand, key })
    }

    /// Marks a call naming an unregistered service dead and counts the
    /// skip.
    fn skip_unknown(&mut self, cand: &Candidate) {
        self.dead.insert(cand.call);
        self.stats.skipped_unknown += 1;
        if self.observing() {
            self.emit(EventKind::UnknownService {
                service: cand.service.to_string(),
                call: cand.call.0,
            });
        }
    }

    /// Whether the admission gate sheds a candidate of `service` right
    /// now, and why. Checked per batch: the in-flight gate counts calls
    /// already admitted for the service in the current batch, the latency
    /// gate reads the service's observed cost EWMA.
    fn shed_reason(&self, service: &str) -> Option<ShedReason> {
        let shed = &self.config().shed;
        if shed.max_inflight_per_batch != usize::MAX
            && self.batch_admitted.get(service).copied().unwrap_or(0) >= shed.max_inflight_per_batch
        {
            return Some(ShedReason::Inflight);
        }
        if shed.ewma_limit_ms.is_finite() {
            if let Some(ewma) = self.engine.registry.latency_ewma(service) {
                if ewma > shed.ewma_limit_ms {
                    return Some(ShedReason::Latency);
                }
            }
        }
        None
    }

    /// Settles one dispatched call: a success is stored in the call cache
    /// (under the key it was probed with) and spliced by [`Run::apply`],
    /// lapsing when the stored entry does, or at once when none was;
    /// an unknown service refunds the budget `prepare` reserved and is
    /// skipped; a permanent failure goes to [`Run::apply_failure`].
    /// Returns the simulated cost to charge, or `None` for a skip.
    fn settle(
        &mut self,
        doc: &mut Document,
        admitted: Admitted<'_>,
        res: Result<InvokeOutcome, InvokeError>,
    ) -> Option<f64> {
        let Admitted { cand, key } = admitted;
        match res {
            Ok(outcome) => {
                let now = self.clock.now_ms();
                let expires_at_ms = match (self.engine.cache, &key) {
                    (Some(cache), Some(key)) => cache.store(key, &outcome, now),
                    _ => now,
                };
                Some(self.apply(doc, cand, outcome, expires_at_ms))
            }
            Err(InvokeError::Unknown(_)) => {
                // prepare checked existence; defend anyway
                self.budget += 1;
                self.skip_unknown(cand);
                None
            }
            Err(InvokeError::Failed(failed)) => Some(self.apply_failure(doc, cand, failed)),
        }
    }

    /// Splices a dispatched call's outcome into the document and accounts
    /// for it; returns the simulated cost.
    fn apply(
        &mut self,
        doc: &mut Document,
        cand: &Candidate,
        outcome: InvokeOutcome,
        expires_at_ms: f64,
    ) -> f64 {
        if self.config().enforce_output_types && !outcome.pushed {
            if let Some(schema) = self.engine.schema {
                if let Some(sig) = schema.function(cand.service.as_str()) {
                    let root_ok = axml_schema::forest_matches_type(&outcome.result, &sig.output);
                    let content_errors = axml_schema::validate(&outcome.result, schema)
                        .into_iter()
                        .filter(|e| !matches!(e, axml_schema::ValidationError::RootMismatch { .. }))
                        .count();
                    if !root_ok || content_errors > 0 {
                        self.stats.type_violations += 1;
                    }
                }
            }
        }
        let result = Arc::clone(&outcome.result);
        let parent = self.splice(doc, cand, result, true, expires_at_ms);
        self.emit_resolved(doc, cand, parent, Resolved::Invoked(&outcome));
        self.stats.calls_invoked += 1;
        self.stats.call_attempts += outcome.attempts;
        self.total_call_cost_ms += outcome.cost_ms;
        self.stats.bytes_transferred += outcome.bytes;
        if outcome.pushed {
            self.stats.pushed_calls += 1;
        }
        *self
            .stats
            .invoked_by_service
            .entry(cand.service.to_string())
            .or_default() += 1;
        self.engine
            .registry
            .latency_observe(cand.service.as_str(), outcome.cost_ms);
        self.record_breaker(cand.service.as_str(), true);
        outcome.cost_ms
    }

    /// Accounts for a call that exhausted its retry budget: the call is
    /// marked exhausted (never re-detected), the reserved invocation
    /// budget is refunded, the failure is recorded in the stats, the trace
    /// and the circuit breaker, and the burned simulated cost is returned
    /// so the caller still charges it to the clock. The document is left
    /// untouched — the final answer simply misses the subtree this call
    /// would have produced.
    fn apply_failure(&mut self, doc: &Document, cand: &Candidate, failed: FailedCall) -> f64 {
        self.budget += 1; // the dispatch reserved it; nothing materialized
        self.dead.insert(cand.call);
        self.stats.failed_calls += 1;
        self.stats.call_attempts += failed.attempts;
        self.total_call_cost_ms += failed.cost_ms;
        if failed.deadline_exceeded {
            // the call burned its whole remaining deadline budget — the
            // round loop will close the round as deadline-truncated if
            // candidates are still pending
            self.deadline_hit = true;
        }
        self.emit_resolved(doc, cand, doc.parent(cand.node), Resolved::Failed(&failed));
        self.engine
            .registry
            .latency_observe(cand.service.as_str(), failed.cost_ms);
        self.record_breaker(cand.service.as_str(), false);
        failed.cost_ms
    }

    /// Splices `result` in place of the candidate's call and records the
    /// splice with that handle on the forest; returns the call's parent.
    /// A cache hit hands over the handle its lookup took, so concurrent
    /// runs splicing one cached forest touch its reference count no more
    /// often than their lookups do.
    fn splice(
        &mut self,
        doc: &mut Document,
        cand: &Candidate,
        result: Arc<Forest>,
        invoked: bool,
        expires_at_ms: f64,
    ) -> Option<NodeId> {
        let parent = doc.parent(cand.node);
        let class = doc
            .call_class(cand.node)
            .expect("a candidate is a visible call");
        let position = doc.sibling_index(cand.node);
        let roots = doc.splice_call(cand.node, &result);
        self.splices.push(Splice {
            call: cand.call,
            parent,
            class,
            position,
            result,
            roots,
            invoked,
            expires_at_ms,
        });
        parent
    }

    /// Emits a resolved call's `attempt` events and then its single
    /// `invocation`, which names the label path of the call's `parent`.
    /// The registry reports only the final attempt count, so the attempts
    /// are derived here, on the sequential accounting phase: only a
    /// success's last attempt succeeded, and a cache hit made none.
    fn emit_resolved(
        &mut self,
        doc: &Document,
        cand: &Candidate,
        parent: Option<NodeId>,
        res: Resolved<'_>,
    ) {
        if !self.observing() {
            return;
        }
        let (ok, cached, pushed, attempts, cost_ms, bytes) = match res {
            Resolved::Cached { pushed } => (true, true, pushed, 0, 0.0, 0),
            Resolved::Invoked(o) => (true, false, o.pushed, o.attempts, o.cost_ms, o.bytes),
            Resolved::Failed(f) => (false, false, false, f.attempts, f.cost_ms, 0),
        };
        for index in 0..attempts {
            self.emit(EventKind::Attempt {
                service: cand.service.to_string(),
                call: cand.call.0,
                index,
                ok: ok && index + 1 == attempts,
            });
        }
        self.emit(EventKind::Invocation {
            service: cand.service.to_string(),
            call: cand.call.0,
            path: parent.map_or_else(String::new, |p| doc.path_labels(p).join("/")),
            pushed,
            cached,
            ok,
            attempts,
            cost_ms,
            bytes,
        });
    }

    /// Records a completed call with the circuit breaker and traces the
    /// transition when the recorded outcome flipped the breaker's state.
    fn record_breaker(&mut self, service: &str, ok: bool) {
        let now = self.clock.now_ms();
        let registry = self.engine.registry;
        let allowed_before = registry.breaker_allows(service, now);
        registry.breaker_record(service, ok, now);
        let allowed_after = registry.breaker_allows(service, now);
        if allowed_before != allowed_after && self.observing() {
            self.emit(EventKind::BreakerTransition {
                service: service.to_string(),
                open: !allowed_after,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_xml::Forest;
    use std::sync::Arc;

    /// A successful leg; `bytes` marks which leg's outcome was returned.
    fn ok(cost_ms: f64, bytes: usize) -> Result<InvokeOutcome, InvokeError> {
        Ok(InvokeOutcome {
            result: Arc::new(Forest::new()),
            bytes,
            cost_ms,
            pushed: false,
            attempts: bytes,
        })
    }

    fn failed(
        cost_ms: f64,
        attempts: usize,
        timed_out: bool,
        deadline_exceeded: bool,
    ) -> Result<InvokeOutcome, InvokeError> {
        Err(InvokeError::Failed(FailedCall {
            service: "s".to_string(),
            attempts,
            cost_ms,
            timed_out,
            deadline_exceeded,
        }))
    }

    /// What one resolved race must report.
    struct Expect {
        /// `Some(bytes)` of the winning successful leg, `None` for a failure.
        winner_bytes: Option<usize>,
        cost_ms: f64,
        hedge_won: bool,
        wasted_ms: f64,
        /// `(timed_out, deadline_exceeded)` of a failed race.
        flags: (bool, bool),
    }

    /// Every primary/hedge outcome pair plus the tie, each with the hedge
    /// fired 10 ms into the primary.
    #[test]
    fn hedge_resolution_table() {
        let fired = 10.0;
        let rows = [
            // both succeed, the hedge (done at 30) beats the primary (50)
            (
                "ok/ok hedge first",
                ok(50.0, 1),
                ok(20.0, 2),
                Expect {
                    winner_bytes: Some(2),
                    cost_ms: 30.0,
                    hedge_won: true,
                    wasted_ms: 30.0,
                    flags: (false, false),
                },
            ),
            // both succeed and finish together at 30: the primary wins
            (
                "ok/ok tie",
                ok(30.0, 1),
                ok(20.0, 2),
                Expect {
                    winner_bytes: Some(1),
                    cost_ms: 30.0,
                    hedge_won: false,
                    wasted_ms: 20.0,
                    flags: (false, false),
                },
            ),
            // both succeed, the primary (25) beats the hedge (done at 50)
            (
                "ok/ok primary first",
                ok(25.0, 1),
                ok(40.0, 2),
                Expect {
                    winner_bytes: Some(1),
                    cost_ms: 25.0,
                    hedge_won: false,
                    wasted_ms: 15.0,
                    flags: (false, false),
                },
            ),
            // the hedge fails early, the primary succeeds
            (
                "ok/failed",
                ok(50.0, 1),
                failed(20.0, 1, true, false),
                Expect {
                    winner_bytes: Some(1),
                    cost_ms: 50.0,
                    hedge_won: false,
                    wasted_ms: 20.0,
                    flags: (false, false),
                },
            ),
            // the primary fails, the hedge succeeds after it (done at 70)
            (
                "failed/ok",
                failed(50.0, 2, false, false),
                ok(60.0, 2),
                Expect {
                    winner_bytes: Some(2),
                    cost_ms: 70.0,
                    hedge_won: true,
                    wasted_ms: 50.0,
                    flags: (false, false),
                },
            ),
            // both fail: done when the later leg gives up (the hedge, at
            // 60), the hedge's whole cost is waste, the flags merge
            (
                "failed/failed",
                failed(40.0, 2, false, false),
                failed(50.0, 1, true, true),
                Expect {
                    winner_bytes: None,
                    cost_ms: 60.0,
                    hedge_won: false,
                    wasted_ms: 50.0,
                    flags: (true, true),
                },
            ),
        ];
        for (name, primary, hedge, want) in rows {
            let (primary_cost, hedge_cost) = (cost_ms(&primary), cost_ms(&hedge));
            let (res, leg) = combine_hedge(primary, hedge, fired);
            assert_eq!(leg.fired_at_ms, fired, "{name}");
            assert_eq!(leg.primary_cost_ms, primary_cost, "{name}");
            assert_eq!(leg.hedge_cost_ms, hedge_cost, "{name}");
            assert_eq!(leg.hedge_won, want.hedge_won, "{name}: winner");
            assert_eq!(leg.wasted_ms, want.wasted_ms, "{name}: wasted_ms");
            match res {
                Ok(o) => {
                    assert_eq!(Some(o.bytes), want.winner_bytes, "{name}: winning leg");
                    assert_eq!(o.cost_ms, want.cost_ms, "{name}: cost");
                }
                Err(InvokeError::Failed(f)) => {
                    assert_eq!(want.winner_bytes, None, "{name}: must succeed");
                    assert_eq!(f.cost_ms, want.cost_ms, "{name}: cost");
                    assert_eq!(f.attempts, 2, "{name}: the primary's attempts");
                    assert_eq!(
                        (f.timed_out, f.deadline_exceeded),
                        want.flags,
                        "{name}: flags"
                    );
                }
                Err(e) => panic!("{name}: unexpected {e}"),
            }
        }
    }
}
