//! The lazy query-evaluation engine — the paper's central algorithm.
//!
//! Given an AXML document, a tree-pattern query and a service registry,
//! the engine drives a **relevant rewriting** (Definition 4): it invokes
//! only calls that may contribute to the query, in rounds, until the
//! document is complete for the query, then evaluates the query once to
//! obtain the **full result**. The strategy space covers the whole paper:
//!
//! | knob | paper section |
//! |---|---|
//! | [`Strategy::Naive`] — invoke everything to a fixpoint | §1 (baseline) |
//! | [`Strategy::TopDown`] — one call at a time along traversed paths | §1 (baseline) |
//! | [`Strategy::Lpq`] — linear path queries | §3.1 / §6.1 |
//! | [`Strategy::Nfq`] — node-focused queries + NFQA | §3.2, §4.1 |
//! | `layering` — influence layers, topological processing | §4.2–4.3 |
//! | `parallel` — condition (✳) batch invocation | §4.4 |
//! | `typing` — refined NFQs via satisfiability | §5 |
//! | `relax_xpath` — drop value joins from NFQs | §6.1 |
//! | `push_queries` — ship `sub_q_v` to providers | §7 |
//!
//! Every strategy runs one round loop, `Run::drive`: detect the relevant
//! calls, dispatch them, detect again. A strategy differs only in what a
//! round detects and how it dispatches. Detection finds calls by position
//! on the run's function-call guide (§6.2, [`FGuide`]). The calls
//! themselves go through the gates of the `dispatch` child module.

mod dispatch;

use crate::fguide::{filter_candidates, output_services, position_language, ClassVerdicts, FGuide};
use crate::influence::{compute_layers, Layers};
use crate::nfq::{Lpq, Nfq};
use crate::plan::{lpq_set, nfq_set, typing_mode, CompiledQuery};
use crate::stats::EngineStats;
use crate::typed::TypeRefiner;
use axml_obs::{Event, EventKind, TraceSink};
use axml_query::{eval_with, render, EdgeKind, PNodeId, Pattern, PlanScratch, SnapshotResult};
use axml_schema::Schema;
use axml_services::{Deadline, InvokeCache, PushedQuery, Registry, SimClock};
use axml_xml::{CallId, Document, NodeId};
use dispatch::{Candidate, Dispatch};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Which family of call-finding queries drives the rewriting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Invoke every call recursively until a fixpoint — the naive baseline
    /// ruled out in the introduction.
    Naive,
    /// Invoke calls one at a time, restarting the (linear-path) analysis
    /// after each answer — the "less naive" blocking baseline of §1.
    TopDown,
    /// Position-only pruning with LPQs (§3.1): safe superset, batched.
    Lpq,
    /// Node-focused queries with the NFQA loop (§3.2/§4.1): exact
    /// relevance under unconstrained types.
    Nfq,
}

impl Strategy {
    /// Stable name used in trace events.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Naive => "naive",
            Strategy::TopDown => "topdown",
            Strategy::Lpq => "lpq",
            Strategy::Nfq => "nfq",
        }
    }
}

/// Type-based pruning level (Section 5 / §6.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Typing {
    /// Ignore signatures (Section 3's assumption).
    None,
    /// Lenient graph-schema satisfiability (§6.1) — PTIME, may keep extra
    /// functions.
    Lenient,
    /// Exact derived-instance satisfiability (Section 5).
    Exact,
}

/// Full engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Call-finding family.
    pub strategy: Strategy,
    /// Type-based pruning (needs a schema; ignored without one).
    pub typing: Typing,
    /// Push `sub_q_v` to capable providers (§7). NFQ strategy only.
    pub push_queries: bool,
    /// Invoke independent batches in parallel (§4.4); also batches the
    /// naive/LPQ strategies' rounds.
    pub parallel: bool,
    /// Split NFQs into influence layers (§4.3). The `()` branches of a
    /// finished layer are simplified away (§4.3's note).
    pub layering: bool,
    /// Drop value-join variables from NFQs (§6.1 XPath relaxation).
    pub relax_xpath: bool,
    /// Hard cap on invocations — the paper's termination guard (§2 assumes
    /// termination or a limit).
    pub max_invocations: usize,
    /// Eliminate call-finding queries subsumed by others (§4.1's
    /// containment-based redundancy elimination): exact language inclusion
    /// for LPQs, homomorphism-based for NFQs.
    pub containment_pruning: bool,
    /// Check every (un-pushed) service result against the declared output
    /// type and the element content models (§2: "its result is guaranteed
    /// to match the out regular expression"). Violations are counted in
    /// the stats; the result is spliced regardless (the algorithms stay
    /// correct, the guarantee was the provider's).
    pub enforce_output_types: bool,
    /// Speculative invocation — the paper's §4.4 closing direction:
    /// "calling functions in parallel *just in case*", trading possibly
    /// wasted calls for wall-clock.
    pub speculation: Speculation,
    /// End-to-end deadline for the whole run, in simulated ms from the
    /// run's start. When the budget runs out the engine stops dispatching
    /// and closes the round with the same sound partial-answer semantics
    /// as invocation-budget exhaustion — `truncated` with the distinct
    /// `deadline_exceeded` cause. In-flight calls are clipped to the
    /// remaining budget (per-attempt timeouts and backoff sleeps never
    /// overrun it); zero-cost cache hits are still served after expiry.
    /// `f64::INFINITY` (the default) disables the deadline.
    pub deadline_ms: f64,
    /// Hedged-invocation policy for parallel batches (off by default).
    pub hedge: HedgeConfig,
    /// Adaptive load-shedding policy (off by default).
    pub shed: ShedConfig,
}

/// When to fire a duplicate *hedge leg* for a slow call inside a parallel
/// batch. The first leg to complete wins; the loser is cancelled at zero
/// answer-state cost and only its already-elapsed simulated time is
/// charged to [`EngineStats::hedge_wasted_ms`]. Exactly one logical
/// outcome (the winner's) reaches the stats, the trace and the circuit
/// breaker. Both triggers default to `f64::INFINITY` (hedging off); when
/// both are set the earlier trigger fires the hedge.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HedgeConfig {
    /// Fixed trigger: fire the hedge once a call's elapsed simulated cost
    /// passes this many ms.
    pub threshold_ms: f64,
    /// Adaptive trigger: fire once the elapsed cost passes this multiple
    /// of the service's observed latency EWMA (no effect until the
    /// service has at least one observation).
    pub latency_factor: f64,
}

impl HedgeConfig {
    /// Whether any trigger is configured.
    pub fn enabled(&self) -> bool {
        self.threshold_ms.is_finite() || self.latency_factor.is_finite()
    }

    /// The elapsed-cost point (ms) at which a hedge fires for a service
    /// with the given latency EWMA; `f64::INFINITY` means never.
    fn trigger_ms(&self, ewma: Option<f64>) -> f64 {
        let adaptive = match ewma {
            Some(e) if self.latency_factor.is_finite() => self.latency_factor * e,
            _ => f64::INFINITY,
        };
        self.threshold_ms.min(adaptive)
    }
}

impl Default for HedgeConfig {
    /// Hedging off.
    fn default() -> Self {
        HedgeConfig {
            threshold_ms: f64::INFINITY,
            latency_factor: f64::INFINITY,
        }
    }
}

/// Admission gate in front of the circuit breaker: sheds the
/// lowest-priority candidate calls (latest in document order) when a
/// service is overloaded. A shed call is recorded as a skip — like a
/// breaker refusal — keeping the answer a sound partial result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShedConfig {
    /// Maximum calls admitted per service within one batch; further
    /// candidates are shed with [`axml_obs::ShedReason::Inflight`].
    /// `usize::MAX` (the default) disables the gate.
    pub max_inflight_per_batch: usize,
    /// Shed every candidate of a service whose latency EWMA exceeds this
    /// many ms ([`axml_obs::ShedReason::Latency`]). `f64::INFINITY` (the
    /// default) disables the gate.
    pub ewma_limit_ms: f64,
}

impl Default for ShedConfig {
    /// Shedding off.
    fn default() -> Self {
        ShedConfig {
            max_inflight_per_batch: usize::MAX,
            ewma_limit_ms: f64::INFINITY,
        }
    }
}

/// When to fire *all* currently relevant calls in one batch, ignoring the
/// layer order and condition (✳) (§4.4's "more parallelism" direction).
/// Every call fired is relevant at firing time (Prop. 1), but a batch mate
/// may retroactively make it useless — a *lenient* rewriting: safe, maybe
/// wasteful.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Speculation {
    /// Strict relevant rewriting (the default).
    Off,
    /// Always batch everything.
    Always,
    /// Cost model: batch when the observed mean call cost exceeds the
    /// threshold — latency expensive ⇒ wasted calls are worth the rounds
    /// they save.
    CostBased {
        /// Mean simulated call cost (ms) above which speculation pays.
        latency_threshold_ms: f64,
    },
}

impl Default for EngineConfig {
    /// The full lazy configuration: NFQ + layering + parallel + exact
    /// typing + push.
    fn default() -> Self {
        EngineConfig {
            strategy: Strategy::Nfq,
            typing: Typing::Exact,
            push_queries: true,
            parallel: true,
            layering: true,
            relax_xpath: false,
            max_invocations: 100_000,
            containment_pruning: true,
            enforce_output_types: false,
            speculation: Speculation::Off,
            deadline_ms: f64::INFINITY,
            hedge: HedgeConfig::default(),
            shed: ShedConfig::default(),
        }
    }
}

impl EngineConfig {
    /// The naive materialize-everything baseline.
    pub fn naive() -> Self {
        EngineConfig {
            strategy: Strategy::Naive,
            typing: Typing::None,
            push_queries: false,
            layering: false,
            parallel: false,
            ..Default::default()
        }
    }

    /// The blocking top-down baseline.
    pub fn top_down() -> Self {
        EngineConfig {
            strategy: Strategy::TopDown,
            typing: Typing::None,
            push_queries: false,
            layering: false,
            parallel: false,
            ..Default::default()
        }
    }

    /// Plain LPQ pruning.
    pub fn lpq() -> Self {
        EngineConfig {
            strategy: Strategy::Lpq,
            typing: Typing::None,
            push_queries: false,
            layering: false,
            ..Default::default()
        }
    }

    /// Plain NFQA (no typing, no layering, sequential).
    pub fn nfq_plain() -> Self {
        EngineConfig {
            strategy: Strategy::Nfq,
            typing: Typing::None,
            push_queries: false,
            layering: false,
            parallel: false,
            ..Default::default()
        }
    }
}

/// The outcome of one engine run.
#[derive(Clone, Debug)]
pub struct EvalReport {
    /// The full result of the query (snapshot on the completed document).
    pub result: SnapshotResult,
    /// Measurements.
    pub stats: EngineStats,
    /// Whether the answer is the *full* result. `false` means degradation
    /// happened — some relevant call permanently failed, was refused by an
    /// open circuit breaker, named an unknown service, or the invocation
    /// budget ran out — and the answer is a sound partial result: exactly
    /// the full answer minus subtrees below the unresolved calls.
    pub complete: bool,
    /// The parent label path (root's label first) of every call the run
    /// invoked and spliced, in splice order: where the document changed.
    /// Cache hits and failed calls are not listed.
    pub changed_paths: Vec<Vec<String>>,
}

/// What [`Engine::complete_for`] did to a document: the rewriting of an
/// [`EvalReport`], without an answer.
#[derive(Clone, Debug)]
pub struct Completion {
    /// Measurements; `final_eval_cpu` is zero, since no answer was
    /// evaluated.
    pub stats: EngineStats,
    /// As [`EvalReport::changed_paths`].
    pub changed_paths: Vec<Vec<String>>,
}

/// The lazy query evaluation engine.
pub struct Engine<'a> {
    registry: &'a Registry,
    schema: Option<&'a Schema>,
    cache: Option<&'a dyn InvokeCache>,
    observer: Option<&'a dyn TraceSink>,
    start_ms: f64,
    config: EngineConfig,
    plan: Option<Arc<CompiledQuery>>,
}

impl<'a> Engine<'a> {
    /// Creates an engine without schema information (typing disabled).
    pub fn new(registry: &'a Registry, config: EngineConfig) -> Self {
        Engine {
            registry,
            schema: None,
            cache: None,
            observer: None,
            start_ms: 0.0,
            config,
            plan: None,
        }
    }

    /// Attaches a [`CompiledQuery`]: runs whose `(query, schema, config)`
    /// match the plan's compile key skip NFQ/LPQ construction, containment
    /// pruning, layer computation and label-NFA builds, reuse the plan's
    /// satisfiability verdicts, and evaluate the final answer through the
    /// plan. A non-matching plan is ignored — never misapplied.
    pub fn with_plan(mut self, plan: Arc<CompiledQuery>) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Attaches a structured-trace observer: every observable step of a
    /// run (query/layer spans, candidate sets, cache probes, attempts,
    /// invocations, breaker transitions, batch clock charges) is emitted
    /// as an [`axml_obs::Event`], in the deterministic order the run takes
    /// them: a parallel batch's events follow its candidates' order, not
    /// the order its calls would finish in.
    pub fn with_observer(mut self, observer: &'a dyn TraceSink) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Attaches a schema, enabling `Typing::{Lenient, Exact}`.
    pub fn with_schema(mut self, schema: &'a Schema) -> Self {
        self.schema = Some(schema);
        self
    }

    /// Attaches a cross-query call-result cache (reconstructed §7): the
    /// engine probes it before every dispatch — a valid entry is spliced
    /// in at **zero** network cost and counted in
    /// [`EngineStats::cache_hits`]; a successful real invocation
    /// populates it. Failed calls are never cached.
    pub fn with_cache(mut self, cache: &'a dyn InvokeCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Starts the run's simulated clock at `ms` instead of zero — used by
    /// sessions serving a stream of queries, so cache validity windows
    /// and breaker cooldowns keep counting across runs.
    /// [`EngineStats::sim_time_ms`] still reports only this run's elapsed
    /// simulated time.
    pub fn starting_at(mut self, ms: f64) -> Self {
        self.start_ms = ms;
        self
    }

    /// Rewrites `doc` until it is complete for the query, **without** the
    /// final evaluation — the exchange use case of Section 1's closing
    /// remark ("our technique can be used to evaluate queries on exchanged
    /// AXML data"): materialize exactly what a recipient needs for `query`
    /// and ship the document. The trace and the stats are those of
    /// [`Engine::evaluate`], minus the final evaluation's CPU.
    pub fn complete_for(&self, doc: &mut Document, query: &Pattern) -> Completion {
        let t0 = Instant::now();
        let mut run = self.rewrite(doc, query);
        run.close(doc, t0);
        Completion {
            stats: run.stats,
            changed_paths: run.changed_paths,
        }
    }

    /// Runs the rewriting on `doc` (mutated in place) and evaluates the
    /// query on the completed document.
    pub fn evaluate(&self, doc: &mut Document, query: &Pattern) -> EvalReport {
        let t0 = Instant::now();
        let mut run = self.rewrite(doc, query);
        let tq = Instant::now();
        let result = match run.plan {
            // the plan's label tests compile against this document's
            // symbols, as a transient evaluation's would
            Some(p) => p.plan.eval_with(doc, &mut run.eval_cache),
            None => eval_with(query, doc, &mut run.eval_cache),
        };
        run.stats.final_eval_cpu = tq.elapsed();
        run.close(doc, t0);
        let complete = run.stats.is_complete();
        EvalReport {
            result,
            stats: run.stats,
            complete,
            changed_paths: run.changed_paths,
        }
    }

    /// Opens the query span and runs the configured strategy's rewriting
    /// on `doc`; the caller closes the span.
    fn rewrite<'e, 'q>(&'e self, doc: &mut Document, query: &'q Pattern) -> Run<'e, 'a, 'q> {
        let mut run = Run::new(self, query);
        if run.observing() {
            run.emit(EventKind::QueryStart {
                strategy: self.config.strategy.name().to_string(),
                query: render(query),
            });
        }
        match self.config.strategy {
            Strategy::Naive => run.run_naive(doc),
            Strategy::TopDown => run.run_lpq(doc, true),
            Strategy::Lpq => run.run_lpq(doc, false),
            Strategy::Nfq => run.run_nfq(doc),
        }
        run
    }
}

/// The queries pushed along with a round's calls (§7), by call.
type Pushes = BTreeMap<CallId, PushedQuery>;

/// Does the slot `node` still hold the call `call`? Slots of spliced
/// calls are reused, so a candidate found earlier may have gone stale.
fn holds_call(doc: &Document, node: NodeId, call: CallId) -> bool {
    doc.is_alive(node) && matches!(doc.call_info(node), Some((id, _)) if id == call)
}

/// Debug builds check each candidate set the guide yields against the
/// seed evaluator (string compares, no index): an independent code path.
/// Release builds skip the check.
fn cross_check(
    pattern: &Pattern,
    output: PNodeId,
    doc: &Document,
    found: impl Iterator<Item = NodeId>,
    what: &str,
) {
    if !cfg!(debug_assertions) {
        return;
    }
    let full: BTreeSet<NodeId> = axml_query::seed_eval(pattern, doc)
        .bindings_of(output)
        .into_iter()
        .collect();
    let mine: BTreeSet<NodeId> = found.collect();
    assert_eq!(
        mine, full,
        "{what} candidates from the guide diverged from full evaluation"
    );
}

/// The label path of `node`'s parent (empty for a root) — the position a
/// call's result is spliced at.
fn parent_labels(doc: &Document, node: NodeId) -> Vec<String> {
    doc.parent(node)
        .map(|p| doc.path_labels(p))
        .unwrap_or_default()
}

/// NFQ `i`'s class verdicts, built on first use.
fn class_verdicts<'m>(
    nfqs: &'m mut HashMap<usize, ClassVerdicts>,
    i: usize,
    nfq: &Nfq,
) -> &'m mut ClassVerdicts {
    nfqs.entry(i)
        .or_insert_with(|| ClassVerdicts::new(position_language(&nfq.lin, nfq.via)))
}

/// Per-run mutable state.
struct Run<'e, 'a, 'q> {
    engine: &'e Engine<'a>,
    query: &'q Pattern,
    /// the engine's plan, iff compiled for exactly this
    /// `(query, schema, config)`: resolved once per run
    plan: Option<&'e CompiledQuery>,
    clock: SimClock,
    stats: EngineStats,
    /// calls that cannot be invoked (unknown services)
    dead: HashSet<CallId>,
    budget: usize,
    total_call_cost_ms: f64,
    /// per-NFQ class verdicts of the position language
    nfqs: HashMap<usize, ClassVerdicts>,
    /// the live calls' visibility and parent-path classes
    guide: FGuide,
    /// the parent label path of every invoked and spliced call
    changed_paths: Vec<Vec<String>>,
    /// reusable evaluator memo tables (the NFQA loop re-evaluates
    /// patterns once per round)
    eval_cache: PlanScratch,
    /// monotone event counter for the structured trace (resets per run)
    seq: u64,
    /// influence layer currently being processed (0 when unlayered)
    layer: usize,
    /// absolute end-to-end deadline on the simulated clock
    deadline: Deadline,
    /// set when a dispatch was refused because the deadline had expired
    /// (or a call burned its whole remaining budget)
    deadline_hit: bool,
    /// per-batch admitted-call counts per service, for the shed gate
    batch_admitted: BTreeMap<String, usize>,
}

impl<'e, 'a, 'q> Run<'e, 'a, 'q> {
    /// A fresh run of `engine` for `query`: the clock, budget and deadline
    /// start from the engine's configuration, every cache starts empty.
    fn new(engine: &'e Engine<'a>, query: &'q Pattern) -> Self {
        Run {
            engine,
            query,
            plan: engine
                .plan
                .as_deref()
                .filter(|p| p.compatible(query, engine.schema, &engine.config)),
            clock: SimClock::at(engine.start_ms),
            stats: EngineStats::default(),
            dead: HashSet::new(),
            budget: engine.config.max_invocations,
            total_call_cost_ms: 0.0,
            nfqs: HashMap::new(),
            guide: FGuide::default(),
            changed_paths: Vec::new(),
            eval_cache: PlanScratch::default(),
            seq: 0,
            layer: 0,
            deadline: Deadline::after(engine.start_ms, engine.config.deadline_ms),
            deadline_hit: false,
            batch_admitted: BTreeMap::new(),
        }
    }

    fn config(&self) -> &EngineConfig {
        &self.engine.config
    }

    /// Whether a trace observer is attached. Callers use this to skip the
    /// clones event construction needs on the hot path.
    fn observing(&self) -> bool {
        self.engine.observer.is_some()
    }

    /// Emits one structured event stamped with the run's current position
    /// (seq, simulated clock, round, layer).
    fn emit(&mut self, kind: EventKind) {
        self.emit_with_cpu(kind, None);
    }

    fn emit_with_cpu(&mut self, kind: EventKind, cpu_ms: Option<f64>) {
        let Some(obs) = self.engine.observer else {
            return;
        };
        let event = Event {
            seq: self.seq,
            sim_ms: self.clock.now_ms(),
            round: self.stats.rounds,
            layer: self.layer,
            cpu_ms,
            kind,
        };
        self.seq += 1;
        obs.emit(&event);
    }

    /// Closes the run's query span: the final accounting, then the
    /// `query_end` event carrying the run's CPU time since `t0`.
    fn close(&mut self, doc: &Document, t0: Instant) {
        self.stats.sim_time_ms = self.clock.now_ms() - self.engine.start_ms;
        self.stats.total_cpu = t0.elapsed();
        self.stats.final_doc_size = doc.len();
        if self.observing() {
            let kind = EventKind::QueryEnd {
                complete: self.stats.is_complete(),
                calls_invoked: self.stats.calls_invoked,
                sim_time_ms: self.stats.sim_time_ms,
            };
            let cpu = self.stats.total_cpu.as_secs_f64() * 1e3;
            self.emit_with_cpu(kind, Some(cpu));
        }
    }

    /// Flags truncation (once) when the run died with relevant candidates
    /// still pending, emitting the matching trace event. Deadline expiry
    /// closes the round with the same sound partial-answer semantics as
    /// invocation-budget exhaustion but a distinct cause — a
    /// `deadline` event and [`EngineStats::deadline_exceeded`].
    fn note_truncation(&mut self, pending: usize) {
        if pending == 0 || self.stats.truncated {
            return;
        }
        if self.deadline_hit || self.deadline.expired(self.clock.now_ms()) {
            self.stats.truncated = true;
            self.stats.deadline_exceeded = true;
            self.emit(EventKind::DeadlineExceeded { pending });
        } else if self.budget == 0 {
            self.stats.truncated = true;
            self.emit(EventKind::Truncated { pending });
        }
    }

    /// The round loop every strategy shares (NFQA, §4.1): detect the
    /// relevant calls, dispatch them, detect again. A strategy supplies
    /// only its detection and its per-round dispatch choice. The loop
    /// stops when detection finds nothing, the invocation budget is spent,
    /// or a round resolves no call; candidates still pending then flag
    /// truncation.
    fn drive(
        &mut self,
        doc: &mut Document,
        mut detect: impl FnMut(&mut Self, &Document) -> (Vec<Candidate>, Pushes),
        mut choose: impl FnMut(&mut Self) -> Dispatch,
    ) {
        loop {
            let (cands, pushes) = detect(self, doc);
            if cands.is_empty() || self.budget == 0 {
                self.note_truncation(cands.len());
                return;
            }
            self.stats.rounds += 1;
            if self.observing() {
                // the sets the laziness oracle replays
                self.emit(EventKind::Candidates {
                    calls: cands.iter().map(|c| c.call.0).collect(),
                    services: cands.iter().map(|c| c.service.clone()).collect(),
                });
            }
            let mode = choose(self);
            if self.dispatch(doc, &cands, &pushes, mode) == 0 {
                // everything left is dead — or undispatchable because the
                // deadline expired
                let pending = cands.iter().filter(|c| !self.dead.contains(&c.call));
                self.note_truncation(pending.count());
                return;
            }
        }
    }

    // ---------------- naive ----------------

    fn run_naive(&mut self, doc: &mut Document) {
        let mode = Dispatch::batch(self.config().parallel);
        self.drive(
            doc,
            |run, doc| (run.visible_calls(doc), Pushes::new()),
            |_| mode,
        );
    }

    /// Calls visible to queries: pre-order, never descending below a call
    /// (parameters are service inputs, not content). Only the naive
    /// strategy walks the document for them, because it needs document
    /// order.
    fn visible_calls(&self, doc: &Document) -> Vec<Candidate> {
        let mut out = Vec::new();
        let mut stack: Vec<NodeId> = doc.roots().iter().rev().copied().collect();
        while let Some(n) = stack.pop() {
            if let Some((id, svc)) = doc.call_info(n) {
                if !self.dead.contains(&id) {
                    out.push(Candidate::new(n, id, svc.to_string()));
                }
                continue;
            }
            for &c in doc.children(n).iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    // ---------------- LPQ / top-down ----------------

    fn run_lpq(&mut self, doc: &mut Document, one_at_a_time: bool) {
        let plan = self.plan;
        let (built, pruned) = match plan {
            Some(p) => (Vec::new(), p.lpq_pruned),
            None => lpq_set(self.query, self.config()),
        };
        self.stats.queries_pruned = pruned;
        let lpqs: &[Lpq] = plan.map_or(&built, |p| &p.lpqs);
        let mut positions: Vec<ClassVerdicts> = lpqs
            .iter()
            .map(|l| ClassVerdicts::new(position_language(&l.lin, l.via)))
            .collect();
        let mode = if one_at_a_time {
            Dispatch::First
        } else {
            Dispatch::batch(self.config().parallel)
        };
        let detect = |run: &mut Self, doc: &Document| {
            let t = Instant::now();
            let mut cands: Vec<Candidate> = Vec::new();
            let mut seen: HashSet<CallId> = HashSet::new();
            for (lpq, at) in lpqs.iter().zip(&mut positions) {
                // §6.2: an LPQ retrieves the same calls on the guide as on
                // the document
                run.stats.relevance_evals += 1;
                let found = run.guide.extent(doc, at, None);
                cross_check(
                    &lpq.pattern,
                    lpq.output,
                    doc,
                    found.iter().map(|c| c.0),
                    "LPQ",
                );
                for (node, id) in found {
                    if !run.dead.contains(&id) && seen.insert(id) {
                        // a call node's label is its service name
                        cands.push(Candidate::new(node, id, doc.label(node).into()));
                    }
                }
            }
            run.stats.relevance_cpu += t.elapsed();
            // the `candidates` event lists LPQ candidates in document order
            cands.sort_by_cached_key(|c| doc.order_key(c.node));
            (cands, Pushes::new())
        };
        self.drive(doc, detect, |_| mode);
    }

    // ---------------- NFQ (NFQA + layers + typing) ----------------

    fn run_nfq(&mut self, doc: &mut Document) {
        let plan = self.plan;
        let (mut nfqs, computed) = match plan {
            Some(p) => {
                // the compiled artifact: NFQs (relaxed/pruned), layers and
                // position languages, from the same builders as the branch
                // below
                self.stats.queries_pruned = p.nfq_pruned;
                for (i, position) in p.pos_nfas.iter().enumerate() {
                    self.nfqs.insert(i, ClassVerdicts::new(position.clone()));
                }
                (p.nfqs.clone(), p.layers.clone())
            }
            None => {
                let (nfqs, pruned) = nfq_set(self.query, self.config());
                self.stats.queries_pruned = pruned;
                let layers = compute_layers(&nfqs);
                (nfqs, layers)
            }
        };
        let layers: Layers = if self.config().layering {
            computed
        } else {
            // a single layer containing everything; check (✳) globally
            let all: Vec<usize> = (0..nfqs.len()).collect();
            let independent =
                computed.layers.len() == nfqs.len() && computed.independent.iter().all(|&b| b);
            Layers {
                layers: vec![all],
                independent: vec![independent],
            }
        };

        let mut refiner =
            typing_mode(self.config().typing, self.engine.schema).map(|(s, mode)| match plan {
                // share the plan's verdict store (keyed by the same
                // (schema, query, typing) triple `compatible` checked)
                Some(p) => TypeRefiner::with_verdicts(s, self.query, mode, p.verdicts.clone()),
                None => TypeRefiner::new(s, self.query, mode),
            });

        if self.config().speculation != Speculation::Off {
            // one layer of every NFQ, no condition (✳)
            let all: Vec<usize> = (0..nfqs.len()).collect();
            self.drive(
                doc,
                |run, doc| run.detect_nfq_candidates(doc, &nfqs, &all, &mut refiner),
                Self::speculative_dispatch,
            );
            return;
        }

        // focus → layer index, for the post-layer simplification
        let mut layer_of: BTreeMap<PNodeId, usize> = BTreeMap::new();
        for (li, layer) in layers.layers.iter().enumerate() {
            for &i in layer {
                layer_of.insert(nfqs[i].focus, li);
            }
        }

        for (li, layer) in layers.layers.iter().enumerate() {
            // NFQA: one relevant call, then re-evaluate — unless the
            // layer's calls are independent (✳) and may go as a batch
            let mode = if layers.independent[li] && self.config().parallel {
                Dispatch::Parallel
            } else {
                Dispatch::First
            };
            self.layer = li;
            self.emit(EventKind::LayerStart {
                nfqs: layer.len(),
                independent: layers.independent[li],
            });
            self.drive(
                doc,
                |run, doc| run.detect_nfq_candidates(doc, &nfqs, layer, &mut refiner),
                |_| mode,
            );
            self.emit(EventKind::LayerEnd);
            // §4.3: drop the `()` side branches guarding positions whose
            // layers are now fully processed; the class verdicts stay, as
            // they depend only on the NFQ's linear path
            for nfq in nfqs.iter_mut() {
                let doomed: Vec<PNodeId> = nfq
                    .fun_branches
                    .iter()
                    .filter(|&&(f, u)| {
                        f != nfq.output && layer_of.get(&u).is_some_and(|&lu| lu <= li)
                    })
                    .map(|&(f, _)| f)
                    .collect();
                if !doomed.is_empty() {
                    for f in &doomed {
                        nfq.pattern.remove_subtree(*f);
                    }
                    nfq.fun_branches.retain(|(f, _)| !doomed.contains(f));
                }
            }
        }
    }

    /// §4.4's closing direction: fire every currently relevant call in one
    /// parallel batch, ignoring the layer order and condition (✳). With
    /// `Speculation::CostBased`, calls go one at a time until the mean
    /// observed call cost reaches the threshold.
    fn speculative_dispatch(&mut self) -> Dispatch {
        let speculate = match self.config().speculation {
            Speculation::Always => true,
            Speculation::CostBased {
                latency_threshold_ms,
            } => {
                self.stats.calls_invoked > 0
                    && self.total_call_cost_ms / self.stats.calls_invoked as f64
                        >= latency_threshold_ms
            }
            Speculation::Off => false,
        };
        if speculate {
            self.stats.speculative_rounds += 1;
            Dispatch::Parallel
        } else {
            Dispatch::First
        }
    }

    /// The calls NFQ `i` retrieves, through one pipeline: the guide's
    /// extent at its position among the calls of the refined output's
    /// services, then §6.2's residual filter. An NFQ with join variables
    /// is evaluated in full instead: the residual filter is join-blind.
    fn retrieve(&mut self, doc: &Document, i: usize, nfq: &Nfq, effective: &Nfq) -> Vec<NodeId> {
        if !nfq.pattern.join_variables().is_empty() {
            let r = eval_with(&effective.pattern, doc, &mut self.eval_cache);
            return r.bindings_of(effective.output);
        }
        let services = output_services(effective, doc);
        let at = class_verdicts(&mut self.nfqs, i, nfq);
        let positional: Vec<NodeId> = self
            .guide
            .extent(doc, at, services.as_deref())
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let got = filter_candidates(effective, doc, &positional);
        cross_check(
            &effective.pattern,
            effective.output,
            doc,
            got.iter().copied(),
            "NFQ",
        );
        got
    }

    /// Evaluates the NFQs of one layer and assembles the candidate set and
    /// the pushed queries (for uniquely-retrieved calls).
    fn detect_nfq_candidates(
        &mut self,
        doc: &Document,
        nfqs: &[Nfq],
        layer: &[usize],
        refiner: &mut Option<TypeRefiner<'_, '_>>,
    ) -> (Vec<Candidate>, Pushes) {
        let t = Instant::now();
        // function names currently in the document (for refinement)
        let known = if refiner.is_some() {
            self.guide.known_services(doc, &self.dead)
        } else {
            Vec::new()
        };
        let mut by_call: BTreeMap<CallId, Candidate> = BTreeMap::new();
        for &i in layer {
            let nfq = &nfqs[i];
            let effective = match refiner.as_mut() {
                Some(r) => match r.refine(nfq, &known) {
                    Some(refined) => refined,
                    None => continue, // no function can ever satisfy v
                },
                None => nfq.clone(),
            };
            self.stats.relevance_evals += 1;
            for node in self.retrieve(doc, i, nfq, &effective) {
                let Some((id, svc)) = doc.call_info(node) else {
                    continue;
                };
                if self.dead.contains(&id) {
                    continue;
                }
                by_call
                    .entry(id)
                    .or_insert_with(|| Candidate::new(node, id, svc.to_string()))
                    .foci
                    .insert(nfq.focus);
            }
        }
        self.stats.relevance_cpu += t.elapsed();

        let mut pushes = BTreeMap::new();
        if self.config().push_queries {
            for cand in by_call.values() {
                // Push only when exactly one query node can justify the
                // call: pruning for one subquery could drop data another
                // needs. The check must range over ALL NFQs — with
                // layering, a later layer's NFQ may also retrieve this
                // call even though only the current layer evaluated it.
                if cand.foci.len() != 1 || !self.engine.registry.supports_push(&cand.service) {
                    continue;
                }
                // every retrieved call is visible, so it has a class
                let Some(class) = self.guide.class_of(doc, cand.node, cand.call) else {
                    continue;
                };
                let positional_foci: BTreeSet<PNodeId> = nfqs
                    .iter()
                    .enumerate()
                    .filter(|&(i, n)| {
                        let at = class_verdicts(&mut self.nfqs, i, n);
                        at.accepts(&self.guide, doc, class)
                    })
                    .map(|(_, n)| n.focus)
                    .collect();
                if positional_foci.len() == 1 {
                    let &focus = cand.foci.iter().next().unwrap();
                    let via = if self.query.parent(focus).is_none() {
                        EdgeKind::Child
                    } else {
                        self.query.node(focus).edge
                    };
                    pushes.insert(
                        cand.call,
                        PushedQuery {
                            pattern: self.query.subtree(focus),
                            via,
                        },
                    );
                }
            }
        }
        (by_call.into_values().collect(), pushes)
    }
}
