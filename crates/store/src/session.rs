//! Sessions: a stream of queries against one stored document, with the
//! call-result cache and the simulated clock persisting across queries.
//!
//! A session never borrows its document exclusively: it holds a handle
//! to the document's version chain ([`VersionedDocument`]), snapshots the
//! currently published version for each query, and evaluates against a
//! private copy-on-write working copy. That is what lets N sessions run
//! concurrently over one store with snapshot isolation — see
//! [`crate::sched`] for the scheduler that drives them.

use crate::cache::{CacheStats, CallCache};
use crate::plan_cache::PlanCache;
use axml_core::{Engine, EngineConfig, EngineStats, EvalReport};
use axml_obs::TraceSink;
use axml_query::{render_result, Pattern};
use axml_schema::Schema;
use axml_services::Registry;
use axml_xml::{DocSnapshot, Document, VersionedDocument};
use std::collections::BTreeSet;
use std::sync::Arc;

/// How a [`Session`] evaluates its queries.
#[derive(Clone, Debug)]
pub struct SessionOptions {
    /// Engine configuration used for every query in the session.
    pub engine: EngineConfig,
    /// When `true` (the default) each query runs on a *snapshot* of the
    /// stored document, so materialized call results do not persist in
    /// the document itself — cross-query reuse flows through the cache
    /// alone, which is the quantity the store is built to measure. When
    /// `false`, queries materialize into the stored document: the working
    /// copy with its spliced results is *published* as the document's next
    /// version, and later queries (of this or any other session) see it.
    pub snapshot_per_query: bool,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            engine: EngineConfig::default(),
            snapshot_per_query: true,
        }
    }
}

impl SessionOptions {
    /// Options with the given engine configuration (snapshot mode).
    pub fn with_engine(engine: EngineConfig) -> Self {
        SessionOptions {
            engine,
            ..SessionOptions::default()
        }
    }
}

/// What one session query produced.
#[derive(Clone, Debug)]
pub struct SessionReport {
    /// Engine measurements for this query alone (`sim_time_ms` is the
    /// time this query added to the session clock).
    pub stats: EngineStats,
    /// Whether the answer is the full answer (see [`EvalReport`]).
    pub complete: bool,
    /// The rendered answer tuples, deduplicated and ordered.
    pub answers: BTreeSet<Vec<String>>,
    /// Cumulative cache counters *after* this query.
    pub cache: CacheStats,
    /// The session's simulated clock *after* this query, in ms.
    pub clock_ms: f64,
    /// The document version this query evaluated against.
    pub doc_version: u64,
}

/// A stream of queries against one document.
///
/// Each query runs through a fresh [`Engine`] wired to the session's
/// shared [`CallCache`] and started at the session's simulated clock, so
/// TTL validity windows measure real (simulated) elapsed time across the
/// whole query sequence: query 3 at clock 950 ms still hits entries
/// cached by query 1 at clock 0 ms if their windows are ≥ 950 ms wide.
///
/// A `deadline_ms` in [`SessionOptions::engine`] is a *per-query* budget,
/// anchored at each query's own start clock — a session at clock 950 ms
/// with a 100 ms deadline gives the next query until 1050 ms. Because
/// cache hits cost zero simulated time, re-asking a deadline-truncated
/// query makes monotone progress through the shared cache (see the
/// `per_query_deadlines_converge_through_the_session_cache` test).
///
/// Every query reads a frozen snapshot of the document's current version
/// (snapshot isolation: concurrent publications never tear a read). In
/// persistent mode the materialized working copy is published as the next
/// version when the query finishes, via compare-and-swap against the
/// version it read: a conflicting concurrent publication triggers a
/// re-snapshot and re-evaluation, so concurrent persistent sessions on
/// one document never discard each other's splices (see
/// [`Session::query`]).
pub struct Session<'a> {
    doc: Arc<VersionedDocument>,
    registry: &'a Registry,
    schema: Option<&'a Schema>,
    cache: Arc<CallCache>,
    plans: Arc<PlanCache>,
    options: SessionOptions,
    observer: Option<&'a dyn TraceSink>,
    clock_ms: f64,
    queries_run: usize,
}

impl<'a> Session<'a> {
    /// A session over `doc` using the given call cache and compiled-plan
    /// cache; the clock starts at 0. Each query fetches its
    /// [`axml_core::CompiledQuery`] from `plans` (compiling on first use)
    /// and hands the plan to the engine, which consults it only when its
    /// compatibility key matches — so a mismatched plan is ignored, never
    /// misapplied. [`crate::DocumentStore::session`] passes the store's
    /// caches.
    pub(crate) fn new(
        doc: Arc<VersionedDocument>,
        registry: &'a Registry,
        schema: Option<&'a Schema>,
        cache: Arc<CallCache>,
        plans: Arc<PlanCache>,
        options: SessionOptions,
    ) -> Self {
        Session {
            doc,
            registry,
            schema,
            cache,
            plans,
            options,
            observer: None,
            clock_ms: 0.0,
            queries_run: 0,
        }
    }

    /// Attaches a structured-trace observer shared by every query in the
    /// session: each query's engine emits into it, producing one stream
    /// of consecutive query spans on the session's (monotone) simulated
    /// clock.
    pub fn with_observer(mut self, observer: &'a dyn TraceSink) -> Self {
        self.observer = Some(observer);
        self
    }

    /// The session's simulated clock, in milliseconds.
    pub fn clock_ms(&self) -> f64 {
        self.clock_ms
    }

    /// Queries evaluated so far.
    pub fn queries_run(&self) -> usize {
        self.queries_run
    }

    /// A snapshot of the currently published version of the document this
    /// session evaluates against.
    pub fn doc(&self) -> DocSnapshot {
        self.doc.snapshot()
    }

    /// The document's version chain (shared with the store and with any
    /// concurrent sessions over the same document).
    pub fn versioned(&self) -> &Arc<VersionedDocument> {
        &self.doc
    }

    /// The shared call cache.
    pub fn cache(&self) -> &Arc<CallCache> {
        &self.cache
    }

    /// Advances the simulated clock by `ms` without running a query —
    /// models idle time between queries, during which cached entries age
    /// toward their validity horizons.
    pub fn advance_clock(&mut self, ms: f64) {
        assert!(ms >= 0.0, "the simulated clock cannot run backwards");
        self.clock_ms += ms;
    }

    /// Evaluates one query at the session's current clock and advances
    /// the clock by the simulated time the evaluation consumed.
    ///
    /// In persistent mode the materialized working copy is published
    /// with a compare-and-swap against the version the query read: if a
    /// concurrent session published first, this session re-snapshots the
    /// winner and re-evaluates on top of it, so no publication is ever
    /// silently discarded (no lost updates). Retries are cheap — the
    /// losing attempt warmed the shared cache, so the re-evaluation's
    /// calls are mostly zero-cost hits — and under a scheduler run they
    /// are finite: every conflict means some other query published, and
    /// a run publishes at most once per query. The clock advances for
    /// every attempt (the work was performed); the report describes the
    /// attempt that won.
    pub fn query(&mut self, query: &Pattern) -> SessionReport {
        // one fetch per query() call: the plan key is fixed across CAS
        // retries, so conflict re-evaluations reuse the same plan
        let plan = self.plans.fetch(query, self.schema, &self.options.engine);
        loop {
            let mut engine = Engine::new(self.registry, self.options.engine.clone())
                .with_cache(self.cache.as_ref())
                .with_plan(Arc::clone(&plan))
                .starting_at(self.clock_ms);
            if let Some(schema) = self.schema {
                engine = engine.with_schema(schema);
            }
            if let Some(observer) = self.observer {
                engine = engine.with_observer(observer);
            }
            let snapshot = self.doc.snapshot();
            let doc_version = snapshot.version();
            let mut working = snapshot.to_document();
            let report = engine.evaluate(&mut working, query);
            self.clock_ms += report.stats.sim_time_ms;
            if !self.options.snapshot_per_query {
                // materialize: publish the spliced working copy as the
                // next version so later queries find no calls left to
                // invoke — but only if nobody published since our
                // snapshot (the clone is O(pages): COW page pointers).
                if self.doc.publish_if(doc_version, working.clone()).is_err() {
                    continue;
                }
            }
            self.queries_run += 1;
            return self.package(&working, report, doc_version);
        }
    }

    fn package(&self, doc: &Document, report: EvalReport, doc_version: u64) -> SessionReport {
        let answers: BTreeSet<Vec<String>> =
            render_result(doc, &report.result).into_iter().collect();
        SessionReport {
            stats: report.stats,
            complete: report.complete,
            answers,
            cache: self.cache.stats(),
            clock_ms: self.clock_ms,
            doc_version,
        }
    }
}
