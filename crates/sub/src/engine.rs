//! The subscription engine: standing queries over one stored document,
//! maintained as service results stream in.
//!
//! Two halves, usable together (feed mode) or separately:
//!
//! * **refresh** — the producer. Keeps the engine's last published
//!   *materialization* of its base document (the original, calls
//!   intact) and, at each pass, puts back every base call whose result
//!   there was built from a cache entry that has since expired. Then it
//!   completes that copy for every standing query
//!   ([`axml_core::Engine::complete_for`], no answer is evaluated)
//!   through the store's shared [`CallCache`]: the put-back calls are
//!   really re-invoked and may answer differently, while every result
//!   still valid stays where it is, unprobed. When any real
//!   re-invocation happened, the copy is published as the document's next
//!   version, *tagged* with the classes (F-guide nodes: parent label
//!   paths) of the calls it restored or spliced — the change scope
//!   downstream consumers filter on — and becomes the materialization.
//!
//! * **reconcile** — the consumer. Each subscription holds a watermark
//!   (the last document version it delivered) and catches up via
//!   [`VersionedDocument::publications_since`]. A publication whose
//!   tagged classes, read against its own document, cannot affect the
//!   query (its [`QueryScope`]) is skipped without evaluation; otherwise
//!   the published version is evaluated and the answer difference is
//!   emitted as a [`Delta`].
//!   When the publication history has evicted the records a subscriber
//!   needs — or a publication carries no change tags — reconciliation
//!   degrades *soundly* to a full re-evaluation, never to a stale
//!   answer.
//!
//! [`SubscriptionEngine::run_until`] drives both on a schedule derived
//! from the cache's TTL horizon ([`CallCache::earliest_expiry`]): the
//! clock jumps to the next validity lapse, refreshes, reconciles, and
//! repeats — so refresh work happens exactly when some cached answer
//! may have gone stale, not on a blind polling loop.

use crate::delta::Delta;
use crate::materialization::Materialization;
use axml_core::{Engine, EngineConfig, QueryScope};
use axml_obs::{Event, EventKind, TraceSink};
use axml_query::{render, render_result, Pattern};
use axml_schema::Schema;
use axml_services::Registry;
use axml_store::{CallCache, DocumentStore, DurabilityManager, PlanCache};
use axml_xml::{CatchUp, Document, VersionedDocument};
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::sync::Arc;

/// How a [`SubscriptionEngine`] refreshes and delivers.
#[derive(Clone, Debug)]
pub struct SubscriptionOptions {
    /// Engine configuration used for every evaluation (initial answers,
    /// refreshes and reconciliations).
    pub engine: EngineConfig,
    /// Publication-history ring capacity enabled on the watched document
    /// (see [`VersionedDocument::enable_history`]). Subscribers that fall
    /// more than this many publications behind degrade to a full
    /// re-evaluation.
    pub history_capacity: usize,
    /// Idle tick of [`SubscriptionEngine::run_until`], in simulated ms:
    /// how far the clock advances when no cached entry is due to lapse.
    pub watch_ms: f64,
    /// Guardrail: total real re-invocations each subscription's refresh
    /// work may perform over the engine's lifetime, `None` for no bound.
    /// Exhausted subscriptions stop driving refreshes (deltas published
    /// by other subscriptions' refreshes are still delivered).
    pub max_refires: Option<usize>,
    /// Guardrail: real invocations one refresh evaluation may perform
    /// (bounds recursive call chains per refresh; the engine's own
    /// `max_invocations` still applies on top).
    pub refresh_depth: usize,
}

impl Default for SubscriptionOptions {
    fn default() -> Self {
        SubscriptionOptions {
            engine: EngineConfig::default(),
            history_capacity: 64,
            watch_ms: 100.0,
            max_refires: None,
            refresh_depth: usize::MAX,
        }
    }
}

/// Aggregate counters of one [`SubscriptionEngine`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SubscriptionEngineStats {
    /// Refresh passes run.
    pub refreshes: usize,
    /// Refresh passes that published a new document version.
    pub publications: usize,
    /// Real re-invocations performed by refresh work.
    pub refresh_invocations: usize,
    /// Deltas emitted across all subscriptions.
    pub deltas_emitted: usize,
    /// Published versions skipped without evaluation because their
    /// tagged classes were outside a subscription's scope.
    pub versions_skipped: usize,
    /// Reconciliations that evaluated a version because its change scope
    /// was unknown (untagged publication).
    pub full_reevals: usize,
    /// Catch-ups that degraded to a full re-evaluation because the
    /// publication history had evicted the needed records.
    pub degradations: usize,
    /// Answer rows added across all deltas.
    pub rows_added: usize,
    /// Answer rows removed across all deltas.
    pub rows_removed: usize,
    /// Real CPU spent in [`SubscriptionEngine::refresh`] (the producer
    /// side: pumping the feed and publishing versions), in ms.
    pub refresh_cpu_ms: f64,
    /// Real CPU spent in [`SubscriptionEngine::reconcile`] (the consumer
    /// side: scope-filtered catch-up evaluation and delta diffing), in
    /// ms. E16 compares this against full re-evaluation of every
    /// subscription at every version.
    pub reconcile_cpu_ms: f64,
}

/// One subscription's public state (see [`SubscriptionEngine::status`]).
#[derive(Clone, Debug)]
pub struct SubscriptionStatus {
    /// The subscription's name.
    pub name: String,
    /// The standing query, rendered.
    pub query: String,
    /// Last document version delivered.
    pub watermark: u64,
    /// Rows in the current answer.
    pub rows: usize,
    /// Deltas emitted so far.
    pub deltas_emitted: usize,
    /// Published versions skipped by the scope filter.
    pub versions_skipped: usize,
    /// Real re-invocations still allowed for this subscription's
    /// refresh work, `None` when unbounded.
    pub refires_left: Option<usize>,
}

struct SubState {
    name: String,
    query: Pattern,
    query_text: String,
    scope: QueryScope,
    watermark: u64,
    answers: BTreeSet<Vec<String>>,
    refires_left: Option<usize>,
    deltas_emitted: usize,
    versions_skipped: usize,
}

/// Standing queries over one versioned document, with delta delivery.
pub struct SubscriptionEngine<'a> {
    doc: Arc<VersionedDocument>,
    /// the last published materialization, with the base it started from
    materialized: Materialization,
    registry: &'a Registry,
    schema: Option<&'a Schema>,
    cache: Arc<CallCache>,
    plans: Arc<PlanCache>,
    durability: Option<(Arc<DurabilityManager>, String)>,
    options: SubscriptionOptions,
    subs: Vec<SubState>,
    observer: Option<&'a dyn TraceSink>,
    clock_ms: f64,
    event_seq: u64,
    pending_lapse: Option<f64>,
    stats: SubscriptionEngineStats,
}

impl<'a> SubscriptionEngine<'a> {
    /// An engine over the document stored under `name`, sharing the
    /// store's call cache and compiled-plan cache: every evaluation
    /// fetches its [`axml_core::CompiledQuery`] from the latter. Enables
    /// publication history on the document (capacity from the options).
    /// On a durable store every watermark advance is appended to the
    /// document's write-ahead log as a `watermark` record, so a recovered
    /// store can re-anchor subscriptions (see
    /// [`SubscriptionEngine::subscribe_from`]). `None` when the store has
    /// no such document.
    pub fn over_store(
        store: &DocumentStore,
        name: &str,
        registry: &'a Registry,
        schema: Option<&'a Schema>,
        options: SubscriptionOptions,
    ) -> Option<Self> {
        let doc = Arc::clone(store.versioned(name)?);
        assert!(options.watch_ms > 0.0, "watch_ms must be positive");
        doc.enable_history(options.history_capacity);
        let materialized = Materialization::of(doc.snapshot().to_document());
        Some(SubscriptionEngine {
            doc,
            materialized,
            registry,
            schema,
            cache: Arc::clone(store.cache()),
            plans: Arc::clone(store.plans()),
            durability: (store.durability()).map(|manager| (Arc::clone(manager), name.to_string())),
            options,
            subs: Vec::new(),
            observer: None,
            clock_ms: 0.0,
            event_seq: 0,
            pending_lapse: None,
            stats: SubscriptionEngineStats::default(),
        })
    }

    /// Attaches a structured-trace observer: refresh evaluations emit
    /// their query spans into it and the engine adds
    /// `subscription_start` / `subscription_delta` events of its own.
    pub fn with_observer(mut self, observer: &'a dyn TraceSink) -> Self {
        self.observer = Some(observer);
        self
    }

    /// The engine's simulated clock, in ms.
    pub fn clock_ms(&self) -> f64 {
        self.clock_ms
    }

    /// Advances the simulated clock by `ms` without doing work — models
    /// idle time during which cached entries age toward their horizons.
    pub fn advance_clock(&mut self, ms: f64) {
        assert!(ms >= 0.0, "the simulated clock cannot run backwards");
        self.clock_ms += ms;
    }

    /// Aggregate counters.
    pub fn stats(&self) -> &SubscriptionEngineStats {
        &self.stats
    }

    /// Public state of every subscription, in registration order.
    pub fn status(&self) -> Vec<SubscriptionStatus> {
        self.subs
            .iter()
            .map(|s| SubscriptionStatus {
                name: s.name.clone(),
                query: s.query_text.clone(),
                watermark: s.watermark,
                rows: s.answers.len(),
                deltas_emitted: s.deltas_emitted,
                versions_skipped: s.versions_skipped,
                refires_left: s.refires_left,
            })
            .collect()
    }

    /// The named subscription's current answer.
    pub fn answers(&self, name: &str) -> Option<&BTreeSet<Vec<String>>> {
        self.subs
            .iter()
            .find(|s| s.name == name)
            .map(|s| &s.answers)
    }

    /// Registers a standing query and computes its initial answer at the
    /// document's currently published version (through the shared cache,
    /// at the engine's clock). Returns the initial answer.
    ///
    /// Panics if a subscription with the same name already exists.
    pub fn subscribe(&mut self, name: impl Into<String>, query: Pattern) -> BTreeSet<Vec<String>> {
        let name = name.into();
        self.assert_unused(&name);
        let snapshot = self.doc.snapshot();
        let watermark = snapshot.version();
        let mut working = snapshot.to_document();
        let (answers, sim_ms) = self.run_engine(&mut working, &query, self.options.engine.clone());
        self.clock_ms += sim_ms;
        self.register(name, query, watermark, answers.clone());
        self.persist_watermark(self.subs.len() - 1);
        answers
    }

    /// Re-registers a standing query after crash recovery, anchored at
    /// the `watermark` persisted in the document's write-ahead log
    /// (see `DocumentStore::recovered_watermark`).
    ///
    /// When the watermark already matches the recovered version this is
    /// an exact resume (identical to [`subscribe`]). When it is older —
    /// the watermark record for later deliveries was lost with the
    /// unsynced tail — the subscription starts with no answer state at
    /// the stale watermark, and the next [`reconcile`] degrades soundly
    /// to a full re-evaluation (the recovered history floor sits at the
    /// recovered version, so catch-up can never silently skip the gap):
    /// the subscriber gets one `full_reeval` delta rebuilding its state
    /// rather than a stale answer.
    ///
    /// [`subscribe`]: SubscriptionEngine::subscribe
    /// [`reconcile`]: SubscriptionEngine::reconcile
    pub fn subscribe_from(
        &mut self,
        name: impl Into<String>,
        query: Pattern,
        watermark: u64,
    ) -> BTreeSet<Vec<String>> {
        if watermark >= self.doc.version() {
            return self.subscribe(name, query);
        }
        let name = name.into();
        self.assert_unused(&name);
        self.register(name, query, watermark, BTreeSet::new());
        BTreeSet::new()
    }

    /// Panics if a subscription is named `name`.
    fn assert_unused(&self, name: &str) {
        assert!(
            self.subs.iter().all(|s| s.name != name),
            "duplicate subscription name {name:?}"
        );
    }

    /// Adds a subscription whose answer at `watermark` is `answers`, with
    /// its rendered query and scope, and traces its start.
    fn register(
        &mut self,
        name: String,
        query: Pattern,
        watermark: u64,
        answers: BTreeSet<Vec<String>>,
    ) {
        let query_text = render(&query);
        self.emit(EventKind::SubscriptionStart {
            subscription: name.clone(),
            query: query_text.clone(),
            initial: answers.len(),
        });
        self.subs.push(SubState {
            name,
            scope: QueryScope::of(&query),
            query,
            query_text,
            watermark,
            answers,
            refires_left: self.options.max_refires,
            deltas_emitted: 0,
            versions_skipped: 0,
        });
    }

    fn persist_watermark(&self, sub_idx: usize) {
        if let Some((manager, doc)) = &self.durability {
            manager.record_watermark(doc, &self.subs[sub_idx].name, self.subs[sub_idx].watermark);
        }
    }

    /// One refresh pass: brings the last published materialization up to
    /// date for every (non-exhausted) standing query, without evaluating
    /// any answer. Every base call whose result there was built from a
    /// cache entry that has expired by the clock at the start of the pass
    /// is put back in place of its result; then each standing query is
    /// completed on that copy through the shared cache
    /// ([`Engine::complete_for`]). When any call was really re-invoked,
    /// publishes the copy as the document's next version, tagged with the
    /// classes of the calls it restored or spliced (every place where it
    /// differs from the materialization it came from), and keeps it as the
    /// materialization. Returns the published version, or `None` when
    /// nothing was invoked.
    ///
    /// The first refresh starts from the base document, where every call
    /// is pending. A result whose entries are still valid stays in place
    /// even when no standing query needs it any more: tree patterns are
    /// positive, so a result no query finds relevant cannot change an
    /// answer. An entry that expires during the pass's own simulated
    /// network time is left to the next pass.
    ///
    /// If a guardrail (`refresh_depth`, `max_refires`, or the engine's
    /// own invocation budget) truncates a completion — or any refresh
    /// completion is otherwise *incomplete* (a failed call, an open
    /// circuit breaker refusing a refreshed service mid-round, an
    /// unknown service) — the whole round is abandoned: a partial
    /// materialization is never published, so the history only ever
    /// holds versions whose answers are complete, and the materialization
    /// stays as it was. A *truncated* subscription is marked exhausted
    /// and skipped by later refreshes; a merely incomplete one (e.g.
    /// breaker open) keeps its refire budget and is retried on the next
    /// round, when the breaker may have half-opened. Either way the
    /// successful re-invocations stay warm in the cache, so the retry
    /// only re-pays the failed calls.
    ///
    /// Feed mode assumes this engine is the document's only publisher;
    /// a concurrent publication triggers a retry from the same
    /// materialization.
    pub fn refresh(&mut self) -> Option<u64> {
        let t0 = std::time::Instant::now();
        let out = self.refresh_inner();
        self.stats.refresh_cpu_ms += t0.elapsed().as_secs_f64() * 1000.0;
        out
    }

    fn refresh_inner(&mut self) -> Option<u64> {
        self.stats.refreshes += 1;
        let start_ms = self.clock_ms;
        let mut invoked = false;
        loop {
            let base_version = self.doc.version();
            let mut round = self.materialized.round(start_ms);
            let mut truncated = false;
            let mut incomplete = false;
            for i in 0..self.subs.len() {
                let left = self.subs[i].refires_left;
                if left == Some(0) {
                    continue;
                }
                let mut config = self.options.engine.clone();
                config.max_invocations = config
                    .max_invocations
                    .min(self.options.refresh_depth)
                    .min(left.unwrap_or(usize::MAX));
                let done = self
                    .engine(&self.subs[i].query, config)
                    .complete_for(&mut round.doc, &self.subs[i].query);
                self.materialized.record(&mut round, &done.splices);
                let stats = done.stats;
                self.clock_ms += stats.sim_time_ms;
                self.stats.refresh_invocations += stats.calls_invoked;
                let sub = &mut self.subs[i];
                sub.refires_left = left.map(|n| n.saturating_sub(stats.calls_invoked));
                if stats.truncated {
                    sub.refires_left = Some(0);
                    truncated = true;
                }
                if !stats.is_complete() {
                    incomplete = true;
                }
            }
            invoked |= round.invoked;
            if truncated || incomplete || !invoked {
                return None;
            }
            // The round restored lapsed calls as well as splicing, and a
            // restore is no splice: the publication states no splices,
            // so a durable store logs it as a checkpoint.
            let (doc, classes) = (round.doc.clone(), Some(round.changed_classes()));
            match self.doc.publish_if(base_version, doc, None, classes) {
                Ok(version) => {
                    self.materialized.adopt(round);
                    self.stats.publications += 1;
                    return Some(version);
                }
                Err(_) => continue,
            }
        }
    }

    /// One reconcile pass: catches every subscription up to the
    /// document's currently published version, emitting a [`Delta`] for
    /// each version that changed its answer. Versions whose tagged
    /// classes fall outside a subscription's scope are skipped without
    /// evaluation; untagged or history-evicted catch-ups degrade to a
    /// full re-evaluation.
    pub fn reconcile(&mut self) -> Vec<Delta> {
        let t0 = std::time::Instant::now();
        let out = self.reconcile_inner();
        self.stats.reconcile_cpu_ms += t0.elapsed().as_secs_f64() * 1000.0;
        out
    }

    fn reconcile_inner(&mut self) -> Vec<Delta> {
        let mut out = Vec::new();
        for i in 0..self.subs.len() {
            let watermark_before = self.subs[i].watermark;
            match self.doc.publications_since(self.subs[i].watermark) {
                CatchUp::Degraded(snapshot) => {
                    let version = snapshot.version();
                    if version == self.subs[i].watermark {
                        continue;
                    }
                    self.stats.degradations += 1;
                    let mut working = snapshot.to_document();
                    let (answers, sim_ms) = self.run_engine(
                        &mut working,
                        &self.subs[i].query,
                        self.options.engine.clone(),
                    );
                    self.clock_ms += sim_ms;
                    if let Some(d) = self.deliver(i, version, answers, true) {
                        out.push(d);
                    }
                    self.subs[i].watermark = version;
                }
                CatchUp::Records(records) => {
                    for record in records {
                        let relevant = match &record.changed_classes {
                            Some(classes) => self.subs[i].scope.may_affect(&record.doc, classes),
                            None => true,
                        };
                        let full = record.changed_classes.is_none();
                        if !relevant {
                            self.subs[i].versions_skipped += 1;
                            self.stats.versions_skipped += 1;
                            self.subs[i].watermark = record.version;
                            continue;
                        }
                        if full {
                            self.stats.full_reevals += 1;
                        }
                        let mut working = (*record.doc).clone();
                        let (answers, sim_ms) = self.run_engine(
                            &mut working,
                            &self.subs[i].query,
                            self.options.engine.clone(),
                        );
                        self.clock_ms += sim_ms;
                        if let Some(d) = self.deliver(i, record.version, answers, full) {
                            out.push(d);
                        }
                        self.subs[i].watermark = record.version;
                    }
                }
            }
            // One watermark record per sub per pass (not per version):
            // recovery only needs the final anchor, and losing it merely
            // degrades to a full re-evaluation.
            if self.subs[i].watermark != watermark_before {
                self.persist_watermark(i);
            }
        }
        out
    }

    /// Drives refresh + reconcile until the simulated clock reaches
    /// `t_end_ms`. The clock jumps to the next cache-validity lapse when
    /// one is due (so refresh work happens exactly when cached answers
    /// may have gone stale), or by `watch_ms` idle ticks otherwise.
    /// Returns every delta emitted, in order.
    ///
    /// `t_end_ms` must be finite and non-negative: an infinite horizon
    /// never returns, and a NaN one returns at once having done nothing.
    /// An idle tick too small to move the clock at `t_end_ms`
    /// (`t_end_ms + watch_ms == t_end_ms`) cannot carry the clock there:
    /// the ticks would stall below `t_end_ms` or take on the order of
    /// 2^52 steps. When such a tick is due, `run_until` returns instead.
    pub fn run_until(&mut self, t_end_ms: f64) -> Vec<Delta> {
        let mut out = Vec::new();
        while self.clock_ms < t_end_ms {
            let lapse = self.cache.earliest_expiry().filter(|&e| e <= t_end_ms);
            let target = match lapse {
                Some(e) => e.max(self.clock_ms),
                None if t_end_ms + self.options.watch_ms == t_end_ms => break,
                None => self.clock_ms + self.options.watch_ms,
            };
            if target > t_end_ms {
                break;
            }
            self.clock_ms = self.clock_ms.max(target);
            self.pending_lapse = lapse;
            self.refresh();
            out.extend(self.reconcile());
            self.pending_lapse = None;
            // drop entries that lapsed but were not re-armed by any
            // subscription's refresh (e.g. other tenants' calls), so the
            // expiry horizon always moves forward
            self.cache.purge_expired(self.clock_ms);
        }
        out
    }

    fn deliver(
        &mut self,
        sub_idx: usize,
        version: u64,
        new_answers: BTreeSet<Vec<String>>,
        full_reeval: bool,
    ) -> Option<Delta> {
        let old = std::mem::take(&mut self.subs[sub_idx].answers);
        let (added, removed) = diff_answers(old, &new_answers);
        self.subs[sub_idx].answers = new_answers;
        if added.is_empty() && removed.is_empty() {
            return None;
        }
        let delta = Delta {
            subscription: self.subs[sub_idx].name.clone(),
            version,
            sim_ms: self.clock_ms,
            changed: Delta::count_changed(&added, &removed),
            added,
            removed,
            full_reeval,
            latency_ms: self.pending_lapse.map(|l| self.clock_ms - l),
        };
        self.subs[sub_idx].deltas_emitted += 1;
        self.stats.deltas_emitted += 1;
        self.stats.rows_added += delta.added.len();
        self.stats.rows_removed += delta.removed.len();
        self.emit(EventKind::SubscriptionDelta {
            subscription: delta.subscription.clone(),
            version: delta.version,
            added: delta.added.len(),
            removed: delta.removed.len(),
            changed: delta.changed,
            full_reeval: delta.full_reeval,
        });
        Some(delta)
    }

    /// An engine at this engine's clock, wired to the shared call cache,
    /// `query`'s compiled plan, the schema and the observer.
    fn engine(&self, query: &Pattern, config: EngineConfig) -> Engine<'_> {
        let plan = self.plans.fetch(query, self.schema, &config);
        let mut engine = Engine::new(self.registry, config)
            .with_cache(self.cache.as_ref())
            .with_plan(plan)
            .starting_at(self.clock_ms);
        if let Some(schema) = self.schema {
            engine = engine.with_schema(schema);
        }
        if let Some(observer) = self.observer {
            engine = engine.with_observer(observer);
        }
        engine
    }

    /// Evaluates `query` on `working` at the engine's clock; returns the
    /// rendered answer and the simulated time the evaluation took.
    fn run_engine(
        &self,
        working: &mut Document,
        query: &Pattern,
        config: EngineConfig,
    ) -> (BTreeSet<Vec<String>>, f64) {
        let report = self.engine(query, config).evaluate(working, query);
        let answers = render_result(working, &report.result).into_iter().collect();
        (answers, report.stats.sim_time_ms)
    }

    fn emit(&mut self, kind: EventKind) {
        if let Some(observer) = self.observer {
            self.event_seq += 1;
            observer.emit(&Event {
                seq: self.event_seq,
                sim_ms: self.clock_ms,
                round: 0,
                layer: 0,
                cpu_ms: None,
                kind,
            });
        }
    }
}

/// The rows only `new` holds and the rows only `old` holds, each in
/// order, by one merge pass over the two sorted sets. Removed rows move
/// out of `old`; added rows are copied, since `new` stays the standing
/// answer.
fn diff_answers(
    old: BTreeSet<Vec<String>>,
    new: &BTreeSet<Vec<String>>,
) -> (Vec<Vec<String>>, Vec<Vec<String>>) {
    let (mut added, mut removed) = (Vec::new(), Vec::new());
    let mut old = old.into_iter().peekable();
    let mut new = new.iter().peekable();
    loop {
        match (old.peek(), new.peek()) {
            (Some(o), Some(n)) => match o.cmp(n) {
                Ordering::Less => removed.extend(old.next()),
                Ordering::Greater => added.extend(new.next().cloned()),
                Ordering::Equal => {
                    old.next();
                    new.next();
                }
            },
            (Some(_), None) => removed.extend(old.by_ref()),
            (None, Some(_)) => added.extend(new.by_ref().cloned()),
            (None, None) => return (added, removed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(rows: &[&str]) -> BTreeSet<Vec<String>> {
        rows.iter()
            .map(|r| r.split(',').map(str::to_string).collect())
            .collect()
    }

    /// The one-pass diff gives the two differences, each in order, with
    /// rows added, removed and kept, and with either side empty.
    #[test]
    fn answer_diff_matches_the_two_set_differences() {
        let cases = [
            (
                rows(&["a,1", "b,2", "d,4"]),
                rows(&["b,2", "c,3", "d,5", "e,1"]),
            ),
            (rows(&[]), rows(&["a,1", "b,2"])),
            (rows(&["a,1", "b,2"]), rows(&[])),
            (rows(&[]), rows(&[])),
            (rows(&["a,1", "b,2"]), rows(&["a,1", "b,2"])),
            (rows(&["z,9"]), rows(&["a,1"])),
        ];
        for (old, new) in cases {
            let expected_added: Vec<Vec<String>> = new.difference(&old).cloned().collect();
            let expected_removed: Vec<Vec<String>> = old.difference(&new).cloned().collect();
            let (added, removed) = diff_answers(old.clone(), &new);
            assert_eq!(added, expected_added, "{old:?} -> {new:?}");
            assert_eq!(removed, expected_removed, "{old:?} -> {new:?}");
        }
    }
}
