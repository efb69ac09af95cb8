//! The session scheduler: N sessions, one store, bounded workers.
//!
//! Two modes share one outcome shape:
//!
//! * [`SchedulerMode::Concurrent`] — a pool of real worker threads over
//!   one run queue. A worker pops a session, runs its next query without
//!   holding the queue's lock, and pushes the session back; it waits on
//!   the queue's condvar while the queue is empty and exits once no
//!   session is live.
//! * [`SchedulerMode::DeterministicSeeded`] — a single thread picks the
//!   next runnable session with a seeded [SplitMix64] generator and
//!   records the resulting interleaving as a [`ScheduleEntry`] list. The
//!   same seed always produces the same schedule, and the recorded
//!   schedule can be replayed serially with
//!   [`DocumentStore::serve_schedule`] — the serial-replay test oracle:
//!   a correct implementation produces *identical per-session outcomes*
//!   when the same schedule runs again on a fresh, identically-seeded
//!   world.
//!
//! Correctness leans on two properties established elsewhere: snapshot
//! isolation (every query reads one frozen [`axml_xml::VersionedDocument`]
//! version — no torn splices) and cache answer-invisibility (a cache hit
//! changes cost, never answers), which together make per-session answers
//! independent of the interleaving for fault-free registries.
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c

use crate::session::{Session, SessionOptions};
use crate::store::DocumentStore;
use axml_obs::TraceSink;
use axml_query::Pattern;
use axml_schema::Schema;
use axml_services::Registry;
use std::collections::{BTreeSet, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// One tenant's workload: a named stream of queries against one stored
/// document.
#[derive(Clone, Debug)]
pub struct SessionSpec {
    /// Session label (reported back in the [`SessionOutcome`]).
    pub name: String,
    /// Name of the document in the store this session queries.
    pub document: String,
    /// The queries, run in order.
    pub queries: Vec<Pattern>,
    /// Per-session evaluation options.
    pub options: SessionOptions,
}

impl SessionSpec {
    /// A spec with default options.
    pub fn new(
        name: impl Into<String>,
        document: impl Into<String>,
        queries: Vec<Pattern>,
    ) -> Self {
        SessionSpec {
            name: name.into(),
            document: document.into(),
            queries,
            options: SessionOptions::default(),
        }
    }
}

/// How [`DocumentStore::serve`] interleaves sessions.
#[derive(Clone, Debug)]
pub enum SchedulerMode {
    /// Real concurrency: `workers` threads over one run queue.
    Concurrent {
        /// Worker threads (clamped to ≥ 1).
        workers: usize,
    },
    /// Single-threaded, seed-determined interleaving; records the
    /// schedule it played for serial replay.
    DeterministicSeeded {
        /// The interleaving seed.
        seed: u64,
    },
}

/// One step of a deterministic schedule: session `session` ran its query
/// number `query`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduleEntry {
    /// Index into the spec list.
    pub session: usize,
    /// Query index within that session.
    pub query: usize,
}

/// What one scheduled query produced (the interleaving-independent
/// projection of a [`crate::session::SessionReport`]).
#[derive(Clone, Debug, PartialEq)]
pub struct QueryOutcome {
    /// Rendered answer tuples, deduplicated and ordered.
    pub answers: BTreeSet<Vec<String>>,
    /// Whether the answer was complete.
    pub complete: bool,
    /// Service calls this query actually invoked.
    pub calls_invoked: usize,
    /// Cache hits this query observed.
    pub cache_hits: usize,
    /// Simulated time this query consumed.
    pub sim_time_ms: f64,
    /// Real wall-clock latency of the query, in milliseconds.
    pub wall_ms: f64,
    /// The document version the query evaluated against.
    pub doc_version: u64,
}

/// All outcomes of one session, in query order.
#[derive(Clone, Debug)]
pub struct SessionOutcome {
    /// The spec's session label.
    pub name: String,
    /// Per-query outcomes (same length and order as the spec's queries).
    pub queries: Vec<QueryOutcome>,
    /// The session's simulated clock after its last query.
    pub clock_ms: f64,
}

/// What a whole [`DocumentStore::serve`] run produced.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Per-session outcomes, in spec order.
    pub sessions: Vec<SessionOutcome>,
    /// The interleaving that was played (deterministic mode only; empty
    /// for the concurrent pool, whose interleaving is nondeterministic).
    pub schedule: Vec<ScheduleEntry>,
    /// Real wall-clock duration of the whole run, in milliseconds.
    pub wall_ms: f64,
    /// Total queries across all sessions.
    pub total_queries: usize,
}

impl ServeReport {
    /// Aggregate throughput over the whole run.
    pub fn queries_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            return 0.0;
        }
        self.total_queries as f64 / (self.wall_ms / 1000.0)
    }

    /// Per-query wall-clock latencies folded into an `axml-obs`
    /// histogram (for p50/p99 reporting).
    pub fn latency_histogram(&self) -> axml_obs::Histogram {
        let mut h = axml_obs::Histogram::default();
        for s in &self.sessions {
            for q in &s.queries {
                h.record(q.wall_ms);
            }
        }
        h
    }

    /// The interleaving-independent projection used by the serial-replay
    /// oracle: per-session answers, completeness and invocation effort.
    pub fn answers_by_session(&self) -> Vec<(String, Vec<BTreeSet<Vec<String>>>)> {
        self.sessions
            .iter()
            .map(|s| {
                (
                    s.name.clone(),
                    s.queries.iter().map(|q| q.answers.clone()).collect(),
                )
            })
            .collect()
    }
}

/// SplitMix64 — tiny, seedable, good enough to diversify interleavings.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A session moving through the scheduler, together with what it has
/// produced so far. Owned by the run queue or by one worker at a time.
struct Running<'a> {
    idx: usize,
    session: Session<'a>,
    outcomes: Vec<QueryOutcome>,
}

impl Running<'_> {
    /// Runs the session's next query; returns `true` while queries remain.
    fn step(&mut self, specs: &[SessionSpec]) -> bool {
        let qidx = self.outcomes.len();
        let q = &specs[self.idx].queries[qidx];
        let t0 = Instant::now();
        let report = self.session.query(q);
        self.outcomes.push(QueryOutcome {
            answers: report.answers,
            complete: report.complete,
            calls_invoked: report.stats.calls_invoked,
            cache_hits: report.stats.cache_hits,
            sim_time_ms: report.stats.sim_time_ms,
            wall_ms: t0.elapsed().as_secs_f64() * 1000.0,
            doc_version: report.doc_version,
        });
        self.outcomes.len() < specs[self.idx].queries.len()
    }

    fn finish(self, specs: &[SessionSpec]) -> (usize, SessionOutcome) {
        (
            self.idx,
            SessionOutcome {
                name: specs[self.idx].name.clone(),
                clock_ms: self.session.clock_ms(),
                queries: self.outcomes,
            },
        )
    }
}

/// The concurrent pool's shared state: the sessions waiting for a
/// worker, and how many sessions have queries left (waiting or running).
struct RunQueue<'a> {
    ready: VecDeque<Running<'a>>,
    live: usize,
}

impl<'a> RunQueue<'a> {
    /// One worker's loop over the queue and its condvar. Returns the
    /// sessions this worker retired.
    fn work(
        pool: &(Mutex<RunQueue<'a>>, Condvar),
        specs: &[SessionSpec],
    ) -> Vec<(usize, SessionOutcome)> {
        let (lock, ready) = pool;
        let mut retired = Vec::new();
        let mut queue = lock.lock().expect("run queue poisoned");
        loop {
            let Some(mut r) = queue.ready.pop_front() else {
                if queue.live == 0 {
                    return retired;
                }
                queue = ready.wait(queue).expect("run queue poisoned");
                continue;
            };
            drop(queue);
            let more = r.step(specs);
            queue = lock.lock().expect("run queue poisoned");
            if more {
                queue.ready.push_back(r);
                ready.notify_one();
            } else {
                retired.push(r.finish(specs));
                queue.live -= 1;
                if queue.live == 0 {
                    // wake every waiting worker to exit
                    ready.notify_all();
                }
            }
        }
    }
}

impl DocumentStore {
    fn start_sessions<'a>(
        &self,
        specs: &'a [SessionSpec],
        registry: &'a Registry,
        schema: Option<&'a Schema>,
        sinks: Option<&'a [&'a dyn TraceSink]>,
    ) -> Vec<Running<'a>> {
        specs
            .iter()
            .enumerate()
            .map(|(idx, spec)| {
                let mut session = self
                    .session(&spec.document, registry, schema, spec.options.clone())
                    .unwrap_or_else(|| panic!("no document named {:?} in store", spec.document));
                if let Some(sinks) = sinks {
                    if let Some(&sink) = sinks.get(idx) {
                        session = session.with_observer(sink);
                    }
                }
                Running {
                    idx,
                    session,
                    outcomes: Vec::with_capacity(spec.queries.len()),
                }
            })
            .collect()
    }

    /// Runs every spec's query stream to completion under `mode` and
    /// reports per-session outcomes plus run-level throughput.
    ///
    /// `sinks`, when given, attaches `sinks[i]` as session `i`'s trace
    /// observer — one structured trace stream per session (sessions on
    /// different workers emit concurrently, so per-session streams are
    /// the unit that stays internally ordered).
    ///
    /// Specs whose `queries` list is empty complete immediately with an
    /// empty outcome. Panics if a spec names a document the store does
    /// not hold.
    pub fn serve(
        &self,
        specs: &[SessionSpec],
        registry: &Registry,
        schema: Option<&Schema>,
        mode: &SchedulerMode,
        sinks: Option<&[&dyn TraceSink]>,
    ) -> ServeReport {
        let t0 = Instant::now();
        let mut slots: Vec<Option<SessionOutcome>> = (0..specs.len()).map(|_| None).collect();
        let mut schedule = Vec::new();
        match mode {
            SchedulerMode::DeterministicSeeded { seed } => {
                let mut rng = SplitMix64(*seed);
                let mut runnable: Vec<Running> = Vec::new();
                for r in self.start_sessions(specs, registry, schema, sinks) {
                    if specs[r.idx].queries.is_empty() {
                        let (idx, out) = r.finish(specs);
                        slots[idx] = Some(out);
                    } else {
                        runnable.push(r);
                    }
                }
                while !runnable.is_empty() {
                    let pick = (rng.next() % runnable.len() as u64) as usize;
                    let r = &mut runnable[pick];
                    schedule.push(ScheduleEntry {
                        session: r.idx,
                        query: r.outcomes.len(),
                    });
                    if !r.step(specs) {
                        let (idx, out) = runnable.swap_remove(pick).finish(specs);
                        slots[idx] = Some(out);
                    }
                }
            }
            SchedulerMode::Concurrent { workers } => {
                let mut queue = RunQueue {
                    ready: VecDeque::new(),
                    live: 0,
                };
                for r in self.start_sessions(specs, registry, schema, sinks) {
                    if specs[r.idx].queries.is_empty() {
                        let (idx, out) = r.finish(specs);
                        slots[idx] = Some(out);
                    } else {
                        queue.live += 1;
                        queue.ready.push_back(r);
                    }
                }
                let pool = (Mutex::new(queue), Condvar::new());
                let finished: Vec<(usize, SessionOutcome)> = std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..(*workers).max(1))
                        .map(|_| scope.spawn(|| RunQueue::work(&pool, specs)))
                        .collect();
                    handles
                        .into_iter()
                        .flat_map(|h| h.join().expect("pool worker panicked"))
                        .collect()
                });
                for (idx, out) in finished {
                    slots[idx] = Some(out);
                }
            }
        }
        let sessions: Vec<SessionOutcome> = slots
            .into_iter()
            .map(|s| s.expect("every session runs to completion"))
            .collect();
        let total_queries = sessions.iter().map(|s| s.queries.len()).sum();
        ServeReport {
            sessions,
            schedule,
            wall_ms: t0.elapsed().as_secs_f64() * 1000.0,
            total_queries,
        }
    }

    /// Serially replays an explicit schedule (as recorded by the
    /// deterministic mode) and reports the outcomes. The serial-replay
    /// oracle asserts that this — on a fresh, identically-seeded world —
    /// matches the original run exactly.
    ///
    /// # Panics
    /// Panics if the schedule is not a valid interleaving of the specs'
    /// query streams (each session's entries must cover `0..len` in
    /// order).
    pub fn serve_schedule(
        &self,
        specs: &[SessionSpec],
        registry: &Registry,
        schema: Option<&Schema>,
        schedule: &[ScheduleEntry],
        sinks: Option<&[&dyn TraceSink]>,
    ) -> ServeReport {
        let t0 = Instant::now();
        let mut running = self.start_sessions(specs, registry, schema, sinks);
        for entry in schedule {
            let r = &mut running[entry.session];
            assert_eq!(
                entry.query,
                r.outcomes.len(),
                "schedule replays session {}'s queries out of order",
                entry.session
            );
            r.step(specs);
        }
        let mut slots: Vec<Option<SessionOutcome>> = (0..specs.len()).map(|_| None).collect();
        for r in running {
            assert_eq!(
                r.outcomes.len(),
                specs[r.idx].queries.len(),
                "schedule does not run session {} to completion",
                r.idx
            );
            let (idx, out) = r.finish(specs);
            slots[idx] = Some(out);
        }
        let sessions: Vec<SessionOutcome> = slots.into_iter().map(|s| s.unwrap()).collect();
        let total_queries = sessions.iter().map(|s| s.queries.len()).sum();
        ServeReport {
            sessions,
            schedule: schedule.to_vec(),
            wall_ms: t0.elapsed().as_secs_f64() * 1000.0,
            total_queries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_query::parse_query;
    use axml_xml::Document;

    fn doc() -> Document {
        let mut d = Document::with_root("r");
        let a = d.add_element(d.root(), "a");
        d.add_text(a, "x");
        d
    }

    fn specs(n: usize, q: usize) -> Vec<SessionSpec> {
        let query = parse_query("/r/a/$X -> $X").unwrap();
        (0..n)
            .map(|i| SessionSpec::new(format!("s{i}"), "d", vec![query.clone(); q]))
            .collect()
    }

    #[test]
    fn deterministic_mode_is_reproducible_and_replayable() {
        let registry = Registry::new();
        let mut store = DocumentStore::new();
        store.insert("d", doc());
        let specs = specs(3, 2);
        let mode = SchedulerMode::DeterministicSeeded { seed: 7 };
        let one = store.serve(&specs, &registry, None, &mode, None);
        assert_eq!(one.total_queries, 6);
        assert_eq!(one.schedule.len(), 6);
        let two = store.serve(&specs, &registry, None, &mode, None);
        assert_eq!(one.schedule, two.schedule, "same seed, same interleaving");
        assert_eq!(one.answers_by_session(), two.answers_by_session());
        // serial replay of the recorded schedule matches
        let replay = store.serve_schedule(&specs, &registry, None, &one.schedule, None);
        assert_eq!(one.answers_by_session(), replay.answers_by_session());
    }

    #[test]
    fn different_seeds_reach_different_interleavings() {
        let registry = Registry::new();
        let mut store = DocumentStore::new();
        store.insert("d", doc());
        let specs = specs(4, 3);
        let schedules: BTreeSet<Vec<(usize, usize)>> = (0..8)
            .map(|seed| {
                store
                    .serve(
                        &specs,
                        &registry,
                        None,
                        &SchedulerMode::DeterministicSeeded { seed },
                        None,
                    )
                    .schedule
                    .iter()
                    .map(|e| (e.session, e.query))
                    .collect()
            })
            .collect();
        assert!(schedules.len() > 1, "8 seeds all produced one schedule");
    }

    #[test]
    fn concurrent_pool_completes_all_sessions() {
        let registry = Registry::new();
        let mut store = DocumentStore::new();
        store.insert("d", doc());
        let specs = specs(5, 3);
        // one worker must cycle every session back through the queue
        // with no peer to wake it
        for workers in [1, 4] {
            let report = store.serve(
                &specs,
                &registry,
                None,
                &SchedulerMode::Concurrent { workers },
                None,
            );
            assert_eq!(report.total_queries, 15);
            assert!(report.schedule.is_empty());
            for (i, s) in report.sessions.iter().enumerate() {
                assert_eq!(s.name, format!("s{i}"), "outcomes keep spec order");
                assert_eq!(s.queries.len(), 3);
                for q in &s.queries {
                    assert!(q.complete);
                    assert_eq!(q.answers.len(), 1);
                }
            }
            assert!(report.latency_histogram().count() == 15);
        }
    }

    #[test]
    fn idle_heavy_pool_terminates() {
        // With more workers than sessions, most workers wait on the
        // queue the whole run; the last retirement must wake them all
        // to exit, with every query answered.
        let registry = Registry::new();
        let mut store = DocumentStore::new();
        store.insert("d", doc());
        let specs = specs(2, 4);
        let report = store.serve(
            &specs,
            &registry,
            None,
            &SchedulerMode::Concurrent { workers: 8 },
            None,
        );
        assert_eq!(report.total_queries, 8);
        for s in &report.sessions {
            assert!(s.queries.iter().all(|q| q.complete));
        }
    }

    #[test]
    fn empty_query_streams_complete_immediately() {
        let registry = Registry::new();
        let mut store = DocumentStore::new();
        store.insert("d", doc());
        let specs = vec![
            SessionSpec::new("empty", "d", Vec::new()),
            SessionSpec::new("busy", "d", vec![parse_query("/r/a/$X -> $X").unwrap()]),
        ];
        for mode in [
            SchedulerMode::DeterministicSeeded { seed: 1 },
            SchedulerMode::Concurrent { workers: 2 },
        ] {
            let report = store.serve(&specs, &registry, None, &mode, None);
            assert_eq!(report.sessions[0].queries.len(), 0);
            assert_eq!(report.sessions[1].queries.len(), 1);
        }
    }
}
