//! Probes: calls into one layer's public functions on a workload's own
//! inputs, made after a traced run's windows and outside every op span.
//!
//! A traced run reports every per-layer metric on every workload, so that
//! all workloads' results have the same metrics. Detection, compilation,
//! binding and plan-cache fetches are always probed: no op exposes them
//! on their own. The other groups run only when the workload's ops left
//! one of their metrics unmeasured (a workload without a write-ahead log
//! still reports what logging its own document costs), and fill only the
//! missing metrics. Such a value describes the probe on the workload's
//! inputs, not the workload's ops; the report marks it.

use crate::workloads::{record_cache, record_eval, record_plans, tenant_specs, Layers, WORKERS};
use axml_core::{relevant_calls, CompiledQuery, Engine, EngineConfig};
use axml_query::{render_result, Pattern};
use axml_schema::{SatMode, Schema};
use axml_services::Registry;
use axml_store::{
    log_file_name, recover_log, scan_frames, CacheStats, CallCache, CrashProfile, DocumentStore,
    DurabilityOptions, PlanCache, PlanCacheConfig, PlanCacheStats, SchedulerMode, SessionOptions,
    SimDir,
};
use axml_sub::{SubscriptionEngine, SubscriptionOptions};
use axml_xml::Document;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// A workload's inputs, as the probes see them.
pub struct Probe<'a> {
    /// The input document (calls intact).
    pub doc: &'a Document,
    /// The workload's queries.
    pub queries: &'a [Pattern],
    /// Schema, when the workload types its queries.
    pub schema: Option<&'a Schema>,
    /// The services behind the document's calls.
    pub registry: &'a Registry,
    /// Engine configuration.
    pub config: EngineConfig,
    /// The workload's call cache, when its engine uses one.
    pub cache: Option<&'a CallCache>,
    /// The workload's plan cache, when its engine uses one.
    pub plans: Option<&'a PlanCache>,
}

/// Repetitions of the cheap probes; their median is reported.
const REPS: usize = 5;

/// Refresh cycles of the subscription probe.
const SUB_CYCLES: usize = 3;

const EVAL_KEYS: &[&str] = &[
    "core.evaluate_ms",
    "core.relevance_ms",
    "core.relevance_share",
    "core.final_eval_ms",
    "core.other_ms",
    "core.relevance_evals_per_op",
    "core.nfq_evals_skipped_per_op",
    "core.rounds_per_op",
    "query.render_ms",
    "xml.clone_ms",
    "xml.final_doc_nodes",
    "services.calls_per_op",
    "services.sim_net_ms_per_op",
    "services.bytes_per_op",
    "services.attempts_per_op",
];

const SERVE_KEYS: &[&str] = &[
    "store.sched.round_ms",
    "store.sched.busy_frac",
    "store.plan_cache.hit_rate",
    "store.plan_cache.compiles_per_op",
];

const DURABLE_KEYS: &[&str] = &[
    "xml.versions_per_round",
    "store.wal.appends_per_round",
    "store.wal.checkpoints_per_round",
    "store.wal.synced_frac",
    "store.wal.bytes_per_append",
    "store.wal.insert_ms",
    "store.recover.wall_ms",
    "store.recover.frames",
    "store.recover.splices_replayed",
    "store.recover.us_per_frame",
    "store.recover.scan_ms",
    "store.recover.log_ms",
];

const SUB_KEYS: &[&str] = &[
    "sub.subscribe_ms",
    "sub.refresh_ms",
    "sub.reconcile_ms",
    "sub.refresh_share",
    "sub.skip_frac",
    "sub.full_reevals_per_op",
    "sub.degradations_per_op",
    "sub.refresh_invocations_per_op",
    "sub.deltas_per_op",
    "store.cache.hit_rate",
    "store.cache.stale_per_op",
    "store.cache.insertions_per_op",
    "store.cache.evictions_per_op",
    "store.cache.purge_ms",
];

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Median wall time of `f` over [`REPS`] calls, in ms.
fn median_ms(mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            ms_since(t)
        })
        .collect();
    crate::stats::median(&times)
}

/// Runs the probes and adds every per-layer metric `layers` lacks;
/// returns the names of the metrics it added.
pub fn fill(p: &Probe, layers: &mut Layers) -> BTreeSet<&'static str> {
    let mut probed = Layers::default();
    for q in p.queries {
        probed.add(
            "core.detect_scan_ms",
            median_ms(|| {
                black_box(relevant_calls(p.doc, q, p.schema, SatMode::Exact));
            }),
        );
        probed.add(
            "core.compile_ms",
            median_ms(|| {
                black_box(CompiledQuery::compile(q, p.schema, &p.config));
            }),
        );
        let plan = CompiledQuery::compile(q, p.schema, &p.config);
        probed.add(
            "query.bind_ms",
            median_ms(|| {
                black_box(plan.main_plan().bind(p.doc));
            }),
        );
        let plans = PlanCache::new(PlanCacheConfig::default());
        plans.fetch(q, p.schema, &p.config);
        probed.add(
            "store.plan_cache.fetch_ms",
            median_ms(|| {
                black_box(plans.fetch(q, p.schema, &p.config));
            }),
        );
    }
    let needs = |keys: &[&str]| keys.iter().any(|k| !layers.has(k));
    if needs(EVAL_KEYS) {
        eval_probe(p, &mut probed);
    }
    if needs(SERVE_KEYS) {
        serve_probe(p, &mut probed);
    }
    if needs(DURABLE_KEYS) {
        durable_probe(p, &mut probed);
    }
    if needs(SUB_KEYS) {
        sub_probe(p, &mut probed);
    }
    layers.merge_missing(&probed)
}

/// `Engine::evaluate` of each query on a fresh copy of the document,
/// through the workload's caches when it has them.
fn eval_probe(p: &Probe, out: &mut Layers) {
    for q in p.queries {
        let t = Instant::now();
        let mut doc = p.doc.clone();
        let clone = t.elapsed();
        let mut engine = Engine::new(p.registry, p.config.clone());
        if let Some(schema) = p.schema {
            engine = engine.with_schema(schema);
        }
        if let Some(cache) = p.cache {
            engine = engine.with_cache(cache);
        }
        if let Some(plans) = p.plans {
            engine = engine.with_plan(plans.fetch(q, p.schema, &p.config));
        }
        let t = Instant::now();
        let report = engine.evaluate(&mut doc, q);
        let eval = t.elapsed();
        let t = Instant::now();
        black_box(render_result(&doc, &report.result));
        let render = t.elapsed();
        record_eval(out, &report.stats, clone, eval, render);
    }
}

/// One scheduler round of two sessions over a store holding the document.
fn serve_probe(p: &Probe, out: &mut Layers) {
    let mut store = DocumentStore::new();
    store.insert("probe", p.doc.clone());
    let (specs, _) = tenant_specs(
        WORKERS,
        p.queries.len(),
        &["probe".to_string()],
        p.queries,
        |_| SessionOptions::with_engine(p.config.clone()),
    );
    let report = store.serve(
        &specs,
        p.registry,
        p.schema,
        &SchedulerMode::Concurrent { workers: WORKERS },
        None,
    );
    let busy: f64 = report
        .sessions
        .iter()
        .flat_map(|s| &s.queries)
        .map(|q| q.wall_ms)
        .sum();
    out.add("store.sched.round_ms", report.wall_ms);
    out.add_ratio(
        "store.sched.busy_frac",
        busy,
        WORKERS as f64 * report.wall_ms,
    );
    record_plans(
        out,
        PlanCacheStats::default(),
        store.plans().stats(),
        report.total_queries as f64,
    );
}

/// A durable store over a simulated disk: insert the document, let a
/// persistent session publish each query's materialization, reboot,
/// recover, and re-read the log with the scanner and the log replayer.
fn durable_probe(p: &Probe, out: &mut Layers) {
    let dir = SimDir::new(CrashProfile::default());
    let mut store = DocumentStore::durable(Box::new(dir.clone()), DurabilityOptions::default());
    let copy = p.doc.clone();
    let t = Instant::now();
    store.insert("probe", copy);
    out.add("store.wal.insert_ms", ms_since(t));
    let mut session = store
        .session(
            "probe",
            p.registry,
            p.schema,
            SessionOptions {
                engine: p.config.clone(),
                snapshot_per_query: false,
                ..SessionOptions::default()
            },
        )
        .expect("probe document stored");
    for q in p.queries {
        session.query(q);
    }
    let version = store
        .versioned("probe")
        .expect("probe document stored")
        .version();
    let wal = store.durability().expect("durable store").stats();
    let log = dir.persisted(&log_file_name("probe"));
    out.add("xml.versions_per_round", version as f64);
    out.add("store.wal.appends_per_round", wal.appends as f64);
    out.add("store.wal.checkpoints_per_round", wal.checkpoints as f64);
    out.add_ratio(
        "store.wal.synced_frac",
        wal.synced_appends as f64,
        wal.appends as f64,
    );
    out.add_ratio(
        "store.wal.bytes_per_append",
        log.len() as f64,
        wal.appends as f64,
    );

    let boot = dir.reopen(CrashProfile::default());
    let t = Instant::now();
    let recovered = DocumentStore::recover(Box::new(boot), DurabilityOptions::default());
    let recover_ms = ms_since(t);
    let (_, report) = recovered.expect("a cleanly shut down log recovers");
    let frames: usize = report.docs.iter().map(|d| d.frames).sum();
    out.add("store.recover.wall_ms", recover_ms);
    out.add("store.recover.frames", frames as f64);
    out.add(
        "store.recover.splices_replayed",
        report.splices_replayed() as f64,
    );
    out.add_ratio(
        "store.recover.us_per_frame",
        recover_ms * 1e3,
        frames as f64,
    );
    out.add(
        "store.recover.scan_ms",
        median_ms(|| {
            black_box(scan_frames(&log));
        }),
    );
    out.add(
        "store.recover.log_ms",
        median_ms(|| {
            black_box(recover_log(&log));
        }),
    );
}

/// Standing queries over a store holding the document: subscribe each
/// query, then a few refresh / reconcile / purge cycles.
fn sub_probe(p: &Probe, out: &mut Layers) {
    let mut store = DocumentStore::new();
    store.insert("probe", p.doc.clone());
    let options = SubscriptionOptions {
        engine: p.config.clone(),
        ..SubscriptionOptions::default()
    };
    let watch_ms = options.watch_ms;
    let mut engine = SubscriptionEngine::over_store(&store, "probe", p.registry, p.schema, options)
        .expect("probe document stored");
    for (i, q) in p.queries.iter().enumerate() {
        let t = Instant::now();
        engine.subscribe(format!("probe-{i}"), q.clone());
        out.add("sub.subscribe_ms", ms_since(t));
    }
    let cache: &Arc<CallCache> = store.cache();
    let cache0: CacheStats = cache.stats();
    let stats0 = engine.stats().clone();
    let (mut refresh, mut reconcile, mut purge) = (0.0, 0.0, 0.0);
    for _ in 0..SUB_CYCLES {
        let advance = cache
            .earliest_expiry()
            .map_or(watch_ms, |e| (e - engine.clock_ms()).max(0.0));
        engine.advance_clock(advance);
        let t = Instant::now();
        engine.refresh();
        refresh += ms_since(t);
        let t = Instant::now();
        engine.reconcile();
        reconcile += ms_since(t);
        let t = Instant::now();
        cache.purge_expired(engine.clock_ms());
        purge += ms_since(t);
    }
    let n = SUB_CYCLES as f64;
    let stats1 = engine.stats();
    let d = |f: fn(&axml_sub::SubscriptionEngineStats) -> usize| (f(stats1) - f(&stats0)) as f64;
    out.add_ratio("sub.refresh_ms", refresh, n);
    out.add_ratio("sub.reconcile_ms", reconcile, n);
    out.add_ratio("sub.refresh_share", refresh, refresh + reconcile + purge);
    out.add_ratio("store.cache.purge_ms", purge, n);
    out.add_ratio(
        "sub.skip_frac",
        d(|s| s.versions_skipped),
        d(|s| s.publications) * p.queries.len() as f64,
    );
    out.add_ratio("sub.full_reevals_per_op", d(|s| s.full_reevals), n);
    out.add_ratio("sub.degradations_per_op", d(|s| s.degradations), n);
    out.add_ratio(
        "sub.refresh_invocations_per_op",
        d(|s| s.refresh_invocations),
        n,
    );
    out.add_ratio("sub.deltas_per_op", d(|s| s.deltas_emitted), n);
    record_cache(out, cache0, cache.stats(), n);
}
