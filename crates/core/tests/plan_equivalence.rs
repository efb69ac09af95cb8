//! The differential plan-equivalence oracle: for random documents,
//! queries and schemas, evaluation through a [`CompiledQuery`] must be
//! **observationally identical** to evaluation without one — same
//! answers, same structured trace byte for byte, same statistics —
//! across every engine mode: all strategy/optimization combinations,
//! fault schedules with retries, a shared call cache warmed across
//! queries, and both serve schedulers with a warm plan cache and one
//! that stores nothing.
//!
//! The compiled side attaches an explicitly pre-compiled plan with
//! [`Engine::with_plan`]; the unplanned side attaches none, so the engine
//! builds what the run reads itself.

use axml_core::{CompiledQuery, Engine, EngineConfig, EngineStats};
use axml_gen::synthetic::{random_query, random_workload, SyntheticParams};
use axml_obs::{to_jsonl, RingSink, StatsView};
use axml_query::{render_result, Pattern};
use axml_schema::Schema;
use axml_services::{FaultProfile, Registry, RetryPolicy};
use axml_store::{
    CacheConfig, CallCache, DocumentStore, PlanCacheConfig, QueryOutcome, SchedulerMode,
    SessionSpec,
};
use axml_xml::Document;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

type Answers = BTreeSet<Vec<String>>;

/// Everything one evaluation observably produced. Two runs that agree on
/// this value are indistinguishable to any consumer of the engine.
#[derive(Debug, PartialEq)]
struct Observation {
    answers: Answers,
    complete: bool,
    trace_jsonl: String,
    stats: StatsView,
    /// Engine-internal counters not part of the [`StatsView`] projection
    /// (the CPU `Duration`s stay excluded: wall clock is not semantics).
    extra: (usize, usize, usize, usize, usize, usize),
}

fn extra_counters(s: &EngineStats) -> (usize, usize, usize, usize, usize, usize) {
    (
        s.rounds,
        s.relevance_evals,
        s.queries_pruned,
        s.speculative_rounds,
        s.type_violations,
        s.final_doc_size,
    )
}

/// Runs one evaluation, with `plan` attached when given. `cache`, when
/// given, wires a shared call cache (each side of a differential pair
/// gets its own, identically configured).
fn observe(
    doc: &Document,
    q: &Pattern,
    registry: &Registry,
    schema: Option<&Schema>,
    config: EngineConfig,
    plan: Option<&Arc<CompiledQuery>>,
    cache: Option<&CallCache>,
) -> Observation {
    let ring = RingSink::unbounded();
    let mut d = doc.clone();
    let mut engine = Engine::new(registry, config).with_observer(&ring);
    if let Some(plan) = plan {
        engine = engine.with_plan(Arc::clone(plan));
    }
    if let Some(schema) = schema {
        engine = engine.with_schema(schema);
    }
    if let Some(cache) = cache {
        engine = engine.with_cache(cache);
    }
    let report = engine.evaluate(&mut d, q);
    d.check_integrity().unwrap();
    Observation {
        answers: render_result(&d, &report.result).into_iter().collect(),
        complete: report.complete,
        trace_jsonl: to_jsonl(&ring.events()),
        stats: report.stats.view(),
        extra: extra_counters(&report.stats),
    }
}

/// The differential heart: no plan attached vs the compiled plan
/// attached.
fn assert_plan_equivalent(
    label: &str,
    doc: &Document,
    q: &Pattern,
    registry: &Registry,
    schema: Option<&Schema>,
    config: &EngineConfig,
) -> Result<(), TestCaseError> {
    let plan = Arc::new(CompiledQuery::compile(q, schema, config));
    let unplanned = observe(doc, q, registry, schema, config.clone(), None, None);
    let compiled = observe(doc, q, registry, schema, config.clone(), Some(&plan), None);
    prop_assert_eq!(
        &compiled,
        &unplanned,
        "mode {} observably diverges between compiled and unplanned",
        label
    );
    Ok(())
}

/// The full engine-mode matrix (mirrors the cross-strategy equivalence
/// suite): every strategy and optimization combination the engine ships.
fn configs() -> Vec<(&'static str, EngineConfig)> {
    use axml_core::{Speculation, Strategy};
    vec![
        ("naive", EngineConfig::naive()),
        ("topdown", EngineConfig::top_down()),
        ("lpq", EngineConfig::lpq()),
        (
            "lpq-par",
            EngineConfig {
                parallel: true,
                ..EngineConfig::lpq()
            },
        ),
        ("nfq-plain", EngineConfig::nfq_plain()),
        (
            "nfq-layered",
            EngineConfig {
                layering: true,
                ..EngineConfig::nfq_plain()
            },
        ),
        (
            "nfq-push",
            EngineConfig {
                push_queries: true,
                ..EngineConfig::nfq_plain()
            },
        ),
        (
            "nfq-relaxed",
            EngineConfig {
                relax_xpath: true,
                ..EngineConfig::nfq_plain()
            },
        ),
        (
            "nfq-no-containment",
            EngineConfig {
                containment_pruning: false,
                ..EngineConfig::nfq_plain()
            },
        ),
        (
            "nfq-speculative",
            EngineConfig {
                speculation: Speculation::Always,
                ..EngineConfig::nfq_plain()
            },
        ),
        (
            "nfq-everything",
            EngineConfig {
                strategy: Strategy::Nfq,
                push_queries: true,
                layering: true,
                ..EngineConfig::default()
            },
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Compiled-vs-unplanned invariance across the full mode matrix on
    /// random synthetic workloads: answers, traces (byte for byte) and
    /// stats all agree, in every mode.
    #[test]
    fn compiled_path_is_observably_identical_in_every_mode(
        wseed in 0u64..10_000,
        qseed in 0u64..10_000,
        doc_nodes in 30usize..100,
        call_probability in 0.05f64..0.5,
    ) {
        let params = SyntheticParams {
            seed: wseed,
            doc_nodes,
            call_probability,
            ..Default::default()
        };
        let (doc, registry) = random_workload(&params);
        let q = random_query(qseed, params.alphabet, 7);
        for (name, config) in configs() {
            assert_plan_equivalent(name, &doc, &q, &registry, None, &config)?;
        }
    }

    /// Same invariance under a random deterministic fault schedule with a
    /// retry budget that outlasts the transients: the compiled path must
    /// reproduce the unplanned run's retries, breaker bookkeeping and fault
    /// accounting event for event.
    #[test]
    fn compiled_path_is_identical_under_faults_and_retries(
        wseed in 0u64..10_000,
        qseed in 0u64..10_000,
        fseed in 1u64..10_000,
        fail_prob in 0.0f64..1.0,
        transients in 1usize..3,
    ) {
        let params = SyntheticParams { seed: wseed, ..Default::default() };
        let (doc, mut registry) = random_workload(&params);
        let q = random_query(qseed, params.alphabet, 7);
        registry.set_default_fault_profile(FaultProfile {
            seed: fseed,
            fail_prob,
            transient_failures: transients,
            timeout_prob: 0.25,
            slowdown_prob: 0.1,
            slowdown_factor: 3.0,
        });
        registry.set_retry_policy(RetryPolicy::default().with_retries(3));
        for (name, config) in [
            ("default", EngineConfig::default()),
            (
                "layered",
                EngineConfig {
                    layering: true,
                    ..EngineConfig::nfq_plain()
                },
            ),
        ] {
            assert_plan_equivalent(name, &doc, &q, &registry, None, &config)?;
        }
    }

    /// Schema-typed invariance on instances generated straight from τ:
    /// the plan's baked schema DFAs must type exactly as the unplanned
    /// run's transient ones, including typing-driven pruning decisions.
    #[test]
    fn compiled_path_is_identical_with_schema_typing(seed in 0u64..10_000) {
        use axml_gen::from_schema::{random_instance, InstanceParams};
        let schema = axml_schema::figure2_schema();
        let (doc, registry) = random_instance(
            &schema,
            "hotels",
            &InstanceParams { seed, ..Default::default() },
        );
        let q = axml_gen::figure4_query();
        for (name, config) in [
            ("typed-default", EngineConfig::default()),
            ("typed-naive", EngineConfig::naive()),
            (
                "typed-layered",
                EngineConfig {
                    layering: true,
                    ..EngineConfig::nfq_plain()
                },
            ),
        ] {
            assert_plan_equivalent(name, &doc, &q, &registry, Some(&schema), &config)?;
        }
    }

    /// Shared-call-cache invariance: each side gets its *own* identically
    /// configured cache and runs two queries back to back, so the second
    /// query's hit/stale pattern — and the cache-probe events it emits —
    /// must reproduce exactly through the compiled path.
    #[test]
    fn compiled_path_is_identical_through_a_warming_call_cache(
        wseed in 0u64..10_000,
        qseed in 0u64..10_000,
    ) {
        let params = SyntheticParams { seed: wseed, ..Default::default() };
        let (doc, registry) = random_workload(&params);
        let queries = [
            random_query(qseed, params.alphabet, 7),
            random_query(qseed.wrapping_add(1), params.alphabet, 7),
            random_query(qseed, params.alphabet, 7), // repeat: warm hits
        ];
        let config = EngineConfig::default();
        let run_side = |with_plan: bool| {
            let cache = CallCache::new(CacheConfig::default());
            queries
                .iter()
                .map(|q| {
                    let plan = with_plan
                        .then(|| Arc::new(CompiledQuery::compile(q, None, &config)));
                    observe(&doc, q, &registry, None, config.clone(), plan.as_ref(), Some(&cache))
                })
                .collect::<Vec<_>>()
        };
        let unplanned = run_side(false);
        let compiled = run_side(true);
        prop_assert_eq!(
            &compiled, &unplanned,
            "cache-warmed sequence diverges (wseed={}, qseed={})", wseed, qseed
        );
    }
}

/// The interleaving-independent projection of a [`QueryOutcome`] (drops
/// `wall_ms`, the only wall-clock field).
fn sim_outcome(o: &QueryOutcome) -> (Answers, bool, usize, usize, f64, u64) {
    (
        o.answers.clone(),
        o.complete,
        o.calls_invoked,
        o.cache_hits,
        o.sim_time_ms,
        o.doc_version,
    )
}

/// A store over a random workload with the given plan cache, and three
/// sessions asking two random queries each.
fn serve_store(
    params: &SyntheticParams,
    plans: PlanCacheConfig,
) -> (DocumentStore, Registry, Vec<SessionSpec>) {
    let (doc, registry) = random_workload(params);
    let mut store = DocumentStore::with_configs(CacheConfig::default(), plans);
    store.insert("doc", doc);
    let specs: Vec<SessionSpec> = (0..3)
        .map(|i| {
            SessionSpec::new(
                format!("s{i}"),
                "doc",
                vec![
                    random_query(params.seed.wrapping_add(i), params.alphabet, 7),
                    random_query(params.seed.wrapping_add(i + 10), params.alphabet, 7),
                ],
            )
        })
        .collect();
    (store, registry, specs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Concurrent-serving invariance: a deterministic-seeded serve run
    /// through a warm plan cache produces exactly the outcomes of the same
    /// run through a zero-capacity one, which compiles every query and
    /// stores nothing — per query, per session, including cache counters
    /// and simulated time.
    #[test]
    fn deterministic_serve_is_identical_with_plan_cache_on_and_off(
        wseed in 0u64..10_000,
        sched_seed in 0u64..10_000,
    ) {
        let params = SyntheticParams { seed: wseed, ..Default::default() };
        let mode = SchedulerMode::DeterministicSeeded { seed: sched_seed };
        let run = |plans: PlanCacheConfig| {
            let (store, registry, specs) = serve_store(&params, plans);
            let report = store.serve(&specs, &registry, None, &mode, None);
            report
                .sessions
                .iter()
                .map(|s| (s.name.clone(), s.queries.iter().map(sim_outcome).collect::<Vec<_>>(), s.clock_ms))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(
            run(PlanCacheConfig::default()),
            run(PlanCacheConfig::with_capacity(0)),
            "plan cache changed a served outcome (wseed={}, sched_seed={})",
            wseed, sched_seed
        );
    }

    /// Under the real thread pool the interleaving is free, so only the
    /// interleaving-independent projection is compared — and the store's
    /// plan cache must have compiled each distinct (query, config) exactly
    /// once while serving every session.
    #[test]
    fn concurrent_serve_agrees_and_shares_compiled_plans(wseed in 0u64..10_000) {
        let params = SyntheticParams { seed: wseed, ..Default::default() };
        let (store, registry, specs) = serve_store(&params, PlanCacheConfig::default());
        let report = store.serve(
            &specs,
            &registry,
            None,
            &SchedulerMode::Concurrent { workers: 4 },
            None,
        );
        let plan_stats = store.plans().stats();
        let distinct: BTreeSet<String> = specs
            .iter()
            .flat_map(|s| s.queries.iter().map(|q| format!("{q:?}")))
            .collect();
        prop_assert_eq!(
            plan_stats.compiles as usize,
            distinct.len(),
            "3 sessions × 2 queries must compile each distinct query once"
        );

        // reference: same specs, fresh store, serial deterministic run
        let (store2, registry2, specs2) = serve_store(&params, PlanCacheConfig::default());
        let reference = store2.serve(
            &specs2,
            &registry2,
            None,
            &SchedulerMode::DeterministicSeeded { seed: 0 },
            None,
        );
        for (got, want) in report.sessions.iter().zip(&reference.sessions) {
            prop_assert_eq!(&got.name, &want.name);
            for (g, w) in got.queries.iter().zip(&want.queries) {
                prop_assert_eq!(&g.answers, &w.answers, "session {} diverges", got.name);
                prop_assert_eq!(g.complete, w.complete, "session {} diverges", got.name);
            }
        }
    }
}

/// Remap correctness at the engine level: one warm plan cache serves two
/// documents whose symbol tables assign *different* ids to the same
/// labels; the shared compiled plan must answer both exactly as a run
/// without a plan does.
#[test]
fn one_cached_plan_serves_documents_with_permuted_symbol_tables() {
    let params = SyntheticParams {
        seed: 11,
        ..Default::default()
    };
    let (doc_a, registry) = random_workload(&params);
    // doc_b interns the alphabet in reverse before growing its content,
    // permuting every symbol id relative to doc_a
    let mut doc_b = Document::with_root("root");
    let warm = doc_b.add_element(doc_b.root(), "warmup");
    for i in (0..params.alphabet).rev() {
        doc_b.add_element(warm, format!("e{i}"));
    }
    let mut parent = doc_b.root();
    for i in 0..20 {
        let e = doc_b.add_element(parent, format!("e{}", i % params.alphabet));
        doc_b.add_text(e, format!("v{}", i % 3));
        if i % 4 == 0 {
            parent = e;
        }
    }
    doc_b.check_integrity().unwrap();

    let q = random_query(3, params.alphabet, 7);
    let config = EngineConfig::default();
    let plans = axml_store::PlanCache::new(PlanCacheConfig::default());
    let plan = plans.fetch(&q, None, &config);
    for doc in [&doc_a, &doc_b] {
        let compiled = observe(doc, &q, &registry, None, config.clone(), Some(&plan), None);
        let unplanned = observe(doc, &q, &registry, None, config.clone(), None, None);
        assert_eq!(
            compiled, unplanned,
            "shared plan mis-answers under a permuted symbol table"
        );
    }
    let stats = plans.stats();
    assert_eq!(stats.compiles, 1, "the second fetch must reuse the plan");
}
