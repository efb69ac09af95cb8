//! Cross-strategy equivalence (the safety theorem behind Definition 4):
//! on terminating workloads, every engine configuration — naive, top-down,
//! LPQ, NFQ, with or without layering, parallelism, pushing and
//! relaxations — must compute the same full query result.

use axml_core::{Engine, EngineConfig, Speculation, Strategy};
use axml_gen::synthetic::{random_query, random_workload, SyntheticParams};
use axml_query::{render_result, Pattern};
use axml_services::{BreakerConfig, FaultProfile, Registry, RetryPolicy};
use axml_xml::Document;
use proptest::prelude::*;
use std::collections::BTreeSet;

type Answers = BTreeSet<Vec<String>>;

fn run(doc: &Document, q: &Pattern, registry: &Registry, config: EngineConfig) -> Answers {
    let mut d = doc.clone();
    let report = Engine::new(registry, config).evaluate(&mut d, q);
    assert!(!report.stats.truncated, "synthetic workloads terminate");
    d.check_integrity().unwrap();
    render_result(&d, &report.result).into_iter().collect()
}

fn configs() -> Vec<(&'static str, EngineConfig)> {
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
            "nfq-parallel",
            EngineConfig {
                layering: true,
                parallel: true,
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
            "nfq-speculative-cost",
            EngineConfig {
                speculation: Speculation::CostBased {
                    latency_threshold_ms: 5.0,
                },
                push_queries: true,
                ..EngineConfig::nfq_plain()
            },
        ),
        (
            "nfq-everything",
            EngineConfig {
                strategy: Strategy::Nfq,
                push_queries: true,
                parallel: true,
                layering: true,
                relax_xpath: false,
                ..EngineConfig::default()
            },
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_configurations_compute_the_same_full_result(
        wseed in 0u64..10_000,
        qseed in 0u64..10_000,
        doc_nodes in 30usize..120,
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

        let mut reference: Option<Answers> = None;
        for (name, config) in configs() {
            let answers = run(&doc, &q, &registry, config);
            match &reference {
                None => reference = Some(answers),
                Some(r) => prop_assert_eq!(
                    &answers, r,
                    "strategy {} disagrees (wseed={}, qseed={})",
                    name, wseed, qseed
                ),
            }
        }
    }

    #[test]
    fn lazy_strategies_never_invoke_more_than_naive(
        wseed in 0u64..10_000,
        qseed in 0u64..10_000,
    ) {
        let params = SyntheticParams { seed: wseed, ..Default::default() };
        let (doc, registry) = random_workload(&params);
        let q = random_query(qseed, params.alphabet, 7);

        let count = |config: EngineConfig| {
            let mut d = doc.clone();
            let report = Engine::new(&registry, config).evaluate(&mut d, &q);
            report.stats.calls_invoked
        };
        let naive = count(EngineConfig::naive());
        let lpq = count(EngineConfig::lpq());
        let nfq = count(EngineConfig::nfq_plain());
        prop_assert!(lpq <= naive, "lpq {} > naive {}", lpq, naive);
        prop_assert!(nfq <= lpq, "nfq {} > lpq {}", nfq, lpq);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Proposition 2 on random workloads: once NFQA terminates, the
    /// document is complete for the query — no NFQ retrieves anything.
    #[test]
    fn completed_documents_retrieve_nothing(
        wseed in 0u64..10_000,
        qseed in 0u64..10_000,
    ) {
        let params = SyntheticParams { seed: wseed, ..Default::default() };
        let (doc, registry) = random_workload(&params);
        let q = random_query(qseed, params.alphabet, 7);
        let mut d = doc.clone();
        let report = Engine::new(&registry, EngineConfig::nfq_plain()).evaluate(&mut d, &q);
        prop_assert!(!report.stats.truncated);
        for nfq in axml_core::build_nfqs(&q) {
            let retrieved = axml_query::eval(&nfq.pattern, &d).bindings_of(nfq.output);
            prop_assert!(
                retrieved.is_empty(),
                "incomplete after NFQA: {:?} still retrieved (wseed={}, qseed={})",
                retrieved, wseed, qseed
            );
        }
    }

    /// Fault-tolerant equivalence: under a random deterministic fault
    /// schedule whose transients are strictly outlasted by the retry
    /// budget, every strategy completes — and lazy-with-retries must
    /// compute exactly the same full result as naive-with-retries.
    #[test]
    fn lazy_with_retries_agrees_with_naive_with_retries(
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
            timeout_prob: 0.25, // degrade to fast failures (no deadline set)
            slowdown_prob: 0.1,
            slowdown_factor: 3.0,
        });
        // 3 retries > 2 transient failures: every call eventually lands
        registry.set_retry_policy(RetryPolicy::default().with_retries(3));

        let run = |config: EngineConfig| {
            let mut d = doc.clone();
            let report = Engine::new(&registry, config).evaluate(&mut d, &q);
            prop_assert!(
                report.complete,
                "absorbed transients must leave the answer complete \
                 (wseed={}, fseed={}, p={})", wseed, fseed, fail_prob
            );
            d.check_integrity().unwrap();
            Ok(render_result(&d, &report.result).into_iter().collect::<Answers>())
        };
        let naive = run(EngineConfig::naive())?;
        let lazy = run(EngineConfig::default())?;
        prop_assert_eq!(&naive, &lazy, "wseed={}, qseed={}, fseed={}", wseed, qseed, fseed);
    }

    /// Degradation soundness: when faults are permanent and calls die for
    /// good, every strategy's partial answer is a subset of the fault-free
    /// full answer, and the completeness flag tells the truth.
    #[test]
    fn degraded_answers_are_sound_subsets(
        wseed in 0u64..10_000,
        qseed in 0u64..10_000,
        fseed in 1u64..10_000,
        fail_prob in 0.0f64..0.8,
    ) {
        let params = SyntheticParams { seed: wseed, ..Default::default() };
        let (doc, mut registry) = random_workload(&params);
        let q = random_query(qseed, params.alphabet, 7);
        let reference = run(&doc, &q, &registry, EngineConfig::naive());

        registry.set_default_fault_profile(FaultProfile {
            seed: fseed,
            fail_prob,
            transient_failures: usize::MAX,
            ..FaultProfile::none()
        });
        registry.set_breaker_config(BreakerConfig::disabled());
        for (name, config) in [
            ("naive", EngineConfig::naive()),
            ("topdown", EngineConfig::top_down()),
            ("lazy", EngineConfig::default()),
        ] {
            let mut d = doc.clone();
            let report = Engine::new(&registry, config).evaluate(&mut d, &q);
            d.check_integrity().unwrap();
            let partial: Answers = render_result(&d, &report.result).into_iter().collect();
            prop_assert!(
                partial.is_subset(&reference),
                "{}: partial answer invented results (wseed={}, fseed={}, p={})",
                name, wseed, fseed, fail_prob
            );
            prop_assert_eq!(
                report.complete,
                report.stats.failed_calls == 0 && report.stats.breaker_skips == 0
                    && report.stats.skipped_unknown == 0 && !report.stats.truncated,
                "{}: completeness flag out of sync (wseed={}, fseed={})",
                name, wseed, fseed
            );
        }
    }

    /// Schema-derived random instances: the lazy engine agrees with naive
    /// materialization on documents generated straight from τ.
    #[test]
    fn schema_generated_workloads_agree(seed in 0u64..10_000) {
        use axml_gen::from_schema::{random_instance, InstanceParams};
        let schema = axml_schema::figure2_schema();
        let (doc, registry) = random_instance(
            &schema,
            "hotels",
            &InstanceParams { seed, ..Default::default() },
        );
        let q = axml_gen::figure4_query();
        let run = |config: EngineConfig| {
            let mut d = doc.clone();
            let report = Engine::new(&registry, config)
                .with_schema(&schema)
                .evaluate(&mut d, &q);
            prop_assert!(!report.stats.truncated);
            Ok(render_result(&d, &report.result)
                .into_iter()
                .collect::<Answers>())
        };
        let naive = run(EngineConfig::naive())?;
        let lazy = run(EngineConfig::default())?;
        prop_assert_eq!(naive, lazy, "seed={}", seed);
    }
}
