//! The experiment definitions behind every table/figure of the evaluation
//! (see `EXPERIMENTS.md` at the repository root for the mapping to the
//! paper's claims). Each experiment is a deterministic function from
//! parameters to rows; the `report` binary prints them, the Criterion
//! benches measure the CPU-bound parts.

use axml_core::{Engine, EngineConfig, EngineStats, FGuide, Typing};
use axml_gen::scenario::{figure4_query, generate, Scenario, ScenarioParams};
use axml_query::Pattern;
use axml_services::{FaultProfile, NetProfile};
use std::collections::BTreeSet;

/// One row of an experiment table.
#[derive(Clone, Debug)]
pub struct Row {
    /// Row label (e.g. strategy name).
    pub label: String,
    /// Sweep coordinate (e.g. number of hotels).
    pub x: f64,
    /// Named metrics.
    pub metrics: Vec<(&'static str, f64)>,
}

/// Renders rows as CSV (`series,<xname>,<metric…>`), for plotting.
pub fn to_csv(xname: &str, rows: &[Row]) -> String {
    let mut out = String::new();
    let metric_names: Vec<&str> = rows
        .first()
        .map(|r| r.metrics.iter().map(|(n, _)| *n).collect())
        .unwrap_or_default();
    out.push_str("series,");
    out.push_str(xname);
    for m in &metric_names {
        out.push(',');
        out.push_str(m);
    }
    out.push('\n');
    for r in rows {
        out.push_str(&r.label);
        out.push_str(&format!(",{}", r.x));
        for (_, v) in &r.metrics {
            out.push_str(&format!(",{v}"));
        }
        out.push('\n');
    }
    out
}

/// Pretty-prints a table of rows grouped by label.
pub fn print_table(title: &str, xname: &str, rows: &[Row]) {
    println!("\n== {title} ==");
    let metric_names: Vec<&str> = rows
        .first()
        .map(|r| r.metrics.iter().map(|(n, _)| *n).collect())
        .unwrap_or_default();
    print!("{:<22} {:>10}", "series", xname);
    for m in &metric_names {
        print!(" {m:>14}");
    }
    println!();
    for r in rows {
        print!("{:<22} {:>10}", r.label, r.x);
        for (_, v) in &r.metrics {
            if v.fract() == 0.0 && v.abs() < 1e12 {
                print!(" {:>14}", *v as i64);
            } else {
                print!(" {v:>14.1}");
            }
        }
        println!();
    }
}

/// Runs one engine configuration on a freshly generated scenario and
/// returns the stats plus the answer set (used to cross-check correctness
/// inside experiments).
pub fn run_once(
    scenario: &mut Scenario,
    query: &Pattern,
    config: EngineConfig,
    profile: NetProfile,
) -> (EngineStats, BTreeSet<Vec<String>>) {
    scenario.registry.set_default_profile(profile);
    scenario.registry.reset_stats();
    let mut doc = scenario.doc.clone();
    let engine = Engine::new(&scenario.registry, config).with_schema(&scenario.schema);
    let report = engine.evaluate(&mut doc, query);
    let answers = axml_query::render_result(&doc, &report.result)
        .into_iter()
        .collect();
    (report.stats, answers)
}

/// The named strategy configurations compared throughout the evaluation.
pub fn strategy_matrix() -> Vec<(&'static str, EngineConfig)> {
    vec![
        ("naive", EngineConfig::naive()),
        ("top-down", EngineConfig::top_down()),
        (
            "lazy-lpq",
            EngineConfig {
                parallel: true,
                ..EngineConfig::lpq()
            },
        ),
        (
            "lazy-nfq",
            EngineConfig {
                layering: true,
                parallel: true,
                ..EngineConfig::nfq_plain()
            },
        ),
        (
            "lazy-nfq-typed",
            EngineConfig {
                push_queries: false,
                ..EngineConfig::default()
            },
        ),
    ]
}

/// E1/E2 — total query evaluation time and calls invoked, per strategy,
/// scaling the document (the paper's headline orders-of-magnitude figure).
pub fn e1_e2_strategies(hotel_counts: &[usize], profile: NetProfile) -> Vec<Row> {
    let mut rows = Vec::new();
    let q = figure4_query();
    for &hotels in hotel_counts {
        let params = ScenarioParams {
            hotels,
            ..Default::default()
        };
        let mut reference: Option<BTreeSet<Vec<String>>> = None;
        for (name, config) in strategy_matrix() {
            let mut sc = generate(&params);
            let (stats, answers) = run_once(&mut sc, &q, config, profile);
            match &reference {
                None => reference = Some(answers),
                Some(r) => assert_eq!(&answers, r, "{name} disagrees at {hotels} hotels"),
            }
            rows.push(Row {
                label: name.to_string(),
                x: hotels as f64,
                metrics: vec![
                    ("total_ms", stats.total_time_ms()),
                    ("sim_net_ms", stats.sim_time_ms),
                    ("calls", stats.calls_invoked as f64),
                    ("bytes", stats.bytes_transferred as f64),
                ],
            });
        }
    }
    rows
}

/// E3 — the accuracy/efficiency trade-off of relevance detection (§4, §6.1):
/// exact NFQs vs the XPath relaxation vs LPQs, as service cost varies.
pub fn e3_exact_vs_lenient(latencies_ms: &[f64]) -> Vec<Row> {
    let mut rows = Vec::new();
    let q = figure4_query();
    let params = ScenarioParams {
        hotels: 100,
        ..Default::default()
    };
    let variants: Vec<(&str, EngineConfig)> = vec![
        (
            "nfq-exact",
            EngineConfig {
                push_queries: false,
                ..EngineConfig::default()
            },
        ),
        (
            "nfq-lenient-types",
            EngineConfig {
                typing: Typing::Lenient,
                push_queries: false,
                ..EngineConfig::default()
            },
        ),
        (
            "nfq-xpath-relaxed",
            EngineConfig {
                relax_xpath: true,
                typing: Typing::None,
                push_queries: false,
                parallel: true,
                layering: true,
                ..EngineConfig::nfq_plain()
            },
        ),
        (
            "lpq-only",
            EngineConfig {
                parallel: true,
                ..EngineConfig::lpq()
            },
        ),
    ];
    for &lat in latencies_ms {
        let profile = NetProfile {
            latency_ms: lat,
            bytes_per_ms: 100.0,
        };
        for (name, config) in &variants {
            let mut sc = generate(&params);
            let (stats, _) = run_once(&mut sc, &q, config.clone(), profile);
            rows.push(Row {
                label: name.to_string(),
                x: lat,
                metrics: vec![
                    ("total_ms", stats.total_time_ms()),
                    ("analysis_ms", stats.relevance_cpu.as_secs_f64() * 1e3),
                    ("sim_net_ms", stats.sim_time_ms),
                    ("calls", stats.calls_invoked as f64),
                ],
            });
        }
    }
    rows
}

/// E4 — layering and condition-(✳) parallelism (§4.3–4.4): wall-clock
/// (simulated) impact of batching independent calls, as latency grows.
pub fn e4_layering_parallel(latencies_ms: &[f64]) -> Vec<Row> {
    let mut rows = Vec::new();
    let q = figure4_query();
    let params = ScenarioParams {
        hotels: 100,
        ..Default::default()
    };
    let variants: Vec<(&str, EngineConfig)> = vec![
        ("nfqa-sequential", EngineConfig::nfq_plain()),
        (
            "nfqa-layered",
            EngineConfig {
                layering: true,
                ..EngineConfig::nfq_plain()
            },
        ),
        (
            "nfqa-layered-parallel",
            EngineConfig {
                layering: true,
                parallel: true,
                ..EngineConfig::nfq_plain()
            },
        ),
    ];
    for &lat in latencies_ms {
        let profile = NetProfile {
            latency_ms: lat,
            bytes_per_ms: 100.0,
        };
        for (name, config) in &variants {
            let mut sc = generate(&params);
            let (stats, _) = run_once(&mut sc, &q, config.clone(), profile);
            rows.push(Row {
                label: name.to_string(),
                x: lat,
                metrics: vec![
                    ("sim_net_ms", stats.sim_time_ms),
                    ("rounds", stats.rounds as f64),
                    ("nfq_evals", stats.relevance_evals as f64),
                    ("calls", stats.calls_invoked as f64),
                ],
            });
        }
    }
    rows
}

/// E5 — pushing queries (§7): transfer volume and time with/without push,
/// as the five-star selectivity varies (the fraction of a result that is
/// actually useful).
pub fn e5_push(selectivities: &[f64]) -> Vec<Row> {
    let mut rows = Vec::new();
    let q = figure4_query();
    // slow pipe so transfer dominates
    let profile = NetProfile {
        latency_ms: 20.0,
        bytes_per_ms: 10.0,
    };
    for &sel in selectivities {
        let params = ScenarioParams {
            hotels: 100,
            restos_per_hotel: 10,
            five_star_resto_fraction: sel,
            ..Default::default()
        };
        for (name, push) in [("no-push", false), ("push", true)] {
            let config = EngineConfig {
                push_queries: push,
                ..EngineConfig::default()
            };
            let mut sc = generate(&params);
            let (stats, _) = run_once(&mut sc, &q, config, profile);
            rows.push(Row {
                label: name.to_string(),
                x: sel,
                metrics: vec![
                    ("bytes", stats.bytes_transferred as f64),
                    ("sim_net_ms", stats.sim_time_ms),
                    ("pushed_calls", stats.pushed_calls as f64),
                    ("calls", stats.calls_invoked as f64),
                ],
            });
        }
    }
    rows
}

/// E6 — the F-guide (§6.2): relevance-detection CPU on the guide, and
/// the guide's compactness — its classes (guide nodes) over the input
/// document's calls against the document's nodes — as the document grows.
pub fn e6_fguide(hotel_counts: &[usize]) -> Vec<Row> {
    let mut rows = Vec::new();
    let q = figure4_query();
    for &hotels in hotel_counts {
        let mut sc = generate(&ScenarioParams {
            hotels,
            ..Default::default()
        });
        let doc = &sc.doc;
        let doc_nodes = doc.len();
        let mut guide = FGuide::default();
        for &node in doc.calls_unordered() {
            if let Some((id, _)) = doc.call_info(node) {
                guide.class_of(doc, node, id);
            }
        }
        let config = EngineConfig {
            push_queries: false,
            ..EngineConfig::default()
        };
        let (stats, _) = run_once(&mut sc, &q, config, NetProfile::free());
        rows.push(Row {
            label: "nfq-detection".to_string(),
            x: hotels as f64,
            metrics: vec![
                ("analysis_ms", stats.relevance_cpu.as_secs_f64() * 1e3),
                ("doc_nodes", doc_nodes as f64),
                ("guide_classes", guide.len() as f64),
                ("calls", stats.calls_invoked as f64),
            ],
        });
    }
    rows
}

/// E7 — type-based pruning (§5): calls invoked as distractor volume grows,
/// untyped vs lenient vs exact typing.
pub fn e7_typing(museum_counts: &[usize]) -> Vec<Row> {
    let mut rows = Vec::new();
    let q = figure4_query();
    for &museums in museum_counts {
        let params = ScenarioParams {
            hotels: 100,
            museums_per_hotel: museums,
            ..Default::default()
        };
        for (name, typing) in [
            ("untyped", Typing::None),
            ("lenient-types", Typing::Lenient),
            ("exact-types", Typing::Exact),
        ] {
            let config = EngineConfig {
                typing,
                push_queries: false,
                parallel: true,
                layering: true,
                ..EngineConfig::default()
            };
            let mut sc = generate(&params);
            let (stats, _) = run_once(&mut sc, &q, config, NetProfile::latency(40.0));
            rows.push(Row {
                label: name.to_string(),
                x: museums as f64,
                metrics: vec![
                    ("calls", stats.calls_invoked as f64),
                    ("sim_net_ms", stats.sim_time_ms),
                    ("analysis_ms", stats.relevance_cpu.as_secs_f64() * 1e3),
                ],
            });
        }
    }
    rows
}

/// A1 (ablation) — satisfiability qualification counts, exact vs lenient,
/// on schemas with growing alternation width (where the graph schema
/// over-approximates).
pub fn a1_sat_ablation(widths: &[usize]) -> Vec<Row> {
    use axml_query::parse_query;
    use axml_schema::{function_satisfies, parse_schema, SatMode};
    let mut rows = Vec::new();
    for &w in widths {
        // element a = (b0 | b1 | … | b{w-1}) — only one child can exist;
        // query asks for k of them at once
        let mut text = String::from("function f = in: data, out: a\n");
        let alts: Vec<String> = (0..w).map(|i| format!("b{i}")).collect();
        text.push_str(&format!("element a = ({})\n", alts.join(" | ")));
        for b in &alts {
            text.push_str(&format!("element {b} = data\n"));
        }
        let schema = parse_schema(&text).unwrap();
        // queries requiring 1..=w distinct children
        let mut exact_yes = 0usize;
        let mut lenient_yes = 0usize;
        for k in 1..=w {
            let preds: String = (0..k).map(|i| format!("[b{i}]")).collect();
            let q = parse_query(&format!("/a{preds}")).unwrap();
            if function_satisfies(
                &schema,
                &q,
                "f",
                axml_query::EdgeKind::Child,
                SatMode::Exact,
            ) {
                exact_yes += 1;
            }
            if function_satisfies(
                &schema,
                &q,
                "f",
                axml_query::EdgeKind::Child,
                SatMode::Lenient,
            ) {
                lenient_yes += 1;
            }
        }
        rows.push(Row {
            label: "exact".into(),
            x: w as f64,
            metrics: vec![("qualified", exact_yes as f64), ("of", w as f64)],
        });
        rows.push(Row {
            label: "lenient".into(),
            x: w as f64,
            metrics: vec![("qualified", lenient_yes as f64), ("of", w as f64)],
        });
    }
    rows
}

/// A2 (ablation) — NFQ re-evaluation counts: plain NFQA vs layered vs
/// layered+parallel (the motivation for §4.2–4.4).
pub fn a2_nfq_evals(hotel_counts: &[usize]) -> Vec<Row> {
    let mut rows = Vec::new();
    let q = figure4_query();
    let variants: Vec<(&str, EngineConfig)> = vec![
        ("nfqa-plain", EngineConfig::nfq_plain()),
        (
            "nfqa-layered",
            EngineConfig {
                layering: true,
                ..EngineConfig::nfq_plain()
            },
        ),
        (
            "nfqa-layered-parallel",
            EngineConfig {
                layering: true,
                parallel: true,
                ..EngineConfig::nfq_plain()
            },
        ),
    ];
    for &hotels in hotel_counts {
        let params = ScenarioParams {
            hotels,
            ..Default::default()
        };
        for (name, config) in &variants {
            let mut sc = generate(&params);
            let (stats, _) = run_once(&mut sc, &q, config.clone(), NetProfile::free());
            rows.push(Row {
                label: name.to_string(),
                x: hotels as f64,
                metrics: vec![
                    ("nfq_evals", stats.relevance_evals as f64),
                    ("rounds", stats.rounds as f64),
                    ("analysis_ms", stats.relevance_cpu.as_secs_f64() * 1e3),
                ],
            });
        }
    }
    rows
}

/// E8 — speculative invocation (§4.4's closing direction, "calling
/// functions in parallel just in case"): wasted calls vs wall-clock, as
/// service latency varies.
pub fn e8_speculation(latencies_ms: &[f64]) -> Vec<Row> {
    use axml_core::engine::Speculation;
    let mut rows = Vec::new();
    let q = figure4_query();
    let params = ScenarioParams {
        hotels: 100,
        ..Default::default()
    };
    let variants: Vec<(&str, EngineConfig)> = vec![
        (
            "strict-layered-par",
            EngineConfig {
                layering: true,
                parallel: true,
                ..EngineConfig::nfq_plain()
            },
        ),
        (
            "speculative-always",
            EngineConfig {
                speculation: Speculation::Always,
                ..EngineConfig::nfq_plain()
            },
        ),
        (
            "speculative-cost50",
            EngineConfig {
                speculation: Speculation::CostBased {
                    latency_threshold_ms: 50.0,
                },
                ..EngineConfig::nfq_plain()
            },
        ),
    ];
    for &lat in latencies_ms {
        let profile = NetProfile {
            latency_ms: lat,
            bytes_per_ms: 100.0,
        };
        for (name, config) in &variants {
            let mut sc = generate(&params);
            let (stats, _) = run_once(&mut sc, &q, config.clone(), profile);
            rows.push(Row {
                label: name.to_string(),
                x: lat,
                metrics: vec![
                    ("sim_net_ms", stats.sim_time_ms),
                    ("calls", stats.calls_invoked as f64),
                    ("rounds", stats.rounds as f64),
                    ("spec_rounds", stats.speculative_rounds as f64),
                ],
            });
        }
    }
    rows
}

/// A3 (ablation) — containment-based pruning of call-finding queries
/// (§4.1's redundancy elimination): query evaluations and analysis CPU
/// with and without it.
pub fn a3_containment(hotel_counts: &[usize]) -> Vec<Row> {
    let mut rows = Vec::new();
    let q = figure4_query();
    for &hotels in hotel_counts {
        let params = ScenarioParams {
            hotels,
            ..Default::default()
        };
        for (name, pruning) in [("lpq-pruned", true), ("lpq-all", false)] {
            let config = EngineConfig {
                parallel: true,
                containment_pruning: pruning,
                ..EngineConfig::lpq()
            };
            let mut sc = generate(&params);
            let (stats, _) = run_once(&mut sc, &q, config, NetProfile::free());
            rows.push(Row {
                label: name.to_string(),
                x: hotels as f64,
                metrics: vec![
                    ("query_evals", stats.relevance_evals as f64),
                    ("queries_pruned", stats.queries_pruned as f64),
                    ("analysis_ms", stats.relevance_cpu.as_secs_f64() * 1e3),
                    ("calls", stats.calls_invoked as f64),
                ],
            });
        }
    }
    rows
}

/// A4 (ablation) — incremental relevance detection: NFQ evaluations
/// performed vs skipped (cached candidate sets reused) and analysis CPU.
pub fn a4_incremental(hotel_counts: &[usize]) -> Vec<Row> {
    let mut rows = Vec::new();
    let q = figure4_query();
    for &hotels in hotel_counts {
        let params = ScenarioParams {
            hotels,
            ..Default::default()
        };
        for (name, inc) in [("full-reeval", false), ("incremental", true)] {
            let config = EngineConfig {
                incremental_detection: inc,
                ..EngineConfig::nfq_plain()
            };
            let mut sc = generate(&params);
            let (stats, _) = run_once(&mut sc, &q, config, NetProfile::free());
            rows.push(Row {
                label: name.to_string(),
                x: hotels as f64,
                metrics: vec![
                    ("nfq_evals", stats.relevance_evals as f64),
                    ("skipped", stats.nfq_evals_skipped as f64),
                    ("analysis_ms", stats.relevance_cpu.as_secs_f64() * 1e3),
                    ("calls", stats.calls_invoked as f64),
                ],
            });
        }
    }
    rows
}

/// E9 — cross-domain sanity: the strategy ranking of E1 must hold on the
/// second (auctions) domain too, whose schema is deeper and join-heavier.
/// E10 — fault tolerance: graceful degradation under permanently failing
/// services. Every strategy runs the hotel workload under the same
/// deterministic fault schedule (seed 7): a `fail_prob` share of call
/// sites is permanently down, the rest answer normally; the default retry
/// policy burns its attempts at dead sites and the per-service circuit
/// breaker may open and refuse further dispatches. Reported per strategy:
/// the fraction of the fault-free answer retained (the partial-answer
/// soundness guarantee — never a wrong result, only missing subtrees),
/// failed calls, breaker refusals, and the simulated-time overhead.
pub fn e10_faults(fail_probs: &[f64]) -> Vec<Row> {
    let mut rows = Vec::new();
    let q = figure4_query();
    let params = ScenarioParams {
        hotels: 100,
        ..Default::default()
    };
    let profile = NetProfile::latency(10.0);
    for &p in fail_probs {
        for (name, config) in strategy_matrix() {
            // fault-free reference answer for this strategy
            let mut sc = generate(&params);
            let (_, reference) = run_once(&mut sc, &q, config.clone(), profile);
            let mut sc = generate(&params);
            sc.registry.set_default_fault_profile(FaultProfile {
                transient_failures: usize::MAX, // flaky sites never recover
                timeout_prob: 0.0,
                ..FaultProfile::chaos(7, p)
            });
            let (stats, answers) = run_once(&mut sc, &q, config, profile);
            assert!(
                answers.is_subset(&reference),
                "{name} produced answers outside the fault-free result at p={p}"
            );
            let frac = if reference.is_empty() {
                1.0
            } else {
                answers.len() as f64 / reference.len() as f64
            };
            rows.push(Row {
                label: name.to_string(),
                x: p,
                metrics: vec![
                    ("total_ms", stats.total_time_ms()),
                    ("sim_net_ms", stats.sim_time_ms),
                    ("calls", stats.calls_invoked as f64),
                    ("failed", stats.failed_calls as f64),
                    ("breaker_skips", stats.breaker_skips as f64),
                    ("answer_frac", frac),
                    ("complete", if stats.is_complete() { 1.0 } else { 0.0 }),
                ],
            });
        }
    }
    rows
}

/// E11 — cross-query reuse (reconstructed §7): the memoized call-result
/// cache across a session of overlapping queries against one stored
/// document, swept over cache validity windows. The stream interleaves
/// three queries that share service calls (all-five-star hotels, the
/// Figure 4 query, Best Western's rating) and repeats the Figure 4 query
/// at the end; 100 ms of simulated idle time separates consecutive
/// queries, so finite TTLs age out. Reported per validity window:
/// invocations, hit/stale counts, hit rate, total simulated network
/// time, and the *warm* cost of the repeated final query — the headline
/// number, which falls to zero once the window outlives the session.
/// The `no-cache` row is the same stream on cache-less engines. Answers
/// are asserted identical across all rows: the cache must be invisible.
pub fn e11_cache(ttls_ms: &[f64]) -> Vec<Row> {
    use axml_query::parse_query;
    use axml_store::{CacheConfig, DocumentStore, SessionOptions};

    let params = ScenarioParams {
        hotels: 100,
        ..Default::default()
    };
    let profile = NetProfile::latency(10.0);
    let queries: Vec<Pattern> = vec![
        parse_query("/hotels/hotel[rating=\"*****\"]/name/$N -> $N").unwrap(),
        figure4_query(),
        parse_query("/hotels/hotel[name=\"Best Western\"]/rating/$R -> $R").unwrap(),
        figure4_query(),
    ];
    let idle_ms = 100.0;
    let mut rows = Vec::new();

    // baseline: the same stream, every query evaluated cold without a cache
    let mut reference: Vec<BTreeSet<Vec<String>>> = Vec::new();
    {
        let mut sc = generate(&params);
        let (mut calls, mut sim, mut warm) = (0usize, 0.0, 0.0);
        for q in &queries {
            let (stats, answers) = run_once(&mut sc, q, EngineConfig::default(), profile);
            calls += stats.calls_invoked;
            sim += stats.sim_time_ms;
            warm = stats.sim_time_ms;
            reference.push(answers);
        }
        rows.push(Row {
            label: "no-cache".to_string(),
            x: 0.0,
            metrics: vec![
                ("calls", calls as f64),
                ("hits", 0.0),
                ("stale", 0.0),
                ("hit_rate", 0.0),
                ("sim_ms", sim),
                ("warm_ms", warm),
            ],
        });
    }

    for &ttl in ttls_ms {
        let mut sc = generate(&params);
        sc.registry.set_default_profile(profile);
        sc.registry.reset_stats();
        let mut store = DocumentStore::with_cache_config(CacheConfig::with_ttl_ms(ttl));
        store.insert("hotels", sc.doc.clone());
        let mut session = store
            .session(
                "hotels",
                &sc.registry,
                Some(&sc.schema),
                SessionOptions::default(),
            )
            .expect("document just inserted");
        let (mut calls, mut hits, mut stale, mut misses) = (0usize, 0usize, 0usize, 0usize);
        let (mut sim, mut warm) = (0.0, 0.0);
        for (i, q) in queries.iter().enumerate() {
            if i > 0 {
                session.advance_clock(idle_ms);
            }
            let report = session.query(q);
            assert_eq!(
                report.answers, reference[i],
                "ttl={ttl}: the cache changed query {i}'s answer"
            );
            calls += report.stats.calls_invoked;
            hits += report.stats.cache_hits;
            stale += report.stats.cache_stale;
            misses += report.stats.cache_misses;
            sim += report.stats.sim_time_ms;
            warm = report.stats.sim_time_ms;
        }
        let probes = hits + misses + stale;
        rows.push(Row {
            label: format!("ttl-{ttl}ms"),
            x: ttl,
            metrics: vec![
                ("calls", calls as f64),
                ("hits", hits as f64),
                ("stale", stale as f64),
                (
                    "hit_rate",
                    if probes == 0 {
                        0.0
                    } else {
                        hits as f64 / probes as f64
                    },
                ),
                ("sim_ms", sim),
                ("warm_ms", warm),
            ],
        });
    }
    rows
}

/// E12 — tracing overhead: the CPU cost of the structured observability
/// stream. The E1/E3 hotel workload runs with and without a `RingSink`
/// observer attached; the observer never touches the simulated clock, so
/// `sim_net_ms` is asserted identical and the delta in total time is pure
/// instrumentation cost. Best-of-`reps` damps scheduler noise. The
/// acceptance bar is < 5% on the traced total (sim-time dominated).
pub fn e12_trace_overhead(hotel_counts: &[usize]) -> Vec<Row> {
    use axml_obs::RingSink;
    let q = figure4_query();
    let profile = NetProfile::default();
    let reps = 3;
    let variants: Vec<(&str, EngineConfig)> = vec![
        (
            "lazy-nfq-typed",
            EngineConfig {
                push_queries: false,
                ..EngineConfig::default()
            },
        ),
        (
            "nfq-exact",
            EngineConfig {
                parallel: true,
                layering: true,
                push_queries: false,
                ..EngineConfig::nfq_plain()
            },
        ),
        (
            "lazy-lpq",
            EngineConfig {
                parallel: true,
                ..EngineConfig::lpq()
            },
        ),
    ];
    let mut rows = Vec::new();
    for &hotels in hotel_counts {
        let params = ScenarioParams {
            hotels,
            ..Default::default()
        };
        for (name, config) in &variants {
            let (mut plain_ms, mut traced_ms) = (f64::INFINITY, f64::INFINITY);
            let mut events = 0usize;
            for _ in 0..reps {
                let mut sc = generate(&params);
                let (plain, _) = run_once(&mut sc, &q, config.clone(), profile);

                let mut sc = generate(&params);
                sc.registry.set_default_profile(profile);
                sc.registry.reset_stats();
                let mut doc = sc.doc.clone();
                let ring = RingSink::unbounded();
                let engine = Engine::new(&sc.registry, config.clone())
                    .with_schema(&sc.schema)
                    .with_observer(&ring);
                let traced = engine.evaluate(&mut doc, &q).stats;

                assert_eq!(
                    plain.sim_time_ms, traced.sim_time_ms,
                    "{name}: the observer changed simulated time at {hotels} hotels"
                );
                assert_eq!(
                    plain.calls_invoked, traced.calls_invoked,
                    "{name}: the observer changed the calls invoked at {hotels} hotels"
                );
                plain_ms = plain_ms.min(plain.total_time_ms());
                traced_ms = traced_ms.min(traced.total_time_ms());
                events = ring.len();
            }
            let overhead_pct = if plain_ms > 0.0 {
                (traced_ms - plain_ms) / plain_ms * 100.0
            } else {
                0.0
            };
            rows.push(Row {
                label: name.to_string(),
                x: hotels as f64,
                metrics: vec![
                    ("plain_ms", plain_ms),
                    ("traced_ms", traced_ms),
                    ("overhead_pct", overhead_pct),
                    ("events", events as f64),
                ],
            });
        }
    }
    rows
}

pub fn e9_auctions(auction_counts: &[usize]) -> Vec<Row> {
    use axml_gen::auctions::{auction_query, generate_auctions, AuctionParams};
    let mut rows = Vec::new();
    let q = auction_query();
    for &auctions in auction_counts {
        let params = AuctionParams {
            auctions,
            ..Default::default()
        };
        let mut reference: Option<BTreeSet<Vec<String>>> = None;
        for (name, config) in strategy_matrix() {
            let mut sc = generate_auctions(&params);
            let (stats, answers) = run_once(&mut sc, &q, config, NetProfile::default());
            match &reference {
                None => reference = Some(answers),
                Some(r) => assert_eq!(&answers, r, "{name} disagrees at {auctions} auctions"),
            }
            rows.push(Row {
                label: name.to_string(),
                x: auctions as f64,
                metrics: vec![
                    ("total_ms", stats.total_time_ms()),
                    ("sim_net_ms", stats.sim_time_ms),
                    ("calls", stats.calls_invoked as f64),
                    ("bytes", stats.bytes_transferred as f64),
                ],
            });
        }
    }
    rows
}

/// E14 — the hot-path evaluator ablation: interned-label matching, the
/// label→node index, and delta-scoped NFQ re-evaluation, measured as real
/// CPU milliseconds per full lazy evaluation. `NetProfile::free()` zeroes
/// the simulated network, so wall-clock ≈ evaluator CPU. Four cumulative
/// modes per (query shape, document size) cell:
///
/// * `seed` — string-compare evaluator, no index, full NFQ re-evaluation
///   every round (the pre-optimisation engine),
/// * `interned` — u32 symbol compares,
/// * `interned+index` — plus index-driven descendant steps,
/// * `interned+index+delta` — plus delta-scoped NFQ re-evaluation.
///
/// Answers are asserted identical across all modes (the flags are pure CPU
/// trades); `speedup` is seed-mode CPU over this mode's CPU for the same
/// cell, so the ratio is machine-independent. Best-of-`reps` damps
/// scheduler noise. `BENCH_E14.json` (written by the `report` binary) is
/// the machine artifact CI asserts against.
pub fn e14_hotpath(hotel_counts: &[usize], reps: usize) -> Vec<Row> {
    use axml_query::{parse_query, EvalOptions};
    use std::time::Instant;
    let shapes: Vec<(&str, Pattern)> = vec![
        ("figure4", figure4_query()),
        (
            "descendant",
            parse_query("//restaurant[rating=\"*****\"]/name/$N -> $N").unwrap(),
        ),
    ];
    let modes: Vec<(&'static str, bool, EvalOptions)> = vec![
        (
            "seed",
            false,
            EvalOptions {
                interning: false,
                index: false,
            },
        ),
        (
            "interned",
            false,
            EvalOptions {
                interning: true,
                index: false,
            },
        ),
        (
            "interned+index",
            false,
            EvalOptions {
                interning: true,
                index: true,
            },
        ),
        (
            "interned+index+delta",
            true,
            EvalOptions {
                interning: true,
                index: true,
            },
        ),
    ];
    let mut rows = Vec::new();
    for &hotels in hotel_counts {
        let params = ScenarioParams {
            hotels,
            ..Default::default()
        };
        for (shape, q) in &shapes {
            let mut seed_ms: Option<f64> = None;
            let mut reference: Option<BTreeSet<Vec<String>>> = None;
            for (mode, incremental, opts) in &modes {
                let config = EngineConfig {
                    incremental_detection: *incremental,
                    eval_options: *opts,
                    ..EngineConfig::nfq_plain()
                };
                let mut best = f64::INFINITY;
                let mut best_analysis = f64::INFINITY;
                let mut answers = BTreeSet::new();
                for _ in 0..reps.max(1) {
                    let mut sc = generate(&params);
                    let t = Instant::now();
                    let (stats, a) = run_once(&mut sc, q, config.clone(), NetProfile::free());
                    best = best.min(t.elapsed().as_secs_f64() * 1e3);
                    best_analysis = best_analysis.min(stats.relevance_cpu.as_secs_f64() * 1e3);
                    answers = a;
                }
                match &reference {
                    None => reference = Some(answers),
                    Some(r) => assert_eq!(
                        &answers, r,
                        "{mode} changed the {shape} answer at {hotels} hotels"
                    ),
                }
                let speedup = match seed_ms {
                    None => {
                        seed_ms = Some(best);
                        1.0
                    }
                    Some(s) => s / best.max(1e-9),
                };
                rows.push(Row {
                    label: format!("{shape}/{mode}"),
                    x: hotels as f64,
                    metrics: vec![
                        ("cpu_ms", best),
                        ("analysis_ms", best_analysis),
                        ("speedup", speedup),
                    ],
                });
            }
        }
    }
    rows
}

/// Serializes E14 rows as the `BENCH_E14.json` artifact: one row object
/// per line so the file diffs cleanly and [`e14_parse_json`] can read it
/// back without a JSON library.
pub fn e14_to_json(rows: &[Row]) -> String {
    let mut out = String::from("{\n  \"experiment\": \"e14\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"series\": \"{}\", \"hotels\": {}, ",
            r.label, r.x
        ));
        let m: Vec<String> = r
            .metrics
            .iter()
            .map(|(n, v)| format!("\"{n}\": {v:.4}"))
            .collect();
        out.push_str(&m.join(", "));
        out.push_str(&format!("}}{sep}\n"));
    }
    out.push_str("  ]\n}\n");
    out
}

/// One parsed `BENCH_E14.json` row.
#[derive(Clone, Debug, PartialEq)]
pub struct E14Entry {
    /// `shape/mode` series label.
    pub series: String,
    /// Document size (hotels).
    pub hotels: f64,
    /// Measured CPU milliseconds (machine-dependent — not compared).
    pub cpu_ms: f64,
    /// Seed-mode CPU over this mode's CPU (machine-independent).
    pub speedup: f64,
}

/// Extracts a `"key": "value"` string field from one artifact line.
fn json_str_field(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\": \"");
    let start = line.find(&tag)? + tag.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

/// Extracts a `"key": number` field from one artifact line.
fn json_num_field(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\": ");
    let start = line.find(&tag)? + tag.len();
    let end = line[start..]
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .map(|i| i + start)
        .unwrap_or(line.len());
    line[start..end].parse().ok()
}

/// Parses the artifact written by [`e14_to_json`] (line-per-row; no JSON
/// library needed). Unknown lines are skipped, so the format may grow
/// fields without breaking old readers.
pub fn e14_parse_json(text: &str) -> Vec<E14Entry> {
    text.lines()
        .filter_map(|line| {
            Some(E14Entry {
                series: json_str_field(line, "series")?,
                hotels: json_num_field(line, "hotels")?,
                cpu_ms: json_num_field(line, "cpu_ms")?,
                speedup: json_num_field(line, "speedup")?,
            })
        })
        .collect()
}

/// E15 — multi-tenant serving throughput: N sessions, each a stream of
/// queries over its *own* stored document, scheduled onto the store's
/// work-stealing worker pool, swept over pool sizes.
///
/// Every call is backed by a service that really sleeps (wall-clock, not
/// simulated) — the serving regime the scheduler exists for, where query
/// latency is dominated by waiting on external providers. Throughput then
/// scales with how many of those waits overlap, so the sweep's
/// machine-independent headline is `scaling` = qps at `w` workers over
/// qps at 1 worker (sleeping threads overlap even on a single core; CPU
/// count does not gate it). The cache is disabled (TTL 0) and every
/// tenant's call parameters are distinct, so every query pays its full
/// provider cost — no cross-query reuse flatters the numbers.
///
/// Asserted invariant: per-session answers are identical across all pool
/// sizes (scheduling moves waits, never answers).
///
/// Reported per pool size: `qps`, latency `p50_ms`/`max_ms` (from the
/// run's `axml-obs` histogram; 64 samples are too few for a p99 that
/// differs from the maximum), `wall_ms`, and `scaling`. `BENCH_E15.json`
/// (written by the `report` binary) is the machine artifact CI gates on.
pub fn e15_concurrent(
    worker_counts: &[usize],
    sessions: usize,
    queries_per_session: usize,
) -> Vec<Row> {
    use axml_query::parse_query;
    use axml_services::{CallRequest, FnService, Registry};
    use axml_store::{CacheConfig, DocumentStore, SchedulerMode, SessionSpec};
    use axml_xml::{parse, Document};
    use std::time::Duration;

    /// Real wall-clock latency of one provider call.
    const SERVICE_WALL_MS: u64 = 2;
    /// Calls each query must resolve (sequentially, within one engine).
    const CALLS_PER_QUERY: usize = 4;

    let mut registry = Registry::new();
    registry.register(FnService::new("lookup", |req: &CallRequest| {
        std::thread::sleep(Duration::from_millis(SERVICE_WALL_MS));
        let key = req.first_text().unwrap_or("?");
        parse(&format!("<item><id>{key}</id></item>")).unwrap()
    }));
    registry.set_default_profile(NetProfile::free());

    let mut store = DocumentStore::with_cache_config(CacheConfig::with_ttl_ms(0.0));
    for s in 0..sessions {
        let mut d = Document::with_root("r");
        let root = d.root();
        for c in 0..CALLS_PER_QUERY {
            let call = d.add_call(root, "lookup");
            d.add_text(call, format!("tenant{s}-{c}"));
        }
        store.insert(format!("t{s}"), d);
    }
    let query = parse_query("/r/item/id/$I -> $I").unwrap();
    let specs: Vec<SessionSpec> = (0..sessions)
        .map(|s| {
            SessionSpec::new(
                format!("tenant-{s}"),
                format!("t{s}"),
                vec![query.clone(); queries_per_session],
            )
        })
        .collect();

    let mut rows = Vec::new();
    let mut base_qps: Option<f64> = None;
    // (session name, per-query answer sets) — the 1-worker run pins it
    type SessionAnswers = Vec<(String, Vec<BTreeSet<Vec<String>>>)>;
    let mut reference: Option<SessionAnswers> = None;
    for &workers in worker_counts {
        let report = store.serve(
            &specs,
            &registry,
            None,
            &SchedulerMode::Concurrent { workers },
            None,
        );
        let answers = report.answers_by_session();
        match &reference {
            None => reference = Some(answers),
            Some(r) => assert_eq!(
                &answers, r,
                "worker count {workers} changed a session's answers"
            ),
        }
        let hist = report.latency_histogram();
        let qps = report.queries_per_sec();
        let scaling = match base_qps {
            None => {
                base_qps = Some(qps);
                1.0
            }
            Some(b) => qps / b.max(1e-9),
        };
        rows.push(Row {
            label: "serve".to_string(),
            x: workers as f64,
            metrics: vec![
                ("qps", qps),
                ("p50_ms", hist.quantile(0.5)),
                ("max_ms", hist.max()),
                ("wall_ms", report.wall_ms),
                ("scaling", scaling),
            ],
        });
    }
    rows
}

/// Serializes E15 rows as the `BENCH_E15.json` artifact (same
/// line-per-row shape as [`e14_to_json`]).
pub fn e15_to_json(rows: &[Row]) -> String {
    let mut out = String::from("{\n  \"experiment\": \"e15\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"series\": \"{}\", \"workers\": {}, ",
            r.label, r.x
        ));
        let m: Vec<String> = r
            .metrics
            .iter()
            .map(|(n, v)| format!("\"{n}\": {v:.4}"))
            .collect();
        out.push_str(&m.join(", "));
        out.push_str(&format!("}}{sep}\n"));
    }
    out.push_str("  ]\n}\n");
    out
}

/// One parsed `BENCH_E15.json` row.
#[derive(Clone, Debug, PartialEq)]
pub struct E15Entry {
    /// Series label (currently always `serve`).
    pub series: String,
    /// Worker-pool size.
    pub workers: f64,
    /// Measured queries/sec (machine-dependent — not compared).
    pub qps: f64,
    /// qps at this pool size over qps at 1 worker (machine-independent).
    pub scaling: f64,
}

/// Parses the artifact written by [`e15_to_json`].
pub fn e15_parse_json(text: &str) -> Vec<E15Entry> {
    text.lines()
        .filter_map(|line| {
            Some(E15Entry {
                series: json_str_field(line, "series")?,
                workers: json_num_field(line, "workers")?,
                qps: json_num_field(line, "qps")?,
                scaling: json_num_field(line, "scaling")?,
            })
        })
        .collect()
}

/// E13 — deadline-aware evaluation: hedged invocations and end-to-end
/// deadlines against a heavy-tailed latency profile.
///
/// The workload is the Figure 4 query over 100 hotels with a 10 ms base
/// latency where a deterministic 30 % of call sites run 20× slower — the
/// classic tail-at-scale shape. The `hedged` series sweeps the hedge
/// trigger: once a call's simulated cost passes the trigger, a duplicate
/// leg (with an independent deterministic fate) races it and the first
/// success wins. The `no-hedge` series is the identical workload without
/// hedging, so the pair isolates the mechanism.
///
/// Asserted invariants, not just reported numbers: hedging never changes
/// the answer, never makes a batch slower on this profile (no failures,
/// so the winner always completes no later than the primary), and its
/// wasted work obeys the per-leg bound — each loser leg wastes at most
/// its own cost, ≤ `slowdown_factor × latency` per hedge, and the waste
/// is *off-clock* (loser legs never extend the batch).
///
/// The `deadline` series sweeps an end-to-end budget over the same
/// workload (hedging off): the engine must close the round at the
/// deadline with a sound partial answer — `answer_frac` rises with the
/// budget and `sim_net_ms` never overruns it.
pub fn e13_hedging_deadlines(triggers_ms: &[f64], deadlines_ms: &[f64]) -> Vec<Row> {
    use axml_core::HedgeConfig;
    let mut rows = Vec::new();
    let q = figure4_query();
    let params = ScenarioParams {
        hotels: 100,
        ..Default::default()
    };
    let profile = NetProfile::latency(10.0);
    let tail = FaultProfile {
        seed: 7,
        fail_prob: 0.0,
        transient_failures: 0,
        timeout_prob: 0.0,
        slowdown_prob: 0.3,
        slowdown_factor: 20.0,
    };
    let run_with = |config: EngineConfig| {
        let mut sc = generate(&params);
        sc.registry.set_default_fault_profile(tail);
        run_once(&mut sc, &q, config, profile)
    };
    let (base, reference) = run_with(EngineConfig::default());
    let metrics_of = |stats: &EngineStats, frac: f64| {
        vec![
            ("sim_net_ms", stats.sim_time_ms),
            ("calls", stats.calls_invoked as f64),
            ("hedges", stats.hedged_calls as f64),
            ("hedge_wins", stats.hedge_wins as f64),
            ("wasted_ms", stats.hedge_wasted_ms),
            ("failed", stats.failed_calls as f64),
            ("answer_frac", frac),
            ("complete", if stats.is_complete() { 1.0 } else { 0.0 }),
        ]
    };
    for &t in triggers_ms {
        rows.push(Row {
            label: "no-hedge".into(),
            x: t,
            metrics: metrics_of(&base, 1.0),
        });
        let (stats, answers) = run_with(EngineConfig {
            hedge: HedgeConfig {
                threshold_ms: t,
                latency_factor: f64::INFINITY,
            },
            ..EngineConfig::default()
        });
        assert_eq!(
            answers, reference,
            "hedging changed the answer at trigger {t}"
        );
        assert!(
            stats.sim_time_ms <= base.sim_time_ms,
            "hedging made the workload slower at trigger {t} ({} > {})",
            stats.sim_time_ms,
            base.sim_time_ms
        );
        assert!(
            stats.hedge_wasted_ms <= stats.hedged_calls as f64 * (20.0 * 10.0),
            "wasted work exceeds the per-leg bound at trigger {t}"
        );
        rows.push(Row {
            label: "hedged".into(),
            x: t,
            metrics: metrics_of(&stats, 1.0),
        });
    }
    for &d in deadlines_ms {
        let (stats, answers) = run_with(EngineConfig {
            deadline_ms: d,
            ..EngineConfig::default()
        });
        assert!(
            answers.is_subset(&reference),
            "a deadline produced answers outside the reference at {d} ms"
        );
        assert!(
            stats.sim_time_ms <= d + 1e-9,
            "the engine overran a {d} ms deadline ({} ms simulated)",
            stats.sim_time_ms
        );
        let frac = if reference.is_empty() {
            1.0
        } else {
            answers.len() as f64 / reference.len() as f64
        };
        rows.push(Row {
            label: "deadline".into(),
            x: d,
            metrics: metrics_of(&stats, frac),
        });
    }
    rows
}

/// E16 — continuous subscriptions: delta maintenance vs full
/// re-evaluation, over the hotel price-watcher feed swept by document
/// size.
///
/// The subscription engine pumps the feed with `run_until(horizon_ms)`:
/// each cache-TTL lapse triggers a refresh that re-invokes exactly the
/// lapsed calls, publishes the materialization tagged with its splice
/// paths, and reconciles every watcher — scope-filtered, so a version
/// that only changed review scores costs the price watcher nothing.
///
/// The baseline is what a subscription engine without splice tags or
/// scope filtering must do: fully re-evaluate **every** watcher at
/// **every** published version. Both sides are consumer-side CPU (the
/// producer-side refresh cost is common to both regimes and excluded),
/// measured on the same machine, so their ratio is machine-independent
/// the way E14's speedups are.
///
/// Asserted invariant, not just a reported number: per watcher, the
/// initial answer plus the accumulated deltas replays to exactly the
/// baseline's full answer at every published version (the E16 run
/// doubles as the subscription oracle).
///
/// Reported per document size: published `versions`, `deltas`,
/// `deltas_per_sec` (machine-dependent), `delta_cpu_ms` (reconcile),
/// `full_cpu_ms` (baseline), `cpu_ratio` = full/delta (gated in CI),
/// and simulated notification latency `p50_ms`/`max_ms` (from TTL lapse
/// to delta emission; a few dozen deltas per run are too few for a p99
/// that differs from the maximum).
pub fn e16_subscriptions(hotel_counts: &[usize], horizon_ms: f64) -> Vec<Row> {
    use axml_gen::feeds::{price_feed, PriceFeedParams};
    use axml_store::{CacheConfig, DocumentStore};
    use axml_sub::{replay, Delta, SubscriptionEngine, SubscriptionOptions};
    use axml_xml::CatchUp;
    use std::time::Instant;

    let mut rows = Vec::new();
    for &hotels in hotel_counts {
        let feed = price_feed(&PriceFeedParams {
            hotels,
            volatile_stride: 2,
        });
        let mut config = CacheConfig::with_ttl_ms(f64::INFINITY);
        for (service, ttl) in &feed.ttls {
            config = config.ttl_for(service.clone(), *ttl);
        }
        let mut store = DocumentStore::with_cache_config(config);
        store.insert("feed", feed.doc.clone());
        let mut engine = SubscriptionEngine::over_store(
            &store,
            "feed",
            &feed.registry,
            None,
            SubscriptionOptions {
                history_capacity: 1 << 16,
                ..SubscriptionOptions::default()
            },
        )
        .expect("feed document");
        let mut initials: Vec<(String, BTreeSet<Vec<String>>)> = Vec::new();
        for (name, query) in &feed.watchers {
            initials.push((name.clone(), engine.subscribe(name.clone(), query.clone())));
        }

        let wall0 = Instant::now();
        let deltas = engine.run_until(horizon_ms);
        let wall_s = wall0.elapsed().as_secs_f64();
        let stats = engine.stats().clone();
        let delta_cpu_ms = stats.reconcile_cpu_ms;

        // the baseline: every watcher fully re-evaluated at every
        // published version (records are materialized, so this is pure
        // CPU — no calls left to invoke in any watcher's scope)
        let doc = store.versioned("feed").expect("feed document");
        let records = match doc.publications_since(0) {
            CatchUp::Records(records) => records,
            CatchUp::Degraded(_) => unreachable!("history sized for the horizon"),
        };
        let full0 = Instant::now();
        let mut full_answers: Vec<Vec<BTreeSet<Vec<String>>>> = Vec::new();
        for record in &records {
            let mut at_version = Vec::new();
            for (_, query) in &feed.watchers {
                let mut working = (*record.doc).clone();
                let report = Engine::new(&feed.registry, EngineConfig::default())
                    .evaluate(&mut working, query);
                at_version.push(
                    axml_query::render_result(&working, &report.result)
                        .into_iter()
                        .collect::<BTreeSet<Vec<String>>>(),
                );
            }
            full_answers.push(at_version);
        }
        let full_cpu_ms = full0.elapsed().as_secs_f64() * 1000.0;

        // the oracle: replayed deltas == full answers at every version
        for (w, (name, initial)) in initials.iter().enumerate() {
            let mine: Vec<Delta> = deltas
                .iter()
                .filter(|d| &d.subscription == name)
                .cloned()
                .collect();
            let mut next = 0usize;
            let mut replayed = initial.clone();
            for (v, record) in records.iter().enumerate() {
                let upto: Vec<Delta> = mine[next..]
                    .iter()
                    .take_while(|d| d.version <= record.version)
                    .cloned()
                    .collect();
                next += upto.len();
                replayed = replay(&replayed, &upto);
                assert_eq!(
                    replayed, full_answers[v][w],
                    "E16: {name} diverged from full re-evaluation at version {}",
                    record.version
                );
            }
        }

        let mut latencies: Vec<f64> = deltas.iter().filter_map(|d| d.latency_ms).collect();
        latencies.sort_by(|a, b| a.total_cmp(b));
        let p50_ms = match latencies.len() {
            0 => 0.0,
            n => latencies[((n - 1) as f64 * 0.5).round() as usize],
        };
        let cpu_ratio = full_cpu_ms / delta_cpu_ms.max(1e-9);
        rows.push(Row {
            label: "price-feed".to_string(),
            x: hotels as f64,
            metrics: vec![
                ("versions", records.len() as f64),
                ("deltas", deltas.len() as f64),
                ("deltas_per_sec", deltas.len() as f64 / wall_s.max(1e-9)),
                ("delta_cpu_ms", delta_cpu_ms),
                ("full_cpu_ms", full_cpu_ms),
                ("cpu_ratio", cpu_ratio),
                ("p50_ms", p50_ms),
                ("max_ms", latencies.last().copied().unwrap_or(0.0)),
            ],
        });
    }
    rows
}

/// Serializes E16 rows as the `BENCH_E16.json` artifact (same
/// line-per-row shape as [`e14_to_json`] / [`e15_to_json`]).
pub fn e16_to_json(rows: &[Row]) -> String {
    let mut out = String::from("{\n  \"experiment\": \"e16\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"series\": \"{}\", \"hotels\": {}, ",
            r.label, r.x
        ));
        let m: Vec<String> = r
            .metrics
            .iter()
            .map(|(n, v)| format!("\"{n}\": {v:.4}"))
            .collect();
        out.push_str(&m.join(", "));
        out.push_str(&format!("}}{sep}\n"));
    }
    out.push_str("  ]\n}\n");
    out
}

/// One parsed `BENCH_E16.json` row.
#[derive(Clone, Debug, PartialEq)]
pub struct E16Entry {
    /// Series label (currently always `price-feed`).
    pub series: String,
    /// Document size (hotels).
    pub hotels: f64,
    /// Deltas per wall second (machine-dependent — not compared).
    pub deltas_per_sec: f64,
    /// Full-re-evaluation CPU over delta-maintenance CPU on the same
    /// machine (machine-independent).
    pub cpu_ratio: f64,
}

/// Parses the artifact written by [`e16_to_json`].
pub fn e16_parse_json(text: &str) -> Vec<E16Entry> {
    text.lines()
        .filter_map(|line| {
            Some(E16Entry {
                series: json_str_field(line, "series")?,
                hotels: json_num_field(line, "hotels")?,
                deltas_per_sec: json_num_field(line, "deltas_per_sec")?,
                cpu_ratio: json_num_field(line, "cpu_ratio")?,
            })
        })
        .collect()
}

/// E17 — compiled-plan amortization: the cost of standing up N sessions
/// that all ask the same query, with each session compiling its own
/// [`axml_core::CompiledQuery`] from scratch (`cold`) versus all of them
/// fetching from one warm shard-locked [`axml_store::PlanCache`]
/// (`cached`) — where per-session work collapses to a fingerprint lookup
/// plus the per-document symbol-table remap ([`bind`]).
///
/// Three workloads exercise three plan shapes: `hotels` (Figure 4 over
/// the Figure 2 schema — schema DFAs and typed NFQs baked in),
/// `auctions` (join variables, deeper pattern), `feeds` (the price
/// watcher's flat scan). Answers are never computed — this measures the
/// query-standup path the tentpole moved out of the per-document loop.
/// `amortization` is cold CPU over cached CPU for the same cell;
/// best-of-`reps` damps scheduler noise. `BENCH_E17.json` (written by
/// the `report` binary) is the machine artifact CI asserts against.
///
/// [`bind`]: axml_query::QueryPlan::bind
pub fn e17_plan_amortization(session_counts: &[usize], reps: usize) -> Vec<Row> {
    use axml_core::CompiledQuery;
    use axml_gen::auctions::{auction_query, generate_auctions, AuctionParams};
    use axml_gen::feeds::{price_feed, PriceFeedParams};
    use axml_store::{PlanCache, PlanCacheConfig};
    use std::time::Instant;

    let hotels = generate(&ScenarioParams {
        hotels: 100,
        ..Default::default()
    });
    let auctions = generate_auctions(&AuctionParams::default());
    let feed = price_feed(&PriceFeedParams {
        hotels: 100,
        volatile_stride: 4,
    });
    let feed_query = feed.watchers[0].1.clone();
    let workloads: Vec<(
        &str,
        Pattern,
        Option<&axml_schema::Schema>,
        &axml_xml::Document,
    )> = vec![
        ("hotels", figure4_query(), Some(&hotels.schema), &hotels.doc),
        (
            "auctions",
            auction_query(),
            Some(&auctions.schema),
            &auctions.doc,
        ),
        ("feeds", feed_query, None, &feed.doc),
    ];

    let config = EngineConfig::default();
    let mut rows = Vec::new();
    for (name, query, schema, doc) in &workloads {
        for &n in session_counts {
            let mut cold_best = f64::INFINITY;
            let mut cached_best = f64::INFINITY;
            for _ in 0..reps.max(1) {
                // cold: every session compiles its own plan, then binds it
                let t = Instant::now();
                for _ in 0..n {
                    let plan = CompiledQuery::compile(query, *schema, &config);
                    std::hint::black_box(plan.main_plan().bind(*doc));
                }
                cold_best = cold_best.min(t.elapsed().as_secs_f64() * 1e3);

                // cached: one shared cache — first fetch compiles, the
                // rest pay a fingerprint probe plus the same bind
                let plans = PlanCache::new(PlanCacheConfig::default());
                let t = Instant::now();
                for _ in 0..n {
                    let plan = plans.fetch(query, *schema, &config);
                    std::hint::black_box(plan.main_plan().bind(*doc));
                }
                cached_best = cached_best.min(t.elapsed().as_secs_f64() * 1e3);
            }
            rows.push(Row {
                label: (*name).to_string(),
                x: n as f64,
                metrics: vec![
                    ("cold_ms", cold_best),
                    ("cached_ms", cached_best),
                    ("amortization", cold_best / cached_best.max(1e-9)),
                ],
            });
        }
    }
    rows
}

/// Serializes E17 rows as the `BENCH_E17.json` artifact (same
/// line-per-row shape as [`e14_to_json`]).
pub fn e17_to_json(rows: &[Row]) -> String {
    let mut out = String::from("{\n  \"experiment\": \"e17\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"series\": \"{}\", \"sessions\": {}, ",
            r.label, r.x
        ));
        let m: Vec<String> = r
            .metrics
            .iter()
            .map(|(n, v)| format!("\"{n}\": {v:.4}"))
            .collect();
        out.push_str(&m.join(", "));
        out.push_str(&format!("}}{sep}\n"));
    }
    out.push_str("  ]\n}\n");
    out
}

/// One parsed `BENCH_E17.json` row.
#[derive(Clone, Debug, PartialEq)]
pub struct E17Entry {
    /// Workload series label.
    pub series: String,
    /// Sessions standing up the same query.
    pub sessions: f64,
    /// Cold per-session compile CPU, ms (machine-dependent — not compared).
    pub cold_ms: f64,
    /// Cold CPU over warm-cache CPU (machine-independent).
    pub amortization: f64,
}

/// Parses the artifact written by [`e17_to_json`].
pub fn e17_parse_json(text: &str) -> Vec<E17Entry> {
    text.lines()
        .filter_map(|line| {
            Some(E17Entry {
                series: json_str_field(line, "series")?,
                sessions: json_num_field(line, "sessions")?,
                cold_ms: json_num_field(line, "cold_ms")?,
                amortization: json_num_field(line, "amortization")?,
            })
        })
        .collect()
}

/// E18 (part 1) — durability: crash-recovery time as the write-ahead log
/// grows.
///
/// Each sweep point publishes `n` versions of a *constant-shape*
/// document (only one text value changes per version) into a durable
/// [`SimDir`] store — the real publication path, write-ahead tap
/// included, with full-document checkpoints on the default cadence —
/// then reboots the simulated disk and times `DocumentStore::recover`:
/// the full scan / CRC-verify / replay / re-publish pipeline.
/// Best-of-`reps` damps scheduler noise. Asserted, not just reported:
/// every recovery lands on exactly version `n` with an intact log.
///
/// Because the document shape is fixed, frames have constant size and
/// only the log length varies across the sweep: `recovery_ms` is
/// machine-dependent, but `us_per_frame` staying roughly flat is the
/// machine-independent shape claim — recovery is linear in log length.
///
/// [`SimDir`]: axml_store::SimDir
pub fn e18_recovery(log_lengths: &[usize], reps: usize) -> Vec<Row> {
    use axml_store::{CrashProfile, DocumentStore, DurabilityOptions, SimDir};
    use axml_xml::Document;
    use std::time::Instant;

    /// Groups in the constant-shape document.
    const GROUPS: usize = 64;
    let build_doc = |version: usize| {
        let mut d = Document::with_root("r");
        let root = d.root();
        for g in 0..GROUPS {
            let e = d.add_element(root, format!("g{g}"));
            d.add_text(
                e,
                if g == 0 {
                    version.to_string()
                } else {
                    "x".to_string()
                },
            );
        }
        d
    };

    let mut rows = Vec::new();
    for &n in log_lengths {
        let dir = SimDir::new(CrashProfile::default());
        let mut store = DocumentStore::durable(Box::new(dir.clone()), DurabilityOptions::default());
        store.insert("doc", build_doc(0));
        let vdoc = std::sync::Arc::clone(store.versioned("doc").expect("doc stored"));
        for i in 1..=n {
            assert_eq!(vdoc.publish(build_doc(i)), i as u64);
        }
        let log_bytes = dir.persisted("doc.wal").len();

        let mut best_ms = f64::INFINITY;
        let mut frames = 0usize;
        for _ in 0..reps.max(1) {
            let boot = dir.reopen(CrashProfile::default());
            let t = Instant::now();
            let (_recovered, report) =
                DocumentStore::recover(Box::new(boot), DurabilityOptions::default())
                    .expect("clean shutdown recovers");
            let ms = t.elapsed().as_secs_f64() * 1e3;
            assert!(report.ok(), "{:?}", report.first_error());
            assert_eq!(report.docs[0].recovered_version, n as u64);
            assert!(!report.any_truncated(), "clean log has no torn tail");
            frames = report.docs[0].frames;
            best_ms = best_ms.min(ms);
        }
        rows.push(Row {
            label: "recovery".to_string(),
            x: n as f64,
            metrics: vec![
                ("log_kb", log_bytes as f64 / 1024.0),
                ("frames", frames as f64),
                ("recovery_ms", best_ms),
                ("us_per_frame", best_ms * 1e3 / frames.max(1) as f64),
            ],
        });
    }
    rows
}

/// E18 (part 2) — durability: write-ahead logging overhead on the E15
/// serving regime.
///
/// The identical multi-tenant persistent-session workload (every call
/// backed by a service that really sleeps 2 ms wall-clock) runs twice:
/// on a plain store, and on a durable store logging every publication
/// with `fsync always`. The headline is `overhead` — durable wall time
/// over plain wall time, minus one — which CI gates at ≤ 10%
/// (`--e18-max-overhead 0.10`): durability must ride the latency the
/// serving path already pays waiting on providers, not add to it.
/// Best-of-`reps` on both sides damps scheduler noise.
///
/// Asserted, not just reported: per-session answers are identical with
/// and without the log, every tenant's publication is acknowledged, and
/// no log append failed.
pub fn e18_wal_overhead(sessions: usize, queries_per_session: usize, reps: usize) -> Vec<Row> {
    use axml_query::parse_query;
    use axml_services::{CallRequest, FnService, Registry};
    use axml_store::{
        CacheConfig, CrashProfile, DocumentStore, DurabilityOptions, PlanCacheConfig,
        SchedulerMode, SessionOptions, SessionSpec, SimDir,
    };
    use axml_xml::{parse, Document};
    use std::time::Duration;

    /// Real wall-clock latency of one provider call (as in E15).
    const SERVICE_WALL_MS: u64 = 2;
    /// Calls each query must resolve.
    const CALLS_PER_QUERY: usize = 4;
    const WORKERS: usize = 4;

    let mut registry = Registry::new();
    registry.register(FnService::new("lookup", |req: &CallRequest| {
        std::thread::sleep(Duration::from_millis(SERVICE_WALL_MS));
        let key = req.first_text().unwrap_or("?");
        parse(&format!("<item><id>{key}</id></item>")).unwrap()
    }));
    registry.set_default_profile(NetProfile::free());

    let tenant_doc = |s: usize| {
        let mut d = Document::with_root("r");
        let root = d.root();
        for c in 0..CALLS_PER_QUERY {
            let call = d.add_call(root, "lookup");
            d.add_text(call, format!("tenant{s}-{c}"));
        }
        d
    };
    let query = parse_query("/r/item/id/$I -> $I").unwrap();
    let persistent = SessionOptions {
        snapshot_per_query: false,
        ..SessionOptions::default()
    };
    let specs: Vec<SessionSpec> = (0..sessions)
        .map(|s| {
            let mut spec = SessionSpec::new(
                format!("tenant-{s}"),
                format!("t{s}"),
                vec![query.clone(); queries_per_session],
            );
            spec.options = persistent.clone();
            spec
        })
        .collect();

    // Persistent sessions materialize calls into the store, so every rep
    // serves from a fresh store; `serve` measures its own wall time.
    let run = |durable: bool| -> (f64, SessionAnswers, f64) {
        let mut best_wall = f64::INFINITY;
        let mut answers: Option<SessionAnswers> = None;
        let mut appends = 0.0;
        for _ in 0..reps.max(1) {
            let mut store = if durable {
                DocumentStore::durable_with_configs(
                    Box::new(SimDir::new(CrashProfile::default())),
                    DurabilityOptions::default(),
                    CacheConfig::default(),
                    PlanCacheConfig::default(),
                )
            } else {
                DocumentStore::new()
            };
            for s in 0..sessions {
                store.insert(format!("t{s}"), tenant_doc(s));
            }
            let report = store.serve(
                &specs,
                &registry,
                None,
                &SchedulerMode::Concurrent { workers: WORKERS },
                None,
            );
            if let Some(manager) = store.durability() {
                for s in 0..sessions {
                    let name = format!("t{s}");
                    assert!(manager.failure(&name).is_none(), "append failed for {name}");
                    assert!(
                        manager.acked_version(&name).unwrap_or(0) >= 1,
                        "{name}'s publication must be acknowledged"
                    );
                }
                appends = manager.stats().appends as f64;
            }
            best_wall = best_wall.min(report.wall_ms);
            match &answers {
                None => answers = Some(report.answers_by_session()),
                Some(a) => assert_eq!(
                    a,
                    &report.answers_by_session(),
                    "reps must agree on answers"
                ),
            }
        }
        (best_wall, answers.expect("at least one rep"), appends)
    };
    type SessionAnswers = Vec<(String, Vec<BTreeSet<Vec<String>>>)>;

    let (plain_wall, plain_answers, _) = run(false);
    let (durable_wall, durable_answers, appends) = run(true);
    assert_eq!(
        plain_answers, durable_answers,
        "the write-ahead log must be answer-invisible"
    );

    vec![Row {
        label: "serve".to_string(),
        x: sessions as f64,
        metrics: vec![
            ("plain_wall_ms", plain_wall),
            ("durable_wall_ms", durable_wall),
            ("wal_appends", appends),
            ("overhead", durable_wall / plain_wall.max(1e-9) - 1.0),
        ],
    }]
}

/// Serializes both E18 sweeps as the `BENCH_E18.json` artifact (same
/// line-per-row shape as the other artifacts; the two series carry
/// different metric sets).
pub fn e18_to_json(recovery: &[Row], serve: &[Row]) -> String {
    let mut out = String::from("{\n  \"experiment\": \"e18\",\n  \"rows\": [\n");
    let total = recovery.len() + serve.len();
    for (i, r) in recovery.iter().chain(serve.iter()).enumerate() {
        let sep = if i + 1 == total { "" } else { "," };
        out.push_str(&format!(
            "    {{\"series\": \"{}\", \"x\": {}, ",
            r.label, r.x
        ));
        let m: Vec<String> = r
            .metrics
            .iter()
            .map(|(n, v)| format!("\"{n}\": {v:.4}"))
            .collect();
        out.push_str(&m.join(", "));
        out.push_str(&format!("}}{sep}\n"));
    }
    out.push_str("  ]\n}\n");
    out
}

/// One parsed `BENCH_E18.json` row. The two series carry different
/// metrics, so the series-specific ones are optional.
#[derive(Clone, Debug, PartialEq)]
pub struct E18Entry {
    /// Series label (`recovery` or `serve`).
    pub series: String,
    /// Sweep coordinate: log length in records, or tenant count.
    pub x: f64,
    /// `serve` rows: durable-over-plain wall ratio minus one.
    pub overhead: Option<f64>,
    /// `recovery` rows: best-of-reps recovery wall time, ms
    /// (machine-dependent — reported, not gated).
    pub recovery_ms: Option<f64>,
}

/// Parses the artifact written by [`e18_to_json`].
pub fn e18_parse_json(text: &str) -> Vec<E18Entry> {
    text.lines()
        .filter_map(|line| {
            Some(E18Entry {
                series: json_str_field(line, "series")?,
                x: json_num_field(line, "x")?,
                overhead: json_num_field(line, "overhead"),
                recovery_ms: json_num_field(line, "recovery_ms"),
            })
        })
        .collect()
}
