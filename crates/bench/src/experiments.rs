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

impl Row {
    /// The value of metric `name`, if the row carries it.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }
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
/// `vs_naive` is naive's `sim_net_ms` over the row's at the same size:
/// simulated time, so the ratio reads the same on every machine.
pub fn e1_e2_strategies(hotel_counts: &[usize], profile: NetProfile) -> Vec<Row> {
    let mut rows = Vec::new();
    let q = figure4_query();
    for &hotels in hotel_counts {
        let params = ScenarioParams {
            hotels,
            ..Default::default()
        };
        // naive runs first: its answers and its simulated time are the reference
        let mut reference: Option<(BTreeSet<Vec<String>>, f64)> = None;
        for (name, config) in strategy_matrix() {
            let mut sc = generate(&params);
            let (stats, answers) = run_once(&mut sc, &q, config, profile);
            let (r, naive_ms) =
                reference.get_or_insert_with(|| (answers.clone(), stats.sim_time_ms));
            assert_eq!(&answers, r, "{name} disagrees at {hotels} hotels");
            rows.push(Row {
                label: name.to_string(),
                x: hotels as f64,
                metrics: vec![
                    ("total_ms", stats.total_time_ms()),
                    ("sim_net_ms", stats.sim_time_ms),
                    ("calls", stats.calls_invoked as f64),
                    ("bytes", stats.bytes_transferred as f64),
                    ("vs_naive", *naive_ms / stats.sim_time_ms.max(1e-9)),
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

/// E9 — cross-domain sanity: the strategy ranking of E1 must hold on the
/// second (auctions) domain too, whose schema is deeper and join-heavier.
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

/// E14's two query shapes: Figure 4's query, whose NFQs sit on child
/// paths, and a descendant query whose NFQs reach calls at any depth.
fn e14_shapes() -> Vec<(&'static str, Pattern)> {
    vec![
        ("figure4", figure4_query()),
        (
            "descendant",
            axml_query::parse_query("//restaurant[rating=\"*****\"]/name/$N -> $N")
                .expect("descendant query"),
        ),
    ]
}

/// The least time E14 spends timing one row: passes of the two detectors
/// alternate until their timed total reaches this, so a sub-millisecond
/// row is the best of hundreds of passes.
const E14_ROW_MS: f64 = 500.0;

/// E14 — production relevance detection against the whole-document
/// detector, on freshly generated hotel documents. One `{shape}/detect`
/// row per shape and size:
///
/// * `detect_ms` — the engine's detection CPU (`relevance_cpu`) with a
///   budget of zero invocations, no layering and no push: one detection
///   pass over every NFQ through the F-guide, the service test and the
///   residual filter, then the run stops;
/// * `scan_ms` — [`axml_core::relevant_calls`], which evaluates every
///   refined NFQ over the whole document. It also builds the NFQs and a
///   type refiner on every call, which the engine does outside
///   `relevance_cpu`: a fixed cost, whose share shrinks as the document
///   grows;
/// * `calls` — the relevant calls both detectors find, asserted equal
///   (the engine's count is the `pending` of its `truncated` event, from
///   an observed run kept apart from the timed ones);
/// * `speedup` — `scan_ms / detect_ms`, a same-machine ratio.
///
/// Each timing is the detector's best single pass. Passes of the two
/// detectors alternate, at least `reps` of each and until the row has
/// spent 500 ms (`E14_ROW_MS`): the best of many passes keeps each ratio steady
/// from run to run even on a shared machine whose speed drifts.
/// E14's entry in [`GATES`] checks the rows; `BENCH_E14.json` (written by
/// the `report` binary) carries them.
pub fn e14_detection(hotel_counts: &[usize], reps: usize) -> Vec<Row> {
    use axml_obs::{EventKind, RingSink};
    use axml_schema::SatMode;
    use std::time::Instant;
    let config = EngineConfig {
        max_invocations: 0,
        layering: false,
        push_queries: false,
        ..EngineConfig::default()
    };
    let mut rows = Vec::new();
    for &hotels in hotel_counts {
        let sc = generate(&ScenarioParams {
            hotels,
            ..Default::default()
        });
        let engine = Engine::new(&sc.registry, config.clone()).with_schema(&sc.schema);
        for (shape, q) in e14_shapes() {
            // a run without a budget splices nothing, so one copy serves
            // every run
            let mut doc = sc.doc.clone();
            let ring = RingSink::unbounded();
            Engine::new(&sc.registry, config.clone())
                .with_schema(&sc.schema)
                .with_observer(&ring)
                .evaluate(&mut doc, &q);
            let pending = ring
                .events()
                .iter()
                .find_map(|e| match e.kind {
                    EventKind::Truncated { pending } => Some(pending),
                    _ => None,
                })
                .unwrap_or(0);
            let (mut detect_ms, mut scan_ms) = (f64::INFINITY, f64::INFINITY);
            let (mut passes, mut spent, mut scanned) = (0, 0.0, 0);
            while passes < reps.max(1) || spent < E14_ROW_MS {
                let stats = engine.evaluate(&mut doc, &q).stats;
                let detect = stats.relevance_cpu.as_secs_f64() * 1e3;
                let t = Instant::now();
                scanned =
                    axml_core::relevant_calls(&doc, &q, Some(&sc.schema), SatMode::Exact).len();
                let scan = t.elapsed().as_secs_f64() * 1e3;
                detect_ms = detect_ms.min(detect);
                scan_ms = scan_ms.min(scan);
                passes += 1;
                spent += detect + scan;
            }
            assert_eq!(
                pending, scanned,
                "the detectors disagree on {shape} at {hotels} hotels"
            );
            rows.push(Row {
                label: format!("{shape}/detect"),
                x: hotels as f64,
                metrics: vec![
                    ("detect_ms", detect_ms),
                    ("scan_ms", scan_ms),
                    ("calls", pending as f64),
                    ("speedup", scan_ms / detect_ms.max(1e-9)),
                ],
            });
        }
    }
    rows
}

/// E14's production rows beside the detection rows: one full sequential
/// NFQA run ([`EngineConfig::nfq_plain`], free network) per shape and
/// size, as `{shape}/nfqa` rows with the run's CPU (`cpu_ms`, best of
/// `reps`) and its detection share (`analysis_ms`). Reported, not gated.
pub fn e14_nfqa(hotel_counts: &[usize], reps: usize) -> Vec<Row> {
    use std::time::Instant;
    let mut rows = Vec::new();
    for &hotels in hotel_counts {
        let params = ScenarioParams {
            hotels,
            ..Default::default()
        };
        for (shape, q) in e14_shapes() {
            let mut best = f64::INFINITY;
            let mut best_analysis = f64::INFINITY;
            for _ in 0..reps.max(1) {
                let mut sc = generate(&params);
                let t = Instant::now();
                let (stats, _) =
                    run_once(&mut sc, &q, EngineConfig::nfq_plain(), NetProfile::free());
                best = best.min(t.elapsed().as_secs_f64() * 1e3);
                best_analysis = best_analysis.min(stats.relevance_cpu.as_secs_f64() * 1e3);
            }
            rows.push(Row {
                label: format!("{shape}/nfqa"),
                x: hotels as f64,
                metrics: vec![("cpu_ms", best), ("analysis_ms", best_analysis)],
            });
        }
    }
    rows
}

/// The passes E15 times each pool size over. A pass takes about one
/// second (the provider sleeps), and with the best of 20 the 8-worker
/// scaling of nine runs on a 2-vCPU VM stayed within about 10% of its
/// median, inside the baseline rule's 20%.
const E15_PASSES: usize = 20;

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
/// sizes and passes (scheduling moves waits, never answers).
///
/// Each pool size is timed the way E14 times a detector: `E15_PASSES`
/// passes each serve the whole workload once at every pool size in turn,
/// and a pool size reports its best pass (the least `wall_ms`). A pass
/// that a busy machine slowed down only loses, so `scaling` stays steady
/// from run to run.
///
/// Reported per pool size, from its best pass: `qps`, latency
/// `p50_ms`/`max_ms` (from the run's `axml-obs` histogram; 64 samples are
/// too few for a p99 that differs from the maximum), `wall_ms`, and
/// `scaling`. `BENCH_E15.json` (written by the `report` binary) is the
/// machine artifact CI gates on.
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

    // (session name, per-query answer sets) — the first run pins it
    type SessionAnswers = Vec<(String, Vec<BTreeSet<Vec<String>>>)>;
    let mut reference: Option<SessionAnswers> = None;
    // the best pass of each pool size: (wall_ms, qps, p50_ms, max_ms)
    let mut best = vec![(f64::INFINITY, 0.0, 0.0, 0.0); worker_counts.len()];
    for _ in 0..E15_PASSES {
        for (&workers, best) in worker_counts.iter().zip(&mut best) {
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
            if report.wall_ms < best.0 {
                let hist = report.latency_histogram();
                *best = (
                    report.wall_ms,
                    report.queries_per_sec(),
                    hist.quantile(0.5),
                    hist.max(),
                );
            }
        }
    }
    let base_qps = best.first().map_or(1.0, |b| b.1);
    worker_counts
        .iter()
        .zip(best)
        .map(|(&workers, (wall_ms, qps, p50_ms, max_ms))| Row {
            label: "serve".to_string(),
            x: workers as f64,
            metrics: vec![
                ("qps", qps),
                ("p50_ms", p50_ms),
                ("max_ms", max_ms),
                ("wall_ms", wall_ms),
                ("scaling", qps / base_qps.max(1e-9)),
            ],
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

/// E17 — compiled-plan amortization: the cost of standing up N sessions
/// that all ask the same query, with each session compiling its own
/// [`axml_core::CompiledQuery`] from scratch (`cold`) versus all of them
/// fetching from one warm shard-locked [`axml_store::PlanCache`]
/// (`cached`) — where per-session work collapses to a fingerprint lookup
/// plus the per-document label-test binding ([`bind`]).
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
                    std::hint::black_box(plan.main_plan().bind(doc));
                }
                cold_best = cold_best.min(t.elapsed().as_secs_f64() * 1e3);

                // cached: one shared cache — first fetch compiles, the
                // rest pay a fingerprint probe plus the same bind
                let plans = PlanCache::new(PlanCacheConfig::default());
                let t = Instant::now();
                for _ in 0..n {
                    let plan = plans.fetch(query, *schema, &config);
                    std::hint::black_box(plan.main_plan().bind(doc));
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
/// over plain wall time, minus one — which E18's entry in [`GATES`]
/// holds to ≤ 10%: durability must ride the latency the
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

/// Renders an experiment's rows as its `BENCH_<E>.json` artifact: one row
/// object per line, keyed `"series"`, `"x"` and then by metric, so the
/// file diffs cleanly and [`parse_artifact`] reads it back without a JSON
/// library.
pub fn to_artifact(experiment: &str, rows: &[Row]) -> String {
    let mut out = format!("{{\n  \"experiment\": \"{experiment}\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"series\": \"{}\", \"x\": {}",
            r.label, r.x
        ));
        for (n, v) in &r.metrics {
            out.push_str(&format!(", \"{n}\": {v:.4}"));
        }
        out.push_str(if i + 1 == rows.len() { "}\n" } else { "},\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// One row of a `BENCH_<E>.json` artifact, as [`parse_artifact`] reads it.
#[derive(Clone, Debug)]
pub struct ArtifactRow {
    /// The row's series.
    pub series: String,
    /// Its sweep coordinate.
    pub x: f64,
    /// Its named metrics, in file order.
    pub metrics: Vec<(String, f64)>,
}

impl ArtifactRow {
    /// The value of metric `name`, if the row carries it.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|m| m.1)
    }
}

/// Reads back an artifact written by [`to_artifact`]. Every line must be
/// one the writer writes: a row starts with its `"series"` and `"x"`, and
/// every number in it is finite. An error names the first line that is
/// not.
pub fn parse_artifact(text: &str) -> Result<Vec<ArtifactRow>, String> {
    let mut rows = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if matches!(line, "{" | "}" | "]" | "\"rows\": [") || line.starts_with("\"experiment\": \"")
        {
            continue;
        }
        rows.push(parse_row(line).ok_or_else(|| format!("line {}: not an artifact row", i + 1))?);
    }
    Ok(rows)
}

/// One `{"series": "S", "x": X, "metric": V, ...}` line.
fn parse_row(line: &str) -> Option<ArtifactRow> {
    let number = |v: &str| v.parse::<f64>().ok().filter(|v| v.is_finite());
    let body = line.strip_suffix(',').unwrap_or(line);
    let mut fields = body.strip_prefix('{')?.strip_suffix('}')?.split(", ");
    let series = fields
        .next()?
        .strip_prefix("\"series\": \"")?
        .strip_suffix('"')?;
    let x = number(fields.next()?.strip_prefix("\"x\": ")?)?;
    let metrics = fields
        .map(|field| {
            let (key, value) = field.split_once(": ")?;
            let key = key.strip_prefix('"')?.strip_suffix('"')?;
            Some((key.to_string(), number(value)?))
        })
        .collect::<Option<Vec<_>>>()?;
    Some(ArtifactRow {
        series: series.to_string(),
        x,
        metrics,
    })
}

/// Where a gate's bound lies, and so which direction is better.
#[derive(Clone, Copy, Debug)]
pub enum Bound {
    /// Higher is better: the best row must reach at least this.
    Floor(f64),
    /// Lower is better: the best row may reach at most this.
    Ceiling(f64),
}

/// How far a row may fall behind its baseline row, in the worse direction.
#[derive(Clone, Copy, Debug)]
pub enum Tolerance {
    /// This share of the baseline value (0.2 allows a 20% loss).
    Loss(f64),
    /// This much of the metric itself (0.08 of a fraction is 8 points).
    Slack(f64),
}

/// A bound on how much `metric` may grow from x = `from` to x = `to`, in
/// every series that carries it.
#[derive(Clone, Copy, Debug)]
pub struct Growth {
    /// The metric bounded.
    pub metric: &'static str,
    /// The smaller sweep point.
    pub from: f64,
    /// The larger sweep point.
    pub to: f64,
    /// The largest allowed value at `to` over the value at `from`.
    pub max: f64,
}

/// One gated experiment: what a run's rows must show, alone and against
/// the experiment's committed baseline (`crates/bench/baselines`). A gate
/// reads only the rows that carry its metric. Every gated metric is a
/// ratio of two times measured on one machine, or of simulated times, so
/// it compares across machines where raw milliseconds do not.
#[derive(Clone, Copy, Debug)]
pub struct Gate {
    /// The experiment, as `report` names it.
    pub experiment: &'static str,
    /// The metric gated.
    pub metric: &'static str,
    /// The sweep's largest x, where the best row must meet `bound`.
    pub x: f64,
    /// What x counts, for messages.
    pub x_name: &'static str,
    /// The bound on the best row at `x`.
    pub bound: Bound,
    /// The least baseline value that is gated: rows near 1.0x jitter too
    /// much to gate.
    pub gated_from: f64,
    /// How far a row may fall behind its baseline row.
    pub tolerance: Tolerance,
    /// E14's one extra check.
    pub growth: Option<Growth>,
}

/// Every gated experiment, with the bounds CI enforces.
pub const GATES: &[Gate] = &[
    // the paper's headline: two orders of magnitude over naive
    // evaluation; simulated time, so the baseline is exact
    Gate {
        experiment: "e1",
        metric: "vs_naive",
        x: 400.0,
        x_name: "hotels",
        bound: Bound::Floor(100.0),
        gated_from: 2.0,
        tolerance: Tolerance::Loss(0.2),
        growth: None,
    },
    // detection 8x the document may cost at most 12x the time
    Gate {
        experiment: "e14",
        metric: "speedup",
        x: 4000.0,
        x_name: "hotels",
        bound: Bound::Floor(5.0),
        gated_from: 2.0,
        tolerance: Tolerance::Loss(0.2),
        growth: Some(Growth {
            metric: "detect_ms",
            from: 50.0,
            to: 400.0,
            max: 12.0,
        }),
    },
    // qps over 1 worker: wait overlap, independent of the core count
    Gate {
        experiment: "e15",
        metric: "scaling",
        x: 8.0,
        x_name: "workers",
        bound: Bound::Floor(3.0),
        gated_from: 1.5,
        tolerance: Tolerance::Loss(0.2),
        growth: None,
    },
    // both sides of the ratio are tens of milliseconds, so it jitters
    // more than E14's and E15's
    Gate {
        experiment: "e16",
        metric: "cpu_ratio",
        x: 400.0,
        x_name: "hotels",
        bound: Bound::Floor(3.0),
        gated_from: 2.0,
        tolerance: Tolerance::Loss(0.4),
        growth: None,
    },
    // cached fetches are sub-microsecond, so the ratio jitters like E16's
    Gate {
        experiment: "e17",
        metric: "amortization",
        x: 64.0,
        x_name: "sessions",
        bound: Bound::Floor(5.0),
        gated_from: 2.0,
        tolerance: Tolerance::Loss(0.4),
        growth: None,
    },
    // the overhead is near zero, so a share of it means nothing: every
    // baseline row is gated with an absolute slack
    Gate {
        experiment: "e18",
        metric: "overhead",
        x: 8.0,
        x_name: "sessions",
        bound: Bound::Ceiling(0.10),
        gated_from: f64::NEG_INFINITY,
        tolerance: Tolerance::Slack(0.08),
        growth: None,
    },
];

/// The gate of `experiment`, if it has one.
pub fn gate(experiment: &str) -> Option<&'static Gate> {
    GATES.iter().find(|g| g.experiment == experiment)
}

impl Gate {
    /// The artifact's file name, `BENCH_<E>.json`.
    pub fn artifact_name(&self) -> String {
        format!("BENCH_{}.json", self.experiment.to_uppercase())
    }

    /// The committed baseline, found from this crate's directory.
    pub fn baseline_path(&self) -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("baselines")
            .join(self.artifact_name())
    }

    /// The worst value a row whose baseline value is `base` may take.
    pub fn limit(&self, base: f64) -> f64 {
        let allowed = match self.tolerance {
            Tolerance::Loss(share) => base * share,
            Tolerance::Slack(amount) => amount,
        };
        match self.bound {
            Bound::Floor(_) => base - allowed,
            Bound::Ceiling(_) => base + allowed,
        }
    }

    /// Whether `a` is worse than `b` in this gate's direction.
    fn worse(&self, a: f64, b: f64) -> bool {
        match self.bound {
            Bound::Floor(_) => a < b,
            Bound::Ceiling(_) => a > b,
        }
    }

    /// Checks one run's rows: the best row at `x` against the bound, the
    /// growth bound if there is one, and every baseline row of at least
    /// `gated_from` against the run's row of the same series and x (a row
    /// the sweep no longer has is skipped). A check with no row to read
    /// fails. Returns what passed, or every failure.
    pub fn check(&self, rows: &[Row], baseline: &[ArtifactRow]) -> Result<String, String> {
        let (metric, x, unit) = (self.metric, self.x, self.x_name);
        let (mut passed, mut failed) = (Vec::new(), Vec::new());

        let best = rows
            .iter()
            .filter(|r| r.x == x)
            .filter_map(|r| Some((r.metric(metric)?, r.label.as_str())))
            .reduce(|best, r| if self.worse(best.0, r.0) { r } else { best });
        match best {
            None => failed.push(format!("no row carries {metric} at {x} {unit}")),
            Some((got, series)) => {
                let (bound, side) = match self.bound {
                    Bound::Floor(min) => (min, "floor"),
                    Bound::Ceiling(max) => (max, "ceiling"),
                };
                let what = format!("best {metric} {got:.3} ({series} at {x} {unit})");
                if self.worse(got, bound) {
                    failed.push(format!("{what} is past the {side} {bound}"));
                } else {
                    passed.push(format!("{what}, {side} {bound}"));
                }
            }
        }

        if let Some(Growth {
            metric,
            from,
            to,
            max,
        }) = self.growth
        {
            let series: BTreeSet<&str> = rows
                .iter()
                .filter(|r| r.metric(metric).is_some())
                .map(|r| r.label.as_str())
                .collect();
            if series.is_empty() {
                failed.push(format!("no row carries {metric}"));
            }
            for s in series {
                let at = |x: f64| {
                    rows.iter()
                        .find(|r| r.label == s && r.x == x)
                        .and_then(|r| r.metric(metric))
                };
                let (Some(small), Some(large)) = (at(from), at(to)) else {
                    failed.push(format!("{s} has no {metric} at {from} and {to} {unit}"));
                    continue;
                };
                let growth = large / small.max(1e-9);
                let what = format!("{s} {metric} grows {growth:.1}x from {from} to {to} {unit}");
                if growth > max {
                    failed.push(format!("{what}, past the bound {max}x"));
                } else {
                    passed.push(format!("{what}, bound {max}x"));
                }
            }
        }

        let mut regressed = Vec::new();
        if !baseline
            .iter()
            .any(|b| b.x == x && b.metric(metric).is_some())
        {
            regressed.push(format!(
                "the baseline has no row carrying {metric} at {x} {unit}"
            ));
        }
        for b in baseline {
            let Some(base) = b.metric(metric).filter(|&v| v >= self.gated_from) else {
                continue;
            };
            let Some(got) = rows
                .iter()
                .find(|r| r.label == b.series && r.x == b.x)
                .and_then(|r| r.metric(metric))
            else {
                continue;
            };
            let limit = self.limit(base);
            if self.worse(got, limit) {
                regressed.push(format!(
                    "regression: {} at {} {unit} reads {metric} {got:.3}, baseline {base:.3}, \
                     limit {limit:.3}",
                    b.series, b.x
                ));
            }
        }
        if regressed.is_empty() {
            passed.push(match self.tolerance {
                Tolerance::Loss(share) => format!("within {}% of the baseline", share * 100.0),
                Tolerance::Slack(amount) => format!("within {amount} of the baseline"),
            });
        }
        failed.extend(regressed);
        if failed.is_empty() {
            Ok(passed.join("; "))
        } else {
            Err(failed.join("; "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e14() -> &'static Gate {
        gate("e14").expect("E14 is gated")
    }

    /// A `/detect` row.
    fn detect(series: &str, hotels: f64, detect_ms: f64, speedup: f64) -> Row {
        Row {
            label: format!("{series}/detect"),
            x: hotels,
            metrics: vec![
                ("detect_ms", detect_ms),
                ("scan_ms", detect_ms * speedup),
                ("calls", 10.0),
                ("speedup", speedup),
            ],
        }
    }

    /// Two shapes at every size: detection 8x slower at 8x the document,
    /// 30x faster than the whole-document scan at 4,000 hotels.
    fn conforming() -> Vec<Row> {
        let mut rows = Vec::new();
        for shape in ["figure4", "descendant"] {
            for (hotels, ms, speedup) in [
                (50.0, 0.5, 3.0),
                (200.0, 2.0, 8.0),
                (400.0, 4.0, 12.0),
                (4000.0, 40.0, 30.0),
            ] {
                rows.push(detect(shape, hotels, ms, speedup));
            }
        }
        rows
    }

    /// `rows` written out and read back, as a committed baseline.
    fn baseline_of(experiment: &str, rows: &[Row]) -> Vec<ArtifactRow> {
        parse_artifact(&to_artifact(experiment, rows)).expect("an artifact parses")
    }

    #[test]
    fn e14_gate_passes_conforming_rows() {
        let rows = conforming();
        let ok = e14().check(&rows, &baseline_of("e14", &rows));
        assert!(ok.is_ok(), "{ok:?}");
    }

    #[test]
    fn e14_gate_fails_a_whole_document_detector() {
        let baseline = baseline_of("e14", &conforming());
        let rows: Vec<Row> = conforming()
            .into_iter()
            .map(|mut r| {
                for m in &mut r.metrics {
                    if m.0 == "speedup" {
                        m.1 = 1.0;
                    }
                }
                r
            })
            .collect();
        let err = e14().check(&rows, &baseline).unwrap_err();
        assert!(err.contains("floor") && err.contains("1.000"), "{err}");
    }

    #[test]
    fn e14_gate_fails_growth_over_the_bound() {
        let mut rows = conforming();
        let baseline = baseline_of("e14", &rows);
        // 64x the time at 8x the document
        rows.retain(|r| !(r.label == "descendant/detect" && r.x == 400.0));
        rows.push(detect("descendant", 400.0, 32.0, 12.0));
        let err = e14().check(&rows, &baseline).unwrap_err();
        assert!(
            err.contains("descendant/detect") && err.contains("64.0x"),
            "{err}"
        );
    }

    #[test]
    fn e14_gate_fails_missing_rows() {
        let baseline = baseline_of("e14", &conforming());
        let nfqa = Row {
            label: "figure4/nfqa".into(),
            x: 4000.0,
            metrics: vec![("cpu_ms", 1.0), ("analysis_ms", 0.5)],
        };
        assert!(e14().check(&[nfqa], &baseline).is_err());
        let mut rows = conforming();
        rows.retain(|r| r.x != 50.0);
        let err = e14().check(&rows, &baseline).unwrap_err();
        assert!(err.contains("no detect_ms at 50"), "{err}");
    }

    #[test]
    fn e14_gate_fails_a_baseline_regression() {
        let rows = conforming();
        let mut baseline = baseline_of("e14", &rows);
        for b in &mut baseline {
            for m in &mut b.metrics {
                if m.0 == "speedup" {
                    m.1 *= 2.0;
                }
            }
        }
        let err = e14().check(&rows, &baseline).unwrap_err();
        assert!(err.contains("regression"), "{err}");
    }

    #[test]
    fn e14_json_round_trips_the_detect_rows() {
        let rows = conforming();
        let parsed = baseline_of("e14", &rows);
        assert_eq!(parsed.len(), rows.len());
        for (r, e) in rows.iter().zip(&parsed) {
            assert_eq!(e.series, r.label);
            assert_eq!(e.x, r.x);
            let names: Vec<&str> = e.metrics.iter().map(|m| m.0.as_str()).collect();
            let want: Vec<&str> = r.metrics.iter().map(|m| m.0).collect();
            assert_eq!(names, want);
            assert_eq!(e.metric("detect_ms"), r.metric("detect_ms"));
            assert_eq!(e.metric("speedup"), r.metric("speedup"));
        }
    }

    /// A value that passes `gate`'s bound, and one just past it.
    fn passing_and_failing(gate: &Gate) -> (f64, f64) {
        match gate.bound {
            Bound::Floor(min) => (min * 2.0, min * (1.0 - 1e-9)),
            Bound::Ceiling(max) => (max / 2.0, max * (1.0 + 1e-9)),
        }
    }

    /// One series of rows for `gate`: `at_x` at the gate's x and `mid` at
    /// a smaller sweep point, with the growth metric, if any, flat at
    /// every growth point.
    fn sweep(gate: &Gate, at_x: f64, mid: f64) -> Vec<Row> {
        let mut xs = vec![(gate.x / 2.0, mid), (gate.x, at_x)];
        if let Some(g) = gate.growth {
            xs.extend([(g.from, mid), (g.to, mid)]);
        }
        xs.into_iter()
            .map(|(x, v)| {
                let mut metrics = vec![(gate.metric, v)];
                if let Some(g) = gate.growth {
                    metrics.push((g.metric, 1.0));
                }
                Row {
                    label: "s".into(),
                    x,
                    metrics,
                }
            })
            .collect()
    }

    #[test]
    fn every_gate_passes_a_conforming_sweep_and_fails_past_its_bound() {
        for gate in GATES {
            let (pass, fail) = passing_and_failing(gate);
            let mut rows = sweep(gate, pass, pass);
            // the best row at x decides, so a second series past the
            // bound does not fail the gate
            let mut other = rows.iter().find(|r| r.x == gate.x).unwrap().clone();
            other.label = "t".into();
            other.metrics = vec![(gate.metric, fail)];
            rows.push(other);
            let baseline = baseline_of(gate.experiment, &rows);
            let ok = gate.check(&rows, &baseline);
            assert!(ok.is_ok(), "{}: {ok:?}", gate.experiment);
            let err = gate.check(&sweep(gate, fail, pass), &baseline).unwrap_err();
            assert!(err.contains("past the"), "{}: {err}", gate.experiment);
        }
    }

    #[test]
    fn every_gate_allows_exactly_its_tolerance() {
        for gate in GATES {
            let (pass, _) = passing_and_failing(gate);
            // a baseline value every gate gates, away from the bound's x
            let base = 10.0;
            let baseline = baseline_of(gate.experiment, &sweep(gate, pass, base));
            let limit = gate.limit(base);
            let at = gate.check(&sweep(gate, pass, limit), &baseline);
            assert!(at.is_ok(), "{}: {at:?}", gate.experiment);
            let step = 1e-9 * base;
            let past = if gate.worse(limit - step, limit) {
                limit - step
            } else {
                limit + step
            };
            let err = gate.check(&sweep(gate, pass, past), &baseline).unwrap_err();
            assert!(err.contains("regression"), "{}: {err}", gate.experiment);
        }
    }

    #[test]
    fn every_gate_skips_baseline_rows_under_its_gated_floor() {
        for gate in GATES.iter().filter(|g| g.gated_from.is_finite()) {
            let (pass, _) = passing_and_failing(gate);
            // the artifact keeps four decimals
            let base = gate.gated_from - 1e-4;
            let baseline = baseline_of(gate.experiment, &sweep(gate, pass, base));
            let ok = gate.check(&sweep(gate, pass, 0.0), &baseline);
            assert!(ok.is_ok(), "{}: {ok:?}", gate.experiment);
        }
    }

    #[test]
    fn every_gate_fails_without_its_largest_x_row() {
        for gate in GATES {
            let (pass, _) = passing_and_failing(gate);
            let mut rows = sweep(gate, pass, pass);
            let baseline = baseline_of(gate.experiment, &rows);
            rows.retain(|r| r.x != gate.x);
            let err = gate.check(&rows, &baseline).unwrap_err();
            assert!(err.contains("no row carries"), "{}: {err}", gate.experiment);
            // a baseline without that row gates nothing, so it fails too
            let full = sweep(gate, pass, pass);
            let err = gate.check(&full, &baseline_of(gate.experiment, &rows));
            assert!(err.is_err(), "{}", gate.experiment);
        }
    }

    #[test]
    fn every_committed_baseline_parses_and_carries_its_metric() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("baselines");
        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .expect("the baselines directory")
            .map(|e| {
                e.expect("a directory entry")
                    .file_name()
                    .into_string()
                    .unwrap()
            })
            .collect();
        files.sort();
        let mut gated: Vec<String> = GATES.iter().map(Gate::artifact_name).collect();
        gated.sort();
        assert_eq!(files, gated, "one committed baseline per gate");
        for gate in GATES {
            let text = std::fs::read_to_string(gate.baseline_path()).unwrap();
            let rows = parse_artifact(&text).unwrap_or_else(|e| panic!("{}: {e}", gate.experiment));
            assert!(
                rows.iter()
                    .any(|r| r.x == gate.x && r.metric(gate.metric).is_some()),
                "{} has no {} row at {}",
                gate.artifact_name(),
                gate.metric,
                gate.x
            );
        }
    }

    #[test]
    fn the_artifact_parser_rejects_what_the_writer_never_writes() {
        let good = "    {\"series\": \"s\", \"x\": 8, \"scaling\": 7.8853},";
        assert!(parse_artifact(good).is_ok());
        for bad in [
            "    {\"series\": \"s\", \"workers\": 8, \"scaling\": 7.8853},",
            "    {\"series\": \"s\", \"x\": 8, \"scaling\": 7.88.53},",
            "    {\"series\": \"s\", \"x\": 8, \"scaling\": inf},",
            "    {\"series\": \"s\", \"x\": 8, scaling: 7.8853},",
            "    \"series\": \"s\", \"x\": 8",
            "  \"rows\": {",
        ] {
            let err = parse_artifact(&format!("{{\n{bad}\n}}\n")).unwrap_err();
            assert!(err.starts_with("line 2"), "{bad}: {err}");
        }
    }
}
