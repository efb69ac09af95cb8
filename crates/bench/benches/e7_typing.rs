//! E7 (CPU side) — the cost of satisfiability checking: exact
//! (coverage-set fixpoint) vs lenient (graph schema, PTIME), per §5/§6.1,
//! and the two cold-path stages a query pays before its first round:
//! the exact fixpoint as the type refiner runs it (a fresh checker and
//! its first verdict) and `CompiledQuery::compile`, for the benchmark's
//! three hotel queries over the scaled generator's schema.

use axml_core::{CompiledQuery, EngineConfig};
use axml_gen::scenario::{extended_schema, figure4_query};
use axml_query::{parse_query, EdgeKind, Pattern};
use axml_schema::{figure2_schema, function_satisfies, SatMode, Satisfier};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn subqueries() -> Vec<(String, Pattern, EdgeKind)> {
    let q = figure4_query();
    q.node_ids()
        .map(|v| {
            let via = if q.parent(v).is_none() {
                EdgeKind::Child
            } else {
                q.node(v).edge
            };
            (format!("{v:?}"), q.subtree(v), via)
        })
        .collect()
}

/// `figure4`, `descendant` and `names`: the queries of the benchmark's
/// hotels workloads.
fn hotel_queries() -> Vec<(&'static str, Pattern)> {
    vec![
        ("figure4", figure4_query()),
        (
            "descendant",
            parse_query("//restaurant[rating=\"*****\"]/name/$N -> $N").unwrap(),
        ),
        ("names", parse_query("/hotels/hotel/name/$N -> $N").unwrap()),
    ]
}

fn bench_sat(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7_satisfiability_cpu");
    let schema = figure2_schema();
    let subs = subqueries();
    let functions = [
        "getHotels",
        "getRating",
        "getNearbyRestos",
        "getNearbyMuseums",
    ];
    for (name, mode) in [("exact", SatMode::Exact), ("lenient", SatMode::Lenient)] {
        group.bench_function(BenchmarkId::new(name, "fig4-all-nodes"), |b| {
            b.iter(|| {
                let mut yes = 0usize;
                for (_, sub, via) in &subs {
                    for f in functions {
                        if function_satisfies(&schema, sub, f, *via, mode) {
                            yes += 1;
                        }
                    }
                }
                std::hint::black_box(yes)
            })
        });
    }
    group.finish();
}

fn bench_cold_stages(c: &mut Criterion) {
    let schema = extended_schema();
    let config = EngineConfig::default();
    let mut group = c.benchmark_group("e7_first_verdict");
    for (name, q) in hotel_queries() {
        group.bench_function(BenchmarkId::new("exact", name), |b| {
            b.iter(|| {
                let mut sat = Satisfier::new(&schema, &q, SatMode::Exact);
                sat.function_satisfies_at("getHotels", q.root(), EdgeKind::Child)
            })
        });
    }
    group.finish();
    let mut group = c.benchmark_group("e7_compile");
    for (name, q) in hotel_queries() {
        group.bench_function(BenchmarkId::new("compile", name), |b| {
            b.iter(|| CompiledQuery::compile(&q, Some(&schema), &config))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sat, bench_cold_stages);
criterion_main!(benches);
