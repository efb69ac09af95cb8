//! Microbenchmarks of the substrates: XML parse/serialize throughput,
//! tree-pattern evaluation, splice, and the automata tests behind
//! Proposition 3 and condition (✳).
//!
//! `micro_splice` also prints the heap allocations of its replay,
//! `micro_final_eval` those of one final evaluation of each `lazy-hotels`
//! query, and `micro_refresh` those of one `subscribe-feed` refresh,
//! counted by this binary's global allocator. `CRITERION_STUB_ITERS` sets
//! the timed iterations (default 5); the splice replay, the final
//! evaluations and the refreshes want a few hundred for a stable mean.

use axml_core::{build_nfqs, compute_layers, Engine, EngineConfig, Splice};
use axml_gen::feeds::{price_feed, PriceFeedParams};
use axml_gen::scenario::{figure4_query, generate, Scenario, ScenarioParams};
use axml_query::{parse_query, PlanScratch, QueryPlan};
use axml_schema::Nfa;
use axml_store::{CacheConfig, DocumentStore};
use axml_sub::{SubscriptionEngine, SubscriptionOptions};
use axml_xml::{parse, to_xml, Document, Forest, NodeId};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The system allocator, counting allocations and reallocations.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations made while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

fn bench_xml(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_xml");
    for hotels in [50usize, 400] {
        let sc = generate(&ScenarioParams {
            hotels,
            ..Default::default()
        });
        let xml = to_xml(&sc.doc);
        group.throughput(Throughput::Bytes(xml.len() as u64));
        group.bench_with_input(BenchmarkId::new("parse", hotels), &xml, |b, s| {
            b.iter(|| std::hint::black_box(parse(s).unwrap().len()))
        });
        group.bench_with_input(BenchmarkId::new("serialize", hotels), &sc.doc, |b, d| {
            b.iter(|| std::hint::black_box(to_xml(d).len()))
        });
    }
    group.finish();
}

fn bench_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_query_eval");
    group.sample_size(20);
    let q = figure4_query();
    for hotels in [50usize, 400] {
        let sc = generate(&ScenarioParams {
            hotels,
            intensional_restos_fraction: 0.0,
            intensional_rating_fraction: 0.0,
            ..Default::default()
        });
        group.bench_with_input(BenchmarkId::new("fig4_query", hotels), &sc.doc, |b, d| {
            b.iter(|| std::hint::black_box(axml_query::eval(&q, d).len()))
        });
    }
    group.finish();
}

/// The `lazy-hotels` workload's `descendant` query.
const DESCENDANT: &str = "//restaurant[rating=\"*****\"]/name/$N -> $N";

/// An engine over `sc` with the `lazy-hotels` workload's configuration.
fn lazy_hotels_engine(sc: &Scenario) -> Engine<'_> {
    let config = EngineConfig {
        push_queries: false,
        ..EngineConfig::default()
    };
    Engine::new(&sc.registry, config).with_schema(&sc.schema)
}

/// The lazy-hotels `descendant` query on the 400-hotel scenario, with the
/// workload's engine configuration; returns the op's splices.
fn descendant_op(sc: &Scenario, doc: &mut Document) -> Vec<Splice> {
    let query = parse_query(DESCENDANT).unwrap();
    let report = lazy_hotels_engine(sc).evaluate(doc, &query);
    assert!(report.complete);
    report.splices
}

/// The splices one `descendant` op makes, as its report lists them: each
/// consumed call's node, which a replay on a fresh clone reproduces, and
/// its shared result.
fn descendant_splices(sc: &Scenario) -> Vec<(NodeId, Arc<Forest>)> {
    let mut replay = sc.doc.clone();
    (descendant_op(sc, &mut sc.doc.clone()).into_iter())
        .map(|s| {
            let node = replay.find_call(s.call).expect("replay follows the run");
            replay.splice_call(node, &s.result);
            (node, s.result)
        })
        .collect()
}

fn bench_splice(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_splice");
    let sc = generate(&ScenarioParams {
        hotels: 400,
        ..ScenarioParams::default()
    });
    let splices = descendant_splices(&sc);
    let replay = |mut d: Document| {
        for (node, result) in &splices {
            d.splice_call(*node, result);
        }
        d
    };
    // counted after the recording, which planned each stored reply
    let clone = allocations(|| sc.doc.clone()).1;
    let replayed = allocations(|| replay(sc.doc.clone())).1 - clone;
    let op = allocations(|| descendant_op(&sc, &mut sc.doc.clone())).1;
    println!(
        "micro_splice/descendant_400: {} splices; allocations: {replayed} per replay, {op} per op",
        splices.len()
    );
    group.bench_function("replay_descendant_400", |b| {
        b.iter_with_setup(|| sc.doc.clone(), |d| replay(d).len())
    });
    let result = parse("<restaurant><name>X</name><rating>*****</rating></restaurant>").unwrap();
    group.bench_function("splice_100_calls", |b| {
        b.iter_with_setup(
            || {
                let mut f = Forest::with_root("r");
                let root = f.root();
                for _ in 0..100 {
                    f.add_call(root, "svc");
                }
                f
            },
            |mut doc| {
                for call in doc.calls() {
                    doc.splice_call(call, &result);
                }
                std::hint::black_box(doc.len())
            },
        )
    });
    group.finish();
}

/// The final evaluation of each `lazy-hotels` query: the query completed
/// on the 400-hotel scenario with the workload's engine configuration,
/// then its compiled plan evaluated on the completed document. An op's
/// final evaluation runs on the fresh `PlanScratch` its run starts with:
/// a run reuses the scratch only after it evaluates an NFQ with join
/// variables, and no `lazy-hotels` query has one. So the allocations of
/// an evaluation on a fresh scratch are the per-op figure. Those on a
/// warm scratch, which keeps the descendant-existence table's capacity,
/// are printed beside them, and the timed loop reuses one scratch.
fn bench_final_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_final_eval");
    let sc = generate(&ScenarioParams {
        hotels: 400,
        ..ScenarioParams::default()
    });
    let queries = [
        ("figure4", figure4_query()),
        ("descendant", parse_query(DESCENDANT).unwrap()),
        ("names", parse_query("/hotels/hotel/name/$N -> $N").unwrap()),
    ];
    for (name, query) in queries {
        let mut doc = sc.doc.clone();
        let completion = lazy_hotels_engine(&sc).complete_for(&mut doc, &query);
        assert!(completion.stats.is_complete());
        let plan = QueryPlan::compile(&query);
        let mut scratch = PlanScratch::default();
        let (rows, fresh) = allocations(|| plan.eval_with(&doc, &mut scratch).len());
        let (again, warm) = allocations(|| plan.eval_with(&doc, &mut scratch).len());
        assert_eq!(again, rows);
        println!(
            "micro_final_eval/{name}_400: {rows} rows; allocations per evaluation: \
             {fresh} on a fresh scratch, as in an op; {warm} on a warm one"
        );
        group.bench_function(format!("{name}_400"), |b| {
            b.iter(|| std::hint::black_box(plan.eval_with(&doc, &mut scratch).len()))
        });
    }
    group.finish();
}

/// Lapse cycles `micro_refresh` runs before it measures, as the
/// `subscribe-feed` workload does before its first window.
const REFRESH_WARMUP_CYCLES: usize = 50;

/// The `subscribe-feed` workload's refresh: its 100-hotel price feed (in
/// the generator's hotel order) with the feed's validity windows, the
/// CLI's engine configuration and the five watchers. A lapse cycle moves
/// the clock to the earliest expiry, refreshes, reconciles and purges the
/// expired entries. After the warm-up cycles, the allocations of 100
/// refreshes give the mean per refresh, and each timed iteration is one
/// refresh; the reconcile and purge between two are not timed.
fn bench_refresh(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_refresh");
    let feed = price_feed(&PriceFeedParams {
        hotels: 100,
        volatile_stride: 2,
    });
    let mut config = CacheConfig::default();
    for (service, ttl) in &feed.ttls {
        config = config.ttl_for(service.clone(), *ttl);
    }
    let mut store = DocumentStore::with_cache_config(config);
    store.insert("feed", feed.doc.clone());
    let options = SubscriptionOptions {
        engine: EngineConfig {
            push_queries: false,
            ..EngineConfig::default()
        },
        ..SubscriptionOptions::default()
    };
    let mut engine = SubscriptionEngine::over_store(&store, "feed", &feed.registry, None, options)
        .expect("feed stored");
    for (name, query) in &feed.watchers {
        engine.subscribe(name.clone(), query.clone());
    }
    let to_next_lapse = |engine: &mut SubscriptionEngine| {
        let lapse = (store.cache().earliest_expiry()).expect("every feed window is finite");
        engine.advance_clock((lapse - engine.clock_ms()).max(0.0));
    };
    let settle = |engine: &mut SubscriptionEngine| {
        engine.reconcile();
        store.cache().purge_expired(engine.clock_ms());
    };
    let cycle = |engine: &mut SubscriptionEngine| {
        to_next_lapse(engine);
        let allocated = allocations(|| engine.refresh()).1;
        settle(engine);
        allocated
    };
    for _ in 0..REFRESH_WARMUP_CYCLES {
        cycle(&mut engine);
    }
    let counted = 100;
    let allocated: u64 = (0..counted).map(|_| cycle(&mut engine)).sum();
    println!(
        "micro_refresh/price_feed_100: allocations per refresh: {} (mean of {counted})",
        allocated / counted
    );
    let engine = RefCell::new(engine);
    group.bench_function("price_feed_100", |b| {
        b.iter_with_setup(
            || {
                let engine = &mut engine.borrow_mut();
                settle(engine);
                to_next_lapse(engine);
            },
            |()| engine.borrow_mut().refresh(),
        )
    });
    group.finish();
}

fn bench_influence(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_influence_automata");
    let q = figure4_query();
    let nfqs = build_nfqs(&q);
    group.bench_function("compute_layers_fig4", |b| {
        b.iter(|| std::hint::black_box(compute_layers(&nfqs).layers.len()))
    });
    let deep = parse_query("/a//b/c//d/e//f/g").unwrap();
    let deep_nfqs = build_nfqs(&deep);
    group.bench_function("compute_layers_deep_descendants", |b| {
        b.iter(|| std::hint::black_box(compute_layers(&deep_nfqs).layers.len()))
    });
    let lin_a = &deep_nfqs.last().unwrap().lin;
    let na = Nfa::from_linear_path(lin_a);
    group.bench_function("prefix_intersection_test", |b| {
        b.iter(|| std::hint::black_box(na.some_word_prefixes(&na)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_xml,
    bench_eval,
    bench_splice,
    bench_final_eval,
    bench_refresh,
    bench_influence
);
criterion_main!(benches);
