//! Microbenchmarks of the substrates: XML parse/serialize throughput,
//! tree-pattern evaluation, splice, and the automata tests behind
//! Proposition 3 and condition (✳).
//!
//! `micro_splice` also prints the heap allocations of its replay, counted
//! by this binary's global allocator. `CRITERION_STUB_ITERS` sets the
//! timed iterations (default 5); the splice replay wants a few hundred for
//! a stable mean.

use axml_core::{build_nfqs, compute_layers, Engine, EngineConfig};
use axml_gen::scenario::{figure4_query, generate, Scenario, ScenarioParams};
use axml_query::parse_query;
use axml_schema::Nfa;
use axml_xml::{parse, to_xml, Document, Forest, NodeId};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::alloc::{GlobalAlloc, Layout, System};
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

/// The lazy-hotels `descendant` query on the 400-hotel scenario, with the
/// workload's engine configuration.
fn descendant_op(sc: &Scenario, doc: &mut Document) {
    let query = parse_query("//restaurant[rating=\"*****\"]/name/$N -> $N").unwrap();
    let config = EngineConfig {
        push_queries: false,
        ..EngineConfig::default()
    };
    let engine = Engine::new(&sc.registry, config).with_schema(&sc.schema);
    assert!(engine.evaluate(doc, &query).complete);
}

/// The splices one `descendant` op makes, recorded through the splice
/// journal: each consumed call's node, which a replay on a fresh clone
/// reproduces, and its shared result.
fn descendant_splices(sc: &Scenario) -> Vec<(NodeId, Arc<Forest>)> {
    let mut run = sc.doc.clone();
    run.enable_splice_journal();
    descendant_op(sc, &mut run);
    let journal = run.take_splice_journal().expect("the engine only splices");
    let mut replay = sc.doc.clone();
    journal
        .into_iter()
        .map(|op| {
            let node = replay.find_call(op.call).expect("replay follows the run");
            replay.splice_shared(node, &op.result);
            (node, op.result)
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
            d.splice_shared(*node, result);
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
    bench_influence
);
criterion_main!(benches);
