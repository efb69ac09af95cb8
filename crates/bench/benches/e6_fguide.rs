//! E6 (CPU side) — guide-based candidate detection vs full NFQ
//! evaluation on the document (§6.2). The document classifies its calls
//! into the function-call guide as it is built, so there is no separate
//! classification step to time.

use axml_core::{build_nfqs, extent, filter_candidates, position_language, ClassVerdicts};
use axml_gen::scenario::{figure4_query, generate, ScenarioParams};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_fguide(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_fguide_cpu");
    group.sample_size(10);
    let q = figure4_query();
    let nfqs = build_nfqs(&q);
    for hotels in [50usize, 200, 800] {
        let sc = generate(&ScenarioParams {
            hotels,
            ..Default::default()
        });
        let doc = sc.doc;
        group.bench_with_input(
            BenchmarkId::new("detect_via_guide", hotels),
            &doc,
            |b, d| {
                b.iter(|| {
                    let mut found = 0usize;
                    for nfq in &nfqs {
                        let mut at = ClassVerdicts::new(position_language(&nfq.lin, nfq.via));
                        let cands: Vec<_> = extent(d, &mut at, None)
                            .into_iter()
                            .map(|(n, _)| n)
                            .collect();
                        found += filter_candidates(nfq, d, &cands).len();
                    }
                    std::hint::black_box(found)
                })
            },
        );

        group.bench_with_input(
            BenchmarkId::new("detect_via_document", hotels),
            &doc,
            |b, d| {
                b.iter(|| {
                    let mut found = 0usize;
                    for nfq in &nfqs {
                        found += axml_query::eval(&nfq.pattern, d)
                            .bindings_of(nfq.output)
                            .len();
                    }
                    std::hint::black_box(found)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_fguide);
criterion_main!(benches);
