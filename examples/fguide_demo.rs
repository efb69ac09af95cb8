//! The function-call guide (Section 6.2): a summary of the label paths
//! leading to service calls, used to detect relevant calls without
//! rescanning the document.
//!
//! ```text
//! cargo run --example fguide_demo --release
//! ```

use activexml::core::{build_nfqs, filter_candidates, position_language, ClassVerdicts, FGuide};
use activexml::gen::scenario::{figure4_query, generate, ScenarioParams};
use std::time::Instant;

fn main() {
    let sc = generate(&ScenarioParams {
        hotels: 2000,
        ..Default::default()
    });
    let doc = sc.doc;
    println!("document: {} nodes, {} calls", doc.len(), doc.calls().len());

    // each call is classified by its parent's label path once, when first
    // seen; a class is a guide node, its calls the node's extent
    let t = Instant::now();
    let mut guide = FGuide::default();
    for &node in doc.calls_unordered() {
        let (id, _) = doc.call_info(node).expect("a call node");
        guide.class_of(&doc, node, id);
    }
    println!(
        "F-guide: {} classes ({}x more compact), classified in {:.2} ms",
        guide.len(),
        doc.len() / guide.len().max(1),
        t.elapsed().as_secs_f64() * 1e3
    );

    let query = figure4_query();
    let nfqs = build_nfqs(&query);

    // candidate detection on the document vs via the guide
    let t = Instant::now();
    let mut via_doc = 0usize;
    for nfq in &nfqs {
        via_doc += activexml::query::eval(&nfq.pattern, &doc)
            .bindings_of(nfq.output)
            .len();
    }
    let doc_ms = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let mut via_guide = 0usize;
    for nfq in &nfqs {
        let mut at = ClassVerdicts::new(position_language(&nfq.lin, nfq.via));
        let cands: Vec<_> = guide
            .extent(&doc, &mut at, None)
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        via_guide += filter_candidates(nfq, &doc, &cands).len();
    }
    let guide_ms = t.elapsed().as_secs_f64() * 1e3;

    println!(
        "relevant-call detection (one NFQA round over {} NFQs):",
        nfqs.len()
    );
    println!("  full NFQ evaluation on the document: {via_doc:>6} calls in {doc_ms:>8.2} ms");
    println!("  guide lookup + residual filtering:   {via_guide:>6} calls in {guide_ms:>8.2} ms");
    assert_eq!(via_doc, via_guide, "the guide is exact");
    println!("  speedup: {:.1}x", doc_ms / guide_ms);
}
