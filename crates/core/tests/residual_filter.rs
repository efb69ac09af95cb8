//! The residual filter of §6.2 (`filter_candidates`) on inputs the hotel
//! scenarios never produce: deep chains that repeat one label, NFQ paths
//! with several `//` steps, and side conditions on the root and on
//! repeated labels.

use axml_core::{
    build_nfq, build_nfqs, extent, filter_candidates, position_language, ClassVerdicts, Engine,
    EngineConfig,
};
use axml_query::{parse_query, render, seed_eval};
use axml_services::{Registry, StaticService};
use axml_xml::{parse, Document, NodeId};
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// A chain of `depth` nested `<a>` elements, each but the deepest with a
/// `<d>` child (the deepest too when `d_at_bottom`), and
/// `<b><axml:call service="f"/></b>` under the deepest.
fn chain(depth: usize, d_at_bottom: bool) -> Document {
    let mut d = Document::with_root("a");
    let mut a = d.root();
    for _ in 1..depth {
        d.add_element(a, "d");
        a = d.add_element(a, "a");
    }
    if d_at_bottom {
        d.add_element(a, "d");
    }
    let b = d.add_element(a, "b");
    d.add_call(b, "f");
    d
}

/// `/a`, then `k` `//a` steps, then `[d]/b/x` on a 40-deep chain, the
/// NFQ of `x`: the positional stage accepts the call, every placement of
/// the `//a` steps aligns, and only `[d]` fails, at the deepest `<a>`. An
/// alignment search that forgets failed placements tries all of them
/// before rejecting the call, exponentially many in `k`; before the
/// filter remembered failed placements, this test ran out of its minute
/// in a debug build. The filter runs on its own thread, so that a
/// regression fails instead of hanging.
#[test]
fn deep_chain_alignment_stays_polynomial() {
    let (done, wait) = mpsc::channel();
    let filter = thread::spawn(move || {
        let k = 20;
        let q = parse_query(&format!("/a{}[d]/b/x", "//a".repeat(k))).unwrap();
        let nfq = build_nfq(&q, q.result_nodes()[0]);
        let d = chain(40, false);
        let mut at = ClassVerdicts::new(position_language(&nfq.lin, nfq.via));
        let candidates: Vec<NodeId> = extent(&d, &mut at, None)
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let kept = filter_candidates(&nfq, &d, &candidates);
        let _ = done.send((candidates.len(), kept.len()));
    });
    let (candidates, kept) = wait
        .recv_timeout(Duration::from_secs(60))
        .expect("the filter finishes within a minute");
    filter.join().unwrap();
    assert_eq!(candidates, 1, "the positional stage accepts the call");
    assert_eq!(kept, 0, "`[d]` fails at the deepest `<a>`");
}

/// The same repro through `Engine::evaluate`, with `[d]` holding at the
/// deepest `<a>` too: the NFQ of `x` then retrieves the call at every
/// placement of the `//a` steps. In a debug build the engine checks every
/// candidate set the guide yields against `seed_eval`, whose enumeration
/// is the evaluator's, and the final evaluation enumerates the same
/// placements once `f` returned `<x/>`: before the evaluator tabled the
/// fragments of nested `//` steps, the run did not finish within this
/// test's minute.
#[test]
fn deep_chain_runs_through_the_engine() {
    let (done, wait) = mpsc::channel();
    let run = thread::spawn(move || {
        let q = parse_query(&format!("/a{}[d]/b/x", "//a".repeat(20))).unwrap();
        let mut d = chain(40, true);
        let mut registry = Registry::new();
        registry.register(StaticService::new("f", parse("<x/>").unwrap()));
        let report = Engine::new(&registry, EngineConfig::default()).evaluate(&mut d, &q);
        let _ = done.send((
            report.result.len(),
            report.stats.calls_invoked,
            report.complete,
        ));
    });
    let (answers, invoked, complete) = wait
        .recv_timeout(Duration::from_secs(60))
        .expect("the engine finishes within a minute");
    run.join().unwrap();
    assert_eq!((answers, invoked, complete), (1, 1, true));
}

/// Labels of generated documents and queries: few, so that paths repeat
/// them.
const LABELS: [&str; 3] = ["a", "b", "c"];

/// The document `ops` builds under an `<a>` root. Each op adds one node:
/// an element, a text value or a call. Two ops in three add it under the
/// newest element, so chains grow deep; the third names any earlier
/// element or call, and a node added under a call sits in its parameters,
/// hidden from queries (§2).
fn build_doc(ops: &[(u8, u8)]) -> Document {
    let mut d = Document::with_root("a");
    let mut parents = vec![d.root()];
    let mut newest = d.root();
    for &(at, what) in ops {
        let parent = if at % 3 == 0 {
            parents[at as usize / 3 % parents.len()]
        } else {
            newest
        };
        let label = LABELS[what as usize / 8 % LABELS.len()];
        match what % 8 {
            0..=3 => {
                newest = d.add_element(parent, label);
                parents.push(newest);
            }
            4 => {
                d.add_text(parent, if what % 16 < 8 { "v" } else { "w" });
            }
            _ => parents.push(d.add_call(parent, if what % 2 == 0 { "f" } else { "g" })),
        }
    }
    d
}

/// One step of a generated query: descendant edge, label (`*` past the
/// alphabet) and predicates.
type Step = (bool, u8, Vec<Pred>);

/// A predicate: a relative path of one or two steps (edge and label each),
/// and whether its last step must hold the value `v`.
type Pred = (Vec<(bool, u8)>, bool);

fn label(l: u8) -> &'static str {
    LABELS.get(l as usize).copied().unwrap_or("*")
}

/// Renders a query: the steps, root first, then predicates per step.
fn render_query(steps: &[Step]) -> String {
    let mut q = String::new();
    for (i, (desc, l, preds)) in steps.iter().enumerate() {
        q.push_str(if *desc && i > 0 { "//" } else { "/" });
        q.push_str(label(*l));
        for (path, valued) in preds {
            q.push('[');
            for (j, &(pdesc, pl)) in path.iter().enumerate() {
                if pdesc {
                    q.push_str("//");
                } else if j > 0 {
                    q.push('/');
                }
                q.push_str(label(pl));
            }
            if *valued {
                q.push_str("=\"v\"");
            }
            q.push(']');
        }
    }
    q
}

/// Queries of one to five steps, three in five of them `//` steps, each
/// with up to two predicates.
fn query_steps() -> impl Strategy<Value = Vec<Step>> {
    let pred = (vec((any::<bool>(), 0u8..4), 1..3), any::<bool>());
    let step = (0u8..5, 0u8..4, vec(pred, 0..3)).prop_map(|(e, l, preds)| (e < 3, l, preds));
    vec(step, 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// §6.2's equivalence on deep, label-repeating documents: for every
    /// join-free NFQ of a random query, the guide's extent at the NFQ's
    /// position followed by the residual filter keeps exactly the calls
    /// that the reference evaluator binds to the NFQ's output.
    #[test]
    fn residual_filter_agrees_with_seed_eval_on_deep_documents(
        ops in vec((any::<u8>(), any::<u8>()), 1..40),
        steps in query_steps(),
    ) {
        let d = build_doc(&ops);
        d.check_integrity().unwrap();
        let q = parse_query(&render_query(&steps)).unwrap();
        for nfq in build_nfqs(&q) {
            if !nfq.pattern.join_variables().is_empty() {
                continue;
            }
            let mut at = ClassVerdicts::new(position_language(&nfq.lin, nfq.via));
            let source: Vec<NodeId> = extent(&d, &mut at, None)
                .into_iter()
                .map(|(n, _)| n)
                .collect();
            let mut kept = filter_candidates(&nfq, &d, &source);
            kept.sort();
            let full = seed_eval(&nfq.pattern, &d).bindings_of(nfq.output);
            prop_assert_eq!(&kept, &full, "{} / NFQ {}", render(&q), render(&nfq.pattern));
        }
    }
}
