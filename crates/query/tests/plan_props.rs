//! Plan-equivalence properties at the query layer: a [`QueryPlan`]
//! compiled **once** must evaluate byte-identically to the seed evaluator
//! on any document — including documents whose symbol tables are
//! permutations of each other, or grew after the plan last ran on them.
//! [`QueryPlan::bind`] (compiling the label tests against the document)
//! is the only per-document work, so these properties pin exactly the
//! invariant the engine's compiled-plan path relies on. The oracle is
//! [`seed_eval`]: string compares, no index and no compiled tests, so it
//! shares no code with the binding it checks.

use axml_query::{
    seed_eval, EdgeKind, FunMatch, PLabel, PNodeId, Pattern, PlanScratch, QueryPlan, ResultTuple,
};
use axml_xml::Document;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// The full label alphabet the random documents draw from. Interning a
/// shuffled prefix of it before building a document permutes that
/// document's symbol table relative to every other document's.
fn alphabet() -> Vec<String> {
    let mut v: Vec<String> = (0..4).map(|i| format!("e{i}")).collect();
    v.extend((0..3).map(|i| format!("v{i}")));
    v
}

/// A random document; `warmup_seed` controls a hidden subtree whose only
/// purpose is to intern the alphabet in a shuffled order first, so two
/// documents with different warmup seeds assign different symbol ids to
/// the same labels.
fn random_doc(seed: u64, warmup_seed: Option<u64>) -> Document {
    let mut d = Document::with_root("root");
    if let Some(ws) = warmup_seed {
        let mut rng = StdRng::seed_from_u64(ws);
        let mut labels = alphabet();
        // Fisher–Yates (the vendored rand has no `seq` module)
        for i in (1..labels.len()).rev() {
            labels.swap(i, rng.gen_range(0..=i));
        }
        let warm = d.add_element(d.root(), "warmup");
        for l in labels {
            d.add_element(warm, l);
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut frontier = vec![d.root()];
    for _ in 0..rng.gen_range(3..22) {
        let parent = frontier[rng.gen_range(0..frontier.len())];
        match rng.gen_range(0..10) {
            0 => {
                d.add_call(parent, format!("svc{}", rng.gen_range(0..2)));
            }
            1 | 2 => {
                d.add_text(parent, format!("v{}", rng.gen_range(0..3)));
            }
            _ => {
                let e = d.add_element(parent, format!("e{}", rng.gen_range(0..4)));
                frontier.push(e);
            }
        }
    }
    d
}

/// A small random query over the same alphabet, possibly with repeated
/// (join) variables, function tests and result marks.
fn random_pattern(seed: u64) -> Pattern {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = Pattern::new();
    let root = p.set_root(PLabel::Const("root".into()));
    let mut frontier = vec![root];
    let n = rng.gen_range(1..6);
    for _ in 0..n {
        let parent = frontier[rng.gen_range(0..frontier.len())];
        let edge = if rng.gen_bool(0.4) {
            EdgeKind::Descendant
        } else {
            EdgeKind::Child
        };
        let label = match rng.gen_range(0..8) {
            0 => PLabel::Wildcard,
            1 => PLabel::Var(format!("V{}", rng.gen_range(0..2)).into()),
            2 => PLabel::Const(format!("v{}", rng.gen_range(0..3)).into()),
            3 => PLabel::Fun(FunMatch::Any),
            _ => PLabel::Const(format!("e{}", rng.gen_range(0..4)).into()),
        };
        let is_fun = matches!(label, PLabel::Fun(_));
        let c = p.add_child(parent, edge, label);
        if !is_fun {
            frontier.push(c);
        }
    }
    let ids: Vec<PNodeId> = p.node_ids().collect();
    for _ in 0..rng.gen_range(1..3) {
        let pick = ids[rng.gen_range(0..ids.len())];
        p.mark_result(pick);
    }
    p
}

fn tuples(pattern: &Pattern, doc: &Document) -> BTreeSet<ResultTuple> {
    seed_eval(pattern, doc).tuples()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// One compiled plan, evaluated on a random document, agrees with the
    /// seed evaluator tuple for tuple — and per result node binding for
    /// binding.
    #[test]
    fn compiled_plan_agrees_with_interpreter(dseed in 0u64..100_000, qseed in 0u64..100_000) {
        let doc = random_doc(dseed, None);
        let q = random_pattern(qseed);
        let plan = QueryPlan::compile(&q);
        let interpreted = seed_eval(&q, &doc);
        let compiled = plan.eval(&doc);
        prop_assert_eq!(&compiled.tuples(), &interpreted.tuples(), "dseed={} qseed={}", dseed, qseed);
        for r in q.result_nodes() {
            prop_assert_eq!(
                compiled.bindings_of(r),
                interpreted.bindings_of(r),
                "bindings of {:?} diverge (dseed={} qseed={})", r, dseed, qseed
            );
        }
    }

    /// One plan serves many documents whose symbol tables are permuted
    /// relative to each other: the binding per document is the only thing
    /// that changes, never the answer. The scratch space is reused across
    /// documents, as the engine does.
    #[test]
    fn one_plan_many_permuted_symbol_tables(
        qseed in 0u64..100_000,
        dseeds in proptest::collection::vec(0u64..100_000, 2..5),
    ) {
        let q = random_pattern(qseed);
        let plan = QueryPlan::compile(&q);
        let mut scratch = PlanScratch::default();
        for (i, &dseed) in dseeds.iter().enumerate() {
            // warmup seed = position: each document interns the alphabet
            // in a different shuffled order
            let doc = random_doc(dseed, Some(i as u64 * 7919 + 1));
            let compiled = plan
                .eval_with(&doc, &mut scratch)
                .tuples();
            prop_assert_eq!(
                compiled,
                tuples(&q, &doc),
                "doc {} diverges (qseed={} dseed={})", i, qseed, dseed
            );
        }
    }

    /// A plan that already ran on a document keeps agreeing after the
    /// document interned new labels. This is the grown-mid-session
    /// torture: the plan was compiled (and first evaluated) before the
    /// document ever interned some of its labels.
    #[test]
    fn rebinding_after_symbol_growth_stays_exact(
        dseed in 0u64..100_000,
        qseed in 0u64..100_000,
        extra in 1usize..6,
    ) {
        let mut doc = random_doc(dseed, None);
        let q = random_pattern(qseed);
        let plan = QueryPlan::compile(&q);
        let mut scratch = PlanScratch::default();
        let before = plan.eval_with(&doc, &mut scratch).tuples();
        prop_assert_eq!(before, tuples(&q, &doc), "dseed={} qseed={}", dseed, qseed);

        // grow: new subtree with labels the document had never interned
        // (fresh names), plus alphabet labels it may or may not have seen
        let parent = doc.root();
        for i in 0..extra {
            let e = doc.add_element(parent, format!("late{i}"));
            doc.add_text(e, format!("v{}", i % 3));
        }

        let after = plan.eval_with(&doc, &mut scratch).tuples();
        prop_assert_eq!(after, tuples(&q, &doc), "dseed={} qseed={}", dseed, qseed);
    }
}
