//! Compiled query plans: compile **once per pattern**, evaluate
//! everywhere.
//!
//! A [`QueryPlan`] keeps everything about a pattern that does not depend
//! on any document: the pattern and its enumeration tables (`needs_enum`,
//! the row layout — each result node's and join variable's cell and the
//! row width — and the nodes whose fragments are tabled, with the cells
//! their fragments keep). Per document, the only remaining work is
//! [`QueryPlan::bind`]: compiling the per-node label tests against the
//! document's interned symbols, one lookup per label the pattern names.
//! Evaluation then runs on pure `u32` compares. Every evaluation binds
//! afresh, so a label the document interned after an earlier evaluation
//! (spliced in by a service result, say) is never missed, and one plan
//! serves any number of documents, whatever their symbol numbering.
//!
//! [`PlanScratch`] carries the evaluator's one reusable table allocation,
//! the descendant-existence table. Nothing in the scratch is keyed to a
//! document or pattern, so reuse across snapshots, documents, and
//! patterns is always sound. The row and candidate buffers and the
//! fragment table of an enumeration live for one evaluation.

use crate::eval::{
    compile_ctests, enum_tables, eval_compiled, CTest, EnumTables, Memo, SnapshotResult,
};
use crate::pattern::Pattern;
use axml_xml::Document;

/// The reusable allocation of the evaluator's one table, descendant
/// existence, for repeated evaluations (the NFQA loop re-evaluates
/// patterns after every splice). The table is cleared on reuse — only the
/// capacity survives; entries never leak across calls, documents, or
/// patterns.
#[derive(Debug, Default)]
pub struct PlanScratch {
    desc_memo: Memo,
}

impl PlanScratch {
    pub(crate) fn take_desc_memo(&mut self) -> Memo {
        let mut m = std::mem::take(&mut self.desc_memo);
        m.clear();
        m
    }

    pub(crate) fn put_back(&mut self, desc_memo: Memo) {
        self.desc_memo = desc_memo;
    }
}

/// A pattern compiled once, evaluable on any [`Document`]. Cheap to clone
/// is *not* a goal (it owns the pattern); share it behind an `Arc` — the
/// plan is immutable and thread-safe.
#[derive(Clone, Debug)]
pub struct QueryPlan {
    pattern: Pattern,
    tables: EnumTables,
}

/// A plan's label tests compiled against one document's symbols. A label
/// the document had not interned compiles to a test that never fires, so
/// a binding describes the document as it was when [`QueryPlan::bind`]
/// ran.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanBinding {
    ctest: Vec<CTest>,
}

impl QueryPlan {
    /// Compiles a pattern into a reusable plan. One pattern walk; no
    /// document in sight.
    pub fn compile(pattern: &Pattern) -> QueryPlan {
        QueryPlan {
            pattern: pattern.clone(),
            tables: enum_tables(pattern),
        }
    }

    /// The compiled pattern.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// Compiles the plan's label tests against `doc`'s symbols: one hash
    /// lookup per label the pattern names, the entire per-document setup
    /// cost of a cached plan.
    pub fn bind(&self, doc: &Document) -> PlanBinding {
        PlanBinding {
            ctest: compile_ctests(&self.pattern, doc),
        }
    }

    /// Evaluates the plan on `doc` with a fresh scratch.
    pub fn eval(&self, doc: &Document) -> SnapshotResult {
        self.eval_with(doc, &mut PlanScratch::default())
    }

    /// Binds and evaluates in one step.
    pub fn eval_with(&self, doc: &Document, scratch: &mut PlanScratch) -> SnapshotResult {
        eval_compiled(
            &self.pattern,
            doc,
            self.bind(doc).ctest,
            &self.tables,
            scratch,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::seed_eval;
    use crate::parser::parse_query;
    use axml_xml::parse;

    // the oracle is the seed evaluator: string compares, no index, no
    // compiled tests, so it shares no code path with `bind`

    #[test]
    fn plan_matches_transient_eval() {
        let d = parse(
            "<hotels><hotel><name>BW</name><rating>*****</rating></hotel>\
             <axml:call service=\"getHotels\"/></hotels>",
        )
        .unwrap();
        let q = parse_query("/hotels/hotel[rating=\"*****\"]/name").unwrap();
        let plan = QueryPlan::compile(&q);
        assert_eq!(plan.eval(&d), seed_eval(&q, &d));
        assert_eq!(plan.eval(&d).len(), 1);
        // one test of each kind: a call, and a wildcard that must not
        // match the call beside the hotel
        for (src, rows) in [("/hotels/getHotels()", 1), ("/hotels/*", 1)] {
            let q = parse_query(src).unwrap();
            let plan = QueryPlan::compile(&q);
            assert_eq!(plan.eval(&d), seed_eval(&q, &d), "{src}");
            assert_eq!(plan.eval(&d).len(), rows, "{src}");
        }
    }

    #[test]
    fn disjoint_symbol_table_compiles_dead_and_stays_sound() {
        let q = parse_query("/hotels/hotel/name").unwrap();
        let plan = QueryPlan::compile(&q);
        let d = parse("<auctions><item><bid>5</bid></item></auctions>").unwrap();
        let mut scratch = PlanScratch::default();
        assert!(plan.eval_with(&d, &mut scratch).is_empty());
        assert!(seed_eval(&q, &d).is_empty());
    }

    #[test]
    fn binding_goes_stale_when_labels_grow() {
        // regression: a plan compiled before the document ever interned
        // one of its labels must start matching once the label appears
        let q = parse_query("/root/rare").unwrap();
        let plan = QueryPlan::compile(&q);
        let mut d = parse("<root><common>x</common></root>").unwrap();
        let before = plan.bind(&d);
        let mut scratch = PlanScratch::default();
        assert!(plan.eval_with(&d, &mut scratch).is_empty());
        // the document interns "rare" only now
        d.add_element(d.roots()[0], "rare");
        assert_ne!(plan.bind(&d), before, "the old binding compiled rare dead");
        let r = plan.eval_with(&d, &mut scratch);
        assert_eq!(r.len(), 1);
        assert_eq!(r, seed_eval(&q, &d));
    }

    #[test]
    fn one_plan_many_permuted_symbol_tables() {
        // the same logical tree, but each document interns labels in a
        // different order (a decoy first root skews the symbol numbering)
        let q = parse_query("/hotels/hotel[rating=\"*****\"][name=$X] -> $X").unwrap();
        let plan = QueryPlan::compile(&q);
        let tree = "<hotels><hotel><name>BW</name><rating>*****</rating></hotel>\
                    <hotel><name>Penn</name><rating>**</rating></hotel></hotels>";
        let plain = parse(tree).unwrap();
        let permuted = parse(&format!(
            "<zzz><rating/><name/><hotel/><hotels/>{tree}</zzz>{tree}"
        ))
        .unwrap();
        let expected: Vec<Vec<String>> = crate::eval::render_result(&plain, &plan.eval(&plain));
        let got = crate::eval::render_result(&permuted, &plan.eval(&permuted));
        assert_eq!(expected, got);
        assert_eq!(plan.eval(&plain), seed_eval(&q, &plain));
        assert_eq!(plan.eval(&permuted), seed_eval(&q, &permuted));
    }
}
