//! Compiled query plans: parse/compile **once per pattern**, evaluate
//! everywhere.
//!
//! A [`QueryPlan`] fuses everything about a pattern that does not depend
//! on any particular document: a plan-local symbol table over the labels
//! the pattern mentions, the per-node label tests expressed in those
//! plan symbols, and the enumeration tables (`needs_enum`, join-variable
//! ids). Per document, the only remaining work is a **symbol-table
//! remap** — [`QueryPlan::bind`] translates each plan symbol through the
//! document's interner (`lookup_sym`), an `O(labels-in-pattern)` step —
//! after which evaluation runs on pure `u32` compares, exactly like the
//! transiently compiled path.
//!
//! ## Remap invariants
//!
//! * **Identity**: remapping the plan through a binding yields *the same*
//!   compiled test table that a transient per-(pattern, document)
//!   compilation would produce — checked by a `debug_assert` on every
//!   bound evaluation, and by the differential plan-equivalence oracle in
//!   release builds. Consequently results are byte-identical to both the
//!   transient path and [`crate::eval::seed_eval`], for *any* symbol
//!   table: disjoint (no label interned — every test compiles dead),
//!   permuted (symbols renumbered), or grown since the plan was built.
//! * **Staleness**: a binding carries the document's `sym_count` stamp.
//!   Symbol tables are append-only, so a binding is valid exactly while
//!   the stamp matches; a label interned *after* binding (e.g. spliced in
//!   by a service result) would otherwise be invisibly treated as
//!   never-interned. [`QueryPlan::eval_bound`] asserts currency;
//!   [`PlanBinding::is_current`] lets callers rebind lazily.
//! * **Documents are not interchangeable**: a binding translates into
//!   *one* document's symbol space. The stamp guards growth of that
//!   document, not identity across documents — callers keep bindings per
//!   document (the engine's per-run scratch does).
//!
//! [`PlanScratch`] carries the reusable memo-table allocations that the
//! old per-(pattern, document) `EvaluatorCache` held, without the
//! footgun: nothing in the scratch is keyed to a document or pattern, so
//! reuse across snapshots, documents, and patterns is always sound.

use crate::eval::{
    compile_ctests, enum_tables, eval_compiled, matches_compiled, CTest, EvalOptions, Memo,
    SnapshotResult,
};
use crate::pattern::{FunMatch, PLabel, Pattern};
use axml_xml::DataSource;
use std::collections::HashMap;

/// Reusable memo-table allocations for repeated evaluations (the NFQA
/// loop re-evaluates patterns after every splice). The tables are cleared
/// on reuse — only the capacity survives; entries never leak across
/// calls, documents, or patterns.
#[derive(Debug, Default)]
pub struct PlanScratch {
    memo: Memo,
    desc_memo: Memo,
}

impl PlanScratch {
    pub(crate) fn take_memo(&mut self) -> Memo {
        let mut m = std::mem::take(&mut self.memo);
        m.clear();
        m
    }

    pub(crate) fn take_desc_memo(&mut self) -> Memo {
        let mut m = std::mem::take(&mut self.desc_memo);
        m.clear();
        m
    }

    pub(crate) fn put_back(&mut self, memo: Memo, desc_memo: Memo) {
        self.memo = memo;
        self.desc_memo = desc_memo;
    }
}

/// A pattern-node label test over **plan-local** symbols (indices into
/// the plan's own symbol table, not any document's).
#[derive(Clone, Debug, PartialEq, Eq)]
enum PlanTest {
    /// A data node whose label is plan symbol `s`.
    DataSym(u32),
    /// Any data node.
    AnyData,
    /// Any function node.
    AnyCall,
    /// A function node whose service is one of the listed plan symbols
    /// (order preserved from the pattern's name list).
    CallOneOf(Vec<u32>),
    /// OR nodes are handled transparently by the traversal.
    Or,
}

/// A pattern compiled once, bindable to any [`DataSource`] by a symbol
/// remap. Cheap to clone is *not* a goal (it owns the pattern); share it
/// behind an `Arc` — the plan is immutable and thread-safe.
#[derive(Clone, Debug)]
pub struct QueryPlan {
    pattern: Pattern,
    /// Plan-local symbol table: every label text the pattern can test.
    syms: Vec<String>,
    /// Per pattern node, over plan symbols.
    tests: Vec<PlanTest>,
    needs_enum: Vec<bool>,
    var_id: Vec<Option<u32>>,
}

/// The result of remapping a plan into one document's symbol space:
/// plan symbol → that document's symbol (`None` = label never interned
/// there, the test can never fire). Stamped with the document's
/// `sym_count` at bind time.
#[derive(Clone, Debug)]
pub struct PlanBinding {
    map: Vec<Option<u32>>,
    stamp: usize,
}

impl PlanBinding {
    /// Is the binding still current for `doc`? Symbol tables are
    /// append-only, so currency is exactly "the table has not grown".
    pub fn is_current<D: DataSource>(&self, doc: &D) -> bool {
        self.stamp == doc.sym_count()
    }

    /// The `sym_count` stamp the binding was taken at.
    pub fn stamp(&self) -> usize {
        self.stamp
    }
}

impl QueryPlan {
    /// Compiles a pattern into a reusable plan. One pattern walk; no
    /// document in sight.
    pub fn compile(pattern: &Pattern) -> QueryPlan {
        let mut interner: HashMap<String, u32> = HashMap::new();
        let mut syms: Vec<String> = Vec::new();
        let mut intern = |text: &str, syms: &mut Vec<String>| -> u32 {
            if let Some(&s) = interner.get(text) {
                return s;
            }
            let s = syms.len() as u32;
            syms.push(text.to_string());
            interner.insert(text.to_string(), s);
            s
        };
        let mut tests = Vec::with_capacity(pattern.len());
        for id in pattern.node_ids() {
            tests.push(match &pattern.node(id).label {
                PLabel::Const(l) => PlanTest::DataSym(intern(l.as_str(), &mut syms)),
                PLabel::Var(_) | PLabel::Wildcard => PlanTest::AnyData,
                PLabel::Fun(FunMatch::Any) => PlanTest::AnyCall,
                PLabel::Fun(FunMatch::OneOf(names)) => PlanTest::CallOneOf(
                    names
                        .iter()
                        .map(|l| intern(l.as_str(), &mut syms))
                        .collect(),
                ),
                PLabel::Or => PlanTest::Or,
            });
        }
        let (needs_enum, var_id) = enum_tables(pattern);
        QueryPlan {
            pattern: pattern.clone(),
            syms,
            tests,
            needs_enum,
            var_id,
        }
    }

    /// The compiled pattern.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// Number of plan-local symbols (= the cost of one [`bind`] in symbol
    /// lookups).
    ///
    /// [`bind`]: QueryPlan::bind
    pub fn plan_syms(&self) -> usize {
        self.syms.len()
    }

    /// Remaps the plan into `doc`'s symbol space. `O(plan_syms)` hash
    /// lookups — this is the entire per-document setup cost of a cached
    /// plan.
    pub fn bind<D: DataSource>(&self, doc: &D) -> PlanBinding {
        PlanBinding {
            map: self.syms.iter().map(|s| doc.lookup_sym(s)).collect(),
            stamp: doc.sym_count(),
        }
    }

    /// The document-symbol test table obtained by pushing the binding
    /// through the plan tests. Equals what transient compilation against
    /// the same document produces (the remap-identity invariant).
    fn ctests_for(&self, binding: &PlanBinding) -> Vec<CTest> {
        self.tests
            .iter()
            .map(|t| match t {
                PlanTest::DataSym(s) => CTest::DataSym(binding.map[*s as usize]),
                PlanTest::AnyData => CTest::AnyData,
                PlanTest::AnyCall => CTest::AnyCall,
                PlanTest::CallOneOf(ss) => {
                    CTest::CallOneOf(ss.iter().filter_map(|&s| binding.map[s as usize]).collect())
                }
                PlanTest::Or => CTest::Or,
            })
            .collect()
    }

    /// Evaluates the plan on `doc` with default options and a fresh
    /// scratch.
    pub fn eval<D: DataSource>(&self, doc: &D) -> SnapshotResult {
        self.eval_with(doc, EvalOptions::default(), &mut PlanScratch::default())
    }

    /// Binds and evaluates in one step.
    pub fn eval_with<D: DataSource>(
        &self,
        doc: &D,
        opts: EvalOptions,
        scratch: &mut PlanScratch,
    ) -> SnapshotResult {
        let binding = self.bind(doc);
        self.eval_bound(&binding, doc, opts, scratch)
    }

    /// Evaluates through a previously taken binding (must be current —
    /// rebind after the document interned new labels).
    pub fn eval_bound<D: DataSource>(
        &self,
        binding: &PlanBinding,
        doc: &D,
        opts: EvalOptions,
        scratch: &mut PlanScratch,
    ) -> SnapshotResult {
        let ctest = self.checked_ctests(binding, doc);
        eval_compiled(
            &self.pattern,
            doc,
            opts,
            ctest,
            self.needs_enum.clone(),
            self.var_id.clone(),
            scratch,
        )
    }

    /// `true` iff at least one embedding exists (bound existence test).
    pub fn matches<D: DataSource>(&self, doc: &D, scratch: &mut PlanScratch) -> bool {
        let binding = self.bind(doc);
        let ctest = self.checked_ctests(&binding, doc);
        matches_compiled(
            &self.pattern,
            doc,
            EvalOptions::default(),
            ctest,
            self.needs_enum.clone(),
            self.var_id.clone(),
            scratch,
        )
    }

    fn checked_ctests<D: DataSource>(&self, binding: &PlanBinding, doc: &D) -> Vec<CTest> {
        assert_eq!(
            binding.stamp,
            doc.sym_count(),
            "stale plan binding: the document interned new labels since \
             bind() — rebind before evaluating"
        );
        let ctest = self.ctests_for(binding);
        // remap identity: the binding road and the transient road must
        // compile the same table
        debug_assert_eq!(ctest, compile_ctests(&self.pattern, doc));
        ctest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval, seed_eval};
    use crate::parser::parse_query;
    use axml_xml::parse;

    #[test]
    fn plan_matches_transient_eval() {
        let d = parse(
            "<hotels><hotel><name>BW</name><rating>*****</rating></hotel>\
             <axml:call service=\"getHotels\"/></hotels>",
        )
        .unwrap();
        let q = parse_query("/hotels/hotel[rating=\"*****\"]/name").unwrap();
        let plan = QueryPlan::compile(&q);
        assert_eq!(plan.eval(&d), eval(&q, &d));
        assert_eq!(plan.eval(&d), seed_eval(&q, &d));
        assert!(plan.matches(&d, &mut PlanScratch::default()));
    }

    #[test]
    fn disjoint_symbol_table_compiles_dead_and_stays_sound() {
        let q = parse_query("/hotels/hotel/name").unwrap();
        let plan = QueryPlan::compile(&q);
        let d = parse("<auctions><item><bid>5</bid></item></auctions>").unwrap();
        let binding = plan.bind(&d);
        assert!(binding.is_current(&d));
        assert!(plan
            .eval_bound(
                &binding,
                &d,
                EvalOptions::default(),
                &mut PlanScratch::default()
            )
            .is_empty());
    }

    #[test]
    fn binding_goes_stale_when_labels_grow() {
        // regression: a plan cached before the document ever interned one
        // of its labels must start matching once the label appears
        let q = parse_query("/root/rare").unwrap();
        let plan = QueryPlan::compile(&q);
        let mut d = parse("<root><common>x</common></root>").unwrap();
        let binding = plan.bind(&d);
        assert!(plan
            .eval_bound(
                &binding,
                &d,
                EvalOptions::default(),
                &mut PlanScratch::default()
            )
            .is_empty());
        // the document interns "rare" only now
        d.add_element(d.roots()[0], "rare");
        assert!(!binding.is_current(&d), "sym_count grew");
        let rebound = plan.bind(&d);
        let r = plan.eval_bound(
            &rebound,
            &d,
            EvalOptions::default(),
            &mut PlanScratch::default(),
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r, seed_eval(&q, &d));
    }

    #[test]
    #[should_panic(expected = "stale plan binding")]
    fn stale_binding_is_rejected() {
        let q = parse_query("/root/rare").unwrap();
        let plan = QueryPlan::compile(&q);
        let mut d = parse("<root/>").unwrap();
        let binding = plan.bind(&d);
        d.add_element(d.roots()[0], "rare");
        plan.eval_bound(
            &binding,
            &d,
            EvalOptions::default(),
            &mut PlanScratch::default(),
        );
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
        assert_eq!(plan.eval(&permuted), seed_eval(&q, &permuted));
    }
}
