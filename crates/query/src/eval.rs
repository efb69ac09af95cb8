//! Embedding-based evaluation of (extended) tree patterns — the *snapshot
//! semantics* of Definition 1.
//!
//! An embedding maps pattern nodes to document nodes, root to root,
//! preserving parent-child / ancestor-descendant edges, mapping constants to
//! data nodes with the same label, with all occurrences of a variable mapped
//! to nodes carrying identical labels. Extended patterns add OR nodes
//! (transparent choice) and function nodes (matched against the document's
//! function-call nodes).
//!
//! Design notes:
//! * Descendant navigation never descends **below** a function node: the
//!   parameters of a pending call are inputs of the service, not document
//!   content (a call node itself is still visible, so `//()` finds calls at
//!   any depth).
//! * Condition subtrees that contain neither result nodes nor join
//!   variables are checked by a memoized boolean match; full enumeration
//!   happens only where bindings are observable. This keeps the evaluator
//!   polynomial on join-free queries.
//! * The F-guide's residual filter asks its conditions through a
//!   [`Matcher`], which writes no structural memo, only the
//!   descendant-existence table that keeps nested `//` polynomial; every
//!   other evaluation keeps both. In a `figure4` op the filter wrote about
//!   11,600 structural entries and read none of them back.
//! * Hot-path engineering: pattern step tests are compiled against a
//!   document's interned symbol table, so the per-node label test is a
//!   `u32` compare; join variables bind symbols, not owned strings;
//!   descendant steps can enumerate candidates from the document's
//!   label→node index instead of scanning subtrees; and memo tables can
//!   be reused across evaluations via [`PlanScratch`]. A
//!   [`crate::plan::QueryPlan`] keeps the tables that depend on the
//!   pattern alone and compiles the label tests against each document it
//!   runs on; the convenience entry points here compile both per call.
//! * Two evaluators share this code: the production one above and
//!   [`seed_eval`], the executable spec (string-compared labels, subtree
//!   scans) every optimization is checked against. Nothing outside this
//!   module chooses between them.
//! * Evaluation reads a [`Document`]. A frozen `DocSnapshot` derefs to
//!   the document version it froze, so snapshots evaluate through the
//!   same code.

use crate::pattern::{EdgeKind, FunMatch, PLabel, PNodeId, Pattern};
use crate::plan::PlanScratch;
use axml_xml::{Document, NodeId};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// A memo table over `(pattern node, document node)` pairs.
pub(crate) type Memo = HashMap<(PNodeId, NodeId), bool, FxBuildHasher>;

/// Fx-style multiply-rotate hasher for tables keyed by engine-internal
/// integers, such as the evaluator's memo tables. No input controls
/// those keys, so SipHash's flood resistance buys nothing and costs most
/// of a lookup.
#[derive(Default)]
pub struct FxHasher(u64);

/// The [`std::hash::BuildHasher`] of [`FxHasher`], for `HashMap`s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One result of the query: the restriction of an embedding to the result
/// nodes (pattern node → document node).
pub type ResultTuple = BTreeMap<PNodeId, NodeId>;

/// The snapshot result `q(d)`: the set of results of all embeddings.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SnapshotResult {
    /// Distinct result tuples.
    pub tuples: BTreeSet<ResultTuple>,
}

impl SnapshotResult {
    /// Whether no embedding exists.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Number of distinct result tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// The document nodes bound to a given pattern node across all tuples.
    pub fn bindings_of(&self, p: PNodeId) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = Vec::with_capacity(self.tuples.len());
        v.extend(self.tuples.iter().filter_map(|t| t.get(&p).copied()));
        v.sort();
        v.dedup();
        v
    }
}

/// Renders a snapshot result as borrowed label texts (one row per tuple).
/// The zero-copy counterpart of [`render_result`].
pub fn render_result_refs<'d>(doc: &'d Document, r: &SnapshotResult) -> Vec<Vec<&'d str>> {
    let mut out = Vec::with_capacity(r.tuples.len());
    for t in &r.tuples {
        let mut row = Vec::with_capacity(t.len());
        row.extend(t.values().map(|&n| doc.label(n)));
        out.push(row);
    }
    out
}

/// Renders a snapshot result as readable strings (label of each bound node).
pub fn render_result(doc: &Document, r: &SnapshotResult) -> Vec<Vec<String>> {
    render_result_refs(doc, r)
        .into_iter()
        .map(|row| row.into_iter().map(str::to_string).collect())
        .collect()
}

/// Evaluates `q` on `d` and returns the snapshot result.
pub fn eval(pattern: &Pattern, doc: &Document) -> SnapshotResult {
    eval_with(pattern, doc, &mut PlanScratch::default())
}

/// [`eval`] with reusable memo allocations. Compiles the pattern's tests
/// transiently; callers that evaluate the same pattern repeatedly should
/// compile a [`crate::plan::QueryPlan`] once and use
/// [`crate::plan::QueryPlan::eval_with`] instead.
pub fn eval_with(pattern: &Pattern, doc: &Document, scratch: &mut PlanScratch) -> SnapshotResult {
    let (needs_enum, var_id) = enum_tables(pattern);
    let ctest = compile_ctests(pattern, doc);
    eval_compiled(pattern, doc, ctest, needs_enum, var_id, scratch)
}

/// The **executable spec**: the seed evaluator — string-compared labels,
/// no label→node index, fresh memo tables. The production evaluator
/// (interned tests, index-driven descendant steps, compiled plans) must
/// produce exactly this result; the differential plan-equivalence oracles
/// and the engine's debug cross-check diff against it.
pub fn seed_eval(pattern: &Pattern, doc: &Document) -> SnapshotResult {
    let mut ev = Evaluator::new(pattern, doc);
    ev.spec = true;
    ev.results()
}

/// `true` iff at least one embedding of `q` in `d` exists.
pub fn matches(pattern: &Pattern, doc: &Document) -> bool {
    let (needs_enum, var_id) = enum_tables(pattern);
    let ctest = compile_ctests(pattern, doc);
    matches_compiled(
        pattern,
        doc,
        ctest,
        needs_enum,
        var_id,
        &mut PlanScratch::default(),
    )
}

/// Enumerates the *full embeddings* of the pattern (every pattern node's
/// image). OR nodes map to the image of their chosen branch. Exponential in
/// the worst case — intended for provider-side pruning of (small) service
/// results, not for document-scale evaluation. Candidates are enumerated in
/// document order, so the output order is stable across evaluator modes.
pub fn embeddings(pattern: &Pattern, doc: &Document) -> Vec<BTreeMap<PNodeId, NodeId>> {
    let mut out = Vec::new();
    if pattern.is_empty() {
        return out;
    }
    let mut ev = Evaluator::new(pattern, doc);
    for &root in doc.roots() {
        out.extend(ev.embed_full(pattern.root(), root, &VarEnv::default()));
    }
    out
}

/// A join-blind structural matcher over one `(pattern, document)` pair,
/// exposing node-level match tests. Used by the F-guide's residual filter
/// (Section 6.2), which aligns candidate calls against an NFQ's path and
/// checks the side conditions per document node.
///
/// The matcher writes no structural memo: in a `figure4` op the filter
/// wrote about 11,600 structural entries for ~894 candidates and read
/// none back. It answers a condition by plain recursion and keeps only
/// the descendant-existence table, which keeps nested `//` conditions
/// polynomial. A question asked twice is answered twice: a `//`
/// condition asked at nested ancestors repeats the `smatch` calls of the
/// label index's bucket path (at most once per ancestor), and a child
/// condition on an ancestor that several candidates share is checked
/// again for each of them.
pub struct Matcher<'a> {
    ev: Evaluator<'a>,
}

impl<'a> Matcher<'a> {
    /// Creates a matcher for `pattern` over `doc`.
    pub fn new(pattern: &'a Pattern, doc: &'a Document) -> Self {
        let mut ev = Evaluator::new(pattern, doc);
        ev.memoize_matches = false;
        Matcher { ev }
    }

    /// Label-only test: does `p`'s own label accept `v`, ignoring `p`'s
    /// children? (OR nodes test their branches' labels.)
    pub fn label_matches(&mut self, p: PNodeId, v: NodeId) -> bool {
        if let PLabel::Or = self.ev.pat.node(p).label {
            let pat = self.ev.pat;
            return pat
                .node(p)
                .children
                .iter()
                .any(|&b| self.label_matches(b, v));
        }
        self.ev.local_ok(p, v)
    }

    /// Does some child of `v` match pattern node `p` (join-blind)?
    pub fn child_matches(&mut self, p: PNodeId, v: NodeId) -> bool {
        let doc = self.ev.doc;
        doc.children(v).iter().any(|&u| self.ev.smatch(p, u))
    }

    /// Does some strict descendant of `v` match pattern node `p`
    /// (join-blind, not descending below function nodes)?
    pub fn descendant_matches(&mut self, p: PNodeId, v: NodeId) -> bool {
        self.ev.desc_exists(p, v)
    }
}

/// Variable environment for join variables: join-variable id (index into
/// the pattern's sorted join-variable list) → required label, as the
/// document's interned symbol. Symbol equality coincides with label-text
/// equality within one document, so this is equivalent to the textual
/// environment it replaces — without owned strings.
type VarEnv = BTreeMap<u32, u32>;

/// A pattern-node label test compiled against one document's symbol table
/// by [`compile_ctests`], for a transient evaluation and a
/// [`crate::plan::QueryPlan`] alike.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum CTest {
    /// `Const(l)`: a data node whose label symbol equals the payload.
    /// `None` means the text was never interned in this document — the
    /// test can never succeed.
    DataSym(Option<u32>),
    /// `Var`/`Wildcard`: any data node.
    AnyData,
    /// `Fun(Any)`: any function node.
    AnyCall,
    /// `Fun(OneOf)`: a function node whose service symbol is listed
    /// (names absent from the symbol table are dropped — they cannot
    /// match any live call).
    CallOneOf(Vec<u32>),
    /// OR nodes are handled transparently by the traversal.
    Or,
}

/// Buckets larger than this are only enumerated when the scan alternative
/// is the whole forest (the step's context is a root); for small buckets
/// the index wins regardless of context.
const SMALL_BUCKET: usize = 16;

/// Computes the per-node enumeration tables shared by transient
/// compilation and [`crate::plan::QueryPlan`]: `needs_enum` (does the
/// subtree contain a result node or join variable?) and `var_id` (the
/// node's join-variable id, if any).
pub(crate) fn enum_tables(pat: &Pattern) -> (Vec<bool>, Vec<Option<u32>>) {
    let join_vars = pat.join_variables();
    let mut needs_enum = vec![false; pat.len()];
    let mut var_id = vec![None; pat.len()];
    // bottom-up, in reverse pre-order: creation order does not put
    // parents first, since `Pattern::wrap_in_or` creates an OR node after
    // its branch
    let mut order = Vec::with_capacity(pat.len());
    let mut stack: Vec<PNodeId> = (!pat.is_empty()).then(|| pat.root()).into_iter().collect();
    while let Some(id) = stack.pop() {
        order.push(id);
        stack.extend(&pat.node(id).children);
    }
    for id in order.into_iter().rev() {
        let n = pat.node(id);
        let mut need = n.is_result;
        if let PLabel::Var(v) = &n.label {
            if let Ok(i) = join_vars.binary_search(v) {
                var_id[id.index()] = Some(i as u32);
                need = true;
            }
        }
        for &c in &n.children {
            if needs_enum[c.index()] {
                need = true;
            }
        }
        needs_enum[id.index()] = need;
    }
    (needs_enum, var_id)
}

/// Compiles the per-node label tests against one document's symbol table:
/// one interner lookup per label the pattern names. The only place label
/// tests meet a document.
pub(crate) fn compile_ctests(pat: &Pattern, doc: &Document) -> Vec<CTest> {
    let mut ctest = Vec::with_capacity(pat.len());
    for id in pat.node_ids() {
        ctest.push(match &pat.node(id).label {
            PLabel::Const(l) => CTest::DataSym(doc.lookup_sym(l.as_str())),
            PLabel::Var(_) | PLabel::Wildcard => CTest::AnyData,
            PLabel::Fun(FunMatch::Any) => CTest::AnyCall,
            PLabel::Fun(FunMatch::OneOf(names)) => CTest::CallOneOf(
                names
                    .iter()
                    .filter_map(|l| doc.lookup_sym(l.as_str()))
                    .collect(),
            ),
            PLabel::Or => CTest::Or,
        });
    }
    ctest
}

/// Runs an evaluation over already compiled tables: no pattern walk or
/// symbol lookup happens here.
pub(crate) fn eval_compiled(
    pat: &Pattern,
    doc: &Document,
    ctest: Vec<CTest>,
    needs_enum: Vec<bool>,
    var_id: Vec<Option<u32>>,
    scratch: &mut PlanScratch,
) -> SnapshotResult {
    let mut ev = Evaluator::from_tables(pat, doc, ctest, needs_enum, var_id);
    ev.memo = scratch.take_memo();
    ev.desc_memo = scratch.take_desc_memo();
    let out = ev.results();
    ev.release(scratch);
    out
}

/// The existence test over already compiled tables.
pub(crate) fn matches_compiled(
    pat: &Pattern,
    doc: &Document,
    ctest: Vec<CTest>,
    needs_enum: Vec<bool>,
    var_id: Vec<Option<u32>>,
    scratch: &mut PlanScratch,
) -> bool {
    if pat.is_empty() {
        return false;
    }
    let mut ev = Evaluator::from_tables(pat, doc, ctest, needs_enum, var_id);
    ev.memo = scratch.take_memo();
    ev.desc_memo = scratch.take_desc_memo();
    let hit = doc.roots().iter().any(|&r| {
        if ev.needs_enum[pat.root().index()] {
            !ev.embed(pat.root(), r, &VarEnv::default()).is_empty()
        } else {
            ev.smatch(pat.root(), r)
        }
    });
    ev.release(scratch);
    hit
}

struct Evaluator<'a> {
    pat: &'a Pattern,
    doc: &'a Document,
    /// run as [`seed_eval`], the executable spec: string-compared labels
    /// and subtree scans instead of `ctest` and the label→node index
    spec: bool,
    /// per pattern node: label test compiled against `doc`'s symbol table
    ctest: Vec<CTest>,
    /// does `smatch` table inner nodes' answers in `memo`? Off in a
    /// [`Matcher`] only. The memo-less path was faster wherever it was
    /// measured, but the full evaluator is E14's reference detector: when
    /// E14's reference is re-anchored, measure the memo-less path on all
    /// four benchmark workloads, then delete this flag and the memoized
    /// branch of `smatch`
    memoize_matches: bool,
    /// memoized join-blind structural match
    memo: Memo,
    /// memoized "∃ strict data-reachable descendant matching p"
    desc_memo: Memo,
    /// per pattern node: does its subtree contain a result node or a join
    /// variable (requiring full enumeration)?
    needs_enum: Vec<bool>,
    /// per pattern node: join-variable id if the node is a join variable
    var_id: Vec<Option<u32>>,
}

impl<'a> Evaluator<'a> {
    fn new(pat: &'a Pattern, doc: &'a Document) -> Self {
        let (needs_enum, var_id) = enum_tables(pat);
        let ctest = compile_ctests(pat, doc);
        Evaluator::from_tables(pat, doc, ctest, needs_enum, var_id)
    }

    fn from_tables(
        pat: &'a Pattern,
        doc: &'a Document,
        ctest: Vec<CTest>,
        needs_enum: Vec<bool>,
        var_id: Vec<Option<u32>>,
    ) -> Self {
        Evaluator {
            pat,
            doc,
            spec: false,
            ctest,
            memoize_matches: true,
            memo: Memo::default(),
            desc_memo: Memo::default(),
            needs_enum,
            var_id,
        }
    }

    /// The snapshot result: every root's embeddings of the pattern.
    fn results(&mut self) -> SnapshotResult {
        let (pat, doc) = (self.pat, self.doc);
        let mut out = SnapshotResult::default();
        if pat.is_empty() {
            return out;
        }
        for &root in doc.roots() {
            for (_, frag) in self.embed(pat.root(), root, &VarEnv::default()) {
                out.tuples.insert(frag);
            }
        }
        out
    }

    /// Returns the memo allocations to the scratch for the next
    /// evaluation.
    fn release(self, scratch: &mut PlanScratch) {
        scratch.put_back(self.memo, self.desc_memo);
    }

    /// Does the local (label-only) test of pattern node `p` accept doc node
    /// `v`, ignoring variables' join constraints?
    fn local_ok(&self, p: PNodeId, v: NodeId) -> bool {
        if self.spec {
            return self.local_ok_str(p, v);
        }
        match &self.ctest[p.index()] {
            CTest::DataSym(Some(s)) => self.doc.is_data(v) && self.doc.sym(v) == *s,
            CTest::DataSym(None) => false,
            CTest::AnyData => self.doc.is_data(v),
            CTest::AnyCall => self.doc.is_call(v),
            CTest::CallOneOf(syms) => self.doc.is_call(v) && syms.contains(&self.doc.sym(v)),
            CTest::Or => unreachable!("OR nodes are handled transparently"),
        }
    }

    /// The spec's label test: string compares.
    fn local_ok_str(&self, p: PNodeId, v: NodeId) -> bool {
        match &self.pat.node(p).label {
            PLabel::Const(l) => self.doc.is_data(v) && self.doc.label(v) == l.as_str(),
            PLabel::Var(_) | PLabel::Wildcard => self.doc.is_data(v),
            PLabel::Fun(m) => self
                .doc
                .call_info(v)
                .is_some_and(|(_, svc)| m.accepts(svc.as_str())),
            PLabel::Or => unreachable!("OR nodes are handled transparently"),
        }
    }

    /// Join-blind structural match of `p` at `v`. A leaf is answered by
    /// its label test alone, which costs less than a memo probe; an inner
    /// node's answer is memoized unless `memoize_matches` is off. The
    /// recursion strictly descends the pattern or the document, so it
    /// cannot reach `(p, v)` again before returning, and a miss needs no
    /// placeholder entry.
    fn smatch(&mut self, p: PNodeId, v: NodeId) -> bool {
        let node = self.pat.node(p);
        if node.children.is_empty() && !matches!(node.label, PLabel::Or) {
            return self.local_ok(p, v);
        }
        if !self.memoize_matches {
            return self.smatch_uncached(p, v);
        }
        if let Some(&b) = self.memo.get(&(p, v)) {
            return b;
        }
        let r = self.smatch_uncached(p, v);
        self.memo.insert((p, v), r);
        r
    }

    fn smatch_uncached(&mut self, p: PNodeId, v: NodeId) -> bool {
        let pat = self.pat;
        if let PLabel::Or = pat.node(p).label {
            return pat.node(p).children.iter().any(|&b| self.smatch(b, v));
        }
        if !self.local_ok(p, v) {
            return false;
        }
        let doc = self.doc;
        pat.node(p)
            .children
            .iter()
            .all(|&pc| match pat.node(pc).edge {
                EdgeKind::Child => doc.children(v).iter().any(|&u| self.smatch(pc, u)),
                EdgeKind::Descendant => self.desc_exists(pc, v),
            })
    }

    /// The bucket of the label→node index to enumerate for a descendant
    /// step to pattern node `p` below `v` — when that is the cheaper side.
    /// `None` means "scan the subtree". Only a perf choice: both sides
    /// compute the same answer.
    fn desc_bucket(&self, p: PNodeId, v: NodeId) -> Option<&'a [NodeId]> {
        if self.spec {
            return None;
        }
        let bucket = match &self.ctest[p.index()] {
            CTest::DataSym(Some(s)) => self.doc.nodes_with_sym(*s),
            CTest::DataSym(None) => &[],
            CTest::AnyCall => self.doc.calls_unordered(),
            // OneOf with a single known service: that service's bucket
            // (it contains every node labeled with the name, calls and
            // data alike — `smatch` filters). Multi-name tests fall back.
            CTest::CallOneOf(syms) if syms.len() == 1 => self.doc.nodes_with_sym(syms[0]),
            CTest::CallOneOf(_) | CTest::AnyData | CTest::Or => return None,
        };
        // the index wins when the scan alternative is the whole forest, or
        // when the bucket is small enough that ancestor walks beat any scan
        if self.doc.parent(v).is_none() || bucket.len() <= SMALL_BUCKET {
            Some(bucket)
        } else {
            None
        }
    }

    /// ∃ strict descendant `u` of `v` (not descending below function nodes)
    /// with `smatch(p, u)`.
    fn desc_exists(&mut self, p: PNodeId, v: NodeId) -> bool {
        if let Some(&b) = self.desc_memo.get(&(p, v)) {
            return b;
        }
        let mut found = false;
        if let Some(bucket) = self.desc_bucket(p, v) {
            for &u in bucket {
                if self.doc.reaches_through_data(v, u) && self.smatch(p, u) {
                    found = true;
                    break;
                }
            }
        } else if self.doc.is_data(v) {
            let doc = self.doc;
            for &u in doc.children(v) {
                if self.smatch(p, u) || self.desc_exists(p, u) {
                    found = true;
                    break;
                }
            }
        }
        self.desc_memo.insert((p, v), found);
        found
    }

    /// Candidate doc nodes for pattern child `pc` under image `v`, in
    /// **arbitrary** order (callers deduplicate or collect into sets).
    fn candidates(&mut self, pc: PNodeId, v: NodeId) -> Vec<NodeId> {
        match self.pat.node(pc).edge {
            EdgeKind::Child => {
                let doc = self.doc;
                let mut out = Vec::new();
                for &u in doc.children(v) {
                    if self.smatch(pc, u) {
                        out.push(u);
                    }
                }
                out
            }
            EdgeKind::Descendant => {
                let mut out = Vec::new();
                if let Some(bucket) = self.desc_bucket(pc, v) {
                    for &u in bucket {
                        if self.doc.reaches_through_data(v, u) && self.smatch(pc, u) {
                            out.push(u);
                        }
                    }
                } else {
                    self.collect_desc(pc, v, &mut out);
                }
                out
            }
        }
    }

    /// Candidate doc nodes for `pc` under `v` in document order (pre-order
    /// subtree scan), for consumers whose output order is observable
    /// ([`embeddings`]).
    fn candidates_ordered(&mut self, pc: PNodeId, v: NodeId) -> Vec<NodeId> {
        match self.pat.node(pc).edge {
            EdgeKind::Child => {
                let doc = self.doc;
                let mut out = Vec::new();
                for &u in doc.children(v) {
                    if self.smatch(pc, u) {
                        out.push(u);
                    }
                }
                out
            }
            EdgeKind::Descendant => {
                let mut out = Vec::new();
                self.collect_desc(pc, v, &mut out);
                out
            }
        }
    }

    fn collect_desc(&mut self, pc: PNodeId, v: NodeId, out: &mut Vec<NodeId>) {
        if !self.doc.is_data(v) {
            return;
        }
        let doc = self.doc;
        for &u in doc.children(v) {
            if self.smatch(pc, u) {
                out.push(u);
            }
            self.collect_desc(pc, u, out);
        }
    }

    /// Enumerates the distinct (environment, result fragment) pairs for
    /// embedding the subtree of `p` at `v`, given an inherited environment.
    fn embed(&mut self, p: PNodeId, v: NodeId, env: &VarEnv) -> Vec<(VarEnv, ResultTuple)> {
        // Fast path: nothing observable below — boolean check suffices.
        if !self.needs_enum[p.index()] {
            return if self.smatch(p, v) {
                vec![(env.clone(), ResultTuple::new())]
            } else {
                vec![]
            };
        }
        let pat = self.pat;
        if let PLabel::Or = pat.node(p).label {
            let mut out = Vec::new();
            for i in 0..pat.node(p).children.len() {
                let b = pat.node(p).children[i];
                out.extend(self.embed(b, v, env));
            }
            dedup_pairs(&mut out);
            return out;
        }
        if !self.local_ok(p, v) {
            return vec![];
        }
        let mut env = env.clone();
        if let Some(vid) = self.var_id[p.index()] {
            let sym = self.doc.sym(v);
            match env.get(&vid) {
                Some(&bound) if bound != sym => return vec![],
                Some(_) => {}
                None => {
                    env.insert(vid, sym);
                }
            }
        }
        let mut base = ResultTuple::new();
        if pat.node(p).is_result {
            base.insert(p, v);
        }
        let mut combos: Vec<(VarEnv, ResultTuple)> = vec![(env, base)];
        for i in 0..pat.node(p).children.len() {
            let pc = pat.node(p).children[i];
            let mut next: Vec<(VarEnv, ResultTuple)> = Vec::new();
            // indexed loop: the body re-borrows `self` mutably, so holding
            // an iterator over `combos` (cloned below anyway) buys nothing
            #[allow(clippy::needless_range_loop)]
            for ci in 0..combos.len() {
                if !self.needs_enum[pc.index()] {
                    // existence is independent of result fragments; the
                    // variable environment may still constrain it only via
                    // join vars, which the fast path ignores — safe because
                    // needs_enum is true whenever a join var occurs below.
                    let ok = match pat.node(pc).edge {
                        EdgeKind::Child => {
                            let doc = self.doc;
                            doc.children(v).iter().any(|&u| self.smatch(pc, u))
                        }
                        EdgeKind::Descendant => self.desc_exists(pc, v),
                    };
                    if ok {
                        next.push(combos[ci].clone());
                    }
                    continue;
                }
                for u in self.candidates(pc, v) {
                    let cenv = combos[ci].0.clone();
                    for (e2, f2) in self.embed(pc, u, &cenv) {
                        let mut merged = combos[ci].1.clone();
                        merged.extend(f2);
                        next.push((e2, merged));
                    }
                }
            }
            dedup_pairs(&mut next);
            combos = next;
            if combos.is_empty() {
                break;
            }
        }
        combos
    }

    /// Full-embedding enumeration (every pattern node's image), used for
    /// contributing-node computation. OR nodes map to the image of the
    /// chosen branch.
    fn embed_full(
        &mut self,
        p: PNodeId,
        v: NodeId,
        env: &VarEnv,
    ) -> Vec<BTreeMap<PNodeId, NodeId>> {
        let pat = self.pat;
        if let PLabel::Or = pat.node(p).label {
            let mut out = Vec::new();
            for i in 0..pat.node(p).children.len() {
                let b = pat.node(p).children[i];
                out.extend(self.embed_full(b, v, env));
            }
            return out;
        }
        if !self.local_ok(p, v) {
            return vec![];
        }
        let mut env = env.clone();
        if let Some(vid) = self.var_id[p.index()] {
            let sym = self.doc.sym(v);
            match env.get(&vid) {
                Some(&bound) if bound != sym => return vec![],
                Some(_) => {}
                None => {
                    env.insert(vid, sym);
                }
            }
        }
        let mut base = BTreeMap::new();
        base.insert(p, v);
        let mut combos: Vec<(VarEnv, BTreeMap<PNodeId, NodeId>)> = vec![(env, base)];
        for i in 0..pat.node(p).children.len() {
            let pc = pat.node(p).children[i];
            let mut next = Vec::new();
            // indexed for the same reason as `embed`'s combo loop
            #[allow(clippy::needless_range_loop)]
            for ci in 0..combos.len() {
                for u in self.candidates_ordered(pc, v) {
                    let cenv = combos[ci].0.clone();
                    for sub in self.embed_full(pc, u, &cenv) {
                        // recompute env effects of the subtree: embed_full
                        // doesn't thread env back, so re-check join vars
                        if !self.join_consistent(&cenv, &sub) {
                            continue;
                        }
                        let mut merged = combos[ci].1.clone();
                        merged.extend(sub.clone());
                        let mut env2 = cenv.clone();
                        self.extend_env(&mut env2, &sub);
                        next.push((env2, merged));
                    }
                }
            }
            combos = next;
            if combos.is_empty() {
                break;
            }
        }
        combos.into_iter().map(|(_, m)| m).collect()
    }

    fn join_consistent(&self, env: &VarEnv, emb: &BTreeMap<PNodeId, NodeId>) -> bool {
        let mut local: HashMap<u32, u32> = HashMap::new();
        for (&p, &v) in emb {
            if let Some(vid) = self.var_id[p.index()] {
                let sym = self.doc.sym(v);
                if let Some(&prev) = env.get(&vid) {
                    if prev != sym {
                        return false;
                    }
                }
                if let Some(&prev) = local.get(&vid) {
                    if prev != sym {
                        return false;
                    }
                }
                local.insert(vid, sym);
            }
        }
        true
    }

    fn extend_env(&self, env: &mut VarEnv, emb: &BTreeMap<PNodeId, NodeId>) {
        for (&p, &v) in emb {
            if let Some(vid) = self.var_id[p.index()] {
                env.entry(vid).or_insert_with(|| self.doc.sym(v));
            }
        }
    }
}

fn dedup_pairs(v: &mut Vec<(VarEnv, ResultTuple)>) {
    v.sort();
    v.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use axml_xml::{parse, Document};

    fn hotels_doc() -> Document {
        parse(
            "<hotels>\
               <hotel><name>Best Western</name><rating>*****</rating>\
                 <nearby><restaurant><name>Jo</name><address>2nd Av</address>\
                   <rating>*****</rating></restaurant>\
                 <restaurant><name>Mama</name><address>3rd Av</address>\
                   <rating>**</rating></restaurant>\
                 <axml:call service=\"getNearbyRestos\"/></nearby></hotel>\
               <hotel><name>Pennsylvania</name><rating>**</rating>\
                 <nearby><restaurant><name>Lu</name><address>Penn St</address>\
                   <rating>*****</rating></restaurant></nearby></hotel>\
               <axml:call service=\"getHotels\"/>\
             </hotels>",
        )
        .unwrap()
    }

    /// The production evaluator and the compiled plan must produce the
    /// seed evaluator's result.
    fn eval_all_modes(q: &Pattern, d: &Document) -> SnapshotResult {
        let reference = seed_eval(q, d);
        let mut scratch = PlanScratch::default();
        let got = eval_with(q, d, &mut scratch);
        assert_eq!(got, reference, "production evaluator diverged");
        let plan = crate::plan::QueryPlan::compile(q);
        let planned = plan.eval_with(d, &mut scratch);
        assert_eq!(planned, reference, "compiled plan diverged");
        reference
    }

    #[test]
    fn simple_path_matches() {
        let d = hotels_doc();
        let q = parse_query("/hotels/hotel/name").unwrap();
        let r = eval_all_modes(&q, &d);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn value_predicate_filters() {
        let d = hotels_doc();
        let q = parse_query("/hotels/hotel[rating=\"*****\"]/name").unwrap();
        let r = eval_all_modes(&q, &d);
        assert_eq!(r.len(), 1);
        let names = render_result(&d, &r);
        assert_eq!(names, vec![vec!["name".to_string()]]);
        assert_eq!(render_result_refs(&d, &r), vec![vec!["name"]]);
    }

    #[test]
    fn variables_bind_values() {
        let d = hotels_doc();
        let q = parse_query(
            "/hotels/hotel//restaurant[rating=\"*****\"][name=$X][address=$Y] -> $X,$Y",
        )
        .unwrap();
        let r = eval_all_modes(&q, &d);
        assert_eq!(r.len(), 2); // Jo/2nd Av and Lu/Penn St
        let mut rendered = render_result(&d, &r);
        rendered.sort();
        assert_eq!(
            rendered,
            vec![
                vec!["Jo".to_string(), "2nd Av".to_string()],
                vec!["Lu".to_string(), "Penn St".to_string()]
            ]
        );
    }

    #[test]
    fn descendant_edge_reaches_deep_nodes() {
        let d = parse("<a><b><c><d>x</d></c></b></a>").unwrap();
        let q = parse_query("/a//d").unwrap();
        assert!(matches(&q, &d));
        let q2 = parse_query("/a//q").unwrap();
        assert!(!matches(&q2, &d));
    }

    #[test]
    fn descendant_is_strict() {
        let d = parse("<a>x</a>").unwrap();
        let q = parse_query("/a//a").unwrap();
        assert!(!matches(&q, &d), "descendant must be strict");
        assert!(eval_all_modes(&q, &d).is_empty());
    }

    #[test]
    fn queries_do_not_match_function_nodes_as_data() {
        let d = hotels_doc();
        // getHotels call is a child of hotels but not a data node
        let q = parse_query("/hotels/*").unwrap();
        let r = eval_all_modes(&q, &d);
        // only the two hotel elements, not the call
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn function_pattern_nodes_match_calls() {
        let d = hotels_doc();
        let q = parse_query("/hotels/getHotels()").unwrap();
        let r = eval_all_modes(&q, &d);
        assert_eq!(r.len(), 1);
        let q2 = parse_query("/hotels/hotel/nearby/*()").unwrap();
        let r2 = eval_all_modes(&q2, &d);
        assert_eq!(r2.len(), 1);
        let bound = r2.bindings_of(q2.result_nodes()[0]);
        assert!(d.is_call(bound[0]));
    }

    #[test]
    fn descendant_does_not_look_inside_call_parameters() {
        let d = parse("<r><axml:call service=\"f\"><secret>x</secret></axml:call></r>").unwrap();
        let q = parse_query("/r//secret").unwrap();
        assert!(!matches(&q, &d), "call parameters are not document content");
        assert!(eval_all_modes(&q, &d).is_empty());
        // but the call node itself is visible to function tests
        let q2 = parse_query("/r//*()").unwrap();
        assert!(matches(&q2, &d));
        assert_eq!(eval_all_modes(&q2, &d).len(), 1);
    }

    #[test]
    fn join_variables_enforce_equality() {
        let d = parse("<r><a>1</a><b>1</b></r>").unwrap();
        let q = parse_query("/r[a=$V][b=$V]").unwrap();
        assert!(matches(&q, &d));
        let d2 = parse("<r><a>1</a><b>2</b></r>").unwrap();
        assert!(!matches(&q, &d2));
        assert!(eval_all_modes(&q, &d2).is_empty());
    }

    #[test]
    fn join_variables_across_tuples() {
        let d = parse("<r><a>1</a><a>2</a><b>2</b></r>").unwrap();
        let q = parse_query("/r[a=$V][b=$V] -> $V").unwrap();
        let r = eval_all_modes(&q, &d);
        // only the a=2, b=2 combination survives; both bindings of $V in the
        // tuple render as "2"
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn homomorphism_not_injective() {
        // both pattern children may map to the same doc node
        let d = parse("<r><a>1</a></r>").unwrap();
        let q = parse_query("/r[a][a=\"1\"]").unwrap();
        assert!(matches(&q, &d));
    }

    #[test]
    fn or_nodes_union_choices() {
        use crate::pattern::{EdgeKind, FunMatch, PLabel, Pattern};
        // /r/(a | f()) — matches docs with an <a> child OR a call child
        let mut p = Pattern::new();
        let r = p.set_root(PLabel::Const("r".into()));
        let a = p.add_child(r, EdgeKind::Child, PLabel::Const("a".into()));
        let or = p.wrap_in_or(a);
        p.add_child(or, EdgeKind::Child, PLabel::Fun(FunMatch::Any));
        let d1 = parse("<r><a/></r>").unwrap();
        let d2 = parse("<r><axml:call service=\"f\"/></r>").unwrap();
        let d3 = parse("<r><b/></r>").unwrap();
        assert!(matches(&p, &d1));
        assert!(matches(&p, &d2));
        assert!(!matches(&p, &d3));
    }

    #[test]
    fn snapshot_on_fig1_like_doc_is_empty_before_invocation() {
        // Before invoking getNearbyRestos, "Best Western" has only non-5star
        // restaurants... our hotels_doc already has Jo; craft the real case:
        let d = parse(
            "<hotels><hotel><name>BW</name><rating>*****</rating>\
             <nearby><axml:call service=\"getNearbyRestos\"/></nearby>\
             </hotel></hotels>",
        )
        .unwrap();
        let q = parse_query("/hotels/hotel[rating=\"*****\"]/nearby//restaurant[name=$X] -> $X")
            .unwrap();
        assert!(eval_all_modes(&q, &d).is_empty());
    }

    #[test]
    fn forest_roots_each_tried() {
        let d = parse("<a><x/></a><b><x/></b>").unwrap();
        let qa = parse_query("/a/x").unwrap();
        let qb = parse_query("/b/x").unwrap();
        assert!(matches(&qa, &d));
        assert!(matches(&qb, &d));
    }

    #[test]
    fn wildcard_root() {
        let d = parse("<anything><x/></anything>").unwrap();
        let q = parse_query("/*/x").unwrap();
        assert!(matches(&q, &d));
    }

    #[test]
    fn result_of_last_step_default() {
        let d = hotels_doc();
        let q = parse_query("/hotels/hotel/rating").unwrap();
        let r = eval_all_modes(&q, &d);
        // two distinct rating element nodes, one per hotel
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn scratch_reuse_does_not_leak_state() {
        let mut scratch = PlanScratch::default();
        let d1 = hotels_doc();
        let q1 = parse_query("/hotels/hotel/name").unwrap();
        let r1 = eval_with(&q1, &d1, &mut scratch);
        assert_eq!(r1.len(), 2);
        // a different document reusing NodeId/PNodeId coordinates: stale
        // memo entries would be visible here
        let d2 = parse("<hotels><hotel><name>X</name></hotel></hotels>").unwrap();
        let r2 = eval_with(&q1, &d2, &mut scratch);
        assert_eq!(r2.len(), 1);
        let q2 = parse_query("/hotels/hotel/rating").unwrap();
        let r3 = eval_with(&q2, &d2, &mut scratch);
        assert!(r3.is_empty());
    }

    #[test]
    fn root_anchored_descendant_uses_index_and_agrees() {
        // a root-context descendant step over a large bucket exercises the
        // index enumeration path (doc root, bucket > SMALL_BUCKET)
        let mut xml = String::from("<r>");
        for i in 0..40 {
            xml.push_str(&format!("<g><t>v{i}</t></g>"));
        }
        xml.push_str("<axml:call service=\"f\"><t>hidden</t></axml:call></r>");
        let d = parse(&xml).unwrap();
        let q = parse_query("//t").unwrap();
        let r = eval_all_modes(&q, &d);
        // the 40 visible <t> nodes; the call-parameter <t> is invisible
        assert_eq!(r.len(), 40);
    }
}
