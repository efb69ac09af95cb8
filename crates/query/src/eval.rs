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
//!   variables are checked by a boolean match; full enumeration happens
//!   only where bindings are observable. The boolean match answers by
//!   plain recursion and tables one thing only: whether some strict
//!   data-reachable descendant of a node matches a pattern node. That
//!   table keeps nested `//` conditions polynomial.
//! * One condition test, `Matcher::condition_holds`, decides a join-blind
//!   pattern edge for the boolean match, for the enumeration's condition
//!   children, and for the F-guide's residual filter. A [`Matcher`] holds
//!   the label tests and that table and nothing else; only the
//!   enumeration pays for the pattern's enumeration tables.
//! * The enumeration works on *rows*: fixed-width `u32` cells, one per
//!   result node in `PNodeId` order holding its image's raw node index,
//!   then one per join variable holding its bound symbol, `UNBOUND`
//!   where empty (and one unused cell for a pattern with neither, so that
//!   a row is never empty). Embedding a node extends its parent's row:
//!   the node binds its own cells in a copy, and each enumerated child
//!   extends those rows in turn; each level sorts its rows and drops
//!   repeats. Rows live in flat buffers that the evaluation pools and
//!   reuses from level to level, so it allocates a few dozen buffers in
//!   all, not one map per partial embedding.
//! * The enumeration reaches a (pattern node, image) pair more than once
//!   only when the node hangs by `//` under a node whose images can nest,
//!   one with a `//` edge on its root path. A fragment table keeps such
//!   nodes' result fragments for the evaluation, keyed by the image and
//!   by the inherited bindings of the join variables in the node's
//!   subtree; a fragment keeps only the subtree's own cells of each row,
//!   and a hit writes them over a copy of the caller's row. That keeps
//!   chains of `//` steps over repeated labels polynomial, joins or not;
//!   the pattern alone decides which nodes it serves, and an evaluation
//!   it serves none of never touches it.
//! * A [`SnapshotResult`] is one sorted array of distinct rows restricted
//!   to the result cells. In a pattern without OR nodes every result cell
//!   is bound, so the rows list the tuples in the order of a sorted set of
//!   [`ResultTuple`]s; patterns with OR nodes are only read as sets.
//! * Hot-path engineering: pattern step tests are compiled against a
//!   document's interned symbol table, so the per-node label test is a
//!   `u32` compare; join variables bind symbols, not owned strings;
//!   descendant steps can enumerate candidates from the document's
//!   label→node index instead of scanning subtrees. A
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

/// A table of answers over `(pattern node, document node)` pairs.
pub(crate) type Memo = HashMap<(PNodeId, NodeId), bool, FxBuildHasher>;

/// Fx-style multiply-rotate hasher for tables keyed by engine-internal
/// integers, such as the evaluator's descendant-existence table. No
/// input controls those keys, so SipHash's flood resistance buys nothing
/// and costs most of a lookup.
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

/// The empty cell of a row: a result node without an image (its OR branch
/// was not chosen) or a join variable not bound yet.
const UNBOUND: u32 = u32::MAX;

/// The snapshot result `q(d)`: the set of results of all embeddings, as
/// one array of rows sorted and distinct.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SnapshotResult {
    /// The result nodes reachable from the pattern's root, in `PNodeId`
    /// order, one cell per row each.
    columns: Vec<PNodeId>,
    /// `count` rows of `columns.len()` cells, back to back. A cell holds
    /// its image's raw node index, or `UNBOUND`.
    cells: Vec<u32>,
    /// The number of rows: a pattern without result nodes has rows of no
    /// cells, and at most one of them.
    count: usize,
}

impl SnapshotResult {
    /// Whether no embedding exists.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Number of distinct result tuples.
    pub fn len(&self) -> usize {
        self.count
    }

    /// The document nodes bound to a given pattern node across all tuples.
    pub fn bindings_of(&self, p: PNodeId) -> Vec<NodeId> {
        let Ok(col) = self.columns.binary_search(&p) else {
            return Vec::new();
        };
        let mut v: Vec<NodeId> = Vec::with_capacity(self.count);
        v.extend(
            self.cells
                .iter()
                .skip(col)
                .step_by(self.columns.len())
                .filter(|&&c| c != UNBOUND)
                .map(|&c| NodeId::from_index(c as usize)),
        );
        v.sort();
        v.dedup();
        v
    }

    /// Each row's bound cells as `(result node, image)` pairs, in row
    /// order, each row in `PNodeId` order. In a pattern without OR nodes
    /// every cell is bound, so the rows come in the order of the set
    /// [`SnapshotResult::tuples`] returns.
    pub fn rows(&self) -> impl Iterator<Item = impl Iterator<Item = (PNodeId, NodeId)> + '_> + '_ {
        let width = self.columns.len();
        (0..self.count).map(move |i| {
            self.columns
                .iter()
                .zip(&self.cells[i * width..(i + 1) * width])
                .filter(|&(_, &c)| c != UNBOUND)
                .map(|(&p, &c)| (p, NodeId::from_index(c as usize)))
        })
    }

    /// The distinct result tuples as a set.
    pub fn tuples(&self) -> BTreeSet<ResultTuple> {
        self.rows().map(Iterator::collect).collect()
    }
}

/// Renders a snapshot result as borrowed label texts (one row per tuple).
/// The zero-copy counterpart of [`render_result`].
pub fn render_result_refs<'d>(doc: &'d Document, r: &SnapshotResult) -> Vec<Vec<&'d str>> {
    let mut out = Vec::with_capacity(r.len());
    for row in r.rows() {
        let mut labels = Vec::with_capacity(r.columns.len());
        labels.extend(row.map(|(_, n)| doc.label(n)));
        out.push(labels);
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

/// [`eval`] with a reusable table allocation. Compiles the pattern's tests
/// transiently; callers that evaluate the same pattern repeatedly should
/// compile a [`crate::plan::QueryPlan`] once and use
/// [`crate::plan::QueryPlan::eval_with`] instead.
pub fn eval_with(pattern: &Pattern, doc: &Document, scratch: &mut PlanScratch) -> SnapshotResult {
    let ctest = compile_ctests(pattern, doc);
    eval_compiled(pattern, doc, ctest, &enum_tables(pattern), scratch)
}

/// The **executable spec**: the seed evaluator — string-compared labels,
/// no label→node index, fresh tables. The production evaluator (interned
/// tests, index-driven descendant steps, compiled plans) must produce
/// exactly this result; the differential plan-equivalence oracles and the
/// engine's debug cross-check diff against it.
pub fn seed_eval(pattern: &Pattern, doc: &Document) -> SnapshotResult {
    let mut m = Matcher::new(pattern, doc);
    m.spec = true;
    let tables = enum_tables(pattern);
    Evaluator::new(m, &tables).results()
}

/// The *full embeddings* of the pattern (every pattern node's image),
/// distinct and in sorted order. OR nodes map to nothing; their chosen
/// branch maps to their image. This is [`eval`] of a copy of the pattern
/// in which every non-OR node is a result node, so each result tuple is a
/// whole embedding. Exponential in the worst case — intended for
/// provider-side pruning of (small) service results, not for
/// document-scale evaluation.
pub fn embeddings(pattern: &Pattern, doc: &Document) -> Vec<ResultTuple> {
    let mut full = pattern.clone();
    for id in pattern.node_ids() {
        if !matches!(pattern.node(id).label, PLabel::Or) {
            full.mark_result(id);
        }
    }
    eval(&full, doc).tuples().into_iter().collect()
}

/// A join-blind structural matcher over one `(pattern, document)` pair,
/// exposing node-level match tests. Used by the F-guide's residual filter
/// (Section 6.2), which aligns candidate calls against an NFQ's path and
/// checks the side conditions per document node, and by the enumeration
/// for its label and condition tests.
///
/// It holds the pattern's label tests and tables one thing: descendant
/// existence. A question asked twice is answered twice: a `//` condition
/// asked at nested ancestors repeats the structural matches of the label
/// index's bucket path (at most once per ancestor), and a child condition
/// on an ancestor that several candidates share is checked again for each
/// of them.
pub struct Matcher<'a> {
    pat: &'a Pattern,
    doc: &'a Document,
    /// run as [`seed_eval`], the executable spec: string-compared labels
    /// and subtree scans instead of `ctest` and the label→node index
    spec: bool,
    /// per pattern node: label test compiled against `doc`'s symbol table
    ctest: Vec<CTest>,
    /// memoized "∃ strict data-reachable descendant matching p": it keeps
    /// nested `//` conditions polynomial
    desc_memo: Memo,
}

impl<'a> Matcher<'a> {
    /// Creates a matcher for `pattern` over `doc`.
    pub fn new(pattern: &'a Pattern, doc: &'a Document) -> Self {
        Matcher::compiled(pattern, doc, compile_ctests(pattern, doc), Memo::default())
    }

    fn compiled(pat: &'a Pattern, doc: &'a Document, ctest: Vec<CTest>, desc_memo: Memo) -> Self {
        Matcher {
            pat,
            doc,
            spec: false,
            ctest,
            desc_memo,
        }
    }

    /// Label-only test: does `p`'s own label accept `v`, ignoring `p`'s
    /// children? (OR nodes test their branches' labels.)
    pub fn label_matches(&mut self, p: PNodeId, v: NodeId) -> bool {
        let node = self.pat.node(p);
        if let PLabel::Or = node.label {
            return node.children.iter().any(|&b| self.label_matches(b, v));
        }
        self.local_ok(p, v)
    }

    /// The one condition test: does a child of `v` (if `c` hangs by a
    /// child edge) or a strict data-reachable descendant of `v` (a `//`
    /// edge) match `c`, join-blind?
    pub fn condition_holds(&mut self, c: PNodeId, v: NodeId) -> bool {
        match self.pat.node(c).edge {
            EdgeKind::Child => {
                let doc = self.doc;
                doc.children(v).iter().any(|&u| self.smatch(c, u))
            }
            EdgeKind::Descendant => self.desc_exists(c, v),
        }
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

    /// Join-blind structural match of `p` at `v`, by plain recursion: its
    /// label test, then each child's condition. No answer is tabled here:
    /// a table of them was written far more often than it was read, and
    /// every benchmark workload ran as fast or faster without it
    /// (DESIGN.md, "Evaluator performance", has the measurements).
    fn smatch(&mut self, p: PNodeId, v: NodeId) -> bool {
        let node = self.pat.node(p);
        if let PLabel::Or = node.label {
            return node.children.iter().any(|&b| self.smatch(b, v));
        }
        self.local_ok(p, v) && node.children.iter().all(|&pc| self.condition_holds(pc, v))
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

    /// Appends to `out` the candidate doc nodes for pattern child `pc`
    /// under image `v`, in **arbitrary** order (callers deduplicate the
    /// rows they give).
    fn candidates(&mut self, pc: PNodeId, v: NodeId, out: &mut Vec<NodeId>) {
        let doc = self.doc;
        match self.pat.node(pc).edge {
            EdgeKind::Child => {
                for &u in doc.children(v) {
                    if self.smatch(pc, u) {
                        out.push(u);
                    }
                }
            }
            EdgeKind::Descendant => {
                if let Some(bucket) = self.desc_bucket(pc, v) {
                    for &u in bucket {
                        if doc.reaches_through_data(v, u) && self.smatch(pc, u) {
                            out.push(u);
                        }
                    }
                } else {
                    self.collect_desc(pc, v, out);
                }
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
}

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

/// The per-node enumeration tables of a pattern and its row layout,
/// shared by transient compilation and [`crate::plan::QueryPlan`]. They
/// depend on the pattern alone.
#[derive(Clone, Debug)]
pub(crate) struct EnumTables {
    /// Does the node's subtree contain a result node or a join variable
    /// (requiring full enumeration)?
    needs_enum: Vec<bool>,
    /// The node's row cell, if it is a result node.
    result_col: Vec<Option<u32>>,
    /// The row cell of the node's join variable, if it is one.
    var_col: Vec<Option<u32>>,
    /// The result nodes reachable from the root, in `PNodeId` order: the
    /// first cells of a row, and the columns of the snapshot result.
    columns: Vec<PNodeId>,
    /// Cells per row: the result nodes, then the join variables; at
    /// least one, so that a pattern with neither still counts its rows.
    width: usize,
    /// For a node whose result fragments `embed` keeps in the fragment
    /// table, the cells its subtree binds. Empty when the table keeps no
    /// node's, so that an evaluation the table cannot serve never reads
    /// it.
    tabled: Vec<Option<Tabled>>,
}

/// The cells of a tabled node's subtree.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Tabled {
    /// The cells of the join variables in the subtree, ascending: their
    /// inherited symbols key the node's fragments beside its image.
    keys: Box<[u32]>,
    /// Every cell the subtree binds (its result nodes' and its join
    /// variables'), ascending: what a fragment keeps of each row.
    cells: Box<[u32]>,
}

/// Computes a pattern's [`EnumTables`].
pub(crate) fn enum_tables(pat: &Pattern) -> EnumTables {
    let join_vars = pat.join_variables();
    let mut needs_enum = vec![false; pat.len()];
    let mut result_col = vec![None; pat.len()];
    let mut var_col = vec![None; pat.len()];
    // pre-order: creation order does not put parents first, since
    // `Pattern::wrap_in_or` creates an OR node after its branch
    let mut order = Vec::with_capacity(pat.len());
    let mut stack: Vec<PNodeId> = (!pat.is_empty()).then(|| pat.root()).into_iter().collect();
    while let Some(id) = stack.pop() {
        order.push(id);
        stack.extend(&pat.node(id).children);
    }
    let mut columns: Vec<PNodeId> = order
        .iter()
        .copied()
        .filter(|&id| pat.node(id).is_result)
        .collect();
    columns.sort_unstable();
    for (col, &id) in columns.iter().enumerate() {
        result_col[id.index()] = Some(col as u32);
    }
    let results = columns.len() as u32;
    // bottom-up
    for &id in order.iter().rev() {
        let n = pat.node(id);
        let mut need = n.is_result;
        if let PLabel::Var(v) = &n.label {
            if let Ok(i) = join_vars.binary_search(v) {
                var_col[id.index()] = Some(results + i as u32);
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
    // Does `embed` table a node's fragments? Only for an enumerated `//`
    // child of a non-OR node whose images can nest: one with a `//` edge
    // on its root path. A fragment depends on the inherited bindings of
    // the join variables in the node's subtree, so those key it too.
    let descends =
        |id: PNodeId| pat.parent(id).is_some() && pat.node(id).edge == EdgeKind::Descendant;
    let nests = |id: PNodeId| std::iter::successors(Some(id), |&n| pat.parent(n)).any(descends);
    let mut tabled = Vec::new();
    for &id in &order {
        let Some(parent) = pat.parent(id) else {
            continue;
        };
        if descends(id)
            && needs_enum[id.index()]
            && !matches!(pat.node(parent).label, PLabel::Or)
            && nests(parent)
        {
            let (mut keys, mut cells) = (Vec::new(), Vec::new());
            let mut stack = vec![id];
            while let Some(n) = stack.pop() {
                keys.extend(var_col[n.index()]);
                cells.extend(result_col[n.index()]);
                stack.extend(&pat.node(n).children);
            }
            keys.sort_unstable();
            keys.dedup();
            cells.extend(&keys);
            cells.sort_unstable();
            tabled.resize(pat.len(), None);
            tabled[id.index()] = Some(Tabled {
                keys: keys.into_boxed_slice(),
                cells: cells.into_boxed_slice(),
            });
        }
    }
    EnumTables {
        needs_enum,
        result_col,
        var_col,
        width: (columns.len() + join_vars.len()).max(1),
        columns,
        tabled,
    }
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
    tables: &EnumTables,
    scratch: &mut PlanScratch,
) -> SnapshotResult {
    let m = Matcher::compiled(pat, doc, ctest, scratch.take_desc_memo());
    let mut ev = Evaluator::new(m, tables);
    let out = ev.results();
    scratch.put_back(ev.m.desc_memo);
    out
}

/// The fragment table of one evaluation: the rows of the nodes
/// `EnumTables::tabled` marks, per image and inherited bindings of the
/// subtree's join variables, each row cut down to the cells the subtree
/// binds. It keeps chains of `//` steps polynomial.
#[derive(Default)]
struct Fragments {
    /// The first cell of a key's fragments in `cells`, and their number.
    index: HashMap<FragmentKey, (usize, usize), FxBuildHasher>,
    /// Every fragment's cells, back to back.
    cells: Vec<u32>,
}

/// A fragment table key: the node, its image and the inherited symbol of
/// each join variable in its subtree (`UNBOUND` for none), in the order
/// of `Tabled::keys`. A subtree without join variables keys by an empty
/// slice, which allocates nothing.
type FragmentKey = (PNodeId, NodeId, Box<[u32]>);

/// Enumerates a pattern's embeddings as rows, with a [`Matcher`]'s tests,
/// for one evaluation.
struct Evaluator<'a> {
    m: Matcher<'a>,
    tables: &'a EnumTables,
    /// Free row buffers: each enumeration level takes two, and sorting a
    /// level whose rows come out of order two more, and gives them back.
    rows: Vec<Vec<u32>>,
    /// Free candidate buffers, one per enumeration level.
    candidates: Vec<Vec<NodeId>>,
    /// The fragment table of nested `//` steps.
    fragments: Fragments,
}

impl<'a> Evaluator<'a> {
    fn new(m: Matcher<'a>, tables: &'a EnumTables) -> Self {
        Evaluator {
            m,
            tables,
            rows: Vec::new(),
            candidates: Vec::new(),
            fragments: Fragments::default(),
        }
    }

    /// The snapshot result: every root's embeddings of the pattern,
    /// restricted to the result cells, sorted and distinct.
    fn results(&mut self) -> SnapshotResult {
        let (pat, doc, tables) = (self.m.pat, self.m.doc, self.tables);
        let mut rows = self.take_rows();
        if !pat.is_empty() {
            let mut empty = self.take_rows();
            empty.resize(tables.width, UNBOUND);
            for &root in doc.roots() {
                self.embed(pat.root(), root, &empty, &mut rows);
            }
            self.put_rows(empty);
        }
        let found = rows.len() / tables.width;
        let width = tables.columns.len();
        let mut results = self.take_rows();
        if width == tables.width {
            std::mem::swap(&mut results, &mut rows);
        } else {
            for row in rows.chunks_exact(tables.width) {
                results.extend_from_slice(&row[..width]);
            }
        }
        let count = if width == 0 {
            found.min(1)
        } else {
            self.sort_rows(&mut results, 0, width);
            results.len() / width
        };
        let out = SnapshotResult {
            columns: tables.columns.clone(),
            cells: results.as_slice().to_vec(),
            count,
        };
        self.put_rows(rows);
        self.put_rows(results);
        out
    }

    /// Appends to `out` every distinct row that extends `row` with an
    /// embedding of `p`'s subtree at `v`.
    fn embed(&mut self, p: PNodeId, v: NodeId, row: &[u32], out: &mut Vec<u32>) {
        let (pat, tables) = (self.m.pat, self.tables);
        // Fast path: nothing observable below — boolean check suffices.
        if !tables.needs_enum[p.index()] {
            if self.m.smatch(p, v) {
                out.extend_from_slice(row);
            }
            return;
        }
        let node = pat.node(p);
        if let PLabel::Or = node.label {
            let start = out.len();
            for &b in &node.children {
                self.embed(b, v, row, out);
            }
            self.sort_rows(out, start, tables.width);
            return;
        }
        if !self.m.local_ok(p, v) {
            return;
        }
        let mut bind = None;
        if let Some(col) = tables.var_col[p.index()] {
            let sym = self.m.doc.sym(v);
            match row[col as usize] {
                UNBOUND => bind = Some((col, sym)),
                bound if bound != sym => return,
                _ => {}
            }
        }
        // a child with no result node and no join variable below it adds
        // nothing to a row and depends on none, so one condition test
        // decides it for all of them
        if !node
            .children
            .iter()
            .all(|&pc| tables.needs_enum[pc.index()] || self.m.condition_holds(pc, v))
        {
            return;
        }
        let start = out.len();
        out.extend_from_slice(row);
        if let Some((col, sym)) = bind {
            out[start + col as usize] = sym;
        }
        if let Some(col) = tables.result_col[p.index()] {
            out[start + col as usize] = v.index() as u32;
        }
        let mut enumerated = node
            .children
            .iter()
            .copied()
            .filter(|&pc| tables.needs_enum[pc.index()])
            .peekable();
        if enumerated.peek().is_none() {
            return;
        }
        let mut combos = self.take_rows();
        combos.extend_from_slice(&out[start..]);
        out.truncate(start);
        let mut next = self.take_rows();
        let mut candidates = self.candidates.pop().unwrap_or_default();
        for pc in enumerated {
            candidates.clear();
            self.m.candidates(pc, v, &mut candidates);
            let tabled = matches!(tables.tabled.get(pc.index()), Some(Some(_)));
            for combo in combos.chunks_exact(tables.width) {
                for &u in &candidates {
                    if tabled {
                        self.embed_tabled(pc, u, combo, &mut next);
                    } else {
                        self.embed(pc, u, combo, &mut next);
                    }
                }
            }
            self.sort_rows(&mut next, 0, tables.width);
            std::mem::swap(&mut combos, &mut next);
            next.clear();
            if combos.is_empty() {
                break;
            }
        }
        out.extend_from_slice(&combos);
        self.put_rows(combos);
        self.put_rows(next);
        candidates.clear();
        self.candidates.push(candidates);
    }

    /// [`Evaluator::embed`] of a node `tables.tabled` marks, through the
    /// fragment table. The subtree of `p` reads and binds only its own
    /// join variables and result cells, so its rows depend on `(p, v)` and
    /// on what `row` binds those variables to; the table keeps each row's
    /// subtree cells, and a hit writes them over a copy of `row`.
    fn embed_tabled(&mut self, p: PNodeId, v: NodeId, row: &[u32], out: &mut Vec<u32>) {
        let tables = self.tables;
        let tabled = tables.tabled[p.index()].as_ref().expect("a tabled node");
        let key = (p, v, tabled.keys.iter().map(|&c| row[c as usize]).collect());
        let frags = &self.fragments;
        let cells = tabled.cells.len();
        if let Some(&(first, n)) = frags.index.get(&key) {
            for frag in frags.cells[first..first + n * cells].chunks_exact(cells) {
                let at = out.len();
                out.extend_from_slice(row);
                for (&c, &cell) in tabled.cells.iter().zip(frag) {
                    out[at + c as usize] = cell;
                }
            }
            return;
        }
        let start = out.len();
        self.embed(p, v, row, out);
        let frags = &mut self.fragments;
        let first = frags.cells.len();
        for added in out[start..].chunks_exact(tables.width) {
            frags
                .cells
                .extend(tabled.cells.iter().map(|&c| added[c as usize]));
        }
        let n = (out.len() - start) / tables.width;
        frags.index.insert(key, (first, n));
    }

    /// Sorts the `width`-cell rows of `rows[start..]` and drops repeats.
    /// Rows that already come strictly ascending, as nearly every level's
    /// do in the benchmark queries' final evaluations, are only checked
    /// (DESIGN.md, "Evaluator performance", has the counts).
    fn sort_rows(&mut self, rows: &mut Vec<u32>, start: usize, width: usize) {
        let tail = &rows[start..];
        let mut pairs = tail
            .chunks_exact(width)
            .zip(tail.chunks_exact(width).skip(1));
        if pairs.all(|(a, b)| a < b) {
            return;
        }
        let mut order = self.take_rows();
        order.extend(0..(tail.len() / width) as u32);
        let row = |i: u32| &tail[i as usize * width..][..width];
        order.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
        order.dedup_by(|a, b| row(*a) == row(*b));
        let mut sorted = self.take_rows();
        for &i in &order {
            sorted.extend_from_slice(row(i));
        }
        rows.truncate(start);
        rows.extend_from_slice(&sorted);
        self.put_rows(order);
        self.put_rows(sorted);
    }

    fn take_rows(&mut self) -> Vec<u32> {
        self.rows.pop().unwrap_or_default()
    }

    fn put_rows(&mut self, mut rows: Vec<u32>) {
        rows.clear();
        self.rows.push(rows);
    }
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

    /// Whether `q` has an embedding in `d`, in every mode.
    fn has_embedding(q: &Pattern, d: &Document) -> bool {
        !eval_all_modes(q, d).is_empty()
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
        assert!(has_embedding(&q, &d));
        let q2 = parse_query("/a//q").unwrap();
        assert!(!has_embedding(&q2, &d));
    }

    #[test]
    fn descendant_is_strict() {
        let d = parse("<a>x</a>").unwrap();
        let q = parse_query("/a//a").unwrap();
        assert!(!has_embedding(&q, &d), "descendant must be strict");
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
        assert!(
            !has_embedding(&q, &d),
            "call parameters are not document content"
        );
        assert!(eval_all_modes(&q, &d).is_empty());
        // but the call node itself is visible to function tests
        let q2 = parse_query("/r//*()").unwrap();
        assert!(has_embedding(&q2, &d));
        assert_eq!(eval_all_modes(&q2, &d).len(), 1);
    }

    #[test]
    fn join_variables_enforce_equality() {
        let d = parse("<r><a>1</a><b>1</b></r>").unwrap();
        let q = parse_query("/r[a=$V][b=$V]").unwrap();
        assert!(has_embedding(&q, &d));
        let d2 = parse("<r><a>1</a><b>2</b></r>").unwrap();
        assert!(!has_embedding(&q, &d2));
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
        assert!(has_embedding(&q, &d));
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
        assert!(has_embedding(&p, &d1));
        assert!(has_embedding(&p, &d2));
        assert!(!has_embedding(&p, &d3));
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
        assert!(has_embedding(&qa, &d));
        assert!(has_embedding(&qb, &d));
    }

    #[test]
    fn wildcard_root() {
        let d = parse("<anything><x/></anything>").unwrap();
        let q = parse_query("/*/x").unwrap();
        assert!(has_embedding(&q, &d));
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

    /// Evaluates `/a`, then 20 `//a` steps, then `//b`, in every mode, on
    /// a 40-deep `<a>` chain with `<b>` at the bottom: every placement of
    /// the `//a` steps embeds, so an enumeration that recomputes a step's
    /// fragments for each placement of the steps above it does
    /// exponential work. With `join`, every `<a>` and the `<b>` hold
    /// `<x>1</x>`, and the first and last steps join on it: `/a[x=$V]`
    /// and `//b[x=$V] -> $V`. The evaluation runs on its own thread, so
    /// that a regression fails instead of hanging; returns the number of
    /// results.
    fn deep_chain_results(join: bool) -> usize {
        use std::sync::mpsc;
        use std::time::Duration;
        let (done, wait) = mpsc::channel();
        let eval = std::thread::spawn(move || {
            let mut d = Document::with_root("a");
            let mut a = d.root();
            for level in 0..40 {
                if join {
                    let x = d.add_element(a, "x");
                    d.add_text(x, "1");
                }
                a = if level < 39 {
                    d.add_element(a, "a")
                } else {
                    d.add_element(a, "b")
                };
            }
            if join {
                let x = d.add_element(a, "x");
                d.add_text(x, "1");
            }
            let k = 20;
            let q = if join {
                format!("/a[x=$V]{}//b[x=$V] -> $V", "//a".repeat(k))
            } else {
                format!("/a{}//b", "//a".repeat(k))
            };
            let q = parse_query(&q).unwrap();
            let _ = done.send(eval_all_modes(&q, &d).len());
        });
        let found = wait
            .recv_timeout(Duration::from_secs(60))
            .expect("the evaluation finishes within a minute");
        eval.join().unwrap();
        found
    }

    #[test]
    fn deep_chain_enumeration_stays_polynomial() {
        assert_eq!(
            deep_chain_results(false),
            1,
            "one `<b>`, whatever the placement"
        );
    }

    #[test]
    fn deep_chain_enumeration_with_a_join_stays_polynomial() {
        assert_eq!(deep_chain_results(true), 1, "one `<x>` value joins");
    }

    #[test]
    fn fragment_table_serves_nested_descendant_steps() {
        let tabled = |q: &str| enum_tables(&parse_query(q).unwrap()).tabled;
        // no node's images nest above a `//` step: nothing is tabled
        assert!(tabled("/hotels/hotel/nearby//restaurant[name=$X] -> $X").is_empty());
        assert!(tabled("//restaurant[rating=\"*****\"]/name/$N -> $N").is_empty());
        // a `//` step under a `//` step is, keyed by its image alone; its
        // fragments keep its own result cell
        let q = parse_query("/a//a//b").unwrap();
        let t = enum_tables(&q).tabled;
        let b = q.result_nodes()[0];
        let expected = Tabled {
            keys: Box::new([]),
            cells: Box::new([0]),
        };
        assert_eq!(t[b.index()].as_ref(), Some(&expected));
        assert_eq!(t.iter().flatten().count(), 1);
        // with join variables in its subtree, by their inherited bindings
        // too: the result cells (every `$V`), then `$V` and `$W`
        let q = parse_query("/a[z=$W]//a[x=$V]//b[y=$V][z=$W] -> $V").unwrap();
        let tables = enum_tables(&q);
        assert_eq!(tables.columns, q.result_nodes());
        assert_eq!(tables.columns.len(), 2);
        assert_eq!(tables.width, 4);
        let b = q
            .node_ids()
            .find(|&id| matches!(&q.node(id).label, PLabel::Const(l) if l.as_str() == "b"))
            .unwrap();
        let tabled = tables.tabled[b.index()].as_ref().unwrap();
        assert_eq!(&*tabled.keys, &[2, 3]);
        assert_eq!(tables.tabled.iter().flatten().count(), 1);
    }

    /// The rows of a pattern without result nodes have no result cells:
    /// any number of embeddings give one empty tuple, none give none,
    /// with or without a join variable.
    #[test]
    fn a_pattern_without_result_nodes_yields_at_most_one_empty_tuple() {
        let mut plain = Pattern::new();
        let r = plain.set_root(PLabel::Const("r".into()));
        plain.add_child(r, EdgeKind::Descendant, PLabel::Const("a".into()));
        let mut join = Pattern::new();
        let r = join.set_root(PLabel::Const("r".into()));
        let a = join.add_child(r, EdgeKind::Child, PLabel::Const("a".into()));
        join.add_child(a, EdgeKind::Child, PLabel::Var("V".into()));
        let b = join.add_child(r, EdgeKind::Child, PLabel::Const("b".into()));
        join.add_child(b, EdgeKind::Child, PLabel::Var("V".into()));
        for (q, xml, rows) in [
            (&plain, "<r><a/><x><a/></x></r><r><a/></r>", 1),
            (&plain, "<r><x/></r><q><a/></q>", 0),
            (&join, "<r><a>1</a><a>2</a><b>2</b><b>1</b></r>", 1),
            (&join, "<r><a>1</a><b>2</b></r>", 0),
        ] {
            let d = parse(xml).unwrap();
            let r = eval_all_modes(q, &d);
            assert_eq!(r.len(), rows, "{xml}");
            let expected: BTreeSet<ResultTuple> = (0..rows).map(|_| ResultTuple::new()).collect();
            assert_eq!(r.tuples(), expected, "{xml}");
            assert_eq!(render_result(&d, &r), vec![Vec::<String>::new(); rows]);
        }
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
