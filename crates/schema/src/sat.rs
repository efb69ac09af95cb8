//! Function-satisfiability analysis (Section 5 and Section 6.1).
//!
//! A function `f` *satisfies* a query subtree `q` when some **derived
//! instance** of `f`'s output type embeds `q` — derived instances expand
//! nested calls recursively (Definition 6). Two checkers are provided:
//!
//! * [`SatMode::Exact`] — respects cardinality/co-occurrence constraints of
//!   the content models via a *coverage-set* fixpoint: for every element
//!   label and pattern node we compute which subsets of the pattern's child
//!   constraints a derived word of the content model can cover
//!   simultaneously. Exponential in the (tiny) query size only, matching
//!   the paper's complexity discussion (NP-hardness in the query, PTIME in
//!   the data).
//! * [`SatMode::Lenient`] — the paper's implementation choice (§6.1): a
//!   *graph schema* that ignores cardinality and order, so satisfiability
//!   is a graph embedding, checkable in polynomial time. It may qualify
//!   more functions than the exact test (never fewer), which is safe.
//!
//! Variables in patterns are treated as wildcards here: data values are
//! unconstrained by schemas, so any value-join inside the subtree is
//! satisfiable by choosing equal values. This keeps both tests sound
//! (they never rule out a satisfiable function).

use crate::regex::LabelRe;
use crate::schema::{ClosureSet, Schema};
use axml_query::{EdgeKind, PLabel, PNodeId, Pattern};
use axml_xml::Label;
use std::collections::{BTreeSet, HashMap};

/// Which satisfiability algorithm to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SatMode {
    /// Coverage-set fixpoint, respects content-model co-occurrence.
    Exact,
    /// Graph-schema embedding (§6.1), ignores cardinality and order.
    Lenient,
}

/// A node of the (implicit) graph schema.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum GSym {
    /// An element with this name.
    Elem(Label),
    /// A data value.
    Data,
    /// An *unexpanded* call to this function (a leaf for queries).
    Fun(Label),
    /// A completely unconstrained derived tree (`any`-typed positions).
    AnyTree,
}

/// Satisfiability checker for one `(schema, query)` pair.
///
/// A node's verdict depends on its own subtree alone, so one checker per
/// query answers every node of it ([`Satisfier::function_satisfies_at`])
/// for every candidate function — Section 5's refined NFQs need one exact
/// fixpoint per query, not one per `(function, node)` verdict. The exact
/// fixpoint runs on the first exact verdict; lenient verdicts are
/// memoized per graph symbol and pattern node.
pub struct Satisfier<'s, 'p> {
    schema: &'s Schema,
    pattern: &'p Pattern,
    mode: SatMode,
    /// lenient memo: can a derived tree rooted at `sym` embed `p` at root?
    lenient_memo: HashMap<(GSym, PNodeId), bool>,
    /// one-level expansion closure per element label
    closure_memo: HashMap<Label, ClosureSet>,
    /// strict-descendant reachability per element label
    reach_memo: HashMap<Label, ReachSet>,
    /// exact tables (computed on the first exact verdict)
    exact: Option<ExactTables>,
}

#[derive(Clone, Debug, Default)]
struct ReachSet {
    elements: BTreeSet<Label>,
    functions: BTreeSet<Label>,
    data: bool,
    any: bool,
}

impl<'s, 'p> Satisfier<'s, 'p> {
    /// Creates a checker for the given query.
    pub fn new(schema: &'s Schema, pattern: &'p Pattern, mode: SatMode) -> Self {
        Satisfier {
            schema,
            pattern,
            mode,
            lenient_memo: HashMap::new(),
            closure_memo: HashMap::new(),
            reach_memo: HashMap::new(),
            exact: None,
        }
    }

    /// Does `fname` satisfy the subtree rooted at pattern node `u`,
    /// reached via the given edge kind?
    ///
    /// With a child edge `u` must embed at a root of the result forest;
    /// with a descendant edge it may embed anywhere inside it. Undeclared
    /// functions are treated as `any*`-typed (never pruned). The answer
    /// equals [`function_satisfies`] on `pattern.subtree(u)`.
    pub fn function_satisfies_at(&mut self, fname: &str, u: PNodeId, via: EdgeKind) -> bool {
        if self.mode == SatMode::Exact {
            if self.exact.is_none() {
                self.exact = Some(self.build_exact());
            }
            let exact = self.exact.as_ref().expect("exact tables were just built");
            return exact.satisfies(fname, u, via);
        }
        let schema = self.schema;
        let Some(sig) = schema.function(fname) else {
            return true;
        };
        let closure = schema.expansion_closure(&sig.output);
        if closure.any {
            return true;
        }
        let syms = closure_syms(&closure);
        match via {
            EdgeKind::Child => syms.into_iter().any(|s| self.lenient_can_root(s, u)),
            EdgeKind::Descendant => syms.into_iter().any(|s| self.lenient_can_within(s, u)),
        }
    }

    // ---------- shared closure / reachability helpers ----------

    fn closure_of_element(&mut self, name: &Label) -> ClosureSet {
        if let Some(c) = self.closure_memo.get(name) {
            return c.clone();
        }
        let c = element_closure(self.schema, name);
        self.closure_memo.insert(name.clone(), c.clone());
        c
    }

    /// Everything strictly below an `a`-element in some derived instance.
    fn reach_of_element(&mut self, name: &Label) -> ReachSet {
        if let Some(r) = self.reach_memo.get(name) {
            return r.clone();
        }
        // iterative worklist over element labels
        let mut reach = ReachSet::default();
        let mut seen_elems: BTreeSet<Label> = BTreeSet::new();
        let mut work = vec![name.clone()];
        while let Some(a) = work.pop() {
            let c = self.closure_of_element(&a);
            reach.data |= c.data;
            reach.any |= c.any;
            for f in &c.functions {
                reach.functions.insert(f.clone());
            }
            for e in &c.elements {
                reach.elements.insert(e.clone());
                if seen_elems.insert(e.clone()) {
                    work.push(e.clone());
                }
            }
        }
        self.reach_memo.insert(name.clone(), reach.clone());
        reach
    }

    // ---------- lenient (graph schema, §6.1) ----------

    fn lenient_can_root(&mut self, sym: GSym, p: PNodeId) -> bool {
        if let Some(&b) = self.lenient_memo.get(&(sym.clone(), p)) {
            return b;
        }
        let r = self.lenient_can_root_uncached(&sym, p);
        self.lenient_memo.insert((sym, p), r);
        r
    }

    fn lenient_can_root_uncached(&mut self, sym: &GSym, p: PNodeId) -> bool {
        let node = self.pattern.node(p);
        if let PLabel::Or = node.label {
            let branches = node.children.clone();
            return branches
                .into_iter()
                .any(|b| self.lenient_can_root(sym.clone(), b));
        }
        match sym {
            GSym::AnyTree => true,
            GSym::Data => data_label_ok(&node.label) && node.children.is_empty(),
            GSym::Fun(g) => fun_label_ok(&node.label, g) && node.children.is_empty(),
            GSym::Elem(a) => {
                if !elem_label_ok(&node.label, a) {
                    return false;
                }
                let children = node.children.clone();
                let closure = self.closure_of_element(a);
                for pc in children {
                    let ok = match self.pattern.node(pc).edge {
                        EdgeKind::Child => {
                            closure.any
                                || closure_syms(&closure)
                                    .into_iter()
                                    .any(|s| self.lenient_can_root(s, pc))
                        }
                        EdgeKind::Descendant => self.lenient_desc_ok(a, pc),
                    };
                    if !ok {
                        return false;
                    }
                }
                true
            }
        }
    }

    fn lenient_desc_ok(&mut self, a: &Label, pc: PNodeId) -> bool {
        let reach = self.reach_of_element(a);
        if reach.any {
            return true;
        }
        let mut syms: Vec<GSym> = Vec::new();
        syms.extend(reach.elements.iter().cloned().map(GSym::Elem));
        syms.extend(reach.functions.iter().cloned().map(GSym::Fun));
        if reach.data {
            syms.push(GSym::Data);
        }
        syms.into_iter().any(|s| self.lenient_can_root(s, pc))
    }

    fn lenient_can_within(&mut self, sym: GSym, p: PNodeId) -> bool {
        match &sym {
            GSym::AnyTree => true,
            GSym::Data | GSym::Fun(_) => self.lenient_can_root(sym, p),
            GSym::Elem(a) => {
                let a = a.clone();
                self.lenient_can_root(sym, p) || self.lenient_desc_ok(&a, p)
            }
        }
    }

    // ---------- exact (coverage-set fixpoint) ----------

    /// The least fixpoint of `can_root` and `can_within` over every
    /// pattern node, one stratum at a time: `can_root(s, p)` reads only the
    /// tables of `p`'s children and `can_within(s, p)` only `can_root(·, p)`
    /// and `can_within(·, p)`, so a post-order visit computes each node
    /// once, from final child rows. Every node id is covered, detached
    /// subtrees included.
    fn build_exact(&mut self) -> ExactTables {
        let syms = Symbols::new(self.schema);
        let pattern = self.pattern;
        let n = syms.syms.len();
        let mut can_root = vec![false; pattern.len() * n];
        let mut can_within = vec![false; pattern.len() * n];
        for p in post_order(pattern) {
            let node = pattern.node(p);
            let row = p.index() * n;
            if let PLabel::Or = node.label {
                for s in 0..n {
                    can_root[row + s] = node.children.iter().any(|&b| can_root[b.index() * n + s]);
                }
            } else if node.children.len() > MASK_BITS {
                // too many child constraints for a coverage mask: take the
                // lenient verdict, which never rules out more (§6.1)
                for s in 0..n {
                    can_root[row + s] = self.lenient_can_root(syms.syms[s].clone(), p);
                }
            } else {
                let masks = child_masks(pattern, p, n, &can_root, &can_within);
                let mut coverage = Coverage::new(&syms, &masks, node.children.len());
                for (s, sym) in syms.syms.iter().enumerate() {
                    can_root[row + s] = match sym {
                        GSym::AnyTree => true,
                        GSym::Data => data_label_ok(&node.label) && node.children.is_empty(),
                        GSym::Fun(g) => fun_label_ok(&node.label, g) && node.children.is_empty(),
                        GSym::Elem(a) => elem_label_ok(&node.label, a) && coverage.covers(s),
                    };
                }
            }
            // can_within(s, p): s reaches, through element closures, a
            // symbol that embeds p at its root, or an `any` position
            let within = &mut can_within[row..row + n];
            let mut work: Vec<usize> = Vec::new();
            for s in 0..n {
                if can_root[row + s] || syms.within_seed[s] {
                    within[s] = true;
                    work.push(s);
                }
            }
            while let Some(t) = work.pop() {
                for &s in &syms.closure_pred[t] {
                    if !within[s] {
                        within[s] = true;
                        work.push(s);
                    }
                }
            }
        }
        ExactTables {
            width: n,
            outputs: syms.outputs,
            can_root,
            can_within,
        }
    }
}

/// The widest node a `u32` coverage mask can describe.
const MASK_BITS: usize = u32::BITS as usize;

/// The exact verdict tables, dense over (pattern node, symbol).
struct ExactTables {
    /// symbols per node row
    width: usize,
    /// per declared function: its output closure's symbols, or `None`
    /// when the closure reaches an `any` position
    outputs: HashMap<Label, Option<Vec<usize>>>,
    can_root: Vec<bool>,
    can_within: Vec<bool>,
}

impl ExactTables {
    fn satisfies(&self, fname: &str, u: PNodeId, via: EdgeKind) -> bool {
        let Some(Some(syms)) = self.outputs.get(fname) else {
            // undeclared, or able to produce anything
            return true;
        };
        let table = match via {
            EdgeKind::Child => &self.can_root,
            EdgeKind::Descendant => &self.can_within,
        };
        let row = u.index() * self.width;
        syms.iter().any(|&s| table[row + s])
    }
}

/// The graph symbols of a schema as dense indices — every name the
/// schema references, plus data and `any` — with what the exact fixpoint
/// reads of the schema compiled against them. Pattern constants outside
/// the schema need no symbol: no function's output closure reaches one.
struct Symbols {
    syms: Vec<GSym>,
    /// per element symbol: its content model (undeclared: `any*`) and
    /// whether that language has a word
    content: Vec<Option<(CovRe, bool)>>,
    /// declared functions' output types, by function slot
    functions: Vec<CovRe>,
    /// per symbol: the element symbols whose one-level closure holds it
    closure_pred: Vec<Vec<usize>>,
    /// symbols that embed every pattern somewhere inside: `any` trees and
    /// elements whose closure reaches an `any` position
    within_seed: Vec<bool>,
    outputs: HashMap<Label, Option<Vec<usize>>>,
}

impl Symbols {
    fn new(schema: &Schema) -> Symbols {
        let mut syms: Vec<GSym> = schema
            .referenced_names()
            .into_iter()
            .map(|l| {
                if schema.is_function(l.as_str()) {
                    GSym::Fun(l)
                } else {
                    GSym::Elem(l)
                }
            })
            .collect();
        let index: HashMap<Label, usize> = syms
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s {
                GSym::Elem(l) | GSym::Fun(l) => Some((l.clone(), i)),
                _ => None,
            })
            .collect();
        let data = syms.len();
        let any = data + 1;
        syms.push(GSym::Data);
        syms.push(GSym::AnyTree);
        let slots: HashMap<&str, usize> = schema
            .functions()
            .enumerate()
            .map(|(slot, sig)| (sig.name.as_str(), slot))
            .collect();
        let ctx = Compile {
            index: &index,
            slots: &slots,
            data,
            any,
        };
        // the symbol indices of a closure without `any`
        let closure_indices = |c: &ClosureSet| -> Vec<usize> {
            let mut out: Vec<usize> = c
                .elements
                .iter()
                .chain(&c.functions)
                .map(|l| index[l])
                .collect();
            if c.data {
                out.push(data);
            }
            out
        };
        let n = syms.len();
        let mut content = Vec::with_capacity(n);
        let mut closure_pred = vec![Vec::new(); n];
        let mut within_seed = vec![false; n];
        within_seed[any] = true;
        for (s, sym) in syms.iter().enumerate() {
            let GSym::Elem(a) = sym else {
                content.push(None);
                continue;
            };
            let re = schema
                .element(a.as_str())
                .cloned()
                .unwrap_or_else(LabelRe::any_forest);
            content.push(Some((ctx.compile(&re), !re.language_empty())));
            let closure = element_closure(schema, a);
            if closure.any {
                within_seed[s] = true;
            } else {
                for t in closure_indices(&closure) {
                    closure_pred[t].push(s);
                }
            }
        }
        let functions = schema
            .functions()
            .map(|sig| ctx.compile(&sig.output))
            .collect();
        let outputs = schema
            .functions()
            .map(|sig| {
                let closure = schema.expansion_closure(&sig.output);
                let syms = (!closure.any).then(|| closure_indices(&closure));
                (sig.name.clone(), syms)
            })
            .collect();
        Symbols {
            syms,
            content,
            functions,
            closure_pred,
            within_seed,
            outputs,
        }
    }
}

/// Label-to-index maps for compiling content models.
struct Compile<'a> {
    index: &'a HashMap<Label, usize>,
    slots: &'a HashMap<&'a str, usize>,
    data: usize,
    any: usize,
}

impl Compile<'_> {
    fn compile(&self, re: &LabelRe) -> CovRe {
        let all = |ps: &[LabelRe]| ps.iter().map(|p| self.compile(p)).collect();
        match re {
            LabelRe::Empty => CovRe::Empty,
            LabelRe::Epsilon => CovRe::Epsilon,
            LabelRe::Data => CovRe::Sym(self.data, None),
            // an `any` position can be any single derived tree, and each
            // constraint is satisfiable by an arbitrary tree
            LabelRe::Any => CovRe::Sym(self.any, None),
            LabelRe::Sym(l) => CovRe::Sym(self.index[l], self.slots.get(l.as_str()).copied()),
            LabelRe::Seq(ps) => CovRe::Seq(all(ps)),
            LabelRe::Alt(ps) => CovRe::Alt(all(ps)),
            LabelRe::Star(p) => CovRe::Repeat(Box::new(self.compile(p)), true),
            LabelRe::Plus(p) => CovRe::Repeat(Box::new(self.compile(p)), false),
            LabelRe::Opt(p) => CovRe::Opt(Box::new(self.compile(p))),
        }
    }
}

/// A content model over symbol indices.
enum CovRe {
    Empty,
    Epsilon,
    /// One child: its symbol, and for a function its slot (a call may
    /// stay, or expand into a derived word of its output type).
    Sym(usize, Option<usize>),
    Seq(Vec<CovRe>),
    Alt(Vec<CovRe>),
    /// `p*` (ε allowed) or `p+`.
    Repeat(Box<CovRe>, bool),
    Opt(Box<CovRe>),
}

/// Achievable coverage masks at one pattern node: which subsets of the
/// node's child constraints a derived word can cover simultaneously.
struct Coverage<'a> {
    syms: &'a Symbols,
    /// per symbol: the child constraints it satisfies
    masks: &'a [u32],
    full: u32,
    /// per function slot: the masks of its derived output words,
    /// computed on first need
    derived: Option<Vec<BTreeSet<u32>>>,
}

impl<'a> Coverage<'a> {
    fn new(syms: &'a Symbols, masks: &'a [u32], children: usize) -> Self {
        Coverage {
            syms,
            masks,
            full: if children == 0 {
                0
            } else {
                u32::MAX >> (MASK_BITS - children)
            },
            derived: None,
        }
    }

    /// Can the element symbol `s`'s content cover every child constraint?
    fn covers(&mut self, s: usize) -> bool {
        let (content, nonempty) = self.syms.content[s].as_ref().expect("an element symbol");
        if self.full == 0 {
            return *nonempty;
        }
        let derived = self.derived.get_or_insert_with(|| {
            // the function fixpoint: a call's derived words are its output
            // type's, with nested calls expanded in turn
            let mut der = vec![BTreeSet::new(); self.syms.functions.len()];
            loop {
                let mut changed = false;
                for (slot, out) in self.syms.functions.iter().enumerate() {
                    let new = cov(out, self.masks, &der);
                    let before = der[slot].len();
                    der[slot].extend(new);
                    changed |= der[slot].len() != before;
                }
                if !changed {
                    return der;
                }
            }
        });
        cov(content, self.masks, derived).contains(&self.full)
    }
}

/// Per symbol, the child constraints of `p` it satisfies: bit `j` for a
/// child-edge child `j` it embeds at its root, or a descendant-edge child
/// it embeds anywhere inside.
fn child_masks(
    pattern: &Pattern,
    p: PNodeId,
    n: usize,
    can_root: &[bool],
    can_within: &[bool],
) -> Vec<u32> {
    let mut masks = vec![0u32; n];
    for (j, &c) in pattern.node(p).children.iter().enumerate() {
        let table = match pattern.node(c).edge {
            EdgeKind::Child => can_root,
            EdgeKind::Descendant => can_within,
        };
        let row = &table[c.index() * n..(c.index() + 1) * n];
        for (m, &ok) in masks.iter_mut().zip(row) {
            if ok {
                *m |= 1 << j;
            }
        }
    }
    masks
}

/// The masks the words of `re` achieve, with each function symbol either
/// kept (its own mask) or expanded (`der`, the masks of its derived words).
fn cov(re: &CovRe, masks: &[u32], der: &[BTreeSet<u32>]) -> BTreeSet<u32> {
    match re {
        CovRe::Empty => BTreeSet::new(),
        CovRe::Epsilon => [0u32].into_iter().collect(),
        CovRe::Sym(s, slot) => {
            let mut out: BTreeSet<u32> = [masks[*s]].into_iter().collect();
            if let Some(slot) = slot {
                out.extend(der[*slot].iter().copied());
            }
            out
        }
        CovRe::Seq(ps) => {
            let mut acc: BTreeSet<u32> = [0u32].into_iter().collect();
            for p in ps {
                let cov = cov(p, masks, der);
                if cov.is_empty() {
                    return BTreeSet::new();
                }
                let mut next = BTreeSet::new();
                for &a in &acc {
                    for &b in &cov {
                        next.insert(a | b);
                    }
                }
                acc = next;
            }
            acc
        }
        CovRe::Alt(ps) => ps.iter().flat_map(|p| cov(p, masks, der)).collect(),
        CovRe::Repeat(p, with_empty) => union_closure(cov(p, masks, der), *with_empty),
        CovRe::Opt(p) => {
            let mut out = cov(p, masks, der);
            out.insert(0);
            out
        }
    }
}

/// Every node id of `pattern`, children before parents, detached subtrees
/// included.
fn post_order(pattern: &Pattern) -> Vec<PNodeId> {
    let mut seen = vec![false; pattern.len()];
    let mut out = Vec::with_capacity(pattern.len());
    for start in pattern.node_ids() {
        if seen[start.index()] {
            continue;
        }
        seen[start.index()] = true;
        let mut stack = vec![(start, 0usize)];
        while let Some((p, next)) = stack.last_mut() {
            let p = *p;
            match pattern.node(p).children.get(*next) {
                Some(&c) => {
                    *next += 1;
                    if !seen[c.index()] {
                        seen[c.index()] = true;
                        stack.push((c, 0));
                    }
                }
                None => {
                    out.push(p);
                    stack.pop();
                }
            }
        }
    }
    out
}

/// The one-level expansion closure of an element's content (an undeclared
/// element is unconstrained).
fn element_closure(schema: &Schema, name: &Label) -> ClosureSet {
    match schema.element(name.as_str()) {
        Some(content) => schema.expansion_closure(content),
        None => ClosureSet {
            any: true,
            ..Default::default()
        },
    }
}

/// Closure of a mask set under union; with `with_empty`, ε (mask 0) is
/// also achievable.
fn union_closure(base: BTreeSet<u32>, with_empty: bool) -> BTreeSet<u32> {
    let mut out = base;
    if with_empty {
        out.insert(0);
    }
    loop {
        let mut added = Vec::new();
        for &a in &out {
            for &b in &out {
                let u = a | b;
                if !out.contains(&u) {
                    added.push(u);
                }
            }
        }
        if added.is_empty() {
            break;
        }
        out.extend(added);
    }
    out
}

fn closure_syms(c: &ClosureSet) -> Vec<GSym> {
    let mut out: Vec<GSym> = Vec::new();
    if c.any {
        out.push(GSym::AnyTree);
    }
    out.extend(c.elements.iter().cloned().map(GSym::Elem));
    out.extend(c.functions.iter().cloned().map(GSym::Fun));
    if c.data {
        out.push(GSym::Data);
    }
    out
}

fn elem_label_ok(label: &PLabel, name: &Label) -> bool {
    match label {
        PLabel::Const(c) => c == name,
        PLabel::Var(_) | PLabel::Wildcard => true,
        PLabel::Fun(_) => false,
        PLabel::Or => unreachable!("OR handled by caller"),
    }
}

fn data_label_ok(label: &PLabel) -> bool {
    matches!(label, PLabel::Const(_) | PLabel::Var(_) | PLabel::Wildcard)
}

fn fun_label_ok(label: &PLabel, g: &Label) -> bool {
    matches!(label, PLabel::Fun(m) if m.accepts(g.as_str()))
}

/// One-shot convenience wrapper around [`Satisfier`]: does `fname`
/// satisfy the whole pattern, reached via `via`? The `u = root` case of
/// [`Satisfier::function_satisfies_at`].
///
/// ```
/// use axml_schema::{figure2_schema, function_satisfies, SatMode};
/// use axml_query::{parse_query, EdgeKind};
///
/// let schema = figure2_schema();
/// let wants_restaurants = parse_query("/restaurant[name=$X] -> $X").unwrap();
/// // getNearbyRestos can produce them; getNearbyMuseums cannot (§5)
/// assert!(function_satisfies(
///     &schema, &wants_restaurants, "getNearbyRestos",
///     EdgeKind::Descendant, SatMode::Exact));
/// assert!(!function_satisfies(
///     &schema, &wants_restaurants, "getNearbyMuseums",
///     EdgeKind::Descendant, SatMode::Exact));
/// ```
pub fn function_satisfies(
    schema: &Schema,
    pattern: &Pattern,
    fname: &str,
    via: EdgeKind,
    mode: SatMode,
) -> bool {
    Satisfier::new(schema, pattern, mode).function_satisfies_at(fname, pattern.root(), via)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{figure2_schema, parse_schema};
    use axml_query::parse_query;

    fn sub(q: &str) -> Pattern {
        parse_query(q).unwrap()
    }

    fn check(schema: &Schema, q: &str, f: &str, via: EdgeKind, mode: SatMode) -> bool {
        let p = sub(q);
        function_satisfies(schema, &p, f, via, mode)
    }

    #[test]
    fn figure2_basic_satisfiability() {
        let s = figure2_schema();
        for mode in [SatMode::Exact, SatMode::Lenient] {
            // getNearbyRestos returns restaurants: satisfies //restaurant…
            assert!(check(
                &s,
                "/restaurant[name=$X][address=$Y][rating=\"*****\"] -> $X,$Y",
                "getNearbyRestos",
                EdgeKind::Descendant,
                mode
            ));
            // …but getNearbyMuseums does not (the paper's §5 example)
            assert!(!check(
                &s,
                "/restaurant[name=$X]",
                "getNearbyMuseums",
                EdgeKind::Descendant,
                mode
            ));
            // getRating returns data: satisfies a value leaf (any value —
            // even one spelled like an element name: data is unconstrained)
            assert!(check(&s, "/\"*****\"", "getRating", EdgeKind::Child, mode));
            assert!(check(&s, "/rating", "getRating", EdgeKind::Child, mode));
            // …but a data value can never have children
            assert!(!check(
                &s,
                "/rating[stars=\"5\"]",
                "getRating",
                EdgeKind::Child,
                mode
            ));
            // getHotels can produce whole qualifying hotels
            assert!(check(
                &s,
                "/hotel[name=\"Best Western\"][rating=\"*****\"]",
                "getHotels",
                EdgeKind::Child,
                mode
            ));
        }
    }

    #[test]
    fn derived_instances_expand_nested_calls() {
        let s = figure2_schema();
        // getHotels' direct output contains rating = (data | getRating);
        // only after expanding getRating can a data value appear under a
        // deep path — both modes must follow the expansion.
        for mode in [SatMode::Exact, SatMode::Lenient] {
            assert!(check(
                &s,
                "/hotel/rating/\"*****\"",
                "getHotels",
                EdgeKind::Child,
                mode
            ));
            // a call kept unexpanded is matchable by a function test
            assert!(check(
                &s,
                "/hotel/rating/getRating()",
                "getHotels",
                EdgeKind::Child,
                mode
            ));
        }
    }

    #[test]
    fn child_vs_descendant_edges() {
        let s = figure2_schema();
        for mode in [SatMode::Exact, SatMode::Lenient] {
            // a name element is not a root of getHotels' output…
            assert!(!check(&s, "/name", "getHotels", EdgeKind::Child, mode));
            // …but occurs inside it
            assert!(check(&s, "/name", "getHotels", EdgeKind::Descendant, mode));
        }
    }

    #[test]
    fn exact_respects_co_occurrence_lenient_does_not() {
        // content (b | c): one child, either b or c — never both
        let s = parse_schema(
            "function f = in: data, out: a\n\
             element a = (b | c)\n\
             element b = data\n\
             element c = data\n",
        )
        .unwrap();
        let q = sub("/a[b][c]");
        assert!(!function_satisfies(
            &s,
            &q,
            "f",
            EdgeKind::Child,
            SatMode::Exact
        ));
        // the graph schema forgets the alternative: both appear possible
        assert!(function_satisfies(
            &s,
            &q,
            "f",
            EdgeKind::Child,
            SatMode::Lenient
        ));
        // sanity: each alone is satisfiable in both modes
        for mode in [SatMode::Exact, SatMode::Lenient] {
            assert!(function_satisfies(
                &s,
                &sub("/a[b]"),
                "f",
                EdgeKind::Child,
                mode
            ));
            assert!(function_satisfies(
                &s,
                &sub("/a[c]"),
                "f",
                EdgeKind::Child,
                mode
            ));
        }
    }

    #[test]
    fn exact_cardinality_with_star_allows_repeats() {
        // (b | c)*: both can occur (two children)
        let s = parse_schema(
            "function f = in: data, out: a\n\
             element a = (b | c)*\n\
             element b = data\n\
             element c = data\n",
        )
        .unwrap();
        let q = sub("/a[b][c]");
        assert!(function_satisfies(
            &s,
            &q,
            "f",
            EdgeKind::Child,
            SatMode::Exact
        ));
    }

    #[test]
    fn recursive_output_types_terminate() {
        let s = parse_schema(
            "function f = in: data, out: (item.f?)\n\
             element item = data\n",
        )
        .unwrap();
        for mode in [SatMode::Exact, SatMode::Lenient] {
            assert!(function_satisfies(
                &s,
                &sub("/item"),
                "f",
                EdgeKind::Child,
                mode
            ));
            assert!(!function_satisfies(
                &s,
                &sub("/other"),
                "f",
                EdgeKind::Child,
                mode
            ));
        }
    }

    #[test]
    fn undeclared_functions_are_never_pruned() {
        let s = figure2_schema();
        for mode in [SatMode::Exact, SatMode::Lenient] {
            assert!(check(&s, "/whatever", "mystery", EdgeKind::Child, mode));
        }
    }

    #[test]
    fn any_typed_output_satisfies_everything() {
        let s = parse_schema("function f = in: data, out: any*\n").unwrap();
        for mode in [SatMode::Exact, SatMode::Lenient] {
            assert!(function_satisfies(
                &s,
                &sub("/a/b[c=\"v\"]"),
                "f",
                EdgeKind::Child,
                mode
            ));
        }
    }

    #[test]
    fn or_patterns_in_subqueries() {
        use axml_query::{EdgeKind as EK, FunMatch, PLabel, Pattern};
        let s = figure2_schema();
        // pattern: rating / (data-value | getRating())
        let mut p = Pattern::new();
        let r = p.set_root(PLabel::Const("rating".into()));
        let v = p.add_child(r, EK::Child, PLabel::Wildcard);
        let or = p.wrap_in_or(v);
        p.add_child(
            or,
            EK::Child,
            PLabel::Fun(FunMatch::OneOf(vec!["getRating".into()])),
        );
        for mode in [SatMode::Exact, SatMode::Lenient] {
            // getHotels produces hotel trees containing rating positions
            assert!(function_satisfies(
                &s,
                &p,
                "getHotels",
                EK::Descendant,
                mode
            ));
        }
    }

    #[test]
    fn deep_nesting_through_multiple_functions() {
        let s = parse_schema(
            "function outer = in: data, out: wrap\n\
             function inner = in: data, out: leaf\n\
             element wrap = (inner | leaf)\n\
             element leaf = data\n",
        )
        .unwrap();
        for mode in [SatMode::Exact, SatMode::Lenient] {
            assert!(function_satisfies(
                &s,
                &sub("/wrap/leaf"),
                "outer",
                EdgeKind::Child,
                mode
            ));
        }
    }

    #[test]
    fn wide_nodes_stay_within_lenient() {
        // the hotel node has `conditions + 1` children: 32 fill a coverage
        // mask, 33 and 41 overflow it and take the lenient verdict there
        let s = figure2_schema();
        let funs = [
            "getHotels",
            "getRating",
            "getNearbyRestos",
            "getNearbyMuseums",
        ];
        for conditions in [31, 32, 40] {
            let q = sub(&format!(
                "/hotel{}/nearby",
                "[name=\"Best Western\"]".repeat(conditions)
            ));
            let mut exact = Satisfier::new(&s, &q, SatMode::Exact);
            let mut lenient = Satisfier::new(&s, &q, SatMode::Lenient);
            for u in q.node_ids() {
                for f in funs {
                    for via in [EdgeKind::Child, EdgeKind::Descendant] {
                        let e = exact.function_satisfies_at(f, u, via);
                        assert!(
                            !e || lenient.function_satisfies_at(f, u, via),
                            "exact ⊆ lenient violated for {f} at {u:?} ({conditions})"
                        );
                    }
                }
            }
            // one name element meets every condition
            assert!(exact.function_satisfies_at("getHotels", q.root(), EdgeKind::Child));
        }
    }

    #[test]
    fn lenient_is_a_superset_of_exact() {
        // randomized-ish sweep over the figure-2 schema: whenever exact
        // says yes, lenient must too
        let s = figure2_schema();
        let queries = [
            "/hotel",
            "/hotel/name",
            "/hotel[name=\"x\"][rating=\"y\"]",
            "/restaurant[rating=\"*****\"]",
            "/museum/name",
            "/name/\"v\"",
            "/\"v\"",
            "/nearby//restaurant/name",
            "/hotel/nearby//museum",
        ];
        let funs = [
            "getHotels",
            "getRating",
            "getNearbyRestos",
            "getNearbyMuseums",
        ];
        for q in queries {
            let p = sub(q);
            for f in funs {
                for via in [EdgeKind::Child, EdgeKind::Descendant] {
                    let exact = function_satisfies(&s, &p, f, via, SatMode::Exact);
                    let lenient = function_satisfies(&s, &p, f, via, SatMode::Lenient);
                    assert!(
                        !exact || lenient,
                        "exact ⊆ lenient violated for {f} vs {q} ({via:?})"
                    );
                }
            }
        }
    }
}
