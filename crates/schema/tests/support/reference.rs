//! The reference §5 checker: the round-robin exact fixpoint the
//! production `Satisfier` replaced, and the lenient graph-schema
//! embedding, both read straight off the schema with no compiled tables.
//! The differential tests compare every production verdict with this
//! one's.

#![allow(dead_code)]

use axml_query::{EdgeKind, PLabel, PNodeId, Pattern};
use axml_schema::{ClosureSet, LabelRe, SatMode, Schema};
use axml_xml::Label;
use std::collections::{BTreeMap, BTreeSet, HashMap};

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

/// The reference checker for one `(schema, query)` pair: the exact
/// tables come from a round-robin fixpoint over every (symbol, pattern
/// node) pair until nothing changes, and the lenient verdicts from the
/// memoized graph-schema embedding.
pub struct Reference<'s, 'p> {
    schema: &'s Schema,
    pattern: &'p Pattern,
    mode: SatMode,
    /// lenient memo: can a derived tree rooted at `sym` embed `p` at root?
    lenient_memo: HashMap<(GSym, PNodeId), bool>,
    /// one-level expansion closure per element label
    closure_memo: HashMap<Label, ClosureSet>,
    /// strict-descendant reachability per element label
    reach_memo: HashMap<Label, ReachSet>,
    /// exact tables (computed lazily on first exact query)
    exact: Option<ExactTables>,
}

#[derive(Clone, Debug, Default)]
struct ReachSet {
    elements: BTreeSet<Label>,
    functions: BTreeSet<Label>,
    data: bool,
    any: bool,
}

struct ExactTables {
    can_root: HashMap<(GSym, PNodeId), bool>,
    can_within: HashMap<(GSym, PNodeId), bool>,
}

impl<'s, 'p> Reference<'s, 'p> {
    /// Creates a checker for the given query.
    pub fn new(schema: &'s Schema, pattern: &'p Pattern, mode: SatMode) -> Self {
        Reference {
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
    /// equals [`function_satisfies`] on `pattern.subtree(u)`: the tables
    /// hold symbols for constants outside that subtree too, but no
    /// function's output closure reaches them.
    pub fn function_satisfies_at(&mut self, fname: &str, u: PNodeId, via: EdgeKind) -> bool {
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
            EdgeKind::Child => syms.iter().any(|s| self.can_root(s, u)),
            EdgeKind::Descendant => syms.iter().any(|s| self.can_within(s, u)),
        }
    }

    fn can_root(&mut self, sym: &GSym, p: PNodeId) -> bool {
        match self.mode {
            SatMode::Lenient => self.lenient_can_root(sym.clone(), p),
            SatMode::Exact => {
                self.ensure_exact();
                *self
                    .exact
                    .as_ref()
                    .unwrap()
                    .can_root
                    .get(&(sym.clone(), p))
                    .unwrap_or(&false)
            }
        }
    }

    fn can_within(&mut self, sym: &GSym, p: PNodeId) -> bool {
        match self.mode {
            SatMode::Lenient => self.lenient_can_within(sym.clone(), p),
            SatMode::Exact => {
                self.ensure_exact();
                *self
                    .exact
                    .as_ref()
                    .unwrap()
                    .can_within
                    .get(&(sym.clone(), p))
                    .unwrap_or(&false)
            }
        }
    }

    // ---------- shared closure / reachability helpers ----------

    fn closure_of_element(&mut self, name: &Label) -> ClosureSet {
        if let Some(c) = self.closure_memo.get(name) {
            return c.clone();
        }
        let c = match self.schema.element(name.as_str()) {
            Some(content) => self.schema.expansion_closure(content),
            // undeclared elements are unconstrained
            None => ClosureSet {
                any: true,
                ..Default::default()
            },
        };
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

    fn ensure_exact(&mut self) {
        if self.exact.is_some() {
            return;
        }
        let syms = self.sym_universe();
        let pnodes: Vec<PNodeId> = self.pattern.node_ids().collect();
        let mut can_root: HashMap<(GSym, PNodeId), bool> = HashMap::new();
        let mut can_within: HashMap<(GSym, PNodeId), bool> = HashMap::new();
        for s in &syms {
            for &p in &pnodes {
                can_root.insert((s.clone(), p), false);
                can_within.insert((s.clone(), p), false);
            }
        }
        loop {
            let mut changed = false;
            for s in &syms {
                for &p in &pnodes {
                    if !can_root[&(s.clone(), p)]
                        && self.compute_can_root(s, p, &can_root, &can_within)
                    {
                        can_root.insert((s.clone(), p), true);
                        changed = true;
                    }
                }
            }
            for s in &syms {
                for &p in &pnodes {
                    if !can_within[&(s.clone(), p)]
                        && self.compute_can_within(s, p, &can_root, &can_within)
                    {
                        can_within.insert((s.clone(), p), true);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        self.exact = Some(ExactTables {
            can_root,
            can_within,
        });
    }

    /// All graph symbols relevant to this schema + pattern.
    fn sym_universe(&mut self) -> Vec<GSym> {
        let mut labels: BTreeSet<Label> = BTreeSet::new();
        for (name, _) in self.schema.elements() {
            labels.insert(name.clone());
        }
        for name in self.schema.referenced_names() {
            labels.insert(name);
        }
        // pattern constants may name undeclared elements
        for id in self.pattern.node_ids() {
            if let PLabel::Const(l) = &self.pattern.node(id).label {
                labels.insert(l.clone());
            }
        }
        let mut out: Vec<GSym> = Vec::new();
        for l in labels {
            if self.schema.is_function(l.as_str()) {
                out.push(GSym::Fun(l));
            } else {
                out.push(GSym::Elem(l));
            }
        }
        out.push(GSym::Data);
        out.push(GSym::AnyTree);
        out
    }

    fn compute_can_root(
        &mut self,
        sym: &GSym,
        p: PNodeId,
        can_root: &HashMap<(GSym, PNodeId), bool>,
        can_within: &HashMap<(GSym, PNodeId), bool>,
    ) -> bool {
        let node = self.pattern.node(p);
        if let PLabel::Or = node.label {
            return node.children.iter().any(|&b| can_root[&(sym.clone(), b)]);
        }
        match sym {
            GSym::AnyTree => true,
            GSym::Data => data_label_ok(&node.label) && node.children.is_empty(),
            GSym::Fun(g) => fun_label_ok(&node.label, g) && node.children.is_empty(),
            GSym::Elem(a) => {
                if !elem_label_ok(&node.label, a) {
                    return false;
                }
                let content = match self.schema.element(a.as_str()) {
                    Some(c) => c.clone(),
                    None => LabelRe::any_forest(),
                };
                let children: Vec<PNodeId> = node.children.clone();
                let k = children.len();
                if k == 0 {
                    return !content.language_empty();
                }
                let full: u32 = (1u32 << k) - 1;
                // mask of one symbol: which child constraints it satisfies
                let mask = |s: &GSym| -> u32 {
                    let mut m = 0;
                    for (j, &pc) in children.iter().enumerate() {
                        let ok = match self.pattern.node(pc).edge {
                            EdgeKind::Child => can_root[&(s.clone(), pc)],
                            EdgeKind::Descendant => can_within[&(s.clone(), pc)],
                        };
                        if ok {
                            m |= 1 << j;
                        }
                    }
                    m
                };
                let cov = self.coverage(&content, &mask);
                cov.contains(&full)
            }
        }
    }

    fn compute_can_within(
        &mut self,
        sym: &GSym,
        p: PNodeId,
        can_root: &HashMap<(GSym, PNodeId), bool>,
        can_within: &HashMap<(GSym, PNodeId), bool>,
    ) -> bool {
        if can_root[&(sym.clone(), p)] {
            return true;
        }
        match sym {
            GSym::AnyTree => true,
            GSym::Data | GSym::Fun(_) => false,
            GSym::Elem(a) => {
                let closure = self.closure_of_element(a);
                if closure.any {
                    return true;
                }
                closure_syms(&closure)
                    .into_iter()
                    .any(|s| can_within[&(s, p)])
            }
        }
    }

    /// Achievable coverage masks of the *derived* words of `re`: each
    /// function symbol may stay (contributing its own mask) or expand into
    /// a derived word of its output type — computed as a fixpoint over the
    /// declared functions.
    fn coverage(&self, re: &LabelRe, mask: &dyn Fn(&GSym) -> u32) -> BTreeSet<u32> {
        let mut cov_der: BTreeMap<Label, BTreeSet<u32>> = BTreeMap::new();
        for sig in self.schema.functions() {
            cov_der.insert(sig.name.clone(), BTreeSet::new());
        }
        loop {
            let mut changed = false;
            for sig in self.schema.functions() {
                let new = self.cov_re(&sig.output, mask, &cov_der);
                let cur = cov_der.get_mut(&sig.name).unwrap();
                let before = cur.len();
                cur.extend(new);
                if cur.len() != before {
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        self.cov_re(re, mask, &cov_der)
    }

    fn cov_re(
        &self,
        re: &LabelRe,
        mask: &dyn Fn(&GSym) -> u32,
        cov_der: &BTreeMap<Label, BTreeSet<u32>>,
    ) -> BTreeSet<u32> {
        match re {
            LabelRe::Empty => BTreeSet::new(),
            LabelRe::Epsilon => [0u32].into_iter().collect(),
            LabelRe::Data => [mask(&GSym::Data)].into_iter().collect(),
            // an `any` position can be any single derived tree: it can
            // satisfy every individual constraint simultaneously only as
            // far as one tree can — each constraint is satisfiable by an
            // arbitrary tree, so an `any` symbol covers everything.
            LabelRe::Any => [mask(&GSym::AnyTree)].into_iter().collect(),
            LabelRe::Sym(l) => {
                let mut out = BTreeSet::new();
                if self.schema.is_function(l.as_str()) {
                    out.insert(mask(&GSym::Fun(l.clone())));
                    if let Some(der) = cov_der.get(l) {
                        out.extend(der.iter().copied());
                    }
                } else {
                    out.insert(mask(&GSym::Elem(l.clone())));
                }
                out
            }
            LabelRe::Seq(ps) => {
                let mut acc: BTreeSet<u32> = [0u32].into_iter().collect();
                for p in ps {
                    let cov = self.cov_re(p, mask, cov_der);
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
            LabelRe::Alt(ps) => {
                let mut out = BTreeSet::new();
                for p in ps {
                    out.extend(self.cov_re(p, mask, cov_der));
                }
                out
            }
            LabelRe::Star(p) => {
                let base = self.cov_re(p, mask, cov_der);
                union_closure(base, true)
            }
            LabelRe::Plus(p) => {
                let base = self.cov_re(p, mask, cov_der);
                union_closure(base, false)
            }
            LabelRe::Opt(p) => {
                let mut out = self.cov_re(p, mask, cov_der);
                out.insert(0);
                out
            }
        }
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
