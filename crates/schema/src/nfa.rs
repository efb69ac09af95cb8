//! Nondeterministic finite automata over label symbols, with wildcard
//! transitions.
//!
//! These implement the automata-theoretic machinery of Proposition 3 (the
//! *may-influence* test between NFQs: does some word of `L₁` prefix some
//! word of `L₂`?) and of the independence condition (✳) of Section 4.4
//! (`L₁ ∩ L₂ = ∅`). Wildcards keep the constructions finite although the
//! label alphabet is unbounded: two wildcard tests are simultaneously
//! satisfiable by a fresh label, so products work directly on tests.

use crate::regex::{LabelRe, Sym};
use axml_query::{EdgeKind, LinearPath, StepTest};
use axml_xml::Label;

/// A transition test.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransTest {
    /// Exactly this name.
    Name(Label),
    /// The `data` symbol.
    Data,
    /// Any symbol (name or data).
    AnySym,
}

impl TransTest {
    /// Does the test accept a concrete symbol?
    pub fn accepts(&self, s: &Sym) -> bool {
        match (self, s) {
            (TransTest::AnySym, _) => true,
            (TransTest::Data, Sym::Data) => true,
            (TransTest::Name(a), Sym::Name(b)) => a == b,
            _ => false,
        }
    }

    /// Are the two tests simultaneously satisfiable by some symbol?
    pub fn compatible(&self, other: &TransTest) -> bool {
        match (self, other) {
            (TransTest::AnySym, _) | (_, TransTest::AnySym) => true,
            (TransTest::Data, TransTest::Data) => true,
            (TransTest::Name(a), TransTest::Name(b)) => a == b,
            _ => false,
        }
    }
}

/// An ε-free NFA over label symbols.
#[derive(Clone, Debug)]
pub struct Nfa {
    /// edges[s] = list of (test, target)
    pub(crate) edges: Vec<Vec<(TransTest, usize)>>,
    pub(crate) start: Vec<usize>,
    pub(crate) accept: Vec<bool>,
}

impl Nfa {
    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.edges.len()
    }

    /// All concrete labels mentioned on transitions (the relevant alphabet
    /// for determinization).
    pub fn mentioned_labels(&self) -> Vec<Label> {
        let mut out: Vec<Label> = self
            .edges
            .iter()
            .flatten()
            .filter_map(|(t, _)| match t {
                TransTest::Name(l) => Some(l.clone()),
                _ => None,
            })
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Builds an NFA from a regular expression (Thompson construction with
    /// ε-elimination).
    pub fn from_re(re: &LabelRe) -> Nfa {
        let mut b = Builder::default();
        let start = b.fresh();
        let end = b.fresh();
        b.compile(re, start, end);
        b.finish(start, end)
    }

    /// Builds an NFA for the language of a linear path (Section 3.1 paths).
    /// A descendant step contributes `any* . test`, a child step just
    /// `test`; the language is the set of label words from the root to a
    /// matched node.
    pub fn from_linear_path(path: &LinearPath) -> Nfa {
        let n = path.steps.len();
        let mut edges: Vec<Vec<(TransTest, usize)>> = vec![Vec::new(); n + 1];
        for (i, step) in path.steps.iter().enumerate() {
            let test = match &step.test {
                StepTest::Label(l) => TransTest::Name(l.clone()),
                StepTest::Any => TransTest::AnySym,
            };
            if step.edge == EdgeKind::Descendant {
                edges[i].push((TransTest::AnySym, i));
            }
            edges[i].push((test, i + 1));
        }
        let mut accept = vec![false; n + 1];
        accept[n] = true;
        Nfa {
            edges,
            start: vec![0],
            accept,
        }
    }

    /// Does the automaton accept the word?
    pub fn accepts(&self, word: &[Sym]) -> bool {
        let mut cur: Vec<bool> = vec![false; self.num_states()];
        for &s in &self.start {
            cur[s] = true;
        }
        for sym in word {
            let mut next = vec![false; self.num_states()];
            for (s, active) in cur.iter().enumerate() {
                if !active {
                    continue;
                }
                for (test, t) in &self.edges[s] {
                    if test.accepts(sym) {
                        next[*t] = true;
                    }
                }
            }
            cur = next;
        }
        cur.iter()
            .enumerate()
            .any(|(s, &active)| active && self.accept[s])
    }

    /// The prefix closure: accepts every prefix (including ε) of every word
    /// of the language. States from which an accepting state is reachable
    /// become accepting.
    pub fn prefix_closure(&self) -> Nfa {
        let n = self.num_states();
        // co-reachability: reverse BFS from accepting states
        let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (s, outs) in self.edges.iter().enumerate() {
            for (_, t) in outs {
                rev[*t].push(s);
            }
        }
        let mut co = self.accept.clone();
        let mut stack: Vec<usize> = (0..n).filter(|&s| co[s]).collect();
        while let Some(s) = stack.pop() {
            for &p in &rev[s] {
                if !co[p] {
                    co[p] = true;
                    stack.push(p);
                }
            }
        }
        Nfa {
            edges: self.edges.clone(),
            start: self.start.clone(),
            accept: co,
        }
    }

    /// The union of several automata (language union), by disjoint state
    /// renaming and merged start sets.
    pub fn union_of(parts: &[Nfa]) -> Nfa {
        let mut edges: Vec<Vec<(TransTest, usize)>> = Vec::new();
        let mut start = Vec::new();
        let mut accept = Vec::new();
        for part in parts {
            let offset = edges.len();
            for outs in &part.edges {
                edges.push(
                    outs.iter()
                        .map(|(t, target)| (t.clone(), target + offset))
                        .collect(),
                );
            }
            start.extend(part.start.iter().map(|s| s + offset));
            accept.extend(part.accept.iter().copied());
        }
        if edges.is_empty() {
            // the empty union: a single non-accepting state
            edges.push(Vec::new());
            start.push(0);
            accept.push(false);
        }
        Nfa {
            edges,
            start,
            accept,
        }
    }

    /// The suffix closure `L · Σ*`: every accepting state gets a wildcard
    /// self-loop. This is the *position language* of a descendant-ended
    /// call-finding query: calls strictly below any node matching `L`.
    pub fn suffix_closure(&self) -> Nfa {
        let mut out = self.clone();
        for s in 0..out.num_states() {
            if out.accept[s] {
                out.edges[s].push((TransTest::AnySym, s));
            }
        }
        out
    }

    /// Is `L(self) ∩ L(other)` nonempty? Works directly on transition tests:
    /// a joint step exists iff the two tests are compatible (wildcards make
    /// the label alphabet irrelevant).
    pub fn intersects(&self, other: &Nfa) -> bool {
        let n2 = other.num_states();
        let idx = |a: usize, b: usize| a * n2 + b;
        let total = self.num_states() * n2;
        let mut seen = vec![false; total];
        let mut stack = Vec::new();
        for &a in &self.start {
            for &b in &other.start {
                if !seen[idx(a, b)] {
                    seen[idx(a, b)] = true;
                    stack.push((a, b));
                }
            }
        }
        while let Some((a, b)) = stack.pop() {
            if self.accept[a] && other.accept[b] {
                return true;
            }
            for (t1, a2) in &self.edges[a] {
                for (t2, b2) in &other.edges[b] {
                    if t1.compatible(t2) && !seen[idx(*a2, *b2)] {
                        seen[idx(*a2, *b2)] = true;
                        stack.push((*a2, *b2));
                    }
                }
            }
        }
        false
    }

    /// Proposition 3 test: does some word of `L(self)` occur as a prefix of
    /// some word of `L(other)`?
    pub fn some_word_prefixes(&self, other: &Nfa) -> bool {
        self.intersects(&other.prefix_closure())
    }

    /// Compiles the automaton against a label→symbol table (typically a
    /// document's interner), yielding a [`SymNfa`] whose step function is
    /// integer compares. `lookup` returns the symbol of a label text, or
    /// `None` when the text was never interned — such transitions can
    /// never fire on words drawn from that document and compile to a
    /// dead test. [`TransTest::Data`] transitions also compile dead:
    /// `SymNfa` words are *name* symbols (label paths of element nodes),
    /// which never carry the `data` symbol.
    pub fn compile_syms(&self, mut lookup: impl FnMut(&str) -> Option<u32>) -> SymNfa {
        SymNfa {
            edges: self
                .edges
                .iter()
                .map(|outs| {
                    outs.iter()
                        .map(|(t, target)| {
                            let st = match t {
                                TransTest::AnySym => SymTest::Any,
                                TransTest::Data => SymTest::Never,
                                TransTest::Name(l) => match lookup(l.as_str()) {
                                    Some(s) => SymTest::Sym(s),
                                    None => SymTest::Never,
                                },
                            };
                            (st, *target)
                        })
                        .collect()
                })
                .collect(),
            start: self.start.clone(),
            accept: self.accept.clone(),
        }
    }
}

/// A transition test of a [`SymNfa`] (compiled against one symbol table).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SymTest {
    /// Exactly this interned symbol.
    Sym(u32),
    /// Any symbol.
    Any,
    /// Never fires (label absent from the table, or a `data` test).
    Never,
}

/// An [`Nfa`] compiled against one document's symbol table: words are
/// interned label symbols and every transition test is an integer compare.
/// Symbol tables are append-only, so a compiled automaton stays valid as
/// the document grows — but a label it names that was interned only
/// *after* compilation is unknown to it; recompile when such a label
/// appears (as `axml_core::ClassVerdicts` does).
#[derive(Clone, Debug)]
pub struct SymNfa {
    edges: Vec<Vec<(SymTest, usize)>>,
    start: Vec<usize>,
    accept: Vec<bool>,
}

impl SymNfa {
    /// Does the automaton accept the word of name symbols?
    pub fn accepts(&self, word: &[u32]) -> bool {
        let n = self.edges.len();
        let mut cur = vec![false; n];
        for &s in &self.start {
            cur[s] = true;
        }
        for &sym in word {
            let mut next = vec![false; n];
            let mut any = false;
            for (s, active) in cur.iter().enumerate() {
                if !active {
                    continue;
                }
                for &(test, t) in &self.edges[s] {
                    let fire = match test {
                        SymTest::Any => true,
                        SymTest::Sym(want) => want == sym,
                        SymTest::Never => false,
                    };
                    if fire {
                        next[t] = true;
                        any = true;
                    }
                }
            }
            if !any {
                return false;
            }
            cur = next;
        }
        cur.iter()
            .enumerate()
            .any(|(s, &active)| active && self.accept[s])
    }
}

/// Thompson construction with an ε edge list, eliminated in `finish`.
#[derive(Default)]
struct Builder {
    edges: Vec<Vec<(TransTest, usize)>>,
    eps: Vec<Vec<usize>>,
}

impl Builder {
    fn fresh(&mut self) -> usize {
        self.edges.push(Vec::new());
        self.eps.push(Vec::new());
        self.edges.len() - 1
    }

    fn compile(&mut self, re: &LabelRe, from: usize, to: usize) {
        match re {
            LabelRe::Empty => {}
            LabelRe::Epsilon => self.eps[from].push(to),
            LabelRe::Data => self.edges[from].push((TransTest::Data, to)),
            LabelRe::Any => self.edges[from].push((TransTest::AnySym, to)),
            LabelRe::Sym(l) => self.edges[from].push((TransTest::Name(l.clone()), to)),
            LabelRe::Seq(parts) => {
                let mut cur = from;
                for (i, p) in parts.iter().enumerate() {
                    let next = if i + 1 == parts.len() {
                        to
                    } else {
                        self.fresh()
                    };
                    self.compile(p, cur, next);
                    cur = next;
                }
                if parts.is_empty() {
                    self.eps[from].push(to);
                }
            }
            LabelRe::Alt(parts) => {
                for p in parts {
                    self.compile(p, from, to);
                }
            }
            LabelRe::Star(p) => {
                let mid = self.fresh();
                self.eps[from].push(mid);
                self.compile(p, mid, mid);
                self.eps[mid].push(to);
            }
            LabelRe::Plus(p) => {
                let mid = self.fresh();
                self.compile(p, from, mid);
                self.compile(p, mid, mid);
                self.eps[mid].push(to);
            }
            LabelRe::Opt(p) => {
                self.eps[from].push(to);
                self.compile(p, from, to);
            }
        }
    }

    fn finish(self, start: usize, end: usize) -> Nfa {
        let n = self.edges.len();
        // ε-closure per state
        let mut closure: Vec<Vec<usize>> = Vec::with_capacity(n);
        for s in 0..n {
            let mut seen = vec![false; n];
            let mut stack = vec![s];
            seen[s] = true;
            while let Some(x) = stack.pop() {
                for &t in &self.eps[x] {
                    if !seen[t] {
                        seen[t] = true;
                        stack.push(t);
                    }
                }
            }
            closure.push((0..n).filter(|&x| seen[x]).collect());
        }
        // new edges: from s, through ε-closure, then a symbol edge
        let mut edges: Vec<Vec<(TransTest, usize)>> = vec![Vec::new(); n];
        for s in 0..n {
            for &c in &closure[s] {
                for (t, target) in &self.edges[c] {
                    edges[s].push((t.clone(), *target));
                }
            }
        }
        let mut accept = vec![false; n];
        for s in 0..n {
            if closure[s].contains(&end) {
                accept[s] = true;
            }
        }
        Nfa {
            edges,
            start: vec![start],
            accept,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::parse_re;
    use axml_query::parse_query;

    fn n(s: &str) -> Sym {
        Sym::Name(s.into())
    }

    fn words(alpha: &[&str], max_len: usize) -> Vec<Vec<Sym>> {
        let mut out = vec![vec![]];
        let mut layer: Vec<Vec<Sym>> = vec![vec![]];
        for _ in 0..max_len {
            let mut next = Vec::new();
            for w in &layer {
                for a in alpha {
                    let mut w2 = w.clone();
                    w2.push(if *a == "#" { Sym::Data } else { n(a) });
                    next.push(w2);
                }
            }
            out.extend(next.iter().cloned());
            layer = next;
        }
        out
    }

    #[test]
    fn nfa_agrees_with_reference_matcher() {
        for src in [
            "a.b.c",
            "(a | b)*",
            "a*.b",
            "(a.b)+",
            "a?",
            "data.(a | data)*",
            "any.a",
            "()",
            "(a|b).(c|d)?",
        ] {
            let re = parse_re(src).unwrap();
            let nfa = Nfa::from_re(&re);
            for w in words(&["a", "b", "c", "d", "#"], 4) {
                assert_eq!(
                    nfa.accepts(&w),
                    re.matches(&w),
                    "mismatch on {src} with {w:?}"
                );
            }
        }
    }

    fn lin_of(query: &str) -> LinearPath {
        let q = parse_query(query).unwrap();
        let last = q.result_nodes()[0];
        LinearPath::to_node(&q, last, true)
    }

    #[test]
    fn linear_path_nfa_agrees_with_path_matcher() {
        for src in ["/a/b", "/a//b/c", "//x", "/a/*//b"] {
            let lin = lin_of(src);
            let nfa = Nfa::from_linear_path(&lin);
            for w in words(&["a", "b", "c", "x", "y"], 4) {
                let strs: Vec<&str> = w
                    .iter()
                    .map(|s| match s {
                        Sym::Name(l) => l.as_str(),
                        Sym::Data => "#data",
                    })
                    .collect();
                assert_eq!(
                    nfa.accepts(&w),
                    lin.matches_word(&strs),
                    "mismatch on {src} with {strs:?}"
                );
            }
        }
    }

    #[test]
    fn intersection_nonemptiness() {
        let a = Nfa::from_linear_path(&lin_of("//a"));
        let b = Nfa::from_linear_path(&lin_of("//b"));
        // both match words of length ≥ 2 ending differently, but
        // //a matches "x a" and //b matches "x b" — no common word of the
        // same labels: intersection is empty? No! //a requires last = a,
        // //b requires last = b: empty indeed.
        assert!(!a.intersects(&b));
        let c = Nfa::from_linear_path(&lin_of("/r//a"));
        let d = Nfa::from_linear_path(&lin_of("/r/*/a"));
        assert!(c.intersects(&d)); // r x a in both
        let e = Nfa::from_linear_path(&lin_of("/r/a"));
        let f = Nfa::from_linear_path(&lin_of("/r/b"));
        assert!(!e.intersects(&f));
    }

    #[test]
    fn prefix_relation_proposition_3() {
        // the paper's Section 4.3 example: //a and //b mutually influence
        // because a word ending in b may have a prefix ending in a
        let a = Nfa::from_linear_path(&lin_of("//a"));
        let b = Nfa::from_linear_path(&lin_of("//b"));
        assert!(a.some_word_prefixes(&b));
        assert!(b.some_word_prefixes(&a));

        // /hotels/hotel (hotels NFQ) prefixes /hotels/hotel/nearby
        let h = Nfa::from_linear_path(&lin_of("/hotels/hotel"));
        let nearby = Nfa::from_linear_path(&lin_of("/hotels/hotel/nearby"));
        assert!(h.some_word_prefixes(&nearby));
        assert!(!nearby.some_word_prefixes(&h));

        // disjoint paths: /hotels/hotel/rating vs /hotels/hotel/nearby
        let r = Nfa::from_linear_path(&lin_of("/hotels/hotel/rating"));
        assert!(!r.some_word_prefixes(&nearby));
        assert!(!nearby.some_word_prefixes(&r));
    }

    #[test]
    fn prefix_comparability() {
        // the suffix closure, then the prefix closure, accepts the words
        // prefix-comparable with the language: some accepted word is a
        // prefix of the word, or the word a prefix of an accepted word
        let comparable = |q: &Nfa| q.suffix_closure().prefix_closure();
        let nfa = comparable(&Nfa::from_linear_path(&lin_of("/hotels/hotel/price")));
        // below a result node: comparable (changes the rendered value)
        assert!(nfa.accepts(&[n("hotels"), n("hotel"), n("price"), n("amount")]));
        // exactly a result node
        assert!(nfa.accepts(&[n("hotels"), n("hotel"), n("price")]));
        // above a result node: comparable (creates/destroys matches)
        assert!(nfa.accepts(&[n("hotels"), n("hotel")]));
        assert!(nfa.accepts(&[]));
        // a sibling branch: incomparable
        assert!(!nfa.accepts(&[n("hotels"), n("hotel"), n("rating")]));
        assert!(!nfa.accepts(&[n("auctions")]));

        // descendant steps keep every extension comparable
        let deep = comparable(&Nfa::from_linear_path(&lin_of("/a//b")));
        assert!(deep.accepts(&[n("a"), n("x"), n("y")])); // may still reach b below
        assert!(!deep.accepts(&[n("c")]));

        // brute-force agreement with the definition on short words
        for src in ["/a/*/c", "/a//b", "//c", "/b/a/b"] {
            let q = Nfa::from_linear_path(&lin_of(src));
            let closed = comparable(&q);
            for w in words(&["a", "b", "c"], 4) {
                let expect =
                    (0..=w.len()).any(|k| q.accepts(&w[..k])) || q.prefix_closure().accepts(&w);
                assert_eq!(closed.accepts(&w), expect, "mismatch on {src} with {w:?}");
            }
        }
    }

    #[test]
    fn prefix_closure_includes_epsilon() {
        let a = Nfa::from_linear_path(&lin_of("/a/b"));
        let p = a.prefix_closure();
        assert!(p.accepts(&[]));
        assert!(p.accepts(&[n("a")]));
        assert!(p.accepts(&[n("a"), n("b")]));
        assert!(!p.accepts(&[n("b")]));
    }

    #[test]
    fn union_combines_languages() {
        let a = Nfa::from_re(&parse_re("a.b").unwrap());
        let b = Nfa::from_re(&parse_re("c*").unwrap());
        let u = Nfa::union_of(&[a, b]);
        assert!(u.accepts(&[n("a"), n("b")]));
        assert!(u.accepts(&[]));
        assert!(u.accepts(&[n("c"), n("c")]));
        assert!(!u.accepts(&[n("a")]));
        let empty = Nfa::union_of(&[]);
        assert!(!empty.accepts(&[]) && !empty.accepts(&[n("a")]));
    }

    #[test]
    fn sym_compiled_nfa_agrees_with_label_nfa() {
        // a tiny symbol table over the test alphabet; "y" is not interned
        // at compile time, and words spell it with the next free symbol,
        // as a label a splice interns after compilation would be
        let table = ["a", "b", "c", "x"];
        let lookup = |s: &str| table.iter().position(|t| *t == s).map(|i| i as u32);
        let late = |s: &str| lookup(s).unwrap_or(table.len() as u32);
        for src in ["/a/b", "/a//b/c", "//x", "/a/*//b", "/a/*/c"] {
            let plain = Nfa::from_linear_path(&lin_of(src));
            let prefix = plain.prefix_closure();
            let both = prefix.suffix_closure();
            for (closure, nfa) in [("none", plain), ("prefix", prefix), ("both", both)] {
                let sym_nfa = nfa.compile_syms(lookup);
                for w in words(&["a", "b", "c", "x", "y"], 4) {
                    let syms: Vec<u32> = w
                        .iter()
                        .map(|s| match s {
                            Sym::Name(l) => late(l.as_str()),
                            Sym::Data => unreachable!(),
                        })
                        .collect();
                    assert_eq!(
                        sym_nfa.accepts(&syms),
                        nfa.accepts(&w),
                        "mismatch on {src} (closure {closure}) with {w:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn wildcard_products_are_sound() {
        // any* intersects everything nonempty
        let any = Nfa::from_re(&parse_re("any*").unwrap());
        let ab = Nfa::from_re(&parse_re("a.b").unwrap());
        assert!(any.intersects(&ab));
        // data vs name are incompatible
        let d = Nfa::from_re(&parse_re("data").unwrap());
        let a = Nfa::from_re(&parse_re("a").unwrap());
        assert!(!d.intersects(&a));
        assert!(d.intersects(&Nfa::from_re(&parse_re("any").unwrap())));
    }
}
