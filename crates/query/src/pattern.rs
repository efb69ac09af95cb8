//! Tree-pattern queries (Section 2 of the paper).
//!
//! A tree pattern is a labeled tree whose nodes carry variable names,
//! constants (element names / data values), or `*`; some edges are
//! *descendant* edges and some nodes are *result* nodes. *Extended* patterns
//! additionally have OR nodes (a choice among children subtrees) and
//! function nodes (matching the document's function-call nodes) — these are
//! the machinery used to build the paper's NFQs.

use axml_xml::Label;
use std::fmt;

/// Index of a node inside a [`Pattern`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PNodeId(pub(crate) u32);

impl PNodeId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for PNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Edge type from a node's parent (Child for the root, by convention).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// parent-child relationship
    Child,
    /// strict ancestor-descendant relationship
    Descendant,
}

/// Which function names a function pattern node accepts.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum FunMatch {
    /// The star-labeled function node `()` — any service.
    Any,
    /// A refined alternative: only the listed services (Section 5).
    OneOf(Vec<Label>),
}

impl FunMatch {
    /// Does this function test accept the given service name?
    pub fn accepts(&self, service: &str) -> bool {
        match self {
            FunMatch::Any => true,
            FunMatch::OneOf(names) => names.iter().any(|n| n.as_str() == service),
        }
    }
}

/// The label of a pattern node.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum PLabel {
    /// Constant: matches a data node with exactly this label
    /// (element name or data value).
    Const(Label),
    /// Variable: matches any data node; all occurrences of the same
    /// variable must map to nodes with identical labels.
    Var(Label),
    /// `*`: matches any data node.
    Wildcard,
    /// OR node: transparent choice among its children subtrees.
    Or,
    /// Function node: matches a function-call node of the document.
    Fun(FunMatch),
}

/// One pattern node.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PNode {
    /// Node label / kind.
    pub label: PLabel,
    /// Edge from the parent (ignored for the root).
    pub edge: EdgeKind,
    /// Children, in order (order is irrelevant to the semantics).
    pub children: Vec<PNodeId>,
    /// Whether this node is a result (output) node.
    pub is_result: bool,
    pub(crate) parent: Option<PNodeId>,
}

/// A (possibly extended) tree-pattern query. Equality and hashing are
/// structural over every node, detached ones included: two patterns are
/// equal exactly when their `Debug` renderings are.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Pattern {
    nodes: Vec<PNode>,
    root: Option<PNodeId>,
}

impl Pattern {
    /// An empty pattern; add a root with [`Pattern::set_root`].
    pub fn new() -> Self {
        Pattern::default()
    }

    /// Creates the root node.
    ///
    /// # Panics
    /// Panics if a root already exists.
    pub fn set_root(&mut self, label: PLabel) -> PNodeId {
        assert!(self.root.is_none(), "pattern already has a root");
        let id = self.push(PNode {
            label,
            edge: EdgeKind::Child,
            children: Vec::new(),
            is_result: false,
            parent: None,
        });
        self.root = Some(id);
        id
    }

    /// Adds a child node under `parent` with the given edge kind.
    pub fn add_child(&mut self, parent: PNodeId, edge: EdgeKind, label: PLabel) -> PNodeId {
        let id = self.push(PNode {
            label,
            edge,
            children: Vec::new(),
            is_result: false,
            parent: Some(parent),
        });
        self.nodes[parent.index()].children.push(id);
        id
    }

    fn push(&mut self, n: PNode) -> PNodeId {
        let id = PNodeId(self.nodes.len() as u32);
        self.nodes.push(n);
        id
    }

    /// Marks a node as a result node.
    pub fn mark_result(&mut self, id: PNodeId) {
        self.nodes[id.index()].is_result = true;
    }

    /// The root node.
    ///
    /// # Panics
    /// Panics on an empty pattern.
    pub fn root(&self) -> PNodeId {
        self.root.expect("empty pattern")
    }

    /// Immutable access to a node.
    pub fn node(&self, id: PNodeId) -> &PNode {
        &self.nodes[id.index()]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the pattern has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All node ids in creation order (root first).
    pub fn node_ids(&self) -> impl Iterator<Item = PNodeId> + '_ {
        (0..self.nodes.len() as u32).map(PNodeId)
    }

    /// The result nodes, in creation order.
    pub fn result_nodes(&self) -> Vec<PNodeId> {
        self.node_ids()
            .filter(|&id| self.node(id).is_result)
            .collect()
    }

    /// Parent of a node.
    pub fn parent(&self, id: PNodeId) -> Option<PNodeId> {
        self.node(id).parent
    }

    /// Variable names appearing at least twice (the *join variables*;
    /// single-occurrence variables behave like `*` plus a binding).
    pub fn join_variables(&self) -> Vec<Label> {
        let mut counts: std::collections::HashMap<&Label, usize> = Default::default();
        for id in self.node_ids() {
            if let PLabel::Var(v) = &self.node(id).label {
                *counts.entry(v).or_default() += 1;
            }
        }
        let mut out: Vec<Label> = counts
            .into_iter()
            .filter(|&(_, c)| c >= 2)
            .map(|(v, _)| v.clone())
            .collect();
        out.sort();
        out
    }

    /// `true` if any node is an OR or function node (an *extended* query).
    pub fn is_extended(&self) -> bool {
        self.node_ids()
            .any(|id| matches!(self.node(id).label, PLabel::Or | PLabel::Fun(_)))
    }

    /// Deep-copies the subtree rooted at `sub` into a fresh pattern whose
    /// root keeps `sub`'s label and result flag (used for `sub_q_v` when
    /// pushing queries, Section 7).
    pub fn subtree(&self, sub: PNodeId) -> Pattern {
        let mut p = Pattern::new();
        let root = p.set_root(self.node(sub).label.clone());
        p.nodes[root.index()].is_result = self.node(sub).is_result;
        self.copy_children(sub, &mut p, root);
        p
    }

    /// Deep-copies `other` (whole pattern) as a new child subtree of
    /// `parent`, connected by `edge`. Returns the new subtree root.
    pub fn append_pattern(&mut self, parent: PNodeId, edge: EdgeKind, other: &Pattern) -> PNodeId {
        let oroot = other.root();
        let new_root = self.add_child(parent, edge, other.node(oroot).label.clone());
        self.nodes[new_root.index()].is_result = other.node(oroot).is_result;
        other.copy_children(oroot, self, new_root);
        new_root
    }

    fn copy_children(&self, from: PNodeId, into: &mut Pattern, to: PNodeId) {
        for &c in &self.node(from).children {
            let n = self.node(c);
            let nc = into.add_child(to, n.edge, n.label.clone());
            into.nodes[nc.index()].is_result = n.is_result;
            self.copy_children(c, into, nc);
        }
    }

    /// Removes the subtree rooted at `id` (must not be the root).
    pub fn remove_subtree(&mut self, id: PNodeId) {
        let parent = self
            .node(id)
            .parent
            .expect("cannot remove the pattern root");
        self.nodes[parent.index()].children.retain(|&c| c != id);
        // nodes become unreachable; ids are not compacted (patterns are tiny)
    }

    /// Replaces node `id`'s label in place.
    pub fn set_label(&mut self, id: PNodeId, label: PLabel) {
        self.nodes[id.index()].label = label;
    }

    /// Inserts a new OR node between `id` and its parent, returning the OR
    /// node id. `id` becomes the OR's first branch; the OR inherits `id`'s
    /// incoming edge. Used by the NFQ construction (Figure 5, step 4).
    pub fn wrap_in_or(&mut self, id: PNodeId) -> PNodeId {
        let parent = self.node(id).parent.expect("cannot wrap the root in an OR");
        let edge = self.node(id).edge;
        let or = self.push(PNode {
            label: PLabel::Or,
            edge,
            children: vec![id],
            is_result: false,
            parent: Some(parent),
        });
        let slot = self.nodes[parent.index()]
            .children
            .iter()
            .position(|&c| c == id)
            .expect("child link broken");
        self.nodes[parent.index()].children[slot] = or;
        self.nodes[id.index()].parent = Some(or);
        or
    }

    /// Checks internal link consistency (tests).
    pub fn check_integrity(&self) -> Result<(), String> {
        let root = match self.root {
            Some(r) => r,
            None => return Ok(()),
        };
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![(None, root)];
        while let Some((parent, id)) = stack.pop() {
            if seen[id.index()] {
                return Err(format!("{id:?} reachable twice"));
            }
            seen[id.index()] = true;
            if self.node(id).parent != parent {
                return Err(format!("{id:?} has wrong parent link"));
            }
            for &c in &self.node(id).children {
                stack.push((Some(id), c));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig4() -> Pattern {
        // hotel[name="Best Western"][rating="*****"]
        //      /nearby//restaurant[name=$X!][address=$Y!][rating="*****"]
        let mut p = Pattern::new();
        let hotel = p.set_root(PLabel::Const("hotel".into()));
        let name = p.add_child(hotel, EdgeKind::Child, PLabel::Const("name".into()));
        p.add_child(name, EdgeKind::Child, PLabel::Const("Best Western".into()));
        let rating = p.add_child(hotel, EdgeKind::Child, PLabel::Const("rating".into()));
        p.add_child(rating, EdgeKind::Child, PLabel::Const("*****".into()));
        let nearby = p.add_child(hotel, EdgeKind::Child, PLabel::Const("nearby".into()));
        let resto = p.add_child(
            nearby,
            EdgeKind::Descendant,
            PLabel::Const("restaurant".into()),
        );
        let rn = p.add_child(resto, EdgeKind::Child, PLabel::Const("name".into()));
        let x = p.add_child(rn, EdgeKind::Child, PLabel::Var("X".into()));
        p.mark_result(x);
        let ra = p.add_child(resto, EdgeKind::Child, PLabel::Const("address".into()));
        let y = p.add_child(ra, EdgeKind::Child, PLabel::Var("Y".into()));
        p.mark_result(y);
        let rr = p.add_child(resto, EdgeKind::Child, PLabel::Const("rating".into()));
        p.add_child(rr, EdgeKind::Child, PLabel::Const("*****".into()));
        p
    }

    #[test]
    fn build_fig4_pattern() {
        let p = fig4();
        assert_eq!(p.len(), 13);
        assert_eq!(p.result_nodes().len(), 2);
        assert!(!p.is_extended());
        p.check_integrity().unwrap();
    }

    #[test]
    fn join_variables_counts_repeats() {
        let mut p = fig4();
        assert!(p.join_variables().is_empty());
        // add a second occurrence of X
        let root = p.root();
        p.add_child(root, EdgeKind::Child, PLabel::Var("X".into()));
        assert_eq!(p.join_variables(), vec![Label::from("X")]);
    }

    #[test]
    fn subtree_extraction() {
        let p = fig4();
        // find the restaurant node
        let resto = p
            .node_ids()
            .find(|&id| matches!(&p.node(id).label, PLabel::Const(l) if l.as_str() == "restaurant"))
            .unwrap();
        let sub = p.subtree(resto);
        assert_eq!(sub.len(), 7);
        assert!(
            matches!(&sub.node(sub.root()).label, PLabel::Const(l) if l.as_str() == "restaurant")
        );
        assert_eq!(sub.result_nodes().len(), 2);
        sub.check_integrity().unwrap();
    }

    #[test]
    fn wrap_in_or_inserts_transparent_choice() {
        let mut p = fig4();
        let nearby = p
            .node_ids()
            .find(|&id| matches!(&p.node(id).label, PLabel::Const(l) if l.as_str() == "nearby"))
            .unwrap();
        let or = p.wrap_in_or(nearby);
        let f = p.add_child(or, EdgeKind::Child, PLabel::Fun(FunMatch::Any));
        assert!(matches!(p.node(or).label, PLabel::Or));
        assert_eq!(p.node(or).children, vec![nearby, f]);
        assert!(p.is_extended());
        p.check_integrity().unwrap();
    }

    #[test]
    fn remove_subtree_detaches() {
        let mut p = fig4();
        let nearby = p
            .node_ids()
            .find(|&id| matches!(&p.node(id).label, PLabel::Const(l) if l.as_str() == "nearby"))
            .unwrap();
        p.remove_subtree(nearby);
        assert_eq!(p.node(p.root()).children.len(), 2);
        p.check_integrity().unwrap();
    }

    #[test]
    fn fun_match_accepts() {
        assert!(FunMatch::Any.accepts("anything"));
        let m = FunMatch::OneOf(vec!["getRating".into()]);
        assert!(m.accepts("getRating"));
        assert!(!m.accepts("getHotels"));
    }
}
