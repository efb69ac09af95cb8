//! The call table: where call-anchored relevance detection finds an
//! NFQ's positional candidates.
//!
//! Detection starts from the live calls rather than from the document, as
//! the paper's own remedies do: LPQs retrieve a positional superset of the
//! relevant calls (§3.1), and the F-guide finds calls by path before
//! checking an NFQ's remaining conditions on just those (§6.2). A live
//! call's two positional facts never change while it lives, because its
//! ancestors are removed only together with it:
//!
//! * whether it is *visible* — every ancestor a data node, so it is not
//!   nested inside another call's parameters;
//! * the label path of its parent, interned here as a *class*.
//!
//! So [`CallTable`] computes both once per call, keyed by [`CallId`], and
//! [`ClassVerdicts`] decides once per class whether an NFQ's position
//! automaton accepts it. An NFQ's positional scan then costs one table
//! lookup per live call (on the default path, only per call of a service
//! its refined output accepts) plus one verdict per class, and an NFQ with
//! no such call at its output position never walks the document.

use super::SymAuto;
use crate::nfq::Nfq;
use axml_query::{FunMatch, FxBuildHasher, PLabel};
use axml_xml::{CallId, Document, NodeId};
use std::collections::{HashMap, HashSet};

/// Per-run facts about every call seen so far. See the module docs for
/// why entries never go stale.
#[derive(Debug, Default)]
pub(crate) struct CallTable {
    /// The call's parent-path class, or `None` when the call is hidden
    /// inside another call's parameters.
    class: HashMap<CallId, Option<u32>, FxBuildHasher>,
    /// Interned parent label paths (as document symbols) → class.
    classes: HashMap<Vec<u32>, u32, FxBuildHasher>,
    /// Class → its parent label path.
    paths: Vec<Vec<u32>>,
    /// Scratch for the path being classified.
    path: Vec<u32>,
}

impl CallTable {
    /// The class of the parent label path of the live call `id` at
    /// `node`, or `None` when the call is not visible to queries.
    /// Computed on the call's first sighting only.
    pub(crate) fn class_of(&mut self, doc: &Document, node: NodeId, id: CallId) -> Option<u32> {
        *self.class.entry(id).or_insert_with(|| {
            let path = &mut self.path;
            path.clear();
            let mut cur = doc.parent(node);
            while let Some(p) = cur {
                if !doc.is_data(p) {
                    return None;
                }
                path.push(doc.sym(p));
                cur = doc.parent(p);
            }
            path.reverse();
            if let Some(&class) = self.classes.get(path.as_slice()) {
                return Some(class);
            }
            let class = self.paths.len() as u32;
            self.paths.push(path.clone());
            self.classes.insert(path.clone(), class);
            Some(class)
        })
    }

    /// The services type refinement must consider: the sorted names of the
    /// visible calls whose ids are not in `dead`. A name needs one such
    /// call, so the calls of a name already found skip the table.
    pub(crate) fn known_services(&mut self, doc: &Document, dead: &HashSet<CallId>) -> Vec<String> {
        let mut found = vec![false; doc.sym_count()];
        let mut names = Vec::new();
        for &node in doc.calls_unordered() {
            let sym = doc.sym(node);
            let Some((id, _)) = doc.call_info(node) else {
                continue;
            };
            if !found[sym as usize] && !dead.contains(&id) && self.class_of(doc, node, id).is_some()
            {
                found[sym as usize] = true;
                names.push(doc.sym_text(sym).to_string());
            }
        }
        names.sort_unstable();
        names
    }

    /// The parent label path of a class.
    fn path(&self, class: u32) -> &[u32] {
        &self.paths[class as usize]
    }
}

/// The interned services the NFQ's output node accepts; `None` accepts
/// every call. The output is a function node by construction; anything
/// else never matches a call.
pub(crate) fn output_services(nfq: &Nfq, doc: &Document) -> Option<Vec<u32>> {
    match &nfq.pattern.node(nfq.output).label {
        PLabel::Fun(FunMatch::Any) => None,
        PLabel::Fun(FunMatch::OneOf(names)) => Some(
            names
                .iter()
                .filter_map(|l| doc.lookup_sym(l.as_str()))
                .collect(),
        ),
        _ => Some(Vec::new()),
    }
}

/// One NFQ's position automaton, compiled against a document's symbol
/// table, with its memoized verdict per call class.
pub(crate) struct ClassVerdicts {
    /// `Document::sym_count` at compile time. A label the NFQ names may
    /// be interned later, first by a splice; the automaton compiled
    /// without it would reject every path through it, so a grown table
    /// means recompiling and forgetting every verdict.
    stamp: usize,
    auto: SymAuto,
    verdicts: Vec<Option<bool>>,
}

impl ClassVerdicts {
    /// Compiles `position` against the document's current symbols.
    pub(crate) fn compile(position: &axml_schema::Nfa, doc: &Document) -> ClassVerdicts {
        ClassVerdicts {
            stamp: doc.sym_count(),
            auto: SymAuto::compile(position.compile_syms(|l| doc.lookup_sym(l))),
            verdicts: Vec::new(),
        }
    }

    /// Were these verdicts compiled against the document's current
    /// symbol table?
    pub(crate) fn is_current(&self, doc: &Document) -> bool {
        self.stamp == doc.sym_count()
    }

    /// Does the position automaton accept the parent path of `class`?
    pub(crate) fn accepts(&mut self, table: &CallTable, class: u32) -> bool {
        let i = class as usize;
        if i >= self.verdicts.len() {
            self.verdicts.resize(i + 1, None);
        }
        *self.verdicts[i].get_or_insert_with(|| self.auto.accepts(table.path(class)))
    }
}
