//! The subscription engine's last materialization, and where each call of
//! its base document sits in it.
//!
//! Every visible call of the base document has a *place*: the run of
//! siblings its result took in the materialization (the call itself
//! while it is pending), and the earliest expiry of the cache entries the
//! run was built from — the call's own entry and those of the calls nested
//! in its result. A refresh works on a [`Round`]: a copy of the
//! materialization in which every place whose entries have expired holds
//! its base call again. The engine then completes that copy for each
//! standing query and records the completions' splices, which move the
//! places; a published round becomes the next materialization.
//!
//! A base call's parent is a data node outside every call, so no splice
//! and no restore ever frees it: it keeps its node id in every
//! materialization, and the places under one parent stay in document
//! order, each run after the one before it.

use axml_core::Splice;
use axml_xml::{Document, NodeId};
use std::collections::HashMap;
use std::ops::Range;

/// One base call's run in a materialization.
#[derive(Clone, Debug)]
struct Place {
    /// The call in the base document, copied back when its run lapses.
    call: NodeId,
    /// Its parent, `None` at the root.
    parent: Option<NodeId>,
    /// The position of the run among the parent's children.
    at: usize,
    /// How many siblings the run spans: 1 while the call is pending, its
    /// result's root count once spliced, grown by the roots of calls
    /// nested among those roots.
    len: usize,
    /// Whether the run is the call itself, not yet spliced.
    pending: bool,
    /// When the first cache entry the run was built from expires;
    /// infinite while the call is pending.
    expires_at_ms: f64,
    /// The call's class: its parent's label path in the call index.
    class: u32,
}

/// The engine's last materialization, with the base document it was
/// built from and every base call's place in it.
pub(crate) struct Materialization {
    /// The base document: every call pending.
    base: Document,
    /// The last materialization: the base with results spliced in.
    doc: Document,
    /// One per visible base call, grouped by parent and in document order
    /// within a group.
    places: Vec<Place>,
    /// Per parent of a visible base call (`None` for the roots), the range
    /// of its places.
    groups: HashMap<Option<NodeId>, Range<usize>>,
}

/// One refresh's working copy of a [`Materialization`].
pub(crate) struct Round {
    /// The copy the standing queries are completed on.
    pub(crate) doc: Document,
    places: Vec<Place>,
    /// The class of every call the round restored or spliced, with
    /// repeats: every change the round made. The class table only grows
    /// and clones share it, so a base call's class is the round
    /// document's too.
    classes: Vec<u32>,
    /// Whether the round invoked a call.
    pub(crate) invoked: bool,
}

impl Materialization {
    /// The materialization of `base` before any refresh: `base` itself,
    /// every call pending at its own position.
    pub(crate) fn of(base: Document) -> Self {
        let mut places: Vec<Place> = Vec::new();
        for call in base.calls() {
            // a call inside another call's parameters is never spliced
            let Some(class) = base.call_class(call) else {
                continue;
            };
            places.push(Place {
                call,
                parent: base.parent(call),
                at: base.sibling_index(call),
                len: 1,
                pending: true,
                expires_at_ms: f64::INFINITY,
                class,
            });
        }
        // stable: document order within each parent's group
        places.sort_by_key(|p| p.parent);
        let mut groups: HashMap<Option<NodeId>, Range<usize>> = HashMap::new();
        for (i, p) in places.iter().enumerate() {
            groups.entry(p.parent).or_insert(i..i).end = i + 1;
        }
        Materialization {
            doc: base.clone(),
            base,
            places,
            groups,
        }
    }

    /// A working copy of the materialization in which every spliced base
    /// call whose run lapsed by `now_ms` (an entry it was built from
    /// expired at or before it) is pending again, in place of its run.
    pub(crate) fn round(&self, now_ms: f64) -> Round {
        let mut round = Round {
            doc: self.doc.clone(),
            places: self.places.clone(),
            classes: Vec::new(),
            invoked: false,
        };
        for i in 0..round.places.len() {
            let p = &mut round.places[i];
            if p.pending || p.expires_at_ms > now_ms {
                continue;
            }
            round
                .doc
                .restore_call(p.parent, p.at, p.len, &self.base, p.call);
            let removed = std::mem::replace(&mut p.len, 1);
            p.pending = true;
            p.expires_at_ms = f64::INFINITY;
            round.classes.push(p.class);
            round.shift_after(i, removed, 1);
        }
        round
    }

    /// Records the splices one completion made on `round.doc`, in order:
    /// a splice of a pending base call gives its place the result's roots
    /// and expiry; a splice of a call nested in a result moves the expiry
    /// of the place holding it to the earlier of the two, and one among
    /// the result's roots puts its own roots in the run.
    pub(crate) fn record(&self, round: &mut Round, splices: &[Splice]) {
        // positions are exact only in splice order, so calls nested
        // deeper, found through the finished document, go last
        let mut deeper = Vec::new();
        for s in splices {
            round.invoked |= s.invoked;
            round.classes.push(s.class);
            let Some(group) = self.groups.get(&s.parent) else {
                deeper.push(s);
                continue;
            };
            let i = round.place_at(group.clone(), s.position);
            let p = &mut round.places[i];
            // the consumed call is one of the run's siblings
            p.len = p.len - 1 + s.roots.len();
            p.pending = false;
            p.expires_at_ms = p.expires_at_ms.min(s.expires_at_ms);
            round.shift_after(i, 1, s.roots.len());
        }
        for s in deeper {
            let mut top = s.parent.expect("a root call has a place");
            let group = loop {
                let up = round.doc.parent(top);
                if let Some(group) = self.groups.get(&up) {
                    break group.clone();
                }
                top = up.expect("a nested call lies inside a place's run");
            };
            let i = round.place_at(group, round.doc.sibling_index(top));
            let p = &mut round.places[i];
            p.expires_at_ms = p.expires_at_ms.min(s.expires_at_ms);
        }
    }

    /// Makes a published round the materialization.
    pub(crate) fn adopt(&mut self, round: Round) {
        self.doc = round.doc;
        self.places = round.places;
    }
}

impl Round {
    /// The classes where `doc` differs from the materialization it was
    /// copied from, sorted and distinct: the class of each call the round
    /// restored or spliced.
    pub(crate) fn changed_classes(&self) -> Vec<u32> {
        let mut classes = self.classes.clone();
        classes.sort_unstable();
        classes.dedup();
        classes
    }

    /// The place among `group` whose run holds `position`.
    fn place_at(&self, group: Range<usize>, position: usize) -> usize {
        group
            .into_iter()
            .find(|&i| {
                let p = &self.places[i];
                p.at <= position && position < p.at + p.len
            })
            .expect("every spliced call sits in a place's run")
    }

    /// Moves the runs after place `i` under the same parent for `removed`
    /// siblings of its run replaced by `inserted` ones. A later run starts
    /// after the whole of this one, so no position falls below zero.
    fn shift_after(&mut self, i: usize, removed: usize, inserted: usize) {
        if removed == inserted {
            return;
        }
        let parent = self.places[i].parent;
        for p in self.places[i + 1..].iter_mut() {
            if p.parent != parent {
                break;
            }
            p.at = p.at - removed + inserted;
        }
    }
}
