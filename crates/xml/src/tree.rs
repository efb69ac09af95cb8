//! Arena-backed ordered labeled trees with data and function nodes.
//!
//! This is the document model of the paper (Section 2): an AXML document is
//! an ordered labeled tree whose *data nodes* carry element names or data
//! values, and whose *function nodes* represent embedded calls to Web
//! services. The children of a function node are the parameters of the call;
//! when the call is invoked its result forest replaces the function node
//! in place (see [`Document::splice_call`]).
//!
//! A node names its label — element name, data value or service name — by
//! an interned symbol only; the text lives once, in the document's symbol
//! table. [`NodeKind`] therefore carries no label, and a node slot (56
//! bytes) holds only integers and a window into a shared child list: its
//! children are `child_len` ids from `child_off` on. A node built child by
//! child owns its list; the inner nodes of a spliced result all share the
//! one list the splice allocated. A node appends in place only to a list
//! no other node holds, and copies it otherwise, so writing one node's
//! children never shows in another's.
//!
//! Storage is paged and copy-on-write: nodes live in fixed-size pages held
//! behind [`Arc`]s, and the symbol table and label index share structure the
//! same way. `Document::clone` therefore copies only page *pointers* — O(n /
//! PAGE_SIZE) — and a clone that mutates pays for exactly the pages it
//! touches. Copying a page copies each node's kind, parent and symbol and
//! bumps the count of its child list, which stays shared until one side
//! writes it. A label bucket holding one node keeps its id inline; larger
//! buckets are shared vectors. The label-index back-pointers live in side
//! pages of `u32`s, so the swap-removes that keep the index dense never
//! copy a page of nodes. This is what makes per-query snapshots and the
//! multi-session serving layer (see `axml-store`) affordable: N concurrent
//! sessions snapshot one shared document and each works on a logically
//! private copy.
//!
//! Splicing reads the result forest through its *splice plan*, computed at
//! the forest's first splice and dropped by any change to it. A splice
//! reads a *compact* forest: its live slots are in pre-order, its label
//! buckets in slot order and its symbols numbered in order of first use.
//! Parsed, wire-decoded and top-down-built forests are compact and are read
//! as they stand; the plan of any other holds a compact copy, made once. A
//! splice then maps each label once, allocates the nodes in pre-order and
//! fills one child list, so a stored reply spliced again walks no tree and
//! allocates no buffer per node. Each plan label keeps, as a hint, the
//! symbol it got in the last document it was spliced into; a splice uses
//! the hint only when its own symbol table holds that label under it, and
//! interns the label otherwise. The result is exactly the per-node copy's:
//! the same node ids, call ids, symbols, classes and label-bucket order.
//!
//! The document also owns its call index, the function-call guide (F-guide)
//! of the paper's Section 6.2. A call's *class* is the interned label path
//! of its parent, or none when the call sits inside another call's
//! parameters, where no query navigates. Neither fact changes while the
//! call lives, because its ancestors are removed only together with it, so
//! the class is computed once, when the call is allocated. Each class's
//! *extent* holds its live calls, and every builder, splice, free and wire
//! decode keeps the extents current: the guide is "maintained
//! incrementally as calls are invoked". The class table is append-only and
//! shared between clones like the symbol table. A document without a
//! visible call — most service results — allocates nothing for the index
//! and spends one pointer on it.

use crate::label::Label;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};

/// Nodes per storage page (a power of two so id→page is a shift/mask).
const PAGE_BITS: usize = 6;
const PAGE_SIZE: usize = 1 << PAGE_BITS;
const PAGE_MASK: usize = PAGE_SIZE - 1;

/// A plan label's hint before its first splice, and a forest symbol a
/// splice has not mapped.
const UNMAPPED: u32 = u32::MAX;

/// Fills the unused tail of a child list, and a table before it is
/// written.
const NO_NODE: NodeId = NodeId(u32::MAX);

/// The parent slot of a root (and of a freed slot).
const NO_PARENT: u32 = u32::MAX;

/// Forests with at most this many nodes and symbols are spliced with
/// scratch tables on the stack.
const SMALL_FOREST: usize = 64;

/// The class of a data node, and of a call hidden in another call's
/// parameters.
const NO_CLASS: u32 = u32::MAX;

/// Index of a node inside a [`Document`] arena.
///
/// Node ids are stable for the lifetime of the node: splicing frees the ids
/// of the removed subtree and may later reuse them for inserted nodes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// The raw arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identity of a function-call node, unique within a document and stable
/// across splices (so experiments can refer to "call #3" as the paper does
/// with its numbered function nodes in Figure 1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CallId(pub u64);

impl fmt::Debug for CallId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// What a tree node is. The node's label lives in the document's symbol
/// table: read it with [`Document::label`] (or [`Document::text_value`]
/// and [`Document::call_info`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// A data node labeled with an element name.
    Element,
    /// A leaf data node labeled with a data value.
    Text,
    /// A function node: an embedded call to the service its label names.
    /// Children of the node are the call parameters.
    Call(CallId),
}

impl NodeKind {
    /// `true` for element and text nodes (the nodes queries may match).
    pub fn is_data(&self) -> bool {
        !matches!(self, NodeKind::Call(..))
    }
}

#[derive(Clone, Debug)]
struct Node {
    kind: NodeKind,
    /// The list holding the node's child ids in document order: `child_len`
    /// entries from `child_off` on (`None` until the first child). The
    /// inner nodes of a spliced result share one list, and a page clone
    /// shares it with its copies; a node writes it in place only while it
    /// is the list's one holder. Reading it is one indirection, as with a
    /// `Vec`.
    children: Option<Arc<[NodeId]>>,
    /// The parent's slot, or [`NO_PARENT`].
    parent: u32,
    /// Interned symbol of the node's label (element name, text value or
    /// service name) in the document's symbol table.
    sym: u32,
    child_off: u32,
    child_len: u32,
    /// A visible call's class in the call index; [`NO_CLASS`] otherwise.
    class: u32,
    alive: bool,
}

impl Node {
    /// A live node without children, and without a class yet.
    fn new(kind: NodeKind, sym: u32, parent: Option<NodeId>) -> Self {
        Node {
            kind,
            children: None,
            parent: parent.map_or(NO_PARENT, |p| p.0),
            sym,
            child_off: 0,
            child_len: 0,
            class: NO_CLASS,
            alive: true,
        }
    }

    fn parent(&self) -> Option<NodeId> {
        (self.parent != NO_PARENT).then_some(NodeId(self.parent))
    }

    fn children(&self) -> &[NodeId] {
        let at = self.child_off as usize;
        self.children
            .as_deref()
            .map_or(&[], |list| &list[at..at + self.child_len as usize])
    }
}

/// The live nodes carrying one symbol, in arbitrary order. Most symbols
/// are text values that label one node, so a bucket of one keeps the id
/// inline and allocates nothing; two or more share a vector between clones
/// until one side writes it.
#[derive(Clone, Debug, Default)]
enum Bucket {
    #[default]
    Empty,
    One(NodeId),
    Many(Arc<Vec<NodeId>>),
}

impl Bucket {
    fn as_slice(&self) -> &[NodeId] {
        match self {
            Bucket::Empty => &[],
            Bucket::One(id) => std::slice::from_ref(id),
            Bucket::Many(ids) => ids,
        }
    }

    /// Appends `ids` and returns the position of the first.
    fn extend(&mut self, mut ids: impl ExactSizeIterator<Item = NodeId>) -> usize {
        let start = self.as_slice().len();
        match self {
            _ if ids.len() == 0 => {}
            Bucket::Many(list) => Arc::make_mut(list).extend(ids),
            Bucket::Empty if ids.len() == 1 => *self = Bucket::One(ids.next().expect("one id")),
            _ => {
                let mut list = Vec::with_capacity(start + ids.len());
                list.extend_from_slice(self.as_slice());
                list.extend(ids);
                *self = Bucket::Many(Arc::new(list));
            }
        }
        start
    }

    /// Swap-removes the entry at `pos` and returns the id moved into it.
    /// A bucket left with one node stores it inline again.
    fn swap_remove(&mut self, pos: usize) -> Option<NodeId> {
        match self {
            Bucket::Empty => unreachable!("removal from an empty bucket"),
            Bucket::One(_) => {
                *self = Bucket::Empty;
                None
            }
            Bucket::Many(ids) if ids.len() == 2 => {
                let kept = ids[1 - pos];
                *self = Bucket::One(kept);
                (pos == 0).then_some(kept)
            }
            Bucket::Many(ids) => {
                let ids = Arc::make_mut(ids);
                ids.swap_remove(pos);
                ids.get(pos).copied()
            }
        }
    }
}

/// How a splice reads a forest, computed at the forest's first splice
/// ([`Document::splice_plan`]) and dropped by any change to it. A splice
/// reads a *compact* forest: its live slots are in pre-order, its label
/// buckets in slot order and its symbols numbered in order of first use,
/// the order in which a per-node copy interns them. A compact forest is
/// read as it stands; any other is first copied once into one.
#[derive(Debug)]
struct SplicePlan {
    /// The compact copy of a forest that is not compact itself.
    compact: Option<Box<Document>>,
    /// Per label of the compact forest, by its symbol there: the symbol
    /// the label got in the last document it was spliced into, valid in
    /// another document only where that document's table holds the same
    /// text under it. Splices on other threads may race to set it, so
    /// every read is checked; it publishes no other data, so it is read
    /// and written `Relaxed`.
    labels: Box<[AtomicU32]>,
}

impl SplicePlan {
    fn of(forest: &Document) -> Self {
        let (compact, labels) = match forest.compact_labels() {
            Some(labels) => (None, labels),
            None => {
                let mut copy = Document::new();
                for &r in &forest.roots {
                    copy.append_copy_as_root(forest, r);
                }
                let labels = copy.sym_count();
                (Some(Box::new(copy)), labels)
            }
        };
        SplicePlan {
            compact,
            labels: (0..labels).map(|_| AtomicU32::new(UNMAPPED)).collect(),
        }
    }
}

/// A fixed-capacity run of up to [`PAGE_SIZE`] consecutive arena slots.
/// Pages are shared between document clones until one side writes.
#[derive(Clone, Debug, Default)]
struct Page {
    nodes: Vec<Node>,
}

/// Arena slots per side page of a [`SlotTable`]: eight node pages, so a
/// document clone bumps one count per eight node pages for each table.
const SIDE_BITS: usize = PAGE_BITS + 3;
const SIDE_MASK: usize = (1 << SIDE_BITS) - 1;

/// One `u32` per arena slot, in pages shared between clones until
/// written: the label-index back-pointers. A swap-remove in the index
/// rewrites the moved node's position, so keeping positions here means
/// that write copies a page of integers (at most 2 KiB), not a page of
/// nodes. Like a node page, the last page holds only the slots in use, so
/// a small forest keeps small tables.
#[derive(Clone, Debug, Default)]
struct SlotTable {
    pages: Vec<Arc<Vec<u32>>>,
}

impl SlotTable {
    fn get(&self, slot: usize) -> u32 {
        self.pages[slot >> SIDE_BITS][slot & SIDE_MASK]
    }

    fn set(&mut self, slot: usize, value: u32) {
        self.set_run(slot, &[value]);
    }

    /// Sets the slots from `start` on to `values`, writing each side page
    /// once.
    fn set_run(&mut self, start: usize, values: &[u32]) {
        let mut done = 0;
        while done < values.len() {
            let slot = start + done;
            let page = slot >> SIDE_BITS;
            if page >= self.pages.len() {
                self.pages.resize_with(page + 1, Default::default);
            }
            let entries = Arc::make_mut(&mut self.pages[page]);
            let at = slot & SIDE_MASK;
            let take = (SIDE_MASK + 1 - at).min(values.len() - done);
            if entries.len() < at + take {
                entries.resize(at + take, 0);
            }
            entries[at..at + take].copy_from_slice(&values[done..done + take]);
            done += take;
        }
    }
}

/// Per-document label interner: every distinct label text gets a stable
/// `u32` symbol, so label equality inside one document is an integer
/// compare. Symbols are never reclaimed — the table only grows.
#[derive(Clone, Debug, Default)]
struct SymTab {
    by_text: std::collections::HashMap<Label, u32>,
    labels: Vec<Label>,
}

impl SymTab {
    /// Interns arbitrary text (allocates a `Label` only on first sight).
    fn intern_str(&mut self, text: &str) -> u32 {
        if let Some(&s) = self.by_text.get(text) {
            return s;
        }
        let l = Label::from(text);
        let s = self.labels.len() as u32;
        self.labels.push(l.clone());
        self.by_text.insert(l, s);
        s
    }

    /// Interns an existing label (clones only the `Arc`).
    fn intern_label(&mut self, l: &Label) -> u32 {
        if let Some(&s) = self.by_text.get(l.as_str()) {
            return s;
        }
        let s = self.labels.len() as u32;
        self.labels.push(l.clone());
        self.by_text.insert(l.clone(), s);
        s
    }

    fn lookup(&self, text: &str) -> Option<u32> {
        self.by_text.get(text).copied()
    }
}

/// The call index's class table: every parent label path (as symbols) a
/// visible call of the document has had, numbered in order of first
/// sight. Classes are never reclaimed — the table only grows, so a class
/// number keeps its meaning for the document's lifetime.
#[derive(Clone, Debug, Default)]
struct ClassTab {
    by_path: std::collections::HashMap<Vec<u32>, u32>,
    paths: Vec<Vec<u32>>,
}

/// The call index: the class table and, per class, its extent.
#[derive(Clone, Debug, Default)]
struct CallIndex {
    /// Shared between clones until one side adds a class.
    classes: Arc<ClassTab>,
    /// Per class: its visible live calls, sorted by node id, so a call
    /// is found by binary search rather than through a side table of
    /// positions, which would cost 4 bytes per arena slot. Extents are
    /// shared between clones until written.
    extents: Vec<Arc<Vec<NodeId>>>,
    /// Per service symbol with visible live calls: how many it has, in
    /// arbitrary order.
    services: Vec<(u32, u32)>,
}

impl CallIndex {
    /// The class of `path`, added to the table on first sight.
    fn class_of_path(&mut self, path: Vec<u32>) -> u32 {
        if let Some(&class) = self.classes.by_path.get(&path) {
            return class;
        }
        let table = Arc::make_mut(&mut self.classes);
        let class = table.paths.len() as u32;
        table.by_path.insert(path.clone(), class);
        table.paths.push(path);
        self.extents.push(Arc::default());
        class
    }

    /// Enters the visible call `id` of service `sym` in its class's extent.
    fn insert(&mut self, id: NodeId, sym: u32, class: u32) {
        let extent = Arc::make_mut(&mut self.extents[class as usize]);
        let at = extent.binary_search(&id).expect_err("a new call");
        extent.insert(at, id);
        match self.services.iter_mut().find(|(s, _)| *s == sym) {
            Some((_, count)) => *count += 1,
            None => self.services.push((sym, 1)),
        }
    }

    /// Removes the visible call `id` of service `sym` from its class's
    /// extent.
    fn remove(&mut self, id: NodeId, sym: u32, class: u32) {
        let extent = Arc::make_mut(&mut self.extents[class as usize]);
        let at = extent
            .binary_search(&id)
            .expect("a visible call is in its extent");
        extent.remove(at);
        let at = self
            .services
            .iter()
            .position(|&(s, _)| s == sym)
            .expect("a visible call's service is counted");
        self.services[at].1 -= 1;
        if self.services[at].1 == 0 {
            self.services.swap_remove(at);
        }
    }
}

/// An ordered labeled tree (or forest) with data and function nodes.
///
/// Most documents have a single root; service results are forests and a
/// splice at the root can turn a document into a forest, so the type
/// supports multiple roots throughout.
///
/// Cloning is cheap (copy-on-write pages, see the module docs), which is
/// what snapshot-per-query sessions and concurrent serving build on.
#[derive(Clone, Debug, Default)]
pub struct Document {
    /// Node storage: `slots` arena slots packed into `Arc`-shared pages of
    /// [`PAGE_SIZE`]. Every page except the last is full.
    pages: Vec<Arc<Page>>,
    /// Total allocated slots (live + freed), i.e. the arena's high-water
    /// mark; slot `i` lives in `pages[i >> PAGE_BITS]`.
    slots: u32,
    roots: Vec<NodeId>,
    free: Vec<u32>,
    next_call: u64,
    symtab: Arc<SymTab>,
    /// Label→node index, indexed by interned symbol: the live nodes
    /// carrying that label, in arbitrary order (removal is `swap_remove`).
    /// Symbols are dense, so a slot is found without hashing; the table
    /// may end before the last symbols, whose buckets are empty.
    /// Maintained by every mutator, including [`Document::splice_call`].
    buckets: Vec<Bucket>,
    /// Each live node's position inside its label bucket, for O(1) removal.
    bucket_pos: SlotTable,
    /// All live function-call nodes, in arbitrary order.
    call_list: Vec<NodeId>,
    /// Each live call node's position inside `call_list`.
    call_pos: SlotTable,
    /// The call index; `None` until the first visible call, so that the
    /// many call-free forests a registry holds pay one pointer for it.
    index: Option<Box<CallIndex>>,
    /// When `true`, [`Document::splice_call`] records every splice in
    /// `journal_ops` so a durability layer can persist the delta between
    /// two published versions instead of the whole document.
    journal_on: bool,
    /// Set by every *non-splice* structural mutation while the journal is
    /// on: the journal alone no longer reproduces the document, so the
    /// next [`Document::take_splice_journal`] must report "unknown delta".
    journal_dirty: bool,
    journal_ops: Vec<SpliceOp>,
    /// How splices read this document as a result forest; set by the
    /// first splice of it, dropped by every node allocation and free.
    plan: OnceLock<Arc<SplicePlan>>,
}

/// A forest of AXML trees — the shape of a service-call result.
pub type Forest = Document;

/// One recorded splice: the consumed call's identity and the result forest
/// that replaced it. A sequence of `SpliceOp`s applied (in order, via
/// [`Document::splice_by_call_id`]) to the pre-state reproduces the
/// post-state exactly — including the fresh [`CallId`]s assigned to calls
/// inside the result, because splicing draws them deterministically from
/// the document's monotone call counter. This is what the durability layer
/// (`axml-store`) persists instead of whole documents.
#[derive(Clone, Debug)]
pub struct SpliceOp {
    /// The call that was consumed.
    pub call: CallId,
    /// The forest spliced in its place, shared with whoever produced it
    /// (see [`Document::splice_shared`]).
    pub result: Arc<Forest>,
}

impl Document {
    /// An empty forest.
    pub fn new() -> Self {
        Document::default()
    }

    /// A document with a single element root.
    pub fn with_root(label: impl Into<Label>) -> Self {
        let mut d = Document::new();
        d.add_root(label);
        d
    }

    /// The root ids of the forest, in order.
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// The unique root of a single-rooted document.
    ///
    /// # Panics
    /// Panics if the document is empty or has several roots.
    pub fn root(&self) -> NodeId {
        assert_eq!(
            self.roots.len(),
            1,
            "Document::root on a forest with {} roots",
            self.roots.len()
        );
        self.roots[0]
    }

    /// Shared read access to an arena slot (may be freed).
    #[inline]
    fn node_raw(&self, index: usize) -> &Node {
        &self.pages[index >> PAGE_BITS].nodes[index & PAGE_MASK]
    }

    /// Exclusive access to an arena slot; clones the owning page first if
    /// it is shared with another document (copy-on-write).
    #[inline]
    fn node_raw_mut(&mut self, index: usize) -> &mut Node {
        let page = Arc::make_mut(&mut self.pages[index >> PAGE_BITS]);
        &mut page.nodes[index & PAGE_MASK]
    }

    /// Appends `child` to `parent`'s child list: in place while the list
    /// has room after the node's window and no other node or document
    /// holds it, otherwise into a copy twice as long, so appends stay
    /// amortized O(1).
    fn push_child(&mut self, parent: NodeId, child: NodeId) {
        let n = self.node_raw_mut(parent.index());
        let end = (n.child_off + n.child_len) as usize;
        match n.children.as_mut().and_then(Arc::get_mut) {
            Some(list) if end < list.len() => list[end] = child,
            _ => {
                let capacity = (2 * n.child_len as usize).max(4);
                n.children = Some(child_list(&[n.children(), &[child]], capacity));
                n.child_off = 0;
            }
        }
        n.child_len += 1;
    }

    fn intern_str(&mut self, text: &str) -> u32 {
        // Look up first so already-interned labels never unshare the table.
        if let Some(s) = self.symtab.lookup(text) {
            return s;
        }
        Arc::make_mut(&mut self.symtab).intern_str(text)
    }

    fn intern_label(&mut self, l: &Label) -> u32 {
        if let Some(s) = self.symtab.lookup(l.as_str()) {
            return s;
        }
        Arc::make_mut(&mut self.symtab).intern_label(l)
    }

    fn fresh_call_id(&mut self) -> CallId {
        let cid = CallId(self.next_call);
        self.next_call += 1;
        cid
    }

    /// The class of a call allocated under `parent`: its parent label
    /// path interned in the class table, or [`NO_CLASS`] when an ancestor
    /// is a call.
    fn classify(&mut self, parent: Option<NodeId>) -> u32 {
        let mut path = Vec::new();
        let mut cur = parent;
        while let Some(p) = cur {
            let n = self.node(p);
            if !n.kind.is_data() {
                return NO_CLASS;
            }
            path.push(n.sym);
            cur = n.parent();
        }
        path.reverse();
        self.index
            .get_or_insert_with(Default::default)
            .class_of_path(path)
    }

    /// Allocates a node whose child list has room for `child_capacity`
    /// ids, in the last freed slot or a fresh one, and enters it in the
    /// label index (and a call in the call registry and its class's
    /// extent). Drops the document's splice plan.
    fn alloc(
        &mut self,
        kind: NodeKind,
        sym: u32,
        parent: Option<NodeId>,
        child_capacity: usize,
    ) -> NodeId {
        self.plan.take();
        let mut node = Node::new(kind, sym, parent);
        node.children = (child_capacity > 0).then(|| child_list(&[], child_capacity));
        let id = if let Some(slot) = self.free.pop() {
            *self.node_raw_mut(slot as usize) = node;
            NodeId(slot)
        } else {
            let slot = self.slots;
            self.slots += 1;
            let page_idx = (slot as usize) >> PAGE_BITS;
            if page_idx == self.pages.len() {
                self.pages.push(Arc::new(Page::default()));
            }
            let page = Arc::make_mut(&mut self.pages[page_idx]);
            debug_assert_eq!(page.nodes.len(), (slot as usize) & PAGE_MASK);
            page.nodes.push(node);
            NodeId(slot)
        };
        let at = sym as usize;
        if at >= self.buckets.len() {
            self.buckets.resize(at + 1, Bucket::Empty);
        }
        let pos = self.buckets[at].extend(std::iter::once(id));
        self.bucket_pos.set(id.index(), pos as u32);
        if let NodeKind::Call(_) = kind {
            self.enter_call(id, sym);
        }
        id
    }

    /// Enters the live call `id` of service `sym` in the call registry
    /// and, classified under its parent, in its class's extent.
    fn enter_call(&mut self, id: NodeId, sym: u32) {
        self.call_pos.set(id.index(), self.call_list.len() as u32);
        self.call_list.push(id);
        let class = self.classify(self.parent(id));
        if class != NO_CLASS {
            self.node_raw_mut(id.index()).class = class;
            let index = self.index.as_mut().expect("a class implies the index");
            index.insert(id, sym, class);
        }
    }

    /// Allocates a childless node as the last child of `parent`, or as
    /// the last root. Every public builder goes through here, so each one
    /// marks the splice journal dirty.
    fn add_node(&mut self, parent: Option<NodeId>, kind: NodeKind, sym: u32) -> NodeId {
        self.journal_dirty = true;
        let id = self.alloc(kind, sym, parent, 0);
        match parent {
            Some(p) => self.push_child(p, id),
            None => self.roots.push(id),
        }
        id
    }

    /// Unlinks a node from its label bucket (and a call from the call
    /// registry and its class's extent) in O(1).
    fn index_remove(&mut self, id: NodeId) {
        let n = self.node_raw(id.index());
        let (sym, class, is_call) = (n.sym, n.class, matches!(n.kind, NodeKind::Call(_)));
        let pos = self.bucket_pos.get(id.index()) as usize;
        if let Some(moved) = self.buckets[sym as usize].swap_remove(pos) {
            self.bucket_pos.set(moved.index(), pos as u32);
        }
        if is_call {
            let pos = self.call_pos.get(id.index()) as usize;
            self.call_list.swap_remove(pos);
            if let Some(&moved) = self.call_list.get(pos) {
                self.call_pos.set(moved.index(), pos as u32);
            }
        }
        if class != NO_CLASS {
            let index = self.index.as_mut().expect("a class implies the index");
            index.remove(id, sym, class);
        }
    }

    fn node(&self, id: NodeId) -> &Node {
        let n = self.node_raw(id.index());
        debug_assert!(n.alive, "access to freed node {id:?}");
        n
    }

    /// The label text of a symbol-table entry.
    fn sym_label(&self, sym: u32) -> &Label {
        &self.symtab.labels[sym as usize]
    }

    /// Whether `id` refers to a live node of this document.
    pub fn is_alive(&self, id: NodeId) -> bool {
        id.index() < self.slots as usize && self.node_raw(id.index()).alive
    }

    /// The node's kind.
    pub fn kind(&self, id: NodeId) -> NodeKind {
        self.node(id).kind
    }

    /// The node's label: element name, data value, or service name.
    pub fn label(&self, id: NodeId) -> &str {
        self.sym_label(self.node(id).sym).as_str()
    }

    /// The text value, if this is a text node.
    pub fn text_value(&self, id: NodeId) -> Option<&str> {
        let n = self.node(id);
        (n.kind == NodeKind::Text).then(|| self.sym_label(n.sym).as_str())
    }

    /// The `(CallId, service name)` pair, if this is a function node.
    pub fn call_info(&self, id: NodeId) -> Option<(CallId, &Label)> {
        match self.node(id) {
            Node {
                kind: NodeKind::Call(c),
                sym,
                ..
            } => Some((*c, self.sym_label(*sym))),
            _ => None,
        }
    }

    /// `true` for element and text nodes.
    pub fn is_data(&self, id: NodeId) -> bool {
        self.node(id).kind.is_data()
    }

    /// `true` for function-call nodes.
    pub fn is_call(&self, id: NodeId) -> bool {
        matches!(self.node(id).kind, NodeKind::Call(..))
    }

    /// Parent of the node (`None` for roots).
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.node(id).parent()
    }

    /// Children of the node, in document order.
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        self.node(id).children()
    }

    /// Number of live nodes in the document.
    pub fn len(&self) -> usize {
        self.slots as usize - self.free.len()
    }

    /// Whether the document has no nodes at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a new element child and returns its id.
    pub fn add_element(&mut self, parent: NodeId, label: impl Into<Label>) -> NodeId {
        let sym = self.intern_label(&label.into());
        self.add_node(Some(parent), NodeKind::Element, sym)
    }

    /// Appends a new text child and returns its id.
    pub fn add_text(&mut self, parent: NodeId, value: impl Into<String>) -> NodeId {
        let sym = self.intern_str(&value.into());
        self.add_node(Some(parent), NodeKind::Text, sym)
    }

    /// Appends a new function-call child and returns its id. A fresh
    /// [`CallId`] is assigned.
    pub fn add_call(&mut self, parent: NodeId, service: impl Into<Label>) -> NodeId {
        let sym = self.intern_label(&service.into());
        let cid = self.fresh_call_id();
        self.add_node(Some(parent), NodeKind::Call(cid), sym)
    }

    /// Adds a new root element to the forest.
    pub fn add_root(&mut self, label: impl Into<Label>) -> NodeId {
        let sym = self.intern_label(&label.into());
        self.add_node(None, NodeKind::Element, sym)
    }

    /// Adds a new root text node to the forest.
    pub fn add_root_text(&mut self, value: impl Into<String>) -> NodeId {
        let sym = self.intern_str(&value.into());
        self.add_node(None, NodeKind::Text, sym)
    }

    /// Adds a new root function-call node to the forest.
    pub fn add_root_call(&mut self, service: impl Into<Label>) -> NodeId {
        let sym = self.intern_label(&service.into());
        let cid = self.fresh_call_id();
        self.add_node(None, NodeKind::Call(cid), sym)
    }

    /// Appends a function-call node carrying an *explicit* call id under
    /// `parent` (or as a root), without advancing the call counter. Only
    /// the wire codec may use this: decoding must reproduce ids exactly,
    /// and it restores the counter separately via
    /// [`Document::set_next_call`].
    pub(crate) fn add_call_with_id(
        &mut self,
        parent: Option<NodeId>,
        service: &str,
        raw_id: u64,
    ) -> NodeId {
        let sym = self.intern_str(service);
        self.add_node(parent, NodeKind::Call(CallId(raw_id)), sym)
    }

    /// Restores the call counter (wire codec only; see
    /// [`Document::add_call_with_id`]).
    pub(crate) fn set_next_call(&mut self, next: u64) {
        self.next_call = next;
    }

    /// Starts (or resets) the splice journal: from now on every
    /// [`Document::splice_call`] is recorded, and every *other* structural
    /// mutation marks the journal dirty. Pending entries and the dirty
    /// flag are cleared.
    pub fn enable_splice_journal(&mut self) {
        self.journal_on = true;
        self.journal_dirty = false;
        self.journal_ops.clear();
    }

    /// Declares the journal's pending delta unknown: the next
    /// [`Document::take_splice_journal`] returns `None`, so a durable
    /// publisher falls back to a full-snapshot record. For *rebasing*
    /// publishers (e.g. subscription refresh, which re-materializes a
    /// working copy from the original base document every round) whose
    /// recorded splices are relative to that base rather than to the
    /// predecessor version — replaying them from the predecessor would
    /// corrupt recovery.
    pub fn mark_journal_unknown(&mut self) {
        self.journal_dirty = true;
    }

    /// Drains the splice journal: returns the splices applied since the
    /// journal was last enabled or drained — or `None` when the journal is
    /// off, or when a non-splice mutation made the delta unrepresentable
    /// (the caller must then fall back to persisting the whole document).
    /// Always resets the journal to clean and empty.
    pub fn take_splice_journal(&mut self) -> Option<Vec<SpliceOp>> {
        if !self.journal_on {
            return None;
        }
        let dirty = std::mem::replace(&mut self.journal_dirty, false);
        let ops = std::mem::take(&mut self.journal_ops);
        if dirty {
            None
        } else {
            Some(ops)
        }
    }

    /// Pre-order iterator over a subtree (including `root` itself).
    pub fn descendants(&self, root: NodeId) -> Descendants<'_> {
        Descendants {
            doc: self,
            stack: vec![root],
        }
    }

    /// Pre-order iterator over the whole forest.
    pub fn all_nodes(&self) -> Descendants<'_> {
        let mut stack: Vec<NodeId> = self.roots.clone();
        stack.reverse();
        Descendants { doc: self, stack }
    }

    /// All live function-call nodes in the forest, in document order.
    pub fn calls(&self) -> Vec<NodeId> {
        self.all_nodes().filter(|&n| self.is_call(n)).collect()
    }

    /// Finds the live node carrying the given call id, if any. Scans the
    /// live-call registry, which holds every call node — calls inside
    /// another call's parameters included — so no tree walk is needed.
    pub fn find_call(&self, call: CallId) -> Option<NodeId> {
        self.call_list
            .iter()
            .copied()
            .find(|&n| self.node(n).kind == NodeKind::Call(call))
    }

    /// The next [`CallId`] value this document will assign. Call ids are
    /// monotone, so this is a watermark: every call created after reading
    /// it carries an id ≥ the returned value, and every existing call a
    /// smaller one.
    pub fn next_call_id(&self) -> u64 {
        self.next_call
    }

    /// Interned symbol of the node's label. Two live nodes of the same
    /// document carry equal labels iff their symbols are equal.
    pub fn sym(&self, id: NodeId) -> u32 {
        self.node(id).sym
    }

    /// Symbol for a label text, if that text has ever been interned in this
    /// document. `None` means no node currently (or previously) carried it.
    pub fn lookup_sym(&self, text: &str) -> Option<u32> {
        self.symtab.lookup(text)
    }

    /// Text of an interned symbol.
    ///
    /// # Panics
    /// Panics if `sym` was not produced by this document's interner.
    pub fn sym_text(&self, sym: u32) -> &str {
        self.sym_label(sym).as_str()
    }

    /// Number of distinct interned label texts. Monotonically increasing:
    /// symbols are numbered from zero and never reclaimed.
    pub fn sym_count(&self) -> usize {
        self.symtab.labels.len()
    }

    /// The live nodes carrying the label with the given symbol, in
    /// **arbitrary** order (the index uses `swap_remove` on deletion).
    /// Returns an empty slice for unknown symbols.
    pub fn nodes_with_sym(&self, sym: u32) -> &[NodeId] {
        self.buckets.get(sym as usize).map_or(&[], Bucket::as_slice)
    }

    /// All live function-call nodes, in **arbitrary** order. An O(1)
    /// alternative to [`Document::calls`] when document order is
    /// irrelevant.
    pub fn calls_unordered(&self) -> &[NodeId] {
        &self.call_list
    }

    /// Number of classes in the call index: the distinct parent label
    /// paths a visible call of this document has had. Classes are
    /// numbered from zero and never reclaimed, so a class number keeps
    /// its meaning as the document changes.
    pub fn class_count(&self) -> usize {
        self.index.as_ref().map_or(0, |i| i.extents.len())
    }

    /// The parent label path of a class, as symbols from the root down.
    /// Empty for the class of root-level calls.
    ///
    /// # Panics
    /// Panics if `class` is not below [`Document::class_count`].
    pub fn class_path(&self, class: u32) -> &[u32] {
        let index = self.index.as_ref().expect("no class yet");
        &index.classes.paths[class as usize]
    }

    /// The extent of a class: the visible live calls whose parent label
    /// path is the class's, sorted by node id.
    ///
    /// # Panics
    /// Panics if `class` is not below [`Document::class_count`].
    pub fn class_extent(&self, class: u32) -> &[NodeId] {
        let index = self.index.as_ref().expect("no class yet");
        &index.extents[class as usize]
    }

    /// The class of a call node; `None` for a call inside another call's
    /// parameters, which no query reaches, and for data nodes.
    pub fn call_class(&self, id: NodeId) -> Option<u32> {
        let class = self.node(id).class;
        (class != NO_CLASS).then_some(class)
    }

    /// The service symbols that name at least one visible live call, each
    /// with the number of such calls, in **arbitrary** order.
    pub fn visible_services(&self) -> &[(u32, u32)] {
        self.index.as_ref().map_or(&[], |i| &i.services)
    }

    /// `true` if `desc` is a strict descendant of `anc` and every node on
    /// the path from `anc` (inclusive) down to `desc` (exclusive) is a data
    /// node — i.e. query navigation starting at `anc` can reach `desc`
    /// without descending into call parameters.
    pub fn reaches_through_data(&self, anc: NodeId, desc: NodeId) -> bool {
        if anc == desc {
            return false;
        }
        let mut cur = self.parent(desc);
        while let Some(p) = cur {
            if p == anc {
                return self.is_data(anc);
            }
            if !self.is_data(p) {
                return false;
            }
            cur = self.parent(p);
        }
        false
    }

    /// Labels on the path from a root down to `id` (inclusive).
    pub fn path_labels(&self, id: NodeId) -> Vec<String> {
        let mut path = Vec::new();
        let mut cur = Some(id);
        while let Some(n) = cur {
            path.push(self.label(n).to_string());
            cur = self.parent(n);
        }
        path.reverse();
        path
    }

    /// Position of `id` among its parent's children (roots: position among
    /// roots).
    pub fn sibling_index(&self, id: NodeId) -> usize {
        let list = match self.parent(id) {
            Some(p) => self.children(p),
            None => &self.roots,
        };
        list.iter()
            .position(|&c| c == id)
            .expect("node not found among its parent's children")
    }

    /// Compares two nodes by document order.
    pub fn cmp_document_order(&self, a: NodeId, b: NodeId) -> std::cmp::Ordering {
        if a == b {
            return std::cmp::Ordering::Equal;
        }
        self.order_key(a).cmp(&self.order_key(b))
    }

    /// The node's sibling positions from its root down: its root's index
    /// among the roots, then each child index on the path. Keys compare
    /// as their nodes do in document order, so a sort can compute each
    /// key once (`sort_by_cached_key`) instead of twice per comparison.
    pub fn order_key(&self, id: NodeId) -> Vec<usize> {
        let mut path = Vec::new();
        let mut cur = id;
        loop {
            path.push(self.sibling_index(cur));
            match self.parent(cur) {
                Some(p) => cur = p,
                None => break,
            }
        }
        path.reverse();
        path
    }

    /// Deep-copies the subtree rooted at `src_node` of another document as
    /// a new child of `parent` in this one. Call ids are re-assigned.
    pub fn append_copy(&mut self, parent: NodeId, src: &Document, src_node: NodeId) -> NodeId {
        self.journal_dirty = true;
        let id = self.copy_from(src, src_node, Some(parent));
        self.push_child(parent, id);
        id
    }

    /// Deep-copies the subtree rooted at `src_node` of another document as
    /// a new root of this forest. Call ids are re-assigned.
    pub fn append_copy_as_root(&mut self, src: &Document, src_node: NodeId) -> NodeId {
        self.journal_dirty = true;
        let id = self.copy_from(src, src_node, None);
        self.roots.push(id);
        id
    }

    /// Deep-copies the subtree of `src` rooted at `node` and returns the
    /// copy's root, linked up to `parent` but not yet in its child list or
    /// among the roots: the caller places it. Nodes are allocated in
    /// pre-order, so fresh call ids follow document order, and an explicit
    /// stack bounds the recursion no matter how deep the subtree is. Each
    /// label is looked up by its text, which is cheaper than mapping the
    /// whole of `src`'s symbol table when the copy is a small part of it.
    fn copy_from(&mut self, src: &Document, node: NodeId, parent: Option<NodeId>) -> NodeId {
        let mut root = None;
        let mut stack = vec![(node, parent)];
        while let Some((s, p)) = stack.pop() {
            let n = src.node(s);
            let sym = self.intern_label(src.sym_label(n.sym));
            let kind = match n.kind {
                NodeKind::Call(_) => NodeKind::Call(self.fresh_call_id()),
                k => k,
            };
            let children = src.children(s);
            let id = self.alloc(kind, sym, p, children.len());
            match (root, p) {
                (None, _) => root = Some(id),
                (Some(_), Some(p)) => self.push_child(p, id),
                (Some(_), None) => unreachable!("only the copy's root lacks a parent"),
            }
            stack.extend(children.iter().rev().map(|&c| (c, Some(id))));
        }
        root.expect("the copy has a root")
    }

    /// Frees the subtree rooted at `id` (without detaching it from its
    /// parent — callers must fix the child list). Nodes are freed in
    /// post-order, children in order, and an explicit stack bounds the
    /// recursion no matter how deep the subtree is. A node whose children
    /// are all leaves — a call with text parameters — frees without
    /// allocating.
    fn free_subtree(&mut self, id: NodeId) {
        let children = self.children(id);
        if children.iter().all(|&c| self.node(c).child_len == 0) {
            for at in 0..children.len() {
                let c = self.children(id)[at];
                self.release(c);
            }
        } else {
            // pre-order with children pushed in order visits the mirror
            // image; reversed, that is the post-order
            let mut order = Vec::new();
            let mut stack = children.to_vec();
            while let Some(n) = stack.pop() {
                order.push(n);
                stack.extend_from_slice(self.children(n));
            }
            for &n in order.iter().rev() {
                self.release(n);
            }
        }
        self.release(id);
    }

    /// Frees one node: it leaves the indexes, drops its child list and
    /// goes on the free list. Drops the document's splice plan.
    fn release(&mut self, id: NodeId) {
        self.plan.take();
        self.index_remove(id);
        let node = self.node_raw_mut(id.index());
        node.alive = false;
        node.parent = NO_PARENT;
        node.children = None;
        node.child_off = 0;
        node.child_len = 0;
        self.free.push(id.0);
    }

    /// Replaces the function node `call` by the trees of `result`, in place
    /// (Definition 2 of the paper: the node and the subtree rooted at it are
    /// deleted, and the forest is plugged in place of it).
    ///
    /// Returns the ids of the inserted roots. Call ids occurring in the
    /// result are re-assigned so they stay unique in this document. With
    /// the splice journal on, the journal keeps a copy of `result`;
    /// [`Document::splice_shared`] keeps a reference instead.
    ///
    /// # Panics
    /// Panics if `call` is not a live function node of this document.
    pub fn splice_call(&mut self, call: NodeId, result: &Forest) -> Vec<NodeId> {
        self.splice(call, result, || Arc::new(result.clone()))
    }

    /// [`Document::splice_call`] for a result held in an [`Arc`]: the
    /// splice journal records the same forest, not a copy, and later
    /// splices of the same forest reuse its plan.
    pub fn splice_shared(&mut self, call: NodeId, result: &Arc<Forest>) -> Vec<NodeId> {
        self.splice(call, result, || Arc::clone(result))
    }

    /// The splice itself; `journaled` yields the forest the journal keeps.
    /// Costs O(siblings + result nodes): see [`Document::copy_forest`].
    fn splice(
        &mut self,
        call: NodeId,
        result: &Forest,
        journaled: impl FnOnce() -> Arc<Forest>,
    ) -> Vec<NodeId> {
        assert!(self.is_alive(call), "splice on freed node");
        let NodeKind::Call(cid) = self.kind(call) else {
            panic!("splice on a non-function node");
        };
        if self.journal_on {
            self.journal_ops.push(SpliceOp {
                call: cid,
                result: journaled(),
            });
        }
        let parent = self.parent(call);
        let pos = self.sibling_index(call);
        self.free_subtree(call);
        let inserted = self.copy_forest(result, parent);
        self.replace_child(parent, pos, &inserted);
        inserted
    }

    /// Whether the live slots are `0..len` in pre-order: no slot is free,
    /// the roots and every child list ascend from slot 0, and each slot's
    /// parent is the slot before it or one of that slot's ancestors. The
    /// walks up from each slot's predecessor take O(len) steps in all,
    /// because each one leaves a subtree for good.
    fn in_pre_order(&self) -> bool {
        let ascending = |ids: &[NodeId]| ids.windows(2).all(|w| w[0] < w[1]);
        if !self.free.is_empty()
            || self.roots.first().is_some_and(|r| r.0 != 0)
            || !ascending(&self.roots)
        {
            return false;
        }
        (0..self.slots as usize).all(|i| {
            let n = self.node_raw(i);
            if !ascending(n.children()) {
                return false;
            }
            let Some(parent) = n.parent() else {
                return true;
            };
            let Some(mut at) = i.checked_sub(1).map(|before| NodeId(before as u32)) else {
                return false;
            };
            while at != parent {
                match self.node_raw(at.index()).parent() {
                    Some(up) => at = up,
                    None => return false,
                }
            }
            true
        })
    }

    /// The number of labels of a compact forest (see [`SplicePlan`]), or
    /// `None` when the forest is not compact.
    fn compact_labels(&self) -> Option<usize> {
        if !self.in_pre_order() || !(self.buckets.iter()).all(|b| b.as_slice().is_sorted()) {
            return None;
        }
        let mut next = 0;
        (0..self.slots as usize)
            .all(|i| {
                let sym = self.node_raw(i).sym as usize;
                next += usize::from(sym == next);
                sym < next
            })
            .then_some(next)
    }

    /// The splice plan of this document as a result forest, computed on
    /// first use.
    fn splice_plan(&self) -> &SplicePlan {
        self.plan.get_or_init(|| Arc::new(SplicePlan::of(self)))
    }

    /// Whether a splice reads this forest as it stands rather than through
    /// a compact copy, made once and kept until the forest changes: whether
    /// its live slots are in pre-order, its label buckets in slot order and
    /// its symbols numbered in order of first use. Parsed, wire-decoded and
    /// top-down-built forests are. Plans the forest when it has no plan.
    pub fn splices_in_place(&self) -> bool {
        self.splice_plan().compact.is_none()
    }

    /// Copies the whole of `forest` in, as the per-node copy of each root
    /// in turn would: nodes in pre-order take the free slots last freed
    /// first, then fresh ones; labels are interned in order of first use;
    /// calls get fresh ids and classes in pre-order. Returns the copied
    /// roots, linked up to `parent` but placed nowhere.
    ///
    /// It reads the forest through its plan, in its compact form, where a
    /// node's slot is its place in pre-order, in four passes: each label is
    /// mapped once and its nodes join their bucket together; one child
    /// list takes every copied child; the nodes are written, fresh slots a
    /// page at a time; and the calls join the call index.
    fn copy_forest(&mut self, forest: &Forest, parent: Option<NodeId>) -> Vec<NodeId> {
        self.plan.take();
        let plan = forest.splice_plan();
        let forest = plan.compact.as_deref().unwrap_or(forest);
        // the copy of the forest's node in slot `i`
        let mut free = std::mem::take(&mut self.free);
        let n = forest.len();
        let reused = free.len().min(n);
        let fresh = self.slots as usize - reused;
        let id_at = |i: usize| {
            NodeId(if i < reused {
                free[free.len() - 1 - i]
            } else {
                (fresh + i) as u32
            })
        };
        let copy_of = |id: NodeId| id_at(id.index());
        // the labels, hint first, with their nodes' label-index entries:
        // each node's bucket position, by slot, goes into the side pages in
        // one run
        let (mut small_map, mut large_map) = ([UNMAPPED; SMALL_FOREST], Vec::new());
        let map = scratch(&mut small_map, &mut large_map, plan.labels.len());
        let (mut small_pos, mut large_pos) = ([0; SMALL_FOREST], Vec::new());
        let positions = scratch(&mut small_pos, &mut large_pos, n);
        for (label, hint) in plan.labels.iter().enumerate() {
            let text = forest.sym_label(label as u32);
            let hinted = hint.load(Ordering::Relaxed);
            let sym = match self.symtab.labels.get(hinted as usize) {
                Some(known) if known == text => hinted,
                _ => {
                    let sym = self.intern_label(text);
                    hint.store(sym, Ordering::Relaxed);
                    sym
                }
            };
            map[label] = sym;
            if sym as usize >= self.buckets.len() {
                self.buckets.resize(sym as usize + 1, Bucket::Empty);
            }
            let carriers = forest.nodes_with_sym(label as u32);
            let start = self.buckets[sym as usize].extend(carriers.iter().map(|&c| copy_of(c)));
            for (pos, &c) in (start..).zip(carriers) {
                positions[c.index()] = pos as u32;
            }
        }
        for (i, &pos) in positions[..reused].iter().enumerate() {
            self.bucket_pos.set(id_at(i).index(), pos);
        }
        self.bucket_pos
            .set_run(self.slots as usize, &positions[reused..n]);
        let inner = n - forest.roots.len();
        let list = (inner > 0).then(|| {
            let mut list = child_list(&[], inner);
            let ids = Arc::get_mut(&mut list).expect("a fresh list is unshared");
            let mut at = 0;
            for i in 0..n {
                for &c in forest.node_raw(i).children() {
                    ids[at] = copy_of(c);
                    at += 1;
                }
            }
            list
        });
        // the nodes, in pre-order: reused slots one by one, fresh ones a
        // page at a time
        let mut next_call = self.next_call;
        let mut child_off = 0;
        let mut node_at = |i: usize| {
            let src = forest.node_raw(i);
            let kind = match src.kind {
                NodeKind::Call(_) => {
                    next_call += 1;
                    NodeKind::Call(CallId(next_call - 1))
                }
                k => k,
            };
            let up = src.parent().map_or(parent, |p| Some(copy_of(p)));
            let mut node = Node::new(kind, map[src.sym as usize], up);
            if src.child_len > 0 {
                node.children = list.clone();
                node.child_off = child_off;
                node.child_len = src.child_len;
                child_off += src.child_len;
            }
            node
        };
        for i in 0..reused {
            *self.node_raw_mut(id_at(i).index()) = node_at(i);
        }
        let mut i = reused;
        while i < n {
            let slot = self.slots as usize;
            let take = (PAGE_SIZE - (slot & PAGE_MASK)).min(n - i);
            if slot >> PAGE_BITS == self.pages.len() {
                self.pages.push(Arc::default());
            }
            let page = Arc::make_mut(&mut self.pages[slot >> PAGE_BITS]);
            // a page that splices fill is filled: size it once
            page.nodes.reserve_exact(PAGE_SIZE - page.nodes.len());
            page.nodes.extend((i..i + take).map(&mut node_at));
            self.slots += take as u32;
            i += take;
        }
        self.next_call = next_call;
        if !forest.call_list.is_empty() {
            for i in 0..n {
                let src = forest.node_raw(i);
                if let NodeKind::Call(_) = src.kind {
                    self.enter_call(id_at(i), map[src.sym as usize]);
                }
            }
        }
        let roots = forest.roots.iter().map(|&r| copy_of(r)).collect();
        free.truncate(free.len() - reused);
        self.free = free;
        roots
    }

    /// Puts `inserted` in place of the child at `pos` of `parent` (or of
    /// the root at `pos`): in place when the parent holds its list alone
    /// and it has room, otherwise into a new list of the exact length.
    fn replace_child(&mut self, parent: Option<NodeId>, pos: usize, inserted: &[NodeId]) {
        let Some(p) = parent else {
            self.roots.splice(pos..=pos, inserted.iter().copied());
            return;
        };
        let n = self.node_raw_mut(p.index());
        let (off, len) = (n.child_off as usize, n.child_len as usize);
        let new_len = len - 1 + inserted.len();
        match n.children.as_mut().and_then(Arc::get_mut) {
            Some(list) if off + new_len <= list.len() => {
                list.copy_within(off + pos + 1..off + len, off + pos + inserted.len());
                list[off + pos..off + pos + inserted.len()].copy_from_slice(inserted);
            }
            _ => {
                let old = n.children();
                let parts = [&old[..pos], inserted, &old[pos + 1..]];
                n.children = (new_len > 0).then(|| child_list(&parts, new_len));
                n.child_off = 0;
            }
        }
        n.child_len = new_len as u32;
    }

    /// Replays one recorded splice: finds the live node carrying `call`
    /// and splices `result` in its place. Returns `None` (document
    /// untouched) when no live node carries that id — replaying against
    /// the wrong base state, which recovery treats as log corruption.
    pub fn splice_by_call_id(&mut self, call: CallId, result: &Forest) -> Option<Vec<NodeId>> {
        let node = self.find_call(call)?;
        Some(self.splice_call(node, result))
    }

    /// Exhaustive structural integrity check, used by tests and property
    /// tests: every live node is reachable exactly once, parent/child links
    /// agree, freed slots are not referenced, the paged storage layout is
    /// well-formed, and the label index, call registry and call index —
    /// with the side pages holding each live node's position in them —
    /// agree with the nodes.
    pub fn check_integrity(&self) -> Result<(), String> {
        // paged storage layout: every page but the last is full, the page
        // vector covers exactly `slots` slots, and so do the side pages
        let covered: usize = self.pages.iter().map(|p| p.nodes.len()).sum();
        if covered != self.slots as usize {
            return Err(format!(
                "pages hold {covered} slots but slots = {}",
                self.slots
            ));
        }
        for (i, p) in self.pages.iter().enumerate() {
            if i + 1 < self.pages.len() && p.nodes.len() != PAGE_SIZE {
                return Err(format!("interior page {i} holds {} slots", p.nodes.len()));
            }
        }
        let side_pages = (self.slots as usize).div_ceil(SIDE_MASK + 1);
        if self.bucket_pos.pages.len() != side_pages || self.call_pos.pages.len() > side_pages {
            return Err(format!(
                "{} slots but {} bucket and {} call position pages",
                self.slots,
                self.bucket_pos.pages.len(),
                self.call_pos.pages.len()
            ));
        }
        let mut seen = vec![false; self.slots as usize];
        let mut stack: Vec<(Option<NodeId>, NodeId)> =
            self.roots.iter().map(|&r| (None, r)).collect();
        let mut live = 0usize;
        while let Some((parent, id)) = stack.pop() {
            if id.index() >= self.slots as usize {
                return Err(format!("{id:?} out of bounds"));
            }
            let n = self.node_raw(id.index());
            if !n.alive {
                return Err(format!("{id:?} reachable but freed"));
            }
            if seen[id.index()] {
                return Err(format!("{id:?} reachable twice"));
            }
            seen[id.index()] = true;
            live += 1;
            if n.parent() != parent {
                return Err(format!(
                    "{id:?} parent link {:?} != tree parent {:?}",
                    n.parent(),
                    parent
                ));
            }
            if n.sym as usize >= self.symtab.labels.len() {
                return Err(format!("{id:?} has unknown symbol {}", n.sym));
            }
            let window = (n.child_off + n.child_len) as usize;
            if window > n.children.as_deref().map_or(0, <[NodeId]>::len) {
                return Err(format!("{id:?} lists more children than its list holds"));
            }
            for &c in self.children(id) {
                stack.push((Some(id), c));
            }
        }
        if live != self.len() {
            return Err(format!(
                "{} live nodes reachable but len() = {}",
                live,
                self.len()
            ));
        }
        for (i, reached) in seen.iter().enumerate().take(self.slots as usize) {
            let n = self.node_raw(i);
            if n.alive && !reached {
                return Err(format!("n{i} alive but unreachable"));
            }
            if !n.alive && (n.children.is_some() || n.child_len > 0) {
                return Err(format!("freed n{i} still holds a child list"));
            }
        }
        let mut free_sorted: Vec<u32> = self.free.clone();
        free_sorted.sort_unstable();
        free_sorted.dedup();
        if free_sorted.len() != self.free.len() {
            return Err("duplicate entries in free list".into());
        }
        for &f in &self.free {
            if self.node_raw(f as usize).alive {
                return Err(format!("n{f} in free list but alive"));
            }
        }
        // label→node index: every live node sits in exactly the bucket of
        // its symbol at the position its side page records, and buckets
        // hold only live nodes of the right symbol
        let buckets = || {
            self.buckets
                .iter()
                .enumerate()
                .map(|(sym, b)| (sym as u32, b.as_slice()))
        };
        if let Some(sym) = self
            .buckets
            .iter()
            .position(|b| matches!(b, Bucket::Many(ids) if ids.len() < 2))
        {
            return Err(format!(
                "bucket {sym} holds fewer than two nodes out of line"
            ));
        }
        let bucket_total: usize = buckets().map(|(_, b)| b.len()).sum();
        if bucket_total != self.len() {
            return Err(format!(
                "label index holds {bucket_total} entries but {} nodes are live",
                self.len()
            ));
        }
        if self.buckets.len() > self.symtab.labels.len() {
            return Err(format!(
                "label index has {} slots but {} symbols are interned",
                self.buckets.len(),
                self.symtab.labels.len()
            ));
        }
        for (sym, bucket) in buckets() {
            for (pos, &id) in bucket.iter().enumerate() {
                let n = self.node_raw(id.index());
                if !n.alive {
                    return Err(format!("freed {id:?} still in bucket {sym}"));
                }
                if n.sym != sym {
                    return Err(format!("{id:?} in bucket {sym} but has sym {}", n.sym));
                }
                let recorded = self.bucket_pos.get(id.index());
                if recorded as usize != pos {
                    return Err(format!("{id:?} bucket position {recorded} != {pos}"));
                }
                if self.symtab.lookup(self.label(id)) != Some(sym) {
                    return Err(format!("{id:?} label not interned as {sym}"));
                }
            }
        }
        let live_calls = (0..self.slots as usize)
            .filter(|&i| {
                let n = self.node_raw(i);
                n.alive && matches!(n.kind, NodeKind::Call(..))
            })
            .count();
        if self.call_list.len() != live_calls {
            return Err(format!(
                "call registry holds {} entries but {live_calls} calls are live",
                self.call_list.len()
            ));
        }
        let mut call_ids = std::collections::HashSet::new();
        for (pos, &id) in self.call_list.iter().enumerate() {
            let n = self.node_raw(id.index());
            let (true, NodeKind::Call(cid)) = (n.alive, n.kind) else {
                return Err(format!("call registry entry {id:?} is not a live call"));
            };
            let recorded = self.call_pos.get(id.index());
            if recorded as usize != pos {
                return Err(format!("{id:?} call position {recorded} != {pos}"));
            }
            if !call_ids.insert(cid) {
                return Err(format!("{id:?} repeats the live call id {}", cid.0));
            }
        }
        self.check_call_index()?;
        self.check_plan()
    }

    /// The splice plan part of [`Document::check_integrity`]: a plan, once
    /// set, is the one the document has now, and a compact copy is compact
    /// and holds the document's nodes and labels in their order.
    fn check_plan(&self) -> Result<(), String> {
        let Some(plan) = self.plan.get() else {
            return Ok(());
        };
        let now = SplicePlan::of(self);
        let copy = |p: &SplicePlan| {
            let compact = p.compact.as_deref();
            compact.map(|c| (crate::serialize::to_xml(c), c.symtab.labels.clone()))
        };
        if plan.labels.len() != now.labels.len() || copy(plan) != copy(&now) {
            return Err("the splice plan is stale".into());
        }
        if let Some(c) = &plan.compact {
            if c.compact_labels() != Some(plan.labels.len()) {
                return Err("the splice plan's copy is not compact".into());
            }
        }
        Ok(())
    }

    /// The call index part of [`Document::check_integrity`]: the class
    /// table numbers distinct paths, the extents are sorted, every
    /// visible live call sits in exactly its class's extent and its class
    /// path is its parent label path, hidden calls and data nodes have no
    /// class, and the service counts are the visible calls'.
    fn check_call_index(&self) -> Result<(), String> {
        let empty = CallIndex::default();
        let index = self.index.as_deref().unwrap_or(&empty);
        let paths = &index.classes.paths;
        if paths.len() != index.extents.len() {
            return Err(format!(
                "{} classes but {} extents",
                paths.len(),
                index.extents.len()
            ));
        }
        if index.classes.by_path.len() != paths.len() {
            return Err("class table repeats a path".into());
        }
        if let Some(class) = index
            .extents
            .iter()
            .position(|e| e.windows(2).any(|w| w[0] >= w[1]))
        {
            return Err(format!("extent of class {class} is not strictly sorted"));
        }
        for (class, path) in paths.iter().enumerate() {
            if index.classes.by_path.get(path) != Some(&(class as u32)) {
                return Err(format!("class {class} path not indexed as {class}"));
            }
        }
        let mut visible = 0usize;
        let mut services: Vec<(u32, u32)> = Vec::new();
        for &id in &self.call_list {
            let n = self.node_raw(id.index());
            // the parent label path, or `None` below a call
            let mut path = Some(Vec::new());
            let mut cur = n.parent();
            while let Some(p) = cur {
                let pn = self.node_raw(p.index());
                if !pn.kind.is_data() {
                    path = None;
                    break;
                }
                path.as_mut().expect("still visible").push(pn.sym);
                cur = pn.parent();
            }
            let Some(mut path) = path else {
                if n.class != NO_CLASS {
                    return Err(format!("hidden call {id:?} has class {}", n.class));
                }
                continue;
            };
            path.reverse();
            let class = n.class as usize;
            if class >= paths.len() {
                return Err(format!("visible call {id:?} has no class"));
            }
            if paths[class] != path {
                return Err(format!(
                    "{id:?} class {class} path differs from its parent path"
                ));
            }
            if index.extents[class].binary_search(&id).is_err() {
                return Err(format!("{id:?} not in the extent of class {class}"));
            }
            visible += 1;
            match services.iter_mut().find(|(s, _)| *s == n.sym) {
                Some((_, count)) => *count += 1,
                None => services.push((n.sym, 1)),
            }
        }
        let in_extents: usize = index.extents.iter().map(|e| e.len()).sum();
        if in_extents != visible {
            return Err(format!(
                "extents hold {in_extents} entries but {visible} calls are visible"
            ));
        }
        for (i, n) in (0..self.slots as usize).map(|i| (i, self.node_raw(i))) {
            if n.alive && n.kind.is_data() && n.class != NO_CLASS {
                return Err(format!("data node n{i} has class {}", n.class));
            }
        }
        let mut recorded = index.services.clone();
        recorded.sort_unstable();
        services.sort_unstable();
        if recorded != services {
            return Err(format!(
                "service counts {recorded:?} but visible calls give {services:?}"
            ));
        }
        Ok(())
    }
}

/// A table of `len` entries for a splice: a prefix of `small`, or `large`
/// grown to `len` (with `small`'s fill value) when `small` is too short.
fn scratch<'a, const N: usize>(
    small: &'a mut [u32; N],
    large: &'a mut Vec<u32>,
    len: usize,
) -> &'a mut [u32] {
    if len <= N {
        &mut small[..len]
    } else {
        large.resize(len, small[0]);
        large
    }
}

/// A child list of `capacity` slots holding the ids of `parts` in order,
/// then [`NO_NODE`] fillers. One allocation.
fn child_list(parts: &[&[NodeId]], capacity: usize) -> Arc<[NodeId]> {
    let mut list: Arc<[NodeId]> = std::iter::repeat_n(NO_NODE, capacity).collect();
    let slots = Arc::get_mut(&mut list).expect("a fresh list is unshared");
    let mut at = 0;
    for part in parts {
        slots[at..at + part.len()].copy_from_slice(part);
        at += part.len();
    }
    list
}

/// Pre-order iterator over document nodes.
pub struct Descendants<'a> {
    doc: &'a Document,
    stack: Vec<NodeId>,
}

impl Iterator for Descendants<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.stack.pop()?;
        let children = self.doc.children(id);
        self.stack.extend(children.iter().rev());
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Document, NodeId, NodeId) {
        // hotels
        //   hotel
        //     name -> "Best Western"
        //     rating -> getRating("75 2nd Av")
        let mut d = Document::with_root("hotels");
        let hotel = d.add_element(d.root(), "hotel");
        let name = d.add_element(hotel, "name");
        d.add_text(name, "Best Western");
        let rating = d.add_element(hotel, "rating");
        let call = d.add_call(rating, "getRating");
        d.add_text(call, "75 2nd Av");
        (d, hotel, call)
    }

    #[test]
    fn build_and_navigate() {
        let (d, hotel, call) = sample();
        assert_eq!(d.label(d.root()), "hotels");
        assert_eq!(d.children(d.root()), &[hotel]);
        assert_eq!(d.label(hotel), "hotel");
        assert!(d.is_call(call));
        assert_eq!(d.call_info(call).unwrap().1.as_str(), "getRating");
        assert_eq!(d.len(), 7);
        d.check_integrity().unwrap();
    }

    #[test]
    fn path_labels_walks_from_root() {
        let (d, _, call) = sample();
        assert_eq!(
            d.path_labels(call),
            vec!["hotels", "hotel", "rating", "getRating"]
        );
    }

    #[test]
    fn calls_lists_function_nodes_in_document_order() {
        let (mut d, hotel, call) = sample();
        let c2 = d.add_call(hotel, "getNearbyRestos");
        assert_eq!(d.calls(), vec![call, c2]);
    }

    #[test]
    fn splice_replaces_call_with_forest() {
        let (mut d, _, call) = sample();
        let (cid, _) = d.call_info(call).unwrap();
        let mut result = Forest::new();
        let v = result.add_root_text("*****");
        result.add_root("extra");
        let _ = v;
        let before = d.len();
        let inserted = d.splice_call(call, &result);
        assert_eq!(inserted.len(), 2);
        assert_eq!(d.text_value(inserted[0]), Some("*****"));
        assert_eq!(d.label(inserted[1]), "extra");
        // call + its text param removed (2), two inserted
        assert_eq!(d.len(), before - 2 + 2);
        // the call identity is gone (its slot may be reused by new nodes)
        assert_eq!(d.find_call(cid), None);
        d.check_integrity().unwrap();
    }

    #[test]
    fn splice_preserves_sibling_order() {
        let mut d = Document::with_root("r");
        let a = d.add_element(d.root(), "a");
        let c = d.add_call(d.root(), "f");
        let b = d.add_element(d.root(), "b");
        let mut res = Forest::new();
        res.add_root("x");
        res.add_root("y");
        let ins = d.splice_call(c, &res);
        let labels: Vec<&str> = d.children(d.root()).iter().map(|&n| d.label(n)).collect();
        assert_eq!(labels, vec!["a", "x", "y", "b"]);
        assert_eq!(d.children(d.root()), &[a, ins[0], ins[1], b]);
        d.check_integrity().unwrap();
    }

    #[test]
    fn splice_with_empty_forest_just_removes() {
        let (mut d, hotel, call) = sample();
        let rating = d.parent(call).unwrap();
        let ins = d.splice_call(call, &Forest::new());
        assert!(ins.is_empty());
        assert!(d.children(rating).is_empty());
        assert_eq!(d.parent(rating), Some(hotel));
        d.check_integrity().unwrap();
    }

    #[test]
    fn splice_at_root_turns_document_into_forest() {
        let mut d = Document::new();
        let c = d.add_root_call("getAll");
        let mut res = Forest::new();
        res.add_root("a");
        res.add_root("b");
        d.splice_call(c, &res);
        assert_eq!(d.roots().len(), 2);
        d.check_integrity().unwrap();
    }

    #[test]
    fn splice_result_call_ids_are_reassigned_fresh() {
        let (mut d, _, call) = sample();
        let (orig_id, _) = d.call_info(call).unwrap();
        let mut res = Forest::new();
        let rc = res.add_root_call("inner");
        let (res_cid, _) = res.call_info(rc).unwrap();
        let ins = d.splice_call(call, &res);
        let (new_cid, name) = d.call_info(ins[0]).unwrap();
        assert_eq!(name.as_str(), "inner");
        assert_ne!(new_cid, orig_id);
        // the id is fresh in d's space, independent of res's numbering
        assert!(new_cid.0 > orig_id.0 || new_cid != res_cid);
        d.check_integrity().unwrap();
    }

    #[test]
    fn freed_slots_are_reused() {
        let (mut d, _, call) = sample();
        let before_capacity = d.slots;
        d.splice_call(call, &Forest::new()); // frees 2 slots
        let r2 = d.find_call(CallId(99));
        assert!(r2.is_none());
        let hotel = d.children(d.root())[0];
        d.add_element(hotel, "new1");
        d.add_element(hotel, "new2");
        assert_eq!(d.slots, before_capacity); // reused, no growth
        d.check_integrity().unwrap();
    }

    #[test]
    fn document_order_comparisons() {
        let (d, hotel, call) = sample();
        let name = d.children(hotel)[0];
        assert_eq!(d.cmp_document_order(name, call), std::cmp::Ordering::Less);
        assert_eq!(
            d.cmp_document_order(d.root(), call),
            std::cmp::Ordering::Less
        );
        assert_eq!(d.cmp_document_order(call, call), std::cmp::Ordering::Equal);
    }

    #[test]
    fn subtree_copy_is_deep_and_independent() {
        let (d, hotel, _) = sample();
        let mut f = Forest::new();
        f.append_copy_as_root(&d, hotel);
        assert_eq!(f.roots().len(), 1);
        assert_eq!(f.label(f.roots()[0]), "hotel");
        assert_eq!(f.len(), 6);
        // mutating the copy does not touch the original
        let n = d.len();
        let mut f2 = f.clone();
        f2.add_element(f2.roots()[0], "zzz");
        assert_eq!(d.len(), n);
        f.check_integrity().unwrap();
        f2.check_integrity().unwrap();
    }

    #[test]
    fn find_call_by_id() {
        let (mut d, _, call) = sample();
        let (cid, _) = d.call_info(call).unwrap();
        assert_eq!(d.find_call(cid), Some(call));
        // a call nested in another call's parameters is found too
        let nested = d.add_call(call, "getAddress");
        let (nested_cid, _) = d.call_info(nested).unwrap();
        assert_eq!(d.find_call(nested_cid), Some(nested));
        // a consumed call is gone, and so is the call in its parameters
        d.splice_call(call, &Forest::new());
        assert_eq!(d.find_call(cid), None);
        assert_eq!(d.find_call(nested_cid), None);
        assert_eq!(d.find_call(CallId(d.next_call_id())), None);
    }

    #[test]
    fn deep_results_splice_and_free_without_recursion() {
        // a forest built with `add_element` has no depth bound, so neither
        // splicing it in nor freeing it may recurse per level
        const DEPTH: usize = 100_000;
        let run = || {
            let mut chain = Forest::new();
            let mut last = chain.add_root("level");
            for _ in 1..DEPTH {
                last = chain.add_element(last, "level");
            }
            let mut d = Document::with_root("r");
            let call = d.add_call(d.root(), "deep");
            d.splice_call(call, &chain);
            d.check_integrity().unwrap();
            assert_eq!(d.len(), DEPTH + 1);
            // a call whose parameter is such a chain: splicing frees it
            let call = d.add_call(d.root(), "consume");
            let mut last = d.add_element(call, "param");
            for _ in 1..DEPTH {
                last = d.add_element(last, "param");
            }
            d.splice_call(call, &Forest::new());
            d.check_integrity().unwrap();
            assert_eq!(d.len(), DEPTH + 1);
        };
        std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(run)
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn deep_documents_serialize_and_round_trip_without_recursion() {
        // the serializer, the byte counter and the wire codec walk a
        // forest as deep as `add_element` makes it on explicit stacks
        const DEPTH: usize = 100_000;
        let run = || {
            let mut chain = Forest::new();
            let mut last = chain.add_root("level");
            for _ in 1..DEPTH {
                last = chain.add_element(last, "level");
            }
            let call = chain.add_call(last, "deep");
            chain.add_text(call, "p");
            let xml = crate::serialize::to_xml(&chain);
            assert!(xml.starts_with("<level><level>"));
            assert!(xml.ends_with("</level></level>"));
            assert_eq!(crate::serialize::forest_serialized_len(&chain), xml.len());
            let bytes = crate::wire::document_to_bytes(&chain);
            let back = crate::wire::decode_document(&bytes).unwrap();
            back.check_integrity().unwrap();
            assert_eq!(back.len(), DEPTH + 2);
            assert_eq!(crate::wire::document_to_bytes(&back), bytes);
            assert_eq!(crate::serialize::to_xml(&back), xml);
        };
        std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(run)
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn splice_on_a_clone_copies_only_the_pages_it_writes() {
        // calls of one service (each with a shared parameter text) spread
        // over every page, so freeing one moves index entries of nodes that
        // live in other pages
        let mut d = Document::with_root("r");
        let mut calls = Vec::new();
        while d.pages.len() < 8 || d.pages.last().unwrap().nodes.len() < PAGE_SIZE / 2 {
            let item = d.add_element(d.root(), "item");
            let call = d.add_call(item, "svc");
            d.add_text(call, "p");
            calls.push(call);
        }
        let call = calls[calls.len() / 8];
        let mut clone = d.clone();
        let mut result = Forest::new();
        let done = result.add_root("done");
        result.add_text(done, "ok");
        let inserted = clone.splice_call(call, &result);
        clone.check_integrity().unwrap();
        let page_of = |n: NodeId| n.index() >> PAGE_BITS;
        let mut written = vec![page_of(call), page_of(d.parent(call).unwrap())];
        for &r in &inserted {
            written.extend(clone.descendants(r).map(page_of));
        }
        for (i, (a, b)) in d.pages.iter().zip(&clone.pages).enumerate() {
            assert_eq!(
                Arc::ptr_eq(a, b),
                !written.contains(&i),
                "page {i} (written: {written:?})"
            );
        }
        d.check_integrity().unwrap();
    }

    #[test]
    fn a_node_slot_is_at_most_56_bytes() {
        // a page copy and a document's memory scale with it
        #[cfg(target_pointer_width = "64")]
        assert!(std::mem::size_of::<Node>() <= 56);
    }

    #[test]
    #[should_panic(expected = "non-function")]
    fn splice_on_data_node_panics() {
        let (mut d, hotel, _) = sample();
        d.splice_call(hotel, &Forest::new());
    }

    #[test]
    fn symbols_agree_with_labels() {
        let (d, hotel, call) = sample();
        assert_eq!(d.sym_text(d.sym(hotel)), "hotel");
        assert_eq!(d.lookup_sym("hotel"), Some(d.sym(hotel)));
        assert_eq!(d.lookup_sym("no-such-label"), None);
        // call nodes intern their service name
        assert_eq!(d.sym_text(d.sym(call)), "getRating");
        // symbol equality iff label equality
        for a in d.all_nodes() {
            for b in d.all_nodes() {
                assert_eq!(d.sym(a) == d.sym(b), d.label(a) == d.label(b));
            }
        }
    }

    #[test]
    fn integrity_catches_a_repeated_call_id() {
        let mut d = Document::with_root("r");
        let root = d.root();
        d.add_call_with_id(Some(root), "f", 0);
        d.check_integrity().unwrap();
        d.add_call_with_id(Some(root), "g", 0);
        let err = d.check_integrity().unwrap_err();
        assert!(err.contains("repeats the live call id 0"), "{err}");
    }

    #[test]
    fn label_index_tracks_splices() {
        let (mut d, _, call) = sample();
        assert_eq!(
            d.nodes_with_sym(d.lookup_sym("getRating").unwrap()).len(),
            1
        );
        assert_eq!(d.calls_unordered(), &[call]);
        let mut res = Forest::new();
        let r = res.add_root("rating-value");
        res.add_text(r, "*****");
        res.add_root_call("getMore");
        d.splice_call(call, &res);
        d.check_integrity().unwrap();
        // the consumed call (and its text parameter) left the index
        assert!(d
            .nodes_with_sym(d.lookup_sym("getRating").unwrap())
            .is_empty());
        assert_eq!(
            d.nodes_with_sym(d.lookup_sym("rating-value").unwrap())
                .len(),
            1
        );
        assert_eq!(d.calls_unordered().len(), 1);
        assert_eq!(d.label(d.calls_unordered()[0]), "getMore");
        // symbols survive even when the last carrier is freed
        assert!(d.lookup_sym("getRating").is_some());
    }

    #[test]
    fn reaches_through_data_skips_call_parameters() {
        let (d, hotel, call) = sample();
        let rating = d.parent(call).unwrap();
        let param = d.children(call)[0];
        assert!(d.reaches_through_data(d.root(), call));
        assert!(d.reaches_through_data(hotel, rating));
        assert!(d.reaches_through_data(rating, call));
        // call parameters are not document content
        assert!(!d.reaches_through_data(rating, param));
        assert!(!d.reaches_through_data(d.root(), param));
        // not a strict descendant
        assert!(!d.reaches_through_data(hotel, hotel));
        assert!(!d.reaches_through_data(call, hotel));
    }

    #[test]
    fn allocation_crosses_page_boundaries() {
        let mut d = Document::with_root("r");
        let mut ids = Vec::new();
        for i in 0..(3 * PAGE_SIZE) {
            ids.push(d.add_element(d.root(), format!("e{}", i % 7)));
        }
        assert_eq!(d.len(), 3 * PAGE_SIZE + 1);
        assert!(d.pages.len() >= 3);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(d.label(id), format!("e{}", i % 7));
            assert_eq!(d.parent(id), Some(d.root()));
        }
        d.check_integrity().unwrap();
    }

    #[test]
    fn clone_shares_pages_until_mutation() {
        let mut d = Document::with_root("r");
        for i in 0..(2 * PAGE_SIZE) {
            d.add_element(d.root(), format!("e{i}"));
        }
        let c = d.clone();
        // a clone shares every page and the symbol table
        for (a, b) in d.pages.iter().zip(&c.pages) {
            assert!(Arc::ptr_eq(a, b));
        }
        assert!(Arc::ptr_eq(&d.symtab, &c.symtab));
        // writing through the clone unshares only the touched pages
        let mut c2 = c.clone();
        let target = *d.children(d.root()).last().unwrap();
        c2.add_element(target, "e0"); // existing label: symtab stays shared
        assert!(Arc::ptr_eq(&d.symtab, &c2.symtab));
        assert!(Arc::ptr_eq(&d.pages[0], &c2.pages[0]) || d.pages.len() == 1);
        d.check_integrity().unwrap();
        c2.check_integrity().unwrap();
    }

    #[test]
    fn splice_journal_records_and_replays_exactly() {
        let (mut d, _, call) = sample();
        d.enable_splice_journal();
        let mut base = d.clone(); // clone carries the journal state
        let (cid, _) = d.call_info(call).unwrap();
        let mut res = Forest::new();
        let r = res.add_root("rating-value");
        res.add_text(r, "*****");
        res.add_root_call("getMore");
        d.splice_call(call, &res);
        let ops = d.take_splice_journal().expect("clean journal");
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].call, cid);
        // replaying the journal on the pre-state reproduces the post-state,
        // including the fresh call id drawn from the call counter
        for op in &ops {
            base.splice_by_call_id(op.call, &op.result).unwrap();
        }
        assert_eq!(
            crate::serialize::to_xml(&base),
            crate::serialize::to_xml(&d)
        );
        assert_eq!(base.next_call_id(), d.next_call_id());
        let (a, _) = d.call_info(d.calls()[0]).unwrap();
        let (b, _) = base.call_info(base.calls()[0]).unwrap();
        assert_eq!(a, b);
        // draining left the journal clean and empty
        assert_eq!(d.take_splice_journal().expect("still clean").len(), 0);
    }

    #[test]
    fn non_splice_mutations_dirty_the_journal() {
        let (mut d, hotel, call) = sample();
        d.enable_splice_journal();
        d.splice_call(call, &Forest::new());
        d.add_element(hotel, "annex");
        // the delta is no longer pure splices: callers must snapshot
        assert!(d.take_splice_journal().is_none());
        // draining reset the journal: the next window is clean again
        let c2 = d.add_call(hotel, "again");
        assert!(d.take_splice_journal().is_none()); // add_call dirtied it
        let (cid2, _) = d.call_info(c2).unwrap();
        d.splice_call(c2, &Forest::new());
        let ops = d.take_splice_journal().expect("clean window");
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].call, cid2);
    }

    #[test]
    fn journal_disabled_reports_unknown_delta() {
        let (mut d, _, call) = sample();
        d.splice_call(call, &Forest::new());
        assert!(d.take_splice_journal().is_none());
    }

    #[test]
    fn cow_clone_mutation_leaves_original_intact() {
        let (d, _, call) = sample();
        let (cid, _) = d.call_info(call).unwrap();
        let before_len = d.len();
        let mut snap = d.clone();
        let mut res = Forest::new();
        res.add_root_text("*****");
        snap.splice_call(call, &res);
        // the splice is visible only in the clone
        assert!(d.is_alive(call));
        assert!(d.is_call(call));
        assert_eq!(d.len(), before_len);
        assert_eq!(snap.find_call(cid), None);
        d.check_integrity().unwrap();
        snap.check_integrity().unwrap();
    }

    /// The per-node copy a splice made before splice plans, kept as the
    /// reference the plan splice must match: free the call's subtree in
    /// post-order, copy each root in turn, put the copies in its place.
    fn reference_splice(d: &mut Document, call: NodeId, result: &Forest) -> Vec<NodeId> {
        let parent = d.parent(call);
        let pos = d.sibling_index(call);
        let mut order = Vec::new();
        let mut stack = vec![call];
        while let Some(n) = stack.pop() {
            order.push(n);
            stack.extend_from_slice(d.children(n));
        }
        for &n in order.iter().rev() {
            d.release(n);
        }
        let inserted: Vec<NodeId> = (result.roots.iter())
            .map(|&r| d.copy_from(result, r, parent))
            .collect();
        d.replace_child(parent, pos, &inserted);
        inserted
    }

    /// Everything a splice decides, read through the internals: each
    /// slot's node, the roots, the free list, the call counter, the symbol
    /// table, every label bucket in order with each live node's recorded
    /// position, the call registry in order with its positions, and the
    /// call index's classes, extents and service counts.
    fn state(d: &Document) -> impl PartialEq + fmt::Debug {
        let slots = 0..d.slots as usize;
        let nodes: Vec<_> = (slots.clone())
            .map(|i| d.node_raw(i))
            .map(|n| {
                n.alive
                    .then(|| (n.kind, n.parent(), n.children().to_vec(), n.sym, n.class))
            })
            .collect();
        let bucket_pos: Vec<u32> = (slots.filter(|&i| d.node_raw(i).alive))
            .map(|i| d.bucket_pos.get(i))
            .collect();
        let buckets: Vec<Vec<NodeId>> = d.buckets.iter().map(|b| b.as_slice().to_vec()).collect();
        let call_pos: Vec<u32> = d
            .call_list
            .iter()
            .map(|c| d.call_pos.get(c.index()))
            .collect();
        let labels: Vec<String> = d.symtab.labels.iter().map(|l| l.to_string()).collect();
        let index = d.index.as_deref().map(|i| {
            let extents: Vec<Vec<NodeId>> = i.extents.iter().map(|e| e.to_vec()).collect();
            (i.classes.paths.clone(), extents, i.services.clone())
        });
        let registry = (d.call_list.clone(), call_pos, d.next_call);
        (
            nodes,
            d.roots.clone(),
            d.free.clone(),
            labels,
            buckets,
            bucket_pos,
            registry,
            index,
        )
    }

    /// One step of a random build. `Node(parent, kind, label)` adds a
    /// root, or appends to an element or call picked by `parent`, so
    /// slots leave pre-order and calls land inside parameters;
    /// `Splice(call, shape)` splices one of the calls, so slots are freed
    /// and reused.
    #[derive(Clone, Debug)]
    enum Step {
        Node(u8, u8, u8),
        Splice(u8, u8),
    }

    fn step() -> impl proptest::strategy::Strategy<Value = Step> {
        use proptest::prelude::*;
        prop_oneof![
            (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(p, k, l)| Step::Node(p, k, l)),
            (any::<u8>(), any::<u8>()).prop_map(|(c, s)| Step::Splice(c, s)),
        ]
    }

    /// A small result of one of three shapes: nothing, a text, or an
    /// element holding a call with a parameter.
    fn shaped(shape: u8) -> Forest {
        let mut f = Forest::new();
        match shape % 3 {
            0 => {}
            1 => {
                f.add_root_text(format!("t{}", shape % 9));
            }
            _ => {
                let e = f.add_root(format!("l{}", shape % 6));
                let c = f.add_call(e, format!("s{}", shape % 3));
                f.add_text(c, "p");
            }
        }
        f
    }

    fn grow(d: &mut Document, steps: &[Step]) {
        for step in steps {
            match *step {
                Step::Node(parent, kind, label) => {
                    let parents: Vec<NodeId> = (d.all_nodes())
                        .filter(|&n| d.kind(n) != NodeKind::Text)
                        .collect();
                    let at = (parent % 5 != 0 && !parents.is_empty())
                        .then(|| parents[parent as usize % parents.len()]);
                    match (kind % 3, at) {
                        (0, Some(p)) => d.add_element(p, format!("l{}", label % 6)),
                        (0, None) => d.add_root(format!("l{}", label % 6)),
                        (1, Some(p)) => d.add_text(p, format!("t{}", label % 9)),
                        (1, None) => d.add_root_text(format!("t{}", label % 9)),
                        (_, Some(p)) => d.add_call(p, format!("s{}", label % 3)),
                        (_, None) => d.add_root_call(format!("s{}", label % 3)),
                    };
                }
                Step::Splice(call, shape) => {
                    let calls = d.calls();
                    if !calls.is_empty() {
                        d.splice_call(calls[call as usize % calls.len()], &shaped(shape));
                    }
                }
            }
        }
    }

    fn built(root: Option<&str>, steps: &[Step]) -> Document {
        let mut d = root.map_or_else(Document::new, Document::with_root);
        grow(&mut d, steps);
        d
    }

    proptest::proptest! {
        /// A plan splice leaves exactly the state the per-node copy leaves,
        /// whatever the document and the forest, however often one forest
        /// is spliced into documents whose symbol tables differ, whatever
        /// the forest grows between its splices, and whatever the documents
        /// grow afterwards.
        #[test]
        fn plan_splices_match_the_per_node_copy(
            docs in proptest::collection::vec(proptest::collection::vec(step(), 0..40), 2..3),
            forests in proptest::collection::vec(proptest::collection::vec(step(), 0..16), 1..4),
            splices in proptest::collection::vec((0..2u8, 0..=255u8, 0..=255u8), 1..12),
            after in proptest::collection::vec(step(), 0..12),
            forest_after in proptest::collection::vec(step(), 0..12),
        ) {
            use proptest::prelude::*;
            let mut pairs: Vec<(Document, Document)> = (docs.iter())
                .map(|steps| built(Some("root"), steps))
                .map(|d| (d.clone(), d))
                .collect();
            let mut pool: Vec<Arc<Forest>> = (forests.iter())
                .map(|steps| Arc::new(built(None, steps)))
                .collect();
            for (i, &(side, call, pick)) in splices.iter().enumerate() {
                let (planned, reference) = &mut pairs[side as usize % 2];
                let calls = planned.calls();
                if calls.is_empty() {
                    continue;
                }
                let call = calls[call as usize % calls.len()];
                let pick = pick as usize % pool.len();
                let forest = &mut pool[pick];
                // a forest changed since its last splice
                if let Some(step) = forest_after.get(i) {
                    grow(Arc::make_mut(forest), std::slice::from_ref(step));
                }
                let walked = forest.all_nodes().map(NodeId::index);
                prop_assert_eq!(
                    forest.in_pre_order(),
                    forest.free.is_empty() && walked.eq(0..forest.len())
                );
                let inserted = planned.splice_shared(call, forest);
                prop_assert_eq!(inserted, reference_splice(reference, call, forest));
                if let Some(step) = after.get(i) {
                    grow(planned, std::slice::from_ref(step));
                    grow(reference, std::slice::from_ref(step));
                }
                prop_assert_eq!(state(planned), state(reference));
                planned.check_integrity().unwrap();
                reference.check_integrity().unwrap();
                forest.check_integrity().unwrap();
            }
        }
    }

    #[test]
    fn a_forests_plan_follows_its_changes() {
        let mut reply = Forest::new();
        let r = reply.add_root("restaurant");
        reply.add_text(r, "Jo");
        let mut planned = Document::with_root("r");
        for _ in 0..2 {
            planned.add_call(planned.root(), "svc");
        }
        let mut reference = planned.clone();
        let calls = planned.calls();
        planned.splice_call(calls[0], &reply);
        reference_splice(&mut reference, calls[0], &reply);
        assert!(
            reply.plan.get().is_some(),
            "the first splice plans the reply"
        );
        // a new node out of pre-order drops the plan; the next splice
        // copies it too
        reply.add_root_call("more");
        reply.add_text(r, "Madison Av.");
        assert!(reply.plan.get().is_none());
        planned.splice_call(calls[1], &reply);
        reference_splice(&mut reference, calls[1], &reply);
        assert_eq!(state(&planned), state(&reference));
        assert_eq!(
            crate::serialize::to_xml(&planned),
            "<r><restaurant>Jo</restaurant>\
             <restaurant>JoMadison Av.</restaurant><axml:call service=\"more\"/></r>"
        );
        planned.check_integrity().unwrap();
        reply.check_integrity().unwrap();
    }

    #[test]
    fn forests_out_of_compact_form_are_copied_once() {
        let parse = |xml: &str| crate::parse(xml).unwrap();
        // a freed slot
        let mut freed = parse("<a><axml:call service=\"f\">p</axml:call><n>Jo</n></a>");
        assert!(freed.splices_in_place());
        freed.splice_call(freed.calls()[0], &Forest::new());
        // back in pre-order, with a label bucket out of slot order: the
        // parameter `n` leaves its bucket by a swap-remove, and the reply
        // `<s><n/></s>` refills the freed slots
        let mut unsorted = parse("<r><axml:call service=\"s\"><n/></axml:call><n/><n/></r>");
        unsorted.splice_call(unsorted.calls()[0], &parse("<s><n/></s>"));
        assert!(unsorted.free.is_empty() && unsorted.in_pre_order());
        for reply in [freed, unsorted] {
            assert!(!reply.splices_in_place());
            let plan = Arc::clone(reply.plan.get().expect("planned"));
            let reply = Arc::new(reply);
            let mut planned = Document::with_root("r");
            for _ in 0..2 {
                planned.add_call(planned.root(), "svc");
            }
            let mut reference = planned.clone();
            for call in planned.calls() {
                planned.splice_shared(call, &reply);
                reference_splice(&mut reference, call, &reply);
                assert_eq!(state(&planned), state(&reference));
            }
            let now = reply.plan.get().expect("still planned");
            assert!(
                Arc::ptr_eq(now, &plan),
                "one plan and one copy for both splices"
            );
            let copy = crate::serialize::to_xml(&reply);
            assert_eq!(
                crate::serialize::to_xml(&planned),
                format!("<r>{copy}{copy}</r>")
            );
            planned.check_integrity().unwrap();
            reply.check_integrity().unwrap();
        }
    }

    #[test]
    fn one_reply_spliced_into_two_documents_gets_each_ones_symbols() {
        let mut reply = Forest::new();
        let r = reply.add_root("restaurant");
        let name = reply.add_element(r, "name");
        reply.add_text(name, "Jo");
        let reply = Arc::new(reply);
        // the two tables give the reply's labels different symbols, and
        // the second has a label under the first one's symbol for "name"
        let mut a = Document::with_root("hotels");
        let mut b = Document::with_root("name");
        b.add_element(b.root(), "restaurant");
        for _ in 0..3 {
            a.add_call(a.root(), "svc");
            b.add_call(b.root(), "svc");
        }
        for round in 0..3 {
            for d in [&mut a, &mut b] {
                let mut reference = d.clone();
                let call = d.calls()[0];
                d.splice_shared(call, &reply);
                reference_splice(&mut reference, call, &reply);
                assert_eq!(state(d), state(&reference), "round {round}");
                d.check_integrity().unwrap();
            }
        }
        let labels = |d: &Document| {
            (d.all_nodes())
                .map(|n| d.label(n).to_string())
                .collect::<Vec<_>>()
                .join(" ")
        };
        let spliced = " restaurant name Jo".repeat(3);
        assert_eq!(labels(&a), format!("hotels{spliced}"));
        assert_eq!(labels(&b), format!("name restaurant{spliced}"));
    }

    #[test]
    fn appending_under_a_shared_child_list_leaves_the_siblings_lists() {
        let reply = crate::parse::parse("<a><x/><y/></a><b><z/></b>").unwrap();
        let mut d = Document::with_root("r");
        let call = d.add_call(d.root(), "svc");
        let roots = d.splice_call(call, &reply);
        let (a, b) = (roots[0], roots[1]);
        let list = |d: &Document, n| -> Vec<String> {
            d.children(n)
                .iter()
                .map(|&c| d.label(c).to_string())
                .collect()
        };
        // a's and b's children sit in one shared list
        let (na, nb) = (d.node(a), d.node(b));
        assert!(Arc::ptr_eq(
            na.children.as_ref().unwrap(),
            nb.children.as_ref().unwrap()
        ));
        d.add_element(a, "w");
        assert_eq!(list(&d, a), ["x", "y", "w"]);
        assert_eq!(list(&d, b), ["z"]);
        // across a clone: appending in the clone copies the list there
        let mut c = d.clone();
        c.add_element(b, "v");
        assert_eq!(list(&c, b), ["z", "v"]);
        assert_eq!(list(&d, b), ["z"]);
        assert_eq!(list(&c, a), ["x", "y", "w"]);
        d.add_element(b, "u");
        assert_eq!(list(&d, b), ["z", "u"]);
        assert_eq!(list(&c, b), ["z", "v"]);
        d.check_integrity().unwrap();
        c.check_integrity().unwrap();
    }

    #[test]
    fn a_node_left_alone_in_a_shared_list_appends_after_its_window() {
        // the calls' parameters sit before and after `m`'s child in the
        // shared list; splicing both calls leaves `m` its only holder
        let mut reply = Forest::new();
        let first = reply.add_root_call("f");
        reply.add_text(first, "p");
        let m = reply.add_root("m");
        reply.add_text(m, "x");
        let last = reply.add_root_call("g");
        reply.add_text(last, "q");
        let mut planned = Document::with_root("r");
        let call = planned.add_call(planned.root(), "svc");
        let mut reference = planned.clone();
        let roots = planned.splice_call(call, &reply);
        reference_splice(&mut reference, call, &reply);
        for d in [&mut planned, &mut reference] {
            for &c in &[roots[0], roots[2]] {
                d.splice_call(c, &Forest::new());
            }
            d.add_element(roots[1], "y");
            d.add_element(roots[1], "z");
        }
        let labels: Vec<&str> = (planned.children(roots[1]).iter())
            .map(|&c| planned.label(c))
            .collect();
        assert_eq!(labels, ["x", "y", "z"]);
        assert_eq!(state(&planned), state(&reference));
        planned.check_integrity().unwrap();
    }
}
