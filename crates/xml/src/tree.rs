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
//! table. [`NodeKind`] therefore carries no label, and a node slot holds
//! only integers and one shared child list.
//!
//! Storage is paged and copy-on-write: nodes live in fixed-size pages held
//! behind [`Arc`]s, and the symbol table and label index share structure the
//! same way. `Document::clone` therefore copies only page *pointers* — O(n /
//! PAGE_SIZE) — and a clone that mutates pays for exactly the pages it
//! touches. Copying a page copies each node's kind, parent and symbol and
//! bumps the count of its child buffer, which stays shared until one side
//! writes it. The label-index back-pointers live in side pages of `u32`s,
//! so the swap-removes that keep the index dense never copy a page of
//! nodes. This is what makes per-query snapshots and the multi-session
//! serving layer (see `axml-store`) affordable: N concurrent sessions
//! snapshot one shared document and each works on a logically private copy.

use crate::label::Label;
use std::fmt;
use std::sync::Arc;

/// Nodes per storage page (a power of two so id→page is a shift/mask).
const PAGE_BITS: usize = 6;
const PAGE_SIZE: usize = 1 << PAGE_BITS;
const PAGE_MASK: usize = PAGE_SIZE - 1;

/// A forest symbol a splice has not mapped into the document yet.
const UNMAPPED: u32 = u32::MAX;

/// Fills the unused tail of a child buffer.
const NO_CHILD: NodeId = NodeId(u32::MAX);

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
/// table: read it with [`Document::label`] (or [`Document::element_label`],
/// [`Document::text_value`] and [`Document::call_info`]).
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
    /// The node's child ids in document order are the first `child_len`
    /// entries of this buffer (`None` until the first child). The buffer
    /// is shared with the copies a page clone makes until one side writes
    /// it, and reading it is one indirection, as with a `Vec`.
    children: Option<Arc<[NodeId]>>,
    parent: Option<NodeId>,
    /// Interned symbol of the node's label (element name, text value or
    /// service name) in the document's symbol table.
    sym: u32,
    child_len: u32,
    alive: bool,
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
        let page = slot >> SIDE_BITS;
        if page >= self.pages.len() {
            self.pages.resize_with(page + 1, Default::default);
        }
        let entries = Arc::make_mut(&mut self.pages[page]);
        let at = slot & SIDE_MASK;
        if at >= entries.len() {
            entries.resize(at + 1, 0);
        }
        entries[at] = value;
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
    /// Label→node index: interned symbol → live nodes carrying that label,
    /// in arbitrary order (removal is `swap_remove`). Maintained by every
    /// mutator, including [`Document::splice_call`]. Buckets are shared
    /// between clones until written.
    buckets: std::collections::HashMap<u32, Arc<Vec<NodeId>>>,
    /// Each live node's position inside its label bucket, for O(1) removal.
    bucket_pos: SlotTable,
    /// All live function-call nodes, in arbitrary order.
    call_list: Vec<NodeId>,
    /// Each live call node's position inside `call_list`.
    call_pos: SlotTable,
    /// When `true`, [`Document::splice_call`] records every splice in
    /// `journal_ops` so a durability layer can persist the delta between
    /// two published versions instead of the whole document.
    journal_on: bool,
    /// Set by every *non-splice* structural mutation while the journal is
    /// on: the journal alone no longer reproduces the document, so the
    /// next [`Document::take_splice_journal`] must report "unknown delta".
    journal_dirty: bool,
    journal_ops: Vec<SpliceOp>,
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

    /// Appends `child` to `parent`'s child list: in place while the
    /// buffer has room and no other document shares it, otherwise into a
    /// copy twice as long, so appends stay amortized O(1).
    fn push_child(&mut self, parent: NodeId, child: NodeId) {
        let n = self.node_raw_mut(parent.index());
        let len = n.child_len as usize;
        match n.children.as_mut().and_then(Arc::get_mut) {
            Some(buf) if len < buf.len() => buf[len] = child,
            _ => {
                let ids = n.children.as_deref().map_or(&[][..], |b| &b[..len]);
                n.children = Some(child_buffer(&[ids, &[child]], (2 * len).max(4)));
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

    /// Allocates a node whose child list has room for `child_capacity`
    /// ids and enters it in the label index (and the call registry).
    fn alloc(
        &mut self,
        kind: NodeKind,
        sym: u32,
        parent: Option<NodeId>,
        child_capacity: usize,
    ) -> NodeId {
        let node = Node {
            kind,
            children: (child_capacity > 0).then(|| child_buffer(&[], child_capacity)),
            parent,
            sym,
            child_len: 0,
            alive: true,
        };
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
        let bucket = Arc::make_mut(self.buckets.entry(sym).or_default());
        bucket.push(id);
        self.bucket_pos.set(id.index(), (bucket.len() - 1) as u32);
        if let NodeKind::Call(_) = kind {
            self.call_pos.set(id.index(), self.call_list.len() as u32);
            self.call_list.push(id);
        }
        id
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

    /// Unlinks a node from its label bucket (and the call registry) in O(1).
    fn index_remove(&mut self, id: NodeId) {
        let n = self.node_raw(id.index());
        let (sym, is_call) = (n.sym, matches!(n.kind, NodeKind::Call(_)));
        let pos = self.bucket_pos.get(id.index()) as usize;
        let bucket = Arc::make_mut(
            self.buckets
                .get_mut(&sym)
                .expect("freed node missing from its label bucket"),
        );
        bucket.swap_remove(pos);
        if let Some(&moved) = bucket.get(pos) {
            self.bucket_pos.set(moved.index(), pos as u32);
        }
        if is_call {
            let pos = self.call_pos.get(id.index()) as usize;
            self.call_list.swap_remove(pos);
            if let Some(&moved) = self.call_list.get(pos) {
                self.call_pos.set(moved.index(), pos as u32);
            }
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

    /// The element label, if this is an element node.
    pub fn element_label(&self, id: NodeId) -> Option<&Label> {
        let n = self.node(id);
        (n.kind == NodeKind::Element).then(|| self.sym_label(n.sym))
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
        self.node(id).parent
    }

    /// Children of the node, in document order.
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        let n = self.node(id);
        n.children
            .as_deref()
            .map_or(&[], |b| &b[..n.child_len as usize])
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

    /// Whether the splice journal is recording.
    pub fn splice_journal_enabled(&self) -> bool {
        self.journal_on
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

    /// Number of distinct interned label texts. Monotonically increasing;
    /// useful as a cheap version stamp for symbol-compiled artifacts.
    pub fn sym_count(&self) -> usize {
        self.symtab.labels.len()
    }

    /// The live nodes carrying the label with the given symbol, in
    /// **arbitrary** order (the index uses `swap_remove` on deletion).
    /// Returns an empty slice for unknown symbols.
    pub fn nodes_with_sym(&self, sym: u32) -> &[NodeId] {
        self.buckets.get(&sym).map(|b| b.as_slice()).unwrap_or(&[])
    }

    /// All live function-call nodes, in **arbitrary** order. An O(1)
    /// alternative to [`Document::calls`] when document order is
    /// irrelevant.
    pub fn calls_unordered(&self) -> &[NodeId] {
        &self.call_list
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

    /// `true` if `anc` is an ancestor of `desc` (strict) or equal when
    /// `or_self` is set.
    pub fn is_ancestor(&self, anc: NodeId, desc: NodeId, or_self: bool) -> bool {
        if anc == desc {
            return or_self;
        }
        let mut cur = self.parent(desc);
        while let Some(n) = cur {
            if n == anc {
                return true;
            }
            cur = self.parent(n);
        }
        false
    }

    /// Deep-copies the subtree rooted at `src_node` of another document as
    /// a new child of `parent` in this one. Call ids are re-assigned.
    pub fn append_copy(&mut self, parent: NodeId, src: &Document, src_node: NodeId) -> NodeId {
        self.journal_dirty = true;
        let id = self.copy_from(src, src_node, Some(parent), None);
        self.push_child(parent, id);
        id
    }

    /// Deep-copies the subtree rooted at `src_node` of another document as
    /// a new root of this forest. Call ids are re-assigned.
    pub fn append_copy_as_root(&mut self, src: &Document, src_node: NodeId) -> NodeId {
        self.journal_dirty = true;
        let id = self.copy_from(src, src_node, None, None);
        self.roots.push(id);
        id
    }

    /// Deep-copies the subtree rooted at `node` into a fresh single-rooted
    /// forest (fresh call ids).
    pub fn subtree_to_forest(&self, node: NodeId) -> Forest {
        let mut f = Forest::new();
        let new_root = f.copy_from(self, node, None, None);
        f.roots.push(new_root);
        f
    }

    /// Deep-copies the *children* of `node` into a fresh forest (used for
    /// passing call parameters to a service).
    pub fn children_to_forest(&self, node: NodeId) -> Forest {
        let mut f = Forest::new();
        for &c in self.children(node) {
            let copied = f.copy_from(self, c, None, None);
            f.roots.push(copied);
        }
        f
    }

    /// Deep-copies the subtree of `src` rooted at `node` and returns the
    /// copy's root, linked up to `parent` but not yet in its child list or
    /// among the roots: the caller places it. Nodes are allocated in
    /// pre-order, so fresh call ids follow document order, and an explicit
    /// stack bounds the recursion no matter how deep the subtree is.
    ///
    /// With `remap` (one slot per `src` symbol, [`UNMAPPED`] until used),
    /// each source symbol is interned here once. Without it, each label is
    /// looked up by its text — cheaper when the copy is a small part of a
    /// document with many symbols.
    fn copy_from(
        &mut self,
        src: &Document,
        node: NodeId,
        parent: Option<NodeId>,
        mut remap: Option<&mut [u32]>,
    ) -> NodeId {
        let mut root = None;
        let mut stack = vec![(node, parent)];
        while let Some((s, p)) = stack.pop() {
            let n = src.node(s);
            let label = src.sym_label(n.sym);
            let sym = match remap.as_deref_mut() {
                Some(map) => {
                    let slot = &mut map[n.sym as usize];
                    if *slot == UNMAPPED {
                        *slot = self.intern_label(label);
                    }
                    *slot
                }
                None => self.intern_label(label),
            };
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
    /// recursion no matter how deep the subtree is.
    fn free_subtree(&mut self, id: NodeId) {
        // pre-order with children pushed in order visits the mirror image;
        // reversed, that is the post-order
        let mut order = Vec::new();
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            order.push(n);
            stack.extend_from_slice(self.children(n));
        }
        for &n in order.iter().rev() {
            self.index_remove(n);
            let node = self.node_raw_mut(n.index());
            node.alive = false;
            node.parent = None;
            node.children = None;
            node.child_len = 0;
            self.free.push(n.0);
        }
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
    /// splice journal records the same forest, not a copy.
    pub fn splice_shared(&mut self, call: NodeId, result: &Arc<Forest>) -> Vec<NodeId> {
        self.splice(call, result, || Arc::clone(result))
    }

    /// The splice itself; `journaled` yields the forest the journal keeps.
    /// Costs O(siblings + result nodes): the result's symbols are mapped
    /// into this document once each, and one `Vec::splice` puts the copied
    /// roots in the call's place.
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
        let mut remap = vec![UNMAPPED; result.sym_count()];
        let inserted: Vec<NodeId> = result
            .roots
            .iter()
            .map(|&r| self.copy_from(result, r, parent, Some(&mut remap)))
            .collect();
        match parent {
            Some(p) => {
                let n = self.node_raw_mut(p.index());
                let old = n.children.as_deref().expect("the call is a child");
                let old = &old[..n.child_len as usize];
                let len = old.len() - 1 + inserted.len();
                let parts = [&old[..pos], &inserted[..], &old[pos + 1..]];
                n.children = (len > 0).then(|| child_buffer(&parts, len));
                n.child_len = len as u32;
            }
            None => {
                self.roots.splice(pos..=pos, inserted.iter().copied());
            }
        }
        inserted
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
    /// well-formed, and the label index and call registry — with the side
    /// pages holding each live node's position in them — agree with the
    /// nodes.
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
            if n.parent != parent {
                return Err(format!(
                    "{id:?} parent link {:?} != tree parent {:?}",
                    n.parent, parent
                ));
            }
            if n.sym as usize >= self.symtab.labels.len() {
                return Err(format!("{id:?} has unknown symbol {}", n.sym));
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
            if n.child_len as usize > n.children.as_deref().map_or(0, <[NodeId]>::len) {
                return Err(format!("n{i} lists more children than its buffer holds"));
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
        let bucket_total: usize = self.buckets.values().map(|b| b.len()).sum();
        if bucket_total != self.len() {
            return Err(format!(
                "label index holds {bucket_total} entries but {} nodes are live",
                self.len()
            ));
        }
        for (sym, bucket) in &self.buckets {
            for (pos, &id) in bucket.iter().enumerate() {
                let n = self.node_raw(id.index());
                if !n.alive {
                    return Err(format!("freed {id:?} still in bucket {sym}"));
                }
                if n.sym != *sym {
                    return Err(format!("{id:?} in bucket {sym} but has sym {}", n.sym));
                }
                let recorded = self.bucket_pos.get(id.index());
                if recorded as usize != pos {
                    return Err(format!("{id:?} bucket position {recorded} != {pos}"));
                }
                if self.symtab.lookup(self.label(id)) != Some(*sym) {
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
        Ok(())
    }
}

/// A child buffer of `capacity` slots holding the ids of `parts` in
/// order, then [`NO_CHILD`] fillers. One allocation.
fn child_buffer(parts: &[&[NodeId]], capacity: usize) -> Arc<[NodeId]> {
    let mut buf: Arc<[NodeId]> = std::iter::repeat_n(NO_CHILD, capacity).collect();
    let slots = Arc::get_mut(&mut buf).expect("a fresh buffer is unshared");
    let mut at = 0;
    for part in parts {
        slots[at..at + part.len()].copy_from_slice(part);
        at += part.len();
    }
    buf
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
    fn ancestor_tests() {
        let (d, hotel, call) = sample();
        assert!(d.is_ancestor(d.root(), call, false));
        assert!(d.is_ancestor(hotel, call, false));
        assert!(!d.is_ancestor(call, hotel, false));
        assert!(!d.is_ancestor(hotel, hotel, false));
        assert!(d.is_ancestor(hotel, hotel, true));
    }

    #[test]
    fn subtree_copy_is_deep_and_independent() {
        let (d, hotel, _) = sample();
        let f = d.subtree_to_forest(hotel);
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
    fn children_to_forest_extracts_parameters() {
        let (d, _, call) = sample();
        let params = d.children_to_forest(call);
        assert_eq!(params.roots().len(), 1);
        assert_eq!(params.text_value(params.roots()[0]), Some("75 2nd Av"));
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
        #[cfg(target_pointer_width = "64")]
        assert_eq!(std::mem::size_of::<Node>(), 56);
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
        assert!(!d.splice_journal_enabled());
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
}
