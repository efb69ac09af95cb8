#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # axml-xml — the XML substrate for Active XML
//!
//! Arena-backed ordered labeled trees with *data nodes* (elements, text) and
//! *function nodes* (embedded Web-service calls), plus a from-scratch XML
//! parser and serializer using the ActiveXML `<axml:call service="…">`
//! convention.
//!
//! This crate implements the document model of Section 2 of
//! *Lazy Query Evaluation for Active XML* (SIGMOD 2004): documents are
//! ordered labeled trees; invoking a call replaces the function node by the
//! returned forest ([`Document::splice_call`]).
//!
//! A node names its label by an interned symbol of its document: a
//! [`NodeKind`] says only whether the node is an element, a text value or
//! a call (with its [`CallId`]), and [`Document::label`] reads the label
//! from the document's symbol table. Splicing a service result therefore
//! costs the result's size, not the document's: the forest's symbols are
//! mapped into the document once each, and a copy-on-write page clone
//! copies integers and shares child lists.
//!
//! Query evaluation (`axml-query`) reads a [`Document`] directly; a frozen
//! [`DocSnapshot`] derefs to the document version it froze, so snapshots
//! evaluate through the same code.
//!
//! ```
//! use axml_xml::{Document, parse, to_xml};
//!
//! let mut d = Document::with_root("hotel");
//! let rating = d.add_element(d.root(), "rating");
//! let call = d.add_call(rating, "getRating");
//!
//! // a service answered: splice the result in place of the call
//! let result = parse("<stars>5</stars>").unwrap();
//! d.splice_call(call, &result);
//! assert_eq!(to_xml(&d), "<hotel><rating><stars>5</stars></rating></hotel>");
//! ```

pub mod escape;
pub mod label;
pub mod parse;
pub mod serialize;
pub mod snapshot;
pub mod tree;
pub mod wire;

pub use label::Label;
pub use parse::{parse, ParseError, MAX_DEPTH};
pub use serialize::{
    children_to_xml, forest_serialized_len, serialized_len, subtree_to_xml, to_xml, to_xml_with,
    SerializeOptions,
};
pub use snapshot::{
    CatchUp, DocSnapshot, Publication, PublicationRecord, PublicationTap, VersionedDocument,
};
pub use tree::{CallId, Descendants, Document, Forest, NodeId, NodeKind, SpliceOp};
pub use wire::{decode_document, document_to_bytes, encode_document, WireError};
