//! Exact binary serialization of documents for the durability layer.
//!
//! The XML serializer ([`crate::serialize`]) is lossy in exactly the way a
//! write-ahead log cannot afford: re-parsing renumbers [`CallId`]s and
//! resets the call counter, so a checkpoint round-tripped through XML
//! would no longer accept the splice records that follow it (each
//! [`crate::tree::SpliceOp`] names the call it consumed by id, and splicing
//! draws fresh ids from the counter). This module therefore encodes the
//! *identity-bearing* structure of a [`Document`] exactly: node kinds,
//! labels, tree shape, call ids, and the `next_call` counter. Decoding
//! rebuilds a document that is indistinguishable from the original to every
//! consumer — queries, splice replay, and the XML serializer alike.
//!
//! The format is a private implementation detail of the WAL frame payloads
//! (`axml-store`); it carries no version header of its own because every
//! frame is already CRC-framed and versioned by the log file header.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! document := root_count:u32 node* next_call:u64
//! node     := 0x00 label element-children
//!           | 0x01 label                      (text; label is the value)
//!           | 0x02 label call_id:u64 element-children
//! children := count:u32 node*
//! label    := len:u32 bytes
//! ```
//!
//! [`CallId`]: crate::CallId

use crate::tree::{Document, NodeId, NodeKind};
use std::collections::HashSet;
use std::fmt;

/// Decoding failed: the buffer is not a well-formed document encoding.
/// (Under CRC-framed storage this indicates a logic error or a hash
/// collision, not routine corruption — corrupt frames fail their CRC
/// before reaching the decoder.)
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError(pub String);

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire decode: {}", self.0)
    }
}

impl std::error::Error for WireError {}

const TAG_ELEMENT: u8 = 0x00;
const TAG_TEXT: u8 = 0x01;
const TAG_CALL: u8 = 0x02;

/// Decoder recursion bound: deeper nesting than this is rejected rather
/// than risking the stack (the XML parser enforces its own
/// [`crate::MAX_DEPTH`], far below this).
const MAX_WIRE_DEPTH: usize = 4096;

/// Appends the exact encoding of `doc` (a document or forest) to `out`.
pub fn encode_document(doc: &Document, out: &mut Vec<u8>) {
    put_u32(out, doc.roots().len() as u32);
    for &r in doc.roots() {
        encode_node(doc, r, out);
    }
    put_u64(out, doc.next_call_id());
}

/// The exact encoding of `doc` as an owned buffer.
pub fn document_to_bytes(doc: &Document) -> Vec<u8> {
    let mut out = Vec::new();
    encode_document(doc, &mut out);
    out
}

fn encode_node(doc: &Document, id: NodeId, out: &mut Vec<u8>) {
    match doc.kind(id) {
        NodeKind::Element => {
            out.push(TAG_ELEMENT);
            put_str(out, doc.label(id));
        }
        NodeKind::Text => {
            out.push(TAG_TEXT);
            put_str(out, doc.label(id));
            return; // text nodes are leaves
        }
        NodeKind::Call(cid) => {
            out.push(TAG_CALL);
            put_str(out, doc.label(id));
            put_u64(out, cid.0);
        }
    }
    let children = doc.children(id);
    put_u32(out, children.len() as u32);
    for &c in children {
        encode_node(doc, c, out);
    }
}

/// Decodes a document previously produced by [`encode_document`]. The
/// result carries the original call ids and call counter, so splice
/// replay against it behaves exactly as against the original. A call id
/// that appears twice is rejected: a document names each call once.
pub fn decode_document(buf: &[u8]) -> Result<Document, WireError> {
    let mut r = Reader { buf, pos: 0 };
    let mut doc = Document::new();
    let mut calls = HashSet::new();
    let roots = r.take_u32()?;
    for _ in 0..roots {
        decode_node(&mut r, &mut doc, None, 0, &mut calls)?;
    }
    let next_call = r.take_u64()?;
    if r.pos != buf.len() {
        return Err(WireError(format!(
            "{} trailing bytes after document",
            buf.len() - r.pos
        )));
    }
    if let Some(&m) = calls.iter().max() {
        if next_call <= m {
            return Err(WireError(format!(
                "call counter {next_call} not above largest call id {m}"
            )));
        }
    }
    doc.set_next_call(next_call);
    Ok(doc)
}

fn decode_node(
    r: &mut Reader<'_>,
    doc: &mut Document,
    parent: Option<NodeId>,
    depth: usize,
    calls: &mut HashSet<u64>,
) -> Result<(), WireError> {
    if depth > MAX_WIRE_DEPTH {
        return Err(WireError(format!("nesting deeper than {MAX_WIRE_DEPTH}")));
    }
    let tag = r.take_u8()?;
    let label = r.take_str()?;
    let id = match tag {
        TAG_ELEMENT => match parent {
            Some(p) => doc.add_element(p, label.as_str()),
            None => doc.add_root(label.as_str()),
        },
        TAG_TEXT => {
            match parent {
                Some(p) => doc.add_text(p, label),
                None => doc.add_root_text(label),
            };
            return Ok(()); // leaves carry no child list
        }
        TAG_CALL => {
            let raw = r.take_u64()?;
            if !calls.insert(raw) {
                return Err(WireError(format!("call id {raw} appears twice")));
            }
            doc.add_call_with_id(parent, &label, raw)
        }
        other => return Err(WireError(format!("unknown node tag 0x{other:02x}"))),
    };
    let children = r.take_u32()? as usize;
    // each child costs at least 5 encoded bytes (tag + length), so a
    // count beyond the remaining buffer is corrupt, not just truncated
    if children > r.remaining() {
        return Err(WireError(format!(
            "child count {children} exceeds remaining {} bytes",
            r.remaining()
        )));
    }
    for _ in 0..children {
        decode_node(r, doc, Some(id), depth + 1, calls)?;
    }
    Ok(())
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&[u8], WireError> {
        if self.remaining() < n {
            return Err(WireError(format!(
                "need {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn take_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn take_u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn take_u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn take_str(&mut self) -> Result<String, WireError> {
        let len = self.take_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError(format!("non-UTF-8 label at offset {}", self.pos)))
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serialize::to_xml;
    use crate::tree::Forest;

    fn sample() -> Document {
        let mut d = Document::with_root("hotels");
        let hotel = d.add_element(d.root(), "hotel");
        let name = d.add_element(hotel, "name");
        d.add_text(name, "Best Western");
        let rating = d.add_element(hotel, "rating");
        let call = d.add_call(rating, "getRating");
        d.add_text(call, "75 2nd Av");
        d.add_call(hotel, "getNearbyRestos");
        d
    }

    #[test]
    fn round_trip_preserves_xml_and_call_identity() {
        let d = sample();
        let bytes = document_to_bytes(&d);
        let back = decode_document(&bytes).unwrap();
        back.check_integrity().unwrap();
        assert_eq!(to_xml(&back), to_xml(&d));
        assert_eq!(back.next_call_id(), d.next_call_id());
        let calls = d.calls();
        let back_calls = back.calls();
        assert_eq!(calls.len(), back_calls.len());
        for (&a, &b) in calls.iter().zip(&back_calls) {
            assert_eq!(d.call_info(a).unwrap().0, back.call_info(b).unwrap().0);
        }
    }

    #[test]
    fn round_trip_then_splice_reassigns_identical_ids() {
        // the decoded document must accept the *same* splice stream the
        // original would: same call found, same fresh ids assigned
        let mut d = sample();
        let mut back = decode_document(&document_to_bytes(&d)).unwrap();
        let (cid, _) = d.call_info(d.calls()[0]).unwrap();
        let mut res = Forest::new();
        let r = res.add_root("stars");
        res.add_text(r, "4");
        res.add_root_call("refresh");
        let a = d.splice_by_call_id(cid, &res).unwrap();
        let b = back.splice_by_call_id(cid, &res).unwrap();
        assert_eq!(a.len(), b.len());
        assert_eq!(to_xml(&d), to_xml(&back));
        assert_eq!(d.next_call_id(), back.next_call_id());
        let (na, _) = d.call_info(d.calls()[0]).unwrap();
        let (nb, _) = back.call_info(back.calls()[0]).unwrap();
        assert_eq!(na, nb, "fresh splice ids must match after round trip");
    }

    #[test]
    fn repeated_call_ids_are_rejected() {
        // two root calls, both with id 0, the counter at 1
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        for _ in 0..2 {
            buf.push(TAG_CALL);
            put_str(&mut buf, "f");
            put_u64(&mut buf, 0);
            put_u32(&mut buf, 0);
        }
        put_u64(&mut buf, 1);
        let err = decode_document(&buf).unwrap_err();
        assert!(err.0.contains("call id 0 appears twice"), "{err}");
    }

    #[test]
    fn forest_and_empty_documents_round_trip() {
        let empty = Document::new();
        assert_eq!(
            decode_document(&document_to_bytes(&empty)).unwrap().len(),
            0
        );
        let mut f = Forest::new();
        f.add_root_text("loose");
        f.add_root("tree");
        f.add_root_call("svc");
        let back = decode_document(&document_to_bytes(&f)).unwrap();
        assert_eq!(back.roots().len(), 3);
        assert_eq!(to_xml(&back), to_xml(&f));
    }

    #[test]
    fn truncation_and_garbage_are_rejected_not_panicking() {
        let bytes = document_to_bytes(&sample());
        for cut in 0..bytes.len() {
            // every strict prefix must fail cleanly
            assert!(decode_document(&bytes[..cut]).is_err(), "prefix {cut}");
        }
        let mut bad = bytes.clone();
        bad[4] = 0x7f; // first node tag becomes unknown
        assert!(decode_document(&bad).is_err());
    }

    #[test]
    fn stale_call_counter_is_rejected() {
        let mut d = Document::new();
        d.add_root_call("svc");
        let mut bytes = document_to_bytes(&d);
        let n = bytes.len();
        bytes[n - 8..].copy_from_slice(&0u64.to_le_bytes());
        let err = decode_document(&bytes).unwrap_err();
        assert!(err.0.contains("call counter"), "{err}");
    }
}
