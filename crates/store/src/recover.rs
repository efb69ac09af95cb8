//! Crash recovery: rebuild a `DocumentStore` from its write-ahead logs.
//!
//! Recovery of one log is a pure function of its bytes ([`recover_log`]):
//! scan the CRC-framed valid prefix ([`crate::wal::scan_frames`]), then
//! replay sequentially — start from the newest intact full-document
//! checkpoint already seen (a periodic one at the log's version, or a
//! publication that stated no splices, at the next), apply each `Splices`
//! record via `Document::splice_by_call_id` (exact, because the binary
//! codec preserves call ids and the id counter), and track the last
//! persisted watermark per subscription. Any replay-level inconsistency
//! (version gap, unknown call id) is treated exactly like a framing
//! failure: the log is truncated at that frame and everything before it
//! is the recovered state.
//!
//! Directory-level recovery (`recover_dir`, behind
//! [`crate::DocumentStore::recover`]) additionally truncates each
//! physical file to its valid prefix — making recovery idempotent:
//! a second recovery (even after another crash during the first) sees
//! the same valid prefix and reproduces the same state.

use crate::wal::{doc_name_from_file, scan_frames, LogDir, WalError, WalRecord};
use axml_xml::Document;
use std::collections::BTreeMap;

/// Outcome of recovering one log file (pure, in-memory).
pub struct RecoveredLog {
    /// The recovered document, or `None` when no intact checkpoint
    /// exists (the document was never acknowledged durable).
    pub doc: Option<Document>,
    /// Version the recovered document corresponds to.
    pub version: u64,
    /// Valid frames consumed.
    pub frames: usize,
    /// Splice operations replayed on top of the checkpoint.
    pub splices_replayed: usize,
    /// Version of the checkpoint replay started from.
    pub checkpoint_version: u64,
    /// Publication records since that last checkpoint (seeds the
    /// checkpoint cadence of the adopted log).
    pub records_since_checkpoint: u64,
    /// Last persisted watermark per subscription, clamped to `version`.
    pub watermarks: BTreeMap<String, u64>,
    /// Byte length of the valid prefix; the file is truncated here.
    pub valid_len: u64,
    /// Offset and reason of the truncation point, if the log did not end
    /// cleanly.
    pub truncated: Option<(u64, String)>,
}

/// Replays one log image. Never fails: corruption shortens the valid
/// prefix instead.
pub fn recover_log(buf: &[u8]) -> RecoveredLog {
    let scan = scan_frames(buf);
    let mut state: Option<(u64, Document)> = None;
    let mut watermarks: BTreeMap<String, u64> = BTreeMap::new();
    let mut frames = 0usize;
    let mut splices_replayed = 0usize;
    let mut checkpoint_version = 0u64;
    let mut records_since_checkpoint = 0u64;

    for (offset, record) in scan.records {
        let refused = 'record: {
            match record {
                WalRecord::Checkpoint { version, doc } => {
                    // after the log's first frame, a checkpoint sits at the
                    // log's version (a periodic one) or at the next one (a
                    // publication that stated no splices)
                    if let Some((v, _)) = &state {
                        if version != *v && version != *v + 1 {
                            break 'record Some(format!(
                                "checkpoint at v{version} but log is at v{v}"
                            ));
                        }
                    }
                    checkpoint_version = version;
                    records_since_checkpoint = 0;
                    state = Some((version, doc));
                }
                WalRecord::Splices { version, ops } => {
                    let Some((v, doc)) = &mut state else {
                        break 'record Some("splice record before any checkpoint".to_string());
                    };
                    if version != *v + 1 {
                        break 'record Some(format!(
                            "splice record at v{version} but log is at v{v}"
                        ));
                    }
                    for (call, result) in &ops {
                        if doc
                            .splice_by_call_id(axml_xml::CallId(*call), result)
                            .is_none()
                        {
                            break 'record Some(format!(
                                "splice references unknown call id {call}"
                            ));
                        }
                        splices_replayed += 1;
                    }
                    *v = version;
                    records_since_checkpoint += 1;
                }
                WalRecord::Watermark {
                    subscription,
                    version,
                } => {
                    watermarks.insert(subscription, version);
                }
            }
            None
        };
        if let Some(reason) = refused {
            // the log ends before this frame, and the state is what the
            // frames before it replay to: a splice record refused part
            // way has already applied its first splices
            let prefix = offset as usize;
            return RecoveredLog {
                truncated: Some((offset, reason)),
                ..recover_log(&buf[..prefix])
            };
        }
        frames += 1;
    }

    let (version, doc) = match state {
        Some((v, d)) => (v, Some(d)),
        None => (0, None),
    };
    // A watermark past the recovered version refers to lost (unacked)
    // publications; clamp so re-anchoring never claims the future.
    for w in watermarks.values_mut() {
        *w = (*w).min(version);
    }
    RecoveredLog {
        doc,
        version,
        frames,
        splices_replayed,
        checkpoint_version,
        records_since_checkpoint,
        watermarks,
        valid_len: scan.valid_len,
        truncated: scan.truncated,
    }
}

/// Per-document recovery outcome, as reported to callers and the CLI.
#[derive(Clone, Debug)]
pub struct DocRecovery {
    /// Document name (decoded from the log file name).
    pub name: String,
    /// Log file name inside the store directory.
    pub file: String,
    /// Valid frames consumed.
    pub frames: usize,
    /// Splices replayed on top of the newest intact checkpoint.
    pub splices_replayed: usize,
    /// Version of the checkpoint replay started from.
    pub checkpoint_version: u64,
    /// Version the document was recovered to.
    pub recovered_version: u64,
    /// Offset the log was truncated at, if it did not end cleanly.
    pub truncated_at: Option<u64>,
    /// Why the log was truncated there.
    pub truncate_reason: Option<String>,
    /// Persisted subscription watermarks (clamped to the recovered
    /// version).
    pub watermarks: BTreeMap<String, u64>,
    /// Set when the document could not be recovered at all (no intact
    /// checkpoint): the one-line diagnostic with file, offset and reason.
    pub error: Option<String>,
}

/// Outcome of recovering a whole store directory.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// One entry per log file found, sorted by document name.
    pub docs: Vec<DocRecovery>,
}

impl RecoveryReport {
    /// Whether every log recovered to a usable document.
    pub fn ok(&self) -> bool {
        self.docs.iter().all(|d| d.error.is_none())
    }

    /// The first unrecoverable document's diagnostic, if any.
    pub fn first_error(&self) -> Option<&str> {
        self.docs.iter().find_map(|d| d.error.as_deref())
    }

    /// Total splices replayed across all documents.
    pub fn splices_replayed(&self) -> usize {
        self.docs.iter().map(|d| d.splices_replayed).sum()
    }

    /// Whether any log had a torn or corrupt tail truncated.
    pub fn any_truncated(&self) -> bool {
        self.docs.iter().any(|d| d.truncated_at.is_some())
    }
}

/// A recovered document ready for the store to adopt, paired with its
/// report entry.
pub(crate) struct RecoveredDoc {
    pub name: String,
    pub file: String,
    pub doc: Option<Document>,
    pub version: u64,
    pub records_since_checkpoint: u64,
    pub report: DocRecovery,
}

/// Scans `dir`, recovers every `.wal` file, and truncates each file to
/// its valid prefix. Fails only on directory-level I/O errors — corrupt
/// logs become report entries, not errors.
pub(crate) fn recover_dir(dir: &dyn LogDir) -> Result<Vec<RecoveredDoc>, WalError> {
    let mut out = Vec::new();
    for file in dir.list()? {
        let Some(name) = doc_name_from_file(&file) else {
            continue;
        };
        let buf = dir.read(&file)?;
        let recovered = recover_log(&buf);
        // Truncate the physical file to the valid prefix so the log can
        // be appended to again and a re-run recovers identically. Skip
        // the write when nothing is being cut (keeps recovery read-only
        // in the happy path) and when the doc is unrecoverable (leave
        // the evidence in place for diagnosis).
        if recovered.doc.is_some() && recovered.valid_len < buf.len() as u64 {
            dir.truncate(&file, recovered.valid_len)?;
        }
        let error = if recovered.doc.is_none() {
            let (offset, reason) = recovered
                .truncated
                .clone()
                .unwrap_or((0, "log contains no checkpoint".to_string()));
            Some(format!(
                "unrecoverable document {name:?}: {file} invalid at offset {offset}: {reason}"
            ))
        } else {
            None
        };
        let report = DocRecovery {
            name: name.clone(),
            file: file.clone(),
            frames: recovered.frames,
            splices_replayed: recovered.splices_replayed,
            checkpoint_version: recovered.checkpoint_version,
            recovered_version: recovered.version,
            truncated_at: recovered.truncated.as_ref().map(|(o, _)| *o),
            truncate_reason: recovered.truncated.as_ref().map(|(_, r)| r.clone()),
            watermarks: recovered.watermarks.clone(),
            error,
        };
        out.push(RecoveredDoc {
            name,
            file,
            doc: recovered.doc,
            version: recovered.version,
            records_since_checkpoint: recovered.records_since_checkpoint,
            report,
        });
    }
    out.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{encode_record, frame, WAL_MAGIC};
    use axml_xml::Document;
    use std::sync::Arc;

    fn doc_with_call() -> (Document, axml_xml::CallId) {
        let mut d = Document::default();
        let root = d.add_root("site");
        let call = d.add_call(root, "svc");
        let (cid, _) = d.call_info(call).unwrap();
        (d, cid)
    }

    fn log(records: &[WalRecord]) -> Vec<u8> {
        let mut buf = WAL_MAGIC.to_vec();
        for r in records {
            buf.extend_from_slice(&frame(&encode_record(r)));
        }
        buf
    }

    #[test]
    fn replays_splices_on_checkpoint() {
        let (d, cid) = doc_with_call();
        let mut result = Document::default();
        result.add_root_text("42");
        let buf = log(&[
            WalRecord::Checkpoint {
                version: 0,
                doc: d.clone(),
            },
            WalRecord::Splices {
                version: 1,
                ops: vec![(cid.0, Arc::new(result.clone()))],
            },
            WalRecord::Watermark {
                subscription: "s".into(),
                version: 1,
            },
        ]);
        let rec = recover_log(&buf);
        assert!(rec.truncated.is_none());
        assert_eq!(rec.version, 1);
        assert_eq!(rec.frames, 3);
        assert_eq!(rec.splices_replayed, 1);
        assert_eq!(rec.watermarks.get("s"), Some(&1));
        let doc = rec.doc.expect("recovered");
        doc.check_integrity().unwrap();
        let xml = axml_xml::to_xml(&doc);
        assert!(xml.contains("42"), "{xml}");
        // The spliced call is gone.
        assert!(doc.find_call(cid).is_none());
    }

    #[test]
    fn version_gap_truncates_at_offending_frame() {
        let (d, cid) = doc_with_call();
        let mut result = Document::default();
        result.add_root_text("x");
        let buf = log(&[
            WalRecord::Checkpoint {
                version: 0,
                doc: d.clone(),
            },
            WalRecord::Splices {
                version: 2, // gap: v1 missing
                ops: vec![(cid.0, Arc::new(result))],
            },
        ]);
        let rec = recover_log(&buf);
        assert_eq!(rec.version, 0);
        assert_eq!(rec.frames, 1);
        let (_, reason) = rec.truncated.expect("truncated");
        assert!(reason.contains("v2"), "{reason}");
        // valid_len covers only the checkpoint frame.
        assert!(rec.valid_len < buf.len() as u64);
    }

    #[test]
    fn a_splice_record_refused_part_way_applies_none_of_its_splices() {
        let (d, cid) = doc_with_call();
        let mut result = Document::default();
        result.add_root_text("x");
        let result = Arc::new(result);
        let checkpoint = [WalRecord::Checkpoint {
            version: 0,
            doc: d.clone(),
        }];
        let mut records = checkpoint.to_vec();
        records.push(WalRecord::Splices {
            version: 1,
            ops: vec![(cid.0, Arc::clone(&result)), (999, result)],
        });
        let rec = recover_log(&log(&records));
        let offset = log(&checkpoint).len() as u64;
        assert_eq!(rec.truncated.as_ref().map(|(at, _)| *at), Some(offset));
        assert_eq!(rec.valid_len, offset);
        assert_eq!((rec.version, rec.frames, rec.splices_replayed), (0, 1, 0));
        let doc = rec.doc.expect("recovered");
        assert_eq!(axml_xml::to_xml(&doc), axml_xml::to_xml(&d));
        assert!(doc.find_call(cid).is_some(), "the first splice is undone");
    }

    #[test]
    fn unknown_call_id_truncates() {
        let (d, _) = doc_with_call();
        let mut result = Document::default();
        result.add_root_text("x");
        let buf = log(&[
            WalRecord::Checkpoint { version: 0, doc: d },
            WalRecord::Splices {
                version: 1,
                ops: vec![(999, Arc::new(result))],
            },
        ]);
        let rec = recover_log(&buf);
        assert_eq!(rec.version, 0);
        let (_, reason) = rec.truncated.expect("truncated");
        assert!(reason.contains("unknown call id 999"), "{reason}");
    }

    #[test]
    fn no_checkpoint_is_unrecoverable() {
        let rec = recover_log(&log(&[WalRecord::Watermark {
            subscription: "s".into(),
            version: 3,
        }]));
        assert!(rec.doc.is_none());
        assert_eq!(rec.version, 0);
        // Watermarks clamp to the recovered version.
        assert_eq!(rec.watermarks.get("s"), Some(&0));
    }

    #[test]
    fn newest_checkpoint_wins_and_counts_reset() {
        let (d, cid) = doc_with_call();
        let mut result = Document::default();
        result.add_root_text("1");
        let mut d1 = d.clone();
        d1.splice_by_call_id(cid, &result).unwrap();
        let buf = log(&[
            WalRecord::Checkpoint {
                version: 0,
                doc: d.clone(),
            },
            WalRecord::Splices {
                version: 1,
                ops: vec![(cid.0, Arc::new(result.clone()))],
            },
            WalRecord::Checkpoint {
                version: 1,
                doc: d1.clone(),
            },
            // a publication that stated no splices
            WalRecord::Checkpoint {
                version: 2,
                doc: Document::with_root("v2"),
            },
        ]);
        let rec = recover_log(&buf);
        assert!(rec.truncated.is_none());
        assert_eq!(rec.version, 2);
        assert_eq!(rec.checkpoint_version, 2);
        assert_eq!(rec.records_since_checkpoint, 0);
        let doc = rec.doc.expect("recovered");
        assert_eq!(doc.label(doc.root()), "v2");
    }

    #[test]
    fn a_checkpoint_off_the_chain_truncates_at_its_frame() {
        let (d, cid) = doc_with_call();
        let mut result = Document::default();
        result.add_root_text("1");
        let prefix = [
            WalRecord::Checkpoint {
                version: 0,
                doc: d.clone(),
            },
            WalRecord::Splices {
                version: 1,
                ops: vec![(cid.0, Arc::new(result))],
            },
        ];
        // two versions ahead of the log, and one behind it
        for (stray, log_at) in [(3, 1), (0, 1)] {
            let mut records = prefix.to_vec();
            records.push(WalRecord::Checkpoint {
                version: stray,
                doc: d.clone(),
            });
            let buf = log(&records);
            let offset = log(&prefix).len() as u64;
            let rec = recover_log(&buf);
            assert_eq!(rec.version, log_at);
            assert_eq!(rec.frames, 2);
            assert_eq!(rec.valid_len, offset);
            let (at, reason) = rec.truncated.expect("truncated");
            assert_eq!(at, offset);
            assert!(
                reason.contains(&format!("checkpoint at v{stray} but log is at v{log_at}")),
                "{reason}"
            );
        }
    }
}
