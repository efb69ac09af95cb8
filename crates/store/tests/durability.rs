//! The crash-matrix oracle — the durability subsystem's headline test.
//!
//! One deterministic workload (K persistent-mode queries, each forcing
//! one service call and publishing one version) runs twice:
//!
//! 1. **Reference run** — no crash; records the document's XML at every
//!    version `0..=K`.
//! 2. **Crashed runs** — the same workload on a [`SimDir`] whose seeded
//!    [`CrashProfile`] kills the disk mid-flight (torn writes, dropped
//!    flush spans, bit rot — all restricted to the unsynced tail), swept
//!    across crash points × checkpoint cadences × fsync policies × fault
//!    seeds by proptest.
//!
//! After each crash the store is recovered from the persisted image and
//! the oracle asserts:
//!
//! * **Acknowledged prefix** — every fsync-acknowledged publication
//!   survives: `acked ≤ recovered_version`, and the recovered document
//!   is *byte-identical* (XML) to the reference run at that version.
//! * **No corrupt state** — the unacknowledged tail may be lost but
//!   never surfaces partially: the recovered version is always some
//!   exact reference prefix, and the arena passes `check_integrity`.
//! * **Idempotence** — recovering twice (or crashing during recovery
//!   and recovering again) yields the same state.
//! * **Continuity** — the recovered store accepts the remaining
//!   workload and converges to the reference run's final state.
//!
//! A second matrix interleaves the session publications, which state
//! their splices, with publications of fresh documents, which state none
//! and are logged as checkpoints of their versions. Both matrices run 64
//! cases; `PROPTEST_CASES` raises the count.

use axml_query::{parse_query, Pattern};
use axml_services::{CallRequest, FnService, Registry};
use axml_store::{
    encode_record, frame, log_file_name, scan_frames, CrashProfile, DocumentStore,
    DurabilityOptions, FsyncPolicy, LogDir, RecoveryReport, SessionOptions, SimDir, WalRecord,
    WAL_MAGIC,
};
use axml_xml::{parse, to_xml, Document};
use proptest::prelude::*;
use std::sync::Arc;

const K: usize = 6;

fn registry() -> Registry {
    let mut r = Registry::new();
    r.register(FnService::new("svc", |req: &CallRequest| {
        let key = req.first_text().unwrap_or("?");
        parse(&format!("<val>{key}</val>")).unwrap()
    }));
    r
}

/// `<r><g0><call svc>0</call></g0> ... >` — query `i` forces exactly
/// group `i`'s call, so each query splices one result and publishes one
/// version.
fn doc() -> axml_xml::Document {
    let mut d = axml_xml::Document::with_root("r");
    let root = d.root();
    for i in 0..K {
        let g = d.add_element(root, format!("g{i}"));
        let c = d.add_call(g, "svc");
        d.add_text(c, format!("{i}"));
    }
    d
}

fn query(i: usize) -> Pattern {
    parse_query(&format!("/r/g{i}/val/$V -> $V")).unwrap()
}

fn persistent() -> SessionOptions {
    SessionOptions {
        snapshot_per_query: false,
        ..SessionOptions::default()
    }
}

/// What step `i` of a workload publishes, as version `i + 1`.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Step {
    /// Query `i` in a persistent session: the one splice it makes.
    Query,
    /// A fresh document, published with no splices stated.
    Fresh,
}

/// Every step a query: the workload of the first matrix.
const QUERIES: [Step; K] = [Step::Query; K];

/// The fresh document step `i` publishes, a whole new version as E18
/// makes them: the inserted document again, every call pending, with one
/// value naming the step.
fn fresh_doc(i: usize) -> Document {
    let mut d = doc();
    let v = d.add_element(d.root(), "v");
    d.add_text(v, format!("{i}"));
    d
}

/// Runs queries `from..K` against the durable store, returning the XML
/// after each publication, indexed by version.
fn run_workload(store: &mut DocumentStore, registry: &Registry, from: usize) -> Vec<String> {
    run_steps(store, registry, &QUERIES, from)
}

/// Runs `steps[from..]` against the durable store, returning the XML
/// after each publication, indexed by version.
fn run_steps(
    store: &mut DocumentStore,
    registry: &Registry,
    steps: &[Step],
    from: usize,
) -> Vec<String> {
    let mut by_version = Vec::new();
    for (i, step) in steps.iter().enumerate().skip(from) {
        match step {
            Step::Query => {
                let mut session = store
                    .session("doc", registry, None, persistent())
                    .expect("doc stored");
                let report = session.query(&query(i));
                assert_eq!(report.answers.len(), 1, "query {i} has one answer row");
            }
            Step::Fresh => {
                store
                    .versioned("doc")
                    .expect("doc stored")
                    .publish(fresh_doc(i));
            }
        }
        by_version.push(to_xml(&store.get("doc").unwrap().to_document()));
    }
    by_version
}

/// The uncrashed reference: XML at every version `0..=K`.
fn reference() -> Vec<String> {
    reference_of(&QUERIES)
}

/// The uncrashed reference of `steps`: XML at every version `0..=K`.
fn reference_of(steps: &[Step]) -> Vec<String> {
    let registry = registry();
    let dir = SimDir::new(CrashProfile::default());
    let mut store = DocumentStore::durable(Box::new(dir), DurabilityOptions::default());
    store.insert("doc", doc());
    let mut xml = vec![to_xml(&store.get("doc").unwrap().to_document())];
    xml.extend(run_steps(&mut store, &registry, steps, 0));
    assert_eq!(xml.len(), K + 1);
    xml
}

fn recover(dir: SimDir, options: DurabilityOptions) -> (DocumentStore, RecoveryReport) {
    DocumentStore::recover(Box::new(dir), options).expect("recovery runs")
}

/// The core oracle for one matrix point. Returns the recovered version
/// (None when the crash predated the acknowledged insert).
fn check_crash_point(
    reference_xml: &[String],
    crash_after_ops: u64,
    options: DurabilityOptions,
    profile: CrashProfile,
) -> Option<u64> {
    check_steps_crash_point(&QUERIES, reference_xml, crash_after_ops, options, profile)
}

/// [`check_crash_point`] for the workload `steps`, whose uncrashed
/// reference is `reference_xml`.
fn check_steps_crash_point(
    steps: &[Step],
    reference_xml: &[String],
    crash_after_ops: u64,
    options: DurabilityOptions,
    profile: CrashProfile,
) -> Option<u64> {
    let registry = registry();
    let dir = SimDir::new(CrashProfile {
        crash_after_ops: Some(crash_after_ops),
        ..profile.clone()
    });
    let mut store = DocumentStore::durable(Box::new(dir.clone()), options.clone());
    store.insert("doc", doc());
    let _ = run_steps(&mut store, &registry, steps, 0);
    let manager = Arc::clone(store.durability().expect("durable store"));
    let acked = manager.acked_version("doc");
    let crashed = dir.crashed();
    drop(store);

    // Recover from the persisted image (what the next boot sees).
    let booted = dir.reopen(CrashProfile::default());
    let (recovered, report) = recover(booted.clone(), options.clone());

    if acked.is_none() {
        // The crash hit before the insert's initial checkpoint was
        // acknowledged: the document may be unrecoverable, but that must
        // be *reported*, never silently papered over.
        if !report.ok() {
            assert!(report.first_error().is_some());
            return None;
        }
    }
    assert!(
        report.ok(),
        "acked insert must recover: {:?}",
        report.first_error()
    );
    let entry = report
        .docs
        .iter()
        .find(|d| d.name == "doc")
        .expect("doc entry");
    let rv = entry.recovered_version;

    // Acknowledged-prefix invariant.
    if let Some(acked) = acked {
        assert!(
            rv >= acked,
            "recovered v{rv} lost acknowledged v{acked} (crash at op {crash_after_ops})"
        );
    }
    assert!(rv <= K as u64, "recovered version beyond the workload");
    if !crashed {
        assert_eq!(rv, K as u64, "clean shutdown must recover everything");
        assert!(entry.truncated_at.is_none(), "clean log has no torn tail");
    }

    // The recovered state is byte-identical to the reference at rv, and
    // structurally sound.
    let recovered_doc = recovered.get("doc").expect("recovered").to_document();
    recovered_doc.check_integrity().expect("arena integrity");
    assert_eq!(
        to_xml(&recovered_doc),
        reference_xml[rv as usize],
        "recovered state must equal the reference at v{rv}"
    );

    // Idempotence: an independent recovery of the same image agrees, and
    // re-recovering the already-truncated log agrees too.
    let (again, report2) = recover(dir.reopen(CrashProfile::default()), options.clone());
    assert_eq!(
        to_xml(&again.get("doc").unwrap().to_document()),
        reference_xml[rv as usize]
    );
    assert_eq!(
        report2
            .docs
            .iter()
            .find(|d| d.name == "doc")
            .unwrap()
            .recovered_version,
        rv
    );
    drop(again);
    let (thrice, report3) = recover(booted.clone(), options.clone());
    assert_eq!(
        report3
            .docs
            .iter()
            .find(|d| d.name == "doc")
            .unwrap()
            .recovered_version,
        rv
    );
    assert_eq!(
        to_xml(&thrice.get("doc").unwrap().to_document()),
        reference_xml[rv as usize]
    );
    drop(thrice);

    // Continuity: the recovered store finishes the remaining workload
    // and converges on the reference's final state.
    let (mut resumed, _) = recover(booted, options);
    let _ = run_steps(&mut resumed, &registry, steps, rv as usize);
    assert_eq!(
        to_xml(&resumed.get("doc").unwrap().to_document()),
        reference_xml[K],
        "resumed run must converge to the reference final state"
    );
    Some(rv)
}

/// The frames an uncrashed run of `steps` leaves in the log, as
/// `(record kind, version)`.
fn logged_frames(steps: &[Step], options: DurabilityOptions) -> Vec<(&'static str, u64)> {
    let dir = SimDir::new(CrashProfile::default());
    let mut store = DocumentStore::durable(Box::new(dir.clone()), options);
    store.insert("doc", doc());
    let _ = run_steps(&mut store, &registry(), steps, 0);
    let scan = scan_frames(&dir.persisted(&log_file_name("doc")));
    assert!(scan.truncated.is_none());
    (scan.records.iter())
        .map(|(_, record)| match record {
            WalRecord::Checkpoint { version, .. } => ("checkpoint", *version),
            WalRecord::Splices { version, .. } => ("splices", *version),
            WalRecord::Watermark { .. } => unreachable!("no subscription runs"),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The crash matrix: crash points × checkpoint cadence × fsync
    /// policy × fault seeds, with torn writes, dropped flush spans and
    /// bit rot all enabled.
    #[test]
    fn crash_matrix(
        crash_after_ops in 1u64..48,
        checkpoint_every in (0u64..4).prop_map(|i| [1u64, 2, 5, 8][i as usize]),
        every_n in (0u64..3).prop_map(|i| [1u32, 2, 3][i as usize]),
        seed in any::<u64>(),
        drop_flush_span in any::<bool>(),
        bit_rot in any::<bool>(),
    ) {
        let reference_xml = reference();
        let options = DurabilityOptions {
            checkpoint_every,
            fsync: if every_n == 1 { FsyncPolicy::Always } else { FsyncPolicy::EveryN(every_n) },
        };
        let profile = CrashProfile { seed, drop_flush_span, bit_rot, crash_after_ops: None };
        check_crash_point(&reference_xml, crash_after_ops, options, profile);
    }

    /// The crash matrix over a stream that interleaves session
    /// publications with publications of fresh documents, which state no
    /// splices: crash points × checkpoint cadence × fsync policy × fault
    /// seeds, with the same oracle. The uncrashed log holds one
    /// checkpoint frame per fresh document, at its version, and the
    /// periodic checkpoints count records from the last checkpoint of
    /// either kind.
    #[test]
    fn crash_matrix_with_fresh_documents(
        fresh in proptest::collection::vec(any::<bool>(), K),
        crash_after_ops in 1u64..48,
        checkpoint_every in (0u64..4).prop_map(|i| [1u64, 2, 5, 8][i as usize]),
        every_n in (0u64..3).prop_map(|i| [1u32, 2, 3][i as usize]),
        seed in any::<u64>(),
        faults in (any::<bool>(), any::<bool>()),
    ) {
        let steps: Vec<Step> = (fresh.iter())
            .map(|&f| if f { Step::Fresh } else { Step::Query })
            .collect();
        let options = DurabilityOptions {
            checkpoint_every,
            fsync: if every_n == 1 { FsyncPolicy::Always } else { FsyncPolicy::EveryN(every_n) },
        };
        let mut expected = vec![("checkpoint", 0)];
        let mut since_checkpoint = 0;
        for (version, step) in (1u64..).zip(&steps) {
            if *step == Step::Fresh {
                expected.push(("checkpoint", version));
                since_checkpoint = 0;
                continue;
            }
            expected.push(("splices", version));
            since_checkpoint += 1;
            if options.checkpoint_due(since_checkpoint) {
                expected.push(("checkpoint", version));
                since_checkpoint = 0;
            }
        }
        prop_assert_eq!(logged_frames(&steps, options.clone()), expected);

        let reference_xml = reference_of(&steps);
        let (drop_flush_span, bit_rot) = faults;
        let profile = CrashProfile { seed, drop_flush_span, bit_rot, crash_after_ops: None };
        check_steps_crash_point(&steps, &reference_xml, crash_after_ops, options, profile);
    }
}

/// Exhaustive sweep of every crash point under the default policy — the
/// deterministic backbone behind the randomized matrix above.
#[test]
fn every_crash_point_default_policy() {
    let reference_xml = reference();
    let mut recovered_versions = Vec::new();
    for crash_after_ops in 1..=40 {
        let rv = check_crash_point(
            &reference_xml,
            crash_after_ops,
            DurabilityOptions::default(),
            CrashProfile {
                seed: crash_after_ops,
                drop_flush_span: true,
                bit_rot: true,
                crash_after_ops: None,
            },
        );
        recovered_versions.push(rv);
    }
    // Later crash points recover at least as much (monotone coverage),
    // and the sweep reaches both extremes.
    assert!(recovered_versions.first().unwrap().is_none() || recovered_versions[0] == Some(0));
    assert_eq!(*recovered_versions.last().unwrap(), Some(K as u64));
    let versions: Vec<i64> = recovered_versions
        .iter()
        .map(|v| v.map(|v| v as i64).unwrap_or(-1))
        .collect();
    let mut sorted = versions.clone();
    sorted.sort();
    assert_eq!(
        versions, sorted,
        "recovery must be monotone in the crash point"
    );
}

/// `FsyncPolicy::Never` acknowledges nothing beyond the insert, so a
/// crash may lose every publication — but recovery still never surfaces
/// corruption.
#[test]
fn never_fsync_loses_tail_soundly() {
    let reference_xml = reference();
    let options = DurabilityOptions {
        checkpoint_every: 2,
        fsync: FsyncPolicy::Never,
    };
    for crash_after_ops in [3u64, 5, 9, 14] {
        check_crash_point(
            &reference_xml,
            crash_after_ops,
            options.clone(),
            CrashProfile {
                seed: 99 + crash_after_ops,
                drop_flush_span: true,
                bit_rot: false,
                crash_after_ops: None,
            },
        );
    }
}

/// Hand-planted corruption in the middle of a cleanly persisted log:
/// recovery truncates at the corrupt frame, reports its exact offset,
/// and yields the version the valid prefix supports.
#[test]
fn mid_log_corruption_truncates_with_offset() {
    let reference_xml = reference();
    let registry = registry();
    let dir = SimDir::new(CrashProfile::default());
    let mut store = DocumentStore::durable(
        Box::new(dir.clone()),
        DurabilityOptions {
            checkpoint_every: 0, // keep every record a splice: long replay chain
            fsync: FsyncPolicy::Always,
        },
    );
    store.insert("doc", doc());
    let _ = run_workload(&mut store, &registry, 0);
    drop(store);

    let file = log_file_name("doc");
    let clean = dir.persisted(&file);
    // Find the third frame's offset by scanning the clean log, then flip
    // a byte inside its payload.
    let scan = scan_frames(&clean);
    assert!(scan.truncated.is_none());
    let (third_offset, _) = scan.records[3];
    let mut corrupt = clean.clone();
    corrupt[third_offset as usize + 12] ^= 0x01;
    let booted = dir.reopen(CrashProfile::default());
    booted.set_persisted(&file, corrupt);

    let (recovered, report) = recover(booted, DurabilityOptions::default());
    assert!(report.ok());
    let entry = &report.docs[0];
    assert_eq!(entry.truncated_at, Some(third_offset));
    assert!(
        entry
            .truncate_reason
            .as_deref()
            .unwrap_or("")
            .contains("CRC mismatch"),
        "{:?}",
        entry.truncate_reason
    );
    // Frames: checkpoint v0 + splices v1..v3 survive minus the corrupt one.
    assert_eq!(entry.recovered_version, 2);
    assert_eq!(
        to_xml(&recovered.get("doc").unwrap().to_document()),
        reference_xml[2]
    );
}

/// A document deeper than any recursion would survive is checkpointed,
/// logged and recovered: the WAL's document codec and the serializer walk
/// it on explicit stacks. The checkpoint after the publication encodes
/// the deep document a second time.
#[test]
fn deep_document_checkpoints_and_recovers() {
    const DEPTH: usize = 5_000;
    let registry = registry();
    let mut deep = doc();
    let mut last = deep.add_element(deep.root(), "deep");
    for _ in 1..DEPTH {
        last = deep.add_element(last, "deep");
    }
    let call = deep.add_call(last, "svc");
    deep.add_text(call, "bottom");
    let dir = SimDir::new(CrashProfile::default());
    let options = DurabilityOptions {
        checkpoint_every: 1,
        fsync: FsyncPolicy::Always,
    };
    let mut store = DocumentStore::durable(Box::new(dir.clone()), options.clone());
    store.insert("doc", deep);
    let mut session = store
        .session("doc", &registry, None, persistent())
        .expect("doc stored");
    assert_eq!(session.query(&query(0)).answers.len(), 1);
    drop(session);
    let expected = to_xml(&store.get("doc").unwrap().to_document());
    drop(store);

    let (recovered, report) = recover(dir.reopen(CrashProfile::default()), options);
    assert!(report.ok(), "{:?}", report.first_error());
    assert_eq!(report.docs[0].recovered_version, 1);
    let back = recovered.get("doc").unwrap().to_document();
    back.check_integrity().unwrap();
    assert_eq!(to_xml(&back), expected);
    assert_eq!(back.len(), 1 + 3 * K + DEPTH + 2);
}

/// A log reduced to garbage has no intact checkpoint: the document is
/// reported unrecoverable with a diagnostic, not silently dropped or
/// resurrected empty.
#[test]
fn garbage_log_is_reported_unrecoverable() {
    let dir = SimDir::new(CrashProfile::default());
    dir.set_persisted(&log_file_name("doc"), b"this is not a wal".to_vec());
    let (store, report) = recover(dir, DurabilityOptions::default());
    assert!(store.is_empty());
    assert!(!report.ok());
    let diag = report.first_error().expect("diagnostic");
    assert!(diag.contains("doc"), "{diag}");
    assert!(diag.contains("offset 0"), "{diag}");
}

/// A log in a previous format is reported unrecoverable at offset 0 and
/// left untouched, instead of being decoded up to its first record the
/// current format reads differently and truncated there: `AXMLWAL1`,
/// whose publication records carried a change-scope field after the
/// version, and `AXMLWAL2`, which logged a publication without stated
/// splices as a full image under tag 3.
#[test]
fn previous_format_log_is_reported_unrecoverable_and_kept() {
    let checkpoint = frame(&encode_record(&WalRecord::Checkpoint {
        version: 0,
        doc: doc(),
    }));
    let mut splices = encode_record(&WalRecord::Splices {
        version: 1,
        ops: Vec::new(),
    });
    // the first layout's "scope unknown" flag, after tag and version
    splices.insert(9, 0);
    let mut wal1 = b"AXMLWAL1".to_vec();
    wal1.extend(&checkpoint);
    wal1.extend(frame(&splices));
    // the second layout's full image of a publication: a checkpoint's
    // body under tag 3
    let mut image = encode_record(&WalRecord::Checkpoint {
        version: 1,
        doc: doc(),
    });
    image[0] = 3;
    let mut wal2 = b"AXMLWAL2".to_vec();
    wal2.extend(&checkpoint);
    wal2.extend(frame(&image));

    for (magic, old) in [("AXMLWAL1", wal1), ("AXMLWAL2", wal2)] {
        assert_ne!(&old[..8], WAL_MAGIC);
        let file = log_file_name("doc");
        let dir = SimDir::new(CrashProfile::default());
        dir.set_persisted(&file, old.clone());
        let (store, report) = recover(dir.clone(), DurabilityOptions::default());
        assert!(store.is_empty());
        let diag = report.first_error().expect("diagnostic");
        assert!(diag.contains(&file), "{diag}");
        assert!(diag.contains("offset 0"), "{diag}");
        assert!(diag.contains(magic), "{diag}");
        assert_eq!(
            dir.read(&file).unwrap(),
            old,
            "the old log is left in place"
        );
    }
}

/// The wal_* trace stream satisfies the durability oracle checks and the
/// manager's aggregate accounting.
#[test]
fn trace_stream_accounts_for_every_append() {
    let registry = registry();
    let dir = SimDir::new(CrashProfile::default());
    let mut store = DocumentStore::durable(
        Box::new(dir),
        DurabilityOptions {
            checkpoint_every: 2,
            fsync: FsyncPolicy::Always,
        },
    );
    let ring = Arc::new(axml_obs::RingSink::unbounded());
    // Insert happens after the sink is attached so its checkpoint shows.
    store
        .durability()
        .unwrap()
        .set_sink(Arc::clone(&ring) as Arc<dyn axml_obs::TraceSink>);
    store.insert("doc", doc());
    let _ = run_workload(&mut store, &registry, 0);
    let stats = store.durability().unwrap().stats();
    assert_eq!(stats.appends, K);
    assert_eq!(stats.synced_appends, K);
    assert_eq!(stats.checkpoints, 1 + K / 2);

    let events = ring.events();
    let violations = axml_obs::check_trace(&events);
    assert!(violations.is_empty(), "{violations:?}");
    let accounting = axml_obs::check_wal_accounting(
        &events,
        stats.appends,
        stats.synced_appends,
        stats.checkpoints,
    );
    assert!(accounting.is_empty(), "{accounting:?}");
}
