//! Write-ahead log for published splices.
//!
//! Every publication of a durable document appends one CRC-framed record
//! to that document's append-only log file *before* the new version
//! becomes visible to readers (the append runs inside the
//! `VersionedDocument` publish lock via a
//! [`PublicationTap`]). A publication that states its splices logs them;
//! one that states none logs a full-document checkpoint of its version.
//! Periodically the log folds the splice history into a checkpoint frame
//! too, so recovery replay stays bounded. Every frame, whatever its
//! record, reaches the file through one append path, which syncs it when
//! the policy says so and acknowledges what the sync covered.
//!
//! The log speaks to storage through the [`LogDir`] / [`LogFile`] traits
//! with two implementations:
//!
//! * [`FsDir`] — real files under a directory, `O_APPEND` writes,
//!   `sync_data` for fsync.
//! * [`SimDir`] — a deterministic in-memory disk with a seeded
//!   [`CrashProfile`]: each file keeps a *durable* byte vector (what
//!   survives a crash) and a *buffered* tail (appended but not yet
//!   synced). A crash moves a seeded-length prefix of the buffered tail
//!   into the durable image — modelling torn writes — and may zero a
//!   span (dropped/reordered page flush) or flip a bit (rot) **inside
//!   that unsynced tail only**. Synced bytes are never touched: that is
//!   the contract fsync buys, and the crash-matrix oracle asserts the
//!   whole stack preserves it end to end.
//!
//! ## Frame format
//!
//! A log file is `AXMLWAL3` (8 magic bytes) followed by frames:
//!
//! ```text
//! [len: u32 LE] [crc32: u32 LE over payload] [payload: len bytes]
//! ```
//!
//! The payload is one [`WalRecord`] (tag byte + body). Recovery scans
//! frames in order and truncates the file at the first frame whose
//! length is implausible, whose payload is short, or whose CRC or
//! decoding fails — everything before that point is the *valid prefix*.
//! A file whose magic names another format version has no valid prefix:
//! recovery reports it unrecoverable and leaves it in place. `AXMLWAL1`
//! publication records also carried change-scope paths, and `AXMLWAL2`
//! logs may hold tag-3 records, full images of a publication, which
//! `AXMLWAL3` writes as checkpoints.

use crate::checkpoint::{DurabilityOptions, DurabilityStats};
use axml_obs::{Event, EventKind, TraceSink};
use axml_xml::{decode_document, document_to_bytes, Document, Forest, Publication, PublicationTap};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Magic bytes opening every log file; doubles as a format version.
pub const WAL_MAGIC: &[u8; 8] = b"AXMLWAL3";

/// Upper bound on a single frame payload; anything larger in a length
/// field is treated as corruption rather than attempted as an allocation.
pub const MAX_FRAME_LEN: u32 = 1 << 30;

/// A durability failure: I/O, simulated crash, or corruption. The string
/// is a complete one-line diagnostic (file, offset and reason where
/// known) suitable for the CLI to print verbatim.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalError(pub String);

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for WalError {}

// ---------------------------------------------------------------------------
// CRC32 (IEEE reflected, polynomial 0xEDB88320) — the workspace vendors no
// checksum crate, so the table lives here.
// ---------------------------------------------------------------------------

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// IEEE CRC32 of `bytes` (the checksum zip/gzip use).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Storage traits
// ---------------------------------------------------------------------------

/// One append-only log file.
pub trait LogFile: Send + Sync {
    /// Append bytes at the end of the file. Buffered until [`sync`].
    ///
    /// [`sync`]: LogFile::sync
    fn append(&self, bytes: &[u8]) -> Result<(), WalError>;
    /// Flush all appended bytes to stable storage. On return, every byte
    /// appended so far must survive a crash.
    fn sync(&self) -> Result<(), WalError>;
}

/// A directory of log files, addressed by file name (use
/// [`log_file_name`] to derive one from a document name).
pub trait LogDir: Send + Sync {
    /// Open `name` for appending, creating it empty if absent.
    fn open_append(&self, name: &str) -> Result<Box<dyn LogFile>, WalError>;
    /// Read the entire current contents of `name`.
    fn read(&self, name: &str) -> Result<Vec<u8>, WalError>;
    /// Truncate `name` to `len` bytes (used by recovery to discard a
    /// torn tail).
    fn truncate(&self, name: &str, len: u64) -> Result<(), WalError>;
    /// All log file names present, sorted.
    fn list(&self) -> Result<Vec<String>, WalError>;
}

/// Log file name for a document: percent-encodes anything outside
/// `[A-Za-z0-9._-]` and appends `.wal`.
pub fn log_file_name(doc: &str) -> String {
    let mut out = String::with_capacity(doc.len() + 4);
    for b in doc.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'.' | b'_' | b'-' => out.push(b as char),
            other => out.push_str(&format!("%{other:02X}")),
        }
    }
    out.push_str(".wal");
    out
}

/// Inverse of [`log_file_name`]: recovers the document name from a log
/// file name, or `None` if it is not a well-formed log file name.
pub fn doc_name_from_file(file: &str) -> Option<String> {
    let stem = file.strip_suffix(".wal")?;
    let bytes = stem.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = stem.get(i + 1..i + 3)?;
            out.push(u8::from_str_radix(hex, 16).ok()?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

// ---------------------------------------------------------------------------
// Real filesystem backend
// ---------------------------------------------------------------------------

/// Log directory backed by real files under `root`.
pub struct FsDir {
    root: PathBuf,
}

impl FsDir {
    /// Use `root` as the store directory, creating it if missing.
    pub fn create(root: impl Into<PathBuf>) -> Result<FsDir, WalError> {
        let root = root.into();
        std::fs::create_dir_all(&root)
            .map_err(|e| WalError(format!("cannot create store dir {}: {e}", root.display())))?;
        Ok(FsDir { root })
    }

    /// Open an existing store directory without creating it.
    pub fn open(root: impl Into<PathBuf>) -> Result<FsDir, WalError> {
        let root = root.into();
        if !root.is_dir() {
            return Err(WalError(format!(
                "store dir {} does not exist",
                root.display()
            )));
        }
        Ok(FsDir { root })
    }
}

struct FsFile {
    path: PathBuf,
    file: Mutex<std::fs::File>,
}

impl LogFile for FsFile {
    fn append(&self, bytes: &[u8]) -> Result<(), WalError> {
        let mut f = self.file.lock().unwrap();
        f.write_all(bytes)
            .map_err(|e| WalError(format!("append to {}: {e}", self.path.display())))
    }

    fn sync(&self) -> Result<(), WalError> {
        let f = self.file.lock().unwrap();
        f.sync_data()
            .map_err(|e| WalError(format!("fsync {}: {e}", self.path.display())))
    }
}

impl LogDir for FsDir {
    fn open_append(&self, name: &str) -> Result<Box<dyn LogFile>, WalError> {
        let path = self.root.join(name);
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| WalError(format!("open {}: {e}", path.display())))?;
        Ok(Box::new(FsFile {
            path,
            file: Mutex::new(file),
        }))
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, WalError> {
        let path = self.root.join(name);
        std::fs::read(&path).map_err(|e| WalError(format!("read {}: {e}", path.display())))
    }

    fn truncate(&self, name: &str, len: u64) -> Result<(), WalError> {
        let path = self.root.join(name);
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .map_err(|e| WalError(format!("open {}: {e}", path.display())))?;
        file.set_len(len)
            .map_err(|e| WalError(format!("truncate {}: {e}", path.display())))?;
        file.sync_data()
            .map_err(|e| WalError(format!("fsync {}: {e}", path.display())))
    }

    fn list(&self) -> Result<Vec<String>, WalError> {
        let mut names = Vec::new();
        let entries = std::fs::read_dir(&self.root)
            .map_err(|e| WalError(format!("read store dir {}: {e}", self.root.display())))?;
        for entry in entries {
            let entry = entry
                .map_err(|e| WalError(format!("read store dir {}: {e}", self.root.display())))?;
            if let Some(name) = entry.file_name().to_str() {
                if name.ends_with(".wal") {
                    names.push(name.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }
}

// ---------------------------------------------------------------------------
// Deterministic in-memory backend with crash injection
// ---------------------------------------------------------------------------

/// How and when a [`SimDir`] crashes. All randomness flows from `seed`
/// through a splitmix64 stream, so a given profile replays the same
/// crash byte-for-byte.
#[derive(Clone, Debug, Default)]
pub struct CrashProfile {
    /// Seed for every seeded choice below.
    pub seed: u64,
    /// Crash when the directory's operation counter (appends, syncs,
    /// truncates) reaches this count; `None` = never crash on its own.
    pub crash_after_ops: Option<u64>,
    /// On crash, zero out a seeded span inside the surviving unsynced
    /// tail — modelling a dropped or reordered page flush.
    pub drop_flush_span: bool,
    /// On crash, flip one seeded bit inside the surviving unsynced tail —
    /// modelling bit rot the CRC must catch.
    pub bit_rot: bool,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Clone, Default)]
struct SimFileState {
    /// Bytes guaranteed to survive a crash (covered by a completed sync,
    /// or the torn prefix that happened to hit the platter).
    durable: Vec<u8>,
    /// Appended but not yet synced.
    buffered: Vec<u8>,
}

struct SimState {
    files: BTreeMap<String, SimFileState>,
    profile: CrashProfile,
    rng: u64,
    ops: u64,
    crashed: bool,
}

/// Deterministic in-memory log directory with seeded crash injection.
/// Cloning shares the underlying disk (file handles need the directory
/// alive).
#[derive(Clone)]
pub struct SimDir {
    state: Arc<Mutex<SimState>>,
}

impl SimDir {
    /// An empty simulated disk that crashes per `profile`.
    pub fn new(profile: CrashProfile) -> SimDir {
        let rng = profile.seed ^ 0xA076_1D64_78BD_642F;
        SimDir {
            state: Arc::new(Mutex::new(SimState {
                files: BTreeMap::new(),
                profile,
                rng,
                ops: 0,
                crashed: false,
            })),
        }
    }

    /// Whether the simulated machine has crashed (all further I/O fails).
    pub fn crashed(&self) -> bool {
        self.state.lock().unwrap().crashed
    }

    /// Crash immediately, applying the profile's torn-write/corruption
    /// model to every file's unsynced tail.
    pub fn crash_now(&self) {
        let mut st = self.state.lock().unwrap();
        if !st.crashed {
            crash(&mut st);
        }
    }

    /// Total I/O operations performed so far (appends + syncs + truncates).
    pub fn ops(&self) -> u64 {
        self.state.lock().unwrap().ops
    }

    /// The disk as the next process boot sees it: after a crash, only the
    /// durable images; before one (clean shutdown), durable plus buffered.
    /// The reopened directory starts with fresh counters and crashes per
    /// `profile` — pass `CrashProfile::default()` for a reliable restart.
    pub fn reopen(&self, profile: CrashProfile) -> SimDir {
        let st = self.state.lock().unwrap();
        let files = st
            .files
            .iter()
            .map(|(name, f)| {
                let mut durable = f.durable.clone();
                if !st.crashed {
                    durable.extend_from_slice(&f.buffered);
                }
                (
                    name.clone(),
                    SimFileState {
                        durable,
                        buffered: Vec::new(),
                    },
                )
            })
            .collect();
        let rng = profile.seed ^ 0xA076_1D64_78BD_642F;
        SimDir {
            state: Arc::new(Mutex::new(SimState {
                files,
                profile,
                rng,
                ops: 0,
                crashed: false,
            })),
        }
    }

    /// Raw persisted bytes of `name` as a post-crash boot would read them.
    pub fn persisted(&self, name: &str) -> Vec<u8> {
        let st = self.state.lock().unwrap();
        match st.files.get(name) {
            Some(f) if st.crashed => f.durable.clone(),
            Some(f) => {
                let mut all = f.durable.clone();
                all.extend_from_slice(&f.buffered);
                all
            }
            None => Vec::new(),
        }
    }

    /// Overwrite the persisted bytes of `name` — for tests that corrupt
    /// a log by hand.
    pub fn set_persisted(&self, name: &str, bytes: Vec<u8>) {
        let mut st = self.state.lock().unwrap();
        st.files.insert(
            name.to_string(),
            SimFileState {
                durable: bytes,
                buffered: Vec::new(),
            },
        );
    }
}

/// Applies the crash model: for each file a seeded-length prefix of the
/// buffered tail reaches the durable image (torn write), optionally with
/// a zeroed span or a flipped bit *within that unsynced tail*. Durable
/// bytes — everything a completed sync covered — are never modified.
fn crash(st: &mut SimState) {
    st.crashed = true;
    let profile = st.profile.clone();
    let mut rng = st.rng;
    for file in st.files.values_mut() {
        let buffered = std::mem::take(&mut file.buffered);
        if buffered.is_empty() {
            continue;
        }
        let keep = (splitmix64(&mut rng) % (buffered.len() as u64 + 1)) as usize;
        let mut tail = buffered[..keep].to_vec();
        if profile.drop_flush_span && tail.len() > 2 {
            let start = (splitmix64(&mut rng) % tail.len() as u64) as usize;
            let len = 1 + (splitmix64(&mut rng) % (tail.len() - start) as u64) as usize;
            for b in &mut tail[start..start + len] {
                *b = 0;
            }
        }
        if profile.bit_rot && !tail.is_empty() {
            let pos = (splitmix64(&mut rng) % tail.len() as u64) as usize;
            let bit = (splitmix64(&mut rng) % 8) as u8;
            tail[pos] ^= 1 << bit;
        }
        file.durable.extend_from_slice(&tail);
    }
    st.rng = rng;
}

/// Counts one op; crashes if the profile says so. Returns `true` when
/// the op must fail (already crashed, or crashed on this very op).
fn sim_tick(st: &mut SimState) -> bool {
    if st.crashed {
        return true;
    }
    st.ops += 1;
    if let Some(limit) = st.profile.crash_after_ops {
        if st.ops >= limit {
            crash(st);
            return true;
        }
    }
    false
}

fn sim_crashed_err() -> WalError {
    WalError("simulated crash: log unavailable".to_string())
}

struct SimFile {
    dir: SimDir,
    name: String,
}

impl LogFile for SimFile {
    fn append(&self, bytes: &[u8]) -> Result<(), WalError> {
        let mut st = self.dir.state.lock().unwrap();
        if st.crashed {
            return Err(sim_crashed_err());
        }
        // Buffer first, then tick: if the crash lands on this op the
        // just-appended bytes are part of the torn tail.
        st.files
            .entry(self.name.clone())
            .or_default()
            .buffered
            .extend_from_slice(bytes);
        if sim_tick(&mut st) {
            return Err(sim_crashed_err());
        }
        Ok(())
    }

    fn sync(&self) -> Result<(), WalError> {
        let mut st = self.dir.state.lock().unwrap();
        // Tick first: a crash on the sync op means the buffered tail was
        // NOT promoted — the classic crash between append and fsync.
        if sim_tick(&mut st) {
            return Err(sim_crashed_err());
        }
        if let Some(f) = st.files.get_mut(&self.name) {
            let buffered = std::mem::take(&mut f.buffered);
            f.durable.extend_from_slice(&buffered);
        }
        Ok(())
    }
}

impl LogDir for SimDir {
    fn open_append(&self, name: &str) -> Result<Box<dyn LogFile>, WalError> {
        let mut st = self.state.lock().unwrap();
        if st.crashed {
            return Err(sim_crashed_err());
        }
        st.files.entry(name.to_string()).or_default();
        Ok(Box::new(SimFile {
            dir: self.clone(),
            name: name.to_string(),
        }))
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, WalError> {
        let st = self.state.lock().unwrap();
        match st.files.get(name) {
            Some(f) if st.crashed => Ok(f.durable.clone()),
            Some(f) => {
                let mut all = f.durable.clone();
                all.extend_from_slice(&f.buffered);
                Ok(all)
            }
            None => Err(WalError(format!("no such log file {name}"))),
        }
    }

    fn truncate(&self, name: &str, len: u64) -> Result<(), WalError> {
        let mut st = self.state.lock().unwrap();
        if sim_tick(&mut st) {
            return Err(sim_crashed_err());
        }
        let Some(f) = st.files.get_mut(name) else {
            return Err(WalError(format!("no such log file {name}")));
        };
        // Recovery truncates a reopened (buffered-empty) file; fold any
        // buffered tail in before cutting so the view stays consistent.
        let buffered = std::mem::take(&mut f.buffered);
        f.durable.extend_from_slice(&buffered);
        f.durable.truncate(len as usize);
        Ok(())
    }

    fn list(&self) -> Result<Vec<String>, WalError> {
        let st = self.state.lock().unwrap();
        Ok(st.files.keys().cloned().collect())
    }
}

// ---------------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------------

/// One logical log record (the payload of one frame).
#[derive(Clone, Debug)]
pub enum WalRecord {
    /// Full document image at `version`: the initial one, a periodic one
    /// at the log's version, or a publication that stated no splices, at
    /// the version it produced. Recovery replays splices on top of the
    /// newest one.
    Checkpoint {
        /// Publication version the image corresponds to.
        version: u64,
        /// The full document (exact binary image, call ids preserved).
        doc: Document,
    },
    /// The splices one publication stated (the common, compact record).
    Splices {
        /// Version this publication produced.
        version: u64,
        /// `(call id, result forest)` pairs, in splice order. The forests
        /// are the ones the publisher spliced, shared, not copies.
        ops: Vec<(u64, Arc<Forest>)>,
    },
    /// A subscription's delivery watermark advanced — lets recovery
    /// re-anchor the subscription instead of forcing a full re-eval.
    Watermark {
        /// Subscription name.
        subscription: String,
        /// Last document version the subscription has fully processed.
        version: u64,
    },
}

impl WalRecord {
    /// Short name used in `wal_append` trace events and diagnostics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            WalRecord::Checkpoint { .. } => "checkpoint",
            WalRecord::Splices { .. } => "splices",
            WalRecord::Watermark { .. } => "watermark",
        }
    }
}

const TAG_CHECKPOINT: u8 = 1;
const TAG_SPLICES: u8 = 2;
const TAG_WATERMARK: u8 = 4;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u8(&mut self) -> Result<u8, WalError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| WalError("record truncated".to_string()))?;
        self.pos += 1;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, WalError> {
        let end = self.pos + 4;
        let bytes = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| WalError("record truncated".to_string()))?;
        self.pos = end;
        Ok(u32::from_le_bytes(bytes.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WalError> {
        let end = self.pos + 8;
        let bytes = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| WalError("record truncated".to_string()))?;
        self.pos = end;
        Ok(u64::from_le_bytes(bytes.try_into().unwrap()))
    }

    fn bytes(&mut self) -> Result<&'a [u8], WalError> {
        let len = self.u32()? as usize;
        if len > self.buf.len() - self.pos {
            return Err(WalError("record truncated".to_string()));
        }
        let end = self.pos + len;
        let b = &self.buf[self.pos..end];
        self.pos = end;
        Ok(b)
    }

    fn string(&mut self) -> Result<String, WalError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| WalError("invalid UTF-8 in record".to_string()))
    }

    fn doc(&mut self) -> Result<Document, WalError> {
        let b = self.bytes()?;
        decode_document(b).map_err(|e| WalError(format!("embedded document: {e}")))
    }

    fn finish(&self) -> Result<(), WalError> {
        if self.pos != self.buf.len() {
            return Err(WalError(format!(
                "{} trailing bytes after record",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Serializes one record as a frame payload.
pub fn encode_record(record: &WalRecord) -> Vec<u8> {
    let mut out = Vec::new();
    match record {
        WalRecord::Checkpoint { version, doc } => {
            out.push(TAG_CHECKPOINT);
            put_u64(&mut out, *version);
            put_bytes(&mut out, &document_to_bytes(doc));
        }
        WalRecord::Splices { version, ops } => {
            out.push(TAG_SPLICES);
            put_u64(&mut out, *version);
            put_u32(&mut out, ops.len() as u32);
            for (call, result) in ops {
                put_u64(&mut out, *call);
                put_bytes(&mut out, &document_to_bytes(result));
            }
        }
        WalRecord::Watermark {
            subscription,
            version,
        } => {
            out.push(TAG_WATERMARK);
            put_bytes(&mut out, subscription.as_bytes());
            put_u64(&mut out, *version);
        }
    }
    out
}

/// Parses one frame payload back into a record.
pub fn decode_record(buf: &[u8]) -> Result<WalRecord, WalError> {
    let mut r = Reader { buf, pos: 0 };
    let record = match r.u8()? {
        TAG_CHECKPOINT => {
            let version = r.u64()?;
            let doc = r.doc()?;
            WalRecord::Checkpoint { version, doc }
        }
        TAG_SPLICES => {
            let version = r.u64()?;
            let n = r.u32()? as usize;
            let mut ops = Vec::new();
            for _ in 0..n {
                let call = r.u64()?;
                let result = r.doc()?;
                ops.push((call, Arc::new(result)));
            }
            WalRecord::Splices { version, ops }
        }
        TAG_WATERMARK => {
            let subscription = r.string()?;
            let version = r.u64()?;
            WalRecord::Watermark {
                subscription,
                version,
            }
        }
        other => return Err(WalError(format!("unknown record tag {other}"))),
    };
    r.finish()?;
    Ok(record)
}

/// Wraps a payload in a `[len][crc][payload]` frame.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc32(payload));
    out.extend_from_slice(payload);
    out
}

/// Result of scanning a log file's frames.
pub struct FrameScan {
    /// Decoded records with the byte offset of their frame, in order.
    pub records: Vec<(u64, WalRecord)>,
    /// Length of the valid prefix — recovery truncates the file here.
    pub valid_len: u64,
    /// Where and why the scan stopped early, if it did.
    pub truncated: Option<(u64, String)>,
}

/// Scans `buf` (a whole log file) frame by frame, stopping at the first
/// invalid frame. An invalid or missing header yields an empty scan
/// truncated at offset 0.
pub fn scan_frames(buf: &[u8]) -> FrameScan {
    if buf.len() < WAL_MAGIC.len() || &buf[..WAL_MAGIC.len()] != WAL_MAGIC {
        let reason = if buf.is_empty() {
            "empty log file".to_string()
        } else if buf.len() >= WAL_MAGIC.len() && buf.starts_with(&WAL_MAGIC[..7]) {
            format!(
                "log format {} is not {}",
                String::from_utf8_lossy(&buf[..WAL_MAGIC.len()]),
                String::from_utf8_lossy(WAL_MAGIC)
            )
        } else {
            "bad or torn log header".to_string()
        };
        return FrameScan {
            records: Vec::new(),
            valid_len: 0,
            truncated: Some((0, reason)),
        };
    }
    let mut records = Vec::new();
    let mut pos = WAL_MAGIC.len();
    let mut truncated = None;
    while pos < buf.len() {
        let offset = pos as u64;
        let remaining = buf.len() - pos;
        if remaining < 8 {
            truncated = Some((
                offset,
                format!("torn frame header ({remaining} of 8 bytes)"),
            ));
            break;
        }
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap());
        let stored_crc = u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().unwrap());
        if len > MAX_FRAME_LEN {
            truncated = Some((offset, format!("implausible frame length {len}")));
            break;
        }
        let len = len as usize;
        if remaining - 8 < len {
            truncated = Some((
                offset,
                format!("torn frame payload ({} of {len} bytes)", remaining - 8),
            ));
            break;
        }
        let payload = &buf[pos + 8..pos + 8 + len];
        let computed = crc32(payload);
        if computed != stored_crc {
            truncated = Some((
                offset,
                format!("CRC mismatch (stored {stored_crc:08x}, computed {computed:08x})"),
            ));
            break;
        }
        match decode_record(payload) {
            Ok(record) => records.push((offset, record)),
            Err(e) => {
                truncated = Some((offset, format!("undecodable record: {e}")));
                break;
            }
        }
        pos += 8 + len;
    }
    FrameScan {
        records,
        valid_len: pos as u64,
        truncated,
    }
}

// ---------------------------------------------------------------------------
// DurabilityManager
// ---------------------------------------------------------------------------

struct DocLog {
    file: Box<dyn LogFile>,
    records_since_checkpoint: u64,
    appends_since_sync: u32,
    /// The version of the last publication frame appended: what the next
    /// sync acknowledges.
    appended_version: u64,
    acked_version: Option<u64>,
    failed: Option<String>,
}

impl DocLog {
    /// A log whose frames so far bring its document to `version`, none
    /// of them acknowledged.
    fn new(file: Box<dyn LogFile>, version: u64) -> DocLog {
        DocLog {
            file,
            records_since_checkpoint: 0,
            appends_since_sync: 0,
            appended_version: version,
            acked_version: None,
            failed: None,
        }
    }

    /// Appends `bytes` — one frame, after the header in a new log — and
    /// syncs when `force_sync` is set or the policy says a sync is due; a
    /// sync acknowledges every publication appended so far. This is the
    /// one path by which anything reaches the file. Returns whether it
    /// synced. A failed append or sync sticks: this call and every later
    /// one return the failure without touching the file.
    fn append(
        &mut self,
        bytes: &[u8],
        force_sync: bool,
        options: &DurabilityOptions,
    ) -> Result<bool, WalError> {
        if let Some(failed) = &self.failed {
            return Err(WalError(failed.clone()));
        }
        let appended = self.file.append(bytes).and_then(|()| {
            self.appends_since_sync += 1;
            let due = force_sync || options.sync_due(self.appends_since_sync);
            if due {
                self.file.sync()?;
                self.appends_since_sync = 0;
                self.acked_version = Some(self.appended_version);
            }
            Ok(due)
        });
        if let Err(e) = &appended {
            self.failed = Some(e.0.clone());
        }
        appended
    }
}

/// The frame of a checkpoint of `doc` at `version`.
fn checkpoint_frame(version: u64, doc: &Document) -> Vec<u8> {
    frame(&encode_record(&WalRecord::Checkpoint {
        version,
        doc: doc.clone(),
    }))
}

/// Owns the log directory and one open log per durable document. A
/// [`DocTap`] installed on each document's `VersionedDocument` routes
/// every publication here *before* it becomes visible (write-ahead).
pub struct DurabilityManager {
    dir: Box<dyn LogDir>,
    options: DurabilityOptions,
    logs: Mutex<BTreeMap<String, DocLog>>,
    stats: Mutex<DurabilityStats>,
    sink: Mutex<Option<Arc<dyn TraceSink>>>,
    seq: AtomicU64,
}

impl DurabilityManager {
    /// A manager over `dir` with the given policy. Does not scan the
    /// directory — use [`crate::DocumentStore::recover`] to adopt
    /// existing logs.
    pub fn new(dir: Box<dyn LogDir>, options: DurabilityOptions) -> Arc<DurabilityManager> {
        Arc::new(DurabilityManager {
            dir,
            options,
            logs: Mutex::new(BTreeMap::new()),
            stats: Mutex::new(DurabilityStats::default()),
            sink: Mutex::new(None),
            seq: AtomicU64::new(0),
        })
    }

    /// Configured policy.
    pub fn options(&self) -> &DurabilityOptions {
        &self.options
    }

    /// Stream `wal_*` trace events to `sink`.
    pub fn set_sink(&self, sink: Arc<dyn TraceSink>) {
        *self.sink.lock().unwrap() = Some(sink);
    }

    /// Aggregate append/sync/checkpoint counters.
    pub fn stats(&self) -> DurabilityStats {
        *self.stats.lock().unwrap()
    }

    /// Last publication version of `doc` covered by a completed sync —
    /// the version the crash-matrix oracle asserts recovery never loses.
    pub fn acked_version(&self, doc: &str) -> Option<u64> {
        self.logs
            .lock()
            .unwrap()
            .get(doc)
            .and_then(|l| l.acked_version)
    }

    /// The sticky failure of `doc`'s log, if it has one. Once a log
    /// fails (I/O error or simulated crash), further publications for
    /// that document are not logged.
    pub fn failure(&self, doc: &str) -> Option<String> {
        self.logs
            .lock()
            .unwrap()
            .get(doc)
            .and_then(|l| l.failed.clone())
    }

    fn emit(&self, kind: EventKind) {
        let sink = self.sink.lock().unwrap().clone();
        if let Some(sink) = sink {
            sink.emit(&Event {
                seq: self.seq.fetch_add(1, Ordering::Relaxed),
                sim_ms: 0.0,
                round: 0,
                layer: 0,
                cpu_ms: None,
                kind,
            });
        }
    }

    /// Starts a fresh log for a newly inserted document: (re)creates the
    /// file, writes the header and a `Checkpoint` at `version`, and syncs
    /// unconditionally — an insert is only acknowledged durable once its
    /// initial checkpoint is on disk. A log that cannot be created or
    /// written records a sticky failure, so later publications skip it
    /// instead of panicking inside the publish lock.
    pub fn attach_new_doc(&self, name: &str, doc: &Document, version: u64) -> Result<(), WalError> {
        let file_name = log_file_name(name);
        let opened = (|| {
            // An insert over an existing name restarts that document's
            // history; the old log is discarded.
            if self.dir.list()?.contains(&file_name) {
                self.dir.truncate(&file_name, 0)?;
            }
            self.dir.open_append(&file_name)
        })();
        let log = match opened {
            Ok(file) => DocLog::new(file, version),
            Err(e) => DocLog {
                failed: Some(e.0),
                ..DocLog::new(Box::new(FailedFile), version)
            },
        };
        let mut logs = self.logs.lock().unwrap();
        let log = logs.entry(name.to_string()).insert_entry(log).into_mut();
        let framed = checkpoint_frame(version, doc);
        log.append(&[&WAL_MAGIC[..], &framed].concat(), true, &self.options)?;
        self.checkpointed(name, log, version, framed.len());
        Ok(())
    }

    /// Adopts a recovered log: the file is already positioned at its
    /// valid prefix and `version` was recovered from it. Everything on
    /// disk is by definition durable, so `acked = version`.
    pub(crate) fn adopt_recovered(
        &self,
        name: &str,
        file: Box<dyn LogFile>,
        version: u64,
        records_since_checkpoint: u64,
    ) {
        let log = DocLog {
            records_since_checkpoint,
            acked_version: Some(version),
            ..DocLog::new(file, version)
        };
        self.logs.lock().unwrap().insert(name.to_string(), log);
    }

    /// Called by [`DocTap`] inside the publish lock: appends the
    /// publication's record — the splices it states, or else a checkpoint
    /// of its version — syncs per policy, and writes a checkpoint when
    /// one is due. A publication written as a checkpoint restarts the
    /// cadence, so no second image of the same version follows it.
    fn record_publication(&self, name: &str, publication: &Publication<'_>) {
        let version = publication.version;
        let record = match publication.splices {
            Some(ops) => WalRecord::Splices {
                version,
                ops: ops
                    .iter()
                    .map(|op| (op.call.0, Arc::clone(&op.result)))
                    .collect(),
            },
            None => WalRecord::Checkpoint {
                version,
                doc: publication.doc.clone(),
            },
        };
        let mut logs = self.logs.lock().unwrap();
        let Some(log) = logs.get_mut(name) else {
            return;
        };
        log.appended_version = version;
        if !self.append_record(name, log, version, &record) {
            return;
        }
        log.records_since_checkpoint = match record {
            WalRecord::Splices { .. } => log.records_since_checkpoint + 1,
            _ => 0,
        };
        if self.options.checkpoint_due(log.records_since_checkpoint) {
            // rides the same sync cadence as ordinary appends
            let framed = checkpoint_frame(version, publication.doc);
            if log.append(&framed, false, &self.options).is_ok() {
                self.checkpointed(name, log, version, framed.len());
            }
        }
    }

    /// Persists a subscription watermark advance (best effort: failures
    /// stick to the log and stop further writes, never panic).
    pub fn record_watermark(&self, doc: &str, subscription: &str, version: u64) {
        let record = WalRecord::Watermark {
            subscription: subscription.to_string(),
            version,
        };
        if let Some(log) = self.logs.lock().unwrap().get_mut(doc) {
            self.append_record(doc, log, version, &record);
        }
    }

    /// Appends a publication or watermark `record` to `log`, counts it
    /// and traces it as a `wal_append` at `version`. Returns whether the
    /// log took it.
    fn append_record(
        &self,
        name: &str,
        log: &mut DocLog,
        version: u64,
        record: &WalRecord,
    ) -> bool {
        let framed = frame(&encode_record(record));
        let Ok(synced) = log.append(&framed, false, &self.options) else {
            return false;
        };
        {
            let mut stats = self.stats.lock().unwrap();
            stats.appends += 1;
            stats.synced_appends += usize::from(synced);
        }
        self.emit(EventKind::WalAppend {
            doc: name.to_string(),
            version,
            record: record.kind_name().to_string(),
            bytes: framed.len(),
            synced,
        });
        true
    }

    /// Counts and traces an initial or periodic checkpoint frame of
    /// `bytes` at `version`, after which `log`'s cadence starts over.
    fn checkpointed(&self, name: &str, log: &mut DocLog, version: u64, bytes: usize) {
        log.records_since_checkpoint = 0;
        self.stats.lock().unwrap().checkpoints += 1;
        self.emit(EventKind::WalCheckpoint {
            doc: name.to_string(),
            version,
            bytes,
        });
    }

    /// Emits a `wal_recovery` trace event (recovery itself lives in
    /// `recover.rs`; the manager owns the sink).
    pub(crate) fn emit_recovery(
        &self,
        doc: &str,
        version: u64,
        frames: usize,
        splices_replayed: usize,
        truncated: bool,
    ) {
        self.emit(EventKind::WalRecovery {
            doc: doc.to_string(),
            version,
            frames,
            splices_replayed,
            truncated,
        });
    }

    pub(crate) fn dir(&self) -> &dyn LogDir {
        self.dir.as_ref()
    }
}

/// Placeholder file for a log whose creation failed: the log's sticky
/// failure, set with it, keeps every write from reaching it.
struct FailedFile;

impl LogFile for FailedFile {
    fn append(&self, _bytes: &[u8]) -> Result<(), WalError> {
        Err(WalError("log creation previously failed".to_string()))
    }
    fn sync(&self) -> Result<(), WalError> {
        Err(WalError("log creation previously failed".to_string()))
    }
}

/// The [`PublicationTap`] installed on each durable document. Runs
/// inside the publish write lock, so the WAL append strictly precedes
/// reader visibility of the version it records.
pub struct DocTap {
    manager: Arc<DurabilityManager>,
    name: String,
}

impl DocTap {
    /// Tap routing `name`'s publications into `manager`.
    pub fn new(manager: Arc<DurabilityManager>, name: impl Into<String>) -> DocTap {
        DocTap {
            manager,
            name: name.into(),
        }
    }
}

impl PublicationTap for DocTap {
    fn on_publish(&self, publication: &Publication<'_>) {
        self.manager.record_publication(&self.name, publication);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_xml::Document;

    fn tiny_doc() -> Document {
        let mut d = Document::default();
        let root = d.add_root("site");
        d.add_text(root, "hello");
        d
    }

    #[test]
    fn crc32_matches_known_vector() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn file_names_round_trip() {
        for name in ["doc", "a/b", "weird name%", "héllo", "x.wal"] {
            let file = log_file_name(name);
            assert!(file.ends_with(".wal"));
            assert!(!file.trim_end_matches(".wal").contains('/'), "{file}");
            assert_eq!(doc_name_from_file(&file).as_deref(), Some(name));
        }
        assert_eq!(doc_name_from_file("not-a-log"), None);
    }

    #[test]
    fn records_round_trip() {
        let records = vec![
            WalRecord::Checkpoint {
                version: 7,
                doc: tiny_doc(),
            },
            WalRecord::Splices {
                version: 8,
                ops: vec![(3, Arc::new(tiny_doc())), (5, Arc::default())],
            },
            WalRecord::Watermark {
                subscription: "subs/1".into(),
                version: 4,
            },
        ];
        for record in &records {
            let payload = encode_record(record);
            let back = decode_record(&payload).expect("decode");
            assert_eq!(record.kind_name(), back.kind_name());
            let payload2 = encode_record(&back);
            assert_eq!(payload, payload2, "re-encode must be identical");
        }
    }

    #[test]
    fn scan_stops_at_corrupt_frame_and_reports_offset() {
        let mut buf = WAL_MAGIC.to_vec();
        let p1 = encode_record(&WalRecord::Watermark {
            subscription: "s".into(),
            version: 1,
        });
        buf.extend_from_slice(&frame(&p1));
        let second_offset = buf.len() as u64;
        let p2 = encode_record(&WalRecord::Watermark {
            subscription: "t".into(),
            version: 2,
        });
        buf.extend_from_slice(&frame(&p2));
        // Flip a payload bit in the second frame.
        let pos = second_offset as usize + 8;
        buf[pos] ^= 0x40;
        let scan = scan_frames(&buf);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_len, second_offset);
        let (offset, reason) = scan.truncated.expect("truncated");
        assert_eq!(offset, second_offset);
        assert!(reason.contains("CRC mismatch"), "{reason}");
    }

    #[test]
    fn scan_rejects_bad_header_and_torn_tails() {
        assert!(scan_frames(b"").truncated.is_some());
        assert!(scan_frames(b"AXMLW").truncated.is_some());
        assert!(scan_frames(b"NOTMAGIC").truncated.is_some());
        // Valid header + torn frame header.
        let mut buf = WAL_MAGIC.to_vec();
        buf.extend_from_slice(&[1, 2, 3]);
        let scan = scan_frames(&buf);
        assert_eq!(scan.valid_len, 8);
        assert!(scan.truncated.unwrap().1.contains("torn frame header"));
        // Valid header + frame claiming more payload than exists.
        let mut buf = WAL_MAGIC.to_vec();
        let payload = encode_record(&WalRecord::Watermark {
            subscription: "s".into(),
            version: 1,
        });
        let mut f = frame(&payload);
        f.truncate(f.len() - 2);
        buf.extend_from_slice(&f);
        let scan = scan_frames(&buf);
        assert_eq!(scan.valid_len, 8);
        assert!(scan.truncated.unwrap().1.contains("torn frame payload"));
    }

    #[test]
    fn sim_dir_sync_promotes_and_crash_drops_unsynced_tail() {
        let dir = SimDir::new(CrashProfile::default());
        let file = dir.open_append("d.wal").unwrap();
        file.append(b"synced").unwrap();
        file.sync().unwrap();
        file.append(b"buffered").unwrap();
        // Clean view sees both; crash with seed 0 keeps a seeded prefix
        // of only the unsynced tail.
        assert_eq!(dir.read("d.wal").unwrap(), b"syncedbuffered");
        dir.crash_now();
        let after = dir.read("d.wal").unwrap();
        assert!(after.len() >= b"synced".len());
        assert!(after.starts_with(b"synced"));
        assert!(after.len() <= b"syncedbuffered".len());
        // All further I/O fails.
        assert!(file.append(b"x").is_err());
        assert!(file.sync().is_err());
    }

    #[test]
    fn sim_dir_crash_after_ops_is_deterministic() {
        let run = |seed| {
            let dir = SimDir::new(CrashProfile {
                seed,
                crash_after_ops: Some(5),
                drop_flush_span: true,
                bit_rot: true,
            });
            let file = dir.open_append("d.wal").unwrap();
            for i in 0..10u8 {
                if file.append(&[i; 16]).is_err() {
                    break;
                }
                if file.sync().is_err() {
                    break;
                }
            }
            assert!(dir.crashed());
            dir.reopen(CrashProfile::default()).read("d.wal").unwrap()
        };
        assert_eq!(run(42), run(42));
        // Different seeds generally tear differently; at minimum the
        // reopened image is a prefix-plus-tail of what was appended.
        let image = run(7);
        assert!(image.len() <= 10 * 16);
    }

    #[test]
    fn manager_appends_records_and_checkpoints() {
        let dir = SimDir::new(CrashProfile::default());
        let options = DurabilityOptions {
            checkpoint_every: 2,
            ..DurabilityOptions::default()
        };
        let manager = DurabilityManager::new(Box::new(dir.clone()), options);
        let doc = tiny_doc();
        manager.attach_new_doc("doc", &doc, 0).unwrap();
        assert_eq!(manager.acked_version("doc"), Some(0));

        // Simulate two publications through the tap.
        let tap = DocTap::new(Arc::clone(&manager), "doc");
        for version in 1..=2u64 {
            tap.on_publish(&Publication {
                version,
                doc: &doc,
                splices: Some(&[]),
            });
        }
        assert_eq!(manager.acked_version("doc"), Some(2));
        let stats = manager.stats();
        assert_eq!(stats.appends, 2);
        assert_eq!(stats.synced_appends, 2);
        // Initial checkpoint + cadence checkpoint after record 2.
        assert_eq!(stats.checkpoints, 2);

        let scan = scan_frames(&dir.read(&log_file_name("doc")).unwrap());
        assert!(scan.truncated.is_none());
        let kinds: Vec<&str> = scan.records.iter().map(|(_, r)| r.kind_name()).collect();
        assert_eq!(
            kinds,
            vec!["checkpoint", "splices", "splices", "checkpoint"]
        );
    }

    #[test]
    fn a_publication_without_splices_is_logged_as_its_checkpoint() {
        let dir = SimDir::new(CrashProfile::default());
        let options = DurabilityOptions {
            checkpoint_every: 2,
            ..DurabilityOptions::default()
        };
        let manager = DurabilityManager::new(Box::new(dir.clone()), options);
        let ring = Arc::new(axml_obs::RingSink::unbounded());
        manager.set_sink(Arc::clone(&ring) as Arc<dyn TraceSink>);
        let doc = tiny_doc();
        manager.attach_new_doc("doc", &doc, 0).unwrap();
        let tap = DocTap::new(Arc::clone(&manager), "doc");
        for (version, splices) in [
            (1, Some(&[][..])),
            (2, None),
            (3, Some(&[])),
            (4, Some(&[])),
        ] {
            tap.on_publish(&Publication {
                version,
                doc: &doc,
                splices,
            });
        }
        assert_eq!(manager.acked_version("doc"), Some(4));
        // the publication's checkpoint counts as its append, and restarts
        // the cadence: the periodic checkpoint follows v4, not v2
        let stats = manager.stats();
        assert_eq!(
            (stats.appends, stats.synced_appends, stats.checkpoints),
            (4, 4, 2)
        );
        let scan = scan_frames(&dir.read(&log_file_name("doc")).unwrap());
        assert!(scan.truncated.is_none());
        let frames: Vec<(&str, u64)> = (scan.records.iter())
            .map(|(_, r)| match r {
                WalRecord::Checkpoint { version, .. } | WalRecord::Splices { version, .. } => {
                    (r.kind_name(), *version)
                }
                WalRecord::Watermark { .. } => unreachable!("no watermark was recorded"),
            })
            .collect();
        assert_eq!(
            frames,
            [
                ("checkpoint", 0),
                ("splices", 1),
                ("checkpoint", 2),
                ("splices", 3),
                ("splices", 4),
                ("checkpoint", 4)
            ]
        );
        let events = ring.events();
        assert!(axml_obs::check_trace(&events).is_empty());
        let accounting =
            axml_obs::check_wal_accounting(&events, stats.appends, stats.synced_appends, 2);
        assert!(accounting.is_empty(), "{accounting:?}");
    }
}
