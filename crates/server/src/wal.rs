//! Write-ahead log + snapshot persistence for the serving layer.
//!
//! PR 8 made the served graph writable ([`crate::service::QueryService::apply_delta`])
//! but every accepted delta evaporated on process exit. This module is
//! the durability half of that contract:
//!
//! * [`Wal`] — an append-only log of delta batches. Every record is
//!   length-prefixed and carries its own FNV-1a digest, and
//!   [`Wal::append`] fsyncs **before** returning — so by the time a
//!   `DELTA_APPLIED` response leaves the server, the batch is on disk.
//! * [`Persistence`] — a data directory holding one graph snapshot
//!   (`graph.snap`, the versioned binary format of
//!   `pathlearn_graph::graph::snapshot`) plus one WAL (`wal.log`).
//!   [`Persistence::recover`] loads the snapshot, replays the WAL in
//!   order, and hands back a graph bit-identical to the one the
//!   crashed process was serving.
//!
//! ## WAL record format (all integers little-endian)
//!
//! ```text
//! payload_len   u32   byte length of the payload that follows the digest
//! digest        u64   FNV-1a over the payload bytes
//! payload:
//!   n_add       u32
//!   n_remove    u32
//!   adds        n_add    × (u32 src, u32 sym, u32 dst)
//!   removes     n_remove × (u32 src, u32 sym, u32 dst)
//! ```
//!
//! ## Torn tails vs corruption
//!
//! A crash can tear the **final** record: its declared extent crosses
//! end-of-file, or its digest mismatches and the record is the last
//! thing in the file. Both are expected artifacts of dying mid-append,
//! so [`Wal::open`] truncates the tail away and reports how many bytes
//! were dropped — the batch was never acknowledged, so dropping it is
//! correct. A digest mismatch (or structural lie) anywhere **before**
//! the final record means the log was damaged after being written;
//! that is [`WalError::Corrupt`], a fatal diagnostic — recovery never
//! guesses its way past damaged acknowledged writes, because the one
//! thing a durable store must not do is serve a wrong answer.
//!
//! ## Checkpointing
//!
//! Replay cost grows with the WAL, so once the log holds more than a
//! configurable number of records, [`Persistence::maybe_checkpoint`]
//! writes a fresh snapshot (atomically: temp file + rename, see
//! `GraphDb::save_snapshot`) and then truncates the WAL. The snapshot
//! is the graph's *effective* edge list, so the caller passes the
//! served graph as it is, pending overlay and all. The ordering
//! makes every crash point safe: if the process dies after the
//! snapshot lands but before the truncate, the next recovery replays
//! the full WAL onto a snapshot that already contains those batches —
//! and since a batch is applied as `(G ∖ remove) ∪ add`, re-applying
//! it is idempotent, so the result is unchanged.

use pathlearn_automata::Symbol;
use pathlearn_graph::{DeltaError, GraphDb, NodeId, SnapshotError};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// One logged edge: `(src, label, dst)` in resolved id space.
pub type WalEdge = (NodeId, Symbol, NodeId);

/// One logged batch: `(add, remove)` — the exact arguments of an
/// acknowledged [`crate::service::QueryService::apply_delta`] call.
pub type WalBatch = (Vec<WalEdge>, Vec<WalEdge>);

/// File name of the graph snapshot inside a data directory.
pub const SNAPSHOT_FILE: &str = "graph.snap";
/// File name of the write-ahead log inside a data directory.
pub const WAL_FILE: &str = "wal.log";

/// Fixed per-record header: `u32` payload length + `u64` digest.
const RECORD_HEADER: usize = 12;
/// Payload prefix: `u32 n_add` + `u32 n_remove`.
const PAYLOAD_PREFIX: usize = 8;
/// Bytes per encoded edge triple.
const EDGE_BYTES: usize = 12;

/// Why the WAL could not be opened or appended.
#[derive(Debug)]
pub enum WalError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// A record **before** the final one fails its digest or structural
    /// check — the log was damaged after acknowledgment, and replaying
    /// past the damage could serve wrong answers. Fatal by design.
    Corrupt {
        /// Byte offset of the damaged record.
        offset: u64,
        /// What the check found.
        detail: String,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::Corrupt { offset, detail } => {
                write!(f, "wal corrupt at byte {offset}: {detail}")
            }
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// Byte-wise FNV-1a with the constants `CanonicalQuery::fingerprint`
/// uses — stable across builds, unlike `DefaultHasher`. **Not** the
/// snapshot codec's digest: that one shares the constants but consumes
/// little-endian `u64` words and mixes the length in, so the two are
/// not interchangeable (records are tens of bytes; snapshots are
/// megabytes walked on every load).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn encode_payload(add: &[WalEdge], remove: &[WalEdge]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(PAYLOAD_PREFIX + EDGE_BYTES * (add.len() + remove.len()));
    payload.extend_from_slice(&(add.len() as u32).to_le_bytes());
    payload.extend_from_slice(&(remove.len() as u32).to_le_bytes());
    for &(src, sym, dst) in add.iter().chain(remove) {
        payload.extend_from_slice(&src.to_le_bytes());
        payload.extend_from_slice(&(sym.index() as u32).to_le_bytes());
        payload.extend_from_slice(&dst.to_le_bytes());
    }
    payload
}

fn decode_payload(payload: &[u8]) -> Result<WalBatch, String> {
    if payload.len() < PAYLOAD_PREFIX {
        return Err(format!(
            "payload of {} bytes is shorter than its {PAYLOAD_PREFIX}-byte edge counts",
            payload.len()
        ));
    }
    let n_add = u32::from_le_bytes(payload[0..4].try_into().expect("4 bytes")) as usize;
    let n_remove = u32::from_le_bytes(payload[4..8].try_into().expect("4 bytes")) as usize;
    let expected = PAYLOAD_PREFIX + EDGE_BYTES * (n_add + n_remove);
    if payload.len() != expected {
        return Err(format!(
            "payload declares {n_add}+{n_remove} edges ({expected} bytes) but holds {}",
            payload.len()
        ));
    }
    let mut edges = payload[PAYLOAD_PREFIX..]
        .chunks_exact(EDGE_BYTES)
        .map(|raw| {
            let src = u32::from_le_bytes(raw[0..4].try_into().expect("4"));
            let sym = u32::from_le_bytes(raw[4..8].try_into().expect("4"));
            let dst = u32::from_le_bytes(raw[8..12].try_into().expect("4"));
            (src, Symbol::from_index(sym as usize), dst)
        });
    let add: Vec<WalEdge> = edges.by_ref().take(n_add).collect();
    let remove: Vec<WalEdge> = edges.collect();
    Ok((add, remove))
}

/// What [`Wal::open`] found on disk.
#[derive(Debug)]
pub struct WalOpenReport {
    /// Intact batches, in append order, ready to replay.
    pub batches: Vec<WalBatch>,
    /// Bytes of torn final record discarded (0 on a clean log).
    pub torn_bytes_dropped: u64,
}

/// An append-only, digest-checked log of delta batches.
///
/// The handle owns the open file; [`Wal::append`] does not return until
/// the record is written **and fsynced**, which is what lets the
/// serving layer acknowledge a delta as durable.
pub struct Wal {
    file: File,
    records: usize,
}

impl Wal {
    /// Opens (creating if absent) the log at `path`, validating every
    /// record. A torn final record — one whose extent crosses EOF or
    /// whose digest fails *at* EOF — is truncated away (module docs);
    /// damage anywhere earlier is [`WalError::Corrupt`].
    pub fn open<P: AsRef<Path>>(path: P) -> Result<(Wal, WalOpenReport), WalError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let mut batches = Vec::new();
        let mut pos = 0usize;
        let mut good = 0usize;
        while pos < bytes.len() {
            let remaining = bytes.len() - pos;
            if remaining < RECORD_HEADER {
                break; // torn header
            }
            let payload_len =
                u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4")) as usize;
            let stored = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().expect("8"));
            let end = pos + RECORD_HEADER + payload_len;
            if end > bytes.len() {
                break; // torn body
            }
            let payload = &bytes[pos + RECORD_HEADER..end];
            let at_eof = end == bytes.len();
            if fnv1a(payload) != stored {
                if at_eof {
                    break; // torn final record: never acknowledged
                }
                return Err(WalError::Corrupt {
                    offset: pos as u64,
                    detail: "record digest mismatch before the final record".into(),
                });
            }
            // A valid digest over structurally impossible content means
            // the writer never produced it — corruption, not a tear.
            let batch = decode_payload(payload).map_err(|detail| WalError::Corrupt {
                offset: pos as u64,
                detail,
            })?;
            batches.push(batch);
            pos = end;
            good = end;
        }
        let torn = (bytes.len() - good) as u64;
        if torn > 0 {
            file.set_len(good as u64)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::End(0))?;
        let records = batches.len();
        Ok((
            Wal { file, records },
            WalOpenReport {
                batches,
                torn_bytes_dropped: torn,
            },
        ))
    }

    /// Appends one batch and fsyncs. When this returns `Ok`, the batch
    /// survives a crash — the precondition for acknowledging it.
    pub fn append(&mut self, add: &[WalEdge], remove: &[WalEdge]) -> Result<(), WalError> {
        let payload = encode_payload(add, remove);
        let mut record = Vec::with_capacity(RECORD_HEADER + payload.len());
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        record.extend_from_slice(&payload);
        self.file.write_all(&record)?;
        self.file.sync_data()?;
        self.records += 1;
        Ok(())
    }

    /// Empties the log (after a checkpoint made its records redundant).
    pub fn truncate(&mut self) -> Result<(), WalError> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.sync_all()?;
        self.records = 0;
        Ok(())
    }

    /// Records currently in the log.
    pub fn record_count(&self) -> usize {
        self.records
    }
}

/// Why recovery from a data directory failed. Every variant is a
/// diagnostic the operator must see — recovery never silently falls
/// back over damaged state that once held acknowledged writes.
#[derive(Debug)]
pub enum RecoverError {
    /// Directory creation or another filesystem operation failed.
    Io(std::io::Error),
    /// The snapshot file exists but is damaged (digest mismatch,
    /// truncation, …) — see the inner error for which check failed.
    Snapshot(SnapshotError),
    /// The WAL is damaged before its final record.
    Wal(WalError),
    /// A logged batch names a node or label the snapshot graph does
    /// not have — snapshot and WAL disagree about the graph they
    /// describe (e.g. files from different data directories mixed).
    Replay(DeltaError),
    /// First-run fallback graph loading failed (the caller's loader
    /// reported this message).
    Fallback(String),
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::Io(e) => write!(f, "recovery io error: {e}"),
            RecoverError::Snapshot(e) => write!(f, "snapshot rejected: {e}"),
            RecoverError::Wal(e) => write!(f, "wal rejected: {e}"),
            RecoverError::Replay(e) => {
                write!(f, "wal replay does not fit the snapshot graph: {e}")
            }
            RecoverError::Fallback(message) => write!(f, "fallback graph load failed: {message}"),
        }
    }
}

impl std::error::Error for RecoverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoverError::Io(e) => Some(e),
            RecoverError::Snapshot(e) => Some(e),
            RecoverError::Wal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for RecoverError {
    fn from(e: std::io::Error) -> Self {
        RecoverError::Io(e)
    }
}

impl From<SnapshotError> for RecoverError {
    fn from(e: SnapshotError) -> Self {
        RecoverError::Snapshot(e)
    }
}

impl From<WalError> for RecoverError {
    fn from(e: WalError) -> Self {
        RecoverError::Wal(e)
    }
}

/// Where the recovered graph's base image came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoverySource {
    /// `graph.snap` existed and decoded.
    Snapshot,
    /// First run: the caller's fallback loader supplied the graph and a
    /// fresh snapshot was written.
    Fallback,
}

/// What [`Persistence::recover`] did, for logging and tests.
#[derive(Debug)]
pub struct RecoveryReport {
    /// Snapshot or first-run fallback.
    pub source: RecoverySource,
    /// WAL batches replayed onto the base image.
    pub wal_records_replayed: usize,
    /// Bytes of torn final WAL record discarded.
    pub torn_bytes_dropped: u64,
    /// Whether recovery immediately checkpointed (WAL past threshold).
    pub checkpointed: bool,
}

/// The result of [`Persistence::recover`]: the graph to serve plus the
/// live persistence handle to keep logging into.
pub struct Recovered {
    /// The recovered graph — bit-identical to what the previous
    /// process was serving at its last acknowledged write.
    pub graph: GraphDb,
    /// The open snapshot+WAL pair, ready for [`Persistence::log_batch`].
    pub persistence: Persistence,
    /// What recovery found and did.
    pub report: RecoveryReport,
}

/// A data directory: one snapshot + one WAL, with checkpointing.
pub struct Persistence {
    snapshot_path: PathBuf,
    wal: Wal,
    checkpoint_threshold: usize,
}

impl Persistence {
    /// Recovers a serving graph from `dir`, creating the directory and
    /// seeding it on first run.
    ///
    /// * `graph.snap` present → strict decode (damage is fatal, with a
    ///   diagnostic — a snapshot is never "partially" loaded; a file in
    ///   an older format version is rejected the same way, left in
    ///   place, and the diagnostic says to re-seed from the text graph
    ///   into a fresh data dir — never onto the old WAL);
    /// * absent → `fallback()` supplies the graph (e.g. parsed from the
    ///   text format) and a fresh snapshot is written;
    /// * then the WAL replays in append order (torn tail truncated) and
    ///   the overlay is compacted, so the returned graph is a frozen
    ///   CSR;
    /// * finally, if the WAL holds more than `checkpoint_threshold`
    ///   records, recovery checkpoints immediately so the next restart
    ///   starts from a fresh image.
    pub fn recover<P, F>(
        dir: P,
        checkpoint_threshold: usize,
        fallback: F,
    ) -> Result<Recovered, RecoverError>
    where
        P: AsRef<Path>,
        F: FnOnce() -> Result<GraphDb, String>,
    {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        let (mut graph, source) = if snapshot_path.exists() {
            (
                GraphDb::load_snapshot(&snapshot_path)?,
                RecoverySource::Snapshot,
            )
        } else {
            let graph = fallback().map_err(RecoverError::Fallback)?;
            graph.save_snapshot(&snapshot_path)?;
            (graph, RecoverySource::Fallback)
        };
        let (wal, open_report) = Wal::open(dir.join(WAL_FILE))?;
        let replayed = open_report.batches.len();
        for (add, remove) in &open_report.batches {
            graph = graph
                .with_delta(add, remove)
                .map_err(RecoverError::Replay)?;
        }
        if graph.has_delta() {
            graph = graph.compact();
        }
        let mut persistence = Persistence {
            snapshot_path,
            wal,
            checkpoint_threshold,
        };
        let checkpointed = persistence.wal.record_count() > persistence.checkpoint_threshold;
        if checkpointed {
            persistence.checkpoint(&graph)?;
        }
        Ok(Recovered {
            graph,
            persistence,
            report: RecoveryReport {
                source,
                wal_records_replayed: replayed,
                torn_bytes_dropped: open_report.torn_bytes_dropped,
                checkpointed,
            },
        })
    }

    /// Appends one batch to the WAL and fsyncs — call **before**
    /// applying the batch to the served graph, and only acknowledge
    /// the write after this returns `Ok`.
    pub fn log_batch(&mut self, add: &[WalEdge], remove: &[WalEdge]) -> Result<(), WalError> {
        self.wal.append(add, remove)
    }

    /// Checkpoints if the WAL has grown past the record threshold:
    /// writes `graph` (overlay merged into the bytes, the graph itself
    /// untouched) as a fresh snapshot (atomic rename), then truncates
    /// the WAL. Returns whether a checkpoint happened.
    ///
    /// Crash-safe at every interleaving: dying between snapshot and
    /// truncate merely makes the next recovery replay batches the
    /// snapshot already contains, and `(G ∖ remove) ∪ add` batches are
    /// idempotent under re-application.
    pub fn maybe_checkpoint(&mut self, graph: &GraphDb) -> Result<bool, RecoverError> {
        if self.wal.record_count() <= self.checkpoint_threshold {
            return Ok(false);
        }
        self.checkpoint(graph)?;
        Ok(true)
    }

    /// Unconditionally writes `graph` as the snapshot and truncates the
    /// WAL (see [`Persistence::maybe_checkpoint`] for the ordering
    /// argument).
    pub fn checkpoint(&mut self, graph: &GraphDb) -> Result<(), RecoverError> {
        graph.save_snapshot(&self.snapshot_path)?;
        self.wal.truncate()?;
        Ok(())
    }

    /// Records currently waiting in the WAL.
    pub fn wal_records(&self) -> usize {
        self.wal.record_count()
    }

    /// The checkpoint record threshold this handle was opened with.
    pub fn checkpoint_threshold(&self) -> usize {
        self.checkpoint_threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathlearn_graph::GraphBuilder;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pathlearn-wal-{tag}-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn tiny_graph() -> GraphDb {
        let mut builder = GraphBuilder::new();
        builder.add_edge("x", "a", "y");
        builder.add_edge("y", "b", "z");
        builder.build()
    }

    #[test]
    fn append_then_open_replays_in_order() {
        let dir = scratch_dir("replay");
        let path = dir.join(WAL_FILE);
        let a = Symbol::from_index(0);
        {
            let (mut wal, report) = Wal::open(&path).expect("open fresh");
            assert_eq!(report.batches.len(), 0);
            wal.append(&[(0, a, 1)], &[]).expect("append 1");
            wal.append(&[(1, a, 2)], &[(0, a, 1)]).expect("append 2");
            assert_eq!(wal.record_count(), 2);
        }
        let (wal, report) = Wal::open(&path).expect("reopen");
        assert_eq!(wal.record_count(), 2);
        assert_eq!(report.torn_bytes_dropped, 0);
        assert_eq!(report.batches[0], (vec![(0, a, 1)], vec![]));
        assert_eq!(report.batches[1], (vec![(1, a, 2)], vec![(0, a, 1)]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = scratch_dir("torn");
        let path = dir.join(WAL_FILE);
        let a = Symbol::from_index(0);
        {
            let (mut wal, _) = Wal::open(&path).expect("open");
            wal.append(&[(0, a, 1)], &[]).expect("append 1");
            wal.append(&[(1, a, 2)], &[]).expect("append 2");
        }
        let full = std::fs::read(&path).expect("read");
        // Chop mid-way through the second record: a mid-append crash.
        let cut = full.len() - 5;
        std::fs::write(&path, &full[..cut]).expect("tear");
        let (wal, report) = Wal::open(&path).expect("torn tail must open");
        assert_eq!(wal.record_count(), 1, "only the intact record survives");
        assert_eq!(report.torn_bytes_dropped as usize, cut - (full.len() / 2));
        // The file itself was truncated back to the good prefix.
        assert_eq!(std::fs::read(&path).expect("reread").len(), full.len() / 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mid_file_damage_is_fatal_corruption() {
        let dir = scratch_dir("corrupt");
        let path = dir.join(WAL_FILE);
        let a = Symbol::from_index(0);
        {
            let (mut wal, _) = Wal::open(&path).expect("open");
            wal.append(&[(0, a, 1)], &[]).expect("append 1");
            wal.append(&[(1, a, 2)], &[]).expect("append 2");
        }
        let mut bytes = std::fs::read(&path).expect("read");
        // Flip a payload bit inside the FIRST record.
        bytes[RECORD_HEADER + 2] ^= 0x01;
        std::fs::write(&path, &bytes).expect("damage");
        match Wal::open(&path) {
            Err(WalError::Corrupt { offset, .. }) => assert_eq!(offset, 0),
            Err(other) => panic!("expected Corrupt, got {other:?}"),
            Ok(_) => panic!("mid-file damage must be fatal, not openable"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn damaged_final_record_digest_is_a_tear() {
        let dir = scratch_dir("tail-digest");
        let path = dir.join(WAL_FILE);
        let a = Symbol::from_index(0);
        {
            let (mut wal, _) = Wal::open(&path).expect("open");
            wal.append(&[(0, a, 1)], &[]).expect("append 1");
            wal.append(&[(1, a, 2)], &[]).expect("append 2");
        }
        let mut bytes = std::fs::read(&path).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).expect("damage tail");
        let (wal, report) = Wal::open(&path).expect("tail damage is a tear");
        assert_eq!(wal.record_count(), 1);
        assert!(report.torn_bytes_dropped > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A record whose digest matches but whose payload cannot hold the
    /// two edge counts was never written by [`Wal::append`]: corruption
    /// at the record's start, reported, not a panic.
    #[test]
    fn a_short_payload_with_a_valid_digest_is_corruption() {
        let dir = scratch_dir("short");
        let path = dir.join(WAL_FILE);
        for payload in [&[][..], &[1, 0, 0, 0][..]] {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&fnv1a(payload).to_le_bytes());
            bytes.extend_from_slice(payload);
            std::fs::write(&path, &bytes).expect("write record");
            match Wal::open(&path) {
                Err(WalError::Corrupt { offset, .. }) => assert_eq!(offset, 0),
                Err(other) => panic!("{payload:?}: expected Corrupt, got {other:?}"),
                Ok(_) => panic!("{payload:?}: a short payload must not open"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_first_run_seeds_snapshot_and_replays_later() {
        let dir = scratch_dir("recover");
        let base = tiny_graph();
        let a = base.alphabet().symbol("a").unwrap();
        let (x, z) = (base.node_id("x").unwrap(), base.node_id("z").unwrap());

        // First run: fallback supplies the graph, snapshot is seeded.
        let recovered = {
            let base = base.clone();
            Persistence::recover(&dir, 1024, move || Ok(base)).expect("first-run recover")
        };
        assert_eq!(recovered.report.source, RecoverySource::Fallback);
        assert_eq!(recovered.report.wal_records_replayed, 0);
        assert!(dir.join(SNAPSHOT_FILE).exists());
        let mut persistence = recovered.persistence;
        persistence.log_batch(&[(x, a, z)], &[]).expect("log");
        drop(persistence);

        // Second run: snapshot + WAL replay reproduce the edge.
        let recovered = Persistence::recover(&dir, 1024, || Err("fallback must not run".into()))
            .expect("second recover");
        assert_eq!(recovered.report.source, RecoverySource::Snapshot);
        assert_eq!(recovered.report.wal_records_replayed, 1);
        let expected = base.with_delta(&[(x, a, z)], &[]).unwrap().compact();
        assert_eq!(
            recovered.graph.snapshot_bytes(),
            expected.snapshot_bytes(),
            "recovered graph must be bit-identical to the patched base"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_threshold_folds_wal_into_snapshot() {
        let dir = scratch_dir("checkpoint");
        let base = tiny_graph();
        let a = base.alphabet().symbol("a").unwrap();
        let recovered = {
            let base = base.clone();
            // Threshold 2: the third logged record pushes past it.
            Persistence::recover(&dir, 2, move || Ok(base)).expect("recover")
        };
        let mut persistence = recovered.persistence;
        let mut graph = recovered.graph;
        for i in 0..3u32 {
            let add = [(i % 3, a, (i + 1) % 3)];
            persistence.log_batch(&add, &[]).expect("log");
            graph = graph.with_delta(&add, &[]).unwrap();
            let did = persistence.maybe_checkpoint(&graph).expect("maybe");
            assert_eq!(did, i == 2, "only the past-threshold append checkpoints");
        }
        assert_eq!(persistence.wal_records(), 0, "checkpoint truncates the WAL");
        drop(persistence);
        let recovered =
            Persistence::recover(&dir, 2, || Err("no fallback".into())).expect("re-recover");
        assert_eq!(recovered.report.wal_records_replayed, 0);
        assert_eq!(
            recovered.graph.snapshot_bytes(),
            graph.compact().snapshot_bytes()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_rejects_a_corrupted_snapshot_with_a_diagnostic() {
        let dir = scratch_dir("bad-snap");
        let base = tiny_graph();
        {
            let base = base.clone();
            Persistence::recover(&dir, 1024, move || Ok(base)).expect("seed");
        }
        let snap = dir.join(SNAPSHOT_FILE);
        let mut bytes = std::fs::read(&snap).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&snap, &bytes).expect("corrupt");
        match Persistence::recover(&dir, 1024, || Err("no fallback".into())) {
            Err(RecoverError::Snapshot(_)) => {}
            other => panic!(
                "corrupted snapshot must be rejected, got {:?}",
                other.map(|_| ())
            ),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A data dir left by a build that wrote format version 1: recovery
    /// refuses it with the remedy in the message, never runs the
    /// fallback loader, and leaves the old file exactly as it was.
    #[test]
    fn recovery_rejects_an_older_format_snapshot_and_names_the_remedy() {
        let dir = scratch_dir("v1-snap");
        let snap = dir.join(SNAPSHOT_FILE);
        let mut old = b"PLSG".to_vec();
        old.extend_from_slice(&1u32.to_le_bytes());
        old.extend_from_slice(&[0xab; 64]);
        std::fs::write(&snap, &old).expect("plant a v1 file");
        let fallback_ran = std::cell::Cell::new(false);
        let error = Persistence::recover(&dir, 1024, || {
            fallback_ran.set(true);
            Ok(tiny_graph())
        })
        .err()
        .expect("a v1 snapshot must not recover");
        assert!(matches!(
            error,
            RecoverError::Snapshot(SnapshotError::BadVersion { found: 1 })
        ));
        let message = error.to_string();
        for needle in [
            "older build",
            "text graph",
            "fresh, empty data dir",
            "write-ahead log",
            "must not be replayed",
        ] {
            assert!(message.contains(needle), "{message:?} lacks {needle:?}");
        }
        assert!(
            !fallback_ran.get(),
            "the fallback must not replace old data"
        );
        assert_eq!(std::fs::read(&snap).expect("reread"), old);
        std::fs::remove_dir_all(&dir).ok();
    }
}
