//! Versioned binary snapshots of a frozen [`GraphDb`].
//!
//! A snapshot is the on-disk twin of the in-memory label-partitioned
//! CSR: loading one is a bounds-checked array reconstruction —
//! `O(bytes)`, not `O(parse)` — which is what makes process restarts
//! cheap next to re-parsing the text format of [`crate::io`]. The
//! artifact is *derived and rebuildable*: the text graph (plus any
//! write-ahead log of deltas, see `pathlearn-server::wal`) remains the
//! source of truth, and a snapshot can always be regenerated from it.
//!
//! ## Layout (format version 1, all integers little-endian)
//!
//! ```text
//! magic            4 bytes   b"PLSG"
//! version          u32       SNAPSHOT_VERSION (= 1)
//! num_nodes        u32       |V|
//! num_labels       u32       |Σ|
//! num_edges        u64       |E| (after overlay compaction + dedup)
//! alphabet         |Σ| × (u16 len + UTF-8 bytes), symbol order
//! node names       |V| × (u16 len + UTF-8 bytes), node-id order
//! out sym offsets  (|V|·|Σ| + 1) × u32
//! out edge dsts    |E| × u32  (labels implied by the partition)
//! in  sym offsets  (|V|·|Σ| + 1) × u32
//! in  edge srcs    |E| × u32
//! out label-active |Σ| × ⌈|V|/64⌉ × u64 bitmap blocks
//! in  label-active |Σ| × ⌈|V|/64⌉ × u64 bitmap blocks
//! digest           u64       FNV-1a over all preceding bytes as LE u64
//!                            words (tail zero-padded, length mixed in)
//! ```
//!
//! Edge labels are *not* stored per edge: within the per-`(node,
//! symbol)` offset table every partition's symbol is known, so each
//! direction costs 4 bytes per edge plus the offset table. Everything
//! derived (per-label counts and average degrees, the per-node offset
//! tables) comes from the same `Adjacency` constructor the builder
//! uses, in one linear pass over the decoded edge array — they are pure
//! functions of the CSR, so storing them would only add ways for a
//! snapshot to lie. The label bitmaps *are* stored, and must equal the
//! ones that constructor derives.
//!
//! ## Strict decoding
//!
//! Mirroring the wire-protocol discipline of `pathlearn-server::proto`,
//! [`GraphDb::from_snapshot_bytes`] rejects rather than repairs: bad
//! magic or version, any truncation, trailing bytes, a digest mismatch,
//! out-of-range node ids or offsets, unsorted or duplicated partition
//! entries, label bitmaps disagreeing with the offset tables, and
//! forward/backward edge lists that are not mirror images all fail with
//! a structured [`SnapshotError`]. A snapshot that decodes at all
//! reconstructs the graph **bit-identically**: re-encoding the decoded
//! graph yields the original bytes, and every query answer matches the
//! source graph's.
//!
//! Saving a graph that carries a pending delta overlay first folds the
//! overlay into a fresh CSR ([`GraphDb::compact`] — node ids and the
//! alphabet are preserved), so a snapshot always captures the
//! *effective* edge set and never needs to encode overlay state.

use super::{Adjacency, Dir, GraphDb, NodeId};
use pathlearn_automata::{Alphabet, BitSet, Symbol};
use std::collections::HashMap;
use std::fmt;
use std::io::Write;
use std::path::Path;

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"PLSG";

/// The snapshot format version this build reads and writes. Decoding
/// any other version fails with [`SnapshotError::BadVersion`] — format
/// evolution is explicit, never silent.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Why a snapshot failed to decode (or a file failed to read/write).
/// Every variant means the graph was **not** loaded — a snapshot is
/// either accepted whole or rejected whole.
#[derive(Debug)]
pub enum SnapshotError {
    /// Reading or writing the underlying file failed.
    Io(std::io::Error),
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The format version is not [`SNAPSHOT_VERSION`].
    BadVersion {
        /// The version field found in the header.
        found: u32,
    },
    /// The buffer ended before a field it promised.
    Truncated {
        /// Bytes the next field needed.
        needed: usize,
        /// Bytes actually remaining.
        available: usize,
    },
    /// Bytes remain after the digest — the length is part of the format.
    TrailingBytes {
        /// How many unexpected bytes follow the digest.
        extra: usize,
    },
    /// The trailing FNV-1a digest does not match the content.
    DigestMismatch {
        /// Digest stored in the file.
        stored: u64,
        /// Digest recomputed over the decoded bytes.
        computed: u64,
    },
    /// A node id, symbol index, or offset exceeds its declared bound.
    OutOfRange {
        /// Which field was out of range.
        what: &'static str,
        /// The offending value.
        value: u64,
        /// The exclusive limit it violated.
        limit: u64,
    },
    /// A structural invariant failed (unsorted partitions, duplicate
    /// names, non-mirrored edge directions, bitmap disagreement, …).
    Malformed(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a pathlearn snapshot (bad magic)"),
            SnapshotError::BadVersion { found } => write!(
                f,
                "unsupported snapshot version {found} (this build reads {SNAPSHOT_VERSION})"
            ),
            SnapshotError::Truncated { needed, available } => write!(
                f,
                "snapshot truncated: needed {needed} more byte(s), found {available}"
            ),
            SnapshotError::TrailingBytes { extra } => {
                write!(f, "snapshot has {extra} trailing byte(s) after the digest")
            }
            SnapshotError::DigestMismatch { stored, computed } => write!(
                f,
                "snapshot digest mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            SnapshotError::OutOfRange { what, value, limit } => {
                write!(f, "snapshot {what} {value} out of range (limit {limit})")
            }
            SnapshotError::Malformed(why) => write!(f, "malformed snapshot: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// FNV-1a over the buffer taken as little-endian u64 words (tail
/// zero-padded, total length mixed in last) — the same stable
/// constants `CanonicalQuery::fingerprint` uses, so snapshot integrity
/// does not depend on `DefaultHasher`'s unspecified per-release
/// seeding. Consuming eight bytes per round instead of one matters
/// here: the digest walks every snapshot byte on each load, and the
/// byte-wise chain would cost more than the rest of decoding combined.
/// Any flipped bit still perturbs its word, and the avalanche carries
/// through every later multiply; folding in the length keeps buffers
/// differing only in trailing zero bytes apart.
fn fnv1a(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        hash ^= u64::from_le_bytes(word.try_into().expect("8 bytes"));
        hash = hash.wrapping_mul(PRIME);
    }
    let rem = words.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        hash ^= u64::from_le_bytes(tail);
        hash = hash.wrapping_mul(PRIME);
    }
    hash ^= bytes.len() as u64;
    hash.wrapping_mul(PRIME)
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn push_string(out: &mut Vec<u8>, text: &str) -> Result<(), SnapshotError> {
    let len = u16::try_from(text.len()).map_err(|_| {
        SnapshotError::Malformed(format!("name longer than 65535 bytes: {:.40}…", text))
    })?;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(text.as_bytes());
    Ok(())
}

impl GraphDb {
    /// Serializes this graph to the versioned binary snapshot format.
    /// A pending delta overlay is compacted first, so the bytes always
    /// describe the effective edge set; the result round-trips through
    /// [`GraphDb::from_snapshot_bytes`] bit-identically.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        if self.delta.is_some() {
            return self.compact().snapshot_bytes();
        }
        let core = &*self.core;
        let n = core.node_names.len();
        let sigma = core.alphabet.len();
        let m = self.num_edges();
        let mut out = Vec::with_capacity(32 + 8 * (n * sigma + 1) + 8 * m + 16 * n);
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&(n as u32).to_le_bytes());
        out.extend_from_slice(&(sigma as u32).to_le_bytes());
        out.extend_from_slice(&(m as u64).to_le_bytes());
        for (_, label) in core.alphabet.entries() {
            push_string(&mut out, label).expect("alphabet labels fit u16 lengths");
        }
        for name in &core.node_names {
            push_string(&mut out, name).expect("node names fit u16 lengths");
        }
        for adj in &core.adj {
            for &offset in &adj.sym_offsets {
                out.extend_from_slice(&offset.to_le_bytes());
            }
            for &(_, endpoint) in &adj.edges {
                out.extend_from_slice(&endpoint.to_le_bytes());
            }
        }
        for adj in &core.adj {
            for label in &adj.labels {
                for &block in label.active.as_blocks() {
                    out.extend_from_slice(&block.to_le_bytes());
                }
            }
        }
        let digest = fnv1a(&out);
        out.extend_from_slice(&digest.to_le_bytes());
        out
    }

    /// Writes [`GraphDb::snapshot_bytes`] to `path` atomically: the
    /// bytes land in a sibling `.tmp` file, are fsynced, and replace
    /// `path` by rename — a crash mid-save leaves the previous snapshot
    /// intact, never a half-written one.
    pub fn save_snapshot<P: AsRef<Path>>(&self, path: P) -> Result<(), SnapshotError> {
        let path = path.as_ref();
        let bytes = self.snapshot_bytes();
        let tmp = path.with_extension("snap.tmp");
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(&bytes)?;
            file.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        // Best-effort directory sync so the rename itself is durable;
        // not every filesystem supports opening a directory for sync.
        if let Some(parent) = path.parent() {
            if let Ok(dir) = std::fs::File::open(parent) {
                let _ = dir.sync_all();
            }
        }
        Ok(())
    }

    /// Decodes a snapshot produced by [`GraphDb::snapshot_bytes`],
    /// strictly (module docs): any corruption is a [`SnapshotError`],
    /// never a silently wrong graph.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<GraphDb, SnapshotError> {
        Decoder::new(bytes)?.decode()
    }

    /// Reads and decodes a snapshot file — [`GraphDb::save_snapshot`]'s
    /// inverse.
    pub fn load_snapshot<P: AsRef<Path>>(path: P) -> Result<GraphDb, SnapshotError> {
        let bytes = std::fs::read(path)?;
        GraphDb::from_snapshot_bytes(&bytes)
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Exclusive end of the digest-covered region (total length − 8).
    end: usize,
}

impl<'a> Decoder<'a> {
    /// Verifies framing (magic, version, digest, no trailing bytes)
    /// before any field decoding starts.
    fn new(bytes: &'a [u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < 4 {
            return Err(SnapshotError::Truncated {
                needed: 4,
                available: bytes.len(),
            });
        }
        if bytes[..4] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        if bytes.len() < 8 {
            return Err(SnapshotError::Truncated {
                needed: 8 - bytes.len(),
                available: 0,
            });
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::BadVersion { found: version });
        }
        // Header (24) + digest (8) is the smallest well-formed snapshot.
        if bytes.len() < 32 {
            return Err(SnapshotError::Truncated {
                needed: 32 - bytes.len(),
                available: 0,
            });
        }
        let end = bytes.len() - 8;
        let stored = u64::from_le_bytes(bytes[end..].try_into().expect("8 bytes"));
        let computed = fnv1a(&bytes[..end]);
        if stored != computed {
            return Err(SnapshotError::DigestMismatch { stored, computed });
        }
        Ok(Decoder { bytes, pos: 8, end })
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], SnapshotError> {
        let available = self.end - self.pos;
        if len > available {
            return Err(SnapshotError::Truncated {
                needed: len,
                available,
            });
        }
        let slice = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn string(&mut self) -> Result<String, SnapshotError> {
        let len = u16::from_le_bytes(self.take(2)?.try_into().expect("2")) as usize;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| SnapshotError::Malformed("name is not valid UTF-8".into()))
    }

    fn u32_vec(&mut self, count: usize) -> Result<Vec<u32>, SnapshotError> {
        let raw = self.take(count.checked_mul(4).ok_or(SnapshotError::OutOfRange {
            what: "array length",
            value: count as u64,
            limit: u64::MAX / 4,
        })?)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4")))
            .collect())
    }

    /// Reads one direction's offset table + endpoint array and rebuilds
    /// its [`Adjacency`], validating monotone offsets, in-range
    /// endpoints, and strictly sorted (deduplicated) partitions — the
    /// invariant the binary-searching kernels rely on.
    fn direction(
        &mut self,
        n: usize,
        sigma: usize,
        m: usize,
        what: &'static str,
    ) -> Result<Adjacency, SnapshotError> {
        let sym_offsets = self.u32_vec(n * sigma + 1)?;
        if sym_offsets[0] != 0 {
            return Err(SnapshotError::Malformed(format!(
                "{what} offsets do not start at 0"
            )));
        }
        if sym_offsets[n * sigma] as usize != m {
            return Err(SnapshotError::Malformed(format!(
                "{what} offsets end at {} instead of the edge count {m}",
                sym_offsets[n * sigma]
            )));
        }
        for window in sym_offsets.windows(2) {
            if window[1] < window[0] {
                return Err(SnapshotError::Malformed(format!(
                    "{what} offsets decrease ({} then {})",
                    window[0], window[1]
                )));
            }
        }
        let endpoints = self.u32_vec(m)?;
        let mut edges = Vec::with_capacity(m);
        for cell in 0..n * sigma {
            let sym = Symbol::from_index(cell % sigma);
            let (lo, hi) = (sym_offsets[cell] as usize, sym_offsets[cell + 1] as usize);
            let mut previous: Option<u32> = None;
            for &endpoint in &endpoints[lo..hi] {
                if endpoint as usize >= n {
                    return Err(SnapshotError::OutOfRange {
                        what: "node id",
                        value: endpoint as u64,
                        limit: n as u64,
                    });
                }
                if previous.is_some_and(|p| p >= endpoint) {
                    return Err(SnapshotError::Malformed(format!(
                        "{what} partition not strictly sorted at edge {endpoint}"
                    )));
                }
                previous = Some(endpoint);
                edges.push((sym, endpoint));
            }
        }
        Ok(Adjacency::new(sym_offsets, edges, n, sigma))
    }

    /// Reads one direction's stored label bitmaps and checks each
    /// against the one `adj` derived from the offset table: bit `v` must
    /// be set exactly when node `v`'s partition for that label is
    /// nonempty. A bitmap cannot disagree with the edges it summarizes.
    fn bitmaps(
        &mut self,
        n: usize,
        adj: &Adjacency,
        what: &'static str,
    ) -> Result<(), SnapshotError> {
        let words = n.div_ceil(BitSet::BLOCK_BITS);
        for (si, label) in adj.labels.iter().enumerate() {
            let raw = self.take(words * 8)?;
            let blocks: Vec<u64> = raw
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8")))
                .collect();
            let stored = BitSet::from_blocks(n, &blocks).ok_or_else(|| {
                SnapshotError::Malformed(format!("{what} bitmap {si} has bits beyond |V|"))
            })?;
            if stored != label.active {
                return Err(SnapshotError::Malformed(format!(
                    "{what} bitmap {si} disagrees with the offset table"
                )));
            }
        }
        Ok(())
    }

    fn decode(mut self) -> Result<GraphDb, SnapshotError> {
        let n = self.u32()? as usize;
        let sigma = self.u32()? as usize;
        let m64 = self.u64()?;
        let m = usize::try_from(m64).map_err(|_| SnapshotError::OutOfRange {
            what: "edge count",
            value: m64,
            limit: usize::MAX as u64,
        })?;
        // An offset table entry is u32, so the edge count must fit one.
        if m64 > u32::MAX as u64 {
            return Err(SnapshotError::OutOfRange {
                what: "edge count",
                value: m64,
                limit: u32::MAX as u64,
            });
        }
        n.checked_mul(sigma)
            .and_then(|cells| cells.checked_add(1))
            .and_then(|cells| cells.checked_mul(4))
            .ok_or(SnapshotError::OutOfRange {
                what: "offset table size",
                value: n as u64,
                limit: u64::MAX,
            })?;

        // Interned in stored order: edges carry stored symbol indices,
        // and a text-parsed graph's alphabet is in first-appearance
        // order, not sorted.
        let mut alphabet = Alphabet::new();
        for _ in 0..sigma {
            alphabet.intern(&self.string()?);
        }
        if alphabet.len() != sigma {
            return Err(SnapshotError::Malformed(
                "duplicate labels in the alphabet table".into(),
            ));
        }

        let mut node_names = Vec::with_capacity(n);
        let mut name_index = HashMap::with_capacity(n);
        for id in 0..n {
            let name = self.string()?;
            if name_index.insert(name.clone(), id as NodeId).is_some() {
                return Err(SnapshotError::Malformed(format!(
                    "duplicate node name {name:?}"
                )));
            }
            node_names.push(name);
        }

        let adj = [
            self.direction(n, sigma, m, "forward")?,
            self.direction(n, sigma, m, "backward")?,
        ];
        self.bitmaps(n, &adj[Dir::Out as usize], "out label")?;
        self.bitmaps(n, &adj[Dir::In as usize], "in label")?;
        if self.pos != self.end {
            return Err(SnapshotError::TrailingBytes {
                extra: self.end - self.pos,
            });
        }

        // The two directions must be mirror images: every forward edge
        // (src --sym--> dst) appears as src in the backward partition
        // of (dst, sym). Both lists hold exactly m strictly sorted
        // entries, so containment one way is equality.
        let [out, inn] = &adj;
        for (cell, window) in out.sym_offsets.windows(2).enumerate() {
            let src = (cell / sigma) as NodeId;
            let sym = Symbol::from_index(cell % sigma);
            for &(_, dst) in &out.edges[window[0] as usize..window[1] as usize] {
                if inn
                    .neighbors(dst, sym)
                    .binary_search_by_key(&src, |&(_, s)| s)
                    .is_err()
                {
                    return Err(SnapshotError::Malformed(format!(
                        "backward direction is missing edge {src} --{}--> {dst}",
                        sym.index()
                    )));
                }
            }
        }

        Ok(GraphDb::from_parts(alphabet, node_names, name_index, adj))
    }
}

/// Convenience for tests and tools: builds a graph from an edge list
/// and round-trips it through the snapshot codec, returning both.
#[doc(hidden)]
pub fn roundtrip_for_tests(graph: &GraphDb) -> (Vec<u8>, GraphDb) {
    let bytes = graph.snapshot_bytes();
    let decoded = GraphDb::from_snapshot_bytes(&bytes).expect("round-trip decode");
    (bytes, decoded)
}

#[cfg(test)]
mod tests {
    use super::super::{figure3_g0, GraphBuilder};
    use super::*;

    #[test]
    fn roundtrip_is_bit_identical_on_g0() {
        let g0 = figure3_g0();
        let bytes = g0.snapshot_bytes();
        let decoded = GraphDb::from_snapshot_bytes(&bytes).expect("decode g0 snapshot");
        assert_eq!(decoded.num_nodes(), g0.num_nodes());
        assert_eq!(decoded.num_edges(), g0.num_edges());
        assert_eq!(
            decoded.edges().collect::<Vec<_>>(),
            g0.edges().collect::<Vec<_>>()
        );
        for node in g0.nodes() {
            assert_eq!(decoded.node_name(node), g0.node_name(node));
        }
        // Re-encoding the decode is the strongest round-trip check:
        // every stored and derived field must agree byte for byte.
        assert_eq!(decoded.snapshot_bytes(), bytes);
    }

    #[test]
    fn roundtrip_handles_empty_and_edgeless_graphs() {
        let empty = GraphBuilder::new().build();
        let (bytes, decoded) = roundtrip_for_tests(&empty);
        assert_eq!(decoded.num_nodes(), 0);
        assert_eq!(decoded.snapshot_bytes(), bytes);

        let mut builder = GraphBuilder::new();
        builder.add_node("lonely");
        let lonely = builder.build();
        let (_, decoded) = roundtrip_for_tests(&lonely);
        assert_eq!(decoded.num_nodes(), 1);
        assert_eq!(decoded.num_edges(), 0);
        assert_eq!(decoded.node_name(0), "lonely");
    }

    #[test]
    fn pending_overlay_is_compacted_into_the_snapshot() {
        let g0 = figure3_g0();
        let c = g0.alphabet().symbol("c").unwrap();
        let (v2, v4) = (g0.node_id("v2").unwrap(), g0.node_id("v4").unwrap());
        let (v1, _) = (g0.node_id("v1").unwrap(), ());
        let patched = g0
            .with_delta(&[(v2, c, v4)], &[(v1, c, v4)])
            .expect("in-range delta");
        assert!(patched.has_delta());
        let bytes = patched.snapshot_bytes();
        // The snapshot equals the compacted graph's, bit for bit.
        assert_eq!(bytes, patched.compact().snapshot_bytes());
        let decoded = GraphDb::from_snapshot_bytes(&bytes).expect("decode overlay snapshot");
        assert!(!decoded.has_delta());
        assert_eq!(
            decoded.edges().collect::<Vec<_>>(),
            patched.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn save_and_load_roundtrip_through_a_file() {
        let g0 = figure3_g0();
        let path = std::env::temp_dir().join(format!(
            "pathlearn-snap-test-{}-{:x}.snap",
            std::process::id(),
            g0.snapshot_bytes().len()
        ));
        g0.save_snapshot(&path).expect("save snapshot");
        let loaded = GraphDb::load_snapshot(&path).expect("load snapshot");
        assert_eq!(loaded.snapshot_bytes(), g0.snapshot_bytes());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn strict_decode_rejects_framing_violations() {
        let bytes = figure3_g0().snapshot_bytes();

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            GraphDb::from_snapshot_bytes(&bad),
            Err(SnapshotError::BadMagic)
        ));

        // Bad version.
        let mut bad = bytes.clone();
        bad[4] = 99;
        // The digest covers the version field, so recompute it to reach
        // the version check in isolation.
        let end = bad.len() - 8;
        let digest = fnv1a(&bad[..end]);
        bad[end..].copy_from_slice(&digest.to_le_bytes());
        assert!(matches!(
            GraphDb::from_snapshot_bytes(&bad),
            Err(SnapshotError::BadVersion { found: 99 })
        ));

        // Truncation at every prefix length decodes to an error, never
        // a graph (and never panics).
        for len in 0..bytes.len() {
            assert!(
                GraphDb::from_snapshot_bytes(&bytes[..len]).is_err(),
                "prefix of {len} bytes must not decode"
            );
        }

        // Trailing bytes.
        let mut bad = bytes.clone();
        bad.push(0);
        assert!(GraphDb::from_snapshot_bytes(&bad).is_err());

        // Every single-bit flip in the body is caught by the digest (or
        // by a later structural check — never accepted). Sample a few
        // positions across the sections.
        for pos in [8usize, 24, bytes.len() / 2, bytes.len() - 9] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x01;
            assert!(
                GraphDb::from_snapshot_bytes(&bad).is_err(),
                "bit flip at {pos} must be rejected"
            );
        }
    }

    #[test]
    fn strict_decode_rejects_out_of_range_ids_and_lying_bitmaps() {
        let g0 = figure3_g0();
        let bytes = g0.snapshot_bytes();
        let n = g0.num_nodes();
        let sigma = g0.alphabet().len();
        // Locate the first out-edge destination: header (24) + alphabet
        // + names + offset table.
        let mut pos = 24;
        for (_, label) in g0.alphabet().entries() {
            pos += 2 + label.len();
        }
        for node in g0.nodes() {
            pos += 2 + g0.node_name(node).len();
        }
        pos += 4 * (n * sigma + 1);

        // Out-of-range node id, digest re-stamped so only the range
        // check can reject it.
        let mut bad = bytes.clone();
        bad[pos..pos + 4].copy_from_slice(&(n as u32 + 7).to_le_bytes());
        let end = bad.len() - 8;
        let digest = fnv1a(&bad[..end]);
        bad[end..].copy_from_slice(&digest.to_le_bytes());
        assert!(
            matches!(
                GraphDb::from_snapshot_bytes(&bad),
                Err(SnapshotError::OutOfRange {
                    what: "node id",
                    ..
                })
            ),
            "an out-of-range destination id must be rejected even with a valid digest"
        );

        // A lying label bitmap (bit cleared for an active node),
        // digest re-stamped: the offset-table cross-check catches it.
        let bitmap_pos = bytes.len() - 8 - 2 * sigma * n.div_ceil(64) * 8;
        let mut bad = bytes.clone();
        bad[bitmap_pos] ^= 0xff;
        let end = bad.len() - 8;
        let digest = fnv1a(&bad[..end]);
        bad[end..].copy_from_slice(&digest.to_le_bytes());
        assert!(
            GraphDb::from_snapshot_bytes(&bad).is_err(),
            "a bitmap disagreeing with the offsets must be rejected"
        );
    }

    #[test]
    fn decoded_graph_answers_queries_identically() {
        use crate::eval::eval_monadic;
        let g0 = figure3_g0();
        let (_, decoded) = roundtrip_for_tests(&g0);
        for expr in ["(a·b)*·c", "a", "b·b·c·c"] {
            let dfa = pathlearn_automata::Regex::parse(expr, g0.alphabet())
                .unwrap()
                .to_dfa(g0.alphabet().len());
            assert_eq!(
                eval_monadic(&dfa, &decoded),
                eval_monadic(&dfa, &g0),
                "{expr} must answer identically on the decoded graph"
            );
        }
    }
}
