//! Versioned binary snapshots of a frozen [`GraphDb`].
//!
//! A snapshot is the **edge list**, not a memory image: the alphabet,
//! the node names and the out-direction of the edge relation, each
//! edge once. Everything else a [`GraphDb`] holds — the
//! `(label, node)` offset tables, the in-direction, the label
//! bitmaps, counts and average degrees — is a pure function of that
//! list, so loading one is a bounds-checked read of the list followed
//! by the **same private constructor** `GraphBuilder::build` ends in.
//! A file that stored the derived sections would only be larger (the
//! two `|V|·|Σ|` offset tables were 86 % of a format-1 file) and need
//! a decoder pass per section to police the redundancy. The artifact is
//! *derived and rebuildable*: the text graph (plus any write-ahead log
//! of deltas, see `pathlearn-server::wal`) remains the source of truth,
//! and a snapshot can always be regenerated from it.
//!
//! ## Layout (format version 2, all integers little-endian)
//!
//! ```text
//! magic            4 bytes   b"PLSG"
//! version          u32       SNAPSHOT_VERSION (= 2)
//! num_nodes        u32       |V|
//! num_labels       u32       |Σ|
//! num_edges        u64       |E| (the effective edge set, deduplicated)
//! alphabet         |Σ| × (u16 len + UTF-8 bytes), symbol order
//! node names       |V| × (u16 len + UTF-8 bytes), node-id order
//! out row offsets  (|V| + 1) × u32   node v's out-edges are entries
//!                                    [offsets[v], offsets[v + 1])
//! out edges        |E| × (u32 symbol index, u32 target node id),
//!                  in (source, symbol, target) order
//! digest           u64       FNV-1a over all preceding bytes as LE u64
//!                            words (tail zero-padded, length mixed in)
//! ```
//!
//! That is `32 + Σ(2 + |label|) + Σ(2 + |name|) + 4·(|V| + 1) + 8·|E|`
//! bytes — nothing of size `|V|·|Σ|` is stored.
//!
//! ## Strict decoding
//!
//! Mirroring the wire-protocol discipline of `pathlearn-server::proto`,
//! [`GraphDb::from_snapshot_bytes`] rejects rather than repairs: bad
//! magic or version, any truncation, trailing bytes, a digest mismatch,
//! duplicate labels or node names, a declared `|V|·|Σ|` above
//! [`MAX_TABLE_CELLS`] (the derived tables' allocation is bounded
//! before anything is built), row offsets that do not start at 0,
//! decrease, or do not end at `|E|`, out-of-range symbol indices or
//! node ids, and rows that are not strictly sorted by `(symbol,
//! target)` (which also excludes duplicated edges) all fail with a
//! structured [`SnapshotError`]. A format-1 file is a bad version —
//! no reader for it is kept; re-seed from the text graph. A snapshot
//! that decodes at all reconstructs the graph **bit-identically**:
//! re-encoding the decoded graph yields the original bytes, and every
//! query answer matches the source graph's.
//!
//! Saving a graph that carries a pending delta overlay writes its
//! *effective* edge set: the encoder walks [`GraphDb::edges_of`], which
//! merges the overlay in order, so the bytes equal those of the
//! compacted graph while the graph itself is left as it is — nothing is
//! folded on the write path and a snapshot never encodes overlay state.

use super::{Dir, GraphDb, NodeId};
use pathlearn_automata::{Alphabet, Symbol};
use std::collections::HashMap;
use std::fmt;
use std::io::Write;
use std::path::Path;

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"PLSG";

/// The snapshot format version this build reads and writes. Decoding
/// any other version fails with [`SnapshotError::BadVersion`] — format
/// evolution is explicit, never silent.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Largest `|V|·|Σ|` a snapshot may declare. The per-label bitmaps and
/// rank words are not in the file, but loading derives one bit and half
/// a bit of them per `(label, node)` pair and direction (48 MiB per
/// direction at the limit), so without a bound a few digest-valid
/// megabytes of short names and labels would request terabytes and
/// abort in the allocator instead of returning a [`SnapshotError`].
/// [`GraphDb::save_snapshot`] refuses the same graphs, so no file this
/// build writes is one it cannot load.
pub const MAX_TABLE_CELLS: usize = 1 << 28;

/// Why a snapshot failed to decode (or a file failed to read/write).
/// Every variant means the graph was **not** loaded — a snapshot is
/// either accepted whole or rejected whole.
#[derive(Debug)]
pub enum SnapshotError {
    /// Reading or writing the underlying file failed.
    Io(std::io::Error),
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The format version is not [`SNAPSHOT_VERSION`]. There is no
    /// reader for other versions: the data dir is re-seeded from the
    /// text graph (the `Display` text says so).
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
    /// A structural invariant failed (unsorted rows, duplicate names,
    /// row offsets that decrease or miss the edge count, …).
    Malformed(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a pathlearn snapshot (bad magic)"),
            SnapshotError::BadVersion { found } if *found < SNAPSHOT_VERSION => write!(
                f,
                "snapshot version {found} was written by an older build (this build reads \
                 {SNAPSHOT_VERSION}): re-seed from the text graph into a fresh, empty data dir, \
                 moving the old snapshot and the write-ahead log beside it aside together — a \
                 non-empty log holds acknowledged writes only the older build can fold in, and \
                 must not be replayed onto a re-seeded graph"
            ),
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

/// `|V|·|Σ|` against [`MAX_TABLE_CELLS`] (overflow counts as too large).
fn check_table_cells(n: usize, sigma: usize) -> Result<(), SnapshotError> {
    match n.checked_mul(sigma) {
        Some(cells) if cells <= MAX_TABLE_CELLS => Ok(()),
        cells => Err(SnapshotError::OutOfRange {
            what: "label × node cells",
            value: cells.map_or(u64::MAX, |cells| cells as u64),
            limit: MAX_TABLE_CELLS as u64 + 1,
        }),
    }
}

fn push_string(out: &mut Vec<u8>, text: &str) -> Result<(), SnapshotError> {
    let len = u16::try_from(text.len()).map_err(|_| {
        SnapshotError::Malformed(format!("name longer than 65535 bytes: {:.40}…", text))
    })?;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(text.as_bytes());
    Ok(())
}

impl GraphDb {
    /// Serializes this graph to the versioned binary snapshot format:
    /// names plus the **effective** out-edge list. A pending delta
    /// overlay is merged row by row as it is written (the graph itself
    /// is not compacted), so the bytes are exactly those of
    /// `self.compact()`; the result round-trips through
    /// [`GraphDb::from_snapshot_bytes`] bit-identically.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let core = &*self.core;
        let n = core.node_names.len();
        let m = self.num_edges();
        let mut out = Vec::with_capacity(32 + 4 * (n + 1) + 8 * m + 16 * n);
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&(n as u32).to_le_bytes());
        out.extend_from_slice(&(core.alphabet.len() as u32).to_le_bytes());
        out.extend_from_slice(&(m as u64).to_le_bytes());
        for (_, label) in core.alphabet.entries() {
            push_string(&mut out, label).expect("alphabet labels fit u16 lengths");
        }
        for name in &core.node_names {
            push_string(&mut out, name).expect("node names fit u16 lengths");
        }
        // The offset table precedes the rows it indexes but is only
        // known once they are walked: reserve it, fill it in as we go.
        let offsets_at = out.len();
        out.resize(offsets_at + 4 * (n + 1), 0);
        let mut written = 0u32;
        for node in self.nodes() {
            for (sym, target) in self.edges_of(Dir::Out, node) {
                out.extend_from_slice(&(sym.index() as u32).to_le_bytes());
                out.extend_from_slice(&target.to_le_bytes());
                written += 1;
            }
            let slot = offsets_at + 4 * (node as usize + 1);
            out[slot..slot + 4].copy_from_slice(&written.to_le_bytes());
        }
        debug_assert_eq!(written as usize, m);
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
        check_table_cells(self.num_nodes(), self.alphabet().len())?;
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

    /// Takes `count` fixed-width entries, the byte length checked
    /// against overflow before it is checked against the buffer.
    fn array(&mut self, count: usize, width: usize) -> Result<&'a [u8], SnapshotError> {
        let len = count.checked_mul(width).ok_or(SnapshotError::OutOfRange {
            what: "array length",
            value: count as u64,
            limit: (usize::MAX / width) as u64,
        })?;
        self.take(len)
    }

    fn decode(mut self) -> Result<GraphDb, SnapshotError> {
        let n = self.u32()? as usize;
        let sigma = self.u32()? as usize;
        let m64 = self.u64()?;
        // A row offset is u32, so the edge count must fit one.
        if m64 > u32::MAX as u64 {
            return Err(SnapshotError::OutOfRange {
                what: "edge count",
                value: m64,
                limit: u32::MAX as u64,
            });
        }
        let m = m64 as usize;
        // The label bitmaps and rank words are not in the file, but the
        // constructor derives them from `|V|·|Σ|`: bound it before
        // anything is built.
        check_table_cells(n, sigma)?;
        // Every other allocation below is sized by a header count; the
        // sections those counts promise (≥ 2 bytes per string) must fit
        // the buffer first, so decode memory stays O(bytes).
        let promised = 2 * (sigma as u64 + n as u64) + 4 * (n as u64 + 1) + 8 * m64;
        let available = self.end - self.pos;
        if promised > available as u64 {
            return Err(SnapshotError::Truncated {
                needed: usize::try_from(promised).unwrap_or(usize::MAX),
                available,
            });
        }

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

        let u32_at = |raw: &[u8]| u32::from_le_bytes(raw.try_into().expect("4"));
        let offsets: Vec<u32> = self.array(n + 1, 4)?.chunks_exact(4).map(u32_at).collect();
        if offsets[0] != 0 {
            return Err(SnapshotError::Malformed(
                "row offsets do not start at 0".into(),
            ));
        }
        if let Some(window) = offsets.windows(2).find(|window| window[1] < window[0]) {
            return Err(SnapshotError::Malformed(format!(
                "row offsets decrease ({} then {})",
                window[0], window[1]
            )));
        }
        if offsets[n] as usize != m {
            return Err(SnapshotError::Malformed(format!(
                "row offsets end at {} instead of the edge count {m}",
                offsets[n]
            )));
        }
        let mut pairs = self
            .array(m, 8)?
            .chunks_exact(8)
            .map(|raw| (u32_at(&raw[..4]), u32_at(&raw[4..])));
        if self.pos != self.end {
            return Err(SnapshotError::TrailingBytes {
                extra: self.end - self.pos,
            });
        }

        // Rows in node order, each strictly sorted by `(symbol, target)`
        // with every id in range: exactly the sorted, deduplicated list
        // the constructor takes (and the binary-searching kernels rely
        // on). The offsets are monotone from 0 to `m`, so the rows
        // consume the `m` pairs exactly.
        let mut edges = Vec::with_capacity(m);
        for (src, window) in offsets.windows(2).enumerate() {
            let mut previous = None;
            for (sym, target) in pairs.by_ref().take((window[1] - window[0]) as usize) {
                if sym as usize >= sigma {
                    return Err(SnapshotError::OutOfRange {
                        what: "symbol index",
                        value: sym as u64,
                        limit: sigma as u64,
                    });
                }
                if target as usize >= n {
                    return Err(SnapshotError::OutOfRange {
                        what: "node id",
                        value: target as u64,
                        limit: n as u64,
                    });
                }
                if previous.is_some_and(|p| p >= (sym, target)) {
                    return Err(SnapshotError::Malformed(format!(
                        "row of node {src} not strictly sorted at ({sym}, {target})"
                    )));
                }
                previous = Some((sym, target));
                edges.push((src as NodeId, Symbol::from_index(sym as usize), target));
            }
        }
        Ok(GraphDb::from_sorted_edges(
            alphabet, node_names, name_index, edges,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::super::{figure3_g0, GraphBuilder};
    use super::*;

    fn roundtrip(graph: &GraphDb) -> (Vec<u8>, GraphDb) {
        let bytes = graph.snapshot_bytes();
        let decoded = GraphDb::from_snapshot_bytes(&bytes).expect("round-trip decode");
        (bytes, decoded)
    }

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
        let (bytes, decoded) = roundtrip(&empty);
        assert_eq!(decoded.num_nodes(), 0);
        assert_eq!(decoded.snapshot_bytes(), bytes);

        let mut builder = GraphBuilder::new();
        builder.add_node("lonely");
        let lonely = builder.build();
        let (_, decoded) = roundtrip(&lonely);
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
    fn strict_decode_rejects_out_of_range_ids_symbols_and_unsorted_rows() {
        let g0 = figure3_g0();
        let bytes = g0.snapshot_bytes();
        let n = g0.num_nodes();
        // Locate the row offsets: header (24) + alphabet + names; the
        // `(symbol, target)` pairs follow the |V| + 1 offsets.
        let mut offsets_at = 24;
        for (_, label) in g0.alphabet().entries() {
            offsets_at += 2 + label.len();
        }
        for node in g0.nodes() {
            offsets_at += 2 + g0.node_name(node).len();
        }
        let pairs_at = offsets_at + 4 * (n + 1);
        let u32_at =
            |bytes: &[u8], pos: usize| u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        // Decodes `bytes` with `patch` applied and the digest re-stamped,
        // so only the structural check under test can reject it.
        let decode_patched = |patch: &dyn Fn(&mut Vec<u8>)| {
            let mut bad = bytes.clone();
            patch(&mut bad);
            let end = bad.len() - 8;
            let digest = fnv1a(&bad[..end]);
            bad[end..].copy_from_slice(&digest.to_le_bytes());
            GraphDb::from_snapshot_bytes(&bad).map(|_| ())
        };
        let put = |bad: &mut Vec<u8>, pos: usize, value: u32| {
            bad[pos..pos + 4].copy_from_slice(&value.to_le_bytes())
        };
        assert!(
            decode_patched(&|_| ()).is_ok(),
            "the re-stamp itself is sound"
        );

        // An inflated header: |V| · |Σ| beyond the derived tables' bound
        // rejects up front — before the names it promises are missed,
        // and before the constructor could try to allocate the tables.
        assert!(matches!(
            decode_patched(&|bad| {
                put(bad, 8, 1 << 20);
                put(bad, 12, 1 << 20);
            }),
            Err(SnapshotError::OutOfRange {
                what: "label × node cells",
                ..
            })
        ));

        // A node count inside that bound but beyond what the buffer can
        // hold is a truncation, found before any count-sized allocation.
        assert!(matches!(
            decode_patched(&|bad| put(bad, 8, 1 << 26)),
            Err(SnapshotError::Truncated { .. })
        ));

        // v1's row is (a, v2), (b, v7): pairs 0 and 1.
        assert!(matches!(
            decode_patched(&|bad| put(bad, pairs_at + 4, n as u32 + 7)),
            Err(SnapshotError::OutOfRange {
                what: "node id",
                ..
            })
        ));
        assert!(matches!(
            decode_patched(&|bad| put(bad, pairs_at, 3)),
            Err(SnapshotError::OutOfRange {
                what: "symbol index",
                value: 3,
                limit: 3,
            })
        ));
        // Swapping the row's two pairs leaves every id in range but the
        // row out of `(symbol, target)` order.
        let unsorted = decode_patched(&|bad| {
            let (first, second) = (pairs_at..pairs_at + 8, pairs_at + 8..pairs_at + 16);
            let saved = bad[first.clone()].to_vec();
            bad.copy_within(second.clone(), first.start);
            bad[second].copy_from_slice(&saved);
        });
        assert!(matches!(unsorted, Err(SnapshotError::Malformed(why)) if why.contains("sorted")));
        // A duplicated edge: pair 1 overwritten by a copy of pair 0.
        let duplicated =
            decode_patched(&|bad| bad.copy_within(pairs_at..pairs_at + 8, pairs_at + 8));
        assert!(matches!(duplicated, Err(SnapshotError::Malformed(why)) if why.contains("sorted")));

        // Offsets that decrease (v2's row would start before v1's ends)…
        let decreasing = decode_patched(&|bad| {
            let second = u32_at(bad, offsets_at + 8);
            put(bad, offsets_at + 4, second + 1);
        });
        assert!(
            matches!(decreasing, Err(SnapshotError::Malformed(why)) if why.contains("decrease"))
        );
        // …that do not start at 0, and that do not end at |E|.
        let late_start = decode_patched(&|bad| put(bad, offsets_at, 1));
        assert!(matches!(late_start, Err(SnapshotError::Malformed(why)) if why.contains("start")));
        let short_end = decode_patched(&|bad| {
            let last = u32_at(bad, offsets_at + 4 * n);
            put(bad, offsets_at + 4 * n, last - 1);
        });
        assert!(
            matches!(short_end, Err(SnapshotError::Malformed(why)) if why.contains("edge count"))
        );
    }

    #[test]
    fn decoded_graph_answers_queries_identically() {
        use crate::eval::eval_monadic;
        let g0 = figure3_g0();
        let (_, decoded) = roundtrip(&g0);
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
