//! The framed binary wire protocol of the TCP front door.
//!
//! ## Frame layout
//!
//! Every message in both directions is one **frame**: a little-endian
//! `u32` payload length followed by that many payload bytes. The payload
//! begins with a fixed header —
//!
//! ```text
//! [u32 len] [u8 version] [u8 opcode] [u64 request_id] [body …]
//!  frame     must be 1    see below   echoed verbatim
//! ```
//!
//! — and the body depends on the opcode. All integers are little-endian;
//! strings are a `u16` length followed by UTF-8 bytes. The server caps
//! request frames at [`DEFAULT_MAX_FRAME_LEN`] and answers an oversized
//! length prefix with an [`ErrorCode::Oversize`] error frame before
//! closing — a length-prefixed stream cannot resynchronize after a
//! framing violation, so framing-level errors always close the
//! connection, while semantic errors (an unparseable regex, an unknown
//! fingerprint) only fail the request.
//!
//! ## Requests
//!
//! | opcode | name | body |
//! |---|---|---|
//! | `0x01` | `QUERY` | `u8 kind` (0 monadic, 1 binary) · `u32 source` (binary only) · `u32 deadline_ms` ([`NO_DEADLINE_MS`] = unbounded, 0 = already expired) · `u8 ref` (0 = regex text string, 1 = `u64` canonical fingerprint) · the query |
//! | `0x02` | `STATS` | empty |
//! | `0x03` | `PING` | empty |
//! | `0x04` | `DELTA` | `u32 n_add` · n × (`src` · `label` · `dst` strings) · `u32 n_remove` · m × (`src` · `label` · `dst` strings) — edges by **name**, resolved server-side against the served graph |
//!
//! Fingerprint references resolve against the queries this server has
//! already parsed (see [`crate::net`]'s registry): a client that submits
//! a query by text once may repeat it by fingerprint, skipping the parse
//! and canonicalization on both sides. (Repeating the very same text
//! skips them server-side too: the registry also memoises text →
//! canonical query.)
//!
//! ## Responses
//!
//! | opcode | name | body |
//! |---|---|---|
//! | `0x81` | `RESULT` | `u8 served` (0 hit, 1 coalesced, 2 evaluated; 3 and 4 are reserved and rejected) · `u64 fingerprint` · `u32 canonical_states` · `u64 eval_ns` · bitset (`u32 num_bits` · `u32 num_words` · words) |
//! | `0x82` | `SHED` | `u32 retry_after_ms` — every evaluation slot taken and the wait for one full |
//! | `0x83` | `DEADLINE` | empty — the deadline budget expired before a result |
//! | `0x84` | `DRAINING` | empty — server draining for shutdown; retry later |
//! | `0x85` | `ERROR` | `u8 code` ([`ErrorCode`]) · message string |
//! | `0x86` | `STATS` | `u32 n` · n × (`u8 name_len` · name · `u64 value`) |
//! | `0x87` | `PONG` | empty |
//! | `0x88` | `DELTA_APPLIED` | `u32 invalidated` · `u8 compacted` · `u32 delta_edges` — the delta landed; `invalidated` counts the cache entries its edges reached that were dropped (the others reached were patched) |
//!
//! The result bitset is encoded as its backing `u64` blocks, so a client
//! can compare answers **bit-identically** against direct evaluation —
//! the fault-injection suite's core assertion.
//!
//! ## Deadline semantics
//!
//! `deadline_ms` is a **budget relative to frame arrival**, converted to
//! an absolute deadline when the request is decoded and carried into the
//! wait for an evaluation slot and the per-BFS-level cancellation checks
//! ([`pathlearn_graph::cancel`]). Time spent waiting counts against the
//! budget; a request whose budget expires anywhere along the way gets a
//! `DEADLINE` frame, never a partial result. `NO_DEADLINE_MS` (the
//! `u32::MAX` sentinel) means unbounded; `0` is a valid, already-expired
//! budget (useful as a cancellation probe).
//!
//! ## Frame I/O
//!
//! One frame is one `write`: [`write_frame`] builds the length prefix
//! and the payload in one reusable buffer and hands it to the socket
//! whole — on a `TCP_NODELAY` stream a separately written prefix would
//! travel as its own segment and wake the peer for four bytes. Both
//! ends read through [`frame_reader`], so the prefix and a small
//! payload arrive in one `read`. Encoders append ([`Request::encode_into`],
//! [`Response::encode_into`], [`encode_result`] — which writes a
//! `RESULT` straight from a borrowed bitset, so a server never clones a
//! cached answer just to frame it); the bitset travels and is decoded
//! by whole `u64` words, with the same strictness as before (word count
//! must match the capacity, no bit may be set beyond it, and a count
//! the payload cannot hold is rejected before anything is allocated
//! for it).

use pathlearn_automata::BitSet;
use std::io::{self, BufReader, Read, Write};

/// The protocol version this build speaks. Version mismatches are
/// framing-level errors (the connection closes).
pub const PROTOCOL_VERSION: u8 = 1;

/// Cap on request frame payloads (64 KiB — a regex of tens of
/// thousands of characters fits; result frames are bounded by the graph,
/// not by this).
pub const DEFAULT_MAX_FRAME_LEN: u32 = 64 * 1024;

/// `deadline_ms` sentinel meaning "no deadline".
pub const NO_DEADLINE_MS: u32 = u32::MAX;

/// Fixed payload header: version, opcode, request id.
const HEADER_LEN: usize = 1 + 1 + 8;

const OP_QUERY: u8 = 0x01;
const OP_STATS: u8 = 0x02;
const OP_PING: u8 = 0x03;
const OP_DELTA: u8 = 0x04;
const OP_RESULT: u8 = 0x81;
const OP_SHED: u8 = 0x82;
const OP_DEADLINE: u8 = 0x83;
const OP_DRAINING: u8 = 0x84;
const OP_ERROR: u8 = 0x85;
const OP_STATS_REPLY: u8 = 0x86;
const OP_PONG: u8 = 0x87;
const OP_DELTA_APPLIED: u8 = 0x88;

/// Error codes carried by `ERROR` frames. Codes at or above
/// [`ErrorCode::Parse`] are request-level (the connection survives);
/// the ones below are framing-level (the server closes after sending).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Frame length prefix exceeded the server's cap.
    Oversize = 1,
    /// Unknown protocol version byte.
    BadVersion = 2,
    /// Unknown opcode (or a response opcode sent as a request).
    BadOpcode = 3,
    /// Body malformed: truncated fields, trailing bytes, bad tags.
    Malformed = 4,
    /// The query text failed to parse as a regex over the graph's
    /// alphabet, or describes an automaton over the server's state
    /// budget (request-level; the message carries the parser's
    /// diagnostic, or names the limit).
    Parse = 5,
    /// A fingerprint reference this server has never seen (request-level;
    /// resubmit by text).
    UnknownFingerprint = 6,
    /// The server refused the connection (e.g. at its connection cap).
    Busy = 7,
    /// A `DELTA` frame named a node or label the served graph does not
    /// have (request-level; the graph is unchanged — deltas are
    /// all-or-nothing).
    BadDelta = 8,
    /// The server failed internally while committing the request —
    /// e.g. the write-ahead log could not be appended or fsynced
    /// (request-level; the delta was **not** applied, so retrying after
    /// the operator frees disk space is safe).
    Internal = 9,
}

impl ErrorCode {
    fn from_u8(code: u8) -> Option<Self> {
        Some(match code {
            1 => ErrorCode::Oversize,
            2 => ErrorCode::BadVersion,
            3 => ErrorCode::BadOpcode,
            4 => ErrorCode::Malformed,
            5 => ErrorCode::Parse,
            6 => ErrorCode::UnknownFingerprint,
            7 => ErrorCode::Busy,
            8 => ErrorCode::BadDelta,
            9 => ErrorCode::Internal,
            _ => return None,
        })
    }
}

/// How the query names itself: by regex text or by a canonical
/// fingerprint the server already knows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryRef {
    /// A regex over the served graph's alphabet, parsed server-side.
    Text(String),
    /// A [`pathlearn_automata::CanonicalQuery::fingerprint`] previously
    /// established on this server by a text submission.
    Fingerprint(u64),
}

/// Monadic or binary-from-source evaluation semantics, as requested on
/// the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireKind {
    /// `q(G)` — the selected-node set.
    Monadic,
    /// Binary semantics from the given source node id.
    Binary(u32),
}

/// A decoded client→server frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Evaluate a query under a deadline budget.
    Query {
        /// Client-chosen id echoed on the response.
        request_id: u64,
        /// Monadic or binary semantics.
        kind: WireKind,
        /// Budget in milliseconds from frame arrival; [`NO_DEADLINE_MS`]
        /// = unbounded, `0` = already expired.
        deadline_ms: u32,
        /// The query, by text or fingerprint.
        query: QueryRef,
    },
    /// Fetch the server's counters as a `STATS` reply.
    Stats {
        /// Client-chosen id echoed on the response.
        request_id: u64,
    },
    /// Liveness probe; answered with `PONG`.
    Ping {
        /// Client-chosen id echoed on the response.
        request_id: u64,
    },
    /// Apply an edge-delta batch — `(G ∖ remove) ∪ add` — to the served
    /// graph, invalidating only the cache entries its edges reach.
    /// Edges travel by **name** (`src`, `label`, `dst` strings) and are
    /// resolved server-side; an unknown name fails the whole batch with
    /// [`ErrorCode::BadDelta`] and changes nothing.
    Delta {
        /// Client-chosen id echoed on the response.
        request_id: u64,
        /// Edges to insert (after removals).
        add: Vec<WireEdge>,
        /// Edges to take out first.
        remove: Vec<WireEdge>,
    },
}

/// One named edge in a `DELTA` frame: `(src, label, dst)` strings,
/// resolved against the served graph's node names and alphabet.
pub type WireEdge = (String, String, String);

/// How a `RESULT` frame's query was served (the wire projection of
/// [`crate::Served`]). Tags 3 and 4 are reserved: decoders reject them
/// like any unknown tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum WireServed {
    /// Result-cache hit.
    Hit = 0,
    /// Coalesced onto a concurrent in-flight evaluation.
    Coalesced = 1,
    /// Evaluated on the submitting thread.
    EvaluatedSequential = 2,
}

impl WireServed {
    fn from_u8(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => WireServed::Hit,
            1 => WireServed::Coalesced,
            2 => WireServed::EvaluatedSequential,
            _ => return None,
        })
    }
}

/// A decoded server→client frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// The evaluated (or cached/coalesced) answer.
    Result {
        /// Echo of the request id.
        request_id: u64,
        /// How the submission was served.
        served: WireServed,
        /// Canonical fingerprint — usable as a [`QueryRef::Fingerprint`]
        /// on later requests to this server.
        fingerprint: u64,
        /// States of the canonical DFA.
        canonical_states: u32,
        /// Measured evaluation wall time (0 for hits/coalesced).
        eval_ns: u64,
        /// The selected node set, bit-identical to direct evaluation.
        bits: BitSet,
    },
    /// Load shed: every evaluation slot is taken and the wait for one
    /// is full.
    Shed {
        /// Echo of the request id.
        request_id: u64,
        /// Suggested client backoff.
        retry_after_ms: u32,
    },
    /// The request's deadline budget expired before a result.
    Deadline {
        /// Echo of the request id.
        request_id: u64,
    },
    /// The server is draining for shutdown; retry shortly.
    Draining {
        /// Echo of the request id.
        request_id: u64,
    },
    /// A framing- or request-level error (see [`ErrorCode`]).
    Error {
        /// Echo of the request id (0 when no request could be decoded).
        request_id: u64,
        /// What went wrong.
        code: ErrorCode,
        /// Human-readable diagnostic.
        message: String,
    },
    /// Named counters snapshot.
    Stats {
        /// Echo of the request id.
        request_id: u64,
        /// `(name, value)` pairs — self-describing so clients survive
        /// counter additions.
        counters: Vec<(String, u64)>,
    },
    /// Liveness reply.
    Pong {
        /// Echo of the request id.
        request_id: u64,
    },
    /// A `DELTA` frame landed (the wire projection of
    /// [`crate::DeltaApplied`]).
    DeltaApplied {
        /// Echo of the request id.
        request_id: u64,
        /// Cache entries the delta's edges reached and that were dropped,
        /// not patched.
        invalidated: u32,
        /// Whether the overlay was folded into a fresh CSR.
        compacted: bool,
        /// Overlay edges still pending after this batch.
        delta_edges: u32,
    },
}

/// Why a payload failed to decode. The variants map onto the
/// [`ErrorCode`]s the server reports before closing the connection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// A field ran past the end of the payload.
    Truncated,
    /// Unknown protocol version (the offending byte).
    BadVersion(u8),
    /// Unknown opcode (the offending byte).
    BadOpcode(u8),
    /// Structurally invalid body.
    Malformed(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => f.write_str("truncated payload"),
            DecodeError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            DecodeError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            DecodeError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl DecodeError {
    /// The [`ErrorCode`] the server reports for this decode failure.
    pub fn code(&self) -> ErrorCode {
        match self {
            DecodeError::Truncated | DecodeError::Malformed(_) => ErrorCode::Malformed,
            DecodeError::BadVersion(_) => ErrorCode::BadVersion,
            DecodeError::BadOpcode(_) => ErrorCode::BadOpcode,
        }
    }
}

/// Why reading one frame off a stream failed.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed cleanly at a frame boundary.
    Closed,
    /// The length prefix exceeded the cap (carries the claimed length).
    Oversize(u32),
    /// I/O failure — includes timeouts and mid-frame disconnects.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => f.write_str("connection closed"),
            FrameError::Oversize(len) => write!(f, "frame length {len} exceeds cap"),
            FrameError::Io(err) => write!(f, "frame i/o error: {err}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Bytes of the little-endian `u32` length prefix.
const PREFIX_LEN: usize = 4;

/// Capacity of [`frame_reader`]'s buffer: the server's default request
/// cap, and several typical `RESULT` frames on the client side.
const READ_BUF_LEN: usize = 64 * 1024;

/// The buffered reader a connection reads its frames through, on both
/// ends: [`read_frame`] asks for the first byte, the rest of the
/// prefix and the payload separately, and through this reader a frame
/// that is already in the socket costs one `read`, not three.
pub fn frame_reader<R: Read>(stream: R) -> BufReader<R> {
    BufReader::with_capacity(READ_BUF_LEN, stream)
}

/// Reads one length-prefixed frame, enforcing `max_len` on the payload.
/// Distinguishes a clean close at a frame boundary ([`FrameError::Closed`])
/// from a mid-frame truncation (an [`io::ErrorKind::UnexpectedEof`] I/O
/// error), so the server can count malformed peers separately from
/// well-behaved departures. Hand it a [`frame_reader`], not a bare
/// socket.
pub fn read_frame<R: Read>(reader: &mut R, max_len: u32) -> Result<Vec<u8>, FrameError> {
    let mut prefix = [0u8; PREFIX_LEN];
    // First byte by hand: 0 bytes here is a clean close, not truncation.
    let mut first = [0u8; 1];
    match reader.read(&mut first) {
        Ok(0) => return Err(FrameError::Closed),
        Ok(_) => prefix[0] = first[0],
        Err(err) => return Err(FrameError::Io(err)),
    }
    reader
        .read_exact(&mut prefix[1..])
        .map_err(FrameError::Io)?;
    let len = u32::from_le_bytes(prefix);
    if len > max_len {
        return Err(FrameError::Oversize(len));
    }
    let mut payload = vec![0u8; len as usize];
    reader.read_exact(&mut payload).map_err(FrameError::Io)?;
    Ok(payload)
}

/// Writes one length-prefixed frame with a **single** `write_all`, then
/// flushes. The frame is built in `frame` (cleared first; keep one per
/// connection so its allocation is reused): the prefix is reserved,
/// `encode` appends the payload, the prefix is patched to the payload's
/// length, and the whole buffer goes out at once.
pub fn write_frame<W: Write>(
    writer: &mut W,
    frame: &mut Vec<u8>,
    encode: impl FnOnce(&mut Vec<u8>),
) -> io::Result<()> {
    frame.clear();
    frame.extend_from_slice(&[0u8; PREFIX_LEN]);
    encode(frame);
    let len = u32::try_from(frame.len() - PREFIX_LEN)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    frame[..PREFIX_LEN].copy_from_slice(&len.to_le_bytes());
    writer.write_all(frame)?;
    writer.flush()
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
        if end > self.buf.len() {
            return Err(DecodeError::Truncated);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        let len = self.u16()? as usize;
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::Malformed("non-utf8 string"))
    }

    fn finish(&self) -> Result<(), DecodeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DecodeError::Malformed("trailing bytes"))
        }
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    let len = s.len().min(u16::MAX as usize);
    out.extend_from_slice(&(len as u16).to_le_bytes());
    out.extend_from_slice(&s.as_bytes()[..len]);
}

fn header(out: &mut Vec<u8>, opcode: u8, request_id: u64) {
    out.push(PROTOCOL_VERSION);
    out.push(opcode);
    out.extend_from_slice(&request_id.to_le_bytes());
}

fn decode_header(reader: &mut Reader<'_>) -> Result<(u8, u64), DecodeError> {
    let version = reader.u8()?;
    if version != PROTOCOL_VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let opcode = reader.u8()?;
    let request_id = reader.u64()?;
    Ok((opcode, request_id))
}

/// `RESULT` body bytes before the bitset words: served tag,
/// fingerprint, canonical states, eval time, `num_bits`, `num_words`.
const RESULT_FIXED_LEN: usize = 1 + 8 + 4 + 8 + 4 + 4;

/// Appends one `RESULT` payload to `out` — the encoder behind
/// [`Response::Result`], taking the answer **by reference** so a server
/// frames a cached `Arc<BitSet>` without cloning it into a
/// [`Response`] first. Reserves the exact encoded size up front.
pub fn encode_result(
    out: &mut Vec<u8>,
    request_id: u64,
    served: WireServed,
    fingerprint: u64,
    canonical_states: u32,
    eval_ns: u64,
    bits: &BitSet,
) {
    let blocks = bits.as_blocks();
    out.reserve(HEADER_LEN + RESULT_FIXED_LEN + std::mem::size_of_val(blocks));
    header(out, OP_RESULT, request_id);
    out.push(served as u8);
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&canonical_states.to_le_bytes());
    out.extend_from_slice(&eval_ns.to_le_bytes());
    out.extend_from_slice(&(bits.capacity() as u32).to_le_bytes());
    out.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
    for block in blocks {
        out.extend_from_slice(&block.to_le_bytes());
    }
}

/// Decodes a bitset by whole words. Checks run before the allocation
/// they protect: the word count must be the one `num_bits` implies,
/// the words must really be in the payload, and the last word must
/// have no bit at or beyond `num_bits` (the tail-masking invariant
/// every kernel relies on) — only then are the blocks copied out.
fn read_bitset(reader: &mut Reader<'_>) -> Result<BitSet, DecodeError> {
    let num_bits = reader.u32()? as usize;
    let num_words = reader.u32()? as usize;
    if num_words != num_bits.div_ceil(BitSet::BLOCK_BITS) {
        return Err(DecodeError::Malformed("bitset word count"));
    }
    let raw = reader.bytes(num_words.checked_mul(8).ok_or(DecodeError::Truncated)?)?;
    let word = |bytes: &[u8]| u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"));
    let used = num_bits % BitSet::BLOCK_BITS;
    if used != 0 && raw.rchunks_exact(8).next().map_or(0, word) >> used != 0 {
        return Err(DecodeError::Malformed("bit beyond capacity"));
    }
    let blocks: Vec<u64> = raw.chunks_exact(8).map(word).collect();
    BitSet::from_blocks(num_bits, &blocks).ok_or(DecodeError::Malformed("bit beyond capacity"))
}

impl Request {
    /// Encodes this request as one frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + 16);
        self.encode_into(&mut out);
        out
    }

    /// Appends this request's frame payload to `out` (the
    /// [`write_frame`] callback form of [`Request::encode`]).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Request::Query {
                request_id,
                kind,
                deadline_ms,
                query,
            } => {
                header(out, OP_QUERY, *request_id);
                match kind {
                    WireKind::Monadic => out.push(0),
                    WireKind::Binary(source) => {
                        out.push(1);
                        out.extend_from_slice(&source.to_le_bytes());
                    }
                }
                out.extend_from_slice(&deadline_ms.to_le_bytes());
                match query {
                    QueryRef::Text(text) => {
                        out.push(0);
                        put_string(out, text);
                    }
                    QueryRef::Fingerprint(fp) => {
                        out.push(1);
                        out.extend_from_slice(&fp.to_le_bytes());
                    }
                }
            }
            Request::Stats { request_id } => header(out, OP_STATS, *request_id),
            Request::Ping { request_id } => header(out, OP_PING, *request_id),
            Request::Delta {
                request_id,
                add,
                remove,
            } => {
                header(out, OP_DELTA, *request_id);
                for list in [add, remove] {
                    out.extend_from_slice(&(list.len() as u32).to_le_bytes());
                    for (src, label, dst) in list {
                        put_string(out, src);
                        put_string(out, label);
                        put_string(out, dst);
                    }
                }
            }
        }
    }

    /// Decodes one request payload (strict: trailing bytes are malformed).
    pub fn decode(payload: &[u8]) -> Result<Request, DecodeError> {
        let mut reader = Reader::new(payload);
        let (opcode, request_id) = decode_header(&mut reader)?;
        let request = match opcode {
            OP_QUERY => {
                let kind = match reader.u8()? {
                    0 => WireKind::Monadic,
                    1 => WireKind::Binary(reader.u32()?),
                    _ => return Err(DecodeError::Malformed("query kind tag")),
                };
                let deadline_ms = reader.u32()?;
                let query = match reader.u8()? {
                    0 => QueryRef::Text(reader.string()?),
                    1 => QueryRef::Fingerprint(reader.u64()?),
                    _ => return Err(DecodeError::Malformed("query ref tag")),
                };
                Request::Query {
                    request_id,
                    kind,
                    deadline_ms,
                    query,
                }
            }
            OP_STATS => Request::Stats { request_id },
            OP_PING => Request::Ping { request_id },
            OP_DELTA => {
                let mut lists = [Vec::new(), Vec::new()];
                for list in &mut lists {
                    let n = reader.u32()? as usize;
                    // Each edge costs ≥ 6 payload bytes (three empty
                    // strings); a count claiming more edges than the
                    // payload could hold is malformed, not a giant
                    // allocation.
                    if n > payload.len() / 6 {
                        return Err(DecodeError::Malformed("delta edge count"));
                    }
                    list.reserve(n);
                    for _ in 0..n {
                        let src = reader.string()?;
                        let label = reader.string()?;
                        let dst = reader.string()?;
                        list.push((src, label, dst));
                    }
                }
                let [add, remove] = lists;
                Request::Delta {
                    request_id,
                    add,
                    remove,
                }
            }
            other => return Err(DecodeError::BadOpcode(other)),
        };
        reader.finish()?;
        Ok(request)
    }
}

impl Response {
    /// Encodes this response as one frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = match self {
            // Sized exactly, once, by `encode_result`.
            Response::Result { .. } => Vec::new(),
            _ => Vec::with_capacity(HEADER_LEN + 32),
        };
        self.encode_into(&mut out);
        out
    }

    /// Appends this response's frame payload to `out` (the
    /// [`write_frame`] callback form of [`Response::encode`]).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Response::Result {
                request_id,
                served,
                fingerprint,
                canonical_states,
                eval_ns,
                bits,
            } => encode_result(
                out,
                *request_id,
                *served,
                *fingerprint,
                *canonical_states,
                *eval_ns,
                bits,
            ),
            Response::Shed {
                request_id,
                retry_after_ms,
            } => {
                header(out, OP_SHED, *request_id);
                out.extend_from_slice(&retry_after_ms.to_le_bytes());
            }
            Response::Deadline { request_id } => header(out, OP_DEADLINE, *request_id),
            Response::Draining { request_id } => header(out, OP_DRAINING, *request_id),
            Response::Error {
                request_id,
                code,
                message,
            } => {
                header(out, OP_ERROR, *request_id);
                out.push(*code as u8);
                put_string(out, message);
            }
            Response::Stats {
                request_id,
                counters,
            } => {
                header(out, OP_STATS_REPLY, *request_id);
                out.extend_from_slice(&(counters.len() as u32).to_le_bytes());
                for (name, value) in counters {
                    let len = name.len().min(u8::MAX as usize);
                    out.push(len as u8);
                    out.extend_from_slice(&name.as_bytes()[..len]);
                    out.extend_from_slice(&value.to_le_bytes());
                }
            }
            Response::Pong { request_id } => header(out, OP_PONG, *request_id),
            Response::DeltaApplied {
                request_id,
                invalidated,
                compacted,
                delta_edges,
            } => {
                header(out, OP_DELTA_APPLIED, *request_id);
                out.extend_from_slice(&invalidated.to_le_bytes());
                out.push(u8::from(*compacted));
                out.extend_from_slice(&delta_edges.to_le_bytes());
            }
        }
    }

    /// Decodes one response payload (strict: trailing bytes are
    /// malformed).
    pub fn decode(payload: &[u8]) -> Result<Response, DecodeError> {
        let mut reader = Reader::new(payload);
        let (opcode, request_id) = decode_header(&mut reader)?;
        let response = match opcode {
            OP_RESULT => {
                let served = WireServed::from_u8(reader.u8()?)
                    .ok_or(DecodeError::Malformed("served tag"))?;
                let fingerprint = reader.u64()?;
                let canonical_states = reader.u32()?;
                let eval_ns = reader.u64()?;
                let bits = read_bitset(&mut reader)?;
                Response::Result {
                    request_id,
                    served,
                    fingerprint,
                    canonical_states,
                    eval_ns,
                    bits,
                }
            }
            OP_SHED => Response::Shed {
                request_id,
                retry_after_ms: reader.u32()?,
            },
            OP_DEADLINE => Response::Deadline { request_id },
            OP_DRAINING => Response::Draining { request_id },
            OP_ERROR => {
                let code =
                    ErrorCode::from_u8(reader.u8()?).ok_or(DecodeError::Malformed("error code"))?;
                let message = reader.string()?;
                Response::Error {
                    request_id,
                    code,
                    message,
                }
            }
            OP_STATS_REPLY => {
                let n = reader.u32()? as usize;
                let mut counters = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let len = reader.u8()? as usize;
                    let name = String::from_utf8(reader.bytes(len)?.to_vec())
                        .map_err(|_| DecodeError::Malformed("non-utf8 counter name"))?;
                    counters.push((name, reader.u64()?));
                }
                Response::Stats {
                    request_id,
                    counters,
                }
            }
            OP_PONG => Response::Pong { request_id },
            OP_DELTA_APPLIED => {
                let invalidated = reader.u32()?;
                let compacted = match reader.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(DecodeError::Malformed("compacted flag")),
                };
                let delta_edges = reader.u32()?;
                Response::DeltaApplied {
                    request_id,
                    invalidated,
                    compacted,
                    delta_edges,
                }
            }
            other => return Err(DecodeError::BadOpcode(other)),
        };
        reader.finish()?;
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(request: Request) {
        let payload = request.encode();
        assert_eq!(Request::decode(&payload), Ok(request));
    }

    fn roundtrip_response(response: Response) {
        let payload = response.encode();
        assert_eq!(Response::decode(&payload), Ok(response));
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Query {
            request_id: 7,
            kind: WireKind::Monadic,
            deadline_ms: NO_DEADLINE_MS,
            query: QueryRef::Text("(a·b)*·c".to_owned()),
        });
        roundtrip_request(Request::Query {
            request_id: u64::MAX,
            kind: WireKind::Binary(42),
            deadline_ms: 0,
            query: QueryRef::Fingerprint(0xdead_beef),
        });
        roundtrip_request(Request::Stats { request_id: 1 });
        roundtrip_request(Request::Ping { request_id: 2 });
        roundtrip_request(Request::Delta {
            request_id: 3,
            add: vec![("v1".into(), "a".into(), "v2".into())],
            remove: vec![
                ("v2".into(), "b".into(), "v3".into()),
                ("v3".into(), "c".into(), "v1".into()),
            ],
        });
        roundtrip_request(Request::Delta {
            request_id: 4,
            add: vec![],
            remove: vec![],
        });
    }

    #[test]
    fn delta_decoding_rejects_truncation_and_bogus_counts() {
        let full = Request::Delta {
            request_id: 5,
            add: vec![("v1".into(), "a".into(), "v2".into())],
            remove: vec![("v2".into(), "a".into(), "v1".into())],
        }
        .encode();
        for cut in HEADER_LEN..full.len() {
            assert_eq!(
                Request::decode(&full[..cut]),
                Err(DecodeError::Truncated),
                "cut at {cut}"
            );
        }
        // An edge count the payload cannot possibly hold is rejected
        // before any allocation, not trusted.
        let mut bogus = Vec::new();
        header(&mut bogus, OP_DELTA, 1);
        bogus.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            Request::decode(&bogus),
            Err(DecodeError::Malformed("delta edge count"))
        );
    }

    #[test]
    fn responses_roundtrip() {
        let mut bits = BitSet::new(130);
        bits.insert(0);
        bits.insert(64);
        bits.insert(129);
        roundtrip_response(Response::Result {
            request_id: 9,
            served: WireServed::EvaluatedSequential,
            fingerprint: 123,
            canonical_states: 4,
            eval_ns: 55_000,
            bits,
        });
        roundtrip_response(Response::Result {
            request_id: 10,
            served: WireServed::Hit,
            fingerprint: 1,
            canonical_states: 1,
            eval_ns: 0,
            bits: BitSet::new(0),
        });
        roundtrip_response(Response::Shed {
            request_id: 3,
            retry_after_ms: 250,
        });
        roundtrip_response(Response::Deadline { request_id: 4 });
        roundtrip_response(Response::Draining { request_id: 5 });
        roundtrip_response(Response::Error {
            request_id: 6,
            code: ErrorCode::Parse,
            message: "unbalanced parenthesis".to_owned(),
        });
        roundtrip_response(Response::Stats {
            request_id: 7,
            counters: vec![("net.shed".to_owned(), 3), ("serve.hits".to_owned(), 99)],
        });
        roundtrip_response(Response::Pong { request_id: 8 });
        roundtrip_response(Response::DeltaApplied {
            request_id: 11,
            invalidated: 3,
            compacted: true,
            delta_edges: 0,
        });
        roundtrip_response(Response::Error {
            request_id: 12,
            code: ErrorCode::BadDelta,
            message: "unknown node \"v99\"".to_owned(),
        });
    }

    #[test]
    fn decode_rejects_bad_version_opcode_and_trailing_bytes() {
        let mut payload = Request::Ping { request_id: 1 }.encode();
        payload[0] = 99;
        assert_eq!(Request::decode(&payload), Err(DecodeError::BadVersion(99)));
        assert_eq!(DecodeError::BadVersion(99).code(), ErrorCode::BadVersion);

        let mut payload = Request::Ping { request_id: 1 }.encode();
        payload[1] = 0x7f;
        assert_eq!(Request::decode(&payload), Err(DecodeError::BadOpcode(0x7f)));

        let mut payload = Request::Ping { request_id: 1 }.encode();
        payload.push(0);
        assert_eq!(
            Request::decode(&payload),
            Err(DecodeError::Malformed("trailing bytes"))
        );
        assert_eq!(
            DecodeError::Malformed("trailing bytes").code(),
            ErrorCode::Malformed
        );

        // Truncations anywhere in the header or body.
        let full = Request::Query {
            request_id: 3,
            kind: WireKind::Binary(1),
            deadline_ms: 10,
            query: QueryRef::Text("abc".to_owned()),
        }
        .encode();
        for cut in 0..full.len() {
            assert_eq!(
                Request::decode(&full[..cut]),
                Err(DecodeError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn decode_rejects_inconsistent_bitsets() {
        let bits = BitSet::from_indices(100, [5usize, 80]);
        let good = Response::Result {
            request_id: 1,
            served: WireServed::Hit,
            fingerprint: 0,
            canonical_states: 1,
            eval_ns: 0,
            bits,
        }
        .encode();
        // Corrupt the word count (num_words field sits after the fixed
        // result header + num_bits).
        let words_at = HEADER_LEN + 1 + 8 + 4 + 8 + 4;
        let mut bad = good.clone();
        bad[words_at] = 7;
        assert_eq!(
            Response::decode(&bad),
            Err(DecodeError::Malformed("bitset word count"))
        );
        // Served tags 3 (once the intra-query evaluation mode) and 4 (no
        // server ever sent it) are reserved: they reject like any unknown
        // tag.
        for tag in [3, 4, u8::MAX] {
            let mut bad = good.clone();
            bad[HEADER_LEN] = tag;
            assert_eq!(
                Response::decode(&bad),
                Err(DecodeError::Malformed("served tag"))
            );
        }
        // A set bit beyond the declared capacity is malformed, not
        // silently dropped.
        let mut bad = good;
        let last_word = bad.len() - 8;
        bad[last_word..].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            Response::decode(&bad),
            Err(DecodeError::Malformed("bit beyond capacity"))
        );
    }

    #[test]
    fn frame_io_roundtrips_and_enforces_the_cap() {
        let mut frame = Vec::new();
        let mut write_frame = |writer: &mut Vec<u8>, payload: &[u8]| {
            write_frame(writer, &mut frame, |out| out.extend_from_slice(payload))
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor, 64).unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor, 64).unwrap(), b"");
        assert!(matches!(
            read_frame(&mut cursor, 64),
            Err(FrameError::Closed)
        ));

        // Oversize length prefix.
        let mut oversize = Vec::new();
        write_frame(&mut oversize, &[0u8; 100]).unwrap();
        let mut cursor = io::Cursor::new(oversize);
        assert!(matches!(
            read_frame(&mut cursor, 64),
            Err(FrameError::Oversize(100))
        ));

        // A truncated frame is an I/O error, not a clean close.
        let mut truncated = Vec::new();
        write_frame(&mut truncated, b"hello").unwrap();
        truncated.truncate(6);
        let mut cursor = io::Cursor::new(truncated);
        assert!(matches!(
            read_frame(&mut cursor, 64),
            Err(FrameError::Io(_))
        ));
    }
    /// Byte offset of the bitset's `num_bits` field in a `RESULT`
    /// payload (`num_words` follows it, then the words).
    const BITS_AT: usize = HEADER_LEN + RESULT_FIXED_LEN - 8;

    /// A `capacity`-bit set holding `indices`.
    fn bits_of(capacity: usize, indices: impl IntoIterator<Item = usize>) -> BitSet {
        let mut bits = BitSet::new(capacity);
        for index in indices {
            bits.insert(index);
        }
        bits
    }

    fn result_with(bits: BitSet) -> Response {
        Response::Result {
            request_id: 1,
            served: WireServed::Hit,
            fingerprint: 0,
            canonical_states: 1,
            eval_ns: 0,
            bits,
        }
    }

    /// The wire format is what lets an old client talk to a new server
    /// and the reverse: these frames — length prefix included — are
    /// literals recorded at the commit before the word-wise codec and
    /// the one-write framing landed.
    #[test]
    fn golden_frames_are_unchanged() {
        let frame_of = |encode: &dyn Fn(&mut Vec<u8>)| {
            let mut wire = Vec::new();
            write_frame(&mut wire, &mut Vec::new(), encode).unwrap();
            wire
        };
        let text = Request::Query {
            request_id: 7,
            kind: WireKind::Monadic,
            deadline_ms: NO_DEADLINE_MS,
            query: QueryRef::Text("(a·b)*·c".to_owned()),
        };
        let text_golden = [
            28, 0, 0, 0, 1, 1, 7, 0, 0, 0, 0, 0, 0, 0, 0, 255, 255, 255, 255, 0, 10, 0, 40, 97,
            194, 183, 98, 41, 42, 194, 183, 99,
        ];
        assert_eq!(frame_of(&|out| text.encode_into(out)), text_golden);
        assert_eq!(Request::decode(&text_golden[4..]), Ok(text));

        let by_fingerprint = Request::Query {
            request_id: 8,
            kind: WireKind::Binary(42),
            deadline_ms: 250,
            query: QueryRef::Fingerprint(0x0123_4567_89ab_cdef),
        };
        let fingerprint_golden = [
            28, 0, 0, 0, 1, 1, 8, 0, 0, 0, 0, 0, 0, 0, 1, 42, 0, 0, 0, 250, 0, 0, 0, 1, 239, 205,
            171, 137, 103, 69, 35, 1,
        ];
        assert_eq!(
            frame_of(&|out| by_fingerprint.encode_into(out)),
            fingerprint_golden
        );
        assert_eq!(
            Request::decode(&fingerprint_golden[4..]),
            Ok(by_fingerprint)
        );

        let result = Response::Result {
            request_id: 9,
            served: WireServed::EvaluatedSequential,
            fingerprint: 0xfeed_face_cafe_beef,
            canonical_states: 3,
            eval_ns: 55_000,
            bits: bits_of(130, [0, 64, 129]),
        };
        let result_golden = [
            63, 0, 0, 0, 1, 129, 9, 0, 0, 0, 0, 0, 0, 0, 2, 239, 190, 254, 202, 206, 250, 237, 254,
            3, 0, 0, 0, 216, 214, 0, 0, 0, 0, 0, 0, 130, 0, 0, 0, 3, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0,
            0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0,
        ];
        assert_eq!(frame_of(&|out| result.encode_into(out)), result_golden);
        assert_eq!(result.encode(), result_golden[4..]);
        assert_eq!(Response::decode(&result_golden[4..]), Ok(result));
    }

    #[test]
    fn bitset_claims_are_checked_before_they_size_anything() {
        let good = result_with(bits_of(100, [5, 80])).encode();
        assert!(Response::decode(&good).is_ok());
        let patched = |at: usize, value: u32| {
            let mut bad = good.clone();
            bad[at..at + 4].copy_from_slice(&value.to_le_bytes());
            bad
        };

        // One bit beyond `num_bits` in the last word — the lowest
        // offender, not just an all-ones word.
        let mut bad = good.clone();
        let last_word = bad.len() - 8;
        bad[last_word..].copy_from_slice(&(1u64 << (100 - 64)).to_le_bytes());
        assert_eq!(
            Response::decode(&bad),
            Err(DecodeError::Malformed("bit beyond capacity"))
        );
        // The highest in-range bit is fine.
        bad[last_word..].copy_from_slice(&(1u64 << (99 - 64)).to_le_bytes());
        assert!(Response::decode(&bad).is_ok());

        // `num_words` disagreeing with `num_bits`, either way round.
        for (at, value) in [
            (BITS_AT + 4, 1),
            (BITS_AT + 4, 3),
            (BITS_AT, 64),
            (BITS_AT, 129),
        ] {
            assert_eq!(
                Response::decode(&patched(at, value)),
                Err(DecodeError::Malformed("bitset word count")),
                "field at {at} := {value}"
            );
        }

        // A consistent claim the payload cannot hold: 2²⁶ words (half a
        // gigabyte, were it trusted) backed by two. Rejected from the
        // bytes that are there, before anything is allocated for it.
        let mut huge = patched(BITS_AT, u32::MAX);
        huge[BITS_AT + 4..BITS_AT + 8].copy_from_slice(&(1u32 << 26).to_le_bytes());
        assert_eq!(Response::decode(&huge), Err(DecodeError::Truncated));
    }

    #[test]
    fn every_truncation_of_a_result_is_rejected() {
        let full = result_with(bits_of(130, [0, 64, 129])).encode();
        for cut in 0..full.len() {
            assert_eq!(
                Response::decode(&full[..cut]),
                Err(DecodeError::Truncated),
                "cut at {cut}"
            );
        }
        let mut trailing = full;
        trailing.push(0);
        assert_eq!(
            Response::decode(&trailing),
            Err(DecodeError::Malformed("trailing bytes"))
        );
    }

    /// An in-memory stream that counts the `read`s and `write`s it
    /// serves — what a socket would see as syscalls.
    #[derive(Default)]
    struct CountingStream {
        bytes: io::Cursor<Vec<u8>>,
        reads: usize,
        writes: usize,
    }

    impl Read for CountingStream {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            self.bytes.read(buf)
        }
    }

    impl Write for CountingStream {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.get_mut().write(buf)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write_and_one_read() {
        let request = Request::Query {
            request_id: 1,
            kind: WireKind::Monadic,
            deadline_ms: NO_DEADLINE_MS,
            query: QueryRef::Text("(a+b)*·c".to_owned()),
        };
        let result = result_with(BitSet::full(100_000));
        let mut frame = Vec::new();

        let mut stream = CountingStream::default();
        write_frame(&mut stream, &mut frame, |out| request.encode_into(out)).unwrap();
        assert_eq!(stream.writes, 1, "prefix and payload leave together");
        // Through the connection's reader, the three requests
        // `read_frame` makes (first byte, rest of the prefix, payload)
        // cost one `read` of the stream behind it.
        let mut reader = frame_reader(stream);
        let payload = read_frame(&mut reader, 1 << 20).unwrap();
        assert_eq!(Request::decode(&payload), Ok(request));
        assert_eq!(reader.get_ref().reads, 1);

        let mut stream = CountingStream::default();
        write_frame(&mut stream, &mut frame, |out| result.encode_into(out)).unwrap();
        assert_eq!(stream.writes, 1, "a 12.5 KB RESULT is still one write");
        let mut reader = frame_reader(stream);
        let payload = read_frame(&mut reader, 1 << 20).unwrap();
        assert_eq!(Response::decode(&payload), Ok(result));
        assert_eq!(reader.get_ref().reads, 1);
    }

    mod roundtrip {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// `RESULT` round-trips bit-identically at the capacities
            /// where word-wise decoding can go wrong: empty, sub-word,
            /// one short of / exactly / one past a word, and a
            /// graph-sized set.
            #[test]
            fn result_roundtrips_at_word_boundaries(
                capacity in prop_oneof![
                    Just(0usize), Just(1usize), Just(63usize), Just(64usize), Just(65usize),
                    Just(100_000usize)
                ],
                picks in proptest::collection::vec(any::<u64>(), 0..200),
                full in any::<bool>(),
            ) {
                let bits = if full {
                    BitSet::full(capacity)
                } else {
                    // (An empty capacity has no index to pick.)
                    bits_of(
                        capacity,
                        picks
                            .iter()
                            .filter(|_| capacity > 0)
                            .map(|pick| (*pick % capacity.max(1) as u64) as usize),
                    )
                };
                let response = result_with(bits.clone());
                let payload = response.encode();
                prop_assert_eq!(
                    payload.len(),
                    HEADER_LEN + RESULT_FIXED_LEN + 8 * capacity.div_ceil(64)
                );
                prop_assert_eq!(payload.capacity(), payload.len(), "exact reserve");
                match Response::decode(&payload) {
                    Ok(Response::Result { bits: decoded, .. }) => {
                        prop_assert_eq!(decoded.as_blocks(), bits.as_blocks());
                        prop_assert_eq!(decoded.capacity(), capacity);
                    }
                    other => prop_assert!(false, "decoded {:?}", other),
                }
            }
        }
    }
}
