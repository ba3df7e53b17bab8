//! The hardened TCP front door over [`QueryService`].
//!
//! Stdlib TCP only — no async runtime. The shape is deliberately
//! boring: an **acceptor** thread polls a non-blocking listener, each
//! accepted socket gets a **connection** thread that speaks the framed
//! protocol of [`crate::proto`], and a decoded query runs on that
//! thread. A query whose answer is **resident** in the result cache is
//! answered right away ([`QueryService::try_hit`]) — a hit is a table
//! lookup and one copy of the answer. Everything else first takes one
//! of [`NetConfig::eval_workers`] **evaluation slots** from a counting
//! gate, then calls [`QueryService::submit`] itself. The slot holds no
//! buffers: an admitted evaluation borrows its scratch from the
//! service's pool, which therefore keeps at most `eval_workers` of them
//! for TCP traffic. The robustness properties live in the seams:
//!
//! * **Slow-loris defense** — per-connection read and write timeouts
//!   ([`NetConfig::read_timeout`] and a fixed 10 s write timeout): a
//!   peer that dribbles bytes or refuses to read its replies loses the
//!   connection, never a server thread.
//! * **Load shedding** — with every slot taken, a query waits behind at
//!   most [`NetConfig::queue_depth`] others; past that it gets an
//!   immediate `SHED` frame with a retry hint instead of an unbounded
//!   wait. Shedding applies to work that needs a slot: a resident key
//!   is still answered `Hit` with the gate full, because refusing it
//!   would protect nothing.
//! * **Deadlines** — `deadline_ms` becomes an absolute
//!   [`CancelToken`] deadline at frame arrival, so time spent waiting
//!   for a slot counts; a waiter whose deadline passes answers
//!   `DEADLINE` then, without taking a slot. The service checks the
//!   deadline before admission and once per BFS level, and an expired
//!   budget yields a `DEADLINE` frame, never a partial result. A budget
//!   that is already spent on arrival skips the fast path, so the
//!   zero-deadline probe answers `DEADLINE` for resident and cold keys
//!   alike.
//! * **Graceful drain** — [`Server::shutdown`] closes the gate (fast
//!   path included), trips the drain flag (cancelling waiting and
//!   running evaluations at their next level check), and waits until
//!   every slot is freed and every waiter has left. Drained queries
//!   answer `DRAINING`, which clients treat as retryable.
//! * **Exactly-one-reply** — every decoded query is answered by the
//!   thread that read it, and a slot is freed by a guard's drop, also
//!   when the evaluation unwinds.
//!
//! ## What the front door remembers
//!
//! One table behind one mutex (`QueryTable`) holds both things a
//! connection thread can know about a query without recomputing it:
//! the **fingerprint registry** (fingerprint → canonical query,
//! established by text submissions, so a client may repeat a query by
//! its 8-byte name) and the **text memo** (the exact request bytes →
//! the same shared canonical query). The paper identifies a query with
//! the canonical DFA of its language, and an interactive session
//! re-asks the same handful of texts between labels: parse →
//! determinize → minimize is paid once per *text*, not once per frame.
//! Only texts that parsed within the state budget
//! ([`MAX_QUERY_DFA_STATES`]) are kept; entries are bounded by a
//! constant cap (65,536) and the key bytes by another, cleared
//! wholesale on overflow.
//!
//! ## Writes
//!
//! A canonical DFA numbers its columns by the served graph's alphabet,
//! and a bound server never changes it: [`QueryService::rebuild_graph`]
//! needs the service by `&mut`, which the server never lends out. A new
//! graph is a new server. `DELTA` frames are the one write path: they
//! are handled inline on the connection thread through
//! [`QueryService::apply_delta`] — no slot, no shed — because a delta
//! patches or drops only the cache entries its edges reach and, under
//! the service's state lock, waits for the evaluations already running,
//! so none publishes a pre-delta answer after it. Misses that would
//! start an evaluation meanwhile wait for the write while holding their
//! slots, each under its own deadline; hits never wait. The table is
//! **retained**
//! across deltas: the node set and the alphabet are frozen under the
//! delta contract, so every established fingerprint and every memoised
//! text still names the same canonical query.

use crate::cache::CacheKey;
use crate::proto::{
    encode_result, frame_reader, read_frame, write_frame, ErrorCode, FrameError, QueryRef, Request,
    Response, WireEdge, WireKind, WireServed, DEFAULT_MAX_FRAME_LEN, NO_DEADLINE_MS,
};
use crate::service::{DeltaApplied, DeltaCommitError, QueryResponse, QueryService, Served};
use crate::telemetry::{
    AdminSources, Counter, Gauge, HealthPhase, HealthReport, Histogram, MetricsRegistry, Telemetry,
};
use pathlearn_automata::{CanonicalQuery, Regex, Symbol};
use pathlearn_graph::{CancelToken, Interrupt, NodeId};
use std::collections::HashMap;
use std::io::{self, BufReader, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Tuning knobs for the TCP front door. The defaults are sized for the
/// test and bench workloads; production would mostly raise
/// `max_connections` and `eval_workers`.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Per-connection read timeout (slow-loris defense): a peer that
    /// stalls mid-frame longer than this is disconnected.
    pub read_timeout: Duration,
    /// Concurrent connection cap; excess connections get a best-effort
    /// `BUSY` error frame and are closed.
    pub max_connections: usize,
    /// How many queries may wait for an evaluation slot at once; a
    /// query that would be one more gets a `SHED` frame instead.
    pub queue_depth: usize,
    /// Evaluations that may run at once, each on the connection thread
    /// that read its query. It also bounds the evaluation scratches the
    /// service's pool keeps for TCP traffic: one per evaluation that
    /// ever ran at the same time as the others.
    pub eval_workers: usize,
    /// Base backoff hint carried in `SHED` frames. The hint actually
    /// sent scales with the gate's occupancy at shed time — `k` times
    /// `eval_workers` queries running or waiting hints
    /// `k × retry_after_ms` (capped at [`MAX_RETRY_AFTER_MS`]) — so
    /// clients back off harder the deeper the backlog they bounced off.
    pub retry_after_ms: u32,
}

/// State budget of the subset construction a text query goes through
/// on its connection thread: a 64 KiB regex can describe a DFA with
/// 2^thousands states, so a text that needs more is refused with a
/// request-level `PARSE` error instead of being determinized. Two
/// orders of magnitude above any query the paper or the learner
/// produces; a few milliseconds of work at the limit, and an
/// evaluation scratch of `3 · 1024` node bitsets for an admitted one.
pub const MAX_QUERY_DFA_STATES: usize = 1024;

/// Ceiling on the occupancy-scaled `SHED` backoff hint
/// ([`NetConfig::retry_after_ms`] × backlog rounds, clamped here).
pub const MAX_RETRY_AFTER_MS: u32 = 5_000;

/// Per-connection write timeout: a peer that stops reading its replies
/// is disconnected rather than parking a server thread.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Cap on remembered text-established fingerprints; at the cap new text
/// queries still evaluate but are not registered. The text memo beside
/// the registry holds at most this many entries too (it starts over
/// when full).
const FINGERPRINT_CAP: usize = 65_536;

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            read_timeout: Duration::from_secs(30),
            max_connections: 1024,
            queue_depth: 64,
            eval_workers: 2,
            retry_after_ms: 100,
        }
    }
}

/// The evaluation gate, under one mutex.
#[derive(Default)]
struct Gate {
    /// Evaluation slots held, at most [`NetConfig::eval_workers`].
    running: usize,
    /// Queries waiting for a slot, at most [`NetConfig::queue_depth`].
    waiting: usize,
    /// Set once, by [`Server::shutdown`]: the fast path and every
    /// waiter answer `DRAINING`.
    draining: bool,
}

/// One evaluation slot of the gate, returned on drop — also when the
/// evaluation unwinds.
struct Slot<'a> {
    shared: &'a Shared,
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        // Every update of the gate is one step that leaves it valid, so
        // a poisoned lock still holds a true count.
        let shared = self.shared;
        let mut gate = shared.gate.lock().unwrap_or_else(PoisonError::into_inner);
        gate.running -= 1;
        shared.wake(&gate);
    }
}

/// Bound on the request-text bytes the memo keeps as keys. Entries
/// alone are no bound — one frame may carry 64 KiB of regex — so the
/// memo starts over when its accounted key bytes would pass this.
const MEMO_TEXT_BYTES_MAX: usize = 1 << 20;

// A wire string is `u16`-length: any single text fits an empty memo.
const _: () = assert!(MEMO_TEXT_BYTES_MAX >= u16::MAX as usize);

/// What the front door remembers about queries, under one lock: the
/// fingerprint registry and the text memo, sharing one
/// `Arc<CanonicalQuery>` per language.
#[derive(Default)]
struct QueryTable {
    by_fingerprint: HashMap<u64, Arc<CanonicalQuery>>,
    /// Exact request bytes → canonical query. Only texts that parsed.
    by_text: HashMap<Box<str>, Arc<CanonicalQuery>>,
    /// Sum of `by_text`'s key lengths, ≤ [`MEMO_TEXT_BYTES_MAX`].
    text_bytes: usize,
}

impl QueryTable {
    fn text(&self, text: &str) -> Option<Arc<CanonicalQuery>> {
        self.by_text.get(text).cloned()
    }

    fn fingerprint(&self, fingerprint: u64) -> Option<Arc<CanonicalQuery>> {
        self.by_fingerprint.get(&fingerprint).cloned()
    }

    /// Records that `text` parsed to `query`: registers the fingerprint
    /// (at most `cap` of them; at the cap the query is still answered,
    /// just not registered) and memoises the text (at most `cap`
    /// entries and [`MEMO_TEXT_BYTES_MAX`] key bytes; the memo is
    /// cleared wholesale when either would be passed).
    fn remember(&mut self, text: &str, query: CanonicalQuery, cap: usize) -> Arc<CanonicalQuery> {
        let fingerprint = query.fingerprint();
        let shared = match self.by_fingerprint.get(&fingerprint) {
            // Another spelling of a registered language: share its entry.
            Some(known) if **known == query => known.clone(),
            known => {
                let fresh = Arc::new(query);
                if known.is_some() || self.by_fingerprint.len() < cap {
                    self.by_fingerprint.insert(fingerprint, fresh.clone());
                }
                fresh
            }
        };
        if self.by_text.len() >= cap || self.text_bytes + text.len() > MEMO_TEXT_BYTES_MAX {
            self.by_text.clear();
            self.text_bytes = 0;
        }
        if self.by_text.len() < cap && self.by_text.insert(text.into(), shared.clone()).is_none() {
            self.text_bytes += text.len();
        }
        shared
    }
}

/// One reply, not yet encoded. A `RESULT` stays the service's
/// [`QueryResponse`]: its `Arc<BitSet>` — on a hit, the cache's own
/// allocation — is encoded straight into the connection's frame
/// buffer, never cloned into a [`Response`] first.
#[derive(Debug)]
enum Reply {
    Result {
        request_id: u64,
        response: QueryResponse,
    },
    Frame(Response),
}

impl Reply {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Reply::Frame(response) => response.encode_into(out),
            Reply::Result {
                request_id,
                response,
            } => {
                let (served, eval_ns) = match response.served {
                    Served::Hit => (WireServed::Hit, 0),
                    Served::Coalesced => (WireServed::Coalesced, 0),
                    Served::Evaluated { eval_ns, .. } => (WireServed::EvaluatedSequential, eval_ns),
                };
                encode_result(
                    out,
                    *request_id,
                    served,
                    response.fingerprint,
                    response.canonical_states as u32,
                    eval_ns,
                    &response.result,
                );
            }
        }
    }
}

/// Live handles into the unified [`MetricsRegistry`] for the front
/// door's `net.*` slice. Registered against the service's
/// [`Telemetry`] bundle at bind time, so one registry snapshot covers
/// the network, serving, cache and WAL layers together.
struct NetCounters {
    accepted: Counter,
    refused: Counter,
    active: Gauge,
    queries: Counter,
    shed: Counter,
    deadline_replies: Counter,
    draining_replies: Counter,
    malformed: Counter,
    io_errors: Counter,
    /// The gate's waiting count, synced at snapshot time (see
    /// [`Shared::refresh_queue_depth`]); depth is only meaningful at
    /// observation, so the gate does not touch it.
    queue_depth: Gauge,
    /// Service latency of answered queries (slot taken → reply ready;
    /// for a hit answered by the fast path, the probe),
    /// log₂-bucketed. Replaces the old mutex-guarded sliding window on
    /// the reply hot path; its nearest-rank quantiles are exact over
    /// the whole history by construction — no partially-filled-window
    /// cold-start to get wrong.
    latency: Histogram,
}

impl NetCounters {
    fn register(registry: &MetricsRegistry) -> Self {
        NetCounters {
            accepted: registry.counter("net.accepted"),
            refused: registry.counter("net.refused"),
            active: registry.gauge("net.active_connections"),
            queries: registry.counter("net.queries"),
            shed: registry.counter("net.shed"),
            deadline_replies: registry.counter("net.deadline_replies"),
            draining_replies: registry.counter("net.draining_replies"),
            malformed: registry.counter("net.malformed"),
            io_errors: registry.counter("net.io_errors"),
            queue_depth: registry.gauge("net.queue_depth"),
            latency: registry.histogram("net.latency", "ns"),
        }
    }
}

struct Shared {
    service: QueryService,
    config: NetConfig,
    gate: Mutex<Gate>,
    /// Cancels every waiting and running evaluation at its next check
    /// once [`Server::shutdown`] trips it.
    drain_flag: Arc<AtomicBool>,
    /// Wakes a waiter when a slot is freed, and every waiter at the
    /// drain.
    slot_free: Condvar,
    /// Wakes the shutdown drain when no slot is held and no one waits.
    idle: Condvar,
    /// The service's telemetry bundle — shared registry + trace sink.
    telemetry: Arc<Telemetry>,
    counters: NetCounters,
    /// Fingerprint registry + text memo (module docs, *What the front
    /// door remembers*).
    registry: Mutex<QueryTable>,
    /// Clones of live sockets so shutdown can force-unblock connection
    /// threads parked in reads.
    conns: Mutex<HashMap<u64, TcpStream>>,
    stop_accept: AtomicBool,
}

impl Shared {
    /// Syncs the `net.queue_depth` gauge with the gate's waiting count;
    /// called before every snapshot or exposition so scrapes see the
    /// depth at observation time.
    fn refresh_queue_depth(&self) {
        let depth = self.gate.lock().unwrap().waiting as u64;
        self.counters.queue_depth.set(depth);
    }

    /// Every counter the server exposes, namespaced and self-describing
    /// — the `STATS` frame body and the bench schema both come from
    /// here, so adding a counter automatically reaches both. This is a
    /// sorted snapshot of the unified registry: keys ascend
    /// lexicographically (pinned by a regression test), and histograms
    /// contribute derived `_count` / `_p50_<unit>` / `_p99_<unit>`
    /// keys, which is how the legacy `net.latency_p50_ns` /
    /// `net.latency_p99_ns` names survive the registry migration.
    fn stats_counters(&self) -> Vec<(String, u64)> {
        self.refresh_queue_depth();
        self.telemetry.registry.snapshot()
    }

    /// Evaluation slots: [`NetConfig::eval_workers`], at least one.
    fn slots(&self) -> usize {
        self.config.eval_workers.max(1)
    }

    /// Called under the gate's lock after a slot was freed or a waiter
    /// left: hands a free slot to one waiter (a waiter that leaves may
    /// have taken the wake-up meant for another), and tells the
    /// shutdown drain when the gate is empty.
    fn wake(&self, gate: &Gate) {
        if gate.waiting > 0 && gate.running < self.slots() {
            self.slot_free.notify_one();
        }
        if gate.draining && gate.running == 0 && gate.waiting == 0 {
            self.idle.notify_all();
        }
    }

    /// Takes an evaluation slot for a query that missed the fast path,
    /// waiting behind at most [`NetConfig::queue_depth`] others.
    /// `Ok(None)` means the wait was cut short by the query's deadline
    /// or by the drain, so its token is tripped; `Err` is the `SHED` or
    /// `DRAINING` reply to send instead.
    fn take_slot(
        &self,
        request_id: u64,
        deadline: Option<Instant>,
    ) -> Result<Option<Slot<'_>>, Reply> {
        let mut gate = self.gate.lock().unwrap();
        if gate.draining {
            drop(gate);
            return Err(self.draining(request_id));
        }
        if gate.running >= self.slots() || gate.waiting > 0 {
            if gate.waiting >= self.config.queue_depth {
                // Scale the backoff hint by how much work the bounced
                // client is actually behind: occupancy in units of
                // slots, so one "round" of hint per full sweep of the
                // current backlog. Deeper backlog ⇒ ≥ hint; capped so a
                // pathological backlog cannot park clients for minutes.
                let occupancy = gate.waiting + gate.running;
                drop(gate);
                let rounds = occupancy.div_ceil(self.slots()).max(1) as u64;
                let base = u64::from(self.config.retry_after_ms.max(1));
                let hint = (base * rounds).min(u64::from(MAX_RETRY_AFTER_MS)) as u32;
                self.counters.shed.inc();
                return Err(Reply::Frame(Response::Shed {
                    request_id,
                    retry_after_ms: hint,
                }));
            }
            gate.waiting += 1;
            loop {
                if gate.draining || deadline.is_some_and(|deadline| Instant::now() >= deadline) {
                    gate.waiting -= 1;
                    self.wake(&gate);
                    return Ok(None);
                }
                if gate.running < self.slots() {
                    gate.waiting -= 1;
                    break;
                }
                gate = match deadline {
                    Some(deadline) => {
                        let left = deadline.saturating_duration_since(Instant::now());
                        self.slot_free.wait_timeout(gate, left).unwrap().0
                    }
                    None => self.slot_free.wait(gate).unwrap(),
                };
            }
        }
        gate.running += 1;
        Ok(Some(Slot { shared: self }))
    }

    fn draining(&self, request_id: u64) -> Reply {
        self.counters.draining_replies.inc();
        Reply::Frame(Response::Draining { request_id })
    }

    /// Resolves a wire query reference to a canonical query, or the
    /// reply to send instead. A memoised text costs one table lookup;
    /// a new one is parsed and canonicalized against the served graph's
    /// alphabet — the subset construction under
    /// [`MAX_QUERY_DFA_STATES`] — and remembered.
    fn resolve_query(
        &self,
        request_id: u64,
        query: &QueryRef,
    ) -> Result<Arc<CanonicalQuery>, Reply> {
        let error = |code, message| {
            Reply::Frame(Response::Error {
                request_id,
                code,
                message,
            })
        };
        match query {
            QueryRef::Text(text) => {
                if let Some(resolved) = self.registry.lock().unwrap().text(text) {
                    return Ok(resolved);
                }
                let graph = self.service.graph();
                let canonical = Regex::parse(text, graph.alphabet())
                    .map_err(|err| error(ErrorCode::Parse, err.to_string()))?
                    .to_canonical_bounded(graph.alphabet().len(), MAX_QUERY_DFA_STATES)
                    .ok_or_else(|| {
                        error(
                            ErrorCode::Parse,
                            format!(
                                "query needs more than {MAX_QUERY_DFA_STATES} DFA states \
                                 (limit before minimization)"
                            ),
                        )
                    })?;
                Ok(self
                    .registry
                    .lock()
                    .unwrap()
                    .remember(text, canonical, FINGERPRINT_CAP))
            }
            QueryRef::Fingerprint(fp) => {
                self.registry
                    .lock()
                    .unwrap()
                    .fingerprint(*fp)
                    .ok_or_else(|| {
                        error(
                            ErrorCode::UnknownFingerprint,
                            format!("fingerprint {fp:#018x} not established on this server"),
                        )
                    })
            }
        }
    }

    /// Applies a `DELTA` frame inline: resolve the named edges against
    /// the served graph, hand the batch to
    /// [`QueryService::apply_delta`], and answer `DELTA_APPLIED` (or a
    /// request-level `BAD_DELTA` error — the graph is unchanged then).
    /// No slot: the write waits only for the evaluations already
    /// running, each bounded by the drain flag and its deadline, and the
    /// fingerprint registry survives because the node set and alphabet
    /// are frozen.
    fn handle_delta(&self, request_id: u64, add: &[WireEdge], remove: &[WireEdge]) -> Response {
        let graph = self.service.graph();
        let bad = |message: String| Response::Error {
            request_id,
            code: ErrorCode::BadDelta,
            message,
        };
        let mut resolved = [Vec::new(), Vec::new()];
        for (list, wire) in resolved.iter_mut().zip([add, remove]) {
            list.reserve(wire.len());
            for (src, label, dst) in wire {
                let node = |name: &str| -> Result<NodeId, Response> {
                    graph
                        .node_id(name)
                        .ok_or_else(|| bad(format!("unknown node {name:?}")))
                };
                let sym: Symbol = match graph.alphabet().symbol(label) {
                    Some(sym) => sym,
                    None => return bad(format!("unknown label {label:?}")),
                };
                match (node(src), node(dst)) {
                    (Ok(src), Ok(dst)) => list.push((src, sym, dst)),
                    (Err(reply), _) | (_, Err(reply)) => return reply,
                }
            }
        }
        let [add_ids, remove_ids] = resolved;
        // With persistence attached the batch is WAL-appended and
        // fsynced before it is applied, so this `DELTA_APPLIED` only
        // ever acknowledges a write that survives a crash.
        match self.service.apply_delta(&add_ids, &remove_ids) {
            Ok(DeltaApplied {
                invalidated,
                compacted,
                delta_edges,
                ..
            }) => Response::DeltaApplied {
                request_id,
                invalidated: invalidated as u32,
                compacted,
                delta_edges: delta_edges as u32,
            },
            // Unreachable while the delta contract holds: resolution
            // pinned everything in range.
            Err(DeltaCommitError::Rejected(err)) => bad(err.to_string()),
            // The WAL could not take the batch (e.g. disk full): the
            // graph is unchanged and the client may retry once the
            // operator intervenes.
            Err(DeltaCommitError::Wal(err)) => Response::Error {
                request_id,
                code: ErrorCode::Internal,
                message: format!("delta not committed: {err}"),
            },
        }
    }

    /// Answers one decoded query. Always returns exactly one reply.
    fn handle_query(
        &self,
        request_id: u64,
        kind: WireKind,
        deadline_ms: u32,
        query: &QueryRef,
        arrival: Instant,
    ) -> Reply {
        self.counters.queries.inc();
        match self.resolve_query(request_id, query) {
            Ok(query) => self.admit_resolved(request_id, kind, deadline_ms, query, arrival),
            Err(reply) => reply,
        }
    }

    /// Answers a resolved query: a resident key from the cache, anything
    /// else by an evaluation under a slot of the gate.
    fn admit_resolved(
        &self,
        request_id: u64,
        kind: WireKind,
        deadline_ms: u32,
        query: Arc<CanonicalQuery>,
        arrival: Instant,
    ) -> Reply {
        let query = CanonicalQuery::clone(&query);
        let key = match kind {
            WireKind::Monadic => CacheKey::monadic(query),
            WireKind::Binary(source) => CacheKey::binary(query, source),
        };
        let deadline = (deadline_ms != NO_DEADLINE_MS)
            .then(|| arrival + Duration::from_millis(u64::from(deadline_ms)));

        // Fast path. A drain closes it like any admission; a budget
        // already spent leaves it to `submit`, which owns the
        // `DEADLINE` verdict and its counters.
        if self.gate.lock().unwrap().draining {
            return self.draining(request_id);
        }
        let start = Instant::now();
        if deadline.is_none_or(|deadline| start < deadline) {
            if let Some(response) = self.service.try_hit(&key) {
                self.counters
                    .latency
                    .record(start.elapsed().as_nanos() as u64);
                return Reply::Result {
                    request_id,
                    response,
                };
            }
        }

        let entered = Instant::now();
        let slot = match self.take_slot(request_id, deadline) {
            Ok(slot) => slot,
            Err(reply) => return reply,
        };
        let start = Instant::now();
        let mut token = CancelToken::with_flag(self.drain_flag.clone());
        if let Some(deadline) = deadline {
            token = token.and_deadline(deadline);
        }
        let waited = Some(start.duration_since(entered));
        // A waiter cut short holds no slot and a tripped token, so
        // `submit` returns the verdict, and counts it, before it admits
        // anything.
        debug_assert!(slot.is_some() || token.check().is_err());
        let outcome = self.service.submit(key, &token, waited);
        drop(slot);
        match outcome {
            Ok(response) => {
                self.counters
                    .latency
                    .record(start.elapsed().as_nanos() as u64);
                Reply::Result {
                    request_id,
                    response,
                }
            }
            Err(Interrupt::Deadline) => {
                self.counters.deadline_replies.inc();
                Reply::Frame(Response::Deadline { request_id })
            }
            Err(Interrupt::Cancelled) => self.draining(request_id),
        }
    }

    /// One connection's frame loop. Framing violations close the
    /// connection (a length-prefixed stream cannot resynchronize);
    /// request-level errors answer and continue.
    fn connection_loop(&self, stream: TcpStream, conn_id: u64) {
        let _ = stream.set_read_timeout(Some(self.config.read_timeout));
        let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
        // Request/reply roundtrips of small frames stall ~40ms per query
        // under Nagle + delayed ACK; a front door wants neither.
        let _ = stream.set_nodelay(true);
        let mut reader = frame_reader(&stream);
        // Every reply of this connection is framed in this one buffer
        // (it grows to the largest reply, one result bitset) and leaves
        // in one `write`.
        let mut frame = Vec::new();
        let mut send =
            |reply: &Reply| write_frame(&mut &stream, &mut frame, |out| reply.encode_into(out));
        loop {
            let payload = match read_frame(&mut reader, DEFAULT_MAX_FRAME_LEN) {
                Ok(payload) => payload,
                Err(FrameError::Closed) => break,
                Err(FrameError::Oversize(len)) => {
                    self.counters.malformed.inc();
                    let _ = send(&Reply::Frame(Response::Error {
                        request_id: 0,
                        code: ErrorCode::Oversize,
                        message: format!("frame length {len} exceeds cap {DEFAULT_MAX_FRAME_LEN}"),
                    }));
                    break;
                }
                Err(FrameError::Io(_)) => {
                    self.counters.io_errors.inc();
                    break;
                }
            };
            let arrival = Instant::now();
            let request = match Request::decode(&payload) {
                Ok(request) => request,
                Err(err) => {
                    self.counters.malformed.inc();
                    let _ = send(&Reply::Frame(Response::Error {
                        request_id: 0,
                        code: err.code(),
                        message: err.to_string(),
                    }));
                    break;
                }
            };
            let reply = match request {
                Request::Ping { request_id } => Reply::Frame(Response::Pong { request_id }),
                Request::Stats { request_id } => Reply::Frame(Response::Stats {
                    request_id,
                    counters: self.stats_counters(),
                }),
                Request::Query {
                    request_id,
                    kind,
                    deadline_ms,
                    query,
                } => self.handle_query(request_id, kind, deadline_ms, &query, arrival),
                Request::Delta {
                    request_id,
                    add,
                    remove,
                } => Reply::Frame(self.handle_delta(request_id, &add, &remove)),
            };
            if send(&reply).is_err() {
                self.counters.io_errors.inc();
                break;
            }
        }
        self.conns.lock().unwrap().remove(&conn_id);
        self.counters.active.sub(1);
    }

    /// Acceptor loop: poll the non-blocking listener until shutdown.
    fn acceptor_loop(self: &Arc<Self>, listener: TcpListener) {
        let mut next_conn_id: u64 = 0;
        while !self.stop_accept.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    self.counters.accepted.inc();
                    // Accepted sockets can inherit the listener's
                    // non-blocking mode; the frame loop wants blocking
                    // reads bounded by timeouts.
                    if stream.set_nonblocking(false).is_err() {
                        continue;
                    }
                    let active = self.counters.active.get();
                    if active as usize >= self.config.max_connections {
                        self.counters.refused.inc();
                        let mut stream = stream;
                        let reply = Response::Error {
                            request_id: 0,
                            code: ErrorCode::Busy,
                            message: "connection limit reached".to_owned(),
                        };
                        let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
                        let _ =
                            write_frame(&mut stream, &mut Vec::new(), |out| reply.encode_into(out));
                        continue;
                    }
                    self.counters.active.add(1);
                    let conn_id = next_conn_id;
                    next_conn_id += 1;
                    if let Ok(clone) = stream.try_clone() {
                        self.conns.lock().unwrap().insert(conn_id, clone);
                    }
                    let shared = Arc::clone(self);
                    thread::Builder::new()
                        .name(format!("pathlearn-conn-{conn_id}"))
                        .spawn(move || shared.connection_loop(stream, conn_id))
                        .expect("spawn connection thread");
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(5));
                }
                Err(_) => thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

/// A listening front door. Dropping the server (or calling
/// [`Server::shutdown`]) drains gracefully: in-flight queries get their
/// reply (or a retryable `DRAINING`), then the acceptor thread joins
/// and lingering connections are cut off at their next read.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral test port)
    /// and starts the acceptor over `service`; each accepted connection
    /// gets its own thread, which also evaluates its queries.
    pub fn bind<A: ToSocketAddrs>(
        service: QueryService,
        addr: A,
        config: NetConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let telemetry = service.telemetry();
        let counters = NetCounters::register(&telemetry.registry);
        let shared = Arc::new(Shared {
            service,
            config,
            gate: Mutex::new(Gate::default()),
            drain_flag: Arc::new(AtomicBool::new(false)),
            slot_free: Condvar::new(),
            idle: Condvar::new(),
            telemetry,
            counters,
            registry: Mutex::new(QueryTable::default()),
            conns: Mutex::new(HashMap::new()),
            stop_accept: AtomicBool::new(false),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("pathlearn-accept".to_owned())
                .spawn(move || shared.acceptor_loop(listener))?
        };
        Ok(Server {
            shared,
            local_addr,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The underlying query service (shared with the front door).
    pub fn service(&self) -> &QueryService {
        &self.shared.service
    }

    /// Every exposed counter, namespaced — identical to a `STATS`
    /// frame's body: the sorted snapshot of the unified registry.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.shared.stats_counters()
    }

    /// Builds the content sources for an [`crate::AdminServer`] over
    /// this front door: `/metrics` renders the unified registry as
    /// Prometheus text (queue-depth gauge refreshed first), `/healthz`
    /// reports `serving`/`draining` plus gate (`queue_depth` waiting,
    /// `running` slots held), connection and WAL detail lines, and `/slow` renders the slow-query log. The
    /// closures hold the server's shared state by `Arc`, so they stay
    /// valid after [`Server::shutdown`] — a stopped server reports
    /// `draining`, exactly what a deployment health check should see.
    pub fn admin_sources(&self) -> AdminSources {
        let metrics_shared = Arc::clone(&self.shared);
        let health_shared = Arc::clone(&self.shared);
        let slow_shared = Arc::clone(&self.shared);
        AdminSources {
            metrics: Box::new(move || {
                metrics_shared.refresh_queue_depth();
                metrics_shared.telemetry.registry.render_prometheus()
            }),
            health: Box::new(move || {
                let (draining, depth, running) = {
                    let gate = health_shared.gate.lock().unwrap();
                    (gate.draining, gate.waiting, gate.running)
                };
                let mut detail = vec![
                    ("queue_depth".to_owned(), depth.to_string()),
                    ("running".to_owned(), running.to_string()),
                    (
                        "active_connections".to_owned(),
                        health_shared.counters.active.get().to_string(),
                    ),
                ];
                match health_shared.service.persistence_status() {
                    Some((wal_records, checkpoint_threshold)) => {
                        detail.push(("durable".to_owned(), "true".to_owned()));
                        detail.push(("wal_records".to_owned(), wal_records.to_string()));
                        detail.push((
                            "checkpoint_threshold".to_owned(),
                            checkpoint_threshold.to_string(),
                        ));
                    }
                    None => detail.push(("durable".to_owned(), "false".to_owned())),
                }
                HealthReport {
                    phase: if draining {
                        HealthPhase::Draining
                    } else {
                        HealthPhase::Serving
                    },
                    detail,
                }
            }),
            slow: Box::new(move || slow_shared.telemetry.traces.render_slow()),
        }
    }

    /// Graceful stop: drain, join the acceptor, end the input of
    /// lingering connections. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.acceptor.is_none() {
            return;
        }
        self.shared.stop_accept.store(true, Ordering::SeqCst);
        {
            // Close the gate, trip the drain flag, send every waiter
            // away, and wait for the running evaluations to free their
            // slots: the tripped flag stops each at its next BFS level,
            // so no evaluation outlives `shutdown`.
            let shared = &self.shared;
            let mut gate = shared.gate.lock().unwrap();
            gate.draining = true;
            shared.drain_flag.store(true, Ordering::SeqCst);
            shared.slot_free.notify_all();
            while !(gate.running == 0 && gate.waiting == 0) {
                gate = shared.idle.wait(gate).unwrap();
            }
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Unblock connection threads parked in reads; they observe the
        // end of input and exit on their own, closing the socket. Only
        // the read half is shut: a thread whose reply was determined by
        // the drain above but is not written yet must still get it out.
        let conns = self.shared.conns.lock().unwrap();
        for stream in conns.values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A blocking protocol client: one frame out, one frame in. Used by the
/// CLI, the bench harness, and the test suites (which also hit the
/// server with raw bytes via [`Client::send_raw`]).
pub struct Client {
    /// The read half, buffered ([`frame_reader`]); writes go to the
    /// same socket through `get_ref`.
    reader: BufReader<TcpStream>,
    /// Reused request frame buffer ([`write_frame`]).
    frame: Vec<u8>,
    next_id: u64,
    /// Response frames carry whole node bitsets, so the client cap is
    /// much larger than the server's request cap.
    max_frame_len: u32,
}

impl Client {
    /// Connects to a front door.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: frame_reader(stream),
            frame: Vec::new(),
            next_id: 1,
            max_frame_len: 256 * 1024 * 1024,
        })
    }

    /// Sets both socket timeouts (handy in tests asserting liveness).
    pub fn set_timeouts(&self, read: Option<Duration>, write: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(read)?;
        self.reader.get_ref().set_write_timeout(write)
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Sends one request frame and reads one response frame, asserting
    /// the echoed request id matches.
    pub fn roundtrip(&mut self, request: &Request) -> io::Result<Response> {
        write_frame(&mut self.reader.get_ref(), &mut self.frame, |out| {
            request.encode_into(out)
        })?;
        let response = self.read_response()?;
        let sent_id = match request {
            Request::Query { request_id, .. }
            | Request::Stats { request_id }
            | Request::Ping { request_id }
            | Request::Delta { request_id, .. } => *request_id,
        };
        let got_id = match &response {
            Response::Result { request_id, .. }
            | Response::Shed { request_id, .. }
            | Response::Deadline { request_id }
            | Response::Draining { request_id }
            | Response::Error { request_id, .. }
            | Response::Stats { request_id, .. }
            | Response::Pong { request_id }
            | Response::DeltaApplied { request_id, .. } => *request_id,
        };
        // Error frames for framing violations carry request id 0 (the
        // server could not decode the offender).
        if got_id != sent_id && got_id != 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response id {got_id} does not echo request id {sent_id}"),
            ));
        }
        Ok(response)
    }

    /// Monadic text query under a deadline budget
    /// ([`NO_DEADLINE_MS`] = unbounded).
    pub fn query_text(&mut self, expr: &str, deadline_ms: u32) -> io::Result<Response> {
        let request_id = self.fresh_id();
        self.roundtrip(&Request::Query {
            request_id,
            kind: WireKind::Monadic,
            deadline_ms,
            query: QueryRef::Text(expr.to_owned()),
        })
    }

    /// Binary-semantics text query from `source`.
    pub fn query_text_binary(
        &mut self,
        expr: &str,
        source: u32,
        deadline_ms: u32,
    ) -> io::Result<Response> {
        let request_id = self.fresh_id();
        self.roundtrip(&Request::Query {
            request_id,
            kind: WireKind::Binary(source),
            deadline_ms,
            query: QueryRef::Text(expr.to_owned()),
        })
    }

    /// Monadic query by a fingerprint previously established by text.
    pub fn query_fingerprint(
        &mut self,
        fingerprint: u64,
        deadline_ms: u32,
    ) -> io::Result<Response> {
        let request_id = self.fresh_id();
        self.roundtrip(&Request::Query {
            request_id,
            kind: WireKind::Monadic,
            deadline_ms,
            query: QueryRef::Fingerprint(fingerprint),
        })
    }

    /// Fetches the server's namespaced counters.
    pub fn stats(&mut self) -> io::Result<Vec<(String, u64)>> {
        let request_id = self.fresh_id();
        match self.roundtrip(&Request::Stats { request_id })? {
            Response::Stats { counters, .. } => Ok(counters),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected STATS reply, got {other:?}"),
            )),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> io::Result<()> {
        let request_id = self.fresh_id();
        match self.roundtrip(&Request::Ping { request_id })? {
            Response::Pong { .. } => Ok(()),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected PONG, got {other:?}"),
            )),
        }
    }

    /// Sends an edge-delta batch: removals applied before additions,
    /// names resolved server-side. On success the reply is
    /// [`Response::DeltaApplied`]; an unknown node or label name comes
    /// back as [`ErrorCode::BadDelta`] without disturbing the served
    /// graph.
    pub fn apply_delta(&mut self, add: &[WireEdge], remove: &[WireEdge]) -> io::Result<Response> {
        let request_id = self.fresh_id();
        self.roundtrip(&Request::Delta {
            request_id,
            add: add.to_vec(),
            remove: remove.to_vec(),
        })
    }

    /// Writes raw bytes with no framing — the fault-injection suites
    /// use this to send garbage, truncated frames, and oversized length
    /// prefixes.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut stream = self.reader.get_ref();
        stream.write_all(bytes)?;
        stream.flush()
    }

    /// Reads one response frame (for use after [`Client::send_raw`]).
    pub fn read_response(&mut self) -> io::Result<Response> {
        let payload = match read_frame(&mut self.reader, self.max_frame_len) {
            Ok(payload) => payload,
            Err(FrameError::Closed) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ))
            }
            Err(FrameError::Oversize(len)) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("response frame length {len} exceeds client cap"),
                ))
            }
            Err(FrameError::Io(err)) => return Err(err),
        };
        Response::decode(&payload)
            .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServeConfig;
    use pathlearn_automata::{Alphabet, BitSet};
    use pathlearn_graph::eval::eval_monadic;
    use pathlearn_graph::{GraphBuilder, GraphDb};

    /// A 40-node line — `a` edges on the first half, `c` on the second,
    /// a `b` chord — over the labels `a`, `b`, `c`.
    fn line_graph() -> GraphDb {
        let mut builder = GraphBuilder::with_alphabet(Alphabet::from_labels(["a", "b", "c"]));
        for i in 0..39 {
            let label = if i < 20 { "a" } else { "c" };
            builder.add_edge(&format!("n{i}"), label, &format!("n{}", i + 1));
        }
        builder.add_edge("n0", "b", "n39");
        builder.build()
    }

    fn direct(graph: &GraphDb, expr: &str) -> BitSet {
        let regex = Regex::parse(expr, graph.alphabet()).unwrap();
        eval_monadic(&regex.to_dfa(graph.alphabet().len()), graph)
    }

    fn serve(graph: GraphDb, config: NetConfig) -> Server {
        let service = QueryService::new(graph, ServeConfig::default());
        Server::bind(service, "127.0.0.1:0", config).expect("bind ephemeral port")
    }

    fn text(expr: &str) -> QueryRef {
        QueryRef::Text(expr.to_owned())
    }

    fn ask(server: &Server, query: &QueryRef) -> Reply {
        server
            .shared
            .handle_query(1, WireKind::Monadic, NO_DEADLINE_MS, query, Instant::now())
    }

    fn result_of(reply: Reply) -> QueryResponse {
        match reply {
            Reply::Result { response, .. } => response,
            other => panic!("expected a RESULT, got {other:?}"),
        }
    }

    /// `(registered fingerprints, memoised texts, accounted key bytes)`.
    fn table_sizes(server: &Server) -> (usize, usize, usize) {
        let table = server.shared.registry.lock().unwrap();
        (
            table.by_fingerprint.len(),
            table.by_text.len(),
            table.text_bytes,
        )
    }

    /// A text over the state budget is answered with `PARSE` and
    /// leaves no trace: not memoised, not registered, no result-cache
    /// entry charged for a DFA that was never built.
    #[test]
    fn an_over_budget_text_is_refused_and_leaves_no_trace() {
        let server = serve(line_graph(), NetConfig::default());
        // 2^11 states: one doubling past the budget.
        let hostile = text(&format!("(a+b)*·a{}", "·(a+b)".repeat(10)));
        match ask(&server, &hostile) {
            Reply::Frame(Response::Error { code, message, .. }) => {
                assert_eq!(code, ErrorCode::Parse);
                assert!(message.contains(&MAX_QUERY_DFA_STATES.to_string()));
            }
            other => panic!("expected a PARSE error, got {other:?}"),
        }
        assert_eq!(table_sizes(&server), (0, 0, 0));
        assert_eq!(server.shared.service.stats().misses, 0);
        // One doubling below it is served.
        let legal = text(&format!("(a+b)*·a{}", "·(a+b)".repeat(8)));
        result_of(ask(&server, &legal));
        assert_eq!(table_sizes(&server).0, 1);
    }

    /// 100k distinct valid spellings of one language — far more key
    /// bytes than the memo may hold — keep the accounted bytes under
    /// the constant, the ledger exact, and the server answering.
    #[test]
    fn the_memo_is_bounded_by_key_bytes_not_only_by_entries() {
        let graph = line_graph();
        let server = serve(graph.clone(), NetConfig::default());
        let cap = FINGERPRINT_CAP;
        // Spelling `i`: 17 factors, each `(a+c)` or `(c+a)` by bit.
        let spelling = |i: u32| {
            (0..17)
                .map(|bit| if i >> bit & 1 == 0 { "(a+c)" } else { "(c+a)" })
                .collect::<Vec<_>>()
                .join("·")
        };
        let first = spelling(0);
        let query = Regex::parse(&first, graph.alphabet())
            .unwrap()
            .to_canonical(3);
        let mut stored_bytes = 0usize;
        {
            let mut table = server.shared.registry.lock().unwrap();
            for i in 0..100_000 {
                let text = spelling(i);
                stored_bytes += text.len();
                table.remember(&text, query.clone(), cap);
                assert!(table.text_bytes <= MEMO_TEXT_BYTES_MAX, "spelling {i}");
                assert!(table.by_text.len() <= cap);
            }
            assert!(
                stored_bytes > 4 * MEMO_TEXT_BYTES_MAX,
                "the input overflowed the bound several times"
            );
            assert_eq!(
                table.text_bytes,
                table.by_text.keys().map(|key| key.len()).sum::<usize>(),
                "the byte ledger is exact across wholesale clears"
            );
            assert_eq!(table.by_fingerprint.len(), 1, "one language, one entry");
        }
        // Memoised or not, every spelling is still answered.
        let expected = direct(&graph, &first);
        for i in [0, 1, 99_999] {
            assert_eq!(
                *result_of(ask(&server, &text(&spelling(i)))).result,
                expected
            );
        }

        // The entry bound is the registry's: at the cap the memo starts
        // over, the registry stops registering, nothing grows — and
        // every text still resolves to its own language, which is what
        // the server answers with.
        let mut small = QueryTable::default();
        for expr in ["a", "b", "c", "a·a", "a·b", "c·c", "a+b", "b+c", "a*", "c*"] {
            let query = Regex::parse(expr, graph.alphabet())
                .unwrap()
                .to_canonical(3);
            let resolved = small.remember(expr, query.clone(), 4);
            assert_eq!(*resolved, query, "{expr}");
            let (fingerprints, texts) = (small.by_fingerprint.len(), small.by_text.len());
            assert!(
                fingerprints <= 4 && texts <= 4,
                "{expr}: {fingerprints}/{texts}"
            );
        }

        // A server whose registry is full (one query under made-up
        // fingerprints) still answers new texts.
        let full = serve(graph.clone(), NetConfig::default());
        {
            let mut table = full.shared.registry.lock().unwrap();
            let filler = Arc::new(query);
            for fingerprint in 0..cap as u64 {
                table.by_fingerprint.insert(fingerprint, filler.clone());
            }
        }
        for expr in ["a", "a·c", "c*"] {
            assert_eq!(
                *result_of(ask(&full, &text(expr))).result,
                direct(&graph, expr)
            );
            assert_eq!(table_sizes(&full).0, cap, "{expr} was not registered");
        }
    }

    #[test]
    fn only_parsed_texts_are_memoised_and_spellings_share_one_entry() {
        let server = serve(line_graph(), NetConfig::default());
        let first = result_of(ask(&server, &text("a·(a·a)")));
        assert_eq!(table_sizes(&server), (1, 1, "a·(a·a)".len()));

        // A text that does not parse — or names a label the graph does
        // not have — answers PARSE and leaves the table as it was.
        for bad in ["((", "a·", "a·zzz"] {
            match ask(&server, &text(bad)) {
                Reply::Frame(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::Parse),
                other => panic!("expected a PARSE error for {bad:?}, got {other:?}"),
            }
            assert_eq!(table_sizes(&server), (1, 1, "a·(a·a)".len()), "{bad:?}");
        }

        // Another spelling of the same language: a second memo key, the
        // same fingerprint entry, the same shared query — and a hit.
        let second = result_of(ask(&server, &text("(a·a)·a")));
        assert!(matches!(second.served, Served::Hit));
        assert_eq!(second.fingerprint, first.fingerprint);
        assert_eq!(
            table_sizes(&server),
            (1, 2, "a·(a·a)".len() + "(a·a)·a".len())
        );
        let table = server.shared.registry.lock().unwrap();
        let registered = &table.by_fingerprint[&first.fingerprint];
        assert!(table
            .by_text
            .values()
            .all(|query| Arc::ptr_eq(query, registered)));
        // By fingerprint it resolves to that same entry.
        let by_fingerprint = table.fingerprint(first.fingerprint).unwrap();
        assert!(Arc::ptr_eq(&by_fingerprint, registered));
    }

    /// Connection threads evaluate in scratches lent from the service's
    /// pool, which holds one per evaluation that ran at the same time
    /// as the others: at most `eval_workers` behind the front door,
    /// however many connections have evaluated and stay open.
    #[test]
    fn evaluation_scratch_belongs_to_the_slots_not_the_connections() {
        let graph = line_graph();
        let server = serve(graph.clone(), NetConfig::default());
        let exprs = ["a", "c", "a·a", "c·c", "a·c", "b", "a*", "c*"];
        let mut clients = Vec::new();
        for expr in exprs {
            let mut client = Client::connect(server.local_addr()).unwrap();
            match client.query_text(expr, NO_DEADLINE_MS).unwrap() {
                Response::Result { bits, .. } => assert_eq!(bits, direct(&graph, expr)),
                other => panic!("{expr}: {other:?}"),
            }
            clients.push(client);
        }
        let kept = server.shared.service.pooled_scratches();
        assert!(
            (1..=server.shared.slots()).contains(&kept),
            "{kept} scratches"
        );
    }

    /// Deltas freeze the node set and the alphabet, so the memo
    /// survives them: the next frame with a memoised text resolves to
    /// the same shared query without canonicalizing, and a result over
    /// labels the delta did not touch is still a hit.
    #[test]
    fn a_delta_leaves_the_memo_intact() {
        let graph = line_graph();
        let server = serve(graph.clone(), NetConfig::default());
        result_of(ask(&server, &text("a·a")));
        result_of(ask(&server, &text("c·c")));
        let before = server
            .shared
            .registry
            .lock()
            .unwrap()
            .text("a·a")
            .expect("memoised");

        let c = graph.alphabet().symbol("c").unwrap();
        let applied = server
            .service()
            .apply_delta(&[(0, c, 5)], &[])
            .expect("in range");
        assert_eq!(
            (applied.invalidated, applied.patched),
            (0, 1),
            "only c·c reads the touched label, and it is patched"
        );

        assert_eq!(table_sizes(&server), (2, 2, "a·a".len() + "c·c".len()));
        let after = server
            .shared
            .resolve_query(1, &text("a·a"))
            .expect("still memoised");
        assert!(Arc::ptr_eq(&before, &after), "no new canonical");
        assert!(matches!(
            result_of(ask(&server, &text("a·a"))).served,
            Served::Hit
        ));
        // The touched label's entry was patched, and its memo key kept:
        // same shared query, the patched graph's answer.
        let patched = server.service().graph();
        let served = result_of(ask(&server, &text("c·c")));
        assert!(matches!(served.served, Served::Hit));
        assert_eq!(*served.result, direct(&patched.compact(), "c·c"));
    }

    /// The server's direct-from-`Arc<BitSet>` writer and the public
    /// `Response::Result` encoder are the same bytes — an old client
    /// cannot tell which one framed its answer.
    #[test]
    fn the_direct_result_writer_matches_response_encode() {
        let mut frame = Vec::new();
        let mut bits = BitSet::new(100_000);
        for i in (0..100_000).step_by(7) {
            bits.insert(i);
        }
        for (served, wire, eval_ns) in [
            (Served::Hit, WireServed::Hit, 0),
            (Served::Coalesced, WireServed::Coalesced, 0),
            (
                Served::Evaluated {
                    strategy: pathlearn_graph::plan::Strategy::Backward,
                    eval_ns: 55_000,
                },
                WireServed::EvaluatedSequential,
                55_000,
            ),
        ] {
            let reply = Reply::Result {
                request_id: 9,
                response: QueryResponse {
                    result: Arc::new(bits.clone()),
                    served,
                    fingerprint: 0xfeed_face_cafe_beef,
                    canonical_states: 3,
                },
            };
            let mut wire_bytes = Vec::new();
            write_frame(&mut wire_bytes, &mut frame, |out| reply.encode_into(out)).unwrap();
            let payload = Response::Result {
                request_id: 9,
                served: wire,
                fingerprint: 0xfeed_face_cafe_beef,
                canonical_states: 3,
                eval_ns,
                bits: bits.clone(),
            }
            .encode();
            let mut expected = (payload.len() as u32).to_le_bytes().to_vec();
            expected.extend_from_slice(&payload);
            assert_eq!(wire_bytes, expected, "{served:?}");
        }
    }
}
