//! The concurrent query service: admission, coalescing, scheduling.
//!
//! [`QueryService`] is the multi-client front door to RPQ evaluation.
//! Client threads call [`QueryService::submit`] concurrently (the
//! `query_*` methods are shorthands over this one entry point); the
//! service
//!
//! 1. **canonicalizes** the submitted query (minimize → canonical
//!    numbering, [`CanonicalQuery`]) into a [`CacheKey`], so equivalent
//!    spellings are one unit of work and one cache entry;
//! 2. consults the **result cache** ([`ResultCache`], GDSF cost-aware
//!    eviction) — a hit returns the shared `Arc` immediately;
//! 3. consults the **in-flight table**: if an equivalent query is being
//!    evaluated right now, the caller *coalesces* — blocks on that
//!    evaluation's ticket instead of redoing the work (thundering-herd
//!    dedup for duplicate-heavy traffic);
//! 4. otherwise **admits** the query: registers an in-flight ticket
//!    (under the same lock as the cache probe, so exactly one thread
//!    owns each key), takes the served graph and an evaluation scratch
//!    from the service's pool, and evaluates it with
//!    [`EvalPool::evaluate`] on the submitting thread.
//!
//! Independent queries from different client threads naturally overlap:
//! evaluation runs outside the state lock, which is held only for probe
//! and publish. The scratch goes back to the pool when the evaluation
//! publishes or gives up, so the pool holds at most as many scratches
//! as evaluations ever ran at once, whichever threads ran them.
//! Results are bit-identical to the direct evaluators (asserted again by
//! this crate's smoke tests).
//!
//! ## Whole-query planning
//!
//! Every admitted **binary** query is dispatched through a
//! [`pathlearn_graph::plan::QueryPlan`]: the planner estimates frontier
//! growth in each direction from the graph's per-label statistics and
//! picks the forward or backward (coreach-pruned) engine per query
//! ([`ServeConfig::strategy`] can force one — purely a speed knob,
//! every strategy is bit-identical). Plans are cached per
//! [`CanonicalQuery`] in a rebuild-cleared side table, so fingerprint
//! replays and per-source binary fans skip the planning pass. Monadic
//! evaluation has one engine, so a monadic miss plans nothing: it
//! evaluates the canonical DFA as given and is recorded as `forward`.
//! The resolved direction is recorded on each [`Served::Evaluated`]
//! and aggregated in [`ServeStats`] (`forward_evals` /
//! `backward_evals`, surfaced through the `STATS` frame).
//!
//! ## Invalidation
//!
//! [`QueryService::rebuild_graph`] swaps the graph and clears the cache
//! and the plans. It takes the service by `&mut`, so no submission is
//! in flight while it runs: nothing evaluated against the outgoing
//! graph can publish, or be coalesced onto, after it returns. A service
//! shared between threads is never rebuilt; its graph changes only by
//! deltas.
//!
//! ## Edge deltas: patched answers
//!
//! [`QueryService::apply_delta`] is the incremental alternative: it
//! patches the current graph with an edge-delta overlay
//! ([`GraphDb::with_delta`]) instead of swapping it wholesale, and
//! brings **only what the delta can have changed** up to date. Two
//! filters pick the entries, and a patch updates them.
//!
//! - **Labels.** Every cached entry carries the *live alphabet* of its
//!   canonical DFA (the labels with at least one defined transition). A
//!   query that never steps through label `x` provably answers
//!   identically on a graph whose `x`-edges moved, so an entry whose
//!   live alphabet misses the batch's labels is left alone.
//! - **Footprints.** An answer is reachability in the graph × DFA
//!   product, and an edge `(u, a, w)` is one product edge
//!   `(x, p) → (y, q)` per `δ(p, a) = q` (`x = u, y = w` for a forward
//!   binary search; `x = w, y = u` for a monadic one, which runs
//!   backward from acceptance). Each entry keeps the [`Footprint`] its
//!   evaluation left — `reached[q]` for every state (a monadic one omits
//!   the finals, always all of `V`, and `q₀`, the answer itself) — and a
//!   label-matched entry is left alone unless an edge of the batch hits
//!   it: an added edge hits iff some product edge has
//!   `x ∈ R[p] ∧ y ∉ R[q]` (a new pair), a removed one iff some has
//!   `x ∈ R[p] ∧ y ∈ R[q]` and `(y, q)` is not a seed (an expanded
//!   edge).
//! - **Patches.** A hit entry is patched by [`EvalPool::patch`] in a
//!   scratch borrowed from the pool. It takes over the entry's
//!   footprint and answer (a copy of the answer while a reader holds
//!   it) and moves their buffers instead of copying them. The pairs a
//!   removed edge left without a derivation are taken out, the pairs an
//!   added edge reaches are seeded, and the search resumes to its
//!   fixpoint on the new graph.
//!   The patched answer is bit-identical to a fresh evaluation and is
//!   stored as a new `Arc` (readers may hold the old one), with its new
//!   footprint. A patch may spend the work units the entry's
//!   evaluation spent (its cache cost); past that, or for an entry with
//!   no footprint — a backward-planned binary answer (its pruned search
//!   is incomplete), a monadic answer cut short at `reached[q₀] = V`,
//!   an ε-monadic answer, an out-of-graph source — the entry is
//!   dropped, and counted in [`DeltaApplied::invalidated`].
//!
//! The footprint test is sound for whole batches. If an added edge
//! changes the fixpoint, the first new product pair is derived through
//! some added edge out of (monadic: into) an old pair, and that edge
//! hits. A removed edge that does not hit was never expanded, so every
//! old derivation survives. An entry left alone therefore keeps exactly
//! the same reached sets, and its footprint stays exact for later
//! batches; a patched one gets the new graph's.
//!
//! A write excludes running evaluations, and the in-flight table is the
//! set of them: an evaluation's ticket is registered, with the graph it
//! evaluates read, in the critical section that admits it, and removed
//! in the one that publishes it. [`QueryService::apply_delta`] builds
//! the patched graph outside the state lock and logs it when the
//! service is durable. Only then does it take the state lock, mark the
//! service as writing, and wait until the table is empty; it swaps the
//! graph and patches or drops the entries it hits without letting the
//! lock go. So an evaluation ran either wholly before a write, and its
//! entry is in the cache for the footprint test to judge, or wholly
//! after it, on the patched graph. A write therefore waits for the
//! evaluations already running, each bounded by its cancel token. A
//! miss that would start an evaluation while a write waits waits for the
//! write instead (under its own deadline), so a stream of misses cannot
//! starve it. Hits and coalesced waiters never wait for a write, so a
//! waiter coalesced onto a ticket admitted before a write may receive
//! the pre-write answer after the write returned: it is concurrent with
//! the write, so that answer is linearizable.
//!
//! The plan cache *survives* deltas — plans embed label statistics, so
//! a plan tuned pre-delta may be mildly mistuned, but every strategy is
//! bit-identical, so it is never wrong. Overlays are folded into a fresh
//! CSR ([`GraphDb::compact`], node-id- and alphabet-preserving) once
//! they outgrow [`ServeConfig::delta_compact_threshold`].

use crate::cache::{CacheConfig, CacheKey, QueryKind, ResultCache};
use crate::telemetry::{Counter, Gauge, Histogram, Telemetry, TraceBuilder};
use crate::wal::{Persistence, WalError};
use pathlearn_automata::{BitSet, CanonicalQuery, Dfa};
use pathlearn_graph::graph::DeltaError;
use pathlearn_graph::plan::plan_query_forced;
use pathlearn_graph::{
    Batch, CancelToken, Edge, EvalPool, EvalScratch, Footprint, Goal, GraphDb, Interrupt, NodeId,
    QueryPlan, StepPolicy, Strategy,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Configuration for [`QueryService`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Read by nothing in the service: every evaluation runs on the
    /// thread that submitted it. Kept (default 1) for callers that still
    /// set or print it.
    pub threads: usize,
    /// Result-cache sizing.
    pub cache: CacheConfig,
    /// Step-kernel policy for every evaluation this service runs.
    pub step_policy: StepPolicy,
    /// Binary-engine strategy for every admitted binary query:
    /// [`Strategy::Auto`] (the default) lets the whole-query planner
    /// pick forward or backward per query from the graph's
    /// label statistics; a forced value pins every binary evaluation to
    /// one engine (an operational escape hatch — all strategies are
    /// bit-identical, so forcing only changes speed). Monadic
    /// evaluation has one engine and ignores it.
    pub strategy: Strategy,
    /// Testing/diagnostics knob: hold each evaluated result back this
    /// long before publishing it (cache insert + ticket completion).
    /// Widens the in-flight window so coalescing can be exercised
    /// reliably by tests; keep `ZERO` (the default) in production.
    pub eval_holdoff: Duration,
    /// Overlay size (in edges, `added + removed`) above which
    /// [`QueryService::apply_delta`] folds the accumulated delta into a
    /// fresh CSR ([`GraphDb::compact`]). `None` (the default) derives
    /// the bound from the base graph: `max(1024, base_edges / 8)` —
    /// small overlays are nearly free to carry, and an overlay worth
    /// ~an eighth of the CSR has earned a rebuild. Compaction preserves
    /// node ids and the alphabet, so it invalidates nothing.
    pub delta_compact_threshold: Option<usize>,
    /// Queries whose whole-trace wall time reaches this threshold are
    /// captured in the slow-query log (the `/slow` admin page).
    pub slow_query_threshold: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: 1,
            cache: CacheConfig::default(),
            step_policy: StepPolicy::Auto,
            strategy: Strategy::Auto,
            eval_holdoff: Duration::ZERO,
            delta_compact_threshold: None,
            slow_query_threshold: Duration::from_millis(50),
        }
    }
}

/// How one evaluation ran, for [`QueryService::publish`]: the planner
/// strategy that produced the bits (never [`Strategy::Auto`] — the
/// record is the resolution), what it cost, and what it read.
struct EvalOutcome {
    strategy: Strategy,
    /// Measured wall time: reported, never compared.
    eval_ns: u64,
    /// The result cache's GDSF cost: the work units the evaluation
    /// spent ([`EvalScratch::spent`]), `+ 1` so an answer that needed no
    /// level still has positive cost. Unlike wall time it is a function
    /// of the graph and the key alone, so the same submissions evict the
    /// same victims on every run.
    work: u64,
    /// The search's footprint, when it left an exact one
    /// ([`EvalScratch::footprint`]).
    footprint: Option<Footprint>,
}

/// How one submission was served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Served {
    /// Resident in the result cache.
    Hit,
    /// Folded onto a concurrent in-flight evaluation of an equivalent
    /// query.
    Coalesced,
    /// Admitted and evaluated.
    Evaluated {
        /// The binary engine the planner resolved for this query (never
        /// [`Strategy::Auto`] — Auto is an input, the record is the
        /// resolution); [`Strategy::Forward`] for every monadic query.
        strategy: Strategy,
        /// Measured evaluation wall time.
        eval_ns: u64,
    },
}

/// One served query: the (shared) result plus per-query trace data —
/// the "per-query stats" surface of the serving layer.
#[derive(Clone, Debug)]
pub struct QueryResponse {
    /// The selected node set (monadic) or reachable end set (binary).
    pub result: Arc<BitSet>,
    /// Hit / coalesced / evaluated-with-strategy.
    pub served: Served,
    /// Stable digest of the canonical form (log-friendly query id).
    pub fingerprint: u64,
    /// States of the canonical DFA (the paper's query size).
    pub canonical_states: usize,
}

/// Outcome of one [`QueryService::apply_delta`] batch. Of the cache
/// entries whose footprint the batch's edges hit, `patched` now hold the
/// post-batch answer and `invalidated` were dropped; every other entry
/// was unchanged by the batch and kept as it was.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeltaApplied {
    /// Cache entries the batch's edges reached and that were dropped: a
    /// touched label in the entry's live alphabet and either no
    /// footprint or an edge that hits it and a patch that would have
    /// spent more than the entry's evaluation did.
    pub invalidated: usize,
    /// Cache entries the batch's edges reached whose answer was patched
    /// to the post-batch graph's ([`EvalPool::patch`]); they go on
    /// serving hits.
    pub patched: usize,
    /// Whether the accumulated overlay was folded into a fresh CSR
    /// after this batch ([`ServeConfig::delta_compact_threshold`]).
    pub compacted: bool,
    /// Overlay edges still pending after this batch (0 right after a
    /// compaction).
    pub delta_edges: usize,
}

/// Why [`QueryService::apply_delta`] refused a batch. Either way the
/// served graph is unchanged.
#[derive(Debug)]
pub enum DeltaCommitError {
    /// The batch names a node or label the graph does not have. With
    /// persistence attached this is found **before** the batch touches
    /// the write-ahead log.
    Rejected(DeltaError),
    /// Appending or fsyncing the write-ahead log failed, so the batch
    /// cannot be made durable and was **not** applied. Safe to retry
    /// once the underlying problem (e.g. a full disk) is fixed.
    Wal(WalError),
}

impl std::fmt::Display for DeltaCommitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaCommitError::Rejected(e) => write!(f, "{e}"),
            DeltaCommitError::Wal(e) => write!(f, "delta not committed: {e}"),
        }
    }
}

impl std::error::Error for DeltaCommitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DeltaCommitError::Rejected(e) => Some(e),
            DeltaCommitError::Wal(e) => Some(e),
        }
    }
}

/// Aggregate service counters (a consistent snapshot via
/// [`QueryService::stats`]).
#[derive(Clone, Debug, Default)]
pub struct ServeStats {
    /// Submissions answered from the result cache.
    pub hits: u64,
    /// Submissions that were admitted and evaluated.
    pub misses: u64,
    /// Submissions folded onto a concurrent in-flight evaluation.
    pub coalesced: u64,
    /// Graph rebuilds (each clears the cache).
    pub invalidations: u64,
    /// Edge-delta batches applied via [`QueryService::apply_delta`]
    /// (each patches or drops only the entries its edges reach).
    pub deltas_applied: u64,
    /// Cache entries a delta's edges reached and that were dropped, not
    /// patched ([`DeltaApplied::invalidated`]).
    pub label_invalidations: u64,
    /// Delta overlays folded into a fresh CSR after outgrowing
    /// [`ServeConfig::delta_compact_threshold`].
    pub compactions: u64,
    /// Admitted monadic queries, plus the binary queries the planner
    /// resolved to the forward engine.
    pub forward_evals: u64,
    /// Admitted binary queries the planner resolved to the backward
    /// engine (coreach fixpoint, then a certificate-pruned forward
    /// pass).
    pub backward_evals: u64,
    /// Total measured evaluation wall time across admissions.
    pub eval_ns_total: u64,
    /// Interruptible submissions that returned the
    /// [`Interrupt::Deadline`] verdict (budget exhausted before, during
    /// or while waiting on an evaluation).
    pub deadline_exceeded: u64,
    /// Interruptible submissions cancelled by a tripped drain/shutdown
    /// flag ([`Interrupt::Cancelled`]).
    pub cancelled: u64,
}

impl ServeStats {
    /// Submissions that did **not** pay an evaluation: cache hits plus
    /// coalesced waits.
    pub fn reused(&self) -> u64 {
        self.hits + self.coalesced
    }

    /// Fraction of submissions served without evaluating
    /// (`reused / (reused + misses)`); 0.0 before any traffic.
    pub fn hit_rate(&self) -> f64 {
        let total = self.reused() + self.misses;
        if total == 0 {
            0.0
        } else {
            self.reused() as f64 / total as f64
        }
    }
}

/// The service's live metric handles, registered under their stable
/// dotted names in the service's [`MetricsRegistry`]. Mutation sites
/// increment these directly (lock-free sharded atomics — the old
/// `Inner.stats` fields lived under the state mutex); [`ServeStats`]
/// and the `STATS` wire frame are views over the same handles.
struct ServeCounters {
    hits: Counter,
    misses: Counter,
    coalesced: Counter,
    invalidations: Counter,
    deltas_applied: Counter,
    label_invalidations: Counter,
    compactions: Counter,
    forward_evals: Counter,
    backward_evals: Counter,
    eval_ns_total: Counter,
    deadline_exceeded: Counter,
    cancelled: Counter,
    /// Delta batches made durable in the write-ahead log (zero without
    /// attached persistence).
    wal_records_logged: Counter,
    /// Successful WAL checkpoints (snapshot + truncate).
    wal_checkpoints: Counter,
    /// Checkpoint attempts that failed (the write stays durable in the
    /// WAL; retried on the next write).
    wal_checkpoint_failures: Counter,
    /// Resident result-cache entries (kept in step with the cache under
    /// the state lock).
    cache_entries: Gauge,
    /// Accounted resident result-cache bytes.
    cache_bytes_used: Gauge,
    /// The cache's configured byte budget.
    cache_bytes_budget: Gauge,
    /// Heap bytes of the served graph's frozen CSR
    /// ([`GraphDb::heap_bytes`]), set whenever a new CSR is served: at
    /// construction, on a rebuild and on a compaction.
    graph_bytes: Gauge,
    /// Per-BFS-level wall time, fed from trace level samples.
    eval_level_ns: Histogram,
    /// Per-BFS-level frontier popcount, fed from trace level samples.
    eval_frontier: Histogram,
    /// Evaluation-slot wait of network-submitted queries.
    queue_wait: Histogram,
    /// The time a write waits for the evaluations already running.
    write_wait: Histogram,
    /// The time a write holds the state lock to swap the graph and
    /// patch or drop the cache entries the batch hit.
    write_hold: Histogram,
}

impl ServeCounters {
    fn register(registry: &crate::telemetry::MetricsRegistry) -> Self {
        ServeCounters {
            hits: registry.counter("serve.hits"),
            misses: registry.counter("serve.misses"),
            coalesced: registry.counter("serve.coalesced"),
            invalidations: registry.counter("serve.invalidations"),
            deltas_applied: registry.counter("serve.deltas_applied"),
            label_invalidations: registry.counter("serve.label_invalidations"),
            compactions: registry.counter("serve.compactions"),
            forward_evals: registry.counter("serve.forward_evals"),
            backward_evals: registry.counter("serve.backward_evals"),
            eval_ns_total: registry.counter("serve.eval_ns_total"),
            deadline_exceeded: registry.counter("serve.deadline_exceeded"),
            cancelled: registry.counter("serve.cancelled"),
            wal_records_logged: registry.counter("wal.records_logged"),
            wal_checkpoints: registry.counter("wal.checkpoints"),
            wal_checkpoint_failures: registry.counter("wal.checkpoint_failures"),
            cache_entries: registry.gauge("cache.entries"),
            cache_bytes_used: registry.gauge("cache.bytes_used"),
            cache_bytes_budget: registry.gauge("cache.bytes_budget"),
            graph_bytes: registry.gauge("graph.bytes"),
            eval_level_ns: registry.histogram("eval.level", "ns"),
            eval_frontier: registry.histogram("eval.frontier", "nodes"),
            queue_wait: registry.histogram("serve.queue_wait", "ns"),
            write_wait: registry.histogram("serve.write_wait", "ns"),
            write_hold: registry.histogram("serve.write_hold", "ns"),
        }
    }

    /// Refreshes the cache occupancy gauges; called at every cache
    /// mutation site, under the state lock that guards the cache.
    fn sync_cache_gauges(&self, cache: &ResultCache) {
        self.cache_entries.set(cache.len() as u64);
        self.cache_bytes_used.set(cache.bytes() as u64);
    }
}

/// State of an in-flight ticket.
enum TicketState {
    /// The owning thread is still evaluating.
    Pending,
    /// Evaluation finished; every waiter gets this shared result.
    Done(Arc<BitSet>),
    /// The owner unwound (panic or interrupt) before completion:
    /// waiters must re-admit instead of hanging.
    Abandoned,
}

/// Ticket one thread evaluates against while duplicates wait.
struct InFlight {
    slot: Mutex<TicketState>,
    ready: Condvar,
}

impl InFlight {
    fn new() -> Self {
        InFlight {
            slot: Mutex::new(TicketState::Pending),
            ready: Condvar::new(),
        }
    }

    /// Blocks until the owner publishes (`Some`) or abandons (`None`),
    /// honoring the waiter's own cancel token: a coalesced submission
    /// with a deadline must not inherit its owner's (possibly unbounded)
    /// budget, so a tripped token is an `Err` verdict while the owner
    /// keeps evaluating for its other waiters.
    fn wait_interruptible(&self, cancel: &CancelToken) -> Result<Option<Arc<BitSet>>, Interrupt> {
        let slot = wait_while(&self.ready, self.slot.lock().unwrap(), cancel, |slot| {
            matches!(slot, TicketState::Pending)
        })?;
        match &*slot {
            TicketState::Done(result) => Ok(Some(result.clone())),
            _ => Ok(None),
        }
    }

    fn complete(&self, result: Arc<BitSet>) {
        *self.slot.lock().unwrap() = TicketState::Done(result);
        self.ready.notify_all();
    }

    /// Marks a never-completed ticket abandoned and wakes its waiters.
    fn abandon(&self) {
        let mut slot = self.slot.lock().unwrap();
        if matches!(*slot, TicketState::Pending) {
            *slot = TicketState::Abandoned;
            self.ready.notify_all();
        }
    }
}

/// Waits on `condvar` while `blocked` holds for the state `guard`
/// locks, honoring `cancel`: a tripped token ends the wait with its
/// verdict. Timed waits bounded by the token's deadline, and by a
/// polling cap so a bare drain flag is seen promptly, stand in for the
/// notification a cancel token cannot send.
fn wait_while<'a, T>(
    condvar: &Condvar,
    mut guard: MutexGuard<'a, T>,
    cancel: &CancelToken,
    mut blocked: impl FnMut(&T) -> bool,
) -> Result<MutexGuard<'a, T>, Interrupt> {
    const FLAG_POLL: Duration = Duration::from_millis(20);
    while blocked(&guard) {
        if cancel.is_never() {
            guard = condvar.wait(guard).unwrap();
            continue;
        }
        cancel.check()?;
        let wait = cancel
            .deadline()
            .map(|d| d.saturating_duration_since(Instant::now()).min(FLAG_POLL))
            .unwrap_or(FLAG_POLL)
            .max(Duration::from_millis(1));
        guard = condvar.wait_timeout(guard, wait).unwrap().0;
    }
    Ok(guard)
}

/// Drop guard held by an admitted evaluation until it publishes: if
/// the evaluation is interrupted or unwinds, it deregisters the ticket,
/// returns the scratch to the pool and abandons the ticket, so
/// coalesced waiters retry instead of hanging forever on a Condvar
/// nobody will signal. Only a ticket's owner removes it from the table.
struct AdmissionGuard<'a> {
    service: &'a QueryService,
    key: &'a CacheKey,
    ticket: &'a InFlight,
    /// The lent scratch, until publication takes it back.
    scratch: Option<Box<EvalScratch>>,
}

impl Drop for AdmissionGuard<'_> {
    fn drop(&mut self) {
        let Some(scratch) = self.scratch.take() else {
            return;
        };
        // Unwinding: tolerate a poisoned lock — the state itself is a
        // plain map and counters, always structurally valid.
        let mut inner = self
            .service
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        self.service.retire(&mut inner, self.key, scratch);
        drop(inner);
        self.ticket.abandon();
    }
}

/// Everything the probe-or-admit decision must see atomically.
struct Inner {
    graph: Arc<GraphDb>,
    cache: ResultCache,
    inflight: HashMap<CacheKey, Arc<InFlight>>,
    /// Binary queries' plans keyed by canonical form: a fingerprint
    /// replay (same canonical query, cache-missed because of eviction
    /// or a source change) skips the planner's frontier simulation.
    /// Cleared on rebuild — plans embed the
    /// *graph's* label statistics — and cleared wholesale when it
    /// outgrows [`PLAN_CACHE_MAX`] entries (plans are tiny; the bound
    /// only guards against unbounded distinct-query streams).
    plans: HashMap<CanonicalQuery, Arc<QueryPlan>>,
    /// Set by a write from before it waits for the running evaluations
    /// until its swap is done; no evaluation is admitted meanwhile.
    writing: bool,
    /// The evaluation buffers of the evaluations not running. Admission
    /// lends one and publication or abandonment takes it back, so there
    /// are never more than the peak number of concurrent evaluations; a
    /// write, which runs only when no evaluation does, borrows one.
    scratches: Vec<EvalScratch>,
}

/// Plan-cache entry bound; see [`Inner::plans`].
const PLAN_CACHE_MAX: usize = 4096;

/// What the probe decided for one submission.
enum Admission {
    Done(Arc<BitSet>, Served),
    Wait(Arc<InFlight>),
    /// This submission owns the key's ticket, and evaluates on the served
    /// graph in a scratch lent from the pool (boxed: an `EvalScratch` is
    /// several hundred bytes).
    Evaluate(Arc<InFlight>, Arc<GraphDb>, Box<EvalScratch>),
}

/// The multi-client RPQ query service. See the module docs for the
/// pipeline; construction is cheap and spawns no thread.
///
/// `QueryService` is `Sync`: share one instance (e.g. behind an `Arc`)
/// across every client thread.
///
/// ```
/// use pathlearn_automata::Regex;
/// use pathlearn_graph::graph::figure3_g0;
/// use pathlearn_server::{QueryService, ServeConfig};
///
/// let service = QueryService::new(figure3_g0(), ServeConfig::default());
/// let graph = service.graph();
/// let query = |expr: &str| Regex::parse(expr, graph.alphabet()).unwrap().to_dfa(3);
///
/// let first = service.query_monadic(&query("(a·b)*·c"));
/// // An equivalent spelling is a cache hit on the same entry.
/// let second = service.query_monadic(&query("c+a·b·(a·b)*·c"));
/// assert_eq!(first.result, second.result);
/// assert_eq!(service.stats().hits, 1);
/// ```
pub struct QueryService {
    inner: Mutex<Inner>,
    /// Signalled under `inner` when a waiting write sees the in-flight
    /// table empty, and when the write is done, for the misses that
    /// wait to be admitted.
    quiet: Condvar,
    pool: EvalPool,
    strategy: Strategy,
    eval_holdoff: Duration,
    delta_compact_threshold: Option<usize>,
    /// The unified registry + trace sink this service owns; every layer
    /// above (front door, admin surface) shares it via
    /// [`QueryService::telemetry`].
    telemetry: Arc<Telemetry>,
    /// Live handles into `telemetry.registry` for the hot-path
    /// increments.
    counters: ServeCounters,
    /// The writer mutex: every [`QueryService::apply_delta`], durable
    /// or not, holds it from reading the served graph to swapping in the
    /// patched one. Locked **before** `inner` (and never while holding
    /// it). It guards the durability, when attached: the WAL the delta
    /// path logs into before applying.
    writer: Mutex<Option<Persistence>>,
    /// The WAL status the writer last published, read without the
    /// writer mutex.
    durability: Durability,
}

/// WAL status for readiness reporting, published by the writer when
/// persistence is attached and after every durable write, so that a
/// health check never waits for a write.
#[derive(Default)]
struct Durability {
    attached: AtomicBool,
    wal_records: AtomicU64,
    checkpoint_threshold: AtomicU64,
}

impl Durability {
    fn publish(&self, persistence: &Persistence) {
        self.wal_records
            .store(persistence.wal_records() as u64, Ordering::Relaxed);
        self.checkpoint_threshold
            .store(persistence.checkpoint_threshold() as u64, Ordering::Relaxed);
        self.attached.store(true, Ordering::Release);
    }
}

impl QueryService {
    /// Builds a service for `graph` under `config`.
    pub fn new(graph: GraphDb, config: ServeConfig) -> Self {
        let telemetry = Arc::new(Telemetry::new(config.slow_query_threshold));
        let counters = ServeCounters::register(&telemetry.registry);
        let cache = ResultCache::new(config.cache);
        cache.counters().register(&telemetry.registry);
        counters
            .cache_bytes_budget
            .set(cache.capacity_bytes() as u64);
        counters.graph_bytes.set(graph.heap_bytes() as u64);
        QueryService {
            inner: Mutex::new(Inner {
                graph: Arc::new(graph),
                cache,
                inflight: HashMap::new(),
                plans: HashMap::new(),
                writing: false,
                scratches: Vec::new(),
            }),
            quiet: Condvar::new(),
            pool: EvalPool::sequential().with_step_policy(config.step_policy),
            strategy: config.strategy,
            eval_holdoff: config.eval_holdoff,
            delta_compact_threshold: config.delta_compact_threshold,
            telemetry,
            counters,
            writer: Mutex::new(None),
            durability: Durability::default(),
        }
    }

    /// The service's telemetry bundle: the unified [`MetricsRegistry`]
    /// every `serve.*` / `cache.*` / `wal.*` / `eval.*` metric lives in
    /// (the front door adds its `net.*` family to the same registry)
    /// and the trace sink behind the `/slow` admin page.
    ///
    /// [`MetricsRegistry`]: crate::telemetry::MetricsRegistry
    pub fn telemetry(&self) -> Arc<Telemetry> {
        self.telemetry.clone()
    }

    /// WAL status for readiness reporting, when persistence is
    /// attached: `(wal_records, checkpoint_threshold)` as of the last
    /// applied write. Reads what the writer published, so it never
    /// waits for a write in progress.
    pub fn persistence_status(&self) -> Option<(u64, u64)> {
        let status = &self.durability;
        status.attached.load(Ordering::Acquire).then(|| {
            (
                status.wal_records.load(Ordering::Relaxed),
                status.checkpoint_threshold.load(Ordering::Relaxed),
            )
        })
    }

    /// Attaches an open snapshot+WAL pair (see
    /// [`crate::wal::Persistence::recover`]). From now on
    /// [`QueryService::apply_delta`] logs every batch before applying
    /// it, and checkpoints past the WAL's record threshold.
    pub fn attach_persistence(&self, persistence: Persistence) {
        let mut writer = self.writer.lock().unwrap();
        self.durability.publish(&persistence);
        *writer = Some(persistence);
    }

    /// Whether a persistence layer is attached. Never waits for a
    /// write.
    pub fn is_durable(&self) -> bool {
        self.durability.attached.load(Ordering::Acquire)
    }

    /// The currently served graph (the `Arc` stays valid across
    /// rebuilds for results already in hand).
    pub fn graph(&self) -> Arc<GraphDb> {
        self.inner.lock().unwrap().graph.clone()
    }

    /// Snapshot of the aggregate service counters — a view over the
    /// live telemetry registry handles (no state lock taken).
    pub fn stats(&self) -> ServeStats {
        let c = &self.counters;
        ServeStats {
            hits: c.hits.get(),
            misses: c.misses.get(),
            coalesced: c.coalesced.get(),
            invalidations: c.invalidations.get(),
            deltas_applied: c.deltas_applied.get(),
            label_invalidations: c.label_invalidations.get(),
            compactions: c.compactions.get(),
            forward_evals: c.forward_evals.get(),
            backward_evals: c.backward_evals.get(),
            eval_ns_total: c.eval_ns_total.get(),
            deadline_exceeded: c.deadline_exceeded.get(),
            cancelled: c.cancelled.get(),
        }
    }

    /// `(resident entries, resident bytes)` of the result cache.
    pub fn cache_usage(&self) -> (usize, usize) {
        let inner = self.inner.lock().unwrap();
        (inner.cache.len(), inner.cache.bytes())
    }

    /// Capacity-planning estimate: how many answers for the **current
    /// graph** the cache's byte budget can hold
    /// ([`GraphDb::result_bytes`] per monadic/binary result, ignoring
    /// the small per-entry overhead).
    pub fn cache_capacity_results(&self) -> usize {
        let inner = self.inner.lock().unwrap();
        inner.cache.capacity_bytes() / inner.graph.result_bytes().max(1)
    }

    /// Swaps in a rebuilt graph and clears the result cache and the
    /// plans. The exclusive borrow is the whole fence: no submission can
    /// be in flight, so no pre-rebuild answer reaches the new cache and
    /// no post-rebuild submission coalesces onto an old-graph
    /// evaluation. A service behind a shared reference — one owned by a
    /// [`crate::Server`], say — cannot be rebuilt at all:
    ///
    /// ```compile_fail,E0596
    /// use pathlearn_graph::graph::figure3_g0;
    /// use pathlearn_server::{NetConfig, QueryService, ServeConfig, Server};
    ///
    /// let service = QueryService::new(figure3_g0(), ServeConfig::default());
    /// let server = Server::bind(service, "127.0.0.1:0", NetConfig::default()).unwrap();
    /// server.service().rebuild_graph(figure3_g0());
    /// ```
    pub fn rebuild_graph(&mut self, graph: GraphDb) {
        let inner = self.inner.get_mut().unwrap();
        debug_assert!(inner.inflight.is_empty());
        self.counters.graph_bytes.set(graph.heap_bytes() as u64);
        inner.graph = Arc::new(graph);
        inner.cache.clear();
        // Plans embed per-label statistics of the outgoing graph, and
        // the pooled scratches are sized for it.
        inner.plans.clear();
        inner.scratches.clear();
        self.counters.sync_cache_gauges(&inner.cache);
        self.counters.invalidations.inc();
    }

    /// Patches the served graph with an edge-delta batch —
    /// `(G ∖ remove) ∪ add`, see [`GraphDb::with_delta`] — instead of
    /// rebuilding it, and brings **only** the cache entries the batch's
    /// edges reach up to date (module docs, *Edge deltas*): each is
    /// patched to the new graph's answer, or dropped when the patch
    /// would cost more than the entry's evaluation did. Every other
    /// entry keeps serving hits: its answer is provably unchanged. The
    /// plan cache survives (plans are tuning, not truth), and the
    /// overlay is folded into a fresh CSR once it outgrows
    /// [`ServeConfig::delta_compact_threshold`].
    ///
    /// The patched graph is built, and compacted when due, before the
    /// write takes the state lock; building it is the batch's
    /// validation. The write then takes the state lock, marks the
    /// service as writing so that no new evaluation is admitted, and
    /// waits until the in-flight table is empty: it waits for the
    /// evaluations already running (each bounded by its cancel token;
    /// an in-process [`CancelToken::never`] one is not), recorded in
    /// `serve.write_wait`. Without letting the lock go it swaps the
    /// graph and patches or drops the entries it hits, in a scratch
    /// from the evaluations' pool, then wakes the misses that waited.
    /// Writes are serialized.
    ///
    /// When a persistence layer is attached
    /// ([`QueryService::attach_persistence`]), the built batch is
    /// appended to the write-ahead log and **fsynced** — and only then
    /// applied. A caller that sees `Ok` therefore holds a write that
    /// survives a crash; a caller that sees `Err` knows the graph is
    /// unchanged (a batch that fails validation is never logged, and a
    /// batch whose log append fails is never applied).
    ///
    /// After a durable apply the WAL is checkpointed if it has grown
    /// past its record threshold (fresh snapshot + truncate). The
    /// snapshot is written from the served graph **as it is** — the
    /// encoder merges a pending overlay into the bytes, nothing is
    /// compacted for the checkpoint and the served handle keeps its
    /// overlay. A failed checkpoint does **not** fail the write — the
    /// batch is already durable in the WAL — it is reported on stderr
    /// and retried on the next write.
    pub fn apply_delta(
        &self,
        add: &[Edge],
        remove: &[Edge],
    ) -> Result<DeltaApplied, DeltaCommitError> {
        let mut persistence = self.writer.lock().unwrap();
        let graph = self.graph();
        let mut patched = graph
            .with_delta(add, remove)
            .map_err(DeltaCommitError::Rejected)?;
        let threshold = self
            .delta_compact_threshold
            .unwrap_or_else(|| (graph.num_edges() / 8).max(1024));
        let compacted = patched.delta_edges() > threshold;
        if compacted {
            patched = patched.compact();
        }
        if let Some(persistence) = persistence.as_mut() {
            persistence
                .log_batch(add, remove)
                .map_err(DeltaCommitError::Wal)?;
            self.counters.wal_records_logged.inc();
        }
        let patched = Arc::new(patched);
        let waited = Instant::now();
        let mut inner = self.inner.lock().unwrap();
        inner.writing = true;
        let mut inner = self
            .quiet
            .wait_while(inner, |inner| !inner.inflight.is_empty())
            .unwrap();
        self.counters
            .write_wait
            .record(waited.elapsed().as_nanos() as u64);
        let held = Instant::now();
        inner.graph = patched.clone();
        let batch = Batch {
            before: &graph,
            after: &patched,
            add,
            remove,
        };
        let Inner {
            cache, scratches, ..
        } = &mut *inner;
        let mut scratch = scratches.pop();
        // A patch may spend what the entry's evaluation spent.
        let outcome = cache.patch_edges(add, remove, |key, answer, footprint, cost| {
            let scratch = scratch.get_or_insert_default();
            self.pool
                .patch(scratch, key.query.dfa(), answer, footprint, &batch, cost)
        });
        scratches.extend(scratch);
        inner.writing = false;
        self.counters.sync_cache_gauges(&inner.cache);
        self.counters
            .write_hold
            .record(held.elapsed().as_nanos() as u64);
        drop(inner);
        self.quiet.notify_all();
        if compacted {
            self.counters.compactions.inc();
            self.counters.graph_bytes.set(patched.heap_bytes() as u64);
        }
        self.counters
            .label_invalidations
            .add(outcome.dropped as u64);
        self.counters.deltas_applied.inc();
        if let Some(persistence) = persistence.as_mut() {
            match persistence.maybe_checkpoint(&patched) {
                Ok(true) => self.counters.wal_checkpoints.inc(),
                Ok(false) => {}
                Err(error) => {
                    // Best-effort: the write is already durable in the WAL.
                    self.counters.wal_checkpoint_failures.inc();
                    eprintln!("warning: checkpoint failed (will retry on next write): {error}");
                }
            }
            self.durability.publish(persistence);
        }
        Ok(DeltaApplied {
            invalidated: outcome.dropped,
            patched: outcome.patched,
            compacted,
            delta_edges: patched.delta_edges(),
        })
    }

    /// Serves the monadic query `q(G)`. Equal to
    /// [`pathlearn_graph::eval::eval_monadic`] on the current graph,
    /// bit-for-bit, however it is served.
    pub fn query_monadic(&self, query: &Dfa) -> QueryResponse {
        self.serve(CacheKey::monadic(CanonicalQuery::new(query)))
    }

    /// Serves binary semantics from `source`. Equal to
    /// [`pathlearn_graph::eval::eval_binary_from`]. Sources outside the
    /// current graph yield the empty set.
    pub fn query_binary_from(&self, query: &Dfa, source: NodeId) -> QueryResponse {
        self.serve(CacheKey::binary(CanonicalQuery::new(query), source))
    }

    /// Pre-canonicalized monadic entry point: lets callers that already
    /// hold a [`CanonicalQuery`] (e.g. a planner layer) skip the
    /// minimize pass.
    pub fn query_monadic_canonical(&self, query: CanonicalQuery) -> QueryResponse {
        self.serve(CacheKey::monadic(query))
    }

    /// Pre-canonicalized binary entry point (see
    /// [`QueryService::query_monadic_canonical`]).
    pub fn query_binary_canonical(&self, query: CanonicalQuery, source: NodeId) -> QueryResponse {
        self.serve(CacheKey::binary(query, source))
    }

    /// The one submission path; every `query_*` method is a shorthand
    /// over it. Serves `key` — a hit, a coalesced wait on an in-flight
    /// evaluation of the same key, or an admitted evaluation — under
    /// `cancel`: the token is consulted before admission, while a miss
    /// waits for a write to land before it is admitted, once per BFS
    /// level during evaluation, and while waiting on a coalesced ticket.
    /// A tripped token returns the [`Interrupt`] verdict — counted in
    /// [`ServeStats::deadline_exceeded`] / [`ServeStats::cancelled`] —
    /// and, when this caller owned the evaluation, abandons the ticket
    /// so coalesced waiters re-admit instead of hanging.
    ///
    /// `queue_wait` is the time the submission already spent waiting for
    /// admission before it got here (the network front door passes its
    /// wait for an evaluation slot; it lands in the query's trace and
    /// the `serve.queue_wait` histogram); `None` for a submission that
    /// never waited.
    ///
    /// An admitted evaluation runs in a scratch lent from the service's
    /// pool (module docs): it grows to a few node bitsets per query
    /// state, keeps that capacity, and is reused by later evaluations
    /// on any thread, so the miss path allocates no bitset once the pool
    /// has grown (reuse never changes results — `EvalScratch` docs).
    pub fn submit(
        &self,
        key: CacheKey,
        cancel: &CancelToken,
        queue_wait: Option<Duration>,
    ) -> Result<QueryResponse, Interrupt> {
        let queue_wait_ns = queue_wait.map_or(0, |wait| wait.as_nanos() as u64);
        if queue_wait.is_some() {
            self.counters.queue_wait.record(queue_wait_ns);
        }
        let trace = Self::trace_for(&key, queue_wait_ns);
        self.serve_with_trace(key, cancel, trace)
    }

    /// Answers `key` on the calling thread **iff its result is
    /// resident** — the front door's fast path, run before a query
    /// takes an evaluation slot, because a hit needs none. A hit is
    /// exactly [`QueryService::submit`]'s hit (same probe, `serve.hits`
    /// / `cache.hits`, GDSF refresh, an `outcome=hit` trace with queue
    /// wait 0 — it never waited for a slot, so `serve.queue_wait` does
    /// not move); a miss returns
    /// `None` having touched **no** counter and left no trace, so
    /// the caller submits it the admitted way and it is counted there,
    /// once.
    pub fn try_hit(&self, key: &CacheKey) -> Option<QueryResponse> {
        let mut trace = Self::trace_for(key, 0);
        let result = trace.span("cache_probe", || {
            self.probe_hit(&mut self.inner.lock().unwrap(), key)
        })?;
        self.record_trace(trace, key, Served::Hit, Vec::new(), &result);
        Some(Self::respond(key, result, Served::Hit))
    }

    fn trace_for(key: &CacheKey, queue_wait_ns: u64) -> TraceBuilder {
        let kind = match key.kind {
            QueryKind::Monadic => "monadic",
            QueryKind::Binary(_) => "binary",
        };
        TraceBuilder::new(key.query.fingerprint(), kind, queue_wait_ns)
    }

    fn respond(key: &CacheKey, result: Arc<BitSet>, served: Served) -> QueryResponse {
        QueryResponse {
            result,
            served,
            fingerprint: key.query.fingerprint(),
            canonical_states: key.query.num_states(),
        }
    }

    /// The hit probe — [`QueryService::admit`] and
    /// [`QueryService::try_hit`] both run it, so a hit is counted
    /// (`serve.hits`, `cache.hits`) in one place. A miss counts nothing
    /// here.
    fn probe_hit(&self, inner: &mut Inner, key: &CacheKey) -> Option<Arc<BitSet>> {
        let result = inner.cache.get_resident(key)?;
        self.counters.hits.inc();
        Some(result)
    }

    /// Probe-or-admit under one lock acquisition — or, for a miss that
    /// would evaluate while a write waits, one more per wake-up: it
    /// waits for the write (under `cancel`) and probes again, because
    /// the write may have patched the answer in.
    fn admit(&self, key: &CacheKey, cancel: &CancelToken) -> Result<Admission, Interrupt> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(result) = self.probe_hit(&mut inner, key) {
                return Ok(Admission::Done(result, Served::Hit));
            }
            if !inner.writing || inner.inflight.contains_key(key) {
                break;
            }
            inner = wait_while(&self.quiet, inner, cancel, |inner| inner.writing)?;
        }
        // From here on this is an admitted lookup that missed.
        inner.cache.counters().misses.inc();
        if let Some(ticket) = inner.inflight.get(key).cloned() {
            self.counters.coalesced.inc();
            return Ok(Admission::Wait(ticket));
        }
        let ticket = Arc::new(InFlight::new());
        inner.inflight.insert(key.clone(), ticket.clone());
        let scratch = Box::new(inner.scratches.pop().unwrap_or_default());
        Ok(Admission::Evaluate(ticket, inner.graph.clone(), scratch))
    }

    /// Ends an admitted evaluation, published or not: deregisters its
    /// ticket and takes its scratch back, and wakes a write that waits
    /// for the last running evaluation. Runs under the state lock.
    fn retire(&self, inner: &mut Inner, key: &CacheKey, scratch: Box<EvalScratch>) {
        inner.inflight.remove(key);
        inner.scratches.push(*scratch);
        if inner.writing && inner.inflight.is_empty() {
            self.quiet.notify_all();
        }
    }

    /// [`QueryService::submit`] for callers that neither cancel nor
    /// wait for admission.
    fn serve(&self, key: CacheKey) -> QueryResponse {
        match self.submit(key, &CancelToken::never(), None) {
            Ok(response) => response,
            Err(interrupt) => unreachable!("never-token submission interrupted: {interrupt}"),
        }
    }

    /// Records an interrupted submission in the counters and forwards
    /// the verdict.
    fn note_interrupt(&self, interrupt: Interrupt) -> Interrupt {
        match interrupt {
            Interrupt::Deadline => self.counters.deadline_exceeded.inc(),
            Interrupt::Cancelled => self.counters.cancelled.inc(),
        }
        interrupt
    }

    /// [`QueryService::note_interrupt`] sealing and recording the
    /// submission's trace with the verdict as its outcome.
    fn note_interrupt_traced(
        &self,
        interrupt: Interrupt,
        trace: TraceBuilder,
        key: &CacheKey,
    ) -> Interrupt {
        let outcome = match interrupt {
            Interrupt::Deadline => "deadline",
            Interrupt::Cancelled => "cancelled",
        };
        self.telemetry.traces.record(trace.finish(
            outcome,
            "-",
            Vec::new(),
            0,
            key.query.num_states() as u32,
        ));
        self.note_interrupt(interrupt)
    }

    /// Seals and records a successfully-served trace, feeding its level
    /// samples into the `eval.level` / `eval.frontier` histograms.
    fn record_trace(
        &self,
        trace: TraceBuilder,
        key: &CacheKey,
        served: Served,
        levels: Vec<pathlearn_graph::LevelSample>,
        result: &BitSet,
    ) {
        for sample in &levels {
            self.counters.eval_level_ns.record(sample.nanos);
            self.counters.eval_frontier.record(sample.frontier);
        }
        let (outcome, strategy) = match served {
            Served::Hit => ("hit", "-"),
            Served::Coalesced => ("coalesced", "-"),
            Served::Evaluated { strategy, .. } => ("evaluated", strategy.as_str()),
        };
        self.telemetry.traces.record(trace.finish(
            outcome,
            strategy,
            levels,
            result.len() as u64,
            key.query.num_states() as u32,
        ));
    }

    /// The serving loop, recording every outcome into `trace`. The
    /// trace is sealed exactly once per submission — with the served
    /// outcome, or the interrupt verdict.
    fn serve_with_trace(
        &self,
        key: CacheKey,
        cancel: &CancelToken,
        mut trace: TraceBuilder,
    ) -> Result<QueryResponse, Interrupt> {
        loop {
            let admitted = cancel
                .check()
                .and_then(|()| trace.span("cache_probe", || self.admit(&key, cancel)));
            let admission = match admitted {
                Ok(admission) => admission,
                Err(interrupt) => return Err(self.note_interrupt_traced(interrupt, trace, &key)),
            };
            match admission {
                Admission::Done(result, served) => {
                    self.record_trace(trace, &key, served, Vec::new(), &result);
                    return Ok(Self::respond(&key, result, served));
                }
                Admission::Wait(ticket) => {
                    let begin = trace.span_begin();
                    let waited = ticket.wait_interruptible(cancel);
                    trace.span_end("coalesce_wait", begin);
                    match waited {
                        Ok(Some(result)) => {
                            self.record_trace(trace, &key, Served::Coalesced, Vec::new(), &result);
                            return Ok(Self::respond(&key, result, Served::Coalesced));
                        }
                        // The owner unwound before publishing: re-admit
                        // (this thread may become the new owner).
                        Ok(None) => continue,
                        Err(interrupt) => {
                            return Err(self.note_interrupt_traced(interrupt, trace, &key))
                        }
                    }
                }
                Admission::Evaluate(ticket, graph, scratch) => {
                    // Until the answer is published, its ticket keeps a
                    // write waiting, so `graph` is still the served one
                    // when the answer lands in the cache.
                    let mut guard = AdmissionGuard {
                        service: self,
                        key: &key,
                        ticket: &ticket,
                        scratch: Some(scratch),
                    };
                    let scratch = guard.scratch.as_deref_mut().expect("lent until published");
                    let eval_begin = trace.span_begin();
                    let (evaluated, levels) = pathlearn_graph::collect_levels(|| {
                        self.evaluate(scratch, &graph, &key, &mut trace, cancel)
                    });
                    trace.span_end("eval", eval_begin);
                    let (result, outcome) = match evaluated {
                        Ok(evaluated) => evaluated,
                        Err(interrupt) => {
                            // The guard's drop deregisters the ticket,
                            // returns the scratch and abandons the
                            // ticket, so coalesced waiters re-admit (one
                            // may finish the job under its own, longer
                            // budget).
                            drop(guard);
                            return Err(self.note_interrupt_traced(interrupt, trace, &key));
                        }
                    };
                    let result = Arc::new(result);
                    let served = Served::Evaluated {
                        strategy: outcome.strategy,
                        eval_ns: outcome.eval_ns,
                    };
                    let scratch = guard.scratch.take().expect("lent until published");
                    trace.span("publish", || {
                        self.publish(&key, &ticket, result.clone(), outcome, scratch)
                    });
                    self.record_trace(trace, &key, served, levels, &result);
                    return Ok(Self::respond(&key, result, served));
                }
            }
        }
    }

    /// The plan of binary `key`'s canonical form on `graph`: served
    /// from the plan cache on a canonical replay, computed (direction
    /// estimate, outside the lock) and published otherwise.
    fn plan_for(&self, graph: &GraphDb, key: &CacheKey) -> Arc<QueryPlan> {
        if let Some(plan) = self.inner.lock().unwrap().plans.get(&key.query) {
            return plan.clone();
        }
        let plan = Arc::new(plan_query_forced(key.query.dfa(), graph, self.strategy));
        let mut inner = self.inner.lock().unwrap();
        if inner.plans.len() >= PLAN_CACHE_MAX {
            inner.plans.clear();
        }
        inner
            .plans
            .entry(key.query.clone())
            .or_insert_with(|| plan.clone());
        plan
    }

    /// Executes one admitted query: one [`EvalPool::evaluate`] call on
    /// this thread, in `scratch`, whose plan and goal follow from the
    /// key's kind. The outcome's [`Strategy`] is the resolved direction
    /// (never `Auto`), and its cost and footprint are what the search
    /// left in `scratch`. A binary query's planning pass is recorded in
    /// `trace` as its own span; a monadic one has nothing to plan.
    fn evaluate(
        &self,
        scratch: &mut EvalScratch,
        graph: &GraphDb,
        key: &CacheKey,
        trace: &mut TraceBuilder,
        cancel: &CancelToken,
    ) -> Result<(BitSet, EvalOutcome), Interrupt> {
        let start = Instant::now();
        let (unplanned, planned);
        let (plan, goal, strategy): (&QueryPlan, _, _) = match key.kind {
            // One engine, nothing to plan: a canonical DFA is already
            // trimmed and BFS-numbered, so it is evaluated as given.
            QueryKind::Monadic => {
                unplanned = QueryPlan::forward(key.query.dfa());
                (&unplanned, Goal::Monadic, Strategy::Forward)
            }
            // An out-of-graph source evaluates to the empty answer
            // without running a level.
            QueryKind::Binary(source) => {
                planned = trace.span("plan", || self.plan_for(graph, key));
                (
                    &*planned,
                    Goal::BinaryFrom(source),
                    planned.binary_strategy(),
                )
            }
        };
        let result = self.pool.evaluate(scratch, plan, graph, goal, cancel)?;
        let outcome = EvalOutcome {
            strategy,
            eval_ns: start.elapsed().as_nanos() as u64,
            work: 1 + scratch.spent(),
            footprint: scratch.footprint(plan),
        };
        Ok((result, outcome))
    }

    /// Publishes an evaluated result: cache insert, stats, in-flight
    /// removal with the scratch's return, ticket completion — in that
    /// order, so a new submission arriving after the ticket is gone
    /// finds the cache entry instead. The ticket stays in the table
    /// until the insert, so no write lands between the graph it
    /// evaluated and the insert.
    fn publish(
        &self,
        key: &CacheKey,
        ticket: &InFlight,
        result: Arc<BitSet>,
        outcome: EvalOutcome,
        scratch: Box<EvalScratch>,
    ) {
        let EvalOutcome {
            strategy,
            eval_ns,
            work,
            footprint,
        } = outcome;
        if !self.eval_holdoff.is_zero() {
            std::thread::sleep(self.eval_holdoff);
        }
        self.counters.misses.inc();
        match strategy {
            Strategy::Backward => self.counters.backward_evals.inc(),
            _ => self.counters.forward_evals.inc(),
        }
        self.counters.eval_ns_total.add(eval_ns);
        {
            let mut inner = self.inner.lock().unwrap();
            inner
                .cache
                .insert_with_footprint(key.clone(), result.clone(), work, footprint);
            self.counters.sync_cache_gauges(&inner.cache);
            self.retire(&mut inner, key, scratch);
        }
        ticket.complete(result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathlearn_automata::{Regex, Symbol};
    use pathlearn_graph::eval::{eval_binary_from, eval_monadic};
    use pathlearn_graph::graph::figure3_g0;

    fn query(graph: &GraphDb, expr: &str) -> Dfa {
        Regex::parse(expr, graph.alphabet())
            .unwrap()
            .to_dfa(graph.alphabet().len())
    }

    /// Yields until `ready` holds for the service's state; fails after
    /// 5 s instead of hanging.
    fn wait_for(service: &QueryService, ready: impl Fn(&Inner) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !ready(&service.inner.lock().unwrap()) {
            assert!(Instant::now() < deadline, "the state was never reached");
            std::thread::yield_now();
        }
    }

    impl QueryService {
        /// The scratches the pool holds now.
        pub(crate) fn pooled_scratches(&self) -> usize {
            self.inner.lock().unwrap().scratches.len()
        }
    }

    #[test]
    fn serves_bit_identical_results_and_counts_hits() {
        let graph = figure3_g0();
        let service = QueryService::new(graph.clone(), ServeConfig::default());
        let q = query(&graph, "(a·b)*·c");
        let expected = eval_monadic(&q, &graph);
        let first = service.query_monadic(&q);
        assert_eq!(*first.result, expected);
        assert!(matches!(first.served, Served::Evaluated { .. }));
        // Same query again: a hit on the same Arc.
        let second = service.query_monadic(&q);
        assert_eq!(second.served, Served::Hit);
        assert!(Arc::ptr_eq(&first.result, &second.result));
        // An equivalent spelling hits the same entry.
        let third = service.query_monadic(&query(&graph, "c+a·b·(a·b)*·c"));
        assert_eq!(third.served, Served::Hit);
        assert!(Arc::ptr_eq(&first.result, &third.result));
        assert_eq!(third.fingerprint, first.fingerprint);
        let stats = service.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
        assert!(stats.hit_rate() > 0.6);
        // A language included in a resident one (a·b ⊆ a·b*) is a miss
        // like any other: evaluated, exact, then a hit.
        service.query_monadic(&query(&graph, "a·b*"));
        let subset = query(&graph, "a·b");
        let served = service.query_monadic(&subset);
        assert!(matches!(served.served, Served::Evaluated { .. }));
        assert_eq!(*served.result, eval_monadic(&subset, &graph));
        assert_eq!(service.query_monadic(&subset).served, Served::Hit);
        let stats = service.stats();
        assert_eq!((stats.hits, stats.misses), (3, 3));
    }

    #[test]
    fn binary_results_are_cached_per_source() {
        let graph = figure3_g0();
        let service = QueryService::new(graph.clone(), ServeConfig::default());
        let q = query(&graph, "(a·b)*·c");
        for source in graph.nodes() {
            let response = service.query_binary_from(&q, source);
            assert_eq!(*response.result, eval_binary_from(&q, &graph, source));
        }
        // Second pass: all hits.
        for source in graph.nodes() {
            assert_eq!(service.query_binary_from(&q, source).served, Served::Hit);
        }
        let stats = service.stats();
        assert_eq!(stats.misses, graph.num_nodes() as u64);
        assert_eq!(stats.hits, graph.num_nodes() as u64);
        // An out-of-graph source is served (empty), defensively.
        let far = service.query_binary_from(&q, 10_000);
        assert!(far.result.is_empty());
    }

    #[test]
    fn rebuild_invalidates_and_reevaluates() {
        let graph = figure3_g0();
        let mut service = QueryService::new(graph.clone(), ServeConfig::default());
        let q = query(&graph, "a");
        let before = service.query_monadic(&q);
        assert_eq!(service.cache_usage().0, 1);

        // Rebuild with one a-edge removed from v1: the answer changes.
        let mut builder = pathlearn_graph::GraphBuilder::with_alphabet(graph.alphabet().clone());
        for (src, sym, dst) in graph.edges() {
            let (src, dst) = (graph.node_name(src), graph.node_name(dst));
            if (src, dst) != ("v1", "v2") {
                builder.add_edge(src, graph.alphabet().name(sym), dst);
            }
        }
        let rebuilt = builder.build();
        let expected = eval_monadic(&query(&rebuilt, "a"), &rebuilt);
        service.rebuild_graph(rebuilt);
        assert_eq!(service.cache_usage(), (0, 0), "rebuild clears the cache");

        let after = service.query_monadic(&q);
        assert!(matches!(after.served, Served::Evaluated { .. }));
        assert_eq!(*after.result, expected);
        assert_ne!(*after.result, *before.result);
        assert_eq!(service.stats().invalidations, 1);
    }

    #[test]
    fn concurrent_duplicates_coalesce_onto_one_evaluation() {
        let graph = figure3_g0();
        let config = ServeConfig {
            // Hold published results back so every barrier-released
            // duplicate lands inside the in-flight window.
            eval_holdoff: Duration::from_millis(100),
            ..ServeConfig::default()
        };
        let service = Arc::new(QueryService::new(graph.clone(), config));
        let q = query(&graph, "(a+b)*·c");
        let expected = eval_monadic(&q, &graph);
        let clients = 4;
        let barrier = Arc::new(std::sync::Barrier::new(clients));
        let responses: Vec<QueryResponse> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    let service = service.clone();
                    let barrier = barrier.clone();
                    let q = q.clone();
                    scope.spawn(move || {
                        barrier.wait();
                        service.query_monadic(&q)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for response in &responses {
            assert_eq!(*response.result, expected);
        }
        let stats = service.stats();
        assert_eq!(stats.misses, 1, "exactly one evaluation");
        assert_eq!(
            stats.coalesced + stats.hits,
            clients as u64 - 1,
            "every duplicate reused the one evaluation"
        );
        assert!(stats.coalesced >= 1, "at least one concurrent coalesce");
    }

    #[test]
    fn abandoned_tickets_wake_waiters_and_free_the_key() {
        let graph = figure3_g0();
        let service = QueryService::new(graph.clone(), ServeConfig::default());
        let q = query(&graph, "a");
        let key = CacheKey::monadic(CanonicalQuery::new(&q));
        // Become the owner, then simulate the owner unwinding before
        // publication: the armed guard's drop is exactly that path.
        let Ok(Admission::Evaluate(ticket, _, scratch)) =
            service.admit(&key, &CancelToken::never())
        else {
            panic!("first admission must be an Evaluate");
        };
        let waiter = {
            let ticket = ticket.clone();
            std::thread::spawn(move || ticket.wait_interruptible(&CancelToken::never()).unwrap())
        };
        drop(AdmissionGuard {
            service: &service,
            key: &key,
            ticket: &ticket,
            scratch: Some(scratch),
        });
        assert!(
            waiter.join().unwrap().is_none(),
            "waiter must be released with an abandon signal, not hang"
        );
        // The key is free again: a fresh submission evaluates normally.
        let response = service.query_monadic(&q);
        assert!(matches!(response.served, Served::Evaluated { .. }));
        assert_eq!(*response.result, eval_monadic(&q, &graph));
    }

    #[test]
    fn interruptible_hooks_match_and_count_verdicts() {
        let graph = figure3_g0();
        let service = QueryService::new(graph.clone(), ServeConfig::default());
        let q = query(&graph, "(a·b)*·c");
        let monadic = |q: &Dfa| CacheKey::monadic(CanonicalQuery::new(q));
        let never = CancelToken::never();
        // Never-token submission is the plain path.
        let first = service
            .submit(monadic(&q), &never, None)
            .expect("never token");
        assert_eq!(*first.result, eval_monadic(&q, &graph));
        let bin = service
            .submit(CacheKey::binary(CanonicalQuery::new(&q), 0), &never, None)
            .expect("never token");
        assert_eq!(*bin.result, eval_binary_from(&q, &graph, 0));
        // An expired deadline is rejected before admission and counted.
        let expired = CancelToken::with_deadline(Instant::now());
        assert_eq!(
            service
                .submit(monadic(&query(&graph, "a")), &expired, None)
                .unwrap_err(),
            Interrupt::Deadline
        );
        // A tripped drain flag is the Cancelled verdict.
        let tripped = CancelToken::with_flag(Arc::new(std::sync::atomic::AtomicBool::new(true)));
        assert_eq!(
            service
                .submit(monadic(&query(&graph, "b")), &tripped, None)
                .unwrap_err(),
            Interrupt::Cancelled
        );
        let stats = service.stats();
        assert_eq!((stats.deadline_exceeded, stats.cancelled), (1, 1));
        // The rejected keys were never admitted: no dangling tickets,
        // and a later submission evaluates normally.
        assert!(service.inner.lock().unwrap().inflight.is_empty());
        assert!(matches!(
            service.query_monadic(&query(&graph, "a")).served,
            Served::Evaluated { .. }
        ));
        // The shorthands are the same path: they hit what `submit`
        // cached, Dfa-taking and canonical alike.
        let canonical = CanonicalQuery::new(&q);
        assert!(Arc::ptr_eq(
            &service.query_monadic(&q).result,
            &first.result
        ));
        let via_canonical = service.query_monadic_canonical(canonical.clone());
        assert!(Arc::ptr_eq(&via_canonical.result, &first.result));
        assert!(Arc::ptr_eq(
            &service.query_binary_from(&q, 0).result,
            &bin.result
        ));
        let bin_canonical = service.query_binary_canonical(canonical.clone(), 0);
        assert!(Arc::ptr_eq(&bin_canonical.result, &bin.result));
        assert_eq!(
            *service.query_binary_canonical(canonical, 1).result,
            eval_binary_from(&q, &graph, 1)
        );
        // A queued submission records its wait; the in-process ones
        // above recorded none.
        let queued = service
            .submit(monadic(&q), &never, Some(Duration::from_micros(7)))
            .expect("never token");
        assert_eq!(queued.served, Served::Hit);
        assert_eq!(service.counters.queue_wait.count(), 1);
    }

    #[test]
    fn coalesced_waiter_with_deadline_times_out_without_hurting_the_owner() {
        let graph = figure3_g0();
        let config = ServeConfig {
            // Keep the owner's publication far beyond the waiter's
            // budget.
            eval_holdoff: Duration::from_millis(300),
            ..ServeConfig::default()
        };
        let service = Arc::new(QueryService::new(graph.clone(), config));
        let q = query(&graph, "(a+b)*·c");
        let expected = eval_monadic(&q, &graph);
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let owner = {
            let service = service.clone();
            let barrier = barrier.clone();
            let q = q.clone();
            std::thread::spawn(move || {
                barrier.wait();
                service.query_monadic(&q)
            })
        };
        barrier.wait();
        std::thread::sleep(Duration::from_millis(50));
        // The owner is inside its holdoff; a waiter with a 50ms budget
        // must give up with the Deadline verdict…
        let hurried = CancelToken::with_deadline(Instant::now() + Duration::from_millis(50));
        let key = CacheKey::monadic(CanonicalQuery::new(&q));
        assert_eq!(
            service.submit(key, &hurried, None).unwrap_err(),
            Interrupt::Deadline
        );
        // …while the owner still publishes the full answer.
        let owned = owner.join().unwrap();
        assert_eq!(*owned.result, expected);
        assert_eq!(service.stats().deadline_exceeded, 1);
        assert_eq!(service.query_monadic(&q).served, Served::Hit);
    }

    #[test]
    fn interrupted_owner_abandons_so_waiters_readmit() {
        let graph = figure3_g0();
        let service = Arc::new(QueryService::new(graph.clone(), ServeConfig::default()));
        let q = query(&graph, "c·a*");
        let key = CacheKey::monadic(CanonicalQuery::new(&q));
        // Become the owner with a doomed token: evaluation is never
        // reached — but simulate the owner path by admitting, then
        // letting `submit` hit the eval-time interrupt.
        let Ok(Admission::Evaluate(ticket, _, scratch)) =
            service.admit(&key, &CancelToken::never())
        else {
            panic!("first admission must be an Evaluate");
        };
        // A concurrent coalesced waiter (unbounded token) blocks on the
        // ticket…
        let waiter = {
            let service = service.clone();
            let q = q.clone();
            std::thread::spawn(move || service.query_monadic(&q))
        };
        std::thread::sleep(Duration::from_millis(50));
        // …until the owner's interrupt abandons the ticket; the waiter
        // re-admits and evaluates the query itself.
        drop(AdmissionGuard {
            service: &service,
            key: &key,
            ticket: &ticket,
            scratch: Some(scratch),
        });
        let served = waiter.join().unwrap();
        assert_eq!(*served.result, eval_monadic(&q, &graph));
        assert!(matches!(served.served, Served::Evaluated { .. }));
    }

    #[test]
    fn planner_strategies_are_recorded_and_bit_identical() {
        let graph = figure3_g0();
        let q = query(&graph, "(a·b)*·c");
        let expected_monadic = eval_monadic(&q, &graph);
        // Forcing each direction serves identical bits and lands in the
        // matching stats bucket.
        for (forced, field) in [
            (Strategy::Forward, "forward"),
            (Strategy::Backward, "backward"),
        ] {
            let service = QueryService::new(
                graph.clone(),
                ServeConfig {
                    strategy: forced,
                    ..ServeConfig::default()
                },
            );
            let response = service.query_monadic(&q);
            assert_eq!(*response.result, expected_monadic, "{field}");
            let bin = service.query_binary_from(&q, 0);
            assert_eq!(*bin.result, eval_binary_from(&q, &graph, 0), "{field}");
            let Served::Evaluated { strategy, .. } = bin.served else {
                panic!("binary miss must evaluate");
            };
            assert_eq!(strategy, forced, "{field}");
            // The monadic eval has one engine and lands in the forward
            // bucket whatever is forced; the binary one in the forced
            // bucket.
            let Served::Evaluated { strategy, .. } = response.served else {
                panic!("monadic miss must evaluate");
            };
            assert_eq!(strategy, Strategy::Forward, "{field}");
            let stats = service.stats();
            assert_eq!(stats.misses, 2, "{field}");
            assert_eq!(
                [stats.forward_evals, stats.backward_evals],
                [
                    1 + u64::from(forced == Strategy::Forward),
                    u64::from(forced == Strategy::Backward),
                ],
                "{field}"
            );
        }
        // Auto: the resolution is recorded (never Auto itself), a
        // monadic miss plans nothing, and the plan is cached per
        // canonical query — a second distinct source on the same query
        // replans nothing.
        let mut service = QueryService::new(graph.clone(), ServeConfig::default());
        service.query_monadic(&q);
        assert!(service.inner.lock().unwrap().plans.is_empty());
        let first = service.query_binary_from(&q, 0);
        let Served::Evaluated { strategy, .. } = first.served else {
            panic!("first submission must evaluate");
        };
        assert_ne!(strategy, Strategy::Auto);
        service.query_binary_from(&q, 1);
        assert_eq!(
            service.inner.lock().unwrap().plans.len(),
            1,
            "one canonical query = one cached plan"
        );
        // Rebuild clears the plan cache (plans embed graph statistics).
        service.rebuild_graph(figure3_g0());
        assert!(service.inner.lock().unwrap().plans.is_empty());
    }

    /// Every admitted evaluation lands in exactly one planner bucket, so
    /// the buckets sum to `serve.misses`; and without deadlines every
    /// submission is a hit, a miss or a coalesced wait. A seeded mix of
    /// monadic and binary submissions from three threads, through a
    /// cache small enough to evict, under Auto and every forced
    /// strategy.
    #[test]
    fn planner_buckets_partition_the_misses() {
        let graph = figure3_g0();
        let exprs = [
            "(a·b)*·c",
            "a·b",
            "a*·c",
            "b·a*",
            "(a+b)*·c",
            "c",
            "a·a·a",
            "b*·c",
        ];
        let queries: Vec<CanonicalQuery> = exprs
            .iter()
            .map(|expr| CanonicalQuery::new(&query(&graph, expr)))
            .collect();
        let mut state = 7u64;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % bound) as usize
        };
        let mix: Vec<CacheKey> = (0..300)
            .map(|_| {
                let query = queries[next(queries.len() as u64)].clone();
                match next(graph.num_nodes() as u64 + 2) {
                    0..=1 => CacheKey::monadic(query),
                    source => CacheKey::binary(query, source as NodeId - 2),
                }
            })
            .collect();
        let never = CancelToken::never();
        for strategy in Strategy::ALL {
            let service = QueryService::new(
                graph.clone(),
                ServeConfig {
                    strategy,
                    cache: CacheConfig {
                        capacity_bytes: 4096,
                    },
                    ..ServeConfig::default()
                },
            );
            std::thread::scope(|scope| {
                for part in mix.chunks(mix.len() / 3) {
                    let (service, never) = (&service, &never);
                    scope.spawn(move || {
                        for key in part {
                            service.submit(key.clone(), never, None).unwrap();
                        }
                    });
                }
            });
            let stats = service.stats();
            assert_eq!(
                stats.forward_evals + stats.backward_evals,
                stats.misses,
                "{strategy}: {stats:?}"
            );
            assert_eq!(
                stats.hits + stats.misses + stats.coalesced,
                mix.len() as u64,
                "{strategy}: {stats:?}"
            );
            assert!(stats.hits > 0 && stats.misses > 0, "{strategy}: {stats:?}");
            assert_eq!((stats.deadline_exceeded, stats.cancelled), (0, 0));
        }
    }

    #[test]
    fn delta_invalidates_touched_labels_and_spares_the_rest() {
        let graph = figure3_g0();
        let service = QueryService::new(graph.clone(), ServeConfig::default());
        let qa = query(&graph, "a·b");
        let qb = query(&graph, "b");
        let qc = query(&graph, "c");
        service.query_monadic(&qa);
        service.query_monadic(&qb);
        service.query_monadic(&qc);
        assert_eq!(service.cache_usage().0, 3);

        // Remove one a-edge: only the a-reading entry may change, and it
        // is patched, not dropped.
        let a = graph.alphabet().symbol("a").unwrap();
        let (v1, v2) = (graph.node_id("v1").unwrap(), graph.node_id("v2").unwrap());
        let applied = service.apply_delta(&[], &[(v1, a, v2)]).unwrap();
        assert_eq!((applied.invalidated, applied.patched), (0, 1));
        assert!(!applied.compacted);
        assert_eq!(applied.delta_edges, 1);
        assert_eq!(service.cache_usage().0, 3);
        assert_eq!(service.query_monadic(&qb).served, Served::Hit);
        assert_eq!(service.query_monadic(&qc).served, Served::Hit);

        // The patched touched query matches a from-scratch rebuild of
        // the patched graph: no stale bits anywhere.
        let served = service.query_monadic(&qa);
        assert_eq!(served.served, Served::Hit);
        let patched = service.graph();
        assert!(patched.has_delta());
        let compacted = patched.compact();
        assert_eq!(*served.result, eval_monadic(&qa, &compacted));
        assert_eq!(
            *service.query_monadic(&qb).result,
            eval_monadic(&qb, &compacted)
        );

        let stats = service.stats();
        assert_eq!(stats.deltas_applied, 1);
        assert_eq!(stats.label_invalidations, 0);
        assert_eq!(service.inner.lock().unwrap().cache.stats().patched, 1);
        assert_eq!(stats.invalidations, 0, "no full rebuild happened");

        // Unknown endpoints are rejected without touching anything.
        let err = service.apply_delta(&[(10_000, a, v2)], &[]).unwrap_err();
        assert!(matches!(
            err,
            DeltaCommitError::Rejected(DeltaError::NodeOutOfRange { .. })
        ));
        assert_eq!(service.stats().deltas_applied, 1);
    }

    #[test]
    fn delta_fences_stale_inflight_publishes_but_disjoint_ones_land() {
        let graph = figure3_g0();
        let config = ServeConfig {
            // Keep evaluations in flight long enough to race the delta.
            eval_holdoff: Duration::from_millis(200),
            ..ServeConfig::default()
        };
        let service = Arc::new(QueryService::new(graph.clone(), config));
        let qa = query(&graph, "a");
        let qb = query(&graph, "b");
        let barrier = Arc::new(std::sync::Barrier::new(3));
        let owners: Vec<_> = [qa.clone(), qb.clone()]
            .into_iter()
            .map(|q| {
                let service = service.clone();
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    service.query_monadic(&q)
                })
            })
            .collect();
        barrier.wait();
        std::thread::sleep(Duration::from_millis(50));
        // Both owners are inside their holdoff; the write on label a
        // waits until both have published.
        let a = graph.alphabet().symbol("a").unwrap();
        let (v1, v2) = (graph.node_id("v1").unwrap(), graph.node_id("v2").unwrap());
        service.apply_delta(&[], &[(v1, a, v2)]).unwrap();
        for owner in owners {
            owner.join().unwrap();
        }
        // The a-owner's pre-delta answer was published before the write
        // and patched by it; the b-owner's answer is provably
        // delta-proof and was kept.
        assert_eq!(service.query_monadic(&qb).served, Served::Hit);
        let after = service.query_monadic(&qa);
        assert_eq!(after.served, Served::Hit, "the a-entry was patched");
        assert_eq!(*after.result, eval_monadic(&qa, &service.graph().compact()));
        assert_ne!(
            *after.result,
            eval_monadic(&qa, &graph),
            "the write changed it"
        );
        assert_eq!(service.inner.lock().unwrap().cache.stats().patched, 1);
    }

    #[test]
    fn a_write_waits_for_the_evaluation_it_races() {
        let graph = figure3_g0();
        let config = ServeConfig {
            eval_holdoff: Duration::from_millis(200),
            ..ServeConfig::default()
        };
        let service = Arc::new(QueryService::new(graph.clone(), config));
        let qa = query(&graph, "a");
        let owner = {
            let service = service.clone();
            let qa = qa.clone();
            std::thread::spawn(move || service.query_monadic(&qa))
        };
        std::thread::sleep(Duration::from_millis(50));
        // The owner is inside its holdoff: the write waits for it to
        // publish, then patches the entry it published.
        let a = graph.alphabet().symbol("a").unwrap();
        let (v1, v2) = (graph.node_id("v1").unwrap(), graph.node_id("v2").unwrap());
        let applied = service.apply_delta(&[], &[(v1, a, v2)]).unwrap();
        assert_eq!((applied.invalidated, applied.patched), (0, 1));
        assert_eq!(*owner.join().unwrap().result, eval_monadic(&qa, &graph));
        assert_eq!(service.counters.write_wait.count(), 1);
        assert_eq!(service.counters.write_hold.count(), 1);
        let after = service.query_monadic(&qa);
        assert_eq!(after.served, Served::Hit);
        assert_eq!(*after.result, eval_monadic(&qa, &service.graph().compact()));
    }

    /// Evaluations admitted while a write waits queue behind it: a
    /// reader submitting one miss after another delays a write by at
    /// most the evaluation it is running.
    #[test]
    fn a_write_waits_only_for_the_evaluations_already_running() {
        let graph = figure3_g0();
        let config = ServeConfig {
            eval_holdoff: Duration::from_millis(30),
            ..ServeConfig::default()
        };
        let service = QueryService::new(graph.clone(), config);
        let q = CanonicalQuery::new(&query(&graph, "(a+b)*·c"));
        let c = graph.alphabet().symbol("c").unwrap();
        let (v1, v5) = (graph.node_id("v1").unwrap(), graph.node_id("v5").unwrap());
        let reading = std::sync::atomic::AtomicBool::new(true);
        let published = std::thread::scope(|scope| {
            scope.spawn(|| {
                // Distinct sources of a 7-node graph, then past it: every
                // submission is a miss.
                for source in 0.. {
                    if !reading.load(std::sync::atomic::Ordering::Relaxed) {
                        break;
                    }
                    let key = CacheKey::binary(q.clone(), source);
                    service.submit(key, &CancelToken::never(), None).unwrap();
                }
            });
            std::thread::sleep(Duration::from_millis(100));
            let before = service.stats().misses;
            service.apply_delta(&[(v1, c, v5)], &[]).unwrap();
            let published = service.stats().misses - before;
            reading.store(false, std::sync::atomic::Ordering::Relaxed);
            published
        });
        assert!(
            published <= 1,
            "{published} evaluations published during the write"
        );
    }

    /// A miss that waits for a write to land keeps its own deadline: the
    /// write waits for an evaluation held 300 ms, and a submission with
    /// a 20 ms budget gives up long before that evaluation publishes.
    #[test]
    fn a_miss_waiting_for_a_write_keeps_its_deadline() {
        let graph = figure3_g0();
        let config = ServeConfig {
            eval_holdoff: Duration::from_millis(300),
            ..ServeConfig::default()
        };
        let service = Arc::new(QueryService::new(graph.clone(), config));
        let (qa, qb) = (query(&graph, "a"), query(&graph, "b"));
        let owner = {
            let service = service.clone();
            std::thread::spawn(move || service.query_monadic(&qa))
        };
        wait_for(&service, |inner| !inner.inflight.is_empty());
        let a = graph.alphabet().symbol("a").unwrap();
        let (v1, v2) = (graph.node_id("v1").unwrap(), graph.node_id("v2").unwrap());
        let writer = {
            let service = service.clone();
            std::thread::spawn(move || service.apply_delta(&[], &[(v1, a, v2)]).unwrap())
        };
        std::thread::sleep(Duration::from_millis(50));
        let started = Instant::now();
        let hurried = CancelToken::with_deadline(started + Duration::from_millis(20));
        let key = CacheKey::monadic(CanonicalQuery::new(&qb));
        assert_eq!(
            service.submit(key, &hurried, None).unwrap_err(),
            Interrupt::Deadline
        );
        let waited = started.elapsed();
        assert!(
            waited < Duration::from_millis(120),
            "answered after {waited:?}"
        );
        assert_eq!(writer.join().unwrap().patched, 1);
        owner.join().unwrap();
        assert_eq!(service.stats().deadline_exceeded, 1);
        let after = service.query_monadic(&qb);
        assert!(matches!(after.served, Served::Evaluated { .. }));
        assert_eq!(*after.result, eval_monadic(&qb, &graph));
    }

    /// Admission lends the scratches and publication takes them back,
    /// so the pool holds at most one per evaluation that ran at the same
    /// time as the others; a write, which runs when none does, borrows
    /// one of those instead of adding its own.
    #[test]
    fn the_scratch_pool_holds_no_more_than_the_concurrent_evaluations() {
        let graph = figure3_g0();
        let config = ServeConfig {
            eval_holdoff: Duration::from_millis(100),
            ..ServeConfig::default()
        };
        let service = Arc::new(QueryService::new(graph.clone(), config));
        let exprs = ["a", "b", "c"];
        let barrier = Arc::new(std::sync::Barrier::new(exprs.len() + 1));
        let owners: Vec<_> = exprs
            .into_iter()
            .map(|expr| {
                let (service, barrier) = (service.clone(), barrier.clone());
                let q = query(&graph, expr);
                std::thread::spawn(move || {
                    barrier.wait();
                    service.query_monadic(&q)
                })
            })
            .collect();
        barrier.wait();
        wait_for(&service, |inner| inner.inflight.len() == exprs.len());
        // The evaluations are held in publish; the write waits for them,
        // then patches the a-entry.
        let a = graph.alphabet().symbol("a").unwrap();
        let (v1, v2) = (graph.node_id("v1").unwrap(), graph.node_id("v2").unwrap());
        let applied = service.apply_delta(&[], &[(v1, a, v2)]).unwrap();
        assert_eq!(applied.patched, 1);
        for owner in owners {
            assert!(matches!(
                owner.join().unwrap().served,
                Served::Evaluated { .. }
            ));
        }
        let pooled = service.pooled_scratches();
        assert!((1..=exprs.len()).contains(&pooled), "{pooled} scratches");
        // One evaluation at a time reuses what the pool holds.
        for expr in ["a·b", "b·c", "c·a"] {
            service.query_monadic(&query(&graph, expr));
        }
        assert_eq!(service.pooled_scratches(), pooled);
    }

    #[test]
    fn overlay_compacts_past_the_threshold() {
        let graph = figure3_g0();
        let service = QueryService::new(
            graph.clone(),
            ServeConfig {
                delta_compact_threshold: Some(1),
                ..ServeConfig::default()
            },
        );
        let c = graph.alphabet().symbol("c").unwrap();
        let v = |name: &str| graph.node_id(name).unwrap();
        // One overlay edge: at the threshold, carried as an overlay.
        let first = service.apply_delta(&[(v("v1"), c, v("v5"))], &[]).unwrap();
        assert!(!first.compacted);
        assert!(service.graph().has_delta());
        // A second pushes past it: folded into a fresh CSR.
        let second = service.apply_delta(&[(v("v2"), c, v("v6"))], &[]).unwrap();
        assert!(second.compacted);
        assert_eq!(second.delta_edges, 0);
        assert!(!service.graph().has_delta());
        assert_eq!(service.stats().compactions, 1);
        assert_eq!(service.graph().num_edges(), graph.num_edges() + 2);
        // Compaction preserved ids: a query still answers correctly.
        let q = query(&graph, "c");
        assert_eq!(
            *service.query_monadic(&q).result,
            eval_monadic(&q, &service.graph())
        );
    }

    /// Pins the auto-compact boundary exactly: with the default
    /// threshold `max(1024, base_edges / 8)`, a batch leaving the
    /// overlay at **exactly** the threshold is carried as an overlay
    /// (compaction triggers at `>`, not `>=`), and one more edge folds
    /// it.
    #[test]
    fn default_compact_threshold_boundary_is_strictly_greater_than() {
        // 40 nodes, one label, a 40-edge ring: the default threshold is
        // max(1024, 40 / 8) = 1024, and 40 × 40 possible edges leave
        // room for 1025 distinct overlay additions.
        let mut builder = pathlearn_graph::GraphBuilder::with_alphabet(
            pathlearn_automata::Alphabet::from_labels(["a"]),
        );
        for i in 0..40 {
            builder.add_node(&format!("n{i}"));
        }
        let a = Symbol::from_index(0);
        for i in 0..40u32 {
            builder.add_edge_ids(i, a, (i + 1) % 40);
        }
        let graph = builder.build();
        assert_eq!(graph.num_edges(), 40);

        // 1025 distinct edges absent from the base ring.
        let fresh: Vec<(NodeId, Symbol, NodeId)> = (0..40u32)
            .flat_map(|s| (0..40u32).map(move |d| (s, a, d)))
            .filter(|&(s, _, d)| d != (s + 1) % 40)
            .take(1025)
            .collect();
        assert_eq!(fresh.len(), 1025);

        let service = QueryService::new(graph, ServeConfig::default());
        // Exactly at the threshold: still an overlay.
        let at = service.apply_delta(&fresh[..1024], &[]).unwrap();
        assert!(
            !at.compacted,
            "an overlay of exactly 1024 edges must NOT compact (threshold is `>`)"
        );
        assert_eq!(at.delta_edges, 1024);
        assert!(service.graph().has_delta());
        assert_eq!(service.stats().compactions, 0);
        // One past it: folded.
        let past = service.apply_delta(&fresh[1024..], &[]).unwrap();
        assert!(past.compacted, "1025 overlay edges must compact");
        assert_eq!(past.delta_edges, 0);
        assert!(!service.graph().has_delta());
        assert_eq!(service.stats().compactions, 1);
        assert_eq!(service.graph().num_edges(), 40 + 1025);
    }

    /// The same boundary under an explicit [`ServeConfig::delta_compact_threshold`].
    #[test]
    fn explicit_compact_threshold_boundary_is_strictly_greater_than() {
        let graph = figure3_g0();
        let service = QueryService::new(
            graph.clone(),
            ServeConfig {
                delta_compact_threshold: Some(3),
                ..ServeConfig::default()
            },
        );
        let c = graph.alphabet().symbol("c").unwrap();
        let v = |name: &str| graph.node_id(name).unwrap();
        let edges = [
            (v("v1"), c, v("v5")),
            (v("v2"), c, v("v6")),
            (v("v3"), c, v("v7")),
            (v("v4"), c, v("v1")),
        ];
        let at = service.apply_delta(&edges[..3], &[]).unwrap();
        assert!(!at.compacted, "exactly 3 overlay edges stay an overlay");
        assert_eq!(at.delta_edges, 3);
        let past = service.apply_delta(&edges[3..], &[]).unwrap();
        assert!(past.compacted, "the 4th edge crosses threshold 3");
        assert_eq!(past.delta_edges, 0);
    }
}
