//! # pathlearn-server — the concurrent RPQ serving layer
//!
//! The crates below this one answer *one query at a time*; this crate is
//! the subsystem that turns them into a **service**: many client threads
//! submitting regular path queries against a shared graph, with
//! redundant work removed at three levels —
//!
//! 1. **canonicalization** — every submission is minimized to its
//!    canonical DFA ([`pathlearn_automata::CanonicalQuery`]), so
//!    syntactically different but equivalent queries are one unit of
//!    work and one cache entry;
//! 2. **result caching** — evaluated answers live in a byte-budgeted
//!    [`ResultCache`] with GDSF cost-aware eviction (what survives
//!    pressure is what is expensive to recompute per byte kept);
//! 3. **coalescing** — duplicate submissions that arrive while an
//!    equivalent query is evaluating block on its in-flight ticket
//!    instead of re-evaluating.
//!
//! An admitted query is evaluated by [`pathlearn_graph::EvalPool`] on
//! the thread that submitted it; independent queries overlap on their
//! callers' threads. Every way in is one [`QueryService::submit`].
//! Results are **bit-identical** to direct evaluation (this crate's
//! smoke tests re-assert it end-to-end).
//!
//! Cache invalidation is wired to graph rebuilds:
//! [`QueryService::rebuild_graph`] swaps the graph and clears the cache.
//! It takes the service by `&mut`, so no evaluation of the old graph can
//! be in flight to repopulate it.
//!
//! The **network front door** is [`net`]: a hardened stdlib-TCP server
//! speaking the framed binary protocol of [`proto`] — length-prefixed
//! versioned frames, per-connection read/write timeouts, a counting
//! gate on concurrent evaluations with load shedding, cooperative
//! per-BFS-level query deadlines, and graceful drain on shutdown.
//!
//! The CLI front doors are `pathlearn serve` (in-process) and
//! `pathlearn serve --listen ADDR` (TCP, crate `pathlearn`); the
//! whole stack is measured end to end by `pqbench` (`BENCHMARK.json`,
//! `pqbench/README.md`).
//!
//! **Durability** is [`wal`]: a data directory pairing a versioned
//! binary snapshot of the graph with an append-only, digest-checked
//! write-ahead log of delta batches — fsynced before `DELTA_APPLIED`
//! is answered, replayed on restart, and folded back into a fresh
//! snapshot once the log outgrows a checkpoint threshold. `pathlearn
//! serve --data-dir DIR` turns it on.
//!
//! **Observability** is [`telemetry`]: every `serve.*` / `cache.*` /
//! `net.*` / `wal.*` / `eval.*` number flows through one
//! [`MetricsRegistry`] (the `STATS` wire frame and [`ServeStats`] are
//! views over it); per-query [`QueryTrace`]s record wall-clock spans,
//! evaluation-slot wait and per-BFS-level samples into a recent-trace
//! ring plus a threshold-gated slow-query log; and the text admin
//! surface ([`AdminServer`], `pathlearn serve --listen ADDR --admin
//! ADDR2`) serves `/metrics` (Prometheus text), `/healthz` (readiness)
//! and `/slow` (recent slow traces) over plain HTTP.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod net;
pub mod proto;
pub mod service;
pub mod telemetry;
pub mod wal;

pub use cache::{CacheConfig, CacheKey, CacheStats, QueryKind, ResultCache};
pub use net::{Client, NetConfig, Server};
pub use proto::{ErrorCode, QueryRef, Request, Response, WireKind, WireServed, NO_DEADLINE_MS};
pub use service::{
    DeltaApplied, DeltaCommitError, QueryResponse, QueryService, ServeConfig, ServeStats, Served,
};
pub use telemetry::{
    AdminServer, AdminSources, Counter, Gauge, HealthPhase, HealthReport, Histogram,
    MetricsRegistry, QueryTrace, Telemetry, TraceBuilder, TraceSink, TraceSpan,
};
pub use wal::{Persistence, RecoverError, Recovered, RecoveryReport, Wal, WalError};
