//! Edge-labeled graph databases with regular path query semantics.
//!
//! This crate is the data substrate of the EDBT 2015 reproduction: a graph
//! database is *"a finite, directed, edge-labeled graph"* (paper §2), and
//! everything the learning algorithms consume is derived from the path
//! languages `paths_G(ν)` of its nodes:
//!
//! * [`graph`] — the [`GraphDb`] container (one label-partitioned CSR
//!   adjacency per [`Dir`], interned labels, named nodes), its one
//!   frontier step kernel ([`GraphDb::step_into`]) and its builder;
//! * [`paths`] — the `paths_G` machinery: the all-accepting NFA view
//!   (and `paths2_G(ν,ν′)`'s, the binary-evaluation oracle),
//!   word-membership by simulation, bounded canonical-order enumeration,
//!   and the product emptiness test of Algorithm 1's merge oracle
//!   ([`PathsProduct`]), searched over the adjacency itself;
//! * [`scp`] — smallest-consistent-path search (Algorithm 1 lines 1–2):
//!   a determinized product BFS with a shared negative-side cache, and
//!   the memo a session keeps while its negative set grows;
//! * [`eval`] — **the** evaluation engine: one level kernel and one
//!   driver behind [`EvalPool::evaluate`], which answers monadic
//!   `q(G)` and binary (Appendix B) goals in `O(|E|·|Q|)` by
//!   level-synchronous product BFS on the caller's thread, with the
//!   reusable [`eval::EvalScratch`] buffers, the `eval_monadic` /
//!   `eval_binary_from` shorthands and the two test oracles;
//! * [`plan`] — whole-query planning: the forward / backward choice of
//!   binary engine, i.e. which parameter set the driver runs a binary
//!   goal with;
//! * [`observer`] — thread-local per-BFS-level sampling
//!   ([`observer::collect_levels`]): the zero-cost-when-off hook the
//!   serving layer's query traces ride, recording frontier size, kernel
//!   mix and nanoseconds for every level the engine runs;
//! * [`cancel`] — cooperative cancellation ([`cancel::CancelToken`]:
//!   deadline and/or shared drain flag) checked once per BFS level, so
//!   a serving layer can bound per-query time without killing threads;
//! * [`neighborhood`] — k-neighborhood extraction (interactive scenario,
//!   Figure 9 step 4);
//! * [`io`] — a line-oriented text format;
//! * [`graph::snapshot`] — a versioned little-endian binary snapshot of
//!   a [`GraphDb`]'s edge list (strict, digest-checked decode), so
//!   restarts read it and run the builder's constructor instead of
//!   re-parsing text.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cancel;
pub mod eval;
pub mod graph;
pub mod io;
pub mod neighborhood;
pub mod observer;
pub mod paths;
pub mod plan;
pub mod scp;

pub use cancel::{CancelToken, Interrupt};
pub use eval::{Batch, Edge, EvalPool, EvalScratch, Footprint, Goal, NodeSet};
pub use graph::snapshot::{SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use graph::{DeltaError, Dir, GraphBuilder, GraphDb, NodeId, StepPlan, StepPolicy};
pub use observer::{collect_levels, LevelSample, MAX_LEVEL_SAMPLES};
pub use paths::PathsProduct;
pub use plan::{QueryPlan, Strategy};
pub use scp::ScpFinder;
