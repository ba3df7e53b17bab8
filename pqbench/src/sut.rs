//! The system under test, as the benchmark sees it.
//!
//! This is the **only** file of `pqbench` that names `pathlearn_*`
//! items. Workloads, probes, tracing and reporting call the functions
//! below, one per row of the per-layer table in `README.md`, so when the
//! program's entry points are consolidated (ROADMAP: one `evaluate()`,
//! one `submit()`), a benchmark-only change edits this file and nothing
//! else. Types are re-exported as they are; calls the program may rename
//! are wrapped.

pub use pathlearn_automata::{BitSet, Dfa, Nfa, Regex, Symbol};
pub use pathlearn_core::{PathQuery, Sample};
pub use pathlearn_datagen::workloads::CalibratedQuery;
pub use pathlearn_datagen::zipf::Zipf;
pub use pathlearn_graph::{EvalPool, GraphBuilder, GraphDb, NodeId, ScpFinder};
pub use pathlearn_interactive::session::{HaltReason, SessionResult};
pub use pathlearn_interactive::strategy::{Proposal, StrategyKind};
pub use pathlearn_server::cache::live_alphabet;
pub use pathlearn_server::proto::WireEdge;
pub use pathlearn_server::wal::{SNAPSHOT_FILE, WAL_FILE};
pub use pathlearn_server::{
    CacheKey, Client, QueryRef, QueryResponse, QueryService, Response, ResultCache, Server, Wal,
    WireServed,
};

use pathlearn_automata::{Alphabet, CanonicalQuery};
use pathlearn_core::learner::is_consistent_with;
use pathlearn_core::Learner;
use pathlearn_datagen::scale_free::{scale_free_graph, ScaleFreeConfig};
use pathlearn_datagen::workloads::{bio_workload, syn_workload};
use pathlearn_interactive::session::{InteractiveConfig, InteractiveSession};
use pathlearn_server::{
    CacheConfig, NetConfig, Persistence, Request, ServeConfig, Served, WireKind, NO_DEADLINE_MS,
};
use rand::rngs::StdRng;
use std::collections::BTreeMap;
use std::path::Path;

/// An edge by node ids, as `GraphDb::with_delta` and the WAL take it.
pub type Edge = (NodeId, Symbol, NodeId);

/// `pathlearn serve --checkpoint-every` default.
pub const CHECKPOINT_EVERY: usize = 1024;

/// The configuration every workload runs the program under: what
/// `pathlearn serve` ships, no tuned values. Echoed in every report.
pub fn config_echo() -> String {
    let serve = ServeConfig::default();
    let net = NetConfig::default();
    format!(
        "ServeConfig::default() (eval threads {}, cache {} MiB, strategy {:?}, step policy {:?}), \
         NetConfig::default() (eval workers {}, queue depth {}), checkpoint every {} records; \
         load: closed loop, 1 client, 1 connection; cores {}",
        serve.threads,
        serve.cache.capacity_bytes >> 20,
        serve.strategy,
        serve.step_policy,
        net.eval_workers,
        net.queue_depth,
        CHECKPOINT_EVERY,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    )
}

/// The result cache's byte budget under the shipped configuration.
pub fn cache_budget_bytes() -> usize {
    CacheConfig::default().capacity_bytes
}

// --- datagen -------------------------------------------------------------

/// `syn-N`: the paper's scale-free generator (§5.1 configuration).
pub fn scale_free(nodes: usize, seed: u64) -> GraphDb {
    scale_free_graph(&ScaleFreeConfig::paper_synthetic(nodes, seed))
}

/// The simulated AliBaba graph.
pub fn alibaba(seed: u64) -> GraphDb {
    pathlearn_datagen::alibaba_like(seed)
}

/// bio1–bio6 calibrated on `graph`.
pub fn calibrate_bio(graph: &GraphDb) -> Vec<CalibratedQuery> {
    bio_workload(graph).queries
}

/// syn1–syn3 calibrated on `graph`.
pub fn calibrate_syn(graph: &GraphDb) -> Vec<CalibratedQuery> {
    syn_workload(graph).queries
}

/// The Fig. 12 static protocol's labelled sample.
pub fn random_sample(graph: &GraphDb, goal_selection: &BitSet, fraction: f64, seed: u64) -> Sample {
    pathlearn_datagen::sampling::random_sample(graph, goal_selection, fraction, seed)
}

// --- graph: text, snapshot, delta ------------------------------------------

/// The line-oriented text form `pathlearn serve <graph.txt>` loads.
pub fn write_graph_text(graph: &GraphDb) -> String {
    pathlearn_graph::io::write_graph(graph).expect("generated names are serializable")
}

/// Parses the text form (node ids by order of appearance).
pub fn parse_graph_text(text: &str) -> GraphDb {
    pathlearn_graph::io::parse_graph(text).expect("generated text parses")
}

/// Writes the binary snapshot (fsynced, atomic rename).
pub fn save_snapshot(graph: &GraphDb, path: &Path) {
    graph.save_snapshot(path).expect("snapshot save");
}

/// Strict-decodes a binary snapshot.
pub fn load_snapshot(path: &Path) -> GraphDb {
    GraphDb::load_snapshot(path).expect("snapshot load")
}

/// `(G ∖ remove) ∪ add` as an overlay.
pub fn with_delta(graph: &GraphDb, add: &[Edge], remove: &[Edge]) -> GraphDb {
    graph.with_delta(add, remove).expect("in-range delta")
}

/// Folds the overlay into a fresh CSR.
pub fn compact(graph: &GraphDb) -> GraphDb {
    graph.compact()
}

// --- durability ------------------------------------------------------------

/// What a `serve --data-dir` start does: snapshot load (or text
/// fallback on first run) + WAL replay.
pub fn recover(dir: &Path, fallback_text: Option<&str>) -> (GraphDb, Persistence) {
    let recovered = Persistence::recover(dir, CHECKPOINT_EVERY, || match fallback_text {
        Some(text) => Ok(parse_graph_text(text)),
        None => Err("the data dir must hold a snapshot".to_owned()),
    })
    .expect("recover data dir");
    (recovered.graph, recovered.persistence)
}

/// Opens (creating) a bare write-ahead log.
pub fn open_wal(path: &Path) -> Wal {
    Wal::open(path).expect("open wal").0
}

/// Append + fsync of one batch.
pub fn wal_append(wal: &mut Wal, add: &[Edge], remove: &[Edge]) {
    wal.append(add, remove).expect("wal append");
}

/// Fresh snapshot + WAL truncate.
pub fn checkpoint(persistence: &mut Persistence, graph: &GraphDb) {
    persistence.checkpoint(graph).expect("checkpoint");
}

// --- automata --------------------------------------------------------------

/// Regex text → AST over the served alphabet.
pub fn parse_regex(text: &str, alphabet: &Alphabet) -> Regex {
    Regex::parse(text, alphabet).expect("generated regex parses")
}

/// Regex AST → canonical query (determinize, minimize, canonical numbering).
pub fn to_canonical(regex: &Regex, alphabet_len: usize) -> CanonicalQuery {
    CanonicalQuery::new(&regex.to_dfa(alphabet_len))
}

/// DFA → canonical query (what `query_monadic(&Dfa)` does first).
pub fn canonical_of(dfa: &Dfa) -> CanonicalQuery {
    CanonicalQuery::new(dfa)
}

/// Antichain language inclusion `L(a) ⊆ L(b)`.
pub fn nfa_included(a: &Nfa, b: &Nfa) -> bool {
    pathlearn_automata::inclusion::nfa_included_in(a, b).is_ok()
}

// --- evaluation ------------------------------------------------------------

/// The whole-query planner under `Strategy::Auto`.
pub fn plan_query(query: &Dfa, graph: &GraphDb) {
    std::hint::black_box(pathlearn_graph::plan::plan_query(query, graph));
}

/// Direct monadic evaluation (the production kernel path).
pub fn eval_monadic(query: &Dfa, graph: &GraphDb) -> BitSet {
    pathlearn_graph::eval::eval_monadic(query, graph)
}

/// Direct binary-from-source evaluation.
pub fn eval_binary_from(query: &Dfa, graph: &GraphDb, source: NodeId) -> BitSet {
    pathlearn_graph::eval::eval_binary_from(query, graph, source)
}

/// The seed's queue-based evaluator: the oracle answers are checked against.
pub fn eval_monadic_oracle(query: &Dfa, graph: &GraphDb) -> BitSet {
    pathlearn_graph::eval::eval_monadic_queued(query, graph)
}

/// Intra-query parallel monadic evaluation on `pool`.
pub fn pool_eval_monadic(pool: &EvalPool, query: &Dfa, graph: &GraphDb) -> BitSet {
    pool.eval_monadic(query, graph)
}

// --- serving ---------------------------------------------------------------

/// `QueryService::new` under the shipped configuration.
pub fn new_service(graph: GraphDb) -> QueryService {
    QueryService::new(graph, ServeConfig::default())
}

/// `Server::bind` on an ephemeral loopback port, shipped configuration.
pub fn bind(service: QueryService) -> Server {
    Server::bind(service, "127.0.0.1:0", NetConfig::default()).expect("bind loopback")
}

/// One client connection to `server`.
pub fn connect(server: &Server) -> Client {
    Client::connect(server.local_addr()).expect("connect loopback")
}

/// `QUERY` frame by regex text: monadic, or binary from `source`.
pub fn tcp_query_text(
    client: &mut Client,
    text: &str,
    source: Option<NodeId>,
) -> std::io::Result<Response> {
    match source {
        None => client.query_text(text, NO_DEADLINE_MS),
        Some(source) => client.query_text_binary(text, source, NO_DEADLINE_MS),
    }
}

/// `QUERY` frame by a fingerprint a text submission established.
pub fn tcp_query_fingerprint(client: &mut Client, fingerprint: u64) -> std::io::Result<Response> {
    client.query_fingerprint(fingerprint, NO_DEADLINE_MS)
}

/// Single-edge `DELTA` frame (fsynced before it is acknowledged on a
/// durable service).
pub fn tcp_delta(client: &mut Client, edge: &WireEdge, add: bool) -> std::io::Result<Response> {
    let edge = std::slice::from_ref(edge);
    if add {
        client.apply_delta(edge, &[])
    } else {
        client.apply_delta(&[], edge)
    }
}

/// `PING` round trip.
pub fn tcp_ping(client: &mut Client) {
    client.ping().expect("ping");
}

/// The frame a client sends for a text or fingerprint query.
pub fn query_request(query: QueryRef, source: Option<NodeId>) -> Request {
    Request::Query {
        request_id: 1,
        kind: source.map_or(WireKind::Monadic, WireKind::Binary),
        deadline_ms: NO_DEADLINE_MS,
        query,
    }
}

/// The frame a client sends for a single-edge write.
pub fn delta_request(edge: &WireEdge, add: bool) -> Request {
    let (add, remove) = if add {
        (vec![edge.clone()], Vec::new())
    } else {
        (Vec::new(), vec![edge.clone()])
    };
    Request::Delta {
        request_id: 1,
        add,
        remove,
    }
}

/// The `RESULT` frame the front door builds for a served hit.
pub fn result_response(response: &QueryResponse) -> Response {
    Response::Result {
        request_id: 1,
        served: WireServed::Hit,
        fingerprint: response.fingerprint,
        canonical_states: response.canonical_states as u32,
        eval_ns: 0,
        bits: (*response.result).clone(),
    }
}

/// The `DELTA_APPLIED` frame.
pub fn delta_applied_response() -> Response {
    Response::DeltaApplied {
        request_id: 1,
        invalidated: 0,
        compacted: false,
        delta_edges: 0,
    }
}

/// `Request::encode`.
pub fn encode_request(request: &Request) -> Vec<u8> {
    request.encode()
}

/// `Request::decode`.
pub fn decode_request(payload: &[u8]) -> Request {
    Request::decode(payload).expect("own frame decodes")
}

/// `Response::encode`.
pub fn encode_response(response: &Response) -> Vec<u8> {
    response.encode()
}

/// `Response::decode`.
pub fn decode_response(payload: &[u8]) -> Response {
    Response::decode(payload).expect("own frame decodes")
}

/// In-process monadic submission.
pub fn query_monadic(service: &QueryService, query: &Dfa) -> QueryResponse {
    service.query_monadic(query)
}

/// In-process binary-from submission.
pub fn query_binary_from(service: &QueryService, query: &Dfa, source: NodeId) -> QueryResponse {
    service.query_binary_from(query, source)
}

/// In-process pre-canonicalized submission (what the front door calls
/// after decode + parse + canonicalize).
pub fn query_canonical(
    service: &QueryService,
    query: CanonicalQuery,
    source: Option<NodeId>,
) -> QueryResponse {
    match source {
        None => service.query_monadic_canonical(query),
        Some(source) => service.query_binary_canonical(query, source),
    }
}

/// In-memory delta application (no WAL).
pub fn apply_delta(service: &QueryService, add: &[Edge], remove: &[Edge]) {
    service.apply_delta(add, remove).expect("in-range delta");
}

/// Whether a submission was answered from the result cache.
pub fn was_hit(response: &QueryResponse) -> bool {
    matches!(response.served, Served::Hit)
}

/// Every counter of the service's registry (`serve.*`, `cache.*`,
/// `net.*`, `wal.*`), by name.
pub fn counters(service: &QueryService) -> BTreeMap<String, u64> {
    service
        .telemetry()
        .registry
        .snapshot()
        .into_iter()
        .collect()
}

/// A result cache with the shipped byte budget.
pub fn new_cache() -> ResultCache {
    ResultCache::new(CacheConfig::default())
}

// --- learning --------------------------------------------------------------

/// One §4 session under `InteractiveConfig::default()` (only strategy,
/// cap and seed set), run against `goal`.
pub fn run_session(
    graph: &GraphDb,
    goal: &PathQuery,
    strategy: StrategyKind,
    max_interactions: usize,
    seed: u64,
) -> SessionResult {
    let config = InteractiveConfig {
        strategy,
        max_interactions,
        seed,
        ..InteractiveConfig::default()
    };
    InteractiveSession::new(graph, config).run_against_goal(goal)
}

/// `strategy::propose` under the default session parameters.
pub fn propose(
    strategy: StrategyKind,
    graph: &GraphDb,
    sample: &Sample,
    candidates: &[NodeId],
    rng: &mut StdRng,
) -> Proposal {
    let config = InteractiveConfig::default();
    pathlearn_interactive::strategy::propose(
        strategy,
        graph,
        sample,
        candidates,
        config.k_start,
        config.k_max,
        config.count_cap,
        rng,
    )
}

/// The learner every session relearns with (the session default).
pub fn session_learner() -> Learner {
    Learner::with_config(InteractiveConfig::default().learner)
}

/// `Learner::learn`; `None` when the learner abstains.
pub fn learn(learner: &Learner, graph: &GraphDb, sample: &Sample) -> Option<PathQuery> {
    learner.learn(graph, sample).query
}

/// The smallest consistent path of `node` up to length `max_len`.
pub fn scp(finder: &mut ScpFinder<'_>, node: NodeId, max_len: usize) -> bool {
    finder.scp(node, max_len).is_some()
}

/// Sample consistency of a learned query.
pub fn consistent(query: &PathQuery, graph: &GraphDb, sample: &Sample) -> bool {
    is_consistent_with(query, graph, sample)
}

/// F1 of `predicted` against `goal`.
pub fn f1(goal: &BitSet, predicted: &BitSet) -> f64 {
    pathlearn_eval::metrics::Confusion::from_selections(goal, predicted).f1()
}
