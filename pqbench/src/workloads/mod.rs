//! The four workloads and what they share.
//!
//! Every workload is: a timed set-up, then identical epochs (the same op
//! list replayed, so program counters and answers repeat exactly and are
//! asserted equal across epochs), then untimed checks of the answers
//! against an oracle. Why each exists is recorded in `BENCHMARK.json`
//! and `README.md`.

pub mod cold_scan;
pub mod hot_replay;
pub mod learn_session;
pub mod write_mix;

use crate::gen::{HotInputs, ReadOp, Scale};
use crate::sut::{self, BitSet, Client, Dfa, GraphDb, NodeId, Response, Server};
use crate::trace::Recorder;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Workload names, in the order `run` and `aa` go through them.
pub const NAMES: [&str; 4] = ["hot_replay", "cold_scan", "write_mix", "learn_session"];

/// What one epoch produced besides its latency samples.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Epoch {
    /// Wall time of the whole epoch.
    pub wall_ns: u64,
    /// Ops whose reply was not a result, failed on IO, or failed a check.
    pub failed: u64,
    /// Program counters moved by this epoch, by registry name. Exact
    /// under one closed-loop client; asserted equal across epochs.
    pub counters: Vec<(&'static str, u64)>,
    /// Order-sensitive hash of every answer of the epoch.
    pub digest: u64,
}

impl Epoch {
    /// The epoch's delta of `name`, 0 when the workload has no such counter.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }
}

/// A workload after set-up.
pub trait Workload {
    /// Replays the epoch's op list once, pushing one latency per op.
    fn run_epoch(&mut self, latencies_ns: &mut Vec<u64>) -> Epoch;

    /// Untimed work between epochs that makes the next one start from
    /// the same program state as the first.
    fn reset(&mut self) {}

    /// Workload-specific conditions an epoch must meet (e.g. "no op
    /// missed the cache"); an error fails the run.
    fn check_epoch(&self, epoch: &Epoch) -> Result<(), String>;

    /// Untimed, after the timed phase: answers against the oracle.
    fn verify(&mut self) -> Result<(), String>;

    /// Traced replay of the first `ops` ops: each as the real op (root
    /// span `op`) and decomposed in-thread into explicit layer calls
    /// (root span `layers`). Returns the name of the residual
    /// (`op` − layers).
    fn trace(&mut self, rec: &mut Recorder, ops: usize) -> &'static str;

    /// Extra human-readable lines for the report (e.g. a latency split).
    fn notes(&self) -> Vec<String> {
        Vec::new()
    }
}

/// Sets `name` up from `seed`. Bring-up steps are recorded as spans.
pub fn set_up(name: &str, seed: u64, scale: &Scale, rec: &mut Recorder) -> Box<dyn Workload> {
    match name {
        "hot_replay" => Box::new(hot_replay::HotReplay::set_up(seed, scale, rec)),
        "cold_scan" => Box::new(cold_scan::ColdScan::set_up(seed, scale, rec)),
        "write_mix" => Box::new(write_mix::WriteMix::set_up(seed, scale, rec)),
        "learn_session" => Box::new(learn_session::LearnSession::set_up(seed, scale, rec)),
        other => panic!("unknown workload {other}"),
    }
}

/// Order-insensitive-to-nothing hash of a node set.
pub fn digest(bits: &BitSet) -> u64 {
    bits.as_blocks()
        .iter()
        .fold(0x9e37_79b9_7f4a_7c15, |h, &w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(23)
        })
}

/// Folds an op's answer hash into the epoch digest.
pub fn fold(epoch_digest: u64, answer: u64) -> u64 {
    (epoch_digest.rotate_left(5) ^ answer).wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// Deltas of `names` between two registry snapshots.
pub fn counter_deltas(
    names: &[&'static str],
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
) -> Vec<(&'static str, u64)> {
    names
        .iter()
        .map(|&name| {
            let get = |map: &BTreeMap<String, u64>| map.get(name).copied().unwrap_or(0);
            (name, get(after).saturating_sub(get(before)))
        })
        .collect()
}

/// `pqbench/results/`: where a run leaves its span file and keeps its
/// scratch data dirs (inside the checkout, gitignored).
pub fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// A fresh scratch directory under `pqbench/results/`, unique to this
/// call (process id + a counter).
pub fn scratch_dir(purpose: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = results_dir().join(format!(
        "{purpose}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir under pqbench/results");
    dir
}

/// The canonical DFA of a regex text over the served alphabet.
pub fn dfa_of(text: &str, graph: &GraphDb) -> Dfa {
    sut::parse_regex(text, graph.alphabet()).to_dfa(graph.alphabet().len())
}

/// The oracle's answer for a distinct key of the hot mix.
pub fn oracle_answer(
    hot: &HotInputs,
    source_ids: &[NodeId],
    key_op: ReadOp,
    graph: &GraphDb,
) -> BitSet {
    match key_op {
        ReadOp::Text { query, .. } | ReadOp::Fingerprint { query } => {
            sut::eval_monadic_oracle(&dfa_of(&hot.queries[query].spellings[0], graph), graph)
        }
        ReadOp::Binary { query, source } => sut::eval_binary_from(
            &dfa_of(&hot.queries[query].spellings[0], graph),
            graph,
            source_ids[source],
        ),
    }
}

/// The in-thread decomposition of an in-process miss: canonicalize,
/// plan, evaluate. What is left of the real op is the service's own
/// overhead (lock, subsumption probing, cache insert and eviction,
/// trace bookkeeping).
pub fn trace_miss_layers(dfa: &Dfa, source: Option<NodeId>, graph: &GraphDb, rec: &mut Recorder) {
    rec.time("automata.canonical_of", || sut::canonical_of(dfa));
    rec.time("plan.plan_query", || sut::plan_query(dfa, graph));
    match source {
        None => rec.time("eval.monadic", || sut::eval_monadic(dfa, graph)),
        Some(source) => rec.time("eval.binary_from", || {
            sut::eval_binary_from(dfa, graph, source)
        }),
    };
}

/// The in-thread decomposition of a single-edge durable write: frame
/// codec, WAL append + fsync (on a side log), overlay patch. Returns the
/// patched graph.
pub fn trace_write_layers(
    edge: &sut::WireEdge,
    add: bool,
    graph: &GraphDb,
    side_wal: &mut sut::Wal,
    rec: &mut Recorder,
) -> GraphDb {
    let ids = (
        graph
            .node_id(&edge.0)
            .expect("write source is a served node"),
        graph
            .alphabet()
            .symbol(&edge.1)
            .expect("write label is served"),
        graph
            .node_id(&edge.2)
            .expect("write target is a served node"),
    );
    let (adds, removes) = if add {
        (vec![ids], vec![])
    } else {
        (vec![], vec![ids])
    };
    // One span for the four codec calls: these frames are tiny, and
    // pooled under the read path's span names they would drag its
    // medians down.
    rec.time("proto.delta_codec", || {
        let frame = sut::encode_request(&sut::delta_request(edge, add));
        sut::decode_request(&frame);
        let frame = sut::encode_response(&sut::delta_applied_response());
        sut::decode_response(&frame);
    });
    rec.time("wal.append_fsync", || {
        sut::wal_append(side_wal, &adds, &removes)
    });
    rec.time("delta.with_delta", || {
        sut::with_delta(graph, &adds, &removes)
    })
}

/// The TCP front door with one connected client and the hot mix's names
/// resolved against the served graph: what `hot_replay` and `write_mix`
/// share.
pub struct Front {
    pub server: Server,
    pub client: Client,
    /// Served ids of `hot.sources`.
    pub source_ids: Vec<NodeId>,
    /// Canonical fingerprint per query, as the warm-up replies gave them.
    pub fingerprints: Vec<u64>,
}

/// A `RESULT` reply as the client saw it.
pub struct ReadReply {
    pub fingerprint: u64,
    pub bits: BitSet,
    /// Served from the result cache.
    pub hit: bool,
}

/// One representative op per distinct key of the hot mix.
pub fn distinct_key_ops(hot: &HotInputs) -> Vec<ReadOp> {
    let mut ops: Vec<ReadOp> = (0..hot.queries.len())
        .map(|query| ReadOp::Text { query, spelling: 0 })
        .collect();
    for &query in &hot.binary_queries {
        ops.extend((0..hot.sources.len()).map(|source| ReadOp::Binary { query, source }));
    }
    ops
}

impl Front {
    /// Binds, connects, resolves names, and touches every distinct key
    /// once (read-only), so the timed phase starts with a warm cache
    /// and established fingerprints.
    pub fn bring_up(service: sut::QueryService, hot: &HotInputs, rec: &mut Recorder) -> Front {
        let server = rec.time("net.bind", || sut::bind(service));
        let client = rec.time("net.connect", || sut::connect(&server));
        let graph = server.service().graph();
        let source_ids = hot
            .sources
            .iter()
            .map(|name| graph.node_id(name).expect("hot source is a served node"))
            .collect();
        let mut front = Front {
            server,
            client,
            source_ids,
            fingerprints: vec![0; hot.queries.len()],
        };
        let warm = rec.begin("warmup");
        for op in distinct_key_ops(hot) {
            let reply = front.read(hot, op).expect("warm-up reply");
            if let ReadOp::Text { query, .. } = op {
                front.fingerprints[query] = reply.fingerprint;
            }
        }
        rec.end(warm);
        front
    }

    /// One read over TCP: the content of a `RESULT` reply, `None` for
    /// anything else.
    pub fn read(&mut self, hot: &HotInputs, op: ReadOp) -> Option<ReadReply> {
        let reply = match op {
            ReadOp::Text { query, spelling } => sut::tcp_query_text(
                &mut self.client,
                &hot.queries[query].spellings[spelling],
                None,
            ),
            ReadOp::Fingerprint { query } => {
                sut::tcp_query_fingerprint(&mut self.client, self.fingerprints[query])
            }
            ReadOp::Binary { query, source } => sut::tcp_query_text(
                &mut self.client,
                &hot.queries[query].spellings[0],
                Some(self.source_ids[source]),
            ),
        };
        match reply {
            Ok(Response::Result {
                fingerprint,
                bits,
                served,
                ..
            }) => Some(ReadReply {
                fingerprint,
                bits,
                hit: served == sut::WireServed::Hit,
            }),
            _ => None,
        }
    }

    /// The graph currently served.
    pub fn graph(&self) -> Arc<GraphDb> {
        self.server.service().graph()
    }

    /// The in-thread decomposition of a read: the explicit layer calls
    /// the front door makes, a span around each. `hit` says how the real
    /// op was served; a miss adds the direct evaluation it paid for.
    pub fn trace_read_layers(&self, hot: &HotInputs, op: ReadOp, hit: bool, rec: &mut Recorder) {
        let service = self.server.service();
        let graph = service.graph();
        let (text, source) = match op {
            ReadOp::Text { query, spelling } => (&hot.queries[query].spellings[spelling], None),
            ReadOp::Fingerprint { query } => (&hot.queries[query].spellings[0], None),
            ReadOp::Binary { query, source } => (
                &hot.queries[query].spellings[0],
                Some(self.source_ids[source]),
            ),
        };
        let by_fingerprint = matches!(op, ReadOp::Fingerprint { .. });
        let query_ref = match op {
            ReadOp::Fingerprint { query } => sut::QueryRef::Fingerprint(self.fingerprints[query]),
            _ => sut::QueryRef::Text(text.clone()),
        };
        let request = sut::query_request(query_ref, source);
        let frame = rec.time("proto.encode_request", || sut::encode_request(&request));
        rec.time("proto.decode_request", || sut::decode_request(&frame));
        let canonical = if by_fingerprint {
            // The front door looks the canonical query up by fingerprint;
            // no parse, no minimize.
            sut::to_canonical(
                &sut::parse_regex(text, graph.alphabet()),
                graph.alphabet().len(),
            )
        } else {
            let regex = rec.time("regex.parse", || sut::parse_regex(text, graph.alphabet()));
            rec.time("automata.to_canonical", || {
                sut::to_canonical(&regex, graph.alphabet().len())
            })
        };
        if !hit {
            match source {
                None => rec.time("eval.monadic", || {
                    sut::eval_monadic(canonical.dfa(), &graph)
                }),
                Some(source) => rec.time("eval.binary_from", || {
                    sut::eval_binary_from(canonical.dfa(), &graph, source)
                }),
            };
        }
        let served = rec.time("service.hit", || {
            sut::query_canonical(service, canonical, source)
        });
        let reply = sut::result_response(&served);
        let frame = rec.time("proto.encode_response", || sut::encode_response(&reply));
        rec.time("proto.decode_response", || sut::decode_response(&frame));
    }
}
