//! Net-level edge-delta gate — `DELTA` frames over the wire, named by
//! CI.
//!
//! What this pins, end to end through a real TCP connection:
//!
//! - a `DELTA` frame patches the served graph and answers
//!   `DELTA_APPLIED`; post-delta query bits are **bit-identical** to a
//!   direct evaluation of the compacted patched graph;
//! - the cache follows deltas **label by label**: cached entries whose
//!   live alphabet is disjoint from the touched labels survive as hits,
//!   and only intersecting entries are patched to the new answer (or,
//!   past their patch budget, dropped and re-evaluated);
//! - unlike a rebuild, a delta **retains** the fingerprint registry
//!   (the node set and alphabet are frozen) and does not drain;
//! - unknown node or label names answer `ERROR(BAD_DELTA)` without
//!   disturbing the served graph or killing the connection;
//! - the cache follows deltas **edge by edge**: a label-matched entry
//!   whose footprint the delta's edges miss survives as a hit and is
//!   counted in `cache.spared`, one they hit is patched and counted in
//!   `cache.patched`, and, for random graphs, queries, strategies and
//!   delta batches, every answer the service serves after a batch equals
//!   a fresh evaluation on the patched graph;
//! - a health check never waits for a write.

use pathlearn_automata::{Alphabet, Dfa, Regex, Symbol};
use pathlearn_graph::eval::{eval_binary_from, eval_monadic};
use pathlearn_graph::Strategy as Plan;
use pathlearn_graph::{GraphBuilder, GraphDb, NodeId, MAX_LEVEL_SAMPLES};
use pathlearn_server::wal::Persistence;
use pathlearn_server::{
    Client, ErrorCode, NetConfig, QueryService, Response, ServeConfig, Served, Server, WireServed,
    NO_DEADLINE_MS,
};
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// A ring with chords over {a, b, c} — node names are `n0..n{N-1}`.
fn ring_graph(n: usize) -> GraphDb {
    let mut builder =
        GraphBuilder::with_alphabet(pathlearn_automata::Alphabet::from_labels(["a", "b", "c"]));
    let first = builder.add_nodes("n", n);
    for i in 0..n as u32 {
        let next = first + (i + 1) % n as u32;
        builder.add_edge_ids(first + i, Symbol::from_index(i as usize % 3), next);
        if i % 5 == 0 {
            builder.add_edge_ids(first + i, Symbol::from_index(2), first + (i + 7) % n as u32);
        }
    }
    builder.build()
}

fn direct_monadic(graph: &GraphDb, expr: &str) -> pathlearn_automata::BitSet {
    let dfa = pathlearn_automata::Regex::parse(expr, graph.alphabet())
        .unwrap()
        .to_dfa(graph.alphabet().len());
    eval_monadic(&dfa, graph)
}

fn serve(graph: GraphDb) -> Server {
    let service = pathlearn_server::QueryService::new(graph, ServeConfig::default());
    Server::bind(service, "127.0.0.1:0", NetConfig::default()).expect("bind ephemeral port")
}

fn counter(counters: &[(String, u64)], name: &str) -> u64 {
    counters
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("counter {name} missing"))
        .1
}

fn result_bits(response: Response) -> (pathlearn_automata::BitSet, u64, WireServed) {
    match response {
        Response::Result {
            bits,
            fingerprint,
            served,
            ..
        } => (bits, fingerprint, served),
        other => panic!("expected RESULT, got {other:?}"),
    }
}

fn wire(src: &str, label: &str, dst: &str) -> (String, String, String) {
    (src.to_owned(), label.to_owned(), dst.to_owned())
}

#[test]
fn delta_frame_patches_the_graph_and_spares_disjoint_cache_entries() {
    let graph = ring_graph(60);
    let server = serve(graph.clone());
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Prime the cache: one entry that the delta will touch (live
    // alphabet {a}) and one it must spare (live alphabet {b}).
    let (a_before, a_fp, _) = result_bits(client.query_text("a·a", NO_DEADLINE_MS).unwrap());
    let (b_before, b_fp, _) = result_bits(client.query_text("b·b", NO_DEADLINE_MS).unwrap());

    // Rewire an `a` chord: remove a ring edge, add a shortcut. The
    // expected post-delta bits come from a direct evaluation of the
    // compacted patched graph — the wire must be bit-identical to it.
    let add = [wire("n0", "a", "n30")];
    let remove = [wire("n0", "a", "n1")];
    let a0 = graph.node_id("n0").unwrap();
    let a1 = graph.node_id("n1").unwrap();
    let a30 = graph.node_id("n30").unwrap();
    let sym_a = graph.alphabet().symbol("a").unwrap();
    let patched = graph
        .with_delta(&[(a0, sym_a, a30)], &[(a0, sym_a, a1)])
        .unwrap()
        .compact();
    let a_after = direct_monadic(&patched, "a·a");
    let b_after = direct_monadic(&patched, "b·b");
    assert_ne!(a_before, a_after, "the delta must change the a·a answer");
    assert_eq!(b_before, b_after, "b·b must be untouched by an a-delta");

    match client.apply_delta(&add, &remove).unwrap() {
        Response::DeltaApplied {
            invalidated,
            delta_edges,
            ..
        } => {
            assert_eq!(invalidated, 0, "the a·a entry is patched, not dropped");
            assert_eq!(delta_edges, 2, "one addition + one removal pending");
        }
        other => panic!("expected DELTA_APPLIED, got {other:?}"),
    }

    // The spared entry is still a cache hit, reachable through the
    // *retained* fingerprint registry — a rebuild would have cleared
    // both the cache and the registry.
    let (bits, _, served) = result_bits(client.query_fingerprint(b_fp, NO_DEADLINE_MS).unwrap());
    assert_eq!(bits, b_before);
    assert_eq!(served, WireServed::Hit, "disjoint live alphabet survives");

    // The touched entry was patched to the patched graph's answer and
    // is bit-identical to the direct eval of its compaction.
    let (bits, _, served) = result_bits(client.query_fingerprint(a_fp, NO_DEADLINE_MS).unwrap());
    assert_eq!(
        bits, a_after,
        "post-delta bits must match the compacted rebuild"
    );
    assert_eq!(served, WireServed::Hit, "the touched entry was patched");

    let stats = client.stats().unwrap();
    assert_eq!(counter(&stats, "serve.deltas_applied"), 1);
    assert_eq!(counter(&stats, "serve.label_invalidations"), 0);
    assert_eq!(counter(&stats, "cache.invalidated"), 0);
    assert_eq!(counter(&stats, "cache.patched"), 1);
    assert_eq!(
        counter(&stats, "serve.invalidations"),
        0,
        "a delta is not a rebuild"
    );
}

#[test]
fn bad_delta_names_reject_without_disturbing_the_graph() {
    let graph = ring_graph(20);
    let server = serve(graph.clone());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let expected = direct_monadic(&graph, "a·b");

    // Unknown node: the whole batch is rejected atomically.
    match client.apply_delta(&[wire("nope", "a", "n1")], &[]).unwrap() {
        Response::Error { code, message, .. } => {
            assert_eq!(code, ErrorCode::BadDelta);
            assert!(message.contains("nope"), "diagnostic names the offender");
        }
        other => panic!("expected BAD_DELTA for unknown node, got {other:?}"),
    }
    // Unknown label, and on the removal side this time.
    match client.apply_delta(&[], &[wire("n0", "zzz", "n1")]).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadDelta),
        other => panic!("expected BAD_DELTA for unknown label, got {other:?}"),
    }

    // The connection survives and the served graph is untouched.
    client.ping().expect("connection survives BAD_DELTA");
    let (bits, _, _) = result_bits(client.query_text("a·b", NO_DEADLINE_MS).unwrap());
    assert_eq!(bits, expected, "a rejected delta must not patch anything");
    let stats = client.stats().unwrap();
    assert_eq!(counter(&stats, "serve.deltas_applied"), 0);
}

#[test]
fn deltas_accumulate_and_an_empty_delta_is_a_noop() {
    let graph = ring_graph(30);
    let server = serve(graph.clone());
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Two deltas in sequence: remove an edge, then put it back. The
    // final answers must match the original graph bit-for-bit.
    let expected = direct_monadic(&graph, "(a+c)*");
    match client.apply_delta(&[], &[wire("n0", "a", "n1")]).unwrap() {
        Response::DeltaApplied { .. } => {}
        other => panic!("expected DELTA_APPLIED, got {other:?}"),
    }
    match client.apply_delta(&[wire("n0", "a", "n1")], &[]).unwrap() {
        Response::DeltaApplied { .. } => {}
        other => panic!("expected DELTA_APPLIED, got {other:?}"),
    }
    let (bits, _, _) = result_bits(client.query_text("(a+c)*", NO_DEADLINE_MS).unwrap());
    assert_eq!(bits, expected, "remove-then-add must round-trip the graph");

    // An empty delta applies, touches nothing and invalidates nothing.
    match client.apply_delta(&[], &[]).unwrap() {
        Response::DeltaApplied { invalidated, .. } => assert_eq!(invalidated, 0),
        other => panic!("expected DELTA_APPLIED, got {other:?}"),
    }
    let (_, _, served) = result_bits(client.query_text("(a+c)*", NO_DEADLINE_MS).unwrap());
    assert_eq!(served, WireServed::Hit, "an empty delta spares the cache");

    let stats = client.stats().unwrap();
    assert_eq!(counter(&stats, "serve.deltas_applied"), 3);
}

#[test]
fn a_delta_that_misses_the_footprint_spares_the_entry() {
    // On the ring, the forward search of `c·a` from n0 reaches n0 and,
    // through n0's c-chord, n7, which has a b-edge only: the answer is
    // empty. An a-edge between two nodes the search never reached
    // changes nothing, so the entry survives the label match; an a-edge
    // out of n7 changes the answer, and the entry is patched.
    let graph = ring_graph(30);
    let config = ServeConfig {
        strategy: Plan::Forward,
        ..ServeConfig::default()
    };
    let service = QueryService::new(graph.clone(), config);
    let query = Regex::parse("c·a", graph.alphabet()).unwrap().to_dfa(3);
    let node = |name: &str| graph.node_id(name).unwrap();
    let a = graph.alphabet().symbol("a").unwrap();
    let before = service.query_binary_from(&query, node("n0"));
    let applied = service
        .apply_delta(&[(node("n20"), a, node("n21"))], &[])
        .unwrap();
    assert_eq!(applied.invalidated, 0, "the footprint missed the edge");
    assert_eq!(service.cache_usage().0, 1);
    let spared = service.query_binary_from(&query, node("n0"));
    assert_eq!(spared.served, Served::Hit);
    assert_eq!(spared.result, before.result);
    let counters = service.telemetry().registry.snapshot();
    let count = |name: &str| counter(&counters, name);
    assert_eq!(count("cache.spared"), 1);
    assert_eq!(count("cache.invalidated"), 0);

    let applied = service
        .apply_delta(&[(node("n7"), a, node("n12"))], &[])
        .unwrap();
    assert_eq!(
        (applied.invalidated, applied.patched),
        (0, 1),
        "an edge out of n7 hits"
    );
    let after = service.query_binary_from(&query, node("n0"));
    assert_eq!(after.served, Served::Hit);
    assert!(before.result.is_empty());
    assert_eq!(
        after.result.iter().collect::<Vec<_>>(),
        [node("n12") as usize]
    );
    assert_eq!(
        *after.result,
        eval_binary_from(&query, &service.graph().compact(), node("n0"))
    );
    let counters = service.telemetry().registry.snapshot();
    assert_eq!(counter(&counters, "cache.patched"), 1);
    assert_eq!(counter(&counters, "cache.invalidated"), 0);
}

/// A patch may spend what the entry's evaluation spent, and no more.
/// On a 20-node `a`-chain the forward search of `a*` from n0 steps once
/// per node. Cutting the chain near its end loses one pair, which is
/// cheap to patch; cutting it at the start loses every pair but the
/// source, and re-deriving those costs more than evaluating the chain
/// did, so the entry is dropped and the next read evaluates it again.
#[test]
fn an_over_budget_patch_drops_the_entry_and_it_is_evaluated_again() {
    let mut builder = GraphBuilder::with_alphabet(Alphabet::from_labels(LABELS));
    let first = builder.add_nodes("n", 20);
    let a = Symbol::from_index(0);
    for i in 0..19 {
        builder.add_edge_ids(first + i, a, first + i + 1);
    }
    let graph = builder.build();
    let config = ServeConfig {
        strategy: Plan::Forward,
        ..ServeConfig::default()
    };
    let service = QueryService::new(graph.clone(), config);
    let query = Regex::parse("a*", graph.alphabet()).unwrap().to_dfa(3);
    let source = first;
    service.query_binary_from(&query, source);
    let counters = || service.telemetry().registry.snapshot();

    let applied = service
        .apply_delta(&[], &[(first + 18, a, first + 19)])
        .unwrap();
    assert_eq!(
        (applied.invalidated, applied.patched),
        (0, 1),
        "within budget"
    );
    let served = service.query_binary_from(&query, source);
    assert_eq!(served.served, Served::Hit);
    assert_eq!(
        *served.result,
        eval_binary_from(&query, &service.graph().compact(), source)
    );

    let applied = service.apply_delta(&[], &[(first, a, first + 1)]).unwrap();
    assert_eq!(
        (applied.invalidated, applied.patched),
        (1, 0),
        "over budget"
    );
    assert_eq!(service.cache_usage().0, 0);
    assert_eq!(counter(&counters(), "cache.invalidated"), 1);
    assert_eq!(counter(&counters(), "cache.patched"), 1);
    let served = service.query_binary_from(&query, source);
    assert!(matches!(served.served, Served::Evaluated { .. }));
    assert_eq!(
        *served.result,
        eval_binary_from(&query, &service.graph().compact(), source)
    );
    assert_eq!(served.result.iter().collect::<Vec<_>>(), [source as usize]);
}

/// An entry's patch budget counts every level its evaluation ran, not
/// only the levels a trace keeps ([`MAX_LEVEL_SAMPLES`]). On a 600-node
/// `a`-chain the forward search of `a*` from n0 runs 600 levels and
/// spends 1,200 units; cutting the chain after n400 loses 199 pairs,
/// which costs about as much to patch as the levels past the traced
/// ones did to evaluate. Priced by its first 256 levels, the entry was
/// dropped.
#[test]
fn a_deep_answer_is_priced_by_every_level_it_ran() {
    const NODES: u32 = 600;
    assert!(NODES as usize > 2 * MAX_LEVEL_SAMPLES);
    let mut builder = GraphBuilder::with_alphabet(Alphabet::from_labels(LABELS));
    let first = builder.add_nodes("n", NODES as usize);
    let a = Symbol::from_index(0);
    for i in 0..NODES - 1 {
        builder.add_edge_ids(first + i, a, first + i + 1);
    }
    let graph = builder.build();
    let config = ServeConfig {
        strategy: Plan::Forward,
        ..ServeConfig::default()
    };
    let service = QueryService::new(graph.clone(), config);
    let query = Regex::parse("a*", graph.alphabet()).unwrap().to_dfa(3);
    let source = first;
    assert_eq!(service.query_binary_from(&query, source).result.len(), 600);

    let applied = service
        .apply_delta(&[], &[(first + 400, a, first + 401)])
        .unwrap();
    assert_eq!(
        (applied.invalidated, applied.patched),
        (0, 1),
        "within the budget of all 600 levels"
    );
    let served = service.query_binary_from(&query, source);
    assert_eq!(served.served, Served::Hit);
    assert_eq!(
        *served.result,
        eval_binary_from(&query, &service.graph().compact(), source)
    );
    assert_eq!(served.result.len(), 401);
}

/// `/healthz` reads `persistence_status`, so it must not wait for a
/// write. A durable service's write logs its batch and then waits for
/// the evaluation it races (held 300 ms); meanwhile a third thread's
/// status read returns at once, with the record count of the last
/// applied write.
#[test]
fn a_health_check_never_waits_for_a_write() {
    let dir = std::env::temp_dir().join(format!("pathlearn-healthz-{}", std::process::id()));
    let graph = ring_graph(24);
    let recovered = {
        let graph = graph.clone();
        Persistence::recover(&dir, 1 << 20, move || Ok(graph)).expect("seed")
    };
    let config = ServeConfig {
        eval_holdoff: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    let service = QueryService::new(recovered.graph, config);
    service.attach_persistence(recovered.persistence);
    let a = graph.alphabet().symbol("a").unwrap();
    let node = |name: &str| graph.node_id(name).unwrap();
    service
        .apply_delta(&[(node("n0"), a, node("n5"))], &[])
        .expect("first write");
    assert_eq!(service.persistence_status(), Some((1, 1 << 20)));
    let query = Regex::parse("a·a", graph.alphabet()).unwrap().to_dfa(3);
    std::thread::scope(|scope| {
        let owner = scope.spawn(|| service.query_monadic(&query));
        std::thread::sleep(Duration::from_millis(50));
        let writer = scope.spawn(|| {
            service
                .apply_delta(&[(node("n1"), a, node("n9"))], &[])
                .expect("second write")
        });
        std::thread::sleep(Duration::from_millis(100));
        let asked = Instant::now();
        let status = service.persistence_status();
        let waited = asked.elapsed();
        assert!(waited < Duration::from_millis(50), "waited {waited:?}");
        assert_eq!(status, Some((1, 1 << 20)), "the pre-write record count");
        assert!(!writer.is_finished(), "the write must still be waiting");
        assert!(service.is_durable());
        owner.join().unwrap();
        writer.join().unwrap();
    });
    assert_eq!(service.persistence_status(), Some((2, 1 << 20)));
    std::fs::remove_dir_all(&dir).ok();
}

const LABELS: [&str; 3] = ["a", "b", "c"];

/// Concatenation, stars and disjunction, nested; the last has `ε` in
/// its language.
const QUERIES: [&str; 8] = [
    "a",
    "a·b",
    "(a+b)*·c",
    "(a·b)*·c",
    "b·(a+c)*",
    "c·c*·a",
    "(a+b+c)*·b·b",
    "(a·c)*",
];

type RawEdge = (u32, usize, u32);

/// One raw delta batch: random additions and removals (ids taken mod
/// the node count, so they hit absent edges and each other), removals
/// of present edges (indices into the current edge list), and
/// additions repeated within the batch.
#[derive(Clone, Debug)]
struct RawBatch {
    add: Vec<RawEdge>,
    remove: Vec<RawEdge>,
    remove_present: Vec<usize>,
    repeat_adds: bool,
}

fn arb_graph() -> impl Strategy<Value = GraphDb> {
    (
        2usize..13,
        proptest::collection::vec((0u32..12, 0usize..3, 0u32..12), 0..36),
    )
        .prop_map(|(n, edges)| {
            let mut builder = GraphBuilder::with_alphabet(Alphabet::from_labels(LABELS));
            builder.add_nodes("n", n);
            let n = n as u32;
            for (src, sym, dst) in edges {
                builder.add_edge_ids(src % n, Symbol::from_index(sym), dst % n);
            }
            builder.build()
        })
}

fn arb_batches() -> impl Strategy<Value = Vec<RawBatch>> {
    let edge = (0u32..12, 0usize..3, 0u32..12);
    proptest::collection::vec(
        (
            proptest::collection::vec(edge.clone(), 0..4),
            proptest::collection::vec(edge, 0..3),
            proptest::collection::vec(0usize..64, 0..3),
            any::<bool>(),
        )
            .prop_map(|(add, remove, remove_present, repeat_adds)| RawBatch {
                add,
                remove,
                remove_present,
                repeat_adds,
            }),
        1..7,
    )
}

type Edge = (NodeId, Symbol, NodeId);

/// Resolves a raw batch against the current graph.
fn batch(graph: &GraphDb, raw: &RawBatch) -> (Vec<Edge>, Vec<Edge>) {
    let n = graph.num_nodes() as u32;
    let fix = |&(src, sym, dst): &RawEdge| (src % n, Symbol::from_index(sym), dst % n);
    let mut add: Vec<Edge> = raw.add.iter().map(fix).collect();
    if raw.repeat_adds {
        add.extend(add.clone());
    }
    let mut remove: Vec<Edge> = raw.remove.iter().map(fix).collect();
    let present: Vec<Edge> = graph.edges().collect();
    if !present.is_empty() {
        remove.extend(
            raw.remove_present
                .iter()
                .map(|&i| present[i % present.len()]),
        );
    }
    (add, remove)
}

/// Every monadic answer and every binary answer from every source that
/// `service` serves equals a fresh evaluation on its current graph.
fn assert_served_fresh(service: &QueryService, queries: &[Dfa]) -> Result<(), TestCaseError> {
    let graph = service.graph();
    for (query, expr) in queries.iter().zip(QUERIES) {
        let served = service.query_monadic(query);
        prop_assert_eq!(
            &*served.result,
            &eval_monadic(query, &graph),
            "monadic {} served {:?}",
            expr,
            served.served
        );
        for source in graph.nodes() {
            let served = service.query_binary_from(query, source);
            prop_assert_eq!(
                &*served.result,
                &eval_binary_from(query, &graph, source),
                "binary {} from {} served {:?}",
                expr,
                source,
                served.served
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whole-service soundness of footprint-filtered invalidation: warm
    /// every answer, apply a batch, and check every answer again —
    /// served hits included — under every planner strategy.
    #[test]
    fn served_answers_stay_fresh_across_random_deltas(
        graph in arb_graph(),
        batches in arb_batches(),
    ) {
        let queries: Vec<Dfa> = QUERIES
            .iter()
            .map(|expr| Regex::parse(expr, graph.alphabet()).unwrap().to_dfa(3))
            .collect();
        for strategy in Plan::ALL {
            let config = ServeConfig {
                strategy,
                ..ServeConfig::default()
            };
            let service = QueryService::new(graph.clone(), config);
            assert_served_fresh(&service, &queries)?;
            for raw in &batches {
                let (add, remove) = batch(&service.graph(), raw);
                service.apply_delta(&add, &remove).expect("in-range batch");
                assert_served_fresh(&service, &queries)?;
            }
        }
    }
}

/// Reads racing writes leave no pre-write answer in the cache: three
/// reader threads submit every query, monadic and binary, in a loop
/// while one writer applies seeded batches, each adding and removing
/// edges of every label. Once all have joined, every answer the service
/// serves equals a fresh evaluation on the graph it ended with.
#[test]
fn racing_reads_and_writes_leave_no_pre_write_answer() {
    let graph = ring_graph(24);
    let config = ServeConfig {
        // Keep every evaluation in flight a little, so writes wait for
        // some and land between others.
        eval_holdoff: std::time::Duration::from_micros(200),
        ..ServeConfig::default()
    };
    let service = QueryService::new(graph.clone(), config);
    let queries: Vec<Dfa> = QUERIES
        .iter()
        .map(|expr| Regex::parse(expr, graph.alphabet()).unwrap().to_dfa(3))
        .collect();
    let sources: Vec<NodeId> = graph.nodes().collect();
    let writing = std::sync::atomic::AtomicBool::new(true);
    std::thread::scope(|scope| {
        for reader in 0..3 {
            let (service, queries, sources, writing) = (&service, &queries, &sources, &writing);
            scope.spawn(move || {
                while writing.load(std::sync::atomic::Ordering::Relaxed) {
                    for query in queries {
                        service.query_monadic(query);
                        for &source in sources.iter().skip(reader).step_by(3) {
                            service.query_binary_from(query, source);
                        }
                    }
                }
            });
        }
        let n = graph.num_nodes() as u32;
        let mut state = 41u64;
        let mut next = |bound: u32| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % u64::from(bound)) as u32
        };
        for _ in 0..30 {
            let present: Vec<Edge> = service.graph().edges().collect();
            let remove: Vec<Edge> = (0..2)
                .map(|_| present[next(present.len() as u32) as usize])
                .collect();
            let add: Vec<Edge> = (0..3)
                .map(|label| (next(n), Symbol::from_index(label), next(n)))
                .collect();
            service.apply_delta(&add, &remove).expect("in-range batch");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        writing.store(false, std::sync::atomic::Ordering::Relaxed);
    });
    assert_eq!(service.stats().deltas_applied, 30);
    let graph = service.graph().compact();
    for (query, expr) in queries.iter().zip(QUERIES) {
        let served = service.query_monadic(query);
        assert!(
            matches!(served.served, Served::Hit | Served::Evaluated { .. }),
            "monadic {expr}: {:?}",
            served.served
        );
        assert_eq!(
            *served.result,
            eval_monadic(query, &graph),
            "monadic {expr}"
        );
        for &source in &sources {
            let served = service.query_binary_from(query, source);
            assert!(
                matches!(served.served, Served::Hit | Served::Evaluated { .. }),
                "binary {expr} from {source}: {:?}",
                served.served
            );
            assert_eq!(
                *served.result,
                eval_binary_from(query, &graph, source),
                "binary {expr} from {source}"
            );
        }
    }
}
