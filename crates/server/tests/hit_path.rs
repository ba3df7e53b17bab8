//! The hit path's semantics, as a matrix — named by CI.
//!
//! A query whose answer is resident is answered on the connection
//! thread before it takes an evaluation slot. That must be invisible
//! except in latency: for a resident **monadic** key, a resident
//! **binary** key and a **fingerprint** reference alike, deadlines,
//! drains, counters and traces behave exactly as they do for a
//! submission that took a slot — with two documented differences: a
//! hit leaves no queue-wait sample (it never waited for a slot), and a
//! full gate does not shed it (shedding protects the slots; a hit
//! needs none).
//!
//! Interleavings are forced by polling the server's own health report
//! (`running`, `queue_depth`, phase) rather than by sleeping and
//! hoping.

use pathlearn_automata::{Alphabet, BitSet, Regex, Symbol};
use pathlearn_graph::eval::{eval_binary_from, eval_monadic};
use pathlearn_graph::{GraphBuilder, GraphDb};
use pathlearn_server::{
    Client, ErrorCode, HealthPhase, HealthReport, NetConfig, QueryService, Response, ServeConfig,
    Server, WireServed, NO_DEADLINE_MS,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// A ring with chords over `a`, `b`, `c` — multi-word frontiers, every
/// label reachable.
fn ring_graph(n: usize) -> GraphDb {
    let mut builder = GraphBuilder::with_alphabet(Alphabet::from_labels(["a", "b", "c"]));
    let first = builder.add_nodes("n", n);
    for i in 0..n as u32 {
        let label = Symbol::from_index(i as usize % 3);
        builder.add_edge_ids(first + i, label, first + (i + 1) % n as u32);
        if i % 5 == 0 {
            builder.add_edge_ids(first + i, Symbol::from_index(2), first + (i + 7) % n as u32);
        }
    }
    builder.build()
}

const MONADIC: &str = "(a+b)*·c";
const BINARY: &str = "a·b";
const SOURCE: u32 = 0;

fn dfa(graph: &GraphDb, expr: &str) -> pathlearn_automata::Dfa {
    Regex::parse(expr, graph.alphabet())
        .unwrap()
        .to_dfa(graph.alphabet().len())
}

/// The three ways a frame can name a resident key.
#[derive(Clone, Copy, Debug)]
enum Shape {
    MonadicText,
    BinaryText,
    Fingerprint(u64),
}

impl Shape {
    fn fire(self, client: &mut Client, deadline_ms: u32) -> Response {
        match self {
            Shape::MonadicText => client.query_text(MONADIC, deadline_ms),
            Shape::BinaryText => client.query_text_binary(BINARY, SOURCE, deadline_ms),
            Shape::Fingerprint(fingerprint) => client.query_fingerprint(fingerprint, deadline_ms),
        }
        .expect("one reply per frame")
    }

    fn expected(self, graph: &GraphDb) -> BitSet {
        match self {
            Shape::MonadicText | Shape::Fingerprint(_) => eval_monadic(&dfa(graph, MONADIC), graph),
            Shape::BinaryText => eval_binary_from(&dfa(graph, BINARY), graph, SOURCE),
        }
    }

    fn kind(self) -> &'static str {
        match self {
            Shape::BinaryText => "binary",
            _ => "monadic",
        }
    }
}

/// A served graph with the monadic and the binary key resident and the
/// monadic fingerprint established; returns the three shapes.
fn warmed(serve_config: ServeConfig, net_config: NetConfig) -> (Server, GraphDb, [Shape; 3]) {
    let graph = ring_graph(200);
    let service = QueryService::new(graph.clone(), serve_config);
    let server = Server::bind(service, "127.0.0.1:0", net_config).expect("bind ephemeral port");
    let mut client = Client::connect(server.local_addr()).unwrap();
    let fingerprint = match Shape::MonadicText.fire(&mut client, NO_DEADLINE_MS) {
        Response::Result {
            fingerprint,
            served,
            ..
        } => {
            assert_ne!(served, WireServed::Hit, "first sight is a miss");
            fingerprint
        }
        other => panic!("warm-up got {other:?}"),
    };
    match Shape::BinaryText.fire(&mut client, NO_DEADLINE_MS) {
        Response::Result { .. } => {}
        other => panic!("warm-up got {other:?}"),
    }
    let shapes = [
        Shape::MonadicText,
        Shape::BinaryText,
        Shape::Fingerprint(fingerprint),
    ];
    // Tests that count held slots must not see the warm-up's: wait
    // until every slot is free.
    wait_for(
        server.admin_sources().health,
        "the warm-up to settle",
        |_, running, depth| (running, depth) == (0, 0),
    );
    (server, graph, shapes)
}

fn counters(server: &Server) -> BTreeMap<String, u64> {
    server.counters().into_iter().collect()
}

/// `after − before` for one counter (counters only grow).
fn moved(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>, name: &str) -> u64 {
    after[name] - before[name]
}

/// Polls a server's health report until `ready` holds.
fn wait_for(
    health: impl Fn() -> HealthReport,
    what: &str,
    ready: impl Fn(HealthPhase, u64, u64) -> bool,
) {
    let give_up = Instant::now() + Duration::from_secs(20);
    loop {
        let report = health();
        let detail = |key: &str| -> u64 {
            report
                .detail
                .iter()
                .find(|(name, _)| name == key)
                .map(|(_, value)| value.parse().unwrap())
                .unwrap_or_else(|| panic!("health detail {key} missing"))
        };
        if ready(report.phase, detail("running"), detail("queue_depth")) {
            return;
        }
        assert!(
            Instant::now() < give_up,
            "timed out waiting for {what}: {:?} {:?}",
            report.phase,
            report.detail
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn a_hit_moves_exactly_the_hit_counters_and_leaves_one_hit_trace() {
    let (server, graph, shapes) = warmed(ServeConfig::default(), NetConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let traces = server.service().telemetry();
    for shape in shapes {
        let hit_traces = || {
            traces
                .traces
                .recent()
                .into_iter()
                .filter(|trace| trace.outcome == "hit" && trace.kind == shape.kind())
                .collect::<Vec<_>>()
        };
        let traces_before = hit_traces().len();
        let before = counters(&server);
        match shape.fire(&mut client, NO_DEADLINE_MS) {
            Response::Result { served, bits, .. } => {
                assert_eq!(served, WireServed::Hit, "{shape:?}");
                assert_eq!(bits, shape.expected(&graph), "{shape:?}");
            }
            other => panic!("{shape:?} got {other:?}"),
        }
        let after = counters(&server);
        for name in [
            "serve.hits",
            "cache.hits",
            "net.queries",
            "net.latency_count",
        ] {
            assert_eq!(moved(&before, &after, name), 1, "{shape:?}: {name}");
        }
        for name in [
            "serve.queue_wait_count",
            "cache.misses",
            "serve.misses",
            "serve.coalesced",
            "net.shed",
            "net.deadline_replies",
            "net.draining_replies",
        ] {
            assert_eq!(moved(&before, &after, name), 0, "{shape:?}: {name}");
        }
        let traces_after = hit_traces();
        assert_eq!(
            traces_after.len(),
            traces_before + 1,
            "{shape:?}: one trace"
        );
        let trace = traces_after.last().unwrap();
        assert_eq!(trace.queue_wait_ns, 0, "a fast-path hit never queued");
        assert_eq!(trace.result_bits, shape.expected(&graph).len() as u64);
        assert!(trace.spans.iter().any(|span| span.name == "cache_probe"));
    }
}

#[test]
fn a_spent_budget_on_a_resident_key_is_still_a_deadline() {
    let (server, _graph, shapes) = warmed(ServeConfig::default(), NetConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    for shape in shapes {
        let before = counters(&server);
        match shape.fire(&mut client, 0) {
            Response::Deadline { .. } => {}
            other => panic!("{shape:?}: a 0ms budget must answer DEADLINE, got {other:?}"),
        }
        let after = counters(&server);
        for name in [
            "net.deadline_replies",
            "serve.deadline_exceeded",
            "net.queries",
        ] {
            assert_eq!(moved(&before, &after, name), 1, "{shape:?}: {name}");
        }
        for name in ["serve.hits", "cache.hits", "cache.misses", "serve.misses"] {
            assert_eq!(moved(&before, &after, name), 0, "{shape:?}: {name}");
        }
    }
}

/// Once [`Server::shutdown`] has begun draining, every resident key
/// answers `DRAINING` — not its hit — exactly as a cold one does.
#[test]
fn a_drain_closes_the_fast_path_too() {
    let serve_config = ServeConfig {
        // One cold evaluation parked in its publication holdoff keeps
        // the drain open long enough to probe it.
        eval_holdoff: Duration::from_millis(500),
        ..ServeConfig::default()
    };
    let (mut server, _, shapes) = warmed(serve_config, NetConfig::default());
    let health = server.admin_sources().health;
    // A stopping server accepts no connection, so both clients connect
    // first; a PING proves each one was accepted.
    let mut parked = Client::connect(server.local_addr()).unwrap();
    let mut prober = Client::connect(server.local_addr()).unwrap();
    parked.ping().unwrap();
    prober.ping().unwrap();

    std::thread::scope(|scope| {
        let parked = scope.spawn(move || parked.query_text("c·a*", NO_DEADLINE_MS).unwrap());
        wait_for(
            &health,
            "the cold query to occupy its slot",
            |_, running, _| running == 1,
        );
        // Let it finish evaluating (microseconds) and settle into the
        // holdoff, where the drain cannot cancel it: that is what keeps
        // the drain open for the prober.
        std::thread::sleep(Duration::from_millis(100));

        // Fires the moment the health report says `draining`.
        let health = &health;
        let probe = scope.spawn(move || {
            wait_for(health, "the drain to begin", |phase, _, _| {
                phase == HealthPhase::Draining
            });
            let stats = |client: &mut Client| -> BTreeMap<String, u64> {
                client.stats().unwrap().into_iter().collect()
            };
            let before = stats(&mut prober);
            for shape in shapes {
                match shape.fire(&mut prober, NO_DEADLINE_MS) {
                    Response::Draining { .. } => {}
                    other => panic!("{shape:?} mid-drain got {other:?}"),
                }
            }
            let after = stats(&mut prober);
            assert_eq!(moved(&before, &after, "net.draining_replies"), 3);
            assert_eq!(moved(&before, &after, "serve.hits"), 0);
        });
        server.shutdown();
        probe.join().unwrap();
        match parked.join().unwrap() {
            Response::Result { .. } | Response::Draining { .. } => {}
            other => panic!("the parked frame got {other:?}"),
        }
    });
}

/// New, documented behaviour: with every evaluation slot taken **and**
/// the wait for one full, a resident key is still a `Hit` — it needs no
/// slot, so shedding it would protect nothing — while a cold key is
/// shed exactly as before.
#[test]
fn a_full_queue_sheds_cold_keys_but_still_answers_resident_ones() {
    let serve_config = ServeConfig {
        eval_holdoff: Duration::from_millis(700),
        ..ServeConfig::default()
    };
    let net_config = NetConfig {
        eval_workers: 2,
        queue_depth: 1,
        ..NetConfig::default()
    };
    let (server, graph, shapes) = warmed(serve_config, net_config);
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        let cold = |expr: &'static str| {
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.query_text(expr, NO_DEADLINE_MS).unwrap()
            })
        };
        // Two cold queries take both slots and park in the holdoff; a
        // third waits for a slot, which fills the depth-1 wait. One at
        // a time, so each settles into its slot or its wait before the
        // next arrives.
        let mut admitted = Vec::new();
        for (expr, running, depth) in [("a", 1, 0), ("b", 2, 0), ("c", 2, 1)] {
            admitted.push(cold(expr));
            wait_for(
                server.admin_sources().health,
                "the cold queries to settle",
                |_, r, d| (r, d) == (running, depth),
            );
        }

        let mut client = Client::connect(addr).unwrap();
        let before = counters(&server);
        for shape in shapes {
            match shape.fire(&mut client, NO_DEADLINE_MS) {
                Response::Result { served, bits, .. } => {
                    assert_eq!(served, WireServed::Hit, "{shape:?}");
                    assert_eq!(bits, shape.expected(&graph), "{shape:?}");
                }
                other => panic!("{shape:?} with the queue full got {other:?}"),
            }
        }
        match client.query_text("a·a", NO_DEADLINE_MS).unwrap() {
            Response::Shed { retry_after_ms, .. } => assert!(retry_after_ms > 0),
            other => panic!("a cold key with the queue full got {other:?}"),
        }
        let after = counters(&server);
        assert_eq!(moved(&before, &after, "serve.hits"), 3);
        assert_eq!(moved(&before, &after, "net.shed"), 1);
        assert_eq!(moved(&before, &after, "serve.queue_wait_count"), 0);

        for handle in admitted {
            match handle.join().unwrap() {
                Response::Result { .. } => {}
                other => panic!("an admitted cold query got {other:?}"),
            }
        }
    });
}

/// Every `net.queries` frame is accounted for by exactly one outcome
/// counter or one request-level `ERROR` reply — the fast path neither
/// double-counts (a miss it passed on is counted once, by the admitted
/// path) nor drops (a hit it answered is a `serve.hits`).
#[test]
fn counters_reconcile_over_a_mixed_single_client_run() {
    let graph = ring_graph(120);
    let service = QueryService::new(graph, ServeConfig::default());
    let server = Server::bind(service, "127.0.0.1:0", NetConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let texts = ["a", "a·b", "(a+b)*·c", "c·a*", "b·(a·b)", "(b·a)·b", "c+a"];
    let mut fingerprints: Vec<u64> = vec![0xdead_beef];
    let mut errors = 0u64;
    let mut frames = 0u64;
    for step in 0..140usize {
        let text = texts[step * 5 % texts.len()];
        let response = match step % 7 {
            // Text, monadic: first sights miss, repeats hit.
            0 | 1 => client.query_text(text, NO_DEADLINE_MS),
            // Text, binary, a handful of sources.
            2 => client.query_text_binary(text, (step % 3) as u32, NO_DEADLINE_MS),
            // By fingerprint: one never established, the rest real.
            3 => client.query_fingerprint(fingerprints[step % fingerprints.len()], NO_DEADLINE_MS),
            // A spent budget, on resident and cold keys alike.
            4 => client.query_text(text, 0),
            // Not a regex / not this graph's label.
            5 => client.query_text(if step % 2 == 0 { "((" } else { "zzz" }, NO_DEADLINE_MS),
            // A generous budget behaves like none.
            _ => client.query_text(text, 60_000),
        }
        .unwrap();
        frames += 1;
        match response {
            Response::Result { fingerprint, .. } => {
                if !fingerprints.contains(&fingerprint) {
                    fingerprints.push(fingerprint);
                }
            }
            Response::Error { code, .. } => {
                assert!(matches!(
                    code,
                    ErrorCode::Parse | ErrorCode::UnknownFingerprint
                ));
                errors += 1;
            }
            Response::Deadline { .. } => {}
            other => panic!("step {step}: unexpected {other:?}"),
        }
    }

    let stats = counters(&server);
    assert_eq!(stats["net.queries"], frames);
    let accounted = stats["serve.hits"]
        + stats["serve.misses"]
        + stats["serve.coalesced"]
        + stats["net.deadline_replies"]
        + stats["net.draining_replies"]
        + stats["net.shed"]
        + errors;
    assert_eq!(
        accounted, frames,
        "hits {} + misses {} + coalesced {} + deadline {} + draining {} + shed {} + errors {errors}",
        stats["serve.hits"],
        stats["serve.misses"],
        stats["serve.coalesced"],
        stats["net.deadline_replies"],
        stats["net.draining_replies"],
        stats["net.shed"],
    );
    // The mix really was mixed.
    for name in ["serve.hits", "serve.misses", "net.deadline_replies"] {
        assert!(stats[name] > 0, "{name} never moved");
    }
    assert!(errors > 0);
    // One cache lookup counted per served submission: the fast path's
    // probe of a key that then missed left no second `cache.misses`.
    assert_eq!(stats["cache.hits"], stats["serve.hits"]);
    assert_eq!(stats["cache.misses"], stats["serve.misses"]);
    assert_eq!(
        stats["serve.deadline_exceeded"],
        stats["net.deadline_replies"]
    );
    assert_eq!(
        stats["serve.queue_wait_count"],
        stats["serve.misses"] + stats["net.deadline_replies"]
    );
}
