//! TCP front-door smoke gate — the happy paths plus the shutdown drain,
//! named by CI.
//!
//! Every test binds an ephemeral port (`127.0.0.1:0`), so the suite's
//! tests run concurrently without coordination.

use pathlearn_automata::Symbol;
use pathlearn_graph::eval::{eval_binary_from, eval_monadic};
use pathlearn_graph::{GraphBuilder, GraphDb};
use pathlearn_server::{
    Client, ErrorCode, NetConfig, Response, ServeConfig, Server, WireServed, NO_DEADLINE_MS,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A ring with chords — multi-word frontiers, both labels reachable.
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

fn serve(graph: GraphDb, serve_config: ServeConfig, net_config: NetConfig) -> Server {
    let service = pathlearn_server::QueryService::new(graph, serve_config);
    Server::bind(service, "127.0.0.1:0", net_config).expect("bind ephemeral port")
}

fn counter(counters: &[(String, u64)], name: &str) -> u64 {
    counters
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("counter {name} missing"))
        .1
}

#[test]
fn roundtrip_is_bit_identical_and_fingerprints_reuse_the_cache() {
    let graph = ring_graph(60);
    let server = serve(graph.clone(), ServeConfig::default(), NetConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.ping().unwrap();

    for expr in ["(a+b)*·c", "a·(b·c)", "c·a*"] {
        let expected = direct_monadic(&graph, expr);
        let response = client.query_text(expr, NO_DEADLINE_MS).unwrap();
        let (bits, fingerprint) = match response {
            Response::Result {
                bits, fingerprint, ..
            } => (bits, fingerprint),
            other => panic!("expected RESULT for {expr}, got {other:?}"),
        };
        assert_eq!(bits, expected, "wire bits differ from direct eval ({expr})");

        // The text submission established the fingerprint; replaying it
        // must hit the result cache and stay bit-identical.
        match client
            .query_fingerprint(fingerprint, NO_DEADLINE_MS)
            .unwrap()
        {
            Response::Result { bits, served, .. } => {
                assert_eq!(bits, expected);
                assert_eq!(served, WireServed::Hit, "fingerprint replay should hit");
            }
            other => panic!("expected RESULT for fingerprint replay, got {other:?}"),
        }
    }

    // Binary semantics from a concrete source.
    let dfa = pathlearn_automata::Regex::parse("a·b", graph.alphabet())
        .unwrap()
        .to_dfa(graph.alphabet().len());
    let expected = eval_binary_from(&dfa, &graph, 0);
    match client.query_text_binary("a·b", 0, NO_DEADLINE_MS).unwrap() {
        Response::Result { bits, .. } => assert_eq!(bits, expected),
        other => panic!("expected binary RESULT, got {other:?}"),
    }

    let stats = client.stats().unwrap();
    assert!(counter(&stats, "net.queries") >= 5);
    assert!(counter(&stats, "serve.hits") >= 3);
    assert_eq!(counter(&stats, "net.malformed"), 0);
}

#[test]
fn parse_and_fingerprint_errors_fail_the_request_not_the_connection() {
    let server = serve(ring_graph(20), ServeConfig::default(), NetConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();

    match client.query_text("((", NO_DEADLINE_MS).unwrap() {
        Response::Error { code, message, .. } => {
            assert_eq!(code, ErrorCode::Parse);
            assert!(!message.is_empty(), "parse errors carry a diagnostic");
        }
        other => panic!("expected parse ERROR, got {other:?}"),
    }
    client.ping().expect("connection survives a parse error");

    match client
        .query_fingerprint(0xdead_beef, NO_DEADLINE_MS)
        .unwrap()
    {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownFingerprint),
        other => panic!("expected UNKNOWN_FINGERPRINT, got {other:?}"),
    }
    client
        .ping()
        .expect("connection survives an unknown fingerprint");
}

#[test]
fn zero_deadline_queries_get_deadline_frames_and_count() {
    let server = serve(ring_graph(40), ServeConfig::default(), NetConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();

    for _ in 0..3 {
        match client.query_text("(a+b)*·c", 0).unwrap() {
            Response::Deadline { .. } => {}
            other => panic!("a 0ms budget must answer DEADLINE, got {other:?}"),
        }
    }
    // The budget dies before admission, so nothing was evaluated or
    // cached — a follow-up unbounded query still works and misses.
    match client.query_text("(a+b)*·c", NO_DEADLINE_MS).unwrap() {
        Response::Result { .. } => {}
        other => panic!("expected RESULT, got {other:?}"),
    }
    let stats = client.stats().unwrap();
    assert_eq!(counter(&stats, "net.deadline_replies"), 3);
    assert_eq!(counter(&stats, "serve.deadline_exceeded"), 3);
}

#[test]
fn overloaded_queue_sheds_with_a_retry_hint() {
    // One evaluation slot, at most one waiter, and a 300ms publication
    // holdoff: the first query holds the slot, the second waits for
    // it, and later arrivals must shed.
    let serve_config = ServeConfig {
        eval_holdoff: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    let net_config = NetConfig {
        queue_depth: 1,
        eval_workers: 1,
        retry_after_ms: 77,
        ..NetConfig::default()
    };
    let server = serve(ring_graph(30), serve_config, net_config);
    let addr = server.local_addr();

    // Distinct expressions so no submission coalesces away.
    let exprs = ["a", "b", "c", "a·b", "b·c", "c·a"];
    let shed = AtomicUsize::new(0);
    let answered = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for (i, expr) in exprs.iter().enumerate() {
            let shed = &shed;
            let answered = &answered;
            scope.spawn(move || {
                // Stagger slightly so arrival order is roughly i-order,
                // but all land inside the first eval's holdoff window.
                std::thread::sleep(Duration::from_millis(5 * i as u64));
                let mut client = Client::connect(addr).unwrap();
                match client.query_text(expr, NO_DEADLINE_MS).unwrap() {
                    Response::Result { .. } => {
                        answered.fetch_add(1, Ordering::Relaxed);
                    }
                    Response::Shed { retry_after_ms, .. } => {
                        // The hint scales with occupancy: here at most
                        // 1 waiting + 1 running on 1 slot, so between
                        // 1× and 2× the 77ms base.
                        assert!(
                            (77..=154).contains(&retry_after_ms),
                            "depth-1 shed hint {retry_after_ms} outside [77, 154]"
                        );
                        shed.fetch_add(1, Ordering::Relaxed);
                    }
                    other => panic!("expected RESULT or SHED, got {other:?}"),
                }
            });
        }
    });
    assert_eq!(
        shed.load(Ordering::Relaxed) + answered.load(Ordering::Relaxed),
        exprs.len()
    );
    assert!(
        shed.load(Ordering::Relaxed) >= 1,
        "watermark 1 with a 300ms holdoff must shed at least one of six near-simultaneous queries"
    );
    assert!(
        answered.load(Ordering::Relaxed) >= 2,
        "the evaluation slot and the one waiter must still answer"
    );
    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(
        counter(&stats, "net.shed") as usize,
        shed.load(Ordering::Relaxed)
    );
}

/// Satellite: the SHED backoff hint scales with the gate's occupancy —
/// a longer wait yields a hint ≥ the shorter wait's, because clients
/// bouncing off a four-deep backlog should wait at least as long as
/// clients bouncing off a one-deep one. With `queue_depth: 4` on one
/// slot, any shed observes occupancy ≥ 4, so its hint is ≥ 4× the
/// base — strictly above the depth-1 test's [77, 154] envelope — and
/// never exceeds the [`pathlearn_server::net::MAX_RETRY_AFTER_MS`] cap.
#[test]
fn deeper_queue_yields_a_larger_retry_hint() {
    let serve_config = ServeConfig {
        eval_holdoff: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    let net_config = NetConfig {
        queue_depth: 4,
        eval_workers: 1,
        retry_after_ms: 77,
        ..NetConfig::default()
    };
    let server = serve(ring_graph(30), serve_config, net_config);
    let addr = server.local_addr();

    // Nine distinct expressions: 1 running + 4 waiting occupy the
    // server for the 300ms holdoff, the rest must shed.
    let exprs = ["a", "b", "c", "a·b", "b·c", "c·a", "a·a", "b·b", "c·c"];
    let shed = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for (i, expr) in exprs.iter().enumerate() {
            let shed = &shed;
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(5 * i as u64));
                let mut client = Client::connect(addr).unwrap();
                match client.query_text(expr, NO_DEADLINE_MS).unwrap() {
                    Response::Result { .. } => {}
                    Response::Shed { retry_after_ms, .. } => {
                        // occupancy ∈ [4, 5] on 1 slot: 4–5 backlog
                        // rounds of the 77ms base.
                        assert!(
                            (308..=385).contains(&retry_after_ms),
                            "depth-4 shed hint {retry_after_ms} outside [308, 385]"
                        );
                        assert!(
                            retry_after_ms > 154,
                            "a deeper queue must hint ≥ the shallow queue's ceiling"
                        );
                        assert!(retry_after_ms <= pathlearn_server::net::MAX_RETRY_AFTER_MS);
                        shed.fetch_add(1, Ordering::Relaxed);
                    }
                    other => panic!("expected RESULT or SHED, got {other:?}"),
                }
            });
        }
    });
    assert!(
        shed.load(Ordering::Relaxed) >= 1,
        "nine near-simultaneous queries against 1 evaluation slot + depth 4 must shed at least one"
    );
}

/// A query waiting for an evaluation slot answers `DEADLINE` at its
/// deadline, not when the slot frees, and never takes the slot: the
/// query holding it still gets its result.
#[test]
fn a_waiting_query_answers_deadline_at_its_deadline() {
    let serve_config = ServeConfig {
        eval_holdoff: Duration::from_millis(600),
        ..ServeConfig::default()
    };
    let net_config = NetConfig {
        eval_workers: 1,
        queue_depth: 4,
        ..NetConfig::default()
    };
    let server = serve(ring_graph(30), serve_config, net_config);
    let addr = server.local_addr();
    let deadlines = || counter(&server.counters(), "serve.deadline_exceeded");
    let before = deadlines();
    let health = server.admin_sources().health;
    let running = || {
        let report = health();
        let (_, value) = report
            .detail
            .iter()
            .find(|(name, _)| name == "running")
            .expect("health reports running")
            .clone();
        value
    };

    std::thread::scope(|scope| {
        let holder = scope.spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.query_text("a·b", NO_DEADLINE_MS).unwrap()
        });
        let mut client = Client::connect(addr).unwrap();
        client.ping().unwrap();
        // The holder is in its 600ms holdoff once it holds the slot.
        let give_up = Instant::now() + Duration::from_secs(20);
        while running() != "1" {
            assert!(Instant::now() < give_up, "the holder never took the slot");
            std::thread::sleep(Duration::from_millis(1));
        }
        let sent = Instant::now();
        match client.query_text("b·c", 50).unwrap() {
            Response::Deadline { .. } => {}
            other => panic!("a waiter past its deadline got {other:?}"),
        }
        let waited = sent.elapsed();
        assert!(
            waited < Duration::from_millis(300),
            "DEADLINE took {waited:?} for a 50ms budget"
        );
        match holder.join().unwrap() {
            Response::Result { .. } => {}
            other => panic!("the query holding the slot got {other:?}"),
        }
    });
    assert_eq!(deadlines() - before, 1);
}

#[test]
fn graceful_shutdown_answers_inflight_work_exactly_once() {
    let graph = ring_graph(50);
    let expected = direct_monadic(&graph, "(a+b)*·c");
    let serve_config = ServeConfig {
        eval_holdoff: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    let mut server = serve(graph, serve_config, NetConfig::default());
    let addr = server.local_addr();

    let inflight = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.query_text("(a+b)*·c", NO_DEADLINE_MS).unwrap()
    });
    std::thread::sleep(Duration::from_millis(100));
    server.shutdown();

    // The in-flight frame got exactly one reply: its result (eval
    // finished before the drain) or a retryable DRAINING.
    match inflight.join().unwrap() {
        Response::Result { bits, .. } => assert_eq!(bits, expected),
        Response::Draining { .. } => {}
        other => panic!("in-flight frame got {other:?}"),
    }
    // The listener is gone: new connections are refused or die
    // immediately without a valid frame.
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut client) => {
            assert!(client.ping().is_err(), "a drained server must not serve");
        }
    }
}

#[test]
fn connection_cap_refuses_with_busy() {
    let net_config = NetConfig {
        max_connections: 1,
        ..NetConfig::default()
    };
    let server = serve(ring_graph(10), ServeConfig::default(), net_config);
    let mut first = Client::connect(server.local_addr()).unwrap();
    first.ping().unwrap();

    let mut second = Client::connect(server.local_addr()).unwrap();
    second
        .set_timeouts(Some(Duration::from_secs(5)), None)
        .unwrap();
    match second.read_response() {
        Ok(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::Busy),
        Ok(other) => panic!("expected BUSY, got {other:?}"),
        // The refused socket may already be closed by the time we read.
        Err(_) => {}
    }
    // The resident connection is unaffected.
    first.ping().unwrap();
}
