//! Fault-injection suite for the TCP front door — the acceptance gate
//! of the hardened-serving work, named by CI.
//!
//! Misbehaving clients throw truncated frames, oversized length
//! prefixes, garbage bytes, mid-query disconnects, slow-loris writers
//! and zero-deadline queries at the server **while a well-behaved
//! client runs a real workload on the same port**. The assertions are
//! the availability contract:
//!
//! * the well-behaved client's answers stay **bit-identical** to the
//!   direct sequential evaluator throughout the abuse;
//! * every fault is answered with the documented frame (or a clean
//!   disconnect) — never a hang, never a torn frame;
//! * the `STATS` counters account for the abuse (`net.malformed`,
//!   `net.io_errors`, `net.deadline_replies`);
//! * the server still answers on a fresh connection afterwards and
//!   shuts down cleanly.

use pathlearn_automata::Symbol;
use pathlearn_graph::eval::eval_monadic;
use pathlearn_graph::{GraphBuilder, GraphDb};
use pathlearn_server::{
    Client, ErrorCode, NetConfig, QueryService, Response, ServeConfig, Server, NO_DEADLINE_MS,
};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

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

fn counter(counters: &[(String, u64)], name: &str) -> u64 {
    counters
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("counter {name} missing"))
        .1
}

/// Expects the server to close the connection (any read error / EOF)
/// shortly, rather than hanging.
fn assert_disconnected(client: &mut Client) {
    client
        .set_timeouts(Some(Duration::from_secs(5)), None)
        .unwrap();
    let mut closed = false;
    for _ in 0..2 {
        match client.read_response() {
            Ok(Response::Error { .. }) => continue, // the goodbye frame
            Ok(other) => panic!("expected disconnect, got {other:?}"),
            Err(_) => {
                closed = true;
                break;
            }
        }
    }
    assert!(closed, "server should have closed the connection");
}

#[test]
fn each_fault_is_answered_and_the_connection_is_closed() {
    let net_config = NetConfig {
        read_timeout: Duration::from_millis(300),
        ..NetConfig::default()
    };
    let server = Server::bind(
        QueryService::new(ring_graph(30), ServeConfig::default()),
        "127.0.0.1:0",
        net_config,
    )
    .unwrap();
    let addr = server.local_addr();

    // Oversized length prefix: OVERSIZE error frame, then close.
    let mut client = Client::connect(addr).unwrap();
    client.send_raw(&(10_000_000u32).to_le_bytes()).unwrap();
    client
        .set_timeouts(Some(Duration::from_secs(5)), None)
        .unwrap();
    match client.read_response().unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Oversize),
        other => panic!("expected OVERSIZE, got {other:?}"),
    }
    assert_disconnected(&mut client);

    // Garbage payload under a valid length prefix: BAD_VERSION (the
    // first payload byte is not the protocol version), then close.
    let mut client = Client::connect(addr).unwrap();
    client.send_raw(&4u32.to_le_bytes()).unwrap();
    client.send_raw(&[0xff, 0xfe, 0xfd, 0xfc]).unwrap();
    match client.read_response().unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadVersion),
        other => panic!("expected BAD_VERSION, got {other:?}"),
    }
    assert_disconnected(&mut client);

    // A response opcode sent as a request: BAD_OPCODE.
    let mut client = Client::connect(addr).unwrap();
    let mut payload = vec![1u8, 0x81];
    payload.extend_from_slice(&7u64.to_le_bytes());
    client
        .send_raw(&(payload.len() as u32).to_le_bytes())
        .unwrap();
    client.send_raw(&payload).unwrap();
    match client.read_response().unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadOpcode),
        other => panic!("expected BAD_OPCODE, got {other:?}"),
    }
    assert_disconnected(&mut client);

    // Truncated body (header only, opcode QUERY): MALFORMED.
    let mut client = Client::connect(addr).unwrap();
    let mut payload = vec![1u8, 0x01];
    payload.extend_from_slice(&9u64.to_le_bytes());
    client
        .send_raw(&(payload.len() as u32).to_le_bytes())
        .unwrap();
    client.send_raw(&payload).unwrap();
    match client.read_response().unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected MALFORMED, got {other:?}"),
    }
    assert_disconnected(&mut client);

    // Slow loris: a frame that promises 100 bytes and delivers 2. The
    // 300ms read timeout must reclaim the connection.
    let mut client = Client::connect(addr).unwrap();
    client.send_raw(&100u32.to_le_bytes()).unwrap();
    client.send_raw(&[1u8, 0x01]).unwrap();
    assert_disconnected(&mut client);

    // Mid-query disconnect: send a full query frame, vanish before
    // reading the reply. The server must absorb the dead socket.
    {
        let mut client = Client::connect(addr).unwrap();
        let request = pathlearn_server::Request::Query {
            request_id: 1,
            kind: pathlearn_server::WireKind::Monadic,
            deadline_ms: NO_DEADLINE_MS,
            query: pathlearn_server::QueryRef::Text("(a+b)*·c".to_owned()),
        };
        let payload = request.encode();
        let mut framed = (payload.len() as u32).to_le_bytes().to_vec();
        framed.extend_from_slice(&payload);
        client.send_raw(&framed).unwrap();
        // Drop without reading: the reply hits a closed socket.
    }

    // After all of it, the server still serves correctly.
    std::thread::sleep(Duration::from_millis(400));
    let graph = ring_graph(30);
    let expected = direct_monadic(&graph, "(a+b)*·c");
    let mut client = Client::connect(addr).unwrap();
    match client.query_text("(a+b)*·c", NO_DEADLINE_MS).unwrap() {
        Response::Result { bits, .. } => assert_eq!(bits, expected),
        other => panic!("expected RESULT, got {other:?}"),
    }
    let stats = client.stats().unwrap();
    assert!(
        counter(&stats, "net.malformed") >= 4,
        "oversize + garbage + bad opcode + truncated body all count"
    );
    assert!(
        counter(&stats, "net.io_errors") >= 1,
        "the slow-loris timeout counts as an i/o reclaim"
    );
}

/// A 135-byte text whose canonical DFA has 2^19 states
/// (`(a+b)*·a·(a+b)^18`): the front door's state budget answers it with
/// a request-level `PARSE` error naming the limit — within a second,
/// on a connection that survives — while a second, well-behaved client
/// keeps getting bit-identical results. Unbudgeted, the subset
/// construction ran for over a second on the connection thread and the
/// result was memoised; the wall-clock guard turns a reintroduced
/// blow-up into a failure, not a stalled run.
#[test]
fn over_budget_text_is_refused_within_a_second_while_others_are_served() {
    let graph = ring_graph(30);
    let exprs = ["(a+b)*·c", "a·(b·c)", "c·a*"];
    let expected: Vec<_> = exprs.iter().map(|e| direct_monadic(&graph, e)).collect();
    let server = Server::bind(
        QueryService::new(graph, ServeConfig::default()),
        "127.0.0.1:0",
        NetConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr();
    let hostile = format!("(a+b)*·a{}", "·(a+b)".repeat(18));
    assert_eq!(hostile.len(), 135);

    std::thread::scope(|scope| {
        let (done, finished) = std::sync::mpsc::channel();
        let hostile = &hostile;
        scope.spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            for _ in 0..2 {
                let started = std::time::Instant::now();
                let reply = client.query_text(hostile, NO_DEADLINE_MS).unwrap();
                let took = started.elapsed();
                match reply {
                    Response::Error { code, message, .. } => {
                        assert_eq!(code, ErrorCode::Parse);
                        let limit = pathlearn_server::net::MAX_QUERY_DFA_STATES.to_string();
                        assert!(message.contains(&limit), "limit not named: {message}");
                    }
                    other => panic!("expected a PARSE error, got {other:?}"),
                }
                assert!(took < Duration::from_secs(1), "refusal took {took:?}");
            }
            // Request-level: the connection is still good.
            client.ping().unwrap();
            assert!(matches!(
                client.query_text("a", NO_DEADLINE_MS).unwrap(),
                Response::Result { .. }
            ));
            done.send(()).unwrap();
        });

        let mut client = Client::connect(addr).unwrap();
        for round in 0..8 {
            for (expr, want) in exprs.iter().zip(&expected) {
                match client.query_text(expr, NO_DEADLINE_MS).unwrap() {
                    Response::Result { bits, .. } => assert_eq!(&bits, want, "round {round}"),
                    other => panic!("round {round}: {expr} got {other:?}"),
                }
            }
        }
        finished
            .recv_timeout(Duration::from_secs(20))
            .expect("the over-budget text hung or its client panicked");
    });

    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(
        counter(&stats, "net.malformed"),
        0,
        "PARSE is request-level"
    );
}

/// The headline availability test: sustained abuse from several
/// attacker threads while a well-behaved client keeps getting
/// bit-identical answers on the same port.
#[test]
fn availability_under_sustained_abuse() {
    let graph = ring_graph(60);
    let exprs = ["(a+b)*·c", "a·(b·c)", "c·a*", "a", "b·c"];
    let expected: Vec<_> = exprs.iter().map(|e| direct_monadic(&graph, e)).collect();

    let net_config = NetConfig {
        read_timeout: Duration::from_millis(200),
        ..NetConfig::default()
    };
    let mut server = Server::bind(
        QueryService::new(graph, ServeConfig::default()),
        "127.0.0.1:0",
        net_config,
    )
    .unwrap();
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        // Attacker 1: garbage byte streams, reconnecting in a loop.
        scope.spawn(move || {
            for i in 0..15u32 {
                if let Ok(mut stream) = TcpStream::connect(addr) {
                    let junk = vec![(i % 251) as u8; 4 + (i as usize % 32)];
                    let _ = stream.write_all(&(junk.len() as u32).to_le_bytes());
                    let _ = stream.write_all(&junk);
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        });
        // Attacker 2: oversized prefixes and truncated frames.
        scope.spawn(move || {
            for i in 0..15u32 {
                if let Ok(mut stream) = TcpStream::connect(addr) {
                    if i % 2 == 0 {
                        let _ = stream.write_all(&u32::MAX.to_le_bytes());
                    } else {
                        let _ = stream.write_all(&64u32.to_le_bytes());
                        let _ = stream.write_all(&[1u8, 0x01, 3]);
                        // …and vanish mid-frame.
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        });
        // Attacker 3: zero-deadline queries (legal frames, hopeless
        // budgets) and mid-query disconnects.
        scope.spawn(move || {
            for i in 0..15u32 {
                if let Ok(mut client) = Client::connect(addr) {
                    if i % 2 == 0 {
                        match client.query_text("(a+b)*·c", 0) {
                            Ok(Response::Deadline { .. }) => {}
                            Ok(other) => panic!("0ms budget got {other:?}"),
                            Err(_) => {} // server mid-shutdown of abuse peers
                        }
                    } else {
                        let request = pathlearn_server::Request::Query {
                            request_id: u64::from(i),
                            kind: pathlearn_server::WireKind::Monadic,
                            deadline_ms: NO_DEADLINE_MS,
                            query: pathlearn_server::QueryRef::Text("a".to_owned()),
                        };
                        let payload = request.encode();
                        let mut framed = (payload.len() as u32).to_le_bytes().to_vec();
                        framed.extend_from_slice(&payload);
                        let _ = client.send_raw(&framed);
                        // Drop without reading the reply.
                    }
                }
                std::thread::sleep(Duration::from_millis(8));
            }
        });

        // The well-behaved client: every answer bit-identical, no
        // errors, while the attackers hammer the same port.
        let mut client = Client::connect(addr).unwrap();
        client
            .set_timeouts(Some(Duration::from_secs(10)), Some(Duration::from_secs(10)))
            .unwrap();
        for round in 0..8 {
            for (expr, want) in exprs.iter().zip(&expected) {
                match client.query_text(expr, NO_DEADLINE_MS).unwrap() {
                    Response::Result { bits, .. } => {
                        assert_eq!(&bits, want, "round {round}: {expr} diverged under abuse")
                    }
                    other => panic!("round {round}: {expr} got {other:?}"),
                }
            }
        }
    });

    // The abuse is all accounted for, and the server drains cleanly.
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    let stats = client.stats().unwrap();
    assert!(counter(&stats, "net.malformed") >= 10);
    assert!(counter(&stats, "net.deadline_replies") >= 1);
    assert_eq!(
        counter(&stats, "serve.deadline_exceeded"),
        counter(&stats, "net.deadline_replies"),
        "every wire DEADLINE maps to one service-side verdict"
    );
    drop(client);
    server.shutdown();
}
