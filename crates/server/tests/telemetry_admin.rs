//! Telemetry gate — named by CI.
//!
//! Pins the observability contract end to end: `STATS` frames are the
//! sorted registry snapshot with every legacy key intact, per-query
//! traces agree bit-for-bit with the `Served` records the client saw,
//! and the admin surface serves a parseable Prometheus exposition,
//! a `/healthz` that flips to `draining` on shutdown, and a `/slow`
//! log that captures threshold-gated traces.

use pathlearn_automata::{CanonicalQuery, Regex, Symbol};
use pathlearn_graph::{GraphBuilder, GraphDb, Strategy};
use pathlearn_server::{
    AdminServer, CacheConfig, Client, NetConfig, QueryService, Response, ServeConfig, Server,
    NO_DEADLINE_MS,
};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A ring with chords — multi-word frontiers, multi-level BFS.
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

fn canonical(graph: &GraphDb, expr: &str) -> CanonicalQuery {
    let dfa = Regex::parse(expr, graph.alphabet())
        .unwrap()
        .to_dfa(graph.alphabet().len());
    CanonicalQuery::new(&dfa)
}

fn counter(counters: &[(String, u64)], name: &str) -> u64 {
    counters
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("counter {name} missing"))
        .1
}

/// Minimal HTTP/1.0 GET against the admin surface: status code + body.
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect admin");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read admin reply");
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_owned())
        .unwrap_or_default();
    (status, body)
}

/// The pre-registry `STATS` frame key set: every name a v4 client (or
/// `pqbench`'s `count.*` metrics) may look up by string. The registry
/// migration must keep all of them answering. Four have been retired
/// since ([`RETIRED_KEYS`]): three with the mechanisms they counted, and
/// one that always equalled `serve.misses`. Two have been added since:
/// `cache.spared`, the label-matched entries a delta's footprint test
/// kept, and `cache.patched`, the entries a delta hit and patched.
const LEGACY_KEYS: [&str; 32] = [
    "serve.hits",
    "serve.misses",
    "serve.coalesced",
    "serve.invalidations",
    "serve.deltas_applied",
    "serve.label_invalidations",
    "serve.compactions",
    "serve.forward_evals",
    "serve.backward_evals",
    "serve.eval_ns_total",
    "serve.deadline_exceeded",
    "serve.cancelled",
    "cache.hits",
    "cache.misses",
    "cache.insertions",
    "cache.evictions",
    "cache.rejected",
    "cache.invalidated",
    "cache.spared",
    "cache.patched",
    "cache.bytes_used",
    "cache.bytes_budget",
    "net.accepted",
    "net.refused",
    "net.active_connections",
    "net.queries",
    "net.shed",
    "net.deadline_replies",
    "net.draining_replies",
    "net.malformed",
    "net.io_errors",
    "net.queue_depth",
];

/// Keys `STATS` once carried and must not carry again:
/// `serve.subsumption_reuses` (the subsumption probe),
/// `serve.intra_evals` (the intra-query fan-out),
/// `serve.sequential_evals` (a copy of `serve.misses`) and
/// `serve.bidirectional_evals` (the retired meet-in-the-middle engine).
const RETIRED_KEYS: [&str; 4] = [
    "serve.subsumption_reuses",
    "serve.intra_evals",
    "serve.sequential_evals",
    "serve.bidirectional_evals",
];

#[test]
fn stats_counters_are_sorted_and_keep_every_legacy_key() {
    let budget_bytes = 512 * 1024;
    let config = ServeConfig {
        cache: CacheConfig {
            capacity_bytes: budget_bytes,
        },
        ..ServeConfig::default()
    };
    let service = QueryService::new(ring_graph(60), config);
    let server =
        Server::bind(service, "127.0.0.1:0", NetConfig::default()).expect("bind ephemeral port");
    let mut client = Client::connect(server.local_addr()).unwrap();
    for expr in ["(a+b)*·c", "a·b", "c*", "a·b"] {
        match client.query_text(expr, NO_DEADLINE_MS).unwrap() {
            Response::Result { .. } => {}
            other => panic!("expected RESULT, got {other:?}"),
        }
    }

    let stats = client.stats().unwrap();
    let keys: Vec<&str> = stats.iter().map(|(name, _)| name.as_str()).collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(keys, sorted, "STATS keys must arrive sorted");
    sorted.dedup();
    assert_eq!(sorted.len(), keys.len(), "STATS keys must be unique");

    for name in LEGACY_KEYS {
        assert!(keys.contains(&name), "legacy key {name} vanished");
    }
    for name in RETIRED_KEYS {
        assert!(!keys.contains(&name), "retired key {name} is back");
    }
    // Histogram-derived keys preserve the legacy latency names and add
    // the new eval/queue-wait families.
    for name in [
        "net.latency_count",
        "net.latency_p50_ns",
        "net.latency_p99_ns",
        "serve.queue_wait_count",
        "serve.queue_wait_p50_ns",
        "serve.queue_wait_p99_ns",
        "serve.write_wait_count",
        "serve.write_wait_p50_ns",
        "serve.write_wait_p99_ns",
        "serve.write_hold_count",
        "serve.write_hold_p50_ns",
        "serve.write_hold_p99_ns",
        "eval.level_count",
        "eval.level_p50_ns",
        "eval.frontier_count",
        "eval.frontier_p50_nodes",
        "wal.records_logged",
        "wal.checkpoints",
        "wal.checkpoint_failures",
        "cache.entries",
    ] {
        assert!(keys.contains(&name), "new key {name} missing");
    }

    // Regression: `cache.bytes_budget` must report the configured
    // byte budget (the old wiring swapped the `cache_usage()` tuple,
    // reporting entry count as bytes_used and resident bytes as the
    // budget — the real budget was never emitted).
    assert_eq!(counter(&stats, "cache.bytes_budget"), budget_bytes as u64);
    assert!(counter(&stats, "cache.entries") >= 1, "results were cached");
    assert!(
        counter(&stats, "cache.bytes_used") >= counter(&stats, "cache.entries"),
        "resident bytes count at least one byte per entry"
    );

    assert_eq!(
        counter(&stats, "graph.bytes"),
        ring_graph(60).heap_bytes() as u64,
        "graph.bytes reports the served CSR"
    );

    assert_eq!(counter(&stats, "net.queries"), 4);
    assert!(counter(&stats, "serve.hits") >= 1, "repeat query hits");
    // Three misses took an evaluation slot; the repeated `a·b` was a
    // hit answered on the connection thread and never waited for one,
    // so it leaves no queue-wait sample.
    assert_eq!(counter(&stats, "serve.queue_wait_count"), 3);
    assert!(
        counter(&stats, "net.latency_count") >= 4,
        "every answered query lands a latency sample"
    );
    assert!(
        counter(&stats, "eval.level_count") >= 1,
        "evaluations record per-level samples by default"
    );
}

/// `graph.bytes` follows every new CSR the service serves: the one it
/// starts with, a rebuilt one, and a compacted one; a delta that only
/// grows the overlay leaves the shared CSR, and the gauge, unchanged.
#[test]
fn graph_bytes_gauge_tracks_the_served_csr() {
    let config = ServeConfig {
        delta_compact_threshold: Some(1),
        ..ServeConfig::default()
    };
    let mut service = QueryService::new(ring_graph(60), config);
    let gauge =
        |service: &QueryService| counter(&service.telemetry().registry.snapshot(), "graph.bytes");
    let served = |service: &QueryService| service.graph().heap_bytes() as u64;
    assert!(gauge(&service) > 0);
    assert_eq!(gauge(&service), served(&service), "at construction");

    service.rebuild_graph(ring_graph(300));
    assert_eq!(gauge(&service), served(&service), "after a rebuild");
    let rebuilt = gauge(&service);

    let (a, b) = (Symbol::from_index(0), Symbol::from_index(1));
    let first = service.apply_delta(&[(0, b, 7), (3, a, 9)], &[]).unwrap();
    assert!(first.compacted);
    assert_eq!(gauge(&service), served(&service), "after a compaction");
    assert!(gauge(&service) > rebuilt, "two more edges and active cells");
    let compacted = gauge(&service);

    let second = service.apply_delta(&[(5, b, 11)], &[]).unwrap();
    assert!(!second.compacted);
    assert_eq!(gauge(&service), compacted, "an overlay shares the CSR");
    assert_eq!(gauge(&service), served(&service));
}

#[test]
fn traces_are_consistent_with_served_outcomes() {
    let graph = ring_graph(80);
    let config = ServeConfig {
        // Capture everything: the slow log gates on total wall time,
        // and zero admits every trace.
        slow_query_threshold: Duration::ZERO,
        ..ServeConfig::default()
    };
    let service = QueryService::new(graph.clone(), config);
    let query = canonical(&graph, "(a+b)*·c");
    let fingerprint = query.fingerprint();

    let response = service.query_monadic_canonical(query.clone());
    let telemetry = service.telemetry();
    let traces = telemetry.traces.recent();
    let trace = traces
        .iter()
        .find(|t| t.fingerprint == fingerprint && t.outcome == "evaluated")
        .expect("evaluated trace recorded");

    assert_eq!(trace.kind, "monadic");
    assert_eq!(
        trace.strategy, "forward",
        "monadic evaluation has one engine"
    );
    assert_eq!(
        trace.result_bits,
        response.result.len() as u64,
        "trace popcount must match the answer the client saw"
    );
    assert_eq!(trace.canonical_states as usize, response.canonical_states);

    // Span offsets are monotonic and non-overlapping, and stay inside
    // the trace's total window.
    let mut cursor = 0u64;
    for span in &trace.spans {
        assert!(
            span.start_ns >= cursor,
            "span {} starts at {} before previous end {}",
            span.name,
            span.start_ns,
            cursor
        );
        cursor = span.start_ns + span.dur_ns;
    }
    assert!(cursor <= trace.total_ns, "spans exceed the trace window");
    let names: Vec<&str> = trace.spans.iter().map(|span| span.name).collect();
    for expected in ["cache_probe", "eval", "publish"] {
        assert!(
            names.contains(&expected),
            "span {expected} missing: {names:?}"
        );
    }
    assert!(
        !names.contains(&"plan"),
        "a monadic miss has nothing to plan: {names:?}"
    );

    // A binary miss is planned, and names the engine the planner chose.
    service.query_binary_canonical(query.clone(), 0);
    let traces = telemetry.traces.recent();
    let binary = traces
        .iter()
        .find(|t| t.fingerprint == fingerprint && t.kind == "binary")
        .expect("binary trace recorded");
    assert_eq!(binary.outcome, "evaluated");
    assert!(["forward", "backward"].contains(&binary.strategy));
    assert!(
        binary.spans.iter().any(|span| span.name == "plan"),
        "a binary miss records its planning pass"
    );

    // Level samples are sequential sub-intervals of the evaluation, so
    // their nanos sum within the trace total.
    assert!(
        !trace.levels.is_empty(),
        "eval-level sampling is on by default"
    );
    let level_sum: u64 = trace.levels.iter().map(|level| level.nanos).sum();
    assert!(
        level_sum <= trace.total_ns,
        "level nanos {level_sum} exceed trace total {}",
        trace.total_ns
    );
    // A monadic miss starts from all of V at the final state, which
    // covers every c-edge: level 0 copies the c-sources, walks no edge.
    assert!(
        trace.levels[0].covered_tasks >= 1,
        "monadic level 0 is covered: {:?}",
        trace.levels[0]
    );

    // A replay is a cache hit: same bits, hit-shaped trace.
    let replay = service.query_monadic_canonical(query);
    assert_eq!(replay.result, response.result, "hit must be bit-identical");
    let traces = telemetry.traces.recent();
    let hit = traces
        .iter()
        .find(|t| t.fingerprint == fingerprint && t.outcome == "hit")
        .expect("hit trace recorded");
    assert_eq!(hit.result_bits, response.result.len() as u64);
    assert_eq!(hit.strategy, "-");
    assert!(hit.levels.is_empty(), "hits evaluate nothing");

    // Threshold zero: the slow log captured both outcomes.
    let slow = telemetry.traces.slow();
    assert!(slow
        .iter()
        .any(|t| t.fingerprint == fingerprint && t.outcome == "evaluated"));
    assert!(slow
        .iter()
        .any(|t| t.fingerprint == fingerprint && t.outcome == "hit"));
}

/// A binary miss starts from one node, which the step gate prices
/// against `|V|` before any scan: on a 16-word graph its first level is
/// sparse, and the slow log renders that verdict beside `covered=`.
#[test]
fn a_binary_miss_renders_its_one_node_first_level_sparse() {
    let graph = ring_graph(1024);
    let config = ServeConfig {
        slow_query_threshold: Duration::ZERO,
        strategy: Strategy::Forward,
        ..ServeConfig::default()
    };
    let service = QueryService::new(graph.clone(), config);
    service.query_binary_canonical(canonical(&graph, "(a+b)*·c"), 0);
    let slow = service.telemetry().traces.render_slow();
    let level0 = slow
        .lines()
        .find(|line| line.trim_start().starts_with("level   0 "))
        .unwrap_or_else(|| panic!("no level 0 in {slow}"));
    assert!(level0.contains("frontier=1 "), "{level0}");
    let sparse: u32 = level0
        .split_once("sparse=")
        .and_then(|(_, rest)| rest.split(' ').next()?.parse().ok())
        .unwrap_or_else(|| panic!("no sparse= in {level0}"));
    assert!(sparse >= 1, "a one-node level 0 is sparse: {slow}");
}

#[test]
fn admin_surface_serves_metrics_health_and_slow_and_flips_on_drain() {
    let config = ServeConfig {
        slow_query_threshold: Duration::ZERO,
        ..ServeConfig::default()
    };
    let service = QueryService::new(ring_graph(60), config);
    let mut server =
        Server::bind(service, "127.0.0.1:0", NetConfig::default()).expect("bind ephemeral port");
    let admin = AdminServer::bind("127.0.0.1:0").expect("bind admin port");

    // Before sources are installed every endpoint reports recovering.
    let (status, body) = http_get(admin.local_addr(), "/healthz");
    assert_eq!((status, body.trim()), (503, "recovering"));

    admin.set_sources(server.admin_sources());

    let mut client = Client::connect(server.local_addr()).unwrap();
    for expr in ["(a+b)*·c", "a·b", "a·b"] {
        match client.query_text(expr, NO_DEADLINE_MS).unwrap() {
            Response::Result { .. } => {}
            other => panic!("expected RESULT, got {other:?}"),
        }
    }
    let stats = client.stats().unwrap();

    // /healthz while serving: 200, phase line first, detail after.
    let (status, body) = http_get(admin.local_addr(), "/healthz");
    assert_eq!(status, 200, "serving phase answers 200: {body}");
    assert_eq!(body.lines().next(), Some("serving"));
    assert!(
        body.contains("durable false"),
        "plain service is not durable"
    );
    assert!(body.contains("queue_depth "), "health carries queue detail");

    // /metrics: parse every line of the exposition.
    let (status, exposition) = http_get(admin.local_addr(), "/metrics");
    assert_eq!(status, 200);
    assert!(!exposition.is_empty(), "exposition must not be empty");
    let mut type_names = Vec::new();
    for line in exposition.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("TYPE line names a metric");
            let kind = parts.next().expect("TYPE line names a kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown TYPE kind {kind}"
            );
            type_names.push(name.to_owned());
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("sample line {line:?} must be `name value`"));
        assert!(!series.is_empty());
        value
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("value {value:?} in {line:?} must be an integer"));
    }
    let mut deduped = type_names.clone();
    deduped.sort();
    deduped.dedup();
    assert_eq!(deduped.len(), type_names.len(), "duplicate TYPE names");

    // Every STATS counter is present in the exposition under its
    // sanitized name (histogram-derived quantile/count keys map to the
    // `{name}_{unit}` bucket series instead, covered just below).
    for (key, _) in &stats {
        if key.contains("_p50_") || key.contains("_p99_") || key.ends_with("_count") {
            continue;
        }
        let flat = key.replace('.', "_");
        assert!(
            exposition
                .lines()
                .any(|line| line.starts_with(&format!("{flat} "))),
            "STATS key {key} has no exposition sample {flat}"
        );
    }
    for series in [
        "net_latency_ns",
        "serve_queue_wait_ns",
        "serve_write_wait_ns",
        "serve_write_hold_ns",
        "eval_level_ns",
        "eval_frontier_nodes",
    ] {
        assert!(
            exposition.contains(&format!("{series}_bucket{{le=\"+Inf\"}}")),
            "histogram series {series} missing its +Inf bucket"
        );
        assert!(exposition.contains(&format!("{series}_count ")));
    }

    // /slow: threshold zero captured the queries, newest first.
    let (status, slow) = http_get(admin.local_addr(), "/slow");
    assert_eq!(status, 200);
    assert!(
        slow.contains("outcome=evaluated"),
        "slow log misses evals: {slow}"
    );
    assert!(slow.contains("outcome=hit"), "slow log misses hits: {slow}");
    assert!(slow.contains("span"), "slow traces render their spans");
    // Every evaluated query here is a monadic miss, whose first level
    // the render shows covered.
    let covered_level0 = slow
        .lines()
        .filter(|line| line.trim_start().starts_with("level   0 "))
        .filter_map(|line| {
            line.split_once("covered=")?
                .1
                .split(' ')
                .next()?
                .parse::<u32>()
                .ok()
        })
        .collect::<Vec<_>>();
    assert!(
        !covered_level0.is_empty() && covered_level0.iter().all(|&covered| covered >= 1),
        "monadic misses render level 0 covered: {slow}"
    );

    // Unknown path and non-GET are rejected without killing the admin.
    let (status, _) = http_get(admin.local_addr(), "/nope");
    assert_eq!(status, 404);

    // Shutdown drains the front door; the health source holds the
    // shared state by Arc and must now report draining with 503.
    server.shutdown();
    let (status, body) = http_get(admin.local_addr(), "/healthz");
    assert_eq!(status, 503, "draining answers 503: {body}");
    assert_eq!(body.lines().next(), Some("draining"));
}
