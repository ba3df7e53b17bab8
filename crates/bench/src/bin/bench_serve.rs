//! Serving-layer benchmark: throughput and hit rate of
//! `pathlearn-server` on a duplicate-heavy workload — the perf artifact
//! of the PR 5 serving subsystem, committed as `BENCH_serve.json`.
//!
//! Builds a scale-free graph (paper §5.1 configuration), calibrates the
//! full paper query mix (bio1–bio6 + syn1–syn3), and derives a
//! **duplicate-heavy workload**: every calibrated query in two
//! language-equal spellings (the canonical DFA and its completed twin —
//! structurally different, so only canonicalization can fold them),
//! the whole set repeated `--repeat` times and deterministically
//! shuffled. That workload is driven through a fresh
//! [`QueryService`] at each `--clients` count (evaluation pool sized to
//! match), timed wall-clock, and compared against evaluating every
//! submission directly with no cache.
//!
//! Before anything is timed, every unique query's served answer is
//! asserted **bit-identical** to `eval_monadic` — the CI smoke run turns
//! a divergence into a build failure. The detected core count lands in
//! the JSON: on a 1-core container the client-scaling numbers are
//! correctness demonstrations, not scaling (see BENCHMARKS.md); the
//! cache/coalescing wins are visible regardless because they remove
//! evaluations entirely.
//!
//! The **update mix** (`--writes W`, default 8; 0 disables) interleaves
//! the same reads with W single-label write events and drives them
//! through two services over identical graph versions: one patched
//! with `apply_delta` (label-aware invalidation), one calling
//! `rebuild_graph` on every write (the clear-everything baseline). The
//! run asserts the delta side's hit rate **strictly** exceeds the
//! rebuild baseline's and that every answer after the final write —
//! surviving cache entries included — is bit-identical to direct
//! evaluation on the final graph; results land in the `"update_mix"`
//! JSON section (schema v3).
//!
//! With `--listen ADDR` the harness additionally binds the hardened TCP
//! front door (`pathlearn-server::net`) on ADDR (`127.0.0.1:0` for an
//! ephemeral port), drives the same workload through real framed-TCP
//! client connections — text submissions establish each query's
//! canonical fingerprint, repeats replay by fingerprint — asserts
//! bit-identity end to end, fires zero-deadline probes, and lands the
//! front door's shed/deadline/malformed counters and p50/p99 service
//! latency in a `"net"` section of the JSON (schema v2).
//!
//! With `--restart` the harness times the three cold-start paths a
//! `serve --data-dir` deployment can take over identical graphs: parse
//! the text format from scratch, load the versioned binary snapshot,
//! and the full recovery (snapshot + replaying `--writes` WAL records
//! left by a simulated crash). Bit-identity of all three is asserted
//! before timing, and the run **gates** that the snapshot load is
//! strictly faster than the text parse; numbers land in the
//! `"restart"` JSON section (schema v4).
//!
//! The **instrumentation-overhead gate** (always on, schema v5) drives
//! the identical eval-heavy workload through two services — per-level
//! eval sampling off and on — asserts the answers bit-identical, and
//! **gates** the observed on-path cost at ≤ 2% (best-of-runs on both
//! sides, interleaved so machine drift hits them equally); numbers land
//! in the `"telemetry"` JSON section. In `--listen` mode the harness
//! also binds the text admin surface and probes `/metrics` and
//! `/healthz` **mid-traffic**, asserting a non-empty parseable
//! exposition and a `serving` health phase while the fleet replays.
//!
//! ```text
//! bench_serve [--nodes N] [--seed S] [--repeat R] [--runs K]
//!             [--clients T[,T,...]] [--cache-mb M] [--writes W]
//!             [--out PATH] [--listen ADDR] [--restart]
//! ```

use pathlearn_automata::{BitSet, Dfa, Symbol};
use pathlearn_datagen::scale_free::{scale_free_graph, ScaleFreeConfig};
use pathlearn_datagen::workloads::{bio_workload, syn_workload};
use pathlearn_eval::report::ascii_table;
use pathlearn_graph::io::{parse_graph, write_graph};
use pathlearn_graph::{CancelToken, EvalPool, EvalScratch, Goal, GraphDb, QueryPlan};
use pathlearn_server::wal::{Persistence, SNAPSHOT_FILE};
use pathlearn_server::{
    AdminServer, CacheConfig, Client, NetConfig, QueryService, Response, ServeConfig, Server,
    NO_DEADLINE_MS,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read as _, Write as _};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct ClientPoint {
    clients: usize,
    wall_ns: u128,
    hits: u64,
    misses: u64,
    coalesced: u64,
    hit_rate: f64,
    eval_ns_total: u64,
}

/// One TCP client-mode measurement: wall time plus the front door's
/// counters after the run (the schema-v2 `"net"` JSON section), and —
/// since schema v5 — what the mid-traffic admin probes saw.
struct NetPoint {
    clients: usize,
    wall_ns: u128,
    queries: u64,
    shed: u64,
    deadline_replies: u64,
    draining_replies: u64,
    malformed: u64,
    deadline_probes: usize,
    latency_p50_ns: u64,
    latency_p99_ns: u64,
    /// Sample lines in the `/metrics` exposition probed while the
    /// fleet was replaying (gated non-empty and parseable).
    admin_metrics_series: usize,
    /// `/healthz` phase probed mid-traffic (gated `serving`).
    admin_health: String,
}

/// Instrumentation-overhead measurement: the identical eval-heavy
/// workload with per-level sampling off vs on, gated bit-identical and
/// ≤ 2% on-path cost. The schema-v5 `"telemetry"` JSON section.
struct TelemetryPoint {
    observer_off_ns: u128,
    observer_on_ns: u128,
    overhead_pct: f64,
    level_samples: u64,
    slow_traces: usize,
}

/// One update-mix measurement: the same read/write schedule driven
/// through `apply_delta` (label-aware invalidation) and through
/// `rebuild_graph` (the clear-everything baseline), with the delta
/// side's surviving entries asserted bit-identical to direct
/// evaluation on the final graph. The schema-v3 `"update_mix"` JSON
/// section.
struct UpdatePoint {
    writes: usize,
    delta_wall_ns: u128,
    rebuild_wall_ns: u128,
    delta_hits: u64,
    delta_misses: u64,
    delta_hit_rate: f64,
    rebuild_hits: u64,
    rebuild_misses: u64,
    rebuild_hit_rate: f64,
    label_invalidations: u64,
    compactions: u64,
}

/// One cold-restart measurement: the same graph reloaded three ways —
/// text parse, snapshot load, and full recovery (snapshot + WAL
/// replay). The schema-v4 `"restart"` JSON section.
struct RestartPoint {
    wal_records: usize,
    text_bytes: usize,
    snapshot_bytes: usize,
    text_parse_ns: u128,
    snapshot_load_ns: u128,
    recover_ns: u128,
}

type Edge = (u32, Symbol, u32);

/// Direct (uncached, unplanned) sequential monadic evaluation with
/// reused buffers — the baseline served answers are checked and timed
/// against.
fn eval_direct(scratch: &mut EvalScratch, dfa: &Dfa, graph: &GraphDb) -> BitSet {
    EvalPool::sequential()
        .evaluate(
            scratch,
            &QueryPlan::forward(dfa),
            graph,
            Goal::Monadic,
            &CancelToken::never(),
        )
        .expect("a never-token evaluation is not interrupted")
}

/// The graph as a sorted list of named edges — the identity the text
/// format preserves (it assigns node ids by order of appearance, so
/// round-trips are name-stable, not id-stable).
fn named_edges(graph: &GraphDb) -> Vec<(String, String, String)> {
    let mut edges: Vec<_> = graph
        .edges()
        .map(|(src, sym, dst)| {
            (
                graph.node_name(src).to_owned(),
                graph.alphabet().name(sym).to_owned(),
                graph.node_name(dst).to_owned(),
            )
        })
        .collect();
    edges.sort();
    edges
}

/// Times the three cold-start paths of a `serve --data-dir` deployment
/// over identical graphs: parsing the text format, loading the binary
/// snapshot, and recovering from a data dir whose WAL holds `writes`
/// acknowledged-but-not-checkpointed delta batches (the stale-snapshot
/// shape a crash leaves behind). Every path is asserted bit-identical
/// before anything is timed, and the snapshot load is **gated**
/// strictly faster than the text parse — the format earns its place or
/// the build fails.
fn restart_point(graph: &GraphDb, writes: usize, seed: u64, runs: usize) -> RestartPoint {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7273_7274); // "rsrt"
    let dir = std::env::temp_dir().join(format!("pathlearn-bench-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Seed the data dir, then append `writes` single-label delta
    // batches to the WAL with the checkpoint threshold out of reach —
    // recovery must replay them all.
    let seeded =
        Persistence::recover(&dir, usize::MAX, || Ok(graph.clone())).expect("seed restart dir");
    let mut persistence = seeded.persistence;
    let mut current = seeded.graph;
    for _ in 0..writes {
        let sym = Symbol::from_index(rng.gen_range(0..graph.alphabet().len()));
        let labeled: Vec<Edge> = current.edges().filter(|&(_, s, _)| s == sym).collect();
        let mut remove = Vec::new();
        for _ in 0..2usize {
            if !labeled.is_empty() {
                remove.push(labeled[rng.gen_range(0..labeled.len())]);
            }
        }
        let n = current.num_nodes() as u32;
        let add: Vec<Edge> = (0..2)
            .map(|_| (rng.gen_range(0..n), sym, rng.gen_range(0..n)))
            .collect();
        persistence
            .log_batch(&add, &remove)
            .expect("log restart batch");
        current = current
            .with_delta(&add, &remove)
            .expect("in-range restart delta");
    }
    let expected_bytes = current.compact().snapshot_bytes();
    drop(persistence);

    // Identical-graph gates before timing anything. The text format
    // assigns node ids by order of appearance, so its round-trip is
    // compared as a named edge set; the snapshot paths, which preserve
    // ids exactly, are held to bit-identity.
    let text = write_graph(graph).expect("render graph text");
    let graph_bytes = graph.snapshot_bytes();
    let reparsed = parse_graph(&text).expect("text round-trip");
    assert_eq!(
        reparsed.num_nodes(),
        graph.num_nodes(),
        "text round-trip must keep every node"
    );
    assert_eq!(
        named_edges(&reparsed),
        named_edges(graph),
        "text round-trip must reproduce the named edge set"
    );
    let snap_path = dir.join(SNAPSHOT_FILE);
    assert_eq!(
        GraphDb::load_snapshot(&snap_path)
            .expect("snapshot load")
            .snapshot_bytes(),
        graph_bytes,
        "snapshot load must reproduce the graph bit-identically"
    );

    let mut text_parse_ns = u128::MAX;
    let mut snapshot_load_ns = u128::MAX;
    let mut recover_ns = u128::MAX;
    for _ in 0..runs {
        let started = Instant::now();
        std::hint::black_box(parse_graph(&text).expect("timed text parse"));
        text_parse_ns = text_parse_ns.min(started.elapsed().as_nanos());

        let started = Instant::now();
        std::hint::black_box(GraphDb::load_snapshot(&snap_path).expect("timed snapshot load"));
        snapshot_load_ns = snapshot_load_ns.min(started.elapsed().as_nanos());

        let started = Instant::now();
        let recovered = Persistence::recover(&dir, usize::MAX, || {
            Err("timed recovery must come from disk".into())
        })
        .expect("timed recovery");
        recover_ns = recover_ns.min(started.elapsed().as_nanos());
        assert_eq!(
            recovered.graph.snapshot_bytes(),
            expected_bytes,
            "recovery must reproduce the acknowledged graph bit-identically"
        );
    }
    assert!(
        snapshot_load_ns < text_parse_ns,
        "snapshot load ({snapshot_load_ns} ns) must be strictly faster than \
         text parse ({text_parse_ns} ns) — the binary format earns its place"
    );

    let snapshot_bytes = std::fs::metadata(&snap_path).map_or(0, |m| m.len() as usize);
    let _ = std::fs::remove_dir_all(&dir);
    RestartPoint {
        wal_records: writes,
        text_bytes: text.len(),
        snapshot_bytes,
        text_parse_ns,
        snapshot_load_ns,
        recover_ns,
    }
}

/// Drives a read/write mix through two services over the same graph —
/// one patched in place with [`QueryService::apply_delta`], one
/// rebuilt from scratch on every write — and gates that label-aware
/// invalidation **strictly** beats nuking the cache: same reads, same
/// graph versions, higher hit rate, zero stale bits.
///
/// Each write event touches a single random label (removes up to two
/// of its edges, adds two random ones), the shape an update stream has
/// in practice and the one the per-label epoch design exists for:
/// queries whose live alphabet misses the touched label keep serving
/// as hits on the delta side, while the rebuild side re-misses its
/// whole working set.
fn update_mix_point(
    graph: &GraphDb,
    spellings: &[(String, Vec<Dfa>)],
    submissions: &[&Dfa],
    writes: usize,
    seed: u64,
    cache_mb: usize,
) -> UpdatePoint {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6465_6c74); // "delt"

    // Pre-generate the write events and the graph version after each,
    // so both services see the identical sequence of graphs.
    let mut current = graph.clone();
    let mut events: Vec<(Vec<Edge>, Vec<Edge>)> = Vec::new();
    let mut versions: Vec<GraphDb> = Vec::new();
    for _ in 0..writes {
        let sym = Symbol::from_index(rng.gen_range(0..graph.alphabet().len()));
        let labeled: Vec<Edge> = current.edges().filter(|&(_, s, _)| s == sym).collect();
        let mut remove = Vec::new();
        for _ in 0..2usize {
            if !labeled.is_empty() {
                remove.push(labeled[rng.gen_range(0..labeled.len())]);
            }
        }
        let n = current.num_nodes() as u32;
        let add: Vec<Edge> = (0..2)
            .map(|_| (rng.gen_range(0..n), sym, rng.gen_range(0..n)))
            .collect();
        current = current
            .with_delta(&add, &remove)
            .expect("in-range update-mix delta")
            .compact();
        versions.push(current.clone());
        events.push((add, remove));
    }

    let config = || ServeConfig {
        threads: 1,
        cache: CacheConfig {
            capacity_bytes: cache_mb << 20,
        },
        ..ServeConfig::default()
    };
    // One write after each read block; any leftover events (more writes
    // than blocks) land at the end so both sides still finish on the
    // same final graph version.
    let chunk = submissions.len().div_ceil(writes + 1).max(1);

    let delta_service = QueryService::new(graph.clone(), config());
    let mut applied = 0usize;
    let delta_started = Instant::now();
    for block in submissions.chunks(chunk) {
        for dfa in block {
            delta_service.query_monadic(dfa);
        }
        if applied < events.len() {
            let (add, remove) = &events[applied];
            delta_service
                .apply_delta(add, remove)
                .expect("update-mix apply_delta");
            applied += 1;
        }
    }
    while applied < events.len() {
        let (add, remove) = &events[applied];
        delta_service
            .apply_delta(add, remove)
            .expect("update-mix apply_delta");
        applied += 1;
    }
    let delta_wall_ns = delta_started.elapsed().as_nanos();
    let delta_stats = delta_service.stats();

    let rebuild_service = QueryService::new(graph.clone(), config());
    let mut applied = 0usize;
    let rebuild_started = Instant::now();
    for block in submissions.chunks(chunk) {
        for dfa in block {
            rebuild_service.query_monadic(dfa);
        }
        if applied < versions.len() {
            rebuild_service.rebuild_graph(versions[applied].clone());
            applied += 1;
        }
    }
    while applied < versions.len() {
        rebuild_service.rebuild_graph(versions[applied].clone());
        applied += 1;
    }
    let rebuild_wall_ns = rebuild_started.elapsed().as_nanos();
    let rebuild_stats = rebuild_service.stats();

    // Stale-bit gate (after the stats snapshot, so these lookups don't
    // skew the rates): every query served now — including entries that
    // survived every delta untouched — must match direct evaluation on
    // the final graph version. Both sides.
    let mut scratch = EvalScratch::new();
    for (name, v) in spellings {
        let expected = eval_direct(&mut scratch, &v[0], &current);
        assert_eq!(
            *delta_service.query_monadic(&v[0]).result,
            expected,
            "{name}: stale bits on the delta side after {writes} writes"
        );
        assert_eq!(
            *rebuild_service.query_monadic(&v[0]).result,
            expected,
            "{name}: rebuild side diverged after {writes} writes"
        );
    }

    let point = UpdatePoint {
        writes,
        delta_wall_ns,
        rebuild_wall_ns,
        delta_hits: delta_stats.hits,
        delta_misses: delta_stats.misses,
        delta_hit_rate: delta_stats.hit_rate(),
        rebuild_hits: rebuild_stats.hits,
        rebuild_misses: rebuild_stats.misses,
        rebuild_hit_rate: rebuild_stats.hit_rate(),
        label_invalidations: delta_stats.label_invalidations,
        compactions: delta_stats.compactions,
    };
    assert_eq!(
        delta_stats.deltas_applied, writes as u64,
        "every write event applied as a delta"
    );
    assert!(
        point.delta_hit_rate > point.rebuild_hit_rate,
        "label-aware invalidation must strictly beat clear-everything: \
         delta {:.4} vs rebuild {:.4} over {} writes",
        point.delta_hit_rate,
        point.rebuild_hit_rate,
        writes
    );
    point
}

/// Minimal HTTP/1.0 GET against the admin surface: status code + body.
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect admin surface");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("admin read timeout");
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").expect("send admin request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read admin reply");
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage(&format!("admin reply has no status line: {raw:?}")));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_owned())
        .unwrap_or_default();
    (status, body)
}

/// Gates the exposition the mid-traffic probe captured: non-empty,
/// every line either a well-formed `# TYPE` comment or a `name value`
/// sample with an integer value. Returns the sample-line count.
fn gate_exposition(exposition: &str) -> usize {
    assert!(
        !exposition.is_empty(),
        "mid-traffic /metrics exposition must not be empty"
    );
    let mut samples = 0usize;
    for line in exposition.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let kind = rest.split_whitespace().nth(1).unwrap_or("");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown TYPE kind in exposition line {line:?}"
            );
            continue;
        }
        let value = line
            .rsplit_once(' ')
            .unwrap_or_else(|| usage(&format!("exposition line {line:?} is not `name value`")))
            .1;
        assert!(
            value.parse::<u64>().is_ok(),
            "exposition value {value:?} in {line:?} is not an integer"
        );
        samples += 1;
    }
    assert!(samples > 0, "exposition carries no samples");
    samples
}

/// The instrumentation-overhead gate: every unique canonical query
/// (first spelling only — all cache misses, so evaluation dominates)
/// through a sampling-off service and a sampling-on one, interleaved
/// over `runs` rounds with best-of-runs on both sides. Answers are
/// asserted bit-identical to direct evaluation on both sides and the
/// on-path cost is gated at ≤ 2% — the budget the observer hook
/// promises ("a single thread-local check per level when disabled,
/// two clock reads when enabled").
fn telemetry_point(
    graph: &GraphDb,
    spellings: &[(String, Vec<Dfa>)],
    direct: &[BitSet],
    runs: usize,
    cache_mb: usize,
) -> TelemetryPoint {
    let config = |observe: bool| ServeConfig {
        threads: 1,
        cache: CacheConfig {
            capacity_bytes: cache_mb << 20,
        },
        observe_eval_levels: observe,
        // Capture every trace so the slow-log plumbing is exercised.
        slow_query_threshold: Duration::ZERO,
        ..ServeConfig::default()
    };
    let mut observer_off_ns = u128::MAX;
    let mut observer_on_ns = u128::MAX;
    let mut level_samples = 0u64;
    let mut slow_traces = 0usize;
    for _ in 0..runs.max(3) {
        let off = QueryService::new(graph.clone(), config(false));
        let started = Instant::now();
        for (_, v) in spellings {
            std::hint::black_box(off.query_monadic(&v[0]));
        }
        observer_off_ns = observer_off_ns.min(started.elapsed().as_nanos());

        let on = QueryService::new(graph.clone(), config(true));
        let started = Instant::now();
        for (_, v) in spellings {
            std::hint::black_box(on.query_monadic(&v[0]));
        }
        observer_on_ns = observer_on_ns.min(started.elapsed().as_nanos());

        for ((name, v), expected) in spellings.iter().zip(direct) {
            assert_eq!(
                *off.query_monadic(&v[0]).result,
                *expected,
                "{name}: observer-off result differs from direct eval"
            );
            assert_eq!(
                *on.query_monadic(&v[0]).result,
                *expected,
                "{name}: observer-on result differs from direct eval"
            );
        }
        let snapshot = on.telemetry().registry.snapshot();
        level_samples = snapshot
            .iter()
            .find(|(name, _)| name == "eval.level_count")
            .map_or(0, |(_, value)| *value);
        slow_traces = on.telemetry().traces.slow().len();
    }
    assert!(
        level_samples > 0,
        "the sampling-on side must record per-level samples"
    );
    assert!(slow_traces > 0, "a zero threshold must capture slow traces");
    let overhead_pct = (observer_on_ns as f64 / observer_off_ns.max(1) as f64 - 1.0) * 100.0;
    assert!(
        observer_on_ns as f64 <= observer_off_ns as f64 * 1.02,
        "per-level sampling costs {overhead_pct:.2}% on the eval path \
         (off {observer_off_ns} ns vs on {observer_on_ns} ns) — over the 2% budget"
    );
    TelemetryPoint {
        observer_off_ns,
        observer_on_ns,
        overhead_pct,
        level_samples,
        slow_traces,
    }
}

/// Deterministic Fisher–Yates over the submission indices.
fn shuffled_workload(unique: usize, variants: usize, repeat: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..unique * variants * repeat)
        .map(|i| i % (unique * variants))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7365_7276); // "serv"
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        order.swap(i, j);
    }
    order
}

/// Drives the whole workload through `service` from `clients` threads
/// claiming submissions off one atomic cursor; returns the wall time.
fn drive(service: &Arc<QueryService>, submissions: &[&Dfa], clients: usize) -> u128 {
    let cursor = AtomicUsize::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            let service = service.clone();
            let cursor = &cursor;
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= submissions.len() {
                    return;
                }
                service.query_monadic(submissions[i]);
            });
        }
    });
    started.elapsed().as_nanos()
}

/// Binds the TCP front door on `addr` and drives the workload through
/// real framed connections: each unique query is established once by
/// text (asserting bit-identity against `direct`), then `clients`
/// threads replay the shuffled submission order by fingerprint.
/// Finishes with zero-deadline probes so the deadline counters are
/// exercised, then snapshots the front door's counters.
#[allow(clippy::too_many_arguments)]
fn tcp_client_point(
    graph: &GraphDb,
    texts: &[String],
    direct: &[BitSet],
    order: &[usize],
    variants: usize,
    addr: &str,
    clients: usize,
    cache_mb: usize,
) -> NetPoint {
    let service = QueryService::new(
        graph.clone(),
        ServeConfig {
            threads: clients,
            cache: CacheConfig {
                capacity_bytes: cache_mb << 20,
            },
            ..ServeConfig::default()
        },
    );
    let mut server = Server::bind(service, addr, NetConfig::default())
        .unwrap_or_else(|e| usage(&format!("cannot listen on {addr}: {e}")));
    let server_addr = server.local_addr();
    // The text admin surface rides along on an ephemeral port; the
    // probes below hit it while the fleet is replaying.
    let admin = AdminServer::bind("127.0.0.1:0").expect("bind admin surface");
    admin.set_sources(server.admin_sources());
    let admin_addr = admin.local_addr();
    eprintln!(
        "tcp client mode: front door on {server_addr}, admin on {admin_addr}, \
         {clients} client connection(s)"
    );

    // Establish every unique query by text once; the RESULT frame's
    // bits must match direct evaluation and its fingerprint becomes the
    // replay handle.
    let mut setup = Client::connect(server_addr).expect("connect setup client");
    let fingerprints: Vec<u64> = texts
        .iter()
        .zip(direct)
        .map(
            |(text, expected)| match setup.query_text(text, NO_DEADLINE_MS).expect("text query") {
                Response::Result {
                    bits, fingerprint, ..
                } => {
                    assert_eq!(
                        &bits, expected,
                        "TCP-served result differs from direct eval ({text})"
                    );
                    fingerprint
                }
                other => panic!("establishing {text} got {other:?}"),
            },
        )
        .collect();

    // The timed fleet: each client owns one connection and replays
    // fingerprints off the shared cursor. An extra probe thread hits
    // the admin surface while the fleet is mid-replay.
    let cursor = AtomicUsize::new(0);
    let started = Instant::now();
    let (metrics_probe, health_probe) = std::thread::scope(|scope| {
        for _ in 0..clients {
            let cursor = &cursor;
            let fingerprints = &fingerprints;
            scope.spawn(move || {
                let mut client = Client::connect(server_addr).expect("connect fleet client");
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= order.len() {
                        return;
                    }
                    // Both spellings of a query share one canonical
                    // fingerprint; replay by unique-query index.
                    let fingerprint = fingerprints[order[i] / variants];
                    match client
                        .query_fingerprint(fingerprint, NO_DEADLINE_MS)
                        .expect("fingerprint query")
                    {
                        Response::Result { .. } => {}
                        other => panic!("fingerprint replay got {other:?}"),
                    }
                }
            });
        }
        let probe = scope.spawn(move || {
            // Give the fleet a moment to be genuinely in flight.
            std::thread::sleep(Duration::from_millis(2));
            (
                http_get(admin_addr, "/metrics"),
                http_get(admin_addr, "/healthz"),
            )
        });
        probe.join().expect("admin probe thread")
    });
    let wall_ns = started.elapsed().as_nanos();

    let (metrics_status, exposition) = metrics_probe;
    assert_eq!(metrics_status, 200, "mid-traffic /metrics must answer 200");
    let admin_metrics_series = gate_exposition(&exposition);
    let (health_status, health_body) = health_probe;
    assert_eq!(
        health_status, 200,
        "mid-traffic /healthz must be serving: {health_body}"
    );
    let admin_health = health_body.lines().next().unwrap_or("").to_owned();
    assert_eq!(admin_health, "serving", "health phase mid-traffic");

    // Deadline probes: an already-expired budget must answer DEADLINE
    // before touching the pool.
    let deadline_probes = 8usize;
    for i in 0..deadline_probes {
        match setup
            .query_fingerprint(fingerprints[i % fingerprints.len()], 0)
            .expect("deadline probe")
        {
            Response::Deadline { .. } => {}
            other => panic!("0ms budget got {other:?}"),
        }
    }

    let counters = setup.stats().expect("STATS frame");
    let get = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| usage(&format!("counter {name} missing from STATS")))
    };
    let point = NetPoint {
        clients,
        wall_ns,
        queries: get("net.queries"),
        shed: get("net.shed"),
        deadline_replies: get("net.deadline_replies"),
        draining_replies: get("net.draining_replies"),
        malformed: get("net.malformed"),
        deadline_probes,
        latency_p50_ns: get("net.latency_p50_ns"),
        latency_p99_ns: get("net.latency_p99_ns"),
        admin_metrics_series,
        admin_health,
    };
    assert_eq!(
        point.deadline_replies, deadline_probes as u64,
        "every probe and only the probes hit the deadline path"
    );
    assert_eq!(point.malformed, 0, "the bench fleet is well-behaved");
    drop(setup);
    server.shutdown();
    point
}

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: bench_serve [--nodes N] [--seed S] [--repeat R] [--runs K] \
         [--clients T[,T,...]] [--cache-mb M] [--writes W] [--out PATH] \
         [--listen ADDR] [--restart]"
    );
    std::process::exit(2);
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    path: &str,
    seed: u64,
    runs: usize,
    repeat: usize,
    graph: &GraphDb,
    unique: usize,
    variants: usize,
    submissions: usize,
    direct_ns: u128,
    points: &[ClientPoint],
    net: Option<&NetPoint>,
    update: Option<&UpdatePoint>,
    restart: Option<&RestartPoint>,
    telemetry: &TelemetryPoint,
) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"benchmark\": \"RPQ serving layer: canonical result cache + coalescing over duplicate-heavy paper mix\",\n",
    );
    out.push_str(
        "  \"note\": \"client scaling needs real cores (see BENCHMARKS.md); cache/coalescing wins hold regardless — they remove evaluations\",\n",
    );
    out.push_str("  \"schema_version\": 5,\n");
    out.push_str(&format!(
        "  \"hardware\": {{\"available_cores\": {}}},\n",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"runs_per_point\": {runs},\n"));
    out.push_str(
        "  \"timer\": \"median wall clock over runs, fresh (cold-cache) service per run\",\n",
    );
    out.push_str(&format!(
        "  \"graph\": {{\"generator\": \"scale_free paper_synthetic\", \"nodes\": {}, \"edges\": {}, \"labels\": {}}},\n",
        graph.num_nodes(),
        graph.num_edges(),
        graph.alphabet().len()
    ));
    out.push_str(&format!(
        "  \"workload\": {{\"unique_queries\": {unique}, \"spellings_per_query\": {variants}, \"repeat\": {repeat}, \"submissions\": {submissions}}},\n",
    ));
    out.push_str(&format!("  \"direct_no_cache_seq_ns\": {direct_ns},\n"));
    out.push_str("  \"clients\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"clients\": {}, \"pool_threads\": {}, \"wall_ns\": {}, \"qps\": {:.1}, \"hits\": {}, \"misses\": {}, \"coalesced\": {}, \"hit_rate\": {:.4}, \"eval_ns_total\": {}, \"speedup_vs_direct\": {:.3}}}{}\n",
            p.clients,
            p.clients,
            p.wall_ns,
            submissions as f64 / (p.wall_ns as f64 / 1e9).max(1e-9),
            p.hits,
            p.misses,
            p.coalesced,
            p.hit_rate,
            p.eval_ns_total,
            direct_ns.max(1) as f64 / p.wall_ns.max(1) as f64,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    match restart {
        Some(p) => out.push_str(&format!(
            "  \"restart\": {{\"wal_records\": {}, \"text_bytes\": {}, \"snapshot_bytes\": {}, \"text_parse_ns\": {}, \"snapshot_load_ns\": {}, \"recover_ns\": {}, \"snapshot_speedup_vs_text\": {:.3}}},\n",
            p.wal_records,
            p.text_bytes,
            p.snapshot_bytes,
            p.text_parse_ns,
            p.snapshot_load_ns,
            p.recover_ns,
            p.text_parse_ns.max(1) as f64 / p.snapshot_load_ns.max(1) as f64,
        )),
        None => out.push_str("  \"restart\": null,\n"),
    }
    match update {
        Some(p) => out.push_str(&format!(
            "  \"update_mix\": {{\"writes\": {}, \"delta\": {{\"wall_ns\": {}, \"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4}, \"label_invalidations\": {}, \"compactions\": {}}}, \"rebuild_baseline\": {{\"wall_ns\": {}, \"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4}}}}},\n",
            p.writes,
            p.delta_wall_ns,
            p.delta_hits,
            p.delta_misses,
            p.delta_hit_rate,
            p.label_invalidations,
            p.compactions,
            p.rebuild_wall_ns,
            p.rebuild_hits,
            p.rebuild_misses,
            p.rebuild_hit_rate,
        )),
        None => out.push_str("  \"update_mix\": null,\n"),
    }
    out.push_str(&format!(
        "  \"telemetry\": {{\"observer_off_ns\": {}, \"observer_on_ns\": {}, \"overhead_pct\": {:.3}, \"overhead_budget_pct\": 2.0, \"level_samples\": {}, \"slow_traces\": {}}},\n",
        telemetry.observer_off_ns,
        telemetry.observer_on_ns,
        telemetry.overhead_pct,
        telemetry.level_samples,
        telemetry.slow_traces,
    ));
    match net {
        Some(p) => out.push_str(&format!(
            "  \"net\": {{\"mode\": \"tcp_client\", \"clients\": {}, \"wall_ns\": {}, \"qps\": {:.1}, \"queries\": {}, \"shed\": {}, \"deadline_replies\": {}, \"deadline_probes\": {}, \"draining_replies\": {}, \"malformed\": {}, \"latency_p50_ns\": {}, \"latency_p99_ns\": {}, \"admin\": {{\"metrics_series\": {}, \"healthz\": \"{}\"}}}}\n",
            p.clients,
            p.wall_ns,
            submissions as f64 / (p.wall_ns as f64 / 1e9).max(1e-9),
            p.queries,
            p.shed,
            p.deadline_replies,
            p.deadline_probes,
            p.draining_replies,
            p.malformed,
            p.latency_p50_ns,
            p.latency_p99_ns,
            p.admin_metrics_series,
            p.admin_health,
        )),
        None => out.push_str("  \"net\": null\n"),
    }
    out.push_str("}\n");
    std::fs::write(path, out)
}

fn main() {
    let mut nodes = 10_000usize;
    let mut seed = 42u64;
    let mut repeat = 8usize;
    let mut runs = 5usize;
    let mut clients: Vec<usize> = vec![1, 2, 4];
    let mut cache_mb = 64usize;
    let mut writes = 8usize;
    let mut out_path = "BENCH_serve.json".to_owned();
    let mut listen: Option<String> = None;
    let mut restart = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--nodes" => {
                nodes = value("--nodes")
                    .parse()
                    .unwrap_or_else(|_| usage("--nodes needs an integer"))
            }
            "--seed" => {
                seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs an integer"))
            }
            "--repeat" => {
                repeat = value("--repeat")
                    .parse::<usize>()
                    .unwrap_or_else(|_| usage("--repeat needs an integer"))
                    .max(1)
            }
            "--runs" => {
                runs = value("--runs")
                    .parse::<usize>()
                    .unwrap_or_else(|_| usage("--runs needs an integer"))
                    .max(1)
            }
            "--clients" => {
                clients = value("--clients")
                    .split(',')
                    .map(|part| {
                        part.trim()
                            .parse()
                            .unwrap_or_else(|_| usage("--clients needs comma-separated integers"))
                    })
                    .collect()
            }
            "--cache-mb" => {
                cache_mb = value("--cache-mb")
                    .parse()
                    .unwrap_or_else(|_| usage("--cache-mb needs an integer"))
            }
            "--writes" => {
                writes = value("--writes")
                    .parse()
                    .unwrap_or_else(|_| usage("--writes needs an integer"))
            }
            "--out" => out_path = value("--out"),
            "--listen" => listen = Some(value("--listen")),
            "--restart" => restart = true,
            other => usage(&format!("unknown flag {other}")),
        }
    }

    eprintln!(
        "available cores: {} (client scaling needs real cores)",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    eprintln!("generating scale-free graph: {nodes} nodes, seed {seed} ...");
    let graph = scale_free_graph(&ScaleFreeConfig::paper_synthetic(nodes, seed));
    eprintln!("calibrating paper query mix (bio1-6, syn1-3) ...");
    let mut queries = bio_workload(&graph).queries;
    queries.extend(syn_workload(&graph).queries);

    // Two language-equal spellings per query: the canonical DFA and its
    // completed twin (extra sink state — same language, different
    // structure, foldable only by canonicalization).
    let spellings: Vec<(String, Vec<Dfa>)> = queries
        .iter()
        .map(|q| {
            let dfa = q.query.dfa().clone();
            let completed = dfa.complete().0;
            (q.name.clone(), vec![dfa, completed])
        })
        .collect();
    let unique = spellings.len();
    let variants = 2usize;
    let flat: Vec<&Dfa> = spellings.iter().flat_map(|(_, v)| v.iter()).collect();
    let order = shuffled_workload(unique, variants, repeat, seed);
    let submissions: Vec<&Dfa> = order.iter().map(|&i| flat[i]).collect();
    eprintln!(
        "workload: {} unique queries x {variants} spellings x {repeat} = {} submissions",
        unique,
        submissions.len()
    );

    // Bit-identity gate before any timing: served == direct for every
    // unique query, through a throwaway service.
    let mut scratch = EvalScratch::new();
    let direct: Vec<BitSet> = spellings
        .iter()
        .map(|(_, v)| eval_direct(&mut scratch, &v[0], &graph))
        .collect();
    {
        let gate = QueryService::new(graph.clone(), ServeConfig::default());
        for ((name, v), expected) in spellings.iter().zip(&direct) {
            for dfa in v {
                assert_eq!(
                    *gate.query_monadic(dfa).result,
                    *expected,
                    "{name}: served result differs from direct eval"
                );
            }
        }
    }
    eprintln!("bit-identity gate passed ({unique} queries x {variants} spellings)");

    // Baseline: every submission evaluated directly, no cache, one thread.
    let direct_ns = {
        let mut best = u128::MAX;
        for _ in 0..runs {
            let started = Instant::now();
            for dfa in &submissions {
                std::hint::black_box(eval_direct(&mut scratch, dfa, &graph));
            }
            best = best.min(started.elapsed().as_nanos());
        }
        best
    };

    let mut points = Vec::new();
    for &client_count in &clients {
        // Fresh (cold) service per run so every run pays the same
        // misses; median wall over runs.
        let mut walls = Vec::new();
        let mut last_stats = None;
        for _ in 0..runs {
            let service = Arc::new(QueryService::new(
                graph.clone(),
                ServeConfig {
                    threads: client_count,
                    cache: CacheConfig {
                        capacity_bytes: cache_mb << 20,
                    },
                    ..ServeConfig::default()
                },
            ));
            walls.push(drive(&service, &submissions, client_count));
            last_stats = Some(service.stats());
        }
        walls.sort_unstable();
        let wall_ns = walls[walls.len() / 2];
        let stats = last_stats.expect("at least one run");
        assert!(
            stats.hit_rate() > 0.0,
            "duplicate-heavy workload must produce cache hits"
        );
        assert_eq!(
            stats.reused() + stats.misses,
            submissions.len() as u64,
            "every submission accounted"
        );
        points.push(ClientPoint {
            clients: client_count,
            wall_ns,
            hits: stats.hits,
            misses: stats.misses,
            coalesced: stats.coalesced,
            hit_rate: stats.hit_rate(),
            eval_ns_total: stats.eval_ns_total,
        });
    }

    // Update mix: the same reads interleaved with single-label write
    // events, `apply_delta` vs the rebuild-everything baseline. The
    // point constructor gates hit_rate(delta) > hit_rate(rebuild) and
    // zero stale bits, so the CI smoke run fails on a regression.
    let update_point = (writes > 0).then(|| {
        let point = update_mix_point(&graph, &spellings, &submissions, writes, seed, cache_mb);
        println!(
            "update mix ({} writes): delta hit rate {:.1}% ({} hits / {} misses, {} invalidated, {} compactions) \
             vs rebuild baseline {:.1}% ({} hits / {} misses)",
            point.writes,
            100.0 * point.delta_hit_rate,
            point.delta_hits,
            point.delta_misses,
            point.label_invalidations,
            point.compactions,
            100.0 * point.rebuild_hit_rate,
            point.rebuild_hits,
            point.rebuild_misses,
        );
        point
    });

    // Cold-restart timing: text parse vs snapshot load vs snapshot +
    // WAL replay, bit-identity asserted, snapshot gated strictly
    // faster than text.
    let restart_result = restart.then(|| {
        let p = restart_point(&graph, writes, seed, runs);
        println!(
            "restart: text parse {:.3} ms vs snapshot load {:.3} ms ({:.2}x) \
             vs recover with {} WAL record(s) {:.3} ms",
            p.text_parse_ns as f64 / 1e6,
            p.snapshot_load_ns as f64 / 1e6,
            p.text_parse_ns.max(1) as f64 / p.snapshot_load_ns.max(1) as f64,
            p.wal_records,
            p.recover_ns as f64 / 1e6,
        );
        p
    });

    // Instrumentation-overhead gate: per-level sampling off vs on over
    // the identical eval-heavy workload, bit-identical and ≤ 2% or the
    // run fails.
    let telemetry = telemetry_point(&graph, &spellings, &direct, runs, cache_mb);
    println!(
        "telemetry: per-level sampling overhead {:.2}% (off {:.3} ms, on {:.3} ms), \
         {} level samples, {} slow traces",
        telemetry.overhead_pct,
        telemetry.observer_off_ns as f64 / 1e6,
        telemetry.observer_on_ns as f64 / 1e6,
        telemetry.level_samples,
        telemetry.slow_traces,
    );

    // TCP client mode: the same workload through the framed front
    // door, replayed by fingerprint; counters land in the JSON's "net"
    // section.
    let net_point = listen.as_deref().map(|addr| {
        let texts: Vec<String> = queries
            .iter()
            .map(|q| q.regex.display(graph.alphabet()).to_string())
            .collect();
        let fleet = clients.iter().copied().max().unwrap_or(1);
        tcp_client_point(
            &graph, &texts, &direct, &order, variants, addr, fleet, cache_mb,
        )
    });
    if let Some(p) = &net_point {
        println!(
            "tcp front door: {} submissions in {:.3} ms ({:.0} q/s over {} connection(s)); \
             shed {}, deadline {}, p50 {:.1} us, p99 {:.1} us",
            order.len(),
            p.wall_ns as f64 / 1e6,
            order.len() as f64 / (p.wall_ns as f64 / 1e9).max(1e-9),
            p.clients,
            p.shed,
            p.deadline_replies,
            p.latency_p50_ns as f64 / 1e3,
            p.latency_p99_ns as f64 / 1e3,
        );
    }

    let rows: Vec<Vec<String>> = std::iter::once(vec![
        "direct (no cache)".to_owned(),
        format!("{:.3}", direct_ns as f64 / 1e6),
        "-".to_owned(),
        "-".to_owned(),
        "1.00x".to_owned(),
    ])
    .chain(points.iter().map(|p| {
        vec![
            format!("{} client(s)", p.clients),
            format!("{:.3}", p.wall_ns as f64 / 1e6),
            format!("{}/{}/{}", p.hits, p.misses, p.coalesced),
            format!("{:.1}%", 100.0 * p.hit_rate),
            format!("{:.2}x", direct_ns.max(1) as f64 / p.wall_ns.max(1) as f64),
        ]
    }))
    .collect();
    println!(
        "serving {} submissions ({} unique x {} spellings x {repeat}):",
        submissions.len(),
        unique,
        variants
    );
    println!(
        "{}",
        ascii_table(
            &["config", "ms", "hit/miss/coalesce", "hit rate", "vs direct"],
            &rows
        )
    );

    write_json(
        &out_path,
        seed,
        runs,
        repeat,
        &graph,
        unique,
        variants,
        submissions.len(),
        direct_ns,
        &points,
        net_point.as_ref(),
        update_point.as_ref(),
        restart_result.as_ref(),
        &telemetry,
    )
    .expect("write benchmark JSON");
    eprintln!("wrote {out_path}");
}
