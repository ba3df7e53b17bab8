//! End-to-end smoke gate for the serving layer — a suite CI names.
//!
//! Spawns the service in-process, fires a **duplicate-heavy** query mix
//! at it from client-thread counts {1, 4}, and asserts the acceptance
//! contract:
//!
//! * every served answer is **bit-identical** to the direct sequential
//!   evaluators (`eval_monadic` / `eval_binary_from`);
//! * the measured **hit rate is > 0** on the duplicate-heavy mix (in
//!   fact ≥ the duplication factor's floor, since canonicalization also
//!   folds the syntactic variants);
//! * **coalescing** of concurrent duplicate submissions is observed:
//!   cross-thread in-flight coalescing under an eval holdoff that keeps
//!   the window open;
//! * label-aware **delta invalidation keeps more of the cache** than
//!   rebuilding the graph does, by exact counters over one fixed script;
//! * under **eviction pressure** one submission list leaves the same
//!   counters and the same resident set on every run.

use pathlearn_automata::{Alphabet, BitSet, CanonicalQuery, Dfa, Regex, Symbol};
use pathlearn_graph::eval::{eval_binary_from, eval_monadic};
use pathlearn_graph::{GraphBuilder, GraphDb};
use pathlearn_server::{
    CacheConfig, CacheKey, QueryKind, QueryService, ServeConfig, ServeStats, Served,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A 200-node multi-word graph so frontiers straddle block boundaries.
fn ring_graph(n: usize) -> GraphDb {
    let mut builder = GraphBuilder::with_alphabet(Alphabet::from_labels(["a", "b", "c"]));
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

/// The duplicate-heavy mix: each base expression plus an equivalent
/// syntactic variant, the whole list repeated `repeat` times.
fn workload(graph: &GraphDb, repeat: usize) -> Vec<Dfa> {
    let pairs = [
        ("a·(b·c)", "(a·b)·c"),
        ("(a+b)*·c", "(b+a)*·c"),
        ("c·a*", "c·a*·(a·a)*"),
        ("a", "a+a"),
        ("(a·b)*·c", "c+a·b·(a·b)*·c"),
    ];
    let mut dfas = Vec::new();
    for _ in 0..repeat {
        for (base, variant) in pairs {
            for expr in [base, variant] {
                dfas.push(
                    Regex::parse(expr, graph.alphabet())
                        .unwrap()
                        .to_dfa(graph.alphabet().len()),
                );
            }
        }
    }
    dfas
}

/// Drives `clients` threads over the workload via an atomic cursor and
/// returns the served results in workload order.
fn drive(service: &Arc<QueryService>, queries: &[Dfa], clients: usize) -> Vec<Arc<BitSet>> {
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<Arc<BitSet>>> = vec![None; queries.len()];
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..clients {
            let service = service.clone();
            let cursor = &cursor;
            handles.push(scope.spawn(move || {
                let mut mine = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= queries.len() {
                        return mine;
                    }
                    mine.push((i, service.query_monadic(&queries[i]).result));
                }
            }));
        }
        for handle in handles {
            for (i, result) in handle.join().unwrap() {
                slots[i] = Some(result);
            }
        }
    });
    slots.into_iter().map(Option::unwrap).collect()
}

#[test]
fn duplicate_heavy_mix_is_bit_identical_with_positive_hit_rate() {
    let graph = ring_graph(200);
    let queries = workload(&graph, 3);
    let expected: Vec<BitSet> = queries.iter().map(|q| eval_monadic(q, &graph)).collect();
    for clients in [1usize, 4] {
        let service = Arc::new(QueryService::new(graph.clone(), ServeConfig::default()));
        let results = drive(&service, &queries, clients);
        for (i, (served, direct)) in results.iter().zip(&expected).enumerate() {
            assert_eq!(**served, *direct, "query {i} differs at clients {clients}");
        }
        let stats = service.stats();
        assert!(
            stats.hit_rate() > 0.0,
            "no reuse at clients {clients}: {stats:?}"
        );
        // 5 unique languages in a 30-submission mix: at most 5
        // evaluations, so ≥ 25 submissions were reused.
        assert!(stats.misses <= 5, "unexpected misses: {stats:?}");
        assert_eq!(stats.reused() + stats.misses, queries.len() as u64);
    }
}

#[test]
fn concurrent_clients_coalesce_in_flight_duplicates() {
    let graph = ring_graph(200);
    let service = Arc::new(QueryService::new(
        graph.clone(),
        ServeConfig {
            // Keep the in-flight window open long enough that the
            // barrier-released duplicates reliably land inside it.
            eval_holdoff: Duration::from_millis(150),
            ..ServeConfig::default()
        },
    ));
    let query = Regex::parse("(a+b)*·c", graph.alphabet())
        .unwrap()
        .to_dfa(3);
    let expected = eval_monadic(&query, &graph);
    let clients = 4;
    let barrier = Arc::new(std::sync::Barrier::new(clients));
    let expected = &expected;
    let served: Vec<Served> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let service = service.clone();
                let barrier = barrier.clone();
                let query = query.clone();
                scope.spawn(move || {
                    barrier.wait();
                    let response = service.query_monadic(&query);
                    assert_eq!(*response.result, *expected);
                    response.served
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let evaluated = served
        .iter()
        .filter(|s| matches!(s, Served::Evaluated { .. }))
        .count();
    assert_eq!(evaluated, 1, "exactly one client paid the evaluation");
    let stats = service.stats();
    assert_eq!(stats.misses, 1);
    assert!(
        stats.coalesced >= 1,
        "expected in-flight coalescing with the holdoff open: {stats:?}"
    );
}

#[test]
fn binary_serving_matches_direct_eval_across_sources() {
    let graph = ring_graph(120);
    let service = QueryService::new(graph.clone(), ServeConfig::default());
    let query = Regex::parse("a·b·c", graph.alphabet()).unwrap().to_dfa(3);
    for source in graph.nodes().step_by(11) {
        let response = service.query_binary_from(&query, source);
        assert_eq!(
            *response.result,
            eval_binary_from(&query, &graph, source),
            "source {source}"
        );
    }
    // Replay: every source is its own cache entry, all hits now.
    for source in graph.nodes().step_by(11) {
        assert_eq!(
            service.query_binary_from(&query, source).served,
            Served::Hit
        );
    }
    assert!(service.stats().hit_rate() > 0.0);
}

#[test]
fn delta_invalidation_keeps_more_hits_than_rebuilding() {
    // One fixed script — four reads, then a single-label write — driven
    // through two services over identical graph versions: one patches
    // with `apply_delta`, the other swaps in the same version with
    // `rebuild_graph`. No timing anywhere: every number is a counter
    // the script implies.
    let mut current = ring_graph(60);
    let delta_side = QueryService::new(current.clone(), ServeConfig::default());
    let mut rebuild_side = QueryService::new(current.clone(), ServeConfig::default());
    // Live alphabets {a}, {b}, {c}, {a, b}.
    let queries: Vec<Dfa> = ["a·a", "b·b", "c", "a·b"]
        .iter()
        .map(|expr| Regex::parse(expr, current.alphabet()).unwrap().to_dfa(3))
        .collect();
    let read_all = |rebuild_side: &QueryService, current: &GraphDb| {
        for (i, query) in queries.iter().enumerate() {
            let direct = eval_monadic(query, current);
            assert_eq!(*delta_side.query_monadic(query).result, direct, "delta {i}");
            assert_eq!(
                *rebuild_side.query_monadic(query).result,
                direct,
                "rebuild {i}"
            );
        }
    };
    let [a, b, c] = [0, 1, 2].map(Symbol::from_index);
    // (add, remove, entries the delta side must patch).
    let writes = [
        (vec![], vec![(0, a, 1)], 2), // a·a, a·b
        (vec![(0, b, 5)], vec![], 2), // b·b, a·b
        (vec![(3, c, 9)], vec![], 1), // c
    ];
    read_all(&rebuild_side, &current); // 4 cold misses on both sides
    for (add, remove, patched) in &writes {
        current = current.with_delta(add, remove).unwrap().compact();
        let applied = delta_side.apply_delta(add, remove).unwrap();
        assert_eq!((applied.invalidated, applied.patched), (0, *patched));
        rebuild_side.rebuild_graph(current.clone());
        // Delta side: the spared and the patched entries hit (4, 4,
        // 4); rebuild side: 0.
        read_all(&rebuild_side, &current);
    }
    read_all(&rebuild_side, &current); // all 4 resident on both sides

    let (delta, rebuild) = (delta_side.stats(), rebuild_side.stats());
    assert_eq!(delta.label_invalidations, 0);
    let patched = delta_side.telemetry().registry.counter("cache.patched");
    assert_eq!(patched.get(), 2 + 2 + 1);
    assert_eq!((delta.deltas_applied, delta.invalidations), (3, 0));
    assert_eq!((rebuild.deltas_applied, rebuild.invalidations), (0, 3));
    assert_eq!((delta.hits, delta.misses), (4 + 4 + 4 + 4, 4));
    assert_eq!((rebuild.hits, rebuild.misses), (4, 4 * 4));
    assert!(delta.hits > rebuild.hits);
}

/// Which entry the cache evicts is a function of the submission list
/// alone: GDSF ranks by a work measure the evaluation produces (not by
/// its wall time) and breaks ties by `(fingerprint, kind)` (not by
/// `HashMap` order). So two fresh services fed the same seeded mix
/// through a cache of a few entries end with equal counters —
/// `cache.evictions` included — and the same resident keys.
#[test]
fn counters_and_resident_set_repeat_exactly_under_eviction_pressure() {
    let graph = ring_graph(200);
    // Every word of length ≤ 3, and per letter pair three starred
    // shapes — so language-included pairs (`a·b` after `a·b*`) and
    // same-shape queries with tying costs both occur.
    let letters = ["a", "b", "c"];
    let mut exprs: Vec<String> = Vec::new();
    for x in letters {
        exprs.push(x.to_string());
        for y in letters {
            exprs.push(format!("{x}·{y}"));
            exprs.push(format!("{x}·{y}*"));
            exprs.push(format!("{x}*·{y}·c"));
            exprs.push(format!("({x}·{y})*·c"));
            for z in letters {
                exprs.push(format!("{x}·{y}·{z}"));
            }
        }
    }
    let queries: Vec<CanonicalQuery> = exprs
        .iter()
        .map(|expr| CanonicalQuery::new(&Regex::parse(expr, graph.alphabet()).unwrap().to_dfa(3)))
        .collect();
    let languages: std::collections::HashSet<u64> =
        queries.iter().map(CanonicalQuery::fingerprint).collect();
    assert!(languages.len() >= 50, "{} languages", languages.len());

    // 600 submissions, half monadic, half binary from one of four
    // sources (the binary entries of one query share a fingerprint).
    let mut state = 42u64;
    let mut next = |bound: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % bound) as usize
    };
    let mix: Vec<CacheKey> = (0..600)
        .map(|_| {
            let query = queries[next(queries.len() as u64)].clone();
            match next(8) {
                0..=3 => CacheKey::monadic(query),
                source => CacheKey::binary(query, (source as u32 - 4) * 50),
            }
        })
        .collect();

    let run = || {
        let config = ServeConfig {
            // Room for about seven of the ~350-byte entries.
            cache: CacheConfig {
                capacity_bytes: 2560,
            },
            ..ServeConfig::default()
        };
        let service = QueryService::new(graph.clone(), config);
        for key in &mix {
            let dfa = key.query.dfa();
            let (response, expected) = match key.kind {
                QueryKind::Monadic => (
                    service.query_monadic_canonical(key.query.clone()),
                    eval_monadic(dfa, &graph),
                ),
                QueryKind::Binary(source) => (
                    service.query_binary_canonical(key.query.clone(), source),
                    eval_binary_from(dfa, &graph, source),
                ),
            };
            assert_eq!(*response.result, expected, "{key:?}");
        }
        service
    };
    let (first, second) = (run(), run());

    let timeless = |stats: ServeStats| {
        format!(
            "{:?}",
            ServeStats {
                eval_ns_total: 0,
                ..stats
            }
        )
    };
    assert_eq!(timeless(first.stats()), timeless(second.stats()));
    let cache_counters = |service: &QueryService| -> Vec<(String, u64)> {
        let mut all = service.telemetry().registry.snapshot();
        all.retain(|(name, _)| name.starts_with("cache."));
        all
    };
    let counters = cache_counters(&first);
    assert_eq!(counters, cache_counters(&second));
    let evictions = counters.iter().find(|(name, _)| name == "cache.evictions");
    assert!(evictions.unwrap().1 >= 100, "no pressure: {counters:?}");

    let resident = |service: &QueryService| -> Vec<bool> {
        mix.iter()
            .map(|key| service.try_hit(key).is_some())
            .collect()
    };
    let kept = resident(&first);
    assert_eq!(kept, resident(&second));
    assert!(kept.contains(&true) && kept.contains(&false));
}

/// `(a+b)^39·a·(a+b)*` has a 41-state DFA whose reversal
/// `(a+b)*·a·(a+b)^39` needs 2^40: planning must stay linear in the
/// automaton as given (it used to determinize the reversal on every
/// plan and never came back), and the service must answer the query
/// under both semantics bit-identically to the oracles on G0. The
/// wall-clock guard turns a reintroduced exponential into a failure,
/// not a stalled run.
#[test]
fn a_query_with_an_exponential_reversal_is_planned_and_served_at_once() {
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let graph = pathlearn_graph::graph::figure3_g0();
        let text = format!("{}a·(a+b)*", "(a+b)·".repeat(39));
        let query = Regex::parse(&text, graph.alphabet()).unwrap().to_dfa(3);
        assert_eq!(query.num_states(), 41);

        let started = std::time::Instant::now();
        let plan = pathlearn_graph::plan::plan_query(&query, &graph);
        let took = started.elapsed();
        assert!(took < Duration::from_secs(1), "plan_query took {took:?}");
        assert_eq!(plan.query().num_states(), 41);

        let expected = pathlearn_graph::eval::eval_monadic_queued(&query, &graph);
        assert!(!expected.is_empty(), "G0's a-cycles carry 40-step paths");
        let service = QueryService::new(graph.clone(), ServeConfig::default());
        assert_eq!(*service.query_monadic(&query).result, expected);
        for source in graph.nodes() {
            assert_eq!(
                *service.query_binary_from(&query, source).result,
                eval_binary_from(&query, &graph, source),
                "binary from {source}"
            );
        }
        done.send(()).unwrap();
    });
    finished
        .recv_timeout(Duration::from_secs(10))
        .expect("planning or serving the query hung or panicked");
}
