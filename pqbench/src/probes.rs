//! Per-layer probes: every layer's public calls, timed from outside on a
//! fixture generated from the run's seed.
//!
//! A traced run of *any* workload runs all of them, so every per-layer
//! metric is measured in every traced run; on the serving workloads the
//! fixture is the workload's own `syn-100k` and queries, on
//! `learn_session` its `syn-10k`. Calls worth a span get one (pooled by
//! name with the spans of the workload's own decomposition, which make
//! the same calls on the same kind of input); nanosecond calls are timed
//! in batches; ratios, sizes and the two residuals are computed here.

use crate::gen::{
    sub_seed, ColdInputs, ColdOp, Dataset, HotInputs, MixInputs, MixOp, Scale, DATASET_SEED,
};
use crate::stats::median;
use crate::sut::{self, BitSet, CacheKey, Dfa, GraphDb, StrategyKind};
use crate::trace::{Recorder, NO_OP};
use crate::workloads::{dfa_of, scratch_dir, trace_miss_layers, trace_write_layers, Front};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Values the probes compute directly, by per-layer metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Median nanoseconds per call of `f`, over `samples` batches of `batch`.
fn batch_ns(samples: usize, batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let per_call: Vec<f64> = (0..samples)
        .map(|sample| {
            let started = Instant::now();
            for i in 0..batch {
                f(sample * batch + i);
            }
            started.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    median(&per_call)
}

/// Runs every probe on the fixture of `nodes` nodes generated from `seed`.
pub fn run_all(nodes: usize, seed: u64, scale: &Scale, rec: &mut Recorder) -> Values {
    rec.set_op(NO_OP);
    let mut values = Values::new();
    let dataset = Dataset::generate(nodes, rec);
    let text = dataset.graph_text(rec);
    let hot = HotInputs::generate(&dataset, scale.probe_ops, scale, seed);
    let cold = ColdInputs::generate(&dataset, scale.probe_ops, seed);
    let mix = MixInputs::generate(
        &dataset,
        &Scale {
            mix_writes: scale.probe_wal_records / 2 * 2 + 1,
            ..*scale
        },
        seed,
    );
    drop(dataset);

    let graph = bring_up(&text, scale, rec, &mut values);
    hit_path(&graph, &hot, scale, rec, &mut values);
    miss_path(&graph, &cold, rec, &mut values);
    cache(&graph, &cold, &mut values);
    write_path(&graph, &hot, &mix, scale, rec, &mut values);
    learner(scale, seed, rec, &mut values);
    values
}

/// Text parse, snapshot save/load, service construction.
fn bring_up(text: &str, scale: &Scale, rec: &mut Recorder, values: &mut Values) -> GraphDb {
    let dir = scratch_dir("probe-snapshot");
    let path = dir.join("graph.snap");
    let mut graph = sut::parse_graph_text(text);
    for _ in 0..scale.probe_repeats {
        graph = rec.time("graph.parse_text", || sut::parse_graph_text(text));
        rec.time("snapshot.save", || sut::save_snapshot(&graph, &path));
        let loaded = rec.time("snapshot.load", || sut::load_snapshot(&path));
        assert_eq!(loaded.num_edges(), graph.num_edges(), "snapshot round trip");
        drop(rec.time("service.new", || sut::new_service(graph.clone())));
    }
    let snapshot_bytes = std::fs::metadata(&path).expect("snapshot file").len();
    values.insert(
        "snapshot.bytes_per_text_byte",
        snapshot_bytes as f64 / text.len() as f64,
    );
    let _ = std::fs::remove_dir_all(&dir);
    graph
}

/// The request path of a hit, over real TCP and decomposed in-thread.
fn hit_path(
    graph: &GraphDb,
    hot: &HotInputs,
    scale: &Scale,
    rec: &mut Recorder,
    values: &mut Values,
) {
    let mut scratch = Recorder::new();
    let mut front = Front::bring_up(sut::new_service(graph.clone()), hot, &mut scratch);
    for (id, &op) in hot.ops.iter().take(scale.probe_ops).enumerate() {
        rec.set_op(id as i64);
        let real = rec.begin("probe.hit.op");
        let reply = front.read(hot, op).expect("probe read");
        rec.end(real);
        assert!(reply.hit, "the probe front door is warm");
        let layers = rec.begin("probe.hit.layers");
        front.trace_read_layers(hot, op, true, rec);
        rec.end(layers);
        rec.time("net.ping", || sut::tcp_ping(&mut front.client));
    }
    rec.set_op(NO_OP);
    let hit = rec.decompose("probe.hit.op", "probe.hit.layers");
    values.insert("net.overhead_us", hit.residual_median_ns / 1e3);
    let served = sut::query_monadic(
        front.server.service(),
        &dfa_of(&hot.queries[0].spellings[0], graph),
    );
    values.insert(
        "proto.response_bytes",
        sut::encode_response(&sut::result_response(&served)).len() as f64,
    );
}

/// The miss path in-process, the planner, inclusion, the pooled evaluator.
fn miss_path(graph: &GraphDb, cold: &ColdInputs, rec: &mut Recorder, values: &mut Values) {
    let service = sut::new_service(graph.clone());
    let dfas: Vec<Dfa> = cold.family.iter().map(|text| dfa_of(text, graph)).collect();
    let mut monadic: Vec<&Dfa> = Vec::new();
    for (id, &op) in cold.ops.iter().enumerate() {
        rec.set_op(id as i64);
        let (dfa, source) = match op {
            ColdOp::Monadic { family } => (&dfas[family], None),
            ColdOp::Binary { family, source } => (
                &dfas[family],
                Some(graph.node_id(&cold.sources[source]).expect("served node")),
            ),
        };
        let real = rec.begin("probe.miss.op");
        let response = match source {
            None => sut::query_monadic(&service, dfa),
            Some(source) => sut::query_binary_from(&service, dfa, source),
        };
        rec.end(real);
        assert!(!sut::was_hit(&response), "family members are distinct keys");
        let layers = rec.begin("probe.miss.layers");
        trace_miss_layers(dfa, source, graph, rec);
        rec.end(layers);
        if source.is_none() {
            monadic.push(dfa);
        }
    }
    rec.set_op(NO_OP);
    let miss = rec.decompose("probe.miss.op", "probe.miss.layers");
    values.insert("service.miss_overhead_us", miss.residual_median_ns / 1e3);

    let sigma = graph.alphabet().len();
    let nfas: Vec<sut::Nfa> = cold
        .family
        .iter()
        .map(|text| sut::parse_regex(text, graph.alphabet()).to_nfa(sigma))
        .collect();
    for pair in nfas.windows(2) {
        rec.time("inclusion.nfa_included", || {
            sut::nfa_included(&pair[0], &pair[1])
        });
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = sut::EvalPool::new(cores);
    let sample = &monadic[..monadic.len().min(32)];
    let sequential = Instant::now();
    let expected: Vec<BitSet> = sample
        .iter()
        .map(|dfa| sut::eval_monadic(dfa, graph))
        .collect();
    let sequential = sequential.elapsed().as_secs_f64();
    let pooled = Instant::now();
    let got: Vec<BitSet> = sample
        .iter()
        .map(|dfa| sut::pool_eval_monadic(&pool, dfa, graph))
        .collect();
    let pooled = pooled.elapsed().as_secs_f64();
    assert!(expected == got, "pooled evaluation is bit-identical");
    values.insert("par_eval.monadic_speedup", sequential / pooled);
}

/// `ResultCache::{get, insert, invalidate_labels}` on a cache filled to
/// its budget with results of the fixture graph's size.
fn cache(graph: &GraphDb, cold: &ColdInputs, values: &mut Values) {
    let query = sut::canonical_of(&dfa_of(&cold.family[0], graph));
    let value = Arc::new(BitSet::new(graph.num_nodes()));
    let key = |source: usize| CacheKey::binary(query.clone(), source as sut::NodeId);
    let mut cache = sut::new_cache();
    let mut resident = 0usize;
    // Distinct costs, as measured evaluation times are: GDSF priorities
    // then never tie (a tie is broken by hashing both queries).
    let cost = |source: usize| 1_000_000 + 997 * source as u64;
    while cache.stats().evictions == 0 {
        cache.insert(key(resident), value.clone(), cost(resident));
        resident += 1;
    }
    // The lowest costs are evicted first, so the upper half is resident
    // (a miss would show in the assertion below).
    let probe: Vec<CacheKey> = (resident / 2..resident / 2 + 64).map(key).collect();
    let hits_before = cache.stats().hits;
    let get_ns = batch_ns(32, 64, |i| {
        black_box(cache.get(&probe[i % probe.len()]));
    });
    assert_eq!(
        cache.stats().hits - hits_before,
        32 * 64,
        "probed keys are resident"
    );
    values.insert("cache.get_hit_ns", get_ns);
    let insert_ns = batch_ns(16, 16, |i| {
        cache.insert(key(resident + 1 + i), value.clone(), cost(resident + 1 + i));
    });
    values.insert("cache.insert_evict_ns", insert_ns);
    // A label outside every entry's live alphabet: the scan, no drops.
    let live = sut::live_alphabet(&query);
    let untouched = graph
        .alphabet()
        .symbols()
        .find(|sym| !live.contains(&(sym.index() as u32)))
        .expect("a label outside the query's alphabet");
    let entries = cache.len();
    let invalidate_ns = batch_ns(16, 4, |_| {
        black_box(cache.invalidate_labels(&[untouched]));
    });
    assert_eq!(cache.len(), entries, "nothing was invalidated");
    values.insert("cache.invalidate_labels_us", invalidate_ns / 1e3);
}

/// WAL append/recover/checkpoint, overlay patch and compaction, the
/// in-memory delta path, and evaluation over an overlay.
fn write_path(
    graph: &GraphDb,
    hot: &HotInputs,
    mix: &MixInputs,
    scale: &Scale,
    rec: &mut Recorder,
    values: &mut Values,
) {
    // A data dir whose WAL holds `probe_wal_records` acknowledged
    // batches (adds, then removes of the same edges): what a crash
    // leaves behind. Appends double as the write decomposition.
    let dir = scratch_dir("probe-wal");
    sut::save_snapshot(graph, &dir.join(sut::SNAPSHOT_FILE));
    let mut wal = sut::open_wal(&dir.join(sut::WAL_FILE));
    let writes: Vec<usize> = mix
        .ops
        .iter()
        .filter_map(|op| match *op {
            MixOp::Write { index } => Some(index),
            MixOp::Read(_) => None,
        })
        .take(scale.probe_wal_records)
        .collect();
    let (mut current, mut overlay) = (graph.clone(), graph.clone());
    for &index in &writes {
        let (slot, add) = mix.write(index);
        let layers = rec.begin("probe.write.layers");
        current = trace_write_layers(&mix.edges[slot], add, &current, &mut wal, rec);
        rec.end(layers);
        if index == writes.len() / 2 - 1 {
            overlay = current.clone();
        }
    }
    drop(wal);
    let mut persistence = None;
    for _ in 0..scale.probe_repeats {
        let (recovered, handle) = rec.time("wal.recover", || sut::recover(&dir, None));
        assert_eq!(
            recovered.num_edges(),
            graph.num_edges(),
            "the WAL's writes cancel"
        );
        persistence = Some(handle);
    }
    let mut persistence = persistence.expect("at least one repeat");
    for _ in 0..scale.probe_repeats {
        rec.time("wal.checkpoint", || {
            sut::checkpoint(&mut persistence, graph)
        });
    }
    let _ = std::fs::remove_dir_all(&dir);

    // `overlay` is the graph with the first half of the writes applied.
    assert!(overlay.has_delta(), "half the probe writes are pending");
    for _ in 0..scale.probe_repeats {
        rec.time("delta.compact", || sut::compact(&overlay));
    }
    let compacted = sut::compact(&overlay);
    let dfas: Vec<Dfa> = hot
        .queries
        .iter()
        .map(|q| dfa_of(&q.spellings[0], graph))
        .collect();
    let time_all = |graph: &GraphDb| {
        let started = Instant::now();
        for _ in 0..scale.probe_repeats {
            for dfa in &dfas {
                black_box(sut::eval_monadic(dfa, graph));
            }
        }
        started.elapsed().as_secs_f64()
    };
    time_all(&compacted);
    let (over, base) = (time_all(&overlay), time_all(&compacted));
    values.insert("eval.overlay_slowdown", over / base);

    let service = sut::new_service(graph.clone());
    for &index in &writes {
        let (slot, add) = mix.write(index);
        let edge = &mix.edges[slot];
        let ids = (
            graph.node_id(&edge.0).expect("served node"),
            graph.alphabet().symbol(&edge.1).expect("served label"),
            graph.node_id(&edge.2).expect("served node"),
        );
        rec.time("service.apply_delta", || {
            if add {
                sut::apply_delta(&service, &[ids], &[])
            } else {
                sut::apply_delta(&service, &[], &[ids])
            }
        });
    }
}

/// The Fig. 12 static protocol on the learner's synthetic graph: learn
/// from a 5 % random sample, SCP per positive, one strategy proposal
/// per growing sample prefix.
fn learner(scale: &Scale, seed: u64, rec: &mut Recorder, values: &mut Values) {
    let graph = sut::scale_free(scale.learn_syn_nodes, DATASET_SEED);
    let goal = sut::calibrate_syn(&graph).swap_remove(0).query;
    let goal_selection = goal.eval(&graph);
    let sample = sut::random_sample(&graph, &goal_selection, 0.05, sub_seed(seed, "static"));
    let learner = sut::session_learner();
    let mut learned = None;
    for _ in 0..scale.probe_repeats {
        learned = rec.time("learner.learn_static", || {
            sut::learn(&learner, &graph, &sample)
        });
    }
    let f1 = learned.map_or(0.0, |query| sut::f1(&goal_selection, &query.eval(&graph)));
    values.insert("learner.f1_static_5pct", f1);

    let mut finder = sut::ScpFinder::new(&graph, sample.neg());
    for &node in sample.pos().iter().take(256) {
        rec.time("scp.scp", || sut::scp(&mut finder, node, 5));
    }

    let mut rng = StdRng::seed_from_u64(sub_seed(seed, "propose"));
    let mut prefix = sut::Sample::new();
    let labelled: Vec<(sut::NodeId, bool)> = sample
        .pos()
        .iter()
        .map(|&n| (n, true))
        .chain(sample.neg().iter().map(|&n| (n, false)))
        .take(16)
        .collect();
    for (node, label) in labelled {
        prefix.add(node, label);
        let candidates: Vec<sut::NodeId> =
            graph.nodes().filter(|&n| !prefix.is_labeled(n)).collect();
        rec.time("strategy.propose", || {
            sut::propose(
                StrategyKind::KRandom,
                &graph,
                &prefix,
                &candidates,
                &mut rng,
            )
        });
    }
}
