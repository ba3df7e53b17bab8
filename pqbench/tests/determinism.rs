//! Same seed ⇒ identical inputs, identical program counters, identical
//! answers and identical labels-to-goal; another seed changes them.

use pqbench::gen::{ColdInputs, Dataset, HotInputs, MixInputs, Scale};
use pqbench::trace::Recorder;
use pqbench::workloads::{self, Epoch, NAMES};

const SCALE: Scale = Scale::QUICK;

fn inputs(seed: u64) -> (HotInputs, ColdInputs, MixInputs, String) {
    let mut rec = Recorder::new();
    let dataset = Dataset::generate(SCALE.syn_nodes, &mut rec);
    (
        HotInputs::generate(&dataset, SCALE.hot_ops, &SCALE, seed),
        ColdInputs::generate(&dataset, SCALE.cold_ops, seed),
        MixInputs::generate(&dataset, &SCALE, seed),
        dataset.graph_text(&mut rec),
    )
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    let (a, b, c) = (inputs(42), inputs(42), inputs(7));
    assert!(
        a == b,
        "the same seed must give the same graph text and op lists"
    );
    assert_ne!(a.0.ops, c.0.ops, "hot op order must depend on the seed");
    assert_ne!(
        a.1.family, c.1.family,
        "the cold family must depend on the seed"
    );
    assert_ne!(a.2.edges, c.2.edges, "write edges must depend on the seed");
    assert_ne!(
        a.0.sources, c.0.sources,
        "hot sources must depend on the seed"
    );
    assert_eq!(a.3, c.3, "the graph is a fixed dataset");
}

#[test]
fn op_lists_have_the_declared_shape() {
    let (hot, cold, mix, _) = inputs(42);
    assert_eq!(hot.ops.len(), SCALE.hot_ops);
    assert_eq!(hot.distinct_keys(), 9 + 3 * SCALE.hot_sources);
    for query in &hot.queries {
        assert_ne!(query.spellings[0], query.spellings[1], "{}", query.name);
    }
    assert_eq!(cold.ops.len(), SCALE.cold_ops);
    assert_eq!(cold.family.len(), SCALE.cold_ops / 3);
    assert_eq!(mix.ops.len(), SCALE.mix_writes * 5);
    // k adds, the same k removed in the same order, one no-op remove.
    let k = SCALE.mix_writes / 2;
    assert_eq!(mix.write(0), (0, true));
    assert_eq!(mix.write(k), (0, false));
    assert_eq!(mix.write(2 * k - 1), (k - 1, false));
    assert_eq!(mix.write(2 * k), (0, false));
}

/// One epoch of `name` from `seed`, and that a second epoch repeats it.
fn first_epoch(name: &str, seed: u64) -> Epoch {
    let mut workload = workloads::set_up(name, seed, &SCALE, &mut Recorder::new());
    let mut latencies = Vec::new();
    let first = workload.run_epoch(&mut latencies);
    assert_eq!(first.failed, 0, "{name}: failed ops");
    workload.check_epoch(&first).expect("epoch conditions");
    workload.reset();
    let second = workload.run_epoch(&mut Vec::new());
    assert_eq!(
        first.digest, second.digest,
        "{name}: epochs must answer identically"
    );
    workload.verify().expect("answers match the oracle");
    first
}

fn exact(epoch: &Epoch) -> Vec<(&'static str, u64)> {
    pqbench::bench::exact(&epoch.counters)
}

#[test]
fn same_seed_same_counters_and_answers_other_seed_other_answers() {
    for name in NAMES {
        let (a, b, c) = (
            first_epoch(name, 42),
            first_epoch(name, 42),
            first_epoch(name, 7),
        );
        assert_eq!(
            exact(&a),
            exact(&b),
            "{name}: counters must repeat for a seed"
        );
        assert_eq!(a.digest, b.digest, "{name}: answers must repeat for a seed");
        assert_ne!(
            a.digest, c.digest,
            "{name}: another seed must change the answers"
        );
    }
}

#[test]
fn labels_to_goal_repeat_for_a_seed() {
    let labels = |seed| first_epoch("learn_session", seed).counter("interactive.labels_to_goal");
    assert_eq!(labels(42), labels(42));
}
