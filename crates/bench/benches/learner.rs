//! End-to-end Algorithm 1 benchmarks — the learning-time measurements
//! behind Figure 12, as micro-benchmarks (one per biological query at a
//! fixed 2% label fraction) — and the relearning of one interactive
//! round in its two shapes: **one-shot**, `Learner::learn` from `(G, S)`
//! alone, and **warm**, `Learner::learn_with` on the state of a session
//! that has seen every earlier label (the mean over a whole recorded
//! session).

use criterion::{criterion_group, criterion_main, Criterion};
use pathlearn_bench::{bio_dataset, recorded_session};
use pathlearn_core::{LearnState, Learner, Sample};
use pathlearn_datagen::sampling::random_sample;
use pathlearn_interactive::session::InteractiveConfig;
use pathlearn_interactive::strategy::StrategyKind;
use std::hint::black_box;

fn bench_learner(c: &mut Criterion) {
    let dataset = bio_dataset(42);
    let mut group = c.benchmark_group("learn_alibaba_2pct");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for q in &dataset.queries {
        let selection = q.query.eval(&dataset.graph);
        let sample = random_sample(&dataset.graph, &selection, 0.02, 7);
        let learner = Learner::default();
        group.bench_function(q.name.as_str(), |b| {
            b.iter(|| learner.learn(black_box(&dataset.graph), black_box(&sample)))
        });
    }
    group.finish();
}

fn bench_relearn(c: &mut Criterion) {
    let dataset = bio_dataset(42);
    let graph = &dataset.graph;
    let goal = &dataset.queries[3].query; // bio4

    let mut group = c.benchmark_group("relearn_alibaba");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for strategy in [StrategyKind::KRandom, StrategyKind::KSmallest] {
        let config = InteractiveConfig {
            strategy,
            ..InteractiveConfig::default()
        };
        let learner = Learner::with_config(config.learner);
        let labels = recorded_session(graph, goal, config);

        // One-shot: the sample halfway through that session.
        let mut sample = Sample::new();
        for &(node, label) in &labels[..labels.len() / 2] {
            sample.add(node, label);
        }
        group.bench_function(format!("{strategy}/one_shot"), |b| {
            b.iter(|| learner.learn(black_box(graph), black_box(&sample)))
        });

        // Warm: the session's labels in order, one relearn each, on one
        // state per pass.
        let mut state = LearnState::new(graph);
        let mut sample = Sample::new();
        let mut at = 0;
        group.bench_function(format!("{strategy}/warm_session_round"), |b| {
            b.iter(|| {
                if at == labels.len() {
                    state = LearnState::new(graph);
                    sample = Sample::new();
                    at = 0;
                }
                let (node, label) = labels[at];
                at += 1;
                sample.add(node, label);
                learner.learn_with(&mut state, &sample)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_learner, bench_relearn);
criterion_main!(benches);
