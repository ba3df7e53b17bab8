//! Benchmarks for the node proposal of one interactive round (`kR` scan,
//! `kS` exhaustive count) — the "time between interactions" column of
//! Table 2 — in its two shapes: **one-shot**, the free `propose` from
//! `(G, S)` alone with a cold finder, and **warm**, one round of a
//! session whose finder has seen every earlier label (the mean over a
//! whole recorded session, its cold first round included).

use criterion::{criterion_group, criterion_main, Criterion};
use pathlearn_bench::{bio_dataset, recorded_session};
use pathlearn_core::Sample;
use pathlearn_graph::{GraphDb, NodeId, ScpFinder};
use pathlearn_interactive::session::InteractiveConfig;
use pathlearn_interactive::strategy::{propose, StrategyKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A recorded session walked again one proposal per [`Replay::round`],
/// over and over, on a finder that lives as long as each pass.
struct Replay<'g> {
    config: InteractiveConfig,
    labels: Vec<(NodeId, bool)>,
    at: usize,
    finder: ScpFinder<'g>,
    sample: Sample,
    candidates: Vec<NodeId>,
    rng: StdRng,
}

impl<'g> Replay<'g> {
    fn new(graph: &'g GraphDb, config: InteractiveConfig, labels: Vec<(NodeId, bool)>) -> Self {
        Replay {
            config,
            labels,
            at: 0,
            finder: ScpFinder::new(graph, &[]),
            sample: Sample::new(),
            candidates: graph.nodes().collect(),
            rng: StdRng::seed_from_u64(config.seed),
        }
    }

    fn round(&mut self) {
        if self.at == self.labels.len() {
            let labels = std::mem::take(&mut self.labels);
            *self = Replay::new(self.finder.graph(), self.config, labels);
        }
        let proposal = self.config.proposal_strategy().propose(
            &mut self.finder,
            &self.sample,
            &self.candidates,
            &mut self.rng,
        );
        std::hint::black_box(proposal);
        let (node, label) = self.labels[self.at];
        self.at += 1;
        self.sample.add(node, label);
        self.candidates.retain(|&n| n != node);
    }
}

fn bench_propose(c: &mut Criterion) {
    let dataset = bio_dataset(42);
    let graph = &dataset.graph;
    let goal = &dataset.queries[3].query; // bio4

    let mut group = c.benchmark_group("propose_alibaba");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for strategy in [StrategyKind::KRandom, StrategyKind::KSmallest] {
        let config = InteractiveConfig {
            strategy,
            ..InteractiveConfig::default()
        };
        let labels = recorded_session(graph, goal, config);

        // One-shot: the sample halfway through that session.
        let mut sample = Sample::new();
        for &(node, label) in &labels[..labels.len() / 2] {
            sample.add(node, label);
        }
        let candidates: Vec<NodeId> = graph.nodes().filter(|&n| !sample.is_labeled(n)).collect();
        group.bench_function(format!("{strategy}/one_shot"), |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(3);
                propose(
                    strategy,
                    graph,
                    &sample,
                    &candidates,
                    config.k_start,
                    config.k_max,
                    config.count_cap,
                    &mut rng,
                )
            })
        });

        let mut replay = Replay::new(graph, config, labels);
        group.bench_function(format!("{strategy}/warm_session_round"), |b| {
            b.iter(|| replay.round())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_propose);
criterion_main!(benches);
