//! Static experiments (paper §5.2 — Figures 11 and 12).
//!
//! For each labeled-node fraction: draw seeded random samples labeled by
//! the goal query, run Algorithm 1, score the learned query as a binary
//! classifier against the goal (F1), and record the learning time. The
//! "labels needed for F1 = 1 without interactions" column of Table 2 is
//! the smallest prefix of a random labeling order whose sample makes the
//! learner output a query selecting exactly the goal's node set.

use crate::metrics::Confusion;
use pathlearn_core::PathQuery;
use pathlearn_core::{EvalPool, Learner, LearnerConfig, Sample};
use pathlearn_datagen::sampling::{random_sample, LabelingOrder};
use pathlearn_graph::GraphDb;
use pathlearn_graph::{CancelToken, EvalScratch, Goal, QueryPlan};
use std::time::Duration;

/// Configuration of a static experiment sweep.
#[derive(Clone, Debug)]
pub struct StaticConfig {
    /// Labeled-node fractions to sweep (x-axis of Figures 11/12).
    pub fractions: Vec<f64>,
    /// Independent trials (seeds) per fraction.
    pub trials: usize,
    /// Base seed.
    pub seed: u64,
    /// Learner configuration.
    pub learner: LearnerConfig,
}

impl Default for StaticConfig {
    /// The sweep of Figures 11 and 12 (`fig11_f1`, `fig12_time`): eight
    /// fractions from 0.5 % to 12 %, three trials each, seed 42.
    fn default() -> Self {
        StaticConfig {
            fractions: vec![0.005, 0.01, 0.02, 0.03, 0.05, 0.07, 0.10, 0.12],
            trials: 3,
            seed: 42,
            learner: LearnerConfig::default(),
        }
    }
}

/// Aggregated measurements at one labeled fraction.
#[derive(Clone, Debug)]
pub struct StaticPoint {
    /// Fraction of labeled nodes.
    pub fraction: f64,
    /// Mean F1 over trials (abstentions score 0).
    pub mean_f1: f64,
    /// Minimum trial F1.
    pub min_f1: f64,
    /// Maximum trial F1.
    pub max_f1: f64,
    /// Mean learning wall-clock time.
    pub mean_time: Duration,
    /// Fraction of trials where the learner abstained (`null`).
    pub abstain_rate: f64,
}

/// Runs the sweep for one goal query on one graph.
pub fn run_static(graph: &GraphDb, goal: &PathQuery, config: &StaticConfig) -> Vec<StaticPoint> {
    let pool = EvalPool::default();
    // One evaluation scratch for the whole sweep: the goal selection and
    // every trial's F1 scoring reuse the same buffers.
    let mut scratch = EvalScratch::new();
    let mut select = |query: &PathQuery| {
        pool.evaluate(
            &mut scratch,
            &QueryPlan::forward(query.dfa()),
            graph,
            Goal::Monadic,
            &CancelToken::never(),
        )
        .expect("a never-token evaluation is not interrupted")
    };
    let goal_selection = select(goal);
    let learner = Learner::with_config(config.learner);
    let mut points = Vec::with_capacity(config.fractions.len());
    for (fi, &fraction) in config.fractions.iter().enumerate() {
        let mut f1s = Vec::with_capacity(config.trials);
        let mut total_time = Duration::ZERO;
        let mut abstained = 0usize;
        for trial in 0..config.trials {
            let seed = config
                .seed
                .wrapping_add((fi as u64) << 32)
                .wrapping_add(trial as u64);
            let sample = random_sample(graph, &goal_selection, fraction, seed);
            let outcome = learner.learn(graph, &sample);
            total_time += outcome.stats.duration;
            match outcome.query {
                Some(query) => {
                    let learned_selection = select(&query);
                    let confusion = Confusion::from_selections(&goal_selection, &learned_selection);
                    f1s.push(confusion.f1());
                }
                None => {
                    abstained += 1;
                    f1s.push(0.0);
                }
            }
        }
        let mean_f1 = f1s.iter().sum::<f64>() / f1s.len().max(1) as f64;
        points.push(StaticPoint {
            fraction,
            mean_f1,
            min_f1: f1s.iter().copied().fold(f64::INFINITY, f64::min),
            max_f1: f1s.iter().copied().fold(0.0, f64::max),
            mean_time: total_time / config.trials.max(1) as u32,
            abstain_rate: abstained as f64 / config.trials.max(1) as f64,
        });
    }
    points
}

/// Measures Table 2's third column: the smallest fraction of randomly
/// ordered labels after which the learner's output selects **exactly**
/// the goal's node set. Scans prefixes of a seeded labeling order with
/// the given step (in nodes); returns `None` if even labeling every node
/// does not reach exactness.
pub fn labels_needed_without_interactions(
    graph: &GraphDb,
    goal: &PathQuery,
    learner_config: LearnerConfig,
    seed: u64,
    step: usize,
) -> Option<f64> {
    let goal_selection = goal.eval(graph);
    let order = LabelingOrder::new(graph, &goal_selection, seed);
    let learner = Learner::with_config(learner_config);
    let total = graph.num_nodes();
    let step = step.max(1);
    let mut count = step.min(total);
    loop {
        let sample: Sample = order.prefix_sample(&goal_selection, count);
        let outcome = learner.learn(graph, &sample);
        if let Some(query) = outcome.query {
            if query.eval(graph) == goal_selection {
                return Some(count as f64 / total as f64);
            }
        }
        if count == total {
            return None;
        }
        count = (count + step).min(total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathlearn_graph::graph::figure3_g0;

    #[test]
    fn f1_converges_with_more_labels_on_g0() {
        let graph = figure3_g0();
        let goal = PathQuery::parse("(a·b)*·c", graph.alphabet()).unwrap();
        let config = StaticConfig {
            fractions: vec![0.3, 1.0],
            trials: 3,
            seed: 42,
            learner: LearnerConfig::default(),
        };
        let points = run_static(&graph, &goal, &config);
        assert_eq!(points.len(), 2);
        // With all nodes labeled the learner is exact on G0 (the full
        // sample contains the characteristic one, §3.3).
        assert!(
            (points[1].mean_f1 - 1.0).abs() < 1e-12,
            "full-label F1 {}",
            points[1].mean_f1
        );
        assert!(points[0].mean_f1 <= points[1].mean_f1 + 1e-12);
        assert_eq!(points[1].abstain_rate, 0.0);
    }

    #[test]
    fn labels_needed_reaches_exactness_on_g0() {
        let graph = figure3_g0();
        let goal = PathQuery::parse("(a·b)*·c", graph.alphabet()).unwrap();
        let fraction =
            labels_needed_without_interactions(&graph, &goal, LearnerConfig::default(), 42, 1)
                .expect("G0 admits exact learning");
        assert!(fraction > 0.0 && fraction <= 1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let graph = figure3_g0();
        let goal = PathQuery::parse("a", graph.alphabet()).unwrap();
        let config = StaticConfig {
            fractions: vec![0.4],
            trials: 2,
            seed: 7,
            learner: LearnerConfig::default(),
        };
        let a = run_static(&graph, &goal, &config);
        let b = run_static(&graph, &goal, &config);
        assert_eq!(a[0].mean_f1, b[0].mean_f1);
        assert_eq!(a[0].abstain_rate, b[0].abstain_rate);
    }
}
