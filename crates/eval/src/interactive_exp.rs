//! Interactive experiments (paper §5.3 — Table 2).
//!
//! For each goal query and strategy, run the Figure 9 loop from an empty
//! sample until the learned query selects exactly the goal's node set
//! (F1 = 1), and record the fraction of labeled nodes and the mean time
//! between interactions. Together with the static
//! "labels-needed-without-interactions" measurement this reproduces every
//! column of Table 2.

use pathlearn_core::{LearnerConfig, PathQuery};
use pathlearn_graph::GraphDb;
use pathlearn_interactive::{
    session::{InteractiveConfig, InteractiveSession},
    HaltReason, StrategyKind,
};
use std::time::Duration;

/// One Table 2 row (per query × strategy).
#[derive(Clone, Debug)]
pub struct InteractiveRow {
    /// Query name (`bio1` … `syn3`).
    pub query: String,
    /// Graph size (nodes) — Table 2 varies it for the synthetic queries.
    pub graph_nodes: usize,
    /// Strategy used (`kR` / `kS`).
    pub strategy: StrategyKind,
    /// Fraction of nodes labeled before reaching F1 = 1.
    pub label_fraction: f64,
    /// Number of labels.
    pub labels: usize,
    /// Mean time between interactions.
    pub mean_interaction_time: Duration,
    /// The part of it spent choosing the node.
    pub mean_propose_time: Duration,
    /// The part of it spent relearning.
    pub mean_relearn_time: Duration,
    /// Whether the session actually reached the goal (F1 = 1) rather than
    /// stopping for another reason.
    pub reached_goal: bool,
}

/// Runs one interactive experiment, capping the session at
/// `max_label_fraction` of the graph's nodes (pass `1.0` for no practical
/// cap). The paper's worst case, bio5, needed 7.7% of the nodes; the
/// Table 2 harness uses 0.15 so non-converging sessions are reported as
/// `reached_goal = false` instead of grinding to a full labeling.
pub fn run_interactive(
    graph: &GraphDb,
    query_name: &str,
    goal: &PathQuery,
    strategy: StrategyKind,
    seed: u64,
    learner: LearnerConfig,
    max_label_fraction: f64,
) -> InteractiveRow {
    let config = InteractiveConfig {
        strategy,
        seed,
        learner,
        max_interactions: ((graph.num_nodes() as f64 * max_label_fraction) as usize)
            .max(25)
            .min(graph.num_nodes()),
        ..InteractiveConfig::default()
    };
    let session = InteractiveSession::new(graph, config);
    let result = session.run_against_goal(goal);
    InteractiveRow {
        query: query_name.to_owned(),
        graph_nodes: graph.num_nodes(),
        strategy,
        label_fraction: result.label_fraction(graph),
        labels: result.labels_used(),
        mean_interaction_time: result.mean_interaction_time(),
        mean_propose_time: result.mean_propose_time(),
        mean_relearn_time: result.mean_relearn_time(),
        reached_goal: result.halt == HaltReason::ConditionMet,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathlearn_graph::graph::figure3_g0;

    #[test]
    fn interactive_row_on_g0() {
        let graph = figure3_g0();
        let goal = PathQuery::parse("(a·b)*·c", graph.alphabet()).unwrap();
        for strategy in [StrategyKind::KRandom, StrategyKind::KSmallest] {
            let row = run_interactive(
                &graph,
                "g0",
                &goal,
                strategy,
                42,
                LearnerConfig::default(),
                1.0,
            );
            assert!(row.reached_goal, "{strategy}");
            assert!(row.labels > 0 && row.labels <= graph.num_nodes());
            assert!((row.label_fraction - row.labels as f64 / 7.0).abs() < 1e-12);
        }
    }

    #[test]
    fn interactive_uses_fewer_labels_than_random_order_on_average() {
        // The headline claim of §5.3, testable even on tiny G0: the
        // interactive loop needs no more labels than the static random
        // order does for the same goal and seed family.
        let graph = figure3_g0();
        let goal = PathQuery::parse("(a·b)*·c", graph.alphabet()).unwrap();
        let row = run_interactive(
            &graph,
            "g0",
            &goal,
            StrategyKind::KSmallest,
            42,
            LearnerConfig::default(),
            1.0,
        );
        let static_fraction = crate::static_exp::labels_needed_without_interactions(
            &graph,
            &goal,
            LearnerConfig::default(),
            42,
            1,
        )
        .unwrap();
        assert!(row.label_fraction <= static_fraction + 1e-9);
    }
}
