//! The interaction loop of Figure 9.
//!
//! ```text
//! input: graph G                     sample S := ∅
//! while halt condition not satisfied:
//!     choose node ν w.r.t. strategy Υ          (3)
//!     show ν's neighborhood, ask for its label (4,5)
//!     S := S ∪ {(ν, α)}; propagate; relearn    (6)
//! output: learned query
//! ```
//!
//! The user is abstracted by a [`LabelOracle`]; the experiments simulate
//! her with [`QueryOracle`], which labels nodes according to a goal query
//! (§5.3). The default halt condition is the paper's strongest one —
//! *the learned query selects exactly the same node set as the goal* (an
//! F1 score of 1, "indistinguishable by the user") — with a safety cap on
//! the number of interactions.
//!
//! A session owns one [`LearnState`] for its whole run: the strategy and
//! the relearning share its SCP finder, and a label *updates* it — a
//! positive label changes nothing on the negative side, a negative one
//! invalidates only what that node's own paths reach — instead of
//! everything being rebuilt from `(G, S)` every round. Each round is
//! nevertheless exactly what the one-shot [`crate::strategy::propose`]
//! and [`Learner::learn`] return for the same sample and RNG state.

use crate::strategy::{Proposal, Strategy, StrategyKind};
use pathlearn_automata::BitSet;
use pathlearn_core::{KPolicy, LearnState, Learner, LearnerConfig, PathQuery, Sample};
use pathlearn_graph::{GraphDb, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Supplies labels — the "user" of Figure 9.
pub trait LabelOracle {
    /// Labels a node: `true` = positive, `false` = negative.
    fn label(&mut self, node: NodeId) -> bool;
}

/// Simulated user answering according to a goal query (§5.3 experiments).
#[derive(Clone, Debug)]
pub struct QueryOracle {
    selected: BitSet,
}

impl QueryOracle {
    /// Precomputes the goal query's selection on the graph.
    pub fn new(goal: &PathQuery, graph: &GraphDb) -> Self {
        QueryOracle {
            selected: goal.eval(graph),
        }
    }

    /// The goal's selected node set.
    pub fn selected(&self) -> &BitSet {
        &self.selected
    }
}

impl LabelOracle for QueryOracle {
    fn label(&mut self, node: NodeId) -> bool {
        self.selected.contains(node as usize)
    }
}

/// Configuration of an interactive session.
#[derive(Clone, Copy, Debug)]
pub struct InteractiveConfig {
    /// Node-proposal strategy (`kR` or `kS`).
    pub strategy: StrategyKind,
    /// Initial k for the k-informative test (paper: 2).
    pub k_start: usize,
    /// Maximum k before declaring exhaustion (paper observes ≤ 4, which
    /// is the default; deep k on large graphs makes the k-informative
    /// test exponential).
    pub k_max: usize,
    /// Cap on uncovered-path counting for `kS`.
    pub count_cap: usize,
    /// Safety cap on interactions (0 = number of graph nodes).
    pub max_interactions: usize,
    /// RNG seed (strategies and tie-breaking are fully deterministic
    /// given the seed).
    pub seed: u64,
    /// Learner configuration used after every label.
    pub learner: LearnerConfig,
}

impl InteractiveConfig {
    /// The node-proposal strategy these settings describe.
    pub fn proposal_strategy(&self) -> Strategy {
        Strategy {
            kind: self.strategy,
            k_start: self.k_start,
            k_max: self.k_max,
            count_cap: self.count_cap,
        }
    }
}

impl Default for InteractiveConfig {
    fn default() -> Self {
        InteractiveConfig {
            strategy: StrategyKind::KRandom,
            k_start: 2,
            k_max: 4,
            count_cap: 10_000,
            max_interactions: 0,
            seed: 42,
            learner: LearnerConfig {
                k: KPolicy::Dynamic { start: 2, max: 5 },
                prefix_free_output: true,
            },
        }
    }
}

/// Why the session stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HaltReason {
    /// The halt condition was satisfied (e.g. goal reached).
    ConditionMet,
    /// No k-informative node remains for any k ≤ k_max.
    NoInformativeNodes,
    /// The interaction cap was hit.
    MaxInteractions,
}

/// One user interaction.
#[derive(Clone, Debug)]
pub struct InteractionRecord {
    /// The node presented to the user.
    pub node: NodeId,
    /// The label the user gave.
    pub label: bool,
    /// The k at which the node was found informative.
    pub k: usize,
    /// Wall-clock time of this round (node choice + relearning) — the
    /// paper's "time between interactions".
    pub duration: Duration,
    /// The part of `duration` spent choosing the node.
    pub propose: Duration,
    /// The part of `duration` spent relearning from all labels.
    pub relearn: Duration,
}

/// Result of a completed session.
#[derive(Clone, Debug)]
pub struct SessionResult {
    /// The accumulated sample.
    pub sample: Sample,
    /// The last learned query (if any learning attempt succeeded).
    pub query: Option<PathQuery>,
    /// Per-interaction records.
    pub interactions: Vec<InteractionRecord>,
    /// Why the loop stopped.
    pub halt: HaltReason,
}

impl SessionResult {
    /// Number of labels the user provided.
    pub fn labels_used(&self) -> usize {
        self.interactions.len()
    }

    /// Labels as a fraction of graph nodes (Table 2's "% of interactions").
    pub fn label_fraction(&self, graph: &GraphDb) -> f64 {
        self.labels_used() as f64 / graph.num_nodes().max(1) as f64
    }

    /// Mean time between interactions (Table 2's last column).
    pub fn mean_interaction_time(&self) -> Duration {
        self.mean_of(|r| r.duration)
    }

    /// Mean time per interaction spent choosing the node.
    pub fn mean_propose_time(&self) -> Duration {
        self.mean_of(|r| r.propose)
    }

    /// Mean time per interaction spent relearning.
    pub fn mean_relearn_time(&self) -> Duration {
        self.mean_of(|r| r.relearn)
    }

    fn mean_of(&self, part: impl Fn(&InteractionRecord) -> Duration) -> Duration {
        if self.interactions.is_empty() {
            return Duration::ZERO;
        }
        let total: Duration = self.interactions.iter().map(part).sum();
        total / self.interactions.len() as u32
    }
}

/// The interaction loop (Figure 9).
///
/// ```
/// use pathlearn_core::PathQuery;
/// use pathlearn_graph::graph::figure3_g0;
/// use pathlearn_interactive::session::{InteractiveConfig, InteractiveSession};
///
/// let graph = figure3_g0();
/// let goal = PathQuery::parse("(a·b)*·c", graph.alphabet()).unwrap();
/// let session = InteractiveSession::new(&graph, InteractiveConfig::default());
/// // A simulated user labels proposed nodes until the learned query is
/// // indistinguishable from the goal (F1 = 1).
/// let result = session.run_against_goal(&goal);
/// assert!(result.labels_used() <= graph.num_nodes());
/// assert_eq!(result.query.unwrap().eval(&graph), goal.eval(&graph));
/// ```
pub struct InteractiveSession<'g> {
    graph: &'g GraphDb,
    config: InteractiveConfig,
}

impl<'g> InteractiveSession<'g> {
    /// Creates a session on a graph.
    pub fn new(graph: &'g GraphDb, config: InteractiveConfig) -> Self {
        InteractiveSession { graph, config }
    }

    /// Runs until `halt(learned, sample)` returns `true`, the strategy is
    /// exhausted, or the interaction cap is reached.
    pub fn run(
        &self,
        oracle: &mut dyn LabelOracle,
        mut halt: impl FnMut(Option<&PathQuery>, &Sample) -> bool,
    ) -> SessionResult {
        let cap = if self.config.max_interactions == 0 {
            self.graph.num_nodes()
        } else {
            self.config.max_interactions
        };
        let learner = Learner::with_config(self.config.learner);
        let strategy = self.config.proposal_strategy();
        let mut state = LearnState::new(self.graph);
        // The unlabeled nodes, ascending.
        let mut candidates: Vec<NodeId> = self.graph.nodes().collect();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut sample = Sample::new();
        let mut query: Option<PathQuery> = None;
        let mut interactions = Vec::new();

        if halt(query.as_ref(), &sample) {
            return SessionResult {
                sample,
                query,
                interactions,
                halt: HaltReason::ConditionMet,
            };
        }

        loop {
            if interactions.len() >= cap {
                return SessionResult {
                    sample,
                    query,
                    interactions,
                    halt: HaltReason::MaxInteractions,
                };
            }
            let round_start = Instant::now();

            // (3) choose a node w.r.t. the strategy.
            let proposal = strategy.propose(state.finder(), &sample, &candidates, &mut rng);
            let propose = round_start.elapsed();
            let Proposal::Node { node, k } = proposal else {
                return SessionResult {
                    sample,
                    query,
                    interactions,
                    halt: HaltReason::NoInformativeNodes,
                };
            };

            // (4,5) the user inspects the neighborhood and labels the node.
            let label = oracle.label(node);
            sample.add(node, label);
            if let Ok(at) = candidates.binary_search(&node) {
                candidates.remove(at);
            }

            // (6) relearn from all labels.
            let relearn_start = Instant::now();
            let outcome = learner.learn_with(&mut state, &sample);
            if outcome.query.is_some() {
                query = outcome.query;
            }
            let relearn = relearn_start.elapsed();

            interactions.push(InteractionRecord {
                node,
                label,
                k,
                duration: round_start.elapsed(),
                propose,
                relearn,
            });

            if halt(query.as_ref(), &sample) {
                return SessionResult {
                    sample,
                    query,
                    interactions,
                    halt: HaltReason::ConditionMet,
                };
            }
        }
    }

    /// Runs against a goal query with the paper's strongest halt
    /// condition: stop when the learned query selects **exactly** the
    /// goal's node set (F1 = 1; "the goal query and the learned query are
    /// indistinguishable by the user", §5.3).
    pub fn run_against_goal(&self, goal: &PathQuery) -> SessionResult {
        let goal_selection = goal.eval(self.graph);
        let mut oracle = QueryOracle {
            selected: goal_selection.clone(),
        };
        let graph = self.graph;
        self.run(&mut oracle, move |query, _sample| match query {
            Some(q) => q.eval(graph) == goal_selection,
            None => false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathlearn_graph::graph::figure3_g0;

    #[test]
    fn interactive_learns_paper_query_on_g0() {
        let graph = figure3_g0();
        let goal = PathQuery::parse("(a·b)*·c", graph.alphabet()).unwrap();
        for strategy in [StrategyKind::KRandom, StrategyKind::KSmallest] {
            let session = InteractiveSession::new(
                &graph,
                InteractiveConfig {
                    strategy,
                    ..InteractiveConfig::default()
                },
            );
            let result = session.run_against_goal(&goal);
            assert_eq!(result.halt, HaltReason::ConditionMet, "{strategy}");
            let learned = result.query.as_ref().expect("learned a query");
            assert_eq!(learned.eval(&graph), goal.eval(&graph), "{strategy}");
            // Far fewer labels than nodes are needed… on 7 nodes the bound
            // is trivial, but the loop must terminate within the cap.
            assert!(result.labels_used() <= graph.num_nodes());
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let graph = figure3_g0();
        let goal = PathQuery::parse("a", graph.alphabet()).unwrap();
        let run = |seed: u64| {
            let session = InteractiveSession::new(
                &graph,
                InteractiveConfig {
                    seed,
                    ..InteractiveConfig::default()
                },
            );
            let result = session.run_against_goal(&goal);
            result
                .interactions
                .iter()
                .map(|r| (r.node, r.label))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn epsilon_goal_halts_quickly() {
        // Goal ε selects everything; the first positive label yields ε.
        let graph = figure3_g0();
        let goal = PathQuery::parse("eps", graph.alphabet()).unwrap();
        let session = InteractiveSession::new(&graph, InteractiveConfig::default());
        let result = session.run_against_goal(&goal);
        assert_eq!(result.halt, HaltReason::ConditionMet);
        assert_eq!(result.labels_used(), 1);
    }

    #[test]
    fn max_interactions_cap() {
        let graph = figure3_g0();
        let session = InteractiveSession::new(
            &graph,
            InteractiveConfig {
                max_interactions: 2,
                ..InteractiveConfig::default()
            },
        );
        // Halt condition that never fires.
        let mut oracle =
            QueryOracle::new(&PathQuery::parse("a", graph.alphabet()).unwrap(), &graph);
        let result = session.run(&mut oracle, |_, _| false);
        assert_eq!(result.halt, HaltReason::MaxInteractions);
        assert_eq!(result.labels_used(), 2);
    }

    #[test]
    fn session_stats_populate() {
        let graph = figure3_g0();
        let goal = PathQuery::parse("(a·b)*·c", graph.alphabet()).unwrap();
        let session = InteractiveSession::new(&graph, InteractiveConfig::default());
        let result = session.run_against_goal(&goal);
        assert!(result.label_fraction(&graph) > 0.0);
        assert!(result.mean_interaction_time() > Duration::ZERO);
        assert!(result.interactions.iter().all(|r| r.k >= 2));
    }
}
