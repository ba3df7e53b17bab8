//! Algorithm 1 — the `learner` (paper §3.2).
//!
//! ```text
//! Input:  graph G, sample S          Parameter: k (max SCP length)
//! Output: query q consistent with S, or null
//! 1: for ν ∈ S⁺ with ∃p ∈ Σ≤k. p ∈ paths_G(ν) \ paths_G(S⁻) do
//! 2:     P := P ∪ { min≤ (paths_G(ν) \ paths_G(S⁻)) }
//! 3: let A be the prefix tree acceptor for P
//! 4: while ∃s,s' ∈ A. L(A_{s'→s}) ∩ paths_G(S⁻) = ∅ do
//! 5:     A := A_{s'→s}
//! 6: if ∀ν ∈ S⁺. L(A) ∩ paths_G(ν) ≠ ∅ then
//! 7:     return query q represented by the DFA A
//! 8: return null
//! ```
//!
//! Lines 1–2 are the SCP search of [`pathlearn_graph::scp`]; line 3 is
//! [`pathlearn_automata::pta`]; lines 4–5 are RPNI red-blue merging with
//! the *graph* oracle (`L(candidate) ∩ paths_G(S⁻) = ∅`, a product
//! search over the graph's own adjacency from `{q₀} × S⁻` —
//! [`PathsProduct`], no NFA copy of the graph is built); line 6 is one
//! monadic evaluation.
//!
//! Everything a run builds that outlives one `k` attempt — the SCP
//! finder, the oracle's buffers, the evaluation scratch — lives in a
//! [`LearnState`]. [`Learner::learn`] makes a fresh one per call; a
//! session whose sample grows by one label at a time keeps one and calls
//! [`Learner::learn_with`], so a new label costs one label's worth of
//! work (see [`ScpFinder::add_negative`]). Same code, same outcome.
//!
//! The `k` parameter follows §5.1: *"we start with k = 2; if for a given
//! k, the query learned using SCPs shorter than k does not select all
//! positive nodes, we increment k and iterate"* — [`KPolicy::Dynamic`].
//! Theorem 3.5 uses [`KPolicy::Fixed`] with `k = 2n+1`.
//!
//! A run is single-threaded, like the paper's Algorithm 1: the SCPs are
//! searched one positive node at a time and the line-6 check is one
//! evaluation on the caller's thread.

use crate::query::PathQuery;
use crate::sample::Sample;
use pathlearn_automata::rpni::{generalize, MergeOracle};
use pathlearn_automata::Word;
use pathlearn_graph::{
    CancelToken, EvalPool, EvalScratch, Goal, GraphDb, NodeId, PathsProduct, QueryPlan, ScpFinder,
};
use std::time::{Duration, Instant};

/// Policy for the SCP length bound `k`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KPolicy {
    /// A fixed bound, as in the formal Algorithm 1 and Theorem 3.5.
    Fixed(usize),
    /// §5.1's empirical escalation: try `start`, grow by one while the
    /// learned query misses positives, up to `max` inclusive.
    Dynamic {
        /// Initial bound (the paper starts at 2).
        start: usize,
        /// Maximum bound (the paper observes values up to 4 in practice).
        max: usize,
    },
}

impl KPolicy {
    fn candidates(self) -> Vec<usize> {
        match self {
            KPolicy::Fixed(k) => vec![k],
            KPolicy::Dynamic { start, max } => (start..=max).collect(),
        }
    }
}

/// Configuration of [`Learner`].
#[derive(Clone, Copy, Debug)]
pub struct LearnerConfig {
    /// SCP length bound policy. Default: `Dynamic { start: 2, max: 5 }` —
    /// the paper observes k between 2 and 4 in practice (§3.3, §5.1).
    pub k: KPolicy,
    /// Normalize the output to its prefix-free form (§2). The prefix-free
    /// transform never breaks consistency: it shrinks the language while
    /// keeping, for every selected node, its minimal accepted path.
    /// Default: `true`.
    pub prefix_free_output: bool,
}

impl Default for LearnerConfig {
    fn default() -> Self {
        LearnerConfig {
            k: KPolicy::Dynamic { start: 2, max: 5 },
            prefix_free_output: true,
        }
    }
}

/// The learning algorithm (Algorithm 1) with its configuration.
///
/// ```
/// use pathlearn_core::{Learner, PathQuery, Sample};
/// use pathlearn_graph::graph::figure3_g0;
///
/// // The paper's worked example (§3.2) on the Figure 3 graph G0.
/// let graph = figure3_g0();
/// let sample = Sample::new()
///     .positive(graph.node_id("v1").unwrap())
///     .positive(graph.node_id("v3").unwrap())
///     .negative(graph.node_id("v2").unwrap())
///     .negative(graph.node_id("v7").unwrap());
/// let outcome = Learner::with_fixed_k(3).learn(&graph, &sample);
/// let learned = outcome.query.expect("sample is consistent");
/// let target = PathQuery::parse("(a·b)*·c", graph.alphabet()).unwrap();
/// assert!(learned.equivalent_language(&target));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Learner {
    /// Configuration used by [`Learner::learn`].
    pub config: LearnerConfig,
}

/// Statistics reported alongside a learning run.
#[derive(Clone, Debug, Default)]
pub struct LearnStats {
    /// The largest `k` attempted.
    pub k_used: usize,
    /// The SCPs selected per positive node on the successful attempt.
    pub scps: Vec<(NodeId, Word)>,
    /// Positive nodes for which no SCP of length ≤ k exists (they must be
    /// re-covered by the generalization or the run abstains).
    pub nodes_without_scp: Vec<NodeId>,
    /// PTA size before generalization.
    pub pta_states: usize,
    /// Automaton size after generalization.
    pub generalized_states: usize,
    /// Wall-clock duration of the whole `learn` call.
    pub duration: Duration,
}

/// Result of a learning run: the learned query, or `None` for the paper's
/// `null` ("not enough examples / abstain"), plus statistics.
#[derive(Clone, Debug)]
pub struct LearnOutcome {
    /// The learned consistent query, if one was constructed.
    pub query: Option<PathQuery>,
    /// Run statistics.
    pub stats: LearnStats,
}

/// What [`Learner::learn_with`] keeps between calls on one graph: the
/// SCP finder with its memos, the merge oracle's buffers and the line-6
/// evaluation scratch. Handing the next call a sample that grew by one
/// label updates the finder in place; any other sample makes it
/// rebuild. Either way the outcome is the
/// one a fresh state gives.
pub struct LearnState<'g> {
    graph: &'g GraphDb,
    /// The SCP finder, shared with the node-proposal strategy.
    finder: ScpFinder<'g>,
    /// Merge oracle for Algorithm 1 line 4: a candidate is consistent
    /// iff its language does not intersect `paths_G(S⁻)`.
    oracle: PathsProduct<'g>,
    /// One line-6 evaluation scratch: attempts across `k` and calls
    /// share the buffers, so only the first evaluation allocates.
    eval_scratch: EvalScratch,
}

impl<'g> LearnState<'g> {
    /// Fresh state on `graph`: nothing learned, nothing labeled yet.
    pub fn new(graph: &'g GraphDb) -> Self {
        LearnState {
            graph,
            finder: ScpFinder::new(graph, &[]),
            oracle: PathsProduct::new(graph, &[]),
            eval_scratch: EvalScratch::new(),
        }
    }

    /// The finder a node-proposal strategy shares with the relearning,
    /// so that neither redoes the other's negative-side work.
    pub fn finder(&mut self) -> &mut ScpFinder<'g> {
        &mut self.finder
    }
}

impl Learner {
    /// Creates a learner with an explicit configuration.
    pub fn with_config(config: LearnerConfig) -> Self {
        Learner { config }
    }

    /// Creates a learner with a fixed `k` (formal Algorithm 1).
    pub fn with_fixed_k(k: usize) -> Self {
        Self::with_config(LearnerConfig {
            k: KPolicy::Fixed(k),
            ..LearnerConfig::default()
        })
    }

    /// Runs Algorithm 1 on `(graph, sample)`.
    ///
    /// Sound with abstain (Definition 3.4): any returned query is
    /// consistent with the sample; `None` means no consistent query could
    /// be built from SCPs of length ≤ k.
    pub fn learn(&self, graph: &GraphDb, sample: &Sample) -> LearnOutcome {
        self.learn_with(&mut LearnState::new(graph), sample)
    }

    /// [`Learner::learn`] on the graph of `state`, reusing what earlier
    /// calls left there. The outcome does not depend on the state's
    /// history — only how long it takes does.
    pub fn learn_with(&self, state: &mut LearnState<'_>, sample: &Sample) -> LearnOutcome {
        let start_time = Instant::now();
        let mut stats = LearnStats::default();

        // The negative-side determinization caches depend only on S⁻, so
        // they are shared across all k attempts (and across the positives
        // within each attempt).
        state.finder.set_negatives(sample.neg());
        state.oracle.set_sources(sample.neg());
        for k in self.config.k.candidates() {
            stats.k_used = k;
            if let Some(query) = self.attempt(state, sample, k, &mut stats) {
                stats.duration = start_time.elapsed();
                return LearnOutcome {
                    query: Some(query),
                    stats,
                };
            }
        }
        stats.duration = start_time.elapsed();
        LearnOutcome { query: None, stats }
    }

    /// One attempt with a fixed `k`; returns the query on success.
    fn attempt(
        &self,
        state: &mut LearnState<'_>,
        sample: &Sample,
        k: usize,
        stats: &mut LearnStats,
    ) -> Option<PathQuery> {
        let graph = state.graph;
        // Lines 1–2: select SCPs against the shared negative-side caches.
        let mut scps: Vec<Word> = Vec::new();
        stats.scps.clear();
        stats.nodes_without_scp.clear();
        for &node in sample.pos() {
            match state.finder.scp(node, k) {
                Some(path) => {
                    stats.scps.push((node, path.clone()));
                    scps.push(path);
                }
                None => stats.nodes_without_scp.push(node),
            }
        }

        // Line 3: prefix tree acceptor of P.
        let pta = pathlearn_automata::pta::build_pta(&scps, graph.alphabet().len());
        stats.pta_states = pta.num_states();

        // Lines 4–5: generalize by state merging while no negative path is
        // accepted.
        debug_assert!(
            state.oracle.is_consistent(&pta),
            "PTA of SCPs must be consistent by construction"
        );
        let generalized = generalize(&pta, &mut state.oracle);
        stats.generalized_states = generalized.num_states();

        // Line 6: does the query select every positive node? One whole-
        // graph monadic evaluation of the candidate as given: a forward
        // plan, no planning pass.
        let selected = EvalPool::default()
            .evaluate(
                &mut state.eval_scratch,
                &QueryPlan::forward(&generalized),
                graph,
                Goal::Monadic,
                &CancelToken::never(),
            )
            .expect("a never-token evaluation is not interrupted");
        if sample
            .pos()
            .iter()
            .any(|&node| !selected.contains(node as usize))
        {
            return None;
        }

        let query = if self.config.prefix_free_output {
            PathQuery::from_dfa(&generalized.make_prefix_free())
        } else {
            PathQuery::from_dfa(&generalized)
        };
        debug_assert!(
            is_consistent_with(&query, graph, sample),
            "learner must be sound: returned query is consistent"
        );
        Some(query)
    }
}

/// Checks that `query` is consistent with `sample` on `graph` (selects all
/// positives, no negatives) — the soundness condition of Definition 3.4.
pub fn is_consistent_with(query: &PathQuery, graph: &GraphDb, sample: &Sample) -> bool {
    let selected = query.eval(graph);
    sample.pos().iter().all(|&n| selected.contains(n as usize))
        && sample.neg().iter().all(|&n| !selected.contains(n as usize))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathlearn_automata::Alphabet;
    use pathlearn_graph::graph::figure3_g0;
    use pathlearn_graph::{GraphBuilder, StepPolicy};

    fn g0_sample(graph: &GraphDb) -> Sample {
        Sample::new()
            .positive(graph.node_id("v1").unwrap())
            .positive(graph.node_id("v3").unwrap())
            .negative(graph.node_id("v2").unwrap())
            .negative(graph.node_id("v7").unwrap())
    }

    #[test]
    fn step_policy_does_not_change_the_learned_query() {
        // The line-6 check runs under the default step policy; every
        // policy must reach its verdict — the learned query selects
        // every positive and no negative — with the same node set.
        let graph = figure3_g0();
        let sample = g0_sample(&graph);
        let query = Learner::with_fixed_k(3)
            .learn(&graph, &sample)
            .query
            .expect("consistent query exists");
        let expected = query.eval(&graph);
        for policy in StepPolicy::ALL {
            let selected = EvalPool::sequential()
                .with_step_policy(policy)
                .eval_monadic(query.dfa(), &graph);
            assert_eq!(selected, expected, "{policy:?}");
            assert!(sample.pos().iter().all(|&n| selected.contains(n as usize)));
            assert!(sample.neg().iter().all(|&n| !selected.contains(n as usize)));
        }
    }

    #[test]
    fn paper_worked_example_learns_ab_star_c() {
        // §3.2 end-to-end: SCPs {abc, c} → PTA (Figure 6a) → merges →
        // (a·b)*·c (Figure 6b).
        let graph = figure3_g0();
        let sample = g0_sample(&graph);
        let outcome = Learner::with_fixed_k(3).learn(&graph, &sample);
        let query = outcome.query.expect("consistent query exists");
        let target = PathQuery::parse("(a·b)*·c", graph.alphabet()).unwrap();
        assert!(
            query.equivalent_language(&target),
            "learned {}",
            query.display(graph.alphabet())
        );
        // Stats reflect the run: two SCPs, PTA of {abc, c} has 5 states.
        assert_eq!(outcome.stats.scps.len(), 2);
        assert_eq!(outcome.stats.pta_states, 5);
        assert_eq!(outcome.stats.generalized_states, 3);
        assert!(outcome.stats.nodes_without_scp.is_empty());
    }

    #[test]
    fn dynamic_k_escalates_from_two() {
        // ν1's SCP needs k=3; the dynamic policy finds it.
        let graph = figure3_g0();
        let sample = g0_sample(&graph);
        let learner = Learner::with_config(LearnerConfig {
            k: KPolicy::Dynamic { start: 2, max: 4 },
            prefix_free_output: true,
        });
        let outcome = learner.learn(&graph, &sample);
        assert!(outcome.query.is_some());
        assert_eq!(outcome.stats.k_used, 3);
    }

    #[test]
    fn k_too_small_abstains() {
        let graph = figure3_g0();
        let sample = g0_sample(&graph);
        let outcome = Learner::with_fixed_k(2).learn(&graph, &sample);
        // With k=2 the SCP abc of ν1 is invisible; generalizing {c} gives
        // the query c, which does not select ν1 → abstain (null).
        assert!(outcome.query.is_none());
        assert_eq!(outcome.stats.nodes_without_scp.len(), 1);
    }

    #[test]
    fn inconsistent_sample_abstains() {
        // Figure 5: positive node all of whose paths are covered.
        let mut builder = GraphBuilder::with_alphabet(Alphabet::from_labels(["a", "b"]));
        builder.add_edge("p", "a", "p2");
        builder.add_edge("p2", "b", "p2");
        builder.add_edge("n1", "a", "n1b");
        builder.add_edge("n1b", "b", "n1b");
        builder.add_node("n2");
        let graph = builder.build();
        let sample = Sample::new()
            .positive(graph.node_id("p").unwrap())
            .negative(graph.node_id("n1").unwrap())
            .negative(graph.node_id("n2").unwrap());
        let outcome = Learner::default().learn(&graph, &sample);
        assert!(outcome.query.is_none());
    }

    #[test]
    fn empty_sample_learns_empty_query() {
        let graph = figure3_g0();
        let outcome = Learner::default().learn(&graph, &Sample::new());
        let query = outcome.query.expect("vacuously consistent");
        assert!(query.eval(&graph).is_empty());
    }

    #[test]
    fn no_negatives_learns_epsilon() {
        // With S⁻ = ∅ every SCP is ε and the learned query selects all.
        let graph = figure3_g0();
        let sample = Sample::new().positive(graph.node_id("v5").unwrap());
        let outcome = Learner::default().learn(&graph, &sample);
        let query = outcome.query.unwrap();
        assert_eq!(query.eval(&graph).len(), graph.num_nodes());
    }

    #[test]
    fn figure8_learns_equivalent_query() {
        // §3.3: on a non-characteristic graph the learner returns a query
        // equivalent on the graph (indistinguishable by the user). Graph:
        // + --a--> + --b--> (-) … target (a·b)*·c has no c-edge anywhere;
        // Figure 8: nodes labeled for goal (a·b)*·c, learner returns `a`.
        let mut builder = GraphBuilder::with_alphabet(Alphabet::from_labels(["a", "b", "c"]));
        builder.add_edge("x1", "a", "x2");
        builder.add_edge("x2", "b", "x1");
        builder.add_edge("x1", "c", "x3");
        builder.add_edge("x2", "a", "x4");
        let graph = builder.build();
        let goal = PathQuery::parse("(a·b)*·c", graph.alphabet()).unwrap();
        let selected = goal.eval(&graph);
        let mut sample = Sample::new();
        for node in graph.nodes() {
            sample.add(node, selected.contains(node as usize));
        }
        let outcome = Learner::default().learn(&graph, &sample);
        let learned = outcome.query.expect("consistent");
        // Equivalent on this graph even if not language-equal.
        assert_eq!(learned.eval(&graph), selected);
    }

    #[test]
    fn soundness_on_random_samples() {
        // Whatever the learner returns must be consistent (Definition 3.4
        // soundness); abstention is also legal.
        let graph = figure3_g0();
        let goal = PathQuery::parse("(a+b)*·c", graph.alphabet()).unwrap();
        let selected = goal.eval(&graph);
        let mut sample = Sample::new();
        for node in graph.nodes() {
            sample.add(node, selected.contains(node as usize));
        }
        let outcome = Learner::default().learn(&graph, &sample);
        if let Some(query) = outcome.query {
            assert!(is_consistent_with(&query, &graph, &sample));
        }
    }

    #[test]
    fn prefix_free_output_is_prefix_free() {
        let graph = figure3_g0();
        let sample = g0_sample(&graph);
        let outcome = Learner::default().learn(&graph, &sample);
        assert!(outcome.query.unwrap().is_prefix_free());
    }

    #[test]
    fn stats_duration_is_populated() {
        let graph = figure3_g0();
        let outcome = Learner::default().learn(&graph, &g0_sample(&graph));
        assert!(outcome.stats.duration.as_nanos() > 0);
    }
}
