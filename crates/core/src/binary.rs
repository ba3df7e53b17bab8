//! Algorithms 2 and 3 — binary and n-ary semantics (paper Appendix B).
//!
//! **Algorithm 2** (`learner2`) is Algorithm 1 with `paths2_G` in place of
//! `paths_G`: each positive example is a node *pair*, which shrinks the
//! candidate-path space (the destination is fixed). **Algorithm 3**
//! (`learnern`) learns one binary query per consecutive tuple position and
//! combines them; Corollary B.1 transfers the learnability guarantee with
//! `k = 2·s+1` where `s` bounds the per-position query size.

use crate::query::PathQuery;
use crate::sample::{Sample2, SampleN};
use pathlearn_automata::rpni::{generalize, MergeOracle};
use pathlearn_automata::{Dfa, Word};
use pathlearn_graph::binary::scp2;
use pathlearn_graph::eval::selects_pair;
use pathlearn_graph::{CancelToken, EvalPool, EvalScratch, Goal, GraphDb, NodeId, QueryPlan};

use crate::learner::KPolicy;

/// Configuration of [`learner2`]/[`learnern`]; mirrors
/// [`crate::LearnerConfig`].
#[derive(Clone, Copy, Debug)]
pub struct BinaryLearnerConfig {
    /// SCP length bound policy.
    pub k: KPolicy,
}

impl Default for BinaryLearnerConfig {
    fn default() -> Self {
        BinaryLearnerConfig {
            k: KPolicy::Dynamic { start: 2, max: 8 },
        }
    }
}

/// An n-ary path query: one regular expression per consecutive position
/// (Appendix B), selecting tuples `(ν₁,…,νₙ)` with
/// `paths2(νᵢ, νᵢ₊₁) ∩ L(qᵢ) ≠ ∅` for all `i`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NAryQuery {
    /// Per-position binary queries `q₁ … q_{n-1}`.
    pub components: Vec<PathQuery>,
}

impl NAryQuery {
    /// The tuple arity `n` (= number of components + 1).
    pub fn arity(&self) -> usize {
        self.components.len() + 1
    }

    /// Whether the query selects a tuple.
    pub fn selects_tuple(&self, graph: &GraphDb, tuple: &[NodeId]) -> bool {
        assert_eq!(tuple.len(), self.arity(), "tuple arity mismatch");
        self.components
            .iter()
            .zip(tuple.windows(2))
            .all(|(q, pair)| selects_pair(q.dfa(), graph, pair[0], pair[1]))
    }
}

/// Merge oracle for Algorithm 2: consistent iff the candidate's language
/// avoids `paths2_G(S⁻)`, i.e. the candidate — as a binary query —
/// selects no negative pair. One product search per pair on the graph
/// itself, through one reused scratch.
struct PairNegativesOracle<'a> {
    graph: &'a GraphDb,
    negatives: &'a [(NodeId, NodeId)],
    scratch: EvalScratch,
}

impl MergeOracle for PairNegativesOracle<'_> {
    fn is_consistent(&mut self, candidate: &Dfa) -> bool {
        let plan = QueryPlan::forward(candidate);
        let (pool, never) = (EvalPool::sequential(), CancelToken::never());
        self.negatives.iter().all(|&(source, target)| {
            let ends = pool
                .evaluate(
                    &mut self.scratch,
                    &plan,
                    self.graph,
                    Goal::BinaryFrom(source),
                    &never,
                )
                .expect("a never-token evaluation is not interrupted");
            !ends.contains(target as usize)
        })
    }
}

/// Algorithm 2 — learns a binary path query from pair examples.
///
/// Returns `None` (the paper's `null`) when no consistent query can be
/// built from binary SCPs of length ≤ k.
pub fn learner2(
    graph: &GraphDb,
    sample: &Sample2,
    config: &BinaryLearnerConfig,
) -> Option<PathQuery> {
    let ks = match config.k {
        KPolicy::Fixed(k) => vec![k],
        KPolicy::Dynamic { start, max } => (start..=max).collect(),
    };
    for k in ks {
        if let Some(query) = attempt2(graph, sample, k) {
            return Some(query);
        }
    }
    None
}

fn attempt2(graph: &GraphDb, sample: &Sample2, k: usize) -> Option<PathQuery> {
    // Lines 1–2: binary SCPs.
    let mut scps: Vec<Word> = Vec::new();
    for &(source, target) in sample.pos() {
        if let Some(path) = scp2(graph, source, target, sample.neg(), k) {
            scps.push(path);
        }
    }

    // Line 3: PTA; lines 4–5: generalization against paths2(S⁻).
    let pta = pathlearn_automata::pta::build_pta(&scps, graph.alphabet().len());
    let mut oracle = PairNegativesOracle {
        graph,
        negatives: sample.neg(),
        scratch: EvalScratch::new(),
    };
    debug_assert!(oracle.is_consistent(&pta));
    let generalized = generalize(&pta, &mut oracle);

    // Line 6: every positive pair must be selected.
    let all_selected = sample
        .pos()
        .iter()
        .all(|&(s, t)| selects_pair(&generalized, graph, s, t));
    if !all_selected {
        return None;
    }
    // Binary queries are NOT normalized to prefix-free form: with a fixed
    // destination, a·b and a are inequivalent as binary queries.
    Some(PathQuery::from_dfa(&generalized))
}

/// Algorithm 3 — learns an n-ary query by learning one binary query per
/// consecutive position and combining them. Returns `None` if any
/// position's `learner2` abstains.
pub fn learnern(
    graph: &GraphDb,
    sample: &SampleN,
    config: &BinaryLearnerConfig,
) -> Option<NAryQuery> {
    let mut components = Vec::with_capacity(sample.arity() - 1);
    for i in 0..sample.arity() - 1 {
        let projected = sample.project(i);
        components.push(learner2(graph, &projected, config)?);
    }
    Some(NAryQuery { components })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathlearn_graph::graph::figure3_g0;

    #[test]
    fn learner2_learns_pair_query_on_g0() {
        let graph = figure3_g0();
        let v1 = graph.node_id("v1").unwrap();
        let v3 = graph.node_id("v3").unwrap();
        let v4 = graph.node_id("v4").unwrap();
        let v5 = graph.node_id("v5").unwrap();
        // Positive: (v3, v4) — connected by c (among others).
        // Negative: (v5, v4) — connected by a and b only.
        let sample = Sample2::new().positive(v3, v4).negative(v5, v4);
        let query = learner2(&graph, &sample, &BinaryLearnerConfig::default())
            .expect("consistent binary query");
        assert!(selects_pair(query.dfa(), &graph, v3, v4));
        assert!(!selects_pair(query.dfa(), &graph, v5, v4));
        // v1→v4 via a·a·c / a·b·c is selected by (generalizations of) c?
        // Not necessarily — but the learned query must stay consistent.
        let _ = v1;
    }

    #[test]
    fn learner2_soundness_on_random_pairs() {
        let graph = figure3_g0();
        let goal = PathQuery::parse("(a·b)*·c", graph.alphabet()).unwrap();
        let mut sample = Sample2::new();
        let nodes: Vec<NodeId> = graph.nodes().collect();
        for &s in &nodes {
            for &t in nodes.iter().take(4) {
                sample.add(s, t, selects_pair(goal.dfa(), &graph, s, t));
            }
        }
        if let Some(query) = learner2(&graph, &sample, &BinaryLearnerConfig::default()) {
            for &(s, t) in sample.pos() {
                assert!(selects_pair(query.dfa(), &graph, s, t));
            }
            for &(s, t) in sample.neg() {
                assert!(!selects_pair(query.dfa(), &graph, s, t));
            }
        }
    }

    #[test]
    fn learner2_abstains_on_inconsistent_pairs() {
        let graph = figure3_g0();
        let v5 = graph.node_id("v5").unwrap();
        let v4 = graph.node_id("v4").unwrap();
        // (v5,v4) positive but also every covering path negative via the
        // same pair… make it trivially inconsistent: positive (v5,v4) and
        // negatives covering both its paths a and b: the pair (v5, v4)
        // itself as negative is contradictory, so use two pairs that
        // jointly cover {a, b}: (v5, v4) paths are exactly {a, b}; the
        // pair (v6→v5? ) … simplest: negatives (v6, v5) covers a (v6-a,
        // also …) and (v6, v7) covers b.
        let v6 = graph.node_id("v6").unwrap();
        let v7 = graph.node_id("v7").unwrap();
        let sample = Sample2::new()
            .positive(v5, v4)
            .negative(v6, v5)
            .negative(v6, v7);
        // paths2(v6,v5) ⊇ {a}; paths2(v6,v7) ⊇ {b}: all of (v5,v4)'s
        // length-1 paths covered; longer paths from v5 to v4 don't exist.
        let result = learner2(&graph, &sample, &BinaryLearnerConfig::default());
        assert!(result.is_none());
    }

    #[test]
    fn learnern_combines_positions() {
        let graph = figure3_g0();
        let v1 = graph.node_id("v1").unwrap();
        let v2 = graph.node_id("v2").unwrap();
        let v3 = graph.node_id("v3").unwrap();
        let v4 = graph.node_id("v4").unwrap();
        let v5 = graph.node_id("v5").unwrap();
        let mut sample = SampleN::new(3);
        // v1 -a→ v2 -b→ v3: positive; (v5, v4, v1): negative (no v4→v1).
        sample.add(vec![v1, v2, v3], true);
        sample.add(vec![v5, v4, v1], false);
        let query =
            learnern(&graph, &sample, &BinaryLearnerConfig::default()).expect("n-ary query");
        assert_eq!(query.arity(), 3);
        assert!(query.selects_tuple(&graph, &[v1, v2, v3]));
        assert!(!query.selects_tuple(&graph, &[v5, v4, v1]));
    }

    proptest::proptest! {
        /// The merge oracle against the verdict it replaced — emptiness
        /// of `L(A) ∩ paths2_G(s, t)` per negative pair over the
        /// `paths2_nfa` automaton — on random graphs, raw candidate
        /// DFAs (ε-accepting ones included) and pair sets with `(s, s)`
        /// pairs.
        #[test]
        fn pair_oracle_agrees_with_the_paths2_nfa_reference(
            n in 1u32..7,
            edges in proptest::collection::vec((0u32..7, 0usize..3, 0u32..7), 0..16),
            states in 1usize..5,
            transitions in proptest::collection::vec((0usize..5, 0usize..3, 0usize..5), 0..12),
            finals in proptest::collection::vec(0usize..5, 0..4),
            pairs in proptest::collection::vec((0u32..7, 0u32..7), 0..5),
        ) {
            use pathlearn_automata::product::dfa_nfa_intersection_is_empty;
            use pathlearn_automata::{Alphabet, StateId, Symbol};
            use pathlearn_graph::binary::paths2_nfa;
            use pathlearn_graph::GraphBuilder;

            let mut builder = GraphBuilder::with_alphabet(Alphabet::from_labels(["a", "b", "c"]));
            builder.add_nodes("n", n as usize);
            for (src, sym, dst) in edges {
                builder.add_edge_ids(src % n, Symbol::from_index(sym), dst % n);
            }
            let graph = builder.build();
            let mut candidate = Dfa::new(states, 3, 0);
            for (p, sym, q) in transitions {
                candidate.set_transition(
                    (p % states) as StateId,
                    Symbol::from_index(sym),
                    (q % states) as StateId,
                );
            }
            for f in finals {
                candidate.set_final((f % states) as StateId);
            }
            let negatives: Vec<(NodeId, NodeId)> =
                pairs.into_iter().map(|(s, t)| (s % n, t % n)).collect();

            let reference = negatives.iter().all(|&(s, t)| {
                dfa_nfa_intersection_is_empty(&candidate, &paths2_nfa(&graph, s, t))
            });
            let mut oracle = PairNegativesOracle {
                graph: &graph,
                negatives: &negatives,
                scratch: EvalScratch::new(),
            };
            proptest::prop_assert_eq!(oracle.is_consistent(&candidate), reference);
        }
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn nary_selects_checks_arity() {
        let graph = figure3_g0();
        let query = NAryQuery {
            components: vec![PathQuery::parse("a", graph.alphabet()).unwrap()],
        };
        let _ = query.selects_tuple(&graph, &[0, 1, 2]);
    }
}
