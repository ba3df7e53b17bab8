//! Differential suite for the session-scoped state of the §4 loop: what a
//! session *updates* label by label must equal what the one-shot code
//! *rebuilds* from `(G, S)` — no timing, only answers.
//!
//! 1. **session ≡ one-shot**: every interaction of a real
//!    [`InteractiveSession`] — proposed node, `k`, label, learned query —
//!    equals what the free `strategy::propose` and `Learner::learn` return
//!    from the same sample and the same RNG state (the property the
//!    benchmark's `learn_session` trace asserts on its ten sessions);
//! 2. **incremental finder ≡ fresh finder ≡ oracle**: after each added
//!    negative, `scp` / `is_k_informative` / `count_uncovered` of a finder
//!    that has been answering all along agree with a finder built from
//!    scratch, and `scp` with naive enumeration;
//! 3. **graph oracle ≡ NFA oracle**: [`PathsProduct`] gives the verdict of
//!    `dfa_nfa_intersection_is_empty(dfa, &graph.paths_nfa(sources))`,
//!    through one reused instance, on overlay graphs too (whose verdicts
//!    equal their compacted graph's), and for DFAs over fewer symbols
//!    than the graph's alphabet, whose dense tables a foreign symbol
//!    would alias into.

use pathlearn::automata::product::dfa_nfa_intersection_is_empty;
use pathlearn::graph::scp::scp_naive;
use pathlearn::graph::{PathsProduct, ScpFinder};
use pathlearn::interactive::session::{HaltReason, InteractionRecord, QueryOracle};
use pathlearn::interactive::strategy::{propose, Proposal};
use pathlearn::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const LABELS: [&str; 3] = ["a", "b", "c"];

/// Strategy: a random small graph over {a, b, c}.
fn arb_graph() -> impl Strategy<Value = GraphDb> {
    (
        2usize..9,
        proptest::collection::vec((0u32..9, 0usize..3, 0u32..9), 1..22),
    )
        .prop_map(|(n, edges)| {
            let mut builder = GraphBuilder::with_alphabet(Alphabet::from_labels(LABELS));
            for i in 0..n {
                builder.add_node(&format!("n{i}"));
            }
            let n = n as u32;
            for (src, sym, dst) in edges {
                builder.add_edge_ids(src % n, Symbol::from_index(sym), dst % n);
            }
            builder.build()
        })
}

/// Strategy: a random regex over {a, b, c}.
fn arb_regex() -> impl Strategy<Value = Regex> {
    let leaf = (0usize..3).prop_map(|i| Regex::Symbol(Symbol::from_index(i)));
    leaf.prop_recursive(2, 12, 2, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 1..3).prop_map(Regex::concat),
            proptest::collection::vec(inner.clone(), 1..3).prop_map(Regex::alt),
            inner.prop_map(|r| Regex::concat(vec![Regex::star(r.clone()), r])),
        ]
    })
}

/// Strategy: a raw random DFA — partial table, arbitrary finals, possibly
/// a smaller or larger alphabet than the graph's three labels.
fn arb_raw_dfa() -> impl Strategy<Value = Dfa> {
    (
        1usize..6,
        1usize..5,
        proptest::collection::vec((0usize..6, 0usize..5, 0usize..6), 0..24),
        proptest::collection::vec(0usize..6, 0..4),
    )
        .prop_map(|(states, sigma, transitions, finals)| {
            let mut dfa = Dfa::new(states, sigma, 0);
            for (p, sym, q) in transitions {
                dfa.set_transition(
                    (p % states) as u32,
                    Symbol::from_index(sym % sigma),
                    (q % states) as u32,
                );
            }
            for f in finals {
                dfa.set_final((f % states) as u32);
            }
            dfa
        })
}

/// The graph of `strategy::tests::k_escalation_finds_deeper_informative_nodes`:
/// once `n` is negative, `x`'s only uncovered path (`a·a·b`) has length 3.
fn escalation_graph() -> GraphDb {
    let mut builder = GraphBuilder::with_alphabet(Alphabet::from_labels(["a", "b"]));
    builder.add_edge("x", "a", "x1");
    builder.add_edge("x1", "a", "x2");
    builder.add_edge("x2", "b", "x3");
    builder.add_edge("n", "a", "n1");
    builder.add_edge("n1", "a", "n2");
    builder.build()
}

/// Runs a real session against `goal`, then walks the same interactions
/// with the one-shot `propose` + `learn` and asserts they coincide.
fn assert_session_is_one_shot_replay(graph: &GraphDb, goal: &PathQuery, config: InteractiveConfig) {
    let goal_selection = goal.eval(graph);
    let mut oracle = QueryOracle::new(goal, graph);
    // What the session held as "the learned query" after each label.
    let mut learned: Vec<Option<PathQuery>> = Vec::new();
    let mut first_call = true;
    let result = InteractiveSession::new(graph, config).run(&mut oracle, |query, _| {
        if !std::mem::take(&mut first_call) {
            learned.push(query.cloned());
        }
        query.is_some_and(|q| q.eval(graph) == goal_selection)
    });
    assert_eq!(learned.len(), result.interactions.len());

    let learner = Learner::with_config(config.learner);
    let one_shot = |sample: &Sample, rng: &mut StdRng| {
        let candidates: Vec<NodeId> = graph.nodes().filter(|&n| !sample.is_labeled(n)).collect();
        propose(
            config.strategy,
            graph,
            sample,
            &candidates,
            config.k_start,
            config.k_max,
            config.count_cap,
            rng,
        )
    };
    let context = format!("{}, cap {}", config.strategy, config.count_cap);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut sample = Sample::new();
    let mut query: Option<PathQuery> = None;
    for (round, (record, held)) in result.interactions.iter().zip(&learned).enumerate() {
        let &InteractionRecord { node, label, k, .. } = record;
        assert_eq!(
            one_shot(&sample, &mut rng),
            Proposal::Node { node, k },
            "{context}: proposal of round {round}"
        );
        assert_eq!(label, goal_selection.contains(node as usize));
        assert!(record.propose + record.relearn <= record.duration);
        sample.add(node, label);
        if let Some(relearned) = learner.learn(graph, &sample).query {
            query = Some(relearned);
        }
        assert_eq!(held, &query, "{context}: query after round {round}");
    }
    assert_eq!(result.sample, sample, "{context}");
    assert_eq!(result.query, query, "{context}");
    if result.halt == HaltReason::NoInformativeNodes {
        assert_eq!(
            one_shot(&sample, &mut rng),
            Proposal::Exhausted,
            "{context}"
        );
    }
}

/// Every (strategy, cap) combination of the suite on one goal.
fn assert_all_configurations(graph: &GraphDb, goal: &PathQuery, seed: u64) {
    for strategy in [StrategyKind::KRandom, StrategyKind::KSmallest] {
        // A cap of 3 saturates the kS counts on all but the sparsest
        // nodes; 10 000 never does on these graphs.
        for count_cap in [3, 10_000] {
            let config = InteractiveConfig {
                strategy,
                count_cap,
                seed,
                ..InteractiveConfig::default()
            };
            assert_session_is_one_shot_replay(graph, goal, config);
        }
    }
}

#[test]
fn sessions_on_figure3_replay_through_the_one_shot_functions() {
    let graph = pathlearn::graph::graph::figure3_g0();
    for goal in ["(a·b)*·c", "a", "b·a", "(a+b)*·c", "c"] {
        let goal = PathQuery::parse(goal, graph.alphabet()).unwrap();
        for seed in [1, 7, 42] {
            assert_all_configurations(&graph, &goal, seed);
        }
    }
}

#[test]
fn sessions_that_escalate_k_replay_through_the_one_shot_functions() {
    // Once `n` is labeled negative, nothing is 2-informative and the
    // strategies must go to k = 3 for `x` — tables for a new `k` appear
    // mid-session.
    let graph = escalation_graph();
    for goal in ["a·a·b", "a·a", "b"] {
        let goal = PathQuery::parse(goal, graph.alphabet()).unwrap();
        for seed in [3, 5, 11, 42] {
            assert_all_configurations(&graph, &goal, seed);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (i) session ≡ one-shot on random graphs and goals.
    #[test]
    fn random_sessions_replay_through_the_one_shot_functions(
        graph in arb_graph(),
        regex in arb_regex(),
        seed in 0u64..1000,
    ) {
        let goal = PathQuery::from_regex(&regex, graph.alphabet().len());
        assert_all_configurations(&graph, &goal, seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (ii) a finder that answers between `add_negative` calls equals a
    /// fresh one after each of them — and so does one sent there by
    /// `set_negatives` from an unrelated set.
    #[test]
    fn incremental_finder_matches_fresh_finder_and_oracle(
        graph in arb_graph(),
        order in proptest::collection::vec(0u32..9, 1..6),
        saturate in any::<bool>(),
    ) {
        let cap = if saturate { 3 } else { 10_000 };
        let mut negatives: Vec<NodeId> = Vec::new();
        let mut incremental = ScpFinder::new(&graph, &[]);
        let mut jumper = ScpFinder::new(&graph, &[0]);
        for pick in order {
            let node = pick % graph.num_nodes() as u32;
            // Populate the memos under the current negatives first, so
            // the next label has something to invalidate.
            for other in graph.nodes() {
                for k in 0..=4 {
                    incremental.scp(other, k);
                    incremental.count_uncovered(other, k, cap);
                }
            }
            incremental.add_negative(node);
            if !negatives.contains(&node) {
                negatives.push(node);
            }
            let mut sorted = negatives.clone();
            sorted.sort_unstable();
            jumper.set_negatives(&sorted);
            let mut fresh = ScpFinder::new(&graph, &negatives);
            for other in graph.nodes() {
                for k in 0..=4 {
                    let expected = fresh.scp(other, k);
                    prop_assert_eq!(&incremental.scp(other, k), &expected, "node {} k {}", other, k);
                    prop_assert_eq!(&jumper.scp(other, k), &expected);
                    prop_assert_eq!(&scp_naive(&graph, other, &negatives, k), &expected);
                    prop_assert_eq!(incremental.is_k_informative(other, k), expected.is_some());
                    let count = fresh.count_uncovered(other, k, cap);
                    prop_assert_eq!(incremental.count_uncovered(other, k, cap), count, "node {} k {}", other, k);
                    prop_assert_eq!(jumper.count_uncovered(other, k, cap), count);
                }
            }
            // A detour through an unrelated set and back must rebuild.
            jumper.set_negatives(&[node]);
        }
    }

    /// (iii) the graph-native merge oracle gives the NFA oracle's verdict,
    /// one instance across DFAs of different sizes and alphabets.
    #[test]
    fn graph_oracle_matches_nfa_oracle(
        graph in arb_graph(),
        dfas in proptest::collection::vec(arb_raw_dfa(), 1..6),
        picks in proptest::collection::vec(0u32..9, 0..4),
        added in proptest::collection::vec((0u32..9, 0usize..3, 0u32..9), 0..6),
        removed in proptest::collection::vec((0u32..9, 0usize..3, 0u32..9), 0..6),
    ) {
        let n = graph.num_nodes() as u32;
        let edge = |(src, sym, dst): (u32, usize, u32)| (src % n, Symbol::from_index(sym), dst % n);
        let add: Vec<_> = added.into_iter().map(edge).collect();
        let remove: Vec<_> = removed.into_iter().map(edge).collect();
        let overlay = graph.with_delta(&add, &remove).unwrap();
        let compacted = overlay.compact();
        let sources: Vec<NodeId> = picks.into_iter().map(|p| p % n).collect();
        let zero_states = Dfa::new(0, 3, 0);
        // Every DFA again over one and two symbols: the graph's third
        // label (and second) lies beyond their dense tables, the shape
        // where a stepped foreign symbol aliases into the next state's row.
        let short: Vec<Dfa> = dfas
            .iter()
            .flat_map(|dfa| [truncated(dfa, 1), truncated(dfa, 2)])
            .collect();
        let all: Vec<&Dfa> = dfas.iter().chain(&short).chain([&zero_states]).collect();
        let mut verdicts = Vec::new();
        for graph in [&graph, &overlay, &compacted] {
            let mut product = PathsProduct::new(graph, &[]);
            let mut seen = Vec::new();
            for sources in [&sources[..], &[]] {
                product.set_sources(sources);
                let paths = graph.paths_nfa(sources);
                for &dfa in &all {
                    let disjoint = product.is_disjoint(dfa);
                    prop_assert_eq!(
                        disjoint,
                        dfa_nfa_intersection_is_empty(dfa, &paths),
                        "sources {:?}, dfa {:?}", sources, dfa
                    );
                    seen.push(disjoint);
                }
            }
            verdicts.push(seen);
        }
        // The overlay's per-symbol walk merges its delta: same verdicts
        // as the graph it compacts to.
        prop_assert_eq!(&verdicts[1], &verdicts[2]);
    }
}

/// `dfa` restricted to its first `sigma` symbols: same states, initial
/// state and finals, transitions on the dropped symbols deleted.
fn truncated(dfa: &Dfa, sigma: usize) -> Dfa {
    let mut short = Dfa::new(dfa.num_states(), sigma, dfa.initial());
    for (from, sym, to) in dfa.transitions() {
        if sym.index() < sigma {
            short.set_transition(from, sym, to);
        }
    }
    for state in dfa.finals().iter() {
        short.set_final(state as u32);
    }
    short
}

/// The aliasing shape, pinned: a one-symbol DFA whose initial state has
/// no transition, while `δ(1, a)` reaches a final state. The table is
/// `[DEAD, 2, DEAD]`, so stepping state 0 on the graph's `b` (index 1)
/// would read state 1's `a`-entry and report a non-empty intersection,
/// though `L(dfa)` is empty. The source `v1` has a base `b`-edge
/// (`v1 → v7`); the overlay gives it a second one, walked through the
/// merged cell.
#[test]
fn graph_oracle_never_steps_symbols_beyond_the_dfa_alphabet() {
    let graph = pathlearn::graph::graph::figure3_g0();
    let (a, b) = (Symbol::from_index(0), Symbol::from_index(1));
    let mut dfa = Dfa::new(3, 1, 0);
    dfa.set_transition(1, a, 2);
    dfa.set_final(2);
    let (v1, v6) = (graph.node_id("v1").unwrap(), graph.node_id("v6").unwrap());
    let overlay = graph.with_delta(&[(v1, b, v6)], &[]).unwrap();
    for graph in [&graph, &overlay] {
        let mut product = PathsProduct::new(graph, &[v1]);
        assert!(product.is_disjoint(&dfa));
        assert!(dfa_nfa_intersection_is_empty(&dfa, &graph.paths_nfa(&[v1])));
    }
}
