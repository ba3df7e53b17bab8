//! Strategy-matrix differential suite for the whole-query planner.
//!
//! The planner ([`pathlearn_graph::plan`]) chooses between two binary
//! engines — Forward (the plain product BFS) and Backward (the
//! coreach-pruned pass) — or resolves the choice itself under Auto;
//! monadic evaluation has one
//! engine whatever the plan says. The contract is absolute: **every
//! strategy is bit-identical to plain forward evaluation** (and,
//! monadically, to the queued oracle), for both goals (monadic, binary),
//! under every step-kernel policy, with and without a cancel token in
//! play. This suite is the matrix: random graph × random query
//! (regex-derived and raw DFAs with dead/unreachable states and padded
//! alphabets) × all three forced strategies × both step policies — small
//! graphs for breadth, multi-word graphs (≥ 200 nodes) so the
//! certificate-pruned Backward pass runs many levels
//! over several frontier words — plus constructed asymmetric graphs pinning
//! that Auto actually picks the expected direction on the shapes the
//! estimate exists for (hub-fanout sources, rare-label targets).

use pathlearn_automata::{Alphabet, BitSet, Dfa, Regex, Symbol};
use pathlearn_graph::eval::{
    eval_binary_from, eval_monadic, eval_monadic_queued, EvalScratch, Goal,
};
use pathlearn_graph::plan::{plan_query, plan_query_forced};
use pathlearn_graph::Strategy as EvalStrategy;
use pathlearn_graph::{
    collect_levels, CancelToken, EvalPool, GraphBuilder, GraphDb, Interrupt, QueryPlan, StepPolicy,
};
use proptest::prelude::*;

const LABELS: [&str; 3] = ["a", "b", "c"];

/// Every evaluation handle of the matrix, labelled: one per step-kernel
/// policy.
fn pool_matrix() -> Vec<(String, EvalPool)> {
    StepPolicy::ALL
        .into_iter()
        .map(|policy| {
            let pool = EvalPool::sequential().with_step_policy(policy);
            (format!("{policy:?}"), pool)
        })
        .collect()
}

/// `evaluate` under a token that never trips.
fn evaluate(
    pool: &EvalPool,
    scratch: &mut EvalScratch,
    plan: &QueryPlan,
    graph: &GraphDb,
    goal: Goal,
) -> BitSet {
    pool.evaluate(scratch, plan, graph, goal, &CancelToken::never())
        .expect("a never-token evaluation is not interrupted")
}

/// Strategy: a random small graph over {a, b, c}, possibly disconnected,
/// with self-loops and parallel labels (same shape space as the engine
/// differential suite).
fn arb_graph() -> impl Strategy<Value = GraphDb> {
    (
        1usize..12,
        proptest::collection::vec((0u32..12, 0usize..3, 0u32..12), 0..36),
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

/// Strategy: a random regex AST over {a, b, c}, determinized — the
/// query shape the learner produces.
fn arb_regex_dfa() -> impl Strategy<Value = Dfa> {
    let leaf = prop_oneof![
        Just(Regex::Epsilon),
        (0usize..3).prop_map(|i| Regex::Symbol(Symbol::from_index(i))),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 1..3).prop_map(Regex::concat),
            proptest::collection::vec(inner.clone(), 1..3).prop_map(Regex::alt),
            inner.prop_map(Regex::star),
        ]
    })
    .prop_map(|regex| regex.to_dfa(3))
}

/// Strategy: a **raw** random DFA — partial table, arbitrary finals,
/// dead and unreachable states, possibly a smaller alphabet than the
/// graph's. Every engine must digest these, as given, without changing
/// any answer.
fn arb_raw_dfa() -> impl Strategy<Value = Dfa> {
    (
        1usize..6,
        1usize..4,
        proptest::collection::vec((0usize..6, 0usize..4, 0usize..6), 0..24),
        proptest::collection::vec(0usize..6, 0..6),
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

/// Either query shape.
fn arb_query() -> impl Strategy<Value = Dfa> {
    prop_oneof![arb_regex_dfa(), arb_raw_dfa()]
}

/// The monadic strategy matrix on one (graph, query) pair: every forced
/// strategy under every step policy — all the one engine — against the
/// queued oracle.
fn assert_monadic_matrix(
    graph: &GraphDb,
    query: &Dfa,
    pools: &[(String, EvalPool)],
) -> Result<(), TestCaseError> {
    let expected = eval_monadic_queued(query, graph);
    let mut scratch = EvalScratch::new();
    for forced in EvalStrategy::ALL {
        let plan = plan_query_forced(query, graph, forced);
        for (shape, pool) in pools {
            prop_assert_eq!(
                &evaluate(pool, &mut scratch, &plan, graph, Goal::Monadic),
                &expected,
                "monadic disagrees under forced {} at {}",
                forced,
                shape
            );
        }
    }
    Ok(())
}

/// The binary strategy matrix from `sources`. Plans are built once per
/// (graph, query) pair — only the source loop varies inside, keeping
/// whole-graph sweeps affordable.
fn assert_binary_matrix(
    graph: &GraphDb,
    query: &Dfa,
    pools: &[(String, EvalPool)],
    sources: impl Iterator<Item = u32>,
) -> Result<(), TestCaseError> {
    let mut scratch = EvalScratch::new();
    let plans: Vec<_> = EvalStrategy::ALL
        .into_iter()
        .map(|forced| (forced, plan_query_forced(query, graph, forced)))
        .collect();
    for source in sources {
        let expected = eval_binary_from(query, graph, source);
        for (forced, plan) in &plans {
            for (shape, pool) in pools {
                prop_assert_eq!(
                    &evaluate(pool, &mut scratch, plan, graph, Goal::BinaryFrom(source)),
                    &expected,
                    "binary disagrees under forced {} from {} at {}",
                    forced,
                    source,
                    shape
                );
            }
        }
    }
    Ok(())
}

/// Strategy: a multi-word random graph (200–320 nodes, four or five
/// frontier words), sparse enough that binary searches run several
/// levels — also those of the certificate-pruned forward pass.
fn arb_wide_graph() -> impl Strategy<Value = GraphDb> {
    (
        200usize..321,
        proptest::collection::vec((0u32..320, 0usize..3, 0u32..320), 200..500),
    )
        .prop_map(|(n, edges)| {
            let mut builder = GraphBuilder::with_alphabet(Alphabet::from_labels(LABELS));
            builder.add_nodes("n", n);
            let n = n as u32;
            for (src, sym, dst) in edges {
                builder.add_edge_ids(src % n, Symbol::from_index(sym), dst % n);
            }
            builder.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Monadic semantics: Forward ≡ Backward ≡ Auto ≡
    /// the queued oracle through the one engine under every step policy,
    /// on regex-derived and raw random DFAs alike.
    #[test]
    fn monadic_strategies_agree(graph in arb_graph(), query in arb_query()) {
        assert_monadic_matrix(&graph, &query, &pool_matrix())?;
    }

    /// Binary semantics from every source node: all three strategies ≡
    /// plain forward evaluation under every step policy. This is where
    /// the coreach-pruned backward pass actually diverges structurally
    /// from forward — and must not diverge observably.
    #[test]
    fn binary_strategies_agree(graph in arb_graph(), query in arb_query()) {
        assert_binary_matrix(&graph, &query, &pool_matrix(), graph.nodes())?;
    }

    /// Planning invariants on arbitrary inputs: the plan evaluates the
    /// query as given (so its language and `CanonicalQuery` cache key
    /// are the caller's), the resolved strategy is never `Auto`, and
    /// the direction estimate is finite and non-negative.
    #[test]
    fn plans_are_well_formed(graph in arb_graph(), query in arb_query()) {
        let plan = plan_query(&query, &graph);
        prop_assert_eq!(plan.query(), &query);
        prop_assert_ne!(plan.binary_strategy(), EvalStrategy::Auto);
        let est = plan.binary_estimate();
        prop_assert!(est.forward.is_finite() && est.forward >= 0.0);
        prop_assert!(est.backward.is_finite() && est.backward >= 0.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The whole matrix again on multi-word graphs: every search — the
    /// backward coreach, the certificate-pruned forward pass of
    /// Backward, the monadic search — steps frontiers
    /// spanning several words, and must still be bit-identical to
    /// `eval_monadic` / `eval_binary_from`.
    #[test]
    fn strategies_agree_on_multi_word_graphs(
        graph in arb_wide_graph(),
        query in arb_query(),
    ) {
        let pools = pool_matrix();
        assert_monadic_matrix(&graph, &query, &pools)?;
        assert_binary_matrix(&graph, &query, &pools, graph.nodes().step_by(67))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cancellation across the matrix: a pre-tripped token never
    /// produces a *wrong* answer — every goal × strategy × step policy
    /// either reports the interrupt or completes before its first level
    /// check (ε shortcuts, empty frontiers) with the exact forward
    /// result.
    #[test]
    fn tripped_tokens_never_corrupt_results(
        graph in arb_graph(),
        query in arb_query(),
    ) {
        let tripped = CancelToken::with_flag(std::sync::Arc::new(
            std::sync::atomic::AtomicBool::new(true),
        ));
        let expected = eval_monadic(&query, &graph);
        let expected_binary = eval_binary_from(&query, &graph, 0);
        let goals = [
            (Goal::Monadic, &expected),
            (Goal::BinaryFrom(0), &expected_binary),
        ];
        let mut scratch = EvalScratch::new();
        let pools = pool_matrix();
        for forced in EvalStrategy::ALL {
            let plan = plan_query_forced(&query, &graph, forced);
            for (shape, pool) in &pools {
                for (goal, expected) in goals {
                    match pool.evaluate(&mut scratch, &plan, &graph, goal, &tripped) {
                        Err(Interrupt::Cancelled) => {}
                        Ok(result) => prop_assert_eq!(
                            &result, expected,
                            "tripped {:?} completed wrong under {} at {}",
                            goal, forced, shape
                        ),
                        Err(other) => prop_assert!(false, "unexpected verdict {:?}", other),
                    }
                }
            }
        }
    }
}

/// A pre-tripped token interrupts **every** goal × strategy × step
/// policy that has a level to run, and the interrupted scratch is
/// reusable: the next evaluation is bit-identical.
#[test]
fn tripped_tokens_interrupt_every_goal_and_leave_the_scratch_reusable() {
    let graph = hub_graph_with_rare_target(256, 3);
    let query = Regex::parse("(a+b)*·c", graph.alphabet())
        .unwrap()
        .to_dfa(3);
    let tripped = CancelToken::with_flag(std::sync::Arc::new(std::sync::atomic::AtomicBool::new(
        true,
    )));
    let source = 200;
    let expected = eval_monadic(&query, &graph);
    let expected_binary = eval_binary_from(&query, &graph, source);
    assert!(!expected.is_empty() && !expected_binary.is_empty());
    let goals = [
        (Goal::Monadic, &expected),
        (Goal::BinaryFrom(source), &expected_binary),
    ];
    for forced in EvalStrategy::ALL {
        let plan = plan_query_forced(&query, &graph, forced);
        for (shape, pool) in pool_matrix() {
            let mut scratch = EvalScratch::new();
            for (goal, expected) in goals {
                assert_eq!(
                    pool.evaluate(&mut scratch, &plan, &graph, goal, &tripped),
                    Err(Interrupt::Cancelled),
                    "{goal:?} under {forced} at {shape}"
                );
                assert_eq!(
                    &evaluate(&pool, &mut scratch, &plan, &graph, goal),
                    expected,
                    "{goal:?} after an interrupt under {forced} at {shape}"
                );
            }
        }
    }
}

/// A hub graph with a **rare target label**: `a` is everywhere (every
/// node fans out to many others), `c` labels a single edge. Forward
/// evaluation of `(a+b)*·c` from a hub node floods the whole graph
/// level after level; backward evaluation seeds the coreach at the lone
/// `c`-edge and stays tiny. The estimate must see this.
fn hub_graph_with_rare_target(n: usize, fanout: usize) -> GraphDb {
    let mut builder = GraphBuilder::with_alphabet(Alphabet::from_labels(LABELS));
    builder.add_nodes("n", n);
    let n = n as u32;
    for i in 0..n {
        for j in 1..=fanout as u32 {
            builder.add_edge_ids(i, Symbol::from_index(0), (i + j) % n);
        }
    }
    // One rare c-edge deep in the node range.
    builder.add_edge_ids(n - 2, Symbol::from_index(2), n - 1);
    builder.build()
}

/// Auto picks backward for a rare-label-target binary query on a hub
/// graph, forward for a dense-label query — and both resolutions are
/// bit-identical to forward anyway.
#[test]
fn auto_picks_expected_binary_direction_on_asymmetric_graphs() {
    let graph = hub_graph_with_rare_target(256, 16);
    let rare_target = Regex::parse("(a+b)*·c", graph.alphabet())
        .unwrap()
        .to_dfa(3);
    let plan = plan_query(&rare_target, &graph);
    let est = plan.binary_estimate();
    assert!(
        est.backward < est.forward,
        "rare-target estimate must favor backward: fwd {} vs back {}",
        est.forward,
        est.backward
    );
    assert_eq!(
        plan.binary_strategy(),
        EvalStrategy::Backward,
        "rare-target hub query must plan backward (estimates: fwd {} back {})",
        est.forward,
        est.backward
    );

    // A dense-label query: the backward coreach would seed every node
    // (a* accepts ε at the final state loop), the forward walk from one
    // source is the cheap side.
    let dense = Regex::parse("a·a", graph.alphabet()).unwrap().to_dfa(3);
    let dense_plan = plan_query(&dense, &graph);
    assert_eq!(
        dense_plan.binary_strategy(),
        EvalStrategy::Forward,
        "dense-label short query must plan forward (estimates: fwd {} back {})",
        dense_plan.binary_estimate().forward,
        dense_plan.binary_estimate().backward
    );

    // Whatever Auto resolved, the answers match plain forward from a
    // hub source and from the rare edge's tail.
    let pool = EvalPool::sequential();
    let mut scratch = EvalScratch::new();
    for source in [0u32, 254] {
        let goal = Goal::BinaryFrom(source);
        assert_eq!(
            evaluate(&pool, &mut scratch, &plan, &graph, goal),
            eval_binary_from(&rare_target, &graph, source),
            "auto-planned rare-target from {source}"
        );
        assert_eq!(
            evaluate(&pool, &mut scratch, &dense_plan, &graph, goal),
            eval_binary_from(&dense, &graph, source),
            "auto-planned dense from {source}"
        );
    }
}

/// Forced strategies always resolve as requested, so a test that
/// forces an engine runs that engine.
#[test]
fn forced_strategies_pin_the_binary_engine() {
    let graph = hub_graph_with_rare_target(64, 8);
    let query = Regex::parse("(a+b)*·c", graph.alphabet())
        .unwrap()
        .to_dfa(3);
    for forced in [EvalStrategy::Forward, EvalStrategy::Backward] {
        let plan = plan_query_forced(&query, &graph, forced);
        assert_eq!(plan.binary_strategy(), forced);
    }
}

/// Fixed regression shapes through every strategy: ε in the language,
/// empty language, a query alphabet smaller than the graph's, an
/// out-of-range binary source, and a graph without nodes.
#[test]
fn fixed_shapes_through_every_strategy() {
    let mut builder = GraphBuilder::with_alphabet(Alphabet::from_labels(LABELS));
    builder.add_edge("x", "a", "x");
    builder.add_edge("x", "b", "y");
    builder.add_node("lonely");
    let graph = builder.build();
    let shapes = [
        Dfa::empty_language(3),
        Dfa::epsilon_language(3),
        Regex::parse("(a·b)*·c", graph.alphabet())
            .unwrap()
            .to_dfa(3),
        {
            let mut only_a = Dfa::new(2, 1, 0);
            only_a.set_transition(0, Symbol::from_index(0), 1);
            only_a.set_final(1);
            only_a
        },
    ];
    let pool = EvalPool::sequential();
    let mut scratch = EvalScratch::new();
    for query in &shapes {
        let expected = eval_monadic(query, &graph);
        for forced in EvalStrategy::ALL {
            let plan = plan_query_forced(query, &graph, forced);
            assert_eq!(
                evaluate(&pool, &mut scratch, &plan, &graph, Goal::Monadic),
                expected,
                "monadic fixed shape under {forced}"
            );
            for source in graph.nodes() {
                assert_eq!(
                    evaluate(&pool, &mut scratch, &plan, &graph, Goal::BinaryFrom(source)),
                    eval_binary_from(query, &graph, source),
                    "binary fixed shape under {forced} from {source}"
                );
            }
            // Out-of-range source: empty, not a panic, in every engine.
            assert!(
                evaluate(&pool, &mut scratch, &plan, &graph, Goal::BinaryFrom(1000)).is_empty(),
                "out-of-range source under {forced}"
            );
        }
    }
    let no_nodes = GraphBuilder::new().build();
    for query in &shapes {
        for forced in EvalStrategy::ALL {
            let plan = plan_query_forced(query, &no_nodes, forced);
            for goal in [Goal::Monadic, Goal::BinaryFrom(0)] {
                assert!(
                    evaluate(&pool, &mut scratch, &plan, &no_nodes, goal).is_empty(),
                    "{goal:?} on an empty graph under {forced}"
                );
            }
        }
    }
}

/// A 1,024-node `a`-ring (16 frontier words) with `b`-edges out of every
/// third node to scattered targets and `c`-edges out of every fifth
/// node: a binary `a*·b·c` search walks the ring one node per level,
/// and the certificate prunes every `b`-target without a `c`-edge.
fn pruned_ring() -> GraphDb {
    let mut builder = GraphBuilder::with_alphabet(Alphabet::from_labels(LABELS));
    let n = 1024u32;
    let first = builder.add_nodes("n", n as usize);
    let (a, b, c) = (
        Symbol::from_index(0),
        Symbol::from_index(1),
        Symbol::from_index(2),
    );
    for i in 0..n {
        builder.add_edge_ids(first + i, a, first + (i + 1) % n);
        if i % 3 == 0 {
            builder.add_edge_ids(first + i, b, first + (i * 7 + 2) % n);
        }
        if i % 5 == 0 {
            builder.add_edge_ids(first + i, c, first + (i + 3) % n);
        }
    }
    builder.build()
}

/// The certificate-pruned engine steps its one-node frontiers with the
/// sparse kernel — which must apply the certificate per endpoint
/// exactly as the word kernels apply it per step — and stays
/// bit-identical to plain forward evaluation. Under `Auto` it records
/// sparse levels; under every policy it agrees.
#[test]
fn certificate_pruned_engines_take_sparse_levels() {
    let graph = pruned_ring();
    let query = Regex::parse("a*·b·c", graph.alphabet()).unwrap().to_dfa(3);
    let mut scratch = EvalScratch::new();
    let plan = plan_query_forced(&query, &graph, EvalStrategy::Backward);
    for source in [0u32, 1, 500, 1023] {
        let expected = eval_binary_from(&query, &graph, source);
        assert!(!expected.is_empty(), "every ring node reaches a b·c");
        for (shape, pool) in pool_matrix() {
            let (result, levels) = collect_levels(|| {
                evaluate(&pool, &mut scratch, &plan, &graph, Goal::BinaryFrom(source))
            });
            assert_eq!(result, expected, "from {source} at {shape}");
            let sparse: u32 = levels.iter().map(|level| level.sparse_tasks).sum();
            if pool.step_policy() == StepPolicy::Auto {
                assert!(sparse >= 1, "from {source}: no sparse level");
            } else {
                assert_eq!(sparse, 0, "only Auto plans sparse steps");
            }
        }
    }
}

/// An interrupted search leaves its seed in the scratch's frontier, and
/// re-fitting clears only the frontier sets still listed active: the
/// next search through the same scratch must not step that seed. A
/// pre-tripped search from node 5, then one from node 9, must give the
/// fresh answer from 9 under every strategy and step policy.
#[test]
fn an_interrupted_search_leaves_no_frontier_behind() {
    let graph = pruned_ring();
    let query = Regex::parse("a·a", graph.alphabet()).unwrap().to_dfa(3);
    let tripped = CancelToken::with_flag(std::sync::Arc::new(std::sync::atomic::AtomicBool::new(
        true,
    )));
    let expected = eval_binary_from(&query, &graph, 9);
    assert_eq!(expected.iter().collect::<Vec<_>>(), [11]);
    for forced in EvalStrategy::ALL {
        let plan = plan_query_forced(&query, &graph, forced);
        for (shape, pool) in pool_matrix() {
            let mut scratch = EvalScratch::new();
            assert_eq!(
                pool.evaluate(&mut scratch, &plan, &graph, Goal::BinaryFrom(5), &tripped),
                Err(Interrupt::Cancelled),
                "{forced} at {shape}"
            );
            assert_eq!(
                evaluate(&pool, &mut scratch, &plan, &graph, Goal::BinaryFrom(9)),
                expected,
                "{forced} at {shape}"
            );
        }
    }
}
