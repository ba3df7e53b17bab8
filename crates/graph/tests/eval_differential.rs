//! Cross-engine differential suite for RPQ evaluation.
//!
//! One engine ([`EvalPool::evaluate`]) answers every query, and two
//! independent oracles check it: the seed queue-based
//! [`eval_monadic_queued`] and the per-node product-search
//! [`eval_monadic_naive`]. The engine's execution knob — the step-kernel
//! policy ([`StepPolicy`]: plain / cost-model auto) — must
//! never show in a result. On random graphs and random queries (both
//! regex-derived DFAs and *raw* random DFAs with partial transition
//! tables, dead states, and unreachable states) every configuration must
//! select **exactly** the same node sets, with one scratch reused across
//! configurations and calls. Label-density
//! extremes (every label active on all nodes / on at most one node) are
//! generated explicitly so the dense kernel's label mask and the
//! cost-model gate see both of their boundary conditions. The per-label active-node
//! bitmaps feeding it all are checked against a from-scratch
//! recomputation on the same random graphs.

use pathlearn_automata::{Alphabet, BitSet, Dfa, Regex, Symbol, DEAD};
use pathlearn_graph::eval::{
    eval_binary_from, eval_monadic, eval_monadic_naive, eval_monadic_queued, EvalScratch, Goal,
};
use pathlearn_graph::{
    collect_levels, CancelToken, Dir, EvalPool, GraphBuilder, GraphDb, LevelSample, NodeId,
    QueryPlan, StepPolicy,
};
use proptest::prelude::*;
use std::collections::{HashSet, VecDeque};

const LABELS: [&str; 3] = ["a", "b", "c"];

/// `evaluate` of a raw DFA under its forward plan, never cancelled.
fn evaluate(
    pool: &EvalPool,
    scratch: &mut EvalScratch,
    query: &Dfa,
    graph: &GraphDb,
    goal: Goal,
) -> BitSet {
    pool.evaluate(
        scratch,
        &QueryPlan::forward(query),
        graph,
        goal,
        &CancelToken::never(),
    )
    .expect("a never-token evaluation is not interrupted")
}

/// The sequential engine under `policy`.
fn sequential(policy: StepPolicy) -> EvalPool {
    EvalPool::sequential().with_step_policy(policy)
}

/// Strategy: a random small graph over {a, b, c}, possibly disconnected,
/// with self-loops and parallel labels.
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

/// Strategy: a random regex AST over {a, b, c} including ε and stars,
/// determinized — the query shape the learner actually produces.
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

/// Strategy: a **raw** random DFA — partial transition table, arbitrary
/// finals, possibly dead or unreachable states, possibly a smaller
/// alphabet than the graph's. Regex-derived DFAs are always trim; this
/// covers the shapes they cannot produce.
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

/// Either query shape: learner-realistic regex DFAs or raw random DFAs.
fn arb_query() -> impl Strategy<Value = Dfa> {
    prop_oneof![arb_regex_dfa(), arb_raw_dfa()]
}

/// Every monadic configuration against the default one: the seed
/// queue oracle, the naive product oracle, and the engine under every
/// step policy through one reused scratch.
fn assert_monadic_engines_agree(graph: &GraphDb, query: &Dfa) -> Result<(), TestCaseError> {
    let expected = eval_monadic(query, graph);
    prop_assert_eq!(
        &eval_monadic_queued(query, graph),
        &expected,
        "queued (seed) engine disagrees"
    );
    prop_assert_eq!(
        &eval_monadic_naive(query, graph),
        &expected,
        "naive product engine disagrees"
    );
    let mut scratch = EvalScratch::new();
    for policy in StepPolicy::ALL {
        prop_assert_eq!(
            &evaluate(
                &sequential(policy),
                &mut scratch,
                query,
                graph,
                Goal::Monadic
            ),
            &expected,
            "sequential engine disagrees under {:?}",
            policy
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Monadic semantics: engine ≡ queued ≡ naive under every step
    /// policy, for regex-derived and raw random DFAs alike.
    #[test]
    fn monadic_engines_agree(graph in arb_graph(), query in arb_query()) {
        assert_monadic_engines_agree(&graph, &query)?;
    }

    /// Binary semantics from every source node: the default engine ≡
    /// every step policy, through one reused scratch.
    #[test]
    fn binary_engines_agree(graph in arb_graph(), query in arb_query()) {
        let mut scratch = EvalScratch::new();
        for source in graph.nodes() {
            let expected = eval_binary_from(&query, &graph, source);
            let goal = Goal::BinaryFrom(source);
            for policy in StepPolicy::ALL {
                prop_assert_eq!(
                    &evaluate(&sequential(policy), &mut scratch, &query, &graph, goal),
                    &expected,
                    "binary engine disagrees from {} under {:?}", source, policy
                );
            }
        }
    }

    /// One pool and one scratch driven through a mixed monadic/binary
    /// call sequence of differently-shaped queries — the learner's usage
    /// pattern — keeps matching the allocating sequential entry points.
    #[test]
    fn mixed_reuse_stays_equivalent(
        graph in arb_graph(),
        queries in proptest::collection::vec(arb_query(), 1..5),
    ) {
        let pool = EvalPool::sequential();
        let mut scratch = EvalScratch::new();
        for query in &queries {
            prop_assert_eq!(
                &evaluate(&pool, &mut scratch, query, &graph, Goal::Monadic),
                &eval_monadic(query, &graph),
                "monadic after mixed reuse"
            );
            let source = 0;
            prop_assert_eq!(
                &evaluate(&pool, &mut scratch, query, &graph, Goal::BinaryFrom(source)),
                &eval_binary_from(query, &graph, source),
                "binary after mixed reuse"
            );
        }
    }

    /// Per-label bitmap invariant on random graphs: membership in
    /// `label_active(Out, sym)` / `label_active(In, sym)` is exactly
    /// "has ≥ 1 out- / in-edge labeled sym", for every node and symbol —
    /// i.e. the bitmaps the pruning relies on are precisely the
    /// recomputation from the edge list.
    #[test]
    fn label_bitmaps_match_recomputation(graph in arb_graph()) {
        for sym in graph.alphabet().symbols() {
            let mut sources = BitSet::new(graph.num_nodes());
            let mut targets = BitSet::new(graph.num_nodes());
            for (src, edge_sym, dst) in graph.edges() {
                if edge_sym == sym {
                    sources.insert(src as usize);
                    targets.insert(dst as usize);
                }
            }
            prop_assert_eq!(
                graph.label_active(Dir::Out, sym),
                &sources,
                "label_active(Out, {:?})", sym
            );
            prop_assert_eq!(
                graph.label_active(Dir::In, sym),
                &targets,
                "label_active(In, {:?})", sym
            );
        }
    }
}

/// Strategy: a graph at a **label-density extreme**. All-dense: every
/// node carries an out- and in-edge of every label (ring per label), so
/// every `frontier ∩ label-active` intersection equals the frontier and
/// the cost model must fall back to plain kernels. All-sparse: each
/// label has exactly one edge, so almost every intersection is empty and
/// the label mask is where all pruning happens. Both extremes get a few
/// random extra edges on top so the two regimes are not purely regular.
fn arb_extreme_graph() -> impl Strategy<Value = GraphDb> {
    arb_density_extreme(any::<bool>())
}

/// Strategy: the all-dense extreme only — no step of any frontier is
/// ever skipped, only walked or covered.
fn arb_dense_graph() -> impl Strategy<Value = GraphDb> {
    arb_density_extreme(Just(true))
}

fn arb_density_extreme(dense: impl Strategy<Value = bool>) -> impl Strategy<Value = GraphDb> {
    (
        2usize..90,
        dense,
        proptest::collection::vec((0u32..90, 0usize..3, 0u32..90), 0..8),
    )
        .prop_map(|(n, dense, extra)| {
            let mut builder = GraphBuilder::with_alphabet(Alphabet::from_labels(LABELS));
            builder.add_nodes("n", n);
            let n = n as u32;
            if dense {
                for i in 0..n {
                    for sym in 0..3 {
                        builder.add_edge_ids(i, Symbol::from_index(sym), (i + 1 + sym as u32) % n);
                    }
                }
            } else {
                for sym in 0..3 {
                    builder.add_edge_ids(
                        sym as u32 % n,
                        Symbol::from_index(sym),
                        (sym as u32 + 1) % n,
                    );
                }
            }
            for (src, sym, dst) in extra {
                builder.add_edge_ids(src % n, Symbol::from_index(sym), dst % n);
            }
            builder.build()
        })
}

/// Strategy: an all-dense graph of 10–20 frontier words — every node
/// has one out- and one in-edge of each label — big enough that a
/// binary search's first levels, a handful of nodes each, are planned
/// [`pathlearn_graph::StepPlan::Sparse`].
fn arb_wide_dense_graph() -> impl Strategy<Value = GraphDb> {
    (640usize..1281).prop_map(|n| {
        let mut builder = GraphBuilder::with_alphabet(Alphabet::from_labels(LABELS));
        builder.add_nodes("n", n);
        let n = n as u32;
        for i in 0..n {
            for sym in 0..3 {
                builder.add_edge_ids(i, Symbol::from_index(sym), (i + 1 + sym as u32) % n);
            }
        }
        builder.build()
    })
}

/// The level samples of one evaluation under `policy`.
fn level_samples(policy: StepPolicy, query: &Dfa, graph: &GraphDb, goal: Goal) -> Vec<LevelSample> {
    let mut scratch = EvalScratch::new();
    let pool = sequential(policy);
    collect_levels(|| evaluate(&pool, &mut scratch, query, graph, goal)).1
}

/// Per level: the frontier popcount and the step tasks run — the two
/// terms of the serving cache's deterministic work measure.
fn profile(samples: &[LevelSample]) -> Vec<(u64, u32)> {
    samples
        .iter()
        .map(|sample| (sample.frontier, sample.tasks))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The level profile does not depend on the step policy: a covered
    /// step counts as one task, exactly like the plain step it replaces,
    /// so the serving cache's work measure (and its eviction order)
    /// cannot move with the verdict. On all-dense graphs nothing is
    /// skipped, so `Plain` and `Auto` must report the same
    /// `(frontier, tasks)` per level, monadic and binary — while every
    /// monadic first level (all of `V` at each final) is covered.
    #[test]
    fn level_profile_does_not_depend_on_the_step_policy(
        graph in arb_dense_graph(),
        query in arb_query(),
    ) {
        for goal in [Goal::Monadic, Goal::BinaryFrom(0)] {
            let plain = level_samples(StepPolicy::Plain, &query, &graph, goal);
            let auto = level_samples(StepPolicy::Auto, &query, &graph, goal);
            prop_assert_eq!(profile(&plain), profile(&auto), "{:?}", goal);
            prop_assert!(plain.iter().all(|level| level.covered_tasks == 0));
            if let (Goal::Monadic, Some(first)) = (goal, auto.first()) {
                prop_assert_eq!(first.covered_tasks, first.tasks, "monadic level 0");
            }
        }
    }

    /// The same through sparse levels: a sparse task counts as one task,
    /// like the word-kernel step it replaces, so `Plain` and `Auto` still
    /// report the same `(frontier, tasks)` per level, while every task of
    /// a binary search's one-node first level is sparse under `Auto`.
    #[test]
    fn level_profile_holds_through_sparse_levels(
        graph in arb_wide_dense_graph(),
        query in arb_query(),
    ) {
        for goal in [Goal::Monadic, Goal::BinaryFrom(0)] {
            let plain = level_samples(StepPolicy::Plain, &query, &graph, goal);
            let auto = level_samples(StepPolicy::Auto, &query, &graph, goal);
            prop_assert_eq!(profile(&plain), profile(&auto), "{:?}", goal);
            prop_assert!(plain.iter().all(|level| level.sparse_tasks == 0));
            if let (Goal::BinaryFrom(_), Some(first)) = (goal, auto.first()) {
                prop_assert_eq!(first.frontier, 1);
                prop_assert_eq!(first.sparse_tasks, first.tasks, "binary level 0");
            }
        }
    }

    /// On arbitrary graphs the frontiers are the same per level under
    /// both policies, and `Auto` runs at most the plain kernel's tasks
    /// (it drops only skipped steps, never a covered one).
    #[test]
    fn level_frontiers_do_not_depend_on_the_step_policy(
        graph in arb_extreme_graph(),
        query in arb_query(),
    ) {
        for goal in [Goal::Monadic, Goal::BinaryFrom(0)] {
            let plain = level_samples(StepPolicy::Plain, &query, &graph, goal);
            let auto = level_samples(StepPolicy::Auto, &query, &graph, goal);
            prop_assert_eq!(plain.len(), auto.len(), "{:?}", goal);
            for (plain, auto) in plain.iter().zip(&auto) {
                prop_assert_eq!(plain.frontier, auto.frontier, "{:?}", goal);
                prop_assert!(auto.tasks <= plain.tasks, "{:?}", goal);
            }
        }
    }

    /// Label-density extremes: plain ≡ auto ≡ naive ≡ queued, monadic
    /// and binary, on graphs where every label is everywhere-active or
    /// nearly nowhere-active — the two boundary conditions of the label
    /// mask and the popcount gate.
    #[test]
    fn engines_agree_at_density_extremes(
        graph in arb_extreme_graph(),
        query in arb_query(),
    ) {
        assert_monadic_engines_agree(&graph, &query)?;
        let mut scratch = EvalScratch::new();
        let source = 0;
        let expected = eval_binary_from(&query, &graph, source);
        for policy in StepPolicy::ALL {
            prop_assert_eq!(
                &evaluate(&sequential(policy), &mut scratch, &query, &graph, Goal::BinaryFrom(source)),
                &expected,
                "binary under {:?}", policy
            );
        }
    }
}

/// Strategy: a graph of 512–767 nodes, eight to twelve bitset words,
/// with at most two edges a node on average. A search's levels of a few
/// pairs are lists there (they are shorter than the word count), and a
/// level it grows past that, or merges a dense step into, goes dense.
fn arb_wide_sparse_graph() -> impl Strategy<Value = GraphDb> {
    (
        512usize..768,
        proptest::collection::vec((0u32..768, 0usize..3, 0u32..768), 256..1024),
        proptest::collection::vec((0u32..768, 0usize..3, 1u32..4), 0..512),
    )
        .prop_map(|(n, edges, chains)| {
            let mut builder = GraphBuilder::with_alphabet(Alphabet::from_labels(LABELS));
            builder.add_nodes("n", n);
            let n = n as u32;
            for (src, sym, dst) in edges {
                builder.add_edge_ids(src % n, Symbol::from_index(sym), dst % n);
            }
            // Short hops between neighbouring ids: paths that stay
            // inside one or two words.
            for (src, sym, hop) in chains {
                builder.add_edge_ids(src % n, Symbol::from_index(sym), (src + hop) % n);
            }
            builder.build()
        })
}

/// The end nodes of `query`'s paths from `source`, by a queue BFS over
/// `(node, state)` pairs: a binary oracle that shares no code with the
/// level kernel.
fn binary_oracle(query: &Dfa, graph: &GraphDb, source: NodeId) -> BitSet {
    let mut ends = BitSet::new(graph.num_nodes());
    let mut seen = HashSet::from([(source, query.initial())]);
    let mut queue = VecDeque::from([(source, query.initial())]);
    while let Some((node, state)) = queue.pop_front() {
        if query.is_final(state) {
            ends.insert(node as usize);
        }
        for sym in graph.alphabet().symbols() {
            if sym.index() >= query.alphabet_len() {
                continue;
            }
            let next = query.step_raw(state, sym);
            if next == DEAD {
                continue;
            }
            graph.for_each_neighbor(Dir::Out, node, sym, |end| {
                if seen.insert((end, next)) {
                    queue.push_back((end, next));
                }
            });
        }
    }
    ends
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On wide, sparse graphs, where levels run as lists and some go
    /// dense mid-search, one scratch reused for everything agrees with
    /// the oracles: monadic under every step policy with the queued
    /// oracle, binary from a spread of sources under every step policy
    /// with a pair-at-a-time BFS.
    #[test]
    fn engines_agree_on_wide_sparse_graphs(
        graph in arb_wide_sparse_graph(),
        queries in proptest::collection::vec(arb_query(), 1..4),
    ) {
        let mut scratch = EvalScratch::new();
        let n = graph.num_nodes() as NodeId;
        for query in &queries {
            let expected = eval_monadic_queued(query, &graph);
            for policy in StepPolicy::ALL {
                prop_assert_eq!(
                    &evaluate(&sequential(policy), &mut scratch, query, &graph, Goal::Monadic),
                    &expected,
                    "monadic under {:?}", policy
                );
            }
            for source in (0..n).step_by(n as usize / 8) {
                let expected = binary_oracle(query, &graph, source);
                for policy in StepPolicy::ALL {
                    let goal = Goal::BinaryFrom(source);
                    prop_assert_eq!(
                        &evaluate(&sequential(policy), &mut scratch, query, &graph, goal),
                        &expected,
                        "binary from {} under {:?}", source, policy
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The degree-weighted cost model is a pure execution strategy: for
    /// random graphs, frontiers and symbols, whatever `StepPlan` the
    /// weighted `Auto` gate picks, executing it is **bit-identical** to
    /// the exhaustive plain kernel in both directions — a Skip verdict
    /// really is an empty step, a Covered verdict's answer really is the
    /// label's opposite-direction bitmap, a Sparse verdict really visits
    /// every edge. Besides the random frontier, every `(symbol, direction)`
    /// gets frontiers that cover its active set — all of `V`, and the
    /// active set plus the random bits — since twelve random bits almost
    /// never do. (The engine-level matrices above assert the same
    /// through whole evaluations; this pins the verdict/kernels contract
    /// directly, on arbitrary frontiers no BFS needs to reach.)
    #[test]
    fn degree_weighted_plans_are_bit_identical_to_plain_steps(
        graph in arb_graph(),
        frontier_bits in proptest::collection::vec(any::<bool>(), 12),
    ) {
        use pathlearn_graph::StepPlan;
        let n = graph.num_nodes();
        let random = BitSet::from_indices(
            n,
            frontier_bits.iter().enumerate().filter(|(i, &b)| b && *i < n).map(|(i, _)| i),
        );
        let mut plain = BitSet::new(n);
        let mut planned = BitSet::new(n);
        for sym in graph.alphabet().symbols() {
            for dir in Dir::BOTH {
                let mut covering = random.clone();
                covering.union_with(graph.label_active(dir, sym));
                for frontier in [&random, &BitSet::full(n), &covering] {
                    let frontier_len = frontier.len();
                    graph.step_into(dir, StepPlan::Plain, frontier, sym, &mut plain);
                    let plan = graph.plan_step(dir, frontier, sym, frontier_len, StepPolicy::Auto);
                    match plan {
                        StepPlan::Skip => prop_assert!(
                            plain.is_empty(),
                            "Skip verdict on a productive {:?} step ({:?})", dir, sym
                        ),
                        StepPlan::Covered => prop_assert_eq!(
                            graph.label_active(dir.reverse(), sym),
                            &plain,
                            "{:?} covered {:?}", dir, sym
                        ),
                        StepPlan::Sparse | StepPlan::Plain => {}
                    }
                    if frontier.intersection_len(graph.label_active(dir, sym))
                        == graph.label_active_count(dir, sym)
                    {
                        // The size gate runs before the scan that would
                        // find the cover.
                        prop_assert!(
                            matches!(plan, StepPlan::Covered | StepPlan::Skip | StepPlan::Sparse),
                            "{:?} {:?}: a covering frontier planned {:?}", dir, sym, plan
                        );
                    }
                    graph.step_into(dir, plan, frontier, sym, &mut planned);
                    prop_assert_eq!(&planned, &plain, "{:?} {:?} {:?}", dir, plan, sym);
                }
            }
        }
    }
}

/// Regression shapes that once mattered for at least one engine: ε in
/// the language, empty language, dead labels, query alphabet smaller
/// than the graph's, single node with self-loops.
#[test]
fn fixed_regression_shapes() {
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
            let mut only_a = Dfa::new(2, 1, 0); // 1-symbol alphabet < graph's 3
            only_a.set_transition(0, Symbol::from_index(0), 1);
            only_a.set_final(1);
            only_a
        },
    ];
    for query in &shapes {
        let expected = eval_monadic(query, &graph);
        assert_eq!(eval_monadic_queued(query, &graph), expected);
        assert_eq!(eval_monadic_naive(query, &graph), expected);
        let mut scratch = EvalScratch::new();
        for policy in StepPolicy::ALL {
            let pool = sequential(policy);
            assert_eq!(pool.eval_monadic(query, &graph), expected);
            for source in graph.nodes() {
                assert_eq!(
                    evaluate(&pool, &mut scratch, query, &graph, Goal::BinaryFrom(source)),
                    eval_binary_from(query, &graph, source)
                );
            }
        }
    }
}
