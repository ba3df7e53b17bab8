//! Edge-delta differential suite — the overlay is never allowed to be
//! an approximation.
//!
//! A [`GraphDb::with_delta`] overlay merges base-CSR adjacency with
//! per-label added/removed sets inside every step kernel; this suite
//! pins the contract that makes the serving layer's incremental write
//! path sound: for **random delta sequences** (stacked batches with
//! no-op removals, duplicate additions, and cross-batch cancellation),
//! the overlay graph is **bit-identical** to a from-scratch rebuild of
//! the same edge set — monadic and binary, under all three forced
//! planner strategies — and [`GraphDb::compact`] folds the overlay away
//! without changing a single bit, node id, or interned symbol. Overlays
//! are per-label copy-on-write, so the suite also keeps every
//! intermediate handle of a sequence alive and re-checks it after the
//! later batches ran: a receiver is never changed by deriving from it.
//!
//! The reference is an independent model: a plain `HashSet` of edges
//! mutated by `(G ∖ remove) ∪ add` per batch, rebuilt through
//! [`GraphBuilder`] — not `compact()`, which shares the overlay-aware
//! edge iterator with the code under test.
//!
//! The same batches drive [`EvalPool::patch`]: an answer patched batch
//! after batch, and every reached set its footprint keeps, equal a
//! from-scratch evaluation on the `compact()` of the post-delta graph,
//! and each reached set also equals its own oracle — the query
//! re-targeted to that state, evaluated from scratch.

use pathlearn_automata::{Alphabet, BitSet, Dfa, Regex, Symbol};
use pathlearn_graph::eval::{eval_binary_from, eval_monadic, Batch, EvalScratch, Goal};
use pathlearn_graph::plan::plan_query_forced;
use pathlearn_graph::Strategy as EvalStrategy;
use pathlearn_graph::{
    CancelToken, EvalPool, Footprint, GraphBuilder, GraphDb, NodeId, NodeSet, QueryPlan,
};
use proptest::prelude::*;
use std::collections::HashSet;

const LABELS: [&str; 3] = ["a", "b", "c"];

type Edge = (NodeId, Symbol, NodeId);

/// Strategy: a random small graph over {a, b, c}, possibly
/// disconnected, with self-loops and parallel labels (the shape space
/// of the engine and planner differential suites).
fn arb_graph() -> impl Strategy<Value = GraphDb> {
    (
        1usize..10,
        proptest::collection::vec((0u32..10, 0usize..3, 0u32..10), 0..30),
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

type RawEdge = (u32, usize, u32);
type RawBatch = (Vec<RawEdge>, Vec<RawEdge>);

/// Strategy: a sequence of 1..5 delta batches, each a pile of raw
/// `(src, sym, dst)` additions and removals. Ids are taken mod the
/// graph size at application time, so batches freely hit absent edges
/// (no-op removals), present edges (no-op additions), and each other
/// (cross-batch cancellation).
fn arb_delta_batches() -> impl Strategy<Value = Vec<RawBatch>> {
    let edge = (0u32..10, 0usize..3, 0u32..10);
    proptest::collection::vec(
        (
            proptest::collection::vec(edge.clone(), 0..8),
            proptest::collection::vec(edge, 0..8),
        ),
        1..5,
    )
}

/// Strategy: a random regex AST over {a, b, c}, determinized.
fn arb_query() -> impl Strategy<Value = Dfa> {
    let leaf = prop_oneof![
        Just(Regex::Epsilon),
        (0usize..3).prop_map(|i| Regex::Symbol(Symbol::from_index(i))),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 1..3).prop_map(Regex::concat),
            proptest::collection::vec(inner.clone(), 1..3).prop_map(Regex::alt),
            inner.prop_map(Regex::star),
        ]
    })
    .prop_map(|regex| regex.to_dfa(3))
}

/// Strategy: the query shapes of [`arb_query`], plus deeper regexes of
/// symbols only (more states, no ε shortcut) and raw random DFAs —
/// partial tables, several finals or none, dead and unreachable states,
/// an alphabet smaller than the graph's.
fn arb_any_query() -> impl Strategy<Value = Dfa> {
    let deep = (0usize..3)
        .prop_map(|i| Regex::Symbol(Symbol::from_index(i)))
        .prop_recursive(4, 24, 3, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 1..4).prop_map(Regex::concat),
                proptest::collection::vec(inner.clone(), 1..3).prop_map(Regex::alt),
                inner.prop_map(Regex::star),
            ]
        })
        .prop_map(|regex| regex.to_dfa(3));
    let raw = (
        1usize..6,
        1usize..4,
        proptest::collection::vec((0usize..6, 0usize..4, 0usize..6), 0..24),
        proptest::collection::vec(0usize..6, 0..6),
    )
        .prop_map(|(states, sigma, transitions, finals)| {
            let mut dfa = Dfa::new(states, sigma, 0);
            for (p, sym, q) in transitions {
                let (p, q) = ((p % states) as u32, (q % states) as u32);
                dfa.set_transition(p, Symbol::from_index(sym % sigma), q);
            }
            for f in finals {
                dfa.set_final((f % states) as u32);
            }
            dfa
        });
    prop_oneof![arb_query(), deep, raw]
}

/// Rebuilds `base`'s node set with exactly `edges`, through
/// [`GraphBuilder`].
fn rebuild(base: &GraphDb, edges: &HashSet<Edge>) -> GraphDb {
    let mut builder = GraphBuilder::with_alphabet(base.alphabet().clone());
    for node in base.nodes() {
        builder.add_node(base.node_name(node));
    }
    for &(src, sym, dst) in edges {
        builder.add_edge_ids(src, sym, dst);
    }
    builder.build()
}

/// Applies the batches twice in lockstep: to the overlay graph via
/// stacked [`GraphDb::with_delta`], and to the reference edge set in
/// plain Rust. Returns every intermediate `(overlay, model-rebuilt
/// graph)` pair, one per batch, all still alive: each overlay is the
/// receiver of the next batch.
fn apply_batches(base: &GraphDb, batches: &[RawBatch]) -> Vec<(GraphDb, GraphDb)> {
    let n = base.num_nodes() as u32;
    let fix = |edges: &[RawEdge]| -> Vec<Edge> {
        edges
            .iter()
            .map(|&(s, sym, d)| (s % n, Symbol::from_index(sym), d % n))
            .collect()
    };
    let mut overlay = base.clone();
    let mut model: HashSet<Edge> = base.edges().collect();
    let mut steps = Vec::with_capacity(batches.len());
    for (add, remove) in batches {
        let (add, remove) = (fix(add), fix(remove));
        overlay = overlay
            .with_delta(&add, &remove)
            .expect("in-range delta must apply");
        // `(G ∖ remove) ∪ add`: an edge in both lists ends up present.
        for edge in &remove {
            model.remove(edge);
        }
        for &edge in &add {
            model.insert(edge);
        }
        steps.push((overlay.clone(), rebuild(base, &model)));
    }
    steps
}

/// The final `(overlay, reference)` pair of [`apply_batches`].
fn apply_all(base: &GraphDb, batches: &[RawBatch]) -> (GraphDb, GraphDb) {
    apply_batches(base, batches)
        .pop()
        .expect("at least one batch")
}

/// The full strategy matrix on one (graph, query) pair: overlay vs
/// reference, monadic and binary from every source, all three forced
/// strategies, through one reused scratch.
fn assert_delta_matrix(
    overlay: &GraphDb,
    reference: &GraphDb,
    query: &Dfa,
) -> Result<(), TestCaseError> {
    let never = CancelToken::never();
    let mut scratch = EvalScratch::new();
    let pool = EvalPool::sequential();

    let expected = eval_monadic(query, reference);
    prop_assert_eq!(
        &eval_monadic(query, overlay),
        &expected,
        "plain monadic eval disagrees on the overlay"
    );
    for forced in EvalStrategy::ALL {
        // Plans are built ON the overlay graph — the planner's estimates
        // and reversed automata must digest delta-carrying handles.
        let plan = plan_query_forced(query, overlay, forced);
        prop_assert_eq!(
            &pool
                .evaluate(&mut scratch, &plan, overlay, Goal::Monadic, &never)
                .unwrap(),
            &expected,
            "overlay monadic disagrees under forced {}",
            forced
        );
        for source in overlay.nodes() {
            let expected_binary = eval_binary_from(query, reference, source);
            prop_assert_eq!(
                &pool
                    .evaluate(
                        &mut scratch,
                        &plan,
                        overlay,
                        Goal::BinaryFrom(source),
                        &never
                    )
                    .unwrap(),
                &expected_binary,
                "overlay binary disagrees under forced {} from {}",
                forced,
                source
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The tentpole invariant: random delta sequences leave the overlay
    /// graph bit-identical to an independent rebuild of the same edge
    /// set — structurally (edge list, per-edge counts, degree views)
    /// and observably (every evaluator, every strategy).
    #[test]
    fn overlay_is_bit_identical_to_a_rebuild(
        graph in arb_graph(),
        batches in arb_delta_batches(),
        query in arb_query(),
    ) {
        let (overlay, reference) = apply_all(&graph, &batches);

        // Structure first: same effective edge set, same count.
        let overlay_edges: HashSet<Edge> = overlay.edges().collect();
        let reference_edges: HashSet<Edge> = reference.edges().collect();
        prop_assert_eq!(&overlay_edges, &reference_edges);
        prop_assert_eq!(overlay.num_edges(), reference.num_edges());
        prop_assert_eq!(overlay.num_nodes(), reference.num_nodes());

        assert_delta_matrix(&overlay, &reference, &query)?;
    }

    /// Handles are snapshots under copy-on-write: a batch deep-copies
    /// the labels it changes and shares the rest with its receiver, so
    /// a write through a still-shared label would corrupt an older
    /// handle. Every intermediate handle of the sequence, re-checked
    /// only after all later batches ran, must still equal the rebuild
    /// of its own edge set — edge for edge, monadic, and binary from a
    /// few sources.
    #[test]
    fn every_receiver_is_untouched_by_later_batches(
        graph in arb_graph(),
        batches in arb_delta_batches(),
        query in arb_query(),
    ) {
        for (step, (overlay, reference)) in apply_batches(&graph, &batches).iter().enumerate() {
            let overlay_edges: HashSet<Edge> = overlay.edges().collect();
            let reference_edges: HashSet<Edge> = reference.edges().collect();
            prop_assert_eq!(&overlay_edges, &reference_edges, "step {}", step);
            prop_assert_eq!(overlay.num_edges(), reference.num_edges(), "step {}", step);
            prop_assert_eq!(
                &eval_monadic(&query, overlay),
                &eval_monadic(&query, reference),
                "monadic, step {}",
                step
            );
            for source in overlay.nodes().take(3) {
                prop_assert_eq!(
                    &eval_binary_from(&query, overlay, source),
                    &eval_binary_from(&query, reference, source),
                    "binary from {}, step {}",
                    source,
                    step
                );
            }
        }
    }

    /// Compaction is invisible: folding the overlay into a fresh CSR
    /// preserves node ids, names, the alphabet, and every bit of every
    /// answer — and a compacted graph carries no overlay.
    #[test]
    fn compaction_preserves_ids_and_answers(
        graph in arb_graph(),
        batches in arb_delta_batches(),
        query in arb_query(),
    ) {
        let (overlay, _) = apply_all(&graph, &batches);
        let compacted = overlay.compact();
        prop_assert!(!compacted.has_delta());
        prop_assert_eq!(compacted.delta_edges(), 0);
        prop_assert_eq!(compacted.num_nodes(), overlay.num_nodes());
        prop_assert_eq!(compacted.num_edges(), overlay.num_edges());
        for node in overlay.nodes() {
            prop_assert_eq!(compacted.node_name(node), overlay.node_name(node));
        }
        prop_assert_eq!(
            &eval_monadic(&query, &compacted),
            &eval_monadic(&query, &overlay)
        );
        for source in overlay.nodes() {
            prop_assert_eq!(
                &eval_binary_from(&query, &compacted, source),
                &eval_binary_from(&query, &overlay, source)
            );
        }
    }

    /// Delta algebra: applying a batch and then its exact inverse (in
    /// a second batch, so cancellation crosses batches) returns to a
    /// delta-free handle answering exactly like the original.
    #[test]
    fn inverse_batches_cancel_to_the_base_graph(
        graph in arb_graph(),
        edges in proptest::collection::vec((0u32..10, 0usize..3, 0u32..10), 1..8),
        query in arb_query(),
    ) {
        let n = graph.num_nodes() as u32;
        let batch: Vec<Edge> = edges
            .iter()
            .map(|&(s, sym, d)| (s % n, Symbol::from_index(sym), d % n))
            .collect();
        // Only genuinely-new edges: adding a present edge is a no-op,
        // so its "inverse" removal would NOT round-trip (it would
        // delete a base edge) — the inverse of a no-op is nothing.
        let base_edges: HashSet<Edge> = graph.edges().collect();
        let fresh: Vec<Edge> = {
            let mut seen = HashSet::new();
            batch
                .into_iter()
                .filter(|e| !base_edges.contains(e) && seen.insert(*e))
                .collect()
        };
        let patched = graph.with_delta(&fresh, &[]).unwrap();
        prop_assert_eq!(patched.num_edges(), graph.num_edges() + fresh.len());
        let undone = patched.with_delta(&[], &fresh).unwrap();
        prop_assert!(!undone.has_delta(), "full cancellation must drop the overlay");
        prop_assert_eq!(undone.num_edges(), graph.num_edges());
        prop_assert_eq!(&eval_monadic(&query, &undone), &eval_monadic(&query, &graph));
    }
}

/// Fixed shapes the random sweep is unlikely to pin precisely:
/// removing every edge of one label (the label's active sets must go
/// empty, not stale), and an overlay larger than the base graph.
#[test]
fn fixed_delta_shapes() {
    let mut builder = GraphBuilder::with_alphabet(Alphabet::from_labels(LABELS));
    builder.add_edge("x", "a", "y");
    builder.add_edge("y", "a", "z");
    builder.add_edge("y", "b", "x");
    builder.add_node("lonely");
    let graph = builder.build();
    let a = graph.alphabet().symbol("a").unwrap();
    let b = graph.alphabet().symbol("b").unwrap();
    let (x, y, z) = (
        graph.node_id("x").unwrap(),
        graph.node_id("y").unwrap(),
        graph.node_id("z").unwrap(),
    );

    // Erase every a-edge: a-queries must go empty through the overlay.
    let no_a = graph.with_delta(&[], &[(x, a, y), (y, a, z)]).unwrap();
    let qa = Regex::parse("a", graph.alphabet()).unwrap().to_dfa(3);
    assert!(eval_monadic(&qa, &no_a).is_empty());
    assert_eq!(eval_monadic(&qa, &no_a), eval_monadic(&qa, &no_a.compact()));

    // An overlay bigger than the base: a full clique of b-edges over 4
    // nodes (16 additions on a 3-edge base).
    let mut clique = Vec::new();
    for src in 0..4u32 {
        for dst in 0..4u32 {
            clique.push((src, b, dst));
        }
    }
    let dense = graph.with_delta(&clique, &[]).unwrap();
    let qb = Regex::parse("b·b", graph.alphabet()).unwrap().to_dfa(3);
    let expected = eval_monadic(&qb, &dense.compact());
    assert_eq!(eval_monadic(&qb, &dense), expected);
    assert_eq!(expected.len(), 4, "every clique node starts a b·b path");

    // Out-of-range endpoints and labels fail loudly, not silently.
    assert!(graph.with_delta(&[(99, a, x)], &[]).is_err());
    assert!(graph
        .with_delta(&[], &[(x, Symbol::from_index(7), y)])
        .is_err());
}

/// A batch for the patch suite: an optional label every edge of the
/// batch is moved to (so batches that add and remove edges of one label
/// are common), raw additions and removals (ids mod the node count), and
/// removals of present edges (indices into the current edge list of the
/// batch's label, or of every label).
type PatchBatch = (Option<usize>, Vec<RawEdge>, Vec<RawEdge>, Vec<usize>);

fn arb_patch_batches() -> impl Strategy<Value = Vec<PatchBatch>> {
    arb_patch_batches_over(10)
}

/// [`arb_patch_batches`] with raw node ids below `nodes`.
fn arb_patch_batches_over(nodes: u32) -> impl Strategy<Value = Vec<PatchBatch>> {
    let edge = (0u32..nodes, 0usize..3, 0u32..nodes);
    proptest::collection::vec(
        (
            proptest::option::of(0usize..3),
            proptest::collection::vec(edge.clone(), 0..5),
            proptest::collection::vec(edge, 0..4),
            proptest::collection::vec(0usize..64, 0..4),
        ),
        1..5,
    )
}

/// Resolves a patch batch against the graph it applies to.
fn resolve(graph: &GraphDb, (label, add, remove, present): &PatchBatch) -> (Vec<Edge>, Vec<Edge>) {
    let n = graph.num_nodes() as u32;
    let fix = |&(s, sym, d): &RawEdge| (s % n, Symbol::from_index(label.unwrap_or(sym)), d % n);
    let add: Vec<Edge> = add.iter().map(fix).collect();
    let mut remove: Vec<Edge> = remove.iter().map(fix).collect();
    let edges: Vec<Edge> = graph
        .edges()
        .filter(|&(_, sym, _)| label.is_none_or(|label| sym.index() == label))
        .collect();
    if !edges.is_empty() {
        remove.extend(present.iter().map(|&i| edges[i % edges.len()]));
    }
    (add, remove)
}

/// `query` with its initial state and its finals replaced.
fn retarget(query: &Dfa, initial: usize, finals: &[usize]) -> Dfa {
    let mut dfa = Dfa::new(query.num_states(), query.alphabet_len(), initial as u32);
    for (p, sym, q) in query.transitions() {
        dfa.set_transition(p, sym, q);
    }
    for &f in finals {
        dfa.set_final(f as u32);
    }
    dfa
}

fn members(set: &NodeSet, n: usize) -> BitSet {
    BitSet::from_indices(n, (0..n).filter(|&node| set.contains(node as NodeId)))
}

/// Every reached set `footprint` keeps equals its oracle on `graph`: a
/// monadic `reached[q]` is what the query started at `q` selects; a
/// forward `reached[q]` is where the query's paths from the source end
/// at `q`.
fn assert_reached_sets(
    footprint: &Footprint,
    query: &Dfa,
    graph: &GraphDb,
) -> Result<(), TestCaseError> {
    let n = graph.num_nodes();
    match footprint {
        Footprint::Monadic(sets) => {
            let finals: Vec<usize> = query.finals().iter().collect();
            for (q, set) in sets.iter().enumerate() {
                if let Some(set) = set {
                    let expected = eval_monadic(&retarget(query, q, &finals), graph);
                    prop_assert_eq!(&members(set, n), &expected, "monadic reached[{}]", q);
                }
            }
        }
        Footprint::Forward { source, reached } => {
            let q0 = query.initial() as usize;
            for (q, set) in reached.iter().enumerate() {
                if let Some(set) = set {
                    let expected = eval_binary_from(&retarget(query, q0, &[q]), graph, *source);
                    prop_assert_eq!(&members(set, n), &expected, "forward reached[{}]", q);
                }
            }
        }
    }
    Ok(())
}

/// The monadic answer and the binary answer from every source of
/// `query` on `graph`, each with the footprint its evaluation left,
/// where it left one.
fn footprinted_answers(
    query: &Dfa,
    graph: &GraphDb,
    scratch: &mut EvalScratch,
) -> Vec<(Goal, BitSet, Footprint)> {
    let plan = QueryPlan::forward(query);
    let never = CancelToken::never();
    std::iter::once(Goal::Monadic)
        .chain(graph.nodes().map(Goal::BinaryFrom))
        .filter_map(|goal| {
            let answer = EvalPool::sequential()
                .evaluate(scratch, &plan, graph, goal, &never)
                .unwrap();
            scratch
                .footprint(&plan)
                .map(|footprint| (goal, answer, footprint))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Patching is evaluation: batch after batch, every patched answer
    /// and every reached set its footprint keeps equal a from-scratch
    /// evaluation on the `compact()` of the post-delta graph — monadic
    /// and forward binary from every source, whether the batch's
    /// graphs are overlays or compacted. A batch the footprint test
    /// says misses the answer leaves it and its footprint as they were.
    #[test]
    fn patched_answers_and_reached_sets_equal_a_fresh_evaluation(
        graph in arb_graph(),
        batches in arb_patch_batches(),
        query in arb_query(),
    ) {
        let pool = EvalPool::sequential();
        let plan = QueryPlan::forward(&query);
        let never = CancelToken::never();
        let (mut scratch, mut patching) = (EvalScratch::new(), EvalScratch::new());
        let mut entries = footprinted_answers(&query, &graph, &mut scratch);
        let mut before = graph;
        for (step, raw) in batches.iter().enumerate() {
            let (add, remove) = resolve(&before, raw);
            let mut after = before.with_delta(&add, &remove).expect("in-range batch");
            if step % 2 == 1 {
                after = after.compact();
            }
            let compacted = after.compact();
            let batch = Batch { before: &before, after: &after, add: &add, remove: &remove };
            for (goal, answer, footprint) in &mut entries {
                let (patched, patched_footprint) = pool
                    .patch(&mut patching, &query, answer.clone(), footprint.clone(), &batch, u64::MAX)
                    .expect("an unbounded patch completes");
                let fresh = pool.evaluate(&mut scratch, &plan, &compacted, *goal, &never).unwrap();
                prop_assert_eq!(&patched, &fresh, "{:?} after batch {}", goal, step);
                if let Some(fresh_footprint) = scratch.footprint(&plan) {
                    prop_assert_eq!(&patched_footprint, &fresh_footprint, "{:?} after batch {}", goal, step);
                }
                assert_reached_sets(&patched_footprint, &query, &compacted)?;
                if !footprint.hit_by(&query, answer, &add, &remove) {
                    prop_assert_eq!(&patched, &*answer, "{:?}: a missed answer changed", goal);
                    prop_assert_eq!(&patched_footprint, &*footprint, "{:?}: a missed footprint changed", goal);
                }
                *answer = patched;
                *footprint = patched_footprint;
            }
            before = after;
        }
    }

    /// A patch past its budget is refused, and consumes the inputs it
    /// was handed — here clones. With no work to spend, exactly the
    /// batches the footprint test says hit the answer are refused; the
    /// scratch an aborted patch ran in then patches exactly.
    #[test]
    fn an_aborted_patch_is_refused_exactly_on_a_hit(
        graph in arb_graph(),
        batches in arb_patch_batches(),
        query in arb_query(),
    ) {
        let pool = EvalPool::sequential();
        let plan = QueryPlan::forward(&query);
        let mut scratch = EvalScratch::new();
        let entries = footprinted_answers(&query, &graph, &mut scratch);
        let (add, remove) = resolve(&graph, &batches[0]);
        let after = graph.with_delta(&add, &remove).expect("in-range batch");
        let compacted = after.compact();
        let batch = Batch { before: &graph, after: &after, add: &add, remove: &remove };
        for (goal, answer, footprint) in entries {
            let patched = pool.patch(&mut scratch, &query, answer.clone(), footprint.clone(), &batch, 0);
            prop_assert_eq!(
                patched.is_none(),
                footprint.hit_by(&query, &answer, &add, &remove),
                "{:?}",
                goal
            );
            let (patched, _) = pool
                .patch(&mut scratch, &query, answer, footprint, &batch, u64::MAX)
                .expect("an unbounded patch completes");
            let fresh = pool
                .evaluate(&mut EvalScratch::new(), &plan, &compacted, goal, &CancelToken::never())
                .unwrap();
            prop_assert_eq!(&patched, &fresh, "{:?}", goal);
        }
    }
}

/// Strategy: a graph of 512–767 nodes, eight to twelve bitset words,
/// with at most two edges a node on average, so a search's levels of a
/// few pairs are lists (they are shorter than the word count) and the
/// levels it grows past that, or merges a dense step into, go dense.
fn arb_wide_graph() -> impl Strategy<Value = GraphDb> {
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

/// The monadic goal and the binary goals from a spread of sources: on a
/// wide graph, evaluating from every node would be too slow to repeat.
fn sampled_goals(graph: &GraphDb) -> Vec<Goal> {
    let n = graph.num_nodes() as u32;
    let step = (n / 6).max(1);
    std::iter::once(Goal::Monadic)
        .chain((0..n).step_by(step as usize).map(Goal::BinaryFrom))
        .collect()
}

/// The answer a fresh scratch gives for `goal`, and the footprint it
/// leaves.
fn fresh_evaluation(query: &Dfa, graph: &GraphDb, goal: Goal) -> (BitSet, Option<Footprint>) {
    let plan = QueryPlan::forward(query);
    let mut scratch = EvalScratch::new();
    let answer = EvalPool::sequential()
        .evaluate(&mut scratch, &plan, graph, goal, &CancelToken::never())
        .unwrap();
    (answer, scratch.footprint(&plan))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// One scratch reused for everything stays exact. It patches the
    /// entries of two queries in turn, refusing some patches at budget
    /// 0 first, and between patches evaluates the other query, monadic
    /// and binary. Every patched answer and footprint equals what a
    /// fresh scratch's patch gives, and every evaluation's answer and
    /// footprint what a fresh scratch's evaluation gives: a bit a list
    /// level or a moved buffer left behind would show. Half the graphs
    /// are wide and sparse, so levels run as lists and some go dense.
    #[test]
    fn one_scratch_stays_exact_through_patches_and_evaluations(
        graph in prop_oneof![arb_graph(), arb_wide_graph()],
        batches in arb_patch_batches_over(768),
        queries in (arb_any_query(), arb_any_query()),
    ) {
        let pool = EvalPool::sequential();
        let never = CancelToken::never();
        let queries = [queries.0, queries.1];
        let plans = queries.each_ref().map(QueryPlan::forward);
        let mut shared = EvalScratch::new();
        let mut entries: Vec<(usize, Goal, BitSet, Footprint)> = Vec::new();
        for goal in sampled_goals(&graph) {
            for (which, query) in queries.iter().enumerate() {
                let (answer, footprint) = fresh_evaluation(query, &graph, goal);
                if let Some(footprint) = footprint {
                    entries.push((which, goal, answer, footprint));
                }
            }
        }
        let mut before = graph;
        for (step, raw) in batches.iter().enumerate() {
            let (add, remove) = resolve(&before, raw);
            let after = before.with_delta(&add, &remove).expect("in-range batch");
            let batch = Batch { before: &before, after: &after, add: &add, remove: &remove };
            for (turn, (which, goal, answer, footprint)) in entries.iter_mut().enumerate() {
                let query = &queries[*which];
                if turn % 2 == 0 && footprint.hit_by(query, answer, &add, &remove) {
                    let refused =
                        pool.patch(&mut shared, query, answer.clone(), footprint.clone(), &batch, 0);
                    prop_assert!(refused.is_none(), "{:?}: a hit patched for free", goal);
                }
                let expected = pool
                    .patch(&mut EvalScratch::new(), query, answer.clone(), footprint.clone(), &batch, u64::MAX)
                    .expect("an unbounded patch completes");
                let patched = pool
                    .patch(&mut shared, query, answer.clone(), footprint.clone(), &batch, u64::MAX)
                    .expect("an unbounded patch completes");
                prop_assert_eq!(&patched, &expected, "{:?} of query {} after batch {}", goal, which, step);
                (*answer, *footprint) = patched;
                // The other query, evaluated in the same scratch.
                let other = 1 - *which;
                let evaluated = pool.evaluate(&mut shared, &plans[other], &after, *goal, &never).unwrap();
                prop_assert_eq!(
                    (evaluated, shared.footprint(&plans[other])),
                    fresh_evaluation(&queries[other], &after, *goal),
                    "{:?} of query {} after batch {}", goal, other, step
                );
            }
            before = after;
        }
    }
}
