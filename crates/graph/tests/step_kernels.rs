//! Kernel-level tests for the frontier step kernel.
//!
//! The evaluators only ever reach the kernel through whole queries; here
//! [`GraphDb::step_into`] and [`GraphDb::step`] are driven directly, as
//! **one matrix** — `Dir::{Out, In}` × every [`StepPlan`] valid for the
//! frontier (plain and sparse always; skip when the frontier
//! misses the label's active set, covered when it holds all of it) —
//! against one per-node adjacency oracle, on adversarial frontiers
//! (empty, full `|V|`, a single word, word-boundary straddlers, and per
//! label and direction the active set itself, alone and with a comb on
//! top) over graph sizes chosen to hit every block-layout edge (1, 63,
//! 64, 65, 130 nodes), plus proptest-randomized graphs and frontiers.
//! The same matrix then runs on **overlay graphs**
//! ([`GraphDb::with_delta`]) against the base slices of their
//! [`GraphDb::compact`], so the kernel's overlay arms — and the covered
//! copy of an overlay's recomputed bitmaps — are checked too. The
//! invariants:
//!
//! * every cell of the matrix ≡ the oracle, [`GraphDb::step_into`]
//!   clearing stale scratch;
//! * the sparse step ≡ the `Dir::Out` oracle;
//! * out-of-alphabet symbols yield empty output in every cell.
//!
//! The [`StepPlan::Sparse`] verdict gets its own graphs, large enough
//! (256 words) that `Auto` plans it for frontiers of up to 65 nodes:
//! there [`GraphDb::step_visit`] — the visitor form the level
//! kernel merges from — must visit exactly the oracle's endpoints,
//! report the frontier productive exactly when it meets the label, and
//! do both on overlays against their compacted rebuild.

use pathlearn_automata::{Alphabet, BitSet, Symbol};
use pathlearn_graph::{Dir, GraphBuilder, GraphDb, NodeId, StepPlan, StepPolicy};
use proptest::prelude::*;

const LABELS: [&str; 3] = ["a", "b", "c"];

type Edge = (NodeId, Symbol, NodeId);

/// Per-node adjacency oracle for one step in `dir`: the union of the
/// frontier nodes' **base** slices. Overlay graphs are checked against
/// the oracle of their compacted rebuild, whose base slices are the
/// effective edges.
fn oracle(reference: &GraphDb, dir: Dir, frontier: &BitSet, sym: Symbol) -> BitSet {
    assert!(!reference.has_delta(), "the oracle reads base slices");
    let mut out = BitSet::new(reference.num_nodes());
    for node in frontier.iter() {
        for &(_, endpoint) in reference.neighbors(dir, node as NodeId, sym) {
            out.insert(endpoint as usize);
        }
    }
    out
}

/// A deterministic n-node graph with edges of all three labels laid out
/// to cross word boundaries: label `a` is a ring (every node active both
/// directions), label `b` connects every third node (mixed density),
/// label `c` has exactly one edge between the last and first node
/// (sparse extreme; for n == 1 it is a self-loop).
fn layout_graph(n: usize) -> GraphDb {
    let mut builder = GraphBuilder::with_alphabet(Alphabet::from_labels(LABELS));
    let first = builder.add_nodes("n", n);
    let (a, b, c) = (
        Symbol::from_index(0),
        Symbol::from_index(1),
        Symbol::from_index(2),
    );
    let n = n as u32;
    for i in 0..n {
        builder.add_edge_ids(first + i, a, first + (i + 1) % n);
        if i % 3 == 0 {
            builder.add_edge_ids(first + i, b, first + (i / 2) % n);
        }
    }
    builder.add_edge_ids(first + n - 1, c, first);
    builder.build()
}

/// The adversarial frontier set for an n-node graph: empty, full,
/// single nodes at word boundaries (0, 62, 63, 64, 65, n-1), one full
/// word, a bit pattern straddling the first word boundary, and an
/// every-other-node comb.
fn adversarial_frontiers(n: usize) -> Vec<BitSet> {
    let mut frontiers = vec![
        BitSet::new(n),
        BitSet::full(n),
        BitSet::from_indices(n, (0..n).filter(|i| i % 2 == 0)),
        BitSet::from_indices(n, 0..n.min(64)),
    ];
    for boundary in [0usize, 62, 63, 64, 65, n - 1] {
        if boundary < n {
            frontiers.push(BitSet::from_indices(n, [boundary]));
        }
    }
    if n > 64 {
        // Straddle the first word boundary: bits 60..=67 (clamped).
        frontiers.push(BitSet::from_indices(n, (60..68).filter(|&i| i < n)));
    }
    frontiers
}

/// The plans the kernel may execute on `frontier` over `sym` in `dir`:
/// the two kernels always (`Sparse` is a verdict about the frontier's
/// size, which only costs, never changes, the answer), and each verdict
/// whose precondition the frontier meets.
fn valid_plans(graph: &GraphDb, dir: Dir, frontier: &BitSet, sym: Symbol) -> Vec<StepPlan> {
    let inter = frontier.intersection_len(graph.label_active(dir, sym));
    let mut plans = vec![StepPlan::Plain, StepPlan::Sparse];
    if inter == 0 {
        plans.push(StepPlan::Skip);
    }
    if inter == graph.label_active_count(dir, sym) {
        plans.push(StepPlan::Covered);
    }
    plans
}

/// The whole matrix for one `(frontier, symbol)`: the kernels run on
/// `graph`, the oracle reads `reference` (`graph` itself when it is
/// delta-free, its compacted rebuild when it carries an overlay).
fn assert_kernel_matrix(graph: &GraphDb, reference: &GraphDb, frontier: &BitSet, sym: Symbol) {
    let n = graph.num_nodes();
    for dir in Dir::BOTH {
        let expected = oracle(reference, dir, frontier, sym);
        assert_eq!(graph.step(dir, frontier, sym), expected, "{dir:?} step");
        for plan in valid_plans(graph, dir, frontier, sym) {
            // Stale scratch, cleared by the step.
            let mut out = BitSet::full(n);
            graph.step_into(dir, plan, frontier, sym, &mut out);
            assert_eq!(out, expected, "{dir:?} {plan:?}");
        }
    }

    // The sparse step on the frontier's index list.
    let sparse_set: Vec<NodeId> = frontier.iter().map(|i| i as NodeId).collect();
    let mut sparse = vec![99 as NodeId]; // stale content
    graph.step_sparse_into(&sparse_set, sym, &mut sparse);
    let expected = oracle(reference, Dir::Out, frontier, sym);
    assert_eq!(
        sparse,
        expected.iter().map(|i| i as NodeId).collect::<Vec<_>>(),
        "sparse vs oracle"
    );
}

/// Frontiers that hold the whole active set of `sym` in `dir`: the set
/// itself, and the set with an every-third-node comb on top.
fn covering_frontiers(graph: &GraphDb, dir: Dir, sym: Symbol) -> [BitSet; 2] {
    let active = graph.label_active(dir, sym).clone();
    let mut combed = BitSet::from_indices(graph.num_nodes(), (0..graph.num_nodes()).step_by(3));
    combed.union_with(&active);
    [active, combed]
}

/// [`assert_kernel_matrix`] over every symbol, the given frontiers and
/// each symbol's covering frontiers in both directions. An overlay graph
/// is checked against its compacted rebuild.
fn assert_kernel_matrix_on(graph: &GraphDb, frontiers: &[BitSet]) {
    let reference = graph.compact();
    for sym in graph.alphabet().symbols() {
        for frontier in frontiers {
            assert_kernel_matrix(graph, &reference, frontier, sym);
        }
        for dir in Dir::BOTH {
            for frontier in &covering_frontiers(graph, dir, sym) {
                assert_kernel_matrix(graph, &reference, frontier, sym);
            }
        }
    }
}

#[test]
fn adversarial_frontiers_on_layout_graphs() {
    for n in [1usize, 63, 64, 65, 130] {
        assert_kernel_matrix_on(&layout_graph(n), &adversarial_frontiers(n));
    }
}

#[test]
fn out_of_alphabet_symbol_is_empty_at_every_kernel() {
    let graph = layout_graph(70);
    let foreign = Symbol::from_index(17);
    let frontier = BitSet::full(70);
    for dir in Dir::BOTH {
        assert!(graph.step(dir, &frontier, foreign).is_empty());
        assert_eq!(
            graph.plan_step(dir, &frontier, foreign, 70, StepPolicy::Auto),
            StepPlan::Skip
        );
        for plan in [StepPlan::Plain, StepPlan::Covered, StepPlan::Sparse] {
            let mut out = BitSet::full(70);
            graph.step_into(dir, plan, &frontier, foreign, &mut out);
            assert!(out.is_empty(), "{dir:?} {plan:?}");
        }
    }
    let mut sparse = vec![1];
    graph.step_sparse_into(&[0, 1, 69], foreign, &mut sparse);
    assert!(sparse.is_empty());
}

#[test]
fn empty_range_is_a_no_op() {
    // An empty frontier, stepped whole: every plan it admits (all but
    // Covered, which needs the label's active set) clears the stale
    // scratch and adds nothing, and the visitor sees no endpoint.
    let graph = layout_graph(70);
    let a = Symbol::from_index(0);
    let frontier = BitSet::new(70);
    for dir in Dir::BOTH {
        for plan in [StepPlan::Skip, StepPlan::Plain, StepPlan::Sparse] {
            let mut out = BitSet::from_indices(70, [5]);
            graph.step_into(dir, plan, &frontier, a, &mut out);
            assert!(out.is_empty(), "{dir:?} {plan:?}");
        }
        assert!(!graph.step_visit(dir, &frontier, a, |node| panic!("visited {node}")));
    }
}

/// The effective edges of `graph` carrying `sym`.
fn edges_labeled(graph: &GraphDb, sym: Symbol) -> Vec<Edge> {
    graph.edges().filter(|&(_, s, _)| s == sym).collect()
}

/// Overlays on the multi-word layout graphs, each checked against its
/// compacted rebuild across the whole matrix: a mixed batch whose
/// additions and removals sit on both sides of the word boundaries, the
/// same with one label erased entirely (base edge removed, overlay
/// additions cancelled), and batches cancelled across `with_delta`
/// calls — one label's slot reverting while the others stay, and the
/// whole overlay reverting to the delta-free handle.
#[test]
fn overlay_kernels_match_compacted_on_layout_graphs() {
    let (a, b, c) = (
        Symbol::from_index(0),
        Symbol::from_index(1),
        Symbol::from_index(2),
    );
    for n in [65usize, 130] {
        let base = layout_graph(n);
        let frontiers = adversarial_frontiers(n);
        let last = n as NodeId - 1;
        let add = [
            (62, c, 64),
            (64, c, 1),
            (last, c, last),
            (1, b, last),
            (64, a, 2),
            (last, a, 63),
        ];
        let remove = [
            (0, a, 1),
            (63, a, 64),
            (64, a, (65 % n) as NodeId),
            (last - 2, a, last - 1),
            (0, b, 0),
            (63, b, 31),
        ];
        let mixed = base.with_delta(&add, &remove).unwrap();
        assert_eq!(mixed.delta_edges(), add.len() + remove.len());
        assert_kernel_matrix_on(&mixed, &frontiers);

        // Every c-edge gone, base and overlay-added alike.
        let erased = mixed.with_delta(&[], &edges_labeled(&mixed, c)).unwrap();
        assert!(erased.has_delta());
        assert!(edges_labeled(&erased, c).is_empty());
        for dir in Dir::BOTH {
            assert!(erased.label_active(dir, c).is_empty(), "{dir:?}");
        }
        assert_kernel_matrix_on(&erased, &frontiers);

        // A batch cancelled by the next one: the b-slot it opened on a
        // graph whose other labels keep their deltas must behave as if
        // it had never been touched.
        let extra_b = [(2, b, 64), (65 % n as NodeId, b, 1)];
        let recancelled = erased
            .with_delta(&extra_b, &[])
            .unwrap()
            .with_delta(&[], &extra_b)
            .unwrap();
        assert_eq!(recancelled.delta_edges(), erased.delta_edges());
        assert_kernel_matrix_on(&recancelled, &frontiers);

        // Undoing everything returns the delta-free handle.
        let undone = mixed.with_delta(&remove, &add).unwrap();
        assert!(!undone.has_delta());
        for frontier in &frontiers {
            for sym in base.alphabet().symbols() {
                assert_kernel_matrix(&undone, &base, frontier, sym);
            }
        }
    }
}

/// The covered verdict on overlays whose deltas move a label's active
/// sets: one gives nodes their first edge of a label (in both
/// directions), one takes a node's only edge of a label away. A covering
/// frontier must plan `Covered` on the overlay's recomputed bitmaps, and
/// its copy must match the oracle — a stale bitmap would drop the new
/// endpoint or keep the removed one.
#[test]
fn covered_steps_follow_overlay_active_sets() {
    let (b, c) = (Symbol::from_index(1), Symbol::from_index(2));
    for n in [65usize, 130] {
        let base = layout_graph(n);
        let last = n as NodeId - 1;
        // 62 gets its first out-c-edge and 1 its first in-c-edge; 2 (no
        // b-edge: 2 % 3 != 0) its first out-b-edge.
        let first_edges = base.with_delta(&[(62, c, 1), (2, b, 64)], &[]).unwrap();
        // 63's only b-edge goes, and with it 31's only in-b-edge; the
        // last node's only c-edge goes, and c has no edge left.
        let only_edges = base.with_delta(&[], &[(63, b, 31), (last, c, 0)]).unwrap();
        let cases = [
            (&first_edges, c, Dir::Out, 62, true),
            (&first_edges, c, Dir::In, 1, true),
            (&first_edges, b, Dir::Out, 2, true),
            (&only_edges, b, Dir::Out, 63, false),
            (&only_edges, b, Dir::In, 31, false),
        ];
        for (overlay, sym, dir, node, active) in cases {
            assert_eq!(
                overlay.label_active(dir, sym).contains(node as usize),
                active,
                "n={n} {dir:?} {sym:?} node {node}"
            );
        }
        for dir in Dir::BOTH {
            assert!(only_edges.label_active(dir, c).is_empty());
        }
        for overlay in [&first_edges, &only_edges] {
            let reference = overlay.compact();
            for sym in overlay.alphabet().symbols() {
                for dir in Dir::BOTH {
                    for frontier in &covering_frontiers(overlay, dir, sym) {
                        let plan =
                            overlay.plan_step(dir, frontier, sym, frontier.len(), StepPolicy::Auto);
                        let expected = if overlay.label_active(dir, sym).is_empty() {
                            StepPlan::Skip
                        } else {
                            StepPlan::Covered
                        };
                        assert_eq!(plan, expected, "n={n} {dir:?} {sym:?}");
                        assert_kernel_matrix(overlay, &reference, frontier, sym);
                    }
                }
            }
        }
    }
}

/// Nodes of the sparse-verdict graphs: 256 frontier words, so a
/// 65-node frontier over a label of average degree ≤ 1.5 prices at
/// most 65 · (2 + 1.5) ≤ 256 words and `Auto` plans it sparse.
const SPARSE_NODES: usize = 256 * 64;

/// The frontiers the level kernel steps sparse: one node (first and
/// last), 63 / 64 / 65 nodes from node 0 (inside, exactly, and one past
/// a word), 65 nodes straddling a word boundary, and 64 nodes one word
/// apart each.
fn sparse_frontiers(n: usize) -> Vec<BitSet> {
    vec![
        BitSet::from_indices(n, [0]),
        BitSet::from_indices(n, [n - 1]),
        BitSet::from_indices(n, 0..63),
        BitSet::from_indices(n, 0..64),
        BitSet::from_indices(n, 0..65),
        BitSet::from_indices(n, 100..165),
        BitSet::from_indices(n, (0..64).map(|i| i * 64 + 1)),
    ]
}

/// `Auto` plans every `(frontier, symbol, direction)` that meets the
/// label `Sparse`, and the sparse kernel visits exactly the oracle's
/// endpoints (read off `reference`, the compacted rebuild of an
/// overlay): through the visitor and through [`GraphDb::step_into`].
fn assert_sparse_steps(graph: &GraphDb, reference: &GraphDb) {
    let n = graph.num_nodes();
    for frontier in &sparse_frontiers(n) {
        for sym in graph.alphabet().symbols() {
            for dir in Dir::BOTH {
                let cell = format!("{dir:?} {sym:?} |F|={}", frontier.len());
                let expected = oracle(reference, dir, frontier, sym);
                let meets = frontier.intersection_len(graph.label_active(dir, sym)) > 0;
                let plan = graph.plan_step(dir, frontier, sym, frontier.len(), StepPolicy::Auto);
                if meets {
                    assert_eq!(plan, StepPlan::Sparse, "{cell}");
                }
                let mut visited = BitSet::new(n);
                let productive = graph.step_visit(dir, frontier, sym, |node| {
                    visited.insert(node as usize);
                });
                assert_eq!(visited, expected, "{cell} visit");
                assert_eq!(productive, meets, "{cell} productive");
                let mut out = BitSet::full(n);
                graph.step_into(dir, StepPlan::Sparse, frontier, sym, &mut out);
                assert_eq!(out, expected, "{cell} step_into");
            }
        }
    }
}

#[test]
fn sparse_steps_match_oracle_on_large_graphs() {
    let graph = layout_graph(SPARSE_NODES);
    assert_sparse_steps(&graph, &graph);
}

/// Overlays whose additions and removals land on the sparse frontiers'
/// own nodes and endpoints — node 0, node |V|−1, both sides of the
/// first word boundary — against their compacted rebuild.
#[test]
fn sparse_steps_match_compacted_on_overlays() {
    let (a, b, c) = (
        Symbol::from_index(0),
        Symbol::from_index(1),
        Symbol::from_index(2),
    );
    let base = layout_graph(SPARSE_NODES);
    let last = SPARSE_NODES as NodeId - 1;
    let add = [
        (0, c, 64),
        (63, c, last),
        (64, b, 0),
        (last, b, 65),
        (1, a, 130),
        (129, a, 1),
    ];
    let remove = [
        (0, a, 1),
        (63, a, 64),
        (last, c, 0),
        (0, b, 0),
        (102, b, 51),
    ];
    let overlay = base.with_delta(&add, &remove).unwrap();
    assert_eq!(overlay.delta_edges(), add.len() + remove.len());
    assert_sparse_steps(&overlay, &overlay.compact());
    // Removing every c-edge leaves the label edgeless: skipped, not
    // sparse, and the visitor finds nothing.
    let erased = overlay
        .with_delta(&[], &edges_labeled(&overlay, c))
        .unwrap();
    for dir in Dir::BOTH {
        let one = BitSet::from_indices(SPARSE_NODES, [0]);
        assert_eq!(
            erased.plan_step(dir, &one, c, 1, StepPolicy::Auto),
            StepPlan::Skip
        );
    }
    assert_sparse_steps(&erased, &erased.compact());
}

/// Strategy: a random graph over {a, b, c} with 1..=130 nodes (spanning
/// one to three frontier words) and arbitrary edges, including parallel
/// labels and self-loops.
fn arb_graph() -> impl Strategy<Value = GraphDb> {
    (
        1usize..130,
        proptest::collection::vec((0u32..130, 0usize..3, 0u32..130), 0..120),
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

type RawEdge = (u32, usize, u32);
/// Raw additions, and removals as picks into the current edge list.
type RawBatch = (Vec<RawEdge>, Vec<usize>);

/// Strategy: 1..4 delta batches. Additions are raw `(src, sym, dst)`
/// triples (ids taken mod the graph size, so some re-add present
/// edges); removals index the graph's *current* effective edge list, so
/// they hit base edges and earlier batches' additions instead of
/// missing in a sparse graph.
fn arb_batches() -> impl Strategy<Value = Vec<RawBatch>> {
    proptest::collection::vec(
        (
            proptest::collection::vec((0u32..130, 0usize..3, 0u32..130), 0..12),
            proptest::collection::vec(0usize..1 << 16, 0..12),
        ),
        1..4,
    )
}

fn frontier_from_bits(n: usize, bits: &[bool]) -> BitSet {
    BitSet::from_indices(
        n,
        bits.iter()
            .take(n)
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| i),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random graph × random frontier × every symbol: every cell of the
    /// matrix agrees with the per-node oracle.
    #[test]
    fn kernels_match_oracle_on_random_graphs(
        graph in arb_graph(),
        frontier_bits in proptest::collection::vec(any::<bool>(), 130),
    ) {
        let frontier = frontier_from_bits(graph.num_nodes(), &frontier_bits);
        assert_kernel_matrix_on(&graph, &[frontier]);
    }

    /// The same on overlay graphs: random stacked batches, then one
    /// label erased entirely, then a batch of fresh edges added and
    /// cancelled — after every stage the overlay's kernels agree with
    /// the oracle of its compacted rebuild in every cell.
    #[test]
    fn overlay_kernels_match_compacted_on_random_graphs(
        graph in arb_graph(),
        batches in arb_batches(),
        erased_label in 0usize..3,
        fresh in proptest::collection::vec((0u32..130, 0usize..3, 0u32..130), 1..8),
        frontier_bits in proptest::collection::vec(any::<bool>(), 130),
    ) {
        let n = graph.num_nodes();
        let fix = |edges: &[RawEdge]| -> Vec<Edge> {
            let n = n as u32;
            edges.iter().map(|&(s, sym, d)| (s % n, Symbol::from_index(sym), d % n)).collect()
        };
        let frontiers = [frontier_from_bits(n, &frontier_bits), BitSet::full(n)];

        let mut overlay = graph.clone();
        for (add, picks) in &batches {
            let current: Vec<Edge> = overlay.edges().collect();
            let remove: Vec<Edge> = picks
                .iter()
                .filter(|_| !current.is_empty())
                .map(|pick| current[pick % current.len()])
                .collect();
            overlay = overlay.with_delta(&fix(add), &remove).unwrap();
            assert_kernel_matrix_on(&overlay, &frontiers);
        }

        let sym = Symbol::from_index(erased_label);
        let erased = overlay.with_delta(&[], &edges_labeled(&overlay, sym)).unwrap();
        prop_assert!(edges_labeled(&erased, sym).is_empty());
        assert_kernel_matrix_on(&erased, &frontiers);

        let present: std::collections::HashSet<Edge> = erased.edges().collect();
        let mut fresh = fix(&fresh);
        fresh.retain(|edge| !present.contains(edge));
        let cancelled = erased
            .with_delta(&fresh, &[])
            .unwrap()
            .with_delta(&[], &fresh)
            .unwrap();
        prop_assert_eq!(cancelled.delta_edges(), erased.delta_edges());
        assert_kernel_matrix_on(&cancelled, &frontiers);
    }
}
