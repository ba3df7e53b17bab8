//! The label-major adjacency at its boundaries.
//!
//! Each direction of a [`GraphDb`] stores its edges in `(label, node,
//! endpoint)` order with one offset per **active** `(label, node)` cell,
//! found by rank: the cell of node `v` under `a` is the rank word of
//! `v`'s 64-node word plus the popcount of `a`'s bitmap word below `v`.
//! Label `a`'s run of cells ends exactly where `a + 1`'s begins, so the
//! last active cell of `a` sits next to the first of `a + 1`. Every
//! per-node view ([`GraphDb::edges_of`], [`GraphDb::degree`],
//! [`GraphDb::edges`]) ranks one cell per label, and
//! [`GraphDb::neighbors`] ranks one. This suite checks all of them,
//! plus [`GraphDb::for_each_neighbor`], [`GraphDb::step_sparse_into`]
//! and [`GraphDb::label_active`], in both directions against a naive
//! filter of the edge list — ordering included — on graphs generated to
//! hit the layout's edges: labels without edges, isolated nodes,
//! `|Σ| = 1`, one-node graphs, graphs of three or four bitmap words
//! (every rank word past the first read), and edges at node `|V| − 1`
//! of label `a` beside edges at node 0 of label `a + 1`. Each graph is
//! checked as built, under a [`GraphDb::with_delta`] overlay (the merged
//! views against the overlay's own edge list, the slice accessor against
//! the base list) and compacted. Hand cases pin the word boundaries
//! (nodes 63, 64, 127, 128), a label active on a whole word, a partial
//! last word, and the panic on a node past `|V| − 1` inside that word.

use pathlearn_automata::{Alphabet, BitSet, Symbol};
use pathlearn_graph::{Dir, GraphBuilder, GraphDb, NodeId};
use proptest::prelude::*;
use std::collections::BTreeSet;

type Edge = (NodeId, Symbol, NodeId);

/// The naive model: `(node, label, endpoint)` of every edge seen from
/// `dir`, sorted — a node's `label`-cell is a contiguous range of it.
fn keyed(edges: &BTreeSet<Edge>, dir: Dir) -> BTreeSet<(NodeId, Symbol, NodeId)> {
    edges
        .iter()
        .map(|&(src, sym, dst)| match dir {
            Dir::Out => (src, sym, dst),
            Dir::In => (dst, sym, src),
        })
        .collect()
}

/// Builds a graph over `sigma` labels `l0..` on `n` nodes.
fn build(n: usize, sigma: usize, edges: &BTreeSet<Edge>) -> GraphDb {
    let labels: Vec<String> = (0..sigma).map(|i| format!("l{i}")).collect();
    let mut builder = GraphBuilder::with_alphabet(Alphabet::from_labels(labels));
    builder.add_nodes("n", n);
    for &(src, sym, dst) in edges {
        builder.add_edge_ids(src, sym, dst);
    }
    builder.build()
}

/// Every view of `graph` against `effective` (its edge set, overlay
/// included); the base slices against `base` (the edge set `neighbors`
/// reads, which ignores any overlay).
fn assert_views(graph: &GraphDb, effective: &BTreeSet<Edge>, base: &BTreeSet<Edge>) {
    let n = graph.num_nodes();
    let sigma = graph.alphabet().len();
    assert_eq!(graph.num_edges(), effective.len());
    let listed: Vec<Edge> = graph.edges().collect();
    assert_eq!(
        listed,
        effective.iter().copied().collect::<Vec<_>>(),
        "edges()"
    );
    let foreign = Symbol::from_index(sigma);
    for dir in Dir::BOTH {
        let model = keyed(effective, dir);
        let base_model = keyed(base, dir);
        for node in 0..n as NodeId {
            let row: Vec<(Symbol, NodeId)> = model
                .range((node, Symbol::from_index(0), 0)..=(node, foreign, NodeId::MAX))
                .map(|&(_, sym, endpoint)| (sym, endpoint))
                .collect();
            let walked: Vec<(Symbol, NodeId)> = graph.edges_of(dir, node).collect();
            assert_eq!(walked, row, "edges_of({dir:?}, {node})");
            assert_eq!(
                graph.degree(dir, node),
                row.len(),
                "degree({dir:?}, {node})"
            );
            for sym in graph.alphabet().symbols().chain([foreign]) {
                let cell: Vec<NodeId> = row
                    .iter()
                    .filter(|&&(s, _)| s == sym)
                    .map(|&(_, endpoint)| endpoint)
                    .collect();
                let mut visited = Vec::new();
                graph.for_each_neighbor(dir, node, sym, |endpoint| visited.push(endpoint));
                assert_eq!(visited, cell, "for_each_neighbor({dir:?}, {node}, {sym:?})");
                let base_cell: Vec<(Symbol, NodeId)> = base_model
                    .range((node, sym, 0)..=(node, sym, NodeId::MAX))
                    .map(|&(_, sym, endpoint)| (sym, endpoint))
                    .collect();
                assert_eq!(
                    graph.neighbors(dir, node, sym),
                    &base_cell[..],
                    "neighbors({dir:?}, {node}, {sym:?})"
                );
                if dir == Dir::Out {
                    let mut sparse = vec![NodeId::MAX]; // stale content
                    graph.step_sparse_into(&[node], sym, &mut sparse);
                    assert_eq!(sparse, cell, "step_sparse_into([{node}], {sym:?})");
                }
            }
        }
        for sym in graph.alphabet().symbols() {
            let active =
                BitSet::from_indices(n, model.iter().filter(|e| e.1 == sym).map(|e| e.0 as usize));
            assert_eq!(
                graph.label_active(dir, sym),
                &active,
                "label_active({dir:?}, {sym:?})"
            );
            assert_eq!(graph.label_active_count(dir, sym), active.len());
        }
        assert!(graph.label_active(dir, foreign).is_empty());
    }
}

/// One generated case: a graph, and a delta batch to apply to it.
#[derive(Debug)]
struct Case {
    n: usize,
    sigma: usize,
    edges: BTreeSet<Edge>,
    add: Vec<Edge>,
    remove: Vec<Edge>,
}

/// Graphs of 1–70 nodes (one-node graphs and word boundaries included)
/// or of 120–200 (three or four words, so ranks past the first word
/// count), over 1–5 labels, of which a random subset is dead (no edge at
/// all);
/// sparse enough that isolated nodes are common. With probability ½
/// every adjacent label pair `(a, a + 1)` gets the boundary shape: an
/// edge at node `|V| − 1` under `a` and at node 0 under `a + 1`, as
/// source (the `Out` cells) and as target (the `In` cells).
fn arb_case() -> impl Strategy<Value = Case> {
    let n = prop_oneof![Just(1usize), 2usize..8, 60usize..70, 120usize..200];
    let raw = proptest::collection::vec((0u32..200, 0usize..5, 0u32..200), 0..60);
    let delta = proptest::collection::vec((any::<bool>(), 0u32..200, 0usize..5, 0u32..200), 0..12);
    (n, 1usize..6, any::<u64>(), raw, (any::<bool>(), delta)).prop_map(
        |(n, sigma, dead, raw, (boundary, delta))| {
            let node = |raw: u32| raw % n as u32;
            // Labels whose dead bit is set keep no edge; label 0 always
            // lives so `|Σ| = 1` graphs are not all empty.
            let live = |sym: usize| sym == 0 || dead & (1 << sym) == 0;
            let label = |raw: usize| {
                let sym = raw % sigma;
                Symbol::from_index(if live(sym) { sym } else { 0 })
            };
            let mut edges: BTreeSet<Edge> = raw
                .into_iter()
                .map(|(src, sym, dst)| (node(src), label(sym), node(dst)))
                .collect();
            let last = n as NodeId - 1;
            if boundary {
                for a in 0..sigma.saturating_sub(1) {
                    let (here, next) = (Symbol::from_index(a), Symbol::from_index(a + 1));
                    edges.extend([(last, here, 0), (0, next, last), (0, here, last)]);
                    edges.extend([(last, next, last), (last, here, last), (0, next, 0)]);
                }
            }
            let (mut add, mut remove) = (Vec::new(), Vec::new());
            for (adds, src, sym, dst) in delta {
                // Deltas never name a dead label, so an overlay can still
                // leave labels without edges; removals mostly hit real
                // edges, additions mostly new ones.
                let edge = (node(src), label(sym), node(dst));
                if adds {
                    add.push(edge);
                } else {
                    let present = edges.iter().nth(src as usize % edges.len().max(1));
                    remove.push(present.copied().unwrap_or(edge));
                }
            }
            Case {
                n,
                sigma,
                edges,
                add,
                remove,
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn every_view_matches_the_edge_list_on_base_overlay_and_compacted_graphs(case in arb_case()) {
        let graph = build(case.n, case.sigma, &case.edges);
        assert_views(&graph, &case.edges, &case.edges);

        let overlay = graph.with_delta(&case.add, &case.remove).unwrap();
        let mut effective = case.edges.clone();
        for edge in &case.remove {
            effective.remove(edge);
        }
        effective.extend(case.add.iter().copied());
        assert_views(&overlay, &effective, &case.edges);

        let compacted = overlay.compact();
        prop_assert!(!compacted.has_delta());
        assert_views(&compacted, &effective, &effective);
    }
}

/// The boundary by hand: on three nodes, node 2 (`|V| − 1`) has the only
/// `a`-edges and node 0 the only `b`-edges, in both directions, so the
/// last cell of `a`'s run and the first of `b`'s are both non-empty and
/// adjacent in the offsets.
#[test]
fn the_last_node_of_a_label_and_the_first_node_of_the_next_stay_apart() {
    let (a, b) = (Symbol::from_index(0), Symbol::from_index(1));
    let edges: BTreeSet<Edge> = [
        (2, a, 1),
        (2, a, 2),
        (1, a, 2),
        (0, b, 0),
        (0, b, 1),
        (2, b, 0),
    ]
    .into_iter()
    .collect();
    let graph = build(3, 2, &edges);
    assert_eq!(graph.neighbors(Dir::Out, 2, a), &[(a, 1), (a, 2)]);
    assert_eq!(graph.neighbors(Dir::Out, 0, b), &[(b, 0), (b, 1)]);
    assert_eq!(graph.neighbors(Dir::In, 2, a), &[(a, 1), (a, 2)]);
    assert_eq!(graph.neighbors(Dir::In, 0, b), &[(b, 0), (b, 2)]);
    assert_eq!(graph.neighbors(Dir::Out, 2, b), &[(b, 0)]);
    assert!(graph.neighbors(Dir::Out, 0, a).is_empty());
    assert_views(&graph, &edges, &edges);
}

/// Degenerate shapes: no labels at all, a single isolated node, and one
/// node whose only edge is a self-loop under the last of several labels.
#[test]
fn degenerate_graphs_have_consistent_views() {
    let none = BTreeSet::new();
    assert_views(&build(1, 0, &none), &none, &none);
    assert_views(&build(1, 1, &none), &none, &none);
    assert_views(&build(4, 3, &none), &none, &none);
    let c = Symbol::from_index(2);
    let self_loop: BTreeSet<Edge> = [(0, c, 0)].into_iter().collect();
    let graph = build(1, 3, &self_loop);
    assert_views(&graph, &self_loop, &self_loop);
    // Removing the only edge through an overlay empties every view; the
    // base slice still shows it.
    let emptied = graph.with_delta(&[], &[(0, c, 0)]).unwrap();
    assert_views(&emptied, &none, &self_loop);
}

/// The rank at the word boundaries, by hand: on 130 nodes (two full
/// words and a partial third), label `a` has edges at nodes 63, 64, 127
/// and 128 — the last and first node of adjacent words, each a cell
/// whose rank is its word's rank word plus a popcount of 63 or 0 bits —
/// and label `b` at 0, 63 and 129, the partial word's last node.
#[test]
fn cells_at_word_boundaries_rank_into_the_right_offsets() {
    let (a, b) = (Symbol::from_index(0), Symbol::from_index(1));
    let mut edges: BTreeSet<Edge> = BTreeSet::new();
    for (i, node) in [63, 64, 127, 128].into_iter().enumerate() {
        edges.extend([(node, a, i as NodeId), (node, a, 129 - i as NodeId)]);
    }
    edges.extend([(0, b, 63), (63, b, 0), (129, b, 129), (129, b, 64)]);
    let graph = build(130, 2, &edges);
    assert_eq!(graph.neighbors(Dir::Out, 63, a), &[(a, 0), (a, 129)]);
    assert_eq!(graph.neighbors(Dir::Out, 64, a), &[(a, 1), (a, 128)]);
    assert_eq!(graph.neighbors(Dir::Out, 127, a), &[(a, 2), (a, 127)]);
    assert_eq!(graph.neighbors(Dir::Out, 128, a), &[(a, 3), (a, 126)]);
    assert_eq!(graph.neighbors(Dir::Out, 129, b), &[(b, 64), (b, 129)]);
    assert_eq!(graph.neighbors(Dir::In, 63, b), &[(b, 0)]);
    assert_eq!(graph.neighbors(Dir::In, 129, a), &[(a, 63)]);
    for node in [0, 62, 65, 126, 129] {
        assert!(graph.neighbors(Dir::Out, node, a).is_empty(), "{node}");
    }
    assert_views(&graph, &edges, &edges);
    let overlay = graph.with_delta(&[(62, a, 5)], &[(64, a, 1)]).unwrap();
    let mut effective = edges.clone();
    effective.remove(&(64, a, 1));
    effective.insert((62, a, 5));
    assert_views(&overlay, &effective, &edges);
    assert_views(&overlay.compact(), &effective, &effective);
}

/// A label active on every node of one word (its 64 cells in a row, the
/// word's popcount all of them) and on one node of the next, beside a
/// label that is active nowhere in that word, on a graph whose last word
/// is partial (150 nodes: the third word holds 22).
#[test]
fn a_label_active_on_a_whole_word_and_a_partial_last_word() {
    let (a, b) = (Symbol::from_index(0), Symbol::from_index(1));
    let mut edges: BTreeSet<Edge> = (64..128).map(|node| (node, a, 149 - node % 3)).collect();
    edges.insert((128, a, 0));
    edges.extend([(149, b, 64), (149, b, 127), (130, b, 149), (5, b, 5)]);
    let graph = build(150, 2, &edges);
    assert_eq!(graph.label_active(Dir::Out, a).len(), 65);
    for node in 64..128 {
        assert_eq!(
            graph.neighbors(Dir::Out, node, a),
            &[(a, 149 - node % 3)],
            "{node}"
        );
    }
    assert_eq!(graph.neighbors(Dir::Out, 128, a), &[(a, 0)]);
    assert_eq!(graph.neighbors(Dir::Out, 149, b), &[(b, 64), (b, 127)]);
    assert_eq!(graph.neighbors(Dir::In, 149, b), &[(b, 130)]);
    assert_views(&graph, &edges, &edges);
    // Empty the whole word through an overlay, then add back its last
    // node: the overlay-only and removed cells both rank right.
    let remove: Vec<Edge> = (64..128).map(|node| (node, a, 149 - node % 3)).collect();
    let overlay = graph.with_delta(&[(127, a, 1)], &remove).unwrap();
    let mut effective = edges.clone();
    for edge in &remove {
        effective.remove(edge);
    }
    effective.insert((127, a, 1));
    assert_views(&overlay, &effective, &edges);
    assert_views(&overlay.compact(), &effective, &effective);
}

/// A node id past `|V| − 1` panics in every per-node accessor, as an
/// index would, even where it still falls inside the last bitmap word
/// (whose bits past `|V|` are all clear, so a bit test alone would read
/// an empty cell).
#[test]
fn out_of_range_nodes_panic_inside_the_last_word() {
    let a = Symbol::from_index(0);
    let edges: BTreeSet<Edge> = [(0, a, 129), (129, a, 0)].into_iter().collect();
    let graph = build(130, 1, &edges);
    for node in [130, 191, 192, NodeId::MAX] {
        for dir in Dir::BOTH {
            let calls: [&dyn Fn(); 4] = [
                &|| {
                    graph.neighbors(dir, node, a);
                },
                &|| graph.for_each_neighbor(dir, node, a, |_| {}),
                &|| {
                    graph.degree(dir, node);
                },
                &|| {
                    graph.edges_of(dir, node).count();
                },
            ];
            for (i, call) in calls.iter().enumerate() {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(call));
                assert!(outcome.is_err(), "accessor {i} on node {node} ({dir:?})");
            }
        }
    }
}
