//! Snapshot round-trip differential suite — a snapshot is either the
//! graph, bit for bit, or an error.
//!
//! For random graphs (with random stacked delta overlays), this suite
//! pins the durability contract the serving layer's restart path relies
//! on:
//!
//! * **encode∘decode is the identity on bytes** — decoding a snapshot
//!   and re-encoding the result reproduces the original byte string;
//! * **a pending overlay is merged, not compacted** — an overlay
//!   graph's bytes equal its compacted twin's, and the decode carries
//!   no delta;
//! * **the file is the edge list** — its length is exactly header +
//!   alphabet + names + `|V| + 1` row offsets + `|E|` pairs + digest,
//!   nothing of size `|V|·|Σ|`;
//! * **decoded graphs answer queries identically** — monadic and
//!   binary evaluation on the decoded graph match the source graph on
//!   random queries;
//! * **the alphabet keeps its stored order** — text-parsed graphs
//!   intern labels by first appearance, not sorted; edges carry symbol
//!   indices, so a decode that re-sorted the labels would relabel them;
//! * **corruption is never a wrong answer** — any single bit flip and
//!   any truncation decodes to a [`SnapshotError`], never to a graph;
//! * **format version 2 is what it is** — the Figure 3 graph's
//!   snapshot has a pinned byte length and digest.

use pathlearn_automata::{Alphabet, Dfa, Regex, Symbol};
use pathlearn_graph::eval::{eval_binary_from, eval_monadic};
use pathlearn_graph::{GraphBuilder, GraphDb, NodeId};
use proptest::prelude::*;
use std::collections::HashSet;

const LABELS: [&str; 3] = ["a", "b", "c"];

type Edge = (NodeId, Symbol, NodeId);

/// Strategy: a random small graph over {a, b, c} — possibly
/// disconnected, with self-loops, parallel labels, and duplicate edge
/// submissions (deduped by the builder).
fn arb_graph() -> impl Strategy<Value = GraphDb> {
    (
        1usize..12,
        proptest::collection::vec((0u32..12, 0usize..3, 0u32..12), 0..40),
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

/// A raw `(src, symbol index, dst)` edge before reduction mod the
/// graph size, and one delta batch of them: `(additions, removals)`.
type RawEdge = (u32, usize, u32);
type RawBatch = (Vec<RawEdge>, Vec<RawEdge>);

/// Strategy: 0..4 delta batches of raw additions/removals, applied mod
/// the graph size so they freely no-op and cancel.
fn arb_batches() -> impl Strategy<Value = Vec<RawBatch>> {
    let edge = (0u32..12, 0usize..3, 0u32..12);
    proptest::collection::vec(
        (
            proptest::collection::vec(edge.clone(), 0..6),
            proptest::collection::vec(edge, 0..6),
        ),
        0..4,
    )
}

/// Strategy: a random determinized regex over {a, b, c}.
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

fn overlayed(base: &GraphDb, batches: &[RawBatch]) -> GraphDb {
    let n = base.num_nodes() as u32;
    let fix = |edges: &[RawEdge]| -> Vec<Edge> {
        edges
            .iter()
            .map(|&(s, sym, d)| (s % n, Symbol::from_index(sym), d % n))
            .collect()
    };
    let mut graph = base.clone();
    for (add, remove) in batches {
        graph = graph
            .with_delta(&fix(add), &fix(remove))
            .expect("in-range delta must apply");
    }
    graph
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// encode ∘ decode = identity on bytes, for overlay-free graphs and
    /// for graphs carrying a pending overlay (merged on save: the bytes
    /// are the compacted graph's, the decode has no delta).
    #[test]
    fn snapshot_roundtrips_bit_identically(
        graph in arb_graph(),
        batches in arb_batches(),
    ) {
        let graph = overlayed(&graph, &batches);
        let bytes = graph.snapshot_bytes();
        let decoded = GraphDb::from_snapshot_bytes(&bytes)
            .expect("a just-encoded snapshot must decode");
        prop_assert_eq!(decoded.snapshot_bytes(), &bytes[..]);
        prop_assert_eq!(graph.compact().snapshot_bytes(), bytes);
        prop_assert!(!decoded.has_delta());

        // The decoded graph is the overlay's effective edge set.
        let decoded_edges: HashSet<Edge> = decoded.edges().collect();
        let source_edges: HashSet<Edge> = graph.edges().collect();
        prop_assert_eq!(decoded_edges, source_edges);
        prop_assert_eq!(decoded.num_nodes(), graph.num_nodes());
        for node in graph.nodes() {
            prop_assert_eq!(decoded.node_name(node), graph.node_name(node));
        }
    }

    /// The file is the edge list and nothing derived from it: its size
    /// is linear in `|V| + |E|`, with no `|V|·|Σ|` term.
    #[test]
    fn snapshot_size_is_exactly_names_offsets_and_pairs(
        graph in arb_graph(),
        batches in arb_batches(),
    ) {
        let graph = overlayed(&graph, &batches);
        let labels: usize = graph.alphabet().entries().map(|(_, label)| 2 + label.len()).sum();
        let names: usize = graph.nodes().map(|node| 2 + graph.node_name(node).len()).sum();
        prop_assert_eq!(
            graph.snapshot_bytes().len(),
            32 + labels + names + 4 * (graph.num_nodes() + 1) + 8 * graph.num_edges()
        );
    }

    /// Decoded graphs are observably the same database: monadic and
    /// binary answers match on random queries.
    #[test]
    fn decoded_graph_is_query_equivalent(
        graph in arb_graph(),
        batches in arb_batches(),
        query in arb_query(),
    ) {
        let graph = overlayed(&graph, &batches);
        let decoded = GraphDb::from_snapshot_bytes(&graph.snapshot_bytes())
            .expect("decode");
        prop_assert_eq!(&eval_monadic(&query, &decoded), &eval_monadic(&query, &graph));
        for source in graph.nodes() {
            prop_assert_eq!(
                &eval_binary_from(&query, &decoded, source),
                &eval_binary_from(&query, &graph, source)
            );
        }
    }

    /// Text-parsed graphs whose labels first appear **unsorted** (the
    /// parser interns by first appearance) come back with the same
    /// alphabet order, the same edges and the same answers.
    #[test]
    fn text_parsed_unsorted_alphabets_survive_the_roundtrip(
        edges in proptest::collection::vec((0u32..10, 0usize..3, 0u32..10), 0..40),
        query in arb_query(),
    ) {
        const UNSORTED: [&str; 3] = ["zeta", "alpha", "mid"];
        // Two fixed leading edges pin a first-appearance order that is
        // not the sorted one.
        let mut text = String::from("n0 zeta n1\nn1 alpha n0\n");
        for (src, label, dst) in edges {
            text.push_str(&format!("n{src} {} n{dst}\n", UNSORTED[label]));
        }
        let graph = pathlearn_graph::io::parse_graph(&text).expect("generated text parses");
        let labels = |g: &GraphDb| -> Vec<String> {
            g.alphabet().symbols().map(|s| g.alphabet().name(s).to_owned()).collect()
        };
        prop_assert_eq!(&labels(&graph)[..2], &["zeta", "alpha"]);

        let loaded = GraphDb::from_snapshot_bytes(&graph.snapshot_bytes()).expect("decode");
        prop_assert_eq!(labels(&loaded), labels(&graph));
        prop_assert_eq!(
            loaded.edges().collect::<Vec<Edge>>(),
            graph.edges().collect::<Vec<Edge>>()
        );
        prop_assert_eq!(&eval_monadic(&query, &loaded), &eval_monadic(&query, &graph));
    }

    /// Any single bit flip is rejected — the trailing digest covers the
    /// whole body, and flips inside the digest itself mismatch it.
    #[test]
    fn any_bit_flip_is_rejected(
        graph in arb_graph(),
        flip in 0usize..1_000_000,
    ) {
        let mut bytes = graph.snapshot_bytes();
        let pos = flip % (bytes.len() * 8);
        bytes[pos / 8] ^= 1 << (pos % 8);
        prop_assert!(
            GraphDb::from_snapshot_bytes(&bytes).is_err(),
            "bit {} flipped: decode must fail, never return a graph",
            pos
        );
    }

    /// Any truncation is rejected (and never panics).
    #[test]
    fn any_truncation_is_rejected(
        graph in arb_graph(),
        cut in 0usize..1_000_000,
    ) {
        let bytes = graph.snapshot_bytes();
        let len = cut % bytes.len();
        prop_assert!(
            GraphDb::from_snapshot_bytes(&bytes[..len]).is_err(),
            "prefix of {} bytes must not decode",
            len
        );
    }
}

/// Deterministic sanity anchor alongside the random sweep: the paper's
/// Figure 3 graph survives a file round-trip via save/load.
#[test]
fn g0_file_roundtrip() {
    let graph = {
        let mut builder = GraphBuilder::with_alphabet(Alphabet::from_labels(LABELS));
        builder.add_edge("x", "a", "y");
        builder.add_node("extra");
        builder.build()
    };
    let path = std::env::temp_dir().join(format!(
        "pathlearn-snapshot-roundtrip-{}.snap",
        std::process::id()
    ));
    graph.save_snapshot(&path).expect("save");
    let loaded = GraphDb::load_snapshot(&path).expect("load");
    assert_eq!(loaded.snapshot_bytes(), graph.snapshot_bytes());
    std::fs::remove_file(&path).ok();
}

/// The format pin: byte length and trailing FNV digest of the Figure 3
/// graph's snapshot (32 framing + 9 alphabet + 28 names + 32 offsets +
/// 120 pairs). The digest covers every preceding byte, so a change that
/// moved, reordered or widened any stored field fails here — "format
/// version 2 did not change" is a test, not a reading of the diff. A
/// deliberate format change bumps `SNAPSHOT_VERSION` and re-records
/// these.
#[test]
fn format_v2_bytes_are_pinned_on_g0() {
    assert_eq!(pathlearn_graph::SNAPSHOT_VERSION, 2);
    let bytes = pathlearn_graph::graph::figure3_g0().snapshot_bytes();
    assert_eq!(bytes.len(), 221);
    let digest = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
    assert_eq!(digest, 0xf828_1acf_524d_f99e);
}
