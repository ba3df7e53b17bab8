//! Property-based equivalence of the parallel evaluation layer: on
//! random graphs and random regex queries, every `par_eval` batch
//! operation must be **bit-identical** to the sequential evaluators at
//! every thread count in {1, 2, 4} — slot by slot for batches, as one
//! OR-merged set for unions, and regardless of scratch reuse.

use pathlearn_automata::{Alphabet, BitSet, Regex, Symbol};
use pathlearn_graph::eval::{eval_binary_from, eval_monadic};
use pathlearn_graph::par_eval::EvalPool;
use pathlearn_graph::{GraphBuilder, GraphDb, NodeId};
use proptest::prelude::*;

const LABELS: [&str; 3] = ["a", "b", "c"];
const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

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

/// Strategy: a random regex AST over {a, b, c} including ε and stars.
fn arb_regex() -> impl Strategy<Value = Regex> {
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
}

/// A deterministic source batch (with repeats) derived from a drawn seed,
/// so thread-count equivalence is exercised across many seeds.
fn sources_from_seed(graph: &GraphDb, seed: u64, len: usize) -> Vec<NodeId> {
    let n = graph.num_nodes() as u64;
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            // xorshift64* — any deterministic stream works here.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545F4914F6CDD1D) % n) as NodeId
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `eval_binary_batch` — slot by slot, and OR-folded into the
    /// multi-source union — agrees with the sequential evaluator for
    /// every thread count and source batch.
    #[test]
    fn binary_batch_matches_sequential_across_threads(
        graph in arb_graph(),
        regex in arb_regex(),
        seed in any::<u64>(),
        batch_len in 0usize..40,
    ) {
        let query = regex.to_dfa(3);
        let sources = sources_from_seed(&graph, seed, batch_len);
        let expected: Vec<BitSet> = sources
            .iter()
            .map(|&s| eval_binary_from(&query, &graph, s))
            .collect();
        let mut expected_union = BitSet::new(graph.num_nodes());
        for ends in &expected {
            expected_union.union_with(ends);
        }
        for threads in THREAD_COUNTS {
            let pool = EvalPool::new(threads);
            let batch = pool.eval_binary_batch(&query, &graph, &sources);
            prop_assert_eq!(&batch, &expected, "batch at {} threads, seed {}", threads, seed);
            let mut union = BitSet::new(graph.num_nodes());
            for ends in &batch {
                union.union_with(ends);
            }
            prop_assert_eq!(&union, &expected_union, "union at {} threads, seed {}", threads, seed);
        }
    }

    /// `eval_monadic_batch` agrees with per-query `eval_monadic` for
    /// every thread count, including batches of heterogeneous queries.
    #[test]
    fn monadic_batch_matches_sequential_across_threads(
        graph in arb_graph(),
        regexes in proptest::collection::vec(arb_regex(), 0..8),
    ) {
        let queries: Vec<_> = regexes.iter().map(|r| r.to_dfa(3)).collect();
        let expected: Vec<BitSet> = queries
            .iter()
            .map(|q| eval_monadic(q, &graph))
            .collect();
        for threads in THREAD_COUNTS {
            let pool = EvalPool::new(threads);
            prop_assert_eq!(
                &pool.eval_monadic_batch(&queries, &graph),
                &expected,
                "{} threads", threads
            );
        }
    }

    /// A pool reused across many differently-shaped batches (the
    /// steady-state usage pattern) keeps producing sequential results.
    #[test]
    fn pool_reuse_across_batches_stays_equivalent(
        graph in arb_graph(),
        regex in arb_regex(),
        seeds in proptest::collection::vec(any::<u64>(), 1..4),
    ) {
        let query = regex.to_dfa(3);
        let pool = EvalPool::new(4);
        for (round, &seed) in seeds.iter().enumerate() {
            let sources = sources_from_seed(&graph, seed, 5 + 7 * round);
            let expected: Vec<BitSet> = sources
                .iter()
                .map(|&s| eval_binary_from(&query, &graph, s))
                .collect();
            prop_assert_eq!(
                &pool.eval_binary_batch(&query, &graph, &sources),
                &expected,
                "round {}", round
            );
        }
    }
}
