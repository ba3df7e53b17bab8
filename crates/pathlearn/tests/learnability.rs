//! Theorem 3.5 at integration scale:
//! for a corpus of target queries, the characteristic instance makes
//! `learner` identify the target exactly with `k = 2·size(q)+1`, and the
//! guarantee survives consistent extension and graph embedding.

use pathlearn::core::theory::characteristic_instance;
use pathlearn::prelude::*;

const CORPUS: &[(&str, &[&str])] = &[
    ("(a·b)*·c", &["a", "b", "c"]),
    ("a·b·c", &["a", "b", "c"]),
    ("a*·b", &["a", "b"]),
    ("a·(b+c)", &["a", "b", "c"]),
    ("(a+b)·c", &["a", "b", "c"]),
    ("(b·a)*·a", &["a", "b"]),
    ("a", &["a", "b"]),
    ("(a+b)·(a+b)·c", &["a", "b", "c"]),
    ("a·a·a", &["a", "b"]),
    ("(a+b)*·c·c", &["a", "b", "c"]),
    ("b·(a+b)·(a+b)*", &["a", "b", "c"]),
    ("(a·a)*·b", &["a", "b"]),
    ("c·(a·b + b·a)", &["a", "b", "c"]),
    ("(a+b+c)·(a+b)·c", &["a", "b", "c"]),
];

#[test]
fn theorem_3_5_corpus_identification() {
    for (expr, labels) in CORPUS {
        let alphabet = Alphabet::from_labels(labels.iter().copied());
        let target = PathQuery::parse(expr, &alphabet).unwrap().prefix_free();
        let instance = characteristic_instance(&target, &alphabet).unwrap();
        let learner = Learner::with_fixed_k(instance.required_k);
        let outcome = learner.learn(&instance.graph, &instance.sample);
        let learned = outcome
            .query
            .unwrap_or_else(|| panic!("abstained on {expr}"));
        assert!(
            learned.equivalent_language(&target),
            "{expr}: learned {}",
            learned.display(&alphabet)
        );
    }
}

/// Definition 3.4(2) requires identification from every consistent
/// extension of CS: add every remaining node with its goal label.
#[test]
fn identification_from_fully_labeled_characteristic_graph() {
    for (expr, labels) in CORPUS.iter().take(8) {
        let alphabet = Alphabet::from_labels(labels.iter().copied());
        let target = PathQuery::parse(expr, &alphabet).unwrap().prefix_free();
        let instance = characteristic_instance(&target, &alphabet).unwrap();
        let selection = target.eval(&instance.graph);
        let mut sample = instance.sample.clone();
        for node in instance.graph.nodes() {
            if !sample.is_labeled(node) {
                sample.add(node, selection.contains(node as usize));
            }
        }
        let learned = Learner::with_fixed_k(instance.required_k)
            .learn(&instance.graph, &sample)
            .query
            .unwrap_or_else(|| panic!("abstained on {expr}"));
        assert!(
            learned.equivalent_language(&target),
            "{expr}: learned {}",
            learned.display(&alphabet)
        );
    }
}

/// §3.3: "a graph that contains a subgraph with a characteristic sample
/// is also characteristic" — embed the instance next to disconnected
/// decoys labeled consistently.
#[test]
fn characteristic_subgraph_embedding() {
    let alphabet = Alphabet::from_labels(["a", "b", "c"]);
    let target = PathQuery::parse("(a·b)*·c", &alphabet)
        .unwrap()
        .prefix_free();
    let instance = characteristic_instance(&target, &alphabet).unwrap();

    // Rebuild the instance inside a bigger graph with decoy components.
    let mut builder = GraphBuilder::with_alphabet(alphabet.clone());
    for node in instance.graph.nodes() {
        builder.add_node(instance.graph.node_name(node));
    }
    for (src, sym, dst) in instance.graph.edges() {
        let s = builder.add_node(instance.graph.node_name(src));
        let d = builder.add_node(instance.graph.node_name(dst));
        builder.add_edge_ids(s, sym, d);
    }
    // Decoys: an a-cycle and an isolated node.
    builder.add_edge("decoy1", "a", "decoy2");
    builder.add_edge("decoy2", "a", "decoy1");
    builder.add_node("decoy3");
    let big = builder.build();

    // Transfer the characteristic labels by name; label decoys with the
    // goal's verdict (consistent extension).
    let goal_selection = target.eval(&big);
    let mut sample = Sample::new();
    for &node in instance.sample.pos() {
        sample.add(big.node_id(instance.graph.node_name(node)).unwrap(), true);
    }
    for &node in instance.sample.neg() {
        sample.add(big.node_id(instance.graph.node_name(node)).unwrap(), false);
    }
    for name in ["decoy1", "decoy2", "decoy3"] {
        let node = big.node_id(name).unwrap();
        sample.add(node, goal_selection.contains(node as usize));
    }

    let learned = Learner::with_fixed_k(instance.required_k)
        .learn(&big, &sample)
        .query
        .expect("still learnable in the embedding");
    assert!(learned.equivalent_language(&target));
}

/// The k bound matters: with k below the SCP length of some positive, the
/// learner either abstains or still returns something consistent — never
/// an inconsistent query (soundness under mis-parameterization).
#[test]
fn soundness_under_small_k() {
    let alphabet = Alphabet::from_labels(["a", "b", "c"]);
    let target = PathQuery::parse("(a·b)*·c", &alphabet)
        .unwrap()
        .prefix_free();
    let instance = characteristic_instance(&target, &alphabet).unwrap();
    for k in 0..instance.required_k {
        let outcome = Learner::with_fixed_k(k).learn(&instance.graph, &instance.sample);
        if let Some(query) = outcome.query {
            let selected = query.eval(&instance.graph);
            for &p in instance.sample.pos() {
                assert!(selected.contains(p as usize), "k={k}");
            }
            for &n in instance.sample.neg() {
                assert!(!selected.contains(n as usize), "k={k}");
            }
        }
    }
}

/// Dynamic-k (the experiments' policy) also identifies the corpus, without
/// being told 2n+1.
#[test]
fn dynamic_k_identifies_corpus() {
    for (expr, labels) in CORPUS.iter().take(8) {
        let alphabet = Alphabet::from_labels(labels.iter().copied());
        let target = PathQuery::parse(expr, &alphabet).unwrap().prefix_free();
        let instance = characteristic_instance(&target, &alphabet).unwrap();
        let learner = Learner::with_config(LearnerConfig {
            k: pathlearn::core::KPolicy::Dynamic {
                start: 2,
                max: instance.required_k.max(4),
            },
            prefix_free_output: true,
        });
        let learned = learner
            .learn(&instance.graph, &instance.sample)
            .query
            .unwrap_or_else(|| panic!("abstained on {expr}"));
        assert!(
            learned.equivalent_language(&target),
            "{expr}: learned {}",
            learned.display(&alphabet)
        );
    }
}
