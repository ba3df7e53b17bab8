//! Integration tests reproducing every worked example in the paper's body:
//! §1's geographical query, the facts about G0 of §2 and §3.1, §3.2's
//! learning run, Figures 5, 8 and 10, and a session of the exact
//! informative strategy of §4 (Lemma 4.2) on G0.

use pathlearn::core::consistency::{check_consistency, is_consistent};
use pathlearn::graph::graph::figure3_g0;
use pathlearn::interactive::certain::{is_certain_negative, is_certain_positive};
use pathlearn::prelude::*;

fn g0_paper_sample(graph: &GraphDb) -> Sample {
    Sample::new()
        .positive(graph.node_id("v1").unwrap())
        .positive(graph.node_id("v3").unwrap())
        .negative(graph.node_id("v2").unwrap())
        .negative(graph.node_id("v7").unwrap())
}

/// §2's statements about G0: matches of `aba`, query selections, the
/// infinite path language of ν1.
#[test]
fn section2_facts_about_g0() {
    let graph = figure3_g0();
    let alphabet = graph.alphabet();
    let v1 = graph.node_id("v1").unwrap();
    let v3 = graph.node_id("v3").unwrap();
    let v4 = graph.node_id("v4").unwrap();

    // aba ∈ paths(ν1) and ∈ paths(ν3); matching sequences exist.
    let aba = alphabet.parse_word("a b a").unwrap();
    assert!(graph.covers(&aba, &[v1]));
    assert!(graph.covers(&aba, &[v3]));

    // paths(ν1) is infinite; paths(ν5) is finite.
    assert!(graph.has_infinite_paths(v1));
    assert!(!graph.has_infinite_paths(graph.node_id("v5").unwrap()));

    // Query selections (§2).
    let query_a = PathQuery::parse("a", alphabet).unwrap();
    let selected = query_a.eval(&graph);
    assert_eq!(selected.len(), 6);
    assert!(!selected.contains(v4 as usize));

    let abc = PathQuery::parse("(a·b)*·c", alphabet).unwrap();
    let selected = abc.eval(&graph);
    assert_eq!(
        selected.iter().collect::<Vec<_>>(),
        vec![v1 as usize, v3 as usize]
    );

    let bbcc = PathQuery::parse("b·b·c·c", alphabet).unwrap();
    assert!(bbcc.eval(&graph).is_empty());
}

/// §3.1's consistency example: S⁺={ν1,ν3}, S⁻={ν2,ν7} is consistent,
/// witnessed by queries like (a·b)*·c and c + a·b·c.
#[test]
fn section31_consistency_example() {
    let graph = figure3_g0();
    let sample = g0_paper_sample(&graph);
    assert!(is_consistent(&graph, &sample));
    for expr in ["(a·b)*·c", "c + a·b·c"] {
        let q = PathQuery::parse(expr, graph.alphabet()).unwrap();
        let selected = q.eval(&graph);
        for &p in sample.pos() {
            assert!(selected.contains(p as usize), "{expr} must select ν{p}");
        }
        for &n in sample.neg() {
            assert!(
                !selected.contains(n as usize),
                "{expr} must not select ν{n}"
            );
        }
    }
}

/// §3.2's full worked example: SCP selection, the PTA of Figure 6(a),
/// the merge sequence, and the learned query (a·b)*·c of Figure 6(b).
#[test]
fn section32_worked_example() {
    let graph = figure3_g0();
    let alphabet = graph.alphabet();
    let sample = g0_paper_sample(&graph);

    let outcome = Learner::with_fixed_k(3).learn(&graph, &sample);
    let stats = &outcome.stats;

    // P = {abc, c}.
    let scps: Vec<_> = stats.scps.iter().map(|(_, w)| w.clone()).collect();
    assert!(scps.contains(&alphabet.parse_word("a b c").unwrap()));
    assert!(scps.contains(&alphabet.parse_word("c").unwrap()));

    // Figure 6(a): the PTA has 5 states (ε, a, c, ab, abc).
    assert_eq!(stats.pta_states, 5);
    // Figure 6(b): generalization reaches the 3-state DFA.
    assert_eq!(stats.generalized_states, 3);

    let learned = outcome.query.expect("consistent");
    let target = PathQuery::parse("(a·b)*·c", alphabet).unwrap();
    assert!(learned.equivalent_language(&target));
}

/// §3.2's merge justifications: merging ε/a accepts b·c, which is covered
/// by ν2; merging ε/c accepts ε, covered by both negatives.
#[test]
fn section32_merge_blockers() {
    let graph = figure3_g0();
    let alphabet = graph.alphabet();
    let v2 = graph.node_id("v2").unwrap();
    let v7 = graph.node_id("v7").unwrap();
    let bc = alphabet.parse_word("b c").unwrap();
    assert!(graph.covers(&bc, &[v2]));
    // ε is covered by any node.
    assert!(graph.covers(&[], &[v2]));
    assert!(graph.covers(&[], &[v7]));
    // …but b·c is *not* a path of ν7 (no c reachable from ν7):
    assert!(!graph.covers(&bc, &[v7]));
}

/// Figure 5: an inconsistent sample — the positive's paths are all
/// covered — makes the learner abstain and the exact check say so.
#[test]
fn figure5_inconsistency() {
    let mut builder = GraphBuilder::new();
    builder.add_edge("pos", "a", "pos_b");
    builder.add_edge("pos_b", "b", "pos_b");
    builder.add_edge("neg1", "a", "neg1_b");
    builder.add_edge("neg1_b", "b", "neg1_b");
    builder.add_node("neg2");
    let graph = builder.build();
    let sample = Sample::new()
        .positive(graph.node_id("pos").unwrap())
        .negative(graph.node_id("neg1").unwrap())
        .negative(graph.node_id("neg2").unwrap());

    assert!(!is_consistent(&graph, &sample));
    assert!(check_consistency(&graph, &sample).is_err());
    let outcome = Learner::default().learn(&graph, &sample);
    assert!(outcome.query.is_none(), "learner must abstain (null)");
}

/// §3.3 / Figure 8: on a graph with no characteristic sample for the
/// goal, the learner returns an *equivalent* query — indistinguishable by
/// the user (same selected set).
#[test]
fn figure8_equivalent_query() {
    let mut builder = GraphBuilder::new();
    // A small graph where (a·b)*·c collapses: label everything w.r.t.
    // the goal; the learner's answer must select the same set.
    builder.add_edge("x1", "a", "x2");
    builder.add_edge("x2", "b", "x1");
    builder.add_edge("x1", "c", "x3");
    builder.add_edge("x2", "a", "x4");
    let graph = builder.build();
    let goal = PathQuery::parse("(a·b)*·c", graph.alphabet()).unwrap();
    let goal_selection = goal.eval(&graph);
    let mut sample = Sample::new();
    for node in graph.nodes() {
        sample.add(node, goal_selection.contains(node as usize));
    }
    let learned = Learner::default()
        .learn(&graph, &sample)
        .query
        .expect("consistent");
    assert_eq!(learned.eval(&graph), goal_selection);
}

/// Figure 10: a node that is certain (labeling it adds nothing) —
/// and labeling it contrary to its certain label is inconsistent.
#[test]
fn figure10_certain_node() {
    let mut builder = GraphBuilder::new();
    builder.add_edge("neg", "a", "sink");
    builder.add_edge("pos", "a", "sink");
    builder.add_edge("pos", "b", "sink");
    builder.add_edge("u", "a", "sink");
    builder.add_edge("u", "b", "sink");
    let graph = builder.build();
    let pos = graph.node_id("pos").unwrap();
    let neg = graph.node_id("neg").unwrap();
    let unlabeled = graph.node_id("u").unwrap();
    let sample = Sample::new().positive(pos).negative(neg);

    assert!(is_certain_positive(&graph, &sample, unlabeled));
    assert!(!is_certain_negative(&graph, &sample, unlabeled));

    // Lemma A.1 consequence: labeling a Cert⁺ node negative yields an
    // inconsistent sample.
    let contradictory = sample.clone().negative(unlabeled);
    assert!(!is_consistent(&graph, &contradictory));
    // Labeling it positive stays consistent.
    let confirming = sample.positive(unlabeled);
    assert!(is_consistent(&graph, &confirming));
}

/// The geographical example of §1/Figure 1: the goal `(tram+bus)*·cinema`
/// selects N1, N2, N4, N6 and the interactive loop reaches an equivalent
/// query.
#[test]
fn figure1_geographical_example() {
    let mut builder = GraphBuilder::new();
    for (src, label, dst) in [
        ("N1", "tram", "N4"),
        ("N2", "bus", "N1"),
        ("N2", "bus", "N3"),
        ("N4", "cinema", "C1"),
        ("N6", "cinema", "C2"),
        ("N3", "restaurant", "R1"),
        ("N5", "restaurant", "R2"),
        ("N6", "bus", "N5"),
        ("N4", "tram", "N5"),
        ("N5", "bus", "N3"),
    ] {
        builder.add_edge(src, label, dst);
    }
    let graph = builder.build();
    let goal = PathQuery::parse("(tram+bus)*·cinema", graph.alphabet()).unwrap();
    let selected = goal.eval(&graph);
    let mut names: Vec<&str> = selected.iter().map(|n| graph.node_name(n as u32)).collect();
    names.sort();
    // §1: q selects N1, N2, N4 and N6 (through tram/bus paths to cinema).
    assert_eq!(names, vec!["N1", "N2", "N4", "N6"]);

    let session = InteractiveSession::new(&graph, InteractiveConfig::default());
    let result = session.run_against_goal(&goal);
    assert_eq!(result.query.expect("goal reachable").eval(&graph), selected);
}

/// The exact informative strategy drives a session to the goal on a
/// small graph, using no more labels than kR needs (it never wastes a
/// question on a certain node).
#[test]
fn exact_strategy_session_on_g0() {
    let graph = pathlearn::graph::graph::figure3_g0();
    let goal = PathQuery::parse("(a·b)*·c", graph.alphabet()).unwrap();
    let run = |strategy| {
        let session = InteractiveSession::new(
            &graph,
            InteractiveConfig {
                strategy,
                ..InteractiveConfig::default()
            },
        );
        session.run_against_goal(&goal)
    };
    let exact = run(StrategyKind::ExactInformative);
    assert_eq!(
        exact.query.as_ref().expect("goal reachable").eval(&graph),
        goal.eval(&graph)
    );
    // Exact informativeness implies every asked node was genuinely
    // undetermined at ask time; on G0 the goal is pinned within a handful
    // of labels.
    assert!(exact.labels_used() <= graph.num_nodes());
}
