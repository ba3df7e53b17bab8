//! End-to-end pipeline tests at reduced scale: generators → workload
//! calibration → static experiments → interactive experiments, asserting
//! the qualitative findings of §5 (the "shape" of Figures 11/12 and
//! Table 2) on small synthetic instances so they run inside `cargo test`.

use pathlearn::core::LearnerConfig;
use pathlearn::datagen::sampling::random_sample;
use pathlearn::datagen::scale_free::{scale_free_graph, ScaleFreeConfig};
use pathlearn::datagen::workloads::{bio_workload, syn_workload};
use pathlearn::eval::interactive_exp::run_interactive;
use pathlearn::eval::metrics::Confusion;
use pathlearn::eval::static_exp::{labels_needed_without_interactions, run_static, StaticConfig};
use pathlearn::graph::eval::{eval_binary_from, eval_monadic, eval_monadic_queued};
use pathlearn::graph::plan::plan_query_forced;
use pathlearn::graph::{CancelToken, EvalScratch, Goal, StepPolicy, Strategy};
use pathlearn::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn small_synthetic() -> GraphDb {
    scale_free_graph(&ScaleFreeConfig::paper_synthetic(600, 42))
}

#[test]
fn static_f1_increases_with_labels() {
    // Figure 11's qualitative claim: more labels ⇒ (weakly) better F1.
    let graph = small_synthetic();
    let workload = syn_workload(&graph);
    for q in &workload.queries {
        let config = StaticConfig {
            fractions: vec![0.01, 0.30],
            trials: 3,
            seed: 42,
            learner: LearnerConfig::default(),
        };
        let points = run_static(&graph, &q.query, &config);
        assert!(
            points[1].mean_f1 >= points[0].mean_f1 - 0.1,
            "{}: F1 degraded hard with more labels ({:.3} -> {:.3})",
            q.name,
            points[0].mean_f1,
            points[1].mean_f1
        );
        assert!(
            points[1].mean_f1 > 0.5,
            "{}: {:.3}",
            q.name,
            points[1].mean_f1
        );
    }
}

#[test]
fn paper_query_mix_is_bit_identical_across_engines() {
    // The paper's calibrated mix (bio1–6, syn1–3) on a 2000-node
    // scale-free graph, a shape the differential suites' small random
    // graphs never reach. Monadic: the engine, the seed algorithm and
    // both step policies agree. Binary: every forced strategy's plan
    // agrees with forward evaluation from 64 seeded sources. CI also
    // runs this under --release, where debug asserts vanish.
    let graph = scale_free_graph(&ScaleFreeConfig::paper_synthetic(2000, 42));
    let mut queries = bio_workload(&graph).queries;
    queries.extend(syn_workload(&graph).queries);
    assert_eq!(queries.len(), 9);
    let mut rng = StdRng::seed_from_u64(42 ^ 0x736f_7572);
    let sources: Vec<NodeId> = (0..64)
        .map(|_| rng.gen_range(0..graph.num_nodes() as NodeId))
        .collect();
    let engine = EvalPool::sequential();
    let mut scratch = EvalScratch::new();
    let mut reached = 0;
    for q in &queries {
        let dfa = q.query.dfa();
        let expected = eval_monadic(dfa, &graph);
        assert_eq!(
            eval_monadic_queued(dfa, &graph),
            expected,
            "{}: seed algorithm",
            q.name
        );
        for policy in StepPolicy::ALL {
            let policy_engine = EvalPool::sequential().with_step_policy(policy);
            assert_eq!(
                policy_engine.eval_monadic(dfa, &graph),
                expected,
                "{}: {policy:?}",
                q.name
            );
        }
        for forced in Strategy::ALL {
            let plan = plan_query_forced(dfa, &graph, forced);
            for &source in &sources {
                let goal = Goal::BinaryFrom(source);
                let answer = engine
                    .evaluate(&mut scratch, &plan, &graph, goal, &CancelToken::never())
                    .expect("a never-token evaluation is not interrupted");
                assert_eq!(
                    answer,
                    eval_binary_from(dfa, &graph, source),
                    "{}: forced {forced} from {source}",
                    q.name
                );
                reached += usize::from(!answer.is_empty());
            }
        }
    }
    assert!(reached > 0, "every binary answer was empty");
}

#[test]
fn learned_queries_are_consistent_classifiers() {
    // Learned queries score perfect precision/recall on their own sample.
    let graph = small_synthetic();
    let workload = syn_workload(&graph);
    let goal = &workload.queries[1].query;
    let selection = goal.eval(&graph);
    let sample = random_sample(&graph, &selection, 0.1, 3);
    let outcome = Learner::default().learn(&graph, &sample);
    let learned = outcome.query.expect("consistent sample");
    let confusion = Confusion::from_selections(&selection, &learned.eval(&graph));
    // On the labeled nodes themselves, zero mistakes by soundness:
    let learned_sel = learned.eval(&graph);
    for &p in sample.pos() {
        assert!(learned_sel.contains(p as usize));
    }
    for &n in sample.neg() {
        assert!(!learned_sel.contains(n as usize));
    }
    // Overall F1 is meaningful (well above chance).
    assert!(confusion.f1() > 0.3, "F1 {:.3}", confusion.f1());
}

#[test]
fn interactive_beats_static_labels_on_synthetic() {
    // Table 2's headline: interactions reduce labels needed for F1 = 1.
    let graph = small_synthetic();
    let workload = syn_workload(&graph);
    let goal = &workload.queries[2].query; // densest: easiest to pin down
    let static_fraction = labels_needed_without_interactions(
        &graph,
        goal,
        LearnerConfig::default(),
        42,
        graph.num_nodes() / 100,
    );
    let row = run_interactive(
        &graph,
        "syn3-small",
        goal,
        pathlearn::interactive::StrategyKind::KRandom,
        42,
        LearnerConfig::default(),
        1.0,
    );
    assert!(row.reached_goal, "interactive session must reach the goal");
    if let Some(static_fraction) = static_fraction {
        assert!(
            row.label_fraction <= static_fraction + 1e-9,
            "interactive {} vs static {}",
            row.label_fraction,
            static_fraction
        );
    }
}

#[test]
fn both_strategies_reach_goal_and_record_times() {
    let graph = small_synthetic();
    let workload = syn_workload(&graph);
    let goal = &workload.queries[2].query;
    for strategy in [
        pathlearn::interactive::StrategyKind::KRandom,
        pathlearn::interactive::StrategyKind::KSmallest,
    ] {
        let row = run_interactive(
            &graph,
            "syn3-small",
            goal,
            strategy,
            42,
            LearnerConfig::default(),
            1.0,
        );
        assert!(row.reached_goal, "{strategy}");
        assert!(row.labels > 0);
        assert!(row.mean_interaction_time.as_nanos() > 0);
    }
}

#[test]
fn pipeline_is_deterministic_end_to_end() {
    let run = || {
        let graph = small_synthetic();
        let workload = syn_workload(&graph);
        let goal = &workload.queries[0].query;
        let selection = goal.eval(&graph);
        let sample = random_sample(&graph, &selection, 0.05, 9);
        let outcome = Learner::default().learn(&graph, &sample);
        outcome
            .query
            .map(|q| format!("{}", q.display(graph.alphabet())))
    };
    assert_eq!(run(), run());
}

#[test]
fn graph_io_roundtrip_preserves_learning() {
    // Serialize a graph, re-parse it, and learn the same query.
    let graph = small_synthetic();
    let text = pathlearn::graph::io::write_graph(&graph).unwrap();
    let reparsed = pathlearn::graph::io::parse_graph(&text).unwrap();
    assert_eq!(reparsed.num_nodes(), graph.num_nodes());
    assert_eq!(reparsed.num_edges(), graph.num_edges());

    let workload = syn_workload(&graph);
    let goal = &workload.queries[1];
    // Transfer the query onto the reparsed graph's alphabet by regex text.
    let printed = goal.query.display(graph.alphabet()).to_string();
    let transferred = PathQuery::parse(&printed.replace('ε', "eps"), reparsed.alphabet()).unwrap();
    // Node names are preserved, so selections must correspond 1:1.
    let original = goal.query.eval(&graph);
    let roundtrip = transferred.eval(&reparsed);
    for node in graph.nodes() {
        let name = graph.node_name(node);
        let mapped = reparsed.node_id(name).unwrap();
        assert_eq!(
            original.contains(node as usize),
            roundtrip.contains(mapped as usize),
            "node {name}"
        );
    }
}
