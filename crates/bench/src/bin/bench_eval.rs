//! RPQ evaluation ablations: the four comparisons `pqbench` (the
//! repo's benchmark, `BENCHMARK.json`) does not and should not sweep.
//!
//! Per scale (default 10k nodes; `--full` adds the paper's 20k and 30k),
//! generates a scale-free graph (paper §5.1 configuration: 3× edges,
//! 30-label Zipf(1.0) alphabet), calibrates the full paper query mix on
//! it (Table 1 structures bio1–bio6 plus syn1–syn3), and times
//!
//! * **frontier kernel vs. the seed algorithm**, per query:
//!   `eval_monadic` (frontier-batched level-synchronous evaluator) vs
//!   `eval_monadic_queued` (the seed algorithm, kept verbatim as the
//!   baseline);
//! * **step-policy ablation**: every query of the mix evaluated
//!   monadically under `Plain` (exhaustive baseline) and `Auto` (the
//!   cost-model gate — skip / covered / sparse / plain per step — the
//!   default everywhere) through [`EvalPool::evaluate`]. The headline
//!   `prune_speedup` compares `Plain` against `Auto`.
//! * **whole-query planner ablation**: every query of the mix evaluated
//!   binarily (from a seeded `--sources` batch) under forced `Forward` /
//!   `Backward` / `Auto`, through `plan_query_forced`
//!   and [`EvalPool::evaluate`]. The JSON records which engine `Auto`
//!   resolved to next to every forced timing. (Monadic evaluation has
//!   one engine, so there is nothing to ablate.)
//! * **rare-target direction probe**: a layered `a`-DAG of the same
//!   node count (node `i` fans out to the next 8 nodes) with a
//!   **single** rare `c`-edge near the head, queried with `(a+b)*·c`
//!   from node 0. Forward evaluation floods every descendant of the
//!   source before discovering the lone `c`-edge; backward evaluation
//!   seeds the coreach certificate at that edge and only ever touches
//!   its handful of ancestors. This is the workload shape the
//!   backward engine exists for, and the probe pins the
//!   expected forced-Backward-beats-forced-Forward gap (and `Auto`'s
//!   resolution) in the committed JSON.
//!
//! Every policy and every forced strategy is checked **bit-identical**
//! to the default results before being timed — a divergence aborts the
//! benchmark (and the CI smoke run turns that abort into a build
//! failure). Every evaluation runs on the main thread. Results go to
//! stdout (tables) and to a JSON file (default `BENCH_eval.json`);
//! `BENCHMARKS.md` documents how to run it and how to read the JSON.
//!
//! ```text
//! bench_eval [--nodes N[,N,...]] [--full] [--seed S] [--runs R]
//!            [--sources K] [--out PATH]
//! ```

use pathlearn_automata::{Alphabet, BitSet, Dfa, Symbol};
use pathlearn_datagen::scale_free::{scale_free_graph, ScaleFreeConfig};
use pathlearn_datagen::workloads::{bio_workload, syn_workload, CalibratedQuery};
use pathlearn_eval::report::ascii_table;
use pathlearn_graph::eval::{eval_binary_from, eval_monadic, eval_monadic_queued};
use pathlearn_graph::plan::{plan_query, plan_query_forced};
use pathlearn_graph::{
    CancelToken, EvalPool, EvalScratch, Goal, GraphBuilder, GraphDb, NodeId, QueryPlan, StepPolicy,
    Strategy,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

struct QueryResult {
    name: String,
    template: String,
    dfa_states: usize,
    selectivity: f64,
    new_ns: u128,
    seed_ns: u128,
}

impl QueryResult {
    fn speedup(&self) -> f64 {
        self.seed_ns.max(1) as f64 / self.new_ns.max(1) as f64
    }
}

/// One query's step-policy ablation: the engine under `Plain`
/// (exhaustive) and `Auto` (the cost-model gate, the default; its time
/// keeps the JSON name `masked_ns` from when the gate chose a masked
/// kernel).
struct PolicyResult {
    name: String,
    plain_ns: u128,
    masked_ns: u128,
}

impl PolicyResult {
    /// The headline ablation: the cost-model default against the
    /// exhaustive baseline (recorded as `prune_speedup` in the JSON for
    /// cross-PR continuity).
    fn masked_speedup(&self) -> f64 {
        self.plain_ns.max(1) as f64 / self.masked_ns.max(1) as f64
    }
}

struct ScaleResult {
    nodes: usize,
    edges: usize,
    labels: usize,
    queries: Vec<QueryResult>,
    geomean: f64,
    step_policy: Vec<PolicyResult>,
    prune_geomean: f64,
    planner: PlannerAblation,
}

/// [`EvalPool::evaluate`] under a token that never trips.
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

/// Median of `runs` wall-clock timings of `f`, after one warm-up call.
fn median_ns<F: FnMut()>(runs: usize, mut f: F) -> u128 {
    f(); // warm-up
    let mut times: Vec<u128> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

fn bench_query(graph: &GraphDb, q: &CalibratedQuery, runs: usize) -> QueryResult {
    let dfa = q.query.dfa();
    // Correctness gate: the evaluators must agree before we time them.
    let new = eval_monadic(dfa, graph);
    let seed = eval_monadic_queued(dfa, graph);
    assert_eq!(new, seed, "{}: evaluators disagree", q.name);

    let new_ns = median_ns(runs, || {
        std::hint::black_box(eval_monadic(dfa, graph));
    });
    let seed_ns = median_ns(runs, || {
        std::hint::black_box(eval_monadic_queued(dfa, graph));
    });
    QueryResult {
        name: q.name.clone(),
        template: q.template.clone(),
        dfa_states: dfa.num_states(),
        selectivity: q.achieved_selectivity,
        new_ns,
        seed_ns,
    }
}

/// Times one query's step-policy ablation (`Plain` vs `Auto`).
/// Asserts every policy bit-identical to the default result before
/// timing, so a policy divergence aborts the run.
fn bench_step_policy(graph: &GraphDb, query: &CalibratedQuery, runs: usize) -> PolicyResult {
    let dfa = query.query.dfa();
    let expected = eval_monadic(dfa, graph);
    let plan = QueryPlan::forward(dfa);
    let mut scratch = EvalScratch::new();
    for policy in StepPolicy::ALL {
        let engine = EvalPool::sequential().with_step_policy(policy);
        assert_eq!(
            evaluate(&engine, &mut scratch, &plan, graph, Goal::Monadic),
            expected,
            "{}: {policy:?} evaluator differs",
            query.name
        );
    }
    let mut time_policy = |policy: StepPolicy| {
        let engine = EvalPool::sequential().with_step_policy(policy);
        median_ns(runs, || {
            std::hint::black_box(evaluate(&engine, &mut scratch, &plan, graph, Goal::Monadic));
        })
    };
    let plain_ns = time_policy(StepPolicy::Plain);
    let masked_ns = time_policy(StepPolicy::Auto);
    PolicyResult {
        name: query.name.clone(),
        plain_ns,
        masked_ns,
    }
}

/// One forced-strategy timing of a planned engine.
struct StrategyPoint {
    strategy: Strategy,
    ns: u128,
}

/// One query's whole-query-planner ablation: the planned binary engine
/// (summed over the seeded source batch) under all three strategies, plus
/// the engine `Auto` actually resolved to.
struct PlannerResult {
    name: String,
    binary_auto: Strategy,
    binary: Vec<StrategyPoint>,
}

impl PlannerResult {
    fn point(points: &[StrategyPoint], strategy: Strategy) -> u128 {
        points
            .iter()
            .find(|p| p.strategy == strategy)
            .map_or(1, |p| p.ns)
    }

    /// Forced-Backward binary speedup over forced-Forward (> 1 means the
    /// backward engine won on this query's source batch).
    fn binary_backward_speedup(&self) -> f64 {
        Self::point(&self.binary, Strategy::Forward) as f64
            / Self::point(&self.binary, Strategy::Backward).max(1) as f64
    }
}

/// The rare-target direction probe: forced binary timings of `(a+b)*·c`
/// on the layered DAG with one rare `c`-edge, from source node 0.
struct DirectionProbe {
    nodes: usize,
    edges: usize,
    query: String,
    binary_auto: Strategy,
    binary: Vec<StrategyPoint>,
}

impl DirectionProbe {
    /// The headline: forced-Backward speedup over forced-Forward.
    fn backward_speedup(&self) -> f64 {
        PlannerResult::point(&self.binary, Strategy::Forward) as f64
            / PlannerResult::point(&self.binary, Strategy::Backward).max(1) as f64
    }
}

/// The whole planner section of one scale.
struct PlannerAblation {
    /// Size of the source batch each binary timing sums over.
    binary_sources: usize,
    queries: Vec<PlannerResult>,
    probe: DirectionProbe,
}

/// Times one query through the planned binary engines under every
/// forced strategy, the whole source batch per run. Every strategy is
/// asserted bit-identical to the plain forward engine before being
/// timed.
fn bench_planner_query(
    graph: &GraphDb,
    q: &CalibratedQuery,
    sources: &[NodeId],
    runs: usize,
) -> PlannerResult {
    let dfa = q.query.dfa();
    let engine = EvalPool::sequential();
    let mut scratch = EvalScratch::new();
    let binary = [Strategy::Forward, Strategy::Backward, Strategy::Auto]
        .into_iter()
        .map(|forced| {
            let plan = plan_query_forced(dfa, graph, forced);
            for &source in sources {
                assert_eq!(
                    evaluate(
                        &engine,
                        &mut scratch,
                        &plan,
                        graph,
                        Goal::BinaryFrom(source)
                    ),
                    eval_binary_from(dfa, graph, source),
                    "{}: planned binary differs under forced {forced} from {source}",
                    q.name
                );
            }
            let ns = median_ns(runs, || {
                for &source in sources {
                    let goal = Goal::BinaryFrom(source);
                    std::hint::black_box(evaluate(&engine, &mut scratch, &plan, graph, goal));
                }
            });
            StrategyPoint {
                strategy: forced,
                ns,
            }
        })
        .collect();
    PlannerResult {
        name: q.name.clone(),
        binary_auto: plan_query(dfa, graph).binary_strategy(),
        binary,
    }
}

/// The rare-target probe graph: a forward-layered `a`-DAG — node `i`
/// fans out to the next `width` nodes, so edges only ever point down the
/// node order — with a **single** `c`-edge near the head. From node 0,
/// `(a+b)*·c` forward-floods every node of the graph before finding the
/// lone `c`-edge; the backward coreach seeds at that edge and is bounded
/// by its few ancestors.
fn direction_probe_graph(n: usize, width: u32) -> GraphDb {
    let mut builder = GraphBuilder::with_alphabet(Alphabet::from_labels(["a", "b", "c"]));
    builder.add_nodes("p", n);
    let n = n as u32;
    for i in 0..n {
        for j in 1..=width {
            if i + j < n {
                builder.add_edge_ids(i, Symbol::from_index(0), i + j);
            }
        }
    }
    let c_src = 16.min(n.saturating_sub(2));
    builder.add_edge_ids(c_src, Symbol::from_index(2), c_src + 1);
    builder.build()
}

/// The minimal DFA of `(a+b)*·c` over the probe alphabet `{a, b, c}`.
fn rare_target_dfa() -> Dfa {
    let mut dfa = Dfa::new(2, 3, 0);
    dfa.set_transition(0, Symbol::from_index(0), 0);
    dfa.set_transition(0, Symbol::from_index(1), 0);
    dfa.set_transition(0, Symbol::from_index(2), 1);
    dfa.set_final(1);
    dfa
}

/// Times the rare-target direction probe: all three forced binary
/// strategies from source 0, bit-identity asserted first.
fn bench_direction_probe(nodes: usize, runs: usize) -> DirectionProbe {
    let graph = direction_probe_graph(nodes, 8);
    let dfa = rare_target_dfa();
    let source: NodeId = 0;
    let expected = eval_binary_from(&dfa, &graph, source);
    let auto_plan = plan_query(&dfa, &graph);
    let engine = EvalPool::sequential();
    let goal = Goal::BinaryFrom(source);
    let mut scratch = EvalScratch::new();
    let binary = [Strategy::Forward, Strategy::Backward, Strategy::Auto]
        .into_iter()
        .map(|forced| {
            let plan = plan_query_forced(&dfa, &graph, forced);
            assert_eq!(
                evaluate(&engine, &mut scratch, &plan, &graph, goal),
                expected,
                "direction probe differs under forced {forced}"
            );
            let ns = median_ns(runs, || {
                std::hint::black_box(evaluate(&engine, &mut scratch, &plan, &graph, goal));
            });
            StrategyPoint {
                strategy: forced,
                ns,
            }
        })
        .collect();
    DirectionProbe {
        nodes: graph.num_nodes(),
        edges: graph.num_edges(),
        query: "(a+b)*·c".to_owned(),
        binary_auto: auto_plan.binary_strategy(),
        binary,
    }
}

fn geometric_mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, count) = values.fold((0.0, 0usize), |(s, c), v| (s + v.ln(), c + 1));
    if count == 0 {
        return 1.0;
    }
    (sum / count as f64).exp()
}

fn json_escape(text: &str) -> String {
    text.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn strategy_points_json(points: &[StrategyPoint]) -> String {
    points
        .iter()
        .map(|p| format!("{{\"strategy\": \"{}\", \"ns\": {}}}", p.strategy, p.ns))
        .collect::<Vec<_>>()
        .join(", ")
}

fn write_json(path: &str, seed: u64, runs: usize, scales: &[ScaleResult]) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"benchmark\": \"RPQ evaluation ablations: frontier-batched vs seed queued BFS, cost-model step gate (skip/covered/masked/plain) per query, whole-query planner (forward/backward) + rare-target direction probe\",\n",
    );
    out.push_str("  \"schema_version\": 10,\n");
    out.push_str(&format!(
        "  \"hardware\": {{\"available_cores\": {}}},\n",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"runs_per_query\": {runs},\n"));
    out.push_str("  \"timer\": \"median of wall-clock runs after one warm-up\",\n");
    out.push_str("  \"scales\": [\n");
    for (si, scale) in scales.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!(
            "      \"graph\": {{\"generator\": \"scale_free paper_synthetic\", \"nodes\": {}, \"edges\": {}, \"labels\": {}}},\n",
            scale.nodes, scale.edges, scale.labels
        ));
        out.push_str("      \"queries\": [\n");
        for (i, r) in scale.queries.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"name\": \"{}\", \"template\": \"{}\", \"dfa_states\": {}, \"selectivity\": {:.6}, \"new_ns\": {}, \"seed_ns\": {}, \"speedup\": {:.3}}}{}\n",
                json_escape(&r.name),
                json_escape(&r.template),
                r.dfa_states,
                r.selectivity,
                r.new_ns,
                r.seed_ns,
                r.speedup(),
                if i + 1 < scale.queries.len() { "," } else { "" }
            ));
        }
        out.push_str("      ],\n");
        out.push_str(&format!(
            "      \"geomean_speedup\": {:.3},\n",
            scale.geomean
        ));
        out.push_str("      \"step_policy\": [\n");
        for (i, r) in scale.step_policy.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"name\": \"{}\", \"plain_ns\": {}, \"masked_ns\": {}, \"prune_speedup\": {:.3}}}{}\n",
                json_escape(&r.name),
                r.plain_ns,
                r.masked_ns,
                r.masked_speedup(),
                if i + 1 < scale.step_policy.len() { "," } else { "" }
            ));
        }
        out.push_str("      ],\n");
        out.push_str("      \"planner\": {\n");
        out.push_str(&format!(
            "        \"binary_sources\": {},\n",
            scale.planner.binary_sources
        ));
        out.push_str("        \"queries\": [\n");
        for (pi, r) in scale.planner.queries.iter().enumerate() {
            out.push_str(&format!(
                "          {{\"name\": \"{}\", \"binary_auto\": \"{}\", \"binary\": [{}], \"binary_backward_vs_forward\": {:.3}}}{}\n",
                json_escape(&r.name),
                r.binary_auto,
                strategy_points_json(&r.binary),
                r.binary_backward_speedup(),
                if pi + 1 < scale.planner.queries.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        out.push_str("        ],\n");
        let probe = &scale.planner.probe;
        out.push_str(&format!(
            "        \"direction_probe\": {{\"graph\": \"layered a-DAG, fanout 8, one rare c-edge\", \"nodes\": {}, \"edges\": {}, \"query\": \"{}\", \"source\": 0, \"binary_auto\": \"{}\", \"binary\": [{}], \"backward_vs_forward_speedup\": {:.3}}}\n",
            probe.nodes,
            probe.edges,
            json_escape(&probe.query),
            probe.binary_auto,
            strategy_points_json(&probe.binary),
            probe.backward_speedup()
        ));
        out.push_str("      },\n");
        out.push_str(&format!(
            "      \"prune_geomean_speedup\": {:.3}\n",
            scale.prune_geomean
        ));
        out.push_str(&format!(
            "    }}{}\n",
            if si + 1 < scales.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    std::fs::write(path, out)
}

fn print_step_policy(results: &[PolicyResult], prune_geomean: f64) {
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                format!("{:.3}", r.plain_ns as f64 / 1e6),
                format!("{:.3}", r.masked_ns as f64 / 1e6),
                format!("{:.2}x", r.masked_speedup()),
            ]
        })
        .collect();
    println!("masked-kernel ablation (monadic, one query at a time):");
    println!(
        "{}",
        ascii_table(&["query", "plain ms", "masked ms", "masked gain"], &rows)
    );
    println!("geomean masked-kernel speedup: {prune_geomean:.2}x");
}

fn print_planner(planner: &PlannerAblation) {
    let ms = |points: &[StrategyPoint], strategy: Strategy| {
        format!("{:.3}", PlannerResult::point(points, strategy) as f64 / 1e6)
    };
    let rows: Vec<Vec<String>> = planner
        .queries
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                ms(&r.binary, Strategy::Forward),
                ms(&r.binary, Strategy::Backward),
                ms(&r.binary, Strategy::Auto),
                r.binary_auto.to_string(),
            ]
        })
        .collect();
    println!(
        "whole-query planner ablation (binary ms over a {}-source batch):",
        planner.binary_sources
    );
    println!(
        "{}",
        ascii_table(&["query", "b-fwd", "b-back", "b-auto", "b-pick"], &rows)
    );
    let probe = &planner.probe;
    println!(
        "rare-target direction probe ({} nodes, {} edges, {} from node 0): \
         forward {:.3} ms vs backward {:.3} ms = {:.2}x, auto picked {}",
        probe.nodes,
        probe.edges,
        probe.query,
        PlannerResult::point(&probe.binary, Strategy::Forward) as f64 / 1e6,
        PlannerResult::point(&probe.binary, Strategy::Backward) as f64 / 1e6,
        probe.backward_speedup(),
        probe.binary_auto
    );
}

fn parse_list(value: &str, flag: &str) -> Vec<usize> {
    value
        .split(',')
        .map(|part| {
            part.trim()
                .parse::<usize>()
                .unwrap_or_else(|_| usage(&format!("{flag} needs comma-separated integers")))
        })
        .collect()
}

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: bench_eval [--nodes N[,N,...]] [--full] [--seed S] [--runs R] \
         [--sources K] [--out PATH]"
    );
    std::process::exit(2);
}

fn main() {
    let mut seed = 42u64;
    let mut node_scales: Vec<usize> = vec![10_000];
    let mut runs = 9usize;
    let mut num_sources = 8usize;
    let mut out_path = "BENCH_eval.json".to_owned();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--seed" => {
                seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs an integer"));
            }
            "--nodes" => node_scales = parse_list(&value("--nodes"), "--nodes"),
            "--full" => node_scales = vec![10_000, 20_000, 30_000],
            "--runs" => {
                runs = value("--runs")
                    .parse::<usize>()
                    .unwrap_or_else(|_| usage("--runs needs an integer"))
                    .max(1);
            }
            "--sources" => {
                num_sources = value("--sources")
                    .parse::<usize>()
                    .unwrap_or_else(|_| usage("--sources needs an integer"))
                    .max(1);
            }
            "--out" => out_path = value("--out"),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if node_scales.is_empty() {
        usage("--nodes needs at least one scale");
    }

    let mut scales = Vec::new();
    for &nodes in &node_scales {
        eprintln!("generating scale-free graph: {nodes} nodes, seed {seed} ...");
        let graph = scale_free_graph(&ScaleFreeConfig::paper_synthetic(nodes, seed));
        eprintln!(
            "graph ready: {} nodes, {} edges, {} labels",
            graph.num_nodes(),
            graph.num_edges(),
            graph.alphabet().len()
        );

        eprintln!("calibrating paper query mix (bio1-6, syn1-3) ...");
        let mut queries = bio_workload(&graph).queries;
        queries.extend(syn_workload(&graph).queries);

        let results: Vec<QueryResult> = queries
            .iter()
            .map(|q| {
                let r = bench_query(&graph, q, runs);
                eprintln!(
                    "  {:<5} {:>12} ns (new) {:>12} ns (seed)  {:>6.2}x",
                    r.name,
                    r.new_ns,
                    r.seed_ns,
                    r.speedup()
                );
                r
            })
            .collect();
        let geomean = geometric_mean(results.iter().map(QueryResult::speedup));

        eprintln!(
            "step policy: {} queries, plain/masked ablation ...",
            queries.len()
        );
        let step_policy: Vec<PolicyResult> = queries
            .iter()
            .map(|q| bench_step_policy(&graph, q, runs))
            .collect();
        let prune_geomean = geometric_mean(step_policy.iter().map(PolicyResult::masked_speedup));

        // The planner's binary timings sum over a seeded random source
        // batch.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x736f_7572);
        let planner_sources: Vec<NodeId> = (0..num_sources)
            .map(|_| rng.gen_range(0..graph.num_nodes() as NodeId))
            .collect();
        eprintln!(
            "planner ablation: {} queries x forced strategies, binary from {} sources ...",
            queries.len(),
            planner_sources.len()
        );
        let planner_queries: Vec<PlannerResult> = queries
            .iter()
            .map(|q| bench_planner_query(&graph, q, &planner_sources, runs))
            .collect();
        eprintln!("rare-target direction probe: {nodes} nodes ...");
        let probe = bench_direction_probe(nodes, runs);
        let planner = PlannerAblation {
            binary_sources: planner_sources.len(),
            queries: planner_queries,
            probe,
        };

        let rows: Vec<Vec<String>> = results
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.template.clone(),
                    format!("{}", r.dfa_states),
                    format!("{:.4}", r.selectivity),
                    format!("{:.3}", r.new_ns as f64 / 1e6),
                    format!("{:.3}", r.seed_ns as f64 / 1e6),
                    format!("{:.2}x", r.speedup()),
                ]
            })
            .collect();
        println!("== scale: {nodes} nodes ==");
        println!(
            "{}",
            ascii_table(
                &["query", "template", "|Q|", "sel", "new ms", "seed ms", "speedup"],
                &rows
            )
        );
        println!(
            "geomean monadic speedup: {geomean:.2}x over {} queries",
            results.len()
        );
        print_step_policy(&step_policy, prune_geomean);
        print_planner(&planner);

        scales.push(ScaleResult {
            nodes: graph.num_nodes(),
            edges: graph.num_edges(),
            labels: graph.alphabet().len(),
            queries: results,
            geomean,
            step_policy,
            prune_geomean,
            planner,
        });
    }

    write_json(&out_path, seed, runs, &scales).expect("write benchmark JSON");
    eprintln!("wrote {out_path}");
}
