//! Regenerates **Table 2** of the paper: for every query, the labels
//! needed to reach F1 = 1 *without* interactions (random labeling order)
//! versus *with* interactions under the `kR` and `kS` strategies, plus
//! the mean time between interactions.
//!
//! ```text
//! cargo run -p pathlearn-eval --release --bin table2_interactive -- bio
//! cargo run -p pathlearn-eval --release --bin table2_interactive -- syn --full
//! ```

use pathlearn_core::LearnerConfig;
use pathlearn_eval::datasets::{datasets_for, goals, HarnessArgs};
use pathlearn_eval::interactive_exp::run_interactive;
use pathlearn_eval::report::{ascii_table, csv, fmt_pct, fmt_secs, write_results_file};
use pathlearn_eval::static_exp::labels_needed_without_interactions;
use pathlearn_interactive::StrategyKind;

fn main() {
    let args = HarnessArgs::parse();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut csv_rows: Vec<Vec<String>> = Vec::new();

    for dataset in datasets_for(&args) {
        let nodes = dataset.graph.num_nodes();
        // Static sweep step: 1% of the graph per increment (coarse but
        // faithful to the paper's percent-level reporting).
        let step = (nodes / 100).max(1);
        for (name, goal) in goals(&dataset) {
            eprintln!("[table2] {}/{}: static sweep…", dataset.name, name);
            let static_fraction = labels_needed_without_interactions(
                &dataset.graph,
                &goal,
                LearnerConfig::default(),
                args.seed,
                step,
            );
            let static_text = match static_fraction {
                Some(f) => fmt_pct(f),
                None => "—".to_owned(),
            };
            for strategy in [StrategyKind::KRandom, StrategyKind::KSmallest] {
                eprintln!(
                    "[table2] {}/{}: interactive {strategy}…",
                    dataset.name, name
                );
                let row = run_interactive(
                    &dataset.graph,
                    &name,
                    &goal,
                    strategy,
                    args.seed,
                    LearnerConfig::default(),
                    0.15,
                );
                let interactive_text = if row.reached_goal {
                    fmt_pct(row.label_fraction)
                } else {
                    format!("≥{}", fmt_pct(row.label_fraction))
                };
                rows.push(vec![
                    format!("{} / {}", name, dataset.name),
                    static_text.clone(),
                    strategy.to_string(),
                    interactive_text.clone(),
                    fmt_secs(row.mean_interaction_time),
                    fmt_secs(row.mean_propose_time),
                    fmt_secs(row.mean_relearn_time),
                ]);
                csv_rows.push(vec![
                    dataset.name.clone(),
                    name.clone(),
                    format!("{}", nodes),
                    static_fraction.map_or(String::from("NA"), |f| format!("{f:.5}")),
                    strategy.to_string(),
                    format!("{:.5}", row.label_fraction),
                    format!("{}", row.labels),
                    format!("{:.6}", row.mean_interaction_time.as_secs_f64()),
                    format!("{:.6}", row.mean_propose_time.as_secs_f64()),
                    format!("{:.6}", row.mean_relearn_time.as_secs_f64()),
                    format!("{}", row.reached_goal),
                ]);
            }
        }
    }

    println!("Table 2 — static vs interactive labels for F1 = 1\n");
    let headers = [
        "query / graph",
        "labels for F1=1 (static)",
        "strategy",
        "labels for F1=1 (interactive)",
        "time between interactions",
        "… choosing the node",
        "… relearning",
    ];
    println!("{}", ascii_table(&headers, &rows));

    let path = write_results_file(
        "table2_interactive.csv",
        &csv(
            &[
                "dataset",
                "query",
                "nodes",
                "static_fraction",
                "strategy",
                "interactive_fraction",
                "labels",
                "mean_seconds",
                "mean_propose_seconds",
                "mean_relearn_seconds",
                "reached_goal",
            ],
            &csv_rows,
        ),
    )
    .expect("write results");
    println!("CSV written to {}", path.display());
}
