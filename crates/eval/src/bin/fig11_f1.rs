//! Regenerates **Figure 11** of the paper: F1 score of the learned query
//! as a function of the percentage of labeled nodes, for the biological
//! workload (11a) and the synthetic workloads (11b–d).
//!
//! ```text
//! cargo run -p pathlearn-eval --release --bin fig11_f1 -- bio
//! cargo run -p pathlearn-eval --release --bin fig11_f1 -- syn --full
//! ```

use pathlearn_eval::datasets::{datasets_for, goals, HarnessArgs};
use pathlearn_eval::report::{ascii_table, csv, fmt_f1, fmt_pct, write_results_file};
use pathlearn_eval::static_exp::{run_static, StaticConfig};

fn main() {
    let args = HarnessArgs::parse();
    let config = StaticConfig {
        seed: args.seed,
        ..StaticConfig::default()
    };
    let mut csv_rows: Vec<Vec<String>> = Vec::new();

    for dataset in datasets_for(&args) {
        println!(
            "Figure 11 — F1 vs %labels on {} ({} nodes)\n",
            dataset.name,
            dataset.graph.num_nodes()
        );
        let mut headers: Vec<String> = vec!["% labeled".to_owned()];
        let goals = goals(&dataset);
        for (name, _) in &goals {
            headers.push(name.clone());
        }
        let mut columns: Vec<Vec<f64>> = Vec::new();
        for (name, goal) in &goals {
            let points = run_static(&dataset.graph, goal, &config);
            for p in &points {
                csv_rows.push(vec![
                    dataset.name.clone(),
                    name.clone(),
                    format!("{:.4}", p.fraction),
                    format!("{:.4}", p.mean_f1),
                    format!("{:.4}", p.min_f1),
                    format!("{:.4}", p.max_f1),
                    format!("{:.4}", p.abstain_rate),
                ]);
            }
            columns.push(points.iter().map(|p| p.mean_f1).collect());
        }
        let mut rows = Vec::new();
        for (i, &fraction) in config.fractions.iter().enumerate() {
            let mut row = vec![fmt_pct(fraction)];
            for column in &columns {
                row.push(fmt_f1(column[i]));
            }
            rows.push(row);
        }
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        println!("{}", ascii_table(&header_refs, &rows));
    }

    let path = write_results_file(
        "fig11_f1.csv",
        &csv(
            &[
                "dataset", "query", "fraction", "mean_f1", "min_f1", "max_f1", "abstain",
            ],
            &csv_rows,
        ),
    )
    .expect("write results");
    println!("CSV written to {}", path.display());
}
