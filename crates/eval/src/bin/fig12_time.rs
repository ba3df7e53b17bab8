//! Regenerates **Figure 12** of the paper: learning time (seconds) as a
//! function of the percentage of labeled nodes, for the biological
//! workload (12a) and the synthetic workloads (12b–d).
//!
//! ```text
//! cargo run -p pathlearn-eval --release --bin fig12_time -- bio
//! cargo run -p pathlearn-eval --release --bin fig12_time -- syn --full
//! ```

use pathlearn_eval::datasets::{datasets_for, goals, HarnessArgs};
use pathlearn_eval::report::{ascii_table, csv, fmt_pct, write_results_file};
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
            "Figure 12 — learning time vs %labels on {} ({} nodes)\n",
            dataset.name,
            dataset.graph.num_nodes()
        );
        let mut headers: Vec<String> = vec!["% labeled".to_owned()];
        let goals = goals(&dataset);
        for (name, _) in &goals {
            headers.push(format!("{name} (s)"));
        }
        let mut columns: Vec<Vec<f64>> = Vec::new();
        for (name, goal) in &goals {
            let points = run_static(&dataset.graph, goal, &config);
            for p in &points {
                csv_rows.push(vec![
                    dataset.name.clone(),
                    name.clone(),
                    format!("{:.4}", p.fraction),
                    format!("{:.6}", p.mean_time.as_secs_f64()),
                ]);
            }
            columns.push(points.iter().map(|p| p.mean_time.as_secs_f64()).collect());
        }
        let mut rows = Vec::new();
        for (i, &fraction) in config.fractions.iter().enumerate() {
            let mut row = vec![fmt_pct(fraction)];
            for column in &columns {
                row.push(format!("{:.4}", column[i]));
            }
            rows.push(row);
        }
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        println!("{}", ascii_table(&header_refs, &rows));
    }

    let path = write_results_file(
        "fig12_time.csv",
        &csv(&["dataset", "query", "fraction", "mean_seconds"], &csv_rows),
    )
    .expect("write results");
    println!("CSV written to {}", path.display());
}
