//! Regenerates **Table 1** of the paper: the biological queries, their
//! structural templates and their selectivities on the (simulated)
//! AliBaba graph.
//!
//! ```text
//! cargo run -p pathlearn-eval --release --bin table1_selectivity
//! ```

use pathlearn_eval::datasets::{bio_dataset, HarnessArgs};
use pathlearn_eval::report::{ascii_table, csv, fmt_pct, write_results_file};

fn main() {
    let args = HarnessArgs::parse_bio_only();
    let dataset = bio_dataset(args.seed);
    let nodes = dataset.graph.num_nodes();

    println!(
        "Table 1 — biological queries on {} ({} nodes, {} edges, {} labels)\n",
        dataset.name,
        nodes,
        dataset.graph.num_edges(),
        dataset.graph.alphabet().len()
    );

    let mut rows = Vec::new();
    for q in &dataset.queries {
        rows.push(vec![
            q.name.clone(),
            q.template.clone(),
            fmt_pct(q.target_selectivity),
            fmt_pct(q.achieved_selectivity),
            format!(
                "{}",
                (q.achieved_selectivity * nodes as f64).round() as usize
            ),
            format!("{}", q.query.size()),
        ]);
    }
    let headers = [
        "query",
        "template",
        "paper selectivity",
        "measured selectivity",
        "selected nodes",
        "DFA size",
    ];
    println!("{}", ascii_table(&headers, &rows));

    let path =
        write_results_file("table1_selectivity.csv", &csv(&headers, &rows)).expect("write results");
    println!("CSV written to {}", path.display());
}
