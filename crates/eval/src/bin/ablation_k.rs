//! Ablation: sensitivity to the SCP length bound `k`.
//!
//! §5.1 of the paper reports that *"in the majority of cases k = 2 is
//! sufficient and it may reach values up to 4 in some isolated cases"*,
//! and §3.3 proves `k = 2n+1` suffices in theory. This harness quantifies
//! the trade-off on the biological workload: for each fixed `k`, the F1
//! reached at a fixed 5% label budget, the abstention rate, and the
//! learning time — versus the dynamic policy the experiments use.
//!
//! ```text
//! cargo run -p pathlearn-eval --release --bin ablation_k
//! ```

use pathlearn_core::{KPolicy, LearnerConfig};
use pathlearn_eval::datasets::{bio_dataset, goals, HarnessArgs};
use pathlearn_eval::report::{ascii_table, csv, fmt_f1, write_results_file};
use pathlearn_eval::static_exp::{run_static, StaticConfig};

fn main() {
    let args = HarnessArgs::parse_bio_only();
    let dataset = bio_dataset(args.seed);
    let fraction = 0.05;

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    let policies: Vec<(String, KPolicy)> = (1..=4)
        .map(|k| (format!("fixed k={k}"), KPolicy::Fixed(k)))
        .chain(std::iter::once((
            "dynamic 2..8".to_owned(),
            KPolicy::Dynamic { start: 2, max: 8 },
        )))
        .collect();

    for (label, policy) in &policies {
        for (name, goal) in goals(&dataset) {
            let config = StaticConfig {
                fractions: vec![fraction],
                trials: 3,
                seed: args.seed,
                learner: LearnerConfig {
                    k: *policy,
                    prefix_free_output: true,
                },
            };
            let point = &run_static(&dataset.graph, &goal, &config)[0];
            rows.push(vec![
                label.clone(),
                name.clone(),
                fmt_f1(point.mean_f1),
                format!("{:.0}%", 100.0 * point.abstain_rate),
                format!("{:.4}", point.mean_time.as_secs_f64()),
            ]);
            csv_rows.push(vec![
                label.clone(),
                name.clone(),
                format!("{:.4}", point.mean_f1),
                format!("{:.2}", point.abstain_rate),
                format!("{:.6}", point.mean_time.as_secs_f64()),
            ]);
        }
    }

    println!(
        "Ablation — SCP bound k at {}% labels on {}\n",
        fraction * 100.0,
        dataset.name
    );
    let headers = ["k policy", "query", "mean F1", "abstain", "time (s)"];
    println!("{}", ascii_table(&headers, &rows));
    let path =
        write_results_file("ablation_k.csv", &csv(&headers, &csv_rows)).expect("write results");
    println!("CSV written to {}", path.display());
}
