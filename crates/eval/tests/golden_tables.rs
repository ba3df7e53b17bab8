//! The §5 tables as golden files: Table 1 and Figure 11 (bio) are
//! recomputed through the library at seed 42 and compared exactly with
//! the committed files under `tests/golden/`. Time columns are left out;
//! every other cell is deterministic.
//!
//! A golden file changes only together with a CHANGES.md entry that names
//! the cells that moved and says why. On a mismatch the failure message
//! prints the whole recomputed file.

use pathlearn_eval::datasets::{bio_dataset, Dataset};
use pathlearn_eval::report::fmt_pct;
use pathlearn_eval::static_exp::{run_static, StaticConfig};
use std::fmt::Write as _;
use std::sync::OnceLock;

const SEED: u64 = 42;

fn bio() -> &'static Dataset {
    static BIO: OnceLock<Dataset> = OnceLock::new();
    BIO.get_or_init(|| bio_dataset(SEED))
}

fn assert_golden(file: &str, actual: &str) {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert!(
        actual == expected,
        "{file} no longer matches its golden file; recomputed:\n{actual}"
    );
}

/// `table1_selectivity`'s measured columns.
#[test]
fn table1_bio_matches_its_golden_file() {
    let dataset = bio();
    let nodes = dataset.graph.num_nodes() as f64;
    let mut out = String::from("query,measured selectivity,selected nodes,DFA size\n");
    for q in &dataset.queries {
        let selected = (q.achieved_selectivity * nodes).round() as usize;
        let _ = writeln!(
            out,
            "{},{},{selected},{}",
            q.name,
            fmt_pct(q.achieved_selectivity),
            q.query.size()
        );
    }
    assert_golden("table1_bio.csv", &out);
}

/// `fig11_f1 bio`'s sweep, at the 4 decimals of the CSV the binary
/// writes.
#[test]
fn fig11_bio_matches_its_golden_file() {
    let dataset = bio();
    let config = StaticConfig {
        seed: SEED,
        ..StaticConfig::default()
    };
    let mut out = String::from("query,fraction,mean_f1,min_f1,max_f1,abstain\n");
    for q in &dataset.queries {
        for p in run_static(&dataset.graph, &q.query, &config) {
            let _ = writeln!(
                out,
                "{},{:.4},{:.4},{:.4},{:.4},{:.4}",
                q.name, p.fraction, p.mean_f1, p.min_f1, p.max_f1, p.abstain_rate
            );
        }
    }
    assert_golden("fig11_bio.csv", &out);
}
