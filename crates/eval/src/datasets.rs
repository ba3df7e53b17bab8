//! The datasets and command-line options shared by the paper-artifact
//! binaries in `src/bin/` (run with `--release`):
//!
//! | paper artifact | binary |
//! |---|---|
//! | Table 1 (bio query selectivities) | `table1_selectivity` |
//! | Figure 11 (F1 vs. % labeled nodes) | `fig11_f1 [bio\|syn]` |
//! | Figure 12 (learning time vs. % labeled nodes) | `fig12_time [bio\|syn]` |
//! | Table 2 (static vs. interactive labels, time/interaction) | `table2_interactive [bio\|syn]` |
//! | §5.1 SCP length bound `k` | `ablation_k` |
//!
//! All binaries accept `--seed N` (default 42) and `--full` (paper-scale
//! synthetic graphs 10k/20k/30k; the default quick scale uses 10k only so
//! the whole harness finishes in minutes).

use pathlearn_core::PathQuery;
use pathlearn_datagen::scale_free::{scale_free_graph, ScaleFreeConfig};
use pathlearn_datagen::workloads::{bio_workload, syn_workload, CalibratedQuery};
use pathlearn_graph::GraphDb;

/// Parsed command-line options shared by the harness binaries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HarnessArgs {
    /// Base RNG seed.
    pub seed: u64,
    /// Paper-scale synthetic graphs (10k/20k/30k) instead of 10k only.
    pub full: bool,
    /// The dataset selector, `bio` or `syn`; `None` selects both.
    pub dataset: Option<String>,
}

impl HarnessArgs {
    /// Parses `std::env::args`, ignoring the binary name. A bad argument
    /// prints a one-line `error:` to stderr and exits with status 1.
    pub fn parse() -> Self {
        Self::or_exit(Self::parse_from(std::env::args().skip(1)))
    }

    /// [`HarnessArgs::parse`] for a binary that runs the bio dataset
    /// only: the `syn` selector and `--full` (the synthetic scale) are
    /// errors too.
    pub fn parse_bio_only() -> Self {
        Self::or_exit(Self::parse_from(std::env::args().skip(1)).and_then(Self::bio_only))
    }

    fn or_exit(parsed: Result<Self, String>) -> Self {
        parsed.unwrap_or_else(|message| {
            eprintln!("error: {message}");
            std::process::exit(1)
        })
    }

    /// `self`, unless it asks for the synthetic dataset or its scale.
    fn bio_only(self) -> Result<Self, String> {
        if self.dataset.as_deref() == Some("syn") {
            return Err("this binary runs the bio dataset only (got syn)".into());
        }
        if self.full {
            return Err(
                "--full sets the synthetic scale; this binary runs the bio dataset only".into(),
            );
        }
        Ok(self)
    }

    /// Parses the arguments after the binary name: `--seed N`, `--full`
    /// and at most one dataset selector. A missing or malformed value, an
    /// unknown flag and an unknown selector are errors.
    fn parse_from(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut parsed = HarnessArgs {
            seed: 42,
            full: false,
            dataset: None,
        };
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--seed" => {
                    let value = iter.next().ok_or("--seed needs a value")?;
                    parsed.seed = value
                        .parse()
                        .map_err(|_| format!("--seed needs an integer, got {value:?}"))?;
                }
                "--full" => parsed.full = true,
                flag if flag.starts_with("--") => {
                    return Err(format!("unknown flag {flag} (accepted: --seed N, --full)"))
                }
                "bio" | "syn" if parsed.dataset.is_none() => parsed.dataset = Some(arg),
                other => {
                    return Err(format!(
                        "unexpected argument {other:?} (expected one dataset: bio or syn)"
                    ))
                }
            }
        }
        Ok(parsed)
    }

    /// Synthetic graph sizes for this scale.
    pub fn syn_sizes(&self) -> Vec<usize> {
        if self.full {
            vec![10_000, 20_000, 30_000]
        } else {
            vec![10_000]
        }
    }
}

/// A named dataset: graph + calibrated workload queries.
pub struct Dataset {
    /// Dataset label for reports (`alibaba-sim`, `syn-10000`, …).
    pub name: String,
    /// The graph.
    pub graph: GraphDb,
    /// The calibrated workload on it.
    pub queries: Vec<CalibratedQuery>,
}

/// Builds the simulated-AliBaba dataset with the Table 1 workload.
pub fn bio_dataset(seed: u64) -> Dataset {
    let graph = pathlearn_datagen::alibaba_like(seed);
    let workload = bio_workload(&graph);
    Dataset {
        name: "alibaba-sim".to_owned(),
        graph,
        queries: workload.queries,
    }
}

/// Builds one synthetic dataset of the given size with syn1..syn3.
pub fn syn_dataset(nodes: usize, seed: u64) -> Dataset {
    let graph = scale_free_graph(&ScaleFreeConfig::paper_synthetic(nodes, seed));
    let workload = syn_workload(&graph);
    Dataset {
        name: format!("syn-{nodes}"),
        graph,
        queries: workload.queries,
    }
}

/// Returns the datasets the selector names (`bio`, `syn`, or both when
/// absent).
pub fn datasets_for(args: &HarnessArgs) -> Vec<Dataset> {
    let which = args.dataset.as_deref();
    let mut datasets = Vec::new();
    if matches!(which, None | Some("bio")) {
        datasets.push(bio_dataset(args.seed));
    }
    if matches!(which, None | Some("syn")) {
        for nodes in args.syn_sizes() {
            datasets.push(syn_dataset(nodes, args.seed));
        }
    }
    datasets
}

/// Convenience: a `(name, goal)` list from a dataset.
pub fn goals(dataset: &Dataset) -> Vec<(String, PathQuery)> {
    dataset
        .queries
        .iter()
        .map(|q| (q.name.clone(), q.query.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bio_dataset_builds() {
        let dataset = bio_dataset(42);
        assert_eq!(dataset.queries.len(), 6);
        assert_eq!(dataset.graph.num_nodes(), 3000);
    }

    #[test]
    fn syn_dataset_builds_small() {
        let dataset = syn_dataset(500, 42);
        assert_eq!(dataset.queries.len(), 3);
        assert_eq!(dataset.name, "syn-500");
    }

    fn parse(args: &[&str]) -> Result<HarnessArgs, String> {
        HarnessArgs::parse_from(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn harness_args_parse_seed_full_and_selector() {
        let args = parse(&["syn", "--seed", "7", "--full"]).unwrap();
        assert_eq!(args.seed, 7);
        assert!(args.full);
        assert_eq!(args.dataset.as_deref(), Some("syn"));
        let defaults = HarnessArgs {
            seed: 42,
            full: false,
            dataset: None,
        };
        assert_eq!(parse(&[]).unwrap(), defaults);
    }

    #[test]
    fn harness_args_reject_a_missing_or_bad_seed() {
        assert!(parse(&["--seed"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--seed", "x"]).unwrap_err().contains("integer"));
    }

    #[test]
    fn harness_args_reject_an_unknown_flag() {
        assert!(parse(&["--threads", "2"])
            .unwrap_err()
            .contains("unknown flag --threads"));
    }

    #[test]
    fn bio_only_harness_args_reject_syn_and_full() {
        let bio_only = |args: &[&str]| parse(args).and_then(HarnessArgs::bio_only);
        assert!(bio_only(&["syn"]).unwrap_err().contains("bio dataset only"));
        assert!(bio_only(&["--full"])
            .unwrap_err()
            .contains("bio dataset only"));
        assert_eq!(bio_only(&["bio", "--seed", "7"]).unwrap().seed, 7);
    }

    #[test]
    fn harness_args_reject_an_unknown_or_second_selector() {
        assert!(parse(&["foo"]).unwrap_err().contains("\"foo\""));
        assert!(parse(&["bio", "syn"]).unwrap_err().contains("\"syn\""));
    }
}
