//! Child runs and the A/A procedure.
//!
//! `aa` does what the acceptance procedure does: on each workload, runs
//! the benchmark `runs` times, each with another seed, takes for each
//! end-to-end metric the inter-quartile range of the values as a share
//! of their median (the spread), and does that `sets` times over. Sets
//! are interleaved run by run — never back to back — because the
//! machine drifts in phases that last seconds to minutes. A spread above
//! its bound, or a set median worse than the first set's by more than
//! half the bound, fails.

use crate::json::{obj, Json};
use crate::metrics::END_TO_END;
use crate::stats::{median, quartiles, spread};
use crate::workloads::NAMES;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// One run of one workload in a process of its own, so `VmHWM` is that
/// workload's.
pub struct Child {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub quick: bool,
}

/// A child's parsed result line.
pub struct ChildResult {
    pub correct: bool,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

impl Child {
    /// Runs the child to completion; `echo` passes its report through.
    pub fn run(&self, echo: bool) -> Result<ChildResult, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
        let mut command = Command::new(exe);
        command
            .args(["--workload", self.workload])
            .args(["--seed", &self.seed.to_string()])
            .args(["--seconds", &self.seconds.to_string()])
            .args(["--trace", if self.trace { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        if self.quick {
            command.arg("--quick");
        }
        let output = command
            .output()
            .map_err(|e| format!("cannot start {}: {e}", self.workload))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let (report, last) = stdout
            .trim_end()
            .rsplit_once('\n')
            .unwrap_or(("", stdout.trim_end()));
        if echo {
            println!("{report}");
        }
        if !output.status.success() {
            return Err(format!("{} exited with {}", self.workload, output.status));
        }
        let result = Json::parse(last)
            .map_err(|e| format!("{}: bad result line ({e}): {last}", self.workload))?;
        let metrics = result
            .get("metrics")
            .map(Json::members)
            .unwrap_or_default()
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect();
        Ok(ChildResult {
            correct: result.get("correct").and_then(Json::as_bool) == Some(true),
            failed: result.get("failed").and_then(Json::as_f64).unwrap_or(1.0) as u64,
            metrics,
        })
    }
}

/// `aa`'s arguments.
pub struct Config {
    pub sets: usize,
    pub runs: usize,
    /// Run `r` of every set uses seed `seed + r`.
    pub seed: u64,
    pub seconds: u64,
    pub quick: bool,
    /// Where to write the report (default `pqbench/AA.json`).
    pub out: Option<PathBuf>,
}

/// The bound `BENCHMARK.json` commits for each end-to-end metric.
pub fn committed_bounds() -> Result<BTreeMap<String, f64>, String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let document = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let bounds: BTreeMap<String, f64> = document
        .get("end_to_end")
        .map(Json::items)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_owned(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect();
    if bounds.is_empty() {
        return Err(format!("{}: no end_to_end bounds", path.display()));
    }
    Ok(bounds)
}

/// Runs the A/A procedure; `Ok(true)` when every spread and deviation
/// is inside its limit.
pub fn run(config: &Config) -> Result<bool, String> {
    if config.sets < 2 || config.runs < 2 {
        return Err("aa needs at least 2 sets of at least 2 runs".to_owned());
    }
    let bounds = committed_bounds()?;
    // values[workload][metric][set] = one value per run.
    let mut values: BTreeMap<&str, BTreeMap<&str, Vec<Vec<f64>>>> = BTreeMap::new();
    let mut all_correct = true;
    for run in 0..config.runs {
        // Alternate which set goes first, so drift hits them equally.
        let mut order: Vec<usize> = (0..config.sets).collect();
        order.rotate_left(run % config.sets);
        for set in order {
            for workload in NAMES {
                let child = Child {
                    workload,
                    seed: config.seed + run as u64,
                    seconds: config.seconds,
                    trace: false,
                    quick: config.quick,
                };
                let result = child.run(false)?;
                all_correct &= result.correct && result.failed == 0;
                for (metric, _, _) in END_TO_END {
                    let value = *result
                        .metrics
                        .get(metric)
                        .ok_or_else(|| format!("{workload}: no {metric} in the result line"))?;
                    let sets = values
                        .entry(workload)
                        .or_default()
                        .entry(metric)
                        .or_default();
                    sets.resize(config.sets, Vec::new());
                    sets[set].push(value);
                }
                eprintln!(
                    "aa: run {run} set {set} {workload} seed {} {}",
                    config.seed + run as u64,
                    if result.correct { "ok" } else { "INCORRECT" }
                );
            }
        }
    }

    let mut ok = all_correct;
    let mut worst: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    let mut report = Vec::new();
    println!(
        "{:<14} {:<18} {:>6} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}",
        "workload", "metric", "set", "median", "iqr", "spread", "worse", "bound", ""
    );
    for workload in NAMES {
        let mut per_metric = Vec::new();
        for (metric, unit, better) in END_TO_END {
            let bound = *bounds
                .get(metric)
                .ok_or_else(|| format!("no bound for {metric}"))?;
            let sets = &values[workload][metric];
            let first_median = median(&sets[0]);
            let mut per_set = Vec::new();
            for (index, set) in sets.iter().enumerate() {
                let (q1, q3) = quartiles(set);
                let set_median = median(set);
                let set_spread = spread(set);
                // How much worse than the first set, in the metric's direction.
                let change = (set_median - first_median) / first_median;
                let worse = if better == "higher" { -change } else { change };
                // The driver leaves `setup_s`'s spread alone; its medians
                // must still agree.
                let spread_ok = metric == "setup_s" || set_spread <= bound;
                let verdict = spread_ok && worse <= bound / 2.0;
                ok &= verdict;
                let entry = worst.entry(metric).or_insert((0.0, 0.0));
                if metric != "setup_s" {
                    entry.0 = entry.0.max(set_spread);
                }
                entry.1 = entry.1.max(worse.abs());
                println!(
                    "{workload:<14} {metric:<18} {index:>6} {set_median:>12.4} {:>12.4} {:>7.2}% {:>7.2}% {:>7.2}% {:>6}",
                    q3 - q1,
                    set_spread * 100.0,
                    worse * 100.0,
                    bound * 100.0,
                    if verdict { "ok" } else { "FAIL" }
                );
                per_set.push(obj([
                    ("median", Json::Num(set_median)),
                    ("q1", Json::Num(q1)),
                    ("q3", Json::Num(q3)),
                    ("spread", Json::Num(set_spread)),
                    ("worse_than_first_set", Json::Num(worse)),
                    (
                        "values",
                        Json::Arr(set.iter().map(|&v| Json::Num(v)).collect()),
                    ),
                ]));
            }
            per_metric.push((
                metric,
                obj([
                    ("unit", Json::Str(unit.into())),
                    ("bound", Json::Num(bound)),
                    ("sets", Json::Arr(per_set)),
                ]),
            ));
        }
        report.push((workload, obj(per_metric)));
    }
    println!(
        "\nworst over workloads and sets (spread must stay within the bound, aim: a third of it;"
    );
    println!("a set median may be worse than the first set's by at most half the bound):");
    let mut summary = Vec::new();
    for (metric, _, _) in END_TO_END {
        let (worst_spread, worst_deviation) = worst[metric];
        let bound = bounds[metric];
        println!(
            "  {metric:<18} spread {:>6.2}%  deviation {:>6.2}%  bound {:>5.1}%",
            worst_spread * 100.0,
            worst_deviation * 100.0,
            bound * 100.0
        );
        summary.push((
            metric,
            obj([
                ("worst_spread", Json::Num(worst_spread)),
                ("worst_deviation", Json::Num(worst_deviation)),
                ("bound", Json::Num(bound)),
            ]),
        ));
    }
    let document = obj([
        ("sets", Json::Num(config.sets as f64)),
        ("runs", Json::Num(config.runs as f64)),
        ("first_seed", Json::Num(config.seed as f64)),
        ("seconds", Json::Num(config.seconds as f64)),
        ("quick", Json::Bool(config.quick)),
        ("passed", Json::Bool(ok)),
        ("summary", obj(summary)),
        ("workloads", obj(report)),
    ]);
    let out = config
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("AA.json"));
    std::fs::write(&out, document.render_pretty())
        .map_err(|e| format!("{}: {e}", out.display()))?;
    println!(
        "\n{} written; {}",
        out.display(),
        if ok { "passed" } else { "FAILED" }
    );
    Ok(ok)
}
