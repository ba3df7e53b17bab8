//! One run of one workload: the untraced end-to-end run and the traced
//! per-layer run. Both end by printing the contract's result line.

use crate::gen::Scale;
use crate::json::{obj, Json};
use crate::metrics::{Source, END_TO_END, PER_LAYER};
use crate::probes;
use crate::stats::{best_of, median, percentile_sorted, spread};
use crate::sut;
use crate::trace::Recorder;
use crate::workloads::{self, Epoch};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// What one invocation measures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// How long the timed phase lasts; whole epochs, so it ends at the
    /// first epoch boundary past this.
    pub seconds: u64,
    pub trace: bool,
    pub quick: bool,
}

/// The result line's content.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
    pub fn to_json(&self) -> Json {
        obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                obj(self.metrics.iter().map(|&(name, value, unit)| {
                    (
                        name,
                        obj([
                            ("value", Json::Num(value)),
                            ("unit", Json::Str(unit.into())),
                        ]),
                    )
                })),
            ),
        ])
    }
}

fn scale_of(args: &RunArgs) -> Scale {
    if args.quick {
        Scale::QUICK
    } else {
        Scale::FULL
    }
}

/// The program configuration and the core the run is pinned to, echoed
/// at the top of every report.
fn environment(pinned: Option<usize>) -> String {
    match pinned {
        Some(cpu) => format!("{}, pinned to cpu {cpu}", sut::config_echo()),
        None => format!("{}, NOT pinned", sut::config_echo()),
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kib / 1024.0
}

/// One epoch's own summary, for the report's `.each` lines.
struct EpochTimes {
    throughput_ops_s: f64,
    p50_us: f64,
    p99_us: f64,
}

fn summarize(latencies_ns: &[u64], epoch: &Epoch) -> EpochTimes {
    let mut sorted = latencies_ns.to_vec();
    sorted.sort_unstable();
    EpochTimes {
        throughput_ops_s: sorted.len() as f64 / (epoch.wall_ns as f64 / 1e9),
        p50_us: percentile_sorted(&sorted, 50.0) as f64 / 1e3,
        p99_us: percentile_sorted(&sorted, 99.0) as f64 / 1e3,
    }
}

/// Counters that must repeat from epoch to epoch. Three do not: the one
/// that measures time; subsumption reuses — which ≤ 8 resident entries
/// a miss probes follows `HashMap` iteration order; and evictions — the
/// victim follows the *measured* evaluation cost, and entries differ in
/// size. The counts differ between epochs and processes, never the
/// answers.
pub fn exact(counters: &[(&'static str, u64)]) -> Vec<(&'static str, u64)> {
    counters
        .iter()
        .filter(|(name, _)| {
            !matches!(
                *name,
                "serve.eval_ns_total" | "serve.subsumption_reuses" | "cache.evictions"
            )
        })
        .copied()
        .collect()
}

/// Set-ups are repeated until this much time went into them (and at
/// least `Scale::setups` times, at most [`MAX_SETUPS`]): a 0.1 s set-up
/// needs more repeats than a 2 s one for its median to hold still.
const SETUP_BUDGET: Duration = Duration::from_millis(1_500);
const MAX_SETUPS: usize = 15;

/// The untraced run: set-ups, identical epochs until `seconds` are used
/// up, peak memory, then the answer checks.
pub fn run_end_to_end(args: &RunArgs) -> Outcome {
    let scale = scale_of(args);
    let name = args.workload.as_str();
    let mut problems: Vec<String> = Vec::new();
    let pinned = crate::affinity::pin_to_one_core();

    let mut bring_up = Recorder::new();
    let started = Instant::now();
    let mut workload = workloads::set_up(name, args.seed, &scale, &mut bring_up);
    let mut setup_s = vec![started.elapsed().as_secs_f64()];

    // Identical epochs: the same op list, so op `i` of every epoch is
    // the same work, and its latencies across epochs are repetitions.
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut latencies_ns: Vec<Vec<u64>> = Vec::new();
    let mut epochs: Vec<Epoch> = Vec::new();
    loop {
        let ops_hint = latencies_ns.first().map_or(1 << 14, Vec::len);
        let mut samples = Vec::with_capacity(ops_hint);
        let epoch = workload.run_epoch(&mut samples);
        if let Err(problem) = workload.check_epoch(&epoch) {
            problems.push(problem);
        }
        latencies_ns.push(samples);
        epochs.push(epoch);
        // `--quick` is a smoke run: one epoch, whatever `--seconds` says.
        if epochs.len() >= scale.min_epochs && (args.quick || Instant::now() >= deadline) {
            break;
        }
        workload.reset();
    }
    let peak_rss_mb = peak_rss_mib();

    let ops_per_epoch = latencies_ns[0].len();
    let first = &epochs[0];
    for (index, epoch) in epochs.iter().enumerate().skip(1) {
        if epoch.digest != first.digest || latencies_ns[index].len() != ops_per_epoch {
            problems.push(format!(
                "{name}: epoch {index} answered differently from epoch 0"
            ));
        }
        if exact(&epoch.counters) != exact(&first.counters) {
            problems.push(format!(
                "{name}: epoch {index} moved the program counters differently: {:?} vs {:?}",
                epoch.counters, first.counters
            ));
        }
    }
    if let Err(problem) = workload.verify() {
        problems.push(problem);
    }
    let notes = workload.notes();

    // Set up again, several times, and report the median: one set-up is
    // at the mercy of a single fsync or thread-spawn hiccup. This comes
    // after the timed phase so that peak memory is that of one start and
    // the serving that followed — with the repeats first, what the
    // allocator kept of earlier instances moved `peak_rss_mb` by 13 %
    // from run to run. The previous instance is torn down before the
    // clock starts.
    drop(workload);
    let setups_started = Instant::now();
    let more_setups = |done: usize, spent: Duration| {
        done < scale.setups || (!args.quick && done < MAX_SETUPS && spent < SETUP_BUDGET)
    };
    while more_setups(setup_s.len(), setups_started.elapsed()) {
        let started = Instant::now();
        let again = workloads::set_up(name, args.seed, &scale, &mut Recorder::new());
        setup_s.push(started.elapsed().as_secs_f64());
        drop(again);
    }

    // Per op, the best of its latencies across epochs (see `stats::best_of`
    // for why not their median); the percentiles are taken over ops.
    // Throughput: the closed loop's rate at those latencies — one client
    // that waits for each reply completes ops ÷ Σ latency per second.
    let comparable = latencies_ns
        .iter()
        .all(|epoch| epoch.len() == ops_per_epoch);
    let mut quiet_ns: Vec<u64> = if comparable {
        (0..ops_per_epoch)
            .map(|op| best_of(latencies_ns.iter().map(|epoch| epoch[op])))
            .collect()
    } else {
        latencies_ns[0].clone()
    };
    quiet_ns.sort_unstable();
    let quiet_wall_ns: u64 = quiet_ns.iter().sum();
    let times: Vec<EpochTimes> = latencies_ns
        .iter()
        .zip(&epochs)
        .map(|(samples, epoch)| summarize(samples, epoch))
        .collect();

    let attempted = (ops_per_epoch * epochs.len()) as u64;
    let failed: u64 = epochs.iter().map(|e| e.failed).sum();
    let column = |f: fn(&EpochTimes) -> f64| -> Vec<f64> { times.iter().map(f).collect() };
    let measured: [(f64, Vec<f64>); 5] = [
        (median(&setup_s), setup_s.clone()),
        (
            ops_per_epoch as f64 / (quiet_wall_ns as f64 / 1e9),
            column(|t| t.throughput_ops_s),
        ),
        (
            percentile_sorted(&quiet_ns, 50.0) as f64 / 1e3,
            column(|t| t.p50_us),
        ),
        (
            percentile_sorted(&quiet_ns, 99.0) as f64 / 1e3,
            column(|t| t.p99_us),
        ),
        (peak_rss_mb, vec![peak_rss_mb]),
    ];
    let mut metrics = Vec::new();
    println!("{name}: seed {}, {}", args.seed, environment(pinned));
    for (&(metric, unit, _), (value, each)) in END_TO_END.iter().zip(&measured) {
        // The spread of the repetitions makes a disturbed run recognisable.
        println!(
            "{name}/{metric} {value:.4} {unit}  ({} repetitions, spread {:.1} %)",
            each.len(),
            spread(each) * 100.0
        );
        metrics.push((metric, *value, unit));
        if each.len() > 1 {
            let each: Vec<String> = each.iter().map(|v| format!("{v:.3}")).collect();
            println!("{name}/{metric}.each {}", each.join(" "));
        }
    }
    println!(
        "{name}/ops_attempted {attempted}  ({} epochs of {ops_per_epoch} ops)",
        epochs.len()
    );
    println!("{name}/ops_failed {failed}");
    for (counter, value) in &first.counters {
        println!("{name}/epoch.{counter} {value}");
    }
    for (span, ns) in bring_up.breakdown_all() {
        println!("{name}/setup.{span} {:.3} ms", ns / 1e6);
    }
    for note in notes {
        println!("{note}");
    }
    for problem in &problems {
        println!("{name}/CHECK FAILED: {problem}");
    }
    Outcome {
        correct: problems.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
    }
}

/// Where the traced run writes its spans.
pub fn trace_path(workload: &str) -> PathBuf {
    workloads::results_dir().join(format!("trace-{workload}.jsonl"))
}

/// The traced run: one set-up with bring-up spans, one untraced epoch
/// (counters, the throughput the traced slice is compared with), the
/// traced slice, then every per-layer probe.
pub fn run_traced(args: &RunArgs) -> Outcome {
    let scale = scale_of(args);
    let name = args.workload.as_str();
    let mut problems: Vec<String> = Vec::new();
    let pinned = crate::affinity::pin_to_one_core();
    let mut rec = Recorder::new();
    let mut workload = workloads::set_up(name, args.seed, &scale, &mut rec);

    let mut latencies_ns: Vec<u64> = Vec::with_capacity(1 << 16);
    let epoch = workload.run_epoch(&mut latencies_ns);
    if let Err(problem) = workload.check_epoch(&epoch) {
        problems.push(problem);
    }
    workload.reset();
    let traced_ops = scale.trace_ops.min(latencies_ns.len());
    let untraced_median_ns = median(
        &latencies_ns[..traced_ops]
            .iter()
            .map(|&ns| ns as f64)
            .collect::<Vec<f64>>(),
    );

    let residual_name = workload.trace(&mut rec, scale.trace_ops);
    if let Err(problem) = workload.verify() {
        problems.push(problem);
    }
    drop(workload);

    let fixture_nodes = if name == "learn_session" {
        scale.learn_syn_nodes
    } else {
        scale.syn_nodes
    };
    let mut values = probes::run_all(fixture_nodes, args.seed, &scale, &mut rec);

    let own = rec.decompose("op", "layers");
    values.insert("op.median_us", own.op_median_ns / 1e3);
    values.insert("op.layers_us", own.layers_median_ns / 1e3);
    values.insert("op.residual_us", own.residual_median_ns / 1e3);
    // The traced slice's real ops against the same ops untraced: what
    // running the decomposition in between costs them.
    values.insert(
        "trace.overhead_pct",
        (own.op_median_ns / untraced_median_ns - 1.0) * 100.0,
    );
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let (hits, misses) = (epoch.counter("serve.hits"), epoch.counter("serve.misses"));
    values.insert(
        "service.eval_share",
        ratio(epoch.counter("serve.eval_ns_total"), epoch.wall_ns),
    );
    values.insert("cache.hit_ratio", ratio(hits, hits + misses));
    values.insert(
        "subsumption.useful_ratio",
        ratio(epoch.counter("serve.subsumption_reuses"), misses),
    );

    println!(
        "{name}: seed {}, traced run, {}",
        args.seed,
        environment(pinned)
    );
    println!(
        "{name}/op decomposition over {} traced ops (time per op, share of the op):",
        own.ops
    );
    let per_op = |total_ns: u64| total_ns as f64 / own.ops.max(1) as f64 / 1e3;
    let share = |total_ns: u64| total_ns as f64 / own.op_total_ns.max(1) as f64 * 100.0;
    let accounted: u64 = own.layer_totals_ns.values().sum();
    for (layer, &total_ns) in &own.layer_totals_ns {
        println!(
            "  {layer:<28} {:>10.2} us  {:>5.1} %",
            per_op(total_ns),
            share(total_ns)
        );
    }
    let residual_ns = own.op_total_ns.saturating_sub(accounted);
    println!(
        "  {residual_name:<28} {:>10.2} us  {:>5.1} %  (residual: op − layers)",
        per_op(residual_ns),
        share(residual_ns)
    );
    println!(
        "  {:<28} {:>10.2} us  100.0 %",
        "op",
        per_op(own.op_total_ns)
    );
    // The real op and its decomposition run one after the other, so when
    // the residual is within the machine's drift the layers can come out
    // ahead. That is a timing relation, not a wrong answer: it is shown
    // as 0 and said so, and does not make the run incorrect.
    if accounted > own.op_total_ns {
        println!(
            "{name}/note the layers sum to {:.2} us more per op than the op itself; {residual_name} is within noise",
            per_op(accounted - own.op_total_ns)
        );
    }

    let mut metrics = Vec::new();
    for &((metric, unit, _), source) in &PER_LAYER {
        let value = match source {
            Source::Span(span, per_unit_ns) => rec.median_self_ns(span).map(|ns| ns / per_unit_ns),
            Source::Probe => values.get(metric).copied(),
            Source::Counter(counter) => Some(epoch.counter(counter) as f64),
        };
        match value {
            Some(value) => {
                println!("{name}/{metric} {value:.4} {unit}");
                metrics.push((metric, value, unit));
            }
            None => problems.push(format!("{name}: no measurement for {metric}")),
        }
    }

    let path = trace_path(name);
    std::fs::create_dir_all(path.parent().expect("results dir")).expect("create results dir");
    std::fs::write(&path, rec.to_jsonl()).expect("write span file");
    println!(
        "{name}/spans {} written to {}",
        rec.spans().len(),
        path.display()
    );
    for problem in &problems {
        println!("{name}/CHECK FAILED: {problem}");
    }
    Outcome {
        correct: problems.is_empty() && epoch.failed == 0,
        attempted: latencies_ns.len() as u64 + traced_ops as u64,
        failed: epoch.failed,
        metrics,
    }
}
