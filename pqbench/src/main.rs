//! `pqbench` command line.
//!
//! ```text
//! pqbench --workload W --seed N --seconds S --trace 0|1 [--quick]
//!     One run of one workload (what BENCHMARK.json's command invokes).
//!     Prints every metric as `workload/metric value unit`, then, as the
//!     last line, {"correct", "attempted", "failed", "metrics"}.
//! pqbench run   [--seed N] [--seconds S] [--quick]
//!     Every workload, each in its own child process (so peak memory is
//!     per workload); exits non-zero on any failed check or failed op.
//! pqbench trace [--workload W] [--seed N] [--quick]
//!     The traced run: per-layer metrics, pqbench/results/trace-W.jsonl.
//! pqbench aa    [--sets 2] [--runs 10] [--seed N] [--seconds S] [--out F] [--quick]
//!     Identical runs in alternating sets; spreads and deviations
//!     against the committed bounds; writes AA.json.
//! ```

use pqbench::aa;
use pqbench::bench::{run_end_to_end, run_traced, RunArgs};
use pqbench::workloads::NAMES;
use std::process::ExitCode;

/// `run_seconds` of BENCHMARK.json.
const DEFAULT_SECONDS: u64 = 20;

struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = Vec::new();
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
            if name == "quick" {
                flags.push((name.to_owned(), "1".to_owned()));
            } else {
                let value = iter
                    .next()
                    .ok_or_else(|| format!("--{name} needs a value"))?;
                flags.push((name.to_owned(), value.clone()));
            }
        }
        Ok(Flags(flags))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number(&self, name: &str, default: u64) -> Result<u64, String> {
        self.get(name).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("--{name} needs a whole number, got `{v}`"))
        })
    }

    fn workload(&self) -> Result<Option<String>, String> {
        match self.get("workload") {
            Some(name) if NAMES.contains(&name) => Ok(Some(name.to_owned())),
            Some(name) => Err(format!("unknown workload `{name}` (one of {NAMES:?})")),
            None => Ok(None),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(problem) => {
            eprintln!("pqbench: {problem}");
            eprintln!("usage: pqbench [run|trace|aa] [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick]");
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let (command, rest) = match args.first().map(String::as_str) {
        Some(word) if !word.starts_with("--") => (word, &args[1..]),
        _ => ("", args),
    };
    let flags = Flags::parse(rest)?;
    let seed = flags.number("seed", 42)?;
    let seconds = flags.number("seconds", DEFAULT_SECONDS)?;
    let quick = flags.get("quick").is_some();
    match command {
        "" => {
            let workload = flags.workload()?.ok_or("--workload is required")?;
            let run = RunArgs {
                workload,
                seed,
                seconds,
                trace: flags.number("trace", 0)? != 0,
                quick,
            };
            let outcome = if run.trace {
                run_traced(&run)
            } else {
                run_end_to_end(&run)
            };
            println!("{}", outcome.to_json().render());
            Ok(ExitCode::SUCCESS)
        }
        "run" | "trace" => {
            let only = flags.workload()?;
            let mut ok = true;
            for name in NAMES {
                if only.as_deref().is_some_and(|w| w != name) {
                    continue;
                }
                let child = aa::Child {
                    workload: name,
                    seed,
                    seconds,
                    trace: command == "trace",
                    quick,
                };
                let result = child.run(true)?;
                ok &= result.correct && result.failed == 0;
            }
            Ok(if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        "aa" => {
            let config = aa::Config {
                sets: flags.number("sets", 2)? as usize,
                runs: flags.number("runs", 10)? as usize,
                seed,
                seconds,
                quick,
                out: flags.get("out").map(Into::into),
            };
            Ok(if aa::run(&config)? {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        other => Err(format!("unknown command `{other}`")),
    }
}
