//! `pathlearn` — command-line interface to the library.
//!
//! ```text
//! pathlearn eval <graph.txt> --query "(a·b)*·c"
//!     Evaluate a path query; prints the selected nodes.
//!
//! pathlearn learn <graph.txt> --pos v1,v3 --neg v2,v7 [--k N]
//!     Learn a query from labeled nodes (Algorithm 1); prints the regex.
//!
//! pathlearn interactive <graph.txt> [--goal "(a·b)*·c"]
//!                       [--strategy kR|kS|exact] [--seed N]
//!     Run the Figure 9 loop. With --goal, a simulated user answers; without,
//!     *you* are the user: the tool shows each proposed node's neighborhood
//!     and asks for +/-.
//!
//! pathlearn serve <graph.txt> --queries <file> [--clients N]
//!                 [--repeat R] [--cache-mb M] [--strategy auto|forward|backward]
//!     Run the serving layer over a query workload file (one regex per
//!     line, `#` comments): canonical result cache + coalescing over N
//!     client threads. Prints per-query selections and cache/throughput
//!     stats, including per-strategy evaluation counts. `--strategy`
//!     pins the binary engine; monadic evaluation has one (and counts
//!     as `forward`). Under `auto`, the default, the whole-query
//!     planner picks forward or backward per binary query;
//!     forcing an engine never changes results, only speed.
//!
//! pathlearn serve <graph.txt> --listen ADDR [--admin ADDR2] [--cache-mb M]
//!                 [--strategy ...] [--data-dir DIR] [--checkpoint-every N]
//!     Serve the graph over TCP with the framed binary protocol
//!     (pathlearn-server::proto): deadlines, load shedding, graceful
//!     drain. Prints `listening on <addr>` (with the real port for
//!     `:0`) and runs until killed. With `--data-dir`, the served
//!     graph is durable: DIR holds a versioned snapshot plus a
//!     write-ahead log, every `update` is fsynced before it is
//!     acknowledged, and a restart recovers exactly the acknowledged
//!     state (the text graph is only parsed on the first run, to seed
//!     the snapshot). `--checkpoint-every` caps WAL growth: past N
//!     records the WAL is folded into a fresh snapshot (default 1024).
//!
//! pathlearn snapshot <graph.txt> <out.snap>
//!     Convert a text graph to the versioned binary snapshot format
//!     (pathlearn-graph::graph::snapshot): the edge list, about 0.7x
//!     the text bytes. `serve --data-dir` loads a snapshot about twice
//!     as fast as re-parsing text, and the strict decoder rejects any
//!     damaged (or older-format) file with a diagnostic.
//!
//! pathlearn update <ADDR> [--add \"src label dst\"]... [--remove \"src label dst\"]...
//!     Patch a live `pathlearn serve --listen` server over TCP with an
//!     edge delta (removals apply before additions). Unlike restarting
//!     the server on a new file, a delta touches only the cache entries
//!     it can change: an entry whose query can see a touched label is
//!     patched to the new answer if one of the delta's edges hits the
//!     footprint its evaluation left, and dropped only when the patch
//!     would cost more than the evaluation did (an entry without a
//!     footprint is dropped on the label match alone). Everything else
//!     keeps serving as hits, and established fingerprints keep
//!     resolving.
//!
//! pathlearn stats <graph.txt>
//!     Graph statistics (nodes, edges, labels, degree distribution).
//! ```
//!
//! Every evaluation and learning run happens on one thread. Each command
//! rejects a flag it does not know, naming the flags it accepts.
//!
//! Graph files are the line format of `pathlearn-graph::io`:
//! `src label dst` per edge, `node NAME` for isolated nodes, `#` comments.

use pathlearn::graph::io::parse_graph;
use pathlearn::graph::neighborhood::neighborhood;
use pathlearn::graph::Dir;
use pathlearn::interactive::session::LabelOracle;
use pathlearn::prelude::*;
use std::io::{BufRead, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("run `pathlearn help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let command = args.first().map(String::as_str).unwrap_or("help");
    match command {
        "help" | "--help" | "-h" => {
            print!("{}", HELP);
            Ok(())
        }
        "eval" => eval_command(&args[1..]),
        "learn" => learn_command(&args[1..]),
        "interactive" => interactive_command(&args[1..]),
        "serve" => serve_command(&args[1..]),
        "snapshot" => snapshot_command(&args[1..]),
        "update" => update_command(&args[1..]),
        "stats" => stats_command(&args[1..]),
        other => Err(format!("unknown command `{other}`")),
    }
}

const HELP: &str = "\
pathlearn — learning path queries on graph databases (EDBT 2015)

USAGE:
  pathlearn eval <graph.txt> --query <REGEX>
  pathlearn learn <graph.txt> --pos A,B --neg C,D [--k N]
  pathlearn interactive <graph.txt> [--goal <REGEX>] [--strategy kR|kS|exact] [--seed N]
  pathlearn serve <graph.txt> --queries <file> [--clients N] [--repeat R] [--cache-mb M] [--strategy auto|forward|backward]
  pathlearn serve <graph.txt> --listen ADDR [--admin ADDR2] [--cache-mb M] [--strategy ...] [--data-dir DIR] [--checkpoint-every N]
  pathlearn snapshot <graph.txt> <out.snap>
  pathlearn update <ADDR> [--add \"src label dst\"]... [--remove \"src label dst\"]...
  pathlearn stats <graph.txt>

  serve --strategy pins the binary engine; monadic evaluation has one.
";

/// Upper bound on `serve --queries … --clients N`: each client is an OS
/// thread.
const MAX_CLIENTS: usize = 1024;

struct Options {
    graph_path: String,
    flags: Vec<(String, String)>,
}

/// Parses `args` for `command`, which takes one positional argument and
/// the flags named in `accepted` (each with a value).
fn parse_options(args: &[String], command: &str, accepted: &[&str]) -> Result<Options, String> {
    let mut graph_path = None;
    let mut flags = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if let Some(name) = arg.strip_prefix("--") {
            if !accepted.contains(&name) {
                let accepted: Vec<String> = accepted.iter().map(|a| format!("--{a}")).collect();
                return Err(format!(
                    "unknown flag --{name} for {command} (accepted: {})",
                    if accepted.is_empty() {
                        "none".to_owned()
                    } else {
                        accepted.join(", ")
                    }
                ));
            }
            let value = iter
                .next()
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            flags.push((name.to_owned(), value.clone()));
        } else if graph_path.is_none() {
            graph_path = Some(arg.clone());
        } else {
            return Err(format!("unexpected argument `{arg}`"));
        }
    }
    Ok(Options {
        graph_path: graph_path.ok_or("missing graph file argument")?,
        flags,
    })
}

impl Options {
    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// All values of a repeatable flag, in the order given.
    fn flag_all<'a>(&'a self, name: &str) -> Vec<&'a str> {
        self.flags
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn load_graph(&self) -> Result<GraphDb, String> {
        let text = std::fs::read_to_string(&self.graph_path)
            .map_err(|e| format!("cannot read {}: {e}", self.graph_path))?;
        parse_graph(&text).map_err(|e| e.to_string())
    }

    fn node_list(&self, graph: &GraphDb, name: &str) -> Result<Vec<NodeId>, String> {
        let Some(list) = self.flag(name) else {
            return Ok(Vec::new());
        };
        list.split(',')
            .filter(|s| !s.is_empty())
            .map(|n| {
                graph
                    .node_id(n.trim())
                    .ok_or_else(|| format!("unknown node `{n}`"))
            })
            .collect()
    }
}

fn eval_command(args: &[String]) -> Result<(), String> {
    let options = parse_options(args, "eval", &["query"])?;
    let graph = options.load_graph()?;
    let expr = options.flag("query").ok_or("missing --query")?;
    let query = PathQuery::parse(expr, graph.alphabet()).map_err(|e| e.to_string())?;
    let selected = query.eval(&graph);
    println!(
        "query {} selects {} of {} nodes ({:.2}%):",
        query.display(graph.alphabet()),
        selected.len(),
        graph.num_nodes(),
        100.0 * query.selectivity(&graph)
    );
    let mut names: Vec<&str> = selected
        .iter()
        .map(|n| graph.node_name(n as NodeId))
        .collect();
    names.sort();
    for name in names {
        println!("  {name}");
    }
    Ok(())
}

fn learn_command(args: &[String]) -> Result<(), String> {
    let options = parse_options(args, "learn", &["pos", "neg", "k"])?;
    let graph = options.load_graph()?;
    let pos = options.node_list(&graph, "pos")?;
    let neg = options.node_list(&graph, "neg")?;
    if pos.is_empty() && neg.is_empty() {
        return Err("need at least one of --pos/--neg".into());
    }
    if let Some(&both) = pos.iter().find(|node| neg.contains(node)) {
        return Err(format!(
            "node `{}` is labelled both --pos and --neg",
            graph.node_name(both)
        ));
    }
    let sample = Sample::from_parts(pos, neg);
    let learner = match options.flag("k") {
        Some(k) => Learner::with_fixed_k(k.parse().map_err(|_| "--k needs an integer")?),
        None => Learner::default(),
    };
    let outcome = learner.learn(&graph, &sample);
    match outcome.query {
        Some(query) => {
            println!("learned: {}", query.display(graph.alphabet()));
            println!("size:    {} states (canonical DFA)", query.size());
            let selected = query.eval(&graph);
            let mut names: Vec<&str> = selected
                .iter()
                .map(|n| graph.node_name(n as NodeId))
                .collect();
            names.sort();
            println!("selects: {}", names.join(", "));
            for (node, path) in &outcome.stats.scps {
                println!(
                    "SCP {}: {}",
                    graph.node_name(*node),
                    pathlearn::automata::word::format_word(path, graph.alphabet())
                );
            }
            Ok(())
        }
        None => Err(
            "learner abstained (null): the sample is inconsistent or needs \
                     longer SCPs — label more nodes or raise --k"
                .into(),
        ),
    }
}

fn serve_command(args: &[String]) -> Result<(), String> {
    use pathlearn::server::{QueryService, ServeConfig, Served};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let options = parse_options(
        args,
        "serve",
        &[
            "queries",
            "clients",
            "repeat",
            "cache-mb",
            "strategy",
            "listen",
            "admin",
            "data-dir",
            "checkpoint-every",
        ],
    )?;
    let cache_mb = options
        .flag("cache-mb")
        .map(|m| {
            m.parse::<usize>()
                .map_err(|_| "--cache-mb needs an integer")
        })
        .transpose()?
        .unwrap_or(64);
    // Checked: a huge --cache-mb must be a clean diagnostic, not a
    // debug-mode shift-overflow panic mid-setup.
    let cache_bytes = cache_mb
        .checked_mul(1 << 20)
        .ok_or_else(|| format!("--cache-mb {cache_mb} overflows the byte budget"))?;
    let strategy = options.flag("strategy").unwrap_or("auto");
    let strategy = pathlearn::graph::Strategy::ALL
        .into_iter()
        .find(|known| known.as_str() == strategy)
        .ok_or_else(|| format!("unknown strategy `{strategy}` (auto/forward/backward)"))?;
    let config = ServeConfig {
        cache: pathlearn::server::CacheConfig {
            capacity_bytes: cache_bytes,
        },
        strategy,
        ..ServeConfig::default()
    };

    let checkpoint_every = options
        .flag("checkpoint-every")
        .map(|n| {
            n.parse::<usize>()
                .map_err(|_| "--checkpoint-every needs an integer")
        })
        .transpose()?
        .unwrap_or(1024);

    if let Some(addr) = options.flag("listen") {
        if options.flag("queries").is_some() {
            return Err("--listen and --queries are mutually exclusive: \
                 --listen serves network clients, --queries drives a local workload"
                .into());
        }
        // Bind the admin surface before recovery: a deployment's health
        // checks can connect during WAL replay and see `503 recovering`
        // until the front door is up and content sources are installed.
        let admin = options
            .flag("admin")
            .map(|admin_addr| {
                pathlearn::server::AdminServer::bind(admin_addr)
                    .map_err(|e| format!("cannot bind admin address {admin_addr}: {e}"))
            })
            .transpose()?;
        let service = match options.flag("data-dir") {
            Some(dir) => {
                // Durable mode: the graph of record lives in DIR as
                // snapshot + WAL. The text file only seeds the first
                // run — a restart must recover the acknowledged state
                // even if the text file has since changed or vanished.
                let recovered =
                    pathlearn::server::Persistence::recover(dir, checkpoint_every, || {
                        options.load_graph()
                    })
                    .map_err(|e| format!("cannot recover data dir {dir}: {e}"))?;
                let report = &recovered.report;
                let source = match report.source {
                    pathlearn::server::wal::RecoverySource::Snapshot => "snapshot",
                    pathlearn::server::wal::RecoverySource::Fallback => {
                        "text graph (first run, snapshot seeded)"
                    }
                };
                println!(
                    "data dir {dir}: recovered from {source}, {} WAL record(s) replayed{}{}",
                    report.wal_records_replayed,
                    if report.torn_bytes_dropped > 0 {
                        format!(
                            ", {} torn byte(s) dropped from an unacknowledged final record",
                            report.torn_bytes_dropped
                        )
                    } else {
                        String::new()
                    },
                    if report.checkpointed {
                        ", checkpointed"
                    } else {
                        ""
                    }
                );
                let service = QueryService::new(recovered.graph, config);
                service.attach_persistence(recovered.persistence);
                service
            }
            None => QueryService::new(options.load_graph()?, config),
        };
        let durable = service.is_durable();
        let server =
            pathlearn::server::Server::bind(service, addr, pathlearn::server::NetConfig::default())
                .map_err(|e| format!("cannot listen on {addr}: {e}"))?;
        if let Some(admin) = &admin {
            admin.set_sources(server.admin_sources());
            println!(
                "admin surface on http://{} (/metrics, /healthz, /slow)",
                admin.local_addr()
            );
        }
        println!("listening on {}", server.local_addr());
        // Best-effort: a supervisor may close the pipe after the address
        // line, and println! would panic on the broken pipe.
        let mut stdout = std::io::stdout();
        writeln!(
            stdout,
            "protocol: framed binary v1 (see pathlearn-server::proto); {}stop with ^C",
            if durable {
                "deltas are fsynced before acknowledgment; "
            } else {
                ""
            }
        )
        .ok();
        // Flush so child-process supervisors see the address line
        // immediately even through a pipe.
        stdout.flush().ok();
        loop {
            std::thread::park();
        }
    }

    if options.flag("data-dir").is_some() {
        return Err("--data-dir requires --listen: durability attaches to the \
             live TCP server, not a one-shot local workload"
            .into());
    }
    let graph = options.load_graph()?;
    let queries_path = options.flag("queries").ok_or("missing --queries")?;
    let text = std::fs::read_to_string(queries_path)
        .map_err(|e| format!("cannot read workload file {queries_path}: {e}"))?;
    let mut queries = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let query = PathQuery::parse(line, graph.alphabet())
            .map_err(|e| format!("{queries_path}:{}: {e}", lineno + 1))?;
        queries.push((line.to_owned(), query.dfa().clone()));
    }
    if queries.is_empty() {
        return Err(format!("{queries_path} contains no queries"));
    }
    let clients = options
        .flag("clients")
        .map(|c| c.parse::<usize>().map_err(|_| "--clients needs an integer"))
        .transpose()?
        .unwrap_or(1)
        .max(1);
    // One OS thread per client: refuse a count no machine should be
    // asked for before any thread starts.
    if clients > MAX_CLIENTS {
        return Err(format!(
            "--clients {clients} exceeds the limit of {MAX_CLIENTS}"
        ));
    }
    let repeat = options
        .flag("repeat")
        .map(|r| r.parse::<usize>().map_err(|_| "--repeat needs an integer"))
        .transpose()?
        .unwrap_or(1)
        .max(1);
    // The workload: the query list cycled `repeat` times, drained by the
    // client threads from one atomic cursor. Checked, as --cache-mb is:
    // a huge --repeat is a diagnostic, not an overflow.
    let total = queries
        .len()
        .checked_mul(repeat)
        .ok_or_else(|| format!("--repeat {repeat} overflows the submission count"))?;
    let num_nodes = graph.num_nodes();
    let service = Arc::new(QueryService::new(graph, config));

    println!(
        "serving {} submissions ({} unique lines x {repeat}) over {clients} client thread(s)",
        total,
        queries.len()
    );
    println!(
        "cache budget: {cache_mb} MiB ≈ {} results on this graph",
        service.cache_capacity_results()
    );
    let cursor = AtomicUsize::new(0);
    let started = std::time::Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            let service = service.clone();
            let cursor = &cursor;
            let queries = &queries;
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    return;
                }
                service.query_monadic(&queries[i % queries.len()].1);
            });
        }
    });
    let wall = started.elapsed();
    // Snapshot counters BEFORE the per-query report below, so the
    // printed hit/miss numbers describe exactly the driven workload
    // (the report pass issues its own lookups).
    let stats = service.stats();
    let (entries, bytes) = service.cache_usage();

    // Per-query report: normally each entry is still a cache hit; with
    // a tight --cache-mb an evicted one is re-evaluated here.
    for (line, dfa) in &queries {
        let response = service.query_monadic(dfa);
        let marker = match response.served {
            Served::Hit => "cached",
            _ => "evaluated",
        };
        println!(
            "  {line}: {} of {} nodes ({marker}, canonical |Q| = {}, key {:016x})",
            response.result.len(),
            num_nodes,
            response.canonical_states,
            response.fingerprint
        );
    }
    println!(
        "served {total} in {:.3}s ({:.0} queries/s)",
        wall.as_secs_f64(),
        total as f64 / wall.as_secs_f64().max(1e-9)
    );
    println!(
        "cache: {} hits, {} misses, {} coalesced, hit rate {:.1}% ({} entries, {} KiB resident)",
        stats.hits,
        stats.misses,
        stats.coalesced,
        100.0 * stats.hit_rate(),
        entries,
        bytes / 1024
    );
    println!(
        "evals: {}; {:.3}s total eval time",
        stats.misses,
        stats.eval_ns_total as f64 / 1e9
    );
    println!(
        "planner: {} forward, {} backward",
        stats.forward_evals, stats.backward_evals
    );
    Ok(())
}

/// `pathlearn snapshot <graph.txt> <out.snap>`: parse a text graph and
/// write it as a versioned binary snapshot. Takes exactly two
/// positionals (the shared option parser handles one, so this command
/// parses its own) and no flags.
fn snapshot_command(args: &[String]) -> Result<(), String> {
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        return Err(format!("snapshot takes no flags, got `{flag}`"));
    }
    let [input, output] = args else {
        return Err("snapshot needs exactly `<graph.txt> <out.snap>`".into());
    };
    let text = std::fs::read_to_string(input).map_err(|e| format!("cannot read {input}: {e}"))?;
    let graph = parse_graph(&text).map_err(|e| e.to_string())?;
    graph
        .save_snapshot(output)
        .map_err(|e| format!("cannot write {output}: {e}"))?;
    let bytes = std::fs::metadata(output).map(|m| m.len()).unwrap_or(0);
    println!(
        "wrote {output}: {} nodes, {} edges, {} labels ({bytes} bytes)",
        graph.num_nodes(),
        graph.num_edges(),
        graph.alphabet().len()
    );
    Ok(())
}

/// `pathlearn update <ADDR> --add "src label dst" --remove "src label dst"`:
/// send one `DELTA` frame to a live server. Names are resolved
/// server-side, so a typo comes back as a `BAD_DELTA` diagnostic and the
/// served graph stays untouched.
fn update_command(args: &[String]) -> Result<(), String> {
    use pathlearn::server::Response;

    let options =
        parse_options(args, "update", &["add", "remove"]).map_err(|e| match e.as_str() {
            "missing graph file argument" => "missing server address argument".to_owned(),
            _ => e,
        })?;
    let addr = &options.graph_path; // positional slot doubles as ADDR here
    let parse_edges = |flag: &str| -> Result<Vec<(String, String, String)>, String> {
        options
            .flag_all(flag)
            .into_iter()
            .map(|spec| {
                let mut parts = spec.split_whitespace();
                match (parts.next(), parts.next(), parts.next(), parts.next()) {
                    (Some(src), Some(label), Some(dst), None) => {
                        Ok((src.to_owned(), label.to_owned(), dst.to_owned()))
                    }
                    _ => Err(format!(
                        "--{flag} needs exactly `src label dst`, got `{spec}`"
                    )),
                }
            })
            .collect()
    };
    let add = parse_edges("add")?;
    let remove = parse_edges("remove")?;
    if add.is_empty() && remove.is_empty() {
        return Err("need at least one --add/--remove edge".into());
    }

    let mut client = pathlearn::server::Client::connect(addr)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    match client
        .apply_delta(&add, &remove)
        .map_err(|e| format!("delta roundtrip failed: {e}"))?
    {
        Response::DeltaApplied {
            invalidated,
            compacted,
            delta_edges,
            ..
        } => {
            println!(
                "applied: +{} -{} edge(s); {invalidated} cache entries invalidated",
                add.len(),
                remove.len()
            );
            if compacted {
                println!("overlay compacted into the base graph");
            } else {
                println!("overlay now {delta_edges} pending edge(s)");
            }
            Ok(())
        }
        Response::Error { code, message, .. } => {
            Err(format!("server rejected: {code:?}: {message}"))
        }
        other => Err(format!("unexpected reply: {other:?}")),
    }
}

fn stats_command(args: &[String]) -> Result<(), String> {
    let options = parse_options(args, "stats", &[])?;
    let graph = options.load_graph()?;
    println!("nodes:  {}", graph.num_nodes());
    println!("edges:  {}", graph.num_edges());
    println!("labels: {}", graph.alphabet().len());
    let mut label_counts: Vec<(usize, &str)> = graph
        .alphabet()
        .entries()
        .map(|(sym, name)| {
            let count = graph.edges().filter(|&(_, s, _)| s == sym).count();
            (count, name)
        })
        .collect();
    label_counts.sort_unstable_by(|a, b| b.cmp(a));
    for (count, name) in label_counts.iter().take(10) {
        println!("  {name}: {count} edges");
    }
    let max_out = graph
        .nodes()
        .map(|n| graph.degree(Dir::Out, n))
        .max()
        .unwrap_or(0);
    println!("max out-degree: {max_out}");
    Ok(())
}

/// Oracle that asks the human at the terminal.
struct StdinOracle<'g> {
    graph: &'g GraphDb,
    radius: usize,
}

impl LabelOracle for StdinOracle<'_> {
    fn label(&mut self, node: NodeId) -> bool {
        let hood = neighborhood(self.graph, node, self.radius, true);
        println!(
            "\n── proposed node: {} ── ({} nodes / {} edges within distance {})",
            self.graph.node_name(node),
            hood.fragment.num_nodes(),
            hood.fragment.num_edges(),
            self.radius
        );
        for (src, sym, dst) in hood.fragment.edges() {
            println!(
                "    {} --{}--> {}",
                hood.fragment.node_name(src),
                hood.fragment.alphabet().name(sym),
                hood.fragment.node_name(dst)
            );
        }
        loop {
            print!("label {} [+/-]: ", self.graph.node_name(node));
            std::io::stdout().flush().ok();
            let mut line = String::new();
            if std::io::stdin().lock().read_line(&mut line).is_err() {
                return false;
            }
            match line.trim() {
                "+" | "y" | "yes" => return true,
                "-" | "n" | "no" => return false,
                other => println!("  (got `{other}`; answer + or -)"),
            }
        }
    }
}

fn interactive_command(args: &[String]) -> Result<(), String> {
    let options = parse_options(args, "interactive", &["goal", "strategy", "seed"])?;
    let graph = options.load_graph()?;
    let strategy = match options.flag("strategy").unwrap_or("kR") {
        "kR" | "kr" => StrategyKind::KRandom,
        "kS" | "ks" => StrategyKind::KSmallest,
        "exact" => StrategyKind::ExactInformative,
        other => return Err(format!("unknown strategy `{other}` (kR/kS/exact)")),
    };
    let seed = options
        .flag("seed")
        .map(|s| s.parse().map_err(|_| "--seed needs an integer"))
        .transpose()?
        .unwrap_or(42);
    let config = InteractiveConfig {
        strategy,
        seed,
        ..InteractiveConfig::default()
    };
    let session = InteractiveSession::new(&graph, config);

    let result = match options.flag("goal") {
        Some(expr) => {
            let goal = PathQuery::parse(expr, graph.alphabet()).map_err(|e| e.to_string())?;
            println!(
                "simulating a user with goal {} …",
                goal.display(graph.alphabet())
            );
            session.run_against_goal(&goal)
        }
        None => {
            println!("you are the user: label proposed nodes with + or -.");
            println!("(the session stops when no informative node remains)");
            let mut oracle = StdinOracle {
                graph: &graph,
                radius: 2,
            };
            session.run(&mut oracle, |_, _| false)
        }
    };

    println!(
        "\nsession over after {} labels ({:?})",
        result.labels_used(),
        result.halt
    );
    println!(
        "time between interactions: {:.1?} choosing the node + {:.1?} relearning (mean)",
        result.mean_propose_time(),
        result.mean_relearn_time()
    );
    match &result.query {
        Some(query) => {
            println!("learned query: {}", query.display(graph.alphabet()));
            let selected = query.eval(&graph);
            let mut names: Vec<&str> = selected
                .iter()
                .map(|n| graph.node_name(n as NodeId))
                .collect();
            names.sort();
            println!("selects: {}", names.join(", "));
        }
        None => println!("no query learned"),
    }
    Ok(())
}
