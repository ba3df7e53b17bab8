//! Integration tests for the `pathlearn` command-line interface, driving
//! the real binary through `std::process::Command`.

use std::io::Write as _;
use std::process::Command;

fn pathlearn_binary() -> &'static str {
    env!("CARGO_BIN_EXE_pathlearn")
}

fn g0_file() -> tempfile::TempPath {
    let mut file = tempfile::Builder::new()
        .prefix("g0")
        .suffix(".txt")
        .tempfile()
        .expect("tempfile");
    let edges = [
        ("v1", "a", "v2"),
        ("v1", "b", "v7"),
        ("v2", "a", "v3"),
        ("v2", "b", "v3"),
        ("v3", "a", "v2"),
        ("v3", "a", "v3"),
        ("v3", "a", "v4"),
        ("v3", "c", "v4"),
        ("v5", "a", "v4"),
        ("v5", "b", "v4"),
        ("v6", "a", "v5"),
        ("v6", "a", "v4"),
        ("v6", "b", "v7"),
        ("v7", "a", "v6"),
        ("v7", "b", "v5"),
    ];
    for (s, l, d) in edges {
        writeln!(file, "{s} {l} {d}").unwrap();
    }
    file.into_temp_path()
}

mod tempfile {
    //! Minimal temp-file helper (no external dependency): creates a file
    //! under `std::env::temp_dir()` that is removed on drop.
    use std::path::{Path, PathBuf};

    pub struct Builder {
        prefix: String,
        suffix: String,
    }

    impl Builder {
        pub fn new() -> Self {
            Builder {
                prefix: String::new(),
                suffix: String::new(),
            }
        }
        pub fn prefix(mut self, p: &str) -> Self {
            self.prefix = p.to_owned();
            self
        }
        pub fn suffix(mut self, s: &str) -> Self {
            self.suffix = s.to_owned();
            self
        }
        pub fn tempfile(self) -> std::io::Result<TempFile> {
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos();
            let path = std::env::temp_dir().join(format!(
                "{}-{}-{}{}",
                self.prefix,
                std::process::id(),
                nanos,
                self.suffix
            ));
            let file = std::fs::File::create(&path)?;
            Ok(TempFile { file, path })
        }
    }

    pub struct TempFile {
        file: std::fs::File,
        path: PathBuf,
    }

    impl TempFile {
        pub fn into_temp_path(self) -> TempPath {
            TempPath { path: self.path }
        }
    }

    impl std::io::Write for TempFile {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.file.write(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.file.flush()
        }
    }

    pub struct TempPath {
        path: PathBuf,
    }

    impl std::ops::Deref for TempPath {
        type Target = Path;
        fn deref(&self) -> &Path {
            &self.path
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

fn run(args: &[&str]) -> (String, String, bool) {
    let output = Command::new(pathlearn_binary())
        .args(args)
        .output()
        .expect("spawn pathlearn");
    (
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
        output.status.success(),
    )
}

#[test]
fn help_prints_usage() {
    let (stdout, _, ok) = run(&["help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("interactive"));
}

#[test]
fn stats_reports_graph_shape() {
    let path = g0_file();
    let (stdout, _, ok) = run(&["stats", path.to_str().unwrap()]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("nodes:  7"));
    assert!(stdout.contains("edges:  15"));
    assert!(stdout.contains("labels: 3"));
}

#[test]
fn eval_lists_selected_nodes() {
    let path = g0_file();
    let (stdout, _, ok) = run(&["eval", path.to_str().unwrap(), "--query", "(a.b)*.c"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("selects 2 of 7 nodes"));
    assert!(stdout.contains("v1"));
    assert!(stdout.contains("v3"));
}

#[test]
fn learn_reproduces_paper_example() {
    let path = g0_file();
    let (stdout, _, ok) = run(&[
        "learn",
        path.to_str().unwrap(),
        "--pos",
        "v1,v3",
        "--neg",
        "v2,v7",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("learned: (a·b)*·c"), "{stdout}");
    assert!(stdout.contains("SCP v1: a·b·c"));
    assert!(stdout.contains("SCP v3: c"));
}

#[test]
fn learn_abstains_politely_on_inconsistency() {
    // v4 positive but all its paths ({ε}) covered by any negative.
    let path = g0_file();
    let (_, stderr, ok) = run(&[
        "learn",
        path.to_str().unwrap(),
        "--pos",
        "v4",
        "--neg",
        "v5",
    ]);
    assert!(!ok);
    assert!(stderr.contains("abstained"), "{stderr}");
}

#[test]
fn learn_rejects_a_node_labelled_both_ways() {
    // Contradictory labels are user input: a one-line error naming the
    // node and exit 1, like an unknown node — not a `Sample::add` panic.
    let path = g0_file();
    let output = Command::new(pathlearn_binary())
        .args([
            "learn",
            path.to_str().unwrap(),
            "--pos",
            "v1",
            "--neg",
            "v1",
        ])
        .output()
        .expect("spawn pathlearn");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert_eq!(
        stderr.lines().next(),
        Some("error: node `v1` is labelled both --pos and --neg")
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn interactive_with_simulated_goal() {
    let path = g0_file();
    let (stdout, _, ok) = run(&[
        "interactive",
        path.to_str().unwrap(),
        "--goal",
        "(a.b)*.c",
        "--strategy",
        "kS",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("learned query: (a·b)*·c"), "{stdout}");
    assert!(stdout.contains("selects: v1, v3"));
}

#[test]
fn serve_runs_a_duplicate_heavy_workload_with_cache_hits() {
    let graph = g0_file();
    let mut queries = tempfile::Builder::new()
        .prefix("queries")
        .suffix(".txt")
        .tempfile()
        .expect("tempfile");
    // Duplicate-heavy: two spellings of (a·b)*·c, one of a, a comment.
    writeln!(queries, "# workload").unwrap();
    writeln!(queries, "(a.b)*.c").unwrap();
    writeln!(queries, "c+a.b.(a.b)*.c").unwrap();
    writeln!(queries, "a").unwrap();
    let queries = queries.into_temp_path();
    let (stdout, stderr, ok) = run(&[
        "serve",
        graph.to_str().unwrap(),
        "--queries",
        queries.to_str().unwrap(),
        "--clients",
        "2",
        "--repeat",
        "4",
    ]);
    assert!(ok, "{stdout}\n{stderr}");
    assert!(stdout.contains("serving 12 submissions"), "{stdout}");
    // 2 unique languages → 2 misses; everything else reused.
    assert!(stdout.contains("2 misses"), "{stdout}");
    assert!(stdout.contains("(a.b)*.c: 2 of 7 nodes"), "{stdout}");
    assert!(stdout.contains("a: 6 of 7 nodes"), "{stdout}");
    // Equivalent spellings share one canonical key.
    let keys: Vec<&str> = stdout
        .lines()
        .filter(|l| l.contains("key "))
        .filter(|l| l.contains("of 7 nodes"))
        .filter_map(|l| l.split("key ").nth(1))
        .map(|k| k.trim_end_matches(')'))
        .collect();
    assert_eq!(keys.len(), 3, "{stdout}");
    assert_eq!(keys[0], keys[1], "equivalent spellings share a key");
    assert_ne!(keys[0], keys[2]);
}

#[test]
fn serve_rejects_bad_workloads() {
    let graph = g0_file();
    let (_, stderr, ok) = run(&["serve", graph.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("--queries"), "{stderr}");
    let mut queries = tempfile::Builder::new()
        .prefix("badq")
        .suffix(".txt")
        .tempfile()
        .expect("tempfile");
    writeln!(queries, "a·(").unwrap();
    let queries = queries.into_temp_path();
    let (_, stderr, ok) = run(&[
        "serve",
        graph.to_str().unwrap(),
        "--queries",
        queries.to_str().unwrap(),
    ]);
    assert!(!ok);
    assert!(
        stderr.contains(":1:"),
        "parse error names the line: {stderr}"
    );
}

#[test]
fn serve_reports_missing_or_oversized_setup_cleanly() {
    // A missing workload file is a diagnostic + nonzero exit, not a
    // panic mid-setup.
    let graph = g0_file();
    let (_, stderr, ok) = run(&[
        "serve",
        graph.to_str().unwrap(),
        "--queries",
        "/nonexistent/workload.txt",
    ]);
    assert!(!ok);
    assert!(
        stderr.contains("cannot read workload file"),
        "missing workload diagnostic: {stderr}"
    );
    // An absurd --cache-mb is a clean overflow diagnostic, not a
    // debug-mode arithmetic panic.
    let mut queries = tempfile::Builder::new()
        .prefix("okq")
        .suffix(".txt")
        .tempfile()
        .expect("tempfile");
    writeln!(queries, "a").unwrap();
    let queries = queries.into_temp_path();
    let (_, stderr, ok) = run(&[
        "serve",
        graph.to_str().unwrap(),
        "--queries",
        queries.to_str().unwrap(),
        "--cache-mb",
        "18446744073709551615",
    ]);
    assert!(!ok);
    assert!(
        stderr.contains("--cache-mb") && stderr.contains("overflow"),
        "overflow diagnostic: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "setup errors must not panic: {stderr}"
    );
    // So is an absurd --repeat: two lines times usize::MAX submissions
    // overflow the count.
    let mut two_lines = tempfile::Builder::new()
        .prefix("twoq")
        .suffix(".txt")
        .tempfile()
        .expect("tempfile");
    writeln!(two_lines, "a").unwrap();
    writeln!(two_lines, "b").unwrap();
    let two_lines = two_lines.into_temp_path();
    let (_, stderr, ok) = run(&[
        "serve",
        graph.to_str().unwrap(),
        "--queries",
        two_lines.to_str().unwrap(),
        "--repeat",
        "18446744073709551615",
    ]);
    assert!(!ok);
    assert!(
        stderr.contains("--repeat") && stderr.contains("overflow"),
        "overflow diagnostic: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "setup errors must not panic: {stderr}"
    );
    // So is an absurd --clients: one thread per client, refused with
    // exit 1 before the first one starts.
    let output = Command::new(pathlearn_binary())
        .args([
            "serve",
            graph.to_str().unwrap(),
            "--queries",
            queries.to_str().unwrap(),
            "--clients",
            "18446744073709551615",
        ])
        .output()
        .expect("spawn pathlearn");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert_eq!(
        stderr.lines().next(),
        Some("error: --clients 18446744073709551615 exceeds the limit of 1024")
    );
    assert!(
        !stderr.contains("panicked"),
        "setup errors must not panic: {stderr}"
    );
    // --listen and --queries are mutually exclusive.
    let (_, stderr, ok) = run(&[
        "serve",
        graph.to_str().unwrap(),
        "--queries",
        queries.to_str().unwrap(),
        "--listen",
        "127.0.0.1:0",
    ]);
    assert!(!ok);
    assert!(stderr.contains("mutually exclusive"), "{stderr}");
}

#[test]
fn serve_listen_answers_framed_tcp_queries() {
    use pathlearn::server::{Client, Response, NO_DEADLINE_MS};
    use std::io::BufRead as _;

    let graph = g0_file();
    let mut child = Command::new(pathlearn_binary())
        .args(["serve", graph.to_str().unwrap(), "--listen", "127.0.0.1:0"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn pathlearn serve --listen");
    let stdout = child.stdout.take().expect("child stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let first = lines
        .next()
        .expect("address line")
        .expect("read address line");
    let addr = first
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected first line: {first}"))
        .trim()
        .to_owned();

    let result = std::panic::catch_unwind(move || {
        let mut client = Client::connect(&addr).expect("connect to served port");
        client.ping().expect("ping");
        // Figure 3's (a·b)*·c selects v1 and v3 on G0.
        match client.query_text("(a.b)*.c", NO_DEADLINE_MS).unwrap() {
            Response::Result { bits, .. } => assert_eq!(bits.len(), 2),
            other => panic!("expected RESULT, got {other:?}"),
        }
        let stats = client.stats().expect("stats frame");
        assert!(stats
            .iter()
            .any(|(name, v)| name == "net.queries" && *v >= 1));
    });
    child.kill().ok();
    child.wait().ok();
    if let Err(panic) = result {
        std::panic::resume_unwind(panic);
    }
}

#[test]
fn update_rejects_malformed_edge_specs_cleanly() {
    // Edge specs are parsed before any connection is attempted, so the
    // bogus address is never dialed and the diagnostic names the spec.
    let (_, stderr, ok) = run(&["update", "127.0.0.1:1", "--add", "x a"]);
    assert!(!ok);
    assert!(
        stderr.contains("needs exactly `src label dst`") && stderr.contains("x a"),
        "malformed --add diagnostic: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    let (_, stderr, ok) = run(&["update", "127.0.0.1:1", "--remove", "a b c d"]);
    assert!(!ok);
    assert!(
        stderr.contains("needs exactly `src label dst`"),
        "four-token --remove diagnostic: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn update_reports_unresolvable_server_cleanly() {
    // RFC 2606 reserves .invalid, so resolution fails without touching
    // the network; the failure must be a diagnostic, never a panic.
    let (_, stderr, ok) = run(&[
        "update",
        "does-not-resolve.invalid:4617",
        "--add",
        "v1 a v2",
    ]);
    assert!(!ok);
    assert!(
        stderr.contains("cannot connect to does-not-resolve.invalid:4617"),
        "unresolvable-address diagnostic: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn snapshot_subcommand_converts_a_text_graph() {
    let graph = g0_file();
    let out = std::env::temp_dir().join(format!("pathlearn-cli-snap-{}.snap", std::process::id()));
    let (stdout, stderr, ok) = run(&["snapshot", graph.to_str().unwrap(), out.to_str().unwrap()]);
    assert!(ok, "{stdout}\n{stderr}");
    assert!(stdout.contains("7 nodes"), "{stdout}");
    assert!(stdout.contains("15 edges"), "{stdout}");
    let loaded = pathlearn::graph::GraphDb::load_snapshot(&out).expect("load written snapshot");
    assert_eq!(loaded.num_nodes(), 7);
    assert_eq!(loaded.num_edges(), 15);
    std::fs::remove_file(&out).ok();

    // Wrong arity and stray flags are diagnostics, not panics.
    let (_, stderr, ok) = run(&["snapshot", graph.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("exactly"), "{stderr}");
    let (_, stderr, ok) = run(&["snapshot", graph.to_str().unwrap(), "out", "--force"]);
    assert!(!ok);
    assert!(stderr.contains("no flags"), "{stderr}");
}

#[test]
fn serve_data_dir_recovers_acknowledged_deltas_after_restart() {
    use pathlearn::server::{Client, Response, NO_DEADLINE_MS};
    use std::io::BufRead as _;

    let graph = g0_file();
    let data_dir =
        std::env::temp_dir().join(format!("pathlearn-cli-data-dir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);

    // --data-dir without --listen is a diagnostic, not a panic.
    let (_, stderr, ok) = run(&[
        "serve",
        graph.to_str().unwrap(),
        "--data-dir",
        data_dir.to_str().unwrap(),
        "--queries",
        "/dev/null",
    ]);
    assert!(!ok);
    assert!(stderr.contains("--data-dir requires --listen"), "{stderr}");

    // Spawns a durable server and collects (child, addr, banner lines
    // printed before the address).
    let spawn_server = |graph: &str, dir: &str| {
        let mut child = Command::new(pathlearn_binary())
            .args(["serve", graph, "--listen", "127.0.0.1:0", "--data-dir", dir])
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn durable serve");
        let stdout = child.stdout.take().expect("child stdout");
        let mut lines = std::io::BufReader::new(stdout).lines();
        let mut banner = Vec::new();
        let addr = loop {
            let line = lines.next().expect("address line").expect("read line");
            if let Some(a) = line.strip_prefix("listening on ") {
                break a.trim().to_owned();
            }
            banner.push(line);
        };
        (child, addr, banner.join("\n"))
    };

    let (mut child, addr, banner) =
        spawn_server(graph.to_str().unwrap(), data_dir.to_str().unwrap());
    assert!(banner.contains("first run"), "{banner}");
    let result = std::panic::catch_unwind(move || {
        let mut client = Client::connect(&addr).expect("connect to durable server");
        // G0: only v3 has an outgoing c edge.
        match client.query_text("c", NO_DEADLINE_MS).unwrap() {
            Response::Result { bits, .. } => assert_eq!(bits.len(), 1),
            other => panic!("expected RESULT, got {other:?}"),
        }
        match client
            .apply_delta(&[("v1".into(), "c".into(), "v4".into())], &[])
            .unwrap()
        {
            Response::DeltaApplied { .. } => {}
            other => panic!("expected DELTA_APPLIED, got {other:?}"),
        }
    });
    child.kill().ok();
    child.wait().ok();
    if let Err(panic) = result {
        std::panic::resume_unwind(panic);
    }

    // Restart over the same data dir: the acknowledged delta survives
    // the kill, recovered from snapshot + WAL rather than the text file.
    let (mut child, addr, banner) =
        spawn_server(graph.to_str().unwrap(), data_dir.to_str().unwrap());
    assert!(banner.contains("recovered from snapshot"), "{banner}");
    assert!(banner.contains("1 WAL record(s) replayed"), "{banner}");
    let result = std::panic::catch_unwind(move || {
        let mut client = Client::connect(&addr).expect("reconnect after restart");
        match client.query_text("c", NO_DEADLINE_MS).unwrap() {
            Response::Result { bits, .. } => {
                assert_eq!(bits.len(), 2, "v1 --c--> v4 must survive the restart")
            }
            other => panic!("expected RESULT, got {other:?}"),
        }
    });
    child.kill().ok();
    child.wait().ok();
    if let Err(panic) = result {
        std::panic::resume_unwind(panic);
    }
    std::fs::remove_dir_all(&data_dir).ok();
}

#[test]
fn unknown_flags_and_files_error_cleanly() {
    let (_, stderr, ok) = run(&["learn", "/nonexistent/graph.txt", "--pos", "x"]);
    assert!(!ok);
    assert!(stderr.contains("error:"));
    let (_, stderr, ok) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
    // A flag the command does not take is an error naming the flag and
    // the accepted ones, never silently ignored.
    let graph = g0_file();
    let graph = graph.to_str().unwrap();
    for (args, flag) in [
        (
            vec!["eval", graph, "--query", "a", "--qeury", "b"],
            "--qeury",
        ),
        (
            vec!["learn", graph, "--pos", "v1", "--threads", "2"],
            "--threads",
        ),
        (vec!["serve", graph, "--threads", "2"], "--threads"),
        (vec!["stats", graph, "--bogus", "1"], "--bogus"),
    ] {
        let (_, stderr, ok) = run(&args);
        assert!(!ok, "{args:?} must fail");
        assert!(
            stderr.contains(&format!("unknown flag {flag} for {}", args[0])),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains("accepted:"), "{stderr}");
    }
    // So is a strategy the planner does not have.
    for strategy in ["bidirectional", "bidi"] {
        let (_, stderr, ok) = run(&["serve", graph, "--strategy", strategy]);
        assert!(!ok, "--strategy {strategy} must fail");
        assert!(
            stderr.contains(&format!(
                "unknown strategy `{strategy}` (auto/forward/backward)"
            )),
            "{stderr}"
        );
    }
}
