//! The paper-artifact binaries reject bad arguments with a one-line
//! `error:` and exit status 1, never with a panic and its backtrace.

use std::process::Command;

#[test]
fn bad_arguments_exit_1_with_an_error_line_and_no_panic() {
    let cases: [(&str, &[&str]); 8] = [
        (env!("CARGO_BIN_EXE_table1_selectivity"), &["--seed"]),
        (env!("CARGO_BIN_EXE_table1_selectivity"), &["--seed", "x"]),
        (env!("CARGO_BIN_EXE_table1_selectivity"), &["--bogus"]),
        (env!("CARGO_BIN_EXE_fig11_f1"), &["foo"]),
        // The bio-only binaries refuse the synthetic dataset and scale.
        (env!("CARGO_BIN_EXE_table1_selectivity"), &["syn"]),
        (env!("CARGO_BIN_EXE_table1_selectivity"), &["--full"]),
        (env!("CARGO_BIN_EXE_ablation_k"), &["syn"]),
        (env!("CARGO_BIN_EXE_ablation_k"), &["--full"]),
    ];
    for (binary, args) in cases {
        let output = Command::new(binary)
            .args(args)
            .env("RUST_BACKTRACE", "1")
            .output()
            .expect("run the binary");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}
