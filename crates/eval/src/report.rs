//! Plain-text / markdown / CSV rendering for experiment results.
//!
//! The benchmark binaries print the paper's tables and figure series as
//! aligned text tables (readable in a terminal) and optionally dump CSVs
//! under `results/` for external plotting.

use std::fmt::Write as _;
use std::time::Duration;

/// Renders an aligned plain-text table.
pub fn ascii_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let columns = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        assert_eq!(row.len(), columns, "row arity mismatch");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let mut out = String::new();
    let write_row = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate() {
            let _ = write!(out, "| {:width$} ", cell, width = widths[i]);
        }
        let _ = writeln!(out, "|");
    };
    let headers_owned: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    write_row(&mut out, &headers_owned);
    for (i, _) in headers.iter().enumerate() {
        let _ = write!(out, "|{:-<width$}", "", width = widths[i] + 2);
    }
    let _ = writeln!(out, "|");
    for row in rows {
        write_row(&mut out, row);
    }
    out
}

/// Renders a CSV document (naive quoting: cells must not contain commas
/// or quotes — all our cells are numbers and identifiers).
pub fn csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{}", headers.join(","));
    for row in rows {
        debug_assert!(row.iter().all(|c| !c.contains(',') && !c.contains('"')));
        let _ = writeln!(out, "{}", row.join(","));
    }
    out
}

/// Formats a fraction as a percentage with adaptive precision (the paper
/// prints "0.03%" and "22%" in the same table).
pub fn fmt_pct(fraction: f64) -> String {
    let pct = fraction * 100.0;
    if pct == 0.0 {
        "0%".to_owned()
    } else if pct < 0.1 {
        format!("{pct:.3}%")
    } else if pct < 1.0 {
        format!("{pct:.2}%")
    } else {
        format!("{pct:.1}%")
    }
}

/// Formats a duration in seconds with millisecond resolution, or — below
/// one second, where the interactive loop's rounds live — in milliseconds
/// with microsecond resolution.
pub fn fmt_secs(duration: Duration) -> String {
    let secs = duration.as_secs_f64();
    if secs >= 1.0 {
        format!("{secs:.3}s")
    } else {
        format!("{:.3}ms", secs * 1e3)
    }
}

/// Formats an F1 score.
pub fn fmt_f1(f1: f64) -> String {
    format!("{f1:.3}")
}

/// Writes a string to `results/<name>` relative to the workspace root
/// (creates the directory if needed); prints a notice with the path.
pub fn write_results_file(name: &str, contents: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("results");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    std::fs::write(&path, contents)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let table = ascii_table(
            &["query", "F1"],
            &[
                vec!["bio1".into(), "1.000".into()],
                vec!["a-very-long-name".into(), "0.5".into()],
            ],
        );
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines equally wide.
        assert!(lines
            .iter()
            .all(|l| l.chars().count() == lines[0].chars().count()));
        assert!(lines[0].contains("query"));
        assert!(lines[2].contains("bio1"));
    }

    #[test]
    fn csv_rendering() {
        let text = csv(
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        );
        assert_eq!(text, "a,b\n1,2\n3,4\n");
    }

    #[test]
    fn percentage_formatting_matches_paper_style() {
        assert_eq!(fmt_pct(0.0003), "0.030%");
        assert_eq!(fmt_pct(0.0006), "0.060%");
        assert_eq!(fmt_pct(0.0313), "3.1%");
        assert_eq!(fmt_pct(0.22), "22.0%");
        assert_eq!(fmt_pct(0.0), "0%");
        assert_eq!(fmt_pct(0.0077), "0.77%");
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_secs(Duration::from_millis(1234)), "1.234s");
        assert_eq!(fmt_secs(Duration::from_micros(120)), "0.120ms");
        assert_eq!(fmt_f1(0.98765), "0.988");
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn table_rejects_ragged_rows() {
        let _ = ascii_table(&["a"], &[vec!["1".into(), "2".into()]]);
    }
}
