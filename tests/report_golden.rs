//! Golden test: `docs/report.txt` is the archived output of the report
//! binary. Whenever a solution, checker, or report section changes the
//! findings, regenerate the archive:
//!
//! ```text
//! cargo run --release -p bloom-bench --bin report > docs/report.txt
//! ```
//!
//! `EXPERIMENTS.md` quotes this file; keeping it in lockstep with the code
//! means the prose can be trusted without rerunning anything.

#![deny(deprecated)]

/// Where the reports first part: the line number, the `## ` section
/// heading above it, and both versions of the line.
fn first_difference(archived: &str, generated: &str) -> String {
    let (mut a, mut g) = (archived.lines(), generated.lines());
    let mut heading = "";
    for number in 1.. {
        let (old, new) = (a.next(), g.next());
        if old != new {
            let end = "(end of file)";
            return format!(
                "first difference at line {number}, under `{heading}`:\n  archived:  {}\n  \
                 generated: {}",
                old.unwrap_or(end),
                new.unwrap_or(end)
            );
        }
        match old {
            Some(line) if line.starts_with("## ") => heading = line,
            None => break,
            _ => {}
        }
    }
    "the reports differ only in line endings".to_string()
}

#[test]
fn archived_report_matches_generated_report() {
    let archived = include_str!("../docs/report.txt");
    let generated = bloom_bench::full_report();
    assert!(
        archived == generated,
        "docs/report.txt is stale — regenerate with \
         `cargo run --release -p bloom-bench --bin report > docs/report.txt`\n{}",
        first_difference(archived, &generated)
    );
}
