//! The `repro` command line: where the command is found, what is
//! rejected, and that a proof which cannot hold is not attempted.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn a_flag_value_is_not_taken_for_the_command() {
    let out = repro(&["--frames", "13", "alloc-check"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(
        stdout(&out).contains("alloc-check — marginal heap allocations on smp, 13- vs 26-frame")
    );
}

#[test]
fn alloc_check_below_one_lane_batch_is_clamped_not_failed() {
    let out = repro(&["alloc-check", "--frames", "4"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("13- vs 26-frame"), "{text}");
    assert!(!text.lines().any(|l| l.starts_with("FAIL")), "{text}");
}

#[test]
fn unknown_flags_and_unparseable_values_are_usage_errors() {
    for args in [
        &["alloc-check", "--asert-zero"][..],
        &["alloc-check", "--frames", "abc"],
        &["alloc-check", "--frames"],
        &["alloc-check", "--backend", "gpu"],
        &["table1", "--frames", "13"],
        &["table1", "table2"],
        &["overload", "--jobs", "x"],
        &["overload", "--jobs"],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something: {out:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage: repro"),
            "{args:?}: {out:?}"
        );
    }
}

/// The lines of `text`, each with its runs of blanks collapsed to one
/// space, so a table row compares independent of column widths.
fn rows(text: &str) -> Vec<String> {
    text.lines()
        .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect()
}

#[test]
fn table2_and_figure5_print_the_paper_counts() {
    let out = repro(&["table2"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = stdout(&out);
    let table = rows(&text);
    for row in [
        "Fetch 1026 0 5382 0",
        "IDCT_1 342 342 1794 1794",
        "IDCT_2 342 342 1794 1794",
        "IDCT_3 342 342 1794 1794",
        "Reorder 0 1026 0 5382",
    ] {
        assert!(table.iter().any(|l| l == row), "no row {row:?} in:\n{text}");
    }
    assert!(
        table
            .iter()
            .any(|l| l.starts_with("structure check:") && l.ends_with("= 1026 / 5382")),
        "{text}"
    );

    let out = repro(&["figure5"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = stdout(&out);
    let listing = rows(&text);
    let interfaces: Vec<&str> = listing
        .iter()
        .map(String::as_str)
        .skip_while(|l| *l != "[Interface] [Type]")
        .skip(1)
        .take_while(|l| !l.is_empty())
        .collect();
    assert_eq!(
        interfaces,
        [
            "introspection provided",
            "_fetchIdct1 provided",
            "introspection required",
            "idctReorder required",
        ],
        "{text}"
    );
}

#[test]
fn help_lists_exactly_the_surviving_commands() {
    let out = repro(&["help"]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    let listed: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("  ")?.split_whitespace().next())
        .collect();
    let expected = "table1 table2 figure4 figure5 table3 figure8 cache memseries scaling \
                    dot alloc-check overload fuzz all help";
    assert_eq!(listed, expected.split_whitespace().collect::<Vec<_>>());
}
