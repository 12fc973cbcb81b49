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

/// The default-scale stdout of the four commands that print only
/// simulated quantities, byte for byte as recorded at `d5aa4f4`. The
/// simulator is deterministic, so any difference is a change to what
/// the simulated platform computes or charges, not noise. Not to be
/// re-recorded by a change that claims to leave simulated time alone.
const SIMULATED_OUTPUTS: [(&str, &str); 4] = [
    (
        "table3",
        r#"=== Table 3 — simulated STi7200 execution time and memory (58 frames) ===
Component      Time (s)    Wall (s)  Mem (kB)
Fetch-Reorder     0.607       0.619       110
IDCT_1            0.054       0.610        85
IDCT_2            0.054       0.610        85

Fetch-Reorder/IDCT task-time ratio: 11.1x  (paper: 1173/95 = 12.3x)
paper memory: Fetch-Reorder 110 kB (60 + 2x25); IDCTx 85 kB (60 + 25)

"#,
    ),
    (
        "figure8",
        r#"=== Figure 8 — STi7200 send execution time vs message size ===
size (kB)  Fetch-Reorder/ST40 (ms)  IDCT/ST231 (ms)
       1                    0.265            0.176
      10                    2.145            1.382
      25                    5.280            3.392
      50                   10.503            6.743
     100                   24.180           15.611
     200                   51.534           33.346
ST40 slope below knee 204.0 ns/B, above knee 267.1 ns/B (knee at 50 kB; the paper reports the same shape)
paper at 200 kB: Fetch-Reorder ~42 ms, IDCT ~28 ms

"#,
    ),
    (
        "cache",
        r#"=== X1 (paper section 6 future work) — cache-miss observation ===
per-CPU L1D statistics after the MJPEG run (58 frames):
  ST40          12000 hits    12624 misses  (51.27% miss)
  ST231_1        6076 hits     5210 misses  (46.16% miss)
  ST231_2        6073 hits     5213 misses  (46.19% miss)
  bus: 8208 transactions, busy 3.69 ms, queueing 0.00 ms

"#,
    ),
    (
        "scaling",
        r#"=== S1 — accelerator scaling on the simulated MPSoC ===
(paper section 1 motivates parts with 'dozens and even hundreds of computing cores';
 this sweep shows where the pipeline and the shared bus stop scaling)

paper workload (Fetch-Reorder-bound):
  IDCTs  virtual time (s)  speedup
      1             0.425    1.00x
      2             0.425    1.00x
      4             0.425    1.00x
      8             0.425    1.00x

IDCT-bound workload (200x DSP per block):
  IDCTs  virtual time (s)  speedup
      1             2.858    1.00x
      2             1.460    1.96x
      4             0.830    3.44x
      8             0.515    5.55x

The paper workload does not scale: the Fetch-Reorder component's serial work
dominates (the Table 3 bottleneck), so extra accelerators idle — Amdahl's law
observed through the component model. The IDCT-bound variant scales until the
ST40's per-frame fetch/reorder share becomes the new critical path.
"#,
    ),
];

#[test]
fn simulated_outputs_are_the_recorded_bytes() {
    for (command, recorded) in SIMULATED_OUTPUTS {
        let out = repro(&[command]);
        assert_eq!(out.status.code(), Some(0), "{command}: {out:?}");
        assert_eq!(stdout(&out), recorded, "repro {command}");
    }
}
