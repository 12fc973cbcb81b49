//! What a reader may conclude from a statistics block that is being
//! written (the guarantees listed in `embera::observe::stats`): on the
//! host backends an observer reads a component's `ComponentStats` from
//! its own execution flow while the component runs.
//!
//! Also pins the report order of `AppStats::interfaces` — required
//! then provided, a name that is both listed once — against the nested
//! scan it used to be computed with.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;

use embera::{AppStats, ComponentStats, IfaceCounterSnapshot, ObservationReport};

fn names(prefix: &str, n: usize) -> Vec<String> {
    (0..n).map(|i| format!("{prefix}{i}")).collect()
}

/// `AppStats` as it was computed before the report order was worked
/// out once: every declared name, required first, skipping a name
/// already listed (found by scanning what was listed so far).
fn app_stats_by_nested_scan(
    (provided, required): (&[String], &[String]),
    counts: &HashMap<String, (u64, u64)>,
) -> AppStats {
    let mut app = AppStats::default();
    for name in required.iter().chain(provided) {
        if app.interfaces.iter().any(|e| &e.interface == name) {
            continue;
        }
        let (sends, receives) = counts.get(name).copied().unwrap_or_default();
        app.total_sends += sends;
        app.total_receives += receives;
        app.interfaces.push(IfaceCounterSnapshot {
            interface: name.clone(),
            sends,
            receives,
        });
    }
    app
}

#[test]
fn a_name_both_provided_and_required_is_reported_once_where_it_first_appears() {
    let provided = ["in", "loop", "x"].map(String::from);
    let required = ["out", "loop", "y"].map(String::from);
    let stats = ComponentStats::new("c", &provided, &required);
    stats.record_send("loop", 8, 1);
    stats.record_receive("loop", 8, 1);
    stats.record_receive("in", 8, 1);
    let app = stats.app_stats();
    let listed: Vec<(&str, u64, u64)> = app
        .interfaces
        .iter()
        .map(|e| (e.interface.as_str(), e.sends, e.receives))
        .collect();
    assert_eq!(
        listed,
        [
            ("out", 0, 0),
            ("loop", 1, 1),
            ("y", 0, 0),
            ("in", 0, 1),
            ("x", 0, 0)
        ]
    );
    assert_eq!((app.total_sends, app.total_receives), (1, 2));
}

#[test]
fn a_1000_interface_report_equals_the_nested_scan() {
    // A fan-out source, plus a few names declared on both sides and a
    // few provided-only ones.
    let required = names("r", 1_000);
    let mut provided: Vec<String> = (0..1_000).step_by(97).map(|i| format!("r{i}")).collect();
    provided.extend(names("p", 5));
    let stats = ComponentStats::new("source", &provided, &required);
    let mut counts: HashMap<String, (u64, u64)> = HashMap::new();
    for (i, name) in required.iter().enumerate() {
        for _ in 0..1 + i % 3 {
            stats.record_send(name, 256, 200);
            counts.entry(name.clone()).or_default().0 += 1;
        }
    }
    for (i, name) in provided.iter().enumerate() {
        for _ in 0..i % 4 {
            stats.record_receive(name, 64, 100);
            counts.entry(name.clone()).or_default().1 += 1;
        }
    }
    let app = stats.app_stats();
    assert_eq!(app.interfaces.len(), 1_005);
    let declared = (&provided[..], &required[..]);
    assert_eq!(app, app_stats_by_nested_scan(declared, &counts));
    assert_eq!(stats.full_report(0).app, app);
}

/// Everything in one report that must hold whatever the writers are
/// doing, and everything that must hold from one report to the next.
fn check_snapshot(report: &ObservationReport, previous: Option<&ObservationReport>) {
    let app = &report.app;
    let sum = |f: fn(&IfaceCounterSnapshot) -> u64| app.interfaces.iter().map(f).sum::<u64>();
    assert_eq!(app.total_sends, sum(|e| e.sends));
    assert_eq!(app.total_receives, sum(|e| e.receives));
    // A timing covers at least the operations it counts — every send
    // takes 7 ns, so one counted but not yet added shows — and never
    // the empty accumulator's sentinels once it counts one (receives
    // take 5..=9 ns).
    let (send, recv) = (&report.middleware.send, &report.middleware.recv);
    assert!(send.total_ns >= 7 * send.count, "{send:?}");
    assert!(recv.total_ns >= 5 * recv.count, "{recv:?}");
    for (timing, fastest, slowest) in [(send, 7, 7), (recv, 5, 9)] {
        assert!(timing.max_ns <= slowest, "{timing:?}");
        if timing.count > 0 {
            assert!((fastest..=slowest).contains(&timing.min_ns), "{timing:?}");
            assert!(timing.min_ns <= timing.max_ns, "{timing:?}");
        }
    }
    let Some(previous) = previous else { return };
    let pairs = [
        (previous.app.total_sends, app.total_sends),
        (previous.app.total_receives, app.total_receives),
        (previous.middleware.send.count, report.middleware.send.count),
        (
            previous.middleware.send.total_ns,
            report.middleware.send.total_ns,
        ),
        (
            previous.middleware.send.max_ns,
            report.middleware.send.max_ns,
        ),
        (previous.middleware.recv.count, report.middleware.recv.count),
        (
            previous.middleware.recv.total_ns,
            report.middleware.recv.total_ns,
        ),
        (previous.middleware.bytes_sent, report.middleware.bytes_sent),
        (
            previous.middleware.bytes_received,
            report.middleware.bytes_received,
        ),
        (
            previous.health.unwrap().last_progress_ns,
            report.health.unwrap().last_progress_ns,
        ),
    ];
    for (i, (before, after)) in pairs.into_iter().enumerate() {
        assert!(
            before <= after,
            "counter {i} went back: {before} -> {after}"
        );
    }
    for (before, after) in previous.app.interfaces.iter().zip(&app.interfaces) {
        assert!(before.sends <= after.sends && before.receives <= after.receives);
    }
    if previous.middleware.send.count > 0 {
        assert!(report.middleware.send.min_ns <= previous.middleware.send.min_ns);
    }
}

#[test]
fn readers_racing_the_writers_see_monotone_coherent_snapshots() {
    const OPS: u64 = if cfg!(debug_assertions) {
        200_000
    } else {
        2_000_000
    };
    let stats = ComponentStats::new(
        "c",
        &["in".to_string()],
        &["out".to_string(), "aux".to_string()],
    );
    stats.mark_started(0);
    // The readers' clock: one tick per snapshot, shared, so both
    // folders of progress marks stamp with comparable times.
    let clock = AtomicU64::new(1);
    let writing = AtomicUsize::new(2);
    let start = Barrier::new(4);
    std::thread::scope(|s| {
        s.spawn(|| {
            start.wait();
            for i in 0..OPS {
                let iface = if i % 4 == 0 { "aux" } else { "out" };
                stats.record_send(iface, 64, 7);
                stats.mark_progress();
            }
            writing.fetch_sub(1, Ordering::Release);
        });
        s.spawn(|| {
            start.wait();
            for i in 0..OPS {
                stats.record_receive("in", 32, 5 + i % 5);
                stats.mark_progress();
            }
            writing.fetch_sub(1, Ordering::Release);
        });
        // Two readers: each folds progress marks, like the component's
        // own runtime and an observer reading in place.
        let reader = || {
            start.wait();
            let mut previous: Option<ObservationReport> = None;
            let mut snapshots = 0u64;
            while writing.load(Ordering::Acquire) > 0 {
                let report = stats.full_report(clock.fetch_add(1, Ordering::Relaxed));
                check_snapshot(&report, previous.as_ref());
                previous = Some(report);
                snapshots += 1;
            }
            snapshots
        };
        let second = s.spawn(reader);
        assert!(reader() > 0 && second.join().unwrap() > 0);
    });
    // Quiescent: exact, and a fold with nothing new to fold stamps
    // nothing.
    let now = clock.load(Ordering::Relaxed);
    let report = stats.full_report(now);
    check_snapshot(&report, None);
    assert_eq!(report.app.total_sends, OPS);
    assert_eq!(report.app.total_receives, OPS);
    assert_eq!(report.middleware.send.count, OPS);
    assert_eq!(report.middleware.recv.count, OPS);
    assert_eq!(report.middleware.send.total_ns, 7 * OPS);
    assert_eq!(report.middleware.recv.min_ns, 5);
    assert_eq!(report.middleware.recv.max_ns, 9);
    assert_eq!(report.middleware.bytes_sent, 64 * OPS);
    let folded = report.health.unwrap().last_progress_ns;
    assert!(folded <= now);
    assert_eq!(stats.health(now + 1_000).last_progress_ns, folded);
}

#[test]
fn a_late_folder_with_an_older_clock_undoes_nothing() {
    let stats = ComponentStats::new("c", &[], &[]);
    stats.mark_started(10);
    stats.mark_progress();
    assert_eq!(stats.health(100).last_progress_ns, 100);
    // A second folder whose clock reading is older.
    assert_eq!(stats.health(50).last_progress_ns, 100);
    stats.mark_progress();
    assert_eq!(stats.health(70).last_progress_ns, 100, "never goes back");
    // That fold consumed the mark: nothing is stamped later for it.
    assert_eq!(stats.health(200).last_progress_ns, 100);
    stats.mark_progress();
    assert_eq!(stats.health(300).last_progress_ns, 300);
}
