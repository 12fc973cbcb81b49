//! Lost-wakeup regression stress: the classic M:N executor bug is a
//! `send` racing with the receiver's empty-mailbox park — if the wake is
//! consumed before the task is actually parked (or the parked flag is
//! published before the context is saved), the component strands forever.
//!
//! The executor's defense is the `RUNNING → NOTIFIED` / `PARKED →
//! QUEUED` state machine in which the *worker* completes the park
//! transition only after the fiber context is saved. These tests hammer
//! exactly that window from every angle — ping-pong round trips (each
//! round is a park racing a send), many-to-one bursts, and timer wakes
//! racing message wakes — under a watchdog, so a stranded component
//! fails the test instead of hanging the suite. Iteration counts scale
//! up under `--release` (the CI stress configuration).

use std::sync::mpsc;
use std::time::Duration;

use bytes::Bytes;
use embera::behavior::behavior_fn;
use embera::{AppBuilder, AppSpec, ComponentSpec, Platform, RunningApp};
use embera_exec::ExecPlatform;

/// Round trips per ping-pong app. Every round parks both components
/// once, so this is also the number of race windows exercised.
const ROUNDS: u32 = if cfg!(debug_assertions) {
    2_000
} else {
    20_000
};

/// Fresh-deploy repetitions (the deploy/teardown edges have their own
/// races: initial QUEUED wakes, shutdown wake-all).
const DEPLOYS: usize = if cfg!(debug_assertions) { 3 } else { 10 };
const STACK: u64 = 256 * 1024;

/// Run `f` to completion or fail the test after `secs`: a lost wakeup
/// manifests as a hang, which must become a red test, not a stuck CI job.
fn with_watchdog<F>(name: &str, secs: u64, f: F)
where
    F: FnOnce() + Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(()) => handle.join().expect("stress body panicked"),
        Err(_) => panic!("{name}: hang — a component was stranded (lost wakeup)"),
    }
}

fn ping_pong_app(rounds: u32) -> AppSpec {
    let mut app = AppBuilder::new("ping-pong");
    app.add(
        ComponentSpec::new(
            "ping",
            behavior_fn(move |ctx| {
                for i in 0..rounds {
                    ctx.send("out", Bytes::copy_from_slice(&i.to_le_bytes()))?;
                    let echo = ctx.recv("in")?;
                    assert_eq!(echo.as_ref(), i.to_le_bytes());
                }
                Ok(())
            }),
        )
        .with_provided("in")
        .with_required("out")
        .with_stack_bytes(STACK),
    );
    app.add(
        ComponentSpec::new(
            "pong",
            behavior_fn(move |ctx| {
                for _ in 0..rounds {
                    let m = ctx.recv("in")?;
                    ctx.send("out", m)?;
                }
                Ok(())
            }),
        )
        .with_provided("in")
        .with_required("out")
        .with_stack_bytes(STACK),
    );
    app.connect(("ping", "out"), ("pong", "in"));
    app.connect(("pong", "out"), ("ping", "in"));
    app.build().unwrap()
}

/// One message per round trip: every single receive parks (no batching
/// headroom), so each of the `ROUNDS` iterations races a park against a
/// send. Two workers put sender and receiver on different threads.
#[test]
fn ping_pong_never_strands_across_workers() {
    with_watchdog("ping_pong_2_workers", 120, || {
        for _ in 0..DEPLOYS {
            let report = ExecPlatform::with_workers(2)
                .deploy(ping_pong_app(ROUNDS))
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(
                report.component("pong").unwrap().app.total_receives,
                ROUNDS as u64
            );
        }
    });
}

/// Same protocol on a single worker: the park/wake handoff must also be
/// correct when both fibers share one carrier thread (a wake that is
/// dropped instead of flipping RUNNING→NOTIFIED deadlocks immediately).
#[test]
fn ping_pong_never_strands_on_one_worker() {
    with_watchdog("ping_pong_1_worker", 120, || {
        for _ in 0..DEPLOYS {
            let report = ExecPlatform::with_workers(1)
                .deploy(ping_pong_app(ROUNDS))
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(
                report.component("ping").unwrap().app.total_sends,
                ROUNDS as u64
            );
        }
    });
}

/// Many producers bursting into one consumer: the consumer's park races
/// several concurrent sends at once, and consecutive wakes must coalesce
/// (NOTIFIED/QUEUED are no-ops) without ever losing the last one.
#[test]
fn fan_in_burst_never_strands_the_consumer() {
    const PRODUCERS: usize = 8;
    let msgs: u32 = if cfg!(debug_assertions) {
        2_000
    } else {
        10_000
    };
    with_watchdog("fan_in_burst", 120, move || {
        let mut app = AppBuilder::new("burst");
        for p in 0..PRODUCERS {
            app.add(
                ComponentSpec::new(
                    format!("prod{p}"),
                    behavior_fn(move |ctx| {
                        for i in 0..msgs {
                            ctx.send("out", Bytes::copy_from_slice(&i.to_le_bytes()))?;
                        }
                        Ok(())
                    }),
                )
                .with_required("out")
                .with_stack_bytes(STACK),
            );
            app.connect((format!("prod{p}").as_str(), "out"), ("sink", "in"));
        }
        let total = PRODUCERS as u64 * msgs as u64;
        app.add(
            ComponentSpec::new(
                "sink",
                behavior_fn(move |ctx| {
                    for _ in 0..total {
                        ctx.recv("in")?;
                    }
                    Ok(())
                }),
            )
            .with_provided("in")
            .with_stack_bytes(STACK),
        );
        let report = ExecPlatform::with_workers(3)
            .deploy(app.build().unwrap())
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(report.component("sink").unwrap().app.total_receives, total);
    });
}

/// Timer wakes racing message wakes: the consumer polls with short timed
/// receives while the producer sends at full speed. A timeout expiring at
/// the same instant a message lands must neither strand the consumer nor
/// lose the message (timeouts are spurious wakes from the mailbox's point
/// of view).
#[test]
fn timer_and_send_wakes_compose() {
    let msgs: u32 = if cfg!(debug_assertions) { 1_000 } else { 5_000 };
    with_watchdog("timer_vs_send", 120, move || {
        let mut app = AppBuilder::new("timer-race");
        app.add(
            ComponentSpec::new(
                "prod",
                behavior_fn(move |ctx| {
                    for i in 0..msgs {
                        ctx.send("out", Bytes::copy_from_slice(&i.to_le_bytes()))?;
                    }
                    Ok(())
                }),
            )
            .with_required("out")
            .with_stack_bytes(STACK),
        );
        app.add(
            ComponentSpec::new(
                "cons",
                behavior_fn(move |ctx| {
                    let mut got = 0u32;
                    while got < msgs {
                        // 50 µs deadline: expires constantly while the
                        // producer is still warming up, so timer wakes
                        // and send wakes interleave heavily.
                        if ctx.recv_timeout("in", 50_000)?.is_some() {
                            got += 1;
                        }
                    }
                    Ok(())
                }),
            )
            .with_provided("in")
            .with_stack_bytes(STACK),
        );
        app.connect(("prod", "out"), ("cons", "in"));
        let report = ExecPlatform::with_workers(2)
            .deploy(app.build().unwrap())
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(
            report.component("cons").unwrap().app.total_receives,
            msgs as u64
        );
    });
}

/// A consumer blocked in `recv_any` over two inboxes, scanned `a` then
/// `b`, and two producers that push one message each per round and
/// take turns pushing last (the first hands the turn over with a
/// message, both then wait for the consumer's acknowledgement, so
/// every round starts from two empty inboxes). The consumer's second
/// receive of a round has found both inboxes empty and is somewhere
/// between its scan and its park when the last push lands — every
/// other round in `a`, the inbox it looked at *first*. One wake token
/// per component, not per inbox, is what must cover that.
fn two_inbox_app(rounds: u32) -> AppSpec {
    let mut app = AppBuilder::new("recv-any");
    for (name, leads_on) in [("pa", 0), ("pb", 1)] {
        app.add(
            ComponentSpec::new(
                name,
                behavior_fn(move |ctx| {
                    for r in 0..rounds {
                        if r % 2 != leads_on {
                            ctx.recv("turn")?;
                        }
                        ctx.send("out", Bytes::copy_from_slice(&r.to_le_bytes()))?;
                        if r % 2 == leads_on {
                            ctx.send("pass", Bytes::new())?;
                        }
                        ctx.recv("ack")?;
                    }
                    Ok(())
                }),
            )
            .with_provided("turn")
            .with_provided("ack")
            .with_required("out")
            .with_required("pass")
            .with_stack_bytes(STACK),
        );
    }
    app.add(
        ComponentSpec::new(
            "cons",
            behavior_fn(move |ctx| {
                for r in 0..rounds {
                    let mut seen = [false; 2];
                    for _ in 0..2 {
                        let (lane, msg) = ctx
                            .recv_any(&["a", "b"], None)?
                            .expect("nothing shuts down before the last round");
                        assert_eq!(msg.as_ref(), r.to_le_bytes());
                        assert!(!std::mem::replace(&mut seen[lane], true));
                    }
                    ctx.send("ack_a", Bytes::new())?;
                    ctx.send("ack_b", Bytes::new())?;
                }
                Ok(())
            }),
        )
        .with_provided("a")
        .with_provided("b")
        .with_required("ack_a")
        .with_required("ack_b")
        .with_stack_bytes(STACK),
    );
    app.connect(("pa", "out"), ("cons", "a"));
    app.connect(("pb", "out"), ("cons", "b"));
    app.connect(("pa", "pass"), ("pb", "turn"));
    app.connect(("pb", "pass"), ("pa", "turn"));
    app.connect(("cons", "ack_a"), ("pa", "ack"));
    app.connect(("cons", "ack_b"), ("pb", "ack"));
    app.build().unwrap()
}

/// The set form of the receive parks the same one task: a push to the
/// inbox scanned before the park must wake it like any other — with
/// the pushers on another worker, and sharing the consumer's.
#[test]
fn push_to_the_inbox_scanned_first_is_not_lost_by_recv_any() {
    with_watchdog("recv_any", 120, || {
        for workers in [2, 1] {
            let report = ExecPlatform::with_workers(workers)
                .deploy(two_inbox_app(ROUNDS))
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(
                report.component("cons").unwrap().app.total_receives,
                2 * ROUNDS as u64
            );
        }
    });
}
