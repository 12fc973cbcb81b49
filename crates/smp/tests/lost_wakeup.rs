//! Lost-wakeup stress for the SMP backend's per-component parker, in
//! the shape of `crates/exec/tests/lost_wakeup.rs`.
//!
//! A component blocks on one parker for all of its mailboxes: senders
//! push then unpark, the receiver checks then parks. The protocol is
//! broken if a wake that lands between the receiver's check and its
//! park is dropped — the component then strands forever. These tests
//! hammer that window from each side (a push racing the park, a timed
//! park expiring as a push lands, shutdown racing the park, a wake
//! deposited before the very first park) under a watchdog, so a
//! stranded component fails the test instead of hanging the suite.
//! Iteration counts scale up under `--release`.

use std::sync::mpsc;
use std::time::Duration;

use bytes::Bytes;
use embera::behavior::behavior_fn;
use embera::{AppBuilder, AppSpec, ComponentSpec, EmberaError, Platform, RunningApp};
use embera_smp::SmpPlatform;

const ROUNDS: u32 = if cfg!(debug_assertions) {
    2_000
} else {
    20_000
};
const DEPLOYS: usize = if cfg!(debug_assertions) { 100 } else { 1_000 };
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

fn run(spec: AppSpec) -> Result<embera::AppReport, EmberaError> {
    SmpPlatform::new().deploy(spec)?.wait()
}

/// One message per round trip: every receive finds its mailbox empty,
/// so each of the `ROUNDS` iterations races a park against a push.
#[test]
fn push_racing_park_never_strands() {
    with_watchdog("ping_pong", 120, || {
        let mut app = AppBuilder::new("ping-pong");
        app.add(
            ComponentSpec::new(
                "ping",
                behavior_fn(|ctx| {
                    for i in 0..ROUNDS {
                        ctx.send("out", Bytes::copy_from_slice(&i.to_le_bytes()))?;
                        assert_eq!(ctx.recv("in")?.as_ref(), i.to_le_bytes());
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
                behavior_fn(|ctx| {
                    for _ in 0..ROUNDS {
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
        let report = run(app.build().unwrap()).unwrap();
        assert_eq!(
            report.component("pong").unwrap().app.total_receives,
            ROUNDS as u64
        );
    });
}

/// The consumer polls with 50 µs timed receives while the producer
/// sends at full speed: timeouts expire at the same instant messages
/// land. A token consumed together with a timeout must not lose the
/// message (the runtime re-checks the mailbox after every park).
#[test]
fn timed_park_expiring_as_a_push_lands_loses_nothing() {
    with_watchdog("timer_vs_push", 120, || {
        let msgs = ROUNDS / 4;
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
        let report = run(app.build().unwrap()).unwrap();
        assert_eq!(
            report.component("cons").unwrap().app.total_receives,
            msgs as u64
        );
    });
}

/// Fail-fast shutdown racing the park of blocked peers: `failer` errors
/// the moment it starts, while three `waiter`s are anywhere between
/// thread start, their inbox check and their park. Every deployment
/// must drain all of them out with `Terminated`.
#[test]
fn shutdown_racing_park_never_strands() {
    with_watchdog("shutdown_race", 120, || {
        for _ in 0..DEPLOYS {
            let mut app = AppBuilder::new("failfast");
            for w in 0..3 {
                app.add(
                    ComponentSpec::new(
                        format!("waiter{w}"),
                        behavior_fn(|ctx| match ctx.recv("in") {
                            Err(EmberaError::Terminated) => Ok(()),
                            other => panic!("expected Terminated, got {other:?}"),
                        }),
                    )
                    .with_provided("in")
                    .with_stack_bytes(STACK),
                );
            }
            app.add(
                ComponentSpec::new(
                    "failer",
                    behavior_fn(|_| Err(EmberaError::Platform("injected".into()))),
                )
                .with_stack_bytes(STACK),
            );
            let err = run(app.build().unwrap()).unwrap_err();
            assert!(err.to_string().contains("failer"), "{err}");
        }
    });
}

/// The producer is deployed first and sends at once, so its push and
/// wake usually land before the consumer's thread has parked even once
/// (often before it runs at all). The token — or the inbox check before
/// the first park — must deliver the message on every deployment; the
/// final `wait` then shuts down two components parked in their
/// quiescent service loops.
#[test]
fn wake_before_first_park_is_not_lost() {
    with_watchdog("early_wake", 120, || {
        for _ in 0..DEPLOYS {
            let mut app = AppBuilder::new("early");
            app.add(
                ComponentSpec::new(
                    "src",
                    behavior_fn(|ctx| ctx.send("out", Bytes::from_static(b"x"))),
                )
                .with_required("out")
                .with_stack_bytes(STACK),
            );
            app.add(
                ComponentSpec::new("dst", behavior_fn(|ctx| ctx.recv("in").map(|_| ())))
                    .with_provided("in")
                    .with_stack_bytes(STACK),
            );
            app.connect(("src", "out"), ("dst", "in"));
            let report = run(app.build().unwrap()).unwrap();
            assert_eq!(report.total_receives(), 1);
        }
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

/// The set form of the receive parks on the same one parker: a push
/// to the inbox scanned before the park must wake it like any other.
#[test]
fn push_to_the_inbox_scanned_first_is_not_lost_by_recv_any() {
    with_watchdog("recv_any", 120, || {
        let report = run(two_inbox_app(ROUNDS)).unwrap();
        assert_eq!(
            report.component("cons").unwrap().app.total_receives,
            2 * ROUNDS as u64
        );
    });
}
