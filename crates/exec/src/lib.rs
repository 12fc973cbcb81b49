//! # embera-exec — the M:N work-stealing executor backend for EMBera
//!
//! The fourth deployment target beside `embera-smp` (one OS thread per
//! component), `embera-os21` (simulated MPSoC) and `embera-inproc`
//! (single-threaded deterministic). Every component becomes a *fiber* —
//! a stackful user-space coroutine — scheduled onto a fixed pool of
//! N ≈ cores worker threads. A component that would block (`recv` on an
//! empty mailbox, a timed receive, restart backoff, the quiescent
//! introspection loop) parks its fiber for free; `send` wakes the
//! receiving fiber through a lost-wakeup-free state machine (see
//! `executor` module docs). That makes 10 000+ component topologies
//! tractable (`tests/ten_thousand.rs` deploys and runs 10 002 components
//! on two workers): they are bounded by heap stacks and queue slots,
//! not OS thread limits.
//!
//! The backend contributes only scheduling: a
//! [`Parker`](embera::runtime::Parker) for the host transport it shares
//! with `embera-smp` (same mailboxes, same send copy). All
//! observation semantics — introspection service, statistics recording,
//! the error contract, supervision (restarts, containment, watchdog,
//! fault injection) — come verbatim from
//! [`embera::runtime::ComponentRuntime`], which runs unmodified on the
//! fiber's own stack. `tests/conformance.rs` and `tests/supervision.rs`
//! in the workspace root pin that the four backends are
//! indistinguishable through the `Ctx` API.
//!
//! ## Scheduling model
//!
//! * N workers (default: available parallelism; fix it with
//!   [`ExecPlatform::with_workers`]), each with a local FIFO run deque
//!   plus one shared injector; idle workers steal the older half of a
//!   victim's deque.
//! * Parking and waking follow a `QUEUED / RUNNING / NOTIFIED / PARKED /
//!   FINISHED` state machine in which the *worker* completes the
//!   `RUNNING → PARKED` transition only after the fiber's context is
//!   saved — a `send` racing with the park either flips the task to
//!   `NOTIFIED` (immediate requeue) or finds it `PARKED` (enqueue), so a
//!   wake can be spurious but never lost.
//! * Timed receives arm a per-task deadline; idle workers fire due
//!   deadlines and never sleep past the earliest one. Deadlines are
//!   lower bounds, exactly like the thread backend's timeout slices.
//! * Long send bursts yield cooperatively every few messages, which
//!   bounds mailbox depth and keeps the pre-sized run queues and FIFOs
//!   allocation-free in steady state (with a
//!   [`embera::BufferPool`] attached, the send copy is recycled too).
//!
//! ## Determinism caveat
//!
//! Unlike `embera-inproc`, scheduling here is real-time and
//! work-stealing: message interleavings across *different* connections
//! vary run to run (per-connection FIFO order is still guaranteed).
//! Use `embera-inproc` for byte-identical replay, `embera-exec` for
//! scale.

mod executor;
mod parker;
mod platform;

pub use platform::{resolve_workers, ExecPlatform, ExecRunning};

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use embera::behavior::behavior_fn;
    use embera::{AppBuilder, ComponentSpec, Platform, RunningApp};

    #[test]
    fn pipeline_delivers_all_messages_in_order() {
        let mut app = AppBuilder::new("pipe");
        app.add(
            ComponentSpec::new(
                "src",
                behavior_fn(|ctx| {
                    for i in 0..100u32 {
                        ctx.send("out", Bytes::copy_from_slice(&i.to_le_bytes()))?;
                    }
                    Ok(())
                }),
            )
            .with_required("out")
            .with_stack_bytes(1 << 20),
        );
        app.add(
            ComponentSpec::new(
                "dst",
                behavior_fn(|ctx| {
                    for i in 0..100u32 {
                        let b = ctx.recv("in")?;
                        assert_eq!(b.as_ref(), i.to_le_bytes());
                    }
                    Ok(())
                }),
            )
            .with_provided("in")
            .with_stack_bytes(1 << 20),
        );
        app.connect(("src", "out"), ("dst", "in"));
        let running = ExecPlatform::new().deploy(app.build().unwrap()).unwrap();
        let report = running.wait().unwrap();
        assert_eq!(report.component("src").unwrap().app.total_sends, 100);
        assert_eq!(report.component("dst").unwrap().app.total_receives, 100);
    }

    #[test]
    fn single_worker_pool_cannot_livelock_a_pipeline() {
        // With one worker every blocking point must yield the carrier
        // thread, or the app deadlocks. 3-stage relay exercises
        // send-burst yielding and park/wake on the same worker.
        let mut app = AppBuilder::new("one-worker");
        app.add(
            ComponentSpec::new(
                "a",
                behavior_fn(|ctx| {
                    for i in 0..200u32 {
                        ctx.send("out", Bytes::copy_from_slice(&i.to_le_bytes()))?;
                    }
                    Ok(())
                }),
            )
            .with_required("out")
            .with_stack_bytes(1 << 20),
        );
        app.add(
            ComponentSpec::new(
                "b",
                behavior_fn(|ctx| {
                    for _ in 0..200u32 {
                        let m = ctx.recv("in")?;
                        ctx.send("out", m)?;
                    }
                    Ok(())
                }),
            )
            .with_provided("in")
            .with_required("out")
            .with_stack_bytes(1 << 20),
        );
        app.add(
            ComponentSpec::new(
                "c",
                behavior_fn(|ctx| {
                    for i in 0..200u32 {
                        let b = ctx.recv("in")?;
                        assert_eq!(b.as_ref(), i.to_le_bytes());
                    }
                    Ok(())
                }),
            )
            .with_provided("in")
            .with_stack_bytes(1 << 20),
        );
        app.connect(("a", "out"), ("b", "in"));
        app.connect(("b", "out"), ("c", "in"));
        let report = ExecPlatform::with_workers(1)
            .deploy(app.build().unwrap())
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(report.component("c").unwrap().app.total_receives, 200);
    }

    #[test]
    fn recv_timeout_fires_without_a_sender() {
        let mut app = AppBuilder::new("timeout");
        app.add(
            ComponentSpec::new(
                "waiter",
                behavior_fn(|ctx| {
                    let t0 = ctx.now_ns();
                    let got = ctx.recv_timeout("in", 20_000_000)?;
                    assert!(got.is_none(), "nothing was ever sent");
                    assert!(ctx.now_ns() - t0 >= 20_000_000, "deadline is a lower bound");
                    Ok(())
                }),
            )
            .with_provided("in")
            .with_stack_bytes(1 << 20),
        );
        let report = ExecPlatform::with_workers(1)
            .deploy(app.build().unwrap())
            .unwrap()
            .wait()
            .unwrap();
        assert!(report.component("waiter").is_some());
    }

    #[test]
    fn two_thousand_components_fan_in_on_two_workers() {
        let n = 2000usize;
        let mut app = AppBuilder::new("fan");
        let mut src = ComponentSpec::new(
            "src",
            behavior_fn(move |ctx| {
                for i in 0..n {
                    ctx.send(&format!("out{i}"), Bytes::from_static(b"ping"))?;
                }
                Ok(())
            }),
        )
        .with_stack_bytes(256 * 1024);
        for i in 0..n {
            src = src.with_required(format!("out{i}"));
        }
        app.add(src);
        for i in 0..n {
            app.add(
                ComponentSpec::new(
                    format!("relay{i}"),
                    behavior_fn(|ctx| {
                        let m = ctx.recv("in")?;
                        ctx.send("out", m)?;
                        Ok(())
                    }),
                )
                .with_provided("in")
                .with_required("out")
                .with_stack_bytes(128 * 1024),
            );
            app.connect(
                ("src", format!("out{i}").as_str()),
                (format!("relay{i}").as_str(), "in"),
            );
            app.connect((format!("relay{i}").as_str(), "out"), ("sink", "in"));
        }
        let sink = ComponentSpec::new(
            "sink",
            behavior_fn(move |ctx| {
                for _ in 0..n {
                    ctx.recv("in")?;
                }
                Ok(())
            }),
        )
        .with_provided("in")
        .with_stack_bytes(256 * 1024);
        app.add(sink);
        let report = ExecPlatform::with_workers(2)
            .deploy(app.build().unwrap())
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(
            report.component("sink").unwrap().app.total_receives,
            n as u64
        );
    }
}
