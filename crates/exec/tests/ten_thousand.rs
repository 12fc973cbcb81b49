//! 10 000 components deploy and run on two workers: one source
//! round-robins messages over the relays, every relay forwards to one
//! fan-in sink.
//!
//! ```text
//!          ┌─ relay0 ─┐
//! source ──┼─ relay1 ─┼── sink      (n relays, PER_RELAY messages each)
//!          └─ relay… ─┘
//! ```
//!
//! Thread-per-component cannot run this (10 000 stacks, 10 000 kernel
//! threads); the executor does on a fixed pool, because a relay is a
//! fiber on a 128 KiB stack of which it touches two or three pages.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use embera::behavior::behavior_fn;
use embera::{AppBuilder, BufferPool, ComponentSpec, Platform, RunningApp};
use embera_exec::ExecPlatform;

const PER_RELAY: usize = 2;
const PAYLOAD_BYTES: usize = 256;
const RELAY_STACK_BYTES: u64 = 128 * 1024;
/// Source and sink hold the interface-name table and the receive loop.
const HUB_STACK_BYTES: u64 = 1 << 20;

/// Whether components run on stack-switching fibers. Under the
/// thread-backed oracle (`EMBERA_EXEC_FIBER=thread`, or off x86-64) each
/// one is a host thread, so the test shrinks to a few hundred.
fn stack_fibers() -> bool {
    cfg!(target_arch = "x86_64")
        && !std::env::var("EMBERA_EXEC_FIBER").is_ok_and(|v| v.eq_ignore_ascii_case("thread"))
}

#[test]
fn ten_thousand_relays_deploy_and_complete_on_two_workers() {
    let relays = if stack_fibers() { 10_000 } else { 300 };
    let delivered = Arc::new(AtomicU64::new(0));
    let mut app = AppBuilder::new("fanio");
    // Pooled payloads: scheduling, not the allocator, is under test.
    app.with_buffer_pool(BufferPool::new(PAYLOAD_BYTES));

    let out_names: Vec<String> = (0..relays).map(|i| format!("r{i}")).collect();
    let names = out_names.clone();
    let template = bytes::Bytes::from(vec![0u8; PAYLOAD_BYTES]);
    let mut source = ComponentSpec::new(
        "source",
        behavior_fn(move |ctx| {
            for _ in 0..PER_RELAY {
                for name in &names {
                    ctx.send(name, template.clone())?;
                }
            }
            Ok(())
        }),
    )
    .with_stack_bytes(HUB_STACK_BYTES);
    for name in &out_names {
        source = source.with_required(name);
    }
    app.add(source);

    let total = relays * PER_RELAY;
    let counter = Arc::clone(&delivered);
    app.add(
        ComponentSpec::new(
            "sink",
            behavior_fn(move |ctx| {
                for _ in 0..total {
                    ctx.recv("in")?;
                    counter.fetch_add(1, Ordering::Relaxed);
                }
                Ok(())
            }),
        )
        .with_provided("in")
        .with_stack_bytes(HUB_STACK_BYTES),
    );

    for (i, out_name) in out_names.iter().enumerate() {
        let relay = format!("relay{i}");
        app.add(
            ComponentSpec::new(
                &relay,
                behavior_fn(|ctx| {
                    for _ in 0..PER_RELAY {
                        let payload = ctx.recv("in")?;
                        ctx.send("out", payload)?;
                    }
                    Ok(())
                }),
            )
            .with_provided("in")
            .with_required("out")
            .with_stack_bytes(RELAY_STACK_BYTES),
        );
        app.connect(("source", out_name), (&relay, "in"));
        app.connect((&relay, "out"), ("sink", "in"));
    }

    let report = ExecPlatform::with_workers(2)
        .deploy(app.build().expect("valid fan-in/fan-out app"))
        .expect("deploy")
        .wait()
        .expect("run");
    assert_eq!(report.components.len(), relays + 2);
    assert_eq!(delivered.load(Ordering::SeqCst), total as u64);
    // Source → relay plus relay → sink.
    assert_eq!(report.total_sends(), 2 * total as u64);
    assert_eq!(report.total_receives(), 2 * total as u64);
}
