//! Fan-in/fan-out component-count scaling topology.
//!
//! One source round-robins messages over `n` relay components, every
//! relay forwards to a single fan-in sink:
//!
//! ```text
//!          ┌─ relay_0 ─┐
//! source ──┼─ relay_1 ─┼── sink      (n relays, m messages each)
//!          └─ relay_… ─┘
//! ```
//!
//! Every relay message forces a park/wake pair, so at n = 10 000 the
//! topology is a pure scheduler stress: 2·n·m messages, 10 002
//! components, and far more parks than any pipeline workload. Relays ask
//! for small stacks (128 KiB) — on the executor backend that is what
//! makes 10k components feasible where one-thread-per-component dies.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use embera::behavior::behavior_fn;
use embera::{AppBuilder, AppReport, ComponentSpec, ObserverConfig, Platform, RunningApp};
use embera_exec::ExecPlatform;

/// Stack request for the `n` relay components.
pub const RELAY_STACK_BYTES: u64 = 128 * 1024;
/// Stack request for source and sink (they hold the interface-name
/// table and the receive loop respectively).
pub const HUB_STACK_BYTES: u64 = 1 << 20;

/// Build the fan-in/fan-out app: `n` relays, `m` messages per relay,
/// `payload_bytes` per message. Returns the builder plus the sink's
/// delivered-message counter.
pub fn build_fanio_app(n: usize, m: usize, payload_bytes: usize) -> (AppBuilder, Arc<AtomicU64>) {
    let delivered = Arc::new(AtomicU64::new(0));
    let mut app = AppBuilder::new("fanio");

    // Interface names are pre-built so the source's send loop does no
    // formatting on the hot path.
    let out_names: Vec<String> = (0..n).map(|i| format!("r{i}")).collect();
    let relay_names: Vec<String> = (0..n).map(|i| format!("relay{i}")).collect();

    let template = bytes::Bytes::from(vec![0u8; payload_bytes]);
    let names = out_names.clone();
    let mut src = ComponentSpec::new(
        "source",
        behavior_fn(move |ctx| {
            for _ in 0..m {
                for name in &names {
                    ctx.send(name, template.clone())?;
                }
            }
            Ok(())
        }),
    )
    .with_stack_bytes(HUB_STACK_BYTES);
    for name in &out_names {
        src = src.with_required(name);
    }
    app.add(src);

    let total = (n * m) as u64;
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

    for i in 0..n {
        app.add(
            ComponentSpec::new(
                &relay_names[i],
                behavior_fn(move |ctx| {
                    for _ in 0..m {
                        let b = ctx.recv("in")?;
                        ctx.send("out", b)?;
                    }
                    Ok(())
                }),
            )
            .with_provided("in")
            .with_required("out")
            .with_stack_bytes(RELAY_STACK_BYTES),
        );
        app.connect(("source", out_names[i].as_str()), (relay_names[i].as_str(), "in"));
        app.connect((relay_names[i].as_str(), "out"), ("sink", "in"));
    }
    (app, delivered)
}

/// One fan-in/fan-out run on the executor backend.
pub struct FanioRun {
    pub components: usize,
    pub workers: usize,
    pub messages: u64,
    pub wall_ns: u64,
    pub msgs_per_s: f64,
}

/// Deploy and run the fan-in/fan-out topology on `workers` executor
/// workers (`0` = auto), with `observer` attached if given. Panics if
/// any message goes missing — this doubles as the 10k-component
/// completion check.
pub fn run_fanio_exec(
    n: usize,
    m: usize,
    payload_bytes: usize,
    workers: usize,
    observer: Option<ObserverConfig>,
) -> FanioRun {
    let (mut app, delivered) = build_fanio_app(n, m, payload_bytes);
    // Pooled payloads so relay forwarding stays allocation-free once the
    // pool is warm (scheduling cost, not allocator cost, is under test).
    app.with_buffer_pool(embera::BufferPool::new(payload_bytes.max(1)));
    if let Some(config) = observer {
        let _log = app.with_observer(config);
    }
    let workers = embera_exec::resolve_workers(workers);
    let report: AppReport = ExecPlatform::with_workers(workers)
        .deploy(app.build().expect("valid fanio app"))
        .expect("deploy")
        .wait()
        .expect("run");
    let expect = (n * m) as u64;
    let got = delivered.load(Ordering::SeqCst);
    assert_eq!(got, expect, "fanio sink lost messages ({got}/{expect})");
    // Source→relay plus relay→sink.
    let messages = 2 * expect;
    let wall_ns = report.wall_time_ns.max(1);
    FanioRun {
        components: n + 2,
        workers,
        messages,
        wall_ns,
        msgs_per_s: messages as f64 * 1e9 / wall_ns as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use embera::{ObsRequest, SamplingPolicy};

    #[test]
    fn fanio_delivers_every_message() {
        let run = run_fanio_exec(50, 4, 64, 2, None);
        assert_eq!(run.components, 52);
        assert_eq!(run.messages, 2 * 50 * 4);
        assert!(run.msgs_per_s > 0.0);
    }

    #[test]
    fn ten_thousand_relays_deploy_and_complete_on_two_workers() {
        // Thread-per-component cannot run this (10k stacks, 10k kernel
        // threads); the executor does on a fixed pool.
        let run = run_fanio_exec(10_000, 2, 256, 2, None);
        assert_eq!(run.components, 10_002);
        assert_eq!(run.messages, 40_000);
    }

    #[test]
    fn observed_fanio_delivers_every_message() {
        // No observer arrangement may perturb the application's delivery
        // guarantee (run_fanio_exec asserts the sink count): the paper's
        // flat one, and ~√(n+2) adaptive regionals under a non-default
        // sampling policy.
        let base = ObserverConfig::default()
            .interval_ns(1_000_000)
            .request(ObsRequest::Health);
        let sharded = base.clone().sharded(8).adaptive().sampling(SamplingPolicy {
            base_stride: 8,
            max_stride: 256,
            quiet_after: 1,
            hot_delta: 2,
        });
        for observer in [sharded, base] {
            let run = run_fanio_exec(50, 4, 64, 2, Some(observer));
            assert_eq!(run.messages, 2 * 50 * 4);
        }
    }
}
