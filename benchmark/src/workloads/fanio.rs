//! `exec_fanio` and `exec_fanio_observed`: `source → n relays → sink` on
//! the M:N executor, closed loop. Every message is a park/wake pair on
//! a fiber and there is no codec at all, so the run is scheduler-bound.
//! The observed variant adds a flat observer polling every component's
//! full report back to back, competing for the same mailboxes and
//! workers.
//!
//! The topology is that of `crates/bench/src/fanio.rs`, rebuilt here
//! from the public `AppBuilder` API so the benchmark does not depend on
//! the harness it supersedes — and with the payloads actually pooled:
//! the source serialises into pool buffers and the sink recycles them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use embera::behavior::behavior_fn;
use embera::{
    AppBuilder, BufferPool, ComponentSpec, ObsRequest, ObserverConfig, Platform, RunningApp,
};
use embera_exec::ExecPlatform;

use super::{splitmix64, Prepared, Rep, Scale};
use crate::spans::Spans;

pub const PAYLOAD_BYTES: usize = 256;
const RELAY_STACK_BYTES: u64 = 128 * 1024;
const HUB_STACK_BYTES: u64 = 1 << 20;
/// Executor workers: the host has two cores.
pub const WORKERS: usize = 2;
/// Pause between the observer's polling rounds, ns: short enough that
/// rounds run back to back.
const OBSERVER_INTERVAL_NS: u64 = 10_000;

/// Inputs of one fan-in/fan-out run.
#[derive(Clone)]
pub struct FanioInputs {
    /// One payload per relay; its first eight bytes are the relay's tag.
    pub payloads: Arc<Vec<Vec<u8>>>,
    /// Messages the source sends to each relay.
    pub per_relay: usize,
    /// What the tags of every message the sink receives must sum to.
    pub expected_tag_sum: u64,
}

fn tag_of(payload: &[u8]) -> u64 {
    u64::from_le_bytes(payload[..8].try_into().expect("payload holds a tag"))
}

impl FanioInputs {
    /// `relays` payloads drawn from `seed`.
    pub fn from_seed(seed: u64, relays: usize, per_relay: usize) -> FanioInputs {
        let mut state = seed;
        let payloads: Vec<Vec<u8>> = (0..relays)
            .map(|_| {
                (0..PAYLOAD_BYTES / 8)
                    .flat_map(|_| splitmix64(&mut state).to_le_bytes())
                    .collect()
            })
            .collect();
        let expected_tag_sum = payloads.iter().fold(0u64, |sum, p| {
            sum.wrapping_add(tag_of(p).wrapping_mul(per_relay as u64))
        });
        FanioInputs {
            payloads: Arc::new(payloads),
            per_relay,
            expected_tag_sum,
        }
    }

    pub fn deliveries(&self) -> u64 {
        (self.payloads.len() * self.per_relay) as u64
    }
}

/// What the sink saw.
#[derive(Clone, Default)]
pub struct SinkProbe {
    pub delivered: Arc<AtomicU64>,
    pub tag_sum: Arc<AtomicU64>,
}

/// Build the topology over `inputs`, with its payload pool attached.
pub fn build_fanio_app(inputs: &FanioInputs) -> (AppBuilder, SinkProbe, BufferPool) {
    let relays = inputs.payloads.len();
    let per_relay = inputs.per_relay;
    let probe = SinkProbe::default();
    let pool = BufferPool::new(PAYLOAD_BYTES);
    let mut app = AppBuilder::new("fanio");
    app.with_buffer_pool(pool.clone());

    // Names are built once so the source's loop formats nothing.
    let out_names: Vec<String> = (0..relays).map(|i| format!("r{i}")).collect();
    let payloads = Arc::clone(&inputs.payloads);
    let names = out_names.clone();
    let mut source = ComponentSpec::new(
        "source",
        behavior_fn(move |ctx| {
            let pool = ctx.payload_pool().expect("fanio runs pooled");
            for _ in 0..per_relay {
                for (name, payload) in names.iter().zip(payloads.iter()) {
                    ctx.send(name, pool.take_from(payload))?;
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

    let total = inputs.deliveries();
    let sink_probe = probe.clone();
    app.add(
        ComponentSpec::new(
            "sink",
            behavior_fn(move |ctx| {
                let pool = ctx.payload_pool().expect("fanio runs pooled");
                let mut tag_sum = 0u64;
                for _ in 0..total {
                    let payload = ctx.recv("in")?;
                    tag_sum = tag_sum.wrapping_add(tag_of(&payload));
                    pool.recycle(payload);
                    sink_probe.delivered.fetch_add(1, Ordering::Relaxed);
                }
                sink_probe.tag_sum.store(tag_sum, Ordering::SeqCst);
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
                behavior_fn(move |ctx| {
                    for _ in 0..per_relay {
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
    (app, probe, pool)
}

pub struct Fanio {
    inputs: FanioInputs,
    observed: bool,
}

pub fn prepare(observed: bool, seed: u64, scale: Scale, spans: &mut Spans) -> Fanio {
    let inputs = spans.span("synthesize", |_| {
        FanioInputs::from_seed(seed, scale.pick(1_000, 50), scale.pick(200, 40))
    });
    Fanio { inputs, observed }
}

impl Prepared for Fanio {
    fn repetition(&mut self, spans: &mut Spans) -> Rep {
        let (mut app, probe, pool) = build_fanio_app(&self.inputs);
        let log = self.observed.then(|| {
            app.with_observer(
                ObserverConfig::default()
                    .interval_ns(OBSERVER_INTERVAL_NS)
                    .request(ObsRequest::Full),
            )
        });
        let spec = app.build().expect("valid fanio app");
        let running = spans.span("deploy", |_| {
            ExecPlatform::with_workers(WORKERS)
                .deploy(spec)
                .expect("deploy")
        });
        let report = spans.span("wait", |_| running.wait().expect("run"));

        // Source→relay plus relay→sink.
        let mut rep = Rep {
            attempted: 2 * self.inputs.deliveries(),
            ..Rep::default()
        };
        rep.closed_loop(report.wall_time_ns);
        rep.core_layers(&report);
        let stats = pool.stats();
        rep.layers.extend([
            ("core.pool_grown", stats.grown as f64),
            ("core.pool_dropped", stats.dropped as f64),
        ]);
        if let Some(log) = &log {
            let replies_per_s = log.len() as f64 * 1e9 / report.wall_time_ns.max(1) as f64;
            rep.layers.push(("core.obs_replies_per_s", replies_per_s));
        }
        spans.span("verify", |_| {
            let delivered = probe.delivered.load(Ordering::SeqCst);
            rep.failed = rep.attempted.saturating_sub(2 * delivered);
            rep.check(delivered == self.inputs.deliveries(), || {
                format!(
                    "sink received {delivered} of {} messages",
                    self.inputs.deliveries()
                )
            });
            let tag_sum = probe.tag_sum.load(Ordering::SeqCst);
            rep.check(tag_sum == self.inputs.expected_tag_sum, || {
                format!(
                    "sink's tag sum {tag_sum:#x}, expected {:#x}",
                    self.inputs.expected_tag_sum
                )
            });
        });
        rep
    }

    fn corrupt_expectation(&mut self) {
        self.inputs.expected_tag_sum ^= 1;
    }
}
