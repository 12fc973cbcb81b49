//! `smp_openloop`: Poisson arrivals at a fixed 2 000 frames/s into the
//! open-loop MJPEG pipeline on the thread backend — latency rather than
//! throughput, at 10–15 % utilisation so that the number is the
//! pipeline traversal (three park→wake hops plus the decode of one
//! 72-block frame) and not queueing.

use std::sync::atomic::Ordering;

use embera::{Platform, RunningApp};
use embera_smp::SmpPlatform;
use mjpeg::{
    build_overload_app, synthesize_stream, ArrivalProcess, DctKind, MjpegStream, OverloadConfig,
    Pacing,
};

use super::mjpeg_closed::QUALITY;
use super::{splitmix64, Prepared, Rep, Scale};
use crate::spans::Spans;
use crate::stats::percentile_sorted;

/// Offered load: one frame every 500 µs on average.
const MEAN_GAP_NS: u64 = 500_000;
/// A frame not folded within this budget counts as failed.
const DEADLINE_BUDGET_NS: u64 = 2_000_000_000;
/// A repetition whose generator ran later than this share of the
/// schedule is set aside: its latencies describe the host's stall.
const MAX_LATENESS_SHARE: f64 = 0.01;

pub struct OpenLoop {
    stream: MjpegStream,
    cfg: OverloadConfig,
    /// Sum of the arrival gaps the generator will draw, ns.
    scheduled_ns: u64,
    expected_injected: u64,
}

/// The arrival schedule's length: the gaps `mjpeg::LoadGenBehavior`
/// draws for `ArrivalProcess::Poisson` (splitmix64, inverse-CDF
/// exponential), summed. The sampler is private to the program, so its
/// arithmetic is repeated here; if the program's changes, lateness
/// reads wrong and says so.
fn scheduled_ns(seed: u64, frames: u64, mean_gap_ns: u64) -> u64 {
    let mut state = seed;
    (0..frames)
        .map(|_| {
            let z = splitmix64(&mut state);
            let unit = ((z >> 11) + 1) as f64 / (1u64 << 53) as f64;
            (-(mean_gap_ns as f64) * unit.ln()).clamp(0.0, 1e15) as u64
        })
        .sum()
}

pub fn prepare(seed: u64, scale: Scale, spans: &mut Spans) -> OpenLoop {
    let frames = scale.pick(4_000, 200);
    // 96×48 = 72 blocks per frame; frame 0 configures the pipeline.
    let stream = spans.span("synthesize", |_| {
        synthesize_stream(65, 96, 48, QUALITY, seed)
    });
    let cfg = OverloadConfig {
        frames,
        mean_gap_ns: MEAN_GAP_NS,
        arrival: ArrivalProcess::Poisson,
        seed,
        deadline_budget_ns: DEADLINE_BUDGET_NS,
        max_workers: 2,
        initial_workers: 2,
        fetch_policy: None,
        autoscale: None,
        pacing: Pacing::RealTime,
        kernel: DctKind::FastSimd,
        ..OverloadConfig::default()
    };
    OpenLoop {
        stream,
        scheduled_ns: spans.span("reference_checksum", |_| {
            scheduled_ns(seed, frames, MEAN_GAP_NS)
        }),
        expected_injected: frames,
        cfg,
    }
}

impl Prepared for OpenLoop {
    fn repetition(&mut self, spans: &mut Spans) -> Rep {
        let (app, probe) = build_overload_app(self.stream.clone(), &self.cfg);
        let spec = app.build().expect("valid open-loop app");
        let running = spans.span("deploy", |_| {
            SmpPlatform::new().deploy(spec).expect("deploy")
        });
        let report = spans.span("wait", |_| running.wait().expect("run"));

        let mut rep = Rep {
            attempted: self.cfg.frames,
            wall_ns: report.wall_time_ns,
            ..Rep::default()
        };
        rep.core_layers(&report);
        spans.span("verify", |_| {
            let mut latencies = probe.latencies();
            latencies.sort_unstable();
            let ms = |q: f64| percentile_sorted(&latencies, q) as f64 / 1e6;
            rep.latency_ms = ms(0.50);
            let lateness_ns = report.wall_time_ns.saturating_sub(self.scheduled_ns);
            rep.layers.extend([
                ("smp.openloop_p90_ms", ms(0.90)),
                ("smp.openloop_p99_ms", ms(0.99)),
                ("smp.openloop_p999_ms", ms(0.999)),
                ("smp.loadgen_lateness_ms", lateness_ns as f64 / 1e6),
            ]);
            if lateness_ns as f64 > MAX_LATENESS_SHARE * self.scheduled_ns as f64 {
                rep.set_aside = Some(format!(
                    "load generator ran {:.1} ms late on a {:.0} ms schedule",
                    lateness_ns as f64 / 1e6,
                    self.scheduled_ns as f64 / 1e6
                ));
            }

            let load = |counter: &std::sync::atomic::AtomicU64| counter.load(Ordering::SeqCst);
            let (injected, completed) = (load(&probe.injected), load(&probe.completed));
            rep.failed = self.cfg.frames.saturating_sub(completed);
            rep.check(injected == self.expected_injected, || {
                format!("{injected} of {} frames injected", self.expected_injected)
            });
            let health = report
                .component("Fetch")
                .and_then(|r| r.health)
                .unwrap_or_default();
            let accounted = completed
                + load(&probe.expired)
                + health.shed_messages
                + health.expired_messages
                + load(&probe.incomplete);
            rep.check(injected == accounted, || {
                format!("ledger does not balance: {injected} injected, {accounted} accounted for")
            });
            rep.check(latencies.len() as u64 == completed, || {
                format!(
                    "{} latency samples for {completed} completed frames",
                    latencies.len()
                )
            });
        });
        rep
    }

    fn corrupt_expectation(&mut self) {
        self.expected_injected += 1;
    }
}
