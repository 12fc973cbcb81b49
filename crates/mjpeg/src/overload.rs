//! Open-loop overload harness for the MJPEG pipeline: a load generator
//! injecting frames at a configured offered rate (independent of how
//! fast the pipeline drains them — the queueing-theory "open loop"),
//! per-frame deadlines riding the message envelopes, deadline-aware
//! stages that skip work on already-late frames, and an
//! observation-driven autoscaler that grows/shrinks the active IDCT
//! worker set from the root observer's region summaries.
//!
//! Topology (`build_overload_app`):
//!
//! ```text
//! LoadGen ──frames──▶ Fetch ──lanes──▶ IDCT_1..max ──▶ Reorder
//!                       ▲ _scale                         (judge)
//!                       │
//!               ScaleController ◀──feed── root observer (actuate)
//! ```
//!
//! * **LoadGen** samples inter-arrival gaps (periodic / exponential /
//!   log-normal) from a seeded splitmix64 stream and sends one frame
//!   token per arrival as a [`Message::Deadlined`](embera::Message)
//!   envelope (`deadline = arrival + budget`), then an empty sentinel.
//! * **Fetch** is token-driven but runs the pipeline's frame decode and
//!   per-lane batching ([`crate::pipeline`]): it decodes each token's
//!   frame and deals its coefficient blocks round-robin over the
//!   currently *active* lanes, flushing one deadlined batch per lane per
//!   frame. An [`OverloadPolicy`] attached to it
//!   sheds at ingress (queue-bound drop-oldest, or deadline drop) with
//!   full accounting in its health counters.
//! * **IDCT** workers are the pipeline's IDCT lanes: they skip the
//!   transform for frames whose deadline already passed (forwarding a
//!   zero block so reassembly stays structural) — shed *work*, not
//!   messages.
//! * **Reorder** places no pixels; it counts blocks and judges: a frame
//!   folding at or past its deadline counts as expired, otherwise
//!   completed with latency `fold − arrival` (arrival recovered as
//!   `deadline − budget`).
//! * **ScaleController** consumes the root observer's encoded
//!   [`RegionSummary`](embera::RegionSummary) stream, applies
//!   hysteresis over total queued messages, and retargets Fetch's
//!   active lane count over the `scale` control interface.
//!
//! Every decision (shed, expire, skip, scale) is a pure function of
//! queue state and the platform clock, so on the deterministic inproc
//! backend whole overload runs are bit-for-bit reproducible — traces
//! included.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;

use embera::sync::{AtomicU64, Mutex, Ordering};
use embera::{
    AppBuilder, Behavior, ComponentSpec, Ctx, EmberaError, ObserverConfig, OverloadPolicy, Work,
    WorkClass,
};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::dct::{DctKind, BLOCK_SIZE};
use crate::frame::MjpegStream;
use crate::pipeline::{
    add_lanes, fetch_ifaces, is_late, reorder_ifaces, unwrap_data, BatchSender, BatchView,
    FrameDecoder, IdctBehavior, LaneEnd, WorkProfile,
};

/// LoadGen's never-connected pacing interface: timed receives on it are
/// how the generator sleeps between arrivals under real-time pacing.
const TICK_IFACE: &str = "_tick";
/// Fetch's frame-token inbox.
const FRAMES_IFACE: &str = "_frames";
/// Fetch's scale-control inbox (fed by the autoscale controller).
const SCALE_IFACE: &str = "_scale";
/// Controller's region-summary inbox (fed by the root observer).
const FEED_IFACE: &str = "feed";

/// How arrivals are spaced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Fixed gap: `mean_gap_ns` exactly.
    Periodic,
    /// Poisson arrivals: exponential gaps with mean `mean_gap_ns`.
    Poisson,
    /// Log-normal gaps with mean `mean_gap_ns` and the given shape
    /// (σ of the underlying normal) — heavy-tailed bursts.
    LogNormal {
        /// Shape parameter σ; 0 degenerates to periodic.
        sigma: f64,
    },
}

/// How LoadGen waits out inter-arrival gaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pacing {
    /// Timed receives on a never-connected interface: real sleeps on the
    /// threaded backends. The mode benchmarks use.
    RealTime,
    /// Compute annotations: advances virtual time without parking, so
    /// on the inproc backend LoadGen, first in the run queue, runs to
    /// its end before any other stage and every downstream decision is
    /// made against a fully materialized, deterministic queue state.
    /// The mode determinism tests use.
    Virtual,
}

/// Autoscaler tuning.
#[derive(Debug, Clone, Copy)]
pub struct AutoscaleConfig {
    /// Scale up once total queued messages stay at/above this.
    pub high_queue: u64,
    /// Scale down once total queued messages stay at/below this.
    pub low_queue: u64,
    /// Consecutive summaries pointing the same way before acting.
    pub hysteresis_rounds: u32,
    /// Floor for the active worker count.
    pub min_workers: usize,
    /// Observer polling interval, ns.
    pub interval_ns: u64,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        AutoscaleConfig {
            high_queue: 8,
            low_queue: 1,
            hysteresis_rounds: 2,
            min_workers: 1,
            interval_ns: 2_000_000,
        }
    }
}

/// Configuration of the overload harness application.
#[derive(Debug, Clone)]
pub struct OverloadConfig {
    /// Frames LoadGen injects (cycling over the stream's frames).
    pub frames: u64,
    /// Mean inter-arrival gap, ns (offered load = 1e9 / mean_gap_ns
    /// frames per second).
    pub mean_gap_ns: u64,
    /// Arrival process shape.
    pub arrival: ArrivalProcess,
    /// Seed of the arrival sampler.
    pub seed: u64,
    /// Per-frame latency budget, ns: `deadline = arrival + budget`.
    pub deadline_budget_ns: u64,
    /// IDCT lanes deployed (the autoscaler's ceiling).
    pub max_workers: usize,
    /// Lanes active at start.
    pub initial_workers: usize,
    /// Overload policy attached to Fetch (`None`: unbounded queueing).
    pub fetch_policy: Option<OverloadPolicy>,
    /// Observation-driven autoscaling (`None`: fixed worker set).
    pub autoscale: Option<AutoscaleConfig>,
    /// How LoadGen paces arrivals.
    pub pacing: Pacing,
    /// Work annotations for the codec stages.
    pub profile: WorkProfile,
    /// (I)DCT kernel.
    pub kernel: DctKind,
    /// Component stack size.
    pub stack_bytes: u64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            frames: 64,
            mean_gap_ns: 1_000_000,
            arrival: ArrivalProcess::Poisson,
            seed: 0x5EED_CAFE,
            deadline_budget_ns: 50_000_000,
            max_workers: 3,
            initial_workers: 3,
            fetch_policy: None,
            autoscale: None,
            pacing: Pacing::RealTime,
            profile: WorkProfile::default(),
            kernel: DctKind::ReferenceFloat,
            stack_bytes: 8_392_000,
        }
    }
}

/// Shared counters of one overload run. Shed/expired *messages* at
/// Fetch's ingress live in the component's health counters (see
/// [`embera::HealthInfo::shed_messages`]); this probe tracks the
/// frame-level ledger the bench asserts:
/// `injected = completed + expired + fetch_shed + fetch_expired`.
#[derive(Clone, Default)]
pub struct OverloadProbe {
    /// Frame tokens LoadGen sent.
    pub injected: Arc<AtomicU64>,
    /// Frames that folded before their deadline.
    pub completed: Arc<AtomicU64>,
    /// Frames that folded at or past their deadline.
    pub expired: Arc<AtomicU64>,
    /// Blocks whose IDCT transform was skipped as already-late.
    pub idct_skipped: Arc<AtomicU64>,
    /// Frames left partially assembled at Reorder exit (blocks lost
    /// upstream, e.g. under an injected fault plan).
    pub incomplete: Arc<AtomicU64>,
    /// Completed-frame latencies, ns (fold − arrival), in fold order.
    pub latencies: Arc<Mutex<Vec<u64>>>,
    /// Active-worker retargets the controller issued, in order.
    pub scale_history: Arc<Mutex<Vec<u32>>>,
}

impl OverloadProbe {
    /// Completed-frame latencies, ns, in fold order.
    pub fn latencies(&self) -> Vec<u64> {
        self.latencies.lock().clone()
    }

    /// Controller retargets, in order.
    pub fn scale_history(&self) -> Vec<u32> {
        self.scale_history.lock().clone()
    }
}

// ---------------------------------------------------------------------
// Arrival sampling: the workspace's seeded `StdRng` (splitmix64, the
// seed is the state) with exponential and log-normal transforms
// hand-rolled from f64 math.
// ---------------------------------------------------------------------

/// Uniform in (0, 1]: never 0, so `ln` stays finite.
fn next_unit(rng: &mut StdRng) -> f64 {
    (((rng.next_u64() >> 11) + 1) as f64) / (1u64 << 53) as f64
}

/// Sample the next inter-arrival gap, ns.
fn sample_gap(rng: &mut StdRng, arrival: ArrivalProcess, mean_gap_ns: u64) -> u64 {
    let mean = mean_gap_ns as f64;
    let gap = match arrival {
        ArrivalProcess::Periodic => mean,
        ArrivalProcess::Poisson => -mean * next_unit(rng).ln(),
        ArrivalProcess::LogNormal { sigma } => {
            // Box-Muller standard normal; μ chosen so the log-normal's
            // *mean* is `mean` (μ = ln(mean) − σ²/2).
            let u1 = next_unit(rng);
            let u2 = next_unit(rng);
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            (mean.ln() - sigma * sigma / 2.0 + sigma * z).exp()
        }
    };
    gap.clamp(0.0, 1e15) as u64
}

/// Frame-token wire format (LoadGen → Fetch): `seq u32 | stream_frame
/// u32`. The deadline rides the [`Message::Deadlined`] envelope, not
/// the payload. An empty payload is the end-of-load sentinel.
fn encode_token(seq: u32, stream_frame: u32) -> Bytes {
    let mut v = Vec::with_capacity(8);
    v.extend_from_slice(&seq.to_le_bytes());
    v.extend_from_slice(&stream_frame.to_le_bytes());
    Bytes::from(v)
}

fn decode_token(b: &[u8]) -> Option<(u32, u32)> {
    if b.len() != 8 {
        return None;
    }
    Some((
        u32::from_le_bytes(b[0..4].try_into().unwrap()),
        u32::from_le_bytes(b[4..8].try_into().unwrap()),
    ))
}

/// The open-loop load generator: one frame token per sampled arrival,
/// deadline-stamped, then an empty sentinel.
struct LoadGenBehavior {
    cfg: OverloadConfig,
    /// Frames in the stream (frame 0 is the configuration frame and
    /// never injected).
    stream_frames: u32,
    probe: OverloadProbe,
}

impl Behavior for LoadGenBehavior {
    fn run(&mut self, ctx: &mut dyn Ctx) -> Result<(), EmberaError> {
        let cfg = &self.cfg;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let cycle = self.stream_frames - 1;
        // Absolute arrival schedule: each wait targets the *cumulative*
        // arrival time, so timer overshoot on one gap is recovered on
        // the next and the offered rate stays what was configured —
        // the defining property of an open-loop generator.
        let mut next = ctx.now_ns();
        for seq in 0..cfg.frames {
            let gap = sample_gap(&mut rng, cfg.arrival, cfg.mean_gap_ns);
            next = next.saturating_add(gap);
            match cfg.pacing {
                Pacing::RealTime => {
                    // Sleep on a never-connected inbox; `Ok(None)` is
                    // the expected timeout, shutdown drains out the
                    // same way. Behind schedule: inject immediately.
                    let now = ctx.now_ns();
                    if next > now && ctx.recv_message_timeout(TICK_IFACE, next - now)?.is_some() {
                        return Err(EmberaError::Platform(
                            "unexpected message on LoadGen pacing interface".into(),
                        ));
                    }
                }
                Pacing::Virtual => {
                    // 1 op ≈ 1 ns on the deterministic backend; no
                    // park, so LoadGen runs to completion first.
                    if gap > 0 {
                        ctx.compute(Work::ops(WorkClass::Control, gap));
                    }
                }
            }
            if ctx.should_stop() {
                break;
            }
            let now = ctx.now_ns();
            let stream_frame = 1 + (seq % cycle as u64) as u32;
            ctx.send_deadlined(
                "frames",
                encode_token(seq as u32, stream_frame),
                now.saturating_add(cfg.deadline_budget_ns),
            )?;
            self.probe.injected.fetch_add(1, Ordering::AcqRel);
        }
        ctx.send("frames", Bytes::new())
    }
}

/// The open-loop Fetch: consumes frame tokens (its attached
/// [`OverloadPolicy`] sheds at this inbox), decodes the referenced
/// frame with the pipeline's [`FrameDecoder`], and deals its blocks over
/// the currently active lanes — one deadlined coefficient batch per
/// lane per frame.
struct OpenLoopFetchBehavior {
    stream: MjpegStream,
    cfg: OverloadConfig,
}

/// Drain pending scale retargets without blocking.
fn drain_scale(ctx: &mut dyn Ctx, sender: &mut BatchSender) -> Result<(), EmberaError> {
    while let Some(m) = ctx.recv_timeout(SCALE_IFACE, 0)? {
        if m.len() == 4 {
            let want = u32::from_le_bytes(m[0..4].try_into().unwrap()) as usize;
            sender.active = want.clamp(1, sender.ifaces().len());
        }
    }
    Ok(())
}

impl Behavior for OpenLoopFetchBehavior {
    fn run(&mut self, ctx: &mut dyn Ctx) -> Result<(), EmberaError> {
        let cfg = &self.cfg;
        let header = self.stream.frames[0].header;
        let decoder = FrameDecoder::new(header, cfg.kernel, cfg.profile);
        // Always counted batches, and a lane can hold a whole frame: it
        // is flushed at frame end, once, if it was dealt anything.
        let mut sender = BatchSender::new(&*ctx, cfg.max_workers, header.blocks(), true);
        sender.active = cfg.initial_workers.clamp(1, cfg.max_workers);
        loop {
            drain_scale(ctx, &mut sender)?;
            let (payload, deadline) = match ctx.recv_message(FRAMES_IFACE) {
                Ok(msg) => unwrap_data(msg, FRAMES_IFACE)?,
                Err(EmberaError::Terminated) => break,
                Err(e) => return Err(e),
            };
            if payload.is_empty() {
                break;
            }
            let Some((seq, stream_frame)) = decode_token(&payload) else {
                return Err(EmberaError::Platform(format!(
                    "bad frame token length {}",
                    payload.len()
                )));
            };
            let frame = &self.stream.frames[stream_frame as usize % self.stream.frames.len()];
            sender.deadline = deadline;
            decoder.decode(ctx, frame, stream_frame, false, |ctx, bi, coeffs| {
                sender.push(ctx, seq, bi, coeffs)
            })?;
            sender.flush_all(ctx)?;
        }
        // End of load: sentinel every lane (active or not) so each IDCT
        // — and through it each Reorder lane — terminates.
        for iface in sender.ifaces() {
            ctx.send(iface, Bytes::new())?;
        }
        Ok(())
    }
}

/// The judging Reorder: counts each frame's blocks as they arrive — it
/// places no pixels, its product is a verdict — and scores every
/// completed frame against its deadline.
struct ReorderJudgeBehavior {
    cfg: OverloadConfig,
    blocks_per_frame: usize,
    probe: OverloadProbe,
}

/// Blocks seen so far and envelope deadline, per partially arrived frame.
type Partial = HashMap<u32, (usize, Option<u64>)>;

impl ReorderJudgeBehavior {
    /// Book a frame whose last block arrived at `now`: late by the
    /// pipeline's one definition ([`is_late`]) it is expired, otherwise
    /// completed with latency `now − arrival`.
    fn judge(&self, now: u64, deadline: Option<u64>) {
        if is_late(deadline, || now) {
            self.probe.expired.fetch_add(1, Ordering::AcqRel);
            return;
        }
        self.probe.completed.fetch_add(1, Ordering::AcqRel);
        let arrival = deadline.map_or(now, |d| d.saturating_sub(self.cfg.deadline_budget_ns));
        self.probe
            .latencies
            .lock()
            .push(now.saturating_sub(arrival));
    }

    fn absorb(
        &self,
        ctx: &mut dyn Ctx,
        partial: &mut Partial,
        payload: &Bytes,
        deadline: Option<u64>,
    ) -> Result<(), EmberaError> {
        let view = BatchView::pixels(payload)?;
        let profile = &self.cfg.profile;
        ctx.compute(
            Work::ops(
                WorkClass::MemCopy,
                BLOCK_SIZE as u64 * profile.reorder_ops_per_pixel * view.len() as u64,
            )
            .with_mem(BLOCK_SIZE as u64 * 2 * view.len() as u64),
        );
        // A frame's batches all come from one token, so they share one
        // deadline; remember it for the fold-time judgment.
        let mut seen: Vec<u32> = Vec::new();
        for i in 0..view.len() {
            let (frame, _bi, _px) = view.block(i);
            if !seen.contains(&frame) {
                seen.push(frame);
            }
            let entry = partial.entry(frame).or_insert((0, None));
            entry.0 += 1;
            if deadline.is_some() {
                entry.1 = deadline;
            }
        }
        for frame in seen {
            let Some(&(count, d)) = partial.get(&frame) else {
                continue;
            };
            if count < self.blocks_per_frame {
                continue;
            }
            partial.remove(&frame);
            self.judge(ctx.now_ns(), d);
        }
        Ok(())
    }
}

impl Behavior for ReorderJudgeBehavior {
    fn run(&mut self, ctx: &mut dyn Ctx) -> Result<(), EmberaError> {
        let in_ifaces = reorder_ifaces(self.cfg.max_workers);
        let mut partial = Partial::new();
        // Lanes that have not sent their sentinel yet. Blocking on all
        // of them at once is what makes a fold timestamp the arrival of
        // the frame's last block, whichever lane carries it; `None` is
        // shutdown.
        let mut open: Vec<&str> = in_ifaces.iter().map(String::as_str).collect();
        while !open.is_empty() {
            let Some((lane, msg)) = ctx.recv_any_message(&open, None)? else {
                break;
            };
            let (payload, deadline) = unwrap_data(msg, open[lane])?;
            if payload.is_empty() {
                open.remove(lane);
                continue;
            }
            self.absorb(ctx, &mut partial, &payload, deadline)?;
        }
        let leftover = partial.len() as u64;
        if leftover > 0 {
            self.probe.incomplete.fetch_add(leftover, Ordering::AcqRel);
        }
        Ok(())
    }
}

/// The observation-driven autoscaler: folds the root observer's region
/// summaries into a total queued-message gauge and retargets Fetch's
/// active lane count with hysteresis.
struct ScaleControllerBehavior {
    cfg: AutoscaleConfig,
    max_workers: usize,
    active: usize,
    probe: OverloadProbe,
}

impl Behavior for ScaleControllerBehavior {
    fn run(&mut self, ctx: &mut dyn Ctx) -> Result<(), EmberaError> {
        let mut region_queue: HashMap<String, u64> = HashMap::new();
        let mut up_streak = 0u32;
        let mut down_streak = 0u32;
        loop {
            let buf = match ctx.recv(FEED_IFACE) {
                Ok(b) => b,
                Err(EmberaError::Terminated) => return Ok(()),
                Err(e) => return Err(e),
            };
            if buf.is_empty() {
                // Root observer's exit sentinel.
                return Ok(());
            }
            let Some(summary) = embera::decode_region_summary(&buf) else {
                continue;
            };
            region_queue.insert(summary.region.clone(), summary.queued_messages);
            let total: u64 = region_queue.values().sum();
            if total >= self.cfg.high_queue {
                up_streak += 1;
                down_streak = 0;
            } else if total <= self.cfg.low_queue {
                down_streak += 1;
                up_streak = 0;
            } else {
                up_streak = 0;
                down_streak = 0;
            }
            let floor = self.cfg.min_workers.max(1);
            let mut target = self.active;
            if up_streak >= self.cfg.hysteresis_rounds && self.active < self.max_workers {
                target = self.active + 1;
                up_streak = 0;
            } else if down_streak >= self.cfg.hysteresis_rounds && self.active > floor {
                target = self.active - 1;
                down_streak = 0;
            }
            if target != self.active {
                self.active = target;
                ctx.send("scale", Bytes::from((target as u32).to_le_bytes().to_vec()))?;
                self.probe.scale_history.lock().push(target as u32);
            }
        }
    }
}

/// Build the overload harness application. Deployment order is the
/// inproc backend's initial run queue: LoadGen first (it never parks
/// under virtual pacing, so its load materializes before Fetch drains),
/// then the pipeline stages in flow order, the controller last.
pub fn build_overload_app(
    stream: MjpegStream,
    cfg: &OverloadConfig,
) -> (AppBuilder, OverloadProbe) {
    assert!(cfg.max_workers >= 1);
    assert!(stream.len() >= 2, "need a config frame plus payload frames");
    let probe = OverloadProbe::default();
    let blocks_per_frame = stream.frames[0].header.blocks();

    let mut app = AppBuilder::new("MJPEG-overload");

    let mut loadgen = ComponentSpec::new(
        "LoadGen",
        LoadGenBehavior {
            cfg: cfg.clone(),
            stream_frames: stream.len() as u32,
            probe: probe.clone(),
        },
    )
    .with_required("frames")
    .with_stack_bytes(cfg.stack_bytes);
    if cfg.pacing == Pacing::RealTime {
        loadgen = loadgen.with_provided(TICK_IFACE);
    }
    app.add(loadgen);

    let mut fetch = ComponentSpec::new(
        "Fetch",
        OpenLoopFetchBehavior {
            stream,
            cfg: cfg.clone(),
        },
    )
    .with_provided(FRAMES_IFACE)
    .with_provided(SCALE_IFACE)
    .with_stack_bytes(cfg.stack_bytes);
    fetch.required = fetch_ifaces(cfg.max_workers);
    if let Some(policy) = cfg.fetch_policy {
        fetch = fetch.with_overload(policy);
    }
    app.add(fetch);
    app.connect(("LoadGen", "frames"), ("Fetch", FRAMES_IFACE));

    let mut reorder = ComponentSpec::new(
        "Reorder",
        ReorderJudgeBehavior {
            cfg: cfg.clone(),
            blocks_per_frame,
            probe: probe.clone(),
        },
    )
    .with_stack_bytes(cfg.stack_bytes);
    reorder.provided = reorder_ifaces(cfg.max_workers);
    let lanes = (1..=cfg.max_workers).map(|k| IdctBehavior {
        lane: k,
        end: LaneEnd::Sentinel,
        kernel: cfg.kernel,
        profile: cfg.profile,
        counted: true,
        skipped: Arc::clone(&probe.idct_skipped),
    });
    add_lanes(&mut app, "Fetch", Some(reorder), cfg.stack_bytes, lanes);

    if let Some(auto) = cfg.autoscale {
        app.add(
            ComponentSpec::new(
                "ScaleController",
                ScaleControllerBehavior {
                    cfg: auto,
                    max_workers: cfg.max_workers,
                    active: cfg
                        .initial_workers
                        .clamp(auto.min_workers.max(1), cfg.max_workers),
                    probe: probe.clone(),
                },
            )
            .with_provided(FEED_IFACE)
            .with_required("scale")
            .with_stack_bytes(cfg.stack_bytes),
        );
        app.connect(("ScaleController", "scale"), ("Fetch", SCALE_IFACE));
        // Two regions: the ingest side and the worker/judge side; the
        // controller itself stays unobserved (actuation-target rule).
        let workers: Vec<String> = (1..=cfg.max_workers).map(|k| format!("IDCT_{k}")).collect();
        let mut worker_group = workers.clone();
        worker_group.push("Reorder".to_string());
        app.with_observer(
            ObserverConfig::default()
                .interval_ns(auto.interval_ns)
                .request(embera::ObsRequest::Health)
                .grouped(vec![
                    (
                        "ingest".to_string(),
                        vec!["LoadGen".to_string(), "Fetch".to_string()],
                    ),
                    ("workers".to_string(), worker_group),
                ])
                .actuate("ScaleController", FEED_IFACE),
        );
    }

    (app, probe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::synthesize_stream;
    use embera::{Platform, RunningApp};
    use embera_inproc::InprocPlatform;

    fn cfg(frames: u64) -> OverloadConfig {
        OverloadConfig {
            frames,
            mean_gap_ns: 200_000,
            arrival: ArrivalProcess::Periodic,
            deadline_budget_ns: 1_000_000_000,
            pacing: Pacing::Virtual,
            ..OverloadConfig::default()
        }
    }

    fn stream() -> MjpegStream {
        synthesize_stream(4, 48, 24, 75, 0xBEEF)
    }

    #[test]
    fn samplers_are_deterministic_and_mean_scaled() {
        for arrival in [
            ArrivalProcess::Periodic,
            ArrivalProcess::Poisson,
            ArrivalProcess::LogNormal { sigma: 0.5 },
        ] {
            let mut a = StdRng::seed_from_u64(42);
            let mut b = StdRng::seed_from_u64(42);
            let ga: Vec<u64> = (0..64)
                .map(|_| sample_gap(&mut a, arrival, 1_000))
                .collect();
            let gb: Vec<u64> = (0..64)
                .map(|_| sample_gap(&mut b, arrival, 1_000))
                .collect();
            assert_eq!(ga, gb, "{arrival:?} not deterministic");
            let mean = ga.iter().sum::<u64>() / ga.len() as u64;
            assert!(
                (100..10_000).contains(&mean),
                "{arrival:?}: mean gap {mean} wildly off the requested 1000"
            );
        }
    }

    #[test]
    fn token_round_trip() {
        let t = encode_token(7, 3);
        assert_eq!(decode_token(&t), Some((7, 3)));
        assert_eq!(decode_token(&[0u8; 3]), None);
    }

    #[test]
    fn unloaded_run_completes_every_frame() {
        let (app, probe) = build_overload_app(stream(), &cfg(12));
        InprocPlatform::new()
            .deploy(app.build().unwrap())
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(probe.injected.load(Ordering::SeqCst), 12);
        assert_eq!(probe.completed.load(Ordering::SeqCst), 12);
        assert_eq!(probe.expired.load(Ordering::SeqCst), 0);
        assert_eq!(probe.incomplete.load(Ordering::SeqCst), 0);
        assert_eq!(probe.latencies().len(), 12);
    }

    #[test]
    fn drop_oldest_sheds_and_ledger_balances() {
        let mut c = cfg(16);
        c.fetch_policy = Some(OverloadPolicy::drop_oldest(4));
        // Virtual pacing on inproc: all 16 tokens plus the end-of-load
        // sentinel (17 messages) are queued before Fetch drains, so the
        // 17 − 4 = 13 oldest tokens are shed and 3 survive (the
        // sentinel is the newest message and is never dropped).
        let (app, probe) = build_overload_app(stream(), &c);
        let report = InprocPlatform::new()
            .deploy(app.build().unwrap())
            .unwrap()
            .wait()
            .unwrap();
        let health = report.component("Fetch").unwrap().health.as_ref().unwrap();
        assert_eq!(health.shed_messages, 13);
        let completed = probe.completed.load(Ordering::SeqCst);
        let expired = probe.expired.load(Ordering::SeqCst);
        assert_eq!(completed + expired, 3);
        assert_eq!(
            probe.injected.load(Ordering::SeqCst),
            completed + expired + health.shed_messages + health.expired_messages
        );
    }

    #[test]
    fn deadline_drop_sheds_expired_tokens_at_ingress() {
        let mut c = cfg(10);
        c.deadline_budget_ns = 1; // every token is long expired once Fetch runs
        c.fetch_policy = Some(OverloadPolicy::deadline_drop());
        let (app, probe) = build_overload_app(stream(), &c);
        let report = InprocPlatform::new()
            .deploy(app.build().unwrap())
            .unwrap()
            .wait()
            .unwrap();
        let health = report.component("Fetch").unwrap().health.as_ref().unwrap();
        assert_eq!(health.expired_messages, 10);
        assert_eq!(probe.completed.load(Ordering::SeqCst), 0);
        assert_eq!(
            probe.injected.load(Ordering::SeqCst),
            health.expired_messages
        );
    }

    #[test]
    fn a_frame_folding_exactly_at_its_deadline_is_expired() {
        // One frame, ample budget: its latency is fold − arrival. With
        // exactly that latency as the budget the same frame folds at
        // `now == deadline` — late by the definition the runtime's
        // ingress shedding and the IDCT lanes use, so the judge must
        // book it expired, with no latency sample.
        let run = |budget: u64| {
            let mut c = cfg(1);
            c.deadline_budget_ns = budget;
            let (app, probe) = build_overload_app(stream(), &c);
            InprocPlatform::new()
                .deploy(app.build().unwrap())
                .unwrap()
                .wait()
                .unwrap();
            probe
        };
        let ample = run(1_000_000_000);
        assert_eq!(ample.completed.load(Ordering::SeqCst), 1);
        let latency = ample.latencies()[0];
        let exact = run(latency);
        assert_eq!(exact.idct_skipped.load(Ordering::SeqCst), 0);
        assert_eq!(exact.expired.load(Ordering::SeqCst), 1);
        assert_eq!(exact.completed.load(Ordering::SeqCst), 0);
        assert!(exact.latencies().is_empty());
        // One nanosecond more and it is on time.
        assert_eq!(run(latency + 1).completed.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn no_deadline_is_never_late() {
        assert!(!is_late(None, || u64::MAX));
        assert!(!is_late(Some(10), || 9));
        assert!(is_late(Some(10), || 10));
    }

    #[test]
    fn autoscale_controller_wires_and_terminates() {
        let mut c = cfg(8);
        c.max_workers = 3;
        c.initial_workers = 1;
        c.autoscale = Some(AutoscaleConfig::default());
        let (app, probe) = build_overload_app(stream(), &c);
        InprocPlatform::new()
            .deploy(app.build().unwrap())
            .unwrap()
            .wait()
            .unwrap();
        // All frames accounted; the controller exited on the sentinel.
        assert_eq!(
            probe.completed.load(Ordering::SeqCst) + probe.expired.load(Ordering::SeqCst),
            8
        );
    }

    #[test]
    fn overload_run_is_deterministic_on_inproc() {
        let run = || {
            let mut c = cfg(24);
            c.arrival = ArrivalProcess::Poisson;
            c.fetch_policy = Some(OverloadPolicy::drop_oldest(6));
            let (app, probe) = build_overload_app(stream(), &c);
            let report = InprocPlatform::new()
                .deploy(app.build().unwrap())
                .unwrap()
                .wait()
                .unwrap();
            (
                report
                    .component("Fetch")
                    .unwrap()
                    .health
                    .as_ref()
                    .unwrap()
                    .shed_messages,
                probe.completed.load(Ordering::SeqCst),
                probe.expired.load(Ordering::SeqCst),
                probe.latencies(),
            )
        };
        assert_eq!(run(), run());
    }
}
