//! Open-loop overload measurement: the driver that runs the MJPEG
//! overload harness ([`mjpeg::build_overload_app`]) on the SMP backend
//! at a configured offered load and reads exact latency percentiles
//! off the samples the probe holds.

use embera::{Platform, RunningApp};
use embera_smp::SmpPlatform;
use mjpeg::{synthesize_stream, MjpegStream, OverloadConfig};

/// Everything one overload run produced: the frame-level ledger, the
/// message-level shed accounting from Fetch's health counters, and the
/// completed-frame latency percentiles.
#[derive(Debug, Clone)]
pub struct OverloadOutcome {
    /// Frame tokens the generator injected.
    pub injected: u64,
    /// Frames that folded before their deadline.
    pub completed: u64,
    /// Frames that folded at or past their deadline.
    pub expired_frames: u64,
    /// Messages the queue-bound policy shed at Fetch's ingress.
    pub shed_messages: u64,
    /// Messages the deadline policy shed at Fetch's ingress.
    pub expired_messages: u64,
    /// Frames left partially assembled at exit.
    pub incomplete: u64,
    /// Blocks whose IDCT transform was skipped as already-late.
    pub idct_skipped: u64,
    /// Autoscaler retargets, in order.
    pub scale_history: Vec<u32>,
    /// Application wall time, s.
    pub wall_s: f64,
    /// Median completed-frame latency, ns. The three percentiles are
    /// nearest-rank over every sample; 0 when no frame completed.
    pub p50_ns: u64,
    /// 99th percentile, ns.
    pub p99_ns: u64,
    /// 99.9th percentile, ns.
    pub p999_ns: u64,
}

impl OverloadOutcome {
    /// The exact conservation law the CI smoke gate asserts: every
    /// injected frame is either completed, expired at the judge, shed
    /// or expired at Fetch's ingress, or left incomplete at exit.
    pub fn ledger_balances(&self) -> bool {
        self.injected
            == self.completed
                + self.expired_frames
                + self.shed_messages
                + self.expired_messages
                + self.incomplete
    }

    /// Completed fraction of injected frames.
    pub fn completed_fraction(&self) -> f64 {
        if self.injected == 0 {
            return 0.0;
        }
        self.completed as f64 / self.injected as f64
    }
}

/// Frame geometry of the overload experiments: 96×48 = 72 blocks per
/// frame, 4× the Table-1 workload, so per-frame service time dominates
/// the threaded backends' timer granularity and offered loads near
/// saturation are actually reached.
pub const OVERLOAD_WIDTH: usize = 96;
/// Frame height.
pub const OVERLOAD_HEIGHT: usize = 48;

/// Synthesize the overload experiment stream.
pub fn overload_stream(frames: usize, seed: u64) -> MjpegStream {
    synthesize_stream(frames, OVERLOAD_WIDTH, OVERLOAD_HEIGHT, 75, seed)
}

/// Run one overload configuration on the SMP backend and fold the
/// probe + report into an [`OverloadOutcome`].
pub fn run_overload_smp(stream: MjpegStream, cfg: &OverloadConfig) -> OverloadOutcome {
    let (app, probe) = mjpeg::build_overload_app(stream, cfg);
    let report = SmpPlatform::new()
        .deploy(app.build().expect("valid overload app"))
        .expect("deploy")
        .wait()
        .expect("run");
    let health = report
        .component("Fetch")
        .expect("Fetch")
        .health
        .expect("health info");
    let ord = std::sync::atomic::Ordering::SeqCst;
    let mut latencies = probe.latencies();
    latencies.sort_unstable();
    let percentile = |q: f64| {
        let rank = (q * latencies.len() as f64).ceil() as usize;
        let nearest = rank.clamp(1, latencies.len().max(1)) - 1;
        latencies.get(nearest).copied().unwrap_or(0)
    };
    OverloadOutcome {
        injected: probe.injected.load(ord),
        completed: probe.completed.load(ord),
        expired_frames: probe.expired.load(ord),
        shed_messages: health.shed_messages,
        expired_messages: health.expired_messages,
        incomplete: probe.incomplete.load(ord),
        idct_skipped: probe.idct_skipped.load(ord),
        scale_history: probe.scale_history(),
        wall_s: report.wall_time_ns as f64 / 1e9,
        p50_ns: percentile(0.50),
        p99_ns: percentile(0.99),
        p999_ns: percentile(0.999),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjpeg::{ArrivalProcess, Pacing};

    #[test]
    fn smp_overload_run_completes_and_balances() {
        let cfg = OverloadConfig {
            frames: 24,
            mean_gap_ns: 400_000,
            arrival: ArrivalProcess::Poisson,
            deadline_budget_ns: 2_000_000_000,
            max_workers: 2,
            initial_workers: 2,
            pacing: Pacing::RealTime,
            ..OverloadConfig::default()
        };
        let out = run_overload_smp(overload_stream(4, 0x0F), &cfg);
        assert_eq!(out.injected, 24);
        assert_eq!(out.completed, 24, "{out:?}");
        assert!(out.ledger_balances(), "{out:?}");
        assert!(out.p50_ns > 0 && out.p99_ns >= out.p50_ns);
    }
}
