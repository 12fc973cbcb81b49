//! # embera-repro — the EMBera reproduction harness
//!
//! Reproduction of *"Towards a Component-based Observation of MPSoC"*
//! (Prada-Rojas et al., INRIA RR-6905, 2009). See `DESIGN.md` for the
//! system inventory and `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! The `repro` binary (`src/bin/repro.rs`) regenerates every table and
//! figure of the paper; this library holds what it, the examples and
//! the integration tests share:
//!
//! * the canonical experiment runs ([`run_smp_mjpeg`],
//!   [`run_mpsoc_mjpeg`], [`run_mjpeg_stream_on`]) on the paper's
//!   stream ([`stream`]),
//! * [`sweep`] — message-size sweeps behind Figure 4 (SMP send time)
//!   and Figure 8 (MPSoC send time per CPU),
//! * [`tables`] — rendering of Tables 1-3 from [`embera::AppReport`]s,
//! * [`stats`] — the least-squares linearity check,
//! * [`loadgen`] — the open-loop overload driver behind `repro overload`,
//! * [`runner`] — the deterministic job pool for independent cells.

pub mod loadgen;
pub mod runner;
pub mod stats;
pub mod sweep;
pub mod tables;

use embera::{AppReport, ObserverConfig, Platform, RunningApp};
use embera_exec::ExecPlatform;
use embera_os21::Os21Platform;
use embera_smp::SmpPlatform;
use mjpeg::workload::{DEFAULT_HEIGHT, DEFAULT_QUALITY, DEFAULT_WIDTH};
use mjpeg::{build_mpsoc_app, build_smp_app, synthesize_stream, MjpegAppConfig, MjpegStream};

/// Host backend selected for the allocation proof: the two that run on
/// wall-clock time with pooled payloads. (`os21` has its own experiment
/// entry point, [`run_mpsoc_mjpeg`].)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchBackend {
    /// One OS thread per component (`embera-smp`).
    Smp,
    /// M:N fiber executor on a fixed worker pool (`embera-exec`).
    Exec,
}

impl BenchBackend {
    /// Parse a `--backend` CLI value.
    pub fn parse(s: &str) -> Option<BenchBackend> {
        match s {
            "smp" => Some(BenchBackend::Smp),
            "exec" => Some(BenchBackend::Exec),
            _ => None,
        }
    }

    /// Name as given to `--backend` and printed in reports.
    pub fn name(self) -> &'static str {
        match self {
            BenchBackend::Smp => "smp",
            BenchBackend::Exec => "exec",
        }
    }

    /// Worker-pool size this backend runs on (`workers` resolved, `0` =
    /// auto). `None` for thread-per-component (the pool is the component
    /// count).
    pub fn worker_pool(self, workers: usize) -> Option<usize> {
        match self {
            BenchBackend::Smp => None,
            BenchBackend::Exec => Some(embera_exec::resolve_workers(workers)),
        }
    }
}

/// The paper's message-size sweep for Figure 4 (0–125 kB).
pub const FIGURE4_SIZES_KB: [u64; 6] = [1, 25, 50, 75, 100, 125];
/// The paper's message-size sweep for Figure 8 (0–200 kB).
pub const FIGURE8_SIZES_KB: [u64; 6] = [1, 10, 25, 50, 100, 200];

/// Synthesize the experiment stream for `frames` frames, in the
/// paper's frame geometry (48×24, 18 blocks per image, quality 75).
pub fn stream(frames: usize, seed: u64) -> MjpegStream {
    synthesize_stream(frames, DEFAULT_WIDTH, DEFAULT_HEIGHT, DEFAULT_QUALITY, seed)
}

/// Run the SMP MJPEG pipeline with the observer attached (the paper's
/// Table 1 accounting includes the observation interfaces).
pub fn run_smp_mjpeg(frames: usize, seed: u64) -> AppReport {
    let (mut app, _probe) = build_smp_app(stream(frames, seed), &MjpegAppConfig::default());
    let _log = app.with_observer(ObserverConfig::default().interval_ns(20_000_000));
    SmpPlatform::new()
        .deploy(app.build().expect("valid app"))
        .expect("deploy")
        .wait()
        .expect("run")
}

/// Run the MJPEG pipeline on the selected backend, on a pre-synthesized
/// stream with **no observer attached** and, optionally, a caller-owned
/// payload pool.
///
/// Synthesizing the stream outside the allocation-counted region
/// isolates the pipeline's own cost, and handing in the pool lets the
/// caller inspect [`embera::PoolStats`] after the run (e.g. to assert the
/// pool never grew mid-flight). `workers` sizes the executor pool (`0` =
/// auto) and is ignored by the thread backend. Returns the report plus
/// the number of frames the probe saw completed.
pub fn run_mjpeg_stream_on(
    backend: BenchBackend,
    workers: usize,
    stream: MjpegStream,
    cfg: &MjpegAppConfig,
    pool: Option<embera::BufferPool>,
) -> (AppReport, u64) {
    let (mut app, probe) = build_smp_app(stream, cfg);
    if let Some(pool) = pool {
        app.with_buffer_pool(pool);
    }
    let spec = app.build().expect("valid app");
    let report = match backend {
        BenchBackend::Smp => SmpPlatform::new()
            .deploy(spec)
            .expect("deploy")
            .wait()
            .expect("run"),
        BenchBackend::Exec => ExecPlatform::with_workers(workers)
            .deploy(spec)
            .expect("deploy")
            .wait()
            .expect("run"),
    };
    let done = probe
        .frames_completed
        .load(std::sync::atomic::Ordering::SeqCst);
    (report, done)
}

/// Run the MPSoC MJPEG pipeline on the simulated three-CPU STi7200.
pub fn run_mpsoc_mjpeg(frames: usize, seed: u64) -> AppReport {
    let cfg = MjpegAppConfig {
        idct_count: 2,
        ..Default::default()
    };
    let (app, _probe) = build_mpsoc_app(stream(frames, seed), &cfg);
    Os21Platform::three_cpu()
        .deploy(app.build().expect("valid app"))
        .expect("deploy")
        .wait()
        .expect("run")
}
