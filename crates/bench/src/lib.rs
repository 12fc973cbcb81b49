//! Shared helpers for the benchmark harness: canonical experiment
//! configurations used by both the criterion benches and the `repro`
//! binary that regenerates every table and figure of the paper.

use embera::{AppReport, ObsRequest, ObserverConfig, Platform, RunningApp};
use embera_exec::ExecPlatform;
use embera_os21::Os21Platform;
use embera_smp::SmpPlatform;
use mjpeg::{build_mpsoc_app, build_smp_app, synthesize_stream, MjpegAppConfig, MjpegStream};

pub mod fanio;
pub mod jsonv;
pub mod loadgen;
pub mod provenance;
pub mod runner;

/// Observation arrangement for an overhead measurement — the `--obs`
/// axis of `bench-sweep` and the cells of the `obs-budget` gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsMode {
    /// No observer attached.
    Off,
    /// The paper's flat topology: one observer polls every component.
    Flat,
    /// Two-level hierarchy: regional observers roll summaries up to a
    /// root (poll-everything-every-round within each region).
    Hier,
    /// The hierarchy plus adaptive per-component sampling (quiet
    /// components are polled exponentially less often).
    HierAdaptive,
}

impl ObsMode {
    /// All modes, in sweep order.
    pub const ALL: [ObsMode; 4] = [
        ObsMode::Off,
        ObsMode::Flat,
        ObsMode::Hier,
        ObsMode::HierAdaptive,
    ];

    /// Parse a `--obs` CLI value.
    pub fn parse(s: &str) -> Option<ObsMode> {
        match s {
            "off" => Some(ObsMode::Off),
            "flat" => Some(ObsMode::Flat),
            "hier" => Some(ObsMode::Hier),
            "hier-adaptive" => Some(ObsMode::HierAdaptive),
            _ => None,
        }
    }

    /// Label stamped into run labels and `BENCH_*.json`.
    pub fn name(self) -> &'static str {
        match self {
            ObsMode::Off => "off",
            ObsMode::Flat => "flat",
            ObsMode::Hier => "hier",
            ObsMode::HierAdaptive => "hier_adaptive",
        }
    }

    /// The observer configuration this mode attaches (`None` for
    /// [`ObsMode::Off`]). Polls [`ObsRequest::Health`] — the narrow
    /// request — every `interval_ns`, sharded over `regions` regional
    /// observers in the hierarchical modes.
    pub fn observer_config(self, regions: usize, interval_ns: u64) -> Option<ObserverConfig> {
        let base = ObserverConfig::default()
            .interval_ns(interval_ns)
            .request(ObsRequest::Health);
        match self {
            ObsMode::Off => None,
            ObsMode::Flat => Some(base),
            ObsMode::Hier => Some(base.sharded(regions)),
            ObsMode::HierAdaptive => Some(base.sharded(regions).adaptive()),
        }
    }
}

/// Region count for a hierarchy over `targets` components: ~√targets,
/// balancing the root's fan-in against each regional's fan-out.
pub fn obs_regions(targets: usize) -> usize {
    (1..).find(|r| r * r >= targets).unwrap_or(1).max(1)
}

/// Host backend selected for a throughput or allocation measurement.
/// (`os21`/`inproc` have their own dedicated experiment entry points —
/// this enum covers the backends that compete on wall-clock numbers.)
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

    /// Provenance name stamped into `BENCH_*.json` headers.
    pub fn name(self) -> &'static str {
        match self {
            BenchBackend::Smp => "smp",
            BenchBackend::Exec => "exec",
        }
    }

    /// Worker-pool size this backend runs on, for provenance.
    /// `None` for thread-per-component (the pool is the component count).
    pub fn worker_pool(self, workers: usize) -> Option<usize> {
        match self {
            BenchBackend::Smp => None,
            BenchBackend::Exec => Some(embera_exec::resolve_workers(workers)),
        }
    }
}

/// Frame geometry of every experiment stream (18 blocks per image).
pub const WIDTH: usize = 48;
/// Frame height.
pub const HEIGHT: usize = 24;
/// Encoder quality.
pub const QUALITY: u8 = 75;

/// The paper's message-size sweep for Figure 4 (0–125 kB).
pub const FIGURE4_SIZES_KB: [u64; 6] = [1, 25, 50, 75, 100, 125];
/// The paper's message-size sweep for Figure 8 (0–200 kB).
pub const FIGURE8_SIZES_KB: [u64; 6] = [1, 10, 25, 50, 100, 200];

/// Synthesize the experiment stream for `frames` frames.
pub fn stream(frames: usize, seed: u64) -> MjpegStream {
    synthesize_stream(frames, WIDTH, HEIGHT, QUALITY, seed)
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

/// Run the SMP MJPEG pipeline under an arbitrary configuration with the
/// observer attached. Returns the report plus the number of frames the
/// probe saw completed (a self-check for the benchmark harness).
pub fn run_smp_mjpeg_with(frames: usize, seed: u64, cfg: &MjpegAppConfig) -> (AppReport, u64) {
    let (mut app, probe) = build_smp_app(stream(frames, seed), cfg);
    let _log = app.with_observer(ObserverConfig::default().interval_ns(20_000_000));
    let report = SmpPlatform::new()
        .deploy(app.build().expect("valid app"))
        .expect("deploy")
        .wait()
        .expect("run");
    let done = probe
        .frames_completed
        .load(std::sync::atomic::Ordering::SeqCst);
    (report, done)
}

/// Run the SMP MJPEG pipeline on a pre-synthesized stream with **no
/// observer attached** and, optionally, a caller-owned payload pool.
///
/// This is the throughput-measurement entry point: synthesizing the
/// stream outside the timed (or allocation-counted) region isolates
/// the pipeline's own cost, and handing in the pool lets the caller
/// inspect [`embera::PoolStats`] after the run (e.g. to assert the
/// pool never grew mid-flight). Returns the report plus the number of
/// frames the probe saw completed.
pub fn run_smp_mjpeg_stream(
    stream: MjpegStream,
    cfg: &MjpegAppConfig,
    pool: Option<embera::BufferPool>,
) -> (AppReport, u64) {
    let (mut app, probe) = build_smp_app(stream, cfg);
    if let Some(pool) = pool {
        app.with_buffer_pool(pool);
    }
    let report = SmpPlatform::new()
        .deploy(app.build().expect("valid app"))
        .expect("deploy")
        .wait()
        .expect("run");
    let done = probe
        .frames_completed
        .load(std::sync::atomic::Ordering::SeqCst);
    (report, done)
}

/// Backend-generic variant of [`run_smp_mjpeg_stream`]: the identical
/// observer-free pipeline on the selected backend. `workers` sizes the
/// executor pool (`0` = auto) and is ignored by the thread backend.
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

/// [`run_mjpeg_stream_on`] with an [`ObsMode`]-selected observer
/// attached: the observed-vs-unobserved measurement entry point for the
/// overhead budget. The hierarchical modes shard the pipeline's
/// components over [`obs_regions`] regional observers.
pub fn run_mjpeg_stream_observed(
    backend: BenchBackend,
    workers: usize,
    stream: MjpegStream,
    cfg: &MjpegAppConfig,
    mode: ObsMode,
    interval_ns: u64,
) -> (AppReport, u64) {
    let (mut app, probe) = build_smp_app(stream, cfg);
    // Fetch + IDCT workers + Reorder (+ feeder/probe plumbing is
    // builder-internal); √ of a small pipeline is 2–3 regions.
    let targets = cfg.idct_count + 2;
    if let Some(config) = mode.observer_config(obs_regions(targets), interval_ns) {
        let _log = app.with_observer(config);
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
