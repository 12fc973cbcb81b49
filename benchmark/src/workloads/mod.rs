//! The six workloads. Each builds its inputs from the seed, runs
//! repetitions of deploy→wait on identical inputs, and checks every
//! repetition's output against an expectation computed in set-up.

use embera::{is_observer_component, AppReport};

use crate::spans::Spans;

mod fanio;
mod mjpeg_closed;
mod mpsoc;
mod openloop;

pub use fanio::{build_fanio_app, FanioInputs};
pub use mjpeg_closed::{cycled_stream, MjpegVariant};

/// Sizes: the full benchmark, or the shrunken smoke run that only shows
/// every name and every check still work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    /// `full` at full scale, `smoke` in a smoke run.
    pub fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }
}

/// What one repetition measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Host time from deployment to completion, ns.
    pub wall_ns: u64,
    /// Operations the repetition set out to complete: frames, or
    /// messages on the fan-in/fan-out topology.
    pub attempted: u64,
    /// Operations that did not complete correctly.
    pub failed: u64,
    /// Latency of one request, ms: a frame on the open loop, the whole
    /// job on a closed loop.
    pub latency_ms: f64,
    /// Layer metrics read from the run's own public reports.
    pub layers: Vec<(&'static str, f64)>,
    /// Values that must read the same on every repetition of a run.
    pub exact: Vec<(&'static str, u64)>,
    /// One line per failed check.
    pub errors: Vec<String>,
    /// Why the repetition's timings stay out of the medians, if they
    /// describe the host rather than the program.
    pub set_aside: Option<String>,
}

impl Rep {
    /// Record an output check. A failed check fails the whole
    /// repetition: its operations cannot be trusted one by one.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed = self.attempted;
            self.errors.push(what());
        }
    }

    /// Fill the closed-loop fields from the job's wall time.
    fn closed_loop(&mut self, wall_ns: u64) {
        self.wall_ns = wall_ns;
        self.latency_ms = wall_ns as f64 / 1e6;
    }

    /// The `core.*` counters every backend's report carries.
    fn core_layers(&mut self, report: &AppReport) {
        let app = || {
            report
                .components
                .iter()
                .filter(|r| !is_observer_component(&r.component))
        };
        let mean = |total_ns: u64, count: u64| total_ns as f64 / count.max(1) as f64;
        let (send_ns, sends) = app().fold((0, 0), |(ns, n), r| {
            (ns + r.middleware.send.total_ns, n + r.middleware.send.count)
        });
        let (recv_ns, recvs) = app().fold((0, 0), |(ns, n), r| {
            (ns + r.middleware.recv.total_ns, n + r.middleware.recv.count)
        });
        let bytes: u64 = app().map(|r| r.middleware.bytes_sent).sum();
        let msgs: u64 = app().map(|r| r.app.total_sends).sum();
        self.layers.extend([
            ("core.send_ns_per_msg", mean(send_ns, sends)),
            ("core.recv_ns_per_msg", mean(recv_ns, recvs)),
            ("core.msgs_total", msgs as f64),
            ("core.bytes_sent", bytes as f64),
        ]);
        self.exact.push(("core.msgs_total", msgs));
    }
}

/// A workload with its inputs built and its expectation computed.
pub trait Prepared {
    /// One repetition: deploy, wait, verify.
    fn repetition(&mut self, spans: &mut Spans) -> Rep;

    /// Spoil the expectation, so that the next repetition must fail its
    /// check — the test that the checks can fail at all.
    fn corrupt_expectation(&mut self);
}

/// Whether `workload` runs pinned to one CPU.
pub fn runs_pinned(workload: &str) -> bool {
    workload == "mpsoc_sim"
}

/// Set up `workload` from `seed`. `None` for a name the benchmark does
/// not have.
pub fn prepare(
    workload: &str,
    seed: u64,
    scale: Scale,
    spans: &mut Spans,
) -> Option<Box<dyn Prepared>> {
    Some(match workload {
        "smp_paper" => Box::new(mjpeg_closed::prepare(
            MjpegVariant::Paper,
            seed,
            scale,
            spans,
        )),
        "smp_batched" => Box::new(mjpeg_closed::prepare(
            MjpegVariant::Batched,
            seed,
            scale,
            spans,
        )),
        "exec_fanio" => Box::new(fanio::prepare(false, seed, scale, spans)),
        "exec_fanio_observed" => Box::new(fanio::prepare(true, seed, scale, spans)),
        "mpsoc_sim" => Box::new(mpsoc::prepare(seed, scale, spans)),
        "smp_openloop" => Box::new(openloop::prepare(seed, scale, spans)),
        _ => return None,
    })
}

/// The fold `mjpeg::pipeline::PipelineProbe` applies to the frames the
/// pipeline reassembles, in order: FNV-1a's shape with the probe's own
/// multiplier.
fn fnv1a_fold(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(0x1000_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One step of splitmix64: the generator the program's own arrival
/// sampler uses, and the source of every seeded byte made here.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
