//! `mpsoc_sim`: the paper's Table-3 deployment — merged Fetch-Reorder
//! on the ST40, two IDCTs on ST231s — on the simulated STi7200, closed
//! loop, pinned to one CPU. Strictly serial (one simulated process runs
//! at a time), so host time per simulated event is the whole story, and
//! everything the simulation itself reports must repeat exactly.

use std::sync::atomic::Ordering;
use std::time::Instant;

use embera::Platform;
use embera_os21::Os21Platform;
use mjpeg::{build_mpsoc_app, MjpegAppConfig, MjpegStream};

use super::{cycled_stream, Prepared, Rep, Scale};
use crate::spans::Spans;

pub struct MpsocSim {
    stream: MjpegStream,
    cfg: MjpegAppConfig,
    expected_checksum: u64,
}

pub fn prepare(seed: u64, scale: Scale, spans: &mut Spans) -> MpsocSim {
    let cfg = MjpegAppConfig {
        idct_count: 2,
        ..MjpegAppConfig::default()
    };
    // 578 frames: the paper's first input file.
    let frames = scale.pick(578, 24);
    let (stream, expected_checksum) = cycled_stream(seed, (48, 24), 64, frames, cfg.kernel, spans);
    MpsocSim {
        stream,
        cfg,
        expected_checksum,
    }
}

impl Prepared for MpsocSim {
    fn repetition(&mut self, spans: &mut Spans) -> Rep {
        let forwarded = self.stream.len() as u64 - 1;
        let (app, probe) = build_mpsoc_app(self.stream.clone(), &self.cfg);
        let spec = app.build().expect("valid MPSoC app");
        let started = Instant::now();
        let running = spans.span("deploy", |_| {
            Os21Platform::three_cpu().deploy(spec).expect("deploy")
        });
        let machine = running.machine().clone();
        let (report, kernel) = spans.span("wait", |_| running.wait_with_stats().expect("run"));
        let wall_ns = started.elapsed().as_nanos() as u64;

        let mut rep = Rep {
            attempted: forwarded,
            ..Rep::default()
        };
        rep.closed_loop(wall_ns);
        rep.core_layers(&report);
        let bus = machine.bus_stats();
        let task_ns = |name: &str| report.component(name).map_or(0, |r| r.os.cpu_time_ns) as f64;
        let idct_mean = (task_ns("IDCT_1") + task_ns("IDCT_2")) / 2.0;
        rep.layers.extend([
            // Simulated platform time for the run, not host time.
            ("mpsoc.sim_time_ms", report.wall_time_ns as f64 / 1e6),
            ("mpsoc.bus_transactions", bus.transactions as f64),
            ("mpsoc.bus_wait_ms", bus.wait_ns as f64 / 1e6),
            ("mpsoc.bus_busy_ms", bus.busy_ns as f64 / 1e6),
            (
                "mpsoc.st40_over_st231",
                task_ns("Fetch-Reorder") / idct_mean.max(1.0),
            ),
            (
                "simkernel.events_dispatched",
                kernel.events_dispatched as f64,
            ),
            ("simkernel.max_queue_depth", kernel.max_queue_depth as f64),
            (
                "simkernel.host_ns_per_event",
                wall_ns as f64 / kernel.events_dispatched.max(1) as f64,
            ),
        ]);
        rep.exact.extend([
            ("mpsoc.sim_time_ns", report.wall_time_ns),
            ("simkernel.events_dispatched", kernel.events_dispatched),
            ("mpsoc.bus_transactions", bus.transactions),
            ("mpsoc.bus_wait_ns", bus.wait_ns),
        ]);
        spans.span("verify", |_| {
            let completed = probe.frames_completed.load(Ordering::SeqCst);
            rep.failed = forwarded.saturating_sub(completed);
            rep.check(completed == forwarded, || {
                format!("{completed} of {forwarded} frames completed")
            });
            let checksum = probe.checksum.load(Ordering::SeqCst);
            rep.check(checksum == self.expected_checksum, || {
                format!(
                    "pipeline checksum {checksum:#x}, serial decoder {:#x}",
                    self.expected_checksum
                )
            });
        });
        rep
    }

    fn corrupt_expectation(&mut self) {
        self.expected_checksum ^= 1;
    }
}
