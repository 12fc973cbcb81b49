//! Message-size sweep harnesses: the experiments behind the paper's
//! Figure 4 (SMP `send` execution time vs message size) and Figure 8
//! (STi7200 `send` execution time per CPU vs message size).

use bytes::Bytes;

use embera::behavior::behavior_fn;
use embera::{AppBuilder, ComponentSpec, Platform, RunningApp};
use embera_os21::Os21Platform;
use embera_smp::SmpPlatform;

/// One sweep sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Message size, bytes.
    pub size_bytes: u64,
    /// Mean `send` primitive execution time, ns.
    pub mean_send_ns: f64,
}

fn mean_send_ns(report: &embera::AppReport) -> f64 {
    let s = &report
        .component("Sender")
        .expect("sender report")
        .middleware
        .send;
    if s.count == 0 {
        0.0
    } else {
        s.total_ns as f64 / s.count as f64
    }
}

/// Figure 4 experiment: mean SMP `send` time for each message size.
/// `iterations` sends are averaged per point.
pub fn smp_send_sweep(sizes_bytes: &[u64], iterations: u32) -> Vec<SweepPoint> {
    sizes_bytes
        .iter()
        .map(|&size| {
            let app = sweep_app_placed(size as usize, iterations, 0, 1);
            let report = SmpPlatform::new()
                .deploy(app.build().expect("valid sweep app"))
                .expect("deploy")
                .wait()
                .expect("run");
            SweepPoint {
                size_bytes: size,
                mean_send_ns: mean_send_ns(&report),
            }
        })
        .collect()
}

/// Which CPU sends in the MPSoC sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MpsocSender {
    /// The general-purpose host CPU (the paper's Fetch-Reorder side).
    St40,
    /// An ST231 accelerator (the paper's IDCT side).
    St231,
}

/// Figure 8 experiment: mean EMBX-backed `send` time on the simulated
/// STi7200, for the given sending CPU kind.
pub fn mpsoc_send_sweep(
    sizes_bytes: &[u64],
    iterations: u32,
    sender: MpsocSender,
) -> Vec<SweepPoint> {
    // ST40 (CPU 0) sends to an object owned by CPU 1; the ST231 sender
    // (CPU 1) sends to an object owned by CPU 0 — mirroring the two
    // directions of the paper's Fetch-Reorder ⇄ IDCT traffic.
    let (send_cpu, recv_cpu) = match sender {
        MpsocSender::St40 => (0usize, 1usize),
        MpsocSender::St231 => (1usize, 0usize),
    };
    sizes_bytes
        .iter()
        .map(|&size| {
            let app = sweep_app_placed(size as usize, iterations, send_cpu, recv_cpu);
            let report = Os21Platform::three_cpu()
                .deploy(app.build().expect("valid sweep app"))
                .expect("deploy")
                .wait()
                .expect("run");
            SweepPoint {
                size_bytes: size,
                mean_send_ns: mean_send_ns(&report),
            }
        })
        .collect()
}

fn sweep_app_placed(size: usize, iterations: u32, send_cpu: usize, recv_cpu: usize) -> AppBuilder {
    let mut app = AppBuilder::new(format!("send-sweep-{size}"));
    app.add(
        ComponentSpec::new(
            "Sender",
            behavior_fn(move |ctx| {
                let payload = Bytes::from(vec![0xA5u8; size]);
                for _ in 0..iterations {
                    ctx.send("out", payload.clone())?;
                }
                Ok(())
            }),
        )
        .with_required("out")
        .with_stack_bytes(1 << 21)
        .on_cpu(send_cpu),
    );
    app.add(
        ComponentSpec::new(
            "Sink",
            behavior_fn(move |ctx| {
                for _ in 0..iterations {
                    ctx.recv("in")?;
                }
                Ok(())
            }),
        )
        .with_provided("in")
        .with_stack_bytes(1 << 21)
        .on_cpu(recv_cpu),
    );
    app.connect(("Sender", "out"), ("Sink", "in"));
    app
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::linear_fit;

    #[test]
    fn smp_sweep_grows_with_message_size() {
        // Figure 4's shape: send time grows with message size (the copy
        // into the mailbox dominates). This is a wall-clock measurement,
        // so under parallel test load we assert the robust ordering
        // properties; the tight linear fit is checked by the release-mode
        // `repro -- figure4` harness.
        // Wall-clock noise from concurrently running test binaries can
        // swamp a single sweep, so allow a few attempts before failing.
        let sizes: Vec<u64> = (1..=5).map(|k| k * 25 * 1024).collect();
        let mut last_points = Vec::new();
        for attempt in 0..4 {
            let points = smp_send_sweep(&sizes, 300);
            let fit = linear_fit(
                &points
                    .iter()
                    .map(|p| (p.size_bytes as f64, p.mean_send_ns))
                    .collect::<Vec<_>>(),
            );
            if fit.b > 0.0 && points.last().unwrap().mean_send_ns > points[0].mean_send_ns * 1.5 {
                return;
            }
            eprintln!("sweep attempt {attempt} too noisy: {points:?}");
            last_points = points;
        }
        panic!(
            "125 kB sends must clearly exceed 25 kB sends \
             (positive slope, >=1.5x) in 4 attempts: {last_points:?}"
        );
    }

    #[test]
    fn mpsoc_sweep_st231_beats_st40() {
        let sizes = [25 * 1024u64, 100 * 1024];
        let st40 = mpsoc_send_sweep(&sizes, 20, MpsocSender::St40);
        let st231 = mpsoc_send_sweep(&sizes, 20, MpsocSender::St231);
        for (a, b) in st40.iter().zip(st231.iter()) {
            assert!(
                b.mean_send_ns < a.mean_send_ns,
                "ST231 must send faster: {a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn mpsoc_sweep_has_knee_at_50kb() {
        let sizes = [10 * 1024u64, 40 * 1024, 100 * 1024, 160 * 1024];
        let pts = mpsoc_send_sweep(&sizes, 10, MpsocSender::St40);
        let below = (pts[1].mean_send_ns - pts[0].mean_send_ns) / (30.0 * 1024.0);
        let above = (pts[3].mean_send_ns - pts[2].mean_send_ns) / (60.0 * 1024.0);
        assert!(
            above > below * 1.15,
            "slope above the knee must exceed below: {below} vs {above}"
        );
    }
}
