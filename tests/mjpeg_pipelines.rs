//! Integration: the componentized MJPEG decoder on both platforms,
//! checking the paper's structural results end-to-end.

use std::sync::atomic::Ordering;

use embera::{Platform, RunningApp};
use embera_inproc::InprocPlatform;
use embera_os21::Os21Platform;
use embera_smp::SmpPlatform;
use mjpeg::{build_mpsoc_app, build_smp_app, synthesize_stream, MjpegAppConfig};

fn stream(frames: usize) -> mjpeg::MjpegStream {
    synthesize_stream(frames, 48, 24, 75, 0x5EED)
}

#[test]
fn smp_pipeline_full_counts_and_balance() {
    // 41 frames -> 40 forwarded: Table 2 structure at reduced scale.
    let (app, probe) = build_smp_app(stream(41), &MjpegAppConfig::default());
    let report = SmpPlatform::new()
        .deploy(app.build().unwrap())
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(probe.frames_completed.load(Ordering::SeqCst), 40);
    let fetch = report.component("Fetch").unwrap();
    assert_eq!(fetch.app.total_sends, 18 * 40);
    assert_eq!(fetch.app.total_receives, 0);
    for k in 1..=3 {
        let idct = report.component(&format!("IDCT_{k}")).unwrap();
        assert_eq!(idct.app.total_receives, 6 * 40);
        assert_eq!(idct.app.total_sends, 6 * 40);
    }
    let reorder = report.component("Reorder").unwrap();
    assert_eq!(reorder.app.total_receives, 18 * 40);

    // Table 1 memory shape: Fetch < IDCT < Reorder (provided-interface
    // footprints), Fetch = stack + introspection only.
    let m = |n: &str| report.component(n).unwrap().os.memory_bytes;
    assert!(m("Fetch") < m("IDCT_1"));
    assert!(m("IDCT_1") < m("Reorder"));
}

/// The three IDCTs' `(exec_time_ns, total_receives)` on the
/// deterministic in-process backend, whose clock is logical: a figure
/// read from it is a function of the work done, not of the host.
fn idcts_on_inproc(frames: usize) -> Vec<(u64, u64)> {
    let (app, _) = build_smp_app(stream(frames), &MjpegAppConfig::default());
    let report = InprocPlatform::new()
        .deploy(app.build().unwrap())
        .unwrap()
        .wait()
        .unwrap();
    (1..=3)
        .map(|k| {
            let idct = report.component(&format!("IDCT_{k}")).unwrap();
            (idct.os.exec_time_ns, idct.app.total_receives)
        })
        .collect()
}

#[test]
fn smp_pipeline_idcts_are_load_balanced() {
    // Paper §4.4: "having three IDCT components computing in parallel
    // balances the execution times" — the three IDCTs do identical
    // work. On threads that is a statement about what each lane is
    // dealt (a wall-clock ratio of sub-millisecond runs measures the
    // host's scheduler); on the logical clock it is one about time.
    let (app, _) = build_smp_app(stream(31), &MjpegAppConfig::default());
    let report = SmpPlatform::new()
        .deploy(app.build().unwrap())
        .unwrap()
        .wait()
        .unwrap();
    let received: Vec<u64> = (1..=3)
        .map(|k| {
            let idct = report.component(&format!("IDCT_{k}")).unwrap();
            idct.app.total_receives
        })
        .collect();
    let (min, max) = (
        received.iter().min().unwrap(),
        received.iter().max().unwrap(),
    );
    assert!(
        *min > 0 && max - min <= 1,
        "lanes are dealt equal shares: {received:?}"
    );

    let lanes = idcts_on_inproc(31);
    assert!(
        lanes.iter().all(|lane| *lane == lanes[0]) && lanes[0].0 > 0,
        "equal work is equal logical time: {lanes:?}"
    );
}

#[test]
fn mpsoc_pipeline_decodes_and_matches_reference() {
    let s = stream(9);
    let expected = mjpeg::pipeline::PipelineProbe::default();
    for f in &s.frames[1..] {
        let px = mjpeg::codec::decode_frame(&f.data, 48, 24, 75).unwrap();
        fold(&expected, &px);
    }
    let cfg = MjpegAppConfig {
        idct_count: 2,
        ..Default::default()
    };
    let (app, probe) = build_mpsoc_app(s, &cfg);
    let report = Os21Platform::three_cpu()
        .deploy(app.build().unwrap())
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(probe.frames_completed.load(Ordering::SeqCst), 8);
    assert_eq!(
        probe.checksum.load(Ordering::SeqCst),
        expected.checksum.load(Ordering::SeqCst),
        "MPSoC pipeline output must be bit-identical to reference decode"
    );
    assert_eq!(
        report.component("Fetch-Reorder").unwrap().app.total_sends,
        18 * 8
    );
}

// PipelineProbe::fold_frame is private; recompute its FNV fold here.
fn fold(probe: &mjpeg::pipeline::PipelineProbe, pixels: &[u8]) {
    let mut h = probe.checksum.load(Ordering::Acquire);
    if h == 0 {
        h = 0xcbf2_9ce4_8422_2325;
    }
    for &b in pixels {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    probe.checksum.store(h, Ordering::Release);
    probe.frames_completed.fetch_add(1, Ordering::AcqRel);
}

#[test]
fn mpsoc_table3_shapes_hold() {
    // Table 3's structure at reduced scale: memory formula exact, the
    // Fetch-Reorder : IDCT task-time ratio ~10x (paper: 1173/95 ≈ 12).
    let cfg = MjpegAppConfig {
        idct_count: 2,
        ..Default::default()
    };
    let (app, _) = build_mpsoc_app(stream(25), &cfg);
    let report = Os21Platform::three_cpu()
        .deploy(app.build().unwrap())
        .unwrap()
        .wait()
        .unwrap();
    let fr = report.component("Fetch-Reorder").unwrap();
    let idct = report.component("IDCT_1").unwrap();
    assert_eq!(
        fr.os.memory_bytes, 110_000,
        "60 kB task + 2 x 25 kB objects"
    );
    assert_eq!(
        idct.os.memory_bytes, 85_000,
        "60 kB task + 1 x 25 kB object"
    );
    let ratio = embera_repro::tables::table3_ratio(&report);
    assert!(
        (6.0..20.0).contains(&ratio),
        "Fetch-Reorder/IDCT task-time ratio {ratio:.1} outside the paper's ~10-12x band"
    );
}

#[test]
fn mpsoc_runs_are_fully_deterministic() {
    let run = || {
        let cfg = MjpegAppConfig {
            idct_count: 2,
            ..Default::default()
        };
        let (app, probe) = build_mpsoc_app(stream(7), &cfg);
        let report = Os21Platform::three_cpu()
            .deploy(app.build().unwrap())
            .unwrap()
            .wait()
            .unwrap();
        (
            report.wall_time_ns,
            probe.checksum.load(Ordering::SeqCst),
            report.component("Fetch-Reorder").unwrap().os.cpu_time_ns,
        )
    };
    assert_eq!(run(), run(), "two simulated runs must be identical");
}

#[test]
fn smp_exec_time_scales_with_stream_length() {
    // Table 1's scaling: 578 -> 3000 frames grows component times by
    // the frame ratio. Reduced scale: 11 vs 51 frames (10 vs 50
    // forwarded), on the logical clock, where every block costs the
    // same: five times the messages in five times the time.
    let (small, small_msgs) = idcts_on_inproc(11)[0];
    let (large, large_msgs) = idcts_on_inproc(51)[0];
    assert_eq!((small_msgs, large_msgs), (6 * 10, 6 * 50));
    assert!(small > 0);
    assert_eq!(large, 5 * small, "exec time follows stream length");
}
