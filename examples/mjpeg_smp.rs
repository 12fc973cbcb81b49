//! Paper §4: the componentized MJPEG decoder on the SMP backend —
//! regenerates Table 1, Table 2 and the Figure 5 listing.
//!
//! ```text
//! cargo run --release --example mjpeg_smp            # reduced streams (58/300 frames)
//! cargo run --release --example mjpeg_smp -- --paper # full 578/3000 frames
//! ```

use std::sync::atomic::Ordering;

use embera::{Platform, RunningApp};
use embera_repro::tables::{format_table1, format_table2};
use embera_smp::SmpPlatform;
use mjpeg::{build_smp_app, synthesize_stream, MjpegAppConfig};

fn run(frames: usize, seed: u64) -> embera::AppReport {
    let stream = synthesize_stream(frames, 48, 24, 75, seed);
    let (mut app, probe) = build_smp_app(stream, &MjpegAppConfig::default());
    // The paper's Table 1 memory figures include the observation
    // interfaces; attach the observer so the accounting matches.
    let _log = app.with_observer(embera::ObserverConfig::default().interval_ns(20_000_000));
    let report = SmpPlatform::new()
        .deploy(app.build().expect("valid app"))
        .expect("deploy")
        .wait()
        .expect("run");
    println!(
        "  {} frames: decoded {} frames in {:.1} ms (checksum {:#018x})",
        frames,
        probe.frames_completed.load(Ordering::SeqCst),
        report.wall_time_ns as f64 / 1e6,
        probe.checksum.load(Ordering::SeqCst),
    );
    report
}

/// The PR 5 throughput configuration: SIMD IDCT kernel, batched
/// messages, pooled payload buffers (zero steady-state allocations),
/// and a non-default worker count. Same frames and checksum as the
/// paper schedule — only faster.
fn run_fast(frames: usize, seed: u64) {
    let stream = synthesize_stream(frames, 48, 24, 75, seed);
    let cfg = MjpegAppConfig {
        idct_count: 4,
        blocks_per_msg: 72,
        kernel: mjpeg::DctKind::FastSimd,
        payload_pool: true,
        ..MjpegAppConfig::default()
    };
    let (app, probe) = build_smp_app(stream, &cfg);
    let report = SmpPlatform::new()
        .deploy(app.build().expect("valid app"))
        .expect("deploy")
        .wait()
        .expect("run");
    println!(
        "  {} frames, 4 workers, batch 72, {} kernel, pooled: {} frames in {:.1} ms (checksum {:#018x})",
        frames,
        mjpeg::active_level().name(),
        probe.frames_completed.load(Ordering::SeqCst),
        report.wall_time_ns as f64 / 1e6,
        probe.checksum.load(Ordering::SeqCst),
    );
}

fn main() {
    let paper_scale = std::env::args().any(|a| a == "--paper");
    let (small, large) = if paper_scale { (578, 3000) } else { (58, 300) };

    println!("MJPEG on the SMP backend (paper section 4)");
    let report_small = run(small, 0x578);
    let report_large = run(large, 0x3000);

    println!("\nThroughput configuration (batched messages, SIMD kernel, pooled payloads)");
    run_fast(small, 0x578);

    println!("\nTable 1 — MJPEG components execution time and memory allocated");
    println!("{}", format_table1(&report_small, &report_large));

    println!("Table 2 — MJPEG components communication operations performed");
    println!("{}", format_table2(&report_small, &report_large));

    println!("Figure 5 — interfaces of component IDCT_1");
    println!(
        "{}",
        report_small
            .component("IDCT_1")
            .expect("IDCT_1 present")
            .structure
            .format_figure5()
    );
}
