//! Paper §5: the MJPEG decoder on the simulated STi7200 — regenerates
//! Table 3 and the Figure 8 sweep.
//!
//! ```text
//! cargo run --release --example mjpeg_mpsoc            # reduced stream (58 frames)
//! cargo run --release --example mjpeg_mpsoc -- --paper # full 578 frames
//! ```

use std::sync::atomic::Ordering;

use embera::{Platform, RunningApp};
use embera_os21::Os21Platform;
use embera_repro::sweep::{mpsoc_send_sweep, MpsocSender};
use embera_repro::tables::{format_table3, table3_ratio};
use mjpeg::{build_mpsoc_app, synthesize_stream, MjpegAppConfig};

fn main() {
    let paper_scale = std::env::args().any(|a| a == "--paper");
    let frames = if paper_scale { 578 } else { 58 };

    println!("MJPEG on the simulated STi7200 (paper section 5)");
    println!("  platform: 1x ST40 @450 MHz + 2x ST231 @400 MHz (3-CPU toolchain limit, section 5.3)");

    let stream = synthesize_stream(frames, 48, 24, 75, 0x578);
    let cfg = MjpegAppConfig {
        idct_count: 2,
        ..Default::default()
    };
    let (app, probe) = build_mpsoc_app(stream, &cfg);
    let running = Os21Platform::three_cpu()
        .deploy(app.build().expect("valid app"))
        .expect("deploy");
    let machine = running.machine().clone();
    let report = running.wait().expect("run");

    println!(
        "  {} frames decoded ({} reassembled) in {:.3} s of virtual time\n",
        frames,
        probe.frames_completed.load(Ordering::SeqCst),
        report.wall_time_ns as f64 / 1e9,
    );

    println!("Table 3 — MJPEG components execution time and memory allocated");
    println!("{}", format_table3(&report));
    println!(
        "Fetch-Reorder / IDCT task-time ratio: {:.1}x  (paper: 1173 s / 95 s = 12.3x)\n",
        table3_ratio(&report)
    );

    println!("Hardware counters from the machine model:");
    println!(
        "  bus: {} transactions, {:.2} ms busy, {:.2} ms queueing",
        machine.bus_stats().transactions,
        machine.bus_stats().busy_ns as f64 / 1e6,
        machine.bus_stats().wait_ns as f64 / 1e6
    );
    for cpu in 0..machine.config().num_cpus() {
        let st = machine.dcache_stats(cpu);
        println!(
            "  {} L1D: {} hits, {} misses ({:.1}% miss)",
            machine.config().cpus[cpu].name,
            st.hits,
            st.misses,
            st.miss_ratio() * 100.0
        );
    }

    println!("\nFigure 8 — EMBera send execution time over message size (virtual time)");
    let sizes: Vec<u64> = [1u64, 10, 25, 50, 100, 200].iter().map(|k| k * 1024).collect();
    let st40 = mpsoc_send_sweep(&sizes, 25, MpsocSender::St40);
    let st231 = mpsoc_send_sweep(&sizes, 25, MpsocSender::St231);
    println!("size (kB)  Fetch-Reorder/ST40 (ms)  IDCT/ST231 (ms)");
    for (a, b) in st40.iter().zip(st231.iter()) {
        println!(
            "{:>8}  {:>23.3}  {:>15.3}",
            a.size_bytes / 1024,
            a.mean_send_ns / 1e6,
            b.mean_send_ns / 1e6
        );
    }
    println!("\n(knee expected at 50 kB: the EMBX object double-buffers 2 x 25 kB slots)");
}
