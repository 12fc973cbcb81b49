//! Quickstart: a two-component EMBera application with an observer.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a producer → consumer pipeline, attaches the observer
//! component, runs it on the SMP backend and prints the multi-level
//! observation report — all without the producer/consumer code knowing
//! anything about observation.

use bytes::Bytes;
use embera::behavior::behavior_fn;
use embera::{AppBuilder, ComponentSpec, ObserverConfig, Platform, RunningApp};
use embera_smp::SmpPlatform;

fn main() {
    const MESSAGES: u32 = 5_000;

    let mut app = AppBuilder::new("quickstart");
    app.add(
        ComponentSpec::new(
            "producer",
            behavior_fn(move |ctx| {
                for i in 0..MESSAGES {
                    let payload = vec![(i % 251) as u8; 1024];
                    ctx.send("out", Bytes::from(payload))?;
                }
                Ok(())
            }),
        )
        .with_required("out"),
    );
    app.add(
        ComponentSpec::new(
            "consumer",
            behavior_fn(move |ctx| {
                let mut bytes = 0usize;
                for _ in 0..MESSAGES {
                    bytes += ctx.recv("in")?.len();
                }
                println!("consumer: received {bytes} bytes");
                Ok(())
            }),
        )
        .with_provided("in"),
    );
    app.connect(("producer", "out"), ("consumer", "in"));
    let log = app.with_observer(ObserverConfig::default().interval_ns(2_000_000));

    let report = SmpPlatform::new()
        .deploy(app.build().expect("valid app"))
        .expect("deploy")
        .wait()
        .expect("run");

    println!(
        "\napplication '{}' finished in {:.2} ms",
        report.app_name,
        report.wall_time_ns as f64 / 1e6
    );
    println!("observer collected {} live reports\n", log.len());
    for r in &report.components {
        println!("component [{}]", r.component);
        println!(
            "  OS:        exec {:>10} us, memory {:>9} bytes",
            r.os.exec_time_ns / 1_000,
            r.os.memory_bytes
        );
        println!(
            "  middleware: {} sends (mean {} ns), {} receives (mean {} ns)",
            r.middleware.send.count,
            r.middleware.send.mean_ns(),
            r.middleware.recv.count,
            r.middleware.recv.mean_ns()
        );
        println!(
            "  app:       {} sends / {} receives over {} interfaces",
            r.app.total_sends,
            r.app.total_receives,
            r.app.interfaces.len()
        );
        println!("{}", r.structure.format_figure5());
    }
}
