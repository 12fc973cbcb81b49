//! Event tracing (paper §6 future work, experiment X3): run a pipeline
//! with first-class runtime tracing and print timeline statistics plus
//! a snippet of the raw trace.
//!
//! Tracing is a one-line opt-in on the *application description*
//! (`AppBuilder::with_tracing`): the component runtime emits events
//! around every primitive on every backend, so the behaviors below are
//! completely ordinary — no decorators, no instrumentation. The runtime
//! also reports what no decorator could see: `ObsServed` events for
//! introspection requests it answers on a component's behalf.
//!
//! ```text
//! cargo run --release --example tracing_demo
//! ```

use bytes::Bytes;
use embera::behavior::behavior_fn;
use embera::{AppBuilder, ComponentSpec, Platform, RunningApp};
use embera_smp::SmpPlatform;
use embera_trace::analysis::TimelineStats;
use embera_trace::{export, TraceCollector};

fn main() {
    const MESSAGES: u32 = 2_000;
    let collector = TraceCollector::default();

    let mut app = AppBuilder::new("traced-pipeline");
    app.with_tracing(collector.trace_config());
    app.add(
        ComponentSpec::new(
            "stage_a",
            behavior_fn(move |ctx| {
                for i in 0..MESSAGES {
                    ctx.send("out", Bytes::from(vec![i as u8; 512]))?;
                }
                Ok(())
            }),
        )
        .with_required("out"),
    );
    app.add(
        ComponentSpec::new(
            "stage_b",
            behavior_fn(move |ctx| {
                for _ in 0..MESSAGES {
                    let m = ctx.recv("in")?;
                    ctx.send("out", m)?;
                }
                Ok(())
            }),
        )
        .with_provided("in")
        .with_required("out"),
    );
    app.add(
        ComponentSpec::new(
            "stage_c",
            behavior_fn(move |ctx| {
                for _ in 0..MESSAGES {
                    ctx.recv("in")?;
                }
                Ok(())
            }),
        )
        .with_provided("in"),
    );
    app.connect(("stage_a", "out"), ("stage_b", "in"));
    app.connect(("stage_b", "out"), ("stage_c", "in"));

    let report = SmpPlatform::new()
        .deploy(app.build().expect("valid app"))
        .expect("deploy")
        .wait()
        .expect("run");

    let trace = collector.drain_sorted();
    println!(
        "pipeline moved {MESSAGES} messages in {:.2} ms; captured {} trace events, \
         {} dropped on full rings\n",
        report.wall_time_ns as f64 / 1e6,
        trace.len(),
        collector.dropped()
    );

    let stats = TimelineStats::from_events(&trace);
    println!("timeline statistics:");
    println!("{}", stats.format_table(&collector.names()));

    println!("first 12 raw trace events (ts component kind a b):");
    let text = export::to_text(&trace[..trace.len().min(12)]);
    print!("{text}");

    // Round-trip through the text format to show it parses back.
    let parsed = export::from_text(&export::to_text(&trace)).expect("trace re-parses");
    assert_eq!(parsed.len(), trace.len());
    println!(
        "\ntrace round-tripped through the text format ({} events)",
        parsed.len()
    );
}
