//! Integration: the developer-facing exports — GraphViz component
//! graphs and chrome://tracing timelines — produced from real runs.

use bytes::Bytes;
use embera::behavior::behavior_fn;
use embera::{AppBuilder, ComponentSpec, ObserverConfig, Platform, RunningApp};
use embera_smp::SmpPlatform;
use embera_trace::{analysis, export, TraceCollector};
use mjpeg::{build_smp_app, synthesize_stream, MjpegAppConfig};

#[test]
fn mjpeg_app_dot_graph_matches_paper_topology() {
    let (mut app, _) = build_smp_app(
        synthesize_stream(2, 48, 24, 75, 1),
        &MjpegAppConfig::default(),
    );
    let _log = app.with_observer(ObserverConfig::default());
    let dot = app.build().unwrap().to_dot();
    // Paper Figure 1 topology: Fetch feeds three IDCTs, which feed Reorder.
    for k in 1..=3 {
        assert!(dot.contains(&format!("\"Fetch\" -> \"IDCT_{k}\"")), "{dot}");
        assert!(
            dot.contains(&format!("\"IDCT_{k}\" -> \"Reorder\"")),
            "{dot}"
        );
    }
    // Observer wiring present and visually distinguished.
    assert!(dot.contains("\"Observer\" [label=\"Observer\", style=dashed]"));
    assert!(
        dot.matches("style=dotted").count() >= 10,
        "2 dotted edges per observed component"
    );
}

#[test]
fn chrome_trace_from_real_run_is_consistent() {
    let collector = TraceCollector::default();
    let mut app = AppBuilder::new("chrome");
    app.add(
        ComponentSpec::new(
            "src",
            behavior_fn(|ctx| {
                for _ in 0..50 {
                    ctx.send("out", Bytes::from_static(&[0u8; 128]))?;
                }
                Ok(())
            }),
        )
        .with_required("out")
        .with_stack_bytes(1 << 20),
    );
    app.add(
        ComponentSpec::new(
            "dst",
            behavior_fn(|ctx| {
                for _ in 0..50 {
                    ctx.recv("in")?;
                }
                Ok(())
            }),
        )
        .with_provided("in")
        .with_stack_bytes(1 << 20),
    );
    app.connect(("src", "out"), ("dst", "in"));
    app.with_tracing(collector.trace_config());
    SmpPlatform::new()
        .deploy(app.build().unwrap())
        .unwrap()
        .wait()
        .unwrap();

    let trace = collector.drain_sorted();
    let json = export::to_chrome_json(&trace, &collector.names());
    // 50 sends + 50 recvs as complete events, 4 lifecycle instants.
    assert_eq!(json.matches("\"ph\": \"X\"").count(), 100);
    assert_eq!(json.matches("\"ph\": \"i\"").count(), 4);
    assert_eq!(json.matches("\"cat\": \"src\"").count(), 52);

    // Percentiles over the same trace are self-consistent.
    let p = analysis::percentiles(&trace, embera_trace::EventKind::SendEnd);
    assert_eq!(p.count, 50);
    assert!(p.p50 <= p.p90 && p.p90 <= p.p99 && p.p99 <= p.max);

    // And the text format round-trips the full trace.
    let reparsed = export::from_text(&export::to_text(&trace)).unwrap();
    assert_eq!(reparsed, trace);
}
