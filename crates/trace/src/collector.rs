//! The trace collector: an application's per-component rings read as one
//! global, time-ordered trace.

use embera::TraceConfig;

use crate::TraceEvent;

/// Collects the trace of one traced application. Cloneable; clones
/// share the rings.
#[derive(Clone, Default)]
pub struct TraceCollector {
    config: TraceConfig,
}

impl TraceCollector {
    /// Collector whose component rings hold `ring_capacity` events.
    pub fn new(ring_capacity: usize) -> Self {
        TraceCollector {
            config: TraceConfig::new(ring_capacity),
        }
    }

    /// The [`TraceConfig`] that registers each deployed component's ring
    /// on this collector. Attach it with
    /// [`AppBuilder::with_tracing`](embera::AppBuilder::with_tracing):
    ///
    /// ```
    /// # use embera::AppBuilder;
    /// # use embera_trace::TraceCollector;
    /// let collector = TraceCollector::default();
    /// let mut app = AppBuilder::new("traced");
    /// app.with_tracing(collector.trace_config());
    /// ```
    pub fn trace_config(&self) -> TraceConfig {
        self.config.clone()
    }

    /// All registered component names, id order.
    pub fn names(&self) -> Vec<String> {
        self.config.names()
    }

    /// Drain every ring and return the merged trace sorted by timestamp,
    /// ties broken by component id, then by [`EventKind`](crate::EventKind)
    /// order, for determinism.
    pub fn drain_sorted(&self) -> Vec<TraceEvent> {
        let mut all = self.config.drain();
        all.sort_by_key(|e| (e.ts_ns, e.component, e.kind));
        all
    }

    /// Events lost so far because a component's ring was full, summed
    /// over every ring.
    pub fn dropped(&self) -> u64 {
        self.config.dropped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventKind;
    use bytes::Bytes;
    use embera::behavior::behavior_fn;
    use embera::{AppBuilder, ComponentSpec, Platform, RunningApp};
    use embera_smp::SmpPlatform;

    #[test]
    fn register_assigns_sequential_ids() {
        let c = TraceCollector::new(16);
        let config = c.trace_config();
        config.register("Fetch").emit(0, EventKind::Recv, 0, 0);
        config.register("IDCT_1").emit(0, EventKind::Recv, 0, 0);
        let ids: Vec<u32> = c.drain_sorted().iter().map(|e| e.component).collect();
        assert_eq!(ids, vec![0, 1]);
        assert_eq!(c.names(), vec!["Fetch", "IDCT_1"]);
    }

    #[test]
    fn drain_merges_and_sorts_across_components() {
        let c = TraceCollector::new(16);
        let a = c.trace_config().register("a");
        let b = c.trace_config().register("b");
        b.emit(20, EventKind::Recv, 0, 0);
        a.emit(10, EventKind::SendStart, 5, 0);
        a.emit(30, EventKind::SendEnd, 5, 20);
        let trace = c.drain_sorted();
        let ts: Vec<u64> = trace.iter().map(|e| e.ts_ns).collect();
        assert_eq!(ts, vec![10, 20, 30]);
        // Second drain is empty.
        assert!(c.drain_sorted().is_empty());
    }

    #[test]
    fn one_instant_of_one_component_drains_in_kind_order() {
        use EventKind::*;
        let rank_order = [
            BehaviorStart,
            SendStart,
            SendEnd,
            Recv,
            Compute,
            ObsServed,
            FaultInjected,
            Shed,
            BehaviorPanic,
            Restart,
            BehaviorEnd,
        ];
        let c = TraceCollector::new(16);
        let writer = c.trace_config().register("only");
        for &kind in rank_order.iter().rev() {
            writer.emit(7, kind, 0, 0);
        }
        let kinds: Vec<EventKind> = c.drain_sorted().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, rank_order);
    }

    #[test]
    fn concurrent_emission_from_threads() {
        let c = TraceCollector::new(8192);
        let handles: Vec<_> = (0..4)
            .map(|i| c.trace_config().register(&format!("c{i}")))
            .map(|h| {
                std::thread::spawn(move || {
                    for t in 0..1000u64 {
                        h.emit(t, EventKind::Compute, t, 0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let trace = c.drain_sorted();
        assert_eq!(trace.len(), 4000);
        assert!(trace.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    /// `src` sends `messages` payloads to `dst` on the thread backend,
    /// traced into `collector`.
    fn run_pair(collector: &TraceCollector, messages: usize) {
        let mut app = AppBuilder::new("traced");
        app.add(
            ComponentSpec::new(
                "src",
                behavior_fn(move |ctx| {
                    for _ in 0..messages {
                        ctx.send("out", Bytes::from_static(b"payload"))?;
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
                behavior_fn(move |ctx| {
                    for _ in 0..messages {
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
    }

    #[test]
    fn first_class_tracing_captures_a_run() {
        let collector = TraceCollector::default();
        run_pair(&collector, 1);
        let trace = collector.drain_sorted();
        let count = |k: EventKind| trace.iter().filter(|e| e.kind == k).count();
        // Two components, full lifecycle brackets each.
        assert_eq!(count(EventKind::BehaviorStart), 2);
        assert_eq!(count(EventKind::BehaviorEnd), 2);
        // One data send, one data receive.
        assert_eq!(count(EventKind::SendStart), 1);
        assert_eq!(count(EventKind::SendEnd), 1);
        assert_eq!(count(EventKind::Recv), 1);
        // One ring per component, registered by name at deployment.
        let mut names = collector.names();
        names.sort();
        assert_eq!(names, vec!["dst", "src"]);
        assert_eq!(collector.dropped(), 0);
    }

    #[test]
    fn full_rings_count_what_they_drop() {
        let collector = TraceCollector::new(4);
        let messages = 10;
        run_pair(&collector, messages);
        // Per component a start and an end; per message a send start,
        // a send end and a receive.
        let emitted = 2 * 2 + 3 * messages as u64;
        let drained = collector.drain_sorted().len() as u64;
        assert_eq!(drained, 2 * 4, "each 4-slot ring is full");
        assert_eq!(drained + collector.dropped(), emitted);
    }
}
