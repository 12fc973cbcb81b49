//! Timeline analysis over collected traces.

use std::collections::HashMap;

use crate::{EventKind, TraceEvent};

/// Per-component activity summary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ComponentActivity {
    /// Component id.
    pub component: u32,
    /// First event timestamp.
    pub first_ts: u64,
    /// Last event timestamp.
    pub last_ts: u64,
    /// Number of sends.
    pub sends: u64,
    /// Total time in send primitives, ns.
    pub send_ns: u64,
    /// Number of receives.
    pub recvs: u64,
    /// Total time in receive primitives, ns.
    pub recv_ns: u64,
    /// Number of compute sections.
    pub computes: u64,
    /// Total compute time, ns (0 on the SMP backend where compute is
    /// un-annotated wall time).
    pub compute_ns: u64,
    /// Total bytes sent.
    pub bytes_sent: u64,
}

impl ComponentActivity {
    /// Active span of the component, ns.
    pub fn span_ns(&self) -> u64 {
        self.last_ts.saturating_sub(self.first_ts)
    }

    /// Fraction of the span spent in instrumented activity (send + recv
    /// + compute), in [0, 1]; 0 for an empty span.
    pub fn utilization(&self) -> f64 {
        let span = self.span_ns();
        if span == 0 {
            return 0.0;
        }
        let busy = self.send_ns + self.recv_ns + self.compute_ns;
        (busy as f64 / span as f64).min(1.0)
    }
}

/// Duration percentiles of one event kind.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DurationPercentiles {
    /// Number of samples.
    pub count: u64,
    /// 50th percentile, ns.
    pub p50: u64,
    /// 90th percentile, ns.
    pub p90: u64,
    /// 99th percentile, ns.
    pub p99: u64,
    /// Maximum, ns.
    pub max: u64,
}

/// Compute percentiles of the durations (`b` field) of all events of
/// `kind`, nearest-rank method.
pub fn percentiles(events: &[TraceEvent], kind: EventKind) -> DurationPercentiles {
    let mut durs: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == kind)
        .map(|e| e.b)
        .collect();
    if durs.is_empty() {
        return DurationPercentiles::default();
    }
    durs.sort_unstable();
    let rank = |p: f64| -> u64 {
        let idx = ((p / 100.0 * durs.len() as f64).ceil() as usize).clamp(1, durs.len());
        durs[idx - 1]
    };
    DurationPercentiles {
        count: durs.len() as u64,
        p50: rank(50.0),
        p90: rank(90.0),
        p99: rank(99.0),
        max: *durs.last().expect("non-empty"),
    }
}

/// Whole-trace statistics.
#[derive(Debug, Clone, Default)]
pub struct TimelineStats {
    /// Per-component summaries, keyed by component id.
    pub components: HashMap<u32, ComponentActivity>,
    /// Total events analyzed.
    pub events: u64,
    /// Trace duration (max ts − min ts), ns.
    pub duration_ns: u64,
}

impl TimelineStats {
    /// Analyze a (not necessarily sorted) trace.
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut components: HashMap<u32, ComponentActivity> = HashMap::new();
        let mut min_ts = u64::MAX;
        let mut max_ts = 0u64;
        for e in events {
            min_ts = min_ts.min(e.ts_ns);
            max_ts = max_ts.max(e.ts_ns);
            let c = components
                .entry(e.component)
                .or_insert_with(|| ComponentActivity {
                    component: e.component,
                    first_ts: u64::MAX,
                    ..Default::default()
                });
            c.first_ts = c.first_ts.min(e.ts_ns);
            c.last_ts = c.last_ts.max(e.ts_ns);
            match e.kind {
                EventKind::SendEnd => {
                    c.sends += 1;
                    c.send_ns += e.b;
                    c.bytes_sent += e.a;
                }
                EventKind::Recv => {
                    c.recvs += 1;
                    c.recv_ns += e.b;
                }
                EventKind::Compute => {
                    c.computes += 1;
                    c.compute_ns += e.b;
                }
                _ => {}
            }
        }
        TimelineStats {
            events: events.len() as u64,
            duration_ns: if events.is_empty() {
                0
            } else {
                max_ts - min_ts
            },
            components,
        }
    }

    /// Render a compact text table (one row per component).
    pub fn format_table(&self, names: &[String]) -> String {
        let mut out = String::from(
            "component        sends  send_ms  recvs  recv_ms  computes  compute_ms  util%\n",
        );
        let mut ids: Vec<&u32> = self.components.keys().collect();
        ids.sort();
        for id in ids {
            let c = &self.components[id];
            let name = names
                .get(*id as usize)
                .cloned()
                .unwrap_or_else(|| format!("#{id}"));
            out.push_str(&format!(
                "{:<16} {:>6} {:>8.2} {:>6} {:>8.2} {:>9} {:>11.2} {:>6.1}\n",
                name,
                c.sends,
                c.send_ns as f64 / 1e6,
                c.recvs,
                c.recv_ns as f64 / 1e6,
                c.computes,
                c.compute_ns as f64 / 1e6,
                c.utilization() * 100.0,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64, c: u32, kind: EventKind, a: u64, b: u64) -> TraceEvent {
        TraceEvent::new(ts, c, kind, a, b)
    }

    #[test]
    fn aggregates_per_component() {
        let events = vec![
            ev(0, 0, EventKind::BehaviorStart, 0, 0),
            ev(10, 0, EventKind::SendEnd, 100, 5),
            ev(20, 0, EventKind::SendEnd, 200, 7),
            ev(30, 1, EventKind::Recv, 100, 3),
            ev(90, 1, EventKind::Compute, 1000, 50),
            ev(100, 0, EventKind::BehaviorEnd, 0, 0),
        ];
        let stats = TimelineStats::from_events(&events);
        assert_eq!(stats.events, 6);
        assert_eq!(stats.duration_ns, 100);
        let c0 = &stats.components[&0];
        assert_eq!(c0.sends, 2);
        assert_eq!(c0.send_ns, 12);
        assert_eq!(c0.bytes_sent, 300);
        assert_eq!(c0.span_ns(), 100);
        let c1 = &stats.components[&1];
        assert_eq!(c1.recvs, 1);
        assert_eq!(c1.computes, 1);
        assert!((c1.utilization() - 53.0 / 60.0).abs() < 1e-9);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let events: Vec<TraceEvent> = (1..=100)
            .map(|i| ev(i, 0, EventKind::SendEnd, 0, i))
            .collect();
        let p = percentiles(&events, EventKind::SendEnd);
        assert_eq!(p.count, 100);
        assert_eq!(p.p50, 50);
        assert_eq!(p.p90, 90);
        assert_eq!(p.p99, 99);
        assert_eq!(p.max, 100);
        // Other kinds are excluded.
        assert_eq!(percentiles(&events, EventKind::Recv).count, 0);
    }

    #[test]
    fn empty_trace_is_fine() {
        let stats = TimelineStats::from_events(&[]);
        assert_eq!(stats.events, 0);
        assert_eq!(stats.duration_ns, 0);
        assert!(stats.components.is_empty());
    }

    #[test]
    fn table_formatting_includes_names() {
        let events = vec![ev(10, 0, EventKind::SendEnd, 1, 1)];
        let stats = TimelineStats::from_events(&events);
        let table = stats.format_table(&["Fetch".to_string()]);
        assert!(table.contains("Fetch"));
        assert!(table.lines().count() >= 2);
    }
}
