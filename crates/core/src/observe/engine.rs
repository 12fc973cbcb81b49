//! The observation engine: answers [`ObsRequest`]s from a component's
//! statistics. Runs inside the component runtime — or, on the host
//! backends, on the observer's side of the introspection connection —
//! so observation needs no changes to application code (the paper's
//! headline property).

use std::sync::Arc;

use crate::observe::custom::{sample_all, MetricSource};
use crate::observe::protocol::{ObsReply, ObsRequest};
use crate::observe::report::ObservationReport;
use crate::observe::stats::{ComponentStats, Queued};

/// Answers observation requests for one component.
#[derive(Clone)]
pub struct ObsEngine {
    stats: Arc<ComponentStats>,
    metrics: Arc<Vec<Arc<dyn MetricSource>>>,
}

impl ObsEngine {
    /// Engine over the component's shared statistics.
    pub fn new(stats: Arc<ComponentStats>) -> Self {
        ObsEngine {
            stats,
            metrics: Arc::new(Vec::new()),
        }
    }

    /// Engine with application-registered observation functions.
    pub fn with_metrics(stats: Arc<ComponentStats>, metrics: Vec<Arc<dyn MetricSource>>) -> Self {
        ObsEngine {
            stats,
            metrics: Arc::new(metrics),
        }
    }

    /// The underlying statistics.
    pub fn stats(&self) -> &Arc<ComponentStats> {
        &self.stats
    }

    /// The component's full report including custom metrics.
    pub fn full_report(&self, now_ns: u64) -> ObservationReport {
        self.full_report_with(now_ns, self.stats.queued())
    }

    fn full_report_with(&self, now_ns: u64, queued: Queued) -> ObservationReport {
        let mut report = self.stats.full_report_with(now_ns, queued);
        report.custom = sample_all(&self.metrics);
        report
    }

    /// Produce the reply for `request` at platform time `now_ns`, with
    /// the queue gauges the component's runtime last stored.
    pub fn answer(&self, request: ObsRequest, now_ns: u64) -> ObsReply {
        self.answer_with(request, now_ns, self.stats.queued())
    }

    /// [`ObsEngine::answer`] for a reader standing outside the
    /// component: it looked at the mailboxes itself and hands the gauges
    /// in, so nothing is written into the component's block on its
    /// behalf.
    pub(crate) fn answer_with(&self, request: ObsRequest, now_ns: u64, queued: Queued) -> ObsReply {
        match request {
            ObsRequest::OsStats => ObsReply::Os(self.stats.os_stats_with(now_ns, queued)),
            ObsRequest::MiddlewareStats => ObsReply::Middleware(self.stats.middleware_stats()),
            ObsRequest::AppStats => ObsReply::App(self.stats.app_stats()),
            ObsRequest::Structure => ObsReply::Structure(self.stats.structure()),
            ObsRequest::Custom => ObsReply::Custom(sample_all(&self.metrics)),
            ObsRequest::Health => ObsReply::Health(self.stats.health_with(now_ns, queued)),
            ObsRequest::Full => ObsReply::Full(Box::new(self.full_report_with(now_ns, queued))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> ObsEngine {
        let stats = Arc::new(ComponentStats::new(
            "Fetch",
            &[],
            &["fetchIdct1".to_string()],
        ));
        stats.mark_started(0);
        stats.record_send("fetchIdct1", 100, 3);
        ObsEngine::new(stats)
    }

    #[test]
    fn custom_metrics_flow_through_replies() {
        let stats = Arc::new(ComponentStats::new("c", &[], &[]));
        let metric = crate::observe::custom::FnMetric::new("gauge", || 7.5);
        let e = ObsEngine::with_metrics(stats, vec![metric]);
        match e.answer(ObsRequest::Custom, 0) {
            ObsReply::Custom(m) => {
                assert_eq!(m.len(), 1);
                assert_eq!(m[0].name, "gauge");
                assert_eq!(m[0].value, 7.5);
            }
            other => panic!("wrong reply {other:?}"),
        }
        match e.answer(ObsRequest::Full, 0) {
            ObsReply::Full(r) => assert_eq!(r.custom.len(), 1),
            other => panic!("wrong reply {other:?}"),
        }
    }

    #[test]
    fn each_request_gets_matching_reply_kind() {
        let e = engine();
        assert!(matches!(e.answer(ObsRequest::OsStats, 10), ObsReply::Os(_)));
        assert!(matches!(
            e.answer(ObsRequest::MiddlewareStats, 10),
            ObsReply::Middleware(_)
        ));
        assert!(matches!(
            e.answer(ObsRequest::AppStats, 10),
            ObsReply::App(_)
        ));
        assert!(matches!(
            e.answer(ObsRequest::Structure, 10),
            ObsReply::Structure(_)
        ));
        assert!(matches!(
            e.answer(ObsRequest::Health, 10),
            ObsReply::Health(_)
        ));
        assert!(matches!(e.answer(ObsRequest::Full, 10), ObsReply::Full(_)));
    }

    #[test]
    fn answers_reflect_recorded_activity() {
        let e = engine();
        if let ObsReply::App(app) = e.answer(ObsRequest::AppStats, 10) {
            assert_eq!(app.total_sends, 1);
        } else {
            unreachable!()
        }
        if let ObsReply::Full(r) = e.answer(ObsRequest::Full, 42) {
            assert_eq!(r.os.exec_time_ns, 42, "running component: now - start");
        } else {
            unreachable!()
        }
    }
}
