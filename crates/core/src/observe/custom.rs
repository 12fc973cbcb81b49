//! Pluggable observation functions — the paper's §6 agenda: "We will
//! concentrate our future work on what functions should be provided
//! with the observation interface, how to select the events to be
//! observed, how to set the treatments to apply."
//!
//! A [`MetricSource`] is an observation function registered on a
//! component at assembly time; the component runtime samples it when an
//! [`ObsRequest::Custom`](crate::ObsRequest) (or `Full`) arrives, so
//! arbitrary application- or domain-level gauges travel over the same
//! observation interface as the built-in three levels — still without
//! touching the behavior's code path.

use std::sync::Arc;

/// One sampled custom metric.
#[derive(Debug, Clone, PartialEq)]
pub struct CustomMetric {
    /// Metric name, e.g. `"frames_completed"`.
    pub name: String,
    /// Sampled value.
    pub value: f64,
}

/// An observation function: a named gauge the runtime can sample at any
/// time. Implementations must be cheap and non-blocking (they run inside
/// the observation service path).
pub trait MetricSource: Send + Sync {
    /// Metric name.
    fn name(&self) -> &str;
    /// Sample the current value.
    fn sample(&self) -> f64;
}

/// A closure-backed metric source.
pub struct FnMetric<F> {
    name: String,
    f: F,
}

impl<F: Fn() -> f64 + Send + Sync> FnMetric<F> {
    /// Build a metric from a closure.
    pub fn new(name: impl Into<String>, f: F) -> Arc<Self> {
        Arc::new(FnMetric {
            name: name.into(),
            f,
        })
    }
}

impl<F: Fn() -> f64 + Send + Sync> MetricSource for FnMetric<F> {
    fn name(&self) -> &str {
        &self.name
    }

    fn sample(&self) -> f64 {
        (self.f)()
    }
}

/// Sample a registry of sources.
pub fn sample_all(sources: &[Arc<dyn MetricSource>]) -> Vec<CustomMetric> {
    sources
        .iter()
        .map(|s| CustomMetric {
            name: s.name().to_string(),
            value: s.sample(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn fn_metric_samples_live_state() {
        let counter = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&counter);
        let metric = FnMetric::new("work_items", move || c.load(Ordering::Relaxed) as f64);
        assert_eq!(metric.sample(), 0.0);
        counter.store(41, Ordering::Relaxed);
        assert_eq!(metric.sample(), 41.0);
        assert_eq!(metric.name(), "work_items");
    }

    #[test]
    fn sample_all_preserves_registration_order() {
        let sources: Vec<Arc<dyn MetricSource>> =
            vec![FnMetric::new("a", || 1.0), FnMetric::new("b", || 2.0)];
        let metrics = sample_all(&sources);
        assert_eq!(metrics.len(), 2);
        assert_eq!(metrics[0].name, "a");
        assert_eq!(metrics[1].value, 2.0);
    }
}
