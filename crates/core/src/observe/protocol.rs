//! The observation request/reply protocol carried over the
//! `introspection` interfaces.

use crate::observe::custom::CustomMetric;
use crate::observe::report::{
    AppStats, HealthInfo, MiddlewareStats, ObservationReport, OsStats, StructureInfo,
};
use crate::observe::topology::RegionSummary;

/// What an observer asks of a component (paper §3.3: "The observation
/// interface may provide functions related to each level such as memory
/// and system time, communication time, and application structure").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsRequest {
    /// OS-level: execution time and memory.
    OsStats,
    /// Middleware-level: send/receive primitive timings.
    MiddlewareStats,
    /// Application-level: communication counters.
    AppStats,
    /// Application-level: the component's interface structure
    /// (Figure 5).
    Structure,
    /// Application-registered observation functions
    /// ([`MetricSource`](crate::observe::custom::MetricSource)s).
    Custom,
    /// Supervision: liveness state, last-progress timestamp, queue
    /// depth, restart count.
    Health,
    /// Everything at once.
    Full,
}

/// The component runtime's answer.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsReply {
    /// Answer to [`ObsRequest::OsStats`].
    Os(OsStats),
    /// Answer to [`ObsRequest::MiddlewareStats`].
    Middleware(MiddlewareStats),
    /// Answer to [`ObsRequest::AppStats`].
    App(AppStats),
    /// Answer to [`ObsRequest::Structure`].
    Structure(StructureInfo),
    /// Answer to [`ObsRequest::Custom`].
    Custom(Vec<CustomMetric>),
    /// Answer to [`ObsRequest::Health`].
    Health(HealthInfo),
    /// Answer to [`ObsRequest::Full`]. Boxed: the full report dwarfs
    /// every other variant, and replies are moved through mail queues.
    Full(Box<ObservationReport>),
    /// Not a component's answer at all: a regional observer's rolled-up
    /// summary, sent *up* the observer tree to the root. Reuses the
    /// reply envelope so the hierarchy needs no new message kind and no
    /// backend changes.
    Region(RegionSummary),
}
