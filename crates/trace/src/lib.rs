//! # embera-trace — event-trace support for EMBera
//!
//! The paper closes with: "The current approach for observing is mainly
//! based on collecting summarized information about the execution.
//! However, this information does not give a detailed view of the
//! application behavior. For this reason, we plan to implement an
//! event-trace-support for collecting detailed events." (§6)
//!
//! This crate implements that announced extension:
//!
//! * [`TraceEvent`] — compact timestamped records of sends, receives,
//!   compute sections and lifecycle transitions,
//! * [`SpscRing`] — a bounded lock-free single-producer single-consumer
//!   ring buffer, so tracing costs a few atomic operations per event and
//!   never blocks the traced component,
//! * [`TraceCollector`] — registers per-component rings and drains them
//!   into a global, time-ordered trace,
//! * [`sink`] — the bridge to the runtime's first-class tracing, the
//!   one way a run is traced: a [`TraceCollector`] doubles as the
//!   [`embera::TraceConfig`] sink factory (see
//!   [`TraceCollector::trace_config`]), so tracing is a one-line
//!   application opt-in that leaves behaviors untouched and also
//!   captures runtime-internal events such as served introspection
//!   requests,
//! * [`analysis`] — timeline statistics: per-component activity spans,
//!   communication matrix, utilization,
//! * [`export`] — a line-oriented text format with round-trip parsing.

pub mod analysis;
pub mod collector;
pub mod event;
pub mod export;
pub mod ring;
pub mod sink;

pub use analysis::{ComponentActivity, TimelineStats};
pub use collector::{TraceCollector, TraceHandle};
pub use event::{EventKind, TraceEvent};
pub use ring::SpscRing;
