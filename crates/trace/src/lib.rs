//! # embera-trace — reading EMBera's event trace
//!
//! The paper closes with: "The current approach for observing is mainly
//! based on collecting summarized information about the execution.
//! However, this information does not give a detailed view of the
//! application behavior. For this reason, we plan to implement an
//! event-trace-support for collecting detailed events." (§6)
//!
//! The writing side of that extension belongs to the runtime
//! ([`embera::runtime::trace`]): one 32-byte [`TraceEvent`] record, one
//! [`EventKind`] vocabulary, and one lock-free [`SpscRing`] per component,
//! which the shared component runtime pushes into on every backend once
//! an application opts in with
//! [`AppBuilder::with_tracing`](embera::AppBuilder::with_tracing).
//! Behaviors stay untouched, and the trace also holds runtime-internal
//! events such as served introspection requests. This crate is the
//! reading side, over that record:
//!
//! * [`TraceCollector`] — hands out the application's
//!   [`embera::TraceConfig`] ([`TraceCollector::trace_config`]) and
//!   drains its rings into one global, time-ordered trace,
//! * [`analysis`] — timeline statistics: per-component activity spans
//!   and utilization, duration percentiles per event kind,
//! * [`export`] — a line-oriented text format with round-trip parsing,
//!   and the Chrome trace-event JSON format.

pub mod analysis;
mod collector;
pub mod export;

pub use analysis::{ComponentActivity, TimelineStats};
pub use collector::TraceCollector;
pub use embera::runtime::trace::{EventKind, SpscRing, TraceEvent};
