//! The EMBera observation model: request/reply protocol, per-component
//! statistics, reports, and the engine that answers requests.
//!
//! "We have decided to explicitly model the observation in EMBera. For
//! this purpose, we have defined a new control interface dedicated to
//! observation, that we have called observation interface." (paper §3.3)
//!
//! Observation covers three levels (paper §4.2): the operating system
//! (execution time, memory occupation), the middleware (timing of the
//! communication primitives) and the application (component structure
//! and communication counters). All information is gathered by the
//! component *runtime* — "without modifying the application code".

pub(crate) mod custom;
pub mod engine;
pub(crate) mod protocol;
pub(crate) mod report;
pub mod stats;
pub(crate) mod topology;
