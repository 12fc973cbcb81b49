//! # embera — a component model for MPSoC with first-class observation
//!
//! This crate is the Rust reproduction of the **EMBera** model from
//! *"Towards a Component-based Observation of MPSoC"* (Prada-Rojas,
//! Marangonzova-Martin, Georgiev, Méhaut, Santana — INRIA RR-6905,
//! 2009).
//!
//! An EMBera application is "composed of a number of interconnected
//! components. A component is a software entity with a well-defined
//! functionality" exposing **provided** and **required** interfaces;
//! connections link required to provided interfaces, and components are
//! *active* — each has its own execution flow (paper §3.1).
//!
//! The model's distinguishing feature is first-class **observation**
//! (§3.3): every component carries an implicit `introspection`
//! provided/required interface pair, served by the component *runtime*
//! (not user code), through which an **observer component** collects
//! execution data at three levels:
//!
//! * **operating system** — execution time and memory occupation,
//! * **middleware** — timing of the `send`/`receive` primitives,
//! * **application** — component structure and communication counters.
//!
//! Applications are described platform-independently ([`AppBuilder`] →
//! [`AppSpec`]) and deployed through a [`Platform`] implementation. Four
//! backends exist in this workspace. Two mirror the paper's
//! implementations: `embera-smp` (components as native threads with FIFO
//! mailboxes — paper §4) and `embera-os21` (components as OS21 tasks
//! communicating through EMBX distributed objects on the simulated
//! STi7200 — paper §5). `embera-exec` runs components as fibers on a
//! small worker pool, and `embera-inproc` runs them one at a time on the
//! calling thread under a logical clock, deterministically.
//!
//! ```
//! use bytes::Bytes;
//! use embera::{AppBuilder, Behavior, ComponentSpec, Ctx, EmberaError};
//!
//! struct Producer;
//! impl Behavior for Producer {
//!     fn run(&mut self, ctx: &mut dyn Ctx) -> Result<(), EmberaError> {
//!         ctx.send("out", Bytes::from_static(b"hello"))
//!     }
//! }
//! struct Consumer;
//! impl Behavior for Consumer {
//!     fn run(&mut self, ctx: &mut dyn Ctx) -> Result<(), EmberaError> {
//!         let msg = ctx.recv("in")?;
//!         assert_eq!(&msg[..], b"hello");
//!         Ok(())
//!     }
//! }
//!
//! let mut app = AppBuilder::new("demo");
//! app.add(ComponentSpec::new("producer", Producer).with_required("out"));
//! app.add(ComponentSpec::new("consumer", Consumer).with_provided("in"));
//! app.connect(("producer", "out"), ("consumer", "in"));
//! let spec = app.build().unwrap();
//! assert_eq!(spec.components.len(), 2);
//! ```

mod app;
pub mod behavior;
mod component;
mod error;
mod message;
mod names;
pub mod observe;
mod observer;
mod overload;
mod platform;
mod pool;
pub mod runtime;
mod supervise;
pub mod sync;

pub use app::{AppBuilder, AppSpec, Connection, Endpoint};
pub use behavior::{Behavior, Ctx, FnBehavior, Work, WorkClass};
pub use component::{ComponentSpec, Placement, INTROSPECTION};
pub use error::EmberaError;
pub use message::Message;
pub use observe::custom::{CustomMetric, FnMetric, MetricSource};
pub use observe::protocol::{ObsReply, ObsRequest};
pub use observe::report::{
    AppStats, HealthInfo, HealthState, IfaceCounterSnapshot, MiddlewareStats, ObservationReport,
    OsStats, StructureInfo, TimingSnapshot,
};
pub use observe::stats::ComponentStats;
pub use observe::topology::{RegionSummary, RollupTotals};
pub use observer::{
    decode_region_summary, is_observer_component, ObservationLog, ObserverConfig, StallRecord,
    OBSERVER_NAME,
};
pub use overload::OverloadPolicy;
pub use platform::{AppReport, Platform, RunningApp};
pub use pool::{BufferPool, PoolStats};
pub use runtime::trace::TraceConfig;
pub use supervise::{Escalation, FaultAction, FaultPlan, FaultReport, RestartPolicy};
