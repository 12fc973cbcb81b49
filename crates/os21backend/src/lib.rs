//! # embera-os21 — the MPSoC platform backend for EMBera
//!
//! Reproduces the paper's second implementation (§5): "An EMBera
//! application is a set of OS21 tasks, each task representing a
//! component. … The component provided interface is represented by a
//! distributed object. The component required interface corresponds to
//! pointers towards a distributed object. A connection between both
//! interfaces is established using EMBX primitives."
//!
//! Deployment runs on the simulated STi7200 ([`mpsoc_sim::Machine`], a
//! fresh one per deployment): each component becomes an [`os21`] task
//! pinned to a CPU, each provided interface a distributed object (an
//! EMBX-like endpoint in shared SDRAM), and every `ctx.send` an
//! `EMBX_Send` with modeled transfer cost. The object carries the
//! runtime's [`embera::Message`] itself in its one queue — the payload is
//! neither copied nor serialised; the transfer is charged on the
//! message's wire length ([`embera::Message::wire_size`]) — and a message
//! becomes receivable once the sending half of its transfer has been
//! charged, before the receiving component's doorbell rings. Each
//! component has one doorbell, an interrupt line on its CPU: a send
//! raises it, and the component's task parks on it.
//!
//! Timing comes from OS21's `time_now`/`task_time` equivalents over the
//! virtual clock; memory observation uses the paper's Table 3 formula:
//! a fixed per-task footprint ("60 kB for the task data and component
//! structure") plus "25 kB for one distributed object" per *data*
//! provided interface.
//!
//! The paper's deployment "supports one component per CPU" (§5.1); this
//! backend allows several tasks per CPU (the RTOS serializes their
//! compute), which is needed to host the observer component alongside a
//! worker on the three-CPU configuration the paper's toolchain
//! supported.
//!
//! Blocking is event-driven throughout (no virtual-time polling), so an
//! application that genuinely wedges drains the event queue and surfaces
//! as a *named* kernel deadlock. One caveat: a polling observer
//! component keeps generating interval timeouts, which masks deadlock
//! detection for the components it observes — use a bounded
//! `ObserverConfig::rounds` when diagnosing stuck pipelines.

mod cost;
mod object;
pub mod platform;
mod transport;

pub use platform::{Os21Platform, Os21Running};
