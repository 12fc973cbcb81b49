//! # embera-inproc — the in-process deterministic backend for EMBera
//!
//! A deployment target beside `embera-smp` (host threads), `embera-exec`
//! (fibers on a worker pool) and `embera-os21` (simulated MPSoC): every
//! component is a fiber that runs on the *calling* thread, one at a
//! time, with [`Fifo`](embera::runtime::Fifo) mailboxes and a logical
//! clock advanced by a fixed cost model. No worker threads, no
//! simulator, no real time — two runs of the same application produce
//! byte-identical reports, which makes this the backend of choice for
//! unit tests and the determinism oracle of the others.
//!
//! The backend exists to demonstrate the runtime/transport split: it
//! contributes only message movement and a scheduling policy, while all
//! observation semantics — introspection service, statistics recording,
//! the error contract, quiescent observability — come verbatim from
//! [`embera::runtime::ComponentRuntime`], whose flow body (quiescent
//! loop included) each fiber runs as the other backends do.
//! `tests/conformance.rs` in the workspace root pins that the four
//! backends are indistinguishable through the `Ctx` API.
//!
//! ## Scheduling model
//!
//! [`RunningApp::wait`](embera::RunningApp::wait) is the scheduler loop.
//! The run queue starts with every component in deployment order; the
//! head runs until it parks — in a receive with nothing to take, or in
//! the quiescent loop after its behavior returned — or its flow ends.
//! A push into a parked component's mailbox, data or introspection,
//! appends it to the queue, and so does shutdown, for every parked
//! component. When the queue is empty, the parked component with the
//! earliest deadline (ties: the lowest index) is woken and the clock
//! jumps to that deadline. With no deadline armed either, nothing can
//! ever run again: the lowest-index component parked in a receive is
//! resumed to fail the application with a named
//! [`EmberaError::Platform`](embera::EmberaError) deadlock and shut it
//! down.
//!
//! So a polling observer sees components mid-run, as on every other
//! backend, and request/response pairs work in either deployment order.
//! With an unbounded polling observer, a stuck application runs until
//! something stops it, as on smp, exec and os21, and the observer's
//! watchdog is what reports it. A behavior that never reaches a
//! communication point never yields, which is also true on os21.

pub mod platform;
mod transport;

pub use platform::{InprocPlatform, InprocRunning};
