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
//! So request/response pairs work in either deployment order. A polling
//! observer, though, sees components mid-run only if it gets a turn
//! while they run. A flat observer is deployed after the components, so
//! its first turn comes once every component ahead of it has parked: a
//! pipeline whose stages keep each other runnable and never wait on a
//! deadline (the paper's Table 1 MJPEG pipeline) finishes before the
//! first poll. A test that wants to observe such a run keeps the
//! application open with a component parked in a timed receive nobody
//! feeds, as `holder` does in the workspace's `tests/observation.rs`,
//! and the polls are answered from the quiescent loop.
//! With an unbounded polling observer, a stuck application runs until
//! something stops it, as on smp, exec and os21, and the observer's
//! watchdog is what reports it. A behavior that never reaches a
//! communication point never yields, which is also true on os21.

pub mod platform;
mod transport;

pub use platform::{InprocPlatform, InprocRunning};
