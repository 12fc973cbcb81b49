//! # embera-inproc — the in-process deterministic backend for EMBera
//!
//! A third deployment target beside `embera-smp` (host threads) and
//! `embera-os21` (simulated MPSoC): every component runs on the
//! *calling* thread under a depth-first, demand-driven scheduler, with
//! plain `VecDeque`s for mailboxes and a logical clock advanced by a
//! fixed cost model. No OS threads, no simulator, no real time — two
//! runs of the same application produce byte-identical reports, which
//! makes this the backend of choice for unit tests and for debugging
//! component logic under a debugger (one stack, no interleaving).
//!
//! The backend exists to demonstrate the runtime/transport split: it
//! contributes only message movement and a scheduling policy, while all
//! observation semantics — introspection service, statistics recording,
//! the error contract, quiescent observability — come verbatim from
//! [`embera::runtime::ComponentRuntime`]. `tests/conformance.rs` in the
//! workspace root pins that the three backends are indistinguishable
//! through the `Ctx` API.
//!
//! ## Scheduling model
//!
//! Components start in deployment order. When a running component
//! blocks in `recv`, the scheduler runs — *to completion* — a
//! not-yet-started component that feeds the parked interface, then any
//! other not-yet-started application component; pending introspection
//! requests are answered between these steps, so a component blocked on
//! an observation reply makes progress even while its target is
//! mid-execution on the stack below. When nothing can produce a
//! message, a timed receive jumps the clock to its deadline and a
//! blocking receive is declared a deadlock (the application fails with
//! a named [`EmberaError::Platform`](embera::EmberaError) error).
//!
//! ## Limitations (inherent to one stack)
//!
//! * A component started to unblock another runs to completion first —
//!   behaviors must terminate or block in `recv` (a `while
//!   !ctx.should_stop()` spin loop never yields and hangs the run).
//! * Mutual request/response between two components is ordering
//!   sensitive: deploy the component that *blocks first* before the one
//!   that queries it. Pipelines (acyclic wait-for graphs) work in any
//!   order.
//! * The paper's polling observer degenerates: application components
//!   typically run to completion before it starts, so it observes the
//!   quiescent tail only. Direct introspection requests (the
//!   conformance suite's pattern) are fully supported.

pub mod platform;
mod transport;

pub use platform::{InprocPlatform, InprocRunning};
