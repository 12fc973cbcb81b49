//! Stackful fibers: the one coroutine primitive of the repository.
//!
//! Two runtimes schedule plain blocking Rust on it: the M:N executor
//! (`embera-exec`), where a component behavior (`ctx.recv` loops) is a
//! fiber on a worker pool, and the simulation kernel (`sim-kernel`),
//! where a simulated process is a fiber the kernel resumes in place.
//! Neither body can be polled as a state machine, so each runs on its
//! own heap-allocated stack and yields control back to the thread that
//! resumed it with a user-space context switch whenever it would block.
//!
//! Two implementations sit behind [`Fiber`]:
//!
//! * `StackFiber` — an x86_64 assembly switch of ~20 instructions;
//!   10 000 fibers cost one uninitialized heap stack each (lazily
//!   committed pages, so resident memory stays proportional to what the
//!   body actually touches).
//! * `ThreadFiber` — a portable fallback that parks one OS thread per
//!   fiber behind a condvar handoff. Semantically identical (only one of
//!   resumer/fiber ever runs at a time), used on non-x86_64 targets and
//!   forceable with `EMBERA_EXEC_FIBER=thread` as a correctness oracle
//!   for the assembly path.
//!
//! # Contract
//!
//! * **Resume from a plain thread.** [`Fiber::resume`] is called by the
//!   scheduler loop (an executor worker, the thread inside
//!   `Kernel::run`), never from inside another fiber, and by one thread
//!   at a time. Successive resumes may come from different threads.
//! * **A body may not cache thread identity across a yield.** Because
//!   the next resume can happen on another thread, anything read from
//!   thread-local storage or `std::thread::current()` is stale after
//!   [`fiber_yield`] returns. For simulation code that means: across any
//!   blocking `SimCtx` call (a kernel may be moved to another thread
//!   between two `run_until` calls, its processes with it). A
//!   thread-local read that is used up before the body can yield again
//!   is fine — that is how `embera::BufferPool` picks the calling
//!   thread's shard inside one `take` or `recycle`.
//! * **A panic that escapes the body is swallowed.** The entry frame
//!   catches it and reports the fiber as [`Resume::Finished`]; unwinding
//!   further would run into the trampoline's `ud2`. Both runtimes catch
//!   panics themselves, inside the body, to report them; the catch here
//!   is only the safety net.
//! * **Dropping a suspended fiber does not unwind it.** Its stack is
//!   freed as plain memory (the thread fallback leaves its carrier
//!   parked). An owner that needs the body's locals dropped resumes it
//!   one last time with a request to unwind, as `sim-kernel` does.

mod fiber;

pub use fiber::{fiber_yield, on_fiber, Fiber, Resume, MIN_STACK_BYTES};
