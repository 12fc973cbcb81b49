//! The two implementations behind [`Fiber`] and the switch between them.
//!
//! The assembly switch saves exactly the System V callee-saved register
//! set (rsp, rbp, rbx, r12–r15) plus the MXCSR and x87 control words —
//! everything else is caller-saved and dead across the `raw_switch` call
//! boundary by the C ABI.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Smallest stack a fiber may get. Parking, introspection service and
/// panic formatting all happen on the fiber stack, so tiny requested
/// stacks (10k-component topologies ask for 128 KiB) are clamped here
/// rather than trusted blindly.
pub const MIN_STACK_BYTES: usize = 64 * 1024;

/// Magic word written at the low end of every fiber stack and checked
/// after each yield. Heap stacks have no guard page, so this is the
/// best-effort overflow tripwire.
const STACK_CANARY: u64 = 0xEBBE_7A5C_D15C_0B5E;

/// Outcome of [`Fiber::resume`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resume {
    /// The fiber yielded via [`fiber_yield`] and can be resumed again.
    Yielded,
    /// The fiber's entry function returned; it must not be resumed again.
    Finished,
}

enum FiberImpl {
    #[cfg(target_arch = "x86_64")]
    Stack(StackFiber),
    Thread(ThreadFiber),
}

/// A suspended computation with its own stack.
///
/// Owned and resumed by exactly one thread at a time (`resume` takes
/// `&mut self`), which is what makes the `Send` impl below sound.
pub struct Fiber(FiberImpl);

// SAFETY: `resume` takes `&mut self`, so a Fiber is only ever resumed by
// one thread at a time, and the body it runs is `Send`. The raw stack
// pointers it carries refer to memory owned by the fiber itself. What
// the type cannot check is stated in the crate docs: a body must not
// carry thread identity across a yield.
unsafe impl Send for Fiber {}

impl Fiber {
    /// Create a fiber that will run `f` when first resumed.
    pub fn spawn<F>(stack_bytes: usize, f: F) -> Fiber
    where
        F: FnOnce() + Send + 'static,
    {
        #[cfg(target_arch = "x86_64")]
        {
            if !force_thread_fibers() {
                return Fiber(FiberImpl::Stack(StackFiber::spawn(stack_bytes, f)));
            }
        }
        let _ = stack_bytes; // thread stacks are sized by the OS default
        Fiber(FiberImpl::Thread(ThreadFiber::spawn(f)))
    }

    /// Run the fiber until it yields or finishes (see the [crate-level
    /// contract](crate) for who may call this).
    pub fn resume(&mut self) -> Resume {
        match &mut self.0 {
            #[cfg(target_arch = "x86_64")]
            FiberImpl::Stack(f) => f.resume(),
            FiberImpl::Thread(f) => f.resume(),
        }
    }
}

/// Yield from inside a fiber back to the thread that resumed it.
/// Panics if called from a thread that is not currently running a fiber.
pub fn fiber_yield() {
    match ACTIVE.get() {
        #[cfg(target_arch = "x86_64")]
        Active::Stack(inner) => unsafe { StackFiber::yield_from(inner) },
        Active::Thread(shared) => ThreadFiber::yield_from(shared),
        Active::None => panic!("fiber_yield called outside a fiber"),
    }
}

/// True when the current thread is executing inside a fiber.
pub fn on_fiber() -> bool {
    !matches!(ACTIVE.get(), Active::None)
}

fn force_thread_fibers() -> bool {
    static FORCE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FORCE.get_or_init(|| {
        std::env::var("EMBERA_EXEC_FIBER").is_ok_and(|v| v.eq_ignore_ascii_case("thread"))
    })
}

#[derive(Clone, Copy)]
enum Active {
    None,
    #[cfg(target_arch = "x86_64")]
    Stack(*mut StackInner),
    Thread(*const ThreadShared),
}

thread_local! {
    static ACTIVE: Cell<Active> = const { Cell::new(Active::None) };
}

// ---------------------------------------------------------------------
// x86_64 assembly implementation
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod stack_impl {
    use super::*;

    pub(super) struct StackInner {
        /// Saved rsp of the suspended fiber (valid while suspended).
        fiber_rsp: usize,
        /// Saved rsp of the worker that resumed us (valid while running).
        worker_rsp: usize,
        finished: bool,
        entry: Option<Box<dyn FnOnce() + Send>>,
        stack: RawStack,
        /// Address of the canary word at the low end of the stack.
        canary: *mut u64,
    }

    /// Uninitialized stack memory. Deliberately NOT zero-filled: a
    /// zeroing allocation memsets every page when the allocator serves
    /// it from a reused arena, which at 10 000 components first-touches
    /// over 1 GiB of memory before any work runs. Left uninitialized,
    /// only the pages a fiber actually executes on are ever faulted in
    /// — the canary word at the bottom and the synthesized frame at the
    /// top are the only pages `spawn` itself touches.
    pub(super) struct RawStack {
        ptr: std::ptr::NonNull<u8>,
        layout: std::alloc::Layout,
    }

    impl RawStack {
        fn new(len: usize) -> RawStack {
            let layout = std::alloc::Layout::from_size_align(len, 16).expect("stack layout");
            let ptr = unsafe { std::alloc::alloc(layout) };
            let ptr = std::ptr::NonNull::new(ptr)
                .unwrap_or_else(|| std::alloc::handle_alloc_error(layout));
            RawStack { ptr, layout }
        }

        fn base(&self) -> usize {
            self.ptr.as_ptr() as usize
        }
    }

    impl Drop for RawStack {
        fn drop(&mut self) {
            unsafe { std::alloc::dealloc(self.ptr.as_ptr(), self.layout) };
        }
    }

    // The stack is plain memory owned by the fiber; it moves between
    // worker threads only while the fiber is suspended.
    unsafe impl Send for RawStack {}

    pub(super) struct StackFiber {
        // Box: the raw pointers stashed in TLS and in the initial stack
        // frame must stay stable across moves of the Fiber value.
        inner: Box<StackInner>,
    }

    impl StackFiber {
        pub(super) fn spawn<F>(stack_bytes: usize, f: F) -> StackFiber
        where
            F: FnOnce() + Send + 'static,
        {
            let len = stack_bytes.max(MIN_STACK_BYTES);
            // Uninitialized on purpose (see RawStack): resident memory
            // grows only as deep as the behavior actually recurses.
            let stack = RawStack::new(len);
            let mut inner = Box::new(StackInner {
                fiber_rsp: 0,
                worker_rsp: 0,
                finished: false,
                entry: Some(Box::new(f)),
                stack,
                canary: std::ptr::null_mut(),
            });

            let base = inner.stack.base();
            let top = (base + len) & !15usize;
            // Initial frame, low → high (see raw_switch restore order):
            //   sp+0   mxcsr (4 bytes) | x87 cw (4 bytes)
            //   sp+8   r15  sp+16 r14  sp+24 r13
            //   sp+32  r12 = &mut StackInner (trampoline argument)
            //   sp+40  rbx  sp+48 rbp
            //   sp+56  return address = fiber_trampoline
            // After the restore pops everything and `ret`s, rsp = sp+64,
            // which is 16-aligned exactly as the trampoline's `call`
            // needs it.
            let sp = top - 64;
            let inner_ptr: *mut StackInner = &mut *inner;
            unsafe {
                let w = sp as *mut u64;
                *w = fpu_control_words();
                *w.add(1) = 0; // r15
                *w.add(2) = 0; // r14
                *w.add(3) = 0; // r13
                *w.add(4) = inner_ptr as u64; // r12
                *w.add(5) = 0; // rbx
                *w.add(6) = 0; // rbp
                *w.add(7) = fiber_trampoline as *const () as usize as u64;
            }
            inner.fiber_rsp = sp;
            let canary = ((base + 15) & !15usize) as *mut u64;
            unsafe { *canary = STACK_CANARY };
            inner.canary = canary;
            StackFiber { inner }
        }

        pub(super) fn resume(&mut self) -> Resume {
            assert!(!self.inner.finished, "resumed a finished fiber");
            let inner_ptr: *mut StackInner = &mut *self.inner;
            let prev = ACTIVE.replace(Active::Stack(inner_ptr));
            unsafe {
                raw_switch(&mut (*inner_ptr).worker_rsp, (*inner_ptr).fiber_rsp);
            }
            ACTIVE.set(prev);
            assert!(
                unsafe { *self.inner.canary } == STACK_CANARY,
                "fiber stack overflow detected (canary clobbered)"
            );
            if self.inner.finished {
                Resume::Finished
            } else {
                Resume::Yielded
            }
        }

        #[cfg(test)]
        pub(super) fn canary_addr(&self) -> usize {
            self.inner.canary as usize
        }

        /// Called (indirectly) from inside the fiber via [`fiber_yield`].
        pub(super) unsafe fn yield_from(inner: *mut StackInner) {
            raw_switch(&mut (*inner).fiber_rsp, (*inner).worker_rsp);
        }
    }

    /// Pack the current MXCSR and x87 control words into one u64 in the
    /// layout `raw_switch` restores (mxcsr low, fcw high).
    fn fpu_control_words() -> u64 {
        let mut out: u64 = 0;
        unsafe {
            std::arch::asm!(
                "sub rsp, 8",
                "stmxcsr [rsp]",
                "fnstcw [rsp + 4]",
                "mov {out}, [rsp]",
                "add rsp, 8",
                out = out(reg) out,
            );
        }
        out
    }

    /// Swap stacks: save the callee-saved context on the current stack,
    /// stash rsp into `*save`, adopt `restore` as the new rsp and pop the
    /// context that was saved there (or synthesized by `spawn`).
    #[unsafe(naked)]
    unsafe extern "C" fn raw_switch(save: *mut usize, restore: usize) {
        core::arch::naked_asm!(
            "push rbp",
            "push rbx",
            "push r12",
            "push r13",
            "push r14",
            "push r15",
            "sub rsp, 8",
            "stmxcsr [rsp]",
            "fnstcw [rsp + 4]",
            "mov [rdi], rsp",
            "mov rsp, rsi",
            "ldmxcsr [rsp]",
            "fldcw [rsp + 4]",
            "add rsp, 8",
            "pop r15",
            "pop r14",
            "pop r13",
            "pop r12",
            "pop rbx",
            "pop rbp",
            "ret",
        )
    }

    /// First frame of every fiber: the synthesized context lands here
    /// with the `StackInner` pointer in r12 (a callee-saved register the
    /// restore just popped). Never returns — `fiber_entry` switches away
    /// for good, and falling through would mean a runtime bug, hence ud2.
    #[unsafe(naked)]
    unsafe extern "C" fn fiber_trampoline() {
        core::arch::naked_asm!(
            "mov rdi, r12",
            "call {entry}",
            "ud2",
            entry = sym fiber_entry,
        )
    }

    unsafe extern "C" fn fiber_entry(inner: *mut StackInner) {
        let f = (*inner).entry.take().expect("fiber entry already taken");
        // The safety net of the crate-level contract.
        let _ = catch_unwind(AssertUnwindSafe(f));
        (*inner).finished = true;
        // Final switch back to the worker; this fiber is never resumed
        // again, so the saved context (into fiber_rsp) is dead.
        raw_switch(&mut (*inner).fiber_rsp, (*inner).worker_rsp);
        unreachable!("finished fiber was resumed");
    }
}

#[cfg(target_arch = "x86_64")]
use stack_impl::{StackFiber, StackInner};

// ---------------------------------------------------------------------
// Portable thread-backed fallback
// ---------------------------------------------------------------------

struct ThreadState {
    run: bool,
    yielded: bool,
    finished: bool,
}

struct ThreadShared {
    state: Mutex<ThreadState>,
    to_fiber: Condvar,
    to_worker: Condvar,
}

impl ThreadShared {
    /// The hand-off state; a poisoned lock is recovered, as every lock
    /// in the workspace is.
    fn lock(&self) -> MutexGuard<'_, ThreadState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One parked OS thread per fiber; `resume` and `fiber_yield` hand the
/// single logical thread of control back and forth through a condvar.
/// Heavy (defeats the M:N point) but portable and race-equivalent to the
/// assembly path, which makes it a useful oracle.
struct ThreadFiber {
    shared: Arc<ThreadShared>,
}

impl ThreadFiber {
    fn spawn<F>(f: F) -> ThreadFiber
    where
        F: FnOnce() + Send + 'static,
    {
        let shared = Arc::new(ThreadShared {
            state: Mutex::new(ThreadState {
                run: false,
                yielded: false,
                finished: false,
            }),
            to_fiber: Condvar::new(),
            to_worker: Condvar::new(),
        });
        let thread_shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("embera:fiber".into())
            .spawn(move || {
                let st = thread_shared.lock();
                drop(thread_shared.to_fiber.wait_while(st, |st| !st.run));
                let ptr: *const ThreadShared = &*thread_shared;
                let prev = ACTIVE.replace(Active::Thread(ptr));
                let _ = catch_unwind(AssertUnwindSafe(f));
                ACTIVE.set(prev);
                let mut st = thread_shared.lock();
                st.finished = true;
                thread_shared.to_worker.notify_one();
            })
            .expect("spawn fiber carrier thread");
        ThreadFiber { shared }
    }

    fn resume(&mut self) -> Resume {
        let mut st = self.shared.lock();
        assert!(!st.finished, "resumed a finished fiber");
        st.run = true;
        self.shared.to_fiber.notify_one();
        let to_worker = &self.shared.to_worker;
        let st = to_worker.wait_while(st, |st| !(st.yielded || st.finished));
        let mut st = st.unwrap_or_else(PoisonError::into_inner);
        st.yielded = false;
        if st.finished {
            Resume::Finished
        } else {
            Resume::Yielded
        }
    }

    fn yield_from(shared: *const ThreadShared) {
        let shared = unsafe { &*shared };
        let mut st = shared.lock();
        st.run = false;
        st.yielded = true;
        shared.to_worker.notify_one();
        drop(shared.to_fiber.wait_while(st, |st| !st.run));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn fiber_runs_to_completion_without_yield() {
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        let mut f = Fiber::spawn(MIN_STACK_BYTES, move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(f.resume(), Resume::Finished);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn fiber_yields_and_resumes_interleaved() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let l = Arc::clone(&log);
        let mut f = Fiber::spawn(MIN_STACK_BYTES, move || {
            l.lock().unwrap().push("a");
            fiber_yield();
            l.lock().unwrap().push("b");
            fiber_yield();
            l.lock().unwrap().push("c");
        });
        assert_eq!(f.resume(), Resume::Yielded);
        log.lock().unwrap().push("w1");
        assert_eq!(f.resume(), Resume::Yielded);
        log.lock().unwrap().push("w2");
        assert_eq!(f.resume(), Resume::Finished);
        assert_eq!(*log.lock().unwrap(), vec!["a", "w1", "b", "w2", "c"]);
    }

    #[test]
    fn fiber_preserves_locals_across_yields() {
        let out = Arc::new(AtomicUsize::new(0));
        let o = Arc::clone(&out);
        let mut f = Fiber::spawn(MIN_STACK_BYTES, move || {
            let mut acc: usize = 0;
            let data = [1usize, 2, 3, 4, 5];
            for d in data {
                acc += d;
                fiber_yield();
            }
            o.store(acc, Ordering::SeqCst);
        });
        let mut spins = 0;
        while f.resume() == Resume::Yielded {
            spins += 1;
        }
        assert_eq!(spins, 5);
        assert_eq!(out.load(Ordering::SeqCst), 15);
    }

    #[test]
    fn fiber_can_migrate_between_threads() {
        let (tx, rx) = std::sync::mpsc::channel::<Fiber>();
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        let mut f = Fiber::spawn(MIN_STACK_BYTES, move || {
            let x = 41;
            fiber_yield();
            d.store(x + 1, Ordering::SeqCst);
        });
        assert_eq!(f.resume(), Resume::Yielded);
        tx.send(f).unwrap();
        std::thread::spawn(move || {
            let mut f = rx.recv().unwrap();
            assert_eq!(f.resume(), Resume::Finished);
        })
        .join()
        .unwrap();
        assert_eq!(done.load(Ordering::SeqCst), 42);
    }

    #[test]
    fn panic_inside_fiber_is_contained() {
        let mut f = Fiber::spawn(MIN_STACK_BYTES, || panic!("boom"));
        assert_eq!(f.resume(), Resume::Finished);
    }

    /// A real overflow scribbles over whatever lies below the stack, so
    /// the body clobbers only the canary word, as the deepest push of an
    /// overflowing frame would.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn clobbered_canary_fails_the_resume_loudly() {
        let canary = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&canary);
        let mut f = StackFiber::spawn(MIN_STACK_BYTES, move || {
            let word = c.load(Ordering::SeqCst) as *mut u64;
            // SAFETY: the address of this fiber's own canary word, which
            // lies inside its live stack allocation.
            unsafe { word.write_volatile(0) };
            fiber_yield();
        });
        canary.store(f.canary_addr(), Ordering::SeqCst);
        let failure = catch_unwind(AssertUnwindSafe(|| f.resume()))
            .expect_err("resume returned from a fiber with a clobbered canary");
        let message = failure.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(message.contains("stack overflow"), "got {message:?}");
        assert!(!on_fiber(), "the failed resume left ACTIVE set");
    }

    #[test]
    fn many_small_fibers_complete() {
        let count = Arc::new(AtomicUsize::new(0));
        let mut fibers: Vec<Fiber> = (0..512)
            .map(|_| {
                let c = Arc::clone(&count);
                Fiber::spawn(MIN_STACK_BYTES, move || {
                    fiber_yield();
                    c.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        for f in &mut fibers {
            assert_eq!(f.resume(), Resume::Yielded);
        }
        for f in &mut fibers {
            assert_eq!(f.resume(), Resume::Finished);
        }
        assert_eq!(count.load(Ordering::SeqCst), 512);
    }
}
