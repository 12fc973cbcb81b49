//! Thread parking for the SMP backend: a wall clock, the application's
//! shutdown flag, and each component's thread handle — all this backend
//! adds to [`embera::runtime::HostTransport`].
//!
//! The parker is the standard library's, one per component thread:
//! `unpark` deposits a token and wakes the thread if it is parked,
//! `park` consumes the token, blocking until there is one. A token
//! deposited while the owner runs makes its next `park` return at once,
//! which is what makes push-then-unpark / check-then-park free of lost
//! wakeups.

use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;
use std::time::{Duration, Instant};

use embera::runtime::Parker;

/// Application-wide state of one SMP deployment.
pub(crate) struct SmpShared {
    epoch: Instant,
    shutdown: AtomicBool,
    /// Each component's thread, indexed in deployment order (the mailbox
    /// owner ids); set by the thread itself as its first action. A wake
    /// that finds the slot empty needs no token, because the thread has
    /// yet to make its first check: the fences in `register` and
    /// `unpark` order its registration before a check that misses the
    /// message (a mailbox is found empty without taking its lock, so
    /// the lock orders nothing here), and those in `register` and
    /// `request_shutdown` do the same for the shutdown flag.
    threads: Vec<OnceLock<Thread>>,
}

impl SmpShared {
    pub(crate) fn new(components: usize) -> Arc<SmpShared> {
        Arc::new(SmpShared {
            epoch: Instant::now(),
            shutdown: AtomicBool::new(false),
            threads: (0..components).map(|_| OnceLock::new()).collect(),
        })
    }

    pub(crate) fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn unpark(&self, component: usize) {
        let slot = &self.threads[component];
        let thread = slot.get().or_else(|| {
            // Start-up only. Pairs with the fence in `register`: either
            // the second look sees the thread's slot, or the thread's
            // first check sees what the caller pushed before this wake.
            fence(Ordering::SeqCst);
            slot.get()
        });
        if let Some(thread) = thread {
            thread.unpark();
        }
    }

    /// Set the flag, then wake everyone: a component that read the flag
    /// as clear and is about to park finds the token.
    pub(crate) fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Pairs with the fence in `register`: either this sees the
        // thread's slot, or the thread's first check sees the flag.
        fence(Ordering::SeqCst);
        let registered = self.threads.iter().filter_map(OnceLock::get);
        registered.for_each(Thread::unpark);
    }
}

/// One component's [`Parker`].
pub(crate) struct SmpParker {
    shared: Arc<SmpShared>,
}

impl SmpParker {
    /// The parker of component `me`; call on the component's own thread,
    /// before it first looks at a mailbox or the shutdown flag.
    pub(crate) fn register(shared: Arc<SmpShared>, me: usize) -> Self {
        shared.threads[me]
            .set(std::thread::current())
            .expect("one thread per component");
        fence(Ordering::SeqCst);
        SmpParker { shared }
    }
}

impl Parker for SmpParker {
    fn now_ns(&self) -> u64 {
        self.shared.now_ns()
    }

    fn is_shutdown(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    fn request_shutdown(&self) {
        self.shared.request_shutdown();
    }

    fn wake(&self, owner: usize) {
        self.shared.unpark(owner);
    }

    fn park(&mut self, deadline_ns: Option<u64>) {
        match deadline_ns {
            Some(d) => std::thread::park_timeout(Duration::from_nanos(
                d.saturating_sub(self.shared.now_ns()),
            )),
            None => std::thread::park(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn wake_before_registration_and_before_first_park_is_harmless() {
        let shared = SmpShared::new(1);
        shared.unpark(0); // nobody registered yet: a no-op, not a panic
        let mut parker = SmpParker::register(Arc::clone(&shared), 0);
        parker.wake(0);
        parker.wake(0); // tokens do not accumulate
        parker.park(None); // returns at once
        let t0 = Instant::now();
        parker.park(Some(parker.now_ns() + 20_000_000));
        assert!(
            t0.elapsed() >= Duration::from_millis(15),
            "token was consumed"
        );
    }

    #[test]
    fn park_wakes_on_wake_from_other_thread() {
        let shared = SmpShared::new(1);
        let mut parker = SmpParker::register(Arc::clone(&shared), 0);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            shared.unpark(0);
        });
        let t0 = Instant::now();
        parker.park(Some(parker.now_ns() + 5_000_000_000));
        h.join().unwrap();
        assert!(t0.elapsed() < Duration::from_secs(4), "missed the wakeup");
    }

    #[test]
    fn shutdown_wakes_every_parked_component() {
        let shared = SmpShared::new(3);
        let registered = Arc::new(Barrier::new(4));
        let handles: Vec<_> = (0..3)
            .map(|me| {
                let (shared, registered) = (Arc::clone(&shared), Arc::clone(&registered));
                std::thread::spawn(move || {
                    let mut parker = SmpParker::register(shared, me);
                    registered.wait();
                    while !parker.is_shutdown() {
                        parker.park(None);
                    }
                })
            })
            .collect();
        registered.wait();
        shared.request_shutdown();
        for h in handles {
            h.join().unwrap();
        }
    }
}
