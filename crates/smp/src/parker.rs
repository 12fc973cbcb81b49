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
//!
//! A thread that found its inboxes empty hands its core off before it
//! sleeps: `SmpParker::park` calls `yield_now` once, then parks. One
//! block per message is one hand-off per message, and with more
//! component threads than cores the producer is usually runnable right
//! there; after the yield it runs on this core, and its next push finds
//! the receiver still runnable, so neither side pays a futex wait, a
//! futex wake or a cross-core wake-up. On a two-core guest that lifts
//! `smp_paper` from ≈ 35k to ≈ 50k frames/s, and cuts the receivers'
//! sleeps from 3.0 to 0.5 per frame (EXPERIMENTS.md "PR 34").
//!
//! The yield cannot lose a wake. Parking only starts after it: an
//! `unpark` that lands during the yield finds the thread running and
//! leaves the token, without a syscall, and the `park` that follows
//! consumes it and returns. A timed park re-reads the clock after the
//! yield and returns at once if its deadline has passed, leaving any
//! token for the next park; the runtime re-checks inboxes, deadline and
//! shutdown around every park either way.
//!
//! It is one yield, not a spin or a budget. Spinning on the inboxes
//! before the park burns the core the producer needs (`smp_batched`
//! ×0.81, `smp_openloop` p50 ×3.5), and a second yield bought nothing
//! over the first. With nothing else runnable `yield_now` returns at
//! once, so a lone receiver parks as it did before.

use std::sync::Arc;
use std::time::Duration;

use embera::runtime::Parker;
use embera::sync::{
    current, fence, park, park_timeout, yield_now, AtomicBool, Instant, OnceLock, Ordering, Thread,
};

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
            .set(current())
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
        // Hand off first (module docs). A wake that lands meanwhile only
        // leaves the token, which the park below consumes.
        yield_now();
        match deadline_ns {
            Some(d) => {
                let now = self.shared.now_ns();
                if now < d {
                    park_timeout(Duration::from_nanos(d - now));
                }
            }
            None => park(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
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
    fn timed_park_returns_at_a_deadline_passed_during_the_hand_off() {
        let shared = SmpShared::new(1);
        let mut parker = SmpParker::register(Arc::clone(&shared), 0);
        let t0 = Instant::now();
        for _ in 0..100 {
            // Due by the time the yield returns.
            parker.park(Some(parker.now_ns() + 1));
        }
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "a park past its deadline slept"
        );
        // Such a park leaves a deposited token for the next one.
        parker.wake(0);
        parker.park(Some(parker.now_ns()));
        let t0 = Instant::now();
        parker.park(Some(parker.now_ns() + 5_000_000_000));
        assert!(t0.elapsed() < Duration::from_secs(4), "token was lost");
        // A later deadline is still waited for.
        let deadline = parker.now_ns() + 20_000_000;
        parker.park(Some(deadline));
        assert!(parker.now_ns() >= deadline, "woke before its deadline");
    }

    /// The owner announces each park, and a peer unparks it the moment
    /// it sees the announcement: the wake lands before, during or after
    /// the hand-off, and each park must still return long before its
    /// deadline.
    #[test]
    fn wake_racing_the_hand_off_is_never_lost() {
        const ROUNDS: u32 = if cfg!(debug_assertions) {
            2_000
        } else {
            20_000
        };
        const DEADLINE_NS: u64 = 10_000_000_000;
        let shared = SmpShared::new(1);
        let announced = Arc::new(AtomicU32::new(0));
        let peer = {
            let (shared, announced) = (Arc::clone(&shared), Arc::clone(&announced));
            std::thread::spawn(move || {
                for round in 1..=ROUNDS {
                    while announced.load(Ordering::SeqCst) < round {
                        std::thread::yield_now();
                    }
                    shared.unpark(0);
                }
            })
        };
        let mut parker = SmpParker::register(Arc::clone(&shared), 0);
        for round in 1..=ROUNDS {
            announced.store(round, Ordering::SeqCst);
            let start = parker.now_ns();
            parker.park(Some(start + DEADLINE_NS));
            let waited = parker.now_ns() - start;
            assert!(
                waited < DEADLINE_NS / 2,
                "round {round}: park waited {waited} ns, the wake was lost"
            );
        }
        peer.join().unwrap();
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
