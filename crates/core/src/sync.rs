//! Every concurrency primitive the runtime's cores use, from one place.
//!
//! The park/wake protocols of the host backends (`embera-smp`'s parker,
//! `embera-exec`'s executor), the mailbox ([`crate::runtime::Fifo`]) and
//! the statistics blocks ([`crate::observe::stats`]) take their locks,
//! atomics, thread parking and clock reads from this module and from
//! nowhere else; CI fails on a direct `std::sync::atomic`,
//! `std::thread::park` or `std::time::Instant` in those crates. An
//! interleaving explorer that replaces these primitives with scheduled
//! ones therefore substitutes here, once, and sees every step of those
//! protocols.
//!
//! In a normal build the module is the standard library: the atomics,
//! `OnceLock`, parking and `Instant` are re-exported as they are, and
//! [`Mutex`] and [`Condvar`] are thin wrappers that only drop lock
//! poisoning. A component that panics while it holds a lock is caught
//! and restarted by supervision; the data it guarded is still what the
//! runtime needs, so every lock recovers the guard instead of failing.

use std::sync::{MutexGuard, PoisonError};

pub use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
pub use std::sync::OnceLock;
pub use std::thread::{current, park, park_timeout, yield_now, Thread};
pub use std::time::Instant;

/// A mutex whose `lock` never fails: a holder's panic leaves the value
/// as it was and the lock usable.
#[derive(Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// A mutex guarding `value`.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Block until the lock is free, then take it.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A condition variable for [`Mutex`]. As with std's, a wait may also
/// return spuriously; callers re-check their condition in a loop.
#[derive(Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// A condition variable nobody waits on.
    pub const fn new() -> Self {
        Condvar(std::sync::Condvar::new())
    }

    /// Release `guard`, block until notified, and take the lock again.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.0.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }

    /// As [`Condvar::wait`], but return once `deadline` has passed. A
    /// deadline already passed returns at once, without releasing the
    /// lock.
    pub fn wait_until<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        deadline: Instant,
    ) -> MutexGuard<'a, T> {
        let timeout = deadline.saturating_duration_since(Instant::now());
        if timeout.is_zero() {
            return guard;
        }
        let waited = self.0.wait_timeout(guard, timeout);
        waited.unwrap_or_else(PoisonError::into_inner).0
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn lock_and_mutate() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            std::thread::sleep(Duration::from_millis(10));
            *m.lock() = true;
            cv.notify_one();
        });
        let (m, cv) = &*pair;
        let mut g = m.lock();
        while !*g {
            g = cv.wait(g);
        }
        drop(g);
        h.join().unwrap();
    }

    #[test]
    fn wait_until_times_out() {
        let m = Mutex::new(7);
        let cv = Condvar::new();
        // A deadline ahead: nobody notifies, so the wait lasts until it.
        let deadline = Instant::now() + Duration::from_millis(5);
        let g = cv.wait_until(m.lock(), deadline);
        assert!(Instant::now() >= deadline);
        assert_eq!(*g, 7);
        // A deadline already behind: the guard comes straight back.
        let g = cv.wait_until(g, deadline);
        assert_eq!(*g, 7);
    }

    #[test]
    fn lock_survives_a_panicking_holder() {
        let m = Arc::new(Mutex::new(vec![1, 2]));
        let holder = Arc::clone(&m);
        let joined = std::thread::spawn(move || {
            let mut v = holder.lock();
            v.push(3);
            panic!("holder fails while it holds the lock");
        })
        .join();
        assert!(joined.is_err());
        assert_eq!(*m.lock(), vec![1, 2, 3]);
        m.lock().push(4);
        assert_eq!(m.lock().len(), 4);
    }
}
