//! Synchronization: the counting semaphore, in the style of OS21's
//! `semaphore_*` API.

use std::sync::Arc;

use sim_kernel::{EventId, LockStep};

use crate::task::TaskCtx;

/// A counting semaphore between simulated tasks. Cloneable; clones share
/// state.
pub struct Semaphore {
    count: Arc<LockStep<i64>>,
    event: EventId,
}

impl Clone for Semaphore {
    fn clone(&self) -> Self {
        Semaphore {
            count: Arc::clone(&self.count),
            event: self.event,
        }
    }
}

impl Semaphore {
    /// Create a semaphore with an initial count (`semaphore_create_fifo`).
    pub fn new(task: &TaskCtx, initial: i64) -> Self {
        Self::with_event(task.sim().alloc_event(), initial)
    }

    /// Create from a raw event (for construction outside any task).
    pub fn with_event(event: EventId, initial: i64) -> Self {
        Semaphore {
            count: Arc::new(LockStep::new(initial)),
            event,
        }
    }

    /// `semaphore_wait`: decrement, blocking in virtual time while the
    /// count is zero.
    pub fn wait(&self, task: &TaskCtx) {
        while !self.try_take() {
            task.sim().wait(self.event);
        }
    }

    /// Decrement if the count is positive; whether it was.
    fn try_take(&self) -> bool {
        self.count.with(|count| {
            let taken = *count > 0;
            if taken {
                *count -= 1;
            }
            taken
        })
    }

    /// `semaphore_signal`: increment and wake waiters.
    pub fn signal(&self, task: &TaskCtx) {
        self.count.with(|count| *count += 1);
        task.sim().notify(self.event);
    }

    /// Current count.
    pub fn count(&self) -> i64 {
        self.count.with(|count| *count)
    }
}

#[cfg(test)]
mod tests {
    use crate::rtos::Rtos;
    use crate::sync::Semaphore;
    use mpsoc_sim::Machine;
    use sim_kernel::Kernel;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn semaphore_blocks_until_signaled() {
        let mut kernel = Kernel::new();
        let rtos = Rtos::new(Machine::sti7200());
        let sem = Semaphore::with_event(kernel.alloc_event(), 0);
        let woke_at = Arc::new(AtomicU64::new(0));

        let s = sem.clone();
        let w = Arc::clone(&woke_at);
        rtos.spawn_task(&mut kernel, 1, "waiter", 0, move |t| {
            s.wait(&t);
            w.store(t.now_ns(), Ordering::SeqCst);
        });
        let s2 = sem.clone();
        rtos.spawn_task(&mut kernel, 2, "signaler", 0, move |t| {
            t.delay(900);
            s2.signal(&t);
        });
        kernel.run().unwrap();
        assert_eq!(woke_at.load(Ordering::SeqCst), 900);
    }

    #[test]
    fn semaphore_initial_count_admits_without_block() {
        let mut kernel = Kernel::new();
        let rtos = Rtos::new(Machine::sti7200());
        let sem = Semaphore::with_event(kernel.alloc_event(), 2);
        let s = sem.clone();
        rtos.spawn_task(&mut kernel, 1, "t", 0, move |t| {
            s.wait(&t);
            s.wait(&t);
            assert_eq!(t.now_ns(), 0, "no blocking needed");
        });
        kernel.run().unwrap();
        assert_eq!(sem.count(), 0);
    }

    #[test]
    fn binary_semaphore_provides_exclusion() {
        // Two tasks run a critical section with a delay inside under a
        // semaphore of count 1; exclusion means the second task's section
        // starts after the first finishes.
        let mut kernel = Kernel::new();
        let rtos = Rtos::new(Machine::sti7200());
        let sem = Semaphore::with_event(kernel.alloc_event(), 1);
        let order: Arc<std::sync::Mutex<Vec<(u64, u64)>>> =
            Arc::new(std::sync::Mutex::new(Vec::new()));
        for name in ["a", "b"] {
            let s = sem.clone();
            let o = Arc::clone(&order);
            rtos.spawn_task(&mut kernel, 1, name, 0, move |t| {
                s.wait(&t);
                let start = t.now_ns();
                t.delay(100);
                o.lock().unwrap().push((start, t.now_ns()));
                s.signal(&t);
            });
        }
        kernel.run().unwrap();
        let spans = order.lock().unwrap().clone();
        assert_eq!(spans.len(), 2);
        // Sections must not overlap.
        assert!(spans[1].0 >= spans[0].1 || spans[0].0 >= spans[1].1);
    }
}
