//! The executor's [`Parker`]: every blocking point of
//! [`embera::runtime::HostTransport`] parks the component's *fiber*
//! instead of an OS thread, and a push wakes the receiving task through
//! the scheduler's lost-wakeup-free state machine (see `executor`).

use std::sync::Arc;

use embera::runtime::Parker;

use crate::executor::ExecShared;

/// Cooperative fairness: after this many consecutive sends the sender's
/// fiber yields (staying runnable) so receivers get scheduled. This is
/// what bounds mailbox depth — and therefore keeps the pre-sized deques
/// from regrowing — when a burst-producer shares a worker with its
/// consumers (the thread backend gets the same effect from kernel
/// preemption).
const SEND_YIELD_BUDGET: u32 = 32;

pub(crate) struct ExecParker {
    pub(crate) shared: Arc<ExecShared>,
    /// This component's task id in the executor (its deployment index,
    /// which is also its mailboxes' owner id).
    pub(crate) task: usize,
    /// Consecutive sends since this fiber last gave up its worker.
    pub(crate) send_streak: u32,
}

impl Parker for ExecParker {
    fn now_ns(&self) -> u64 {
        self.shared.now_ns()
    }

    fn is_shutdown(&self) -> bool {
        self.shared.is_shutdown()
    }

    fn request_shutdown(&self) {
        self.shared.signal_shutdown();
    }

    fn wake(&self, owner: usize) {
        self.shared.wake(owner);
    }

    fn park(&mut self, deadline_ns: Option<u64>) {
        if let Some(d) = deadline_ns {
            if self.shared.now_ns() >= d {
                // Already timed out: let the runtime observe the
                // deadline instead of parking for a wake that may be a
                // while away on a busy pool.
                return;
            }
            self.shared.arm_timer(self.task, d);
        }
        self.send_streak = 0;
        // A send racing with this park is resolved by the executor's
        // RUNNING→NOTIFIED / PARKED→QUEUED protocol; worst case the park
        // returns immediately and the runtime re-checks the mailbox.
        self.shared.park(self.task);
    }

    fn after_send(&mut self) {
        self.send_streak += 1;
        if self.send_streak >= SEND_YIELD_BUDGET {
            self.send_streak = 0;
            self.shared.yield_coop(self.task);
        }
    }
}
