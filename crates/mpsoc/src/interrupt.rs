//! Interrupt controller: per-CPU doorbell lines backed by kernel events.
//!
//! The STi7200's CPUs "communicate by using one shared block of memory
//! associated with one interruption controller" (paper §5). EMBX raises a
//! doorbell on the destination CPU after updating a distributed object;
//! the OS21 layer turns the doorbell into a task wakeup.

use std::collections::HashMap;

use parking_lot::Mutex;
use sim_kernel::{EventId, Kernel, SimCtx};

use crate::config::CpuId;

/// An interrupt line: (destination CPU, line number).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IrqLine {
    /// CPU the interrupt is delivered to.
    pub cpu: CpuId,
    /// Line number on that CPU.
    pub line: u32,
}

struct IcState {
    events: HashMap<IrqLine, EventId>,
    /// Pending counts per line: an interrupt raised while nobody is
    /// waiting stays pending (level-triggered latch).
    pending: HashMap<IrqLine, u64>,
}

/// The interrupt controller. Cloneable handles share state.
pub struct InterruptController {
    state: Mutex<IcState>,
}

impl InterruptController {
    /// A controller with no lines mapped yet; lines are created lazily.
    pub fn new() -> Self {
        InterruptController {
            state: Mutex::new(IcState {
                events: HashMap::new(),
                pending: HashMap::new(),
            }),
        }
    }

    /// Pre-register the kernel event for a line (call before simulation
    /// starts, from the kernel owner).
    pub fn register_line(&self, kernel: &Kernel, line: IrqLine) -> EventId {
        let mut st = self.state.lock();
        let event = kernel.alloc_event();
        st.events.insert(line, event);
        st.pending.insert(line, 0);
        event
    }

    /// Raise an interrupt on `line` from a running process. The latch is
    /// set and waiters are notified.
    pub fn raise(&self, ctx: &SimCtx, line: IrqLine) {
        let event = {
            let mut st = self.state.lock();
            *st.pending.entry(line).or_insert(0) += 1;
            st.events.get(&line).copied()
        };
        if let Some(e) = event {
            ctx.notify(e);
        }
    }

    /// Block the calling process until an interrupt is pending on `line`,
    /// then consume one pending interrupt.
    ///
    /// # Panics
    /// Panics if the line was never registered.
    pub fn wait(&self, ctx: &SimCtx, line: IrqLine) {
        let event = {
            let st = self.state.lock();
            *st.events
                .get(&line)
                .unwrap_or_else(|| panic!("IRQ line {line:?} not registered"))
        };
        loop {
            {
                let mut st = self.state.lock();
                let pending = st.pending.entry(line).or_insert(0);
                if *pending > 0 {
                    *pending -= 1;
                    return;
                }
            }
            ctx.wait(event);
        }
    }
}

impl Default for InterruptController {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn raise_wakes_waiter() {
        let mut k = Kernel::new();
        let ic = Arc::new(InterruptController::new());
        let line = IrqLine { cpu: 1, line: 0 };
        ic.register_line(&k, line);
        let woke_at = Arc::new(AtomicU64::new(0));

        let ic2 = Arc::clone(&ic);
        let w = Arc::clone(&woke_at);
        k.spawn("handler", move |ctx| {
            ic2.wait(&ctx, line);
            w.store(ctx.now(), Ordering::SeqCst);
        });
        let ic3 = Arc::clone(&ic);
        k.spawn("raiser", move |ctx| {
            ctx.advance(500);
            ic3.raise(&ctx, line);
        });
        k.run().unwrap();
        assert_eq!(woke_at.load(Ordering::SeqCst), 500);
    }

    #[test]
    fn interrupt_raised_before_wait_is_latched() {
        let mut k = Kernel::new();
        let ic = Arc::new(InterruptController::new());
        let line = IrqLine { cpu: 0, line: 3 };
        ic.register_line(&k, line);

        let ic2 = Arc::clone(&ic);
        k.spawn("raiser", move |ctx| {
            ic2.raise(&ctx, line);
        });
        let ic3 = Arc::clone(&ic);
        k.spawn("late_handler", move |ctx| {
            ctx.advance(1_000);
            ic3.wait(&ctx, line); // must not deadlock: latch holds it
        });
        k.run().unwrap();
    }

    #[test]
    fn multiple_raises_accumulate() {
        let mut k = Kernel::new();
        let ic = Arc::new(InterruptController::new());
        let line = IrqLine { cpu: 2, line: 1 };
        ic.register_line(&k, line);

        let ic2 = Arc::clone(&ic);
        k.spawn("raiser", move |ctx| {
            for _ in 0..3 {
                ic2.raise(&ctx, line);
                ctx.advance(1);
            }
        });
        let ic3 = Arc::clone(&ic);
        let count = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&count);
        k.spawn("handler", move |ctx| {
            ctx.advance(100);
            for _ in 0..3 {
                ic3.wait(&ctx, line);
                c.fetch_add(1, Ordering::SeqCst);
            }
        });
        k.run().unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 3);
    }
}
