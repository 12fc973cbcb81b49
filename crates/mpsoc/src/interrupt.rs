//! Interrupt controller: per-CPU doorbell lines backed by kernel events.
//!
//! The STi7200's CPUs "communicate by using one shared block of memory
//! associated with one interruption controller" (paper §5). EMBX raises a
//! doorbell on the destination CPU after updating a distributed object;
//! the OS21 layer turns the doorbell into a task wakeup.

use sim_kernel::{EventId, Kernel, LockStep, SimCtx};

use crate::config::CpuId;

/// An interrupt line: (destination CPU, line number).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IrqLine {
    /// CPU the interrupt is delivered to.
    pub cpu: CpuId,
    /// Line number on that CPU.
    pub line: u32,
}

/// A registered line: the event its waiters block on, and its latch.
struct Line {
    event: EventId,
    /// Interrupts raised and not yet taken: one raised while nobody is
    /// waiting stays pending (level-triggered latch).
    pending: u64,
}

/// The interrupt controller.
pub struct InterruptController {
    /// Registered lines, indexed `[cpu][line]`.
    lines: LockStep<Vec<Vec<Option<Line>>>>,
}

impl InterruptController {
    /// A controller with no lines mapped yet; lines are created lazily.
    pub fn new() -> Self {
        InterruptController {
            lines: LockStep::new(Vec::new()),
        }
    }

    /// Pre-register the kernel event for a line (call before simulation
    /// starts, from the kernel owner).
    pub fn register_line(&self, kernel: &Kernel, line: IrqLine) -> EventId {
        let event = kernel.alloc_event();
        self.lines.with(|lines| {
            if lines.len() <= line.cpu {
                lines.resize_with(line.cpu + 1, Vec::new);
            }
            let on_cpu = &mut lines[line.cpu];
            let slot = line.line as usize;
            if on_cpu.len() <= slot {
                on_cpu.resize_with(slot + 1, || None);
            }
            on_cpu[slot] = Some(Line { event, pending: 0 });
        });
        event
    }

    /// Run `f` on a registered line.
    ///
    /// # Panics
    /// Panics if the line was never registered.
    fn with_line<R>(&self, line: IrqLine, f: impl FnOnce(&mut Line) -> R) -> R {
        self.lines.with(|lines| {
            let registered = lines
                .get_mut(line.cpu)
                .and_then(|on_cpu| on_cpu.get_mut(line.line as usize))
                .and_then(Option::as_mut);
            f(registered.unwrap_or_else(|| panic!("IRQ line {line:?} not registered")))
        })
    }

    /// Raise an interrupt on `line` from a running process. The latch is
    /// set and waiters are notified.
    ///
    /// # Panics
    /// Panics if the line was never registered.
    pub fn raise(&self, ctx: &SimCtx, line: IrqLine) {
        let event = self.with_line(line, |l| {
            l.pending += 1;
            l.event
        });
        ctx.notify(event);
    }

    /// Block the calling process until an interrupt is pending on `line`,
    /// then consume one pending interrupt.
    ///
    /// # Panics
    /// Panics if the line was never registered.
    pub fn wait(&self, ctx: &SimCtx, line: IrqLine) {
        // Take a pending interrupt, or learn which event to wait on.
        while let Some(event) = self.with_line(line, |l| {
            if l.pending == 0 {
                return Some(l.event);
            }
            l.pending -= 1;
            None
        }) {
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
