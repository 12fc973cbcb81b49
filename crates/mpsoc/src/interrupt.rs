//! Interrupt controller: per-CPU doorbell lines backed by kernel events.
//!
//! The STi7200's CPUs "communicate by using one shared block of memory
//! associated with one interruption controller" (paper §5). EMBX raises a
//! doorbell on the destination CPU after updating a distributed object;
//! the receiving task waits on the line's event. A line latches nothing:
//! the task checks its object before it waits.

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

/// The interrupt controller.
pub struct InterruptController {
    /// The event of each registered line, indexed `[cpu][line]`.
    lines: LockStep<Vec<Vec<Option<EventId>>>>,
}

impl InterruptController {
    /// A controller with no lines mapped yet; lines are created lazily.
    pub fn new() -> Self {
        InterruptController {
            lines: LockStep::new(Vec::new()),
        }
    }

    /// Pre-register the kernel event for a line (call before simulation
    /// starts, from the kernel owner). A handler waits on the returned
    /// event; [`InterruptController::raise`] notifies it.
    pub fn register_line(&self, kernel: &Kernel, line: IrqLine) -> EventId {
        let event = kernel.alloc_event();
        self.lines.with(|lines| {
            if lines.len() <= line.cpu {
                lines.resize_with(line.cpu + 1, Vec::new);
            }
            let on_cpu = &mut lines[line.cpu];
            let slot = line.line as usize;
            if on_cpu.len() <= slot {
                on_cpu.resize(slot + 1, None);
            }
            on_cpu[slot] = Some(event);
        });
        event
    }

    /// Raise an interrupt on `line` from a running process: notify the
    /// line's event, waking whatever waits on it. A raise with no waiter
    /// is lost, as any kernel notification is.
    ///
    /// # Panics
    /// Panics if the line was never registered.
    pub fn raise(&self, ctx: &SimCtx, line: IrqLine) {
        let event = self.lines.with(|lines| {
            lines
                .get(line.cpu)
                .and_then(|on_cpu| on_cpu.get(line.line as usize))
                .copied()
                .flatten()
                .unwrap_or_else(|| panic!("IRQ line {line:?} not registered"))
        });
        ctx.notify(event);
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
        let event = ic.register_line(&k, line);
        let woke_at = Arc::new(AtomicU64::new(0));

        let w = Arc::clone(&woke_at);
        k.spawn("handler", move |ctx| {
            ctx.wait(event);
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
}
