//! [`LockStep`]: the one cell that simulation state lives in.
//!
//! A kernel runs strictly one thing at a time — itself, or the one
//! process it has switched in — so the state that processes and the
//! kernel share (a process's hand-off words, a channel's queue, the bus,
//! a cache, an EMBX object) is never touched by two parties at once.
//! Guarding each piece with a mutex paid for a concurrency the
//! simulation does not have. A [`LockStep`] cell pays nothing instead:
//! it is an [`UnsafeCell`] whose one accessor, [`LockStep::with`], lends
//! the value to a closure.

use std::cell::{Cell, UnsafeCell};

/// Simulation state shared between the processes of one kernel and the
/// kernel itself, accessed without a lock.
///
/// # The ownership rule
///
/// A cell belongs to one simulation. It is touched only by the kernel
/// that runs that simulation, by the process that kernel has switched
/// in, or by the thread that owns the kernel while [`Kernel::run`] is
/// not running — set-up before, statistics after. Inside
/// [`with`](LockStep::with) nothing may block in virtual time (no
/// [`SimCtx::advance`], `wait`, or anything that calls them): a blocking
/// call switches to another process, which may then borrow the same
/// cell.
///
/// # Why `Sync` is sound under that rule
///
/// A cell is `Sync` — it has to be, because the kernel, its processes
/// and the owning thread all hold it — although it synchronises nothing
/// itself. No two of those parties run at the same time, and every
/// hand-off between them is a happens-before edge:
///
/// * on native fibers, the kernel and every process run on the thread
///   inside [`Kernel::run`]; a switch is a user-space context switch on
///   that one thread, so program order orders every access;
/// * on the thread-backed fiber oracle (`EMBERA_EXEC_FIBER=thread`),
///   each process body runs on a carrier thread of its own, and every
///   resume and every yield is handed over through a mutex and a
///   condition variable — the unlock that publishes the hand-off and the
///   lock that receives it order the accesses before it against those
///   after it;
/// * a [`Kernel`] may move between threads, and so may the owner of a
///   cell (a kernel run to a horizon on one thread and finished on
///   another, a report read by the thread that joined the run); moving a
///   value to another thread is itself a spawn or join, channel send or
///   lock hand-off, each a happens-before edge.
///
/// So any two accesses to a cell are ordered, and an access never races.
/// What the cell does check, in debug builds, is the other half of
/// exclusivity: a [`with`](LockStep::with) that starts while another
/// `with` on the same cell is still running — a nested borrow, or a
/// process that blocked inside one — panics instead of handing out a
/// second `&mut`.
///
/// [`Kernel`]: crate::Kernel
/// [`Kernel::run`]: crate::Kernel::run
/// [`SimCtx::advance`]: crate::SimCtx::advance
pub struct LockStep<T> {
    value: UnsafeCell<T>,
    /// Set while a [`with`](LockStep::with) closure runs; checked in
    /// debug builds only.
    borrowed: Cell<bool>,
}

// SAFETY: `value` and `borrowed` are only reached through `with`, which
// is called under the ownership rule above, so two calls on one cell
// from different threads are always ordered by a happens-before edge
// (the fiber hand-off, or the spawn/join/lock that moved the kernel),
// never concurrent, and the `&mut T` a call lends is the only reference
// to the value while it lives (nesting panics in debug builds, and
// nothing else hands out references). `T: Send` because the value is
// used, and may be dropped, on whichever thread currently runs the
// simulation.
unsafe impl<T: Send> Sync for LockStep<T> {}

impl<T> LockStep<T> {
    /// A cell holding `value`.
    pub const fn new(value: T) -> Self {
        LockStep {
            value: UnsafeCell::new(value),
            borrowed: Cell::new(false),
        }
    }

    /// Run `f` on the value and return what it returns. `f` must not
    /// block in virtual time (see the [type docs](LockStep)).
    ///
    /// # Panics
    ///
    /// In debug builds, if a `with` on this cell is already running.
    #[inline]
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        debug_assert!(
            !self.borrowed.replace(true),
            "overlapping borrow of a lock-step cell"
        );
        let _release = Release(&self.borrowed);
        // SAFETY: under the ownership rule no other `with` on this cell
        // runs concurrently (see the `Sync` impl), and in debug builds
        // the flag above has ruled out one further up this call stack;
        // so this is the only reference to the value until `f` returns.
        f(unsafe { &mut *self.value.get() })
    }
}

impl<T: Default> Default for LockStep<T> {
    fn default() -> Self {
        LockStep::new(T::default())
    }
}

/// Clears the borrow flag when a `with` ends, by returning or unwinding.
struct Release<'a>(&'a Cell<bool>);

impl Drop for Release<'_> {
    fn drop(&mut self) {
        self.0.set(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_lends_the_value_and_returns_the_result() {
        let cell = LockStep::new(vec![1, 2]);
        let len = cell.with(|v| {
            v.push(3);
            v.len()
        });
        assert_eq!(len, 3);
        assert_eq!(cell.with(|v| v.clone()), [1, 2, 3]);
    }

    #[test]
    fn a_borrow_ends_when_its_closure_unwinds() {
        let cell = LockStep::new(0);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cell.with(|n| {
                *n = 1;
                panic!("inside a borrow");
            })
        }));
        assert!(unwound.is_err());
        assert_eq!(cell.with(|n| *n), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "overlapping borrow")]
    fn a_nested_borrow_of_one_cell_panics_in_debug_builds() {
        let cell = LockStep::new(0);
        cell.with(|_| cell.with(|_| ()));
    }

    #[test]
    fn cells_nest_when_they_are_different_cells() {
        let (a, b) = (LockStep::new(1), LockStep::new(2));
        assert_eq!(a.with(|x| b.with(|y| *x + *y)), 3);
    }
}
