//! Dropping a kernel that still holds processes: each suspended process
//! unwinds on its own stack, each never-started one drops its body
//! unrun, and none of it goes through the panic hook.
//!
//! No test in this file may panic: the hook is process-wide, and
//! `teardown_is_silent` counts every call to it.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use sim_kernel::{Kernel, SimError};

/// Counts its drops.
struct Guard(Arc<AtomicUsize>);

impl Drop for Guard {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// A kernel holding one process blocked in `wait` and one that was
/// spawned but never dispatched.
fn kernel_with_blocked_and_unstarted(
    blocked_local: Guard,
    unstarted_capture: Guard,
    unstarted_ran: Arc<AtomicBool>,
) -> Kernel {
    let mut kernel = Kernel::new();
    let never = kernel.alloc_event();
    kernel.spawn("blocked", move |ctx| {
        let _local = blocked_local;
        ctx.wait(never);
        unreachable!("the event is never notified");
    });
    match kernel.run() {
        Err(SimError::Deadlock(info)) => assert_eq!(info.blocked, vec!["blocked".to_string()]),
        other => unreachable!("expected a deadlock, got {other:?}"),
    }
    kernel.spawn("unstarted", move |_ctx| {
        let _capture = &unstarted_capture;
        unstarted_ran.store(true, Ordering::SeqCst);
    });
    kernel
}

#[test]
fn drop_unwinds_blocked_locals_once_and_never_runs_unstarted_bodies() {
    let blocked_drops = Arc::new(AtomicUsize::new(0));
    let unstarted_drops = Arc::new(AtomicUsize::new(0));
    let ran = Arc::new(AtomicBool::new(false));
    let kernel = kernel_with_blocked_and_unstarted(
        Guard(Arc::clone(&blocked_drops)),
        Guard(Arc::clone(&unstarted_drops)),
        Arc::clone(&ran),
    );
    assert_eq!(blocked_drops.load(Ordering::SeqCst), 0, "still suspended");
    assert_eq!(unstarted_drops.load(Ordering::SeqCst), 0, "still queued");
    drop(kernel);
    assert_eq!(blocked_drops.load(Ordering::SeqCst), 1);
    assert_eq!(unstarted_drops.load(Ordering::SeqCst), 1);
    assert!(
        !ran.load(Ordering::SeqCst),
        "a never-started body ran on drop"
    );
}

#[test]
fn teardown_is_silent() {
    let fired = Arc::new(AtomicUsize::new(0));
    let previous = std::panic::take_hook();
    let counter = Arc::clone(&fired);
    std::panic::set_hook(Box::new(move |_| {
        counter.fetch_add(1, Ordering::SeqCst);
    }));
    let drops = Arc::new(AtomicUsize::new(0));
    let kernel = kernel_with_blocked_and_unstarted(
        Guard(Arc::clone(&drops)),
        Guard(Arc::clone(&drops)),
        Arc::new(AtomicBool::new(false)),
    );
    drop(kernel);
    std::panic::set_hook(previous);
    assert_eq!(drops.load(Ordering::SeqCst), 2, "both guards dropped");
    assert_eq!(
        fired.load(Ordering::SeqCst),
        0,
        "teardown ran the panic hook"
    );
}
