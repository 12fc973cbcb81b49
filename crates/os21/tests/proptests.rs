//! Property-based tests of the RTOS primitives under arbitrary
//! schedules.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use mpsoc_sim::Machine;
use os21::{Rtos, Semaphore};
use sim_kernel::Kernel;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn semaphore_wakes_once_per_signal_in_signal_order(
        delays in prop::collection::vec(0u64..200, 1..40),
    ) {
        let mut kernel = Kernel::new();
        let rtos = Rtos::new(Machine::sti7200());
        let sem = Semaphore::with_event(kernel.alloc_event(), 0);
        let k = delays.len();
        let woke = Arc::new(Mutex::new(Vec::new()));
        let (s, w) = (sem.clone(), Arc::clone(&woke));
        rtos.spawn_task(&mut kernel, 0, "waiter", 0, move |t| {
            for _ in 0..k {
                s.wait(&t);
                w.lock().unwrap().push(t.now_ns());
            }
        });
        for (i, d) in delays.iter().copied().enumerate() {
            let s = sem.clone();
            rtos.spawn_task(&mut kernel, 1 + i % 4, format!("signaler{i}"), 0, move |t| {
                t.delay(d);
                s.signal(&t);
            });
        }
        kernel.run().unwrap();
        prop_assert_eq!(sem.count(), 0);
        // The j-th wake-up happens at the j-th smallest signal time.
        let mut signal_times = delays;
        signal_times.sort_unstable();
        prop_assert_eq!(woke.lock().unwrap().clone(), signal_times);
    }

    #[test]
    fn task_time_never_exceeds_wall_time(
        ops in prop::collection::vec(1u64..100_000, 1..10),
        sleeps in prop::collection::vec(0u64..10_000, 1..10),
    ) {
        let mut kernel = Kernel::new();
        let rtos = Rtos::new(Machine::sti7200());
        let spent = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&spent);
        rtos.spawn_task(&mut kernel, 1, "t", 0, move |t| {
            for (o, s) in ops.iter().zip(sleeps.iter()) {
                t.compute(mpsoc_sim::ComputeClass::Dsp, *o);
                t.delay(*s);
            }
            seen.store(t.task_time(), Ordering::SeqCst);
        });
        kernel.run().unwrap();
        let task = spent.load(Ordering::SeqCst);
        prop_assert!(task <= kernel.now(), "task {} wall {}", task, kernel.now());
        prop_assert!(task > 0);
    }
}
