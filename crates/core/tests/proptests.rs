//! Property-based tests of the observation statistics invariants.

use proptest::prelude::*;

use embera::ComponentStats;

#[derive(Debug, Clone)]
enum Op {
    Send { iface: usize, bytes: u64, dur: u64 },
    Recv { iface: usize, bytes: u64, dur: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..3, 0u64..1_000_000, 0u64..10_000).prop_map(|(iface, bytes, dur)| Op::Send {
            iface,
            bytes,
            dur
        }),
        (0usize..3, 0u64..1_000_000, 0u64..10_000).prop_map(|(iface, bytes, dur)| Op::Recv {
            iface,
            bytes,
            dur
        }),
    ]
}

proptest! {
    #[test]
    fn counters_and_timings_are_conserved(ops in prop::collection::vec(op_strategy(), 0..500)) {
        let ifaces = ["a".to_string(), "b".to_string(), "c".to_string()];
        let stats = ComponentStats::new("c", &ifaces[..2], &ifaces[2..]);
        let mut sends = 0u64;
        let mut recvs = 0u64;
        let mut bytes_sent = 0u64;
        let mut send_ns = 0u64;
        let mut max_send = 0u64;
        for op in &ops {
            match *op {
                Op::Send { iface, bytes, dur } => {
                    stats.record_send(&ifaces[iface], bytes, dur);
                    sends += 1;
                    bytes_sent += bytes;
                    send_ns += dur;
                    max_send = max_send.max(dur);
                }
                Op::Recv { iface, bytes, dur } => {
                    stats.record_receive(&ifaces[iface], bytes, dur);
                    recvs += 1;
                }
            }
        }
        let app = stats.app_stats();
        prop_assert_eq!(app.total_sends, sends);
        prop_assert_eq!(app.total_receives, recvs);
        // Per-interface counters sum to totals.
        let sum_s: u64 = app.interfaces.iter().map(|e| e.sends).sum();
        let sum_r: u64 = app.interfaces.iter().map(|e| e.receives).sum();
        prop_assert_eq!(sum_s, sends);
        prop_assert_eq!(sum_r, recvs);

        let mw = stats.middleware_stats();
        prop_assert_eq!(mw.send.count, sends);
        prop_assert_eq!(mw.send.total_ns, send_ns);
        prop_assert_eq!(mw.send.max_ns, max_send);
        prop_assert_eq!(mw.bytes_sent, bytes_sent);
        prop_assert!(mw.send.min_ns <= mw.send.max_ns);
    }

    #[test]
    fn exec_time_is_consistent_for_any_timestamps(
        start in 0u64..1_000_000,
        run_for in 0u64..1_000_000,
        observe_after in 0u64..2_000_000,
    ) {
        let stats = ComponentStats::new("c", &[], &[]);
        stats.mark_started(start);
        let os_running = stats.os_stats(start + observe_after);
        prop_assert_eq!(os_running.exec_time_ns, observe_after);
        stats.mark_finished(start + run_for);
        let os_done = stats.os_stats(start + observe_after + 999);
        prop_assert_eq!(os_done.exec_time_ns, run_for);
    }
}
