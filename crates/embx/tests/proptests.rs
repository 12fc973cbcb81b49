//! Property-based tests of EMBX: payload byte-exactness through a
//! distributed object and cost-model monotonicity.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use embx::{EmbxCostConfig, Transport};
use mpsoc_sim::Machine;
use os21::Rtos;
use sim_kernel::Kernel;

fn round_trip(payloads: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
    let machine = Machine::sti7200();
    let mut kernel = Kernel::new();
    let rtos = Rtos::new(machine.clone());
    let tp = Transport::open(machine.clone());
    let obj = tp.create_object(&kernel, "o", 1).unwrap();
    let sdram = machine.memory_map().sdram();
    let lmi1 = machine.memory_map().local_of(1).unwrap();

    let n = payloads.len();
    let tx = obj.clone();
    rtos.spawn_task(&mut kernel, 0, "sender", 0, move |t| {
        for p in payloads {
            tx.send(&t, sdram, p);
        }
    });
    let received = Arc::new(Mutex::new(Vec::new()));
    let r = Arc::clone(&received);
    rtos.spawn_task(&mut kernel, 1, "receiver", 0, move |t| {
        for _ in 0..n {
            let (data, _) = obj.receive(&t, lmi1);
            r.lock().unwrap().push(data);
        }
    });
    kernel.run().unwrap();
    let out = received.lock().unwrap().clone();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn payloads_arrive_intact_and_in_order(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..4096), 1..12)
    ) {
        let got = round_trip(payloads.clone());
        prop_assert_eq!(got, payloads);
    }

    #[test]
    fn send_cost_is_monotone_in_size(a in 0u64..300_000, b in 0u64..300_000) {
        let cfg = EmbxCostConfig::default();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(cfg.send_sw_ops(lo) <= cfg.send_sw_ops(hi));
        prop_assert!(cfg.recv_sw_ops(lo) <= cfg.recv_sw_ops(hi));
    }

    #[test]
    fn extra_chunks_consistent_with_knee(bytes in 0u64..1_000_000) {
        let cfg = EmbxCostConfig::default();
        let chunks = cfg.extra_chunks(bytes);
        if bytes <= cfg.knee_bytes() {
            prop_assert_eq!(chunks, 0);
        } else {
            let expect = (bytes - cfg.knee_bytes()).div_ceil(cfg.slot_bytes);
            prop_assert_eq!(chunks, expect);
        }
    }
}
