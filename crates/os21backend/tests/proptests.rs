//! Property-based tests of the MPSoC backend's distributed objects:
//! payloads cross from the ST40 to an ST231 byte-exact and in order,
//! and what a transfer is charged never falls as the message grows.

use std::sync::{Arc, Mutex};

use bytes::Bytes;
use proptest::prelude::*;

use embera::behavior::behavior_fn;
use embera::{AppBuilder, ComponentSpec, Platform, RunningApp};
use embera_os21::Os21Platform;

/// What [`round_trip`] saw: the payloads `Dst` received, in receive
/// order, and the simulated ns charged to all sends and all receives.
struct Trip {
    received: Vec<Vec<u8>>,
    send_ns: u64,
    recv_ns: u64,
}

/// Send `payloads` from `Src` (ST40) to `Dst` (ST231), each on a
/// machine of its own.
fn round_trip(payloads: Vec<Vec<u8>>) -> Trip {
    let n = payloads.len();
    let received = Arc::new(Mutex::new(Vec::new()));
    let mut app = AppBuilder::new("round-trip");
    app.add(
        ComponentSpec::new(
            "Src",
            behavior_fn(move |ctx| {
                for p in &payloads {
                    ctx.send("out", Bytes::copy_from_slice(p))?;
                }
                Ok(())
            }),
        )
        .with_required("out")
        .on_cpu(0),
    );
    let r = Arc::clone(&received);
    app.add(
        ComponentSpec::new(
            "Dst",
            behavior_fn(move |ctx| {
                for _ in 0..n {
                    let payload = ctx.recv("in")?;
                    r.lock().unwrap().push(payload.to_vec());
                }
                Ok(())
            }),
        )
        .with_provided("in")
        .on_cpu(1),
    );
    app.connect(("Src", "out"), ("Dst", "in"));
    let report = Os21Platform::three_cpu()
        .deploy(app.build().unwrap())
        .unwrap()
        .wait()
        .unwrap();
    let received = received.lock().unwrap().clone();
    let middleware = |name| &report.component(name).unwrap().middleware;
    Trip {
        received,
        send_ns: middleware("Src").send.total_ns,
        recv_ns: middleware("Dst").recv.total_ns,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn payloads_arrive_intact_and_in_order(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..4096), 1..12)
    ) {
        let got = round_trip(payloads.clone()).received;
        prop_assert_eq!(got, payloads);
    }

    #[test]
    fn send_cost_is_monotone_in_size(a in 0usize..300_000, b in 0usize..300_000) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let (lo, hi) = (round_trip(vec![vec![0; lo]]), round_trip(vec![vec![0; hi]]));
        prop_assert!(lo.send_ns <= hi.send_ns);
        prop_assert!(lo.recv_ns <= hi.recv_ns);
    }
}
