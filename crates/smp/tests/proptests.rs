//! Property-based tests of the mailbox shared by the SMP and executor
//! backends ([`embera::runtime::Fifo`]): FIFO per producer and no
//! message loss under concurrent producers.

use bytes::Bytes;
use proptest::prelude::*;

use embera::runtime::Fifo;
use embera::Message;

fn run_producers(per_producer: Vec<u16>) -> Vec<(u8, u16)> {
    let mb = Fifo::new(0);
    let mut handles = Vec::new();
    for (p, count) in per_producer.iter().enumerate() {
        let tx = mb.clone();
        let count = *count;
        handles.push(std::thread::spawn(move || {
            for i in 0..count {
                let mut payload = vec![p as u8];
                payload.extend_from_slice(&i.to_le_bytes());
                tx.push(Message::Data(Bytes::from(payload)));
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let mut out = Vec::new();
    while let Some(Message::Data(b)) = mb.try_pop() {
        out.push((b[0], u16::from_le_bytes([b[1], b[2]])));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn no_loss_and_per_producer_fifo(
        counts in prop::collection::vec(0u16..200, 1..5),
    ) {
        let drained = run_producers(counts.clone());
        let expected_total: usize = counts.iter().map(|&c| c as usize).sum();
        prop_assert_eq!(drained.len(), expected_total, "no message may be lost");
        // Per-producer order must be preserved.
        for (p, &count) in counts.iter().enumerate() {
            let seq: Vec<u16> = drained
                .iter()
                .filter(|(pp, _)| *pp == p as u8)
                .map(|(_, i)| *i)
                .collect();
            prop_assert_eq!(seq, (0..count).collect::<Vec<_>>());
        }
    }
}
