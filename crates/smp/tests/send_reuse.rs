//! Stress for the unpooled send copy of the thread backend: a send
//! writes into a copy it sent before once the receiver has dropped it,
//! so a payload the receiver still holds must never change under it.
//!
//! A producer sends messages of mixed sizes, each carrying its sequence
//! number and a checksum of its body; the receiver keeps a window of
//! payloads whose size moves at random (up to well past what the sender
//! may keep for it) and checks every payload when it arrives and again
//! when it lets go of it. CI runs this once as is and once pinned to one
//! CPU, where each hand-off is a context switch between the two threads.

use std::collections::VecDeque;

use bytes::Bytes;
use embera::behavior::behavior_fn;
use embera::{AppBuilder, ComponentSpec, EmberaError, Platform, RunningApp};
use embera_smp::SmpPlatform;

const MESSAGES: u32 = if cfg!(debug_assertions) {
    20_000
} else {
    400_000
};
/// Largest payload, bytes; sizes are drawn from `HEADER..=MAX_LEN`.
const MAX_LEN: usize = 2_048;
/// Sequence number, then the checksum of the body after the header.
const HEADER: usize = 12;
/// Largest window of payloads the receiver holds.
const MAX_WINDOW: usize = 48;
/// The receiver acknowledges every `ACK_EVERY` messages, and the
/// producer runs at most `CREDIT` acknowledgements ahead, so the
/// mailbox stays small.
const ACK_EVERY: u32 = 64;
const CREDIT: u32 = 4;

/// xorshift64*: the sizes, bodies and windows of one run.
fn next(state: &mut u64) -> u64 {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn message(seq: u32, rng: &mut u64) -> Bytes {
    let len = HEADER + next(rng) as usize % (MAX_LEN - HEADER + 1);
    let mut buf = vec![0u8; len];
    let fill = next(rng).to_le_bytes();
    for (i, b) in buf[HEADER..].iter_mut().enumerate() {
        *b = fill[i % 8] ^ i as u8;
    }
    let sum = fnv1a(&buf[HEADER..]);
    buf[0..4].copy_from_slice(&seq.to_le_bytes());
    buf[4..HEADER].copy_from_slice(&sum.to_le_bytes());
    Bytes::from(buf)
}

/// The payload's sequence number, once its checksum holds.
fn checked(payload: &Bytes, when: &str) -> u32 {
    let seq = u32::from_le_bytes(payload[0..4].try_into().unwrap());
    let sum = u64::from_le_bytes(payload[4..HEADER].try_into().unwrap());
    assert_eq!(
        fnv1a(&payload[HEADER..]),
        sum,
        "message {seq} changed {when}"
    );
    seq
}

#[test]
fn a_held_payload_never_changes_under_its_receiver() {
    let mut app = AppBuilder::new("send-reuse");
    app.add(
        ComponentSpec::new(
            "producer",
            behavior_fn(|ctx| {
                let mut rng = 0x9E37_79B9_7F4A_7C15;
                for seq in 0..MESSAGES {
                    ctx.send("out", message(seq, &mut rng))?;
                    if (seq + 1) % ACK_EVERY == 0 && seq >= CREDIT * ACK_EVERY {
                        ctx.recv("ack")?;
                    }
                }
                Ok(())
            }),
        )
        .with_required("out")
        .with_provided("ack"),
    );
    app.add(
        ComponentSpec::new(
            "consumer",
            behavior_fn(|ctx| {
                let mut rng = 0xD1B5_4A32_D192_ED03;
                let mut window = VecDeque::with_capacity(MAX_WINDOW + 1);
                let mut target = 0;
                for expected in 0..MESSAGES {
                    let payload = ctx.recv("in")?;
                    assert_eq!(checked(&payload, "in flight"), expected);
                    window.push_back(payload);
                    if expected % 64 == 0 {
                        target = next(&mut rng) as usize % (MAX_WINDOW + 1);
                    }
                    while window.len() > target {
                        let payload = window.pop_front().expect("a held payload");
                        checked(&payload, "while held");
                    }
                    if (expected + 1) % ACK_EVERY == 0 {
                        ctx.send("ack", Bytes::new())?;
                    }
                }
                for payload in &window {
                    checked(payload, "while held");
                }
                Ok::<(), EmberaError>(())
            }),
        )
        .with_provided("in")
        .with_required("ack"),
    );
    app.connect(("producer", "out"), ("consumer", "in"));
    app.connect(("consumer", "ack"), ("producer", "ack"));
    let report = SmpPlatform::new()
        .deploy(app.build().expect("a valid application"))
        .expect("deploys")
        .wait()
        .expect("runs to completion");
    assert_eq!(
        report.component("consumer").unwrap().app.total_receives,
        u64::from(MESSAGES)
    );
}
