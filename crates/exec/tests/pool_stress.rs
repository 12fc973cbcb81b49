//! Stress of the sharded [`BufferPool`]: four flows hammer
//! `take_from` / `take_with` / `recycle` at once and pass buffers round
//! a ring, so that most buffers are recycled by another flow than took
//! them and the shards must keep trading. Once on four threads, once on
//! four components of an [`ExecPlatform`] with two workers, where a
//! fiber that parks in the exchange may wake up on the other worker —
//! on another shard than it last used, and with the transport's own
//! take-and-recycle (the send primitive's copy) in the mix.
//!
//! What must hold: no buffer is ever in two hands (each is stamped by
//! its holder over its whole length, and the stamp is checked before
//! the buffer is let go), none is lost or rejected, and at the end
//! every buffer that was ever made is back on the free list:
//! `prewarmed + grown == free`, `dropped == 0`. Iteration counts scale
//! up under `--release` (the CI stress configuration).

use std::collections::VecDeque;
use std::sync::mpsc;

use bytes::Bytes;
use embera::behavior::behavior_fn;
use embera::{AppBuilder, BufferPool, ComponentSpec, Platform, RunningApp};
use embera_exec::ExecPlatform;

const ROUNDS: u64 = if cfg!(debug_assertions) {
    5_000
} else {
    200_000
};
const FLOWS: u64 = 4;
const BUF_LEN: usize = 64;
const PREWARMED: u64 = 8;
/// Buffers a flow keeps in hand before it recycles the oldest.
const HELD: usize = 5;

fn stamp_into(dst: &mut [u8], stamp: u64) {
    for (byte, of_stamp) in dst.iter_mut().zip(stamp.to_le_bytes().into_iter().cycle()) {
        *byte = of_stamp;
    }
}

/// The stamp `buf` carries; panics if it is not one stamp throughout,
/// which is what a buffer held by two flows at once would look like.
fn stamp_of(buf: &[u8]) -> u64 {
    let stamp = u64::from_le_bytes(buf[..8].try_into().expect("at least a stamp long"));
    let mut expected = [0u8; BUF_LEN];
    stamp_into(&mut expected, stamp);
    assert_eq!(buf, &expected[..buf.len()], "buffer written by two holders");
    stamp
}

/// One flow's `ROUNDS`: take a stamped buffer (alternating the two take
/// paths, lengths 8..=64), hold a few, every third round pass the
/// oldest to the next flow and recycle what the previous one passed.
/// `exchange` is that hand-over and may block.
fn hammer(pool: &BufferPool, flow: u64, mut exchange: impl FnMut(Bytes) -> Bytes) {
    let mut held: VecDeque<(Bytes, u64)> = VecDeque::with_capacity(HELD + 1);
    let release = |(buf, stamp): (Bytes, u64)| {
        assert_eq!(
            stamp_of(&buf),
            stamp,
            "flow {flow}'s buffer changed in its hands"
        );
        buf
    };
    for round in 0..ROUNDS {
        let stamp = (flow << 48) | round;
        let len = 8 + (round % 57) as usize;
        let buf = if round % 2 == 0 {
            let mut staged = [0u8; BUF_LEN];
            stamp_into(&mut staged[..len], stamp);
            pool.take_from(&staged[..len])
        } else {
            pool.take_with(len, |dst| stamp_into(dst, stamp))
        };
        assert_eq!(buf.len(), len);
        held.push_back((buf, stamp));
        if round % 3 == 0 {
            let passed = release(held.pop_front().expect("just pushed"));
            let received = exchange(passed);
            let from = stamp_of(&received) >> 48;
            assert_eq!(from, (flow + FLOWS - 1) % FLOWS, "the ring's previous flow");
            assert!(pool.recycle(received));
        }
        if held.len() > HELD {
            assert!(pool.recycle(release(held.pop_front().expect("non-empty"))));
        }
    }
    for entry in held {
        assert!(pool.recycle(release(entry)));
    }
}

fn assert_conserved(pool: &BufferPool) {
    let stats = pool.stats();
    assert_eq!(stats.dropped, 0, "{stats:?}");
    assert_eq!(
        stats.free,
        PREWARMED + stats.grown,
        "a buffer was lost: {stats:?}"
    );
    // Far fewer than were taken: the shards traded instead of growing.
    let in_hands = FLOWS * (HELD as u64 + 4);
    assert!(stats.grown <= in_hands, "{stats:?}");
}

#[test]
fn four_threads_conserve_every_buffer() {
    let pool = BufferPool::new(BUF_LEN);
    pool.prewarm(PREWARMED as usize);
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..FLOWS).map(|_| mpsc::channel()).unzip();
    std::thread::scope(|s| {
        // Flow i sends into channel i+1 and receives from its own.
        let mut senders: VecDeque<mpsc::Sender<Bytes>> = senders.into();
        senders.rotate_left(1);
        for (flow, (tx, rx)) in (0..).zip(senders.into_iter().zip(receivers)) {
            let pool = &pool;
            s.spawn(move || {
                hammer(pool, flow, |passed| {
                    tx.send(passed).expect("the next flow is alive");
                    rx.recv().expect("the previous flow is alive")
                })
            });
        }
    });
    assert_conserved(&pool);
}

#[test]
fn four_fibers_on_two_workers_conserve_every_buffer() {
    let pool = BufferPool::new(BUF_LEN);
    pool.prewarm(PREWARMED as usize);
    let mut app = AppBuilder::new("pool-ring");
    app.with_buffer_pool(pool.clone());
    for flow in 0..FLOWS {
        let behavior = behavior_fn(move |ctx| {
            let pool = ctx.payload_pool().expect("deployed with a pool");
            hammer(&pool, flow, |passed| {
                ctx.send("next", passed).expect("send");
                ctx.recv("prev").expect("recv")
            });
            Ok(())
        });
        let spec = ComponentSpec::new(format!("flow{flow}"), behavior);
        app.add(spec.with_provided("prev").with_required("next"));
    }
    for flow in 0..FLOWS {
        let next = format!("flow{}", (flow + 1) % FLOWS);
        app.connect(
            (format!("flow{flow}").as_str(), "next"),
            (next.as_str(), "prev"),
        );
    }
    let spec = app.build().expect("valid ring");
    let running = ExecPlatform::with_workers(2).deploy(spec).expect("deploy");
    running.wait().expect("every flow ran to its end");
    assert_conserved(&pool);
}
