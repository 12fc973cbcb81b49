//! The one host-side mailbox: the FIFO behind every provided interface
//! on the thread and executor backends (paper §4.1: "a FIFO data
//! structure, we have named mailbox"; a required interface is a clone
//! of this handle).
//!
//! The queue is a mutex around a pre-sized `VecDeque`; its length and
//! the payload bytes it holds are mirrored into two atomics, written
//! under the queue lock and read without it. So an empty mailbox is
//! found empty ([`Fifo::try_pop`], [`Fifo::len`]) on one load — which
//! is all the poll of the introspection inbox at every communication
//! point costs while nobody is observing — and depth gauges never
//! contend with the data path.
//!
//! Blocking does not live here: a FIFO knows the [`owner`] of its
//! receiving component, and the sender's transport wakes that owner
//! *after* the push (push-then-wake), while the owner always re-checks
//! its FIFOs before parking (check-then-park). The length is part of
//! that handshake, hence `SeqCst` on the push side and on every load:
//! a sender that finds the receiver not yet waiting (so leaves it
//! alone) has stored the new length before looking, a receiver
//! publishes that it runs before it looks at the length, and of two
//! such store-then-load pairs in one total order at least one sees the
//! other's store.
//!
//! [`owner`]: Fifo::owner

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::message::Message;

/// Initial capacity, allocated once. The executor's cooperative send
/// yield bounds each sender's streak to 32, so a few concurrent senders
/// (the pipeline's fan-in collectors see up to three) stay below this
/// and the warm hot path never regrows the deque — the zero-allocation
/// check (`repro alloc-check`) counts on it.
const INITIAL_CAPACITY: usize = 128;

struct Queue {
    msgs: VecDeque<Message>,
    /// Data-payload bytes of `msgs`.
    bytes: u64,
}

struct Inner {
    queue: Mutex<Queue>,
    /// `queue.msgs.len()` as of the last release of the queue lock.
    len: AtomicUsize,
    /// `queue.bytes` likewise (the observation layer's dynamic-memory
    /// gauge).
    bytes: AtomicU64,
    owner: usize,
}

impl Inner {
    /// Mirror the queue's gauges; call before releasing its lock.
    /// `len_order` is `SeqCst` after a push (see the module docs) and
    /// may be `Relaxed` after a pop: the popping side is the one that
    /// reads the length to decide whether to park.
    fn publish(&self, q: &Queue, len_order: Ordering) {
        self.len.store(q.msgs.len(), len_order);
        self.bytes.store(q.bytes, Ordering::Relaxed);
    }
}

/// A mailbox: many senders, one logical receiver (the owning
/// component). Clones share the queue.
///
/// ```
/// use embera::{runtime::Fifo, Message};
/// use bytes::Bytes;
///
/// let mb = Fifo::new(0);
/// mb.push(Message::Data(Bytes::from_static(b"hello")));
/// assert_eq!((mb.len(), mb.queued_bytes()), (1, 5));
/// let Some(Message::Data(payload)) = mb.try_pop() else { unreachable!() };
/// assert_eq!(&payload[..], b"hello");
/// ```
#[derive(Clone)]
pub struct Fifo {
    inner: Arc<Inner>,
}

impl Fifo {
    /// An empty mailbox received by component `owner` (its index in the
    /// application's deployment order).
    pub fn new(owner: usize) -> Fifo {
        Fifo {
            inner: Arc::new(Inner {
                queue: Mutex::new(Queue {
                    msgs: VecDeque::with_capacity(INITIAL_CAPACITY),
                    bytes: 0,
                }),
                len: AtomicUsize::new(0),
                bytes: AtomicU64::new(0),
                owner,
            }),
        }
    }

    /// The component to wake after a push.
    pub fn owner(&self) -> usize {
        self.inner.owner
    }

    /// Enqueue (asynchronous and unbounded, as in the paper).
    pub fn push(&self, msg: Message) {
        let mut q = self.inner.queue.lock();
        q.bytes += msg.data_len() as u64;
        q.msgs.push_back(msg);
        self.inner.publish(&q, Ordering::SeqCst);
    }

    /// Non-blocking receive. This is what polls: an empty mailbox
    /// costs one load.
    pub fn try_pop(&self) -> Option<Message> {
        if self.is_empty() {
            return None;
        }
        let mut q = self.inner.queue.lock();
        let msg = q.msgs.pop_front()?;
        q.bytes -= msg.data_len() as u64;
        self.inner.publish(&q, Ordering::Relaxed);
        Some(msg)
    }

    /// Drain up to `max` queued messages into `out` (appended in FIFO
    /// order) under one lock acquisition. Returns how many were
    /// appended; never blocks.
    pub fn pop_many(&self, out: &mut Vec<Message>, max: usize) -> usize {
        // No look at the length first: this is the drain after a wake,
        // there usually is something, and a load ahead of the lock
        // would fetch the sender's cache line twice (shared, then
        // exclusive).
        let start = out.len();
        let mut q = self.inner.queue.lock();
        let n = max.min(q.msgs.len());
        if n > 0 {
            out.extend(q.msgs.drain(..n));
            q.bytes -= out[start..]
                .iter()
                .map(|m| m.data_len() as u64)
                .sum::<u64>();
            self.inner.publish(&q, Ordering::Relaxed);
        }
        n
    }

    /// Bytes of data payload currently queued.
    pub fn queued_bytes(&self) -> u64 {
        self.inner.bytes.load(Ordering::Relaxed)
    }

    /// Messages currently queued. Reads the mirrored length: the queue
    /// lock is not taken.
    pub fn len(&self) -> usize {
        self.inner.len.load(Ordering::SeqCst)
    }

    /// Whether the mailbox is empty (same load as [`Fifo::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn payload(m: Message) -> Bytes {
        match m {
            Message::Data(b) => b,
            other => panic!("expected data, got {other:?}"),
        }
    }

    #[test]
    fn fifo_order_and_byte_gauge() {
        let mb = Fifo::new(3);
        for v in [b"1" as &'static [u8], b"22", b"333"] {
            mb.push(Message::Data(Bytes::from_static(v)));
        }
        assert_eq!((mb.owner(), mb.len(), mb.queued_bytes()), (3, 3, 6));
        assert_eq!(&payload(mb.try_pop().unwrap())[..], b"1");
        assert_eq!(mb.queued_bytes(), 5);
        assert_eq!(&payload(mb.try_pop().unwrap())[..], b"22");
        assert_eq!(&payload(mb.try_pop().unwrap())[..], b"333");
        assert!(mb.try_pop().is_none());
        assert!(mb.is_empty());
    }

    #[test]
    fn pop_many_drains_in_fifo_order_and_respects_max() {
        let mb = Fifo::new(0);
        for v in [b"1" as &[u8], b"22", b"333", b"4444"] {
            mb.push(Message::Data(Bytes::copy_from_slice(v)));
        }
        assert_eq!(mb.queued_bytes(), 10);
        let mut out = Vec::new();
        assert_eq!(mb.pop_many(&mut out, 3), 3);
        assert_eq!(out.len(), 3);
        assert_eq!(&payload(out[0].clone())[..], b"1");
        assert_eq!(&payload(out[2].clone())[..], b"333");
        assert_eq!(mb.queued_bytes(), 4);
        // Appends after existing contents, drains the remainder.
        assert_eq!(mb.pop_many(&mut out, 16), 1);
        assert_eq!(&payload(out[3].clone())[..], b"4444");
        assert_eq!(mb.queued_bytes(), 0);
        assert_eq!(mb.pop_many(&mut out, 16), 0);
        assert_eq!(mb.pop_many(&mut out, 0), 0);
    }

    #[test]
    fn length_agrees_with_the_queue_under_concurrent_producers() {
        const PER_PRODUCER: usize = 2_000;
        let mb = Fifo::new(0);
        let start = std::sync::Barrier::new(5);
        let popped = std::thread::scope(|s| {
            for p in 0..4u8 {
                let (tx, start) = (mb.clone(), &start);
                s.spawn(move || {
                    start.wait();
                    for _ in 0..PER_PRODUCER {
                        tx.push(Message::Data(Bytes::copy_from_slice(&[p; 3])));
                    }
                });
            }
            // The consumer, racing the producers. It is the only one
            // popping, so what the length says is there stays there
            // until it pops it — one at a time or in bulk.
            start.wait();
            let (mut popped, mut out) = (0, Vec::new());
            for round in 0.. {
                if popped == 4 * PER_PRODUCER {
                    break;
                }
                let seen = mb.len();
                if seen == 0 {
                    continue;
                }
                assert!(!mb.is_empty());
                if round % 2 == 0 {
                    assert!(mb.try_pop().is_some());
                    popped += 1;
                } else {
                    out.clear();
                    assert_eq!(mb.pop_many(&mut out, seen), seen);
                    popped += seen;
                }
                assert_eq!(mb.queued_bytes() % 3, 0);
            }
            popped
        });
        assert_eq!(popped, 4 * PER_PRODUCER);
        // Quiescent: the mirrors are exact.
        assert_eq!((mb.len(), mb.is_empty(), mb.queued_bytes()), (0, true, 0));
        assert!(mb.try_pop().is_none());
        mb.push(Message::Data(Bytes::from_static(b"x")));
        assert_eq!((mb.len(), mb.is_empty(), mb.queued_bytes()), (1, false, 1));
    }

    #[test]
    fn concurrent_producers_lose_no_messages() {
        let mb = Fifo::new(0);
        let mut handles = Vec::new();
        for p in 0..4u8 {
            let tx = mb.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..250u32 {
                    tx.push(Message::Data(Bytes::copy_from_slice(&[p, i as u8])));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut n = 0;
        while mb.try_pop().is_some() {
            n += 1;
        }
        assert_eq!(n, 1000);
    }
}
