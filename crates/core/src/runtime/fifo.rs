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
//! The owning transport drains in bulk and keeps what the behavior has
//! not asked for yet in a private stash. Those messages are still
//! queued as far as anybody watching the component is concerned, so
//! the drain ([`Fifo::pop_batch`]) lets the owner publish what it is
//! about to stash *before* the shorter length becomes visible: a reader
//! that adds the length to the owner's stash gauge
//! (`ComponentStats::stashed`), in that order, never finds a waiting
//! message in neither.
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
use std::sync::Arc;

use crate::message::Message;
use crate::sync::{AtomicU64, AtomicUsize, Mutex, Ordering};

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
    /// `Release` after a pop: the popping side is the one that reads
    /// the length to decide whether to park, and what it said it moved
    /// to its stash is visible to whoever sees the length drop (see
    /// `pop_batch`).
    fn publish(&self, q: &Queue, len_order: Ordering) {
        self.bytes.store(q.bytes, Ordering::Release);
        self.len.store(q.msgs.len(), len_order);
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
        self.inner.publish(&q, Ordering::Release);
        Some(msg)
    }

    /// Drain up to `max` queued messages into `out` (appended in FIFO
    /// order) under one lock acquisition, for an owner that hands the
    /// first drained message to its behavior at once and stashes the
    /// rest. Returns how many were appended; never blocks.
    /// `stashing(messages, payload bytes)` is called for that rest
    /// (when there is one) while the queue is still locked, so what it
    /// stores is visible — `Release` on the length, `Acquire` in
    /// [`Fifo::len`] and [`Fifo::queued_bytes`] — to whoever sees the
    /// queue shorter.
    pub(super) fn pop_batch(
        &self,
        out: &mut Vec<Message>,
        max: usize,
        stashing: impl FnOnce(u64, u64),
    ) -> usize {
        // No look at the length first: this is the drain after a wake,
        // there usually is something, and a load ahead of the lock
        // would fetch the sender's cache line twice (shared, then
        // exclusive).
        let start = out.len();
        let mut q = self.inner.queue.lock();
        let n = max.min(q.msgs.len());
        if n > 0 {
            out.extend(q.msgs.drain(..n));
            let first = out[start].data_len() as u64;
            let rest: u64 = out[start + 1..].iter().map(|m| m.data_len() as u64).sum();
            q.bytes -= first + rest;
            if n > 1 {
                stashing(n as u64 - 1, rest);
            }
            self.inner.publish(&q, Ordering::Release);
        }
        n
    }

    /// Bytes of data payload currently queued.
    pub fn queued_bytes(&self) -> u64 {
        self.inner.bytes.load(Ordering::Acquire)
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
        assert_eq!(mb.pop_batch(&mut out, 3, |_, _| {}), 3);
        assert_eq!(out.len(), 3);
        assert_eq!(&payload(out[0].clone())[..], b"1");
        assert_eq!(&payload(out[2].clone())[..], b"333");
        assert_eq!(mb.queued_bytes(), 4);
        // Appends after existing contents, drains the remainder.
        assert_eq!(mb.pop_batch(&mut out, 16, |_, _| {}), 1);
        assert_eq!(&payload(out[3].clone())[..], b"4444");
        assert_eq!(mb.queued_bytes(), 0);
        assert_eq!(mb.pop_batch(&mut out, 16, |_, _| {}), 0);
        assert_eq!(mb.pop_batch(&mut out, 0, |_, _| {}), 0);
    }

    #[test]
    fn a_batch_tells_the_owner_what_it_is_about_to_stash() {
        let mb = Fifo::new(0);
        for v in [b"1" as &[u8], b"22", b"333", b"4444"] {
            mb.push(Message::Data(Bytes::copy_from_slice(v)));
        }
        let (mut out, mut stashing) = (Vec::new(), Vec::new());
        // Three drained: one for the behavior, "22" and "333" stashed.
        assert_eq!(
            mb.pop_batch(&mut out, 3, |msgs, bytes| stashing.push((msgs, bytes))),
            3
        );
        assert_eq!((mb.len(), mb.queued_bytes()), (1, 4));
        // A batch of one stashes nothing, an empty drain neither.
        assert_eq!(
            mb.pop_batch(&mut out, 3, |msgs, bytes| stashing.push((msgs, bytes))),
            1
        );
        assert_eq!(
            mb.pop_batch(&mut out, 3, |msgs, bytes| stashing.push((msgs, bytes))),
            0
        );
        assert_eq!(stashing, [(2, 5)]);
    }

    #[test]
    fn a_message_that_waits_throughout_a_read_is_counted() {
        // A producer, the owner draining in batches and handing its
        // stash out, and a reader adding the mailbox's length to the
        // owner's stash gauge, the way `HostTransport::observe` does.
        // Whatever was pushed before the read began and not handed out
        // by its end sat in the queue or the stash all along, so the
        // sum has to count it — a drain, which moves messages from the
        // one to the other, must not open a window in which they are in
        // neither.
        const MESSAGES: usize = 100_000;
        let mb = Fifo::new(0);
        let stats = crate::ComponentStats::new("owner", &["in".to_string()], &[]);
        // Completed pushes / hand-outs announced (before they happen).
        let (pushed, received) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let start = std::sync::Barrier::new(3);
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                for _ in 0..MESSAGES {
                    while mb.len() > 48 {
                        std::hint::spin_loop();
                    }
                    mb.push(Message::Data(Bytes::from_static(b"xyz")));
                    pushed.fetch_add(1, Ordering::SeqCst);
                }
            });
            s.spawn(|| {
                start.wait();
                let mut out = Vec::new();
                while received.load(Ordering::SeqCst) < MESSAGES {
                    if mb.is_empty() {
                        std::hint::spin_loop();
                        continue;
                    }
                    // The first of a batch leaves with the drain.
                    received.fetch_add(1, Ordering::SeqCst);
                    out.clear();
                    let stashed = mb.pop_batch(&mut out, 16, |m, b| stats.stash(m, b)) - 1;
                    for _ in 0..stashed {
                        received.fetch_add(1, Ordering::SeqCst);
                        stats.unstash(3);
                    }
                }
            });
            start.wait();
            let mut reads = 0u64;
            while received.load(Ordering::SeqCst) < MESSAGES {
                let before = pushed.load(Ordering::SeqCst);
                let (queued, queued_bytes) = (mb.len() as u64, mb.queued_bytes());
                let stashed = stats.stashed();
                let waiting = before.saturating_sub(received.load(Ordering::SeqCst)) as u64;
                let (msgs, bytes) = (queued + stashed.messages, queued_bytes + stashed.bytes);
                assert!(msgs >= waiting, "{msgs} counted, {waiting} waited");
                assert!(
                    bytes >= 3 * waiting,
                    "{bytes} bytes counted, {waiting} waited"
                );
                reads += 1;
            }
            assert!(reads > 0);
        });
        let stashed = stats.stashed();
        assert_eq!((mb.len(), stashed.messages, stashed.bytes), (0, 0, 0));
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
                    assert_eq!(mb.pop_batch(&mut out, seen, |_, _| {}), seen);
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
