//! The one host-side mailbox: the FIFO behind every provided interface
//! on the thread and executor backends (paper §4.1: "a FIFO data
//! structure, we have named mailbox"; a required interface is a clone
//! of this handle).
//!
//! The queue is a mutex around a pre-sized `VecDeque` plus a byte
//! gauge. Blocking does not live here: a FIFO knows the [`owner`] of its
//! receiving component, and the sender's transport wakes that owner
//! *after* the push (push-then-wake), while the owner always re-checks
//! its FIFOs before parking (check-then-park).
//!
//! [`owner`]: Fifo::owner

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::message::Message;

/// Initial capacity, allocated once. The executor's cooperative send
/// yield bounds each sender's streak to 32, so a few concurrent senders
/// (the pipeline's fan-in collectors see up to three) stay below this
/// and the warm hot path never regrows the deque — the zero-allocation
/// check (`repro alloc-check`) counts on it.
const INITIAL_CAPACITY: usize = 128;

struct Inner {
    queue: Mutex<VecDeque<Message>>,
    /// Data-payload bytes currently queued (the observation layer's
    /// dynamic-memory gauge).
    bytes: AtomicU64,
    owner: usize,
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
                queue: Mutex::new(VecDeque::with_capacity(INITIAL_CAPACITY)),
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
        self.inner
            .bytes
            .fetch_add(msg.data_len() as u64, Ordering::Relaxed);
        self.inner.queue.lock().push_back(msg);
    }

    /// Non-blocking receive.
    pub fn try_pop(&self) -> Option<Message> {
        let msg = self.inner.queue.lock().pop_front()?;
        self.inner
            .bytes
            .fetch_sub(msg.data_len() as u64, Ordering::Relaxed);
        Some(msg)
    }

    /// Drain up to `max` queued messages into `out` (appended in FIFO
    /// order) under one lock acquisition. Returns how many were
    /// appended; never blocks.
    pub fn pop_many(&self, out: &mut Vec<Message>, max: usize) -> usize {
        let start = out.len();
        {
            let mut q = self.inner.queue.lock();
            let n = max.min(q.len());
            out.extend(q.drain(..n));
        }
        let bytes: u64 = out[start..].iter().map(|m| m.data_len() as u64).sum();
        if bytes > 0 {
            self.inner.bytes.fetch_sub(bytes, Ordering::Relaxed);
        }
        out.len() - start
    }

    /// Bytes of data payload currently queued.
    pub fn queued_bytes(&self) -> u64 {
        self.inner.bytes.load(Ordering::Relaxed)
    }

    /// Messages currently queued.
    pub fn len(&self) -> usize {
        self.inner.queue.lock().len()
    }

    /// Whether the mailbox is empty.
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
