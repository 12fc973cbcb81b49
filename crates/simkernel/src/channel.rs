//! FIFO channels between simulated processes, built on kernel events.
//!
//! [`SimChannel`] and [`BoundedSimChannel`] are *zero-time* channels:
//! they model only ordering and blocking, not transfer cost. Higher
//! layers (EMBX) add modeled copy costs by calling [`SimCtx::advance`]
//! around channel operations. [`LatentChannel`] carries an explicit
//! per-message delivery latency, built on [`SimCtx::notify_after`].

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::kernel::Kernel;
use crate::process::{EventId, SimCtx};
use crate::Time;

/// Unbounded multi-producer multi-consumer FIFO channel between simulated
/// processes. Cloning shares the underlying queue.
pub struct SimChannel<T> {
    inner: Arc<Mutex<VecDeque<T>>>,
    nonempty: EventId,
}

impl<T> Clone for SimChannel<T> {
    fn clone(&self) -> Self {
        SimChannel {
            inner: Arc::clone(&self.inner),
            nonempty: self.nonempty,
        }
    }
}

impl<T> SimChannel<T> {
    /// Create a channel, allocating its wakeup event from `ctx`.
    pub fn new(ctx: &SimCtx) -> Self {
        SimChannel {
            inner: Arc::new(Mutex::new(VecDeque::new())),
            nonempty: ctx.alloc_event(),
        }
    }

    /// Create a channel using a pre-allocated event (for construction
    /// outside any process, e.g. from the kernel owner).
    pub fn with_event(nonempty: EventId) -> Self {
        SimChannel {
            inner: Arc::new(Mutex::new(VecDeque::new())),
            nonempty,
        }
    }

    /// Enqueue an item and wake any waiting receivers. Never blocks.
    pub fn send(&self, ctx: &SimCtx, item: T) {
        self.inner.lock().push_back(item);
        ctx.notify(self.nonempty);
    }

    /// Dequeue an item, blocking in virtual time until one is available.
    pub fn recv(&self, ctx: &SimCtx) -> T {
        loop {
            if let Some(item) = self.inner.lock().pop_front() {
                return item;
            }
            ctx.wait(self.nonempty);
        }
    }

    /// Dequeue an item if one is immediately available.
    pub fn try_recv(&self) -> Option<T> {
        self.inner.lock().pop_front()
    }

    /// Dequeue with a virtual-time deadline. `None` on timeout.
    pub fn recv_timeout(&self, ctx: &SimCtx, dt: crate::Time) -> Option<T> {
        let deadline = ctx.now().saturating_add(dt);
        loop {
            if let Some(item) = self.inner.lock().pop_front() {
                return Some(item);
            }
            let now = ctx.now();
            if now >= deadline {
                return None;
            }
            if !ctx.wait_timeout(self.nonempty, deadline - now) {
                // Timed out: one final non-blocking check to avoid racing a
                // same-instant send.
                return self.inner.lock().pop_front();
            }
        }
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }
}

/// Bounded FIFO channel: `send` blocks (in virtual time) while the queue
/// is at capacity. Models backpressure for middleware ports.
pub struct BoundedSimChannel<T> {
    inner: Arc<Mutex<VecDeque<T>>>,
    capacity: usize,
    nonempty: EventId,
    nonfull: EventId,
}

impl<T> Clone for BoundedSimChannel<T> {
    fn clone(&self) -> Self {
        BoundedSimChannel {
            inner: Arc::clone(&self.inner),
            capacity: self.capacity,
            nonempty: self.nonempty,
            nonfull: self.nonfull,
        }
    }
}

impl<T> BoundedSimChannel<T> {
    /// Create a channel with the given capacity (must be ≥ 1).
    pub fn new(ctx: &SimCtx, capacity: usize) -> Self {
        assert!(capacity >= 1, "bounded channel capacity must be >= 1");
        BoundedSimChannel {
            inner: Arc::new(Mutex::new(VecDeque::with_capacity(capacity))),
            capacity,
            nonempty: ctx.alloc_event(),
            nonfull: ctx.alloc_event(),
        }
    }

    /// Create with pre-allocated events (for construction outside any
    /// process).
    pub fn with_events(capacity: usize, nonempty: EventId, nonfull: EventId) -> Self {
        assert!(capacity >= 1, "bounded channel capacity must be >= 1");
        BoundedSimChannel {
            inner: Arc::new(Mutex::new(VecDeque::with_capacity(capacity))),
            capacity,
            nonempty,
            nonfull,
        }
    }

    /// Capacity of the channel.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Enqueue an item, blocking in virtual time while the queue is full.
    pub fn send(&self, ctx: &SimCtx, item: T) {
        let mut slot = Some(item);
        loop {
            {
                let mut q = self.inner.lock();
                if q.len() < self.capacity {
                    q.push_back(slot.take().expect("item present"));
                    ctx.notify(self.nonempty);
                    return;
                }
            }
            ctx.wait(self.nonfull);
        }
    }

    /// Enqueue if space is immediately available; returns the item back
    /// on failure.
    pub fn try_send(&self, ctx: &SimCtx, item: T) -> Result<(), T> {
        let mut q = self.inner.lock();
        if q.len() < self.capacity {
            q.push_back(item);
            ctx.notify(self.nonempty);
            Ok(())
        } else {
            Err(item)
        }
    }

    /// Dequeue an item, blocking in virtual time until one is available.
    pub fn recv(&self, ctx: &SimCtx) -> T {
        loop {
            {
                let mut q = self.inner.lock();
                if let Some(item) = q.pop_front() {
                    ctx.notify(self.nonfull);
                    return item;
                }
            }
            ctx.wait(self.nonempty);
        }
    }

    /// Dequeue if an item is immediately available.
    pub fn try_recv(&self, ctx: &SimCtx) -> Option<T> {
        let mut q = self.inner.lock();
        let item = q.pop_front();
        if item.is_some() {
            ctx.notify(self.nonfull);
        }
        item
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }
}

/// Unbounded FIFO channel whose messages take `latency` virtual
/// nanoseconds to arrive: an item sent at `t` becomes receivable at
/// `t + latency`. A latency of `0` degrades to [`SimChannel`] semantics.
pub struct LatentChannel<T> {
    inner: Arc<Mutex<VecDeque<(Time, T)>>>,
    nonempty: EventId,
    latency: Time,
}

impl<T> Clone for LatentChannel<T> {
    fn clone(&self) -> Self {
        LatentChannel {
            inner: Arc::clone(&self.inner),
            nonempty: self.nonempty,
            latency: self.latency,
        }
    }
}

impl<T> LatentChannel<T> {
    /// Create a channel with the given delivery latency, allocating its
    /// wakeup event from the kernel.
    pub fn new(kernel: &mut Kernel, latency: Time) -> Self {
        LatentChannel {
            inner: Arc::new(Mutex::new(VecDeque::new())),
            nonempty: kernel.alloc_event(),
            latency,
        }
    }

    /// The modeled delivery latency.
    pub fn latency(&self) -> Time {
        self.latency
    }

    /// Enqueue an item for delivery `latency` nanoseconds from now and
    /// schedule the receiver wakeup. Never blocks.
    pub fn send(&self, ctx: &SimCtx, item: T) {
        let deliver = ctx.now().saturating_add(self.latency);
        self.inner.lock().push_back((deliver, item));
        if self.latency == 0 {
            ctx.notify(self.nonempty);
        } else {
            ctx.notify_after(self.nonempty, self.latency);
        }
    }

    /// Dequeue the next *arrived* item, blocking in virtual time until
    /// one's delivery time is reached.
    pub fn recv(&self, ctx: &SimCtx) -> T {
        loop {
            {
                let mut q = self.inner.lock();
                if let Some(&(deliver, _)) = q.front() {
                    if deliver <= ctx.now() {
                        return q.pop_front().expect("peeked").1;
                    }
                }
            }
            ctx.wait(self.nonempty);
        }
    }

    /// Dequeue an arrived item if one is available right now.
    pub fn try_recv(&self, ctx: &SimCtx) -> Option<T> {
        let mut q = self.inner.lock();
        match q.front() {
            Some(&(deliver, _)) if deliver <= ctx.now() => q.pop_front().map(|(_, item)| item),
            _ => None,
        }
    }

    /// Number of queued items (arrived or in flight).
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Kernel;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn channel_fifo_order() {
        let mut k = Kernel::new();
        let ch: SimChannel<u32> = SimChannel::with_event(k.alloc_event());
        let tx = ch.clone();
        k.spawn("producer", move |ctx| {
            for i in 0..100 {
                ctx.advance(1);
                tx.send(&ctx, i);
            }
        });
        let out = Arc::new(Mutex::new(Vec::new()));
        let out2 = Arc::clone(&out);
        k.spawn("consumer", move |ctx| {
            for _ in 0..100 {
                out2.lock().push(ch.recv(&ctx));
            }
        });
        k.run().unwrap();
        assert_eq!(*out.lock(), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn bounded_channel_applies_backpressure() {
        let mut k = Kernel::new();
        let ch: BoundedSimChannel<u32> =
            BoundedSimChannel::with_events(2, k.alloc_event(), k.alloc_event());
        let tx = ch.clone();
        let producer_done_at = Arc::new(AtomicU64::new(0));
        let pd = Arc::clone(&producer_done_at);
        k.spawn("producer", move |ctx| {
            for i in 0..4 {
                tx.send(&ctx, i);
            }
            pd.store(ctx.now(), Ordering::SeqCst);
        });
        k.spawn("consumer", move |ctx| {
            for _ in 0..4 {
                ctx.advance(100);
                ch.recv(&ctx);
            }
        });
        k.run().unwrap();
        // Producer fills 2 slots at t=0 then must wait for consumer drains
        // at t=100 and t=200 to place items 3 and 4.
        assert!(producer_done_at.load(Ordering::SeqCst) >= 200);
    }

    #[test]
    fn recv_timeout_returns_none_when_empty() {
        let mut k = Kernel::new();
        let ch: SimChannel<u32> = SimChannel::with_event(k.alloc_event());
        k.spawn("c", move |ctx| {
            assert_eq!(ch.recv_timeout(&ctx, 50), None);
            assert_eq!(ctx.now(), 50);
        });
        k.run().unwrap();
    }

    #[test]
    fn recv_timeout_receives_item_sent_before_deadline() {
        let mut k = Kernel::new();
        let ch: SimChannel<u32> = SimChannel::with_event(k.alloc_event());
        let tx = ch.clone();
        k.spawn("p", move |ctx| {
            ctx.advance(20);
            tx.send(&ctx, 7);
        });
        k.spawn("c", move |ctx| {
            assert_eq!(ch.recv_timeout(&ctx, 50), Some(7));
            assert_eq!(ctx.now(), 20);
        });
        k.run().unwrap();
    }

    #[test]
    fn latent_channel_delivers_after_latency() {
        let mut k = Kernel::new();
        let ch: LatentChannel<u32> = LatentChannel::new(&mut k, 30);
        let tx = ch.clone();
        k.spawn("p", move |ctx| {
            ctx.advance(10);
            tx.send(&ctx, 42);
        });
        k.spawn("c", move |ctx| {
            assert_eq!(ch.recv(&ctx), 42);
            assert_eq!(ctx.now(), 40); // sent at 10 + latency 30
        });
        k.run().unwrap();
    }

    #[test]
    fn latent_channel_preserves_fifo_order() {
        let mut k = Kernel::new();
        let ch: LatentChannel<u32> = LatentChannel::new(&mut k, 5);
        let tx = ch.clone();
        k.spawn("p", move |ctx| {
            for i in 0..50 {
                ctx.advance(1);
                tx.send(&ctx, i);
            }
        });
        let out = Arc::new(Mutex::new(Vec::new()));
        let out2 = Arc::clone(&out);
        k.spawn("c", move |ctx| {
            for _ in 0..50 {
                out2.lock().push(ch.recv(&ctx));
            }
        });
        k.run().unwrap();
        assert_eq!(*out.lock(), (0..50).collect::<Vec<_>>());
    }
}
