//! FIFO channels between simulated processes, built on kernel events.
//!
//! [`SimChannel`] is a *zero-time* channel: it models only ordering and
//! blocking, not transfer cost. [`LatentChannel`] carries an explicit
//! per-message delivery latency, built on [`SimCtx::notify_after`].

use std::collections::VecDeque;
use std::sync::Arc;

use crate::cell::LockStep;
use crate::kernel::Kernel;
use crate::process::{EventId, SimCtx};
use crate::Time;

/// Unbounded multi-producer multi-consumer FIFO channel between simulated
/// processes. Cloning shares the underlying queue.
pub struct SimChannel<T> {
    inner: Arc<LockStep<VecDeque<T>>>,
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
    /// Create a channel using a pre-allocated event (for construction
    /// outside any process, e.g. from the kernel owner).
    pub fn with_event(nonempty: EventId) -> Self {
        SimChannel {
            inner: Arc::default(),
            nonempty,
        }
    }

    /// Enqueue an item and wake any waiting receivers. Never blocks.
    pub fn send(&self, ctx: &SimCtx, item: T) {
        self.inner.with(|q| q.push_back(item));
        ctx.notify(self.nonempty);
    }

    /// Dequeue an item, blocking in virtual time until one is available.
    pub fn recv(&self, ctx: &SimCtx) -> T {
        loop {
            if let Some(item) = self.inner.with(VecDeque::pop_front) {
                return item;
            }
            ctx.wait(self.nonempty);
        }
    }

    /// Dequeue with a virtual-time deadline. `None` on timeout.
    pub fn recv_timeout(&self, ctx: &SimCtx, dt: crate::Time) -> Option<T> {
        let deadline = ctx.now().saturating_add(dt);
        loop {
            if let Some(item) = self.inner.with(VecDeque::pop_front) {
                return Some(item);
            }
            let now = ctx.now();
            if now >= deadline {
                return None;
            }
            if !ctx.wait_timeout(self.nonempty, deadline - now) {
                // Timed out: one final non-blocking check to avoid racing a
                // same-instant send.
                return self.inner.with(VecDeque::pop_front);
            }
        }
    }
}

/// Unbounded FIFO channel whose messages take `latency` virtual
/// nanoseconds to arrive: an item sent at `t` becomes receivable at
/// `t + latency`. A latency of `0` degrades to [`SimChannel`] semantics.
pub struct LatentChannel<T> {
    inner: Arc<LockStep<VecDeque<(Time, T)>>>,
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
            inner: Arc::default(),
            nonempty: kernel.alloc_event(),
            latency,
        }
    }

    /// Enqueue an item for delivery `latency` nanoseconds from now and
    /// schedule the receiver wakeup. Never blocks.
    pub fn send(&self, ctx: &SimCtx, item: T) {
        let deliver = ctx.now().saturating_add(self.latency);
        self.inner.with(|q| q.push_back((deliver, item)));
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
            let now = ctx.now();
            let arrived = self.inner.with(|q| match q.front() {
                Some(&(deliver, _)) if deliver <= now => q.pop_front(),
                _ => None,
            });
            if let Some((_, item)) = arrived {
                return item;
            }
            ctx.wait(self.nonempty);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Kernel;
    use std::sync::Mutex;

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
                out2.lock().unwrap().push(ch.recv(&ctx));
            }
        });
        k.run().unwrap();
        assert_eq!(*out.lock().unwrap(), (0..100).collect::<Vec<_>>());
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
                out2.lock().unwrap().push(ch.recv(&ctx));
            }
        });
        k.run().unwrap();
        assert_eq!(*out.lock().unwrap(), (0..50).collect::<Vec<_>>());
    }
}
