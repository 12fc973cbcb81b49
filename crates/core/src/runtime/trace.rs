//! The event trace: one record, one event vocabulary, one ring per
//! component.
//!
//! The paper's §6 announces "an event-trace-support for collecting
//! detailed events". This module is its runtime side. Tracing is an
//! application-level opt-in: [`AppBuilder::with_tracing`] puts a
//! [`TraceConfig`] in the [`AppSpec`], deployment registers every
//! component on it in deployment order — which gives the component its
//! id and its own [`SpscRing`] — and the [`ComponentRuntime`] pushes one
//! [`TraceEvent`] per send, receive, compute section, lifecycle
//! transition, shed, injected fault and served observation into that
//! ring. It does so on every backend and with behaviors untouched; a
//! push never blocks, and a full ring drops the event and counts it.
//!
//! A record carries numbers only: timestamp, component id, kind and two
//! kind-specific words. Names stay in the registry. Merging the rings
//! into one time-ordered trace, analysing it and exporting it is the
//! reader's business — the `embera-trace` crate, which depends on this
//! module and never the other way round.
//!
//! [`AppBuilder::with_tracing`]: crate::AppBuilder::with_tracing
//! [`AppSpec`]: crate::AppSpec
//! [`ComponentRuntime`]: crate::runtime::ComponentRuntime

use std::cell::UnsafeCell;
use std::fmt;
use std::mem::MaybeUninit;
use std::sync::Arc;

use crate::sync::{AtomicU64, AtomicUsize, Mutex, Ordering};

/// What a [`TraceEvent`] reports. Declared in tie-break order: events of
/// one component at one timestamp sort by kind, so a behavior's start
/// comes first, its end last, and a send's start before its end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// Behavior entered `run`.
    BehaviorStart,
    /// A send primitive began; `a` = payload bytes.
    SendStart,
    /// The send completed; `a` = payload bytes, `b` = duration ns.
    SendEnd,
    /// A receive returned a message; `a` = payload bytes, `b` =
    /// duration ns of the primitive.
    Recv,
    /// A compute annotation completed; `a` = abstract ops, `b` =
    /// duration ns (0 on backends where compute is free).
    Compute,
    /// The runtime answered an observation request (invisible to the
    /// behavior — only the trace can see these).
    ObsServed,
    /// The fault-injection plan fired; `a` = action code (0 drop,
    /// 1 corrupt), `b` = payload bytes of the targeted message.
    FaultInjected,
    /// An overload policy shed a message at component ingress; `a` =
    /// reason code (0 queue-bound drop-oldest, 1 deadline expired),
    /// `b` = payload bytes of the shed message.
    Shed,
    /// The behavior panicked and the runtime contained it.
    BehaviorPanic,
    /// Supervision is re-running a failed behavior; `a` = restart
    /// attempt number (1-based), `b` = backoff ns.
    Restart,
    /// Behavior returned from `run`; `a` = 1 if it returned an error.
    BehaviorEnd,
}

/// One trace record. 32 bytes, `Copy`, cheap to move through rings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Platform timestamp, ns.
    pub ts_ns: u64,
    /// Component id: its registration index in the [`TraceConfig`].
    pub component: u32,
    /// Event kind.
    pub kind: EventKind,
    /// Kind-specific payload.
    pub a: u64,
    /// Kind-specific payload.
    pub b: u64,
}

impl TraceEvent {
    /// Construct an event.
    pub fn new(ts_ns: u64, component: u32, kind: EventKind, a: u64, b: u64) -> Self {
        TraceEvent {
            ts_ns,
            component,
            kind,
            a,
            b,
        }
    }
}

/// Default per-component ring capacity, in events.
const DEFAULT_RING_CAPACITY: usize = 64 * 1024;

/// One component's end of the trace: its id and the producer half of
/// its ring. One writer per ring keeps the single-producer contract.
pub struct TraceWriter {
    component: u32,
    producer: Producer<TraceEvent>,
}

impl TraceWriter {
    /// Record one event. Never blocks: on a full ring the event is
    /// dropped and counted ([`TraceConfig::dropped`]).
    #[inline]
    pub fn emit(&self, ts_ns: u64, kind: EventKind, a: u64, b: u64) {
        self.producer
            .push(TraceEvent::new(ts_ns, self.component, kind, a, b));
    }
}

struct Ring {
    name: String,
    events: Consumer<TraceEvent>,
}

/// An application's trace: the registry of its components' rings.
/// Cloneable; clones share the rings.
///
/// Carried by [`AppSpec`](crate::AppSpec) (see
/// [`AppBuilder::with_tracing`](crate::AppBuilder::with_tracing)), so
/// the *application description* — not the backend, not the behavior —
/// decides whether a run is traced.
#[derive(Clone)]
pub struct TraceConfig {
    rings: Arc<Mutex<Vec<Ring>>>,
    ring_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self::new(DEFAULT_RING_CAPACITY)
    }
}

impl TraceConfig {
    /// A registry whose component rings hold `ring_capacity` events.
    pub fn new(ring_capacity: usize) -> Self {
        TraceConfig {
            rings: Arc::new(Mutex::new(Vec::new())),
            ring_capacity,
        }
    }

    /// Give component `name` the next id and a ring of its own; returns
    /// the ring's writer.
    pub fn register(&self, name: &str) -> TraceWriter {
        let (producer, events) = SpscRing::new(self.ring_capacity).split();
        let mut rings = self.rings.lock();
        let component = rings.len() as u32;
        rings.push(Ring {
            name: name.to_string(),
            events,
        });
        TraceWriter {
            component,
            producer,
        }
    }

    /// Registered component names, id order.
    pub fn names(&self) -> Vec<String> {
        self.rings.lock().iter().map(|r| r.name.clone()).collect()
    }

    /// Take every event buffered so far: ring by ring in id order, each
    /// ring's in the order it was written.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let rings = self.rings.lock();
        rings.iter().flat_map(|r| r.events.drain()).collect()
    }

    /// Events dropped so far because a ring was full, over all rings.
    pub fn dropped(&self) -> u64 {
        self.rings.lock().iter().map(|r| r.events.dropped()).sum()
    }
}

impl fmt::Debug for TraceConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceConfig")
            .field("ring_capacity", &self.ring_capacity)
            .finish_non_exhaustive()
    }
}

// A bounded lock-free single-producer single-consumer ring, built from
// first principles (in the style of *Rust Atomics and Locks* ch. 5): a
// fixed slot array, a head index owned by the consumer and a tail index
// owned by the producer, synchronized with acquire/release pairs.

struct RingInner<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Next slot to read; owned by the consumer, read by the producer.
    head: AtomicUsize,
    /// Next slot to write; owned by the producer, read by the consumer.
    tail: AtomicUsize,
    dropped: AtomicU64,
}

// SAFETY: the ring is safe to share across threads because every slot is
// accessed by at most one side at a time: the producer only writes slots
// in [tail, head+capacity) and publishes them with a release store of
// `tail`; the consumer only reads slots in [head, tail) after an acquire
// load of `tail`.
unsafe impl<T: Send> Send for RingInner<T> {}
unsafe impl<T: Send> Sync for RingInner<T> {}

/// Producer half of a [`SpscRing`].
pub struct Producer<T> {
    inner: Arc<RingInner<T>>,
}

/// Consumer half of a [`SpscRing`].
pub struct Consumer<T> {
    inner: Arc<RingInner<T>>,
}

/// A bounded lock-free single-producer single-consumer ring;
/// [`SpscRing::split`] yields the two halves. Pushing never blocks:
/// when the ring is full the item is dropped and counted, because
/// tracing must never stall the traced component.
///
/// ```
/// use embera::runtime::trace::SpscRing;
///
/// let (producer, consumer) = SpscRing::new(4).split();
/// assert!(producer.push(1));
/// assert!(producer.push(2));
/// assert_eq!(consumer.pop(), Some(1));
/// assert_eq!(consumer.drain(), vec![2]);
/// assert_eq!(consumer.pop(), None);
/// ```
pub struct SpscRing<T> {
    inner: Arc<RingInner<T>>,
}

impl<T> SpscRing<T> {
    /// Ring with room for `capacity` items (must be ≥ 1).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1);
        let slots = (0..capacity)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        SpscRing {
            inner: Arc::new(RingInner {
                slots,
                head: AtomicUsize::new(0),
                tail: AtomicUsize::new(0),
                dropped: AtomicU64::new(0),
            }),
        }
    }

    /// Split into producer and consumer halves.
    pub fn split(self) -> (Producer<T>, Consumer<T>) {
        (
            Producer {
                inner: Arc::clone(&self.inner),
            },
            Consumer { inner: self.inner },
        )
    }
}

impl<T> Producer<T> {
    /// Push an item; returns `false` (and counts a drop) when full.
    pub fn push(&self, item: T) -> bool {
        let inner = &*self.inner;
        let tail = inner.tail.load(Ordering::Relaxed);
        let head = inner.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) >= inner.slots.len() {
            inner.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let idx = tail % inner.slots.len();
        // SAFETY: slot `idx` is outside [head, tail), so the consumer is
        // not reading it; we are the only producer.
        unsafe {
            (*inner.slots[idx].get()).write(item);
        }
        inner.tail.store(tail.wrapping_add(1), Ordering::Release);
        true
    }
}

impl<T> Consumer<T> {
    /// Pop the oldest item, if any.
    pub fn pop(&self) -> Option<T> {
        let inner = &*self.inner;
        let head = inner.head.load(Ordering::Relaxed);
        let tail = inner.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let idx = head % inner.slots.len();
        // SAFETY: slot `idx` is inside [head, tail): the producer wrote
        // and published it and will not touch it until we advance head.
        let item = unsafe { (*inner.slots[idx].get()).assume_init_read() };
        inner.head.store(head.wrapping_add(1), Ordering::Release);
        Some(item)
    }

    /// Drain everything currently visible.
    pub fn drain(&self) -> Vec<T> {
        let mut out = Vec::new();
        while let Some(item) = self.pop() {
            out.push(item);
        }
        out
    }

    /// Items the producer dropped so far because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }
}

impl<T> Drop for RingInner<T> {
    fn drop(&mut self) {
        // Drop any unconsumed items.
        let head = *self.head.get_mut();
        let tail = *self.tail.get_mut();
        for i in head..tail {
            let idx = i % self.slots.len();
            // SAFETY: exclusive access in Drop; [head, tail) holds
            // initialized items.
            unsafe {
                (*self.slots[idx].get()).assume_init_drop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_is_small_and_copy() {
        // Keep the record compact: rings move these by value.
        assert_eq!(std::mem::size_of::<TraceEvent>(), 32);
        let e = TraceEvent::new(1, 2, EventKind::SendEnd, 3, 4);
        let f = e; // Copy
        assert_eq!(e, f);
    }

    #[test]
    fn push_pop_fifo() {
        let (p, c) = SpscRing::new(8).split();
        for i in 0..5 {
            assert!(p.push(i));
        }
        for i in 0..5 {
            assert_eq!(c.pop(), Some(i));
        }
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn full_ring_drops_and_counts() {
        let (p, c) = SpscRing::new(2).split();
        assert!(p.push(1));
        assert!(p.push(2));
        assert!(!p.push(3));
        assert_eq!(c.dropped(), 1);
        assert_eq!(c.drain(), vec![1, 2]);
        // Space again after drain.
        assert!(p.push(4));
    }

    #[test]
    fn wraps_around_many_times() {
        let (p, c) = SpscRing::new(3).split();
        for i in 0..1000 {
            assert!(p.push(i));
            assert_eq!(c.pop(), Some(i));
        }
    }

    #[test]
    fn concurrent_producer_consumer_preserves_sequence() {
        let (p, c) = SpscRing::new(64).split();
        let total = 100_000u64;
        let producer = std::thread::spawn(move || {
            let mut sent = 0u64;
            let mut i = 0u64;
            while i < total {
                if p.push(i) {
                    sent += 1;
                    i += 1;
                } else {
                    std::hint::spin_loop();
                }
            }
            sent
        });
        let mut expected = 0u64;
        while expected < total {
            if let Some(v) = c.pop() {
                assert_eq!(v, expected, "sequence must be gapless and ordered");
                expected += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        assert_eq!(producer.join().unwrap(), total);
    }

    #[test]
    fn drop_releases_unconsumed_items() {
        // Use Arc to detect leaks: refcount must return to 1.
        let tracked = Arc::new(());
        {
            let (p, _c) = SpscRing::new(8).split();
            for _ in 0..5 {
                p.push(Arc::clone(&tracked));
            }
        }
        assert_eq!(Arc::strong_count(&tracked), 1);
    }
}
