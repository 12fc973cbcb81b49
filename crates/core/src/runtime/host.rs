//! The one host-side [`Transport`]: [`Fifo`] mailboxes, wall-clock send
//! and receive costs, batched draining — everything the thread backend
//! (`embera-smp`) and the M:N executor backend (`embera-exec`) have in
//! common. What they still differ in is how an execution flow waits
//! and is woken, which is the [`Parker`] they plug in.

use std::collections::VecDeque;
use std::sync::Arc;

use bytes::Bytes;

use super::deploy::{Observed, Wiring};
use super::fifo::Fifo;
use super::Transport;
use crate::component::ComponentSpec;
use crate::message::Message;
use crate::names::IfaceId;
use crate::observe::protocol::{ObsReply, ObsRequest};
use crate::observe::stats::{ComponentStats, Queued};
use crate::pool::BufferPool;
use crate::sync::Instant;

/// How many messages a single `recv` may drain from the mailbox ahead of
/// the behavior asking for them. Small: enough to amortize the lock over
/// a pipeline batch without hoarding another component's backlog.
const DRAIN_BATCH: usize = 16;

/// Accounted memory footprint of one provided-interface mailbox, bytes.
/// The paper's Table 1 implies 1 229 kB per provided interface on their
/// platform (IDCT carries two — data + introspection — for 2 458 kB
/// over the bare stack).
const IFACE_FOOTPRINT_BYTES: u64 = 1_229_000;

/// The paper's SMP memory formula: stack + footprint per provided
/// interface (data interfaces, plus the introspection mailbox when an
/// observer is attached and will exercise it).
pub fn host_memory_bytes(spec: &ComponentSpec, has_observer: bool) -> u64 {
    let provided = spec.provided.len() as u64 + u64::from(has_observer);
    spec.stack_bytes + provided * IFACE_FOOTPRINT_BYTES
}

/// How one component's execution flow waits and is woken, and the
/// application-wide clock and shutdown flag that go with it.
///
/// The contract is token-like: a [`wake`](Parker::wake) that arrives
/// while the owner is running makes its next [`park`](Parker::park)
/// return at once, so *push-then-wake* on the sending side and
/// *check-then-park* on the receiving side never lose a wakeup.
/// Spurious returns from `park` are allowed — the runtime re-checks
/// inboxes, deadline and shutdown around every park.
///
/// A mailbox is found empty on a load of its length, without its lock
/// (see [`Fifo`]), so nothing but the parker orders a push against the
/// owner's check. A `wake` that may leave the owner alone — because it
/// is running, or yet to start, and will look by itself — has to reach
/// that verdict with a `SeqCst` load or behind a `SeqCst` fence, and
/// the owner has to publish the state that verdict rests on with a
/// `SeqCst` store or fence before it looks at its inboxes.
///
/// The owner's check is N such loads, not one: its introspection
/// inbox, then every inbox a receive lists
/// ([`Ctx::recv_any_message`](crate::Ctx::recv_any_message)), one
/// after the other, then the park. The token is the component's, not
/// an inbox's, and that is what covers the set: a push that lands in
/// an inbox *already scanned* — the first of three, while the owner
/// loads the third — is followed by a `wake` of the owner like any
/// other, so the park that follows the scan returns at once and the
/// next scan, which starts from the first inbox again, finds it. No
/// inbox may be given a wake path of its own, and the publication
/// above must precede the first of the N loads, not the last.
pub trait Parker {
    /// Platform time, ns (monotonic).
    fn now_ns(&self) -> u64;

    /// True once the application is shutting down.
    fn is_shutdown(&self) -> bool;

    /// Raise the shutdown flag and wake every component. Idempotent.
    fn request_shutdown(&self);

    /// Wake component `owner` (its deployment index), now or at its
    /// next park.
    fn wake(&self, owner: usize);

    /// Block this flow until woken or until `deadline_ns` (platform
    /// time; a lower bound) passes.
    ///
    /// A parker may give up its core before it blocks (`embera-smp`
    /// yields once, so a producer sharing the core can run), but the
    /// token contract holds across that hand-off: a `wake` that lands
    /// during it must still end this park or the next. A timed park
    /// whose deadline has passed by then may return without blocking.
    fn park(&mut self, deadline_ns: Option<u64>);

    /// A send — or an observation answered in place, which is a
    /// communication point like any other — completed (cooperative
    /// schedulers yield here now and then so a burst producer, or a
    /// back-to-back observer, cannot starve the flows it shares a
    /// worker with).
    fn after_send(&mut self) {}
}

/// One provided interface: its mailbox, and the messages drained from
/// it in bulk (one lock per batch via [`Fifo::pop_batch`]) but not yet
/// handed to the behavior. The stash is allocated once at its final
/// capacity (it is only refilled when empty), so the hot receive path
/// never grows it.
struct Inbox {
    fifo: Fifo,
    stash: VecDeque<Message>,
}

impl Inbox {
    /// Messages the component has yet to see: bulk draining must not
    /// hide queue depth from observers or overload policies.
    fn depth(&self) -> usize {
        self.stash.len() + self.fifo.len()
    }
}

/// The copies one required interface sent without a pool, oldest first:
/// a send copies into the oldest once its receiver has let go of it, so
/// the paper's copy costs no allocation here and no free on the
/// receiver's thread while that receiver keeps up. The deque is sized
/// once, at the first copy, for what a receiver with an empty mailbox
/// can hold; it grows only while the route is deeper than that. An
/// interface that never sends without a pool allocates nothing here.
#[derive(Default)]
struct Sent(VecDeque<Bytes>);

impl Sent {
    /// `payload` copied for `route`, into the oldest kept copy when that
    /// one is free and large enough, else into a fresh buffer; a clone
    /// of the result is kept.
    ///
    /// Free is [`Bytes::try_mut`] — `Arc::get_mut`, whose acquire pairs
    /// with the release of the receiver's drop, so the rewrite cannot
    /// race what the receiver did with it. A copy still held counts
    /// against what the receiver can still hold from this route: the
    /// mailbox, a drained stash and the payload its behavior is reading.
    /// Held copies beyond that are let go, and their receiver frees
    /// them.
    fn copy(&mut self, payload: &[u8], route: &Fifo) -> Bytes {
        let mut reused = None;
        if let Some(oldest) = self.0.front_mut() {
            match oldest.try_mut() {
                Some(storage) if storage.len() >= payload.len() => {
                    storage[..payload.len()].copy_from_slice(payload);
                    oldest.reset_view(payload.len());
                    reused = self.0.pop_front();
                }
                // Free but too small: freed here, on the sending thread.
                Some(_) => drop(self.0.pop_front()),
                None => {
                    let holdable = route.len() + DRAIN_BATCH + 1;
                    while self.0.len() >= holdable {
                        self.0.pop_front();
                    }
                }
            }
        }
        let copy = reused.unwrap_or_else(|| Bytes::copy_from_slice(payload));
        if self.0.capacity() == 0 {
            self.0.reserve_exact(DRAIN_BATCH + 1);
        }
        self.0.push_back(copy.clone());
        copy
    }
}

/// [`Transport`] over [`Fifo`] mailboxes, generic over the backend's
/// [`Parker`].
///
/// Every interface is an [`IfaceId`], the index of its slot in the
/// `Vec`s taken over from the component's [`Wiring`]: a send, a
/// receive and the poll of the introspection inbox at every
/// communication point each index a slot and resolve no name.
pub struct HostTransport<P: Parker> {
    /// The provided interfaces, [`IfaceId::INTROSPECTION`] first.
    inboxes: Vec<Option<Inbox>>,
    /// The connected peer's mailbox of each required interface.
    routes: Vec<Option<Fifo>>,
    /// What each required interface sent without a pool.
    sent: Vec<Sent>,
    /// What the peer is read through ([`Transport::observe`]), for
    /// each required interface connected to a peer's `introspection`.
    observed: Vec<Option<Observed<Fifo>>>,
    /// This component's statistics: what its data stashes hold is
    /// published there, for whoever reads its queue gauges from outside
    /// ([`Transport::observe`] on an observer's transport).
    stats: Arc<ComponentStats>,
    /// Reusable bulk-drain buffer (allocation-free steady state).
    scratch: Vec<Message>,
    /// Application-wide payload pool: the send-primitive copy is drawn
    /// from it and the sender's original buffer recycled into it, so
    /// warm steady state allocates nothing.
    pool: Option<BufferPool>,
    parker: P,
}

impl<P: Parker> HostTransport<P> {
    /// The transport of the component wired by `wiring`.
    pub fn new(wiring: Wiring<Fifo>, parker: P) -> Self {
        let inbox = |fifo| Inbox {
            fifo,
            stash: VecDeque::with_capacity(DRAIN_BATCH),
        };
        HostTransport {
            inboxes: wiring.provided.into_iter().map(|f| f.map(inbox)).collect(),
            sent: wiring.routes.iter().map(|_| Sent::default()).collect(),
            routes: wiring.routes,
            observed: wiring.observed,
            stats: wiring.stats,
            scratch: Vec::with_capacity(DRAIN_BATCH),
            pool: wiring.pool,
            parker,
        }
    }

    /// The paper's mailbox send copies the message into the FIFO — that
    /// copy is what makes Figure 4 linear in message size. A refcounted
    /// clone would hide it, so materialize a real copy. With a pool
    /// attached the copy lands in a recycled buffer and the sender's
    /// original goes back on the free list. Without one it lands in a
    /// copy this route sent before, once its receiver has dropped it
    /// ([`Sent::copy`]). Either way: same copy, no allocation in steady
    /// state. Without a pool the receiver's payload therefore shares its
    /// storage with the copy kept here, until a later send reuses or
    /// lets go of that copy: [`Bytes::is_unique`] on the receiver's
    /// handle is false and [`Bytes::try_mut`] `None`.
    fn copy_payload(&mut self, required: IfaceId, payload: Bytes) -> Bytes {
        match &self.pool {
            Some(pool) => {
                let copied = pool.take_from(payload.as_ref());
                pool.recycle(payload);
                copied
            }
            None => self.sent[required.index()].copy(&payload, route(&self.routes, required)),
        }
    }
}

/// The mailbox a send on `required` goes to.
fn route(routes: &[Option<Fifo>], required: IfaceId) -> &Fifo {
    routes[required.index()]
        .as_ref()
        .expect("the runtime pushes only where its table has a route")
}

impl<P: Parker> Transport for HostTransport<P> {
    fn now_ns(&self) -> u64 {
        self.parker.now_ns()
    }

    fn is_shutdown(&self) -> bool {
        self.parker.is_shutdown()
    }

    fn request_shutdown(&mut self) {
        self.parker.request_shutdown();
    }

    fn push(&mut self, required: IfaceId, msg: Message) -> u64 {
        let t0 = Instant::now();
        let msg = match msg {
            Message::Data(payload) => Message::Data(self.copy_payload(required, payload)),
            Message::Deadlined {
                payload,
                deadline_ns,
            } => Message::Deadlined {
                payload: self.copy_payload(required, payload),
                deadline_ns,
            },
            other => other,
        };
        let route = route(&self.routes, required);
        route.push(msg);
        let cost = t0.elapsed().as_nanos() as u64;
        // Push-then-wake: the message is visible before the receiver is.
        self.parker.wake(route.owner());
        self.parker.after_send();
        cost
    }

    fn try_pop(&mut self, provided: IfaceId) -> Option<(Message, u64)> {
        let inbox = self.inboxes[provided.index()].as_mut()?;
        // Only data counts towards the queue gauges.
        let stats = (provided != IfaceId::INTROSPECTION).then_some(&self.stats);
        // A hand-out from the stash reads no clock and costs 0 ns: the
        // drain that filled the stash carries the time the mailbox ran.
        if let Some(m) = inbox.stash.pop_front() {
            if let Some(stats) = stats {
                stats.unstash(m.data_len() as u64);
            }
            return Some((m, 0));
        }
        let t0 = Instant::now();
        self.scratch.clear();
        let stashing = |messages, bytes| {
            if let Some(stats) = stats {
                stats.stash(messages, bytes);
            }
        };
        let drained = inbox
            .fifo
            .pop_batch(&mut self.scratch, DRAIN_BATCH, stashing);
        if drained == 0 {
            return None;
        }
        let mut drained = self.scratch.drain(..);
        let first = drained.next().expect("pop_batch reported non-zero drain");
        inbox.stash.extend(drained);
        Some((first, t0.elapsed().as_nanos() as u64))
    }

    fn poll_obs(&mut self) -> Option<Message> {
        // This runs at every communication point and the common case is
        // "no request pending", which costs no clock and no lock: an
        // empty stash and one load of the mailbox's length. The stash
        // comes first: a `recv` on the introspection inbox bulk-drains.
        let inbox = self.inboxes[IfaceId::INTROSPECTION.index()].as_mut()?;
        inbox.stash.pop_front().or_else(|| inbox.fifo.try_pop())
    }

    fn observe(&mut self, required: IfaceId, request: ObsRequest) -> Option<ObsReply> {
        let target = self.observed[required.index()].as_ref()?;
        // The target's gauges, as its own runtime would compute them
        // before answering — but from here, and written nowhere. The
        // mailboxes first, then what the target says it stashed: its
        // drains publish in the opposite order, so a message on its way
        // from the one to the other is counted (twice, at worst), never
        // missed.
        let mut queued = Queued::default();
        for inbox in target.inboxes.iter().skip(1).flatten() {
            queued.messages += inbox.len() as u64;
            queued.bytes += inbox.queued_bytes();
        }
        let stashed = target.engine.stats().stashed();
        queued.messages += stashed.messages;
        queued.bytes += stashed.bytes;
        let reply = target
            .engine
            .answer_with(request, self.parker.now_ns(), queued);
        self.parker.after_send();
        Some(reply)
    }

    fn queued_bytes(&self) -> u64 {
        let of = |inbox: &Inbox| {
            let in_flight: u64 = inbox.stash.iter().map(|m| m.data_len() as u64).sum();
            inbox.fifo.queued_bytes() + in_flight
        };
        self.inboxes.iter().flatten().map(of).sum()
    }

    fn park_recv(&mut self, _provided: &[IfaceId], deadline_ns: Option<u64>) {
        self.parker.park(deadline_ns);
    }

    fn park_quiescent(&mut self) {
        // No poll interval: a push to the introspection mailbox (or
        // shutdown) wakes the component.
        self.parker.park(None);
    }

    fn inbox_depth(&self, provided: IfaceId) -> u64 {
        self.inboxes[provided.index()]
            .as_ref()
            .map_or(0, Inbox::depth) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Never blocks: these tests drive the transport from one thread.
    struct NoParker;

    impl Parker for NoParker {
        fn now_ns(&self) -> u64 {
            0
        }
        fn is_shutdown(&self) -> bool {
            false
        }
        fn request_shutdown(&self) {}
        fn wake(&self, _owner: usize) {}
        fn park(&mut self, _deadline_ns: Option<u64>) {}
    }

    fn request(from: &str) -> Message {
        Message::ObsRequest {
            from: from.to_string(),
            request: ObsRequest::Health,
        }
    }

    fn requester(msg: Option<Message>) -> Option<String> {
        match msg? {
            Message::ObsRequest { from, .. } => Some(from),
            other => panic!("expected a request, got {other:?}"),
        }
    }

    /// A component providing `in` and `introspection`, and the sending
    /// ends of both mailboxes.
    fn transport() -> (HostTransport<NoParker>, Fifo, Fifo) {
        let (data, obs) = (Fifo::new(0), Fifo::new(0));
        let wiring = Wiring {
            index: 0,
            provided: vec![Some(obs.clone()), Some(data.clone())],
            routes: vec![None, None],
            observed: vec![None, None],
            stats: Arc::new(ComponentStats::new("c", &["in".to_string()], &[])),
            pool: None,
        };
        (HostTransport::new(wiring, NoParker), data, obs)
    }

    /// The id of `t`'s interface `name`.
    fn id<P: Parker>(t: &HostTransport<P>, name: &str) -> IfaceId {
        t.stats
            .interfaces()
            .id(name)
            .expect("an interface of the component")
    }

    /// A component requiring `out`, the receiving end of its route, and
    /// the id of `out`.
    fn sender() -> (HostTransport<NoParker>, Fifo, IfaceId) {
        let route = Fifo::new(1);
        let wiring = Wiring {
            index: 0,
            provided: vec![None, None],
            routes: vec![None, Some(route.clone())],
            observed: vec![None, None],
            stats: Arc::new(ComponentStats::new("c", &[], &["out".to_string()])),
            pool: None,
        };
        let t = HostTransport::new(wiring, NoParker);
        let out = id(&t, "out");
        (t, route, out)
    }

    fn send(t: &mut HostTransport<NoParker>, out: IfaceId, payload: &[u8]) {
        t.push(out, Message::Data(Bytes::copy_from_slice(payload)));
    }

    fn received(route: &Fifo) -> Bytes {
        match route.try_pop() {
            Some(Message::Data(payload)) => payload,
            other => panic!("expected a payload, got {other:?}"),
        }
    }

    #[test]
    fn a_copy_the_receiver_dropped_is_reused() {
        let (mut t, route, out) = sender();
        send(&mut t, out, b"first");
        let first = received(&route);
        let at = first.as_ptr();
        drop(first);
        send(&mut t, out, b"two");
        let second = received(&route);
        assert_eq!(second.as_ptr(), at, "the send allocated instead");
        assert_eq!(&second[..], b"two");
        // The kept copy shares the storage until a later send takes it.
        assert!(!second.is_unique());
    }

    #[test]
    fn a_payload_the_receiver_holds_is_never_written() {
        let (mut t, route, out) = sender();
        send(&mut t, out, b"held");
        let held = received(&route);
        for i in 0..10 * DRAIN_BATCH as u32 {
            send(&mut t, out, &i.to_le_bytes());
            let other = received(&route);
            assert_ne!(other.as_ptr(), held.as_ptr());
            assert_eq!(&other[..], i.to_le_bytes());
        }
        assert_eq!(&held[..], b"held");
        // Held past what the receiver could hold from the route, it was
        // let go: its receiver frees it.
        assert!(held.is_unique());
    }

    #[test]
    fn a_receiver_that_keeps_every_payload_bounds_the_kept_copies() {
        let (mut t, route, out) = sender();
        let mut kept_by_receiver = Vec::new();
        for i in 0..100u32 {
            send(&mut t, out, &i.to_le_bytes());
            // Every third message waits in the mailbox a while longer.
            if i % 3 != 0 {
                kept_by_receiver.push(received(&route));
            }
            let kept = t.sent[out.index()].0.len();
            assert!(
                kept <= route.len() + DRAIN_BATCH + 1,
                "{kept} kept at send {i}"
            );
        }
        while !route.is_empty() {
            kept_by_receiver.push(received(&route));
        }
        let mut values: Vec<u32> = kept_by_receiver
            .iter()
            .map(|p| u32::from_le_bytes(p[..].try_into().unwrap()))
            .collect();
        values.sort_unstable();
        assert_eq!(values, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn a_larger_payload_gets_a_fresh_buffer_and_a_smaller_one_reuses() {
        let (mut t, route, out) = sender();
        send(&mut t, out, b"ab");
        drop(received(&route));
        send(&mut t, out, b"abcdefgh");
        let large = received(&route);
        assert_eq!((&large[..], large.storage_len()), (&b"abcdefgh"[..], 8));
        let at = large.as_ptr();
        drop(large);
        send(&mut t, out, b"xyz");
        let small = received(&route);
        assert_eq!((&small[..], small.as_ptr()), (&b"xyz"[..], at));
    }

    #[test]
    fn requests_stay_in_order_across_a_bulk_drain_and_later_ones_are_seen() {
        let (mut t, _data, obs) = transport();
        for from in ["a", "b", "c"] {
            obs.push(request(from));
        }
        // A `recv` on the introspection inbox drains all three into the
        // stash and hands out the first; the poll continues from there.
        let first = t.try_pop(IfaceId::INTROSPECTION).map(|(msg, _cost)| msg);
        assert_eq!(requester(first).as_deref(), Some("a"));
        assert!(obs.is_empty(), "the mailbox was drained in one go");
        assert_eq!(t.inbox_depth(IfaceId::INTROSPECTION), 2);
        obs.push(request("d"));
        for from in ["b", "c", "d"] {
            assert_eq!(requester(t.poll_obs()).as_deref(), Some(from));
        }
        assert!(t.poll_obs().is_none());
    }

    #[test]
    fn a_poll_is_answered_in_place_with_gauges_that_count_the_stash() {
        // The target: a component whose runtime has drained its `in`
        // mailbox into its stash and handed out one message of three.
        let (mut target, data, obs) = transport();
        for payload in [b"1" as &'static [u8], b"22", b"333"] {
            data.push(Message::Data(bytes::Bytes::from_static(payload)));
        }
        let data_in = id(&target, "in");
        assert!(target.try_pop(data_in).is_some());
        assert!(data.is_empty(), "all three left the mailbox");
        // Stashed requests are no queued data.
        obs.push(request("a"));
        obs.push(request("b"));
        assert!(target.try_pop(IfaceId::INTROSPECTION).is_some());
        let stats = Arc::clone(&target.stats);
        stats.mark_started(0);
        // The observer: `obs_c` is wired to that component.
        let handle = Observed {
            engine: crate::observe::engine::ObsEngine::new(Arc::clone(&stats)),
            inboxes: vec![Some(obs.clone()), Some(data.clone())],
        };
        let wiring = Wiring {
            index: 1,
            provided: vec![None, None],
            routes: vec![None, Some(Fifo::new(0))],
            observed: vec![None, Some(handle)],
            stats: Arc::new(ComponentStats::new("Observer", &[], &["obs_c".to_string()])),
            pool: None,
        };
        let mut observer = HostTransport::new(wiring, NoParker);
        let obs_c = id(&observer, "obs_c");
        let Some(ObsReply::Health(health)) = observer.observe(obs_c, ObsRequest::Health) else {
            panic!("not answered in place");
        };
        assert_eq!((health.queued_messages, health.queued_bytes), (2, 5));
        // Nothing was written into the target's block on the way.
        assert_eq!(stats.health(0).queued_messages, 0);
        // The target's own count is the same number.
        assert_eq!((target.inbox_depth(data_in), target.queued_bytes()), (2, 5));
        assert!(target.try_pop(data_in).is_some());
        let Some(ObsReply::Full(report)) = observer.observe(obs_c, ObsRequest::Full) else {
            panic!("not answered in place");
        };
        assert_eq!(report.os.queued_bytes, 3);
        assert_eq!(report.health.unwrap().queued_messages, 1);
        // Not a connection into an introspection interface: the
        // runtime sends a message.
        assert!(observer
            .observe(IfaceId::INTROSPECTION, ObsRequest::Health)
            .is_none());
        assert!(target.observe(data_in, ObsRequest::Health).is_none());
    }

    #[test]
    fn introspection_is_an_inbox_by_name_too() {
        let (mut t, data, obs) = transport();
        let (data_in, ifaces) = (id(&t, "in"), t.stats.interfaces());
        assert!(ifaces.has_inbox(data_in) && ifaces.has_inbox(IfaceId::INTROSPECTION));
        assert!(ifaces.id("out").is_none());
        data.push(Message::Data(bytes::Bytes::from_static(b"12345")));
        obs.push(request("a"));
        let depths = |t: &HostTransport<NoParker>| {
            (
                t.inbox_depth(data_in),
                t.inbox_depth(IfaceId::INTROSPECTION),
            )
        };
        assert_eq!(depths(&t), (1, 1));
        assert_eq!(t.queued_bytes(), 5);
        assert_eq!(requester(t.poll_obs()).as_deref(), Some("a"));
    }
}
