//! A shared payload buffer pool for zero-allocation steady-state
//! messaging.
//!
//! The paper's mailbox transport copies every payload at the send
//! primitive (the Figure 4 copy). Without a pool the host transport
//! copies into a buffer it sent on the same route before, once the
//! receiver has dropped it, and allocates only while the receiver holds
//! them all; the receiver's payload shares its storage with the copy the
//! sender keeps, so [`Bytes::is_unique`] on it is false. With a pool,
//! buffers cycle between senders, the transport, and receivers, and no
//! handle outlives its use: a sender serializes into a pooled buffer,
//! the transport draws a second pooled buffer for its copy and recycles
//! the sender's, and the receiver recycles the transport's once the
//! message is consumed. The working set is what is in flight at once:
//! while that stays within what [`BufferPool::prewarm`] stocked, the
//! hot path performs **zero** heap allocations (`repro alloc-check`
//! counts them with a counting global allocator). Mailboxes are
//! unbounded, so a producer that runs ahead takes more buffers than
//! were stocked, and the pool grows ([`PoolStats::grown`]) to the
//! deepest in-flight mark the run reaches.
//!
//! Recycling is safe by construction: a buffer is only reclaimed when
//! its [`Bytes`] handle is *unique* (no clones or zero-copy slices
//! outlive it), so a stale view can never observe a refill.
//!
//! The free list is sharded: a thread takes from and recycles into its
//! own shard, so components on different threads do not serialise on
//! the pool. Buffers flow one way through a pipeline (the first stage
//! takes more than it recycles, the last recycles what it never took),
//! so a thread whose shard has run dry moves up to half of another
//! shard over in one go before the pool allocates anything.

use std::sync::Arc;

use bytes::Bytes;

use crate::sync::{AtomicU64, AtomicUsize, Mutex, Ordering};

/// Counters describing a pool's lifetime behavior (all monotonically
/// increasing except `free`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers allocated on demand because no shard of the free list
    /// had one. A fully prewarmed steady state keeps this at 0.
    pub grown: u64,
    /// Buffers successfully returned to the free list.
    pub recycled: u64,
    /// Recycle attempts rejected (buffer still shared, or storage of
    /// the wrong size) plus oversize payloads served outside the pool.
    pub dropped: u64,
    /// Buffers currently on the free list, summed over its shards.
    pub free: u64,
}

/// Shards of the free list. A thread takes from and recycles into one
/// of them, so threads on different shards share no lock and no cache
/// line.
const SHARDS: usize = 8;

/// Most buffers one steal moves between shards (the size of the stack
/// buffer they cross in).
const STEAL_MAX: usize = 32;

/// One shard, alone on its cache lines (128 bytes: x86-64 prefetches
/// lines in adjacent pairs).
#[repr(align(128))]
#[derive(Default)]
struct Shard {
    state: Mutex<ShardState>,
}

#[derive(Default)]
struct ShardState {
    free: Vec<Bytes>,
    /// Buffers recycled into this shard. Counted here, under the lock
    /// the recycle holds anyway: one counter for the whole pool would
    /// be a cache line every recycling thread writes.
    recycled: u64,
}

struct PoolInner {
    shards: [Shard; SHARDS],
    buf_len: usize,
    /// The rare events are counted pool-wide.
    grown: AtomicU64,
    dropped: AtomicU64,
}

/// The calling thread's shard. Threads are dealt shards round-robin the
/// first time they touch any pool. The thread-local is read and done
/// with inside one `take`/`recycle`, so a fiber that is resumed on
/// another worker simply uses that worker's shard from then on.
fn home_shard() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static HOME: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
    }
    HOME.with(|home| *home)
}

/// A pool of fixed-size byte buffers shared across an application
/// (clones share the same free list).
///
/// ```
/// use embera::BufferPool;
///
/// let pool = BufferPool::new(64);
/// pool.prewarm(2);
/// let b = pool.take_from(b"hello");
/// assert_eq!(&b[..], b"hello");
/// assert!(pool.recycle(b));
/// assert_eq!(pool.stats().grown, 0);
/// ```
#[derive(Clone)]
pub struct BufferPool {
    inner: Arc<PoolInner>,
}

impl BufferPool {
    /// Pool of buffers with `buf_len` bytes of storage each. Payloads
    /// longer than `buf_len` are served by plain allocation (and
    /// counted in [`PoolStats::dropped`]).
    pub fn new(buf_len: usize) -> Self {
        assert!(buf_len > 0, "pool buffer length must be positive");
        BufferPool {
            inner: Arc::new(PoolInner {
                shards: Default::default(),
                buf_len,
                grown: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
            }),
        }
    }

    /// Storage size of each pooled buffer.
    pub fn buf_len(&self) -> usize {
        self.inner.buf_len
    }

    /// Stock the free list with `n` fresh buffers up front, so steady
    /// state never grows the pool ([`PoolStats::grown`] stays 0). They
    /// go to the calling thread's shard, from where other threads move
    /// them over as they need them; every shard gets room for all of
    /// them, so that wherever they end up no shard reallocates.
    pub fn prewarm(&self, n: usize) {
        let stocked = self.stats().free as usize + n;
        for shard in &self.inner.shards {
            let mut shard = shard.state.lock();
            let room = stocked.saturating_sub(shard.free.len());
            shard.free.reserve(room);
        }
        let mut home = self.inner.shards[home_shard()].state.lock();
        for _ in 0..n {
            home.free.push(Bytes::from(vec![0u8; self.inner.buf_len]));
        }
    }

    /// A unique buffer of `buf_len` bytes: from the calling thread's
    /// shard, else moved over from another shard together with up to
    /// half of what that one holds, else — every shard empty — freshly
    /// allocated (bumping `grown`).
    fn take(&self) -> Bytes {
        let home = home_shard();
        let reclaimed = self.inner.shards[home].state.lock().free.pop();
        reclaimed
            .or_else(|| self.steal_into(home))
            .unwrap_or_else(|| {
                self.inner.grown.fetch_add(1, Ordering::Relaxed);
                Bytes::from(vec![0u8; self.inner.buf_len])
            })
    }

    /// Move up to half of the first non-empty other shard into `home`,
    /// keeping one buffer back for the caller. One shard is locked at a
    /// time and the buffers cross in an array on the stack, so a steal
    /// neither deadlocks against a steal the other way nor allocates
    /// (given `home` has room — see [`BufferPool::prewarm`]). Kept out
    /// of line: the array would otherwise deepen the frame of every
    /// `take`, and a thousand fibers' stacks each by a page now and then.
    #[cold]
    #[inline(never)]
    fn steal_into(&self, home: usize) -> Option<Bytes> {
        let mut loot: [Option<Bytes>; STEAL_MAX] = std::array::from_fn(|_| None);
        for step in 1..SHARDS {
            let victim = &self.inner.shards[(home + step) % SHARDS];
            let moved = {
                let mut victim = victim.state.lock();
                let moved = victim.free.len().div_ceil(2).min(STEAL_MAX);
                for slot in &mut loot[..moved] {
                    *slot = victim.free.pop();
                }
                moved
            };
            if moved == 0 {
                continue;
            }
            let mut stolen = loot[..moved].iter_mut().filter_map(Option::take);
            let first = stolen.next();
            if moved > 1 {
                self.inner.shards[home].state.lock().free.extend(stolen);
            }
            return first;
        }
        None
    }

    /// A buffer holding a copy of `payload`: drawn from the free list
    /// when possible, freshly allocated otherwise (bumping `grown`, or
    /// `dropped` for oversize payloads that bypass the pool entirely).
    pub fn take_from(&self, payload: &[u8]) -> Bytes {
        if payload.len() > self.inner.buf_len {
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
            return Bytes::copy_from_slice(payload);
        }
        self.take_with(payload.len(), |dst| dst.copy_from_slice(payload))
    }

    /// A buffer whose first `len` bytes are produced **in place** by
    /// `fill` — the zero-copy variant of [`BufferPool::take_from`] for
    /// senders that serialize directly instead of staging through a
    /// scratch buffer (one full memcpy pass fewer on the hot path).
    /// `fill` receives exactly `len` writable bytes. Oversize requests
    /// fall back to a plain allocation, like `take_from`.
    pub fn take_with(&self, len: usize, fill: impl FnOnce(&mut [u8])) -> Bytes {
        if len > self.inner.buf_len {
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
            let mut v = vec![0u8; len];
            fill(&mut v);
            return Bytes::from(v);
        }
        let mut buf = self.take();
        let storage = buf.try_mut().expect("free-list buffer must be unique");
        fill(&mut storage[..len]);
        buf.reset_view(len);
        buf
    }

    /// Return a consumed buffer to the free list (the calling thread's
    /// shard). Succeeds only when the handle is unique (no live clones
    /// or slices) and the storage came from this pool's size class;
    /// otherwise the buffer is simply dropped and `false` returned.
    pub fn recycle(&self, mut buf: Bytes) -> bool {
        if buf.is_unique() && buf.storage_len() == self.inner.buf_len {
            buf.reset_view(self.inner.buf_len);
            let mut shard = self.inner.shards[home_shard()].state.lock();
            shard.free.push(buf);
            shard.recycled += 1;
            true
        } else {
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
            false
        }
    }

    /// Current counters.
    pub fn stats(&self) -> PoolStats {
        let mut stats = PoolStats {
            grown: self.inner.grown.load(Ordering::Relaxed),
            recycled: 0,
            dropped: self.inner.dropped.load(Ordering::Relaxed),
            free: 0,
        };
        for shard in &self.inner.shards {
            let shard = shard.state.lock();
            stats.recycled += shard.recycled;
            stats.free += shard.free.len() as u64;
        }
        stats
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("buf_len", &self.inner.buf_len)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prewarmed_round_trip_never_grows() {
        let pool = BufferPool::new(16);
        pool.prewarm(2);
        for i in 0..100u8 {
            let b = pool.take_from(&[i; 10]);
            assert_eq!(&b[..], &[i; 10]);
            assert!(pool.recycle(b));
        }
        let s = pool.stats();
        assert_eq!(s.grown, 0);
        assert_eq!(s.recycled, 100);
        assert_eq!(s.free, 2);
    }

    #[test]
    fn take_with_fills_in_place_and_recycles() {
        let pool = BufferPool::new(16);
        pool.prewarm(1);
        let b = pool.take_with(5, |dst| {
            assert_eq!(dst.len(), 5);
            dst.copy_from_slice(b"hello");
        });
        assert_eq!(&b[..], b"hello");
        assert!(pool.recycle(b));
        let s = pool.stats();
        assert_eq!((s.grown, s.recycled, s.free), (0, 1, 1));
        // Oversize requests bypass the pool, like take_from.
        let big = pool.take_with(32, |dst| dst.fill(7));
        assert_eq!(&big[..], &[7u8; 32]);
        assert!(!pool.recycle(big));
    }

    #[test]
    fn empty_pool_grows_on_demand() {
        let pool = BufferPool::new(8);
        let a = pool.take_from(b"aa");
        let b = pool.take_from(b"bb");
        assert_eq!(pool.stats().grown, 2);
        assert!(pool.recycle(a));
        assert!(pool.recycle(b));
        let c = pool.take_from(b"cc");
        assert_eq!(pool.stats().grown, 2, "recycled buffer must be reused");
        drop(c);
    }

    #[test]
    fn shared_buffer_is_not_recycled() {
        let pool = BufferPool::new(8);
        pool.prewarm(1);
        let b = pool.take_from(b"xyz");
        let view = b.slice(1..2);
        assert!(!pool.recycle(b), "live slice must block recycling");
        assert_eq!(&view[..], b"y");
        assert_eq!(pool.stats().dropped, 1);
    }

    #[test]
    fn oversize_payload_bypasses_pool() {
        let pool = BufferPool::new(4);
        pool.prewarm(1);
        let big = pool.take_from(&[7u8; 32]);
        assert_eq!(big.len(), 32);
        assert_eq!(pool.stats().free, 1, "pool stock untouched");
        assert!(!pool.recycle(big), "wrong size class is rejected");
    }

    /// Run `f` on a fresh thread whose shard is not `other`, and
    /// return that shard with `f`'s result. Threads are dealt shards
    /// round-robin, so this takes a try or two.
    fn on_another_shard<R: Send>(other: usize, f: impl Fn() -> R + Sync) -> (usize, R) {
        loop {
            let run = || (home_shard() != other).then(|| (home_shard(), f()));
            let done = std::thread::scope(|s| s.spawn(run).join().expect("no panic"));
            if let Some(done) = done {
                return done;
            }
        }
    }

    #[test]
    fn a_dry_shard_takes_half_of_another_before_the_pool_grows() {
        let pool = BufferPool::new(8);
        // One thread's shard ends up with six buffers...
        let (a, ()) = on_another_shard(usize::MAX, || {
            let taken: Vec<Bytes> = (0..6).map(|i| pool.take_from(&[i])).collect();
            taken.into_iter().for_each(|b| assert!(pool.recycle(b)));
        });
        let grown = pool.stats().grown;
        assert_eq!((grown, pool.stats().free), (6, 6));
        // ...and a thread on an empty one gets three of them: one in
        // hand, two in its own shard for next time.
        let (b, held) = on_another_shard(a, || pool.take_from(b"b"));
        let in_shard = |i: usize| pool.inner.shards[i].state.lock().free.len();
        assert_eq!((in_shard(a), in_shard(b)), (3, 2));
        let stats = pool.stats();
        assert_eq!(
            stats.grown, grown,
            "taken from the other shard, not allocated"
        );
        assert_eq!(stats.free, 5, "`free` sums over the shards");
        assert_eq!(&held[..], b"b");
    }

    #[test]
    fn a_steal_moves_at_most_one_stack_buffer_and_a_lone_buffer_too() {
        let pool = BufferPool::new(8);
        pool.prewarm(4 * STEAL_MAX + 1);
        let here = home_shard();
        let in_shard = |i: usize| pool.inner.shards[i].state.lock().free.len();
        let (there, held) = on_another_shard(here, || pool.take_from(b"x"));
        assert_eq!(in_shard(here), 3 * STEAL_MAX + 1);
        assert_eq!(in_shard(there), STEAL_MAX - 1);
        drop(held);
        // Half of one is one.
        let single = BufferPool::new(8);
        single.prewarm(1);
        let (_, held) = on_another_shard(here, || single.take_from(b"y"));
        assert_eq!((single.stats().grown, single.stats().free), (0, 0));
        assert!(single.recycle(held));
    }

    #[test]
    fn prewarm_leaves_room_for_every_buffer_in_every_shard() {
        let pool = BufferPool::new(8);
        pool.prewarm(10);
        pool.prewarm(5);
        for shard in &pool.inner.shards {
            assert!(shard.state.lock().free.capacity() >= 15);
        }
        assert_eq!(pool.stats().free, 15);
    }

    #[test]
    fn clones_share_the_free_list() {
        let pool = BufferPool::new(8);
        let clone = pool.clone();
        let b = clone.take_from(b"hi");
        assert!(pool.recycle(b));
        assert_eq!(clone.stats().free, 1);
    }
}
