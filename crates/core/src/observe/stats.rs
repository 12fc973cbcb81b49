//! Per-component statistics, updated by the runtime at every
//! communication point and snapshotted by the observation engine.
//!
//! The structure is lock-free (atomics only) so that recording a send or
//! receive costs a handful of relaxed atomic adds — the observation
//! machinery must not distort the middleware timings it measures.
//!
//! # Reading a block that is being written
//!
//! On the host backends an observer reads this block from its own
//! execution flow while the component keeps running (see
//! [`Transport::observe`](crate::runtime::Transport::observe)), so a
//! snapshot may fall between two stores of one `record_send`. There is
//! no lock and no sequence number; what a reader may rely on is this:
//!
//! * every field is one atomic, so no value is torn;
//! * every counter is monotone — sends, receives, bytes, timing counts,
//!   totals and maxima never decrease from one snapshot to the next,
//!   minima never increase, `last_progress_ns` never goes back;
//! * within one [`AppStats`] the totals are the sums of the
//!   per-interface values of that same snapshot;
//! * a [`TimingSnapshot`] covers *at least* the `count` operations it
//!   reports: `count` is written last and read first, so `total_ns`,
//!   `min_ns` and `max_ns` may already include one operation more;
//! * a queue gauge computed by a reader outside the component (the
//!   mailboxes' lengths, then what the transport says it stashed) counts
//!   every message that waited from before the read to after it, and
//!   may count a batch drained in between twice;
//! * fields of different groups are not a cut: `middleware.send.count`
//!   and `app.total_sends` may differ by the sends in flight, and a
//!   sender's `total_sends` read before its receiver's
//!   `total_receives` says nothing about messages queued in between.
//!
//! Once the component is quiescent every snapshot is exact.

use crate::names::{IfaceId, IfaceTable};
use crate::observe::report::{
    AppStats, HealthInfo, HealthState, IfaceCounterSnapshot, MiddlewareStats, ObservationReport,
    OsStats, StructureInfo, TimingSnapshot,
};
use crate::sync::{AtomicU64, Ordering};

/// Supervision flag bits (`ComponentStats::flags`).
const FLAG_BLOCKED: u64 = 1;
const FLAG_FAULTED: u64 = 1 << 1;
const FLAG_RESTARTING: u64 = 1 << 2;

#[derive(Default)]
struct TimingAtomic {
    count: AtomicU64,
    total_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl TimingAtomic {
    fn new() -> Self {
        TimingAtomic {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
        }
    }

    fn record(&self, dur_ns: u64) {
        self.total_ns.fetch_add(dur_ns, Ordering::Relaxed);
        self.min_ns.fetch_min(dur_ns, Ordering::Relaxed);
        self.max_ns.fetch_max(dur_ns, Ordering::Relaxed);
        // Last, and `Release`: a reader that counts this operation
        // (`Acquire` in `snapshot`) also sees its duration.
        self.count.fetch_add(1, Ordering::Release);
    }

    fn snapshot(&self) -> TimingSnapshot {
        let count = self.count.load(Ordering::Acquire);
        TimingSnapshot {
            count,
            total_ns: self.total_ns.load(Ordering::Relaxed),
            min_ns: if count == 0 {
                0
            } else {
                self.min_ns.load(Ordering::Relaxed)
            },
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }
}

#[derive(Default)]
struct IfaceAtomic {
    sends: AtomicU64,
    receives: AtomicU64,
}

/// Occupation of a component's data mailboxes at one instant: what the
/// queue gauges of a report ([`HealthInfo::queued_messages`],
/// [`HealthInfo::queued_bytes`], [`OsStats::queued_bytes`]) are filled
/// from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Queued {
    /// Messages the behavior has yet to receive.
    pub(crate) messages: u64,
    /// Their data-payload bytes.
    pub(crate) bytes: u64,
}

/// All observable statistics of one component. Shared between the
/// component runtime (writer) and observation consumers (readers).
pub struct ComponentStats {
    name: String,
    /// Numbered in the order [`AppStats::interfaces`] lists them.
    interfaces: IfaceTable,
    /// The Figure-5 listing, which never changes: built once, copied
    /// into each answer.
    structure: StructureInfo,
    /// By [`IfaceId`], up to the last declared interface.
    counters: Vec<IfaceAtomic>,
    send_timing: TimingAtomic,
    recv_timing: TimingAtomic,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    /// `u64::MAX` = not yet started/finished.
    started_ns: AtomicU64,
    finished_ns: AtomicU64,
    memory_bytes: AtomicU64,
    cpu_time_ns: AtomicU64,
    queued_bytes: AtomicU64,
    queued_messages: AtomicU64,
    /// Data messages (and their payload bytes) the component's
    /// transport has drained from its mailboxes in bulk and not handed
    /// to the behavior yet. Written by the component's own flow only,
    /// here — among the counters every receive writes anyway — and not
    /// in the mailbox, whose cache line belongs to the senders (kept
    /// there, `exec_fanio` lost 5 %).
    stashed_messages: AtomicU64,
    stashed_bytes: AtomicU64,
    /// Count of observable progress events (send push, data receive,
    /// compute). The hot path only bumps this counter — no clock read.
    progress_marks: AtomicU64,
    /// Counter value last folded into `last_progress_ns` by `health`.
    progress_seen: AtomicU64,
    /// Platform time of the component's last observable progress — the
    /// watchdog's input. Stamped lazily: `health` compares
    /// `progress_marks` against `progress_seen` and refreshes this with
    /// the caller's clock, so its granularity is the health poll
    /// interval (always far finer than a useful watchdog window).
    last_progress_ns: AtomicU64,
    /// `FLAG_*` supervision bits.
    flags: AtomicU64,
    restarts: AtomicU64,
    /// Messages shed at ingress by a queue-bound overload policy.
    shed_messages: AtomicU64,
    /// Deadlined messages shed at ingress because their deadline had
    /// already expired.
    expired_messages: AtomicU64,
    /// The part of `cpu_time_ns` the transport charged for the runtime's
    /// observation replies ([`ComponentStats::uncharged`]). Last, so no
    /// field the data path writes moves.
    obs_cpu_ns: AtomicU64,
}

impl ComponentStats {
    /// Stats for a component with the given data interfaces.
    pub fn new(name: impl Into<String>, provided: &[String], required: &[String]) -> Self {
        Self::wired(name, provided, required, &[])
    }

    /// [`ComponentStats::new`], connected through `wired`.
    pub(crate) fn wired(
        name: impl Into<String>,
        provided: &[String],
        required: &[String],
        wired: &[&str],
    ) -> Self {
        let interfaces = IfaceTable::new(provided, required, wired);
        let name = name.into();
        ComponentStats {
            structure: StructureInfo::new(&name, provided, required),
            name,
            counters: (0..=interfaces.declared().count())
                .map(|_| Default::default())
                .collect(),
            interfaces,
            send_timing: TimingAtomic::new(),
            recv_timing: TimingAtomic::new(),
            bytes_sent: AtomicU64::new(0),
            bytes_received: AtomicU64::new(0),
            started_ns: AtomicU64::new(u64::MAX),
            finished_ns: AtomicU64::new(u64::MAX),
            memory_bytes: AtomicU64::new(0),
            cpu_time_ns: AtomicU64::new(0),
            queued_bytes: AtomicU64::new(0),
            queued_messages: AtomicU64::new(0),
            stashed_messages: AtomicU64::new(0),
            stashed_bytes: AtomicU64::new(0),
            progress_marks: AtomicU64::new(0),
            progress_seen: AtomicU64::new(0),
            last_progress_ns: AtomicU64::new(0),
            flags: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            shed_messages: AtomicU64::new(0),
            expired_messages: AtomicU64::new(0),
            obs_cpu_ns: AtomicU64::new(0),
        }
    }

    /// Component name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The component's interfaces, numbered.
    pub fn interfaces(&self) -> &IfaceTable {
        &self.interfaces
    }

    /// Record behavior start at platform time `now_ns`. Also clears the
    /// supervision flags and the finished timestamp, so a restarted
    /// component reads as `Running` again.
    pub fn mark_started(&self, now_ns: u64) {
        self.started_ns.store(now_ns, Ordering::Release);
        self.finished_ns.store(u64::MAX, Ordering::Release);
        self.flags.store(0, Ordering::Release);
        self.last_progress_ns.fetch_max(now_ns, Ordering::Relaxed);
    }

    /// Record behavior completion at platform time `now_ns`.
    pub fn mark_finished(&self, now_ns: u64) {
        self.finished_ns.store(now_ns, Ordering::Release);
    }

    /// Set the component's accounted memory (stack + provided-interface
    /// structures; the backend computes the paper's formula).
    pub fn set_memory_bytes(&self, bytes: u64) {
        self.memory_bytes.store(bytes, Ordering::Release);
    }

    /// Set accumulated CPU time, where the backend charges it (OS21's
    /// `task_time` on the MPSoC backend, logical CPU time on inproc).
    pub fn set_cpu_time_ns(&self, ns: u64) {
        self.cpu_time_ns.store(ns, Ordering::Release);
    }

    /// Run `work`, done by the runtime on the component's behalf on its
    /// own flow, and keep the CPU time the transport charged for it out
    /// of every report: counted after that time was stored (`Release`).
    pub(crate) fn uncharged<R>(&self, work: impl FnOnce() -> R) -> R {
        let before = self.cpu_time_ns.load(Ordering::Relaxed);
        let result = work();
        let spent = self.cpu_time_ns.load(Ordering::Relaxed) - before;
        self.obs_cpu_ns.fetch_add(spent, Ordering::Release);
        result
    }

    /// Update the queued-payload gauge (runtime-maintained).
    pub fn set_queued_bytes(&self, bytes: u64) {
        self.queued_bytes.store(bytes, Ordering::Release);
    }

    /// Update the queued-message-count gauge (runtime-maintained).
    pub fn set_queued_messages(&self, count: u64) {
        self.queued_messages.store(count, Ordering::Release);
    }

    /// The component's transport is stashing `messages` drained data
    /// messages of `bytes` payload bytes.
    pub(crate) fn stash(&self, messages: u64, bytes: u64) {
        self.stashed_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.stashed_messages.fetch_add(messages, Ordering::Relaxed);
    }

    /// One stashed message of `bytes` payload bytes went to the
    /// behavior (or was thrown away).
    pub(crate) fn unstash(&self, bytes: u64) {
        self.stashed_messages.fetch_sub(1, Ordering::Relaxed);
        self.stashed_bytes.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// What the transport holds stashed. A reader adds this to the
    /// mailboxes' lengths, read *before* it: see
    /// [`Fifo::pop_batch`](crate::runtime::Fifo).
    pub(crate) fn stashed(&self) -> Queued {
        Queued {
            messages: self.stashed_messages.load(Ordering::Relaxed),
            bytes: self.stashed_bytes.load(Ordering::Relaxed),
        }
    }

    /// Record observable progress. Deliberately clock-free (a single
    /// relaxed increment): this runs on every send, data receive and
    /// compute annotation, where an extra `now()` per message is
    /// measurable on the SMP hot path.
    pub fn mark_progress(&self) {
        self.progress_marks.fetch_add(1, Ordering::Relaxed);
    }

    /// Mark the component as blocked in (or released from) a receive.
    pub fn set_blocked(&self, blocked: bool) {
        if blocked {
            self.flags.fetch_or(FLAG_BLOCKED, Ordering::Release);
        } else {
            self.flags.fetch_and(!FLAG_BLOCKED, Ordering::Release);
        }
    }

    /// Mark the component as faulted (behavior failed terminally).
    pub fn mark_faulted(&self) {
        self.flags.fetch_or(FLAG_FAULTED, Ordering::Release);
    }

    /// Record one restart: the component is between failed attempt and
    /// re-run. Cleared by the next `mark_started`.
    pub fn mark_restarting(&self) {
        self.restarts.fetch_add(1, Ordering::Relaxed);
        let mut flags = self.flags.load(Ordering::Acquire);
        flags &= !(FLAG_FAULTED | FLAG_BLOCKED);
        flags |= FLAG_RESTARTING;
        self.flags.store(flags, Ordering::Release);
    }

    /// Number of restarts so far.
    pub fn restarts(&self) -> u64 {
        self.restarts.load(Ordering::Relaxed)
    }

    /// Record one message shed at ingress by a queue-bound overload
    /// policy (drop-oldest).
    pub fn record_shed(&self) {
        self.shed_messages.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one deadlined message shed at ingress because its
    /// deadline had expired.
    pub fn record_expired(&self) {
        self.expired_messages.fetch_add(1, Ordering::Relaxed);
    }

    /// Messages shed by queue-bound overload policies so far.
    pub fn shed_messages(&self) -> u64 {
        self.shed_messages.load(Ordering::Relaxed)
    }

    /// Deadline-expired messages shed so far.
    pub fn expired_messages(&self) -> u64 {
        self.expired_messages.load(Ordering::Relaxed)
    }

    /// The queue gauges as the component's own runtime last stored
    /// them.
    pub(crate) fn queued(&self) -> Queued {
        Queued {
            messages: self.queued_messages.load(Ordering::Acquire),
            bytes: self.queued_bytes.load(Ordering::Acquire),
        }
    }

    /// Supervision snapshot taken at platform time `now_ns`, with the
    /// queue gauges the runtime last stored. Progress marks accumulated
    /// since the previous snapshot are folded into `last_progress_ns`
    /// here, with the caller's clock.
    pub fn health(&self, now_ns: u64) -> HealthInfo {
        self.health_with(now_ns, self.queued())
    }

    /// [`ComponentStats::health`] with the queue gauges supplied by the
    /// caller — a reader that looked at the mailboxes itself.
    ///
    /// Any number of flows may fold progress marks at once (the
    /// component's runtime, an observer reading in place, the final
    /// report): each stamps `last_progress_ns` *before* it publishes
    /// the mark count it saw, so a folder that finds nothing new knows
    /// the stamp for it is already there, and both are only ever
    /// raised, so a late folder cannot undo a newer one.
    pub(crate) fn health_with(&self, now_ns: u64, queued: Queued) -> HealthInfo {
        let marks = self.progress_marks.load(Ordering::Relaxed);
        if marks > self.progress_seen.load(Ordering::Acquire) {
            self.last_progress_ns.fetch_max(now_ns, Ordering::Relaxed);
            self.progress_seen.fetch_max(marks, Ordering::Release);
        }
        let flags = self.flags.load(Ordering::Acquire);
        let state = if flags & FLAG_RESTARTING != 0 {
            HealthState::Restarting
        } else if flags & FLAG_FAULTED != 0 {
            HealthState::Faulted
        } else if self.finished_ns.load(Ordering::Acquire) != u64::MAX {
            HealthState::Finished
        } else if self.started_ns.load(Ordering::Acquire) == u64::MAX {
            HealthState::Created
        } else if flags & FLAG_BLOCKED != 0 {
            HealthState::Blocked
        } else {
            HealthState::Running
        };
        HealthInfo {
            state,
            last_progress_ns: self.last_progress_ns.load(Ordering::Relaxed),
            queued_messages: queued.messages,
            queued_bytes: queued.bytes,
            restarts: self.restarts(),
            shed_messages: self.shed_messages(),
            expired_messages: self.expired_messages(),
        }
    }

    /// Record a data send of `bytes` over `iface` taking `dur_ns`.
    pub fn record_send(&self, iface: &str, bytes: u64, dur_ns: u64) {
        self.record_send_on(self.interfaces.id(iface), bytes, dur_ns);
    }

    /// By id: `None`, or an undeclared id, counts in the totals only.
    pub(crate) fn record_send_on(&self, iface: Option<IfaceId>, bytes: u64, dur_ns: u64) {
        if let Some(c) = iface.and_then(|id| self.counters.get(id.index())) {
            c.sends.fetch_add(1, Ordering::Relaxed);
        }
        self.send_timing.record(dur_ns);
        self.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record a data receive of `bytes` from `iface` taking `dur_ns`
    /// (primitive execution time, not queue wait).
    pub fn record_receive(&self, iface: &str, bytes: u64, dur_ns: u64) {
        self.record_receive_on(self.interfaces.id(iface), bytes, dur_ns);
    }

    /// By id, as [`ComponentStats::record_send_on`].
    pub(crate) fn record_receive_on(&self, iface: Option<IfaceId>, bytes: u64, dur_ns: u64) {
        if let Some(c) = iface.and_then(|id| self.counters.get(id.index())) {
            c.receives.fetch_add(1, Ordering::Relaxed);
        }
        self.recv_timing.record(dur_ns);
        self.bytes_received.fetch_add(bytes, Ordering::Relaxed);
    }

    /// OS-level snapshot; `now_ns` supplies "current time" for a
    /// still-running component.
    pub fn os_stats(&self, now_ns: u64) -> OsStats {
        self.os_stats_with(now_ns, self.queued())
    }

    /// [`ComponentStats::os_stats`] with the caller's queue gauge.
    pub(crate) fn os_stats_with(&self, now_ns: u64, queued: Queued) -> OsStats {
        let started = self.started_ns.load(Ordering::Acquire);
        let finished = self.finished_ns.load(Ordering::Acquire);
        let exec_time_ns = if started == u64::MAX {
            0
        } else if finished == u64::MAX {
            now_ns.saturating_sub(started)
        } else {
            finished.saturating_sub(started)
        };
        // First: a reader that sees a reply's share also sees its time.
        let obs_cpu = self.obs_cpu_ns.load(Ordering::Acquire);
        OsStats {
            exec_time_ns,
            memory_bytes: self.memory_bytes.load(Ordering::Acquire),
            cpu_time_ns: self.cpu_time_ns.load(Ordering::Acquire) - obs_cpu,
            queued_bytes: queued.bytes,
        }
    }

    /// Middleware-level snapshot.
    pub fn middleware_stats(&self) -> MiddlewareStats {
        MiddlewareStats {
            send: self.send_timing.snapshot(),
            recv: self.recv_timing.snapshot(),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
        }
    }

    /// Application-level snapshot (Table 2's counters).
    pub fn app_stats(&self) -> AppStats {
        let mut interfaces = Vec::with_capacity(self.counters.len() - 1);
        let mut total_sends = 0;
        let mut total_receives = 0;
        for (id, name) in self.interfaces.declared() {
            let c = &self.counters[id.index()];
            let sends = c.sends.load(Ordering::Relaxed);
            let receives = c.receives.load(Ordering::Relaxed);
            total_sends += sends;
            total_receives += receives;
            interfaces.push(IfaceCounterSnapshot {
                interface: name.to_string(),
                sends,
                receives,
            });
        }
        AppStats {
            interfaces,
            total_sends,
            total_receives,
        }
    }

    /// Structure listing (Figure 5).
    pub fn structure(&self) -> StructureInfo {
        self.structure.clone()
    }

    /// Full multi-level report, with the queue gauges the runtime last
    /// stored.
    pub fn full_report(&self, now_ns: u64) -> ObservationReport {
        self.full_report_with(now_ns, self.queued())
    }

    /// [`ComponentStats::full_report`] with the caller's queue gauges.
    pub(crate) fn full_report_with(&self, now_ns: u64, queued: Queued) -> ObservationReport {
        ObservationReport {
            component: self.name.clone(),
            os: self.os_stats_with(now_ns, queued),
            middleware: self.middleware_stats(),
            app: self.app_stats(),
            structure: self.structure(),
            custom: Vec::new(),
            health: Some(self.health_with(now_ns, queued)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> ComponentStats {
        ComponentStats::new(
            "IDCT_1",
            &["_fetchIdct1".to_string()],
            &["idctReorder".to_string()],
        )
    }

    #[test]
    fn lifecycle_and_exec_time() {
        let s = stats();
        assert_eq!(s.health(0).state, HealthState::Created);
        assert_eq!(s.os_stats(100).exec_time_ns, 0);
        s.mark_started(1_000);
        assert_eq!(s.health(1_000).state, HealthState::Running);
        assert_eq!(s.os_stats(1_500).exec_time_ns, 500);
        s.mark_finished(3_000);
        assert_eq!(s.health(3_000).state, HealthState::Finished);
        assert_eq!(s.os_stats(99_999).exec_time_ns, 2_000);
    }

    #[test]
    fn counters_track_per_interface_and_totals() {
        let s = stats();
        s.record_send("idctReorder", 64, 10);
        s.record_send("idctReorder", 64, 12);
        s.record_receive("_fetchIdct1", 128, 9);
        let app = s.app_stats();
        assert_eq!(app.total_sends, 2);
        assert_eq!(app.total_receives, 1);
        let by_name: std::collections::HashMap<_, _> = app
            .interfaces
            .iter()
            .map(|e| (e.interface.as_str(), (e.sends, e.receives)))
            .collect();
        assert_eq!(by_name["idctReorder"], (2, 0));
        assert_eq!(by_name["_fetchIdct1"], (0, 1));
    }

    #[test]
    fn timing_min_max_mean() {
        let s = stats();
        s.record_send("idctReorder", 10, 5);
        s.record_send("idctReorder", 10, 15);
        let mw = s.middleware_stats();
        assert_eq!(mw.send.count, 2);
        assert_eq!(mw.send.min_ns, 5);
        assert_eq!(mw.send.max_ns, 15);
        assert_eq!(mw.send.mean_ns(), 10);
        assert_eq!(mw.recv.count, 0);
        assert_eq!(mw.recv.min_ns, 0);
        assert_eq!(mw.bytes_sent, 20);
    }

    #[test]
    fn unknown_interface_send_still_counts_globally() {
        // Defensive: runtimes validate interfaces before recording, but
        // the stats object must not panic on unknown names.
        let s = stats();
        s.record_send("nonexistent", 5, 1);
        assert_eq!(s.app_stats().total_sends, 0);
        assert_eq!(s.middleware_stats().send.count, 1);
    }

    #[test]
    fn health_follows_lifecycle_and_flags() {
        let s = stats();
        assert_eq!(s.health(0).state, HealthState::Created);
        s.mark_started(1_000);
        assert_eq!(s.health(1_000).state, HealthState::Running);
        assert_eq!(s.health(1_000).last_progress_ns, 1_000);
        s.set_blocked(true);
        assert_eq!(s.health(2_000).state, HealthState::Blocked);
        s.set_blocked(false);
        s.mark_progress();
        assert_eq!(s.health(3_000).last_progress_ns, 3_000);
        s.mark_faulted();
        assert_eq!(s.health(3_000).state, HealthState::Faulted);
        s.mark_restarting();
        let h = s.health(3_000);
        assert_eq!(h.state, HealthState::Restarting);
        assert_eq!(h.restarts, 1);
        // A restart looks like a fresh start: running again, flags clear.
        s.mark_started(4_000);
        assert_eq!(s.health(4_000).state, HealthState::Running);
        s.mark_finished(5_000);
        assert_eq!(s.health(5_000).state, HealthState::Finished);
    }

    #[test]
    fn full_report_is_coherent() {
        let s = stats();
        s.mark_started(0);
        s.record_send("idctReorder", 64, 7);
        s.mark_finished(1_000);
        s.set_memory_bytes(8 << 20);
        let r = s.full_report(2_000);
        assert_eq!(r.component, "IDCT_1");
        assert_eq!(r.os.exec_time_ns, 1_000);
        assert_eq!(r.os.memory_bytes, 8 << 20);
        assert_eq!(r.app.total_sends, 1);
        assert_eq!(r.structure.interfaces.len(), 4);
    }
}
