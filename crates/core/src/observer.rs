//! The observer component: "the information obtained, accessible through
//! the observation interface, is gathered and analyzed by a new
//! component connected to the observation interfaces. We have named it
//! the observer component." (paper §3.3)
//!
//! The observer is an ordinary [`Behavior`]: it communicates exclusively
//! through EMBera interfaces, so the same observer runs unchanged on the
//! SMP backend and on the simulated MPSoC. It asks through
//! [`Ctx::observe`] on its `obs_<target>` required interfaces and is
//! prepared for both outcomes: a reply on the spot, where the backend
//! reads the target's statistics on the observer's side of the
//! connection, or a reply message on `observations`.
//!
//! By default one observer polls every component, the paper's design.
//! An application that names groups of components
//! ([`ObserverConfig::grouped`]) gets one regional observer per group
//! instead, each polling its members and rolling a [`RegionSummary`] up
//! to a root observer that can tell a waiting component the run is
//! done ([`ObserverConfig::notify_done`]) or stream the summaries to a
//! controller ([`ObserverConfig::actuate`]). Both polling observers run
//! one loop, `Poller`: every round it asks every target once.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use crate::behavior::{Behavior, Ctx};
use crate::error::EmberaError;
use crate::message::Message;
use crate::names::NameTable;
use crate::observe::protocol::{ObsReply, ObsRequest};
use crate::observe::report::{HealthState, ObservationReport};
use crate::observe::topology::{RegionSummary, RollupTotals};
use crate::sync::Mutex;

/// Reserved name of the auto-wired (root) observer component.
pub const OBSERVER_NAME: &str = "Observer";

/// Name prefix of auto-wired regional observer components
/// (`Observer.region0`, `Observer.region1`, …).
pub(crate) const REGION_OBSERVER_PREFIX: &str = "Observer.region";

/// Region label used by the flat observer's records (there is only one
/// poller, the root itself).
pub(crate) const ROOT_REGION: &str = "root";

/// True for any auto-wired observer component — the root observer or a
/// regional observer. Backends use this (instead of comparing against
/// [`OBSERVER_NAME`]) to keep observers out of application-completion
/// accounting.
pub fn is_observer_component(name: &str) -> bool {
    name == OBSERVER_NAME || name.starts_with(REGION_OBSERVER_PREFIX)
}

/// One collected observation.
#[derive(Debug, Clone)]
pub struct ObservationRecord {
    /// Platform time at which the reply was received, ns.
    pub at_ns: u64,
    /// Polling round that produced it.
    pub round: u64,
    /// The observed component's report.
    pub report: ObservationReport,
}

/// One watchdog violation: a component whose health reply showed no
/// progress for longer than the observer's configured deadline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallRecord {
    /// Region whose observer detected the stall (`"root"` for the flat
    /// observer) — under the hierarchy, the poll timestamp that tripped
    /// the watchdog is the *regional* observer's, so the stall must stay
    /// attributable to the region that reported it.
    pub region: String,
    /// The stalled component.
    pub component: String,
    /// Observer time when the stall was detected, ns.
    pub at_ns: u64,
    /// The component's last reported progress timestamp, ns.
    pub last_progress_ns: u64,
    /// The component's reported liveness state at detection time.
    pub state: HealthState,
}

/// How many of the most recent records an [`ObservationLog`] retains.
/// A constant, not an option: large enough that every run short of a
/// long-lived back-to-back observer keeps all of its records, small
/// enough that such an observer's memory stops growing.
pub const LOG_CAPACITY: usize = 16_384;

/// The retained records, and where each component's latest report is.
#[derive(Default)]
struct Records {
    /// The most recent [`LOG_CAPACITY`] records, oldest first, each
    /// with its component's entry in `latest`.
    ring: VecDeque<(usize, ObservationRecord)>,
    /// Records ever pushed; the ring's last one is number
    /// `collected - 1`.
    collected: u64,
    /// Component name → its entry in `latest`.
    index: HashMap<String, usize>,
    /// One entry per component, in first-seen order.
    latest: Vec<Latest>,
}

/// Where a component's latest report is: in the ring while record
/// number `seq` is retained, moved to `evicted` when that record
/// falls out (a report is never copied on the push path).
struct Latest {
    seq: u64,
    evicted: Option<ObservationReport>,
}

impl Records {
    fn push(&mut self, record: ObservationRecord) {
        let seq = self.collected;
        self.collected += 1;
        let newest = Latest { seq, evicted: None };
        let at = match self.index.get(&record.report.component) {
            Some(&at) => {
                self.latest[at] = newest;
                at
            }
            None => {
                let name = record.report.component.clone();
                self.index.insert(name, self.latest.len());
                self.latest.push(newest);
                self.latest.len() - 1
            }
        };
        if self.ring.len() == LOG_CAPACITY {
            let (at, oldest) = self.ring.pop_front().expect("a full ring");
            let entry = &mut self.latest[at];
            if entry.seq == seq - LOG_CAPACITY as u64 {
                entry.evicted = Some(oldest.report);
            }
        }
        self.ring.push_back((at, record));
    }

    fn latest_by_component(&self) -> Vec<ObservationReport> {
        let first_retained = self.collected - self.ring.len() as u64;
        let report_of = |entry: &Latest| match entry.seq.checked_sub(first_retained) {
            Some(at) => self.ring[at as usize].1.report.clone(),
            None => entry.evicted.clone().expect("kept when its record left"),
        };
        self.latest.iter().map(report_of).collect()
    }
}

/// Shared log of what the observer collected: the most recent
/// `LOG_CAPACITY` records, the latest report of every component ever
/// seen, and every stall and region summary.
#[derive(Clone, Default)]
pub struct ObservationLog {
    records: Arc<Mutex<Records>>,
    stalls: Arc<Mutex<Vec<StallRecord>>>,
    summaries: Arc<Mutex<Vec<RegionSummary>>>,
}

impl ObservationLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a record, dropping the oldest one when
    /// [`LOG_CAPACITY`] are retained already.
    pub(crate) fn push(&self, record: ObservationRecord) {
        self.records.lock().push(record);
    }

    /// Snapshot of the retained records, oldest first: all of them
    /// until [`ObservationLog::dropped`] turns non-zero.
    pub fn records(&self) -> Vec<ObservationRecord> {
        let records = self.records.lock();
        records.ring.iter().map(|(_, r)| r.clone()).collect()
    }

    /// Number of records collected — retained or not.
    pub fn len(&self) -> usize {
        self.records.lock().collected as usize
    }

    /// Whether nothing was ever collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records collected but no longer retained.
    pub fn dropped(&self) -> u64 {
        let records = self.records.lock();
        records.collected - records.ring.len() as u64
    }

    /// Append a watchdog violation.
    pub(crate) fn push_stall(&self, stall: StallRecord) {
        self.stalls.lock().push(stall);
    }

    /// Snapshot of all watchdog violations detected so far.
    pub fn stalls(&self) -> Vec<StallRecord> {
        self.stalls.lock().clone()
    }

    /// Names of components with at least one watchdog violation,
    /// first-detection order, deduplicated.
    pub fn stalled_components(&self) -> Vec<String> {
        let stalls = self.stalls.lock();
        let mut names: Vec<String> = Vec::new();
        for s in stalls.iter() {
            if !names.contains(&s.component) {
                names.push(s.component.clone());
            }
        }
        names
    }

    /// Latest report per component, in first-seen order — of every
    /// component ever logged, retained record or not.
    pub fn latest_by_component(&self) -> Vec<ObservationReport> {
        self.records.lock().latest_by_component()
    }

    /// Append a region summary received by the root observer.
    pub(crate) fn push_summary(&self, summary: RegionSummary) {
        self.summaries.lock().push(summary);
    }

    /// Every region summary the root observer received, arrival order.
    pub fn summaries(&self) -> Vec<RegionSummary> {
        self.summaries.lock().clone()
    }

    /// Aggregate of the *latest* summary from each region (`None` until
    /// the root observer has received at least one summary). Under the
    /// flat topology no summaries flow, so this stays `None`.
    pub fn rollup(&self) -> Option<RollupTotals> {
        let summaries = self.summaries.lock();
        if summaries.is_empty() {
            return None;
        }
        let mut latest: Vec<(&str, &RegionSummary)> = Vec::new();
        for s in summaries.iter() {
            if let Some(slot) = latest.iter_mut().find(|(n, _)| *n == s.region) {
                slot.1 = s;
            } else {
                latest.push((s.region.as_str(), s));
            }
        }
        let mut t = RollupTotals {
            regions: latest.len() as u64,
            all_terminal: true,
            ..Default::default()
        };
        for (_, s) in &latest {
            t.components += s.components;
            t.finished += s.finished;
            t.faulted += s.faulted;
            t.polls += s.polls;
            t.total_sends += s.total_sends;
            t.total_receives += s.total_receives;
            t.shed_messages += s.shed_messages;
            t.expired_messages += s.expired_messages;
            if !s.all_terminal() {
                t.all_terminal = false;
            }
        }
        Some(t)
    }
}

/// Configuration of the observer's polling loop.
#[derive(Clone)]
pub struct ObserverConfig {
    /// Pause between polling rounds, ns.
    pub interval_ns: u64,
    /// Stop after this many rounds (`None` = run until app shutdown).
    pub max_rounds: Option<u64>,
    /// What to ask each round — the paper's §6 "how to select the events
    /// to be observed". Default: [`ObsRequest::Full`]. Narrower requests
    /// (e.g. only [`ObsRequest::AppStats`]) reduce observation traffic.
    pub request: ObsRequest,
    /// Watchdog deadline, ns: when a health-carrying reply shows no
    /// progress for longer than this, a [`StallRecord`] is logged.
    /// 0 (default) disables the watchdog.
    pub watchdog_ns: u64,
    /// `(label, members)` per regional observer (`None`, the default:
    /// one observer polls every component, the paper's design). A
    /// component in no group is not observed.
    pub groups: Option<Vec<(String, Vec<String>)>>,
    /// Grouped observers only: `(component, provided_interface)` the
    /// root observer sends one data message to once every region has
    /// reported all its members terminal. Lets an application component
    /// block until observation of the whole run has converged. The
    /// target component must not itself be observed (leave it out of
    /// every group).
    pub notify_done: Option<(String, String)>,
    /// Grouped observers only: `(component, provided_interface)` the
    /// root observer streams every received [`RegionSummary`] to, in the
    /// encoding [`decode_region_summary`] reads — the
    /// observation→actuation feed a controller component (e.g. an
    /// autoscaler) consumes. An empty sentinel payload is sent when the
    /// root exits. Like [`ObserverConfig::notify_done`], the target must
    /// not itself be observed.
    pub actuate: Option<(String, String)>,
    pub(crate) log: ObservationLog,
}

impl Default for ObserverConfig {
    fn default() -> Self {
        ObserverConfig {
            interval_ns: 1_000_000, // 1 ms between rounds
            max_rounds: None,
            request: ObsRequest::Full,
            watchdog_ns: 0,
            groups: None,
            notify_done: None,
            actuate: None,
            log: ObservationLog::new(),
        }
    }
}

impl ObserverConfig {
    /// Poll a fixed number of rounds.
    pub fn rounds(mut self, rounds: u64) -> Self {
        self.max_rounds = Some(rounds);
        self
    }

    /// Set the inter-round interval.
    pub fn interval_ns(mut self, ns: u64) -> Self {
        self.interval_ns = ns;
        self
    }

    /// Select which observation level to poll.
    pub fn request(mut self, request: ObsRequest) -> Self {
        self.request = request;
        self
    }

    /// Enable the stall watchdog with the given no-progress deadline.
    pub fn watchdog_ns(mut self, ns: u64) -> Self {
        self.watchdog_ns = ns;
        self
    }

    /// Observe through one regional observer per `(label, members)`
    /// group, all rolling up to a root observer. Every group must name
    /// at least one component, and a component at most one group.
    pub fn grouped(mut self, groups: Vec<(String, Vec<String>)>) -> Self {
        self.groups = Some(groups);
        self
    }

    /// Have the root observer send one data message to
    /// `(component, interface)` once every region is all-terminal.
    pub fn notify_done(
        mut self,
        component: impl Into<String>,
        interface: impl Into<String>,
    ) -> Self {
        self.notify_done = Some((component.into(), interface.into()));
        self
    }

    /// Have the root observer stream every region summary it receives to
    /// `(component, interface)`, closing the observation→actuation loop.
    pub fn actuate(mut self, component: impl Into<String>, interface: impl Into<String>) -> Self {
        self.actuate = Some((component.into(), interface.into()));
        self
    }

    pub(crate) fn with_log(mut self, log: ObservationLog) -> Self {
        self.log = log;
        self
    }
}

/// Fixed-field little-endian wire encoding of a [`RegionSummary`] for
/// the [`ObserverConfig::actuate`] feed:
/// `label_len u16 | label bytes | 11 × u64` (components, round, polls,
/// finished, faulted, stalled, total_sends, total_receives,
/// queued_messages, shed_messages, expired_messages). Deliberately
/// fixed-offset rather than self-describing: controller components parse
/// it allocation-light inside their control loop.
pub(crate) fn encode_region_summary(s: &RegionSummary) -> bytes::Bytes {
    let label = s.region.as_bytes();
    let mut out = Vec::with_capacity(2 + label.len() + 11 * 8);
    out.extend_from_slice(&(label.len() as u16).to_le_bytes());
    out.extend_from_slice(label);
    for v in [
        s.components,
        s.round,
        s.polls,
        s.finished,
        s.faulted,
        s.stalled,
        s.total_sends,
        s.total_receives,
        s.queued_messages,
        s.shed_messages,
        s.expired_messages,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    bytes::Bytes::from(out)
}

/// Read one [`ObserverConfig::actuate`] payload:
/// `label_len u16 | label bytes | 11 × u64` (components, round, polls,
/// finished, faulted, stalled, total_sends, total_receives,
/// queued_messages, shed_messages, expired_messages), little-endian.
/// `None` on malformed input.
pub fn decode_region_summary(buf: &[u8]) -> Option<RegionSummary> {
    if buf.len() < 2 {
        return None;
    }
    let label_len = u16::from_le_bytes([buf[0], buf[1]]) as usize;
    let fields_at = 2 + label_len;
    if buf.len() != fields_at + 11 * 8 {
        return None;
    }
    let region = std::str::from_utf8(&buf[2..fields_at]).ok()?.to_string();
    let mut vals = [0u64; 11];
    for (i, v) in vals.iter_mut().enumerate() {
        let at = fields_at + i * 8;
        *v = u64::from_le_bytes(buf[at..at + 8].try_into().ok()?);
    }
    Some(RegionSummary {
        region,
        components: vals[0],
        round: vals[1],
        polls: vals[2],
        finished: vals[3],
        faulted: vals[4],
        stalled: vals[5],
        total_sends: vals[6],
        total_receives: vals[7],
        queued_messages: vals[8],
        shed_messages: vals[9],
        expired_messages: vals[10],
    })
}

/// Lift a (possibly partial) reply into a sparse report so every request
/// kind lands in the same log. Region summaries are tree-internal
/// traffic, not component reports.
fn lift_reply(from: &str, reply: ObsReply) -> Option<ObservationReport> {
    let mut report = match reply {
        ObsReply::Full(report) => return Some(*report),
        ObsReply::Region(_) => return None,
        _ => ObservationReport {
            component: from.to_string(),
            ..Default::default()
        },
    };
    match reply {
        ObsReply::Os(os) => report.os = os,
        ObsReply::Middleware(middleware) => report.middleware = middleware,
        ObsReply::App(app) => report.app = app,
        ObsReply::Structure(structure) => report.structure = structure,
        ObsReply::Custom(custom) => report.custom = custom,
        ObsReply::Health(health) => report.health = Some(health),
        ObsReply::Full(_) | ObsReply::Region(_) => unreachable!("returned above"),
    }
    Some(report)
}

/// The shortest pause after a round in which the observer never waited
/// for a reply, because the backend answered every poll in place. With
/// a zero interval such an observer would not block at all, and on a
/// cooperative scheduler whatever depends on a worker running dry —
/// armed timers, tasks woken from outside the pool — would wait for it
/// for ever. Long enough to be a real park, far below any interval in
/// use.
const IN_PLACE_MIN_PAUSE_NS: u64 = 1_000;

/// How long an observer waits for its next reply before it moves on to
/// its next round (flat, regional) or re-checks for shutdown (root).
const REPLY_TIMEOUT_NS: u64 = 100_000_000;

/// The polling loop of the flat and the regional observer, written
/// once: pace, fan the configured request out to every target, take
/// each reply — on the spot where the backend answers in place, off
/// `observations` otherwise — through the watchdog and into the log.
struct Poller<'a> {
    /// Label on this poller's stall records.
    region: &'a str,
    targets: &'a [String],
    config: &'a ObserverConfig,
    /// `obs_<target>` per target, built once.
    ifaces: Vec<String>,
    index: NameTable<usize>,
    /// Number of the round last started (0 before the first, too).
    round: u64,
    started: bool,
    /// Whether the last round waited for at least one reply.
    waited: bool,
}

impl<'a> Poller<'a> {
    fn new(region: &'a str, targets: &'a [String], config: &'a ObserverConfig) -> Self {
        let named = targets.iter().enumerate();
        Poller {
            region,
            targets,
            config,
            ifaces: targets.iter().map(|t| format!("obs_{t}")).collect(),
            index: NameTable::new(named.map(|(i, t)| (t.clone(), i))),
            round: 0,
            started: false,
            waited: false,
        }
    }

    /// Run the next round. `Ok(true)`: it ran, number `self.round`, and
    /// asked every target; `seen` was called with `(target index,
    /// report, stalled)` for each report of a known target. `Ok(false)`:
    /// the observer is to exit — the application is shutting down or the
    /// configured rounds are used up.
    fn next_round(
        &mut self,
        ctx: &mut dyn Ctx,
        mut seen: impl FnMut(usize, &ObservationReport, bool),
    ) -> Result<bool, EmberaError> {
        let config = self.config;
        if std::mem::replace(&mut self.started, true) {
            self.round += 1;
            // Pace the rounds; the timeout doubles as a sleep.
            let mut pause = config.interval_ns;
            if !self.waited {
                pause = pause.max(IN_PLACE_MIN_PAUSE_NS);
            }
            let _ = ctx.recv_message_timeout("observations", pause)?;
        }
        if ctx.should_stop() || config.max_rounds.is_some_and(|max| self.round >= max) {
            return Ok(false);
        }
        // Replies still to come as messages: the polls the backend did
        // not answer in place.
        let mut pending = 0;
        for (iface, target) in self.ifaces.iter().zip(self.targets) {
            match ctx.observe(iface, config.request)? {
                Some(reply) => self.take(ctx, target, reply, &mut seen),
                None => pending += 1,
            }
        }
        self.waited = pending > 0;
        while pending > 0 {
            if ctx.should_stop() {
                return Ok(false);
            }
            match ctx.recv_message_timeout("observations", REPLY_TIMEOUT_NS)? {
                Some(Message::ObsReply { from, reply }) => {
                    self.take(ctx, &from, *reply, &mut seen);
                    pending -= 1;
                }
                Some(_) => { /* ignore stray traffic */ }
                None => break, // target quiesced; move on
            }
        }
        Ok(true)
    }

    /// One reply from component `from`: watchdog, log.
    fn take(
        &self,
        ctx: &mut dyn Ctx,
        from: &str,
        reply: ObsReply,
        seen: &mut impl FnMut(usize, &ObservationReport, bool),
    ) {
        let Some(report) = lift_reply(from, reply) else {
            return;
        };
        let at_ns = ctx.now_ns();
        // Watchdog: any reply carrying health (Health or Full) is
        // checked against the deadline.
        let watchdog_ns = self.config.watchdog_ns;
        let stalled = report
            .health
            .filter(|h| watchdog_ns > 0 && h.is_stalled(at_ns, watchdog_ns));
        if let Some(h) = stalled {
            self.config.log.push_stall(StallRecord {
                region: self.region.to_string(),
                component: report.component.clone(),
                at_ns,
                last_progress_ns: h.last_progress_ns,
                state: h.state,
            });
        }
        if let Some(&i) = self.index.get(&report.component) {
            seen(i, &report, stalled.is_some());
        }
        self.config.log.push(ObservationRecord {
            at_ns,
            round: self.round,
            report,
        });
    }
}

/// The flat observer behavior: each round, asks every target's
/// observation interface for the configured [`ObsRequest`] and logs the
/// replies.
pub(crate) struct ObserverBehavior {
    targets: Vec<String>,
    config: ObserverConfig,
}

impl ObserverBehavior {
    /// Observer over the given target components.
    pub(crate) fn new(targets: Vec<String>, config: ObserverConfig) -> Self {
        ObserverBehavior { targets, config }
    }
}

impl Behavior for ObserverBehavior {
    fn run(&mut self, ctx: &mut dyn Ctx) -> Result<(), EmberaError> {
        let mut poller = Poller::new(ROOT_REGION, &self.targets, &self.config);
        while poller.next_round(ctx, |_, _, _| {})? {}
        Ok(())
    }
}

/// A regional observer: polls only its region's members, logs their
/// reports (exactly like the flat observer), and after every polling
/// round sends a [`RegionSummary`] up its `rollup` interface to the
/// root. Exits on its own once every member has reached a terminal
/// state — final counters are safe to collect because a finished
/// component stays observable until the application shuts down.
pub(crate) struct RegionObserverBehavior {
    region: String,
    targets: Vec<String>,
    config: ObserverConfig,
}

impl RegionObserverBehavior {
    /// Regional observer labeled `region` over the given members.
    pub(crate) fn new(
        region: impl Into<String>,
        targets: Vec<String>,
        config: ObserverConfig,
    ) -> Self {
        RegionObserverBehavior {
            region: region.into(),
            targets,
            config,
        }
    }
}

impl Behavior for RegionObserverBehavior {
    fn run(&mut self, ctx: &mut dyn Ctx) -> Result<(), EmberaError> {
        let n = self.targets.len();
        let mut poller = Poller::new(&self.region, &self.targets, &self.config);
        let mut latest_health: Vec<Option<crate::observe::report::HealthInfo>> = vec![None; n];
        let mut latest_counters: Vec<(u64, u64)> = vec![(0, 0); n];
        let mut stalled: Vec<bool> = vec![false; n];
        loop {
            let ran = poller.next_round(ctx, |i, report, stalled_now| {
                if let Some(h) = &report.health {
                    latest_health[i] = Some(*h);
                }
                stalled[i] |= stalled_now;
                if report.app.total_sends > 0 || report.app.total_receives > 0 {
                    latest_counters[i] = (report.app.total_sends, report.app.total_receives);
                }
            })?;
            if !ran {
                return Ok(());
            }
            // Roll the region's state up to the root.
            let mut summary = RegionSummary {
                region: self.region.clone(),
                components: n as u64,
                round: poller.round,
                // Rounds 0..=round, each asking every member.
                polls: n as u64 * (poller.round + 1),
                ..Default::default()
            };
            for (i, h) in latest_health.iter().enumerate() {
                if let Some(h) = h {
                    match h.state {
                        HealthState::Finished => summary.finished += 1,
                        HealthState::Faulted => summary.faulted += 1,
                        _ => {}
                    }
                    summary.queued_messages += h.queued_messages;
                    summary.shed_messages += h.shed_messages;
                    summary.expired_messages += h.expired_messages;
                }
                if stalled[i] {
                    summary.stalled += 1;
                }
                summary.total_sends += latest_counters[i].0;
                summary.total_receives += latest_counters[i].1;
            }
            let complete = summary.all_terminal();
            ctx.send_message(
                "rollup",
                Message::ObsReply {
                    from: self.region.clone(),
                    reply: Box::new(ObsReply::Region(summary)),
                },
            )?;
            if complete {
                return Ok(());
            }
        }
    }
}

/// The root observer of a hierarchical topology: receives
/// [`RegionSummary`] messages on its `regions` interface, records them
/// in the shared log (see [`ObservationLog::rollup`]), and — once every
/// region has reported all its members terminal — optionally notifies a
/// designated application component and exits.
pub(crate) struct RootObserverBehavior {
    regions: usize,
    config: ObserverConfig,
}

impl RootObserverBehavior {
    /// Root over `regions` regional observers.
    pub(crate) fn new(regions: usize, config: ObserverConfig) -> Self {
        RootObserverBehavior { regions, config }
    }
}

impl Behavior for RootObserverBehavior {
    fn run(&mut self, ctx: &mut dyn Ctx) -> Result<(), EmberaError> {
        let mut latest: HashMap<String, RegionSummary> = HashMap::new();
        loop {
            if ctx.should_stop() {
                return Ok(());
            }
            match ctx.recv_message_timeout("regions", REPLY_TIMEOUT_NS)? {
                Some(Message::ObsReply { reply, .. }) => {
                    if let ObsReply::Region(summary) = *reply {
                        self.config.log.push_summary(summary.clone());
                        if self.config.actuate.is_some() {
                            // Observation→actuation: stream the summary
                            // to the configured controller component.
                            ctx.send("actuate", encode_region_summary(&summary))?;
                        }
                        latest.insert(summary.region.clone(), summary);
                        if latest.len() >= self.regions && latest.values().all(|s| s.all_terminal())
                        {
                            if self.config.actuate.is_some() {
                                // Empty sentinel: the controller's exit
                                // signal.
                                ctx.send("actuate", bytes::Bytes::new())?;
                            }
                            if self.config.notify_done.is_some() {
                                ctx.send("done", bytes::Bytes::from_static(&[1]))?;
                            }
                            return Ok(());
                        }
                    }
                }
                Some(_) => { /* ignore stray traffic */ }
                None => { /* keep waiting; should_stop is checked above */ }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::report::ObservationReport;

    #[test]
    fn log_latest_by_component_keeps_last() {
        let log = ObservationLog::new();
        for round in 0..3u64 {
            for name in ["a", "b"] {
                let mut report = ObservationReport {
                    component: name.to_string(),
                    ..Default::default()
                };
                report.os.exec_time_ns = round;
                log.push(ObservationRecord {
                    at_ns: round,
                    round,
                    report,
                });
            }
        }
        assert_eq!(log.len(), 6);
        let latest = log.latest_by_component();
        assert_eq!(latest.len(), 2);
        assert!(latest.iter().all(|r| r.os.exec_time_ns == 2));
        assert_eq!(latest[0].component, "a");
    }

    #[test]
    fn log_retains_a_ring_and_every_components_latest() {
        let log = ObservationLog::new();
        let record = |component: &str, round: u64| {
            let mut report = ObservationReport {
                component: component.to_string(),
                ..Default::default()
            };
            report.os.exec_time_ns = round;
            ObservationRecord {
                at_ns: round,
                round,
                report,
            }
        };
        // Two components seen early and never again, then one that
        // alone overflows the ring.
        log.push(record("early", 0));
        log.push(record("once", 1));
        log.push(record("early", 2));
        let pushes = LOG_CAPACITY as u64 + 10;
        for round in 3..pushes {
            log.push(record("busy", round));
        }
        assert_eq!(log.len() as u64, pushes, "collected, not retained");
        assert_eq!(log.dropped(), 10);
        let retained = log.records();
        assert_eq!(retained.len(), LOG_CAPACITY);
        assert_eq!(retained[0].round, 10);
        assert_eq!(retained.last().unwrap().round, pushes - 1);
        // First-seen order, latest report each — also of the components
        // whose records all left the ring.
        let latest: Vec<(String, u64)> = log
            .latest_by_component()
            .into_iter()
            .map(|r| (r.component, r.os.exec_time_ns))
            .collect();
        let expected = [("early", 2), ("once", 1), ("busy", pushes - 1)];
        assert_eq!(latest, expected.map(|(c, round)| (c.to_string(), round)));
    }

    #[test]
    fn config_builders() {
        let c = ObserverConfig::default()
            .rounds(5)
            .interval_ns(42)
            .watchdog_ns(7)
            .grouped(vec![("g".into(), vec!["a".into()])])
            .notify_done("waiter", "done");
        assert_eq!(c.max_rounds, Some(5));
        assert_eq!(c.interval_ns, 42);
        assert_eq!(c.watchdog_ns, 7);
        assert_eq!(
            c.groups,
            Some(vec![("g".to_string(), vec!["a".to_string()])])
        );
        assert_eq!(
            c.notify_done,
            Some(("waiter".to_string(), "done".to_string()))
        );
    }

    #[test]
    fn stall_log_dedups_component_names() {
        let log = ObservationLog::new();
        assert!(log.stalls().is_empty());
        for at_ns in [10, 20] {
            log.push_stall(StallRecord {
                region: ROOT_REGION.to_string(),
                component: "IDCT_1".to_string(),
                at_ns,
                last_progress_ns: 1,
                state: HealthState::Blocked,
            });
        }
        log.push_stall(StallRecord {
            region: "region1".to_string(),
            component: "Fetch".to_string(),
            at_ns: 30,
            last_progress_ns: 2,
            state: HealthState::Running,
        });
        assert_eq!(log.stalls().len(), 3);
        assert_eq!(log.stalled_components(), vec!["IDCT_1", "Fetch"]);
        assert_eq!(log.stalls()[2].region, "region1");
    }

    #[test]
    fn observer_name_classification() {
        assert!(is_observer_component(OBSERVER_NAME));
        assert!(is_observer_component("Observer.region0"));
        assert!(is_observer_component("Observer.region17"));
        assert!(!is_observer_component("Observe"));
        assert!(!is_observer_component("Fetch"));
        assert!(!is_observer_component("observer"));
    }

    #[test]
    fn rollup_aggregates_latest_summary_per_region() {
        let log = ObservationLog::new();
        assert!(log.rollup().is_none());
        log.push_summary(RegionSummary {
            region: "region0".into(),
            components: 2,
            finished: 1,
            total_sends: 10,
            total_receives: 10,
            polls: 4,
            ..Default::default()
        });
        // A newer summary for region0 supersedes the first.
        log.push_summary(RegionSummary {
            region: "region0".into(),
            components: 2,
            finished: 2,
            total_sends: 20,
            total_receives: 20,
            polls: 8,
            ..Default::default()
        });
        log.push_summary(RegionSummary {
            region: "region1".into(),
            components: 1,
            finished: 1,
            total_sends: 5,
            total_receives: 5,
            polls: 3,
            ..Default::default()
        });
        let t = log.rollup().unwrap();
        assert_eq!(t.regions, 2);
        assert_eq!(t.components, 3);
        assert_eq!(t.finished, 3);
        assert_eq!(t.total_sends, 25);
        assert_eq!(t.total_receives, 25);
        assert_eq!(t.polls, 11);
        assert!(t.all_terminal);
    }

    #[test]
    fn region_summary_codec_round_trips() {
        let s = RegionSummary {
            region: "left".into(),
            components: 4,
            round: 9,
            polls: 36,
            finished: 3,
            faulted: 1,
            stalled: 2,
            total_sends: 100,
            total_receives: 99,
            queued_messages: 7,
            shed_messages: 5,
            expired_messages: 11,
        };
        let wire = encode_region_summary(&s);
        assert_eq!(decode_region_summary(&wire), Some(s));
        assert_eq!(decode_region_summary(&[]), None);
        assert_eq!(decode_region_summary(&wire[..wire.len() - 1]), None);
    }

    #[test]
    fn region_reply_is_not_a_component_report() {
        assert!(lift_reply("region0", ObsReply::Region(RegionSummary::default())).is_none());
        assert!(lift_reply(
            "a",
            ObsReply::Health(crate::observe::report::HealthInfo::default())
        )
        .is_some());
    }
}
