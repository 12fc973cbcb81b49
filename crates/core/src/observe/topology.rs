//! Hierarchical observation: region assignment, adaptive sampling
//! policy, and the rolled-up summaries regional observers send to the
//! root observer.
//!
//! The paper's observer (§3.3) is a single component polling every
//! other component — exact, but O(components) traffic per round from
//! one mailbox. At 10k-component scale that flat loop is the
//! bottleneck, so observation can instead be arranged as a two-level
//! tree: components are partitioned into *regions*, each region gets a
//! regional observer that polls only its members and periodically
//! rolls a [`RegionSummary`] up to a root observer. The flat topology
//! remains the default and is wiring-identical to the seed design for
//! paper-parity runs.

/// How observer components are arranged over the application.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum ObserverTopology {
    /// One observer component polls every component directly (the
    /// paper's design, and the default). Wiring is byte-identical to
    /// the pre-hierarchy observer.
    #[default]
    Flat,
    /// Components are partitioned into `regions` contiguous groups by
    /// deployment index; each group gets a regional observer, all of
    /// which roll up to one root observer.
    Sharded {
        /// Number of regions (clamped to at least 1 and at most the
        /// component count at build time).
        regions: usize,
    },
    /// Explicit region assignment: `(region_label, member_components)`.
    /// Components not listed in any group are not observed.
    Grouped {
        /// Region label and member component names, in rollup order.
        groups: Vec<(String, Vec<String>)>,
    },
}

/// Adaptive per-component sampling: back off on quiet components,
/// tighten when a component's health delta crosses a threshold.
///
/// The schedule is pure counter arithmetic over polling rounds — no
/// wall-clock reads, no randomness — so on `embera-inproc` the exact
/// sequence of served observation requests is bit-for-bit reproducible
/// (the property the fault-injection tests rely on).
///
/// A component's *health signature* is `(terminal-state flag, restarts,
/// queued_messages)`. Ordinary `Running`↔`Blocked` flapping is normal
/// scheduling, not a health event, and does not count as a delta;
/// backlog growth, restarts, and terminal transitions do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingPolicy {
    /// Stride (in rounds) used for hot components. 1 = every round.
    pub base_stride: u64,
    /// Ceiling the stride doubles up to while a component stays quiet.
    pub max_stride: u64,
    /// Consecutive unchanged polls before the stride starts doubling.
    pub quiet_after: u32,
    /// Health-delta threshold that snaps the stride back to
    /// `base_stride`: queue-depth change of at least this many
    /// messages, any restart, or a terminal transition.
    pub hot_delta: u64,
}

impl Default for SamplingPolicy {
    fn default() -> Self {
        SamplingPolicy {
            base_stride: 1,
            max_stride: 64,
            quiet_after: 1,
            hot_delta: 2,
        }
    }
}

/// Deterministic per-target adaptive schedule state (one per observed
/// component, owned by the polling observer).
#[derive(Debug, Clone)]
pub(crate) struct AdaptiveSampler {
    policy: Option<SamplingPolicy>,
    /// Per target: (next round due, current stride, consecutive quiet
    /// polls, last signature) — `None` signature until first reply.
    state: Vec<(u64, u64, u32, Option<HealthSignature>)>,
}

/// The part of a health reply the sampler reacts to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct HealthSignature {
    pub terminal: bool,
    pub restarts: u64,
    pub queued_messages: u64,
}

impl AdaptiveSampler {
    pub(crate) fn new(targets: usize, policy: Option<SamplingPolicy>) -> Self {
        let base = policy.map(|p| p.base_stride.max(1)).unwrap_or(1);
        AdaptiveSampler {
            policy,
            state: vec![(0, base, 0, None); targets],
        }
    }

    /// Indices due for polling this round. Without a policy every
    /// target is due every round (the seed behavior).
    pub(crate) fn due(&self, round: u64) -> Vec<usize> {
        if self.policy.is_none() {
            return (0..self.state.len()).collect();
        }
        self.state
            .iter()
            .enumerate()
            .filter(|(_, s)| round >= s.0)
            .map(|(i, _)| i)
            .collect()
    }

    /// Record the reply observed for target `i` in `round` and schedule
    /// its next poll.
    pub(crate) fn observe(&mut self, i: usize, round: u64, sig: HealthSignature) {
        let Some(p) = self.policy else { return };
        let (next, stride, quiet, last) = &mut self.state[i];
        let hot = match last {
            None => true, // first observation: stay at base stride
            Some(prev) => {
                prev.terminal != sig.terminal
                    || sig.restarts != prev.restarts
                    || sig.queued_messages.abs_diff(prev.queued_messages) >= p.hot_delta
            }
        };
        if hot {
            *stride = p.base_stride.max(1);
            *quiet = 0;
        } else if sig.terminal {
            // Terminal states are (near-)absorbing: once a component has
            // been seen terminal twice with nothing else changing, only a
            // supervised restart can revive it — jump straight to the
            // maximum stride instead of doubling toward it. At 10k
            // components this is what stops finished regions from being
            // re-swept every few rounds.
            *quiet += 1;
            *stride = p.max_stride.max(1);
        } else {
            *quiet += 1;
            if *quiet >= p.quiet_after {
                *stride = (*stride * 2).min(p.max_stride.max(1));
            }
        }
        *last = Some(sig);
        *next = round + *stride;
    }
}

/// What a regional observer rolls up to the root each round: counts of
/// member states plus the sum of the members' latest communication
/// counters (when the configured request carries them).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegionSummary {
    /// Region label (e.g. `region0`, or the `Grouped` name).
    pub region: String,
    /// Number of components assigned to the region.
    pub components: u64,
    /// Polling round that produced this summary.
    pub round: u64,
    /// Observation requests this region has issued so far (cumulative).
    pub polls: u64,
    /// Members whose latest health state is `Finished`.
    pub finished: u64,
    /// Members whose latest health state is `Faulted`.
    pub faulted: u64,
    /// Members with at least one watchdog stall on record.
    pub stalled: u64,
    /// Sum of the members' latest `AppStats::total_sends` (0 when the
    /// configured request does not carry app counters).
    pub total_sends: u64,
    /// Sum of the members' latest `AppStats::total_receives`.
    pub total_receives: u64,
    /// Sum of the members' latest queued message gauges.
    pub queued_messages: u64,
    /// Sum of the members' messages shed by queue-bound overload
    /// policies (absent in summaries from before the overload layer).
    pub shed_messages: u64,
    /// Sum of the members' deadline-expired shed messages.
    pub expired_messages: u64,
}

impl RegionSummary {
    /// True when every member of the region has reached a terminal
    /// state (`Finished` or `Faulted`).
    pub fn all_terminal(&self) -> bool {
        self.finished + self.faulted >= self.components
    }
}

/// Aggregate of the latest summary from every region, as computed by
/// [`ObservationLog::rollup`](crate::observer::ObservationLog::rollup).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RollupTotals {
    /// Regions that have reported at least once.
    pub regions: u64,
    /// Total observed components across those regions.
    pub components: u64,
    /// Members in `Finished` state.
    pub finished: u64,
    /// Members in `Faulted` state.
    pub faulted: u64,
    /// Observation requests issued across all regions.
    pub polls: u64,
    /// Sum of member data sends.
    pub total_sends: u64,
    /// Sum of member data receives.
    pub total_receives: u64,
    /// Sum of member messages shed by queue-bound overload policies.
    pub shed_messages: u64,
    /// Sum of member deadline-expired shed messages.
    pub expired_messages: u64,
    /// True when every reporting region is all-terminal.
    pub all_terminal: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(terminal: bool, restarts: u64, queued: u64) -> HealthSignature {
        HealthSignature {
            terminal,
            restarts,
            queued_messages: queued,
        }
    }

    #[test]
    fn no_policy_polls_everything_every_round() {
        let s = AdaptiveSampler::new(3, None);
        assert_eq!(s.due(0), vec![0, 1, 2]);
        assert_eq!(s.due(17), vec![0, 1, 2]);
    }

    #[test]
    fn quiet_component_backs_off_exponentially() {
        let p = SamplingPolicy::default();
        let mut s = AdaptiveSampler::new(1, Some(p));
        let mut round = 0;
        let mut polls = vec![];
        while round < 40 {
            if s.due(round).contains(&0) {
                polls.push(round);
                s.observe(0, round, sig(false, 0, 0));
            }
            round += 1;
        }
        // First poll is "hot" (no baseline), then strides double:
        // 0, +1, +2, +4, +8, +16 …
        assert_eq!(polls, vec![0, 1, 3, 7, 15, 31]);
    }

    #[test]
    fn hot_delta_snaps_back_to_base_stride() {
        let p = SamplingPolicy::default();
        let mut s = AdaptiveSampler::new(1, Some(p));
        s.observe(0, 0, sig(false, 0, 0));
        s.observe(0, 1, sig(false, 0, 0)); // quiet → stride 2
        assert!(!s.due(2).contains(&0));
        assert!(s.due(3).contains(&0));
        // Backlog jumps by >= hot_delta: back to every round.
        s.observe(0, 3, sig(false, 0, 5));
        assert!(s.due(4).contains(&0));
        // Restart and terminal transitions are hot too.
        s.observe(0, 4, sig(false, 1, 5));
        assert!(s.due(5).contains(&0));
        s.observe(0, 5, sig(true, 1, 5));
        assert!(s.due(6).contains(&0));
    }

    #[test]
    fn small_queue_jitter_stays_quiet() {
        let p = SamplingPolicy::default(); // hot_delta = 2
        let mut s = AdaptiveSampler::new(1, Some(p));
        s.observe(0, 0, sig(false, 0, 0));
        s.observe(0, 1, sig(false, 0, 1)); // |1-0| < 2 → quiet
        assert!(!s.due(2).contains(&0), "stride doubled despite jitter");
    }

    #[test]
    fn stable_terminal_jumps_to_max_stride() {
        let p = SamplingPolicy::default();
        let mut s = AdaptiveSampler::new(1, Some(p));
        // Round 0: first observation, already finished — the terminal
        // *flip* (None -> terminal) counts as hot, base stride.
        s.observe(0, 0, sig(true, 0, 0));
        assert!(s.due(1).contains(&0));
        // Round 1: still terminal, nothing changed — absorbing state,
        // so the next poll jumps straight to max_stride away.
        s.observe(0, 1, sig(true, 0, 0));
        assert!(
            !s.due(p.max_stride).contains(&0),
            "due before max stride elapsed"
        );
        assert!(s.due(1 + p.max_stride).contains(&0));
    }

    #[test]
    fn summary_terminal_accounting() {
        let mut s = RegionSummary {
            region: "r".into(),
            components: 3,
            finished: 2,
            faulted: 0,
            ..Default::default()
        };
        assert!(!s.all_terminal());
        s.faulted = 1;
        assert!(s.all_terminal());
    }
}
