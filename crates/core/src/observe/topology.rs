//! What the grouped observer hierarchy sends up its tree.
//!
//! The paper's observer (§3.3) is one component polling every other
//! component, and that stays the default. An application that groups
//! its components ([`ObserverConfig::grouped`]) gets one regional
//! observer per group instead, each polling only its members and
//! rolling a [`RegionSummary`] up to a root observer after every round;
//! the root keeps the latest summary per region, and
//! [`ObservationLog::rollup`] adds them into [`RollupTotals`].
//!
//! [`ObserverConfig::grouped`]: crate::observer::ObserverConfig::grouped
//! [`ObservationLog::rollup`]: crate::observer::ObservationLog::rollup

/// What a regional observer rolls up to the root each round: counts of
/// member states plus the sum of the members' latest communication
/// counters (when the configured request carries them).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegionSummary {
    /// The group's label, as given to `ObserverConfig::grouped`.
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
