//! Shared SDRAM bus with contention: transactions from different CPUs
//! serialize, and a transaction issued while the bus is busy waits.

use sim_kernel::LockStep;

/// Statistics of bus usage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Number of transactions issued.
    pub transactions: u64,
    /// Total busy time (ns) the bus spent transferring.
    pub busy_ns: u64,
    /// Total time (ns) transactions spent waiting for the bus.
    pub wait_ns: u64,
}

struct BusState {
    busy_until: u64,
    stats: BusStats,
}

/// The shared memory bus. Only one transaction proceeds at a time;
/// later-issued transactions queue behind earlier ones.
///
/// Because the simulation kernel runs one process at a time, the bus can
/// be modeled with simple `busy_until` bookkeeping: a transaction issued
/// at virtual time `now` begins at `max(now, busy_until)`.
pub struct Bus {
    state: LockStep<BusState>,
}

impl Default for Bus {
    fn default() -> Self {
        Self::new()
    }
}

impl Bus {
    /// A fresh, idle bus.
    pub fn new() -> Self {
        Bus {
            state: LockStep::new(BusState {
                busy_until: 0,
                stats: BusStats::default(),
            }),
        }
    }

    /// Issue a transaction of `duration` ns at virtual time `now`.
    /// Returns the total delay the issuing CPU observes (queueing wait +
    /// transfer time).
    pub fn transact(&self, now: u64, duration: u64) -> u64 {
        self.state.with(|st| {
            let start = st.busy_until.max(now);
            let wait = start - now;
            st.busy_until = start + duration;
            st.stats.transactions += 1;
            st.stats.busy_ns += duration;
            st.stats.wait_ns += wait;
            wait + duration
        })
    }

    /// Snapshot of usage statistics.
    pub fn stats(&self) -> BusStats {
        self.state.with(|st| st.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_bus_adds_no_wait() {
        let bus = Bus::new();
        assert_eq!(bus.transact(100, 10), 10);
        let s = bus.stats();
        assert_eq!(s.wait_ns, 0);
        assert_eq!(s.busy_ns, 10);
    }

    #[test]
    fn contending_transactions_serialize() {
        let bus = Bus::new();
        // Two transactions issued at the same instant: the second queues.
        assert_eq!(bus.transact(0, 100), 100);
        assert_eq!(bus.transact(0, 100), 200);
        let s = bus.stats();
        assert_eq!(s.transactions, 2);
        assert_eq!(s.wait_ns, 100);
    }

    #[test]
    fn bus_frees_after_idle_gap() {
        let bus = Bus::new();
        bus.transact(0, 50);
        // Issued well after the first finished: no wait.
        assert_eq!(bus.transact(1_000, 50), 50);
        assert_eq!(bus.stats().wait_ns, 0);
    }
}
