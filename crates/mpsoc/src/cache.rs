//! Direct-mapped L1 data-cache model with hit/miss accounting.
//!
//! The paper lists cache-miss observation as future work (§6: "we focus
//! our research on defining and extending EMBera observation functions,
//! for instance, cache misses"). This model makes that observable in the
//! reproduction: EMBX transfers and annotated compute traffic are run
//! through the cache, and the per-CPU miss counters are exported through
//! the EMBera observation interface (experiment X1).

use sim_kernel::LockStep;

/// Geometry of an L1 cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total size in bytes.
    pub size_bytes: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
}

impl CacheConfig {
    /// ST40 L1 data cache: 32 KiB, 32-byte lines.
    pub fn st40_l1d() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            line_bytes: 32,
        }
    }

    /// ST231 L1 data cache: 32 KiB, 32-byte lines.
    pub fn st231_l1d() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            line_bytes: 32,
        }
    }

    /// Number of lines.
    pub fn num_lines(&self) -> u32 {
        self.size_bytes / self.line_bytes
    }
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of line accesses that hit.
    pub hits: u64,
    /// Number of line accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Miss ratio in [0, 1]; 0 when no accesses.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

struct CacheState {
    /// Tag per line; `u64::MAX` = invalid.
    tags: Vec<u64>,
    stats: CacheStats,
}

/// A direct-mapped L1 data cache.
pub struct L1Cache {
    cfg: CacheConfig,
    /// `log2(line_bytes)`: an address's line number is `addr >> line_shift`.
    line_shift: u32,
    /// `log2(num_lines)`: a line number's tag is `line >> index_bits`, its
    /// index the bits below.
    index_bits: u32,
    state: LockStep<CacheState>,
}

impl L1Cache {
    /// Build an empty (all-invalid) cache.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.line_bytes.is_power_of_two(), "line size must be 2^n");
        assert!(
            cfg.size_bytes.is_multiple_of(cfg.line_bytes),
            "cache size must be a multiple of the line size"
        );
        assert!(cfg.num_lines().is_power_of_two(), "line count must be 2^n");
        L1Cache {
            cfg,
            line_shift: cfg.line_bytes.trailing_zeros(),
            index_bits: cfg.num_lines().trailing_zeros(),
            state: LockStep::new(CacheState {
                tags: vec![u64::MAX; cfg.num_lines() as usize],
                stats: CacheStats::default(),
            }),
        }
    }

    /// Geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Simulate an access of `len` bytes at `addr`. Returns the number of
    /// misses incurred (one per line not present). Writes allocate, like
    /// reads (write-allocate policy).
    pub fn access(&self, addr: u64, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        let first = addr >> self.line_shift;
        let last = (addr + len - 1) >> self.line_shift;
        let index_mask = (1u64 << self.index_bits) - 1;
        self.state.with(|st| {
            let mut misses = 0;
            for l in first..=last {
                let idx = (l & index_mask) as usize;
                let tag = l >> self.index_bits;
                if st.tags[idx] == tag {
                    st.stats.hits += 1;
                } else {
                    st.tags[idx] = tag;
                    st.stats.misses += 1;
                    misses += 1;
                }
            }
            misses
        })
    }

    /// Snapshot of counters.
    pub fn stats(&self) -> CacheStats {
        self.state.with(|st| st.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> L1Cache {
        L1Cache::new(CacheConfig {
            size_bytes: 1024,
            line_bytes: 32,
        })
    }

    #[test]
    fn cold_access_misses_then_hits() {
        let c = small();
        assert_eq!(c.access(0, 32), 1);
        assert_eq!(c.access(0, 32), 0);
        let s = c.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn access_spanning_lines_counts_each_line() {
        let c = small();
        // 100 bytes starting at 0 touches lines 0..=3 (ends at byte 99).
        assert_eq!(c.access(0, 100), 4);
    }

    #[test]
    fn conflicting_addresses_evict() {
        let c = small(); // 32 lines
        assert_eq!(c.access(0, 1), 1);
        assert_eq!(c.access(1024, 1), 1); // maps to same set, different tag
        assert_eq!(c.access(0, 1), 1); // evicted -> miss again
    }

    #[test]
    fn working_set_within_cache_stays_resident() {
        let c = small();
        c.access(0, 1024); // fill all 32 lines
        let before = c.stats().misses;
        c.access(0, 1024);
        assert_eq!(c.stats().misses, before, "second sweep must be all hits");
    }

    #[test]
    fn zero_length_access_is_free() {
        let c = small();
        assert_eq!(c.access(123, 0), 0);
        assert_eq!(c.stats(), CacheStats::default());
    }

    #[test]
    fn miss_ratio_computation() {
        let c = small();
        c.access(0, 32);
        c.access(0, 32);
        c.access(0, 32);
        c.access(0, 32);
        assert!((c.stats().miss_ratio() - 0.25).abs() < 1e-9);
    }
}
