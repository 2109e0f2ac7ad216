//! Simulation statistics.

use std::collections::HashMap;
use std::fmt;

/// Counters for one thread (= one core; threads are pinned 1:1).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadStats {
    /// Line-granular accesses issued (an access straddling two lines counts
    /// twice).
    pub accesses: u64,
    pub l1_hits: u64,
    pub l2_hits: u64,
    pub l3_hits: u64,
    /// Fetches that went all the way to memory.
    pub mem_fetches: u64,
    /// Misses served dirty from another core's private cache.
    pub coherence_misses: u64,
    /// Coherence misses where the remote writer had NOT touched the bytes
    /// this thread accesses — false sharing (Dubois classification).
    pub false_sharing_misses: u64,
    /// Coherence misses on bytes the remote writer did modify — true
    /// sharing.
    pub true_sharing_misses: u64,
    /// Clean lines forwarded from another core (Exclusive elsewhere).
    pub clean_transfers: u64,
    /// Write hits on Shared lines that had to invalidate remote copies.
    pub upgrades: u64,
    /// Dirty lines this core wrote back on eviction.
    pub writebacks: u64,
    /// Lines installed by the stride prefetcher.
    pub prefetch_issued: u64,
    /// Memory-system cycles charged to this thread.
    pub cycles: u64,
}

impl ThreadStats {
    /// All private-cache misses (anything past L2).
    pub fn private_misses(&self) -> u64 {
        self.accesses - self.l1_hits - self.l2_hits
    }
}

/// Aggregated statistics of a multi-core simulation.
///
/// Implements `PartialEq`/`Eq` field-for-field: the differential tests
/// between [`crate::sim::SimPath::Reference`] and
/// [`crate::sim::SimPath::Optimized`] assert whole-struct equality,
/// including per-line FS attribution and per-thread cycle counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    pub per_thread: Vec<ThreadStats>,
    /// False-sharing misses per cache line, for victim identification.
    pub fs_by_line: HashMap<u64, u64>,
    /// Lines fetched for the first time anywhere (cold misses), global.
    pub cold_misses: u64,
}

impl SimStats {
    pub fn new(num_threads: u32) -> Self {
        SimStats {
            per_thread: vec![ThreadStats::default(); num_threads as usize],
            fs_by_line: HashMap::new(),
            cold_misses: 0,
        }
    }

    fn sum(&self, f: impl Fn(&ThreadStats) -> u64) -> u64 {
        self.per_thread.iter().map(f).sum()
    }

    pub fn total_accesses(&self) -> u64 {
        self.sum(|t| t.accesses)
    }

    pub fn total_false_sharing(&self) -> u64 {
        self.sum(|t| t.false_sharing_misses)
    }

    pub fn total_true_sharing(&self) -> u64 {
        self.sum(|t| t.true_sharing_misses)
    }

    pub fn total_coherence_misses(&self) -> u64 {
        self.sum(|t| t.coherence_misses)
    }

    pub fn total_upgrades(&self) -> u64 {
        self.sum(|t| t.upgrades)
    }

    /// The simulated execution time: threads run concurrently, so the
    /// critical path is the maximum per-thread cycle count.
    pub fn makespan_cycles(&self) -> u64 {
        self.per_thread.iter().map(|t| t.cycles).max().unwrap_or(0)
    }

    /// Sum of all threads' memory cycles (total memory-system work).
    pub fn total_cycles(&self) -> u64 {
        self.sum(|t| t.cycles)
    }

    /// The `n` lines with the most false-sharing misses, descending.
    pub fn top_fs_lines(&self, n: usize) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.fs_by_line.iter().map(|(&l, &c)| (l, c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "accesses={} l1={} l2={} l3={} mem={} coherence={} (fs={} ts={}) upgrades={} makespan={}cy",
            self.total_accesses(),
            self.sum(|t| t.l1_hits),
            self.sum(|t| t.l2_hits),
            self.sum(|t| t.l3_hits),
            self.sum(|t| t.mem_fetches),
            self.total_coherence_misses(),
            self.total_false_sharing(),
            self.total_true_sharing(),
            self.total_upgrades(),
            self.makespan_cycles(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation_and_makespan() {
        let mut s = SimStats::new(2);
        s.per_thread[0].cycles = 100;
        s.per_thread[0].false_sharing_misses = 3;
        s.per_thread[1].cycles = 250;
        s.per_thread[1].false_sharing_misses = 4;
        assert_eq!(s.makespan_cycles(), 250);
        assert_eq!(s.total_cycles(), 350);
        assert_eq!(s.total_false_sharing(), 7);
    }

    #[test]
    fn top_fs_lines_sorted() {
        let mut s = SimStats::new(1);
        s.fs_by_line.insert(10, 5);
        s.fs_by_line.insert(11, 9);
        s.fs_by_line.insert(12, 1);
        assert_eq!(s.top_fs_lines(2), vec![(11, 9), (10, 5)]);
    }

    #[test]
    fn private_misses_arithmetic() {
        let t = ThreadStats {
            accesses: 10,
            l1_hits: 6,
            l2_hits: 2,
            ..Default::default()
        };
        assert_eq!(t.private_misses(), 2);
    }
}
