//! Cache geometry.

/// Placement policy of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Associativity {
    /// Fully associative — the approximation the paper's stack-distance
    /// analysis uses ("modeling the fully associative cache is mostly valid
    /// especially for caches with a high level of associativity", §III-C).
    Full,
    /// `ways`-way set associative.
    SetAssoc { ways: u32 },
}

/// One cache level.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheLevel {
    pub name: String,
    pub size_bytes: u64,
    pub associativity: Associativity,
    /// Load-to-use latency of a hit in this level, in cycles.
    pub hit_latency: u32,
    /// True if the level is shared by a cluster of cores rather than
    /// private to one core.
    pub shared: bool,
}

impl CacheLevel {
    /// Number of lines the level holds, given the hierarchy line size.
    pub fn num_lines(&self, line_size: u64) -> u64 {
        self.size_bytes / line_size
    }

    /// Number of sets (1 when fully associative).
    pub fn num_sets(&self, line_size: u64) -> u64 {
        match self.associativity {
            Associativity::Full => 1,
            Associativity::SetAssoc { ways } => self.num_lines(line_size) / ways as u64,
        }
    }

    /// Lines per set — the stack depth used by stack-distance analysis.
    pub fn ways(&self, line_size: u64) -> u64 {
        match self.associativity {
            Associativity::Full => self.num_lines(line_size),
            Associativity::SetAssoc { ways } => ways as u64,
        }
    }
}

/// A multi-level hierarchy: `levels[0]` is closest to the core; the last
/// level may be shared per cluster of `shared_cluster_size` cores.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheHierarchy {
    /// Uniform line size in bytes.
    pub line_size: u64,
    /// Levels from L1 outward.
    pub levels: Vec<CacheLevel>,
    /// How many cores share each instance of a `shared` level.
    pub shared_cluster_size: u32,
    /// Latency of a miss in the last level (main memory), in cycles.
    pub memory_latency: u32,
}

impl CacheHierarchy {
    /// The first (innermost) level.
    pub fn l1(&self) -> &CacheLevel {
        &self.levels[0]
    }

    /// Private levels only (those simulated per-thread by the FS model).
    pub fn private_levels(&self) -> impl Iterator<Item = &CacheLevel> {
        self.levels.iter().filter(|l| !l.shared)
    }

    /// Line number of a byte address.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr / self.line_size
    }

    /// Byte offset within the line.
    #[inline]
    pub fn line_offset(&self, addr: u64) -> u64 {
        addr % self.line_size
    }

    /// Number of distinct lines an access of `size` bytes at `addr` touches
    /// (straddling accesses touch two).
    #[inline]
    pub fn lines_touched(&self, addr: u64, size: u64) -> u64 {
        if size == 0 {
            return 0;
        }
        self.line_of(addr + size - 1) - self.line_of(addr) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn level(size: u64, assoc: Associativity) -> CacheLevel {
        CacheLevel {
            name: "L".into(),
            size_bytes: size,
            associativity: assoc,
            hit_latency: 1,
            shared: false,
        }
    }

    #[test]
    fn line_math() {
        let h = CacheHierarchy {
            line_size: 64,
            levels: vec![level(64 * 1024, Associativity::Full)],
            shared_cluster_size: 1,
            memory_latency: 200,
        };
        assert_eq!(h.line_of(0), 0);
        assert_eq!(h.line_of(63), 0);
        assert_eq!(h.line_of(64), 1);
        assert_eq!(h.line_offset(100), 36);
        assert_eq!(h.lines_touched(60, 8), 2, "straddles a boundary");
        assert_eq!(h.lines_touched(56, 8), 1);
        assert_eq!(h.lines_touched(0, 0), 0);
    }

    #[test]
    fn set_geometry() {
        let l = level(64 * 1024, Associativity::SetAssoc { ways: 8 });
        assert_eq!(l.num_lines(64), 1024);
        assert_eq!(l.num_sets(64), 128);
        assert_eq!(l.ways(64), 8);
        let f = level(64 * 1024, Associativity::Full);
        assert_eq!(f.num_sets(64), 1);
        assert_eq!(f.ways(64), 1024);
    }

    #[test]
    fn private_levels_excludes_shared() {
        let mut l3 = level(10 * 1024 * 1024, Associativity::SetAssoc { ways: 16 });
        l3.shared = true;
        let h = CacheHierarchy {
            line_size: 64,
            levels: vec![level(64 * 1024, Associativity::Full), l3],
            shared_cluster_size: 12,
            memory_latency: 200,
        };
        assert_eq!(h.private_levels().count(), 1);
        assert_eq!(h.l1().size_bytes, 64 * 1024);
    }
}
