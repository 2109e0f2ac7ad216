//! Dense-table MESI simulator: the optimized replay path.
//!
//! [`DenseMultiCoreSim`] is an operation-for-operation mirror of
//! [`crate::mesi::MultiCoreSim`] with every hash map replaced by a dense
//! table over interned line ids, following the FS model's PR-2 recipe
//! (`cost_model::fs`):
//!
//! * the full-map **directory** becomes three parallel vectors (tag,
//!   owner-or-sharers word, written-byte mask) indexed by line id,
//! * the **cold-miss set** becomes a bitset,
//! * every set-associative cache becomes a [`DenseSetLru`] whose key index
//!   is a flat array — no SipHash on the L1 probe that runs once per
//!   access,
//! * per-line **FS attribution** becomes a vector, materialized into the
//!   `fs_by_line` map only once at the end.
//!
//! One shortcut has no counterpart in the reference: an access to the line
//! the same core accessed last, which the general path would answer with an
//! L1 hit on the set's MRU entry and a same-line prefetcher touch, only
//! adds to the counters and the written-byte mask
//! (`DenseMultiCoreSim::access_line`; the argument that this is exact is
//! in `docs/SIM.md`, "Same-line repeats").
//!
//! Array bases are contiguous and line-aligned starting at `align`
//! ([`loop_ir::Kernel::array_bases`]), so every line inside the kernel's
//! footprint, up to the interner's identity cap, *is* its own dense id
//! (identity mapping + bounds check); lines past the cap, halo reads past
//! the last array and wrapped negative addresses take the hash-map
//! overflow region of [`LineInterner`], and the tables grow for them.
//! Cache *set* selection stays a function of the original line number,
//! exactly as the reference path computes it.
//!
//! The mirror is behavioral, not just statistical: the per-set LRU
//! ([`DenseSetLru`] vs [`crate::lru::LruCache`]) is checked
//! operation-identical by the xorshift churn test
//! `dense_matches_lru_cache_under_churn`, the same [`StreamPrefetcher`] observes the same
//! demand stream, and every stall/stat update happens under the same
//! conditions in the same order — so the final [`SimStats`] are
//! bit-identical to the reference path (enforced by
//! `tests/sim_path_equivalence.rs` and the unit tests below).

use crate::lru::DenseSetLru;
use crate::mesi::MissSource;
use crate::prefetch::StreamPrefetcher;
use crate::stats::SimStats;
use crate::trace::MemAccess;
use machine::cache::{CacheHierarchy, CacheLevel};
use machine::{CoherenceParams, MachineConfig};
use std::collections::HashMap;

/// Most lines a [`LineInterner`] maps to themselves: 4 Mi lines, 256 MiB
/// of modeled arrays at 64-byte lines. A memory bound, not an engine
/// switch: both fast engines size their id-indexed tables to the identity
/// region up front (~26 bytes per line in this replay; 24 per line, plus a
/// 4-byte key index per thread, in the FS model's dense walk), so the cap
/// bounds what a large declared footprint can reserve. The tables are
/// zeroed allocations, so only the pages of touched lines are committed.
/// Lines past the cap take overflow ids like any other out-of-region line,
/// and the tables grow as those lines are touched.
pub(crate) const IDENTITY_LINE_CAP: u64 = 1 << 22;

/// Maps cache-line numbers to contiguous `u32` ids, for the dense tables
/// of both fast engines: this replay and the FS model's dense walk
/// (`cost_model::fs`). Lines below the identity region are their own ids;
/// anything else — lines past the 4 Mi-line identity cap, adjacent-line
/// prefetches past the last array, negative addresses wrapped by the
/// `as u64` cast — is assigned the next id from a hash-map overflow region.
pub struct LineInterner {
    dense_lines: u64,
    overflow: HashMap<u64, u32>,
    /// `overflow_lines[id - dense_lines]` = original line of an overflow id.
    overflow_lines: Vec<u64>,
}

impl LineInterner {
    /// The interner for a kernel whose arrays span `footprint_lines`
    /// (per [`loop_ir::Kernel::line_footprint`]): the identity region is
    /// the footprint plus 2 lines of slack, since halo reads one element
    /// past the last array still land in its line-aligned padding, capped
    /// at 4 Mi lines (a memory bound: the tables are sized to the region).
    pub fn new(footprint_lines: u64) -> Self {
        LineInterner {
            dense_lines: footprint_lines.saturating_add(2).min(IDENTITY_LINE_CAP),
            overflow: HashMap::new(),
            overflow_lines: Vec::new(),
        }
    }

    /// The id of `line`, assigning the next overflow id on first sight.
    #[inline]
    pub fn id_of(&mut self, line: u64) -> u32 {
        if line < self.dense_lines {
            line as u32
        } else {
            let next = self.dense_lines as u32 + self.overflow_lines.len() as u32;
            match self.overflow.entry(line) {
                std::collections::hash_map::Entry::Occupied(e) => *e.get(),
                std::collections::hash_map::Entry::Vacant(e) => {
                    self.overflow_lines.push(line);
                    *e.insert(next)
                }
            }
        }
    }

    /// The line an id was assigned to.
    #[inline]
    pub fn line_of(&self, id: u32) -> u64 {
        if (id as u64) < self.dense_lines {
            id as u64
        } else {
            self.overflow_lines[(id as u64 - self.dense_lines) as usize]
        }
    }

    /// Ids handed out so far: the dense region plus every overflow line.
    pub fn slots(&self) -> usize {
        self.dense_lines as usize + self.overflow_lines.len()
    }
}

/// Directory tags (the discriminant of `mesi::GlobalState`).
const TAG_UNCACHED: u8 = 0;
const TAG_EXCLUSIVE: u8 = 1;
const TAG_SHARED: u8 = 2;
const TAG_MODIFIED: u8 = 3;

/// The full-map directory as struct-of-vectors indexed by line id.
struct DenseDirectory {
    tags: Vec<u8>,
    /// Exclusive/Modified: owning core. Shared: sharer bitmask.
    word: Vec<u64>,
    /// Modified only: per-byte written mask.
    written: Vec<u64>,
}

impl DenseDirectory {
    fn with_capacity(n: usize) -> Self {
        DenseDirectory {
            tags: vec![TAG_UNCACHED; n],
            word: vec![0; n],
            written: vec![0; n],
        }
    }

    fn grow(&mut self, n: usize) {
        self.tags.resize(n, TAG_UNCACHED);
        self.word.resize(n, 0);
        self.written.resize(n, 0);
    }
}

/// `seen` (lines ever fetched from memory) as a bitset over line ids.
struct DenseBitset {
    words: Vec<u64>,
}

impl DenseBitset {
    fn with_capacity(bits: usize) -> Self {
        DenseBitset {
            words: vec![0; bits.div_ceil(64)],
        }
    }

    fn grow(&mut self, bits: usize) {
        let need = bits.div_ceil(64);
        if need > self.words.len() {
            self.words.resize(need, 0);
        }
    }

    /// Set bit `id`; true when it was newly set.
    #[inline]
    fn insert(&mut self, id: u32) -> bool {
        let w = &mut self.words[id as usize / 64];
        let bit = 1u64 << (id % 64);
        let fresh = *w & bit == 0;
        *w |= bit;
        fresh
    }
}

/// One set-associative (or fully associative) cache storing line presence,
/// keyed by line id; the set is computed from the *original* line number,
/// matching the reference `SetCache::set_of`.
struct DenseSetCache {
    lru: DenseSetLru<()>,
    num_sets: u64,
    hit_latency: u32,
}

impl DenseSetCache {
    /// The key index starts empty and grows to the touched id range on
    /// demand (`DenseSetLru::ensure_key` inside `insert`); absent keys
    /// probe as misses either way, so pre-sizing would only trade memory
    /// for nothing.
    fn new(level: &CacheLevel, line_size: u64) -> Self {
        let num_sets = level.num_sets(line_size).max(1);
        let ways = level.ways(line_size).max(1) as usize;
        DenseSetCache {
            lru: DenseSetLru::new(num_sets as usize, ways, 0),
            num_sets,
            hit_latency: level.hit_latency,
        }
    }

    /// Touch a line, returning true on hit.
    #[inline]
    fn probe(&mut self, id: u32) -> bool {
        self.lru.touch(id).is_some()
    }

    #[inline]
    fn contains(&self, id: u32) -> bool {
        self.lru.peek(id).is_some()
    }

    /// Insert a line, returning the evicted line id if any.
    #[inline]
    fn insert(&mut self, id: u32, line: u64) -> Option<u32> {
        let set = (line % self.num_sets) as usize;
        self.lru.insert(set, id, ()).map(|(victim, ())| victim)
    }

    #[inline]
    fn remove(&mut self, id: u32) -> bool {
        self.lru.remove(id).is_some()
    }
}

/// The line a core's last line-granular access demanded (see
/// [`DenseMultiCoreSim::access_line`]).
#[derive(Clone, Copy)]
struct LastLine {
    line: u64,
    id: u32,
}

/// The private cache stack of one core.
struct DenseCore {
    l1: DenseSetCache,
    l2: Option<DenseSetCache>,
    /// Set after every access; the line is then resident and the MRU entry
    /// of its L1 set until this core's next access or a remote
    /// invalidation of it, which clears the mark.
    last: Option<LastLine>,
}

impl DenseCore {
    fn invalidate(&mut self, id: u32) {
        if self.last.is_some_and(|l| l.id == id) {
            self.last = None;
        }
        self.l1.remove(id);
        if let Some(l2) = &mut self.l2 {
            l2.remove(id);
        }
    }

    fn holds(&self, id: u32) -> bool {
        self.l1.contains(id) || self.l2.as_ref().is_some_and(|l2| l2.contains(id))
    }
}

/// The dense-table multi-core coherent cache simulator. Construct with the
/// kernel's line footprint (dense id range), feed it access blocks via
/// [`Self::replay`], and take the statistics with [`Self::into_stats`].
pub struct DenseMultiCoreSim {
    line_size: u64,
    interner: LineInterner,
    cores: Vec<DenseCore>,
    shared: Vec<DenseSetCache>,
    cluster_size: u32,
    shared_hit_latency: u32,
    memory_latency: u32,
    coherence: CoherenceParams,
    dir: DenseDirectory,
    seen: DenseBitset,
    /// False-sharing misses per line id; materialized into
    /// `SimStats::fs_by_line` once at the end.
    fs_by_id: Vec<u64>,
    stats: SimStats,
    prefetchers: Option<Vec<StreamPrefetcher>>,
    pf_buf: Vec<u64>,
}

impl DenseMultiCoreSim {
    /// `footprint_lines` sizes the identity id region (see
    /// [`crate::sim::SimPrepared::footprint_lines`] and [`LineInterner::new`]);
    /// lines past it fall into the interner's overflow map.
    pub fn new(machine: &MachineConfig, num_threads: u32, footprint_lines: u64) -> Self {
        assert!(num_threads >= 1);
        assert!(
            num_threads <= 64,
            "directory sharer bitmask supports at most 64 cores"
        );
        let h: &CacheHierarchy = &machine.caches;
        let private: Vec<&CacheLevel> = h.levels.iter().filter(|l| !l.shared).collect();
        assert!(
            !private.is_empty(),
            "hierarchy needs at least one private level"
        );
        let shared_level = h.levels.iter().find(|l| l.shared);
        let cluster_size = h.shared_cluster_size.max(1);
        let num_clusters = num_threads.div_ceil(cluster_size);
        let interner = LineInterner::new(footprint_lines);
        let capacity = interner.slots();
        let cores = (0..num_threads)
            .map(|_| DenseCore {
                l1: DenseSetCache::new(private[0], h.line_size),
                l2: private.get(1).map(|l| DenseSetCache::new(l, h.line_size)),
                last: None,
            })
            .collect();
        let shared = shared_level
            .map(|l| {
                (0..num_clusters)
                    .map(|_| DenseSetCache::new(l, h.line_size))
                    .collect()
            })
            .unwrap_or_default();
        DenseMultiCoreSim {
            line_size: h.line_size,
            interner,
            cores,
            shared,
            cluster_size,
            shared_hit_latency: shared_level.map(|l| l.hit_latency).unwrap_or(0),
            memory_latency: h.memory_latency,
            coherence: machine.coherence,
            dir: DenseDirectory::with_capacity(capacity),
            seen: DenseBitset::with_capacity(capacity),
            fs_by_id: vec![0; capacity],
            stats: SimStats::new(num_threads),
            prefetchers: None,
            pf_buf: Vec::new(),
        }
    }

    /// Enable per-core stride prefetching (same predictor as the reference
    /// path — it observes original line numbers, so its decisions are
    /// identical).
    pub fn with_prefetchers(mut self) -> Self {
        let n = self.cores.len();
        self.prefetchers = Some((0..n).map(|_| StreamPrefetcher::default()).collect());
        self
    }

    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Finish: fold the per-id FS counts back into line-keyed attribution.
    pub fn into_stats(mut self) -> SimStats {
        for (id, &n) in self.fs_by_id.iter().enumerate() {
            if n > 0 {
                self.stats
                    .fs_by_line
                    .insert(self.interner.line_of(id as u32), n);
            }
        }
        self.stats
    }

    /// Replay a block of accesses (see
    /// [`crate::trace::TraceGen::for_each_interleaved_blocks`]).
    pub fn replay(&mut self, block: &[MemAccess]) {
        for a in block {
            self.access(a.thread, a.addr, a.size, a.is_write);
        }
    }

    fn cluster_of(&self, core: u32) -> usize {
        (core / self.cluster_size) as usize
    }

    /// Byte mask within a line for `offset..offset+size` (identical to the
    /// reference `MultiCoreSim::byte_mask`).
    #[inline]
    fn byte_mask(offset: u64, size: u64) -> u64 {
        debug_assert!(offset + size <= 64, "mask covers one 64-byte line");
        if size >= 64 {
            u64::MAX
        } else {
            ((1u64 << size) - 1) << offset
        }
    }

    /// Intern `line` and make every dense table cover the id.
    #[inline]
    fn intern(&mut self, line: u64) -> u32 {
        let id = self.interner.id_of(line);
        let need = id as usize + 1;
        if need > self.dir.tags.len() {
            self.dir.grow(need);
            self.fs_by_id.resize(need, 0);
            self.seen.grow(need);
        }
        id
    }

    /// Simulate one access, splitting across lines as needed.
    pub fn access(&mut self, thread: u32, addr: u64, size: u32, is_write: bool) {
        let mut a = addr;
        let mut remaining = size as u64;
        if remaining == 0 {
            return;
        }
        loop {
            let line_off = a % self.line_size;
            let in_line = (self.line_size - line_off).min(remaining);
            let (moff, msize) = if self.line_size == 64 {
                (line_off, in_line)
            } else {
                let scale = self.line_size as f64 / 64.0;
                (
                    (line_off as f64 / scale) as u64,
                    ((in_line as f64 / scale).ceil() as u64).max(1),
                )
            };
            let mask = Self::byte_mask(moff.min(63), msize.min(64 - moff.min(63)));
            self.access_line(thread, a / self.line_size, mask, is_write);
            remaining -= in_line;
            if remaining == 0 {
                break;
            }
            a += in_line;
        }
    }

    /// One line-granular access. A repeat of the core's previous line
    /// (still marked in [`DenseCore::last`]) is an L1 hit on the set's MRU
    /// entry, so the probe moves nothing; the prefetcher's second look at
    /// the line prefetches nothing and only re-marks its newest stream as
    /// the newest, which changes no later decision; and a read, or a write
    /// whose line this core already holds Modified, leaves the directory
    /// as it was. Such a repeat only adds to the counters and, for a
    /// write, the written-byte mask.
    fn access_line(&mut self, thread: u32, line: u64, bytes: u64, is_write: bool) {
        let c = thread as usize;
        if let Some(last) = self.repeat_of(thread, line, is_write) {
            let st = &mut self.stats.per_thread[c];
            st.accesses += 1;
            st.l1_hits += 1;
            st.cycles += self.cores[c].l1.hit_latency as u64;
            if is_write {
                self.dir.written[last.id as usize] |= bytes;
            }
            return;
        }
        self.stats.per_thread[c].accesses += 1;
        // The prefetcher observes the demand stream (hits included), on
        // original line numbers — before anything else, as in the
        // reference path.
        self.feed_prefetcher(thread, line);
        let id = self.intern(line);
        self.demand(thread, line, id, bytes, is_write);
        self.cores[c].last = Some(LastLine { line, id });
    }

    /// [`Self::access_line`]'s general path: whatever the access does
    /// after the prefetcher has seen it.
    fn demand(&mut self, thread: u32, line: u64, id: u32, bytes: u64, is_write: bool) {
        let c = thread as usize;
        // --- private hit path ---
        if self.cores[c].l1.probe(id) {
            let lat = self.cores[c].l1.hit_latency;
            self.stats.per_thread[c].l1_hits += 1;
            self.stats.per_thread[c].cycles += lat as u64;
            if is_write {
                self.write_hit(thread, id);
                self.apply_write(thread, id, bytes);
            }
            return;
        }
        let l2_hit = self.cores[c].l2.as_mut().is_some_and(|l2| l2.probe(id));
        if l2_hit {
            let lat = self.cores[c].l2.as_ref().unwrap().hit_latency;
            self.stats.per_thread[c].l2_hits += 1;
            self.stats.per_thread[c].cycles += lat as u64;
            // Promote into L1 (inclusive: an L1 victim stays in L2; nothing
            // global changes).
            self.cores[c].l1.insert(id, line);
            if is_write {
                self.write_hit(thread, id);
                self.apply_write(thread, id, bytes);
            }
            return;
        }

        // --- private miss: resolve through the directory ---
        if self.prefetchers.is_some() {
            self.install_prefetch(thread, line + 1);
            self.install_prefetch(thread, line + 2);
        }
        let source = self.resolve_miss(thread, id, bytes, is_write);
        let lat = match source {
            MissSource::RemoteDirty { false_sharing } => {
                let st = &mut self.stats.per_thread[c];
                st.coherence_misses += 1;
                if false_sharing {
                    st.false_sharing_misses += 1;
                    self.fs_by_id[id as usize] += 1;
                } else {
                    st.true_sharing_misses += 1;
                }
                self.coherence.cache_to_cache
            }
            MissSource::RemoteClean => {
                self.stats.per_thread[c].clean_transfers += 1;
                self.coherence.cache_to_cache
            }
            MissSource::SharedLevel => {
                self.stats.per_thread[c].l3_hits += 1;
                self.shared_hit_latency
            }
            MissSource::Memory { cold } => {
                self.stats.per_thread[c].mem_fetches += 1;
                if cold {
                    self.stats.cold_misses += 1;
                }
                self.memory_latency
            }
        };
        self.stats.per_thread[c].cycles += self.coherence.stall_cycles(lat, is_write);

        self.fill_private(thread, id, line);
    }

    /// The core's last line, when an access to `line` repeats it and
    /// leaves the directory as it is: a read, or a write to a line tagged
    /// Modified (this core holds the line, so no other core owns it).
    #[inline]
    fn repeat_of(&self, thread: u32, line: u64, is_write: bool) -> Option<LastLine> {
        let last = self.cores[thread as usize]
            .last
            .filter(|l| l.line == line)?;
        let unchanged = !is_write || self.dir.tags[last.id as usize] == TAG_MODIFIED;
        unchanged.then_some(last)
    }

    fn feed_prefetcher(&mut self, thread: u32, line: u64) {
        let Some(pfs) = &mut self.prefetchers else {
            return;
        };
        let mut buf = std::mem::take(&mut self.pf_buf);
        pfs[thread as usize].observe(line, &mut buf);
        for &p in &buf {
            self.install_prefetch(thread, p);
        }
        self.pf_buf = buf;
    }

    fn install_prefetch(&mut self, thread: u32, line: u64) {
        let me = thread;
        let id = self.intern(line);
        if self.cores[me as usize].holds(id) {
            return;
        }
        match self.dir.tags[id as usize] {
            TAG_UNCACHED => {
                self.dir.tags[id as usize] = TAG_SHARED;
                self.dir.word[id as usize] = 1u64 << me;
            }
            TAG_SHARED => {
                self.dir.word[id as usize] |= 1u64 << me;
            }
            // Never steal a line another core owns.
            _ => return,
        }
        self.fill_shared(me, id);
        self.fill_private(me, id, line);
        self.stats.per_thread[me as usize].prefetch_issued += 1;
    }

    /// Handle a write that hit a line already present in this core's
    /// private caches: silent E->M, or an upgrade invalidating remote
    /// sharers. Split from the written-mask update ([`Self::apply_write`])
    /// only to satisfy the borrow checker; the combined effect is the
    /// reference `write_hit`.
    fn write_hit(&mut self, thread: u32, id: u32) {
        let me = thread;
        let i = id as usize;
        match self.dir.tags[i] {
            TAG_MODIFIED => {
                debug_assert_eq!(
                    self.dir.word[i], me as u64,
                    "hit in private cache but owned elsewhere"
                );
            }
            TAG_EXCLUSIVE => {
                debug_assert_eq!(self.dir.word[i], me as u64);
                self.dir.written[i] = 0;
            }
            TAG_SHARED => {
                let others = self.dir.word[i] & !(1u64 << me);
                if others != 0 {
                    self.stats.per_thread[me as usize].upgrades += 1;
                    self.stats.per_thread[me as usize].cycles += self
                        .coherence
                        .stall_cycles(self.coherence.invalidation, true);
                    self.invalidate_sharers(others, id);
                }
                self.dir.written[i] = 0;
            }
            _ => {
                // Present privately but directory lost track (entry dropped
                // on an eviction race); treat as fresh exclusive ownership.
                self.dir.written[i] = 0;
            }
        }
        self.dir.tags[i] = TAG_MODIFIED;
        self.dir.word[i] = me as u64;
    }

    /// Invalidate `id` in every core of the `cores` bitmask, walking its set
    /// bits.
    #[inline]
    fn invalidate_sharers(&mut self, cores: u64, id: u32) {
        let mut rest = cores;
        while rest != 0 {
            self.cores[rest.trailing_zeros() as usize].invalidate(id);
            rest &= rest - 1;
        }
    }

    /// OR `bytes` into the written mask of a line this core just wrote.
    /// The reference path folds this into `write_hit`'s state transition
    /// (`written: written | bytes` on M, `written: bytes` otherwise);
    /// [`Self::write_hit`] zeroes the mask on non-M transitions, so the OR
    /// here reproduces both cases.
    #[inline]
    fn apply_write(&mut self, _thread: u32, id: u32, bytes: u64) {
        self.dir.written[id as usize] |= bytes;
    }

    /// Resolve a private miss: find the data, adjust remote states, update
    /// the directory with this core as a holder, and report the source.
    fn resolve_miss(&mut self, thread: u32, id: u32, bytes: u64, is_write: bool) -> MissSource {
        let me = thread;
        let i = id as usize;
        match self.dir.tags[i] {
            TAG_MODIFIED if self.dir.word[i] != me as u64 => {
                let o = self.dir.word[i] as u32;
                let fs = self.dir.written[i] & bytes == 0;
                let cross = self.cluster_of(o) != self.cluster_of(me);
                if cross {
                    self.stats.per_thread[me as usize].cycles += self
                        .coherence
                        .stall_cycles(self.coherence.cross_socket_extra, is_write);
                }
                if is_write {
                    self.stats.per_thread[me as usize].cycles += self
                        .coherence
                        .stall_cycles(self.coherence.invalidation, true);
                    self.cores[o as usize].invalidate(id);
                    self.dir.tags[i] = TAG_MODIFIED;
                    self.dir.word[i] = me as u64;
                    self.dir.written[i] = bytes;
                } else {
                    // Owner downgrades to Shared; dirty data written back to
                    // the reader's cluster shared level.
                    self.stats.per_thread[o as usize].writebacks += 1;
                    self.fill_shared(me, id);
                    self.dir.tags[i] = TAG_SHARED;
                    self.dir.word[i] = (1u64 << o) | (1u64 << me);
                }
                MissSource::RemoteDirty { false_sharing: fs }
            }
            TAG_EXCLUSIVE if self.dir.word[i] != me as u64 => {
                let o = self.dir.word[i] as u32;
                if is_write {
                    self.stats.per_thread[me as usize].cycles += self
                        .coherence
                        .stall_cycles(self.coherence.invalidation, true);
                    self.cores[o as usize].invalidate(id);
                    self.dir.tags[i] = TAG_MODIFIED;
                    self.dir.word[i] = me as u64;
                    self.dir.written[i] = bytes;
                } else {
                    self.dir.tags[i] = TAG_SHARED;
                    self.dir.word[i] = (1u64 << o) | (1u64 << me);
                }
                MissSource::RemoteClean
            }
            TAG_SHARED => {
                let sharers = self.dir.word[i];
                let others = sharers & !(1u64 << me);
                if is_write {
                    if others != 0 {
                        self.stats.per_thread[me as usize].cycles += self
                            .coherence
                            .stall_cycles(self.coherence.invalidation, true);
                        self.invalidate_sharers(others, id);
                    }
                    self.dir.tags[i] = TAG_MODIFIED;
                    self.dir.word[i] = me as u64;
                    self.dir.written[i] = bytes;
                } else {
                    self.dir.word[i] = sharers | (1u64 << me);
                }
                self.fetch_from_shared_or_memory(me, id)
            }
            TAG_MODIFIED => {
                // Owned here but missed privately: recover (the reference
                // path's self-recovery arm).
                self.dir.written[i] = if is_write { bytes } else { 0 };
                self.fetch_from_shared_or_memory(me, id)
            }
            TAG_EXCLUSIVE => {
                if is_write {
                    self.dir.tags[i] = TAG_MODIFIED;
                    self.dir.written[i] = bytes;
                }
                self.fetch_from_shared_or_memory(me, id)
            }
            _ => {
                if is_write {
                    self.dir.tags[i] = TAG_MODIFIED;
                    self.dir.written[i] = bytes;
                } else {
                    self.dir.tags[i] = TAG_EXCLUSIVE;
                }
                self.dir.word[i] = me as u64;
                self.fetch_from_shared_or_memory(me, id)
            }
        }
    }

    /// Probe the cluster's shared level (filling it on a memory fetch).
    fn fetch_from_shared_or_memory(&mut self, thread: u32, id: u32) -> MissSource {
        if self.shared.is_empty() {
            let cold = self.seen.insert(id);
            return MissSource::Memory { cold };
        }
        let cl = self.cluster_of(thread);
        if self.shared[cl].probe(id) {
            MissSource::SharedLevel
        } else {
            let cold = self.seen.insert(id);
            let line = self.interner.line_of(id);
            self.shared[cl].insert(id, line);
            MissSource::Memory { cold }
        }
    }

    /// Put a line into the thread's cluster shared cache.
    fn fill_shared(&mut self, thread: u32, id: u32) {
        if self.shared.is_empty() {
            return;
        }
        let cl = self.cluster_of(thread);
        let line = self.interner.line_of(id);
        self.shared[cl].insert(id, line);
    }

    /// Insert `line` into the core's L1+L2, handling inclusive evictions.
    fn fill_private(&mut self, thread: u32, id: u32, line: u64) {
        let c = thread as usize;
        // L2 first (inclusion), then L1.
        let l2_victim = self.cores[c].l2.as_mut().and_then(|l2| l2.insert(id, line));
        if let Some(victim) = l2_victim {
            // Inclusion: the victim must leave L1 too.
            self.cores[c].l1.remove(victim);
            self.evict_from_core(thread, victim);
        }
        if let Some(victim) = self.cores[c].l1.insert(id, line) {
            if self.cores[c].l2.is_none() {
                // Single private level: an L1 eviction leaves the core.
                self.evict_from_core(thread, victim);
            }
            // Otherwise the victim still lives in L2; nothing global.
        }
    }

    /// Update the directory when line `id` leaves all private levels of
    /// `thread`'s core.
    fn evict_from_core(&mut self, thread: u32, id: u32) {
        let me = thread;
        let i = id as usize;
        match self.dir.tags[i] {
            TAG_MODIFIED if self.dir.word[i] == me as u64 => {
                self.stats.per_thread[me as usize].writebacks += 1;
                self.fill_shared(me, id);
                self.dir.tags[i] = TAG_UNCACHED;
            }
            TAG_EXCLUSIVE if self.dir.word[i] == me as u64 => {
                self.dir.tags[i] = TAG_UNCACHED;
            }
            TAG_SHARED => {
                let rest = self.dir.word[i] & !(1u64 << me);
                if rest == 0 {
                    self.dir.tags[i] = TAG_UNCACHED;
                } else {
                    self.dir.word[i] = rest;
                }
            }
            _ => {}
        }
    }

    /// Debug invariant check mirroring the reference
    /// `MultiCoreSim::check_invariants`, plus the residency of each core's
    /// marked last line. O(ids × cores); test-only.
    pub fn check_invariants(&self) {
        for (c, core) in self.cores.iter().enumerate() {
            if let Some(last) = core.last {
                assert!(
                    core.l1.contains(last.id),
                    "core {c}'s last line {} left its L1",
                    last.line
                );
            }
        }
        for id in 0..self.interner.slots() as u32 {
            let i = id as usize;
            match self.dir.tags[i] {
                TAG_MODIFIED | TAG_EXCLUSIVE => {
                    let core = self.dir.word[i] as usize;
                    assert!(
                        self.cores[core].holds(id),
                        "id {id} owned by core {core} but not cached there"
                    );
                    for (j, c) in self.cores.iter().enumerate() {
                        if j != core {
                            assert!(
                                !c.holds(id),
                                "id {id} exclusive to {core} but also in core {j}"
                            );
                        }
                    }
                }
                TAG_SHARED => {
                    let sharers = self.dir.word[i];
                    assert_ne!(sharers, 0);
                    for (j, c) in self.cores.iter().enumerate() {
                        if sharers & (1u64 << j) != 0 {
                            assert!(
                                c.holds(id),
                                "id {id} marked shared by core {j} but not cached there"
                            );
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesi::MultiCoreSim;
    use machine::presets;

    /// Run the same access sequence through both simulators and assert the
    /// final stats are bit-identical.
    fn assert_mirror(
        machine: &MachineConfig,
        threads: u32,
        footprint_lines: u64,
        prefetch: bool,
        accesses: impl Iterator<Item = (u32, u64, u32, bool)> + Clone,
    ) {
        let mut reference = MultiCoreSim::new(machine, threads);
        let mut dense = DenseMultiCoreSim::new(machine, threads, footprint_lines);
        if prefetch {
            reference = reference.with_prefetchers();
            dense = dense.with_prefetchers();
        }
        for (t, addr, size, w) in accesses.clone() {
            reference.access(t, addr, size, w);
        }
        for (t, addr, size, w) in accesses {
            dense.access(t, addr, size, w);
        }
        reference.check_invariants();
        dense.check_invariants();
        assert_eq!(dense.into_stats(), reference.into_stats());
    }

    #[test]
    fn mirrors_reference_on_ping_pong() {
        let seq: Vec<(u32, u64, u32, bool)> = (0..10)
            .flat_map(|_| [(0u32, 0u64, 8u32, true), (1, 32, 8, true)])
            .collect();
        assert_mirror(&presets::tiny_test(), 2, 8, false, seq.iter().copied());
    }

    #[test]
    fn mirrors_reference_under_random_traffic() {
        // Deterministic xorshift64* stream, same driver as the reference
        // invariants stress test — hammers evictions, upgrades, straddles,
        // self-recovery and the shared level.
        let mut state = 42u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let seq: Vec<(u32, u64, u32, bool)> = (0..5000)
            .map(|_| {
                let t = (next() % 4) as u32;
                let line = next() % 48;
                let off = (next() % 8) * 8;
                let w = next() % 10 < 4;
                (t, line * 64 + off, 8, w)
            })
            .collect();
        // The same traffic with half the accesses on the thread's previous
        // line, so the same-line shortcut meets remote reads and writes,
        // evictions and upgrades.
        let mut last = [0u64; 4];
        let repeating: Vec<(u32, u64, u32, bool)> = (0..5000)
            .map(|_| {
                let t = (next() % 4) as usize;
                if next() % 2 == 0 {
                    last[t] = next() % 48;
                }
                let off = (next() % 8) * 8;
                (t as u32, last[t] * 64 + off, 8, next() % 10 < 4)
            })
            .collect();
        for accesses in [&seq, &repeating] {
            for machine in [presets::tiny_test(), presets::paper48()] {
                for prefetch in [false, true] {
                    // footprint 32 < 48 lines used: the overflow region is
                    // exercised too.
                    assert_mirror(&machine, 4, 32, prefetch, accesses.iter().copied());
                }
            }
        }
    }

    #[test]
    fn mirrors_reference_on_straddling_and_streaming() {
        let mut seq: Vec<(u32, u64, u32, bool)> = Vec::new();
        for i in 0..600u64 {
            seq.push((0, i * 64 + 60, 8, false)); // straddles every line pair
            seq.push((1, i * 64, 8, i % 3 == 0));
        }
        assert_mirror(&presets::paper48(), 2, 700, true, seq.iter().copied());
    }

    /// [`assert_mirror`] in lockstep, on both machines and with the
    /// prefetcher off and on: the per-thread stats agree after every
    /// access. Returns, per run, how many accesses took the repeat
    /// shortcut on their first line, and the dense stats.
    fn mirror_stepwise(seq: &[(u32, u64, u32, bool)]) -> Vec<(usize, SimStats)> {
        let mut runs = Vec::new();
        for machine in [presets::tiny_test(), presets::paper48()] {
            for prefetch in [false, true] {
                let mut reference = MultiCoreSim::new(&machine, 2);
                let mut dense = DenseMultiCoreSim::new(&machine, 2, 1 << 12);
                if prefetch {
                    reference = reference.with_prefetchers();
                    dense = dense.with_prefetchers();
                }
                let mut repeats = 0;
                for (step, &(t, addr, size, w)) in seq.iter().enumerate() {
                    repeats += dense.repeat_of(t, addr / 64, w).is_some() as usize;
                    reference.access(t, addr, size, w);
                    dense.access(t, addr, size, w);
                    assert_eq!(
                        dense.stats().per_thread,
                        reference.stats().per_thread,
                        "{}, prefetch {prefetch}: step {step} {:?}",
                        machine.name,
                        seq[step]
                    );
                }
                reference.check_invariants();
                dense.check_invariants();
                let stats = dense.into_stats();
                assert_eq!(stats, reference.into_stats());
                runs.push((repeats, stats));
            }
        }
        runs
    }

    #[test]
    fn repeat_write_after_a_remote_read_upgrades() {
        let seq = [
            (0, 0, 8, true),   // core 0 takes line 0 Modified
            (0, 8, 8, true),   // repeat write on Modified: shortcut
            (1, 16, 8, false), // remote read downgrades core 0 to Shared
            (0, 24, 8, true),  // same line, but Shared: must upgrade
            (0, 32, 8, true),  // Modified again: shortcut
            (1, 40, 8, false), // remote read downgrades again
            (0, 0, 8, false),  // repeat read of a Shared line: shortcut
        ];
        for (repeats, stats) in mirror_stepwise(&seq) {
            assert_eq!(repeats, 3);
            assert_eq!(stats.per_thread[0].upgrades, 1);
        }
    }

    #[test]
    fn repeat_after_a_remote_write_misses() {
        let seq = [
            (0, 0, 8, false),      // core 0 reads line 0
            (0, 8, 8, false),      // repeat read: shortcut
            (1, 16, 8, true),      // remote write invalidates core 0
            (0, 0, 8, false),      // no longer a repeat: coherence miss
            (0, 8, 8, true),       // Shared: upgrade, invalidating core 1
            (0, 8, 8, true),       // Modified: shortcut
            (1, 5 * 64, 8, false), // core 1 reads line 5 ...
            (0, 5 * 64, 8, false), // ... shared with core 0
            (0, 16, 8, false),     // back on line 0 (Modified)
            (1, 5 * 64, 8, true),  // remote write of another line
            (0, 24, 8, true),      // line 0 is still marked: shortcut
            (1, 16, 8, true),      // remote write miss invalidates core 0
            (0, 24, 8, true),      // write after the invalidation: miss
        ];
        for (repeats, stats) in mirror_stepwise(&seq) {
            assert_eq!(repeats, 3);
            assert!(stats.per_thread[0].coherence_misses >= 2);
        }
    }

    #[test]
    fn repeats_around_straddling_accesses() {
        let seq = [
            (0, 60, 8, true),   // lines 0 and 1; the mark is line 1
            (0, 64, 8, true),   // line 1 again, Modified: shortcut
            (0, 56, 16, false), // line 0, then line 1 (no repeat after line 0)
            (0, 120, 16, true), // line 1 again (shortcut), then line 2
            (0, 130, 4, true),  // line 2 again: shortcut
            (1, 124, 8, false), // core 1 straddles lines 1-2, downgrading both
            (0, 132, 4, true),  // line 2 again, now Shared: upgrade
            (0, 188, 8, false), // line 2 again (a read: shortcut), then line 3
            (0, 192, 8, true),  // line 3 again, but clean: general path
        ];
        for (repeats, stats) in mirror_stepwise(&seq) {
            assert_eq!(repeats, 4);
            assert!(stats.per_thread[0].upgrades >= 1);
        }
    }

    #[test]
    fn repeat_right_after_a_prefetch_filled_the_set() {
        // Core 0 streams through lines one L1 set apart, so every
        // prefetch the stream issues lands in the set of the line it
        // then repeats; core 1 owns some of the lines ahead, which the
        // prefetcher must not take.
        let sets = |m: &MachineConfig| m.caches.levels[0].num_sets(64);
        let (tiny, paper) = (sets(&presets::tiny_test()), sets(&presets::paper48()));
        assert_eq!(tiny, 1);
        let mut seq = Vec::new();
        for stride in [tiny, paper] {
            let base = 1000 * 64;
            for i in 0..16u64 {
                let addr = base + i * stride * 64;
                if i % 4 == 0 {
                    seq.push((1, addr + 3 * stride * 64 + 32, 8, true));
                }
                seq.push((0, addr, 8, i % 3 == 0));
                seq.push((0, addr + 8, 8, i % 2 == 0));
                seq.push((0, addr + 16, 8, false));
            }
        }
        for (i, (repeats, stats)) in mirror_stepwise(&seq).into_iter().enumerate() {
            assert!(repeats >= 32, "run {i}: {repeats} repeats");
            if i % 2 == 1 {
                assert!(stats.per_thread[0].prefetch_issued > 0, "run {i}");
            }
        }
    }

    #[test]
    fn overflow_lines_keep_their_identity_in_fs_attribution() {
        // All traffic far outside the declared footprint: every line goes
        // through the interner overflow, and fs_by_line must still be keyed
        // by the original line numbers.
        let base = 1 << 20;
        let seq: Vec<(u32, u64, u32, bool)> = (0..10)
            .flat_map(|_| [(0u32, base, 8u32, true), (1, base + 32, 8, true)])
            .collect();
        let mut dense = DenseMultiCoreSim::new(&presets::tiny_test(), 2, 8);
        for &(t, addr, size, w) in &seq {
            dense.access(t, addr, size, w);
        }
        let stats = dense.into_stats();
        assert!(stats.total_false_sharing() > 0);
        assert!(stats.fs_by_line.contains_key(&(base / 64)));
    }
}
