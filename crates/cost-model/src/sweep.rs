//! Grid sweeps over `{kernels × machines × threads × chunks}` with
//! memoization of schedule-independent cost terms and a predictor-driven
//! early-exit mode.
//!
//! The advisor, the sensitivity battery, and the bench tables all evaluate
//! the same kernel under many schedules; profiling shows most of that time
//! re-deriving work that does not depend on the schedule at all. Three
//! levels of reuse are implemented here:
//!
//! 1. **Prepared kernels** ([`crate::total::PreparedKernel`]): `Machine_c`
//!    and the FS model's step-1 reference extraction (access plan + array
//!    bases) are computed once per kernel×machine and shared by every
//!    (threads, chunk) point. (`Cache_c`/`TLB_c`/overheads *look* schedule
//!    independent but are not — their miss rates depend on chunk size and
//!    team size — so they are deliberately not hoisted.)
//! 2. **Point memoization** ([`MemoCache`]): full [`LoopCost`] results are
//!    keyed by a content fingerprint of (kernel, machine, threads, eval
//!    mode), so identical grid points — e.g. the advisor re-visiting a
//!    chunk the sensitivity battery already priced — are free.
//! 3. **Early exit** ([`EarlyExit`]): instead of simulating every chunk
//!    run, sample a small prefix, fit the §III-E linear predictor, and stop
//!    growing the sample once consecutive predictions agree to a relative
//!    tolerance.

use crate::fs::{FsModelConfig, FsPath};
use crate::predict::predict_fs_prepared;
use crate::total::{analyze_loop_prepared, AnalysisOptions, LoopCost, PreparedKernel};
use loop_ir::{Kernel, Schedule};
use machine::MachineConfig;
use std::collections::{HashMap, VecDeque};

/// One point of a sweep grid, by index into the grid's axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SweepPointSpec {
    pub kernel: usize,
    pub machine: usize,
    pub threads: u32,
    pub chunk: u64,
}

/// The cartesian sweep `{kernels × machines × threads × chunks}`.
///
/// Axis order is significant: [`SweepGrid::points`] enumerates
/// kernel-major, then machine, then threads, then chunk — the deterministic
/// output order every evaluation strategy (sequential or parallel) must
/// reproduce.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    /// Named kernels (the name is carried into results verbatim).
    pub kernels: Vec<(String, Kernel)>,
    /// Named machine descriptions.
    pub machines: Vec<(String, MachineConfig)>,
    pub threads: Vec<u32>,
    pub chunks: Vec<u64>,
}

impl SweepGrid {
    /// Grid over one machine, taking kernel names from the kernels.
    pub fn new(
        kernels: Vec<(String, Kernel)>,
        machine: (String, MachineConfig),
        threads: Vec<u32>,
        chunks: Vec<u64>,
    ) -> Self {
        SweepGrid {
            kernels,
            machines: vec![machine],
            threads,
            chunks,
        }
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.kernels.len() * self.machines.len() * self.threads.len() * self.chunks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All points in the canonical kernel → machine → threads → chunk order.
    pub fn points(&self) -> Vec<SweepPointSpec> {
        let mut out = Vec::with_capacity(self.len());
        for k in 0..self.kernels.len() {
            for m in 0..self.machines.len() {
                for &t in &self.threads {
                    for &c in &self.chunks {
                        out.push(SweepPointSpec {
                            kernel: k,
                            machine: m,
                            threads: t,
                            chunk: c,
                        });
                    }
                }
            }
        }
        out
    }
}

/// Early-exit policy for one grid point: grow the predictor's sample until
/// two consecutive predictions of the total FS case count agree to
/// `rel_tol`, then stop simulating (paper §III-E applied adaptively).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EarlyExit {
    /// First sample size, in chunk runs.
    pub min_runs: u64,
    /// Give up growing past this many chunk runs (the final sample is used
    /// as-is).
    pub max_runs: u64,
    /// Relative tolerance for two consecutive predictions to count as
    /// converged.
    pub rel_tol: f64,
}

impl Default for EarlyExit {
    fn default() -> Self {
        EarlyExit {
            min_runs: 8,
            max_runs: 128,
            rel_tol: 0.02,
        }
    }
}

impl EarlyExit {
    /// Pick the number of chunk runs to simulate for `kernel` under `cfg`:
    /// the smallest sample (doubling upward) whose prediction has
    /// converged, or `None` when the loop is so short the full evaluation
    /// is at least as cheap (callers fall back to the full model).
    ///
    /// When the parallel region sits under a sequential outer loop, the
    /// cumulative FS series is piecewise — each outer instance restarts
    /// with cold remote cache states — so convergence of consecutive
    /// predictions within one instance is not evidence of steady state.
    /// The starting sample is therefore widened to span at least two outer
    /// instances (the same guidance [`crate::predict::predict_fs`]
    /// documents), and only then grown until two consecutive predictions
    /// agree to `rel_tol`.
    pub fn resolve_runs(
        &self,
        kernel: &Kernel,
        cfg: &FsModelConfig,
        prep: &PreparedKernel,
    ) -> Option<u64> {
        // Cheap probe: learn x_max (total chunk runs) from a minimal sample.
        let probe =
            predict_fs_prepared(kernel, cfg, self.min_runs.max(2), &prep.plan, &prep.bases)?;
        let total = probe.total_chunk_runs;
        let outer = kernel.nest.outer_iters().unwrap_or(1).max(1);
        let per_instance = (total / outer).max(1);
        let mut runs = if outer > 1 {
            self.min_runs.max(2).max(2 * per_instance)
        } else {
            self.min_runs.max(2)
        };
        // The doubling cap must not truncate the instance-spanning start.
        let max_runs = self.max_runs.max(runs);
        if runs >= total {
            // Sample would cover the whole loop: predicting buys nothing.
            return None;
        }
        let mut prev: Option<f64> = None;
        loop {
            let p = predict_fs_prepared(kernel, cfg, runs, &prep.plan, &prep.bases)?;
            if p.chunk_runs_evaluated >= p.total_chunk_runs {
                return None;
            }
            if let Some(prev) = prev {
                let denom = prev.abs().max(1.0);
                if (p.predicted_cases - prev).abs() / denom <= self.rel_tol {
                    return Some(runs);
                }
            }
            if runs >= max_runs {
                return Some(runs);
            }
            prev = Some(p.predicted_cases);
            runs = (runs * 2).min(max_runs);
        }
    }
}

/// How each grid point's FS term is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum EvalMode {
    /// Full four-step model over every chunk run.
    #[default]
    Full,
    /// Fixed-size §III-E prediction sample.
    Predict(u64),
    /// Adaptive prediction sample (see [`EarlyExit`]).
    EarlyExit(EarlyExit),
}

/// Content fingerprint: `Debug` output is stable for a given value within
/// one build, which is all the memo needs (keys never cross processes).
fn fingerprint<T: std::fmt::Debug>(v: &T) -> String {
    format!("{v:?}")
}

/// The kernel with its schedule normalized to `static, 1` — the part of the
/// kernel the schedule-independent terms may depend on.
fn schedule_normalized(kernel: &Kernel) -> Kernel {
    let mut k = kernel.clone();
    k.nest.parallel.schedule = Schedule::Static { chunk: 1 };
    k
}

/// Lifetime statistics of one [`MemoCache`] (or an aggregate over shards).
/// `hits`/`misses`/`evictions`/`peak_bytes` describe the cache's whole
/// lifetime; `bytes` and `entries` describe its current contents.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Approximate resident bytes currently held.
    pub bytes: u64,
    /// High-water mark of `bytes` over the cache's lifetime.
    pub peak_bytes: u64,
    /// Entries currently held (points + prepared kernels).
    pub entries: u64,
}

impl MemoStats {
    /// Accumulate another cache's stats (shard aggregation). Per-shard
    /// peaks sum to an upper bound on the aggregate peak, which is the
    /// conservative figure a byte budget cares about.
    pub fn merge(&mut self, other: &MemoStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.bytes += other.bytes;
        self.peak_bytes += other.peak_bytes;
        self.entries += other.entries;
    }
}

/// Approximate resident bytes of a cached point result: the struct itself
/// plus the heap the FS model result owns (per-line attribution, series,
/// per-thread counts) and the cache-cost reference groups.
fn cost_bytes(c: &LoopCost) -> u64 {
    let fs = &c.fs;
    (std::mem::size_of::<LoopCost>()
        + fs.per_thread_cases.len() * std::mem::size_of::<u64>()
        + fs.per_line_cases.len() * 48 // HashMap entry: key + value + bucket overhead
        + (fs.series.len() + fs.events_series.len()) * std::mem::size_of::<(u64, u64)>()
        + c.cache.groups.len() * std::mem::size_of::<crate::footprint::RefGroup>()) as u64
}

/// Approximate resident bytes of a prepared kernel: access plan + bases.
fn prepared_bytes(p: &PreparedKernel) -> u64 {
    let plan: usize = p
        .plan
        .accesses
        .iter()
        .map(|a| std::mem::size_of_val(a) + (a.indices.len() + a.dims.len()) * 32)
        .sum();
    (std::mem::size_of::<PreparedKernel>() + plan + p.bases.len() * std::mem::size_of::<u64>())
        as u64
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryKind {
    Prepared,
    Point,
}

struct Entry<T> {
    value: T,
    bytes: u64,
    /// Recency stamp: the cache clock at the entry's last touch. Used to
    /// recognize stale recency-queue records.
    stamp: u64,
}

/// Memoization cache for sweep evaluation. Two maps:
///
/// * prepared-kernel entries keyed by (schedule-normalized kernel, machine)
///   — shared across every (threads, chunk) point of a kernel;
/// * full [`LoopCost`] entries keyed by the complete point identity.
///
/// Keys are content fingerprints, so mutating a kernel (padding an array,
/// changing the body) naturally misses the cache rather than returning
/// stale costs.
///
/// An optional byte budget bounds resident size for long-lived caches (the
/// daemon's cross-run cache): every entry is charged its approximate heap
/// size, and inserting past the budget evicts least-recently-used entries
/// first. Recency is tracked lazily — touches append `(stamp, key)` records
/// to a queue, and eviction skips records whose stamp no longer matches the
/// entry — so hits stay O(1) with no linked-list bookkeeping.
#[derive(Default)]
pub struct MemoCache {
    prepared: HashMap<String, Entry<PreparedKernel>>,
    points: HashMap<String, Entry<LoopCost>>,
    /// Lazy LRU queue of `(stamp, kind, key)` touch records, oldest first.
    recency: VecDeque<(u64, EntryKind, String)>,
    clock: u64,
    budget: Option<u64>,
    bytes: u64,
    peak_bytes: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl MemoCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache that evicts LRU entries to stay under `bytes` resident
    /// bytes (`None` = unbounded, the default).
    pub fn with_budget(budget: Option<u64>) -> Self {
        MemoCache {
            budget,
            ..Self::default()
        }
    }

    /// The configured byte budget (`None` = unbounded).
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// Change the byte budget, evicting immediately if the cache is over
    /// the new limit.
    pub fn set_budget(&mut self, budget: Option<u64>) {
        self.budget = budget;
        self.enforce_budget();
    }

    /// Cached point results + prepared kernels currently held.
    pub fn len(&self) -> usize {
        self.points.len() + self.prepared.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn hits(&self) -> u64 {
        self.hits
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// LRU evictions over the cache's lifetime.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Approximate resident bytes currently held.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// High-water mark of [`Self::bytes`] over the cache's lifetime.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// Lifetime + occupancy statistics in one copyable struct.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            bytes: self.bytes,
            peak_bytes: self.peak_bytes,
            entries: self.len() as u64,
        }
    }

    /// Drop every cached entry (counters survive; they describe the
    /// cache's lifetime, not its contents).
    pub fn clear(&mut self) {
        self.prepared.clear();
        self.points.clear();
        self.recency.clear();
        self.bytes = 0;
    }

    /// Next recency stamp.
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Record a touch of `key` so eviction sees it as recently used.
    fn touch(&mut self, kind: EntryKind, key: &str, stamp: u64) {
        self.recency.push_back((stamp, kind, key.to_string()));
        // Stale records (touches superseded by later ones) accumulate in
        // the queue; compact once they dominate so it stays O(entries).
        if self.recency.len() > 4 * self.len().max(16) {
            self.compact_recency();
        }
    }

    fn compact_recency(&mut self) {
        let mut live: Vec<(u64, EntryKind, String)> = self
            .prepared
            .iter()
            .map(|(k, e)| (e.stamp, EntryKind::Prepared, k.clone()))
            .chain(
                self.points
                    .iter()
                    .map(|(k, e)| (e.stamp, EntryKind::Point, k.clone())),
            )
            .collect();
        live.sort_by_key(|e| e.0);
        self.recency = live.into();
    }

    /// Evict least-recently-used entries until the cache fits its budget,
    /// returning how many were evicted.
    fn enforce_budget(&mut self) -> u64 {
        let Some(budget) = self.budget else {
            return 0;
        };
        let mut evicted = 0;
        while self.bytes > budget {
            let Some((stamp, kind, key)) = self.recency.pop_front() else {
                break;
            };
            let freed = match kind {
                EntryKind::Prepared => match self.prepared.get(&key) {
                    Some(e) if e.stamp == stamp => {
                        let b = e.bytes;
                        self.prepared.remove(&key);
                        Some(b)
                    }
                    _ => None, // stale record: entry gone or touched since
                },
                EntryKind::Point => match self.points.get(&key) {
                    Some(e) if e.stamp == stamp => {
                        let b = e.bytes;
                        self.points.remove(&key);
                        Some(b)
                    }
                    _ => None,
                },
            };
            if let Some(b) = freed {
                self.bytes -= b;
                self.evictions += 1;
                evicted += 1;
                fs_obs::counters::SWEEP_MEMO_EVICTIONS.inc();
            }
        }
        evicted
    }

    /// Charge a new entry's bytes, returning the evictions it forced.
    fn account_insert(&mut self, bytes: u64) -> u64 {
        self.bytes += bytes;
        self.peak_bytes = self.peak_bytes.max(self.bytes);
        self.enforce_budget()
    }

    /// Look up a point result by its [`point_key`], counting a hit or miss.
    pub fn lookup_point(&mut self, key: &str) -> Option<LoopCost> {
        let stamp = self.tick();
        match self.points.get_mut(key) {
            Some(e) => {
                e.stamp = stamp;
                let c = e.value.clone();
                self.touch(EntryKind::Point, key, stamp);
                self.hits += 1;
                fs_obs::counters::SWEEP_MEMO_HITS.inc();
                Some(c)
            }
            None => {
                self.misses += 1;
                fs_obs::counters::SWEEP_MEMO_MISSES.inc();
                None
            }
        }
    }

    /// Store a computed point result under its [`point_key`], returning
    /// the LRU evictions this insert forced.
    pub fn insert_point(&mut self, key: String, cost: LoopCost) -> u64 {
        let stamp = self.tick();
        let bytes = cost_bytes(&cost) + key.len() as u64;
        self.touch(EntryKind::Point, &key, stamp);
        if let Some(old) = self.points.insert(
            key,
            Entry {
                value: cost,
                bytes,
                stamp,
            },
        ) {
            self.bytes -= old.bytes;
        }
        self.account_insert(bytes)
    }

    /// The prepared (schedule-independent) inputs for `kernel` on
    /// `machine`, computed on first request and shared by every chunk and
    /// team-size variant of the kernel afterwards.
    pub fn prepared_for(&mut self, kernel: &Kernel, machine: &MachineConfig) -> PreparedKernel {
        let key = prepared_key(kernel, machine);
        self.prepared_for_keyed(key, kernel, machine).0
    }

    /// [`Self::prepared_for`] with the [`prepared_key`] already computed —
    /// sharded caches route by the key and must not fingerprint twice.
    /// Also returns the LRU evictions a fresh entry forced (0 on a hit).
    pub fn prepared_for_keyed(
        &mut self,
        key: String,
        kernel: &Kernel,
        machine: &MachineConfig,
    ) -> (PreparedKernel, u64) {
        let stamp = self.tick();
        if let Some(e) = self.prepared.get_mut(&key) {
            e.stamp = stamp;
            let p = e.value.clone();
            self.touch(EntryKind::Prepared, &key, stamp);
            return (p, 0);
        }
        let p = PreparedKernel::new(kernel, machine);
        let bytes = prepared_bytes(&p) + key.len() as u64;
        self.touch(EntryKind::Prepared, &key, stamp);
        self.prepared.insert(
            key,
            Entry {
                value: p.clone(),
                bytes,
                stamp,
            },
        );
        let evicted = self.account_insert(bytes);
        (p, evicted)
    }
}

/// The content fingerprint identifying a (kernel, machine) pair's prepared
/// inputs — schedule-normalized, so every (threads, chunk) point of a
/// kernel shares one entry. Public so sharded caches can route by it.
///
/// The prepared inputs (access plan, array bases, `Machine_c`) do not
/// depend on the FS-model path, so every path shares one entry.
pub fn prepared_key(kernel: &Kernel, machine: &MachineConfig) -> String {
    format!(
        "{}|{}",
        fingerprint(&schedule_normalized(kernel)),
        fingerprint(machine)
    )
}

/// The content fingerprint identifying one grid point's full result.
///
/// Counts, full or predicted, do not depend on the requested FS-model
/// path, so the key records only whether the request was the oracle
/// ([`FsPath::Reference`]): that keeps the reported
/// [`crate::LoopCost::fs_path`] true to the engine that ran, while
/// [`FsPath::Optimized`] and [`FsPath::Symbolic`] requests, which run the
/// same fast dispatch, share one entry.
pub fn point_key(
    kernel: &Kernel,
    machine: &MachineConfig,
    threads: u32,
    mode: &EvalMode,
    path: FsPath,
) -> String {
    format!(
        "{}|{}|t{}|{}|{}",
        fingerprint(kernel),
        fingerprint(machine),
        threads,
        fingerprint(mode),
        if path == FsPath::Reference {
            "reference"
        } else {
            "fast"
        }
    )
}

/// Evaluate one grid point from its prepared inputs. Pure: no cache access,
/// so parallel workers call this outside any lock.
pub fn compute_point(
    kernel: &Kernel,
    machine: &MachineConfig,
    threads: u32,
    mode: EvalMode,
    path: FsPath,
    prep: &PreparedKernel,
) -> LoopCost {
    let t = threads.max(1);
    let mut opts = AnalysisOptions::new(t);
    opts.fs_path = Some(path);
    opts.predict_chunk_runs = match mode {
        EvalMode::Full => None,
        EvalMode::Predict(runs) => Some(runs),
        EvalMode::EarlyExit(ee) => {
            let mut cfg = FsModelConfig::for_machine(machine, t);
            cfg.path = path;
            ee.resolve_runs(kernel, &cfg, prep)
        }
    };
    analyze_loop_prepared(kernel, machine, &opts, prep)
}

/// Evaluate one grid point, consulting and filling `memo`.
///
/// `kernel` must already carry the point's schedule (chunk size); `threads`
/// and `mode` complete the point identity. Results are exact clones of what
/// an unmemoized [`crate::total::analyze_loop`] call would return — the
/// memo only skips redundant recomputation, never changes values.
pub fn evaluate_point(
    kernel: &Kernel,
    machine: &MachineConfig,
    threads: u32,
    mode: EvalMode,
    path: FsPath,
    memo: &mut MemoCache,
) -> LoopCost {
    let key = point_key(kernel, machine, threads, &mode, path);
    if let Some(c) = memo.lookup_point(&key) {
        return c;
    }
    let prep = memo.prepared_for(kernel, machine);
    let cost = compute_point(kernel, machine, threads, mode, path, &prep);
    memo.insert_point(key, cost.clone());
    cost
}

/// Apply a grid point's chunk to its kernel (the kernel clone every sweep
/// strategy must perform identically).
pub fn kernel_at_chunk(kernel: &Kernel, chunk: u64) -> Kernel {
    let mut k = kernel.clone();
    k.nest.parallel.schedule = Schedule::Static { chunk };
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::total::analyze_loop;
    use loop_ir::kernels;
    use machine::presets;

    fn grid() -> SweepGrid {
        SweepGrid::new(
            vec![
                ("transpose".into(), kernels::transpose(32, 32, 1)),
                ("stencil".into(), kernels::stencil1d(66, 1)),
            ],
            ("paper48".into(), presets::paper48()),
            vec![2, 4],
            vec![1, 8],
        )
    }

    #[test]
    fn points_enumerate_kernel_major_in_order() {
        let g = grid();
        let pts = g.points();
        assert_eq!(pts.len(), g.len());
        assert_eq!(pts.len(), 2 * 2 * 2);
        assert_eq!(
            pts[0],
            SweepPointSpec {
                kernel: 0,
                machine: 0,
                threads: 2,
                chunk: 1
            }
        );
        assert_eq!(pts[1].chunk, 8);
        assert_eq!(pts[2].threads, 4);
        assert_eq!(pts[4].kernel, 1);
    }

    #[test]
    fn memoized_evaluation_matches_direct_analyze_loop() {
        let g = grid();
        let mut memo = MemoCache::new();
        for p in g.points() {
            let k = kernel_at_chunk(&g.kernels[p.kernel].1, p.chunk);
            let m = &g.machines[p.machine].1;
            let via_memo = evaluate_point(
                &k,
                m,
                p.threads,
                EvalMode::Full,
                FsPath::default(),
                &mut memo,
            );
            let direct = analyze_loop(&k, m, &AnalysisOptions::new(p.threads));
            assert_eq!(via_memo.total_cycles, direct.total_cycles);
            assert_eq!(via_memo.fs.fs_cases, direct.fs.fs_cases);
            assert_eq!(via_memo.fs_cycles, direct.fs_cycles);
        }
    }

    #[test]
    fn repeated_points_hit_the_cache() {
        let mut memo = MemoCache::new();
        let k = kernel_at_chunk(&kernels::transpose(32, 32, 1), 4);
        let m = presets::paper48();
        let a = evaluate_point(&k, &m, 4, EvalMode::Full, FsPath::default(), &mut memo);
        assert_eq!(memo.hits(), 0);
        assert_eq!(memo.misses(), 1);
        let b = evaluate_point(&k, &m, 4, EvalMode::Full, FsPath::default(), &mut memo);
        assert_eq!(memo.hits(), 1);
        assert_eq!(a.total_cycles, b.total_cycles);
    }

    #[test]
    fn fast_requests_share_an_entry_and_the_oracle_does_not() {
        let mut memo = MemoCache::new();
        // Large enough for the symbolic engine's closed form to engage.
        let k = kernel_at_chunk(&kernels::heat_diffusion(130, 258, 1), 1);
        let m = presets::paper48();
        let symbolic = evaluate_point(&k, &m, 8, EvalMode::Full, FsPath::Symbolic, &mut memo);
        let optimized = evaluate_point(&k, &m, 8, EvalMode::Full, FsPath::Optimized, &mut memo);
        assert_eq!(memo.hits(), 1, "both fast spellings share one entry");
        assert_eq!(optimized.fs_path, FsPath::Symbolic);
        assert_eq!(optimized.fs, symbolic.fs);
        let reference = evaluate_point(&k, &m, 8, EvalMode::Full, FsPath::Reference, &mut memo);
        assert_eq!(memo.hits(), 1, "the oracle gets an entry of its own");
        assert_eq!(reference.fs_path, FsPath::Reference);
        assert_eq!(reference.fs, symbolic.fs);
    }

    #[test]
    fn kernel_mutation_invalidates_by_content() {
        let mut memo = MemoCache::new();
        let m = presets::paper48();
        let k1 = kernel_at_chunk(&kernels::transpose(32, 32, 1), 1);
        let c1 = evaluate_point(&k1, &m, 8, EvalMode::Full, FsPath::default(), &mut memo);
        // Same name, different body size: must NOT reuse k1's entry.
        let k2 = kernel_at_chunk(&kernels::transpose(64, 64, 1), 1);
        let c2 = evaluate_point(&k2, &m, 8, EvalMode::Full, FsPath::default(), &mut memo);
        assert_eq!(memo.hits(), 0, "different content must miss");
        assert_ne!(c1.fs.fs_cases, c2.fs.fs_cases);
        // And a different machine also misses.
        let tiny = presets::tiny_test();
        let c3 = evaluate_point(&k1, &tiny, 8, EvalMode::Full, FsPath::default(), &mut memo);
        assert_eq!(memo.hits(), 0);
        assert_ne!(c1.total_cycles, c3.total_cycles);
        // clear() really empties the cache.
        assert!(!memo.is_empty());
        memo.clear();
        assert!(memo.is_empty());
        evaluate_point(&k1, &m, 8, EvalMode::Full, FsPath::default(), &mut memo);
        assert_eq!(memo.hits(), 0, "cleared cache cannot hit");
    }

    #[test]
    fn chunk_variants_share_one_prepared_kernel() {
        let mut memo = MemoCache::new();
        let m = presets::paper48();
        let base = kernels::transpose(32, 32, 1);
        for chunk in [1u64, 2, 4, 8] {
            let k = kernel_at_chunk(&base, chunk);
            evaluate_point(&k, &m, 8, EvalMode::Full, FsPath::default(), &mut memo);
        }
        // 4 point entries + exactly 1 prepared entry.
        assert_eq!(memo.len(), 5);
    }

    #[test]
    fn byte_budget_evicts_lru_entries() {
        let m = presets::paper48();
        let base = kernels::transpose(32, 32, 1);
        // Learn the real footprint of a few points, then set a budget that
        // holds roughly half of them.
        let mut probe = MemoCache::new();
        for chunk in [1u64, 2, 4, 8] {
            let k = kernel_at_chunk(&base, chunk);
            evaluate_point(&k, &m, 8, EvalMode::Full, FsPath::default(), &mut probe);
        }
        let full_bytes = probe.bytes();
        assert!(full_bytes > 0);
        assert_eq!(probe.peak_bytes(), full_bytes);
        assert_eq!(probe.evictions(), 0);
        assert_eq!(probe.stats().entries, 5);

        let mut memo = MemoCache::with_budget(Some(full_bytes / 2));
        for chunk in [1u64, 2, 4, 8] {
            let k = kernel_at_chunk(&base, chunk);
            evaluate_point(&k, &m, 8, EvalMode::Full, FsPath::default(), &mut memo);
        }
        assert!(memo.evictions() > 0, "budget forced evictions");
        assert!(memo.bytes() <= full_bytes / 2, "stayed under budget");
        assert!(memo.len() < 5, "some entries were dropped");
        // Evicted points recompute correctly (values never change).
        let k1 = kernel_at_chunk(&base, 1);
        let again = evaluate_point(&k1, &m, 8, EvalMode::Full, FsPath::default(), &mut memo);
        let reference = evaluate_point(&k1, &m, 8, EvalMode::Full, FsPath::default(), &mut probe);
        assert_eq!(again.total_cycles, reference.total_cycles);
    }

    #[test]
    fn lru_keeps_recently_touched_entries() {
        let m = presets::paper48();
        let base = kernels::transpose(32, 32, 1);
        let mut memo = MemoCache::new();
        let k1 = kernel_at_chunk(&base, 1);
        let k2 = kernel_at_chunk(&base, 2);
        evaluate_point(&k1, &m, 8, EvalMode::Full, FsPath::default(), &mut memo);
        evaluate_point(&k2, &m, 8, EvalMode::Full, FsPath::default(), &mut memo);
        // Touch k1's point so k2's becomes the LRU entry, then shrink the
        // budget enough to force at least one eviction.
        evaluate_point(&k1, &m, 8, EvalMode::Full, FsPath::default(), &mut memo);
        let hits_before = memo.hits();
        memo.set_budget(Some(memo.bytes().saturating_sub(1)));
        assert!(memo.evictions() > 0);
        // k1 must still be resident.
        evaluate_point(&k1, &m, 8, EvalMode::Full, FsPath::default(), &mut memo);
        assert_eq!(memo.hits(), hits_before + 1, "recently used entry kept");
    }

    #[test]
    fn clear_resets_bytes_but_keeps_lifetime_counters() {
        let m = presets::paper48();
        let k = kernel_at_chunk(&kernels::transpose(32, 32, 1), 1);
        let mut memo = MemoCache::with_budget(Some(64));
        evaluate_point(&k, &m, 8, EvalMode::Full, FsPath::default(), &mut memo);
        let ev = memo.evictions();
        assert!(ev > 0, "tiny budget evicts immediately");
        memo.clear();
        assert_eq!(memo.bytes(), 0);
        assert_eq!(memo.evictions(), ev, "lifetime counters survive clear");
        assert!(memo.peak_bytes() > 0);
    }

    #[test]
    fn early_exit_stays_close_to_full_model() {
        let k = kernels::dft(128, 256, 1);
        let m = presets::paper48();
        let mut memo = MemoCache::new();
        let full = evaluate_point(&k, &m, 8, EvalMode::Full, FsPath::default(), &mut memo);
        let ee = evaluate_point(
            &k,
            &m,
            8,
            EvalMode::EarlyExit(EarlyExit::default()),
            FsPath::default(),
            &mut memo,
        );
        let err = (ee.fs_cycles - full.fs_cycles).abs() / full.fs_cycles.max(1.0);
        assert!(
            err < 0.10,
            "early-exit {} vs full {}",
            ee.fs_cycles,
            full.fs_cycles
        );
        // And it really did evaluate fewer chunk runs.
        assert!(ee.fs.evaluated_chunk_runs < full.fs.evaluated_chunk_runs);
    }

    #[test]
    fn early_exit_falls_back_on_short_loops() {
        // stencil1d(66) at 8 threads: few chunk runs; resolve_runs must
        // decline so the full model runs.
        let k = kernels::stencil1d(66, 1);
        let m = presets::paper48();
        let prep = PreparedKernel::new(&k, &m);
        let cfg = FsModelConfig::for_machine(&m, 8);
        assert_eq!(EarlyExit::default().resolve_runs(&k, &cfg, &prep), None);
    }
}
