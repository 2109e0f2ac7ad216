//! The false-sharing cost model (the paper's §III).
//!
//! Given a parallel loop and a team size, the model executes the paper's
//! four steps entirely at compile time:
//!
//! 1. **Obtain array references** — precompiled into an
//!    [`loop_ir::AccessPlan`] (base, affine subscripts, field offsets,
//!    read/write).
//! 2. **Generate a cache-line ownership list (CLOL)** per thread per
//!    lockstep iteration: which lines the thread touches at that iteration,
//!    assuming cache-line-aligned arrays.
//! 3. **Stack-distance analysis** — each thread owns an LRU *cache state*
//!    (fully associative, depth = lines of the modeled private cache);
//!    CLOL entries are pushed onto it, evicting LRU lines.
//! 4. **Detect false sharing** — on inserting line `cl` for thread `t`,
//!    count one FS case for every *other* cache state holding `cl` in
//!    Modified state (the φ/mask functions of Eqs. 2–4).
//!
//! The model evaluates `All_num_of_iters / num_threads` lockstep steps (or
//! fewer — see [`FsModelConfig::max_chunk_runs`], which is what the linear
//! regression predictor uses), and records the cumulative FS count at every
//! *chunk run* boundary, the series behind Fig. 6.
//!
//! Three engines compute the same model. [`FsModelConfig::path`] picks
//! between the oracle and the fast dispatch; a result's
//! [`crate::LoopCost::fs_path`] names the engine that ran:
//!
//! * [`FsPath::Reference`] is the direct transcription of the paper's
//!   algorithm over hash maps. It is the executable specification: the
//!   fast engines must produce *identical* counts, which the equivalence
//!   tests in `tests/fs_path_equivalence.rs` enforce. It runs only when
//!   requested.
//! * [`FsPath::Symbolic`] derives the counts in closed form inside the
//!   decidable affine fragment ([`crate::symbolic`]) where a period
//!   verifies. The fast dispatch tries it first.
//! * [`FsPath::Optimized`], the dense walk, strength-reduces every
//!   access's affine address into per-loop-variable byte deltas
//!   ([`loop_ir::CompiledPlan`]) and interns cache lines of the kernel's
//!   array footprint to contiguous dense ids, so the per-access hot path is
//!   a handful of flat array indexes (see `docs/HOTPATH.md`). It takes any
//!   footprint: lines past the interner's identity region get overflow ids.
//!   The fast dispatch runs it wherever no closed form verifies.
//!
//! Faithfulness notes:
//! * Like the paper, the per-thread cache states are independent LRU stacks;
//!   a detected conflict does not invalidate the remote copy (the count *is*
//!   the estimate of coherence events). An optional
//!   [`FsModelConfig::invalidate_on_detect`] mode is provided for the
//!   ablation study.
//! * The paper counts conflicts at line granularity. We additionally track
//!   byte overlap, so conflicts on the *same* bytes (true sharing) can be
//!   separated; [`FsModelConfig::count_true_sharing`] controls whether they
//!   are included in `fs_cases` (off by default — they are reported
//!   separately).

use crate::symbolic::SymbolicRun;
use cache_sim::lru::{DenseSetLru, LruCache};
use cache_sim::LineInterner;
use loop_ir::walk::LockstepWalker;
use loop_ir::{AccessPlan, Kernel, StreamCursor, ValidateError};
use std::collections::HashMap;

/// Widest team the model can represent: per-line writer sets are 64-bit
/// thread masks (`1u64 << t`). [`crate::total::analyze_loop`] and the FS
/// model panic beyond this; `fs_core::try_analyze` rejects it with a
/// structured error instead.
pub const MAX_MODEL_THREADS: u32 = 64;

/// An FS-model engine. As a request ([`FsModelConfig::path`]) it means
/// one thing: [`FsPath::Reference`] runs the oracle, and either other
/// value runs the fast dispatch — the closed form where a period verifies,
/// else the dense walk. As a report ([`crate::LoopCost::fs_path`]) it
/// names the engine that ran. The engines compute the same model, so a
/// full run ([`run_fs_model`]) and a prediction ([`crate::predict_fs`])
/// give the same result whichever path is requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FsPath {
    /// The dense walk: strength-reduced address streams over dense line
    /// tables, at any footprint.
    Optimized,
    /// The hash-map transcription of the paper's algorithm, kept as the
    /// executable specification for equivalence testing.
    Reference,
    /// Closed-form chunk-boundary reasoning: inside the decidable affine
    /// fragment the per-period FS deltas are derived once and extrapolated
    /// (see [`crate::symbolic`]). The period windows run on the dense
    /// walk's tables. In-fragment runs without a closed form — too short
    /// for the windows, no period plan, or no period verified — run on
    /// those tables too (counted by `fs.symbolic_direct`), a failed attempt
    /// finishing in place. Outside the fragment the dense walk runs
    /// instead, exactly as `fslint` falls back to Unknown (counted by
    /// `fs.symbolic_fallbacks`). The default request.
    #[default]
    Symbolic,
}

impl FsPath {
    /// Stable lowercase name, used in cache keys, reports and the wire
    /// protocol.
    pub fn as_str(self) -> &'static str {
        match self {
            FsPath::Optimized => "optimized",
            FsPath::Reference => "reference",
            FsPath::Symbolic => "symbolic",
        }
    }

    /// Inverse of [`FsPath::as_str`], plus two aliases: `"dense"` for
    /// `optimized`, and `"analytic"` for `symbolic` (the name of a former
    /// path that ran the symbolic engine plus a capacity prediction no
    /// caller read; old clients keep working).
    pub fn parse(s: &str) -> Option<FsPath> {
        match s {
            "optimized" | "dense" => Some(FsPath::Optimized),
            "reference" => Some(FsPath::Reference),
            "symbolic" | "analytic" => Some(FsPath::Symbolic),
            _ => None,
        }
    }
}

impl std::fmt::Display for FsPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Configuration of one FS-model evaluation.
#[derive(Debug, Clone)]
pub struct FsModelConfig {
    /// Team size executing the loop.
    pub num_threads: u32,
    /// Cache line size in bytes (64 on the paper's machine).
    pub line_size: u64,
    /// Depth of each thread's LRU cache state, in lines — "the distance of
    /// the stack is the number of cache lines for a fully associative
    /// cache" (§III-C). Typically the private L1 (or L1+L2) line count.
    pub stack_lines: usize,
    /// Number of sets in each thread's cache state: 1 (default) models the
    /// paper's fully-associative stack; larger values split `stack_lines`
    /// into a set-associative structure, letting the §III-C approximation
    /// claim ("modeling the fully associative cache is mostly valid") be
    /// tested directly.
    pub stack_sets: u32,
    /// Stop after this many chunk runs (None = evaluate the whole loop).
    pub max_chunk_runs: Option<u64>,
    /// Include same-byte conflicts in `fs_cases` (line-granularity counting
    /// exactly as the paper). When false, such conflicts are reported in
    /// `true_sharing_cases` instead.
    pub count_true_sharing: bool,
    /// Ablation: clear the remote Modified mark when a conflict is
    /// detected (approximating the invalidation a real protocol performs).
    pub invalidate_on_detect: bool,
    /// The oracle ([`FsPath::Reference`]) or the fast dispatch (either
    /// other value). Results, full or predicted, do not depend on it.
    pub path: FsPath,
}

impl FsModelConfig {
    /// Model configuration for `machine` with a team of `num_threads`:
    /// fully-associative stack sized to the L1, line size from the
    /// hierarchy.
    pub fn for_machine(machine: &machine::MachineConfig, num_threads: u32) -> Self {
        let line = machine.line_size();
        FsModelConfig {
            num_threads,
            line_size: line,
            stack_lines: machine.caches.l1().num_lines(line) as usize,
            stack_sets: 1,
            max_chunk_runs: None,
            count_true_sharing: false,
            invalidate_on_detect: false,
            path: FsPath::default(),
        }
    }

    /// Check the limits the model imposes beyond kernel validation.
    /// Currently: the team must fit the 64-bit writer masks.
    pub fn validate(&self) -> Result<(), ValidateError> {
        if self.num_threads > MAX_MODEL_THREADS {
            return Err(ValidateError::TeamTooLarge {
                requested: self.num_threads,
                max: MAX_MODEL_THREADS,
            });
        }
        Ok(())
    }
}

/// Per-line info held in a thread's cache state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct LineInfo {
    /// Line has been written by this thread while resident.
    pub(crate) written: bool,
    /// Byte mask (64-slot granularity) of written bytes.
    pub(crate) written_bytes: u64,
}

/// One thread's cache state: a fully-associative LRU stack (`sets == 1`,
/// the paper's model) or a set-associative split of the same capacity.
/// Used by the reference path; the optimized path holds the same geometry
/// in a [`DenseSetLru`].
struct CacheState {
    sets: Vec<LruCache<u64, LineInfo>>,
    /// `sets.len() - 1` when the set count is a power of two, so the hot
    /// `set_of` is a mask instead of a division.
    set_mask: Option<u64>,
}

/// The set geometry shared by all paths: `stack_lines` split into
/// `(num_sets, ways)`, clamped exactly as [`CacheState`] has always done.
pub(crate) fn set_geometry(stack_lines: usize, stack_sets: u32) -> (usize, usize) {
    let total_lines = stack_lines.max(1);
    let num_sets = (stack_sets.max(1) as usize).min(total_lines);
    let ways = (total_lines / num_sets).max(1);
    (num_sets, ways)
}

impl CacheState {
    fn new(total_lines: usize, num_sets: u32) -> Self {
        let (num_sets, ways) = set_geometry(total_lines, num_sets);
        CacheState {
            sets: (0..num_sets).map(|_| LruCache::new(ways)).collect(),
            set_mask: num_sets.is_power_of_two().then(|| num_sets as u64 - 1),
        }
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        match self.set_mask {
            Some(m) => (line & m) as usize,
            None => (line % self.sets.len() as u64) as usize,
        }
    }

    #[inline]
    fn peek(&self, line: &u64) -> Option<&LineInfo> {
        self.sets[self.set_of(*line)].peek(line)
    }

    #[inline]
    fn touch(&mut self, line: &u64) -> Option<&mut LineInfo> {
        let s = self.set_of(*line);
        self.sets[s].touch(line)
    }

    #[inline]
    fn insert(&mut self, line: u64, info: LineInfo) -> Option<(u64, LineInfo)> {
        let s = self.set_of(line);
        self.sets[s].insert(line, info)
    }
}

/// The paper's per-access state machine over hash maps, run by the
/// reference walk. One [`RefMachine::access`] performs steps 3 + 4 of the
/// model for a single CLOL element: the 1-to-All comparison, physical event
/// counting, and the LRU cache-state insertion.
struct RefMachine {
    num_threads: usize,
    line_size: u64,
    count_true_sharing: bool,
    invalidate_on_detect: bool,
    /// Per-thread cache states (step 3's LRU stacks).
    states: Vec<CacheState>,
    /// Global writer index: line -> bitmask of threads whose cache state
    /// currently holds the line with `written == true`. This is an O(1)
    /// implementation of the paper's 1-to-All comparison (Eq. 4): popcount
    /// of the mask minus the inserting thread's own bit.
    writers: HashMap<u64, u64>,
    /// Physical writer index for *event* counting: same key, but a detected
    /// conflict clears the remote bits (the conflicting access invalidates /
    /// downgrades remote copies in a real protocol), so one burst of
    /// accesses to a contended line costs one event, like one coherence
    /// miss.
    phys_writers: HashMap<u64, u64>,
    evictions: u64,
}

impl RefMachine {
    fn new(cfg: &FsModelConfig) -> Self {
        let num_threads = cfg.num_threads.max(1) as usize;
        RefMachine {
            num_threads,
            line_size: cfg.line_size,
            count_true_sharing: cfg.count_true_sharing,
            invalidate_on_detect: cfg.invalidate_on_detect,
            states: (0..num_threads)
                .map(|_| CacheState::new(cfg.stack_lines.max(1), cfg.stack_sets))
                .collect(),
            writers: HashMap::new(),
            phys_writers: HashMap::new(),
            evictions: 0,
        }
    }

    /// Process one access by thread `t` at byte address `addr`, accumulating
    /// counts into `res`.
    #[allow(clippy::needless_range_loop)]
    fn access(&mut self, t: usize, addr: u64, size: u64, is_write: bool, res: &mut FsModelResult) {
        let num_threads = self.num_threads;
        let count_true_sharing = self.count_true_sharing;
        let invalidate_on_detect = self.invalidate_on_detect;
        let states = &mut self.states;
        let writers = &mut self.writers;
        let phys_writers = &mut self.phys_writers;

        let line = addr / self.line_size;
        let off = addr % self.line_size;
        // Byte mask at up-to-64-slot granularity.
        let granules = self.line_size / 64;
        let (moff, msz) = if granules <= 1 {
            (off.min(63), size.min(64 - off.min(63)))
        } else {
            ((off / granules).min(63), 1)
        };
        let mask: u64 = if msz >= 64 {
            u64::MAX
        } else {
            ((1u64 << msz) - 1) << moff
        };

        // Step 4: 1-to-All comparison against other cache states.
        let self_bit = 1u64 << t;
        if let Some(&wmask) = writers.get(&line) {
            let others = wmask & !self_bit;
            if others != 0 {
                // Split conflicts into false (disjoint bytes) and true
                // (overlapping bytes) sharing per remote state.
                let mut fs = 0u64;
                let mut ts = 0u64;
                for k in 0..num_threads {
                    if others & (1u64 << k) == 0 {
                        continue;
                    }
                    let remote = states[k].peek(&line).copied().unwrap_or_default();
                    if remote.written_bytes & mask != 0 {
                        ts += 1;
                    } else {
                        fs += 1;
                    }
                    if invalidate_on_detect {
                        if let Some(info) = states[k].touch(&line) {
                            info.written = false;
                            info.written_bytes = 0;
                        }
                    }
                }
                if invalidate_on_detect {
                    writers.insert(line, wmask & self_bit);
                }
                let counted_fs = if count_true_sharing { fs + ts } else { fs };
                res.fs_cases += counted_fs;
                res.true_sharing_cases += ts;
                if counted_fs > 0 {
                    res.per_thread_cases[t] += counted_fs;
                    *res.per_line_cases.entry(line).or_insert(0) += counted_fs;
                }
            }
        }

        // Physical event counting (invalidation semantics).
        if let Some(w) = phys_writers.get_mut(&line) {
            let others = *w & !self_bit;
            if others != 0 {
                // Classify by byte overlap with the conflicting remote
                // states.
                let mut overlap = false;
                for k in 0..num_threads {
                    if others & (1u64 << k) != 0 {
                        if let Some(info) = states[k].peek(&line) {
                            if info.written_bytes & mask != 0 {
                                overlap = true;
                                break;
                            }
                        }
                    }
                }
                if overlap {
                    res.ts_events += 1;
                } else if is_write {
                    res.fs_write_events += 1;
                    res.fs_events += 1;
                } else {
                    res.fs_read_events += 1;
                    res.fs_events += 1;
                }
                // The access invalidates (write) or downgrades (read) the
                // remote dirty copies.
                *w &= self_bit;
            }
        }
        if is_write {
            *phys_writers.entry(line).or_insert(0) |= self_bit;
        }

        // Step 3: insert into this thread's cache state (LRU).
        let st = &mut states[t];
        if let Some(info) = st.touch(&line) {
            if is_write {
                if !info.written {
                    *writers.entry(line).or_insert(0) |= self_bit;
                }
                info.written = true;
                info.written_bytes |= mask;
            }
        } else {
            let info = LineInfo {
                written: is_write,
                written_bytes: if is_write { mask } else { 0 },
            };
            if is_write {
                *writers.entry(line).or_insert(0) |= self_bit;
            }
            if let Some((evicted, einfo)) = st.insert(line, info) {
                self.evictions += 1;
                if einfo.written {
                    // Evicted line leaves this thread's state.
                    if let Some(w) = writers.get_mut(&evicted) {
                        *w &= !self_bit;
                        if *w == 0 {
                            writers.remove(&evicted);
                        }
                    }
                    if let Some(w) = phys_writers.get_mut(&evicted) {
                        *w &= !self_bit;
                        if *w == 0 {
                            phys_writers.remove(&evicted);
                        }
                    }
                }
            }
        }
    }
}

/// Result of an FS-model evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct FsModelResult {
    /// Total false-sharing cases detected (Eq. 4 summed over evaluated
    /// iterations). This is the paper's multiplicity count: one inserted
    /// line conflicting with `k` remote Modified copies contributes `k`.
    pub fs_cases: u64,
    /// Conflicts on overlapping bytes (true sharing), reported separately.
    pub true_sharing_cases: u64,
    /// Binary false-sharing *events*: at most one per CLOL insertion, with
    /// invalidation semantics (a detected conflict clears the remote dirty
    /// mark, as a real protocol would). Each event corresponds to one
    /// physical coherence miss; this is what the cycle conversion of
    /// `False_Sharing_c` uses. `fs_events = fs_read_events +
    /// fs_write_events`.
    pub fs_events: u64,
    /// FS events whose conflicting access was a *load* — these stall the
    /// core for the full cache-to-cache round trip.
    pub fs_read_events: u64,
    /// FS events whose conflicting access was a *store* — largely hidden by
    /// the store buffer.
    pub fs_write_events: u64,
    /// Binary true-sharing events (any remote byte overlap).
    pub ts_events: u64,
    /// FS cases attributed to each thread (the thread whose insertion
    /// conflicted).
    pub per_thread_cases: Vec<u64>,
    /// FS cases per cache line — identifies the victim data structure.
    pub per_line_cases: HashMap<u64, u64>,
    /// Cumulative `(chunk_run_index, fs_cases)` at each chunk-run boundary.
    pub series: Vec<(u64, u64)>,
    /// Cumulative `(chunk_run_index, fs_events)` at the same boundaries.
    pub events_series: Vec<(u64, u64)>,
    /// Lockstep steps evaluated.
    pub steps: u64,
    /// Innermost-body iterations evaluated, summed over threads.
    pub iterations: u64,
    /// Total chunk runs the full loop would execute (x_max of the
    /// predictor): `outer_iters * ceil(trip_p / (T*chunk))`.
    pub total_chunk_runs: u64,
    /// Chunk runs actually evaluated.
    pub evaluated_chunk_runs: u64,
}

impl FsModelResult {
    /// Cases per evaluated iteration (density).
    pub fn cases_per_iteration(&self) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            self.fs_cases as f64 / self.iterations as f64
        }
    }

    /// The `n` most-conflicted lines, descending.
    pub fn top_lines(&self, n: usize) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.per_line_cases.iter().map(|(&l, &c)| (l, c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }

    pub(crate) fn empty(num_threads: usize) -> FsModelResult {
        FsModelResult {
            fs_cases: 0,
            true_sharing_cases: 0,
            fs_events: 0,
            fs_read_events: 0,
            fs_write_events: 0,
            ts_events: 0,
            per_thread_cases: vec![0; num_threads],
            per_line_cases: HashMap::new(),
            series: Vec::new(),
            events_series: Vec::new(),
            steps: 0,
            iterations: 0,
            total_chunk_runs: 0,
            evaluated_chunk_runs: 0,
        }
    }

    /// Close the cumulative series with a final partial point if needed and
    /// derive `evaluated_chunk_runs` (shared tail of every path).
    pub(crate) fn finish_series(&mut self, steps_per_run: u64) {
        if self
            .series
            .last()
            .map(|&(r, _)| r * steps_per_run < self.steps)
            .unwrap_or(self.steps > 0)
        {
            let run = self.steps.div_ceil(steps_per_run);
            self.series.push((run, self.fs_cases));
            self.events_series.push((run, self.fs_events));
        }
        self.evaluated_chunk_runs = self.series.last().map(|&(r, _)| r).unwrap_or(0);
    }
}

/// Run the FS model on `kernel`.
///
/// # Panics
/// Panics if the kernel fails [`loop_ir::validate()`]-level invariants needed
/// by the walkers, or if `cfg.num_threads` exceeds [`MAX_MODEL_THREADS`]
/// (run validation / [`FsModelConfig::validate`] first for error reporting).
pub fn run_fs_model(kernel: &Kernel, cfg: &FsModelConfig) -> FsModelResult {
    let plan = kernel.access_plan();
    let bases = kernel.array_bases(cfg.line_size);
    run_fs_model_prepared(kernel, cfg, &plan, &bases)
}

/// [`run_fs_model`] with the schedule-independent inputs — the access plan
/// (step 1) and the aligned array base addresses — precomputed by the
/// caller. Sweeps over chunk sizes and team sizes extract these once per
/// kernel×line-size and reuse them for every grid point.
///
/// Dispatches on [`FsModelConfig::path`].
pub fn run_fs_model_prepared(
    kernel: &Kernel,
    cfg: &FsModelConfig,
    plan: &AccessPlan,
    bases: &[u64],
) -> FsModelResult {
    dispatch_fs_model(kernel, cfg, plan, bases).0
}

/// [`run_fs_model_prepared`], also returning the engine that actually ran:
/// the reference on request, else the closed form where a period
/// verifies and the dense walk elsewhere.
pub(crate) fn dispatch_fs_model(
    kernel: &Kernel,
    cfg: &FsModelConfig,
    plan: &AccessPlan,
    bases: &[u64],
) -> (FsModelResult, FsPath) {
    assert!(
        cfg.num_threads <= MAX_MODEL_THREADS,
        "team size {} exceeds the modelable maximum of {MAX_MODEL_THREADS} threads \
         (use fs_core::try_analyze for a recoverable error)",
        cfg.num_threads
    );
    // Clock reads only when the registry is live: the disabled path must
    // stay branch-only.
    let t_run = fs_obs::counters_enabled().then(std::time::Instant::now);
    let (result, engine) = match cfg.path {
        FsPath::Reference => (
            run_fs_model_reference(kernel, cfg, plan, bases),
            FsPath::Reference,
        ),
        FsPath::Optimized | FsPath::Symbolic => {
            match crate::symbolic::run_symbolic(kernel, cfg, plan, bases) {
                SymbolicRun::ClosedForm(r) => (r, FsPath::Symbolic),
                SymbolicRun::Direct(r) => {
                    fs_obs::counters::FS_SYMBOLIC_DIRECT.inc();
                    (r, FsPath::Optimized)
                }
                SymbolicRun::Declined(finished) => {
                    fs_obs::counters::FS_SYMBOLIC_FALLBACKS.inc();
                    let r =
                        finished.unwrap_or_else(|| run_fs_model_dense(kernel, cfg, plan, bases));
                    (r, FsPath::Optimized)
                }
            }
        }
    };
    record_model_run(&result, engine);
    if let Some(t) = t_run {
        fs_obs::hists::FS_MODEL_NS.record_ns(t.elapsed().as_nanos() as u64);
    }
    (result, engine)
}

/// Account one finished model run on `engine`: `fs.model_runs`, the
/// engine's `fs.dispatch_*` counter, and one flush of the run's totals (the
/// hot loop never touches the registry). Every model run, full or a
/// prediction's sample, passes through here exactly once, so
/// `fs.dispatch_dense + fs.dispatch_reference + fs.dispatch_symbolic =
/// fs.model_runs` holds by construction.
fn record_model_run(result: &FsModelResult, engine: FsPath) {
    fs_obs::counters::FS_MODEL_RUNS.inc();
    match engine {
        FsPath::Optimized => fs_obs::counters::FS_DISPATCH_DENSE.inc(),
        FsPath::Reference => fs_obs::counters::FS_DISPATCH_REFERENCE.inc(),
        FsPath::Symbolic => fs_obs::counters::FS_DISPATCH_SYMBOLIC.inc(),
    }
    if fs_obs::counters_enabled() {
        fs_obs::counters::FS_CASES.add(result.fs_cases);
        fs_obs::counters::FS_EVENTS.add(result.fs_events);
        fs_obs::counters::FS_STEPS.add(result.steps);
        fs_obs::counters::FS_ITERATIONS.add(result.iterations);
    }
}

/// The paper's algorithm, transcribed directly: per-access affine address
/// evaluation through the walker, with steps 3 + 4 executed by
/// [`RefMachine`]. Kept as the executable specification the optimized and
/// symbolic paths are tested against.
fn run_fs_model_reference(
    kernel: &Kernel,
    cfg: &FsModelConfig,
    plan: &AccessPlan,
    bases: &[u64],
) -> FsModelResult {
    let _span = fs_obs::span("fs.reference");
    let num_threads = cfg.num_threads.max(1) as usize;

    let mut machine = RefMachine::new(cfg);
    let mut result = FsModelResult::empty(num_threads);

    let mut walker = LockstepWalker::new(kernel, num_threads as u64);
    let sched = *walker.schedule();
    let outer_iters = kernel.nest.outer_iters().unwrap_or(1).max(1);
    let runs_per_instance = sched.num_chunk_runs().max(1);
    result.total_chunk_runs = outer_iters * runs_per_instance;

    // A chunk run spans `chunk * inner_iters_per_parallel_iter` lockstep
    // steps (exact for rectangular nests; for triangular inner loops this is
    // the mean and the boundary is approximate).
    let inner = kernel
        .nest
        .inner_iters_per_parallel_iter()
        .unwrap_or(1)
        .max(1);
    let steps_per_run = (sched.chunk * inner).max(1);
    let max_steps = cfg.max_chunk_runs.map(|r| r * steps_per_run);

    let mut idx_buf = vec![0i64; plan.max_rank.max(1)];

    let walk_span = fs_obs::span("fs.walk");
    loop {
        if let Some(ms) = max_steps {
            if result.steps >= ms {
                break;
            }
        }
        let plan_ref = plan;
        let bases_ref = bases;
        let mut iter_count = 0u64;
        let machine_ref = &mut machine;
        let res = &mut result;
        let more = walker.step(|t, env| {
            iter_count += 1;
            // Step 2: generate this thread's CLOL for this iteration and
            // process each element (steps 3 + 4 fused).
            for a in &plan_ref.accesses {
                let addr = a.address(env, bases_ref, &mut idx_buf);
                machine_ref.access(t, addr, a.size as u64, a.is_write, res);
            }
        });
        if !more {
            break;
        }
        result.steps += 1;
        result.iterations += iter_count;
        if result.steps.is_multiple_of(steps_per_run) {
            let run = result.steps / steps_per_run;
            result.series.push((run, result.fs_cases));
            result.events_series.push((run, result.fs_events));
        }
    }
    drop(walk_span);
    fs_obs::counters::FS_LRU_EVICTIONS.add(machine.evictions);
    result.finish_series(steps_per_run);
    result
}

/// The optimized path's per-access state machine: [`RefMachine`]'s
/// semantics over dense line tables. Per access, the reference machine pays
/// three to four hash probes (`writers`, `phys_writers`, `per_line_cases`,
/// and the LRU's inner map); here:
///
/// * cache lines are interned to dense `u32` ids ([`LineInterner`]), so the
///   writer masks, event masks and per-line counters are flat `Vec`s and
///   the LRU states are [`DenseSetLru`]s — every probe a plain array load;
/// * the set index is computed from the *original* line number (masked when
///   the set count is a power of two), keeping set assignment, ways and LRU
///   order bit-identical to [`CacheState`].
///
/// Two drivers run it: the dense walk ([`run_fs_model_dense`]) and the
/// symbolic engine's period windows ([`crate::symbolic`]). Lines past the
/// interner's identity region take overflow ids, and the id-indexed tables
/// grow for them, so any footprint fits.
pub(crate) struct DenseMachine {
    line_size: u64,
    granules: u64,
    num_sets: usize,
    set_mask: Option<u64>,
    count_true_sharing: bool,
    invalidate_on_detect: bool,
    pub(crate) interner: LineInterner,
    /// Writer index by line id (see [`RefMachine::writers`]).
    pub(crate) writers: Vec<u64>,
    /// Physical writer index by line id (see [`RefMachine::phys_writers`]).
    pub(crate) phys_writers: Vec<u64>,
    /// FS cases per line id, not yet flushed into a result.
    line_cases: Vec<u64>,
    pub(crate) states: Vec<DenseSetLru<LineInfo>>,
    pub(crate) evictions: u64,
    /// The (thread, set) list where the window engine's last state compare
    /// failed; the next compare starts there.
    pub(crate) mismatch_hint: std::cell::Cell<usize>,
}

impl DenseMachine {
    /// Tables for a kernel whose array footprint spans `footprint_lines`.
    pub(crate) fn new(cfg: &FsModelConfig, footprint_lines: u64) -> Self {
        let num_threads = cfg.num_threads.max(1) as usize;
        let (num_sets, ways) = set_geometry(cfg.stack_lines, cfg.stack_sets);
        let interner = LineInterner::new(footprint_lines);
        let table_len = interner.slots();
        DenseMachine {
            line_size: cfg.line_size,
            granules: cfg.line_size / 64,
            num_sets,
            set_mask: num_sets.is_power_of_two().then(|| num_sets as u64 - 1),
            count_true_sharing: cfg.count_true_sharing,
            invalidate_on_detect: cfg.invalidate_on_detect,
            interner,
            writers: vec![0; table_len],
            phys_writers: vec![0; table_len],
            line_cases: vec![0; table_len],
            states: (0..num_threads)
                .map(|_| DenseSetLru::new(num_sets, ways, table_len))
                .collect(),
            evictions: 0,
            mismatch_hint: std::cell::Cell::new(0),
        }
    }

    /// Process one access by thread `t` at byte address `addr`, accumulating
    /// counts into `res` (per-line counts stay in the tables until
    /// [`Self::flush_line_cases`]).
    #[inline(always)]
    pub(crate) fn access(
        &mut self,
        t: usize,
        addr: u64,
        size: u64,
        is_write: bool,
        res: &mut FsModelResult,
    ) {
        let line = addr / self.line_size;
        let off = addr % self.line_size;
        let (moff, msz) = if self.granules <= 1 {
            (off.min(63), size.min(64 - off.min(63)))
        } else {
            ((off / self.granules).min(63), 1)
        };
        let mask: u64 = if msz >= 64 {
            u64::MAX
        } else {
            ((1u64 << msz) - 1) << moff
        };
        let self_bit = 1u64 << t;

        let set = match self.set_mask {
            Some(m) => (line & m) as usize,
            None => (line % self.num_sets as u64) as usize,
        };
        let id = self.interner.id_of(line);
        let idx = id as usize;
        if idx >= self.writers.len() {
            // A new overflow line.
            self.grow_tables(idx + 1);
        }
        let states = &mut self.states;

        // Step 4: 1-to-All comparison against other cache states.
        let wmask = self.writers[idx];
        let others = wmask & !self_bit;
        if others != 0 {
            let mut fs = 0u64;
            let mut ts = 0u64;
            // Iterate set bits in ascending thread order (same order as the
            // reference path's scan).
            let mut rem = others;
            while rem != 0 {
                let k = rem.trailing_zeros() as usize;
                rem &= rem - 1;
                let remote = states[k].peek(id).copied().unwrap_or_default();
                if remote.written_bytes & mask != 0 {
                    ts += 1;
                } else {
                    fs += 1;
                }
                if self.invalidate_on_detect {
                    if let Some(info) = states[k].touch(id) {
                        info.written = false;
                        info.written_bytes = 0;
                    }
                }
            }
            if self.invalidate_on_detect {
                self.writers[idx] = wmask & self_bit;
            }
            let counted_fs = if self.count_true_sharing { fs + ts } else { fs };
            res.fs_cases += counted_fs;
            res.true_sharing_cases += ts;
            if counted_fs > 0 {
                res.per_thread_cases[t] += counted_fs;
                self.line_cases[idx] += counted_fs;
            }
        }

        // Physical event counting (invalidation semantics).
        let pmask = self.phys_writers[idx];
        let pothers = pmask & !self_bit;
        if pothers != 0 {
            let mut overlap = false;
            let mut rem = pothers;
            while rem != 0 {
                let k = rem.trailing_zeros() as usize;
                rem &= rem - 1;
                if let Some(info) = states[k].peek(id) {
                    if info.written_bytes & mask != 0 {
                        overlap = true;
                        break;
                    }
                }
            }
            if overlap {
                res.ts_events += 1;
            } else if is_write {
                res.fs_write_events += 1;
                res.fs_events += 1;
            } else {
                res.fs_read_events += 1;
                res.fs_events += 1;
            }
            self.phys_writers[idx] = pmask & self_bit;
        }
        if is_write {
            self.phys_writers[idx] |= self_bit;
        }

        // Step 3: insert into this thread's cache state (LRU).
        let st = &mut states[t];
        st.ensure_key(id);
        if let Some(info) = st.touch(id) {
            if is_write {
                if !info.written {
                    self.writers[idx] |= self_bit;
                }
                info.written = true;
                info.written_bytes |= mask;
            }
        } else {
            let info = LineInfo {
                written: is_write,
                written_bytes: if is_write { mask } else { 0 },
            };
            if is_write {
                self.writers[idx] |= self_bit;
            }
            if let Some((evicted, einfo)) = st.insert(set, id, info) {
                self.evictions += 1;
                if einfo.written {
                    self.writers[evicted as usize] &= !self_bit;
                    self.phys_writers[evicted as usize] &= !self_bit;
                }
            }
        }
    }

    /// Grow every id-indexed table to `len` ids.
    pub(crate) fn grow_tables(&mut self, len: usize) {
        self.writers.resize(len, 0);
        self.phys_writers.resize(len, 0);
        self.line_cases.resize(len, 0);
    }

    /// Move the per-line FS cases accumulated since the last flush into
    /// `res.per_line_cases`.
    pub(crate) fn flush_line_cases(&mut self, res: &mut FsModelResult) {
        for (idx, c) in self.line_cases.iter_mut().enumerate() {
            if *c > 0 {
                *res.per_line_cases
                    .entry(self.interner.line_of(idx as u32))
                    .or_insert(0) += *c;
                *c = 0;
            }
        }
    }

    /// Flush the per-line cases into `res` and the run's totals into the
    /// obs counters.
    pub(crate) fn finish(mut self, res: &mut FsModelResult) {
        fs_obs::counters::FS_LRU_EVICTIONS.add(self.evictions);
        fs_obs::counters::FS_LINE_TABLE_SLOTS.add(self.interner.slots() as u64);
        self.flush_line_cases(res);
    }
}

/// The strength-reduced dense-table implementation of the same model:
/// addresses come from a [`StreamCursor`] advanced by constant per-loop-
/// variable byte deltas ([`AccessPlan::compile`]), and steps 3 + 4 run on a
/// [`DenseMachine`]. Also the landing site of symbolic declines that
/// simulated nothing, and of the symbolic engine's hand-offs of runs too
/// small for a window or without a period plan.
///
/// Public only as the oracle that tests compare the closed form with: it
/// runs outside the dispatcher, so it counts no model run and checks no
/// team size.
#[doc(hidden)]
pub fn run_fs_model_dense(
    kernel: &Kernel,
    cfg: &FsModelConfig,
    plan: &AccessPlan,
    bases: &[u64],
) -> FsModelResult {
    let _span = fs_obs::span("fs.dense");
    let setup_span = fs_obs::span("fs.setup");
    let num_threads = cfg.num_threads.max(1) as usize;
    let mut machine = DenseMachine::new(cfg, kernel.line_footprint(cfg.line_size));
    let mut result = FsModelResult::empty(num_threads);

    let mut walker = LockstepWalker::new(kernel, num_threads as u64);
    let sched = *walker.schedule();
    let outer_iters = kernel.nest.outer_iters().unwrap_or(1).max(1);
    let runs_per_instance = sched.num_chunk_runs().max(1);
    result.total_chunk_runs = outer_iters * runs_per_instance;

    let inner = kernel
        .nest
        .inner_iters_per_parallel_iter()
        .unwrap_or(1)
        .max(1);
    let steps_per_run = (sched.chunk * inner).max(1);
    let max_steps = cfg.max_chunk_runs.map(|r| r * steps_per_run);

    // Strength-reduce the plan once; one cursor per thread.
    let cplan = plan.compile(kernel.vars.len(), bases);
    let mut cursors: Vec<StreamCursor> = (0..num_threads)
        .map(|_| StreamCursor::new(&cplan))
        .collect();
    // Flat per-access metadata (the only fields the hot loop needs).
    let acc_is_write: Vec<bool> = plan.accesses.iter().map(|a| a.is_write).collect();
    let acc_size: Vec<u64> = plan.accesses.iter().map(|a| a.size as u64).collect();
    drop(setup_span);

    let walk_span = fs_obs::span("fs.walk");
    loop {
        if let Some(ms) = max_steps {
            if result.steps >= ms {
                break;
            }
        }
        let mut iter_count = 0u64;
        let machine_ref = &mut machine;
        let res = &mut result;
        let more = walker.step_streams(&cplan, &mut cursors, |t, _env, addrs| {
            iter_count += 1;
            for (i, &raw) in addrs.iter().enumerate() {
                machine_ref.access(t, raw as u64, acc_size[i], acc_is_write[i], res);
            }
        });
        if !more {
            break;
        }
        result.steps += 1;
        result.iterations += iter_count;
        if result.steps.is_multiple_of(steps_per_run) {
            let run = result.steps / steps_per_run;
            result.series.push((run, result.fs_cases));
            result.events_series.push((run, result.fs_events));
        }
    }
    drop(walk_span);
    result.finish_series(steps_per_run);
    machine.finish(&mut result);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use loop_ir::kernels;
    use machine::presets;

    /// Each engine on its own, through [`run`]: the dense walk, the oracle
    /// and the fast dispatch.
    const PATHS: [FsPath; 3] = [FsPath::Optimized, FsPath::Reference, FsPath::Symbolic];

    /// Run `c.path`'s engine alone. `Optimized`, the name a result reports
    /// for the dense walk, runs the dense walk without the closed form in
    /// front of it; `Symbolic` runs the fast dispatch and `Reference` the
    /// oracle.
    fn run(k: &Kernel, c: &FsModelConfig) -> FsModelResult {
        match c.path {
            FsPath::Optimized => {
                run_fs_model_dense(k, c, &k.access_plan(), &k.array_bases(c.line_size))
            }
            _ => run_fs_model(k, c),
        }
    }

    fn cfg(threads: u32) -> FsModelConfig {
        FsModelConfig::for_machine(&presets::paper48(), threads)
    }

    fn cfg_path(threads: u32, path: FsPath) -> FsModelConfig {
        let mut c = cfg(threads);
        c.path = path;
        c
    }

    #[test]
    fn no_false_sharing_on_single_thread() {
        for path in PATHS {
            let k = kernels::heat_diffusion(18, 18, 1);
            let r = run(&k, &cfg_path(1, path));
            assert_eq!(r.fs_cases, 0);
            assert_eq!(r.iterations, 16 * 16);
        }
    }

    #[test]
    fn chunk1_produces_heavy_false_sharing() {
        for path in PATHS {
            let k = kernels::transpose(32, 32, 1);
            let r = run(&k, &cfg_path(8, path));
            assert!(r.fs_cases > 500, "cases = {}", r.fs_cases);
            assert!(r.true_sharing_cases == 0);
            assert_eq!(r.iterations, 32 * 32);
        }
    }

    #[test]
    fn larger_chunks_reduce_false_sharing() {
        for path in PATHS {
            let mk = |chunk| {
                let k = kernels::transpose(64, 64, chunk);
                run(&k, &cfg_path(8, path)).fs_cases
            };
            let c1 = mk(1);
            let c8 = mk(8);
            assert!(
                c1 > 5 * c8.max(1),
                "chunk 1: {c1} cases, chunk 8: {c8} cases"
            );
        }
    }

    #[test]
    fn padded_layout_eliminates_false_sharing() {
        for path in PATHS {
            let packed = run(&kernels::dotprod_partials(8, 64, false), &cfg_path(8, path));
            let padded = run(&kernels::dotprod_partials(8, 64, true), &cfg_path(8, path));
            assert!(packed.fs_cases > 100, "{}", packed.fs_cases);
            assert_eq!(padded.fs_cases, 0);
        }
    }

    #[test]
    fn per_line_cases_identify_the_victim_array() {
        for path in PATHS {
            let k = kernels::dotprod_partials(4, 64, false);
            let r = run(&k, &cfg_path(4, path));
            let bases = k.array_bases(64);
            let partial_base_line = bases[2] / 64; // x, y, partial
            let top = r.top_lines(1);
            assert_eq!(top[0].0, partial_base_line, "victim is the partial array");
        }
    }

    #[test]
    fn series_is_monotonic_and_roughly_linear() {
        for path in PATHS {
            let k = kernels::dft(64, 256, 1);
            let r = run(&k, &cfg_path(8, path));
            assert!(r.series.len() >= 8, "series: {:?}", r.series.len());
            for w in r.series.windows(2) {
                assert!(w[1].1 >= w[0].1, "cumulative count must not decrease");
                assert!(w[1].0 > w[0].0);
            }
            // Linearity: after warmup, per-run increments are similar.
            let incs: Vec<u64> = r.series.windows(2).map(|w| w[1].1 - w[0].1).collect();
            let tail = &incs[incs.len() / 2..];
            let mean = tail.iter().sum::<u64>() as f64 / tail.len() as f64;
            for &i in tail {
                assert!(
                    (i as f64 - mean).abs() <= mean * 0.5 + 2.0,
                    "increment {i} far from mean {mean}: {incs:?}"
                );
            }
        }
    }

    #[test]
    fn max_chunk_runs_truncates_evaluation() {
        for path in PATHS {
            let k = kernels::dft(64, 256, 1);
            let mut c = cfg_path(8, path);
            c.max_chunk_runs = Some(5);
            let r = run(&k, &c);
            assert_eq!(r.evaluated_chunk_runs, 5);
            let full = run(&k, &cfg_path(8, path));
            assert!(r.fs_cases < full.fs_cases);
            assert_eq!(r.total_chunk_runs, full.total_chunk_runs);
        }
    }

    #[test]
    fn total_chunk_runs_formula_matches_paper() {
        for path in PATHS {
            // Inner-parallel (heat): x_max = outer * ceil(trip_p / (T*C)).
            let k = kernels::heat_diffusion(18, 66, 1);
            let r = run(&k, &cfg_path(8, path));
            assert_eq!(r.total_chunk_runs, 16 * 8); // 16 outer, 64/(8*1) runs
                                                    // Outer-parallel (linreg): x_max = ceil(n / (T*C)).
            let k2 = kernels::linear_regression(96, 8, 1);
            let r2 = run(&k2, &cfg_path(8, path));
            assert_eq!(r2.total_chunk_runs, 96 / 8);
        }
    }

    #[test]
    fn true_sharing_separated_from_false_sharing() {
        for path in PATHS {
            // All threads RMW the same element: pure true sharing.
            let mut b = loop_ir::KernelBuilder::new("ts");
            let t = b.loop_var("t");
            let i = b.loop_var("i");
            let s = b.array("s", &[4], loop_ir::ScalarType::F64);
            b.parallel_for(t, 0, 4, loop_ir::Schedule::Static { chunk: 1 });
            b.seq_for(i, 0, 16);
            b.stmt(loop_ir::Stmt::add_assign(
                loop_ir::ArrayRef::write(s, vec![loop_ir::AffineExpr::constant(0)]),
                loop_ir::Expr::num(1.0),
            ));
            let k = b.build();
            let r = run(&k, &cfg_path(4, path));
            assert_eq!(r.fs_cases, 0, "same-byte conflicts are true sharing");
            assert!(r.true_sharing_cases > 50);
            // With line-granularity counting (the paper's), they'd be counted.
            let mut c = cfg_path(4, path);
            c.count_true_sharing = true;
            let r2 = run(&k, &c);
            assert_eq!(r2.fs_cases, r.true_sharing_cases);
        }
    }

    #[test]
    fn invalidate_on_detect_reduces_counts() {
        for path in PATHS {
            let k = kernels::dft(32, 128, 1);
            let base = run(&k, &cfg_path(8, path));
            let mut c = cfg_path(8, path);
            c.invalidate_on_detect = true;
            let inv = run(&k, &c);
            assert!(
                inv.fs_cases <= base.fs_cases,
                "invalidate {} vs base {}",
                inv.fs_cases,
                base.fs_cases
            );
        }
    }

    #[test]
    fn set_associative_states_approximate_fully_associative() {
        for path in PATHS {
            // The paper's §III-C claim: a fully-associative stack is a valid
            // stand-in for a highly-associative cache. Counts should be close.
            let k = kernels::dft(32, 256, 1);
            let full = run(&k, &cfg_path(8, path));
            let mut sa = cfg_path(8, path);
            sa.stack_sets = 64; // 1024 lines / 64 sets = 16-way
            let set_r = run(&k, &sa);
            let ratio = set_r.fs_cases as f64 / full.fs_cases.max(1) as f64;
            assert!(
                (0.8..=1.25).contains(&ratio),
                "set-assoc {} vs full {} (ratio {ratio:.3})",
                set_r.fs_cases,
                full.fs_cases
            );
            // Degenerate: more sets than lines still works (1-way).
            let mut dm = cfg_path(4, path);
            dm.stack_lines = 8;
            dm.stack_sets = 1024;
            let r = run(&kernels::stencil1d(66, 1), &dm);
            assert!(r.iterations > 0);
        }
    }

    #[test]
    fn per_thread_cases_sum_to_total() {
        for path in PATHS {
            let k = kernels::transpose(32, 32, 1);
            let r = run(&k, &cfg_path(8, path));
            assert_eq!(r.per_thread_cases.iter().sum::<u64>(), r.fs_cases);
            assert_eq!(r.per_line_cases.values().sum::<u64>(), r.fs_cases);
        }
    }

    /// Field-by-field equivalence of all paths over a spread of kernel
    /// shapes and config knobs (the property test in
    /// `tests/fs_path_equivalence.rs` randomizes much wider).
    #[test]
    fn optimized_and_symbolic_paths_are_count_identical_to_reference() {
        let kernels: Vec<loop_ir::Kernel> = vec![
            kernels::heat_diffusion(10, 34, 1),
            kernels::dft(16, 96, 3),
            kernels::linear_regression(48, 8, 2),
            kernels::transpose(24, 24, 1),
            kernels::dotprod_partials(8, 32, false),
            kernels::stencil1d(130, 2),
        ];
        for k in &kernels {
            for threads in [1u32, 3, 8] {
                for stack_sets in [1u32, 3, 64] {
                    let mut reference = cfg_path(threads, FsPath::Reference);
                    reference.stack_sets = stack_sets;
                    let b = run(k, &reference);
                    for path in [FsPath::Optimized, FsPath::Symbolic] {
                        let mut c = cfg_path(threads, path);
                        c.stack_sets = stack_sets;
                        let a = run(k, &c);
                        assert_eq!(
                            a, b,
                            "kernel {} path {path} threads {threads} sets {stack_sets}",
                            k.name
                        );
                    }
                }
            }
        }
    }

    /// Accesses far outside (and wrapped "below") the array footprint take
    /// the interner's hash fallback; counts must still match the reference.
    #[test]
    fn out_of_footprint_lines_use_the_hash_fallback() {
        let mut b = loop_ir::KernelBuilder::new("oob");
        let i = b.loop_var("i");
        let a = b.array("A", &[8], loop_ir::ScalarType::F64);
        b.parallel_for(i, 0, 16, loop_ir::Schedule::Static { chunk: 1 });
        // A[1000*i - 500]: wraps negative at i = 0, then strides far past
        // the 8-element footprint.
        b.stmt(loop_ir::Stmt::add_assign(
            loop_ir::ArrayRef::write(
                a,
                vec![loop_ir::AffineExpr::linear(loop_ir::VarId(0), 1000, -500)],
            ),
            loop_ir::Expr::num(1.0),
        ));
        let k = b.build();
        let opt = run(&k, &cfg_path(4, FsPath::Optimized));
        let reference = run(&k, &cfg_path(4, FsPath::Reference));
        assert_eq!(opt, reference);
        assert_eq!(opt.iterations, 16);
    }

    #[test]
    fn team_of_64_is_modelable() {
        for path in PATHS {
            let k = kernels::stencil1d(258, 1);
            let r = run(&k, &cfg_path(64, path));
            assert!(r.iterations > 0);
            assert_eq!(r.per_thread_cases.len(), 64);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the modelable maximum")]
    fn team_of_65_panics_in_the_model() {
        let k = kernels::stencil1d(258, 1);
        let _ = run_fs_model(&k, &cfg(65));
    }

    #[test]
    fn config_validate_checks_the_team_cap() {
        assert!(cfg(64).validate().is_ok());
        let err = cfg(65).validate().unwrap_err();
        assert!(matches!(
            err,
            ValidateError::TeamTooLarge {
                requested: 65,
                max: MAX_MODEL_THREADS
            }
        ));
    }
}
