//! Parallel, memoized execution of cost-model sweep grids.
//!
//! [`SweepEngine`] evaluates a [`SweepGrid`] (`kernels × machines ×
//! threads × chunks`), sharing one [`cost_model::MemoCache`] between workers
//! and across calls. Every point's memo entry is probed on the calling
//! thread; only the misses are computed, across
//! [`fs_runtime::pool::map_indexed`] workers when there are several. Every
//! evaluation strategy produces *identical* results in *identical* order:
//! each grid point is a pure function of its spec, workers write disjoint
//! result slots, and output follows the grid's canonical kernel → machine
//! → threads → chunk enumeration — so a parallel run is byte-for-byte the
//! sequential run, just faster.

use crate::error::{check_machine, check_team_size, AnalysisError};
use crate::json::JsonValue;
use crate::service::ServiceCache;
use cost_model::sweep::{
    compute_point, kernel_at_chunk, point_key, EvalMode, SweepGrid, SweepPointSpec,
};
use cost_model::{FsPath, LoopCost};
use loop_ir::Kernel;
use std::sync::Arc;
use std::time::Instant;

/// One evaluated grid point, labeled with its axes.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    pub kernel: String,
    pub machine: String,
    pub threads: u32,
    pub chunk: u64,
    pub cost: LoopCost,
}

impl SweepOutcome {
    /// The stable JSON record for this point. Field order is fixed; this
    /// is what the determinism guarantee is stated over.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .field("kernel", self.kernel.as_str())
            .field("machine", self.machine.as_str())
            .field("threads", self.threads)
            .field("chunk", self.chunk)
            .field("fs_path", self.cost.fs_path.as_str())
            .field("fs_cases", self.cost.fs.fs_cases)
            .field("fs_events", self.cost.fs.fs_events)
            .field("fs_cycles", self.cost.fs_cycles)
            .field("total_cycles", self.cost.total_cycles)
            .field("fs_fraction", self.cost.fs_fraction())
            .field("iters_per_thread", self.cost.iters_per_thread)
            .field("evaluated_chunk_runs", self.cost.fs.evaluated_chunk_runs)
            .field("total_chunk_runs", self.cost.fs.total_chunk_runs)
    }
}

/// Wall-clock statistics of one [`SweepEngine::run`].
///
/// Deliberately kept *out* of [`SweepGridResult::to_json`]: that document
/// carries the byte-identical parallel/sequential guarantee, and wall times
/// are nondeterministic. Export them via [`SweepGridResult::stats_json`]
/// (the `--json` `sweep_stats` section) or the `--profile` summary instead.
#[derive(Debug, Clone, Default)]
pub struct SweepRunStats {
    /// Whole-run wall time (validation + evaluation).
    pub wall_ns: u64,
    /// Per-point wall time, parallel to the outcomes (canonical grid
    /// order). Every entry is *measured*, never derived from model terms:
    /// a memoized point records its (tiny) real lookup time, and a point
    /// truncated by early exit records the truncated evaluation's real
    /// cost — so no point silently reports zero. A miss's time includes
    /// its memo probe.
    pub point_wall_ns: Vec<u64>,
    /// Pool threads this run computed its misses on; 0 when nothing fanned
    /// out (every point hit, or at most one missed).
    pub pool_workers: usize,
}

impl SweepRunStats {
    /// The `n` slowest points as `(outcome index, wall ns)`, slowest first.
    /// Ties break toward the earlier (canonical-order) point.
    pub fn slowest(&self, n: usize) -> Vec<(usize, u64)> {
        let mut v: Vec<(usize, u64)> = self.point_wall_ns.iter().copied().enumerate().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }

    /// Points per second over the whole run (0 when nothing ran).
    pub fn points_per_sec(&self) -> f64 {
        if self.wall_ns == 0 || self.point_wall_ns.is_empty() {
            0.0
        } else {
            self.point_wall_ns.len() as f64 / (self.wall_ns as f64 / 1e9)
        }
    }
}

/// All outcomes of one grid run, in canonical order.
#[derive(Debug, Clone)]
pub struct SweepGridResult {
    pub outcomes: Vec<SweepOutcome>,
    /// Memo hits/misses of this run's own point lookups (one per point),
    /// exact even while other requests share the cache.
    pub memo_hits: u64,
    pub memo_misses: u64,
    /// LRU evictions this run's own inserts forced under the cache byte
    /// budget. Eviction order depends on worker interleaving, so this
    /// lives in [`Self::stats_json`], never [`Self::to_json`].
    pub memo_evictions: u64,
    /// Cache resident / peak bytes after the run (aggregate over shards).
    pub memo_bytes: u64,
    pub memo_peak_bytes: u64,
    /// Wall-clock timing of this run (not part of [`Self::to_json`]).
    pub stats: SweepRunStats,
}

impl SweepGridResult {
    /// The full run as one JSON document (stable order and bytes).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .field("points", self.outcomes.len())
            .field("memo_hits", self.memo_hits)
            .field("memo_misses", self.memo_misses)
            .field(
                "results",
                JsonValue::Arr(self.outcomes.iter().map(|o| o.to_json()).collect()),
            )
    }

    /// The cheapest outcome (by modeled total cycles), if any.
    pub fn best(&self) -> Option<&SweepOutcome> {
        self.outcomes
            .iter()
            .min_by(|a, b| a.cost.total_cycles.total_cmp(&b.cost.total_cycles))
    }

    /// Timing statistics as JSON — a *separate* document from
    /// [`Self::to_json`] because wall times are nondeterministic. Labels
    /// the `slowest_n` slowest points with their grid axes.
    pub fn stats_json(&self, slowest_n: usize) -> JsonValue {
        let slowest = self
            .stats
            .slowest(slowest_n)
            .into_iter()
            .map(|(i, ns)| {
                let o = &self.outcomes[i];
                JsonValue::obj()
                    .field("kernel", o.kernel.as_str())
                    .field("machine", o.machine.as_str())
                    .field("threads", o.threads)
                    .field("chunk", o.chunk)
                    .field("wall_ms", ns as f64 / 1e6)
            })
            .collect();
        JsonValue::obj()
            .field("wall_ms", self.stats.wall_ns as f64 / 1e6)
            .field("points_per_sec", self.stats.points_per_sec())
            .field("pool_workers", self.stats.pool_workers)
            .field("memo_evictions", self.memo_evictions)
            .field("memo_bytes", self.memo_bytes)
            .field("memo_peak_bytes", self.memo_peak_bytes)
            .field("slowest_points", JsonValue::Arr(slowest))
    }
}

/// One point's own memo traffic: whether its lookup hit, and the LRU
/// evictions its inserts forced. Summed per run, these keep a run's memo
/// tallies exact while concurrent requests share the cache.
#[derive(Debug, Clone, Copy)]
struct PointMemo {
    hit: bool,
    evictions: u64,
}

/// An evaluated point with its wall time (ns) and memo traffic.
type TimedPoint = (SweepOutcome, u64, PointMemo);

/// A point whose memo probe missed: its canonical index, the
/// chunk-specialised kernel and key its computation needs, and the probe's
/// wall time, which the point's measured time includes.
struct Miss {
    index: usize,
    kernel: Kernel,
    key: String,
    probe_ns: u64,
}

/// Sweep executor: the worker policy plus a shared [`ServiceCache`] memo —
/// its own by default, or one handed in via [`Self::with_cache`] (the
/// daemon shares a single cache between the sweep engine and single-kernel
/// analysis).
pub struct SweepEngine {
    memo: Arc<ServiceCache>,
    mode: EvalMode,
    path: FsPath,
    workers: usize,
}

impl Default for SweepEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepEngine {
    /// Full-model evaluation, one worker per available core, a private
    /// unbounded cache (one shard per worker).
    pub fn new() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        SweepEngine {
            memo: Arc::new(ServiceCache::new(workers, None)),
            mode: EvalMode::Full,
            path: FsPath::default(),
            workers,
        }
    }

    /// An engine evaluating into an existing shared cache.
    pub fn with_cache(cache: Arc<ServiceCache>) -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        SweepEngine {
            memo: cache,
            mode: EvalMode::Full,
            path: FsPath::default(),
            workers,
        }
    }

    /// Set how each point's FS term is evaluated (full / fixed prediction
    /// sample / adaptive early exit).
    pub fn mode(mut self, mode: EvalMode) -> Self {
        self.mode = mode;
        self
    }

    /// Set the FS-model path every grid point dispatches on. The path is
    /// part of each point's cache identity, so engines with different paths
    /// sharing one cache never serve each other's entries.
    pub fn path(mut self, path: FsPath) -> Self {
        self.path = path;
        self
    }

    /// Set the worker-thread count (1 = sequential).
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Bound the memo cache to `bytes` resident bytes (LRU eviction past
    /// the budget; see [`cost_model::MemoCache`]).
    pub fn memo_budget(self, bytes: u64) -> Self {
        self.memo.set_budget(Some(bytes));
        self
    }

    /// The cache this engine evaluates into.
    pub fn cache(&self) -> &Arc<ServiceCache> {
        &self.memo
    }

    /// Lifetime memo statistics `(hits, misses)`.
    pub fn memo_stats(&self) -> (u64, u64) {
        let s = self.memo.stats();
        (s.hits, s.misses)
    }

    /// Drop all cached results (e.g. after mutating machine descriptions in
    /// place — content fingerprints make this unnecessary for kernel edits,
    /// but explicit invalidation keeps memory bounded in long sessions).
    pub fn clear_memo(&self) {
        self.memo.clear();
    }

    /// Evaluate every grid point. Fails fast — before evaluating anything —
    /// if any machine, kernel, or axis value is invalid.
    ///
    /// Every point's memo entry is probed once, on this thread, and a hit
    /// is finished there. Only the misses are computed: on a pool of
    /// `min(workers, misses)` threads when at least two missed and the
    /// engine has more than one worker, inline otherwise. A miss is never
    /// looked up again, so cache hit/miss tallies move once per point.
    pub fn run(&self, grid: &SweepGrid) -> Result<SweepGridResult, AnalysisError> {
        let _span = fs_obs::span("sweep.run");
        let run_start = Instant::now();
        for (_, m) in &grid.machines {
            check_machine(m)?;
        }
        for (_, k) in &grid.kernels {
            loop_ir::validate(k)?;
        }
        if grid.chunks.contains(&0) {
            return Err(AnalysisError::UnsupportedSchedule {
                reason: "sweep grid contains chunk size 0".to_string(),
            });
        }
        if grid.threads.contains(&0) {
            return Err(AnalysisError::UnsupportedSchedule {
                reason: "sweep grid contains team size 0".to_string(),
            });
        }
        for &t in &grid.threads {
            check_team_size(t)?;
        }

        let points = grid.points();
        fs_obs::gauges::SWEEP_GRID_POINTS.set(points.len() as u64);
        let mut slots: Vec<Option<TimedPoint>> = Vec::with_capacity(points.len());
        let mut misses = Vec::new();
        for (index, spec) in points.iter().enumerate() {
            slots.push(self.probe(grid, index, spec, &mut misses));
        }
        let pool_workers = if misses.len() >= 2 && self.workers > 1 {
            self.workers.min(misses.len())
        } else {
            0
        };
        fs_obs::gauges::SWEEP_WORKERS.set(pool_workers as u64);
        let computed = fs_runtime::pool::map_indexed(pool_workers, misses.len(), |i| {
            self.compute_miss(grid, &points, &misses[i])
        });
        for (m, timed) in misses.iter().zip(computed) {
            slots[m.index] = Some(timed);
        }

        let mut outcomes = Vec::with_capacity(slots.len());
        let mut point_wall_ns = Vec::with_capacity(slots.len());
        let (mut memo_hits, mut memo_misses, mut memo_evictions) = (0, 0, 0);
        for slot in slots {
            let (o, ns, memo) = slot.expect("every grid point evaluated");
            outcomes.push(o);
            point_wall_ns.push(ns);
            if memo.hit {
                memo_hits += 1;
            } else {
                memo_misses += 1;
            }
            memo_evictions += memo.evictions;
        }
        let cache = self.memo.stats();
        Ok(SweepGridResult {
            outcomes,
            memo_hits,
            memo_misses,
            memo_evictions,
            memo_bytes: cache.bytes,
            memo_peak_bytes: cache.peak_bytes,
            stats: SweepRunStats {
                wall_ns: run_start.elapsed().as_nanos() as u64,
                point_wall_ns,
                pool_workers,
            },
        })
    }

    /// The one memo lookup of point `index`, under its `sweep.point` span.
    /// A hit comes back finished; a miss is queued on `misses` with what
    /// [`Self::compute_miss`] needs.
    fn probe(
        &self,
        grid: &SweepGrid,
        index: usize,
        spec: &SweepPointSpec,
        misses: &mut Vec<Miss>,
    ) -> Option<TimedPoint> {
        let _span = fs_obs::span("sweep.point");
        fs_obs::counters::SWEEP_POINTS.inc();
        let start = Instant::now();
        let machine = &grid.machines[spec.machine].1;
        let kernel = kernel_at_chunk(&grid.kernels[spec.kernel].1, spec.chunk);
        let key = point_key(&kernel, machine, spec.threads, &self.mode, self.path);
        let cached = self.memo.lookup_point(&key);
        let ns = start.elapsed().as_nanos() as u64;
        match cached {
            Some(cost) => {
                fs_obs::hists::SWEEP_POINT_NS.record_ns(ns);
                let memo = PointMemo {
                    hit: true,
                    evictions: 0,
                };
                Some((outcome(grid, spec, cost), ns, memo))
            }
            None => {
                misses.push(Miss {
                    index,
                    kernel,
                    key,
                    probe_ns: ns,
                });
                None
            }
        }
    }

    /// Compute a missed point outside any lock and store it, reporting the
    /// evictions its inserts forced.
    fn compute_miss(&self, grid: &SweepGrid, points: &[SweepPointSpec], miss: &Miss) -> TimedPoint {
        let _span = fs_obs::span("sweep.compute");
        let start = Instant::now();
        let spec = &points[miss.index];
        let machine = &grid.machines[spec.machine].1;
        let (prep, prep_evictions) = self.memo.prepared_for(&miss.kernel, machine);
        let cost = compute_point(
            &miss.kernel,
            machine,
            spec.threads,
            self.mode,
            self.path,
            &prep,
        );
        let evictions = prep_evictions + self.memo.insert_point(miss.key.clone(), cost.clone());
        let ns = miss.probe_ns + start.elapsed().as_nanos() as u64;
        fs_obs::hists::SWEEP_POINT_NS.record_ns(ns);
        let memo = PointMemo {
            hit: false,
            evictions,
        };
        (outcome(grid, spec, cost), ns, memo)
    }
}

/// The labeled outcome of one grid point.
fn outcome(grid: &SweepGrid, spec: &SweepPointSpec, cost: LoopCost) -> SweepOutcome {
    SweepOutcome {
        kernel: grid.kernels[spec.kernel].0.clone(),
        machine: grid.machines[spec.machine].0.clone(),
        threads: spec.threads,
        chunk: spec.chunk,
        cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cost_model::sweep::EarlyExit;
    use loop_ir::kernels;

    fn grid() -> SweepGrid {
        SweepGrid::new(
            vec![
                ("transpose".into(), kernels::transpose(32, 32, 1)),
                ("dotprod".into(), kernels::dotprod_partials(8, 64, false)),
            ],
            ("paper48".into(), crate::machines::paper48()),
            vec![2, 8],
            vec![1, 4, 16],
        )
    }

    #[test]
    fn parallel_run_is_byte_identical_to_sequential() {
        let g = grid();
        let seq = SweepEngine::new().workers(1).run(&g).unwrap();
        let par = SweepEngine::new().workers(4).run(&g).unwrap();
        assert_eq!(seq.to_json().render(), par.to_json().render());
    }

    #[test]
    fn engine_memo_carries_across_runs() {
        let g = grid();
        let engine = SweepEngine::new().workers(2);
        let first = engine.run(&g).unwrap();
        assert_eq!(first.memo_hits, 0);
        let second = engine.run(&g).unwrap();
        assert_eq!(second.memo_misses, 0, "second run must be all hits");
        let results_only = |r: &SweepGridResult| {
            JsonValue::Arr(r.outcomes.iter().map(|o| o.to_json()).collect()).render()
        };
        assert_eq!(
            results_only(&first),
            results_only(&second),
            "cached results are identical"
        );
    }

    #[test]
    fn invalid_grids_fail_fast_with_structured_errors() {
        let mut g = grid();
        g.chunks.push(0);
        assert!(matches!(
            SweepEngine::new().run(&g),
            Err(AnalysisError::UnsupportedSchedule { .. })
        ));
        let mut g = grid();
        g.threads = vec![0];
        assert!(matches!(
            SweepEngine::new().run(&g),
            Err(AnalysisError::UnsupportedSchedule { .. })
        ));
        let mut g = grid();
        g.machines[0].1.num_cores = 0;
        assert!(matches!(
            SweepEngine::new().run(&g),
            Err(AnalysisError::MachineConfig { .. })
        ));
        let mut g = grid();
        g.kernels[0].1.nest.body.clear();
        assert!(matches!(
            SweepEngine::new().run(&g),
            Err(AnalysisError::Validation(_))
        ));
    }

    #[test]
    fn early_exit_mode_runs_and_orders_like_full() {
        let g = grid();
        let full = SweepEngine::new().workers(2).run(&g).unwrap();
        let fast = SweepEngine::new()
            .workers(2)
            .mode(EvalMode::EarlyExit(EarlyExit::default()))
            .run(&g)
            .unwrap();
        assert_eq!(full.outcomes.len(), fast.outcomes.len());
        for (a, b) in full.outcomes.iter().zip(&fast.outcomes) {
            assert_eq!(
                (a.kernel.as_str(), a.threads, a.chunk),
                (b.kernel.as_str(), b.threads, b.chunk)
            );
        }
    }

    #[test]
    fn stats_record_every_point_and_stay_out_of_to_json() {
        let g = grid();
        let engine = SweepEngine::new().workers(2);
        let r = engine.run(&g).unwrap();
        assert_eq!(r.stats.point_wall_ns.len(), r.outcomes.len());
        assert!(r.stats.wall_ns > 0);
        assert!(r.stats.points_per_sec() > 0.0);
        let slowest = r.stats.slowest(3);
        assert_eq!(slowest.len(), 3);
        assert!(slowest[0].1 >= slowest[1].1 && slowest[1].1 >= slowest[2].1);
        // Timing lives in stats_json, never in the deterministic document.
        assert!(r.stats_json(2).render().contains("\"slowest_points\""));
        assert!(!r.to_json().render().contains("wall_ms"));
        // A fully memoized re-run still measures real (nonzero-length)
        // per-point times instead of silently reporting nothing.
        let again = engine.run(&g).unwrap();
        assert_eq!(again.memo_misses, 0);
        assert_eq!(again.stats.point_wall_ns.len(), again.outcomes.len());
    }

    #[test]
    fn best_picks_the_cheapest_point() {
        let g = grid();
        let r = SweepEngine::new().run(&g).unwrap();
        let best = r.best().unwrap();
        assert!(r
            .outcomes
            .iter()
            .all(|o| o.cost.total_cycles >= best.cost.total_cycles));
    }
}
