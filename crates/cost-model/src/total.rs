//! Equation 1: the total loop cost with the false-sharing term, and the
//! FS-overhead percentage used throughout the evaluation.
//!
//! ```text
//! Total_c = False_Sharing_c + Machine_c + Cache_c + TLB_c
//!         + Parallel_Overhead_c + Loop_Overhead_c            (Eq. 1)
//! ```
//!
//! All terms are expressed on the critical path of one thread (the team
//! executes concurrently, so per-iteration costs multiply by the *per
//! thread* iteration count and the FS cycle cost is the per-thread share of
//! the detected events).

use crate::footprint::{cache_cost, tlb_cost, CacheCost, TlbCost};
use crate::fs::{dispatch_fs_model, FsModelConfig, FsModelResult, FsPath};
use crate::overhead::{overhead_cost, OverheadCost};
use crate::processor::{machine_cost, MachineCost};
use loop_ir::{AccessPlan, Kernel};
use machine::MachineConfig;

/// Full cost analysis of one parallel loop on one machine/team.
#[derive(Debug, Clone)]
pub struct LoopCost {
    pub machine: MachineCost,
    pub cache: CacheCost,
    pub tlb: TlbCost,
    pub overhead: OverheadCost,
    pub fs: FsModelResult,
    /// The FS-model engine that actually produced [`Self::fs`] (for a
    /// prediction, its sample): `Reference` when the oracle was requested
    /// ([`AnalysisOptions::fs_path`] / [`FsModelConfig::path`]), else
    /// `Symbolic` where the closed form answered and `Optimized` where the
    /// dense walk did. A report, not the request.
    pub fs_path: FsPath,
    /// Total FS cases predicted by the §III-E predictor when
    /// [`AnalysisOptions::predict_chunk_runs`] produced a prediction (the
    /// same fit on every path); `None` for a full model run.
    pub fs_predicted_cases: Option<f64>,
    /// Innermost iterations on the critical path (per thread).
    pub iters_per_thread: f64,
    /// `False_Sharing_c`: FS cycles on one thread's critical path.
    pub fs_cycles: f64,
    /// `Total_c` in cycles (Eq. 1).
    pub total_cycles: f64,
}

impl LoopCost {
    /// Fraction of the total cost attributed to false sharing.
    pub fn fs_fraction(&self) -> f64 {
        if self.total_cycles <= 0.0 {
            0.0
        } else {
            self.fs_cycles / self.total_cycles
        }
    }

    /// Estimated wall-clock seconds on `machine`.
    pub fn seconds(&self, machine: &MachineConfig) -> f64 {
        machine.cycles_to_seconds(self.total_cycles)
    }
}

/// Options for [`analyze_loop`] and the high-level `fs_core` analysis
/// entry points — the one options type shared across the workspace.
///
/// Construct with the builder:
///
/// ```
/// use cost_model::AnalysisOptions;
/// let opts = AnalysisOptions::new(8).predict(32).build();
/// assert_eq!(opts.num_threads, 8);
/// assert_eq!(opts.predict_chunk_runs, Some(32));
/// ```
#[derive(Debug, Clone)]
pub struct AnalysisOptions {
    pub num_threads: u32,
    /// Use the linear-regression predictor with this many chunk runs
    /// instead of the full FS evaluation (paper §III-E).
    pub predict_chunk_runs: Option<u64>,
    /// Override the default FS-model configuration.
    pub fs_config: Option<FsModelConfig>,
    /// Force a specific FS-model path, overriding both the default and any
    /// [`Self::fs_config`] override. `None` keeps the config's path.
    pub fs_path: Option<FsPath>,
    /// Byte budget of the sweep memo cache (`None` = unbounded). Only
    /// consulted by callers that own a [`crate::sweep::MemoCache`]; it does
    /// not participate in point identity, so changing it never invalidates
    /// cached results.
    pub memo_budget_bytes: Option<u64>,
}

impl AnalysisOptions {
    pub fn new(num_threads: u32) -> Self {
        AnalysisOptions {
            num_threads,
            predict_chunk_runs: None,
            fs_config: None,
            fs_path: None,
            memo_budget_bytes: None,
        }
    }

    /// Evaluate only `chunk_runs` chunk runs and extrapolate with the
    /// linear-regression predictor.
    pub fn predict(mut self, chunk_runs: u64) -> Self {
        self.predict_chunk_runs = Some(chunk_runs);
        self
    }

    /// Alias of [`Self::predict`], kept for callers of the pre-unification
    /// `fs_core::AnalysisOptions` API.
    pub fn with_prediction(self, chunk_runs: u64) -> Self {
        self.predict(chunk_runs)
    }

    /// Override the FS-model configuration (line size, stack geometry, …).
    pub fn fs_config(mut self, cfg: FsModelConfig) -> Self {
        self.fs_config = Some(cfg);
        self
    }

    /// Request the FS-model oracle (`Reference`) or the fast dispatch
    /// (`Symbolic` or `Optimized`), overriding the config default.
    pub fn path(mut self, path: FsPath) -> Self {
        self.fs_path = Some(path);
        self
    }

    /// The FS-model path these options resolve to: the explicit
    /// [`Self::fs_path`] override if set, else the [`Self::fs_config`]
    /// override's path, else the workspace default. Whether it is the
    /// oracle is what participates in sweep/service point identity.
    pub fn resolved_fs_path(&self) -> FsPath {
        self.fs_path
            .unwrap_or_else(|| self.fs_config.as_ref().map(|c| c.path).unwrap_or_default())
    }

    /// Cap the sweep memo cache at `bytes` resident bytes (LRU eviction).
    pub fn memo_budget(mut self, bytes: u64) -> Self {
        self.memo_budget_bytes = Some(bytes);
        self
    }

    /// Finish the builder. A no-op — every intermediate value is already a
    /// complete options struct — provided so builder chains read naturally.
    pub fn build(self) -> Self {
        self
    }
}

/// Schedule-independent inputs of one (kernel, machine) pair: the
/// `Machine_c` term (per-iteration op latencies — unaffected by chunk size
/// or team size) and the FS model's step-1 reference extraction (access
/// plan + aligned array bases). A chunk/thread sweep computes these once
/// and reuses them for every grid point.
#[derive(Debug, Clone)]
pub struct PreparedKernel {
    pub machine_cost: MachineCost,
    pub plan: AccessPlan,
    pub bases: Vec<u64>,
    /// Line size the bases were aligned for.
    pub line_size: u64,
}

impl PreparedKernel {
    pub fn new(kernel: &Kernel, machine: &MachineConfig) -> Self {
        let line_size = machine.line_size();
        PreparedKernel {
            machine_cost: machine_cost(kernel, &machine.processor),
            plan: kernel.access_plan(),
            bases: kernel.array_bases(line_size),
            line_size,
        }
    }
}

/// Analyze `kernel` per Eq. 1. This is the main compile-time entry point.
pub fn analyze_loop(kernel: &Kernel, machine: &MachineConfig, opts: &AnalysisOptions) -> LoopCost {
    analyze_loop_prepared(kernel, machine, opts, &PreparedKernel::new(kernel, machine))
}

/// [`analyze_loop`] with the schedule-independent terms precomputed. `prep`
/// must have been built from the *same* kernel body and arrays (the
/// schedule — chunk size — may differ); the sweep engine's memo cache
/// guarantees this by fingerprinting the schedule-normalized kernel.
pub fn analyze_loop_prepared(
    kernel: &Kernel,
    machine: &MachineConfig,
    opts: &AnalysisOptions,
    prep: &PreparedKernel,
) -> LoopCost {
    let t = opts.num_threads.max(1);
    let mach = prep.machine_cost;
    let cache = cache_cost(kernel, machine, t);
    let tlb = tlb_cost(kernel, machine, t);
    let ovh = overhead_cost(kernel, machine, t);

    let mut fs_cfg = opts
        .fs_config
        .clone()
        .unwrap_or_else(|| FsModelConfig::for_machine(machine, t));
    fs_cfg.num_threads = t;
    if let Some(path) = opts.fs_path {
        fs_cfg.path = path;
    }

    // An fs_config override may model a different line size than the one
    // the prepared bases were aligned for; realign in that case.
    let rebased;
    let bases: &[u64] = if fs_cfg.line_size == prep.line_size {
        &prep.bases
    } else {
        rebased = kernel.array_bases(fs_cfg.line_size);
        &rebased
    };

    let predicted = opts.predict_chunk_runs.and_then(|runs| {
        crate::predict::predict_dispatch(kernel, &fs_cfg, runs, &prep.plan, bases)
    });
    let (fs, predicted, engine) = match predicted {
        Some((p, engine)) => (
            p.sample,
            Some((p.predicted_cases, p.predicted_events)),
            engine,
        ),
        None => {
            let (fs, engine) = dispatch_fs_model(kernel, &fs_cfg, &prep.plan, bases);
            (fs, None, engine)
        }
    };

    // Critical-path iterations: the static schedule may be imbalanced (a
    // chunk size near the trip count serializes the loop), so use the
    // busiest thread's share, not total/T.
    let iters_per_thread = {
        let nest = &kernel.nest;
        let sched = loop_ir::schedule::ChunkSchedule::for_loop(
            nest.parallel_loop(),
            nest.parallel.schedule.chunk(),
            t as u64,
        );
        match sched {
            Some(s) => {
                let outer = nest.outer_iters().unwrap_or(1).max(1) as f64;
                let inner = nest.inner_iters_per_parallel_iter().unwrap_or(1).max(1) as f64;
                outer * s.max_iters_per_thread() as f64 * inner
            }
            None => kernel.nest.total_iterations().unwrap_or(0) as f64 / t as f64,
        }
    };

    // FS events (predicted or fully modeled) divided across the team: each
    // event is one coherence miss on some thread's critical path. Load-side
    // events stall in full; store-side events hide behind the store buffer.
    let (read_events, write_events) = match predicted {
        Some((_, total)) => {
            // Scale the sampled read/write split up to the predicted total.
            let sampled = fs.fs_events.max(1) as f64;
            let f = total / sampled;
            (fs.fs_read_events as f64 * f, fs.fs_write_events as f64 * f)
        }
        None => (fs.fs_read_events as f64, fs.fs_write_events as f64),
    };
    let fs_cycles = (read_events * machine.coherence.fs_read_event_cost()
        + write_events * machine.coherence.fs_write_event_cost())
        / t as f64;

    let per_iter =
        mach.cycles_per_iter + cache.cycles_per_iter + tlb.cycles_per_iter + ovh.loop_per_iter;
    let total_cycles = per_iter * iters_per_thread + ovh.parallel_total + fs_cycles;

    LoopCost {
        machine: mach,
        cache,
        tlb,
        overhead: ovh,
        fs,
        fs_path: engine,
        fs_predicted_cases: predicted.map(|(cases, _)| cases),
        iters_per_thread,
        fs_cycles,
        total_cycles,
    }
}

/// The modeled FS-overhead comparison of the evaluation (Eq. 5's right-hand
/// side): analyze the FS-case loop and the non-FS-case loop and express the
/// difference of their FS costs as a percentage of the FS-case loop's total
/// cost.
#[derive(Debug, Clone)]
pub struct ModeledFsComparison {
    pub fs_loop: LoopCost,
    pub nfs_loop: LoopCost,
    /// `(FS_c(fs) - FS_c(nfs)) / Total_c(fs)`, in [0, 1].
    pub fs_overhead_fraction: f64,
}

/// Compare a false-sharing kernel variant against its optimized (large
/// chunk / padded) variant, as in Tables I–III.
pub fn modeled_fs_overhead(
    fs_kernel: &Kernel,
    nfs_kernel: &Kernel,
    machine: &MachineConfig,
    opts: &AnalysisOptions,
) -> ModeledFsComparison {
    let fs_loop = analyze_loop(fs_kernel, machine, opts);
    let nfs_loop = analyze_loop(nfs_kernel, machine, opts);
    let diff = (fs_loop.fs_cycles - nfs_loop.fs_cycles).max(0.0);
    let frac = if fs_loop.total_cycles > 0.0 {
        diff / fs_loop.total_cycles
    } else {
        0.0
    };
    ModeledFsComparison {
        fs_loop,
        nfs_loop,
        fs_overhead_fraction: frac,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loop_ir::kernels;
    use machine::presets;

    #[test]
    fn eq1_terms_are_all_included() {
        let m = presets::paper48();
        let k = kernels::heat_diffusion(66, 66, 1);
        let c = analyze_loop(&k, &m, &AnalysisOptions::new(8));
        let per_iter = c.machine.cycles_per_iter
            + c.cache.cycles_per_iter
            + c.tlb.cycles_per_iter
            + c.overhead.loop_per_iter;
        let expected = per_iter * c.iters_per_thread + c.overhead.parallel_total + c.fs_cycles;
        assert!((c.total_cycles - expected).abs() < 1e-6);
        assert!(c.fs_cycles > 0.0);
        assert!(c.fs_fraction() > 0.0 && c.fs_fraction() < 1.0);
    }

    #[test]
    fn fs_case_loop_costs_more_than_nfs_case() {
        let m = presets::paper48();
        // Trip count 512 = 8 threads x chunk 64, so the non-FS variant
        // keeps the whole team busy (a 64-trip loop at chunk 64 would
        // serialize, which the critical-path model now prices correctly).
        let cmp = modeled_fs_overhead(
            &kernels::heat_diffusion(66, 514, 1),
            &kernels::heat_diffusion(66, 514, 64),
            &m,
            &AnalysisOptions::new(8),
        );
        assert!(cmp.fs_loop.total_cycles > cmp.nfs_loop.total_cycles);
        assert!(cmp.fs_overhead_fraction > 0.0);
        assert!(cmp.fs_overhead_fraction < 1.0);
    }

    #[test]
    fn padded_variant_has_zero_fs_cost() {
        let m = presets::paper48();
        let c = analyze_loop(
            &kernels::dotprod_partials(8, 256, true),
            &m,
            &AnalysisOptions::new(8),
        );
        assert_eq!(c.fs_cycles, 0.0);
        assert!(c.total_cycles > 0.0);
    }

    #[test]
    fn prediction_mode_approximates_full_mode() {
        let m = presets::paper48();
        let k = kernels::dft(128, 256, 1);
        let full = analyze_loop(&k, &m, &AnalysisOptions::new(8));
        let mut opts = AnalysisOptions::new(8);
        opts.predict_chunk_runs = Some(96);
        let pred = analyze_loop(&k, &m, &opts);
        let err = (pred.fs_cycles - full.fs_cycles).abs() / full.fs_cycles;
        assert!(
            err < 0.10,
            "pred {} vs full {}",
            pred.fs_cycles,
            full.fs_cycles
        );
    }

    #[test]
    fn oversized_chunks_price_the_serialization() {
        // chunk = trip count puts every iteration on thread 0: the model
        // must report roughly the serial cost, not total/T (the bug that
        // once made the advisor "fix" heat by serializing it). DFT is
        // compute-bound, so the critical path term dominates cleanly.
        let m = presets::paper48();
        let k_par = kernels::dft(16, 4096, 16);
        let k_serial = kernels::dft(16, 4096, 4096);
        let c_par = analyze_loop(&k_par, &m, &AnalysisOptions::new(8));
        let c_serial = analyze_loop(&k_serial, &m, &AnalysisOptions::new(8));
        assert!((c_par.iters_per_thread - 16.0 * 512.0).abs() < 1.0);
        assert!((c_serial.iters_per_thread - 16.0 * 4096.0).abs() < 1.0);
        assert!(c_serial.total_cycles > 4.0 * c_par.total_cycles);
    }

    #[test]
    fn single_thread_total_has_no_fs_term() {
        let m = presets::paper48();
        let c = analyze_loop(
            &kernels::heat_diffusion(34, 34, 1),
            &m,
            &AnalysisOptions::new(1),
        );
        assert_eq!(c.fs_cycles, 0.0);
        assert_eq!(c.fs_fraction(), 0.0);
    }

    #[test]
    fn seconds_conversion() {
        let m = presets::paper48();
        let k = kernels::stencil1d(130, 1);
        let c = analyze_loop(&k, &m, &AnalysisOptions::new(4));
        let s = c.seconds(&m);
        assert!(s > 0.0 && s < 1.0);
    }
}
