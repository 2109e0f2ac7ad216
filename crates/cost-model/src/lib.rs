//! Compile-time loop cost models: the Open64-style processor / cache / TLB /
//! parallel-overhead models, the paper's **false-sharing cost model**, and
//! the linear-regression **FS prediction model**.
//!
//! The headline entry points:
//!
//! * [`fs::run_fs_model`] — the four-step FS model of §III (array
//!   references → cache-line ownership lists → per-thread LRU cache states →
//!   1-to-All detection), returning FS case counts, the per-chunk-run series
//!   of Fig. 6, and per-line victim attribution.
//! * [`predict::predict_fs`] — §III-E: evaluate a handful of chunk runs,
//!   fit `y = a·x + b`, extrapolate to `x_max` total chunk runs.
//! * [`total::analyze_loop`] — Eq. 1: `Total_c = False_Sharing_c +
//!   Machine_c + Cache_c + TLB_c + Parallel_Overhead_c + Loop_Overhead_c`.
//! * [`total::modeled_fs_overhead`] — the modeled side of the evaluation's
//!   FS-vs-non-FS comparison (Tables I–III).

pub mod analytic;
pub mod contention;
pub mod footprint;
pub mod fs;
pub mod lint;
pub mod overhead;
pub mod predict;
pub mod processor;
pub mod sensitivity;
pub mod sweep;
pub mod symbolic;
pub mod total;

pub use analytic::{chunk_footprint, ChunkFootprint};
pub use contention::{
    bus_interference, shared_cache_interference, BusInterference, SharedCacheInterference,
};
pub use footprint::{cache_cost, reference_groups, tlb_cost, CacheCost, RefGroup, TlbCost};
pub use fs::{
    run_fs_model, run_fs_model_prepared, FsModelConfig, FsModelResult, FsPath, MAX_MODEL_THREADS,
};
pub use lint::{
    lint_kernel, lint_kernel_with_capacity, Diagnostic, LintResult, LintVerdict, Severity,
    SiteClass, SiteReport,
};
pub use overhead::{overhead_cost, OverheadCost};
pub use predict::{least_squares, predict_fs, predict_fs_prepared, FsPrediction, LinearFit};
pub use processor::{machine_cost, MachineCost};
pub use sensitivity::{
    standard_battery, sweep_chunk, sweep_coherence_cost, sweep_line_size, sweep_threads, Sweep,
    SweepPoint,
};
pub use sweep::{
    compute_point, evaluate_point, kernel_at_chunk, point_key, prepared_key, EarlyExit, EvalMode,
    MemoCache, MemoStats, SweepGrid, SweepPointSpec,
};
pub use total::{
    analyze_loop, analyze_loop_prepared, modeled_fs_overhead, AnalysisOptions, LoopCost,
    ModeledFsComparison, PreparedKernel,
};
