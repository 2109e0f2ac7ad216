//! # fs-core — compile-time false-sharing detection for parallel loops
//!
//! High-level API over the reproduction of *"Compile-Time Detection of
//! False Sharing via Loop Cost Modeling"* (Tolubaeva, Yan, Chapman; IPDPS
//! workshops 2012).
//!
//! ## Quick start
//!
//! ```
//! use fs_core::{try_analyze, AnalysisOptions};
//!
//! // Describe the loop in the DSL (or build it with loop_ir::KernelBuilder).
//! let kernel = fs_core::parse_kernel(
//!     "kernel histogram {
//!        array counts[8]: f64;
//!        array data[8][4096]: f64;
//!        parallel for t in 0..8 schedule(static, 1) {
//!          for i in 0..4096 {
//!            counts[t] += data[t][i];
//!          }
//!        }
//!      }",
//! ).unwrap();
//!
//! let machine = fs_core::machines::paper48();
//! let report = try_analyze(&kernel, &machine, &AnalysisOptions::new(8)).unwrap();
//! assert!(report.cost.fs.fs_cases > 0, "adjacent counters false-share");
//! println!("{}", report.render());
//! ```
//!
//! The report quantifies the FS cases the loop will generate, the share of
//! execution time they cost (Eq. 1 of the paper), and which arrays are the
//! victims. [`recommend_chunk`] searches schedules for the smallest chunk
//! size that suppresses the false sharing.

pub mod advisor;
pub mod corpus;
pub mod error;
pub mod extras;
pub mod json;
pub mod lint;
pub mod report;
pub mod service;
pub mod simharness;
pub mod sweep;
pub mod transform;

pub use advisor::{recommend_chunk, ChunkAdvice, ChunkPoint};
pub use corpus::{corpus_entry, corpus_kernel, corpus_kernel_with_consts, CorpusEntry, CORPUS};
pub use error::AnalysisError;
pub use json::JsonValue;
pub use lint::{
    explain_rule, rule_info, sarif_document, LintReport, RuleInfo, VerifiedFix, LINT_RULES,
};
pub use report::{AnalysisReport, HotLine, VictimArray};
pub use service::{
    KernelInput, KernelResult, Service, ServiceCache, ServiceOptions, ServiceRequest,
    ServiceResponse, FSD_VERSION,
};
pub use simharness::{run_indexed, sim_workers};
pub use sweep::{SweepEngine, SweepGridResult, SweepOutcome, SweepRunStats};
pub use transform::{eliminate_false_sharing, pad_array, Candidate, MitigationReport};

use loop_ir::Kernel;
use machine::MachineConfig;

pub use cost_model::sweep::{
    kernel_at_chunk, point_key, EarlyExit, EvalMode, MemoCache, SweepGrid, SweepPointSpec,
};
pub use cost_model::FsPath;
/// Re-exported building blocks for users who need the full substrate.
///
/// `AnalysisOptions` is the *one* options type shared by the low-level
/// [`analyze_loop`] and the high-level [`try_analyze`]: build it with
/// `AnalysisOptions::new(threads).predict(runs).build()`.
pub use cost_model::{
    analyze_loop, bus_interference, modeled_fs_overhead, predict_fs, run_fs_model,
    shared_cache_interference, AnalysisOptions, BusInterference, FsModelConfig, FsModelResult,
    LoopCost, SharedCacheInterference,
};
pub use cost_model::{lint_kernel, Diagnostic, LintResult, LintVerdict, Severity, SiteClass};
/// The observability layer (spans, counters, Chrome-trace export) — see
/// `docs/OBSERVABILITY.md`. Disabled by default; `fsdetect` enables it for
/// `--profile`/`--trace-out` and the benches enable it for counter-sourced
/// reporting.
pub use fs_obs as obs;
pub use loop_ir::dsl::parse_kernel_with_consts;
pub use loop_ir::{dsl::parse_kernel, kernels, pretty::kernel_to_dsl, KernelBuilder};

/// Machine presets (see [`machine::presets`]).
pub mod machines {
    pub use machine::presets::{generic_x86, paper48, tiny_test};
    pub use machine::MachineConfig;
}

/// Simulation entry points (the "measured" side of experiments).
pub mod simulation {
    pub use cache_sim::{
        simulate_kernel, simulate_kernel_prepared, simulated_time_cycles,
        simulated_time_cycles_prepared, Interleave, LineClass, SharingAnalysis, SimOptions,
        SimPath, SimPrepared, SimStats,
    };
}

/// Analyze a kernel: run the full Eq. 1 cost model (including the FS model)
/// and package the result with victim attribution and human-readable
/// rendering. Returns a structured [`AnalysisError`] instead of panicking
/// on invalid kernels, schedules, or machine descriptions.
///
/// Delegates to [`service::analyze`] — the service layer owns the guards
/// and execution; this name is kept for API stability.
pub fn try_analyze(
    kernel: &Kernel,
    machine: &MachineConfig,
    opts: &AnalysisOptions,
) -> Result<AnalysisReport, AnalysisError> {
    service::analyze(kernel, machine, opts)
}

/// Lint a kernel symbolically: run the closed-form false-sharing analyzer
/// (`cost_model::lint`) under the same machine/team guards as
/// [`try_analyze`], without simulating a single iteration. Suggested
/// padding fixes are verified by applying [`pad_array`] and re-linting.
///
/// The verdict carries a differential contract against the simulator (see
/// `tests/lint_differential.rs`): `FalseSharing` implies the reference FS
/// model counts at least one case at this (threads, chunk) configuration,
/// and `Clean` implies it counts none.
///
/// Delegates to [`service::lint`].
pub fn try_lint(
    kernel: &Kernel,
    machine: &MachineConfig,
    num_threads: u32,
) -> Result<lint::LintReport, AnalysisError> {
    service::lint(kernel, machine, num_threads)
}

/// Parse a kernel from DSL source and lint it in one step.
pub fn try_lint_dsl(
    source: &str,
    machine: &MachineConfig,
    num_threads: u32,
) -> Result<lint::LintReport, AnalysisError> {
    service::lint_dsl(source, machine, num_threads)
}

/// Parse a kernel from DSL source and analyze it in one step.
pub fn try_analyze_dsl(
    source: &str,
    machine: &MachineConfig,
    opts: &AnalysisOptions,
) -> Result<AnalysisReport, AnalysisError> {
    service::analyze_dsl(source, machine, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_flags_false_sharing_kernels() {
        let m = machines::paper48();
        let k = kernels::transpose(32, 32, 1);
        let r = try_analyze(&k, &m, &AnalysisOptions::new(8)).unwrap();
        assert!(r.cost.fs.fs_cases > 0);
        assert!(r.fs_percent() > 0.0);
        let padded = kernels::dotprod_partials(8, 64, true);
        let r2 = try_analyze(&padded, &m, &AnalysisOptions::new(8)).unwrap();
        assert_eq!(r2.cost.fs.fs_cases, 0);
        assert_eq!(r2.fs_percent(), 0.0);
    }

    #[test]
    fn prediction_option_wires_through() {
        let m = machines::paper48();
        let k = kernels::dft(64, 128, 1);
        let full = try_analyze(&k, &m, &AnalysisOptions::new(8)).unwrap();
        let pred = try_analyze(&k, &m, &AnalysisOptions::new(8).predict(48).build()).unwrap();
        // Predicted evaluation touches fewer iterations.
        assert!(pred.cost.fs.iterations < full.cost.fs.iterations);
        // But the FS cycle estimates stay in the same ballpark.
        let ratio = pred.cost.fs_cycles / full.cost.fs_cycles.max(1.0);
        assert!(ratio > 0.5 && ratio < 2.0, "ratio = {ratio}");
    }

    #[test]
    fn try_analyze_rejects_invalid_kernels() {
        let m = machines::paper48();
        let mut k = kernels::stencil1d(66, 1);
        k.nest.parallel.schedule = loop_ir::Schedule::Static { chunk: 0 };
        let err = try_analyze(&k, &m, &AnalysisOptions::new(2)).unwrap_err();
        assert!(matches!(err, AnalysisError::UnsupportedSchedule { .. }));
    }

    #[test]
    fn try_analyze_rejects_structurally_bad_kernels() {
        let m = machines::paper48();
        let mut k = kernels::stencil1d(66, 1);
        k.nest.body.clear();
        let err = try_analyze(&k, &m, &AnalysisOptions::new(2)).unwrap_err();
        assert!(matches!(err, AnalysisError::Validation(_)));
    }

    #[test]
    fn try_analyze_rejects_zero_threads_and_bad_machines() {
        let m = machines::paper48();
        let k = kernels::stencil1d(66, 1);
        let err = try_analyze(&k, &m, &AnalysisOptions::new(0)).unwrap_err();
        assert!(matches!(err, AnalysisError::UnsupportedSchedule { .. }));
        let mut bad = machines::paper48();
        bad.caches.line_size = 0;
        let err = try_analyze(&k, &bad, &AnalysisOptions::new(2)).unwrap_err();
        assert!(matches!(err, AnalysisError::MachineConfig { .. }));
    }

    #[test]
    fn try_analyze_accepts_64_threads_and_rejects_65() {
        let m = machines::paper48();
        let k = kernels::stencil1d(258, 1);
        assert!(try_analyze(&k, &m, &AnalysisOptions::new(64)).is_ok());
        let err = try_analyze(&k, &m, &AnalysisOptions::new(65)).unwrap_err();
        match err {
            AnalysisError::Validation(loop_ir::ValidateError::TeamTooLarge { requested, max }) => {
                assert_eq!((requested, max), (65, cost_model::MAX_MODEL_THREADS));
            }
            other => panic!("expected TeamTooLarge validation error, got {other:?}"),
        }
    }

    #[test]
    fn try_analyze_dsl_reports_parse_errors() {
        let m = machines::paper48();
        let err = try_analyze_dsl("kernel broken {", &m, &AnalysisOptions::new(2)).unwrap_err();
        assert!(matches!(err, AnalysisError::Parse(_)));
        let ok = try_analyze_dsl(
            "kernel ok {
               array a[64]: f64;
               parallel for i in 0..64 schedule(static, 1) { a[i] += 1.0; }
             }",
            &m,
            &AnalysisOptions::new(4),
        );
        assert!(ok.is_ok());
    }
}
