//! Experiment harness: the workload definitions, thread sweeps and row
//! computations of the paper's evaluation.
//!
//! [`repro`] regenerates every table and figure in one pass that evaluates
//! each distinct point once (`all_experiments` prints it);
//! [`fs_effect_table`] and [`prediction_table`] build single tables from
//! the same per-row helpers.
//!
//! Scaling note (recorded in EXPERIMENTS.md): the paper's kernels are
//! 5000x5000-class problems measured on real hardware; our substitute
//! executes every memory access through the MESI simulator, so the default
//! scales keep the *structure* (trip-count ratios, chunk sizes, thread
//! sweep 2..48) while shrinking totals to simulator-friendly sizes.

use cost_model::{machine_cost, modeled_fs_overhead, AnalysisOptions, FsPath};
use loop_ir::Kernel;
use machine::MachineConfig;

pub mod repro;

pub use cache_sim::{simulate_kernel, SimOptions, SimPath, SimPrepared};
pub use loop_ir::kernels;
pub use machine::presets::paper48;

/// The thread counts of every table in the paper.
pub fn paper_thread_counts() -> Vec<u32> {
    vec![2, 4, 8, 16, 24, 32, 40, 48]
}

/// Default experiment scales: (kernel ctor by chunk, fs chunk, nfs chunk).
pub mod scale {
    use loop_ir::{kernels, Kernel};

    /// Heat diffusion: 64 outer rows x 3072-wide parallel inner loop
    /// (paper: 5000x5000), chunk 1 vs 64.
    pub fn heat(chunk: u64, _threads: u32) -> Kernel {
        kernels::heat_diffusion(66, 3074, chunk)
    }
    pub const HEAT_CHUNKS: (u64, u64) = (1, 64);

    /// DFT: 64 input samples scattered into 3072 bins, chunk 1 vs 16.
    pub fn dft(chunk: u64, _threads: u32) -> Kernel {
        kernels::dft(64, 3072, chunk)
    }
    pub const DFT_CHUNKS: (u64, u64) = (1, 16);

    /// Linear regression: 960 series, 9600 total points per series divided
    /// across the team (the paper's `M/num_threads` strong-scaling inner
    /// loop; paper scale: 9600 series x 50M points), outer-parallel, chunk
    /// 1 vs 10.
    pub fn linreg(chunk: u64, threads: u32) -> Kernel {
        kernels::linear_regression_scaled(960, 9600, threads as u64, chunk)
    }
    pub const LINREG_CHUNKS: (u64, u64) = (1, 10);
}

/// "Measured" execution time of a kernel: MESI-simulated memory makespan
/// plus the processor model's compute cycles, converted to seconds on the
/// target machine. This is the reproduction's substitute for the paper's
/// wall-clock columns.
pub fn measured_time_seconds(kernel: &Kernel, machine: &MachineConfig, threads: u32) -> f64 {
    let prepared = SimPrepared::new(kernel, machine.line_size());
    measured_time_seconds_prepared(kernel, machine, threads, &prepared)
}

/// [`measured_time_seconds`] with the trace planning already done. The
/// FS/no-FS halves of every table row differ only in chunk size, which is
/// exactly the schedule-only variation [`SimPrepared`] permits, so one
/// preparation serves the whole pair.
pub fn measured_time_seconds_prepared(
    kernel: &Kernel,
    machine: &MachineConfig,
    threads: u32,
    prepared: &SimPrepared,
) -> f64 {
    let compute = machine_cost(kernel, &machine.processor).cycles_per_iter;
    let cycles = cache_sim::simulated_time_cycles_prepared(
        kernel,
        machine,
        SimOptions::new(threads),
        compute,
        prepared,
    );
    machine.cycles_to_seconds(cycles)
}

/// One row of a Tables I-III style comparison.
#[derive(Debug, Clone)]
pub struct FsEffectRow {
    pub threads: u32,
    /// Measured (simulated) seconds with the FS-inducing chunk.
    pub t_fs: f64,
    /// Measured seconds with the FS-free chunk.
    pub t_nfs: f64,
    /// `(t_fs - t_nfs)/t_fs` in percent.
    pub measured_pct: f64,
    /// The compile-time model's estimate (Eq. 5 RHS) in percent.
    pub modeled_pct: f64,
}

/// Build a Tables I-III comparison over `threads` for a kernel family.
///
/// Rows are independent (kernel × threads × chunk) points, so they are
/// evaluated concurrently on the `fs-runtime` pool via
/// [`fs_core::run_indexed`] — results come back in canonical `threads`
/// order regardless of worker count (`FS_SIM_WORKERS` overrides the
/// default of one worker per available core). Within a row, the FS and
/// no-FS kernels differ only in chunk size, so the trace planning is done
/// once and shared across the pair.
pub fn fs_effect_table(
    mk: impl Fn(u64, u32) -> Kernel + Sync,
    chunks: (u64, u64),
    machine: &MachineConfig,
    threads: &[u32],
) -> Vec<FsEffectRow> {
    let (c_fs, c_nfs) = chunks;
    fs_core::run_indexed(threads.len(), fs_core::sim_workers(), |i| {
        let t = threads[i];
        let k_fs = mk(c_fs, t);
        let k_nfs = mk(c_nfs, t);
        let prepared = SimPrepared::new(&k_fs, machine.line_size());
        let t_fs = measured_time_seconds_prepared(&k_fs, machine, t, &prepared);
        let t_nfs = measured_time_seconds_prepared(&k_nfs, machine, t, &prepared);
        let full = full_model(&k_fs, &k_nfs, machine, t);
        effect_row(t, t_fs, t_nfs, &full)
    })
}

/// The full model of one FS/no-FS kernel pair, reduced to what the tables
/// print, plus the engine that ran each kernel.
#[derive(Debug)]
struct FullModel {
    fs_cases: u64,
    nfs_cases: u64,
    fs_overhead_fraction: f64,
    /// `LoopCost::fs_path` of the FS and the no-FS kernel, for the test
    /// that pins where the closed form engages.
    #[cfg(test)]
    paths: (FsPath, FsPath),
}

/// Full runs give the same result on every FS path, so the pair runs on
/// the symbolic one: the closed form where a period verifies, the dense
/// walk elsewhere.
fn full_model(k_fs: &Kernel, k_nfs: &Kernel, machine: &MachineConfig, threads: u32) -> FullModel {
    let opts = AnalysisOptions::new(threads).path(FsPath::Symbolic);
    let m = modeled_fs_overhead(k_fs, k_nfs, machine, &opts);
    FullModel {
        fs_cases: m.fs_loop.fs.fs_cases,
        nfs_cases: m.nfs_loop.fs.fs_cases,
        fs_overhead_fraction: m.fs_overhead_fraction,
        #[cfg(test)]
        paths: (m.fs_loop.fs_path, m.nfs_loop.fs_path),
    }
}

/// The §III-E prediction of one kernel from `runs` sampled chunk runs,
/// reduced to what the tables print.
#[derive(Debug)]
struct Predicted {
    runs: u64,
    /// `None` when the series was too short to fit.
    cases: Option<f64>,
    fs_cycles: f64,
    total_cycles: f64,
}

fn predicted(kernel: &Kernel, machine: &MachineConfig, threads: u32, runs: u64) -> Predicted {
    let l = cost_model::analyze_loop(
        kernel,
        machine,
        &AnalysisOptions::new(threads).predict(runs),
    );
    Predicted {
        runs,
        cases: l.fs_predicted_cases,
        fs_cycles: l.fs_cycles,
        total_cycles: l.total_cycles,
    }
}

/// The row arithmetic of Tables I-III.
fn effect_row(threads: u32, t_fs: f64, t_nfs: f64, full: &FullModel) -> FsEffectRow {
    FsEffectRow {
        threads,
        t_fs,
        t_nfs,
        measured_pct: ((t_fs - t_nfs) / t_fs).max(0.0) * 100.0,
        modeled_pct: full.fs_overhead_fraction * 100.0,
    }
}

/// The row arithmetic of Tables IV-VI.
fn prediction_row(
    threads: u32,
    full: &FullModel,
    fs: &Predicted,
    nfs: &Predicted,
) -> PredictionRow {
    let pred_pct = if fs.total_cycles > 0.0 {
        ((fs.fs_cycles - nfs.fs_cycles).max(0.0) / fs.total_cycles) * 100.0
    } else {
        0.0
    };
    PredictionRow {
        threads,
        // A series too short to fit falls back to the full model count.
        pred_fs_cases: fs.cases.unwrap_or(full.fs_cases as f64),
        pred_nfs_cases: nfs.cases.unwrap_or(full.nfs_cases as f64),
        pred_pct,
        modeled_fs_cases: full.fs_cases,
        modeled_nfs_cases: full.nfs_cases,
        modeled_pct: full.fs_overhead_fraction * 100.0,
        sample_runs: fs.runs,
    }
}

/// One row of a Tables IV-VI style prediction comparison.
#[derive(Debug, Clone)]
pub struct PredictionRow {
    pub threads: u32,
    pub pred_fs_cases: f64,
    pub pred_nfs_cases: f64,
    pub pred_pct: f64,
    pub modeled_fs_cases: u64,
    pub modeled_nfs_cases: u64,
    pub modeled_pct: f64,
    /// Chunk runs the prediction evaluated.
    pub sample_runs: u64,
}

/// Chunk runs to sample: at least the paper's nominal count, and at least
/// ~2.2 parallel-region instances so the fitted tail is steady-state (see
/// `cost_model::predict_fs`).
pub fn sample_runs(kernel: &Kernel, threads: u32, nominal: u64) -> u64 {
    let trip = kernel.nest.parallel_trip_count().unwrap_or(1).max(1);
    let chunk = kernel.nest.parallel.schedule.chunk().max(1);
    let per_instance = trip.div_ceil(chunk * threads as u64).max(1);
    let outer = kernel.nest.outer_iters().unwrap_or(1).max(1);
    if outer <= 1 {
        // Single parallel region: the nominal sample is already steady.
        nominal.max(4)
    } else {
        nominal.max(2 * per_instance + per_instance / 4).max(4)
    }
}

/// Build a Tables IV-VI comparison. Rows are model-side only (no simulator
/// replay) but still independent, so they run on the pool like
/// [`fs_effect_table`] rows, with the same deterministic ordering.
pub fn prediction_table(
    mk: impl Fn(u64, u32) -> Kernel + Sync,
    chunks: (u64, u64),
    machine: &MachineConfig,
    threads: &[u32],
    nominal_runs: u64,
) -> Vec<PredictionRow> {
    let (c_fs, c_nfs) = chunks;
    fs_core::run_indexed(threads.len(), fs_core::sim_workers(), |i| {
        let t = threads[i];
        let k_fs = mk(c_fs, t);
        let k_nfs = mk(c_nfs, t);
        let runs_fs = sample_runs(&k_fs, t, nominal_runs);
        let runs_nfs = sample_runs(&k_nfs, t, nominal_runs);
        let full = full_model(&k_fs, &k_nfs, machine, t);
        let fs = predicted(&k_fs, machine, t, runs_fs);
        let nfs = predicted(&k_nfs, machine, t, runs_nfs);
        prediction_row(t, &full, &fs, &nfs)
    })
}

/// Render a Tables I-III style table.
pub fn render_fs_effect(title: &str, rows: &[FsEffectRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {title}\n"));
    out.push_str(&format!(
        "{:>8} {:>14} {:>14} {:>14} {:>12}\n",
        "threads", "T_fs (s)", "T_nfs (s)", "measured FS%", "modeled FS%"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>8} {:>14.6} {:>14.6} {:>13.1}% {:>11.1}%\n",
            r.threads, r.t_fs, r.t_nfs, r.measured_pct, r.modeled_pct
        ));
    }
    out
}

/// Render a Tables IV-VI style table.
pub fn render_prediction(title: &str, rows: &[PredictionRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {title}\n"));
    out.push_str(&format!(
        "{:>8} {:>14} {:>14} {:>9} {:>14} {:>14} {:>9} {:>7}\n",
        "threads",
        "pred FS(fs)",
        "pred FS(nfs)",
        "pred %",
        "model FS(fs)",
        "model FS(nfs)",
        "model %",
        "runs"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>8} {:>14.0} {:>14.0} {:>8.1}% {:>14} {:>14} {:>8.1}% {:>7}\n",
            r.threads,
            r.pred_fs_cases,
            r.pred_nfs_cases,
            r.pred_pct,
            r.modeled_fs_cases,
            r.modeled_nfs_cases,
            r.modeled_pct,
            r.sample_runs
        ));
    }
    out
}

/// Turn on `fs-obs` counters for an experiment binary. Spans stay off:
/// the tables only need the `sim.*` totals, and counters are the cheap
/// half of the registry (atomic adds, no event sink).
pub fn enable_sim_counters() {
    let mut cfg = fs_core::obs::config();
    cfg.counters = true;
    fs_core::obs::configure(cfg);
}

/// One-line summary of the process's `sim.*` counters and of the FS
/// engine mix (see `docs/OBSERVABILITY.md` for the taxonomy).
pub fn sim_summary() -> String {
    let snap = fs_core::obs::snapshot();
    format!(
        "sim: {} replays ({} dense, {} reference), {} points on {} workers, \
         {} accesses, {} coherence misses ({} FS, {} TS); \
         fs: {} closed form, {} dense ({} symbolic direct, {} symbolic fallbacks)",
        snap.counter("sim.replays"),
        snap.counter("sim.dispatch_dense"),
        snap.counter("sim.dispatch_reference"),
        snap.counter("sim.points_evaluated"),
        snap.gauge("sim.workers").max(1),
        snap.counter("sim.accesses"),
        snap.counter("sim.coherence_misses"),
        snap.counter("sim.false_sharing"),
        snap.counter("sim.true_sharing"),
        snap.counter("fs.dispatch_symbolic"),
        snap.counter("fs.dispatch_dense"),
        snap.counter("fs.symbolic_direct"),
        snap.counter("fs.symbolic_fallbacks"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_runs_spans_instances_for_inner_parallel() {
        let k = scale::heat(1, 48);
        // trip 3072, T=48 -> 64 runs per instance; 64 outer loops.
        let r = sample_runs(&k, 48, 20);
        assert!(r >= 128, "r = {r}");
        // Outer-parallel linreg keeps the nominal count.
        let k2 = scale::linreg(1, 48);
        assert_eq!(sample_runs(&k2, 48, 10), 10);
    }

    #[test]
    fn fs_effect_rows_have_positive_overheads() {
        let m = paper48();
        let rows = fs_effect_table(
            |c, _| kernels::heat_diffusion(34, 1026, c),
            (1, 64),
            &m,
            &[2, 8],
        );
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.t_fs > r.t_nfs, "T={}", r.threads);
            assert!(r.measured_pct > 0.0);
            assert!(r.modeled_pct > 0.0);
        }
    }

    #[test]
    fn sim_summary_reports_replays() {
        enable_sim_counters();
        let m = paper48();
        let prepared = SimPrepared::new(&kernels::stencil1d(130, 1), m.line_size());
        let t = measured_time_seconds_prepared(&kernels::stencil1d(130, 1), &m, 2, &prepared);
        assert!(t > 0.0);
        let s = sim_summary();
        assert!(
            s.contains("replays") && s.contains("coherence misses"),
            "{s}"
        );
        assert!(s.contains("closed form") && s.contains("symbolic fallbacks"));
    }

    /// The golden tables cannot tell which engine computed a full model;
    /// this pins that the linear-regression and heat pairs get the closed
    /// form at 8 threads, from each result's own path rather than the
    /// process-wide counters that concurrent tests share.
    #[test]
    fn full_models_take_the_closed_form_on_linreg_and_heat() {
        let m = paper48();
        let (l, h) = (scale::LINREG_CHUNKS, scale::HEAT_CHUNKS);
        for (name, k_fs, k_nfs) in [
            ("linreg", scale::linreg(l.0, 8), scale::linreg(l.1, 8)),
            ("heat", scale::heat(h.0, 8), scale::heat(h.1, 8)),
        ] {
            let full = full_model(&k_fs, &k_nfs, &m, 8);
            assert_eq!(full.paths, (FsPath::Symbolic, FsPath::Symbolic), "{name}");
        }
    }

    /// Regenerate the 8-thread row of a Tables IV-VI style table and
    /// compare it byte for byte with its line in the committed results.
    fn assert_prediction_row_matches_golden(
        title: &str,
        mk: impl Fn(u64, u32) -> Kernel + Sync,
        chunks: (u64, u64),
        nominal_runs: u64,
    ) {
        let golden = include_str!("../../../bench_results_all_experiments.txt");
        let table = golden
            .split("## ")
            .find(|t| t.starts_with(title))
            .unwrap_or_else(|| panic!("{title}: not in the committed results"));
        let want = table
            .lines()
            .find(|l| l.split_whitespace().next() == Some("8"))
            .unwrap_or_else(|| panic!("{title}: no 8-thread row"));
        let rows = prediction_table(mk, chunks, &paper48(), &[8], nominal_runs);
        let rendered = render_prediction(title, &rows);
        let got = rendered.lines().last().unwrap();
        assert_eq!(got, want, "{title}: 8-thread row drifted");
    }

    #[test]
    fn table4_heat_prediction_row_matches_golden() {
        assert_prediction_row_matches_golden(
            "Table IV: predicted vs modeled FS cases, heat diffusion (nominal 20 chunk runs)",
            scale::heat,
            scale::HEAT_CHUNKS,
            20,
        );
    }

    #[test]
    fn table5_dft_prediction_row_matches_golden() {
        assert_prediction_row_matches_golden(
            "Table V: predicted vs modeled FS cases, DFT (nominal 50 chunk runs)",
            scale::dft,
            scale::DFT_CHUNKS,
            50,
        );
    }

    #[test]
    fn table6_linreg_prediction_row_matches_golden() {
        assert_prediction_row_matches_golden(
            "Table VI: predicted vs modeled FS cases, linear regression (nominal 10 chunk runs)",
            scale::linreg,
            scale::LINREG_CHUNKS,
            10,
        );
    }

    #[test]
    fn render_contains_all_rows() {
        let rows = vec![FsEffectRow {
            threads: 2,
            t_fs: 1.0,
            t_nfs: 0.5,
            measured_pct: 50.0,
            modeled_pct: 45.0,
        }];
        let s = render_fs_effect("Table X", &rows);
        assert!(s.contains("Table X") && s.contains("50.0%") && s.contains("45.0%"));
    }
}
