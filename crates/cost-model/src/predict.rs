//! The false-sharing *prediction* model (paper §III-E): fit a linear
//! regression to the cumulative FS count over the first few chunk runs and
//! extrapolate to the whole loop, avoiding the full
//! `All_num_of_iters / num_threads` evaluation.

use crate::fs::{
    dispatch_fs_model, record_model_run, try_symbolic, FsModelConfig, FsModelResult, FsPath,
};
use loop_ir::{AccessPlan, Kernel};

/// Least-squares fit `y = a*x + b`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    pub a: f64,
    pub b: f64,
    /// Coefficient of determination on the fitted points.
    pub r2: f64,
}

impl LinearFit {
    pub fn predict(&self, x: f64) -> f64 {
        self.a * x + self.b
    }
}

/// Ordinary least squares over `(x, y)` points. Returns `None` for fewer
/// than two points or a degenerate x-range.
pub fn least_squares(points: &[(f64, f64)]) -> Option<LinearFit> {
    let n = points.len() as f64;
    if points.len() < 2 {
        return None;
    }
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    let a = (n * sxy - sx * sy) / denom;
    let b = (sy - a * sx) / n;
    let mean_y = sy / n;
    let ss_tot: f64 = points.iter().map(|p| (p.1 - mean_y).powi(2)).sum();
    let ss_res: f64 = points.iter().map(|p| (p.1 - (a * p.0 + b)).powi(2)).sum();
    let r2 = if ss_tot <= 1e-12 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    Some(LinearFit { a, b, r2 })
}

/// Outcome of a predicted FS evaluation.
#[derive(Debug, Clone)]
pub struct FsPrediction {
    /// The truncated model evaluation the fit was built from.
    pub sample: FsModelResult,
    pub fit: LinearFit,
    /// Predicted total FS cases at `x_max` = total chunk runs
    /// (`y_max = a*x_max + b`).
    pub predicted_cases: f64,
    /// Predicted total FS *events* (binary per-insertion conflicts), from a
    /// separate fit over the events series; feeds the cycle conversion.
    pub predicted_events: f64,
    /// Chunk runs evaluated to build the fit.
    pub chunk_runs_evaluated: u64,
    /// x_max used for the extrapolation.
    pub total_chunk_runs: u64,
    /// `true` when the counts are *exact* — on the symbolic path the whole
    /// loop was evaluated (in closed form or by the dense walk), so no
    /// regression was fitted and `predicted_cases`/`predicted_events` carry
    /// zero extrapolation error.
    pub exact: bool,
}

impl FsPrediction {
    /// Fraction of the full evaluation that was actually run — the paper's
    /// efficiency headline (e.g. 160 of 3,125,000 iterations).
    pub fn evaluation_fraction(&self) -> f64 {
        if self.total_chunk_runs == 0 {
            1.0
        } else {
            self.chunk_runs_evaluated as f64 / self.total_chunk_runs as f64
        }
    }
}

/// Predict the total FS cases of `kernel` by evaluating only `chunk_runs`
/// chunk runs and extrapolating linearly (paper §III-E).
///
/// The fit uses the *second half* of the sampled series: the first chunk
/// runs include the cold-start transient (remote cache states are not yet
/// populated, so conflicts are undercounted) and the steady-state slope is
/// what extrapolates. Sampling at least two instances of the parallel
/// region (when the parallel loop sits under a sequential outer loop) makes
/// the tail representative; the experiment harness does so.
///
/// Returns `None` if the sampled series is too short to fit (e.g. the whole
/// loop fits in fewer than two chunk runs) — callers should fall back to
/// [`crate::run_fs_model`].
pub fn predict_fs(kernel: &Kernel, cfg: &FsModelConfig, chunk_runs: u64) -> Option<FsPrediction> {
    let plan = kernel.access_plan();
    let bases = kernel.array_bases(cfg.line_size);
    predict_fs_prepared(kernel, cfg, chunk_runs, &plan, &bases)
}

/// [`predict_fs`] with the schedule-independent access plan and array bases
/// precomputed (see [`crate::run_fs_model_prepared`]).
pub fn predict_fs_prepared(
    kernel: &Kernel,
    cfg: &FsModelConfig,
    chunk_runs: u64,
    plan: &AccessPlan,
    bases: &[u64],
) -> Option<FsPrediction> {
    predict_dispatch(kernel, cfg, chunk_runs, plan, bases).map(|(p, _)| p)
}

/// [`predict_fs_prepared`], also returning the engine that produced the
/// prediction's model run (see [`crate::fs::dispatch_fs_model`]).
pub(crate) fn predict_dispatch(
    kernel: &Kernel,
    cfg: &FsModelConfig,
    chunk_runs: u64,
    plan: &AccessPlan,
    bases: &[u64],
) -> Option<(FsPrediction, FsPath)> {
    let _span = fs_obs::span("predict.fit");
    // On the symbolic path, every run the engine does not decline is
    // evaluated exactly — in closed form, or by the dense walk it hands the
    // run to — so return those counts in place of a fit. Falls through to
    // the sampled regression when the symbolic engine declines (outside the
    // decidable fragment or its direct-work budget).
    if cfg.path == FsPath::Symbolic {
        if let Some((full, engine)) = try_symbolic(kernel, cfg, plan, bases, false) {
            // A full model run in its own right.
            record_model_run(&full, engine);
            let cases = full.fs_cases as f64;
            let x_max = full.total_chunk_runs;
            let prediction = FsPrediction {
                chunk_runs_evaluated: full.evaluated_chunk_runs,
                total_chunk_runs: x_max,
                predicted_cases: cases,
                predicted_events: full.fs_events as f64,
                // The exact line through the origin at the loop's mean
                // per-run rate; predict(x_max) reproduces the exact count.
                fit: LinearFit {
                    a: cases / x_max.max(1) as f64,
                    b: 0.0,
                    r2: 1.0,
                },
                exact: true,
                sample: full,
            };
            return Some((prediction, engine));
        }
    }
    fs_obs::counters::PREDICT_FITS.inc();
    let mut sample_cfg = cfg.clone();
    if sample_cfg.path == FsPath::Symbolic {
        // Already fell off the closed-form fragment above; sample densely
        // rather than re-attempting (and re-counting) the fragment gate.
        sample_cfg.path = FsPath::Optimized;
    }
    sample_cfg.max_chunk_runs = Some(chunk_runs.max(2));
    let (sample, engine) = dispatch_fs_model(kernel, &sample_cfg, plan, bases);
    let all: Vec<(f64, f64)> = sample
        .series
        .iter()
        .map(|&(x, y)| (x as f64, y as f64))
        .collect();
    let tail_start = (all.len() / 2).min(all.len().saturating_sub(2));
    let points = &all[tail_start..];
    let fit = least_squares(points)?;
    let x_max = sample.total_chunk_runs;
    let predicted = fit.predict(x_max as f64).max(0.0);
    let ev_points: Vec<(f64, f64)> = sample
        .events_series
        .iter()
        .map(|&(x, y)| (x as f64, y as f64))
        .collect();
    let predicted_events =
        least_squares(&ev_points[tail_start.min(ev_points.len().saturating_sub(2))..])
            .map(|f| f.predict(x_max as f64).max(0.0))
            .unwrap_or(sample.fs_events as f64);
    let prediction = FsPrediction {
        chunk_runs_evaluated: sample.evaluated_chunk_runs,
        total_chunk_runs: x_max,
        predicted_cases: predicted,
        predicted_events,
        fit,
        exact: false,
        sample,
    };
    Some((prediction, engine))
}

#[cfg(test)]
mod tests {
    use super::*;
    use loop_ir::kernels;
    use machine::presets;

    fn cfg(threads: u32) -> FsModelConfig {
        FsModelConfig::for_machine(&presets::paper48(), threads)
    }

    #[test]
    fn least_squares_recovers_exact_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 + 7.0)).collect();
        let fit = least_squares(&pts).unwrap();
        assert!((fit.a - 3.0).abs() < 1e-9);
        assert!((fit.b - 7.0).abs() < 1e-9);
        assert!((fit.r2 - 1.0).abs() < 1e-9);
        assert!((fit.predict(100.0) - 307.0).abs() < 1e-6);
    }

    #[test]
    fn least_squares_degenerate_inputs() {
        assert!(least_squares(&[]).is_none());
        assert!(least_squares(&[(1.0, 2.0)]).is_none());
        assert!(least_squares(&[(1.0, 2.0), (1.0, 3.0)]).is_none());
        // Flat line fits with a = 0 and perfect r2.
        let fit = least_squares(&[(0.0, 5.0), (1.0, 5.0), (2.0, 5.0)]).unwrap();
        assert_eq!(fit.a, 0.0);
        assert_eq!(fit.b, 5.0);
        assert_eq!(fit.r2, 1.0);
    }

    #[test]
    fn prediction_close_to_full_model_on_dft() {
        // 256 bins / 8 threads = 32 chunk runs per outer instance; sampling
        // 96 runs spans three instances so the fitted tail is steady-state.
        let k = kernels::dft(128, 256, 1);
        let full = crate::fs::run_fs_model(&k, &cfg(8));
        let pred = predict_fs(&k, &cfg(8), 96).unwrap();
        let err = (pred.predicted_cases - full.fs_cases as f64).abs() / full.fs_cases as f64;
        assert!(
            err < 0.05,
            "predicted {} vs modeled {} (err {:.1}%)",
            pred.predicted_cases,
            full.fs_cases,
            err * 100.0
        );
        assert!(pred.evaluation_fraction() < 0.05);
        assert!(pred.fit.r2 > 0.99);
    }

    #[test]
    fn prediction_close_on_outer_parallel_linreg() {
        let k = kernels::linear_regression(96, 64, 1);
        let full = crate::fs::run_fs_model(&k, &cfg(8));
        let pred = predict_fs(&k, &cfg(8), 4).unwrap();
        let err = (pred.predicted_cases - full.fs_cases as f64).abs() / full.fs_cases.max(1) as f64;
        assert!(
            err < 0.15,
            "predicted {} vs modeled {} (err {:.1}%)",
            pred.predicted_cases,
            full.fs_cases,
            err * 100.0
        );
    }

    #[test]
    fn symbolic_path_prediction_is_exact() {
        let k = kernels::dft(128, 256, 1);
        let mut c = cfg(8);
        c.path = FsPath::Symbolic;
        let pred = predict_fs(&k, &c, 4).expect("symbolic prediction");
        assert!(pred.exact);
        let full = crate::fs::run_fs_model(&k, &c);
        assert_eq!(pred.predicted_cases, full.fs_cases as f64);
        assert_eq!(pred.predicted_events, full.fs_events as f64);
        assert_eq!(pred.sample, full);
        let at_xmax = pred.fit.predict(pred.total_chunk_runs as f64);
        assert!((at_xmax - pred.predicted_cases).abs() < 1e-6);
    }

    /// On the symbolic path a prediction is exact whichever exact engine
    /// answers — the dense walk the symbolic engine hands small and
    /// period-free runs to, or the closed form — and a declined kernel
    /// still gets the regression fit.
    #[test]
    fn symbolic_prediction_is_exact_in_both_regimes_and_fitted_outside() {
        let mut c = cfg(8);
        c.path = FsPath::Symbolic;
        let mut reference = c.clone();
        reference.path = FsPath::Reference;
        let direct = kernels::heat_diffusion(34, 258, 1);
        let closed_form = kernels::heat_diffusion(130, 258, 1);
        for (k, engine) in [
            (&direct, FsPath::Optimized),
            (&closed_form, FsPath::Symbolic),
        ] {
            let plan = k.access_plan();
            let bases = k.array_bases(c.line_size);
            let (pred, ran) = predict_dispatch(k, &c, 4, &plan, &bases).expect("prediction");
            assert_eq!(ran, engine, "heat {:?}", k.arrays[0].dims);
            assert!(pred.exact);
            let full = crate::fs::run_fs_model(k, &reference);
            assert_eq!(pred.sample, full);
            assert_eq!(pred.predicted_cases, full.fs_cases as f64);
            assert_eq!(pred.predicted_events, full.fs_events as f64);
        }

        // Triangular inner bounds: outside the fragment, so fitted.
        let tri = loop_ir::dsl::parse_kernel(
            "kernel tri {
  array A[64][64]: f64;
  parallel for i in 0..64 schedule(static, 1) {
    for j in 0..i + 1 {
      A[i][j] = 1.0;
    }
  }
}",
        )
        .expect("triangular kernel parses");
        let pred = predict_fs(&tri, &c, 4).expect("regression prediction");
        assert!(!pred.exact);
        assert_eq!(pred.chunk_runs_evaluated, 4);
    }

    #[test]
    fn regression_path_is_not_exact() {
        let k = kernels::dft(128, 256, 1);
        let pred = predict_fs(&k, &cfg(8), 96).unwrap();
        assert!(!pred.exact);
    }

    /// Why `point_key` keeps the FS path: on the same in-fragment kernel,
    /// `Symbolic` predicts the exact full-model count while `Optimized`
    /// fits a regression to a truncated sample.
    #[test]
    fn path_decides_exact_or_fitted_prediction() {
        let k = kernels::heat_diffusion(34, 258, 1);
        let mut c = cfg(8);
        c.path = FsPath::Symbolic;
        let exact = predict_fs(&k, &c, 8).expect("symbolic prediction");
        assert!(exact.exact);
        assert_eq!(
            exact.predicted_cases,
            crate::fs::run_fs_model(&k, &c).fs_cases as f64
        );
        c.path = FsPath::Optimized;
        let fitted = predict_fs(&k, &c, 8).expect("regression prediction");
        assert!(!fitted.exact);
        assert_ne!(fitted.predicted_cases, exact.predicted_cases);
    }

    #[test]
    fn prediction_is_nonnegative_for_fs_free_loops() {
        let k = kernels::dotprod_partials(8, 4096, true);
        let pred = predict_fs(&k, &cfg(8), 4);
        if let Some(p) = pred {
            assert_eq!(p.predicted_cases, 0.0);
        }
    }

    #[test]
    fn fraction_reflects_truncation() {
        let k = kernels::dft(256, 1024, 1);
        let pred = predict_fs(&k, &cfg(8), 20).unwrap();
        assert_eq!(pred.chunk_runs_evaluated, 20);
        assert_eq!(pred.total_chunk_runs, 256 * 1024 / 8);
        assert!(pred.evaluation_fraction() < 0.001);
    }
}
