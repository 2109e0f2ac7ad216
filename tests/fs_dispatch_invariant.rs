//! The FS model's three-way dispatch invariant: every full model run is
//! answered by exactly one engine, so `fs.dispatch_dense +
//! fs.dispatch_reference + fs.dispatch_symbolic == fs.model_runs`, whether
//! the run came from the dispatcher or from the predictor's symbolic
//! short-circuit. Every [`FsPath::Symbolic`] attempt ends in exactly one
//! of three ways — a closed form (`fs.dispatch_symbolic`), an exact run on
//! the dense tables without one (`fs.symbolic_direct`), or a decline
//! outside the decidable fragment (`fs.symbolic_fallbacks`) — and
//! `LoopCost::fs_path` names the engine that answered. Only a closed form
//! applies steps in closed form (`fs.symbolic_extrapolated_steps`).
//!
//! A test binary of its own: the counters are process-global, so no other
//! test may run the model while this one reads them, and the tests here
//! take turns through [`COUNTERS`].

use cost_model::{
    analyze_loop, evaluate_point, kernel_at_chunk, AnalysisOptions, EarlyExit, EvalMode, MemoCache,
};
use fs_core::obs::{self, counters};
use fs_core::{corpus_kernel_with_consts, FsPath};
use loop_ir::{ArrayRef, Expr, Kernel, KernelBuilder, ScalarType, Schedule, Stmt};
use machine::presets;
use std::sync::Mutex;

/// Held by every test that reads the process-global counters.
static COUNTERS: Mutex<()> = Mutex::new(());

/// How the symbolic engine answers a kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Regime {
    /// A verified closed form.
    ClosedForm,
    /// In the fragment, no closed form: run on the dense tables.
    Direct,
    /// Outside the fragment.
    Declined,
}

/// Every corpus kernel at a small problem size (const names as in
/// `crates/core/src/corpus.rs`). At these sizes the symbolic engine hands
/// all of them to the dense walk.
fn small_corpus() -> Vec<Kernel> {
    let consts: [(&str, &[(&str, i64)]); 6] = [
        ("dft", &[("N", 8), ("K", 32)]),
        ("heat", &[("N", 6), ("M", 34)]),
        ("histogram", &[("T", 8), ("N", 64)]),
        ("linreg", &[("N", 48), ("M", 8)]),
        ("matmul", &[("N", 8), ("M", 8), ("P", 8)]),
        ("stencil", &[("N", 66)]),
    ];
    consts
        .iter()
        .map(|(name, c)| corpus_kernel_with_consts(name, c).expect("corpus kernel builds"))
        .collect()
}

/// Triangular inner bounds: outside the symbolic fragment.
fn triangular_kernel() -> Kernel {
    fs_core::parse_kernel(
        "kernel tri {
  array A[32][32]: f64;
  parallel for i in 0..32 schedule(static, 2) {
    for j in 0..i + 1 {
      A[i][j] = 1.0;
    }
  }
}",
    )
    .expect("triangular kernel parses")
}

/// A kernel whose footprint (2^23 lines) exceeds the FS model's dense-table
/// limit (2^22 lines) but which touches only 64 lines.
fn oversized_kernel() -> Kernel {
    let stride = 1 << 20;
    let mut b = KernelBuilder::new("sparse_touch");
    let i = b.loop_var("i");
    let a = b.array("A", &[64 * stride as u64], ScalarType::F64);
    b.parallel_for(i, 0, 64, Schedule::Static { chunk: 1 });
    b.stmt(Stmt::assign(
        ArrayRef::write(a, vec![b.idx(i) * stride]),
        Expr::num(1.0),
    ));
    b.build()
}

/// Heat diffusion at a size where the symbolic closed form engages.
fn closed_form_kernel() -> Kernel {
    corpus_kernel_with_consts("heat", &[("N", 66), ("M", 258)]).expect("corpus kernel builds")
}

/// The dispatch counters, in one read.
#[derive(Debug, Clone, Copy)]
struct Tallies {
    model_runs: u64,
    dense: u64,
    reference: u64,
    symbolic: u64,
    direct: u64,
    fallbacks: u64,
    extrapolated_steps: u64,
}

fn tallies() -> Tallies {
    Tallies {
        model_runs: counters::FS_MODEL_RUNS.get(),
        dense: counters::FS_DISPATCH_DENSE.get(),
        reference: counters::FS_DISPATCH_REFERENCE.get(),
        symbolic: counters::FS_DISPATCH_SYMBOLIC.get(),
        direct: counters::FS_SYMBOLIC_DIRECT.get(),
        fallbacks: counters::FS_SYMBOLIC_FALLBACKS.get(),
        extrapolated_steps: counters::FS_SYMBOLIC_EXTRAPOLATED_STEPS.get(),
    }
}

#[test]
fn every_model_run_takes_exactly_one_of_three_engines() {
    let _turn = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    obs::configure(obs::ObsConfig::enabled());
    obs::reset();
    let machine = presets::paper48();
    // (kernel, symbolic regime, fits the dense tables)
    let kernels = small_corpus()
        .into_iter()
        .map(|k| (k, Regime::Direct, true))
        .chain([
            (closed_form_kernel(), Regime::ClosedForm, true),
            (triangular_kernel(), Regime::Declined, true),
            (oversized_kernel(), Regime::Direct, false),
        ]);

    let mut symbolic_attempts = 0u64;
    for (kernel, regime, fits) in kernels {
        for predict in [None, Some(4)] {
            for path in [FsPath::Optimized, FsPath::Reference, FsPath::Symbolic] {
                let ctx = format!("kernel={} predict={predict:?} path={path:?}", kernel.name);
                let mut opts = AnalysisOptions::new(4).path(path);
                opts.predict_chunk_runs = predict;
                let before = tallies();
                let cost = analyze_loop(&kernel, &machine, &opts);
                let after = tallies();
                symbolic_attempts += u64::from(path == FsPath::Symbolic);

                assert!(
                    after.model_runs > before.model_runs,
                    "{ctx}: no model run counted"
                );
                assert_eq!(
                    after.dense + after.reference + after.symbolic,
                    after.model_runs,
                    "{ctx}: dense + reference + symbolic != model_runs"
                );
                assert_eq!(
                    after.symbolic + after.direct + after.fallbacks,
                    symbolic_attempts,
                    "{ctx}: dispatch_symbolic + symbolic_direct + symbolic_fallbacks \
                     != symbolic attempts"
                );
                let outcome = |r| path == FsPath::Symbolic && regime == r;
                assert_eq!(
                    after.symbolic > before.symbolic,
                    outcome(Regime::ClosedForm),
                    "{ctx}: dispatch_symbolic moved wrongly"
                );
                assert_eq!(
                    after.direct > before.direct,
                    outcome(Regime::Direct),
                    "{ctx}: symbolic_direct moved wrongly"
                );
                assert_eq!(
                    after.fallbacks > before.fallbacks,
                    outcome(Regime::Declined),
                    "{ctx}: symbolic_fallbacks moved wrongly"
                );
                assert_eq!(
                    after.extrapolated_steps > before.extrapolated_steps,
                    after.symbolic > before.symbolic,
                    "{ctx}: symbolic_extrapolated_steps must move exactly with dispatch_symbolic"
                );
                let engine = match path {
                    FsPath::Symbolic if regime == Regime::ClosedForm => FsPath::Symbolic,
                    FsPath::Reference => FsPath::Reference,
                    _ if fits => FsPath::Optimized,
                    _ => FsPath::Reference,
                };
                assert_eq!(cost.fs_path, engine, "{ctx}: wrong engine reported");
            }
        }
    }
    obs::configure(obs::ObsConfig::disabled());
}

/// An early-exit grid point on [`FsPath::Symbolic`] runs the full model
/// twice: once as the probe, whose exact answer ends the search for a
/// sample size, and once for the point itself.
#[test]
fn early_exit_point_on_symbolic_runs_the_model_twice() {
    let _turn = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    obs::configure(obs::ObsConfig::enabled());
    let machine = presets::paper48();
    let kernels = [
        corpus_kernel_with_consts("heat", &[("N", 34), ("M", 258)]).expect("corpus kernel"),
        corpus_kernel_with_consts("dft", &[("N", 16), ("K", 256)]).expect("corpus kernel"),
    ];
    for kernel in kernels {
        let kernel = kernel_at_chunk(&kernel, 1);
        let mode = EvalMode::EarlyExit(EarlyExit::default());
        let before = counters::FS_MODEL_RUNS.get();
        let point = evaluate_point(
            &kernel,
            &machine,
            8,
            mode,
            FsPath::Symbolic,
            &mut MemoCache::new(),
        );
        let runs = counters::FS_MODEL_RUNS.get() - before;
        assert_eq!(
            runs, 2,
            "{}: full model runs per early-exit point",
            kernel.name
        );

        let mut opts = AnalysisOptions::new(8).path(FsPath::Symbolic);
        opts.predict_chunk_runs = None;
        let full = analyze_loop(&kernel, &machine, &opts);
        assert_eq!(
            point.fs, full.fs,
            "{}: early exit changed the counts",
            kernel.name
        );
    }
    obs::configure(obs::ObsConfig::disabled());
}
