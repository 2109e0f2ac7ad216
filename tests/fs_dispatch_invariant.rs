//! The FS model's three-way dispatch invariant: every full model run is
//! answered by exactly one engine, so `fs.dispatch_dense +
//! fs.dispatch_reference + fs.dispatch_symbolic == fs.model_runs`, whether
//! the run came from the dispatcher or from the predictor's symbolic
//! short-circuit. Every [`FsPath::Symbolic`] attempt ends in exactly one
//! of three ways — a closed form (`fs.dispatch_symbolic`), an exact run on
//! the dense tables without one (`fs.symbolic_direct`), or a decline
//! outside the decidable fragment (`fs.symbolic_fallbacks`) — and
//! `LoopCost::fs_path` names the engine that answered, at any footprint.
//! Only a closed form applies steps in closed form
//! (`fs.symbolic_extrapolated_steps`).
//!
//! The same counters turn two speed-ups that come from doing less work
//! into exact checks: the closed form skips nearly all lockstep steps on
//! large kernels, and the lint runs no FS model.
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

/// A kernel whose footprint (2^23 lines) is twice the dense tables'
/// identity cap (2^22 lines) but which touches only 64 lines, half of them
/// past the cap.
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
    steps: u64,
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
        steps: counters::FS_STEPS.get(),
        extrapolated_steps: counters::FS_SYMBOLIC_EXTRAPOLATED_STEPS.get(),
    }
}

#[test]
fn every_model_run_takes_exactly_one_of_three_engines() {
    let _turn = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    obs::configure(obs::ObsConfig::enabled());
    obs::reset();
    let machine = presets::paper48();
    let kernels = small_corpus()
        .into_iter()
        .map(|k| (k, Regime::Direct))
        .chain([
            (closed_form_kernel(), Regime::ClosedForm),
            (triangular_kernel(), Regime::Declined),
            (oversized_kernel(), Regime::Direct),
        ]);

    let mut symbolic_attempts = 0u64;
    for (kernel, regime) in kernels {
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
                    _ => FsPath::Optimized,
                };
                assert_eq!(cost.fs_path, engine, "{ctx}: wrong engine reported");
            }
        }
    }

    // Past the identity cap the fast engines still give the reference's
    // counts, field for field.
    let oversized = oversized_kernel();
    let cfg = |path| fs_core::FsModelConfig {
        path,
        ..fs_core::FsModelConfig::for_machine(&machine, 4)
    };
    let want = fs_core::run_fs_model(&oversized, &cfg(FsPath::Reference));
    for path in [FsPath::Optimized, FsPath::Symbolic] {
        assert_eq!(
            fs_core::run_fs_model(&oversized, &cfg(path)),
            want,
            "oversized kernel on {path}"
        );
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

/// Large in-fragment kernels, where the dense walk replays millions of
/// steps and the closed form verifies one steady-state window and
/// extrapolates the rest, at the problem size given to each builder.
fn large_kernels(heat_rows: u64, linreg_points: u64, matmul_rows: u64) -> [Kernel; 3] {
    [
        loop_ir::kernels::heat_diffusion(heat_rows, 514, 1),
        loop_ir::kernels::linear_regression(linreg_points, 16, 1),
        loop_ir::kernels::matmul(matmul_rows, 16, 8, 1),
    ]
}

/// The symbolic engine's speed-up on large kernels comes from simulating
/// fewer steps, so it is asserted as a step count: the closed form answers
/// each kernel and applies at least 98% of the lockstep steps without
/// simulating them (a 50x cut in simulated steps).
#[test]
fn closed_form_skips_most_steps_on_large_kernels() {
    let _turn = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    obs::configure(obs::ObsConfig::enabled());
    let mut cfg = fs_core::FsModelConfig::for_machine(&presets::paper48(), 8);
    cfg.path = FsPath::Symbolic;
    let before = tallies();
    let mut closed_forms = before.symbolic;
    for kernel in large_kernels(32768, 1 << 20, 262144) {
        fs_core::run_fs_model(&kernel, &cfg);
        closed_forms += 1;
        assert_eq!(
            counters::FS_DISPATCH_SYMBOLIC.get(),
            closed_forms,
            "{}: no closed form",
            kernel.name
        );
    }
    let after = tallies();
    let steps = after.steps - before.steps;
    let extrapolated = after.extrapolated_steps - before.extrapolated_steps;
    assert!(
        extrapolated * 100 >= steps * 98,
        "closed form applied {extrapolated} of {steps} lockstep steps (< 98%)"
    );
    obs::configure(obs::ObsConfig::disabled());
}

/// At the largest size of each large kernel whose dense walk takes under
/// 2 s in the test profile, the closed form still answers and its counts
/// equal the dense walk's. The six runs fan out over two workers.
#[test]
fn closed_form_matches_dense_walk_on_large_kernels() {
    let _turn = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    obs::configure(obs::ObsConfig::enabled());
    let cfg = fs_core::FsModelConfig::for_machine(&presets::paper48(), 8);
    let kernels = large_kernels(16384, 1 << 18, 65536);
    let paths = [FsPath::Symbolic, FsPath::Optimized];
    let closed_forms = counters::FS_DISPATCH_SYMBOLIC.get();
    let results = fs_core::run_indexed(2 * kernels.len(), 2, |i| {
        let cfg = fs_core::FsModelConfig {
            path: paths[i % 2],
            ..cfg.clone()
        };
        fs_core::run_fs_model(&kernels[i / 2], &cfg)
    });
    assert_eq!(
        counters::FS_DISPATCH_SYMBOLIC.get(),
        closed_forms + kernels.len() as u64,
        "a kernel got no closed form"
    );
    for (kernel, pair) in kernels.iter().zip(results.chunks(2)) {
        assert_eq!(
            pair[0], pair[1],
            "{}: closed form diverges from the dense walk",
            kernel.name
        );
    }
    obs::configure(obs::ObsConfig::disabled());
}

/// The lint answers in closed form: linting the bundled corpus (8 threads,
/// chunks 1 and 4) runs no FS model at all.
#[test]
fn lint_runs_no_fs_model() {
    let _turn = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    obs::configure(obs::ObsConfig::enabled());
    let machine = presets::paper48();
    let model_runs = counters::FS_MODEL_RUNS.get();
    for entry in fs_core::CORPUS {
        let kernel = fs_core::parse_kernel(entry.source).expect("bundled kernel parses");
        for chunk in [1u64, 4] {
            let kernel = kernel_at_chunk(&kernel, chunk);
            fs_core::try_lint(&kernel, &machine, 8).expect("corpus kernel lints");
            assert_eq!(
                counters::FS_MODEL_RUNS.get(),
                model_runs,
                "@{} chunk {chunk}: the lint ran the FS model",
                entry.name
            );
        }
    }
    obs::configure(obs::ObsConfig::disabled());
}
