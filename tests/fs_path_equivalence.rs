//! Differential oracle for the FS model: the fast dispatch (the closed
//! form where a period verifies, the dense walk elsewhere) and the dense
//! walk alone are exact count-identical to the reference transcription of
//! the paper's algorithm, over generated kernels × team sizes × schedules
//! × cache-state geometries. A diverging case is shrunk and dumped as a
//! `.loop` reproducer by the shared harness in `tests/common`.

mod common;

use common::{differential, Case, Kind, Rng, TEMPLATES};
use cost_model::fs::run_fs_model_dense;
use cost_model::{analyze_loop, chunk_footprint, run_fs_model, AnalysisOptions, FsPath};
use fs_core::FsModelConfig;
use loop_ir::Kernel;
use machine::presets;
use std::cell::Cell;
use std::sync::Mutex;

/// Held by every test here: each runs the fast dispatch outside the
/// fragment on purpose, or reads the process-global decline counter.
static DECLINES: Mutex<()> = Mutex::new(());

/// The fast dispatch (through `analyze_loop`, which reports the engine
/// that ran) and the dense walk against the reference, field for field.
/// `closed` counts the cases the closed form answered.
fn divergence(case: &Case, closed: &Cell<u32>) -> Option<String> {
    let kernel = case.kernel();
    let machine = presets::paper48();
    let mut cfg = FsModelConfig::for_machine(&machine, case.threads);
    cfg.stack_lines = case.stack_lines.unwrap_or(cfg.stack_lines);
    cfg.stack_sets = case.stack_sets;
    cfg.invalidate_on_detect = case.invalidate;
    cfg.count_true_sharing = case.count_ts;
    cfg.max_chunk_runs = case.max_runs;
    let reference = run_fs_model(
        &kernel,
        &FsModelConfig {
            path: FsPath::Reference,
            ..cfg.clone()
        },
    );
    let mut opts = AnalysisOptions::new(case.threads);
    opts.fs_config = Some(cfg.clone());
    let fast = analyze_loop(&kernel, &machine, &opts);
    if fast.fs_path == FsPath::Symbolic {
        closed.set(closed.get() + 1);
    }
    if fast.fs != reference {
        return Some(format!(
            "fast dispatch ({}) diverges from reference",
            fast.fs_path
        ));
    }
    let dense = run_fs_model_dense(
        &kernel,
        &cfg,
        &kernel.access_plan(),
        &kernel.array_bases(cfg.line_size),
    );
    (dense != reference).then(|| "dense walk diverges from reference".to_string())
}

/// The headline differential property: 256 generated corpus kernels, half
/// at the default model settings (the ones a request runs under) and half
/// under random ones. At least one case in twenty must take the closed
/// form, so that half of the comparison cannot go vacuous.
#[test]
fn all_paths_match_reference() {
    let _turn = DECLINES.lock().unwrap_or_else(|e| e.into_inner());
    let closed = Cell::new(0);
    let draw = |rng: &mut Rng| {
        let case = Case::draw(rng, &[Kind::Corpus]);
        if rng.coin() {
            return case;
        }
        Case {
            stack_sets: rng.pick(&[1, 2, 3, 64, 1024]),
            invalidate: rng.coin(),
            count_ts: rng.coin(),
            max_runs: rng.pick(&[None, Some(1), Some(2), Some(5)]),
            ..case
        }
    };
    differential("all_paths_match_reference", 256, draw, |c| {
        divergence(c, &closed)
    });
    assert!(
        closed.get() * 20 >= 256,
        "only {} of 256 cases took the closed form",
        closed.get()
    );
}

/// Tiny cache states force constant eviction traffic — the hardest case
/// for the dense tables' writer-mask bookkeeping and the closed form's
/// steady-state verification — on every template at its smallest size.
#[test]
fn equivalence_under_heavy_eviction() {
    let _turn = DECLINES.lock().unwrap_or_else(|e| e.into_inner());
    let closed = Cell::new(0);
    let draw = |rng: &mut Rng| Case {
        threads: rng.int(2..=8),
        stack_lines: Some(rng.pick(&[2, 4, 8, 16])),
        stack_sets: rng.pick(&[1, 2, 8]),
        ..Case::new(rng.pick(&TEMPLATES).0)
    };
    differential("equivalence_under_heavy_eviction", 256, draw, |c| {
        divergence(c, &closed)
    });
}

/// Corpus kernels at their *bundled* default sizes: the fast dispatch
/// declines none of them (`fs.symbolic_fallbacks` does not move), its
/// counts equal the reference path's, and the closed form engages on
/// exactly heat, linreg and matmul — the others are handed to the dense
/// walk. Pinning the closed-form set keeps the closed form itself under
/// test: were it to stop engaging, every kernel would still be exact.
/// The dense walk equals the reference field for field at the bundled
/// chunk (1 for every corpus kernel) and at chunk 4.
#[test]
fn bundled_corpus_is_symbolic_and_exact() {
    let _turn = DECLINES.lock().unwrap_or_else(|e| e.into_inner());
    fs_core::obs::configure(fs_core::obs::ObsConfig {
        counters: true,
        ..fs_core::obs::ObsConfig::disabled()
    });
    let machine = presets::paper48();
    let cfg = FsModelConfig::for_machine(&machine, 8);
    let reference = FsModelConfig {
        path: FsPath::Reference,
        ..cfg.clone()
    };
    let dense = |kernel: &Kernel| {
        let plan = kernel.access_plan();
        let bases = kernel.array_bases(cfg.line_size);
        run_fs_model_dense(kernel, &cfg, &plan, &bases)
    };
    let mut closed_form = Vec::new();
    for name in fs_core::CORPUS.iter().map(|entry| entry.name) {
        let kernel = fs_core::corpus_kernel(name).expect("bundled kernel parses");
        let want = run_fs_model(&kernel, &reference);
        assert_eq!(
            dense(&kernel),
            want,
            "{name}: dense walk diverges from reference at bundled size"
        );
        let chunk4 = fs_core::kernel_at_chunk(&kernel, 4);
        assert_eq!(
            dense(&chunk4),
            run_fs_model(&chunk4, &reference),
            "{name} chunk 4: dense walk diverges from reference"
        );

        let fallbacks = fs_core::obs::counters::FS_SYMBOLIC_FALLBACKS.get();
        let mut opts = AnalysisOptions::new(8);
        opts.fs_config = Some(cfg.clone());
        let cost = analyze_loop(&kernel, &machine, &opts);
        assert_eq!(
            fs_core::obs::counters::FS_SYMBOLIC_FALLBACKS.get(),
            fallbacks,
            "{name}: bundled kernel declined the symbolic path"
        );
        assert_eq!(cost.fs, want, "{name}: symbolic analysis diverges");
        match cost.fs_path {
            FsPath::Symbolic => closed_form.push(name),
            FsPath::Optimized => {}
            other => panic!("{name}: unexpected engine {other}"),
        }
    }
    fs_core::obs::configure(fs_core::obs::ObsConfig::disabled());
    assert_eq!(closed_form, ["linreg", "heat", "matmul"]);
}

/// Fragment-boundary kernels of the per-chunk footprint recursion (the
/// FS005 lint's capacity model): kernels whose shape sits at or beyond the
/// fragment's edge (triangular inner bounds, non-unit mixed strides) must
/// get a footprint exactly when they are inside it, and the symbolic engine
/// (which falls back outside its own fragment) must still give
/// reference-identical counts.
#[test]
fn footprint_boundary_kernels_fall_back_identically() {
    let _turn = DECLINES.lock().unwrap_or_else(|e| e.into_inner());
    // (kernel, expect_footprint): the triangular nest has non-constant inner
    // trip counts so the footprint recursion must decline; the mixed-stride
    // multi-array nest is constant-bounded and stays in the fragment, and so
    // does the single array written at two strides.
    let at = |template, chunk, size, stride| Case {
        threads: 8,
        chunk,
        size,
        stride,
        ..Case::new(template)
    };
    let cases = [
        (at("tri", 2, 2, 1), false),
        (at("nest", 2, 2, 2), true),
        (at("mixed", 4, 1, 3), true),
    ];
    for threads in [2u32, 8] {
        for (case, expect_footprint) in &cases {
            let kernel = case.kernel();
            let cfg = FsModelConfig::for_machine(&presets::paper48(), threads);
            assert_eq!(
                chunk_footprint(&kernel, cfg.line_size).is_some(),
                *expect_footprint,
                "{} threads={threads}: fragment membership flipped",
                kernel.name
            );
            let counts = |path| {
                run_fs_model(
                    &kernel,
                    &FsModelConfig {
                        path,
                        ..cfg.clone()
                    },
                )
            };
            assert_eq!(
                counts(FsPath::Symbolic),
                counts(FsPath::Reference),
                "{} threads={threads}: symbolic counts diverge",
                kernel.name
            );
        }
    }
}
