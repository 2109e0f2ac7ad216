//! Property test: all three FS-model paths — the optimized dense-table
//! walk, the symbolic closed-form path, and the reference transcription of
//! the paper's algorithm — are exact count-identical, over randomized
//! DSL-corpus kernels × team sizes × schedules × cache-state geometries.
//!
//! On divergence the failing configuration is minimized (shrink the scale,
//! then threads, then chunk, then the config knobs) and the smallest
//! diverging kernel is dumped as a `.loop` reproducer, as in
//! `tests/lint_differential.rs`.

use cost_model::{
    analyze_loop, chunk_footprint, predict_fs, run_fs_model, AnalysisOptions, FsPath,
};
use fs_core::{corpus_kernel_with_consts, kernel_to_dsl};
use fs_core::{FsModelConfig, FsModelResult};
use loop_ir::Kernel;
use machine::presets;
use proptest::prelude::*;

const CORPUS: [&str; 6] = ["dft", "heat", "histogram", "linreg", "matmul", "stencil"];

/// One point in the differential space.
#[derive(Debug, Clone, Copy)]
struct Params {
    template: usize,
    /// Problem-size multiplier, 1..=3.
    scale: u64,
    threads: u32,
    chunk: u64,
    stack_sets: u32,
    invalidate: bool,
    count_ts: bool,
    max_runs: Option<u64>,
}

/// Build a corpus kernel at a randomized (small) problem size. The const
/// names per kernel match `crates/core/src/corpus.rs`; sizes are scaled
/// down so a proptest case stays fast.
fn kernel_at(p: Params) -> Kernel {
    let s = p.scale as i64; // 1..=3
    let name = CORPUS[p.template];
    let consts: Vec<(&str, i64)> = match name {
        "dft" => vec![("N", 8 * s), ("K", 32 * s)],
        "heat" => vec![("N", 6 * s), ("M", 32 * s + 2)],
        "histogram" => vec![("T", 8), ("N", 64 * s)],
        "linreg" => vec![("N", 48 * s), ("M", 8 * s)],
        "matmul" => vec![("N", 8 * s), ("M", 8 * s), ("P", 8)],
        "stencil" => vec![("N", 64 * s + 2)],
        other => panic!("unknown corpus kernel {other}"),
    };
    let mut kernel = corpus_kernel_with_consts(name, &consts).expect("corpus kernel builds");
    kernel.nest.parallel.schedule = loop_ir::Schedule::Static { chunk: p.chunk };
    kernel
}

fn cfg(p: Params, path: FsPath) -> FsModelConfig {
    let mut c = FsModelConfig::for_machine(&presets::paper48(), p.threads);
    c.stack_sets = p.stack_sets;
    c.invalidate_on_detect = p.invalidate;
    c.count_true_sharing = p.count_ts;
    c.max_chunk_runs = p.max_runs;
    c.path = path;
    c
}

fn run(p: Params, path: FsPath) -> FsModelResult {
    run_fs_model(&kernel_at(p), &cfg(p, path))
}

/// Compare every counting field of both non-reference paths against the
/// reference; Some(description) on any mismatch.
fn divergence(p: Params) -> Option<String> {
    let reference = run(p, FsPath::Reference);
    for path in [FsPath::Optimized, FsPath::Symbolic] {
        let candidate = run(p, path);
        if candidate != reference {
            return Some(format!("{path} path diverges from reference ({p:?})"));
        }
    }
    None
}

/// Shrink a diverging point — smaller problem, then fewer threads, smaller
/// chunk, simpler config — keeping the divergence alive at every step.
fn minimize(mut p: Params) -> Params {
    loop {
        let mut candidates = vec![
            Params {
                scale: p.scale.saturating_sub(1),
                ..p
            },
            Params {
                threads: p.threads.saturating_sub(1),
                ..p
            },
            Params {
                chunk: p.chunk / 2,
                ..p
            },
            Params { stack_sets: 1, ..p },
            Params {
                invalidate: false,
                ..p
            },
            Params {
                count_ts: false,
                ..p
            },
            Params {
                max_runs: None,
                ..p
            },
        ];
        candidates.retain(|c| {
            c.scale >= 1
                && c.threads >= 1
                && c.chunk >= 1
                && (
                    c.scale,
                    c.threads,
                    c.chunk,
                    c.stack_sets,
                    c.invalidate,
                    c.count_ts,
                    c.max_runs,
                ) != (
                    p.scale,
                    p.threads,
                    p.chunk,
                    p.stack_sets,
                    p.invalidate,
                    p.count_ts,
                    p.max_runs,
                )
        });
        match candidates.into_iter().find(|&c| divergence(c).is_some()) {
            Some(c) => p = c,
            None => return p,
        }
    }
}

/// Dump a `.loop` reproducer for a diverging point and return its path.
fn dump_reproducer(p: Params) -> std::path::PathBuf {
    let dir = option_env!("CARGO_TARGET_TMPDIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    let path = dir.join(format!(
        "fs_path_divergence_{}_s{}_t{}_c{}.loop",
        CORPUS[p.template], p.scale, p.threads, p.chunk
    ));
    std::fs::write(&path, kernel_to_dsl(&kernel_at(p))).expect("write reproducer");
    path
}

fn check_point(p: Params) {
    if let Some(msg) = divergence(p) {
        let small = minimize(p);
        let path = dump_reproducer(small);
        panic!(
            "FS-path divergence: {msg}\nminimized to {small:?}\n\
             reproducer: {} (run `fsdetect {}` per path)",
            path.display(),
            path.display()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The headline differential property: >= 256 random (corpus template,
    /// scale, threads, chunk, cache geometry, model knobs) points, all
    /// three paths exact count-identical.
    #[test]
    fn all_paths_match_reference(
        template in 0usize..CORPUS.len(),
        scale in 1u64..4,
        threads in 1u32..9,
        chunk in prop::sample::select(vec![1u64, 2, 4, 16]),
        stack_sets in prop::sample::select(vec![1u32, 2, 3, 64, 1024]),
        invalidate in any::<bool>(),
        count_ts in any::<bool>(),
        max_runs in prop::sample::select(vec![None, Some(1u64), Some(2), Some(5)]),
    ) {
        check_point(Params {
            template,
            scale,
            threads,
            chunk,
            stack_sets,
            invalidate,
            count_ts,
            max_runs,
        });
    }

    /// Tiny cache states force constant eviction traffic — the hardest case
    /// for the dense tables' writer-mask bookkeeping and the symbolic
    /// path's steady-state verification.
    #[test]
    fn equivalence_under_heavy_eviction(
        name in prop::sample::select(vec!["dft", "transpose_like", "stencil"]),
        threads in 2u32..9,
        stack_lines in prop::sample::select(vec![2usize, 4, 8, 16]),
        stack_sets in prop::sample::select(vec![1u32, 2, 8]),
    ) {
        let kernel = match name {
            "transpose_like" => loop_ir::kernels::transpose(24, 24, 1),
            "dft" => {
                let p = Params {
                    template: 0, scale: 1, threads, chunk: 1,
                    stack_sets, invalidate: false, count_ts: false, max_runs: None,
                };
                kernel_at(p)
            }
            _ => {
                let p = Params {
                    template: 5, scale: 1, threads, chunk: 1,
                    stack_sets, invalidate: false, count_ts: false, max_runs: None,
                };
                kernel_at(p)
            }
        };
        let mk = |path| {
            let mut c = FsModelConfig::for_machine(&presets::paper48(), threads);
            c.stack_sets = stack_sets;
            c.stack_lines = stack_lines;
            c.path = path;
            run_fs_model(&kernel, &c)
        };
        let reference = mk(FsPath::Reference);
        for path in [FsPath::Optimized, FsPath::Symbolic] {
            let candidate = mk(path);
            assert_eq!(
                candidate, reference,
                "{path} diverges: {name} threads={threads} lines={stack_lines} sets={stack_sets}"
            );
        }
    }
}

/// Corpus kernels at their *bundled* default sizes: the symbolic path
/// declines none of them (its prediction is exact, not a regression fit),
/// its counts equal the reference path's, and the closed form engages on
/// exactly heat, linreg and matmul — the others are handed to the dense
/// walk. Pinning the closed-form set keeps the closed form itself under
/// test: were it to stop engaging, every kernel would still be exact.
#[test]
fn bundled_corpus_is_symbolic_and_exact() {
    let machine = presets::paper48();
    let mut closed_form = Vec::new();
    for name in CORPUS {
        let kernel = fs_core::corpus_kernel(name).expect("bundled kernel parses");
        let mut reference = FsModelConfig::for_machine(&machine, 8);
        reference.path = FsPath::Reference;
        let want = run_fs_model(&kernel, &reference);

        let mut symbolic = reference.clone();
        symbolic.path = FsPath::Symbolic;
        let pred = predict_fs(&kernel, &symbolic, 4).expect("symbolic prediction");
        assert!(
            pred.exact,
            "{name}: bundled kernel declined the symbolic path"
        );
        assert_eq!(
            pred.sample, want,
            "{name}: symbolic counts diverge at bundled size"
        );

        let mut opts = AnalysisOptions::new(8);
        opts.fs_config = Some(symbolic);
        let cost = analyze_loop(&kernel, &machine, &opts);
        assert_eq!(cost.fs, want, "{name}: symbolic analysis diverges");
        match cost.fs_path {
            FsPath::Symbolic => closed_form.push(name),
            FsPath::Optimized => {}
            other => panic!("{name}: unexpected engine {other}"),
        }
    }
    assert_eq!(closed_form, ["heat", "linreg", "matmul"]);
}

/// Fragment-boundary kernels of the per-chunk footprint recursion (the
/// FS005 lint's capacity model): kernels whose shape sits at or beyond the
/// fragment's edge (triangular inner bounds, non-unit mixed strides) must
/// get a footprint exactly when they are inside it, and the symbolic engine
/// (which falls back outside its own fragment) must still give
/// reference-identical counts.
#[test]
fn footprint_boundary_kernels_fall_back_identically() {
    // (source, expect_footprint): the triangular nest has non-constant inner
    // trip counts so the footprint recursion must decline; the mixed-stride
    // multi-array nest is constant-bounded and stays in the fragment.
    let cases: [(&str, bool); 3] = [
        (
            "kernel tri {
  array A[32][32]: f64;
  parallel for i in 0..32 schedule(static, 2) {
    for j in 0..i + 1 {
      A[i][j] = 1.0;
    }
  }
}",
            false,
        ),
        (
            "kernel nest {
  array C[63]: f64;
  array D[511]: f64;
  parallel for i in 0..32 schedule(static, 2) {
    for j in 0..8 {
      C[2*i] += D[16*i + 2*j];
    }
  }
}",
            true,
        ),
        (
            "kernel mixed {
  array B[94]: f64;
  parallel for i in 0..32 schedule(static, 4) {
    B[i] = 1.0;
    B[3*i] = 2.0;
  }
}",
            true,
        ),
    ];
    for threads in [2u32, 8] {
        for (src, expect_footprint) in cases {
            let kernel = fs_core::parse_kernel(src).unwrap();
            let cfg = FsModelConfig::for_machine(&presets::paper48(), threads);
            assert_eq!(
                chunk_footprint(&kernel, cfg.line_size).is_some(),
                expect_footprint,
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
