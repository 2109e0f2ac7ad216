//! Differential accuracy oracle for the reuse-distance capacity
//! prediction: randomized kernels are run through
//! `cost_model::capacity_prediction` and replayed in the execution-driven
//! MESI simulator. The contract, calibrated on the bundled corpus:
//!
//! * the symbolic engine's coherence counts on the same kernel are
//!   *exactly* the reference path's, always;
//! * when the kernel stays inside the decidable fragment (the prediction
//!   is `Some`), the prediction satisfies the stated error bounds below;
//! * leaving the fragment never panics — the prediction is `None`.
//!
//! Error bounds (relative tolerance overridable via `FS_ANALYTIC_REL_TOL`):
//!
//! * `accesses` is exact — aligned scalar elements never straddle lines;
//! * `distinct_lines` matches the sim's global cold misses within
//!   `tol + 8` lines;
//! * `level_misses[0]` lands inside the coherence-ambiguity bracket
//!   `[l1_misses − coherence_misses, l1_misses]` stretched by `tol` and 8
//!   lines of absolute slack: the model charges every thread's private
//!   first touch, which the simulator classifies as a coherence event when
//!   another thread wrote the line first;
//! * `mem_fetches` matches the sim's memory fetches within `tol + 8`.
//!
//! On divergence the failing configuration is minimized (shrink the scale,
//! then threads, then chunk) and the smallest diverging kernel is dumped
//! as a `.loop` reproducer, as in `tests/lint_differential.rs`.

use cache_sim::{simulate_kernel, SimOptions};
use cost_model::{capacity_prediction, run_fs_model, CacheGeometry, CapacityPrediction, FsPath};
use fs_core::{corpus_kernel_with_consts, kernel_to_dsl, FsModelConfig};
use loop_ir::{kernels, Kernel};
use machine::presets;
use proptest::prelude::*;

const DSL_CORPUS: [&str; 6] = ["dft", "heat", "histogram", "linreg", "matmul", "stencil"];
/// Builder-based templates follow the DSL corpus in the template space.
const NUM_TEMPLATES: usize = DSL_CORPUS.len() + 5;

/// One point in the differential space.
#[derive(Debug, Clone, Copy)]
struct Params {
    template: usize,
    /// Problem-size multiplier, 1..=3.
    scale: u64,
    threads: u32,
    chunk: u64,
}

/// Relative tolerance for the capacity bounds; `FS_ANALYTIC_REL_TOL`
/// overrides the default for local triage of near-miss divergences.
fn rel_tol() -> f64 {
    std::env::var("FS_ANALYTIC_REL_TOL")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.15)
}

/// Absolute slack in cache lines on every bound: small kernels round hard.
const ABS_SLACK: f64 = 8.0;

fn kernel_at(p: Params) -> Kernel {
    let s = p.scale as i64;
    let mut kernel = if p.template < DSL_CORPUS.len() {
        let name = DSL_CORPUS[p.template];
        let consts: Vec<(&str, i64)> = match name {
            "dft" => vec![("N", 8 * s), ("K", 32 * s)],
            "heat" => vec![("N", 6 * s), ("M", 32 * s + 2)],
            "histogram" => vec![("T", 8), ("N", 64 * s)],
            "linreg" => vec![("N", 48 * s), ("M", 8 * s)],
            "matmul" => vec![("N", 8 * s), ("M", 8 * s), ("P", 8)],
            "stencil" => vec![("N", 64 * s + 2)],
            other => panic!("unknown corpus kernel {other}"),
        };
        corpus_kernel_with_consts(name, &consts).expect("corpus kernel builds")
    } else {
        let s = p.scale;
        match p.template - DSL_CORPUS.len() {
            0 => kernels::transpose(8 * s, 8 * s, 1),
            1 => kernels::saxpy(512 * s, 1),
            2 => kernels::matvec(16 * s, 16 * s, 1),
            3 => kernels::dotprod_partials(p.threads as u64, 32 * s, false),
            4 => kernels::stencil1d(64 * s + 2, 1),
            _ => unreachable!("template out of range"),
        }
    };
    kernel.nest.parallel.schedule = loop_ir::Schedule::Static { chunk: p.chunk };
    kernel
}

fn cfg(p: Params, path: FsPath) -> FsModelConfig {
    let mut c = FsModelConfig::for_machine(&presets::paper48(), p.threads);
    c.path = path;
    c
}

/// The capacity prediction of `kernel` under `cfg` on paper48.
fn predict(kernel: &Kernel, cfg: &FsModelConfig) -> Option<CapacityPrediction> {
    let geometry = CacheGeometry::for_machine(&presets::paper48());
    let bases = kernel.array_bases(cfg.line_size);
    capacity_prediction(kernel, cfg, &geometry, &kernel.access_plan(), &bases)
}

/// Check one point; Some(description) on any violated bound.
fn divergence(p: Params) -> Option<String> {
    let kernel = kernel_at(p);

    // Coherence counts must be exact whether or not the kernel sits in the
    // fragment (the symbolic engine falls back densely outside it).
    let symbolic = run_fs_model(&kernel, &cfg(p, FsPath::Symbolic));
    let reference = run_fs_model(&kernel, &cfg(p, FsPath::Reference));
    if symbolic != reference {
        return Some(format!("symbolic counts diverge from reference ({p:?})"));
    }

    // Outside the decidable fragment there is nothing further to check.
    let cap = predict(&kernel, &cfg(p, FsPath::Symbolic))?;

    let tol = rel_tol();
    let stats = simulate_kernel(
        &kernel,
        &presets::paper48(),
        SimOptions::new(p.threads).without_prefetch(),
    );
    let acc: u64 = stats.per_thread.iter().map(|s| s.accesses).sum();
    let l1m: u64 = stats
        .per_thread
        .iter()
        .map(|s| s.accesses - s.l1_hits)
        .sum();
    let coh: u64 = stats.per_thread.iter().map(|s| s.coherence_misses).sum();
    let mem: u64 = stats.per_thread.iter().map(|s| s.mem_fetches).sum();

    if cap.accesses != acc {
        return Some(format!("accesses {} != sim {acc} ({p:?})", cap.accesses));
    }
    let cold = stats.cold_misses as f64;
    if (cap.distinct_lines - cold).abs() > tol * cold + ABS_SLACK {
        return Some(format!(
            "distinct_lines {:.1} vs sim cold {cold} ({p:?})",
            cap.distinct_lines
        ));
    }
    let lo = l1m.saturating_sub(coh) as f64;
    let hi = l1m as f64;
    if cap.level_misses[0] < (1.0 - tol) * lo - ABS_SLACK
        || cap.level_misses[0] > (1.0 + tol) * hi + ABS_SLACK
    {
        return Some(format!(
            "level_misses[0] {:.1} outside [{lo}, {hi}] ({p:?})",
            cap.level_misses[0]
        ));
    }
    if (cap.mem_fetches - mem as f64).abs() > tol * mem as f64 + ABS_SLACK {
        return Some(format!(
            "mem_fetches {:.1} vs sim {mem} ({p:?})",
            cap.mem_fetches
        ));
    }
    None
}

/// Shrink a diverging point — smaller problem, then fewer threads, then a
/// smaller chunk — keeping the divergence alive at every step.
fn minimize(mut p: Params) -> Params {
    loop {
        let mut shrunk = false;
        for cand in [
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
        ] {
            if cand.scale >= 1
                && cand.threads >= 2
                && cand.chunk >= 1
                && (cand.scale, cand.threads, cand.chunk) != (p.scale, p.threads, p.chunk)
                && divergence(cand).is_some()
            {
                p = cand;
                shrunk = true;
                break;
            }
        }
        if !shrunk {
            return p;
        }
    }
}

/// Dump a `.loop` reproducer for a diverging point and return its path.
fn dump_reproducer(p: Params) -> std::path::PathBuf {
    let dir = option_env!("CARGO_TARGET_TMPDIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    let path = dir.join(format!(
        "analytic_divergence_tpl{}_s{}_t{}_c{}.loop",
        p.template, p.scale, p.threads, p.chunk
    ));
    std::fs::write(&path, kernel_to_dsl(&kernel_at(p))).expect("write reproducer");
    path
}

fn check_point(p: Params) {
    if let Some(msg) = divergence(p) {
        let small = minimize(p);
        let path = dump_reproducer(small);
        panic!(
            "capacity/sim divergence: {msg}\nminimized to {small:?}\n\
             reproducer: {}",
            path.display()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The headline differential property: >= 256 random (template, scale,
    /// threads, chunk) points, zero panics, every in-fragment prediction
    /// within the stated bounds, every point's counts reference-identical.
    #[test]
    fn analytic_predictions_within_bounds(
        template in 0usize..NUM_TEMPLATES,
        scale in 1u64..4,
        threads in 2u32..9,
        chunk in prop::sample::select(vec![1u64, 2, 4, 16]),
    ) {
        check_point(Params { template, scale, threads, chunk });
    }
}

/// Deterministic sweep so each template is exercised at least once per run
/// even if the random sampler clusters; reports the fragment-coverage rate.
#[test]
fn every_template_checked_and_fallbacks_reported() {
    let mut in_fragment = 0u32;
    let mut total = 0u32;
    for template in 0..NUM_TEMPLATES {
        for threads in [2u32, 8] {
            let p = Params {
                template,
                scale: 2,
                threads,
                chunk: 2,
            };
            check_point(p);
            total += 1;
            if predict(&kernel_at(p), &cfg(p, FsPath::Symbolic)).is_some() {
                in_fragment += 1;
            }
        }
    }
    println!("capacity fragment coverage: {in_fragment}/{total} sweep points");
    // The bundled corpus shapes all sit inside the decidable fragment.
    assert_eq!(in_fragment, total, "corpus-shaped kernels fell back");
}

/// The bundled corpus at default sizes sits inside the fragment, and a
/// truncated-run config (regression sampling) leaves it.
#[test]
fn corpus_kernels_predict_and_truncated_runs_decline() {
    for name in DSL_CORPUS {
        let kernel = fs_core::corpus_kernel(name).expect("bundled kernel parses");
        let c = FsModelConfig::for_machine(&presets::paper48(), 8);
        assert!(
            predict(&kernel, &c).is_some(),
            "{name}: no capacity prediction"
        );
    }

    let kernel = fs_core::corpus_kernel("stencil").unwrap();
    let mut c = FsModelConfig::for_machine(&presets::paper48(), 8);
    c.max_chunk_runs = Some(1);
    assert!(
        predict(&kernel, &c).is_none(),
        "truncated run was predicted"
    );
}
