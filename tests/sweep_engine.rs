//! Integration tests for the parallel memoized sweep engine: determinism
//! (parallel == sequential, byte for byte), memoization correctness (cached
//! results never drift from direct analysis), and the advisor staying
//! faithful to the unmemoized path it replaced.

use fs_core::{
    machines, recommend_chunk, try_analyze, AnalysisOptions, EarlyExit, EvalMode, JsonValue,
    SweepEngine, SweepGrid,
};

/// The full bundled corpus (kernels/*.loop) as named kernels, scaled down
/// via const overrides so full-model sweeps stay fast in debug builds. The
/// FS structure (packed accumulators, shared rows, shared bins, ...) is
/// size-independent.
const SCALED_CORPUS: &[(&str, &[(&str, i64)])] = &[
    ("linreg", &[("N", 96), ("M", 16)]),
    ("heat", &[("N", 18), ("M", 130)]),
    ("dft", &[("N", 16), ("K", 128)]),
    ("stencil", &[("N", 514)]),
    ("histogram", &[("N", 512)]),
    ("matmul", &[("N", 16), ("M", 32), ("P", 16)]),
];

fn scaled_kernel(name: &str) -> loop_ir::Kernel {
    let (_, consts) = SCALED_CORPUS
        .iter()
        .find(|(n, _)| *n == name)
        .expect("kernel in scaled corpus");
    fs_core::corpus_kernel_with_consts(name, consts).expect("bundled kernel parses")
}

fn corpus_kernels() -> Vec<(String, loop_ir::Kernel)> {
    let names: Vec<&str> = fs_core::CORPUS.iter().map(|e| e.name).collect();
    assert!(names.len() >= 6, "bundled corpus shrank: {names:?}");
    for (n, _) in SCALED_CORPUS {
        assert!(names.contains(n), "bundled corpus lost '{n}'");
    }
    SCALED_CORPUS
        .iter()
        .map(|(n, _)| (n.to_string(), scaled_kernel(n)))
        .collect()
}

fn corpus_grid() -> SweepGrid {
    SweepGrid::new(
        corpus_kernels(),
        ("paper48".to_string(), machines::paper48()),
        vec![2, 4, 8],
        vec![1, 4, 16, 64],
    )
}

#[test]
fn parallel_sweep_is_byte_identical_to_sequential_over_corpus() {
    let grid = corpus_grid();
    let seq = SweepEngine::new().workers(1).run(&grid).unwrap();
    for workers in [2, 4, 8] {
        let par = SweepEngine::new().workers(workers).run(&grid).unwrap();
        assert_eq!(
            seq.to_json().render(),
            par.to_json().render(),
            "{workers}-worker sweep diverged from sequential"
        );
    }
}

#[test]
fn memoized_sweep_matches_direct_analysis() {
    let grid = corpus_grid();
    let result = SweepEngine::new().run(&grid).unwrap();
    assert_eq!(result.outcomes.len(), grid.len());
    for o in &result.outcomes {
        let kernel = scaled_kernel(&o.kernel);
        let k = fs_core::kernel_at_chunk(&kernel, o.chunk);
        let direct =
            try_analyze(&k, &machines::paper48(), &AnalysisOptions::new(o.threads)).unwrap();
        assert_eq!(
            o.cost.total_cycles, direct.cost.total_cycles,
            "{}@chunk{} t{}",
            o.kernel, o.chunk, o.threads
        );
        assert_eq!(o.cost.fs.fs_cases, direct.cost.fs.fs_cases);
    }
}

#[test]
fn repeated_grid_run_is_all_memo_hits() {
    let grid = corpus_grid();
    let engine = SweepEngine::new();
    let first = engine.run(&grid).unwrap();
    assert_eq!(first.memo_hits, 0);
    assert_eq!(first.memo_misses as usize, grid.len());
    let second = engine.run(&grid).unwrap();
    assert_eq!(second.memo_hits as usize, grid.len());
    assert_eq!(second.memo_misses, 0);
}

#[test]
fn early_exit_grid_keeps_order_and_bounded_error() {
    let grid = corpus_grid();
    let full = SweepEngine::new().run(&grid).unwrap();
    let fast = SweepEngine::new()
        .mode(EvalMode::EarlyExit(EarlyExit::default()))
        .run(&grid)
        .unwrap();
    assert_eq!(full.outcomes.len(), fast.outcomes.len());
    for (a, b) in full.outcomes.iter().zip(&fast.outcomes) {
        assert_eq!(
            (a.kernel.as_str(), a.machine.as_str(), a.threads, a.chunk),
            (b.kernel.as_str(), b.machine.as_str(), b.threads, b.chunk)
        );
        // The adaptive predictor may extrapolate, but not wildly: the FS
        // *verdict* (significant vs not) must agree within a loose band.
        let fa = a.cost.fs_fraction();
        let fb = b.cost.fs_fraction();
        assert!(
            (fa - fb).abs() < 0.25,
            "{}@chunk{} t{}: full fs {:.3} vs early-exit fs {:.3}",
            a.kernel,
            a.chunk,
            a.threads,
            fa,
            fb
        );
    }
}

#[test]
fn advisor_on_sweep_primitives_matches_direct_sweep() {
    // recommend_chunk now runs on the memoized sweep primitives; its output
    // must be indistinguishable from analyzing each candidate from scratch.
    let m = machines::paper48();
    for (name, kernel) in corpus_kernels() {
        let advice = recommend_chunk(&kernel, &m, 8, 64, None);
        for p in &advice.points {
            let k = fs_core::kernel_at_chunk(&kernel, p.chunk);
            let direct = try_analyze(&k, &m, &AnalysisOptions::new(8)).unwrap();
            assert_eq!(
                p.total_cycles, direct.cost.total_cycles,
                "{name}@chunk{}",
                p.chunk
            );
            assert_eq!(p.fs_cases, direct.cost.fs.fs_cases);
            assert_eq!(p.fs_cycles, direct.cost.fs_cycles);
        }
        let best = advice
            .points
            .iter()
            .min_by(|a, b| a.total_cycles.total_cmp(&b.total_cycles))
            .unwrap();
        assert_eq!(advice.best_chunk, best.chunk, "{name}");
    }
}

#[test]
fn memo_accounting_survives_clear_memo() {
    let grid = corpus_grid();
    let n = grid.len() as u64;
    let engine = SweepEngine::new();
    assert_eq!(engine.memo_stats(), (0, 0));

    engine.run(&grid).unwrap();
    assert_eq!(engine.memo_stats(), (0, n), "cold cache: all misses");
    engine.run(&grid).unwrap();
    assert_eq!(engine.memo_stats(), (n, n), "warm cache: all hits");

    // clear_memo drops the entries but NOT the lifetime counters — they
    // describe the cache's history, not its contents. A re-run therefore
    // misses everything again on top of the accumulated stats.
    engine.clear_memo();
    assert_eq!(engine.memo_stats(), (n, n), "clear keeps lifetime counters");
    engine.run(&grid).unwrap();
    assert_eq!(engine.memo_stats(), (n, 2 * n), "cleared cache: all misses");
    engine.run(&grid).unwrap();
    assert_eq!(engine.memo_stats(), (2 * n, 2 * n));
}

#[test]
fn concurrent_runs_account_every_lookup() {
    let grid = corpus_grid();
    let n = grid.len() as u64;
    let reference = SweepEngine::new().workers(1).run(&grid).unwrap();
    let engine = std::sync::Arc::new(SweepEngine::new().workers(2));
    const RUNS: u64 = 4;

    let handles: Vec<_> = (0..RUNS)
        .map(|_| {
            let engine = std::sync::Arc::clone(&engine);
            let grid = corpus_grid();
            std::thread::spawn(move || engine.run(&grid).unwrap())
        })
        .collect();
    // Memoization must be invisible in the results, no matter how the
    // racing runs interleave. The document header's memo_hits/memo_misses
    // legitimately vary per racing run, so compare from `results` on.
    fn results_payload(doc: String) -> String {
        let at = doc.find("\"results\"").expect("results field");
        doc[at..].to_string()
    }
    let want = results_payload(reference.to_json().render());
    let (mut run_hits, mut run_misses) = (0, 0);
    for h in handles {
        let r = h.join().expect("concurrent run panicked");
        assert_eq!(results_payload(r.to_json().render()), want);
        // Each run tallies exactly its own lookups, one per point.
        assert_eq!(r.memo_hits + r.memo_misses, n);
        run_hits += r.memo_hits;
        run_misses += r.memo_misses;
    }

    let (hits, misses) = engine.memo_stats();
    // Every lookup is either a hit or a miss — the race may recompute a
    // point more than once (miss before another thread's insert lands),
    // but it can never lose accounting, and the runs' own tallies add up
    // to the cache's lifetime counts.
    assert_eq!(hits + misses, RUNS * n, "hits {hits} + misses {misses}");
    assert_eq!((run_hits, run_misses), (hits, misses));
    assert!(misses >= n, "at least one full grid of cold misses");
    // How many racing lookups hit depends on scheduling; once the racers
    // are done the cache is warm, so a later run is all hits.
    let later = engine.run(&grid).unwrap();
    assert_eq!(
        (later.memo_hits, later.memo_misses),
        (n, 0),
        "later runs hit the shared cache"
    );
}

#[test]
fn obs_counters_mirror_memo_accounting() {
    let grid = corpus_grid();
    let n = grid.len() as u64;
    fs_core::obs::configure(fs_core::obs::ObsConfig::enabled());
    let before = fs_core::obs::snapshot();
    let engine = SweepEngine::new();
    engine.run(&grid).unwrap();
    engine.run(&grid).unwrap();
    let after = fs_core::obs::snapshot();
    fs_core::obs::configure(fs_core::obs::ObsConfig::disabled());
    // Other tests in this binary may run engines concurrently while obs is
    // enabled, so the global registry deltas are lower-bounded, not exact.
    let d_hits = after.counter("sweep.memo_hits") - before.counter("sweep.memo_hits");
    let d_misses = after.counter("sweep.memo_misses") - before.counter("sweep.memo_misses");
    let d_points =
        after.counter("sweep.points_evaluated") - before.counter("sweep.points_evaluated");
    assert!(d_hits >= n, "registry saw this engine's {n} hits: {d_hits}");
    assert!(
        d_misses >= n,
        "registry saw this engine's {n} misses: {d_misses}"
    );
    assert!(
        d_points >= 2 * n,
        "registry saw both runs' points: {d_points}"
    );
}

#[test]
fn point_keys_are_content_fingerprints() {
    use fs_core::point_key;
    let m = machines::paper48();
    let k = scaled_kernel("histogram");

    // Stable across calls and across structurally identical kernels built
    // independently — the key is a content fingerprint, not an identity.
    let path = fs_core::FsPath::default();
    let key = point_key(&k, &m, 8, &EvalMode::Full, path);
    assert_eq!(key, point_key(&k, &m, 8, &EvalMode::Full, path));
    assert_eq!(key, point_key(&k.clone(), &m, 8, &EvalMode::Full, path));
    assert_eq!(
        key,
        point_key(&scaled_kernel("histogram"), &m, 8, &EvalMode::Full, path)
    );

    // Any coordinate change must change the key.
    assert_ne!(key, point_key(&k, &m, 4, &EvalMode::Full, path));
    assert_ne!(
        key,
        point_key(&k, &m, 8, &EvalMode::EarlyExit(EarlyExit::default()), path)
    );
    assert_ne!(
        key,
        point_key(&k, &m, 8, &EvalMode::Full, fs_core::FsPath::Reference)
    );
    // Both fast spellings of the path are one coordinate value.
    assert_eq!(
        key,
        point_key(&k, &m, 8, &EvalMode::Full, fs_core::FsPath::Optimized)
    );
    assert_ne!(
        key,
        point_key(
            &fs_core::kernel_at_chunk(&k, 4),
            &m,
            8,
            &EvalMode::Full,
            path
        )
    );
    let mut other_machine = machines::paper48();
    other_machine.caches.line_size *= 2;
    assert_ne!(key, point_key(&k, &other_machine, 8, &EvalMode::Full, path));
    assert_ne!(
        key,
        point_key(&scaled_kernel("heat"), &m, 8, &EvalMode::Full, path)
    );
}

#[test]
fn sweep_json_document_shape_is_stable() {
    let grid = SweepGrid::new(
        vec![("histogram".to_string(), scaled_kernel("histogram"))],
        ("paper48".to_string(), machines::paper48()),
        vec![4],
        vec![1],
    );
    let r = SweepEngine::new().run(&grid).unwrap();
    let json = r.to_json().render();
    assert!(json.starts_with(r#"{"points":1,"memo_hits":0,"memo_misses":1,"results":[{"kernel":"histogram","machine":"paper48","threads":4,"chunk":1,"#));
    // Round-trip stability: rendering twice yields the same bytes.
    assert_eq!(json, r.to_json().render());
    assert!(matches!(r.to_json(), JsonValue::Obj(_)));
}

#[test]
fn teams_over_the_model_limit_fail_before_any_point_runs() {
    let limit = cost_model::MAX_MODEL_THREADS;
    for threads in [
        vec![limit + 1],
        vec![limit + 1, limit + 2],
        vec![2, limit + 1],
    ] {
        let grid = SweepGrid::new(
            vec![("histogram".to_string(), scaled_kernel("histogram"))],
            ("paper48".to_string(), machines::paper48()),
            threads.clone(),
            vec![1],
        );
        let engine = SweepEngine::new().workers(2);
        match engine.run(&grid) {
            Err(fs_core::AnalysisError::Validation(loop_ir::ValidateError::TeamTooLarge {
                requested,
                max,
            })) => assert_eq!((requested, max), (limit + 1, limit)),
            other => panic!("threads {threads:?}: expected TeamTooLarge, got {other:?}"),
        }
        let s = engine.cache().stats();
        assert_eq!((s.hits, s.misses), (0, 0), "nothing evaluated");
    }
}

#[test]
fn grid_memo_tallies_move_once_per_point() {
    let kernels = vec![
        ("histogram".to_string(), scaled_kernel("histogram")),
        ("linreg".to_string(), scaled_kernel("linreg")),
    ];
    let grid = SweepGrid::new(
        kernels,
        ("paper48".to_string(), machines::paper48()),
        vec![2, 4],
        vec![1, 16],
    );
    let n = grid.len() as u64;
    let engine = SweepEngine::new().workers(2);

    let cold = engine.run(&grid).unwrap();
    let s = engine.cache().stats();
    assert_eq!((s.hits, s.misses), (0, n), "cold: one probe per point");
    assert_eq!((cold.memo_hits, cold.memo_misses), (0, n));
    assert_eq!(cold.stats.pool_workers, 2, "cold misses fan out");

    let warm = engine.run(&grid).unwrap();
    let s = engine.cache().stats();
    assert_eq!((s.hits, s.misses), (n, n), "warm: one hit per point");
    assert_eq!((warm.memo_hits, warm.memo_misses), (n, 0));
    assert_eq!(warm.stats.pool_workers, 0, "an all-hit run never fans out");
    assert_eq!(warm.stats.point_wall_ns.len() as u64, n);
    assert!(
        warm.stats.point_wall_ns.iter().all(|&ns| ns > 0),
        "every hit measures its probe: {:?}",
        warm.stats.point_wall_ns
    );
}
