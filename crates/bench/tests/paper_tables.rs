//! The paper's Tables I–III kernels at the sizes the reproduction runs
//! (`fs_bench::scale`): the fast engines equal their oracles there. The
//! golden tables pin the engines the reproduction runs — the fast FS
//! dispatch (closed form where a period verifies, the dense walk
//! elsewhere) and the optimized replay — so these are the checks that the
//! closed form equals the dense walk and the optimized replay equals the
//! reference replay at full size.

use cache_sim::{simulate_kernel_prepared, SimOptions, SimPath, SimPrepared};
use cost_model::fs::run_fs_model_dense;
use cost_model::{analyze_loop, AnalysisOptions, FsModelConfig, FsPath};
use fs_bench::scale;
use loop_ir::Kernel;
use machine::presets;

type Family = (&'static str, fn(u64, u32) -> Kernel, (u64, u64));

/// Costliest first, so the two workers finish close together.
const FAMILIES: [Family; 3] = [
    ("linreg", scale::linreg, scale::LINREG_CHUNKS),
    ("heat", scale::heat, scale::HEAT_CHUNKS),
    ("dft", scale::dft, scale::DFT_CHUNKS),
];

/// Dense replay == reference replay, field for field on [`SimStats`], at
/// 8 threads and both table chunks (one preparation per family, as the
/// tables share it). The 12 replays fan out over two workers.
///
/// [`SimStats`]: cache_sim::SimStats
#[test]
fn paper_table_kernels_replay_identically() {
    let machine = presets::paper48();
    let threads = 8;
    let mut points = Vec::new();
    for (name, build, (fs_chunk, nfs_chunk)) in FAMILIES {
        let prepared = SimPrepared::new(&build(fs_chunk, threads), machine.line_size());
        for chunk in [fs_chunk, nfs_chunk] {
            points.push((name, chunk, build(chunk, threads), prepared.clone()));
        }
    }
    let paths = [SimPath::Optimized, SimPath::Reference];
    let stats = fs_core::run_indexed(2 * points.len(), 2, |i| {
        let (_, _, kernel, prepared) = &points[i / 2];
        let opts = SimOptions::new(threads).with_path(paths[i % 2]);
        simulate_kernel_prepared(kernel, &machine, opts, prepared)
    });
    for ((name, chunk, _, _), pair) in points.iter().zip(stats.chunks(2)) {
        assert_eq!(
            pair[0], pair[1],
            "{name} chunk {chunk}: replay paths diverge"
        );
    }
}

/// Fast FS dispatch == dense walk, field for field, at 8, 16 and 48
/// threads and both table chunks: 18 points, the fast side run as the
/// service runs them (`analyze_loop` on the default path). The closed
/// form answers exactly the pinned half and hands the rest to the dense
/// walk, so a change to where it engages shows here. The 36 runs fan out
/// over two workers.
#[test]
fn paper_table_kernels_symbolic_matches_dense() {
    let machine = presets::paper48();
    let mut points = Vec::new();
    for threads in [48u32, 16, 8] {
        for (name, build, (fs_chunk, nfs_chunk)) in FAMILIES {
            for chunk in [fs_chunk, nfs_chunk] {
                points.push((name, chunk, threads, build(chunk, threads)));
            }
        }
    }
    let runs = fs_core::run_indexed(2 * points.len(), 2, |i| {
        let (_, _, threads, kernel) = &points[i / 2];
        if i % 2 == 0 {
            let cost = analyze_loop(kernel, &machine, &AnalysisOptions::new(*threads));
            (cost.fs, cost.fs_path)
        } else {
            let cfg = FsModelConfig::for_machine(&machine, *threads);
            let plan = kernel.access_plan();
            let bases = kernel.array_bases(cfg.line_size);
            let dense = run_fs_model_dense(kernel, &cfg, &plan, &bases);
            (dense, FsPath::Optimized)
        }
    });
    let mut closed_form = Vec::new();
    for ((name, chunk, threads, _), pair) in points.iter().zip(runs.chunks(2)) {
        assert_eq!(
            pair[0].0, pair[1].0,
            "{name} chunk {chunk}, {threads} threads: symbolic diverges from dense"
        );
        if pair[0].1 == FsPath::Symbolic {
            closed_form.push(format!("{name}_c{chunk}_t{threads}"));
        }
    }
    assert_eq!(
        closed_form,
        [
            "heat_c1_t48",
            "linreg_c1_t16",
            "linreg_c10_t16",
            "heat_c1_t16",
            "heat_c64_t16",
            "linreg_c1_t8",
            "linreg_c10_t8",
            "heat_c1_t8",
            "heat_c64_t8",
        ]
    );
}
