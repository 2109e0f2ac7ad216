//! Differential oracle for the measured side: the optimized replay (dense
//! directory + batched block generation) is bit-identical on [`SimStats`]
//! to the reference per-access MESI simulator, over generated kernels ×
//! team sizes × schedules × interleave policies × machines. A diverging
//! case is shrunk and dumped as a `.loop` reproducer by the shared harness
//! in `tests/common`. Plus a determinism test: the pooled experiment
//! harness returns byte-identical results to a serial run.

mod common;

use common::{differential, Case, Kind};
use fs_core::simulation::{simulate_kernel, Interleave, SimOptions, SimPath, SimStats};
use machine::presets;

/// `SimPath::Optimized` against `SimPath::Reference`, every field of
/// [`SimStats`].
fn divergence(case: &Case) -> Option<String> {
    let kernel = case.kernel();
    let machine = if case.tiny_machine {
        presets::tiny_test()
    } else {
        presets::paper48()
    };
    let mut opts = SimOptions::new(case.threads).with_interleave(case.interleave);
    opts.prefetch = case.prefetch;
    let optimized = simulate_kernel(&kernel, &machine, opts.with_path(SimPath::Optimized));
    let reference = simulate_kernel(&kernel, &machine, opts.with_path(SimPath::Reference));
    (optimized != reference).then(|| {
        format!(
            "optimized replay diverges from reference: {} vs {} accesses, {} vs {} FS misses",
            optimized.total_accesses(),
            reference.total_accesses(),
            optimized.total_false_sharing(),
            reference.total_false_sharing()
        )
    })
}

/// Full equivalence over every template kind, both machine presets, all
/// three interleave policies and the prefetcher toggle.
#[test]
fn optimized_replay_matches_reference() {
    differential(
        "optimized_replay_matches_reference",
        32,
        |rng| Case {
            interleave: rng.pick(&[
                Interleave::PerIteration,
                Interleave::PerChunk,
                Interleave::PerIterationSkewed,
            ]),
            prefetch: rng.coin(),
            tiny_machine: rng.coin(),
            ..Case::draw(rng, &[Kind::Corpus, Kind::Decidable, Kind::Boundary])
        },
        divergence,
    );
}

/// The parallel experiment harness must be a pure reordering of work:
/// replaying the same grid serially and on the pool yields byte-identical
/// stats, in the same (canonical index) order, for every interleave
/// policy.
#[test]
fn pooled_harness_replays_are_deterministic() {
    let machine = presets::paper48();
    let kernel = loop_ir::kernels::transpose(48, 48, 1);
    let policies = [
        Interleave::PerIteration,
        Interleave::PerChunk,
        Interleave::PerIterationSkewed,
    ];
    let grid: Vec<SimStats> = policies
        .iter()
        .map(|&il| simulate_kernel(&kernel, &machine, SimOptions::new(6).with_interleave(il)))
        .collect();
    for workers in [1usize, 4] {
        let got = fs_core::run_indexed(policies.len(), workers, |i| {
            simulate_kernel(
                &kernel,
                &machine,
                SimOptions::new(6).with_interleave(policies[i]),
            )
        });
        assert_eq!(got, grid, "workers={workers}");
    }
}
