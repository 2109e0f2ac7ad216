//! The simulator's two-way dispatch invariant: every replay is answered by
//! exactly one engine, so `sim.dispatch_dense + sim.dispatch_reference ==
//! sim.replays`, and the engine is the one requested, at any footprint:
//! `sim.dispatch_reference` moves only for [`SimPath::Reference`].
//!
//! A test binary of its own: the counters are process-global, so no other
//! test may replay while this one reads them.

use fs_core::corpus_kernel_with_consts;
use fs_core::obs::{self, counters};
use fs_core::simulation::{simulate_kernel, SimOptions, SimPath};
use loop_ir::{ArrayRef, Expr, Kernel, KernelBuilder, ScalarType, Schedule, Stmt};
use machine::presets;

/// Every corpus kernel at a small problem size (const names as in
/// `crates/core/src/corpus.rs`).
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

/// A kernel whose footprint (2^22 lines) is past the dense tables' identity
/// region but which touches only 64 lines.
fn oversized_kernel() -> Kernel {
    let stride = 1 << 19;
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

/// `(replays, dispatch_dense, dispatch_reference)`.
fn tallies() -> (u64, u64, u64) {
    (
        counters::SIM_REPLAYS.get(),
        counters::SIM_DISPATCH_DENSE.get(),
        counters::SIM_DISPATCH_REFERENCE.get(),
    )
}

#[test]
fn every_replay_takes_exactly_one_of_two_engines() {
    obs::configure(obs::ObsConfig::enabled());
    obs::reset();
    let machine = presets::paper48();
    let kernels = small_corpus().into_iter().chain([oversized_kernel()]);

    for kernel in kernels {
        for prefetch in [true, false] {
            for path in [SimPath::Optimized, SimPath::Reference] {
                let mut opts = SimOptions::new(4).with_path(path);
                opts.prefetch = prefetch;
                let (replays, dense, reference) = tallies();
                simulate_kernel(&kernel, &machine, opts);
                let after = tallies();
                let dense_run = path == SimPath::Optimized;
                assert_eq!(
                    after,
                    (
                        replays + 1,
                        dense + dense_run as u64,
                        reference + !dense_run as u64,
                    ),
                    "kernel={} prefetch={prefetch} path={path:?}",
                    kernel.name
                );
                assert_eq!(after.1 + after.2, after.0, "dense + reference == replays");
            }
        }
    }
    obs::configure(obs::ObsConfig::disabled());
}
