//! Property tests on the FS model's invariants over randomized kernels.

mod common;

use common::cases;
use cost_model::{run_fs_model, FsModelConfig};
use loop_ir::{
    kernels, AffineExpr, ArrayRef, ElemLayout, Expr, Kernel, KernelBuilder, ScalarType, Schedule,
    Stmt,
};
use machine::presets;

fn cfg(threads: u32) -> FsModelConfig {
    FsModelConfig::for_machine(&presets::paper48(), threads)
}

/// A reduction kernel with a parameterized accumulator element size — the
/// canonical FS shape (`acc[t] += data[t][i]`).
fn acc_kernel(slots: u64, inner: u64, chunk: u64, elem_size: usize) -> Kernel {
    let mut b = KernelBuilder::new("prop_acc");
    let t = b.loop_var("t");
    let i = b.loop_var("i");
    let data = b.array("data", &[slots, inner], ScalarType::F64);
    let elem = if elem_size == 8 {
        ElemLayout::packed_struct(&[("v", ScalarType::F64)])
    } else {
        ElemLayout::padded_struct(&[("v", ScalarType::F64)], elem_size)
    };
    let acc = b.struct_array("acc", &[slots], elem);
    b.parallel_for(t, 0, slots as i64, Schedule::Static { chunk });
    b.seq_for(i, 0, inner as i64);
    let v = b.field(acc, "v");
    b.stmt(Stmt::add_assign(
        ArrayRef::write(acc, vec![AffineExpr::var(t)]).with_field(v),
        Expr::read(ArrayRef::read(
            data,
            vec![AffineExpr::var(t), AffineExpr::var(i)],
        )),
    ));
    b.build()
}

/// One thread can never false-share, whatever the kernel.
#[test]
fn single_thread_never_false_shares() {
    cases("single_thread_never_false_shares", 24, |rng| {
        let elem = rng.pick(&[8, 24, 40, 64, 128]);
        let k = acc_kernel(rng.int(2..=23), rng.int(1..=31), rng.int(1..=7), elem);
        let r = run_fs_model(&k, &cfg(1));
        assert_eq!(r.fs_cases, 0);
        assert_eq!(r.fs_events, 0);
        assert_eq!(r.true_sharing_cases, 0);
    });
}

/// Binary events never exceed multiplicity cases; bookkeeping sums hold.
#[test]
fn events_bounded_and_sums_consistent() {
    cases("events_bounded_and_sums_consistent", 24, |rng| {
        let (slots, inner, chunk) = (rng.int(2..=23), rng.int(1..=23), rng.int(1..=5));
        let threads = rng.int(2..=8);
        let k = acc_kernel(slots, inner, chunk, rng.pick(&[8, 24, 40, 64]));
        let r = run_fs_model(&k, &cfg(threads));
        assert!(r.fs_events <= r.fs_cases.max(r.fs_events));
        assert_eq!(r.fs_events, r.fs_read_events + r.fs_write_events);
        assert_eq!(r.per_thread_cases.iter().sum::<u64>(), r.fs_cases);
        assert_eq!(r.per_line_cases.values().sum::<u64>(), r.fs_cases);
        // Series is monotone and ends at the total.
        for w in r.series.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
        if let Some(&(_, last)) = r.series.last() {
            assert_eq!(last, r.fs_cases);
        }
    });
}

/// Line-filling elements eliminate FS entirely; sub-line elements with
/// chunk 1 and a real team always produce it.
#[test]
fn padding_dichotomy() {
    cases("padding_dichotomy", 24, |rng| {
        let (slots, inner, threads) = (rng.int(4..=23), rng.int(2..=23), rng.int(2..=8));
        let elem = rng.pick(&[8, 24, 40, 64, 128]);
        let r = run_fs_model(&acc_kernel(slots, inner, 1, elem), &cfg(threads));
        if elem % 64 == 0 {
            assert_eq!(r.fs_cases, 0, "line-multiple elements cannot share");
        } else {
            assert!(r.fs_cases > 0, "packed accumulators must conflict");
        }
    });
}

/// The model is deterministic.
#[test]
fn model_is_deterministic() {
    cases("model_is_deterministic", 24, |rng| {
        let k = acc_kernel(rng.int(2..=15), rng.int(1..=15), rng.int(1..=3), 8);
        let threads = rng.int(2..=5);
        let a = run_fs_model(&k, &cfg(threads));
        let b = run_fs_model(&k, &cfg(threads));
        assert_eq!(a.fs_cases, b.fs_cases);
        assert_eq!(a.fs_events, b.fs_events);
        assert_eq!(a.series, b.series);
    });
}

/// Evaluated iterations always equal the nest's total (full runs).
#[test]
fn iteration_accounting() {
    cases("iteration_accounting", 24, |rng| {
        let (slots, inner) = (rng.int(2..=15), rng.int(1..=15));
        let k = acc_kernel(slots, inner, rng.int(1..=3), 8);
        let r = run_fs_model(&k, &cfg(rng.int(1..=5)));
        assert_eq!(r.iterations, slots * inner);
        assert!(r.evaluated_chunk_runs <= r.total_chunk_runs);
    });
}

/// Truncated evaluation (the predictor's sampling) never yields more
/// cases than the full run and matches its prefix.
#[test]
fn truncation_is_a_prefix() {
    cases("truncation_is_a_prefix", 24, |rng| {
        let k = acc_kernel(rng.int(8..=31), rng.int(2..=15), 1, 8);
        let threads = rng.int(2..=5);
        let full = run_fs_model(&k, &cfg(threads));
        let mut c = cfg(threads);
        c.max_chunk_runs = Some(rng.int(1..=3));
        let cut = run_fs_model(&k, &c);
        assert!(cut.fs_cases <= full.fs_cases);
        for (a, b) in cut.series.iter().zip(full.series.iter()) {
            assert_eq!(a, b, "truncated series must be a prefix");
        }
    });
}

/// Sanity anchors for the same invariants on the paper kernels.
#[test]
fn paper_kernels_satisfy_invariants() {
    for k in kernels::all_kernels_small() {
        for threads in [1u32, 4] {
            let r = run_fs_model(&k, &cfg(threads));
            assert_eq!(
                r.per_thread_cases.iter().sum::<u64>(),
                r.fs_cases,
                "{}",
                k.name
            );
            assert_eq!(
                r.fs_events,
                r.fs_read_events + r.fs_write_events,
                "{}",
                k.name
            );
            if threads == 1 {
                assert_eq!(r.fs_cases + r.true_sharing_cases, 0, "{}", k.name);
            }
        }
    }
}
