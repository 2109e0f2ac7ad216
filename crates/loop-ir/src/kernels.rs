//! Built-in kernels: the paper's three evaluation workloads plus several
//! classic false-sharing workloads used by the examples, tests and bench
//! binaries.
//!
//! All constructors take size parameters so tests can use tiny instances and
//! the experiment harness can use paper-scale ones. `chunk` is the
//! `schedule(static, chunk)` parameter — the knob the paper turns to create
//! its "FS case" (chunk = 1) and "non-FS case" (chunk = 64/16/10) loops.

use crate::array::ElemLayout;
use crate::expr::AffineExpr;
use crate::kernel::{Kernel, KernelBuilder};
use crate::nest::Schedule;
use crate::reference::ArrayRef;
use crate::stmt::{Expr, Stmt, UnOp};
use crate::types::ScalarType;

/// The Phoenix **linear regression** kernel (paper Fig. 1), parallelized at
/// the *outermost* loop.
///
/// ```c
/// #pragma omp parallel for private(i,j) schedule(static,1)
/// for (j = 0; j < N; j++)
///   for (i = 0; i < M/num_threads; i++) {
///     tid_args[j].sx  += points[j][i].x;
///     tid_args[j].sxx += points[j][i].x * points[j][i].x;
///     tid_args[j].sy  += points[j][i].y;
///     tid_args[j].syy += points[j][i].y * points[j][i].y;
///     tid_args[j].sxy += points[j][i].x * points[j][i].y;
///   }
/// ```
///
/// `args[j]` is a packed 40-byte struct of five f64 accumulators, so a 64-byte
/// line holds parts of two adjacent elements: with `chunk = 1` neighbouring
/// threads continuously invalidate each other's accumulator lines.
pub fn linear_regression(n: u64, m_inner: u64, chunk: u64) -> Kernel {
    linear_regression_layout(n, m_inner, chunk, false)
}

/// [`linear_regression`] with the paper's strong-scaling inner trip count:
/// the source loop is `for (i = 0; i < M/num_threads; i++)`, so the total
/// work — and with it the total FS case count — shrinks as the team grows.
/// This is what makes the paper's Table III/VI linreg numbers *decay* with
/// the thread count.
pub fn linear_regression_scaled(n: u64, m_total: u64, num_threads: u64, chunk: u64) -> Kernel {
    linear_regression(n, (m_total / num_threads.max(1)).max(1), chunk)
}

/// [`linear_regression`] with each accumulator struct padded to a full
/// 64-byte cache line — the classic mitigation; used as a baseline.
pub fn linear_regression_padded(n: u64, m_inner: u64, chunk: u64) -> Kernel {
    linear_regression_layout(n, m_inner, chunk, true)
}

fn linear_regression_layout(n: u64, m_inner: u64, chunk: u64, padded: bool) -> Kernel {
    let mut b = KernelBuilder::new(if padded {
        "linear_regression_padded"
    } else {
        "linear_regression"
    });
    let j = b.loop_var("j");
    let i = b.loop_var("i");
    let fields = [
        ("sx", ScalarType::F64),
        ("sxx", ScalarType::F64),
        ("sy", ScalarType::F64),
        ("syy", ScalarType::F64),
        ("sxy", ScalarType::F64),
    ];
    let elem = if padded {
        ElemLayout::padded_struct(&fields, 64)
    } else {
        ElemLayout::packed_struct(&fields)
    };
    let args = b.struct_array("args", &[n], elem);
    let points = b.struct_array(
        "points",
        &[n, m_inner],
        ElemLayout::packed_struct(&[("x", ScalarType::F64), ("y", ScalarType::F64)]),
    );
    b.parallel_for(j, 0, n as i64, Schedule::Static { chunk });
    b.seq_for(i, 0, m_inner as i64);

    let px = b.field(points, "x");
    let py = b.field(points, "y");
    let x = || {
        Expr::read(
            ArrayRef::read(points, vec![AffineExpr::var(j), AffineExpr::var(i)]).with_field(px),
        )
    };
    let y = || {
        Expr::read(
            ArrayRef::read(points, vec![AffineExpr::var(j), AffineExpr::var(i)]).with_field(py),
        )
    };
    let acc = |b: &KernelBuilder, name: &str| {
        ArrayRef::write(args, vec![AffineExpr::var(j)]).with_field(b.field(args, name))
    };

    let sx = acc(&b, "sx");
    b.stmt(Stmt::add_assign(sx, x()));
    let sxx = acc(&b, "sxx");
    b.stmt(Stmt::add_assign(sxx, Expr::mul(x(), x())));
    let sy = acc(&b, "sy");
    b.stmt(Stmt::add_assign(sy, y()));
    let syy = acc(&b, "syy");
    b.stmt(Stmt::add_assign(syy, Expr::mul(y(), y())));
    let sxy = acc(&b, "sxy");
    b.stmt(Stmt::add_assign(sxy, Expr::mul(x(), y())));
    b.build()
}

/// The **heat diffusion** kernel, parallelized at the *innermost* loop (as in
/// the paper's evaluation): a 5-point 2-D Jacobi sweep where every thread
/// writes interleaved elements of the output row.
///
/// ```c
/// for (i = 1; i < N-1; i++)
///   #pragma omp parallel for schedule(static, chunk)
///   for (j = 1; j < M-1; j++)
///     B[i][j] = A[i][j] + k*(A[i-1][j] + A[i+1][j] + A[i][j-1] + A[i][j+1] - 4*A[i][j]);
/// ```
pub fn heat_diffusion(n: u64, m: u64, chunk: u64) -> Kernel {
    let mut b = KernelBuilder::new("heat_diffusion");
    let i = b.loop_var("i");
    let j = b.loop_var("j");
    let a = b.array("A", &[n, m], ScalarType::F64);
    let out = b.array("B", &[n, m], ScalarType::F64);
    b.seq_for(i, 1, n as i64 - 1);
    b.parallel_for(j, 1, m as i64 - 1, Schedule::Static { chunk });

    let at = |di: i64, dj: i64| {
        Expr::read(ArrayRef::read(
            a,
            vec![AffineExpr::linear(i, 1, di), AffineExpr::linear(j, 1, dj)],
        ))
    };
    // B[i][j] = A[i][j] + 0.1 * (A[i-1][j] + A[i+1][j] + A[i][j-1] + A[i][j+1] - 4*A[i][j])
    let laplacian = Expr::sub(
        Expr::add(
            Expr::add(at(-1, 0), at(1, 0)),
            Expr::add(at(0, -1), at(0, 1)),
        ),
        Expr::mul(Expr::num(4.0), at(0, 0)),
    );
    b.stmt(Stmt::assign(
        ArrayRef::write(out, vec![AffineExpr::var(i), AffineExpr::var(j)]),
        Expr::add(at(0, 0), Expr::mul(Expr::num(0.1), laplacian)),
    ));
    b.build()
}

/// The **discrete Fourier transform** kernel, parallelized at the
/// *innermost* loop over output bins: each thread accumulates twiddled
/// contributions of input sample `n` into its interleaved set of output
/// bins.
///
/// ```c
/// for (n = 0; n < N; n++)
///   #pragma omp parallel for schedule(static, chunk)
///   for (k = 0; k < K; k++) {
///     Xre[k] += x[n] * cos(2*pi*k*n/N);
///     Xim[k] -= x[n] * sin(2*pi*k*n/N);
///   }
/// ```
///
/// Twiddle factors are *computed* (one transcendental op each, matching the
/// direct-evaluation DFT the paper cites) rather than read from a table, so
/// the only written data are the `Xre`/`Xim` bins — whose neighbouring
/// elements share lines across threads when `chunk` is small.
pub fn dft(n_in: u64, n_out: u64, chunk: u64) -> Kernel {
    let mut b = KernelBuilder::new("dft");
    let n = b.loop_var("n");
    let k = b.loop_var("k");
    let xin = b.array("x", &[n_in], ScalarType::F64);
    let xre = b.array("Xre", &[n_out], ScalarType::F64);
    let xim = b.array("Xim", &[n_out], ScalarType::F64);
    b.seq_for(n, 0, n_in as i64);
    b.parallel_for(k, 0, n_out as i64, Schedule::Static { chunk });

    let sample = || Expr::read(ArrayRef::read(xin, vec![AffineExpr::var(n)]));
    let twiddle = || Expr::Unary(UnOp::SinCos, Box::new(sample()));
    b.stmt(Stmt::add_assign(
        ArrayRef::write(xre, vec![AffineExpr::var(k)]),
        Expr::mul(sample(), twiddle()),
    ));
    b.stmt(Stmt::add_assign(
        ArrayRef::write(xim, vec![AffineExpr::var(k)]),
        Expr::mul(sample(), twiddle()),
    ));
    b.build()
}

/// 1-D 3-point **stencil** (moving average), single parallel loop. A compact
/// workload whose only false sharing is on the output array's chunk
/// boundaries.
pub fn stencil1d(n: u64, chunk: u64) -> Kernel {
    let mut b = KernelBuilder::new("stencil1d");
    let i = b.loop_var("i");
    let a = b.array("A", &[n], ScalarType::F64);
    let out = b.array("B", &[n], ScalarType::F64);
    b.parallel_for(i, 1, n as i64 - 1, Schedule::Static { chunk });
    let at = |d: i64| Expr::read(ArrayRef::read(a, vec![AffineExpr::linear(i, 1, d)]));
    b.stmt(Stmt::assign(
        ArrayRef::write(out, vec![AffineExpr::var(i)]),
        Expr::mul(
            Expr::add(Expr::add(at(-1), at(0)), at(1)),
            Expr::num(1.0 / 3.0),
        ),
    ));
    b.build()
}

/// **Matrix transpose** `B[j][i] = A[i][j]` parallelized over `i` (columns of
/// `B`): with `chunk = 1`, adjacent threads write adjacent elements of every
/// row of `B`, producing false sharing on *every* innermost iteration.
pub fn transpose(n: u64, m: u64, chunk: u64) -> Kernel {
    let mut b = KernelBuilder::new("transpose");
    let i = b.loop_var("i");
    let j = b.loop_var("j");
    let a = b.array("A", &[n, m], ScalarType::F64);
    let out = b.array("B", &[m, n], ScalarType::F64);
    b.parallel_for(i, 0, n as i64, Schedule::Static { chunk });
    b.seq_for(j, 0, m as i64);
    b.stmt(Stmt::assign(
        ArrayRef::write(out, vec![AffineExpr::var(j), AffineExpr::var(i)]),
        Expr::read(ArrayRef::read(
            a,
            vec![AffineExpr::var(i), AffineExpr::var(j)],
        )),
    ));
    b.build()
}

/// **Dot-product with per-thread partials**: thread-shaped outer parallel
/// loop (`chunk = 1`, one iteration per thread), each accumulating into
/// `partial[t]`. With packed partials every `+=` false-shares with the
/// team; `padded = true` gives each partial its own line.
pub fn dotprod_partials(nthreads: u64, len: u64, padded: bool) -> Kernel {
    let mut b = KernelBuilder::new(if padded {
        "dotprod_partials_padded"
    } else {
        "dotprod_partials"
    });
    let t = b.loop_var("t");
    let i = b.loop_var("i");
    let x = b.array("x", &[nthreads * len], ScalarType::F64);
    let y = b.array("y", &[nthreads * len], ScalarType::F64);
    let elem = if padded {
        ElemLayout::padded_struct(&[("v", ScalarType::F64)], 64)
    } else {
        ElemLayout::packed_struct(&[("v", ScalarType::F64)])
    };
    let partial = b.struct_array("partial", &[nthreads], elem);
    b.parallel_for(t, 0, nthreads as i64, Schedule::Static { chunk: 1 });
    b.seq_for(i, 0, len as i64);
    // x[t*len + i] * y[t*len + i]
    let idx = AffineExpr::linear(t, len as i64, 0) + AffineExpr::var(i);
    let v = b.field(partial, "v");
    b.stmt(Stmt::add_assign(
        ArrayRef::write(partial, vec![AffineExpr::var(t)]).with_field(v),
        Expr::mul(
            Expr::read(ArrayRef::read(x, vec![idx.clone()])),
            Expr::read(ArrayRef::read(y, vec![idx])),
        ),
    ));
    b.build()
}

/// **Matrix-vector product** `y[i] += A[i][j] * x[j]` parallelized over rows:
/// a reduction kernel whose accumulators false-share at small chunk sizes,
/// structurally similar to linear regression but with scalar accumulators.
pub fn matvec(n: u64, m: u64, chunk: u64) -> Kernel {
    let mut b = KernelBuilder::new("matvec");
    let i = b.loop_var("i");
    let j = b.loop_var("j");
    let a = b.array("A", &[n, m], ScalarType::F64);
    let x = b.array("x", &[m], ScalarType::F64);
    let y = b.array("y", &[n], ScalarType::F64);
    b.parallel_for(i, 0, n as i64, Schedule::Static { chunk });
    b.seq_for(j, 0, m as i64);
    b.stmt(Stmt::add_assign(
        ArrayRef::write(y, vec![AffineExpr::var(i)]),
        Expr::mul(
            Expr::read(ArrayRef::read(
                a,
                vec![AffineExpr::var(i), AffineExpr::var(j)],
            )),
            Expr::read(ArrayRef::read(x, vec![AffineExpr::var(j)])),
        ),
    ));
    b.build()
}

/// **Matrix multiply** `C[i][j] += A[i][k] * B[k][j]` with the *middle*
/// loop parallelized over output columns — a three-deep nest exercising the
/// full walker machinery. With `chunk = 1` adjacent threads accumulate into
/// adjacent elements of each `C` row.
pub fn matmul(n: u64, m: u64, p: u64, chunk: u64) -> Kernel {
    let mut b = KernelBuilder::new("matmul");
    let i = b.loop_var("i");
    let j = b.loop_var("j");
    let k = b.loop_var("k");
    let a = b.array("A", &[n, p], ScalarType::F64);
    let bb = b.array("B", &[p, m], ScalarType::F64);
    let c = b.array("C", &[n, m], ScalarType::F64);
    b.seq_for(i, 0, n as i64);
    b.parallel_for(j, 0, m as i64, Schedule::Static { chunk });
    b.seq_for(k, 0, p as i64);
    b.stmt(Stmt::add_assign(
        ArrayRef::write(c, vec![AffineExpr::var(i), AffineExpr::var(j)]),
        Expr::mul(
            Expr::read(ArrayRef::read(
                a,
                vec![AffineExpr::var(i), AffineExpr::var(k)],
            )),
            Expr::read(ArrayRef::read(
                bb,
                vec![AffineExpr::var(k), AffineExpr::var(j)],
            )),
        ),
    ));
    b.build()
}

/// **Shared histogram**: every thread RMWs the *same* small bin array — a
/// true-sharing workload (same bytes), the negative control that separates
/// TRUE sharing from FALSE sharing in both the model and the simulator.
pub fn histogram_shared(nthreads: u64, len: u64, bins: u64) -> Kernel {
    let mut b = KernelBuilder::new("histogram_shared");
    let t = b.loop_var("t");
    let i = b.loop_var("i");
    let data = b.array("data", &[nthreads, len], ScalarType::F64);
    let hist = b.array("hist", &[bins], ScalarType::F64);
    b.parallel_for(t, 0, nthreads as i64, Schedule::Static { chunk: 1 });
    b.seq_for(i, 0, len as i64);
    // Every thread adds into bin (i mod bins)... affine restriction: use
    // bin 0 — the maximally contended case.
    b.stmt(Stmt::add_assign(
        ArrayRef::write(hist, vec![AffineExpr::constant(0)]),
        Expr::read(ArrayRef::read(
            data,
            vec![AffineExpr::var(t), AffineExpr::var(i)],
        )),
    ));
    b.build()
}

/// **SAXPY** `y[i] = a*x[i] + y[i]`: the canonical streaming kernel; its
/// only false sharing is at chunk boundaries on `y`.
pub fn saxpy(n: u64, chunk: u64) -> Kernel {
    let mut b = KernelBuilder::new("saxpy");
    let i = b.loop_var("i");
    let x = b.array("x", &[n], ScalarType::F64);
    let y = b.array("y", &[n], ScalarType::F64);
    b.parallel_for(i, 0, n as i64, Schedule::Static { chunk });
    b.stmt(Stmt::assign(
        ArrayRef::write(y, vec![AffineExpr::var(i)]),
        Expr::add(
            Expr::mul(
                Expr::num(2.5),
                Expr::read(ArrayRef::read(x, vec![AffineExpr::var(i)])),
            ),
            Expr::read(ArrayRef::read(y, vec![AffineExpr::var(i)])),
        ),
    ));
    b.build()
}

/// **Strided reduction**: thread-shaped outer loop, but each thread's data
/// is *interleaved* (`x[i*T + t]`) instead of blocked — every read shares
/// lines with the whole team (read-only, so no FS) while the accumulators
/// false-share. Distinguishes read-sharing from write-sharing costs.
pub fn strided_reduction(nthreads: u64, len: u64) -> Kernel {
    let mut b = KernelBuilder::new("strided_reduction");
    let t = b.loop_var("t");
    let i = b.loop_var("i");
    let x = b.array("x", &[nthreads * len], ScalarType::F64);
    let partial = b.array("partial", &[nthreads], ScalarType::F64);
    b.parallel_for(t, 0, nthreads as i64, Schedule::Static { chunk: 1 });
    b.seq_for(i, 0, len as i64);
    // x[i*T + t]
    let idx = AffineExpr::linear(i, nthreads as i64, 0) + AffineExpr::var(t);
    b.stmt(Stmt::add_assign(
        ArrayRef::write(partial, vec![AffineExpr::var(t)]),
        Expr::read(ArrayRef::read(x, vec![idx])),
    ));
    b.build()
}

/// Small instances of every built-in kernel, for tests and smoke runs.
pub fn all_kernels_small() -> Vec<Kernel> {
    vec![
        linear_regression(16, 32, 1),
        linear_regression_padded(16, 32, 1),
        heat_diffusion(18, 18, 1),
        dft(16, 32, 1),
        stencil1d(66, 1),
        transpose(16, 16, 1),
        dotprod_partials(8, 32, false),
        dotprod_partials(8, 32, true),
        matvec(16, 16, 1),
        matmul(8, 16, 8, 1),
        histogram_shared(8, 16, 8),
        saxpy(128, 1),
        strided_reduction(8, 32),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::{validate, validate_bounds};

    #[test]
    fn all_builtin_kernels_validate() {
        for k in all_kernels_small() {
            validate(&k).unwrap_or_else(|e| panic!("{}: {e}", k.name));
            validate_bounds(&k).unwrap_or_else(|e| panic!("{}: {e}", k.name));
        }
    }

    #[test]
    fn linreg_structure_matches_paper() {
        let k = linear_regression(96, 100, 1);
        assert_eq!(k.nest.parallel.level, 0, "parallelized at outermost loop");
        assert_eq!(k.nest.body.len(), 5, "five accumulator statements");
        let (_, args) = k.array_named("args").unwrap();
        assert_eq!(args.elem.size_bytes(), 40, "packed 5x f64 struct");
        // 5 statements, each: reads + lhs-read + lhs-write
        let plan = k.access_plan();
        assert_eq!(plan.writes_per_iter(), 5);
    }

    #[test]
    fn linreg_padded_fills_a_line() {
        let k = linear_regression_padded(96, 100, 1);
        let (_, args) = k.array_named("args").unwrap();
        assert_eq!(args.elem.size_bytes(), 64);
    }

    #[test]
    fn heat_and_dft_parallelize_innermost() {
        let h = heat_diffusion(64, 64, 1);
        assert_eq!(h.nest.parallel.level, 1);
        assert_eq!(h.nest.depth(), 2);
        let d = dft(64, 64, 1);
        assert_eq!(d.nest.parallel.level, 1);
    }

    #[test]
    fn heat_trip_counts_exclude_halo() {
        let h = heat_diffusion(18, 34, 1);
        assert_eq!(h.nest.loops[0].const_trip_count(), Some(16));
        assert_eq!(h.nest.parallel_trip_count(), Some(32));
    }

    #[test]
    fn dft_writes_two_bins_per_iteration() {
        let d = dft(8, 8, 1);
        assert_eq!(d.access_plan().writes_per_iter(), 2);
    }

    #[test]
    fn dotprod_partials_is_thread_shaped() {
        let k = dotprod_partials(4, 16, false);
        assert_eq!(k.nest.parallel_trip_count(), Some(4));
        assert_eq!(k.nest.parallel.schedule.chunk(), 1);
        let kp = dotprod_partials(4, 16, true);
        let (_, p) = kp.array_named("partial").unwrap();
        assert_eq!(p.elem.size_bytes(), 64);
    }

    #[test]
    fn matmul_is_three_deep_with_middle_parallel() {
        let k = matmul(4, 8, 4, 1);
        assert_eq!(k.nest.depth(), 3);
        assert_eq!(k.nest.parallel.level, 1);
        assert_eq!(k.nest.total_iterations(), Some(4 * 8 * 4));
        assert_eq!(k.nest.inner_iters_per_parallel_iter(), Some(4));
        assert_eq!(k.nest.outer_iters(), Some(4));
    }

    #[test]
    fn histogram_shared_hits_one_element() {
        let k = histogram_shared(4, 8, 8);
        let w = &k.nest.body[0].lhs;
        assert_eq!(w.indices[0].as_const(), Some(0));
    }

    #[test]
    fn strided_reduction_reads_interleaved() {
        let k = strided_reduction(4, 8);
        let mut reads = Vec::new();
        k.nest.body[0].rhs.collect_reads(&mut reads);
        // x index = 4*i + t
        assert_eq!(reads[0].indices[0].coeff(loop_ir_var(1)), 4);
        assert_eq!(reads[0].indices[0].coeff(loop_ir_var(0)), 1);
    }

    fn loop_ir_var(i: u32) -> crate::expr::VarId {
        crate::expr::VarId(i)
    }

    #[test]
    fn transpose_write_is_column_major() {
        let k = transpose(8, 8, 1);
        let plan = k.access_plan();
        let w = plan.accesses.iter().find(|a| a.is_write).unwrap();
        // write subscript is [j][i]: first index uses var 1 (j)
        assert!(w.indices[0].uses_var(crate::expr::VarId(1)));
        assert!(w.indices[1].uses_var(crate::expr::VarId(0)));
    }
}
