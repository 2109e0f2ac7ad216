//! Integration: the native parallel runtime computes the same results as
//! serial references for every kernel, every schedule, every team size —
//! false sharing must only ever cost time, never correctness.

use fs_runtime::kernels::*;
use fs_runtime::{parallel_for_each, ThreadPool};

mod common;

use common::cases;
use std::sync::atomic::{AtomicU64, Ordering};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
}

#[test]
fn linreg_all_schedules_match_serial() {
    let (n, m) = (48, 61);
    let pts = synth_points(n * m);
    let serial = linreg_serial(&pts, n, m);
    for threads in [1usize, 2, 3, 8] {
        for chunk in [1u64, 2, 5, 30, 64] {
            let par = linreg_packed(&pts, n, m, threads, chunk);
            for (j, (s, p)) in serial.iter().zip(&par).enumerate() {
                assert!(
                    close(s.sx, p.sx)
                        && close(s.sxx, p.sxx)
                        && close(s.sy, p.sy)
                        && close(s.syy, p.syy)
                        && close(s.sxy, p.sxy),
                    "series {j} mismatch (T={threads} C={chunk})"
                );
            }
        }
    }
}

#[test]
fn heat_multiple_sweeps_match_serial() {
    let (n, m) = (20, 26);
    let mut a: Vec<f64> = (0..n * m).map(|i| ((i * 31) % 17) as f64).collect();
    let mut b = a.clone();
    let mut a2 = a.clone();
    let mut b2 = b.clone();
    let pool = ThreadPool::new(3);
    for _ in 0..4 {
        heat_step(&a, &mut b, n, m, 2, &pool);
        std::mem::swap(&mut a, &mut b);
        heat_step_serial(&a2, &mut b2, n, m);
        std::mem::swap(&mut a2, &mut b2);
        assert_eq!(a, a2);
    }
}

#[test]
fn dft_chunk_sizes_match_serial() {
    let x: Vec<f64> = (0..48).map(|i| (i as f64 * 0.13).cos()).collect();
    let bins = 40;
    let (mut rs, mut is) = (vec![0.0; bins], vec![0.0; bins]);
    dft_serial(&x, &mut rs, &mut is);
    let pool = ThreadPool::new(4);
    for chunk in [1u64, 4, 16] {
        let (mut rp, mut ip) = (vec![0.0; bins], vec![0.0; bins]);
        dft_scatter(&x, &mut rp, &mut ip, chunk, &pool);
        for k in 0..bins {
            assert!(close(rs[k], rp[k]), "re[{k}] chunk={chunk}");
            assert!(close(is[k], ip[k]), "im[{k}] chunk={chunk}");
        }
    }
}

#[test]
fn transpose_roundtrip_is_identity() {
    let (n, m) = (33, 17);
    let a: Vec<f64> = (0..n * m).map(|i| i as f64).collect();
    let mut b = vec![0.0; n * m];
    let mut c = vec![0.0; n * m];
    transpose(&a, &mut b, n, m, 4, 1);
    transpose(&b, &mut c, m, n, 3, 2);
    assert_eq!(a, c);
}

/// Every iteration of a static schedule executes exactly once, for
/// arbitrary trip counts, team sizes and chunks.
#[test]
fn static_schedule_partitions_iterations() {
    cases("static_schedule_partitions_iterations", 32, |rng| {
        let (trip, threads, chunk) = (rng.int(0..=499), rng.int(1..=8), rng.int(1..=39));
        let counts: Vec<AtomicU64> = (0..trip).map(|_| AtomicU64::new(0)).collect();
        parallel_for_each(trip, threads, chunk, |_, i| {
            counts[i as usize].fetch_add(1, Ordering::Relaxed);
        });
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "iteration {i}");
        }
    });
}

/// Dot products agree with the direct sum for arbitrary shapes.
#[test]
fn dotprod_agrees() {
    cases("dotprod_agrees", 32, |rng| {
        let len = rng.int(1..=1999);
        let x: Vec<f64> = (0..len).map(|i| (i % 97) as f64 * 0.01).collect();
        let y: Vec<f64> = (0..len).map(|i| ((i * 7) % 89) as f64 * 0.02).collect();
        let direct: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        let d = dotprod_partials(&x, &y, rng.int(1..=8), rng.coin());
        assert!(close(d, direct), "{d} vs {direct}");
    });
}

#[test]
fn pool_survives_many_small_regions() {
    let pool = ThreadPool::new(4);
    let total = AtomicU64::new(0);
    for _ in 0..200 {
        pool.parallel_for(16, 1, |_, r| {
            total.fetch_add(r.end - r.start, Ordering::Relaxed);
        });
    }
    assert_eq!(total.load(Ordering::Relaxed), 200 * 16);
}
