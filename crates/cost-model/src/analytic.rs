//! Closed-form per-chunk cache-line footprint, for the FS005 capacity lint.
//!
//! [`chunk_footprint`] predicts how many distinct cache lines one thread's
//! chunk of `C` parallel iterations touches, as the affine function
//! `fixed + per_iter × (C − 1)`, without replaying a trace. It reads the
//! strength-reduced affine [`loop_ir::CompiledPlan`] streams and reasons per
//! *access group* (accesses of one array whose byte addresses share the same
//! per-variable affine coefficients — e.g. the five-point stencil reads of
//! `u` form one group whose constant offsets span the halo):
//!
//! 1. The group's body footprint is its constant byte intervals, merged at
//!    line granularity into contiguous clusters.
//! 2. A bottom-up **span / distinct-line recursion** over the inner loop
//!    levels: each level contributes a byte delta `δ_l = coeff(var_l) ×
//!    step_l` per iteration, `span[l] = (n_l−1)·|δ_l| + span[l+1]`, and the
//!    distinct lines `DL[l]` follow from stride/interval reasoning
//!    (disjoint, line-dense, or partially-overlapping shifted copies — see
//!    `FootprintStats`).
//! 3. Each extra chunk iteration shifts that footprint by the parallel
//!    stride, adding the new lines the same stride/interval reasoning
//!    gives.
//!
//! The figures are *predictive*, not count-exact; the working-set view is
//! that of the reuse-distance model of Barai et al., *Modeling Shared Cache
//! Performance of OpenMP Programs using Reuse Distance* (`docs/MODEL.md`).
//! Anything outside the decidable fragment (non-constant bounds) returns
//! `None`.

use loop_ir::{AccessPlan, Kernel};
use std::collections::HashMap;

/// One virtual-nest level: iteration count and the per-iteration byte
/// delta of the group under analysis.
#[derive(Debug, Clone, Copy)]
struct VLevel {
    count: f64,
    /// Which kernel variable drives this level, and the multiplier applied
    /// to its compiled coefficient (the loop step).
    var: usize,
    scale: i64,
}

/// Per-group footprint statistics over one virtual nest, bottom-up.
struct FootprintStats {
    /// `span[l]` = byte extent of one traversal of the subtree at level `l`
    /// (index `levels.len()` = the innermost body footprint).
    span: Vec<f64>,
    /// `dl[l]` = distinct cache lines that traversal touches.
    dl: Vec<f64>,
    /// `runs[l]` = estimated maximal contiguous line-runs of that footprint
    /// (1 = dense blob, higher = sparse).
    runs: Vec<f64>,
}

/// An access group: all planned accesses of one array sharing a coefficient
/// vector, so their addresses differ only by compile-time constants.
struct Group {
    /// Byte coefficient per kernel variable.
    coeffs: Vec<i64>,
    /// Constant-offset range `[lo, hi)` covered by the group, including the
    /// widest access size.
    lo: i64,
    hi: i64,
    /// Raw constant byte intervals `[c, c+size)` of the member accesses.
    intervals: Vec<(i64, i64)>,
}

fn build_groups(n_vars: usize, plan: &AccessPlan, cplan: &loop_ir::CompiledPlan) -> Vec<Group> {
    let mut by_key: HashMap<(usize, Vec<i64>), usize> = HashMap::new();
    let mut groups: Vec<Group> = Vec::new();
    for (a, acc) in plan.accesses.iter().enumerate() {
        let coeffs: Vec<i64> = (0..n_vars).map(|v| cplan.coeff(a, v)).collect();
        let c = cplan.const_of(a);
        let end = c.saturating_add(acc.size.max(1) as i64);
        let key = (acc.array.index(), coeffs);
        match by_key.get(&key) {
            Some(&g) => {
                let gr = &mut groups[g];
                gr.lo = gr.lo.min(c);
                gr.hi = gr.hi.max(end);
                gr.intervals.push((c, end));
            }
            None => {
                by_key.insert(key.clone(), groups.len());
                groups.push(Group {
                    coeffs: key.1,
                    lo: c,
                    hi: end,
                    intervals: vec![(c, end)],
                });
            }
        }
    }
    groups
}

/// Merge a group's constant intervals at line granularity: the body
/// footprint of one iteration is a small set of contiguous runs (e.g. the
/// `±row` halo clusters of a stencil), not one solid interval.
fn cluster_intervals(intervals: &[(i64, i64)], line: f64) -> Vec<(i64, i64)> {
    let mut sorted = intervals.to_vec();
    sorted.sort_unstable();
    let mut out: Vec<(i64, i64)> = Vec::with_capacity(sorted.len());
    for (lo, hi) in sorted {
        match out.last_mut() {
            Some(last) if lo <= last.1.saturating_add(line as i64) => last.1 = last.1.max(hi),
            _ => out.push((lo, hi)),
        }
    }
    out
}

/// Does shifting the body clusters by `k·delta` (for some feasible `k`) land
/// them on *other* clusters? If so the footprint is periodic along this
/// level — an outer stencil stride re-covering the halo — and only the
/// unmatched fraction of clusters breaks new ground. Returns that matched
/// fraction.
fn self_overlap_fraction(clusters: &[(i64, i64)], delta: f64, cnt: f64, line: f64) -> Option<f64> {
    if clusters.len() < 2 {
        return None;
    }
    let kmax = ((cnt - 1.0).floor() as i64).min(4);
    for k in 1..=kmax {
        let shift = k as f64 * delta;
        let matched = clusters
            .iter()
            .filter(|&&(lo, _)| {
                clusters
                    .iter()
                    .any(|&(lo2, _)| lo2 != lo && (lo2 as f64 - (lo as f64 + shift)).abs() < line)
            })
            .count();
        if matched > 0 {
            return Some(matched as f64 / clusters.len() as f64);
        }
    }
    None
}

/// Bottom-up span / distinct-line recursion for one group over one virtual
/// nest (see the module docs, step 2).
fn footprint_stats(group: &Group, levels: &[VLevel], line: f64) -> FootprintStats {
    let n = levels.len();
    let clusters = cluster_intervals(&group.intervals, line);
    let width = (group.hi - group.lo).max(1) as f64;
    let mut span = vec![0.0; n + 1];
    let mut dl = vec![0.0; n + 1];
    let mut runs = vec![1.0; n + 1];
    let mut bytes = vec![0.0; n + 1];
    span[n] = width;
    dl[n] = clusters
        .iter()
        .map(|&(lo, hi)| ((hi - lo) as f64 / line).ceil().max(1.0))
        .sum();
    runs[n] = clusters.len() as f64;
    bytes[n] = clusters
        .iter()
        .map(|&(lo, hi)| (hi - lo).max(1) as f64)
        .sum();
    for l in (0..n).rev() {
        let lv = levels[l];
        let delta = (lv.scale as i128 * group.coeffs[lv.var] as i128) as f64;
        let stride = delta.abs();
        let cnt = lv.count.max(1.0);
        let sub_span = span[l + 1];
        let sub_dl = dl[l + 1];
        let sub_runs = runs[l + 1].max(1.0);
        let sub_bytes = bytes[l + 1].max(1.0);
        span[l] = (cnt - 1.0) * stride + sub_span;
        if stride == 0.0 {
            // Temporal reuse: the whole sub-footprint is revisited.
            dl[l] = sub_dl;
            runs[l] = sub_runs;
            bytes[l] = sub_bytes;
            continue;
        }
        let occupied = (sub_dl * line).min(sub_span).max(1.0);
        let density = (occupied / sub_span).min(1.0);
        // Distinct lines: stride/interval reasoning on the shifted
        // sub-footprints.
        if stride >= sub_span && stride - sub_span >= line {
            // Footprints separated by at least a full line: each iteration
            // brings its own copy of the sub-footprint.
            dl[l] = cnt * sub_dl;
            runs[l] = (sub_runs * cnt).min(dl[l]);
            bytes[l] = cnt * sub_bytes;
        } else if stride >= sub_span {
            // Disjoint footprints with sub-line gaps: the iterations tile
            // the span at line granularity, carrying the sub-footprint's
            // density.
            dl[l] = (span[l] * density / line).max(sub_dl);
            runs[l] = if density >= 1.0 {
                1.0
            } else {
                (sub_runs * cnt).min(dl[l])
            };
            bytes[l] = (span[l] * sub_bytes / sub_span).min(span[l]);
        } else if let Some(f) = self_overlap_fraction(&clusters, delta, cnt, line) {
            // Overlapping shifted copies, periodic: the level stride maps
            // body clusters onto each other (stencil halo re-covered by the
            // outer row stride). Only the unmatched leading fraction enters
            // fresh lines (ν per additional iteration).
            let nu = (sub_dl * (1.0 - f))
                .max(stride * density / line)
                .min(sub_dl);
            dl[l] = (sub_dl + (cnt - 1.0) * nu)
                .min(cnt * sub_dl)
                .min(span[l] / line + sub_runs);
            runs[l] = sub_runs;
            bytes[l] = (sub_bytes + (cnt - 1.0) * stride * (sub_bytes / sub_span)).min(span[l]);
        } else {
            // Overlapping shifted copies, aperiodic: every contiguous
            // line-run's leading edge advances `stride` bytes per iteration
            // independently. The exact line count for independent runs —
            // each run sweeps `(cnt−1)·stride` plus its own byte extent —
            // caps the continuous estimate, which overcounts while a shift
            // has not yet crossed a line boundary.
            let run_len = sub_bytes / sub_runs;
            let run_growth = sub_runs * (((cnt - 1.0) * stride + run_len) / line).ceil().max(1.0);
            let nu_est = (sub_runs * stride / line).min(sub_dl);
            dl[l] = (sub_dl + (cnt - 1.0) * nu_est)
                .min(run_growth.max(sub_dl))
                .min(cnt * sub_dl)
                .min(span[l] / line + sub_runs);
            // Copies jumping past a run's extent start new runs; short
            // shifts only lengthen the existing ones.
            runs[l] = if stride > run_len {
                (sub_runs * cnt).min(dl[l])
            } else {
                sub_runs
            };
            bytes[l] = (sub_bytes + (cnt - 1.0) * stride * sub_runs).min(span[l]);
        }
        dl[l] = dl[l].max(1.0);
        runs[l] = runs[l].max(1.0);
        bytes[l] = bytes[l].clamp(1.0, span[l].max(1.0));
    }
    FootprintStats { span, dl, runs }
}

/// Per-chunk private-cache line footprint of one thread, as an affine
/// function of the chunk size: `lines(C) ≈ fixed + per_iter × C`. This is
/// the working-set view of the span / distinct-line recursion specialized to
/// one chunk run, and what the FS005 capacity lint compares against the private
/// cache. `None` outside the decidable fragment.
pub fn chunk_footprint(kernel: &Kernel, line_size: u64) -> Option<ChunkFootprint> {
    let nest = &kernel.nest;
    let line = line_size.max(1) as f64;
    let mut trips = Vec::with_capacity(nest.loops.len());
    for l in &nest.loops {
        trips.push(l.const_trip_count()?);
    }
    let par_level = nest.parallel.level;
    let plan = kernel.access_plan();
    let bases = kernel.array_bases(line_size.max(1));
    let cplan = plan.compile(kernel.vars.len(), &bases);
    let groups = build_groups(kernel.vars.len(), &plan, &cplan);

    // Virtual nest of ONE parallel iteration's subtree: just the inner
    // levels. A chunk of C iterations then shifts it C−1 times by the
    // parallel stride.
    let inner: Vec<VLevel> = nest
        .loops
        .iter()
        .enumerate()
        .skip(par_level + 1)
        .map(|(l, lp)| VLevel {
            count: trips[l] as f64,
            var: lp.var.index(),
            scale: lp.step,
        })
        .collect();
    let pvar = nest.loops[par_level].var.index();
    let pstep = nest.loops[par_level].step;

    let mut fixed = 0.0;
    let mut per_iter = 0.0;
    for g in &groups {
        let stats = footprint_stats(g, &inner, line);
        let base_dl = stats.dl[0];
        let stride = (pstep as i128 * g.coeffs[pvar] as i128).unsigned_abs() as f64;
        if stride == 0.0 {
            // Chunk-invariant (shared) footprint: loaded once per chunk.
            fixed += base_dl;
        } else {
            // Each additional chunk iteration shifts the footprint; same ν
            // (new lines per iteration) estimator as the nest recursion.
            let sub_span = stats.span[0].max(1.0);
            let density = (base_dl * line / sub_span).min(1.0);
            let nu = if stride >= sub_span {
                if stride - sub_span < line {
                    stride * density / line
                } else {
                    base_dl
                }
            } else {
                (stats.runs[0].max(1.0) * stride / line).min(base_dl)
            };
            fixed += base_dl;
            per_iter += nu;
        }
    }
    Some(ChunkFootprint { fixed, per_iter })
}

/// Affine per-chunk footprint model returned by [`chunk_footprint`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkFootprint {
    /// Lines touched regardless of chunk size (first iteration + shared
    /// read footprints).
    pub fixed: f64,
    /// Additional lines per extra chunk iteration.
    pub per_iter: f64,
}

impl ChunkFootprint {
    /// Predicted private-cache lines one chunk of `c` iterations touches.
    pub fn lines_at(&self, c: u64) -> f64 {
        self.fixed + self.per_iter * c.saturating_sub(1) as f64
    }

    /// Largest chunk size whose footprint fits `capacity_lines`, if any
    /// chunk does.
    pub fn max_chunk_fitting(&self, capacity_lines: u64) -> Option<u64> {
        let cap = capacity_lines as f64;
        if self.fixed > cap {
            return None;
        }
        if self.per_iter <= 0.0 {
            return Some(u64::MAX);
        }
        Some(((cap - self.fixed) / self.per_iter) as u64 + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loop_ir::kernels;

    fn corpus() -> Vec<loop_ir::Kernel> {
        vec![
            kernels::heat_diffusion(34, 66, 1),
            kernels::linear_regression(96, 16, 2),
            kernels::transpose(32, 32, 1),
            kernels::matmul(24, 24, 24, 2),
            kernels::dft(32, 128, 1),
            kernels::saxpy(4096, 8),
            kernels::stencil1d(1026, 4),
            kernels::matvec(64, 64, 2),
            kernels::dotprod_partials(8, 64, false),
        ]
    }

    /// Chunk footprints grow monotonically and `max_chunk_fitting` is the
    /// inverse of `lines_at` up to rounding.
    #[test]
    fn chunk_footprint_roundtrip() {
        for k in &corpus() {
            let Some(fp) = chunk_footprint(k, 64) else {
                panic!("{}: corpus kernel has no chunk footprint", k.name)
            };
            assert!(fp.fixed >= 1.0, "{}: empty fixed footprint", k.name);
            assert!(fp.per_iter >= 0.0);
            assert!(fp.lines_at(8) <= fp.lines_at(64));
            if let Some(c) = fp.max_chunk_fitting(1024) {
                if c != u64::MAX {
                    assert!(fp.lines_at(c) <= 1024.0 + 1.0 + fp.per_iter);
                    assert!(fp.lines_at(c + 1) > 1024.0);
                }
            }
        }
    }
}
