//! Closed-form reuse-distance shared-cache analysis.
//!
//! The symbolic engine made the *coherence* side of the FS model
//! closed-form; capacity misses still required dense trace replay. This
//! module predicts them without a replay: it derives per-thread
//! **reuse-distance histograms** directly from the strength-reduced affine
//! [`loop_ir::CompiledPlan`] streams — no trace is ever materialized — and
//! composes them across the team in the style of Barai et al., *Modeling
//! Shared Cache Performance of OpenMP Programs using Reuse Distance*: under
//! round-robin interleaving, a reuse arc of per-thread distance `d` sees
//! `d × min(T, cluster)` intervening distinct lines at a cache shared by
//! the cluster.
//!
//! The construction, per *access group* (accesses of one array whose byte
//! addresses share the same per-variable affine coefficients — e.g. the
//! five-point stencil reads of `u` form one group whose constant offsets
//! span the halo):
//!
//! 1. Build the thread's **virtual nest**: the sequential outer levels, the
//!    parallel level decomposed into (chunks owned, stride `δ·T·C`) ×
//!    (chunk length, stride `δ`), then the inner levels. Each level
//!    contributes a byte delta `δ_l = coeff(var_l) × step_l` per iteration.
//! 2. Bottom-up **span / distinct-line recursion**: `span[l] =
//!    (n_l−1)·|δ_l| + span[l+1]`, and the distinct lines `DL[l]` follow
//!    from stride/interval reasoning (disjoint, line-dense, or
//!    partially-overlapping shifted copies — see `FootprintStats`).
//! 3. Every level with overlap between consecutive iterations carries
//!    **reuse**: `(n_l−1) × overlap` line re-entries whose reuse distance
//!    is the working set of one subtree iteration, `WS(l+1) = Σ_groups
//!    DL_g(l+1)` — the bucket boundaries of the histogram.
//! 4. An access misses an LRU cache of `C` lines iff its reuse distance is
//!    at least `C` (the stack-distance criterion, §III-C), so per-level
//!    predicted misses are the histogram mass at or beyond each level's
//!    capacity, with shared levels reading the composed distance.
//!
//! The totals are *predictive*, not count-exact: `docs/MODEL.md` states the
//! accuracy-vs-exactness contract, and `tests/analytic_accuracy.rs` holds
//! the predictions to a relative-error bound against the dense MESI
//! simulator. Anything outside the decidable fragment (non-constant bounds,
//! truncated runs) returns `None`. The FS counts themselves come from the
//! FS-model engines ([`crate::fs::FsPath`]); this module only adds the
//! capacity side, through [`capacity_prediction`] and, for the FS005 lint,
//! [`chunk_footprint`].

use crate::fs::FsModelConfig;
use loop_ir::{AccessPlan, Kernel};
use std::collections::HashMap;

/// Compact cache-hierarchy shape the capacity prediction runs against:
/// per-level line capacities plus the sharing cluster width. Build it with
/// [`CacheGeometry::for_machine`].
#[derive(Debug, Clone, PartialEq)]
pub struct CacheGeometry {
    /// Levels from L1 outward.
    pub levels: Vec<LevelGeometry>,
    /// Cores sharing each instance of a `shared` level.
    pub cluster_size: u32,
}

/// One cache level as the capacity prediction sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelGeometry {
    /// Display name (`"L1d"`, `"L2"`, ...), echoed in reports.
    pub name: String,
    /// Capacity in cache lines.
    pub capacity_lines: u64,
    /// Shared by the cluster (reuse distances compose across threads).
    pub shared: bool,
}

impl CacheGeometry {
    /// Extract the geometry of `machine` at its native line size.
    pub fn for_machine(machine: &machine::MachineConfig) -> CacheGeometry {
        let line = machine.line_size().max(1);
        CacheGeometry {
            levels: machine
                .caches
                .levels
                .iter()
                .map(|l| LevelGeometry {
                    name: l.name.clone(),
                    capacity_lines: l.num_lines(line).max(1),
                    shared: l.shared,
                })
                .collect(),
            cluster_size: machine.caches.shared_cluster_size.max(1),
        }
    }
}

/// Closed-form shared-cache capacity prediction of one full loop (see
/// [`capacity_prediction`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityPrediction {
    /// Exact total memory accesses the full loop performs (all threads).
    pub accesses: u64,
    /// Predicted distinct cache lines the whole team touches (global cold
    /// misses, after cross-thread dedup of shared read footprints).
    pub distinct_lines: f64,
    /// Predicted misses per cache level, `levels[i]` matching
    /// [`CacheGeometry::levels`]. Cold (first-touch) misses are included at
    /// every level.
    pub level_misses: Vec<f64>,
    /// Predicted memory fetches: global cold misses plus reuse mass whose
    /// composed distance overflows the last cache level.
    pub mem_fetches: f64,
    /// Team-wide reuse-distance histogram: `(distance_lines, access_mass)`
    /// pairs, ascending by distance, cold/first touches at
    /// `u64::MAX`. Mass is in line re-entries summed over threads.
    pub histogram: Vec<(u64, f64)>,
}

impl CapacityPrediction {
    /// Histogram mass at or beyond `distance` (the predicted miss count of
    /// an LRU cache with that many lines, excluding cold misses when
    /// `distance < u64::MAX`).
    pub fn mass_at_or_beyond(&self, distance: u64) -> f64 {
        self.histogram
            .iter()
            .filter(|&&(d, _)| d >= distance)
            .map(|&(_, m)| m)
            .sum()
    }
}

/// One virtual-nest level: iteration count and the per-iteration byte
/// delta of the group under analysis.
#[derive(Debug, Clone, Copy)]
struct VLevel {
    count: f64,
    /// Which kernel variable drives this level, and the multiplier applied
    /// to its compiled coefficient (loop step, or `step × T × chunk` for
    /// the chunk-hop level).
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
    /// `retouch[l]` = lines re-entered per later iteration of level `l`
    /// (the level-carried reuse mass per iteration).
    retouch: Vec<f64>,
    /// `runs[l]` = estimated maximal contiguous line-runs of that footprint
    /// (1 = dense blob, higher = sparse).
    runs: Vec<f64>,
}

/// An access group: all planned accesses of one array sharing a coefficient
/// vector, so their addresses differ only by compile-time constants.
struct Group {
    array: usize,
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
                    array: key.0,
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

/// Bottom-up span / distinct-line / retouch recursion for one group over
/// one virtual nest (see the module docs, step 2).
fn footprint_stats(group: &Group, levels: &[VLevel], line: f64) -> FootprintStats {
    let n = levels.len();
    let clusters = cluster_intervals(&group.intervals, line);
    let width = (group.hi - group.lo).max(1) as f64;
    let mut span = vec![0.0; n + 1];
    let mut dl = vec![0.0; n + 1];
    let mut retouch = vec![0.0; n];
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
            retouch[l] = sub_dl;
            continue;
        }
        let occupied = (sub_dl * line).min(sub_span).max(1.0);
        let density = (occupied / sub_span).min(1.0);
        // New lines per additional iteration (ν) and the resulting distinct
        // lines: stride/interval reasoning on the shifted sub-footprints.
        let nu;
        if stride >= sub_span && stride - sub_span >= line {
            // Footprints separated by at least a full line: each iteration
            // brings its own copy of the sub-footprint.
            nu = sub_dl;
            dl[l] = cnt * sub_dl;
            runs[l] = (sub_runs * cnt).min(dl[l]);
            bytes[l] = cnt * sub_bytes;
        } else if stride >= sub_span {
            // Disjoint footprints with sub-line gaps: the iterations tile
            // the span at line granularity, carrying the sub-footprint's
            // density.
            nu = stride * density / line;
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
            // fresh lines.
            nu = (sub_dl * (1.0 - f))
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
            nu = if cnt > 1.0 {
                ((dl[l] - sub_dl) / (cnt - 1.0)).clamp(0.0, sub_dl)
            } else {
                nu_est
            };
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
        retouch[l] = (sub_dl - nu).max(0.0);
    }
    FootprintStats {
        span,
        dl,
        retouch,
        runs,
    }
}

/// Derive the reuse-distance capacity prediction, or `None` outside the
/// decidable fragment (non-constant bounds, truncated evaluation, team
/// wider than the model supports).
pub fn capacity_prediction(
    kernel: &Kernel,
    cfg: &FsModelConfig,
    geometry: &CacheGeometry,
    plan: &AccessPlan,
    bases: &[u64],
) -> Option<CapacityPrediction> {
    // The prediction models the *full* loop; truncated evaluations
    // (regression sampling) take the dense path.
    if cfg.max_chunk_runs.is_some() {
        return None;
    }
    let nest = &kernel.nest;
    let num_threads = cfg.num_threads.max(1) as u64;
    let line = cfg.line_size.max(1) as f64;

    let mut trips = Vec::with_capacity(nest.loops.len());
    for l in &nest.loops {
        trips.push(l.const_trip_count()?);
    }
    let sched = loop_ir::schedule::ChunkSchedule::for_loop(
        nest.parallel_loop(),
        nest.parallel.schedule.chunk(),
        num_threads,
    )?;
    let par_level = nest.parallel.level;
    let inner_prod: u64 = trips[par_level + 1..]
        .iter()
        .try_fold(1u64, |a, &t| a.checked_mul(t))?;
    let outer_prod: u64 = trips[..par_level]
        .iter()
        .try_fold(1u64, |a, &t| a.checked_mul(t))?;

    // Exact total access count across the team (oracle anchor #1).
    let mut accesses = 0u64;
    for t in 0..num_threads {
        let iters = crate::symbolic::iters_of_thread_closed(&sched, t);
        accesses = accesses.checked_add(
            outer_prod
                .checked_mul(iters)?
                .checked_mul(inner_prod)?
                .checked_mul(plan.accesses.len() as u64)?,
        )?;
    }

    let cplan = plan.compile(kernel.vars.len(), bases);
    let groups = build_groups(kernel.vars.len(), plan, &cplan);
    if groups.is_empty() {
        return Some(CapacityPrediction {
            accesses,
            distinct_lines: 0.0,
            level_misses: vec![0.0; geometry.levels.len()],
            mem_fetches: 0.0,
            histogram: Vec::new(),
        });
    }

    let active = num_threads.min(sched.num_chunks().max(1)) as f64;
    // Model the average thread: `trip/active` iterations split into chunks
    // of the scheduled size. Capping the chunk level at the average keeps a
    // truncated final chunk from being charged at full width.
    let avg_iters = (sched.trip_count.max(1) as f64 / active).max(1.0);
    let chunk_cnt = (sched.chunk as f64).min(avg_iters).max(1.0);
    let chunks_per_thread = (avg_iters / chunk_cnt).max(1.0);

    // Per-thread virtual nest: outer levels, chunk hops, within-chunk
    // steps, inner levels. The global nest replaces the two parallel
    // levels with the full parallel trip (for team-wide dedup).
    let pvar = nest.loops[par_level].var.index();
    let pstep = nest.loops[par_level].step;
    let hop = (num_threads as i64).checked_mul(sched.chunk as i64)?;
    let mut thread_nest: Vec<VLevel> = Vec::with_capacity(nest.loops.len() + 1);
    let mut global_nest: Vec<VLevel> = Vec::with_capacity(nest.loops.len());
    for (l, lp) in nest.loops.iter().enumerate() {
        let (var, scale, count) = (lp.var.index(), lp.step, trips[l] as f64);
        if l == par_level {
            thread_nest.push(VLevel {
                count: chunks_per_thread,
                var: pvar,
                scale: pstep.checked_mul(hop)?,
            });
            thread_nest.push(VLevel {
                count: chunk_cnt,
                var: pvar,
                scale: pstep,
            });
            global_nest.push(VLevel { count, var, scale });
        } else {
            thread_nest.push(VLevel { count, var, scale });
            global_nest.push(VLevel { count, var, scale });
        }
    }

    let per_thread: Vec<FootprintStats> = groups
        .iter()
        .map(|g| footprint_stats(g, &thread_nest, line))
        .collect();
    let per_global: Vec<FootprintStats> = groups
        .iter()
        .map(|g| footprint_stats(g, &global_nest, line))
        .collect();

    // Working set of one subtree iteration at each level, summed over
    // groups — the reuse-distance bucket boundaries (step 3).
    let n_levels = thread_nest.len();
    let ws: Vec<f64> = (0..=n_levels)
        .map(|l| per_thread.iter().map(|s| s.dl[l]).sum())
        .collect();

    // Per-array line ceilings, for dedup clamping of summed group DLs.
    let array_lines: Vec<f64> = kernel
        .arrays
        .iter()
        .map(|a| (a.size_bytes().max(1) as f64 / line).ceil() + 1.0)
        .collect();
    let clamp_per_array = |dls: &dyn Fn(usize) -> f64| -> f64 {
        let mut per_array: HashMap<usize, f64> = HashMap::new();
        for (g, gr) in groups.iter().enumerate() {
            *per_array.entry(gr.array).or_insert(0.0) += dls(g);
        }
        per_array
            .iter()
            .map(|(&a, &sum)| sum.min(array_lines.get(a).copied().unwrap_or(f64::MAX)))
            .sum()
    };
    let thread_cold: f64 = clamp_per_array(&|g| per_thread[g].dl[0]);
    let global_cold: f64 = clamp_per_array(&|g| per_global[g].dl[0]);

    // Histogram: level-carried reuse mass at distance WS(l+1), cold at MAX
    // (step 3). Mass is per thread; totals scale by the active team.
    let mut hist: HashMap<u64, f64> = HashMap::new();
    let mut level_reuse: Vec<(f64, f64)> = Vec::new(); // (distance, per-thread mass)
    for l in 0..n_levels {
        let d = ws[l + 1];
        // Iterations of level l per full per-thread traversal.
        let reps: f64 = thread_nest[..l].iter().map(|v| v.count.max(1.0)).product();
        let mut mass = 0.0;
        for stats in &per_thread {
            mass += reps * (thread_nest[l].count.max(1.0) - 1.0) * stats.retouch[l];
        }
        if mass > 0.0 {
            level_reuse.push((d, mass));
            *hist.entry(d.round().max(0.0) as u64).or_insert(0.0) += mass * active;
        }
    }
    if thread_cold > 0.0 {
        *hist.entry(u64::MAX).or_insert(0.0) += thread_cold * active;
    }
    let mut histogram: Vec<(u64, f64)> = hist.into_iter().collect();
    histogram.sort_by_key(|&(d, _)| d);

    // Per-level predicted misses (step 4): cold everywhere, plus reuse mass
    // whose (possibly composed) distance overflows the level.
    let sharers = (active.min(geometry.cluster_size as f64)).max(1.0);
    let level_misses: Vec<f64> = geometry
        .levels
        .iter()
        .map(|lvl| {
            let cap = lvl.capacity_lines as f64;
            let compose = if lvl.shared { sharers } else { 1.0 };
            let cold = if lvl.shared {
                global_cold
            } else {
                thread_cold * active
            };
            let reuse: f64 = level_reuse
                .iter()
                .filter(|&&(d, _)| d * compose >= cap)
                .map(|&(_, m)| m * active)
                .sum();
            cold + reuse
        })
        .collect();
    let mem_fetches = level_misses.last().copied().unwrap_or(global_cold);

    Some(CapacityPrediction {
        accesses,
        distinct_lines: global_cold,
        level_misses,
        mem_fetches,
        histogram,
    })
}

/// Per-chunk private-cache line footprint of one thread, as an affine
/// function of the chunk size: `lines(C) ≈ fixed + per_iter × C`. This is
/// the reuse-distance machinery's working-set view specialized to one chunk
/// run, and what the FS005 capacity lint compares against the private
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
    use cache_sim::{simulate_kernel, SimOptions};
    use loop_ir::kernels;
    use machine::{presets, MachineConfig};

    /// The full-loop capacity prediction of `k` on `machine`.
    fn predict(
        k: &Kernel,
        cfg: &FsModelConfig,
        machine: &MachineConfig,
    ) -> Option<CapacityPrediction> {
        let geometry = CacheGeometry::for_machine(machine);
        let bases = k.array_bases(cfg.line_size);
        capacity_prediction(k, cfg, &geometry, &k.access_plan(), &bases)
    }

    fn cfg(threads: u32) -> FsModelConfig {
        FsModelConfig::for_machine(&presets::paper48(), threads)
    }

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

    /// Calibrated accuracy contract against the dense MESI simulator:
    ///
    /// * `accesses` is exact (aligned scalar elements never straddle);
    /// * `distinct_lines` matches global cold misses within 5% + 4 lines;
    /// * `level_misses[0]` lands inside the coherence-ambiguity bracket
    ///   `[l1_misses - coherence_misses, l1_misses]` stretched by 10%: the
    ///   model charges every thread's private first touch, which the sim
    ///   classifies as a coherence event when another thread wrote first;
    /// * `mem_fetches` matches the sim within 5% + 4 lines.
    #[test]
    fn corpus_accuracy_vs_mesi_sim() {
        for machine in [presets::paper48(), presets::generic_x86()] {
            for k in &corpus() {
                for t in [4u32, 8] {
                    let c = FsModelConfig::for_machine(&machine, t);
                    let cap = predict(k, &c, &machine).unwrap_or_else(|| {
                        panic!("{} T{t}: corpus kernel has no capacity prediction", k.name)
                    });
                    let stats = simulate_kernel(k, &machine, SimOptions::new(t).without_prefetch());
                    let acc: u64 = stats.per_thread.iter().map(|s| s.accesses).sum();
                    let l1m: u64 = stats
                        .per_thread
                        .iter()
                        .map(|s| s.accesses - s.l1_hits)
                        .sum();
                    let coh: u64 = stats.per_thread.iter().map(|s| s.coherence_misses).sum();
                    let mem: u64 = stats.per_thread.iter().map(|s| s.mem_fetches).sum();
                    let ctx = format!("{} T{t} {}", machine.name, k.name);

                    assert_eq!(cap.accesses, acc, "{ctx}: accesses not exact");
                    let cold = stats.cold_misses as f64;
                    assert!(
                        (cap.distinct_lines - cold).abs() <= 0.05 * cold + 4.0,
                        "{ctx}: distinct_lines {} vs cold {}",
                        cap.distinct_lines,
                        cold
                    );
                    let lo = l1m.saturating_sub(coh) as f64;
                    let hi = l1m as f64;
                    assert!(
                        cap.level_misses[0] >= 0.9 * lo && cap.level_misses[0] <= 1.1 * hi + 4.0,
                        "{ctx}: level_misses[0] {} outside [{lo}, {hi}]",
                        cap.level_misses[0]
                    );
                    assert!(
                        (cap.mem_fetches - mem as f64).abs() <= 0.05 * mem as f64 + 4.0,
                        "{ctx}: mem_fetches {} vs sim {}",
                        cap.mem_fetches,
                        mem
                    );
                }
            }
        }
    }

    /// Structural invariants of a capacity prediction: per-level misses are
    /// monotonically non-increasing with depth, memory fetches equal the
    /// last level's misses, and the distinct-line estimate never exceeds
    /// the access count.
    #[test]
    fn capacity_prediction_invariants() {
        for k in &corpus() {
            let cap = predict(k, &cfg(4), &presets::paper48()).expect("corpus kernel predicts");
            assert!(!cap.level_misses.is_empty());
            for w in cap.level_misses.windows(2) {
                assert!(
                    w[1] <= w[0] + 1e-9,
                    "{}: deeper level predicts more misses ({:?})",
                    k.name,
                    cap.level_misses
                );
            }
            assert_eq!(cap.mem_fetches, *cap.level_misses.last().unwrap());
            assert!(cap.distinct_lines <= cap.accesses as f64);
            assert!(cap.mass_at_or_beyond(0) >= cap.distinct_lines - 1e-9);
        }
    }

    /// Truncated runs (`max_chunk_runs`) leave the decidable fragment: the
    /// closed forms assume the full iteration space.
    #[test]
    fn truncated_runs_fall_back() {
        let k = kernels::saxpy(512, 4);
        let mut c = cfg(4);
        assert!(predict(&k, &c, &presets::paper48()).is_some());
        c.max_chunk_runs = Some(2);
        assert!(predict(&k, &c, &presets::paper48()).is_none());
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

    /// The geometry constructor mirrors the machine's hierarchy: private
    /// levels keep their own line capacity, shared levels are marked.
    #[test]
    fn geometry_mirrors_machine() {
        let m = presets::paper48();
        let g = CacheGeometry::for_machine(&m);
        assert_eq!(g.levels.len(), m.caches.levels.len());
        assert_eq!(g.cluster_size, m.caches.shared_cluster_size);
        for (lvl, cache) in g.levels.iter().zip(&m.caches.levels) {
            assert_eq!(lvl.capacity_lines, cache.num_lines(m.caches.line_size));
            assert_eq!(lvl.shared, cache.shared);
        }
    }
}
