//! The cache model (`Cache_c`) and TLB model (`TLB_c`): footprint-based
//! per-iteration miss cost estimation, in the style of Open64's LNO cache
//! model (paper §II-B2).
//!
//! References of the innermost body are partitioned into *reference groups*
//! (uniformly generated references within a cache line of each other —
//! `a[i]` and `a[i+1]` share a footprint). For each group the model
//! computes, per innermost iteration of one thread:
//!
//! * a **miss rate** — how many new cache lines the group's walk touches,
//!   derived from its byte stride under the thread's (chunked) iteration
//!   pattern, and
//! * a **service latency** — which cache level the misses hit in, by
//!   comparing the data footprint between temporal reuses against the cache
//!   sizes ("when the total amount of footprints is gathered, the model
//!   compares whether the footprint size is larger than the cache size").
//!
//! The TLB is the same calculation at page granularity, since "the TLB is
//! modeled as another level of cache".

use loop_ir::{ArrayRef, Kernel, VarId};
use machine::MachineConfig;

/// One reference group and the quantities derived for it.
#[derive(Debug, Clone)]
pub struct RefGroup {
    /// Representative reference.
    pub repr: ArrayRef,
    /// Number of references merged into the group.
    pub members: usize,
    /// Whether any member writes.
    pub has_write: bool,
    /// Whether any member reads.
    pub has_read: bool,
    /// Byte stride per innermost-loop iteration (sequential view).
    pub stride_bytes: i64,
    /// New cache lines touched per thread iteration under the schedule.
    pub miss_rate: f64,
    /// Bytes this group walks during one instance of the innermost loop,
    /// per thread.
    pub footprint_bytes: f64,
    /// Latency (cycles) of the level that services this group's misses.
    pub service_latency: u32,
}

/// Result of the cache model.
#[derive(Debug, Clone)]
pub struct CacheCost {
    pub groups: Vec<RefGroup>,
    /// `Cache_c` per innermost iteration per thread, in cycles.
    pub cycles_per_iter: f64,
    /// Total footprint of one innermost-loop instance, per thread (bytes).
    pub inner_footprint_bytes: f64,
}

/// Result of the TLB model.
#[derive(Debug, Clone, Copy)]
pub struct TlbCost {
    /// `TLB_c` per innermost iteration per thread, in cycles.
    pub cycles_per_iter: f64,
    /// New pages touched per iteration.
    pub page_miss_rate: f64,
}

/// Byte stride of a reference w.r.t. loop variable `v` (how far the address
/// moves when `v` increases by its step).
fn byte_stride(kernel: &Kernel, r: &ArrayRef, v: VarId, step: i64) -> i64 {
    let decl = kernel.array(r.array);
    let elem = decl.elem.size_bytes() as i64;
    let mut mult: i64 = 1;
    let mut stride: i64 = 0;
    for k in (0..r.indices.len()).rev() {
        stride += r.indices[k].coeff(v) * mult;
        mult *= decl.dims[k] as i64;
    }
    stride * elem * step
}

/// Partition the body's references into reference groups:
/// `(representative, member count, has_write, has_read)`.
pub fn reference_groups(kernel: &Kernel) -> Vec<(ArrayRef, usize, bool, bool)> {
    let mut groups: Vec<(ArrayRef, usize, bool, bool)> = Vec::new();
    for stmt in &kernel.nest.body {
        for r in stmt.references() {
            if let Some(g) = groups
                .iter_mut()
                .find(|(repr, _, _, _)| repr.same_reference_group(&r))
            {
                g.1 += 1;
                g.2 |= r.access.is_write();
                g.3 |= !r.access.is_write();
            } else {
                let w = r.access.is_write();
                groups.push((r, 1, w, !w));
            }
        }
    }
    groups
}

/// Per-iteration new-granule (line/page) rate of a group under the thread's
/// schedule.
///
/// With the parallel loop at the innermost level and `schedule(static, C)`
/// on a team of `T`, one thread executes `C` consecutive iterations and then
/// jumps `T*C` iterations ahead. Two regimes bound the rate:
///
/// * chunks land on distinct granules (`T*C*s >= G`): per chunk the thread
///   opens `ceil(C*s/G)` granules, i.e. `ceil(C*s/G).min(C)/C` per
///   iteration;
/// * chunks of one thread revisit the same granule (`T*C*s < G`): the
///   thread advances `T*s` bytes per own-iteration on average, i.e.
///   `T*s/G` granules per iteration.
///
/// The true rate is the minimum of the two. With the parallel loop further
/// out, the innermost loop is an ordinary sequential walk: `min(|s|,G)/G`.
fn group_miss_rate(
    stride: i64,
    granule: u64,
    innermost_is_parallel: bool,
    chunk: u64,
    num_threads: u32,
) -> f64 {
    let s = stride.unsigned_abs();
    if s == 0 {
        return 0.0;
    }
    if innermost_is_parallel {
        let c = chunk.max(1);
        let per_chunk = ((c * s).div_ceil(granule)).clamp(1, c) as f64 / c as f64;
        let dilated = ((num_threads.max(1) as u64 * s) as f64 / granule as f64).min(1.0);
        per_chunk.min(dilated.max(s as f64 / granule as f64))
    } else {
        (s.min(granule)) as f64 / granule as f64
    }
}

/// Run the cache model: `Cache_c` per innermost iteration of one thread.
pub fn cache_cost(kernel: &Kernel, machine: &MachineConfig, num_threads: u32) -> CacheCost {
    let nest = &kernel.nest;
    let line = machine.line_size();
    let innermost_level = nest.depth() - 1;
    let innermost_is_parallel = nest.parallel.level == innermost_level;
    let chunk = nest.parallel.schedule.chunk();
    let in_var = nest.innermost().var;
    let in_step = nest.innermost().step;

    // Per-thread innermost trip count: the parallel loop's share if it is
    // innermost, the full trip otherwise.
    let inner_trip = nest.innermost().const_trip_count().unwrap_or(1).max(1);
    let per_thread_trip = if innermost_is_parallel {
        (inner_trip as f64 / num_threads.max(1) as f64).max(1.0)
    } else {
        inner_trip as f64
    };

    let raw_groups = reference_groups(kernel);

    // Footprints per group for one instance of the innermost loop.
    let mut groups: Vec<RefGroup> = raw_groups
        .into_iter()
        .map(|(repr, members, has_write, has_read)| {
            let stride = byte_stride(kernel, &repr, in_var, in_step);
            let rate = group_miss_rate(stride, line, innermost_is_parallel, chunk, num_threads);
            // Bytes walked by this thread in one inner-loop instance: every
            // touched line counts fully.
            let footprint = if stride == 0 {
                line as f64
            } else {
                // With chunked-parallel innermost loops each thread still
                // sweeps the whole range's lines when T*stride spans less
                // than a line apart per neighbour; `rate` captures that.
                (per_thread_trip * rate).max(1.0) * line as f64
            };
            RefGroup {
                repr,
                members,
                has_write,
                has_read,
                stride_bytes: stride,
                miss_rate: rate,
                footprint_bytes: footprint,
                service_latency: 0, // filled below
            }
        })
        .collect();

    let inner_footprint: f64 = groups.iter().map(|g| g.footprint_bytes).sum();

    // Temporal reuse across the outer loops: if any loop level outside the
    // innermost leaves a group's address unchanged (zero stride), or if
    // another group of the same array differs only by a small constant in an
    // outer-varying dimension (e.g. `A[i-1][j]` after `A[i+1][j]`), the
    // group's misses are re-fetches of recently used data. The reuse
    // footprint decides the serving level; groups with no temporal reuse
    // stream from memory.
    let outer_vars: Vec<VarId> = nest
        .loops
        .iter()
        .take(nest.depth() - 1)
        .map(|l| l.var)
        .collect();
    #[allow(clippy::type_complexity)]
    let group_keys: Vec<(u32, Vec<Vec<(VarId, i64)>>)> = groups
        .iter()
        .map(|g| {
            (
                g.repr.array.0,
                g.repr.indices.iter().map(|e| e.terms().to_vec()).collect(),
            )
        })
        .collect();

    for i in 0..groups.len() {
        let zero_outer_stride = outer_vars
            .iter()
            .all(|&v| byte_stride(kernel, &groups[i].repr, v, 1) == 0)
            && !outer_vars.is_empty();
        let sibling_reuse = group_keys
            .iter()
            .enumerate()
            .any(|(j, k)| j != i && *k == group_keys[i]);
        let has_reuse = zero_outer_stride || sibling_reuse;
        let reuse_footprint = if zero_outer_stride {
            // Reused every outer iteration: one inner instance's data.
            inner_footprint
        } else {
            // Sibling groups typically span a couple of outer iterations
            // (stencil rows): twice the inner footprint.
            2.0 * inner_footprint
        };
        groups[i].service_latency = if !has_reuse {
            machine.caches.memory_latency
        } else {
            // Smallest level (private or shared) holding the reuse window.
            machine
                .caches
                .levels
                .iter()
                .skip(1) // misses from L1 are served by L2 at best
                .find(|l| l.size_bytes as f64 >= reuse_footprint)
                .map(|l| l.hit_latency)
                .unwrap_or(machine.caches.memory_latency)
        };
    }

    // Stall cycles per miss, not raw latency:
    // * groups that are *read* (or RMW) walk constant affine strides, which
    //   the hardware stride prefetcher covers — their misses cost only the
    //   L1-visible residual;
    // * *write-only* groups retire through the store buffer, stalling for
    //   only `store_miss_factor` of the round trip.
    let l1_lat = machine.caches.l1().hit_latency as f64;
    let cycles_per_iter = groups
        .iter()
        .map(|g| {
            let stall = if g.has_read {
                (g.service_latency as f64).min(l1_lat)
            } else {
                g.service_latency as f64 * machine.coherence.store_miss_factor
            };
            g.miss_rate * stall
        })
        .sum();

    CacheCost {
        groups,
        cycles_per_iter,
        inner_footprint_bytes: inner_footprint,
    }
}

/// Run the TLB model: `TLB_c` per innermost iteration of one thread.
pub fn tlb_cost(kernel: &Kernel, machine: &MachineConfig, num_threads: u32) -> TlbCost {
    let nest = &kernel.nest;
    let page = machine.tlb.page_size;
    let in_var = nest.innermost().var;
    let in_step = nest.innermost().step;
    let innermost_is_parallel = nest.parallel.level == nest.depth() - 1;
    let chunk = nest.parallel.schedule.chunk();

    let mut rate = 0.0;
    for (repr, _, _, _) in reference_groups(kernel) {
        let stride = byte_stride(kernel, &repr, in_var, in_step);
        rate += group_miss_rate(stride, page, innermost_is_parallel, chunk, num_threads);
    }
    TlbCost {
        cycles_per_iter: rate * machine.tlb.miss_penalty as f64,
        page_miss_rate: rate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loop_ir::kernels;
    use machine::presets;

    #[test]
    fn stencil_reads_merge_into_one_group() {
        let k = kernels::stencil1d(130, 1);
        let groups = reference_groups(&k);
        // A[i-1], A[i], A[i+1] merge; B[i] separate.
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].1, 3);
        assert!(!groups[0].2 && groups[0].3, "A group is read-only");
        assert!(groups[1].2 && !groups[1].3, "B group is write-only");
    }

    #[test]
    fn heat_groups_by_row() {
        let k = kernels::heat_diffusion(34, 34, 1);
        let groups = reference_groups(&k);
        // A row i-1; A row i (4 refs: j-1, j+1, and A[i][j] twice); A row
        // i+1; B.
        assert_eq!(groups.len(), 4);
        let row_i = groups
            .iter()
            .find(|(_, m, _, _)| *m == 4)
            .expect("row i group has 4 members");
        assert!(!row_i.2);
    }

    #[test]
    fn byte_strides_row_major() {
        let k = kernels::heat_diffusion(34, 34, 1);
        let groups = reference_groups(&k);
        // stride over j (innermost) = 8 bytes for every group.
        for (repr, _, _, _) in &groups {
            assert_eq!(byte_stride(&k, repr, k.nest.loops[1].var, 1), 8);
        }
        // stride over i = row width = 34 * 8.
        assert_eq!(
            byte_stride(&k, &groups[0].0, k.nest.loops[0].var, 1),
            34 * 8
        );
    }

    #[test]
    fn miss_rate_chunking() {
        // Innermost-parallel, stride 8B, line 64: chunk 1 -> a new line
        // every iteration; chunk 64 -> 8 lines per 64 iterations.
        assert_eq!(group_miss_rate(8, 64, true, 1, 8), 1.0);
        assert_eq!(group_miss_rate(8, 64, true, 64, 8), 0.125);
        // Sequential innermost: dense stride costs 1/8 line per iteration.
        assert_eq!(group_miss_rate(8, 64, false, 1, 8), 0.125);
        // Invariant references never miss.
        assert_eq!(group_miss_rate(0, 64, true, 1, 8), 0.0);
        // Strides beyond a line: one line per iteration either way.
        assert_eq!(group_miss_rate(256, 64, false, 1, 8), 1.0);
        assert_eq!(group_miss_rate(256, 64, true, 1, 8), 1.0);
        // Page granularity: neighbouring threads' chunks fall on the same
        // page, so the per-thread page rate is T*s/G, not 1.
        assert_eq!(group_miss_rate(8, 4096, true, 1, 8), 64.0 / 4096.0);
    }

    #[test]
    fn chunking_reduces_cache_cost() {
        let m = presets::paper48();
        let fs = cache_cost(&kernels::heat_diffusion(514, 514, 1), &m, 8);
        let nofs = cache_cost(&kernels::heat_diffusion(514, 514, 64), &m, 8);
        assert!(
            fs.cycles_per_iter > 4.0 * nofs.cycles_per_iter,
            "chunk1: {} vs chunk64: {}",
            fs.cycles_per_iter,
            nofs.cycles_per_iter
        );
    }

    #[test]
    fn heat_rows_are_served_by_a_cache_level_not_memory() {
        let m = presets::paper48();
        let c = cache_cost(&kernels::heat_diffusion(514, 514, 1), &m, 8);
        // The three A-row groups reuse each other across outer iterations.
        let a_groups: Vec<&RefGroup> = c.groups.iter().filter(|g| g.repr.array.0 == 0).collect();
        assert_eq!(a_groups.len(), 3);
        for g in a_groups {
            assert!(
                g.service_latency < m.caches.memory_latency,
                "A rows should hit in cache, got {}",
                g.service_latency
            );
        }
        // B is write-only streaming: memory.
        let b = c.groups.iter().find(|g| g.repr.array.0 == 1).unwrap();
        assert_eq!(b.service_latency, m.caches.memory_latency);
    }

    #[test]
    fn dft_bins_reused_across_outer_loop() {
        let m = presets::paper48();
        let c = cache_cost(&kernels::dft(512, 4096, 1), &m, 8);
        // Xre/Xim subscripts don't move with the outer loop -> reuse.
        for g in c.groups.iter().filter(|g| g.repr.array.0 != 0) {
            assert!(g.service_latency < m.caches.memory_latency);
        }
        // x[n] is innermost-invariant: zero miss rate.
        let x = c.groups.iter().find(|g| g.repr.array.0 == 0).unwrap();
        assert_eq!(x.miss_rate, 0.0);
    }

    #[test]
    fn tlb_cost_small_for_dense_walks() {
        let m = presets::paper48();
        // Two groups (A reads, B writes), each advancing T*s = 64 bytes per
        // thread-iteration: 2 * 64/4096 pages per iteration.
        let t = tlb_cost(&kernels::stencil1d(4098, 1), &m, 8);
        assert!((t.page_miss_rate - 2.0 * 64.0 / 4096.0).abs() < 1e-9);
        let t2 = tlb_cost(&kernels::transpose(512, 512, 1), &m, 8);
        // B[j][i]: stride over j = 512*8 = one page per iteration.
        assert!(t2.page_miss_rate >= 1.0, "rate = {}", t2.page_miss_rate);
    }
}
