//! Kernel-level simulation driver: trace a kernel and replay it through the
//! MESI simulator.
//!
//! [`simulate_kernel`] dispatches between two implementations:
//!
//! * [`SimPath::Reference`] — the original per-access closure over
//!   [`MultiCoreSim`] with its hash-map directory, kept as the oracle.
//! * [`SimPath::Optimized`] (default) — batched block replay
//!   ([`TraceGen::for_each_interleaved_blocks`]) through the dense-table
//!   [`crate::dense::DenseMultiCoreSim`].
//!
//! Both produce bit-identical [`SimStats`] (differential tests in
//! `tests/sim_path_equivalence.rs`, and the paper's Tables I–III kernels
//! at full size in `crates/bench/tests/paper_tables.rs`);
//! kernels whose footprint exceeds the dense sizing limit silently fall
//! back to the reference path.

use crate::dense::{DenseMultiCoreSim, DENSE_LINE_LIMIT};
use crate::mesi::MultiCoreSim;
use crate::stats::SimStats;
use crate::trace::{Interleave, TraceGen};
use loop_ir::stream::CompiledPlan;
use loop_ir::{AccessPlan, Kernel};
use machine::MachineConfig;

/// Which replay implementation [`simulate_kernel`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimPath {
    /// Hash-map directory, per-access closure. The oracle.
    Reference,
    /// Dense directory + batched block replay. Stats-identical, faster.
    Optimized,
}

/// Options for [`simulate_kernel`].
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    pub num_threads: u32,
    pub interleave: Interleave,
    /// Enable the per-core stride prefetcher (on by default: the paper's
    /// testbed has one, and without it streaming locality misses drown the
    /// coherence effects being measured).
    pub prefetch: bool,
    /// Replay implementation; [`SimPath::Optimized`] by default.
    pub path: SimPath,
}

impl SimOptions {
    pub fn new(num_threads: u32) -> Self {
        SimOptions {
            num_threads,
            interleave: Interleave::PerIteration,
            prefetch: true,
            path: SimPath::Optimized,
        }
    }

    pub fn without_prefetch(mut self) -> Self {
        self.prefetch = false;
        self
    }

    pub fn with_path(mut self, path: SimPath) -> Self {
        self.path = path;
        self
    }

    pub fn with_interleave(mut self, interleave: Interleave) -> Self {
        self.interleave = interleave;
        self
    }
}

/// Trace-planning work hoisted out of the replay: access plan, array base
/// layout, the strength-reduced address streams, and the footprint bound
/// that sizes the dense tables.
///
/// The benches replay the *same* kernel shape many times (FS vs no-FS chunk
/// of one kernel, repeated timings); sharing a `SimPrepared` across those
/// replays skips re-planning. A kernel passed to
/// [`simulate_kernel_prepared`] may differ from the prepared kernel only in
/// its schedule (chunk size): the plan, bases and streams depend on arrays
/// and subscripts, not on the schedule.
#[derive(Debug, Clone)]
pub struct SimPrepared {
    plan: AccessPlan,
    bases: Vec<u64>,
    cplan: CompiledPlan,
    footprint_lines: u64,
}

impl SimPrepared {
    pub fn new(kernel: &Kernel, line_size: u64) -> Self {
        let plan = kernel.access_plan();
        let bases = kernel.array_bases(line_size);
        let cplan = plan.compile(kernel.vars.len(), &bases);
        let footprint_lines = kernel.line_footprint(line_size);
        SimPrepared {
            plan,
            bases,
            cplan,
            footprint_lines,
        }
    }

    /// Cache lines spanned by the kernel's arrays under the aligned base
    /// layout (the dense id range of the optimized path).
    pub fn footprint_lines(&self) -> u64 {
        self.footprint_lines
    }
}

/// Replay `kernel`'s memory trace on `machine` and return the statistics.
///
/// This is the reproduction's stand-in for *running* the kernel on the
/// paper's 48-core machine: the returned [`SimStats`] carry per-thread cycle
/// counts whose chunk-size sensitivity is the "measured FS effect".
pub fn simulate_kernel(kernel: &Kernel, machine: &MachineConfig, opts: SimOptions) -> SimStats {
    let prepared = SimPrepared::new(kernel, machine.line_size());
    simulate_kernel_prepared(kernel, machine, opts, &prepared)
}

/// [`simulate_kernel`] with the planning work already done (see
/// [`SimPrepared`] for the kernel-compatibility contract).
pub fn simulate_kernel_prepared(
    kernel: &Kernel,
    machine: &MachineConfig,
    opts: SimOptions,
    prepared: &SimPrepared,
) -> SimStats {
    let _span = fs_obs::span("sim.replay");
    // Clock reads only when the registry is live: the disabled path stays branch-only.
    let t_replay = fs_obs::counters_enabled().then(std::time::Instant::now);
    let gen = TraceGen::from_parts(
        kernel,
        prepared.plan.clone(),
        prepared.bases.clone(),
        opts.num_threads,
    );
    let use_dense = opts.path == SimPath::Optimized
        && prepared.footprint_lines <= DENSE_LINE_LIMIT
        && opts.num_threads <= 64;
    let stats = if use_dense {
        fs_obs::counters::SIM_DISPATCH_DENSE.inc();
        let mut sim = DenseMultiCoreSim::new(machine, opts.num_threads, prepared.footprint_lines);
        if opts.prefetch {
            sim = sim.with_prefetchers();
        }
        gen.for_each_interleaved_blocks(opts.interleave, &prepared.cplan, |block| {
            sim.replay(block)
        });
        sim.into_stats()
    } else {
        if opts.path == SimPath::Optimized {
            fs_obs::counters::SIM_DENSE_FALLBACKS.inc();
        }
        fs_obs::counters::SIM_DISPATCH_REFERENCE.inc();
        let mut sim = MultiCoreSim::new(machine, opts.num_threads);
        if opts.prefetch {
            sim = sim.with_prefetchers();
        }
        gen.for_each_interleaved(opts.interleave, |a| {
            sim.access(a.thread, a.addr, a.size, a.is_write);
        });
        sim.into_stats()
    };
    fs_obs::counters::SIM_REPLAYS.inc();
    if fs_obs::counters_enabled() {
        // Phase-grained (once per replay, never per access): sum the
        // already-aggregated stats into the process counters.
        fs_obs::counters::SIM_ACCESSES.add(stats.total_accesses());
        fs_obs::counters::SIM_COHERENCE_MISSES.add(stats.total_coherence_misses());
        fs_obs::counters::SIM_FALSE_SHARING.add(stats.total_false_sharing());
        fs_obs::counters::SIM_TRUE_SHARING.add(stats.total_true_sharing());
    }
    if let Some(t) = t_replay {
        fs_obs::hists::SIM_REPLAY_NS.record_ns(t.elapsed().as_nanos() as u64);
    }
    stats
}

/// Convenience: simulated execution-time estimate in cycles for the kernel,
/// combining the memory-system makespan with a per-iteration compute cost
/// (`compute_cycles_per_iter`, typically from the processor model).
pub fn simulated_time_cycles(
    kernel: &Kernel,
    machine: &MachineConfig,
    opts: SimOptions,
    compute_cycles_per_iter: f64,
) -> f64 {
    let prepared = SimPrepared::new(kernel, machine.line_size());
    simulated_time_cycles_prepared(kernel, machine, opts, compute_cycles_per_iter, &prepared)
}

/// [`simulated_time_cycles`] with the planning work already done.
pub fn simulated_time_cycles_prepared(
    kernel: &Kernel,
    machine: &MachineConfig,
    opts: SimOptions,
    compute_cycles_per_iter: f64,
    prepared: &SimPrepared,
) -> f64 {
    let stats = simulate_kernel_prepared(kernel, machine, opts, prepared);
    let per_thread_iters = kernel
        .nest
        .total_iterations()
        .map(|n| n as f64 / opts.num_threads as f64)
        .unwrap_or(0.0);
    stats.makespan_cycles() as f64 + per_thread_iters * compute_cycles_per_iter
}

#[cfg(test)]
mod tests {
    use super::*;
    use loop_ir::kernels;
    use machine::presets;

    #[test]
    fn chunk1_false_shares_more_than_chunk64_on_transpose() {
        let m = presets::paper48();
        let fs = simulate_kernel(&kernels::transpose(64, 64, 1), &m, SimOptions::new(8));
        let nofs = simulate_kernel(&kernels::transpose(64, 64, 8), &m, SimOptions::new(8));
        assert!(
            fs.total_false_sharing() > 10 * nofs.total_false_sharing().max(1),
            "chunk=1: {} vs chunk=8: {}",
            fs.total_false_sharing(),
            nofs.total_false_sharing()
        );
        assert!(fs.makespan_cycles() > nofs.makespan_cycles());
    }

    #[test]
    fn padded_partials_eliminate_false_sharing() {
        let m = presets::paper48();
        let packed = simulate_kernel(
            &kernels::dotprod_partials(8, 256, false),
            &m,
            SimOptions::new(8),
        );
        let padded = simulate_kernel(
            &kernels::dotprod_partials(8, 256, true),
            &m,
            SimOptions::new(8),
        );
        assert!(packed.total_false_sharing() > 100, "{packed}");
        assert_eq!(padded.total_false_sharing(), 0, "{padded}");
    }

    #[test]
    fn single_thread_has_no_sharing_misses() {
        let m = presets::paper48();
        let s = simulate_kernel(&kernels::heat_diffusion(34, 34, 1), &m, SimOptions::new(1));
        assert_eq!(s.total_coherence_misses(), 0);
        assert_eq!(s.total_false_sharing(), 0);
    }

    #[test]
    fn simulated_time_adds_compute() {
        let m = presets::paper48();
        let k = kernels::stencil1d(130, 1);
        let t0 = simulated_time_cycles(&k, &m, SimOptions::new(4), 0.0);
        let t1 = simulated_time_cycles(&k, &m, SimOptions::new(4), 10.0);
        assert!(t1 > t0);
        assert!((t1 - t0 - 10.0 * 128.0 / 4.0).abs() < 1e-6);
    }

    #[test]
    fn paths_agree_on_representative_kernels() {
        // The proptest oracle lives in tests/sim_path_equivalence.rs; this
        // is the fast in-crate smoke check over both interleave extremes.
        let m = presets::paper48();
        for k in [
            kernels::transpose(32, 32, 1),
            kernels::heat_diffusion(18, 18, 2),
            kernels::dotprod_partials(4, 64, false),
        ] {
            for interleave in [
                Interleave::PerIteration,
                Interleave::PerChunk,
                Interleave::PerIterationSkewed,
            ] {
                for prefetch in [false, true] {
                    let mut opts = SimOptions::new(4).with_interleave(interleave);
                    opts.prefetch = prefetch;
                    let optimized = simulate_kernel(&k, &m, opts.with_path(SimPath::Optimized));
                    let reference = simulate_kernel(&k, &m, opts.with_path(SimPath::Reference));
                    assert_eq!(
                        optimized, reference,
                        "kernel={} interleave={interleave:?} prefetch={prefetch}",
                        k.name
                    );
                }
            }
        }
    }

    #[test]
    fn prepared_matches_unprepared_across_schedules() {
        let m = presets::paper48();
        // Prepare once at chunk=1, replay a chunk=8 variant: plan/bases are
        // schedule-independent, so the contract allows this.
        let prepared = SimPrepared::new(&kernels::transpose(64, 64, 1), m.line_size());
        let k8 = kernels::transpose(64, 64, 8);
        let opts = SimOptions::new(8);
        assert_eq!(
            simulate_kernel_prepared(&k8, &m, opts, &prepared),
            simulate_kernel(&k8, &m, opts)
        );
    }

    #[test]
    fn oversized_footprint_falls_back_to_reference() {
        // A footprint past DENSE_LINE_LIMIT must still simulate (on the
        // reference path) and agree on both requested paths. The kernel
        // touches a huge array sparsely: big footprint, few accesses.
        use loop_ir::{ArrayRef, Expr, KernelBuilder, ScalarType, Schedule, Stmt};
        let m = presets::tiny_test();
        let stride = 1 << 19;
        let mut b = KernelBuilder::new("sparse_touch");
        let i = b.loop_var("i");
        let a = b.array("A", &[64 * stride as u64], ScalarType::F64);
        b.parallel_for(i, 0, 64, Schedule::Static { chunk: 1 });
        b.stmt(Stmt::assign(
            ArrayRef::write(a, vec![b.idx(i) * stride]),
            Expr::num(1.0),
        ));
        let k = b.build();
        let prepared = SimPrepared::new(&k, m.line_size());
        assert!(prepared.footprint_lines() > DENSE_LINE_LIMIT);
        let opts = SimOptions::new(2);
        let optimized = simulate_kernel(&k, &m, opts.with_path(SimPath::Optimized));
        let reference = simulate_kernel(&k, &m, opts.with_path(SimPath::Reference));
        assert_eq!(optimized, reference);
    }
}
