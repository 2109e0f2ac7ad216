//! Parallel harness for independent measured-side experiment points.
//!
//! Every table and figure of the evaluation is a grid of *independent*
//! simulator replays (kernel × threads × chunk × interleave). Each point is
//! a pure function of its index, so [`run_indexed`] evaluates them with
//! [`fs_runtime::pool::map_indexed`], the same fan-out as
//! [`crate::sweep::SweepEngine`]: workers claim indices from an atomic
//! counter and write disjoint result slots, so the output vector is in
//! canonical index order and byte-identical to a serial run regardless of
//! worker count or scheduling.

/// Evaluate `eval(0..n)` and return the results in index order, using up to
/// `workers` pool threads. `workers <= 1` (or a trivial grid) runs inline
/// with no pool. Each point is wrapped in a `sim.point` span and counted in
/// `sim.points_evaluated`; the `sim.workers` gauge records the worker count
/// actually used.
pub fn run_indexed<T, F>(n: usize, workers: usize, eval: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = if n <= 1 { 1 } else { workers.clamp(1, n) };
    fs_obs::gauges::SIM_WORKERS.set(workers as u64);
    fs_runtime::pool::map_indexed(workers, n, |i| {
        let _span = fs_obs::span("sim.point");
        fs_obs::counters::SIM_POINTS.inc();
        eval(i)
    })
}

/// Worker count for the measured-side harness: the `FS_SIM_WORKERS`
/// environment variable when set (0 or unparsable → serial), otherwise the
/// machine's available parallelism.
pub fn sim_workers() -> usize {
    match std::env::var("FS_SIM_WORKERS") {
        Ok(v) => v.trim().parse().unwrap_or(1),
        Err(_) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexed_results_are_in_order() {
        let out = run_indexed(17, 4, |i| i * i);
        assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_pooled_agree() {
        let serial = run_indexed(9, 1, |i| (i, i as u64 * 3));
        let pooled = run_indexed(9, 3, |i| (i, i as u64 * 3));
        assert_eq!(serial, pooled);
    }

    #[test]
    fn empty_and_single_grids() {
        assert_eq!(run_indexed(0, 8, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(1, 8, |i| i + 1), vec![1]);
    }

    #[test]
    fn workers_env_override_parses() {
        // Not set in the test environment: fall back to available
        // parallelism (>= 1). The env-var branch is covered by parsing
        // logic, not by mutating process env (tests run concurrently).
        assert!(sim_workers() >= 1);
    }
}
