//! Chunk-size advisor: the compiler use-case the paper motivates ("it will
//! be helpful for both programmers and compilers to choose the optimal
//! chunk size for OpenMP loops", §IV-B) — sweep candidate chunk sizes,
//! model each, and recommend the cheapest schedule.

use cost_model::sweep::{evaluate_point, kernel_at_chunk, EvalMode, MemoCache};
use cost_model::FsPath;
use loop_ir::Kernel;
use machine::MachineConfig;

/// One evaluated schedule point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkPoint {
    pub chunk: u64,
    pub fs_cases: u64,
    pub fs_cycles: f64,
    pub total_cycles: f64,
}

/// The advisor's output.
#[derive(Debug, Clone)]
pub struct ChunkAdvice {
    /// Candidate schedules, in sweep order.
    pub points: Vec<ChunkPoint>,
    /// The chunk size with the lowest modeled total cost.
    pub best_chunk: u64,
    /// Modeled speedup of the best chunk over chunk = 1.
    pub speedup_vs_chunk1: f64,
}

/// Sweep power-of-two chunk sizes (plus 1) up to `max_chunk` and recommend
/// the cheapest. Uses the linear-regression predictor with
/// `predict_chunk_runs` when given, keeping the sweep fast on big loops.
///
/// Internally runs on the memoized sweep primitives: the schedule-independent
/// terms (machine cost, access plan, array layout) are prepared once and
/// shared across every candidate chunk size, so the sweep does the O(chunks)
/// FS-model work but only O(1) of everything else.
pub fn recommend_chunk(
    kernel: &Kernel,
    machine: &MachineConfig,
    num_threads: u32,
    max_chunk: u64,
    predict_chunk_runs: Option<u64>,
) -> ChunkAdvice {
    let trip = kernel.nest.parallel_trip_count().unwrap_or(1).max(1);
    let cap = max_chunk.min(trip).max(1);
    let mut candidates = vec![1u64];
    let mut c = 2;
    while c <= cap {
        candidates.push(c);
        c *= 2;
    }

    let mode = match predict_chunk_runs {
        Some(runs) => EvalMode::Predict(runs),
        None => EvalMode::Full,
    };
    let mut memo = MemoCache::new();

    let mut points = Vec::with_capacity(candidates.len());
    for &chunk in &candidates {
        let k = kernel_at_chunk(kernel, chunk);
        let cost = evaluate_point(&k, machine, num_threads, mode, FsPath::default(), &mut memo);
        points.push(ChunkPoint {
            chunk,
            fs_cases: cost.fs.fs_cases,
            fs_cycles: cost.fs_cycles,
            total_cycles: cost.total_cycles,
        });
    }
    let best = points
        .iter()
        .min_by(|a, b| a.total_cycles.total_cmp(&b.total_cycles))
        .expect("at least one candidate");
    let chunk1_cost = points[0].total_cycles;
    ChunkAdvice {
        best_chunk: best.chunk,
        speedup_vs_chunk1: chunk1_cost / best.total_cycles.max(1e-9),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines;
    use loop_ir::kernels;

    #[test]
    fn advisor_prefers_larger_chunks_for_fs_kernels() {
        let m = machines::paper48();
        let k = kernels::transpose(128, 128, 1);
        let advice = recommend_chunk(&k, &m, 8, 64, None);
        assert!(advice.best_chunk > 1, "best = {}", advice.best_chunk);
        assert!(advice.speedup_vs_chunk1 > 1.0);
        // FS cases decrease monotonically-ish along the sweep.
        let first = advice.points.first().unwrap().fs_cases;
        let last = advice.points.last().unwrap().fs_cases;
        assert!(first > last);
    }

    #[test]
    fn advisor_caps_at_trip_count() {
        let m = machines::paper48();
        let k = kernels::stencil1d(18, 1); // trip 16
        let advice = recommend_chunk(&k, &m, 4, 1024, None);
        assert!(advice.points.iter().all(|p| p.chunk <= 16));
    }

    #[test]
    fn advice_includes_chunk1_baseline() {
        let m = machines::paper48();
        let k = kernels::dft(32, 64, 1);
        let advice = recommend_chunk(&k, &m, 8, 16, None);
        assert_eq!(advice.points[0].chunk, 1);
        assert!(advice.points.len() >= 4);
    }
}
