//! Memory-trace generation from kernels.
//!
//! The simulator is *execution-driven*: it replays the exact sequence of
//! loads and stores a kernel's loop nest performs, per thread, under the
//! static round-robin schedule. Different [`Interleave`] policies decide how
//! the per-thread streams merge into one global order — per-iteration
//! round-robin approximates the lockstep progress of threads doing equal
//! work (the regime in which false sharing is worst).

use loop_ir::stream::{CompiledPlan, StreamCursor};
use loop_ir::walk::{LockstepWalker, ThreadWalker};
use loop_ir::{AccessPlan, Kernel};

/// Accesses per block handed to the sink by
/// [`TraceGen::for_each_interleaved_blocks`]. Large enough to amortize the
/// callback, small enough to stay in L1/L2 of the *host*.
const BLOCK_ACCESSES: usize = 4096;

/// One memory access of one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    pub thread: u32,
    pub addr: u64,
    pub size: u32,
    pub is_write: bool,
}

/// Global ordering policy for merging per-thread access streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interleave {
    /// All threads advance one innermost iteration per round (lockstep) —
    /// the ordering the paper's model assumes.
    PerIteration,
    /// Each thread finishes a whole chunk before the next thread runs a
    /// chunk (round-robin at chunk granularity) — a looser interleaving, an
    /// ablation of the model's lockstep ordering.
    PerChunk,
    /// Like [`Interleave::PerIteration`], but the thread order rotates each
    /// round — ablation of the model's fixed lockstep ordering (thread 0
    /// always first). Deterministic, no RNG.
    PerIterationSkewed,
}

/// Generates traces for a kernel on a given team size.
pub struct TraceGen<'k> {
    kernel: &'k Kernel,
    plan: AccessPlan,
    bases: Vec<u64>,
    num_threads: u32,
}

impl<'k> TraceGen<'k> {
    /// `line_size` fixes array base alignment (the paper's §III-B alignment
    /// assumption).
    pub fn new(kernel: &'k Kernel, num_threads: u32, line_size: u64) -> Self {
        TraceGen {
            kernel,
            plan: kernel.access_plan(),
            bases: kernel.array_bases(line_size),
            num_threads,
        }
    }

    /// Build from a precomputed plan and base layout (see
    /// [`crate::sim::SimPrepared`]): sharing one `AccessPlan`/`bases` pair
    /// across many replays of the same kernel shape skips the per-replay
    /// planning work.
    pub fn from_parts(
        kernel: &'k Kernel,
        plan: AccessPlan,
        bases: Vec<u64>,
        num_threads: u32,
    ) -> Self {
        TraceGen {
            kernel,
            plan,
            bases,
            num_threads,
        }
    }

    pub fn plan(&self) -> &AccessPlan {
        &self.plan
    }

    /// Compile the plan's affine subscripts into a strength-reduced
    /// [`CompiledPlan`] for use with [`Self::for_each_interleaved_blocks`].
    pub fn compile_plan(&self) -> CompiledPlan {
        self.plan.compile(self.kernel.vars.len(), &self.bases)
    }

    pub fn bases(&self) -> &[u64] {
        &self.bases
    }

    /// Stream the accesses of a single thread, in its program order.
    pub fn for_each_thread_access(&self, thread: u32, mut f: impl FnMut(MemAccess)) {
        let mut walker = ThreadWalker::new(self.kernel, self.num_threads as u64, thread as u64);
        let mut idx_buf = vec![0i64; self.plan.max_rank.max(1)];
        while let Some(env) = walker.next_env() {
            for a in &self.plan.accesses {
                let addr = a.address(env, &self.bases, &mut idx_buf);
                f(MemAccess {
                    thread,
                    addr,
                    size: a.size,
                    is_write: a.is_write,
                });
            }
        }
    }

    /// Stream the merged multi-thread trace under `policy`.
    pub fn for_each_interleaved(&self, policy: Interleave, mut f: impl FnMut(MemAccess)) {
        match policy {
            Interleave::PerIteration | Interleave::PerIterationSkewed => {
                let skew = matches!(policy, Interleave::PerIterationSkewed);
                let n = self.num_threads as usize;
                let mut ls = LockstepWalker::new(self.kernel, self.num_threads as u64);
                let mut idx_buf = vec![0i64; self.plan.max_rank.max(1)];
                let mut round: usize = 0;
                loop {
                    let plan = &self.plan;
                    let bases = &self.bases;
                    // Buffer one round so the emission order can rotate.
                    let mut per_thread: Vec<Vec<MemAccess>> = vec![Vec::new(); n];
                    let more = ls.step(|t, env| {
                        for a in &plan.accesses {
                            let addr = a.address(env, bases, &mut idx_buf);
                            per_thread[t].push(MemAccess {
                                thread: t as u32,
                                addr,
                                size: a.size,
                                is_write: a.is_write,
                            });
                        }
                    });
                    if !more {
                        break;
                    }
                    let start = if skew { round % n } else { 0 };
                    for k in 0..n {
                        for &a in &per_thread[(start + k) % n] {
                            f(a);
                        }
                    }
                    round += 1;
                }
            }
            Interleave::PerChunk => {
                // Walk each thread fully, buffering per-chunk segments, then
                // round-robin the segments. Chunk boundary = every
                // `chunk * inner_iters` innermost iterations of a thread
                // (exact for rectangular nests).
                let chunk = self.kernel.nest.parallel.schedule.chunk();
                let inner = self
                    .kernel
                    .nest
                    .inner_iters_per_parallel_iter()
                    .unwrap_or(1)
                    .max(1);
                let seg_iters = (chunk * inner).max(1);
                let per_access = self.plan.len().max(1) as u64;
                let seg_len = (seg_iters * per_access) as usize;
                let mut streams: Vec<Vec<MemAccess>> = (0..self.num_threads)
                    .map(|t| {
                        let mut v = Vec::new();
                        self.for_each_thread_access(t, |a| v.push(a));
                        v
                    })
                    .collect();
                let mut cursors = vec![0usize; self.num_threads as usize];
                loop {
                    let mut any = false;
                    for t in 0..self.num_threads as usize {
                        let s = &mut streams[t];
                        let c = cursors[t];
                        if c < s.len() {
                            let end = (c + seg_len).min(s.len());
                            for a in &s[c..end] {
                                f(*a);
                            }
                            cursors[t] = end;
                            any = true;
                        }
                    }
                    if !any {
                        break;
                    }
                }
            }
        }
    }

    /// Stream the merged trace under `policy` in contiguous blocks whose
    /// concatenation is bit-identical to the access sequence of
    /// [`Self::for_each_interleaved`].
    ///
    /// This is the optimized-path generator: addresses come from the
    /// strength-reduced [`StreamCursor`]s (no per-access affine subscript
    /// re-evaluation), and the sink is invoked once per ~`BLOCK_ACCESSES`
    /// accesses instead of once per access. The per-chunk policy streams
    /// segments directly from the walkers instead of materializing every
    /// thread's full trace.
    pub fn for_each_interleaved_blocks(
        &self,
        policy: Interleave,
        cplan: &CompiledPlan,
        mut f: impl FnMut(&[MemAccess]),
    ) {
        let n = self.num_threads as usize;
        let pa = self.plan.len();
        // Per-access shape is iteration-invariant; only addresses change.
        let shape: Vec<(u32, bool)> = self
            .plan
            .accesses
            .iter()
            .map(|a| (a.size, a.is_write))
            .collect();
        let mut block: Vec<MemAccess> = Vec::with_capacity(BLOCK_ACCESSES + n * pa);
        match policy {
            Interleave::PerIteration | Interleave::PerIterationSkewed => {
                let skew = matches!(policy, Interleave::PerIterationSkewed);
                let mut ls = LockstepWalker::new(self.kernel, self.num_threads as u64);
                let mut cursors: Vec<StreamCursor> =
                    (0..n).map(|_| StreamCursor::new(cplan)).collect();
                // One flat buffer per round: each live thread owns a
                // `pa`-access segment; `seg_at[t]` is its offset (or MAX
                // when the thread has finished).
                let mut round_buf: Vec<MemAccess> = Vec::with_capacity(n * pa);
                let mut seg_at: Vec<usize> = vec![usize::MAX; n];
                let mut round: usize = 0;
                loop {
                    round_buf.clear();
                    seg_at.iter_mut().for_each(|s| *s = usize::MAX);
                    let more = ls.step_streams(cplan, &mut cursors, |t, _env, addrs| {
                        seg_at[t] = round_buf.len();
                        for (k, &addr) in addrs.iter().enumerate() {
                            let (size, is_write) = shape[k];
                            round_buf.push(MemAccess {
                                thread: t as u32,
                                addr: addr as u64,
                                size,
                                is_write,
                            });
                        }
                    });
                    if !more {
                        break;
                    }
                    let start = if skew { round % n } else { 0 };
                    for k in 0..n {
                        let at = seg_at[(start + k) % n];
                        if at != usize::MAX {
                            block.extend_from_slice(&round_buf[at..at + pa]);
                        }
                    }
                    if block.len() >= BLOCK_ACCESSES {
                        f(&block);
                        block.clear();
                    }
                    round += 1;
                }
            }
            Interleave::PerChunk => {
                // Same rotation as the reference (each thread emits
                // `chunk * inner_iters` iterations per turn), but streamed:
                // per-thread walkers + cursors, no materialized traces.
                let chunk = self.kernel.nest.parallel.schedule.chunk();
                let inner = self
                    .kernel
                    .nest
                    .inner_iters_per_parallel_iter()
                    .unwrap_or(1)
                    .max(1);
                let seg_iters = (chunk * inner).max(1);
                let mut walkers: Vec<ThreadWalker> = (0..self.num_threads)
                    .map(|t| ThreadWalker::new(self.kernel, self.num_threads as u64, t as u64))
                    .collect();
                let mut cursors: Vec<StreamCursor> =
                    (0..n).map(|_| StreamCursor::new(cplan)).collect();
                loop {
                    let mut any = false;
                    for t in 0..n {
                        let walker = &mut walkers[t];
                        let cursor = &mut cursors[t];
                        let mut it = 0u64;
                        while it < seg_iters {
                            let Some(env) = walker.next_env() else { break };
                            let addrs = cursor.advance(cplan, env);
                            for (k, &addr) in addrs.iter().enumerate() {
                                let (size, is_write) = shape[k];
                                block.push(MemAccess {
                                    thread: t as u32,
                                    addr: addr as u64,
                                    size,
                                    is_write,
                                });
                            }
                            it += 1;
                            any = true;
                        }
                        if block.len() >= BLOCK_ACCESSES {
                            f(&block);
                            block.clear();
                        }
                    }
                    if !any {
                        break;
                    }
                }
            }
        }
        if !block.is_empty() {
            f(&block);
        }
    }

    /// Collect the merged trace into a vector (tests / small kernels).
    pub fn interleaved(&self, policy: Interleave) -> Vec<MemAccess> {
        let mut v = Vec::new();
        self.for_each_interleaved(policy, |a| v.push(a));
        v
    }

    /// Collect one thread's trace into a vector.
    pub fn thread_trace(&self, thread: u32) -> Vec<MemAccess> {
        let mut v = Vec::new();
        self.for_each_thread_access(thread, |a| v.push(a));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loop_ir::kernels;

    #[test]
    fn trace_length_matches_iterations_times_accesses() {
        let k = kernels::stencil1d(66, 1); // 64 parallel iterations
        let gen = TraceGen::new(&k, 4, 64);
        let trace = gen.interleaved(Interleave::PerIteration);
        // stencil: 3 reads + 1 write per iteration
        assert_eq!(trace.len(), 64 * 4);
        let writes = trace.iter().filter(|a| a.is_write).count();
        assert_eq!(writes, 64);
    }

    #[test]
    fn union_of_thread_traces_equals_interleaved() {
        let k = kernels::heat_diffusion(10, 10, 2);
        let gen = TraceGen::new(&k, 3, 64);
        let mut merged: Vec<MemAccess> = gen.interleaved(Interleave::PerIteration);
        let mut by_thread: Vec<MemAccess> = (0..3).flat_map(|t| gen.thread_trace(t)).collect();
        let key = |a: &MemAccess| (a.thread, a.addr, a.is_write);
        merged.sort_by_key(key);
        by_thread.sort_by_key(key);
        assert_eq!(merged, by_thread);
    }

    #[test]
    fn addresses_respect_array_bases_and_alignment() {
        let k = kernels::stencil1d(66, 1);
        let gen = TraceGen::new(&k, 1, 64);
        for b in gen.bases() {
            assert_eq!(b % 64, 0);
        }
        let trace = gen.thread_trace(0);
        // First iteration (i=1): reads A[0], A[1], A[2], writes B[1].
        assert_eq!(trace[0].addr, gen.bases()[0]);
        assert_eq!(trace[1].addr, gen.bases()[0] + 8);
        assert_eq!(trace[2].addr, gen.bases()[0] + 16);
        assert!(trace[3].is_write);
        assert_eq!(trace[3].addr, gen.bases()[1] + 8);
    }

    #[test]
    fn per_iteration_interleaves_threads_within_a_round() {
        let k = kernels::stencil1d(66, 1);
        let gen = TraceGen::new(&k, 2, 64);
        let trace = gen.interleaved(Interleave::PerIteration);
        // First round: 4 accesses from thread 0 (i=1), then 4 from thread 1 (i=2).
        assert!(trace[..4].iter().all(|a| a.thread == 0));
        assert!(trace[4..8].iter().all(|a| a.thread == 1));
        assert!(trace[8..12].iter().all(|a| a.thread == 0));
    }

    #[test]
    fn per_chunk_interleave_respects_chunk_granularity() {
        let k = kernels::stencil1d(66, 8);
        let gen = TraceGen::new(&k, 2, 64);
        let trace = gen.interleaved(Interleave::PerChunk);
        // First 8 iterations (32 accesses) all from thread 0.
        assert!(trace[..32].iter().all(|a| a.thread == 0));
        assert!(trace[32..64].iter().all(|a| a.thread == 1));
        // Same multiset as per-iteration.
        let mut a = trace;
        let mut b = gen.interleaved(Interleave::PerIteration);
        let key = |x: &MemAccess| (x.thread, x.addr, x.is_write);
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b);
    }

    #[test]
    fn skewed_interleave_rotates_thread_order() {
        let k = kernels::stencil1d(66, 1);
        let gen = TraceGen::new(&k, 2, 64);
        let trace = gen.interleaved(Interleave::PerIterationSkewed);
        // Round 0 starts with thread 0, round 1 with thread 1.
        assert!(trace[..4].iter().all(|a| a.thread == 0));
        assert!(trace[8..12].iter().all(|a| a.thread == 1));
        // Same multiset of accesses as the plain interleave.
        let mut a = trace;
        let mut b = gen.interleaved(Interleave::PerIteration);
        let key = |x: &MemAccess| (x.thread, x.addr, x.is_write);
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b);
    }

    #[test]
    fn block_generation_is_bit_identical_to_per_access() {
        // The optimized generator must reproduce the reference sequence
        // exactly — order included — for every policy, thread count, and
        // ragged iteration split (66-2 interior points over 4 threads).
        for k in [
            kernels::stencil1d(66, 1),
            kernels::stencil1d(66, 8),
            kernels::heat_diffusion(10, 10, 2),
            kernels::linear_regression(8, 6, 1),
        ] {
            for threads in [1u32, 2, 3, 4] {
                let gen = TraceGen::new(&k, threads, 64);
                let cplan = gen.compile_plan();
                for policy in [
                    Interleave::PerIteration,
                    Interleave::PerChunk,
                    Interleave::PerIterationSkewed,
                ] {
                    let reference = gen.interleaved(policy);
                    let mut blocks: Vec<MemAccess> = Vec::new();
                    gen.for_each_interleaved_blocks(policy, &cplan, |b| {
                        blocks.extend_from_slice(b)
                    });
                    assert_eq!(
                        blocks, reference,
                        "kernel={} threads={threads} policy={policy:?}",
                        k.name
                    );
                }
            }
        }
    }

    #[test]
    fn from_parts_matches_new() {
        let k = kernels::stencil1d(66, 1);
        let direct = TraceGen::new(&k, 2, 64);
        let parts = TraceGen::from_parts(&k, k.access_plan(), k.array_bases(64), 2);
        assert_eq!(
            direct.interleaved(Interleave::PerIteration),
            parts.interleaved(Interleave::PerIteration)
        );
    }

    #[test]
    fn struct_field_accesses_carry_field_offsets() {
        let k = kernels::linear_regression(4, 2, 1);
        let gen = TraceGen::new(&k, 2, 64);
        let trace = gen.thread_trace(0);
        let (args_base, points_base) = (gen.bases()[0], gen.bases()[1]);
        // First stmt of iteration (j=0, i=0): read points[0][0].x, read
        // args[0].sx, write args[0].sx.
        assert_eq!(trace[0].addr, points_base);
        assert_eq!(trace[1].addr, args_base);
        assert!(trace[2].is_write && trace[2].addr == args_base);
        // Second stmt reads x twice then RMWs args[0].sxx at offset 8.
        assert_eq!(trace[3].addr, points_base);
        assert_eq!(trace[5].addr, args_base + 8);
        assert!(trace[6].is_write && trace[6].addr == args_base + 8);
    }
}
