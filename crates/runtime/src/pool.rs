//! A persistent worker pool: spawn once, run many parallel regions.
//!
//! Kernels like heat diffusion enter a worksharing region once per outer
//! iteration; re-spawning OS threads each time would swamp the measurement
//! with spawn latency (the real OpenMP runtime keeps its team parked on a
//! futex for exactly this reason).

use crate::shared::SharedSlice;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

type Job = Arc<dyn Fn(usize) + Send + Sync>;

enum Msg {
    Run(Job),
    Quit,
}

/// A fixed-size pool. Dropping the pool joins all workers.
pub struct ThreadPool {
    senders: Vec<SyncSender<Msg>>,
    done_rx: Receiver<()>,
    handles: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawn `threads` workers (ids `0..threads`).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let (done_tx, done_rx) = sync_channel::<()>(threads);
        let mut senders = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for t in 0..threads {
            let (tx, rx) = sync_channel::<Msg>(1);
            let done = done_tx.clone();
            senders.push(tx);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("fs-worker-{t}"))
                    .spawn(move || {
                        while let Ok(msg) = rx.recv() {
                            match msg {
                                Msg::Run(job) => {
                                    {
                                        let _span = fs_obs::span("pool.job");
                                        job(t);
                                    }
                                    done.send(()).expect("pool owner vanished");
                                }
                                Msg::Quit => break,
                            }
                        }
                    })
                    .expect("failed to spawn worker"),
            );
        }
        ThreadPool {
            senders,
            done_rx,
            handles,
        }
    }

    pub fn num_threads(&self) -> usize {
        self.senders.len()
    }

    /// Run `job(thread_id)` on every worker and wait for all to finish (the
    /// implicit barrier of a worksharing region).
    pub fn run<F>(&self, job: F)
    where
        F: Fn(usize) + Send + Sync + 'static,
    {
        let job: Job = Arc::new(job);
        for tx in &self.senders {
            tx.send(Msg::Run(Arc::clone(&job))).expect("worker died");
        }
        for _ in 0..self.senders.len() {
            self.done_rx.recv().expect("worker died");
        }
    }

    /// Like [`Self::run`] but for non-'static jobs (scoped): the pool
    /// guarantees the job does not outlive the call.
    pub fn run_scoped<'env, F>(&self, job: F)
    where
        F: Fn(usize) + Send + Sync + 'env,
    {
        // SAFETY: `run` blocks until every worker has finished executing
        // the job and signalled completion, so no reference escapes 'env.
        let job: Box<dyn Fn(usize) + Send + Sync + 'env> = Box::new(job);
        let job: Box<dyn Fn(usize) + Send + Sync + 'static> = unsafe { std::mem::transmute(job) };
        self.run(job);
    }

    /// Static round-robin parallel-for on the pool.
    pub fn parallel_for<'env, F>(&self, trip: u64, chunk: u64, body: F)
    where
        F: Fn(usize, std::ops::Range<u64>) + Send + Sync + 'env,
    {
        let threads = self.num_threads();
        self.run_scoped(move |t| {
            for r in crate::parallel_for::chunks_of_thread(trip, threads, chunk, t) {
                body(t, r);
            }
        });
    }
}

/// Evaluate `f(0..n)` on a pool of up to `workers` threads built for this
/// call, and return the results in index order. Workers claim indices from
/// an atomic counter and write disjoint result slots, so the output equals
/// the serial `(0..n).map(f)` whatever the worker count or scheduling. With
/// at most one useful worker it runs inline on the caller, with no pool.
pub fn map_indexed<T, F>(workers: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let pool = ThreadPool::new(workers);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    {
        let shared = SharedSlice::new(&mut slots);
        let next = AtomicUsize::new(0);
        pool.run_scoped(|_worker| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let result = f(i);
            // SAFETY: the atomic counter hands index i to exactly one
            // worker, and the pool joins before `slots` is read.
            unsafe { *shared.get_mut(i) = Some(result) };
        });
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index evaluated"))
        .collect()
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        for tx in &self.senders {
            let _ = tx.send(Msg::Quit);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn run_executes_on_every_worker() {
        let pool = ThreadPool::new(4);
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        pool.run(move |_| {
            h.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn regions_are_serialized_by_barrier() {
        let pool = ThreadPool::new(3);
        let counter = Arc::new(AtomicU64::new(0));
        for round in 0..10u64 {
            let c = Arc::clone(&counter);
            pool.run(move |_| {
                // All threads of round r see at least r*3 completed adds.
                assert!(c.load(Ordering::SeqCst) >= round * 3);
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(counter.load(Ordering::SeqCst), 30);
    }

    #[test]
    fn scoped_jobs_can_borrow_stack_data() {
        let pool = ThreadPool::new(4);
        let data: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
        pool.run_scoped(|t| {
            data[t].store(t as u64 + 1, Ordering::Relaxed);
        });
        let v: Vec<u64> = data.iter().map(|a| a.load(Ordering::Relaxed)).collect();
        assert_eq!(v, vec![1, 2, 3, 4]);
    }

    #[test]
    fn pool_parallel_for_covers_all_iterations() {
        let pool = ThreadPool::new(4);
        let counts: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
        pool.parallel_for(100, 7, |_, r| {
            for i in r {
                counts[i as usize].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn map_indexed_returns_results_in_index_order() {
        for workers in [0, 1, 3, 64] {
            let out = map_indexed(workers, 17, |i| i * i);
            assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(map_indexed(4, 0, |i| i).is_empty());
    }

    #[test]
    fn drop_joins_cleanly() {
        let pool = ThreadPool::new(2);
        pool.run(|_| {});
        drop(pool); // must not hang
    }
}
