//! An OpenMP-like parallel-for runtime with static round-robin chunk
//! scheduling — the execution substrate the reproduction uses in place of
//! OpenMP.
//!
//! * [`parallel_for`] — scoped-thread `schedule(static, chunk)` loops.
//! * [`pool`] — a persistent worker team for kernels that enter a
//!   worksharing region repeatedly (heat diffusion enters one per outer
//!   iteration).
//! * [`shared`] — the disjoint-write shared-slice idiom OpenMP programs use
//!   implicitly.
//! * [`cache`] — a generic sharded-mutex container ([`Sharded`]) for caches
//!   shared across worker threads without a single global lock.
//! * [`kernels`] — native implementations of the paper's kernels (and
//!   padded variants) that really false-share on the host machine.
//! * [`measure()`] — wall-clock measurement with warmup and repetition.

pub mod cache;
pub mod kernels;
pub mod measure;
pub mod parallel_for;
pub mod pool;
pub mod shared;

pub use cache::Sharded;
pub use measure::{measure, relative_overhead, Measurement};
pub use parallel_for::{chunks_of_thread, parallel_for_each, parallel_for_static};
pub use pool::ThreadPool;
pub use shared::SharedSlice;
