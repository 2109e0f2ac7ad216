//! Execution-driven multi-core cache simulation.
//!
//! This crate is the "hardware" substrate of the reproduction: since we do
//! not have the paper's 48-core testbed, the **measured** side of every
//! experiment comes from replaying a kernel's exact memory trace through a
//! MESI write-invalidate coherence simulator ([`mesi::MultiCoreSim`]) with
//! the cache geometry of [`machine::presets::paper48`].
//!
//! * [`lru`] — the capacity-bounded LRU map (stack-distance analysis) and
//!   the set-associative caches built on it.
//! * [`trace`] — per-thread and interleaved memory-trace generation from
//!   [`loop_ir::Kernel`]s under the static round-robin schedule.
//! * [`mesi`] — private L1/L2 per core, optional shared last level per
//!   cluster, full-map directory, per-byte dirty masks for classifying
//!   coherence misses into **true** vs **false** sharing.
//! * [`dense`] — the optimized replay engine: same MESI protocol over a
//!   line-interned dense directory and [`lru::DenseSetLru`] caches.
//! * [`sim`] — one-call kernel simulation ([`sim::simulate_kernel`]) with
//!   the [`sim::SimPath`] reference/optimized dispatcher.
//! * [`stats`] — per-thread and aggregate counters.

pub mod dense;
pub mod lru;
pub mod mesi;
pub mod prefetch;
pub mod sharing;
pub mod sim;
pub mod stats;
pub mod trace;

pub use dense::{DenseMultiCoreSim, LineInterner};
pub use lru::{DenseSetLru, LruCache};
pub use mesi::MultiCoreSim;
pub use prefetch::StreamPrefetcher;
pub use sharing::{LineClass, LineRecord, SharingAnalysis};
pub use sim::{
    simulate_kernel, simulate_kernel_prepared, simulated_time_cycles,
    simulated_time_cycles_prepared, SimOptions, SimPath, SimPrepared,
};
pub use stats::{SimStats, ThreadStats};
pub use trace::{Interleave, MemAccess, TraceGen};
