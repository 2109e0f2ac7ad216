//! # fs-obs — zero-dependency observability for the analysis pipeline
//!
//! The cost model is pitched as a *compile-time* pass whose value depends
//! on staying cheap, so the pipeline needs to see where its own cycles go
//! without paying for the privilege. This crate provides:
//!
//! * **Spans** — [`span`] returns an RAII guard; each thread keeps a span
//!   stack (for nesting depth) and finished spans are timestamped against a
//!   process-wide monotonic epoch and pushed into a global event sink.
//! * **Counters / gauges** — a fixed taxonomy of named monotonic counters
//!   ([`counters`]) and last-value gauges ([`gauges`]), each one relaxed
//!   atomic wide.
//! * **A registry snapshot** — [`snapshot`] captures every counter, gauge,
//!   span event, and track (thread) name into a plain [`Snapshot`] that can
//!   be aggregated ([`Snapshot::span_aggregate`]) or exported as Chrome
//!   trace-event JSON ([`trace::chrome_trace`]).
//!
//! ## Disabled by default, and cheap when disabled
//!
//! Everything is gated on [`ObsConfig`] bits stored in one process-global
//! relaxed atomic. With the default (disabled) configuration a span is one
//! relaxed load and a branch, and a counter add is the same — no clock
//! reads, no allocation, no locks. perfbench's untraced passes run this
//! way, so a costlier disabled path shows in their figures.
//!
//! Instrumentation is deliberately *phase-grained*: spans wrap model runs,
//! sweep points, plan compilations, and predictor fits — never individual
//! modeled accesses — so even the fully *enabled* configuration costs a few
//! clock reads per grid point, not per iteration.
//!
//! See `docs/OBSERVABILITY.md` for the span/counter taxonomy and the trace
//! export workflow.

pub mod hist;
pub mod trace;

pub use hist::{Histogram, HistogramSnapshot};

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

const SPANS_BIT: u8 = 1 << 0;
const COUNTERS_BIT: u8 = 1 << 1;

/// Process-global observability switches, packed into one atomic.
static FLAGS: AtomicU8 = AtomicU8::new(0);

/// Span ring-buffer capacity; 0 = unbounded vector recorder.
static RING_CAPACITY: AtomicUsize = AtomicUsize::new(0);

/// What the observability layer records. The default is fully disabled:
/// every probe compiles down to a branch on a relaxed atomic load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Record spans (timed phases) into the global event sink.
    pub spans: bool,
    /// Accumulate named counters, gauges, and histograms.
    pub counters: bool,
    /// `Some(capacity)` bounds the span recorder to a ring buffer of the
    /// newest `capacity` events (oldest overwritten); `None` keeps the
    /// unbounded vector recorder suited to one-shot CLI runs.
    pub ring: Option<usize>,
}

impl ObsConfig {
    /// Record nothing (the default).
    pub const fn disabled() -> Self {
        ObsConfig {
            spans: false,
            counters: false,
            ring: None,
        }
    }

    /// Record everything, spans unbounded.
    pub const fn enabled() -> Self {
        ObsConfig {
            spans: true,
            counters: true,
            ring: None,
        }
    }

    /// Record everything, with spans in a bounded ring of the newest
    /// `capacity` events — safe to leave on forever in a daemon. A zero
    /// capacity is treated as the unbounded recorder.
    pub const fn ring(capacity: usize) -> Self {
        ObsConfig {
            spans: true,
            counters: true,
            ring: Some(capacity),
        }
    }
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Install `cfg` process-wide. Takes effect for probes that start after the
/// store becomes visible (relaxed — probes in flight may record under the
/// old configuration).
pub fn configure(cfg: ObsConfig) {
    let mut bits = 0u8;
    if cfg.spans {
        bits |= SPANS_BIT;
    }
    if cfg.counters {
        bits |= COUNTERS_BIT;
    }
    let capacity = cfg.ring.unwrap_or(0);
    if capacity != RING_CAPACITY.load(Ordering::Relaxed) {
        // Capacity changes restart the ring; events recorded under the old
        // shape are dropped rather than resized in place.
        let mut ring = RING.lock().expect("obs ring poisoned");
        ring.buf.clear();
        ring.next = 0;
        ring.dropped = 0;
    }
    RING_CAPACITY.store(capacity, Ordering::Relaxed);
    FLAGS.store(bits, Ordering::Relaxed);
}

/// The currently installed configuration.
pub fn config() -> ObsConfig {
    let bits = FLAGS.load(Ordering::Relaxed);
    ObsConfig {
        spans: bits & SPANS_BIT != 0,
        counters: bits & COUNTERS_BIT != 0,
        ring: match RING_CAPACITY.load(Ordering::Relaxed) {
            0 => None,
            n => Some(n),
        },
    }
}

/// True when span recording is on. This is the disabled-path hot check:
/// one relaxed load, one test.
#[inline(always)]
pub fn spans_enabled() -> bool {
    FLAGS.load(Ordering::Relaxed) & SPANS_BIT != 0
}

/// True when counter/gauge recording is on.
#[inline(always)]
pub fn counters_enabled() -> bool {
    FLAGS.load(Ordering::Relaxed) & COUNTERS_BIT != 0
}

/// True when anything at all is recorded.
#[inline(always)]
pub fn enabled() -> bool {
    FLAGS.load(Ordering::Relaxed) != 0
}

// ---------------------------------------------------------------------------
// Counters and gauges
// ---------------------------------------------------------------------------

/// A named monotonic counter (one relaxed `AtomicU64`).
pub struct Counter {
    name: &'static str,
    cell: AtomicU64,
}

impl Counter {
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            cell: AtomicU64::new(0),
        }
    }

    /// Add `n` (no-op while counters are disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if counters_enabled() {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increment by one (no-op while counters are disabled).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    fn reset(&self) {
        self.cell.store(0, Ordering::Relaxed);
    }
}

/// A named last-value gauge (one relaxed `AtomicU64`).
pub struct Gauge {
    name: &'static str,
    cell: AtomicU64,
}

impl Gauge {
    pub const fn new(name: &'static str) -> Self {
        Gauge {
            name,
            cell: AtomicU64::new(0),
        }
    }

    /// Store `v` (no-op while counters are disabled).
    #[inline]
    pub fn set(&self, v: u64) {
        if counters_enabled() {
            self.cell.store(v, Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    fn reset(&self) {
        self.cell.store(0, Ordering::Relaxed);
    }
}

/// The pipeline's counter taxonomy. Names are `area.metric`, dot-separated,
/// and are the stable identifiers exported in `--json` metrics, the
/// `--profile` summary, and the daemon's `metrics` command.
pub mod counters {
    use super::Counter;

    /// Sweep-engine memo cache hits (`MemoCache::lookup_point`).
    pub static SWEEP_MEMO_HITS: Counter = Counter::new("sweep.memo_hits");
    /// Sweep-engine memo cache misses.
    pub static SWEEP_MEMO_MISSES: Counter = Counter::new("sweep.memo_misses");
    /// Grid points evaluated by `SweepEngine` (memo hits included).
    pub static SWEEP_POINTS: Counter = Counter::new("sweep.points_evaluated");
    /// Full FS-model evaluations (any engine).
    pub static FS_MODEL_RUNS: Counter = Counter::new("fs.model_runs");
    /// FS cases detected, summed over runs.
    pub static FS_CASES: Counter = Counter::new("fs.cases");
    /// FS events detected, summed over runs.
    pub static FS_EVENTS: Counter = Counter::new("fs.events");
    /// Lockstep steps walked, summed over runs.
    pub static FS_STEPS: Counter = Counter::new("fs.lockstep_steps");
    /// Innermost iterations modeled, summed over runs.
    pub static FS_ITERATIONS: Counter = Counter::new("fs.iterations");
    /// LRU cache-state evictions, summed over runs (both paths).
    pub static FS_LRU_EVICTIONS: Counter = Counter::new("fs.lru_evictions");
    /// Line-table slots (dense footprint + hash overflow) of optimized runs.
    pub static FS_LINE_TABLE_SLOTS: Counter = Counter::new("fs.line_table_slots");
    /// Runs dispatched to the dense (optimized) hot loop.
    pub static FS_DISPATCH_DENSE: Counter = Counter::new("fs.dispatch_dense");
    /// Runs answered by the reference hash-map path (requested, or past
    /// the dense-table limit).
    pub static FS_DISPATCH_REFERENCE: Counter = Counter::new("fs.dispatch_reference");
    /// Optimized-path requests that fell back to the reference path because
    /// the kernel footprint exceeded `DENSE_LINE_LIMIT`.
    pub static FS_DENSE_FALLBACKS: Counter = Counter::new("fs.dense_limit_fallbacks");
    /// Runs answered by the symbolic (closed-form) path.
    pub static FS_DISPATCH_SYMBOLIC: Counter = Counter::new("fs.dispatch_symbolic");
    /// Symbolic-path requests that fell outside the decidable fragment (or
    /// its work budget) and fell back to the dense/reference path.
    pub static FS_SYMBOLIC_FALLBACKS: Counter = Counter::new("fs.symbolic_fallbacks");
    /// Symbolic-path requests inside the fragment and its work budget but
    /// without a closed form, answered exactly on the dense (or, past the
    /// dense-table limit, reference) machine.
    pub static FS_SYMBOLIC_DIRECT: Counter = Counter::new("fs.symbolic_direct");
    /// Lockstep steps the symbolic engine simulated: warm-up and recording
    /// windows, ragged tails, and in-place continuations of failed
    /// attempts.
    pub static FS_SYMBOLIC_WINDOW_STEPS: Counter = Counter::new("fs.symbolic_window_steps");
    /// Lockstep steps the symbolic engine applied in closed form.
    pub static FS_SYMBOLIC_EXTRAPOLATED_STEPS: Counter =
        Counter::new("fs.symbolic_extrapolated_steps");
    /// Strength-reduced address-stream plans compiled (`CompiledPlan::new`).
    pub static STREAM_PLANS_COMPILED: Counter = Counter::new("stream.plans_compiled");
    /// §III-E linear-regression predictor fits.
    pub static PREDICT_FITS: Counter = Counter::new("predict.fits");
    /// Full trace replays through the MESI simulator (either path).
    pub static SIM_REPLAYS: Counter = Counter::new("sim.replays");
    /// Line-granular accesses simulated, summed over replays.
    pub static SIM_ACCESSES: Counter = Counter::new("sim.accesses");
    /// Coherence misses (remote-dirty transfers), summed over replays.
    pub static SIM_COHERENCE_MISSES: Counter = Counter::new("sim.coherence_misses");
    /// Coherence misses classified as false sharing, summed over replays.
    pub static SIM_FALSE_SHARING: Counter = Counter::new("sim.false_sharing");
    /// Coherence misses classified as true sharing, summed over replays.
    pub static SIM_TRUE_SHARING: Counter = Counter::new("sim.true_sharing");
    /// Replays dispatched to the dense (optimized) simulator.
    pub static SIM_DISPATCH_DENSE: Counter = Counter::new("sim.dispatch_dense");
    /// Replays dispatched to the reference hash-map simulator.
    pub static SIM_DISPATCH_REFERENCE: Counter = Counter::new("sim.dispatch_reference");
    /// Optimized-path requests that fell back to the reference simulator
    /// because the kernel footprint exceeded the dense line limit.
    pub static SIM_DENSE_FALLBACKS: Counter = Counter::new("sim.dense_limit_fallbacks");
    /// Experiment points evaluated by the parallel measured-side harness.
    pub static SIM_POINTS: Counter = Counter::new("sim.points_evaluated");
    /// Memo-cache entries evicted to stay under the byte budget.
    pub static SWEEP_MEMO_EVICTIONS: Counter = Counter::new("sweep.memo_evictions");
    /// Service-layer requests handled (CLI one-shots and daemon submissions).
    pub static SVC_REQUESTS: Counter = Counter::new("svc.requests");
    /// Service-cache hits (prepared kernels and memoized points).
    pub static SVC_CACHE_HITS: Counter = Counter::new("svc.cache_hits");
    /// Service-cache misses.
    pub static SVC_CACHE_MISSES: Counter = Counter::new("svc.cache_misses");
    /// Service requests that returned an error envelope.
    pub static SVC_ERRORS: Counter = Counter::new("svc.errors");
    /// Daemon requests whose handling panicked (answered with an
    /// `internal error` envelope).
    pub static SVC_PANICS: Counter = Counter::new("svc.panics");

    pub(super) static ALL: [&Counter; 35] = [
        &SWEEP_MEMO_HITS,
        &SWEEP_MEMO_MISSES,
        &SWEEP_POINTS,
        &FS_MODEL_RUNS,
        &FS_CASES,
        &FS_EVENTS,
        &FS_STEPS,
        &FS_ITERATIONS,
        &FS_LRU_EVICTIONS,
        &FS_LINE_TABLE_SLOTS,
        &FS_DISPATCH_DENSE,
        &FS_DISPATCH_REFERENCE,
        &FS_DENSE_FALLBACKS,
        &FS_DISPATCH_SYMBOLIC,
        &FS_SYMBOLIC_FALLBACKS,
        &FS_SYMBOLIC_DIRECT,
        &FS_SYMBOLIC_WINDOW_STEPS,
        &FS_SYMBOLIC_EXTRAPOLATED_STEPS,
        &STREAM_PLANS_COMPILED,
        &PREDICT_FITS,
        &SIM_REPLAYS,
        &SIM_ACCESSES,
        &SIM_COHERENCE_MISSES,
        &SIM_FALSE_SHARING,
        &SIM_TRUE_SHARING,
        &SIM_DISPATCH_DENSE,
        &SIM_DISPATCH_REFERENCE,
        &SIM_DENSE_FALLBACKS,
        &SIM_POINTS,
        &SWEEP_MEMO_EVICTIONS,
        &SVC_REQUESTS,
        &SVC_CACHE_HITS,
        &SVC_CACHE_MISSES,
        &SVC_ERRORS,
        &SVC_PANICS,
    ];
}

/// The pipeline's gauge taxonomy.
pub mod gauges {
    use super::Gauge;

    /// Worker-thread count of the most recent `SweepEngine::run`.
    pub static SWEEP_WORKERS: Gauge = Gauge::new("sweep.workers");
    /// Grid size (points) of the most recent `SweepEngine::run`.
    pub static SWEEP_GRID_POINTS: Gauge = Gauge::new("sweep.grid_points");
    /// Worker-thread count of the most recent measured-side harness run.
    pub static SIM_WORKERS: Gauge = Gauge::new("sim.workers");
    /// Resident bytes of the shared service memo cache (post-request).
    pub static SVC_CACHE_BYTES: Gauge = Gauge::new("svc.cache_bytes");

    pub(super) static ALL: [&Gauge; 4] = [
        &SWEEP_WORKERS,
        &SWEEP_GRID_POINTS,
        &SIM_WORKERS,
        &SVC_CACHE_BYTES,
    ];
}

/// The pipeline's latency-histogram taxonomy. Each is recorded at the same
/// site as the span of the matching name, but — unlike spans — histograms
/// are fixed-size cumulative state, so they stay on in a daemon and feed
/// the p50/p95/p99 figures in `--profile`, `stats`, and `/metrics`.
pub mod hists {
    use super::Histogram;

    /// End-to-end `Service::handle_with` latency (the `svc.request` span).
    pub static SVC_REQUEST_NS: Histogram = Histogram::new("svc.request_ns");
    /// One sweep grid point, memo lookup included (the `sweep.point` span).
    pub static SWEEP_POINT_NS: Histogram = Histogram::new("sweep.point_ns");
    /// One FS-model evaluation, any path (the `fs.*` dispatch sites).
    pub static FS_MODEL_NS: Histogram = Histogram::new("fs.model_ns");
    /// One MESI-simulator kernel replay (the `sim.replay` span).
    pub static SIM_REPLAY_NS: Histogram = Histogram::new("sim.replay_ns");

    pub(super) static ALL: [&Histogram; 4] = [
        &SVC_REQUEST_NS,
        &SWEEP_POINT_NS,
        &FS_MODEL_NS,
        &SIM_REPLAY_NS,
    ];
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One finished span: a named `[start, start + dur)` interval on a track.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    pub name: &'static str,
    /// Small sequential id of the recording thread (see [`Snapshot::tracks`]).
    pub track: u32,
    /// Nesting depth on the recording thread's span stack (0 = top level).
    pub depth: u32,
    /// Nanoseconds since the process obs epoch.
    pub start_ns: u64,
    pub dur_ns: u64,
}

impl SpanEvent {
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

thread_local! {
    /// Depth of this thread's active-span stack.
    static SPAN_DEPTH: Cell<u32> = const { Cell::new(0) };
    /// This thread's track id (`u32::MAX` = not yet assigned).
    static TRACK: Cell<u32> = const { Cell::new(u32::MAX) };
}

static NEXT_TRACK: AtomicU32 = AtomicU32::new(0);
static TRACKS: Mutex<Vec<(u32, String)>> = Mutex::new(Vec::new());
static EVENTS: Mutex<Vec<SpanEvent>> = Mutex::new(Vec::new());
static RING: Mutex<RingBuf> = Mutex::new(RingBuf::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// The bounded span recorder: a ring of the newest `RING_CAPACITY` events.
struct RingBuf {
    buf: Vec<SpanEvent>,
    /// Overwrite cursor, valid once `buf` has reached capacity.
    next: usize,
    /// Events overwritten since the ring was (re)configured.
    dropped: u64,
}

impl RingBuf {
    const fn new() -> Self {
        RingBuf {
            buf: Vec::new(),
            next: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, ev: SpanEvent, capacity: usize) {
        if self.buf.len() < capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.next] = ev;
            self.next = (self.next + 1) % capacity;
            self.dropped += 1;
        }
    }

    /// Events in recording order (oldest surviving first).
    fn ordered(&self) -> Vec<SpanEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.next..]);
        out.extend_from_slice(&self.buf[..self.next]);
        out
    }
}

/// Monotonic nanoseconds since the first probe of the process.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// This thread's track id, assigning one (and registering the thread name)
/// on first use.
fn track_id() -> u32 {
    TRACK.with(|t| {
        let v = t.get();
        if v != u32::MAX {
            return v;
        }
        let id = NEXT_TRACK.fetch_add(1, Ordering::Relaxed);
        let name = std::thread::current()
            .name()
            .unwrap_or("unnamed")
            .to_string();
        TRACKS.lock().expect("obs tracks poisoned").push((id, name));
        t.set(id);
        id
    })
}

/// RAII guard of an active span; records a [`SpanEvent`] on drop. Inactive
/// (all-zero, no clock read) when spans were disabled at creation.
#[must_use = "a span measures the scope it is bound to; binding to _ drops it immediately"]
pub struct SpanGuard {
    name: &'static str,
    track: u32,
    depth: u32,
    start_ns: u64,
    active: bool,
}

/// Open a span named `name` on the current thread. One relaxed load and a
/// branch when disabled.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !spans_enabled() {
        return SpanGuard {
            name,
            track: 0,
            depth: 0,
            start_ns: 0,
            active: false,
        };
    }
    let track = track_id();
    let depth = SPAN_DEPTH.with(|d| {
        let v = d.get();
        d.set(v + 1);
        v
    });
    SpanGuard {
        name,
        track,
        depth,
        start_ns: now_ns(),
        active: true,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        SPAN_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let end = now_ns();
        let ev = SpanEvent {
            name: self.name,
            track: self.track,
            depth: self.depth,
            start_ns: self.start_ns,
            dur_ns: end.saturating_sub(self.start_ns),
        };
        match RING_CAPACITY.load(Ordering::Relaxed) {
            0 => EVENTS.lock().expect("obs events poisoned").push(ev),
            cap => RING.lock().expect("obs ring poisoned").push(ev, cap),
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// Point-in-time copy of the whole registry.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Every counter in taxonomy order, `(name, value)`.
    pub counters: Vec<(&'static str, u64)>,
    /// Every gauge in taxonomy order, `(name, value)`.
    pub gauges: Vec<(&'static str, u64)>,
    /// Finished spans, sorted by `(start_ns, track, depth)` for stable output.
    pub spans: Vec<SpanEvent>,
    /// `(track id, thread name)` for every thread that recorded a span.
    pub tracks: Vec<(u32, String)>,
    /// Every histogram in taxonomy order.
    pub hists: Vec<HistogramSnapshot>,
    /// Spans overwritten by the ring recorder (0 under the vector recorder).
    pub dropped_spans: u64,
}

/// Aggregate of all spans sharing a name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanAgg {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub max_ns: u64,
}

impl Snapshot {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    pub fn hist(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.hists.iter().find(|h| h.name == name)
    }

    /// Per-name span totals, sorted by descending total time.
    pub fn span_aggregate(&self) -> Vec<SpanAgg> {
        let mut aggs: Vec<SpanAgg> = Vec::new();
        for ev in &self.spans {
            match aggs.iter_mut().find(|a| a.name == ev.name) {
                Some(a) => {
                    a.count += 1;
                    a.total_ns += ev.dur_ns;
                    a.max_ns = a.max_ns.max(ev.dur_ns);
                }
                None => aggs.push(SpanAgg {
                    name: ev.name,
                    count: 1,
                    total_ns: ev.dur_ns,
                    max_ns: ev.dur_ns,
                }),
            }
        }
        aggs.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(b.name)));
        aggs
    }

    /// Total time of every span named `name`, in nanoseconds.
    pub fn span_total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.dur_ns)
            .sum()
    }

    /// Wall interval covered by the snapshot: earliest span start to latest
    /// span end. Zero when no spans were recorded.
    pub fn wall_ns(&self) -> u64 {
        let lo = self.spans.iter().map(|e| e.start_ns).min();
        let hi = self.spans.iter().map(|e| e.end_ns()).max();
        match (lo, hi) {
            (Some(lo), Some(hi)) => hi - lo,
            _ => 0,
        }
    }

    /// Length of the union of all span intervals (across tracks) — the part
    /// of [`Self::wall_ns`] that is inside at least one span. The acceptance
    /// bar for trace export is `covered_ns / wall_ns >= 0.95`.
    pub fn covered_ns(&self) -> u64 {
        let mut ivs: Vec<(u64, u64)> = self
            .spans
            .iter()
            .map(|e| (e.start_ns, e.end_ns()))
            .collect();
        ivs.sort_unstable();
        let mut covered = 0u64;
        let mut cur: Option<(u64, u64)> = None;
        for (s, e) in ivs {
            match &mut cur {
                Some((_, ce)) if s <= *ce => *ce = (*ce).max(e),
                _ => {
                    if let Some((cs, ce)) = cur.take() {
                        covered += ce - cs;
                    }
                    cur = Some((s, e));
                }
            }
        }
        if let Some((cs, ce)) = cur {
            covered += ce - cs;
        }
        covered
    }

    /// Busy nanoseconds per track, from top-level (depth 0) spans only —
    /// the sweep-worker utilization figure.
    pub fn track_busy_ns(&self) -> Vec<(u32, u64)> {
        let mut busy: Vec<(u32, u64)> = Vec::new();
        for ev in self.spans.iter().filter(|e| e.depth == 0) {
            match busy.iter_mut().find(|(t, _)| *t == ev.track) {
                Some((_, b)) => *b += ev.dur_ns,
                None => busy.push((ev.track, ev.dur_ns)),
            }
        }
        busy.sort_by_key(|&(t, _)| t);
        busy
    }

    /// The registered name of `track`, if any.
    pub fn track_name(&self, track: u32) -> Option<&str> {
        self.tracks
            .iter()
            .find(|(t, _)| *t == track)
            .map(|(_, n)| n.as_str())
    }
}

/// Capture the current registry contents (counters, gauges, spans, tracks).
/// Does not clear anything.
pub fn snapshot() -> Snapshot {
    let (mut spans, dropped_spans) = if RING_CAPACITY.load(Ordering::Relaxed) != 0 {
        let ring = RING.lock().expect("obs ring poisoned");
        (ring.ordered(), ring.dropped)
    } else {
        (EVENTS.lock().expect("obs events poisoned").clone(), 0)
    };
    spans.sort_by(|a, b| {
        a.start_ns
            .cmp(&b.start_ns)
            .then(a.track.cmp(&b.track))
            .then(a.depth.cmp(&b.depth))
    });
    let mut tracks = TRACKS.lock().expect("obs tracks poisoned").clone();
    tracks.sort_by_key(|&(t, _)| t);
    Snapshot {
        counters: counters::ALL.iter().map(|c| (c.name(), c.get())).collect(),
        gauges: gauges::ALL.iter().map(|g| (g.name(), g.get())).collect(),
        spans,
        tracks,
        hists: hists::ALL.iter().map(|h| h.snapshot()).collect(),
        dropped_spans,
    }
}

/// Zero every counter, gauge, and histogram and drop all recorded spans
/// (both recorders). Track ids, thread registrations, the ring capacity,
/// and the time epoch persist (so ids stay small and timestamps stay
/// monotonic across resets).
pub fn reset() {
    for c in counters::ALL {
        c.reset();
    }
    for g in gauges::ALL {
        g.reset();
    }
    for h in hists::ALL {
        h.reset();
    }
    EVENTS.lock().expect("obs events poisoned").clear();
    let mut ring = RING.lock().expect("obs ring poisoned");
    ring.buf.clear();
    ring.next = 0;
    ring.dropped = 0;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Obs state is process-global; serialize the tests that mutate it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        match TEST_LOCK.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    #[test]
    fn disabled_probes_record_nothing() {
        let _g = locked();
        configure(ObsConfig::disabled());
        reset();
        counters::FS_CASES.add(10);
        gauges::SWEEP_WORKERS.set(4);
        hists::SVC_REQUEST_NS.record_ns(123);
        {
            let _s = span("test.noop");
        }
        let s = snapshot();
        assert_eq!(s.counter("fs.cases"), 0);
        assert_eq!(s.gauge("sweep.workers"), 0);
        assert_eq!(s.hist("svc.request_ns").unwrap().count, 0);
        assert!(s.spans.iter().all(|e| e.name != "test.noop"));
    }

    #[test]
    fn histograms_accumulate_and_estimate_quantiles() {
        let _g = locked();
        configure(ObsConfig::enabled());
        reset();
        for v in [1u64, 2, 3, 100, 1000, 1_000_000] {
            hists::FS_MODEL_NS.record_ns(v);
        }
        let s = snapshot();
        let h = s.hist("fs.model_ns").unwrap();
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1_001_106);
        // The p50 bucket upper bound must bracket the median (3), within
        // one bucket width.
        assert!(h.quantile(0.5) >= 3 && h.quantile(0.5) < 100);
        assert!(h.quantile(1.0) >= 1_000_000);
        assert_eq!(s.hists.len(), hists::ALL.len());
        configure(ObsConfig::disabled());
        reset();
    }

    #[test]
    fn ring_recorder_bounds_spans_and_keeps_newest() {
        let _g = locked();
        configure(ObsConfig::ring(4));
        reset();
        for _ in 0..2 {
            let _s = span("test.ring_old");
        }
        for _ in 0..4 {
            let _s = span("test.ring_new");
        }
        let s = snapshot();
        assert_eq!(s.spans.len(), 4);
        assert!(s.spans.iter().all(|e| e.name == "test.ring_new"));
        assert_eq!(s.dropped_spans, 2);
        assert_eq!(config().ring, Some(4));
        // Switching back to the vector recorder drains the ring.
        configure(ObsConfig::enabled());
        assert!(snapshot().spans.is_empty());
        configure(ObsConfig::disabled());
        reset();
    }

    #[test]
    fn counters_and_gauges_accumulate_when_enabled() {
        let _g = locked();
        configure(ObsConfig::enabled());
        reset();
        counters::FS_CASES.add(3);
        counters::FS_CASES.inc();
        gauges::SWEEP_WORKERS.set(7);
        let s = snapshot();
        assert_eq!(s.counter("fs.cases"), 4);
        assert_eq!(s.gauge("sweep.workers"), 7);
        // Taxonomy order is stable and complete.
        assert_eq!(s.counters.len(), counters::ALL.len());
        assert_eq!(s.counters[0].0, "sweep.memo_hits");
        configure(ObsConfig::disabled());
        reset();
    }

    #[test]
    fn spans_nest_and_aggregate() {
        let _g = locked();
        configure(ObsConfig::enabled());
        reset();
        {
            let _outer = span("test.outer");
            for _ in 0..3 {
                let _inner = span("test.inner");
                std::hint::black_box(0u64);
            }
        }
        let s = snapshot();
        let outer: Vec<_> = s.spans.iter().filter(|e| e.name == "test.outer").collect();
        let inner: Vec<_> = s.spans.iter().filter(|e| e.name == "test.inner").collect();
        assert_eq!(outer.len(), 1);
        assert_eq!(inner.len(), 3);
        assert_eq!(outer[0].depth, 0);
        assert!(inner.iter().all(|e| e.depth == 1));
        // Children are contained in the parent interval.
        for i in &inner {
            assert!(i.start_ns >= outer[0].start_ns);
            assert!(i.end_ns() <= outer[0].end_ns());
        }
        let agg = s.span_aggregate();
        let ia = agg.iter().find(|a| a.name == "test.inner").unwrap();
        assert_eq!(ia.count, 3);
        assert!(ia.total_ns <= s.span_total_ns("test.outer"));
        // The outer span alone covers the whole snapshot wall: >= 95%.
        assert!(s.covered_ns() * 100 >= s.wall_ns() * 95);
        // This thread has a registered track with busy time.
        let busy = s.track_busy_ns();
        assert_eq!(busy.len(), 1);
        assert!(s.track_name(busy[0].0).is_some());
        configure(ObsConfig::disabled());
        reset();
    }

    #[test]
    fn reset_clears_values_but_keeps_tracks() {
        let _g = locked();
        configure(ObsConfig::enabled());
        reset();
        counters::PREDICT_FITS.inc();
        {
            let _s = span("test.reset");
        }
        assert!(snapshot().counter("predict.fits") >= 1);
        reset();
        let s = snapshot();
        assert_eq!(s.counter("predict.fits"), 0);
        assert!(s.spans.is_empty());
        configure(ObsConfig::disabled());
    }

    #[test]
    fn covered_ns_merges_overlaps() {
        let s = Snapshot {
            spans: vec![
                SpanEvent {
                    name: "a",
                    track: 0,
                    depth: 0,
                    start_ns: 0,
                    dur_ns: 10,
                },
                SpanEvent {
                    name: "b",
                    track: 1,
                    depth: 0,
                    start_ns: 5,
                    dur_ns: 10,
                },
                SpanEvent {
                    name: "c",
                    track: 0,
                    depth: 0,
                    start_ns: 30,
                    dur_ns: 5,
                },
            ],
            ..Default::default()
        };
        assert_eq!(s.covered_ns(), 20); // [0,15) + [30,35)
        assert_eq!(s.wall_ns(), 35);
    }
}
