//! The analysis *service* layer: one request/response API shared by the
//! `fsdetect` and `fslint` CLIs and the `fsd` daemon.
//!
//! Everything the CLIs used to do inline — input resolution, machine
//! lookup, parsing, per-kernel analysis and lint, sweep-grid execution,
//! envelope assembly — lives here behind [`Service::handle`], so the
//! binaries are thin argument-parsing veneers and the daemon serves the
//! *same* code path over a socket. A [`ServiceResponse`] renders to the
//! versioned JSON envelope (`"fsd_version": 1`) regardless of which front
//! end asked, which is what makes the daemon's answers byte-identical to
//! in-process calls (see `tests/daemon.rs`).
//!
//! Cost-model results are memoized in a [`ServiceCache`]: a
//! [`fs_runtime::Sharded`] set of [`MemoCache`] shards routed by content
//! key, shared by every sweep worker and — in the daemon — every client
//! connection, across requests. Single-kernel analysis goes through the
//! same cache as grid points, so a warm daemon answers repeat requests
//! from memory (`svc.cache_hits` counts them).

use crate::error::{check_machine, check_team_size, AnalysisError};
use crate::json::JsonValue;
use crate::lint::LintReport;
use crate::report::AnalysisReport;
use crate::sweep::{SweepEngine, SweepGridResult};
use cost_model::sweep::{
    compute_point, point_key, prepared_key, EarlyExit, EvalMode, MemoCache, MemoStats, SweepGrid,
};
use cost_model::{AnalysisOptions, FsPath, LoopCost, PreparedKernel};
use fs_obs as obs;
use fs_runtime::Sharded;
use loop_ir::Kernel;
use machine::MachineConfig;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Core entry points (the bodies behind crate::try_analyze / try_lint)
// ---------------------------------------------------------------------------

/// Machine/team guards shared by every entry point.
fn check_team(machine: &MachineConfig, threads: u32) -> Result<(), AnalysisError> {
    check_machine(machine)?;
    if threads == 0 {
        return Err(AnalysisError::UnsupportedSchedule {
            reason: "team size (num_threads) must be >= 1".to_string(),
        });
    }
    check_team_size(threads)
}

/// Analyze a kernel: full Eq. 1 cost model with victim attribution.
/// The body behind [`crate::try_analyze`].
pub fn analyze(
    kernel: &Kernel,
    machine: &MachineConfig,
    opts: &AnalysisOptions,
) -> Result<AnalysisReport, AnalysisError> {
    check_team(machine, opts.num_threads)?;
    loop_ir::validate(kernel)?;
    let cost = cost_model::analyze_loop(kernel, machine, opts);
    Ok(AnalysisReport::new(kernel, machine, opts.num_threads, cost))
}

/// Lint a kernel symbolically under the same guards as [`analyze`].
/// The body behind [`crate::try_lint`].
pub fn lint(
    kernel: &Kernel,
    machine: &MachineConfig,
    num_threads: u32,
) -> Result<LintReport, AnalysisError> {
    check_team(machine, num_threads)?;
    loop_ir::validate(kernel)?;
    let line = machine.line_size();
    // FS005 compares one chunk's footprint against the machine's largest
    // private level: overflowing it means even L2 cannot hold the chunk.
    let capacity = machine
        .caches
        .private_levels()
        .map(|l| l.num_lines(line))
        .max();
    let result = cost_model::lint::lint_kernel_with_capacity(kernel, line, num_threads, capacity);
    Ok(LintReport::new(kernel, result, capacity))
}

/// Parse DSL source, then [`analyze`].
pub fn analyze_dsl(
    source: &str,
    machine: &MachineConfig,
    opts: &AnalysisOptions,
) -> Result<AnalysisReport, AnalysisError> {
    let kernel = loop_ir::dsl::parse_kernel(source)?;
    analyze(&kernel, machine, opts)
}

/// Parse DSL source, then [`lint`].
pub fn lint_dsl(
    source: &str,
    machine: &MachineConfig,
    num_threads: u32,
) -> Result<LintReport, AnalysisError> {
    let kernel = loop_ir::dsl::parse_kernel(source)?;
    lint(&kernel, machine, num_threads)
}

// ---------------------------------------------------------------------------
// Shared helpers: machines, input resolution, grid specs
// ---------------------------------------------------------------------------

/// The machine preset behind a `--machine` name (`paper48`, `generic`,
/// `tiny`), or `None` for anything else.
pub fn machine_by_name(name: &str) -> Option<MachineConfig> {
    match name {
        "paper48" => Some(machine::presets::paper48()),
        "generic" => Some(machine::presets::generic_x86()),
        "tiny" => Some(machine::presets::tiny_test()),
        _ => None,
    }
}

/// Resolve an input path to DSL source: `@name` loads a bundled corpus
/// kernel, anything else is read from the filesystem. The error strings are
/// the exact diagnostics the CLIs print (minus the binary-name prefix).
pub fn resolve_input(path: &str) -> Result<String, String> {
    if let Some(name) = path.strip_prefix('@') {
        crate::corpus::corpus_entry(name)
            .map(|e| e.source.to_string())
            .ok_or_else(|| format!("no bundled kernel '@{name}' (try --list)"))
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
    }
}

/// Parse `2,4,8:1,4,16,64` into `(threads, chunks)` — the `--sweep-grid`
/// axis spec shared by the CLI and daemon flags.
pub fn parse_grid_spec(spec: &str) -> Option<(Vec<u32>, Vec<u64>)> {
    let (t, c) = spec.split_once(':')?;
    let threads: Option<Vec<u32>> = t.split(',').map(|v| v.trim().parse().ok()).collect();
    let chunks: Option<Vec<u64>> = c.split(',').map(|v| v.trim().parse().ok()).collect();
    match (threads, chunks) {
        (Some(t), Some(c)) if !t.is_empty() && !c.is_empty() => Some((t, c)),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// ServiceCache — the sharded cross-request memo
// ---------------------------------------------------------------------------

/// A [`MemoCache`] sharded across [`fs_runtime::Sharded`] mutexes, routed
/// by content-key hash, so concurrent sweep workers and daemon connections
/// only contend when they touch the *same* kernel×machine×point.
///
/// An optional total byte budget is split evenly across shards; each shard
/// evicts LRU-first independently (see [`MemoCache`]), so the aggregate
/// stays within the budget while hits remain O(1).
pub struct ServiceCache {
    shards: Sharded<MemoCache>,
}

impl ServiceCache {
    /// `shards` independently locked shards (clamped to >= 1), bounded by
    /// `budget` total resident bytes (`None` = unbounded).
    pub fn new(shards: usize, budget: Option<u64>) -> Self {
        let n = shards.max(1);
        let per_shard = budget.map(|b| (b / n as u64).max(1));
        ServiceCache {
            shards: Sharded::new(n, |_| MemoCache::with_budget(per_shard)),
        }
    }

    pub fn num_shards(&self) -> usize {
        self.shards.num_shards()
    }

    /// Change the total byte budget; over-budget shards evict immediately,
    /// and `svc.cache_bytes` reflects the post-eviction residency (evictions
    /// only ever happen inside a budget-enforcing mutation — insert, prepare,
    /// or this — so publishing here keeps the gauge accurate between
    /// requests on a budget-pressured daemon).
    pub fn set_budget(&self, budget: Option<u64>) {
        let per_shard = budget.map(|b| (b / self.shards.num_shards() as u64).max(1));
        self.shards.for_each(|m| m.set_budget(per_shard));
        self.update_gauge();
    }

    /// Look up a point result by its [`point_key`], counting a hit or miss
    /// on the owning shard.
    pub fn lookup_point(&self, key: &str) -> Option<LoopCost> {
        self.shards.shard_for(key).lookup_point(key)
    }

    /// Store a computed point result under its [`point_key`], returning
    /// the LRU evictions this insert forced on its shard.
    pub fn insert_point(&self, key: String, cost: LoopCost) -> u64 {
        let evicted = self.shards.shard_for(key.as_str()).insert_point(key, cost);
        self.update_gauge();
        evicted
    }

    /// The prepared (schedule-independent) inputs for `kernel` on
    /// `machine`, cached on the shard owning its [`prepared_key`] and
    /// shared by every FS path. Also returns the LRU evictions a fresh
    /// entry forced (0 on a hit).
    pub fn prepared_for(&self, kernel: &Kernel, machine: &MachineConfig) -> (PreparedKernel, u64) {
        let key = prepared_key(kernel, machine);
        let p = self
            .shards
            .shard_for(key.as_str())
            .prepared_for_keyed(key, kernel, machine);
        self.update_gauge();
        p
    }

    /// Aggregate statistics over every shard. Per-shard peaks sum to a
    /// conservative upper bound on the aggregate peak (see
    /// [`MemoStats::merge`]).
    pub fn stats(&self) -> MemoStats {
        self.shards.fold(MemoStats::default(), |mut acc, m| {
            acc.merge(&m.stats());
            acc
        })
    }

    /// Drop every cached entry (lifetime counters survive).
    pub fn clear(&self) {
        self.shards.for_each(|m| m.clear());
        self.update_gauge();
    }

    /// Publish current resident bytes to the `svc.cache_bytes` gauge.
    fn update_gauge(&self) {
        if obs::counters_enabled() {
            obs::gauges::SVC_CACHE_BYTES.set(self.stats().bytes);
        }
    }
}

// ---------------------------------------------------------------------------
// Request / response types
// ---------------------------------------------------------------------------

/// One kernel to analyze: a display name (file path, `@corpus` name, or any
/// client-chosen label) plus optional inline DSL source. Without `source`,
/// the service resolves `name` via [`resolve_input`].
#[derive(Debug, Clone)]
pub struct KernelInput {
    pub name: String,
    pub source: Option<String>,
}

impl KernelInput {
    /// An input the service resolves by name (`@corpus` or file path).
    pub fn named(name: impl Into<String>) -> Self {
        KernelInput {
            name: name.into(),
            source: None,
        }
    }

    /// An input with inline DSL source (what daemon clients usually send).
    pub fn inline(name: impl Into<String>, source: impl Into<String>) -> Self {
        KernelInput {
            name: name.into(),
            source: Some(source.into()),
        }
    }
}

/// Per-request knobs (everything the CLI flags used to thread around).
#[derive(Debug, Clone)]
pub struct ServiceOptions {
    /// Team size for per-kernel analysis and lint.
    pub threads: u32,
    /// §III-E prediction sample size (`None` = full model).
    pub predict: Option<u64>,
    /// Adaptive early-exit prediction for grid points (overrides `predict`
    /// for the grid).
    pub early_exit: bool,
    /// Sweep worker-thread count (`None` = one per core).
    pub workers: Option<usize>,
    /// Include the Eq. 1 analysis report per kernel.
    pub analyze: bool,
    /// Include the symbolic lint report per kernel.
    pub lint: bool,
    /// Include nondeterministic timing (`sweep_stats`) in the envelope.
    pub timing: bool,
    /// `NAME=VALUE` bindings applied when parsing every kernel.
    pub consts: Vec<(String, i64)>,
    /// FS-model path for every analysis and grid point. The service
    /// defaults to [`FsPath::Symbolic`]: in-fragment kernels with a closed
    /// form get exact counts without walking the whole loop, the rest of
    /// the fragment runs on the dense walk's tables at about the dense
    /// walk's cost (see `fs.symbolic_direct`), and out-of-fragment kernels
    /// fall back to the dense path (see `fs.symbolic_fallbacks`), all with
    /// identical counts.
    pub path: FsPath,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            threads: 8,
            predict: None,
            early_exit: false,
            workers: None,
            analyze: true,
            lint: true,
            timing: false,
            consts: Vec::new(),
            path: FsPath::Symbolic,
        }
    }
}

/// One analysis request: kernels × machines, an optional sweep grid, and
/// options. This is the *only* argument shape the service accepts — the
/// CLIs build it from flags, the daemon from a JSON line.
#[derive(Debug, Clone)]
pub struct ServiceRequest {
    pub kernels: Vec<KernelInput>,
    /// Machine preset names (see [`machine_by_name`]). The first is the
    /// primary machine for per-kernel reports; a sweep grid runs over all.
    pub machines: Vec<String>,
    /// `(threads axis, chunks axis)` for a sweep grid over every kernel ×
    /// machine.
    pub grid: Option<(Vec<u32>, Vec<u64>)>,
    pub options: ServiceOptions,
}

impl Default for ServiceRequest {
    fn default() -> Self {
        ServiceRequest {
            kernels: Vec::new(),
            machines: vec!["paper48".to_string()],
            grid: None,
            options: ServiceOptions::default(),
        }
    }
}

/// The outcome for one requested kernel. `kernel` carries the parsed IR so
/// veneers can drive extra passes (advisor, simulator) without re-parsing.
#[derive(Debug, Clone)]
pub struct KernelResult {
    /// The input's display name, echoed back.
    pub file: String,
    pub kernel: Option<Kernel>,
    pub report: Option<AnalysisReport>,
    pub lint: Option<LintReport>,
    /// Resolution / parse / analysis failure for this input (the others
    /// still run).
    pub error: Option<String>,
}

impl KernelResult {
    /// The entry in the envelope's `reports` array (stable field order).
    pub fn to_json(&self) -> JsonValue {
        let mut o = JsonValue::obj().field("file", self.file.as_str());
        if let Some(k) = &self.kernel {
            o = o.field("kernel", k.name.as_str());
        }
        if let Some(r) = &self.report {
            o = o.field("report", r.to_json());
        }
        if let Some(l) = &self.lint {
            o = o.field("lint", l.to_json());
        }
        if let Some(e) = &self.error {
            o = o.field("error", e.as_str());
        }
        o
    }
}

/// Process-wide request id source: every [`Service::handle_with`] call gets
/// the next id, and the daemon draws control-command ids (ping, stats, …)
/// from the same sequence so its access log stays totally ordered.
static NEXT_REQUEST_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// Claim the next monotonically increasing request id.
pub fn allocate_request_id() -> u64 {
    NEXT_REQUEST_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// Wall-clock breakdown of one request, measured independently of the obs
/// configuration. Attached to the envelope only under the `timing:true`
/// request flag (it is nondeterministic, like `sweep_stats`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RequestTiming {
    /// End-to-end `handle_with` wall time.
    pub total_ns: u64,
    /// Input resolution + DSL parsing, summed over kernels.
    pub resolve_ns: u64,
    /// Cost-model analysis (`analyze_cached`), summed over kernels.
    pub analyze_ns: u64,
    /// Symbolic lint, summed over kernels.
    pub lint_ns: u64,
    /// The sweep-grid run, when one was requested.
    pub grid_ns: u64,
    /// Service-cache hits this request (single-kernel lookups plus the
    /// grid's memo-delta).
    pub cache_hits: u64,
    /// Service-cache misses this request.
    pub cache_misses: u64,
}

impl RequestTiming {
    /// The envelope's `timing` object (stable field order).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .field("total_ms", self.total_ns as f64 / 1e6)
            .field("resolve_ms", self.resolve_ns as f64 / 1e6)
            .field("analyze_ms", self.analyze_ns as f64 / 1e6)
            .field("lint_ms", self.lint_ns as f64 / 1e6)
            .field("grid_ms", self.grid_ns as f64 / 1e6)
            .field("cache_hits", self.cache_hits)
            .field("cache_misses", self.cache_misses)
    }
}

/// Everything one request produced. Renders to the versioned envelope via
/// [`Self::envelope`]; front ends add presentation (exit codes, stderr
/// diagnostics, metrics) on top.
#[derive(Debug, Clone)]
pub struct ServiceResponse {
    /// Primary machine name, echoed back.
    pub machine: String,
    pub threads: u32,
    pub results: Vec<KernelResult>,
    pub sweep: Option<SweepGridResult>,
    /// Request-level failures (unknown machine, invalid grid). Per-kernel
    /// failures live in [`KernelResult::error`].
    pub errors: Vec<String>,
    /// Any lint reported findings.
    pub findings: bool,
    /// Whether the envelope includes nondeterministic `sweep_stats`,
    /// `request_id`, and `timing`.
    pub include_timing: bool,
    /// This request's id from [`allocate_request_id`].
    pub request_id: u64,
    /// Per-phase wall breakdown (always measured; rendered only under
    /// `timing:true`).
    pub timing: RequestTiming,
}

impl ServiceResponse {
    /// Request-level or per-kernel errors?
    pub fn has_errors(&self) -> bool {
        !self.errors.is_empty() || self.results.iter().any(|r| r.error.is_some())
    }

    /// Any kernel's report crossed the significance threshold?
    pub fn has_significant_fs(&self) -> bool {
        self.results.iter().any(|r| {
            r.report
                .as_ref()
                .is_some_and(|rep| rep.has_significant_fs())
        })
    }

    /// Every error string, request-level first, then per-kernel in input
    /// order (the envelope's `errors` array).
    pub fn all_errors(&self) -> Vec<&str> {
        self.errors
            .iter()
            .map(|e| e.as_str())
            .chain(self.results.iter().filter_map(|r| r.error.as_deref()))
            .collect()
    }

    /// The versioned response envelope — the one JSON document every front
    /// end emits. Deterministic for deterministic requests: `sweep_stats`
    /// (wall-clock timing) is included only when the request asked for
    /// timing, and `metrics` is appended by front ends that snapshot
    /// observability themselves.
    pub fn envelope(&self) -> JsonValue {
        self.envelope_inner(true)
    }

    /// The envelope without the `reports` array — the `done` event of a
    /// streaming response, where per-kernel entries already went out.
    pub fn envelope_tail(&self) -> JsonValue {
        self.envelope_inner(false)
    }

    fn envelope_inner(&self, include_reports: bool) -> JsonValue {
        let mut doc = JsonValue::obj()
            .field("fsd_version", FSD_VERSION)
            .field("machine", self.machine.as_str())
            .field("threads", self.threads as u64);
        if self.include_timing {
            doc = doc.field("request_id", self.request_id);
        }
        if include_reports {
            doc = doc.field(
                "reports",
                JsonValue::Arr(self.results.iter().map(|r| r.to_json()).collect()),
            );
        }
        if let Some(r) = &self.sweep {
            doc = doc.field("sweep_grid", r.to_json());
            if self.include_timing {
                doc = doc.field("sweep_stats", r.stats_json(5));
            }
        }
        if self.include_timing {
            doc = doc.field("timing", self.timing.to_json());
        }
        doc.field("findings", self.findings).field(
            "errors",
            JsonValue::Arr(
                self.all_errors()
                    .into_iter()
                    .map(|e| JsonValue::Str(e.to_string()))
                    .collect(),
            ),
        )
    }

    /// The response as a SARIF 2.1.0 document (lint results only).
    pub fn sarif(&self) -> JsonValue {
        crate::lint::sarif_document(
            self.results
                .iter()
                .filter_map(|r| {
                    r.lint
                        .as_ref()
                        .map(|l| (r.file.clone(), l.sarif_results(&r.file)))
                })
                .collect(),
        )
    }
}

/// The envelope schema version (`"fsd_version"`).
pub const FSD_VERSION: u64 = 1;

// ---------------------------------------------------------------------------
// The Service
// ---------------------------------------------------------------------------

/// A stateful analysis service: a shared [`ServiceCache`] plus the request
/// execution logic. Cheap to construct per CLI invocation; long-lived in
/// the daemon, where the cache is the whole point.
pub struct Service {
    cache: Arc<ServiceCache>,
}

impl Default for Service {
    fn default() -> Self {
        Self::new()
    }
}

impl Service {
    /// Unbounded cache, one shard per available core.
    pub fn new() -> Self {
        Self::with_budget(None)
    }

    /// Cache bounded to `budget` total resident bytes (`None` = unbounded).
    pub fn with_budget(budget: Option<u64>) -> Self {
        let shards = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Service {
            cache: Arc::new(ServiceCache::new(shards, budget)),
        }
    }

    /// The shared cache (hand to [`SweepEngine::with_cache`] or inspect).
    pub fn cache(&self) -> &Arc<ServiceCache> {
        &self.cache
    }

    /// Execute one request. See [`Self::handle_with`].
    pub fn handle(&self, req: &ServiceRequest) -> ServiceResponse {
        self.handle_with(req, None)
    }

    /// Execute one request, invoking `on_result` after each kernel
    /// completes (the daemon's incremental streaming hook). Per-kernel
    /// failures are recorded and the remaining kernels still run;
    /// request-level failures (unknown machine, bad grid) land in
    /// [`ServiceResponse::errors`].
    pub fn handle_with(
        &self,
        req: &ServiceRequest,
        mut on_result: Option<&mut dyn FnMut(&KernelResult)>,
    ) -> ServiceResponse {
        let _span = obs::span("svc.request");
        obs::counters::SVC_REQUESTS.inc();
        let request_id = allocate_request_id();
        let t_request = std::time::Instant::now();
        let mut timing = RequestTiming::default();
        let opts = &req.options;
        let mut errors = Vec::new();

        let mut machines: Vec<(String, MachineConfig)> = Vec::new();
        for name in &req.machines {
            match machine_by_name(name) {
                Some(m) => machines.push((name.clone(), m)),
                None => {
                    errors.push(format!("unknown machine '{name}'"));
                    obs::counters::SVC_ERRORS.inc();
                }
            }
        }
        let machine_name = req
            .machines
            .first()
            .cloned()
            .unwrap_or_else(|| "paper48".to_string());
        if machines.is_empty() {
            if errors.is_empty() {
                errors.push("request names no machine".to_string());
                obs::counters::SVC_ERRORS.inc();
            }
            timing.total_ns = t_request.elapsed().as_nanos() as u64;
            obs::hists::SVC_REQUEST_NS.record_ns(timing.total_ns);
            return ServiceResponse {
                machine: machine_name,
                threads: opts.threads,
                results: Vec::new(),
                sweep: None,
                errors,
                findings: false,
                include_timing: opts.timing,
                request_id,
                timing,
            };
        }
        let primary = &machines[0].1;
        let consts: Vec<(&str, i64)> = opts.consts.iter().map(|(n, v)| (n.as_str(), *v)).collect();

        let mut results: Vec<KernelResult> = Vec::with_capacity(req.kernels.len());
        for input in &req.kernels {
            let mut kr = KernelResult {
                file: input.name.clone(),
                kernel: None,
                report: None,
                lint: None,
                error: None,
            };
            let t_resolve = std::time::Instant::now();
            let src = match &input.source {
                Some(s) => Ok(s.clone()),
                None => resolve_input(&input.name),
            };
            let parsed = src.and_then(|src| {
                loop_ir::dsl::parse_kernel_with_consts(&src, &consts)
                    .map_err(|e| e.with_source_name(&input.name).to_string())
            });
            timing.resolve_ns += t_resolve.elapsed().as_nanos() as u64;
            match parsed {
                Err(e) => kr.error = Some(e),
                Ok(kernel) => {
                    if opts.analyze {
                        let t = std::time::Instant::now();
                        let res = self.analyze_cached(
                            &kernel,
                            primary,
                            opts.threads,
                            opts.predict,
                            opts.path,
                            &mut timing,
                        );
                        timing.analyze_ns += t.elapsed().as_nanos() as u64;
                        match res {
                            Ok(r) => kr.report = Some(r),
                            Err(e) => kr.error = Some(format!("{}: {e}", input.name)),
                        }
                    }
                    if opts.lint && kr.error.is_none() {
                        let t = std::time::Instant::now();
                        let res = lint(&kernel, primary, opts.threads);
                        timing.lint_ns += t.elapsed().as_nanos() as u64;
                        match res {
                            Ok(l) => kr.lint = Some(l),
                            Err(e) => kr.error = Some(format!("{}: {e}", input.name)),
                        }
                    }
                    kr.kernel = Some(kernel);
                }
            }
            if kr.error.is_some() {
                obs::counters::SVC_ERRORS.inc();
            }
            if let Some(cb) = on_result.as_deref_mut() {
                cb(&kr);
            }
            results.push(kr);
        }

        let sweep = match &req.grid {
            Some((gthreads, gchunks)) => {
                let kernels: Vec<(String, Kernel)> = results
                    .iter()
                    .filter(|r| r.error.is_none())
                    .filter_map(|r| r.kernel.clone().map(|k| (k.name.clone(), k)))
                    .collect();
                if kernels.is_empty() {
                    None
                } else {
                    let grid = SweepGrid {
                        kernels,
                        machines: machines.clone(),
                        threads: gthreads.clone(),
                        chunks: gchunks.clone(),
                    };
                    let mode = if opts.early_exit {
                        EvalMode::EarlyExit(EarlyExit::default())
                    } else {
                        match opts.predict {
                            Some(runs) => EvalMode::Predict(runs),
                            None => EvalMode::Full,
                        }
                    };
                    let mut engine = SweepEngine::with_cache(Arc::clone(&self.cache))
                        .mode(mode)
                        .path(opts.path);
                    if let Some(w) = opts.workers {
                        engine = engine.workers(w);
                    }
                    let t_grid = std::time::Instant::now();
                    let run = engine.run(&grid);
                    timing.grid_ns += t_grid.elapsed().as_nanos() as u64;
                    match run {
                        Ok(r) => {
                            obs::counters::SVC_CACHE_HITS.add(r.memo_hits);
                            obs::counters::SVC_CACHE_MISSES.add(r.memo_misses);
                            timing.cache_hits += r.memo_hits;
                            timing.cache_misses += r.memo_misses;
                            Some(r)
                        }
                        Err(e) => {
                            errors.push(format!("sweep grid: {e}"));
                            obs::counters::SVC_ERRORS.inc();
                            None
                        }
                    }
                }
            }
            None => None,
        };

        self.cache.update_gauge();
        let findings = results
            .iter()
            .any(|r| r.lint.as_ref().is_some_and(|l| l.has_findings()));
        timing.total_ns = t_request.elapsed().as_nanos() as u64;
        obs::hists::SVC_REQUEST_NS.record_ns(timing.total_ns);
        ServiceResponse {
            machine: machine_name,
            threads: opts.threads,
            results,
            sweep,
            errors,
            findings,
            include_timing: opts.timing,
            request_id,
            timing,
        }
    }

    /// Single-kernel analysis through the shared point memo — the same
    /// cache (and keys) the sweep engine fills, so a repeat request on a
    /// warm service is a lookup, not a model run.
    fn analyze_cached(
        &self,
        kernel: &Kernel,
        machine: &MachineConfig,
        threads: u32,
        predict: Option<u64>,
        path: FsPath,
        timing: &mut RequestTiming,
    ) -> Result<AnalysisReport, AnalysisError> {
        check_team(machine, threads)?;
        loop_ir::validate(kernel)?;
        let mode = match predict {
            Some(runs) => EvalMode::Predict(runs),
            None => EvalMode::Full,
        };
        let key = point_key(kernel, machine, threads, &mode, path);
        let cost = match self.cache.lookup_point(&key) {
            Some(c) => {
                obs::counters::SVC_CACHE_HITS.inc();
                timing.cache_hits += 1;
                c
            }
            None => {
                obs::counters::SVC_CACHE_MISSES.inc();
                timing.cache_misses += 1;
                let (prep, _) = self.cache.prepared_for(kernel, machine);
                let c = compute_point(kernel, machine, threads, mode, path, &prep);
                self.cache.insert_point(key, c.clone());
                c
            }
        };
        Ok(AnalysisReport::new(kernel, machine, threads, cost))
    }
}

// ---------------------------------------------------------------------------
// Wire protocol: JSON request parsing (the daemon's input format)
// ---------------------------------------------------------------------------

/// Daemon commands. `Analyze` and `Lint` carry a [`ServiceRequest`]; the
/// rest are control messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Full analysis (report + lint per kernel, optional grid).
    Analyze,
    /// Lint only (no cost-model run).
    Lint,
    /// Liveness check.
    Ping,
    /// Cache / counter statistics.
    Stats,
    /// Full observability registry (counters, gauges, histograms) as JSON —
    /// the protocol twin of the HTTP `/metrics` endpoint.
    Metrics,
    /// Ask the daemon to exit.
    Shutdown,
}

/// One parsed protocol message.
#[derive(Debug, Clone)]
pub struct ParsedRequest {
    pub command: Command,
    /// Stream per-kernel `result` events before the final envelope.
    pub stream: bool,
    pub request: ServiceRequest,
}

/// Parse one protocol message (one JSON object per line):
///
/// ```json
/// {"cmd": "analyze",
///  "kernels": [{"name": "@histogram"},
///              {"name": "k.loop", "source": "kernel k { ... }"}],
///  "machines": ["paper48"], "threads": 8,
///  "grid": {"threads": [2,4,8], "chunks": [1,4,16]},
///  "consts": {"N": 64}, "predict": 32, "early_exit": false,
///  "workers": 4, "timing": false, "stream": false}
/// ```
///
/// `cmd` defaults to `analyze`; `machine` (singular, a string) is accepted
/// as shorthand for a one-entry `machines`. `path` selects the FS-model
/// path (`"symbolic"` — the default — `"optimized"`, or `"reference"`;
/// `"analytic"` is an alias of `"symbolic"` and `"dense"` of
/// `"optimized"`). `sim_workers` is accepted for protocol compatibility
/// and ignored: it must still be a non-negative integer.
/// Unknown commands and malformed fields are errors — the daemon reports
/// them without dying.
pub fn parse_request(v: &JsonValue) -> Result<ParsedRequest, String> {
    let cmd = match v.get("cmd") {
        None => "analyze",
        Some(c) => c.as_str().ok_or("'cmd' must be a string")?,
    };
    let command = match cmd {
        "analyze" => Command::Analyze,
        "lint" => Command::Lint,
        "ping" => Command::Ping,
        "stats" => Command::Stats,
        "metrics" => Command::Metrics,
        "shutdown" => Command::Shutdown,
        other => return Err(format!("unknown command '{other}'")),
    };
    let stream = match v.get("stream") {
        None => false,
        Some(s) => s.as_bool().ok_or("'stream' must be a boolean")?,
    };
    let mut req = ServiceRequest::default();
    if matches!(
        command,
        Command::Ping | Command::Stats | Command::Metrics | Command::Shutdown
    ) {
        return Ok(ParsedRequest {
            command,
            stream,
            request: req,
        });
    }

    let kernels = v
        .get("kernels")
        .and_then(|k| k.as_arr())
        .ok_or("request needs a 'kernels' array")?;
    if kernels.is_empty() {
        return Err("request has no kernels".to_string());
    }
    for k in kernels {
        let input = match k {
            JsonValue::Str(name) => KernelInput::named(name.clone()),
            JsonValue::Obj(_) => {
                let name = k
                    .get("name")
                    .and_then(|n| n.as_str())
                    .ok_or("kernel entry needs a 'name' string")?;
                match k.get("source") {
                    None => KernelInput::named(name),
                    Some(s) => KernelInput::inline(
                        name,
                        s.as_str().ok_or("kernel 'source' must be a string")?,
                    ),
                }
            }
            _ => return Err("kernel entries must be names or objects".to_string()),
        };
        req.kernels.push(input);
    }

    if let Some(m) = v.get("machine") {
        req.machines = vec![m.as_str().ok_or("'machine' must be a string")?.to_string()];
    }
    if let Some(ms) = v.get("machines") {
        let arr = ms.as_arr().ok_or("'machines' must be an array")?;
        req.machines = arr
            .iter()
            .map(|m| m.as_str().map(str::to_string))
            .collect::<Option<Vec<_>>>()
            .ok_or("'machines' entries must be strings")?;
        if req.machines.is_empty() {
            return Err("'machines' is empty".to_string());
        }
    }

    let opts = &mut req.options;
    if let Some(t) = v.get("threads") {
        let t = t
            .as_u64()
            .ok_or("'threads' must be a non-negative integer")?;
        opts.threads = u32::try_from(t).map_err(|_| "'threads' is out of range")?;
    }
    if let Some(p) = v.get("predict") {
        opts.predict = Some(
            p.as_u64()
                .ok_or("'predict' must be a non-negative integer")?,
        );
    }
    if let Some(e) = v.get("early_exit") {
        opts.early_exit = e.as_bool().ok_or("'early_exit' must be a boolean")?;
    }
    if let Some(w) = v.get("workers") {
        let w = w
            .as_u64()
            .ok_or("'workers' must be a non-negative integer")?;
        opts.workers = Some(w.max(1) as usize);
    }
    if let Some(w) = v.get("sim_workers") {
        w.as_u64()
            .ok_or("'sim_workers' must be a non-negative integer")?;
    }
    if let Some(t) = v.get("timing") {
        opts.timing = t.as_bool().ok_or("'timing' must be a boolean")?;
    }
    if let Some(p) = v.get("path") {
        let s = p.as_str().ok_or("'path' must be a string")?;
        opts.path = FsPath::parse(s)
            .ok_or_else(|| format!("unknown path '{s}' (symbolic | optimized | reference)"))?;
    }
    if let Some(c) = v.get("consts") {
        let JsonValue::Obj(fields) = c else {
            return Err("'consts' must be an object".to_string());
        };
        for (name, val) in fields {
            let n = val
                .as_f64()
                .filter(|n| n.trunc() == *n)
                .ok_or_else(|| format!("const '{name}' must be an integer"))?;
            opts.consts.push((name.clone(), n as i64));
        }
    }
    if let Some(g) = v.get("grid") {
        let threads = g
            .get("threads")
            .and_then(|t| t.as_arr())
            .ok_or("'grid' needs a 'threads' array")?
            .iter()
            .map(|t| t.as_u64().and_then(|t| u32::try_from(t).ok()))
            .collect::<Option<Vec<u32>>>()
            .ok_or("'grid.threads' entries must be integers")?;
        let chunks = g
            .get("chunks")
            .and_then(|c| c.as_arr())
            .ok_or("'grid' needs a 'chunks' array")?
            .iter()
            .map(|c| c.as_u64())
            .collect::<Option<Vec<u64>>>()
            .ok_or("'grid.chunks' entries must be integers")?;
        if threads.is_empty() || chunks.is_empty() {
            return Err("'grid' axes must be non-empty".to_string());
        }
        req.grid = Some((threads, chunks));
    }
    if command == Command::Lint {
        opts.analyze = false;
    }
    Ok(ParsedRequest {
        command,
        stream,
        request: req,
    })
}

// ---------------------------------------------------------------------------
// Metrics rendering (the `metrics` envelope section + `--profile`)
// ---------------------------------------------------------------------------

/// The `metrics` section front ends append to the envelope: every counter
/// and gauge by name, span aggregates, and the trace coverage figure.
pub fn metrics_json(snap: &obs::Snapshot) -> JsonValue {
    let mut counters = JsonValue::obj();
    for &(name, v) in &snap.counters {
        counters = counters.field(name, v);
    }
    let mut gauges = JsonValue::obj();
    for &(name, v) in &snap.gauges {
        gauges = gauges.field(name, v);
    }
    let mut hists = JsonValue::obj();
    for h in &snap.hists {
        hists = hists.field(h.name, hist_json(h));
    }
    let spans = snap
        .span_aggregate()
        .into_iter()
        .map(|a| {
            JsonValue::obj()
                .field("name", a.name)
                .field("count", a.count)
                .field("total_ms", a.total_ns as f64 / 1e6)
                .field("max_ms", a.max_ns as f64 / 1e6)
        })
        .collect();
    JsonValue::obj()
        .field("counters", counters)
        .field("gauges", gauges)
        .field("hists", hists)
        .field("spans", JsonValue::Arr(spans))
        .field("wall_ms", snap.wall_ns() as f64 / 1e6)
        .field("span_coverage", span_coverage(snap))
}

/// One histogram as JSON: totals plus quantile estimates in milliseconds.
pub fn hist_json(h: &obs::HistogramSnapshot) -> JsonValue {
    JsonValue::obj()
        .field("count", h.count)
        .field("mean_ms", h.mean_ns() as f64 / 1e6)
        .field("p50_ms", h.quantile(0.50) as f64 / 1e6)
        .field("p95_ms", h.quantile(0.95) as f64 / 1e6)
        .field("p99_ms", h.quantile(0.99) as f64 / 1e6)
}

/// Fraction of the snapshot's wall interval inside at least one span.
pub fn span_coverage(snap: &obs::Snapshot) -> f64 {
    let wall = snap.wall_ns();
    if wall == 0 {
        0.0
    } else {
        snap.covered_ns() as f64 / wall as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn histogram_request() -> ServiceRequest {
        ServiceRequest {
            kernels: vec![KernelInput::named("@histogram")],
            ..ServiceRequest::default()
        }
    }

    #[test]
    fn handle_produces_versioned_envelope() {
        let svc = Service::new();
        let resp = svc.handle(&histogram_request());
        assert!(!resp.has_errors());
        let doc = resp.envelope();
        assert_eq!(doc.get("fsd_version").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(doc.get("machine").and_then(|v| v.as_str()), Some("paper48"));
        let reports = doc.get("reports").and_then(|r| r.as_arr()).unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(
            reports[0].get("file").and_then(|v| v.as_str()),
            Some("@histogram")
        );
        assert!(reports[0].get("report").is_some());
        assert!(reports[0].get("lint").is_some());
        // Envelope render parses back (NDJSON-safe).
        assert!(json::parse(&doc.render()).is_ok());
    }

    #[test]
    fn repeat_requests_hit_the_shared_cache() {
        let svc = Service::new();
        let req = histogram_request();
        svc.handle(&req);
        let s0 = svc.cache().stats();
        assert_eq!(s0.hits, 0);
        assert!(s0.misses > 0);
        svc.handle(&req);
        let s1 = svc.cache().stats();
        assert!(s1.hits > 0, "second request must hit the point memo");
        assert_eq!(s1.misses, s0.misses, "no new misses on a warm cache");
    }

    #[test]
    fn analyze_and_grid_share_one_cache() {
        // A grid containing the analyze point means the grid run hits the
        // entry the single-kernel path already inserted.
        let svc = Service::new();
        let mut req = histogram_request();
        svc.handle(&req);
        req.grid = Some((vec![8], vec![1]));
        let resp = svc.handle(&req);
        let sweep = resp.sweep.as_ref().unwrap();
        // @histogram's schedule is (static, 1), threads default 8 — the
        // same point identity the first request cached.
        assert!(sweep.memo_hits > 0, "grid reuses the analyze point");
    }

    #[test]
    fn grid_memo_tallies_stay_exact_under_concurrent_lookups() {
        // A cold grid of tens of milliseconds spans several scheduler time
        // slices, so a second thread released by the same barrier overlaps
        // it even on one core. That thread hammers hits and misses on the
        // shared cache until the grid returns; none may leak into the
        // grid's own tallies.
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Barrier;
        let svc = Service::new();
        let warm = svc.handle(&histogram_request());
        let cost = warm.results[0].report.as_ref().unwrap().cost.clone();
        svc.cache().insert_point("probe-hit".to_string(), cost);
        let req = ServiceRequest {
            kernels: vec![KernelInput::named("@stencil")],
            grid: Some((vec![2, 4, 8], vec![1, 2, 4, 8, 16])),
            ..ServiceRequest::default()
        };
        let quiet = Service::new().handle(&req);
        let quiet = quiet.sweep.as_ref().unwrap();
        assert_eq!(quiet.memo_hits + quiet.memo_misses, 15);

        let barrier = Barrier::new(2);
        let done = AtomicBool::new(false);
        let (resp, lookups) = std::thread::scope(|s| {
            let hammer = s.spawn(|| {
                barrier.wait();
                let mut n = 0u64;
                while !done.load(Ordering::Acquire) {
                    assert!(svc.cache().lookup_point("probe-hit").is_some());
                    assert!(svc.cache().lookup_point("probe-miss").is_none());
                    n += 2;
                }
                n
            });
            barrier.wait();
            let resp = svc.handle(&req);
            done.store(true, Ordering::Release);
            (resp, hammer.join().unwrap())
        });
        assert!(lookups > 0, "the hammer never overlapped the grid");
        let sweep = resp.sweep.as_ref().unwrap();
        assert_eq!(
            (sweep.memo_hits, sweep.memo_misses),
            (quiet.memo_hits, quiet.memo_misses),
            "{lookups} concurrent lookups leaked into the grid's tallies"
        );
    }

    #[test]
    fn path_toggle_never_serves_stale_cache() {
        let svc = Service::new();
        // A kernel the symbolic engine answers in closed form, so the two
        // paths run different engines.
        let mut req = ServiceRequest {
            kernels: vec![KernelInput::named("@linreg")],
            ..ServiceRequest::default()
        };
        let a = svc.handle(&req);
        let s0 = svc.cache().stats();
        req.options.path = FsPath::Reference;
        let b = svc.handle(&req);
        let s1 = svc.cache().stats();
        assert_eq!(s1.hits, s0.hits, "different path must miss the memo");
        assert!(s1.misses > s0.misses);
        // Counts agree (the equivalence property) but each report names the
        // path it was dispatched on.
        let ra = a.results[0].report.as_ref().unwrap();
        let rb = b.results[0].report.as_ref().unwrap();
        assert_eq!(ra.cost.fs.fs_cases, rb.cost.fs.fs_cases);
        assert_eq!(ra.cost.fs_path, FsPath::Symbolic);
        assert_eq!(rb.cost.fs_path, FsPath::Reference);
        assert_eq!(
            ra.to_json().get("fs_path").and_then(|v| v.as_str()),
            Some("symbolic")
        );
    }

    #[test]
    fn fs_path_names_the_engine_that_ran() {
        // Triangular inner bounds sit outside the symbolic fragment, and
        // @histogram is inside it but has no closed form, so the default
        // symbolic request runs both on the dense engine; @linreg gets the
        // closed form.
        let tri = "kernel tri {
  array A[32][32]: f64;
  parallel for i in 0..32 schedule(static, 2) {
    for j in 0..i + 1 {
      A[i][j] = 1.0;
    }
  }
}";
        let req = ServiceRequest {
            kernels: vec![
                KernelInput::inline("tri.loop", tri),
                KernelInput::named("@histogram"),
                KernelInput::named("@linreg"),
            ],
            ..ServiceRequest::default()
        };
        assert_eq!(req.options.path, FsPath::Symbolic);
        let resp = Service::new().handle(&req);
        let paths: Vec<String> = resp
            .results
            .iter()
            .map(|r| {
                let json = r.report.as_ref().expect("analyzed").to_json();
                json.get("fs_path")
                    .and_then(|v| v.as_str())
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(paths, ["optimized", "optimized", "symbolic"]);
    }

    #[test]
    fn parse_request_accepts_and_validates_path() {
        let v = json::parse(r#"{"kernels":["@histogram"],"path":"reference"}"#).unwrap();
        let p = parse_request(&v).unwrap();
        assert_eq!(p.request.options.path, FsPath::Reference);
        let v = json::parse(r#"{"kernels":["@histogram"]}"#).unwrap();
        let p = parse_request(&v).unwrap();
        assert_eq!(p.request.options.path, FsPath::Symbolic, "daemon default");
        let v = json::parse(r#"{"kernels":["@histogram"],"path":"quantum"}"#).unwrap();
        assert!(parse_request(&v).is_err());
    }

    #[test]
    fn unknown_machine_is_a_request_error() {
        let svc = Service::new();
        let mut req = histogram_request();
        req.machines = vec!["vax".to_string()];
        let resp = svc.handle(&req);
        assert!(resp.has_errors());
        assert!(resp.errors[0].contains("unknown machine 'vax'"));
        assert!(resp.results.is_empty());
        let doc = resp.envelope();
        let errs = doc.get("errors").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(errs.len(), 1);
    }

    #[test]
    fn per_kernel_errors_do_not_stop_the_batch() {
        let svc = Service::new();
        let req = ServiceRequest {
            kernels: vec![
                KernelInput::named("@nope"),
                KernelInput::inline("bad.loop", "kernel broken {"),
                KernelInput::named("@stencil"),
            ],
            ..ServiceRequest::default()
        };
        let resp = svc.handle(&req);
        assert!(resp.has_errors());
        assert!(resp.results[0]
            .error
            .as_deref()
            .unwrap()
            .contains("no bundled kernel '@nope'"));
        assert!(resp.results[1]
            .error
            .as_deref()
            .unwrap()
            .contains("parse error"));
        assert!(resp.results[2].report.is_some(), "good kernel still ran");
        assert_eq!(resp.all_errors().len(), 2);
    }

    #[test]
    fn streaming_callback_sees_every_kernel_in_order() {
        let svc = Service::new();
        let req = ServiceRequest {
            kernels: vec![
                KernelInput::named("@histogram"),
                KernelInput::named("@stencil"),
            ],
            ..ServiceRequest::default()
        };
        let mut seen = Vec::new();
        let mut cb = |r: &KernelResult| seen.push(r.file.clone());
        let resp = svc.handle_with(&req, Some(&mut cb));
        assert_eq!(seen, vec!["@histogram", "@stencil"]);
        assert_eq!(resp.results.len(), 2);
    }

    #[test]
    fn lint_only_requests_skip_the_cost_model() {
        let svc = Service::new();
        let mut req = histogram_request();
        req.options.analyze = false;
        let resp = svc.handle(&req);
        assert!(resp.results[0].report.is_none());
        assert!(resp.results[0].lint.is_some());
        assert_eq!(svc.cache().stats().misses, 0, "no cost-model points ran");
    }

    #[test]
    fn parse_request_round_trips_the_protocol() {
        let v = json::parse(
            r#"{"cmd":"analyze","kernels":[{"name":"@histogram"},"@stencil"],
                "machine":"tiny","threads":4,"grid":{"threads":[2,4],"chunks":[1,8]},
                "consts":{"N":64},"predict":16,"stream":true,"timing":true}"#,
        )
        .unwrap();
        let p = parse_request(&v).unwrap();
        assert_eq!(p.command, Command::Analyze);
        assert!(p.stream);
        assert_eq!(p.request.kernels.len(), 2);
        assert_eq!(p.request.kernels[1].name, "@stencil");
        assert_eq!(p.request.machines, vec!["tiny"]);
        assert_eq!(p.request.options.threads, 4);
        assert_eq!(p.request.options.predict, Some(16));
        assert_eq!(p.request.options.consts, vec![("N".to_string(), 64)]);
        assert!(p.request.options.timing);
        assert_eq!(p.request.grid, Some((vec![2, 4], vec![1, 8])));
    }

    #[test]
    fn parse_request_rejects_malformed_messages() {
        for bad in [
            r#"{"cmd":"frobnicate"}"#,
            r#"{"cmd":"analyze"}"#,
            r#"{"cmd":"analyze","kernels":[]}"#,
            r#"{"cmd":"analyze","kernels":[7]}"#,
            r#"{"cmd":"analyze","kernels":["@x"],"threads":"eight"}"#,
            r#"{"cmd":"analyze","kernels":["@x"],"grid":{"threads":[2]}}"#,
            r#"{"cmd":"analyze","kernels":["@x"],"consts":{"N":1.5}}"#,
        ] {
            let v = json::parse(bad).unwrap();
            assert!(parse_request(&v).is_err(), "should reject: {bad}");
        }
        // Control messages need no kernels.
        for ok in [r#"{"cmd":"ping"}"#, r#"{"cmd":"stats"}"#] {
            let v = json::parse(ok).unwrap();
            assert!(parse_request(&v).is_ok());
        }
    }

    #[test]
    fn lint_command_disables_analysis() {
        let v = json::parse(r#"{"cmd":"lint","kernels":["@histogram"]}"#).unwrap();
        let p = parse_request(&v).unwrap();
        assert_eq!(p.command, Command::Lint);
        assert!(!p.request.options.analyze);
        assert!(p.request.options.lint);
    }

    #[test]
    fn service_cache_budget_bounds_resident_bytes() {
        let svc = Service::with_budget(Some(4096));
        let req = ServiceRequest {
            kernels: vec![
                KernelInput::named("@histogram"),
                KernelInput::named("@stencil"),
                KernelInput::named("@transpose"),
            ],
            ..ServiceRequest::default()
        };
        svc.handle(&req);
        let stats = svc.cache().stats();
        assert!(stats.bytes <= 4096, "resident {} > budget", stats.bytes);
        assert!(stats.evictions > 0 || stats.entries <= 6);
    }

    #[test]
    fn envelope_is_deterministic_without_timing() {
        let svc = Service::new();
        let mut req = histogram_request();
        req.grid = Some((vec![2, 4], vec![1, 4]));
        // First request warms the cache; after that, identical requests
        // produce byte-identical envelopes (the memo hit/miss deltas in
        // `sweep_grid` stabilize once no point needs computing).
        svc.handle(&req);
        let a = svc.handle(&req).envelope().render();
        let b = svc.handle(&req).envelope().render();
        assert_eq!(a, b, "warm envelopes are byte-identical");
        assert!(!a.contains("sweep_stats"));
        req.options.timing = true;
        assert!(svc
            .handle(&req)
            .envelope()
            .render()
            .contains("\"sweep_stats\""));
    }
}
