//! Symbolic FS-path benchmark: the closed-form `FsPath::Symbolic` engine vs
//! the dense `FsPath::Optimized` walk it short-circuits, on loops deep
//! inside the decidable affine fragment.
//!
//! Two gates, both required for exit 0:
//!
//! 1. **Fallback rate**: the symbolic path must decline no bundled corpus
//!    kernel — `fs.symbolic_fallbacks` must not move — the symbolic counts
//!    must equal the dense counts exactly, and
//!    [`cost_model::capacity_prediction`] must predict its capacity misses
//!    (the reuse-distance analysis covers the same corpus). Per kernel the
//!    bench reports which engine answered the symbolic request (the closed
//!    form, or the dense walk the symbolic engine hands small and
//!    period-free runs to) and the symbolic and dense times.
//! 2. **Speedup**: on large in-fragment kernels (many outer iterations, so
//!    the dense walk replays millions of steps while the symbolic path
//!    verifies one steady-state window and extrapolates), the aggregate
//!    per-point speedup must reach `FS_SYMBOLIC_MIN_SPEEDUP` (default 50x).
//!
//! Prints per-point timings and writes `BENCH_symbolic.json` (uploaded as a
//! CI artifact next to the other bench artifacts).

use cost_model::{
    capacity_prediction, run_fs_model_prepared, CacheGeometry, FsModelConfig, FsPath,
};
use fs_core::{machines, JsonValue};
use std::process::ExitCode;
use std::time::Instant;

/// Required aggregate speedup of the symbolic path over the dense path,
/// overridable via the `FS_SYMBOLIC_MIN_SPEEDUP` environment variable.
const GATE: f64 = 50.0;
const REPEAT: u32 = 3;
const JSON_PATH: &str = "BENCH_symbolic.json";

fn gate() -> f64 {
    std::env::var("FS_SYMBOLIC_MIN_SPEEDUP")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(GATE)
}

struct Point {
    name: String,
    kernel: loop_ir::Kernel,
    plan: loop_ir::AccessPlan,
    bases: Vec<u64>,
}

impl Point {
    fn new(name: impl Into<String>, kernel: loop_ir::Kernel, line_size: u64) -> Self {
        let plan = kernel.access_plan();
        let bases = kernel.array_bases(line_size);
        Point {
            name: name.into(),
            kernel,
            plan,
            bases,
        }
    }
}

struct PointResult {
    name: String,
    /// The engine that answered the symbolic request.
    engine: FsPath,
    fs_cases: u64,
    symbolic_s: f64,
    dense_s: f64,
}

fn points_json(results: &[PointResult]) -> JsonValue {
    JsonValue::Arr(
        results
            .iter()
            .map(|r| {
                JsonValue::obj()
                    .field("kernel", r.name.as_str())
                    .field("engine", r.engine.as_str())
                    .field("fs_cases", r.fs_cases)
                    .field("symbolic_seconds", r.symbolic_s)
                    .field("dense_seconds", r.dense_s)
            })
            .collect(),
    )
}

/// [`time_path`] on [`FsPath::Symbolic`], also returning the declines it
/// counted (`fs.symbolic_fallbacks`; the obs counters are process-global)
/// and the engine that answered: the closed form, the dense walk, or the
/// reference machine.
fn time_symbolic(p: &Point, cfg: &FsModelConfig, reps: u32) -> (f64, u64, u64, FsPath) {
    use fs_obs::counters::{FS_DISPATCH_DENSE, FS_DISPATCH_SYMBOLIC, FS_SYMBOLIC_FALLBACKS};
    let (fallbacks, symbolic, dense) = (
        FS_SYMBOLIC_FALLBACKS.get(),
        FS_DISPATCH_SYMBOLIC.get(),
        FS_DISPATCH_DENSE.get(),
    );
    let (secs, cases) = time_path(p, cfg, FsPath::Symbolic, reps);
    let engine = if FS_DISPATCH_SYMBOLIC.get() > symbolic {
        FsPath::Symbolic
    } else if FS_DISPATCH_DENSE.get() > dense {
        FsPath::Optimized
    } else {
        FsPath::Reference
    };
    (secs, cases, FS_SYMBOLIC_FALLBACKS.get() - fallbacks, engine)
}

/// Min-of-`reps` wall time of one full FS-model evaluation on `path`.
///
/// The symbolic side is timed min-of-[`REPEAT`] because it is milliseconds
/// long and noise-sensitive; the dense side of the big speedup points runs
/// once — at tens of seconds per point the measurement self-averages, and
/// repeating it would triple the bench's wall time for no precision gain.
fn time_path(p: &Point, cfg: &FsModelConfig, path: FsPath, reps: u32) -> (f64, u64) {
    let mut cfg = cfg.clone();
    cfg.path = path;
    let mut min = f64::INFINITY;
    let mut cases = 0;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = run_fs_model_prepared(&p.kernel, &cfg, &p.plan, &p.bases);
        min = min.min(t0.elapsed().as_secs_f64());
        cases = r.fs_cases;
    }
    std::hint::black_box(cases);
    (min, cases)
}

fn main() -> ExitCode {
    fs_obs::configure(fs_obs::ObsConfig::enabled());
    let machine = machines::paper48();
    let threads = 8u32;
    let ls = machine.line_size();
    let cfg = FsModelConfig::for_machine(&machine, threads);
    let geometry = CacheGeometry::for_machine(&machine);
    let gate = gate();

    // -- Gate 1: zero symbolic fallbacks over the bundled corpus ----------
    let corpus = ["dft", "heat", "histogram", "linreg", "matmul", "stencil"];
    println!("## symbolic fallback rate: bundled corpus ({threads} threads, {REPEAT} reps)");
    let mut corpus_ok = true;
    let mut corpus_results: Vec<PointResult> = Vec::new();
    for name in corpus {
        let kernel = fs_core::corpus_kernel(name).expect("bundled kernel");
        let p = Point::new(name, kernel, ls);
        let (sym_s, sym_cases, fell, engine) = time_symbolic(&p, &cfg, REPEAT);
        let (dense_s, dense_cases) = time_path(&p, &cfg, FsPath::Optimized, REPEAT);
        let exact = sym_cases == dense_cases;
        let capacity = capacity_prediction(&p.kernel, &cfg, &geometry, &p.plan, &p.bases);
        let predicted = capacity.is_some();
        println!(
            "{name:<12} engine {:<9}  symbolic {:>8.3} ms  dense {:>8.3} ms  \
             cases {sym_cases:>8}  fallbacks {fell}  exact {exact}  capacity {predicted}",
            engine.as_str(),
            sym_s * 1e3,
            dense_s * 1e3,
        );
        corpus_results.push(PointResult {
            name: name.to_string(),
            engine,
            fs_cases: sym_cases,
            symbolic_s: sym_s,
            dense_s,
        });
        if fell > 0 || !exact || !predicted {
            eprintln!(
                "symbolic_bench: {name} fell off the symbolic path, diverged, \
                 or has no capacity prediction"
            );
            corpus_ok = false;
        }
    }

    // -- Gate 2: per-point speedup on large in-fragment kernels -----------
    // Many outer iterations: the dense path replays every chunk run, the
    // symbolic path verifies one steady-state window and extrapolates the
    // rest in closed form, so the gap grows with the outer trip count.
    let points = vec![
        Point::new(
            "heat_32768x514",
            loop_ir::kernels::heat_diffusion(32768, 514, 1),
            ls,
        ),
        Point::new(
            "linreg_1048576x16",
            loop_ir::kernels::linear_regression(1 << 20, 16, 1),
            ls,
        ),
        Point::new(
            "matmul_262144",
            loop_ir::kernels::matmul(262144, 16, 8, 1),
            ls,
        ),
    ];

    println!(
        "## symbolic vs dense: {} large points, {REPEAT} reps",
        points.len()
    );
    let mut results: Vec<PointResult> = Vec::new();
    let mut speed_ok = true;
    for p in &points {
        let (sym_s, sym_cases, fell, engine) = time_symbolic(p, &cfg, REPEAT);
        let (dense_s, dense_cases) = time_path(p, &cfg, FsPath::Optimized, 1);
        if fell > 0 {
            eprintln!("symbolic_bench: {} fell off the symbolic path", p.name);
            speed_ok = false;
        }
        if sym_cases != dense_cases {
            eprintln!(
                "symbolic_bench: {} diverges: symbolic {sym_cases} vs dense {dense_cases}",
                p.name
            );
            speed_ok = false;
        }
        println!(
            "{:<16} symbolic {:>9.3} ms, dense {:>9.3} ms ({:>7.0}x), {} cases",
            p.name,
            sym_s * 1e3,
            dense_s * 1e3,
            dense_s / sym_s.max(1e-12),
            sym_cases
        );
        results.push(PointResult {
            name: p.name.clone(),
            engine,
            fs_cases: sym_cases,
            symbolic_s: sym_s,
            dense_s,
        });
    }

    let sym_total: f64 = results.iter().map(|r| r.symbolic_s).sum();
    let dense_total: f64 = results.iter().map(|r| r.dense_s).sum();
    let speedup = dense_total / sym_total.max(1e-12);
    let pass = corpus_ok && speed_ok && speedup >= gate;
    println!(
        "aggregate: symbolic {:.3} ms, dense {:.3} ms, speedup {speedup:.0}x \
         (gate {gate:.0}x), corpus fallbacks {}: {}",
        sym_total * 1e3,
        dense_total * 1e3,
        if corpus_ok { "none" } else { "PRESENT" },
        if pass { "PASS" } else { "FAIL" }
    );

    let doc = JsonValue::obj()
        .field("benchmark", "symbolic")
        .field("threads", threads)
        .field("repeat", REPEAT)
        .field("corpus", points_json(&corpus_results))
        .field("points", points_json(&results))
        .field("corpus_zero_fallbacks", corpus_ok)
        .field("speedup", speedup)
        .field("gate", gate)
        .field("pass", pass);
    if let Err(e) = std::fs::write(JSON_PATH, doc.render_pretty()) {
        eprintln!("symbolic_bench: cannot write {JSON_PATH}: {e}");
    }

    if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
