//! Symbolic FS-path benchmark: the closed-form `FsPath::Symbolic` engine vs
//! the dense `FsPath::Optimized` walk it short-circuits, on loops deep
//! inside the decidable affine fragment.
//!
//! Three gates, all required for exit 0:
//!
//! 1. **Fallback rate**: the symbolic path must decline no bundled corpus
//!    kernel — `fs.symbolic_fallbacks` must not move — and the symbolic
//!    counts must equal the dense counts exactly. Per kernel the bench
//!    reports which engine answered the symbolic request (the closed
//!    form, or the dense walk: runs without a closed form finish on it)
//!    and the symbolic and dense times.
//! 2. **Speedup**: on large in-fragment kernels (many outer iterations, so
//!    the dense walk replays millions of steps while the symbolic path
//!    verifies one steady-state window and extrapolates), the aggregate
//!    per-point speedup must reach `FS_SYMBOLIC_MIN_SPEEDUP` (default 50x).
//! 3. **Never slower than dense**: on every corpus kernel and every paper
//!    Tables I–VI kernel (`fs_bench::scale` heat, dft and linreg at both
//!    chunks, at 8, 16 and 48 threads), the symbolic time must stay within
//!    [`DENSE_BAND`] of the dense time (min of [`REPEAT`] interleaved runs
//!    each).
//!
//! Prints per-point timings and writes `BENCH_symbolic.json` (uploaded as a
//! CI artifact next to the other bench artifacts).

use cost_model::{run_fs_model_prepared, FsModelConfig, FsPath};
use fs_bench::scale;
use fs_core::{machines, JsonValue};
use std::process::ExitCode;
use std::time::Instant;

/// Required aggregate speedup of the symbolic path over the dense path,
/// overridable via the `FS_SYMBOLIC_MIN_SPEEDUP` environment variable.
const GATE: f64 = 50.0;
/// Gate 3: symbolic time at most this multiple of the dense time.
const DENSE_BAND: f64 = 1.15;
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
    threads: u32,
    /// The engine that answered the symbolic request.
    engine: FsPath,
    fs_cases: u64,
    symbolic_s: f64,
    dense_s: f64,
}

impl PointResult {
    fn ratio(&self) -> f64 {
        self.symbolic_s / self.dense_s.max(1e-12)
    }
}

fn points_json(results: &[PointResult]) -> JsonValue {
    JsonValue::Arr(
        results
            .iter()
            .map(|r| {
                JsonValue::obj()
                    .field("kernel", r.name.as_str())
                    .field("threads", r.threads)
                    .field("engine", r.engine.as_str())
                    .field("fs_cases", r.fs_cases)
                    .field("symbolic_seconds", r.symbolic_s)
                    .field("dense_seconds", r.dense_s)
                    .field("symbolic_over_dense", r.ratio())
            })
            .collect(),
    )
}

/// Both paths on `p`: min-of-`reps` symbolic and min-of-`dense_reps` dense
/// times, interleaved in alternating order so load drift on the host hits
/// both alike, plus the symbolic declines (`fs.symbolic_fallbacks`; the obs
/// counters are process-global) and the engine that answered the symbolic
/// request: the closed form, the dense tables, or the reference machine.
/// Errors if the two paths' counts differ.
fn time_both(
    p: &Point,
    cfg: &FsModelConfig,
    reps: u32,
    dense_reps: u32,
) -> Result<(PointResult, u64), String> {
    use fs_obs::counters::{FS_DISPATCH_DENSE, FS_DISPATCH_SYMBOLIC, FS_SYMBOLIC_FALLBACKS};
    let (fallbacks, symbolic, dense) = (
        FS_SYMBOLIC_FALLBACKS.get(),
        FS_DISPATCH_SYMBOLIC.get(),
        FS_DISPATCH_DENSE.get(),
    );
    let (mut symbolic_s, mut dense_s) = (f64::INFINITY, f64::INFINITY);
    let (mut sym_cases, mut dense_cases) = (0, 0);
    for rep in 0..reps.max(dense_reps) {
        // Alternate which path goes first, so neither always runs warm.
        let order = if rep % 2 == 0 {
            [FsPath::Symbolic, FsPath::Optimized]
        } else {
            [FsPath::Optimized, FsPath::Symbolic]
        };
        for path in order {
            if path == FsPath::Symbolic && rep < reps {
                let (secs, cases) = time_path(p, cfg, path);
                symbolic_s = symbolic_s.min(secs);
                sym_cases = cases;
            } else if path == FsPath::Optimized && rep < dense_reps {
                let (secs, cases) = time_path(p, cfg, path);
                dense_s = dense_s.min(secs);
                dense_cases = cases;
            }
        }
    }
    let engine = if FS_DISPATCH_SYMBOLIC.get() > symbolic {
        FsPath::Symbolic
    } else if FS_DISPATCH_DENSE.get() > dense + u64::from(dense_reps) {
        FsPath::Optimized
    } else {
        FsPath::Reference
    };
    if dense_cases != sym_cases {
        return Err(format!(
            "{} diverges: symbolic {sym_cases} vs dense {dense_cases}",
            p.name
        ));
    }
    let result = PointResult {
        name: p.name.clone(),
        threads: cfg.num_threads,
        engine,
        fs_cases: sym_cases,
        symbolic_s,
        dense_s,
    };
    Ok((result, FS_SYMBOLIC_FALLBACKS.get() - fallbacks))
}

/// Wall time and FS cases of one full FS-model evaluation on `path`.
fn time_path(p: &Point, cfg: &FsModelConfig, path: FsPath) -> (f64, u64) {
    let mut cfg = cfg.clone();
    cfg.path = path;
    let t0 = Instant::now();
    let r = run_fs_model_prepared(&p.kernel, &cfg, &p.plan, &p.bases);
    let secs = t0.elapsed().as_secs_f64();
    (secs, std::hint::black_box(r.fs_cases))
}

/// Gate 3 on one point: prints the ratio and whether it is in the band.
fn within_band(r: &PointResult) -> bool {
    let ok = r.ratio() <= DENSE_BAND;
    if !ok {
        eprintln!(
            "symbolic_bench: {} at {} threads: symbolic {:.3} ms is {:.2}x dense {:.3} ms \
             (band {DENSE_BAND}x)",
            r.name,
            r.threads,
            r.symbolic_s * 1e3,
            r.ratio(),
            r.dense_s * 1e3
        );
    }
    ok
}

fn main() -> ExitCode {
    fs_obs::configure(fs_obs::ObsConfig::enabled());
    let machine = machines::paper48();
    let threads = 8u32;
    let ls = machine.line_size();
    let cfg = FsModelConfig::for_machine(&machine, threads);
    let gate = gate();

    // -- Gate 1: zero symbolic fallbacks over the bundled corpus ----------
    let corpus = ["dft", "heat", "histogram", "linreg", "matmul", "stencil"];
    println!("## symbolic fallback rate: bundled corpus ({threads} threads, {REPEAT} reps)");
    let mut corpus_ok = true;
    let mut band_ok = true;
    let mut corpus_results: Vec<PointResult> = Vec::new();
    for name in corpus {
        let kernel = fs_core::corpus_kernel(name).expect("bundled kernel");
        let p = Point::new(name, kernel, ls);
        let (r, fell) = match time_both(&p, &cfg, REPEAT, REPEAT) {
            Ok(timed) => timed,
            Err(e) => {
                eprintln!("symbolic_bench: {e}");
                corpus_ok = false;
                continue;
            }
        };
        println!(
            "{name:<12} engine {:<9}  symbolic {:>8.3} ms  dense {:>8.3} ms ({:.2}x)  \
             cases {:>8}  fallbacks {fell}",
            r.engine.as_str(),
            r.symbolic_s * 1e3,
            r.dense_s * 1e3,
            r.ratio(),
            r.fs_cases,
        );
        if fell > 0 {
            eprintln!("symbolic_bench: {name} fell off the symbolic path");
            corpus_ok = false;
        }
        band_ok &= within_band(&r);
        corpus_results.push(r);
    }

    // -- Gate 3: never slower than dense on the paper-table kernels -------
    println!("## symbolic vs dense: Tables I-VI kernels, {REPEAT} reps");
    let mut table_results: Vec<PointResult> = Vec::new();
    type Family = (&'static str, fn(u64, u32) -> loop_ir::Kernel, (u64, u64));
    let families: [Family; 3] = [
        ("heat", scale::heat, scale::HEAT_CHUNKS),
        ("dft", scale::dft, scale::DFT_CHUNKS),
        ("linreg", scale::linreg, scale::LINREG_CHUNKS),
    ];
    for t in [8u32, 16, 48] {
        let cfg = FsModelConfig::for_machine(&machine, t);
        for (family, build, (c1, c2)) in families {
            for chunk in [c1, c2] {
                let p = Point::new(format!("{family}_c{chunk}"), build(chunk, t), ls);
                let r = match time_both(&p, &cfg, REPEAT, REPEAT) {
                    Ok((r, _)) => r,
                    Err(e) => {
                        eprintln!("symbolic_bench: {e}");
                        band_ok = false;
                        continue;
                    }
                };
                println!(
                    "{:<12} t{t:<3} engine {:<9}  symbolic {:>8.3} ms  dense {:>8.3} ms ({:.2}x)",
                    r.name,
                    r.engine.as_str(),
                    r.symbolic_s * 1e3,
                    r.dense_s * 1e3,
                    r.ratio(),
                );
                band_ok &= within_band(&r);
                table_results.push(r);
            }
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
        // The dense side of these points runs once: at tens of seconds per
        // point the measurement self-averages, and repeating it would
        // triple the bench's wall time for no precision gain.
        let (r, fell) = match time_both(p, &cfg, REPEAT, 1) {
            Ok(timed) => timed,
            Err(e) => {
                eprintln!("symbolic_bench: {e}");
                speed_ok = false;
                continue;
            }
        };
        if fell > 0 {
            eprintln!("symbolic_bench: {} fell off the symbolic path", p.name);
            speed_ok = false;
        }
        println!(
            "{:<16} engine {:<9} symbolic {:>9.3} ms, dense {:>9.3} ms ({:>7.0}x), {} cases",
            p.name,
            r.engine.as_str(),
            r.symbolic_s * 1e3,
            r.dense_s * 1e3,
            r.dense_s / r.symbolic_s.max(1e-12),
            r.fs_cases
        );
        results.push(r);
    }

    let sym_total: f64 = results.iter().map(|r| r.symbolic_s).sum();
    let dense_total: f64 = results.iter().map(|r| r.dense_s).sum();
    let speedup = dense_total / sym_total.max(1e-12);
    let worst_ratio = corpus_results
        .iter()
        .chain(&table_results)
        .map(PointResult::ratio)
        .fold(0.0, f64::max);
    let pass = corpus_ok && speed_ok && band_ok && speedup >= gate;
    println!(
        "aggregate: symbolic {:.3} ms, dense {:.3} ms, speedup {speedup:.0}x \
         (gate {gate:.0}x), corpus fallbacks {}, worst symbolic/dense {worst_ratio:.2}x \
         (band {DENSE_BAND}x): {}",
        sym_total * 1e3,
        dense_total * 1e3,
        if corpus_ok { "none" } else { "PRESENT" },
        if pass { "PASS" } else { "FAIL" }
    );

    results.extend(table_results);
    let doc = JsonValue::obj()
        .field("benchmark", "symbolic")
        .field("threads", threads)
        .field("repeat", REPEAT)
        .field("corpus", points_json(&corpus_results))
        .field("points", points_json(&results))
        .field("corpus_zero_fallbacks", corpus_ok)
        .field("speedup", speedup)
        .field("gate", gate)
        .field("dense_band", DENSE_BAND)
        .field("worst_symbolic_over_dense", worst_ratio)
        .field("within_dense_band", band_ok)
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
