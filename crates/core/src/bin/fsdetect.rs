//! `fsdetect` — analyze a kernel written in the loop DSL for false sharing.
//!
//! ```text
//! fsdetect <kernel.loop | @bundled-name> [--threads N]
//!          [--machine paper48|generic|tiny] [--predict RUNS]
//!          [--format json|sarif|human] [--json]
//!          [--advise] [--eliminate] [--sim] [--contention] [--baseline]
//!          [--sweep] [--sweep-grid THREADS:CHUNKS] [--workers N]
//!          [--early-exit] [--const NAME=VALUE ...] [--list]
//!          [--profile] [--trace-out FILE] [--quiet] [--verbose]
//! ```
//!
//! Prints the Eq. 1 cost breakdown, the FS case count, victim arrays, and
//! (with `--advise`) a chunk-size recommendation. `--eliminate` runs the
//! cost-model-driven mitigation search (padding vs rescheduling) and prints
//! the transformed kernel. `--sim` replays the kernel through the MESI
//! coherence simulator; `--contention` prints the shared-cache and
//! memory-bus interference estimates. `@name` loads a bundled corpus
//! kernel (`--list` shows them).
//!
//! `--sweep-grid 2,4,8:1,4,16` evaluates the kernel over a threads × chunks
//! grid on the parallel memoized sweep engine (`--workers` sets the pool
//! size; `--early-exit` switches the per-point FS model to the adaptive
//! predictor). `--format json` (or `--json`) emits the versioned
//! `fsd_version` envelope — the same document `fslint --format json` and
//! the `fsd` daemon produce (see `docs/DAEMON.md`); `--format sarif` emits
//! the lint results as SARIF 2.1.0.
//!
//! This binary is a veneer: every analysis step runs through
//! [`fs_core::service`], the same layer the daemon serves over a socket.
//! Argument parsing, exit codes, and stderr diagnostics live here; nothing
//! else does.
//!
//! Observability (see `docs/OBSERVABILITY.md`): `--profile` prints a span
//! and counter summary to stderr, `--trace-out FILE` writes a Chrome
//! trace-event JSON loadable in `chrome://tracing`/Perfetto, and `--json`
//! carries a `metrics` section (counters, gauges, span aggregates). The
//! *result* always goes to stdout; every diagnostic — usage, warnings,
//! verbose notes, the profile — goes to stderr, so `--json` output can be
//! piped without filtering. `--verbose` adds progress notes; `--quiet`
//! suppresses everything on stderr except errors.

use fs_core::service::{self, KernelInput, Service, ServiceOptions, ServiceRequest};
use fs_core::{extras, obs};
use std::process::ExitCode;

/// Stderr diagnostics policy: errors always print; `note` prints unless
/// `--quiet`; `detail` prints only with `--verbose`.
#[derive(Clone, Copy)]
struct Diag {
    quiet: bool,
    verbose: bool,
}

impl Diag {
    fn note(&self, msg: &str) {
        if !self.quiet {
            eprintln!("fsdetect: {msg}");
        }
    }

    fn detail(&self, msg: &str) {
        if self.verbose && !self.quiet {
            eprintln!("fsdetect: {msg}");
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Human,
    Json,
    Sarif,
}

struct Args {
    path: String,
    threads: u32,
    machine: String,
    predict: Option<u64>,
    advise: bool,
    eliminate: bool,
    sim: bool,
    contention: bool,
    baseline: bool,
    sweep: bool,
    sweep_grid: Option<(Vec<u32>, Vec<u64>)>,
    workers: Option<usize>,
    early_exit: bool,
    fs_path: fs_core::FsPath,
    format: Format,
    consts: Vec<(String, i64)>,
    profile: bool,
    trace_out: Option<String>,
    quiet: bool,
    verbose: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: fsdetect <kernel.loop | @bundled> [--threads N] [--machine paper48|generic|tiny]\n\
         \x20              [--predict RUNS] [--format json|sarif|human] [--json] [--advise]\n\
         \x20              [--eliminate] [--sim] [--contention] [--sweep]\n\
         \x20              [--sweep-grid THREADS:CHUNKS] [--workers N] [--early-exit]\n\
         \x20              [--path symbolic|optimized|reference]\n\
         \x20              [--const NAME=VALUE ...] [--list]\n\
         \x20              [--profile] [--trace-out FILE] [--quiet] [--verbose]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        path: String::new(),
        threads: 8,
        machine: "paper48".to_string(),
        predict: None,
        advise: false,
        eliminate: false,
        sim: false,
        contention: false,
        baseline: false,
        sweep: false,
        sweep_grid: None,
        workers: None,
        early_exit: false,
        fs_path: fs_core::FsPath::default(),
        format: Format::Human,
        consts: Vec::new(),
        profile: false,
        trace_out: None,
        quiet: false,
        verbose: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" => {
                args.threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--machine" => args.machine = it.next().unwrap_or_else(|| usage()),
            "--predict" => {
                args.predict = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--advise" => args.advise = true,
            "--eliminate" => args.eliminate = true,
            "--sim" => args.sim = true,
            "--contention" => args.contention = true,
            "--baseline" => args.baseline = true,
            "--sweep" => args.sweep = true,
            "--sweep-grid" => {
                let spec = it.next().unwrap_or_else(|| usage());
                args.sweep_grid = Some(service::parse_grid_spec(&spec).unwrap_or_else(|| usage()));
            }
            "--workers" => {
                args.workers = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--early-exit" => args.early_exit = true,
            "--path" => {
                args.fs_path = it
                    .next()
                    .as_deref()
                    .and_then(fs_core::FsPath::parse)
                    .unwrap_or_else(|| usage())
            }
            "--json" => args.format = Format::Json,
            "--format" => match it.next().as_deref() {
                Some("json") => args.format = Format::Json,
                Some("sarif") => args.format = Format::Sarif,
                Some("human") | Some("text") => args.format = Format::Human,
                _ => usage(),
            },
            "--profile" => args.profile = true,
            "--trace-out" => args.trace_out = Some(it.next().unwrap_or_else(|| usage())),
            "--quiet" | "-q" => args.quiet = true,
            "--verbose" | "-v" => args.verbose = true,
            "--list" => {
                for e in fs_core::CORPUS {
                    println!("@{:<12} {}", e.name, e.blurb);
                }
                std::process::exit(0);
            }
            "--const" => {
                let kv = it.next().unwrap_or_else(|| usage());
                let Some((name, value)) = kv.split_once('=') else {
                    usage()
                };
                let Ok(value) = value.parse::<i64>() else {
                    usage()
                };
                args.consts.push((name.to_string(), value));
            }
            "--help" | "-h" => usage(),
            other
                if args.path.is_empty() && (!other.starts_with('-') || other.starts_with('@')) =>
            {
                args.path = other.to_string()
            }
            _ => usage(),
        }
    }
    if args.path.is_empty() {
        usage();
    }
    args
}

/// Drop-the-span-then-snapshot finalization shared by the JSON and text
/// paths: write the Chrome trace (if requested) and print the profile.
/// Returns false when the trace file could not be written.
fn finalize_obs(
    args: &Args,
    diag: &Diag,
    snap: &obs::Snapshot,
    grid_result: Option<&fs_core::SweepGridResult>,
) -> bool {
    if let Some(path) = &args.trace_out {
        let trace = obs::trace::chrome_trace(snap);
        match std::fs::write(path, trace) {
            Ok(()) => {
                diag.detail(&format!(
                    "trace written to {path} ({} spans, {:.1}% coverage)",
                    snap.spans.len(),
                    service::span_coverage(snap) * 100.0
                ));
            }
            Err(e) => {
                eprintln!("fsdetect: cannot write trace {path}: {e}");
                return false;
            }
        }
    }
    if args.profile {
        eprint!("{}", extras::profile_text(snap, grid_result));
    }
    true
}

fn main() -> ExitCode {
    let args = parse_args();
    let diag = Diag {
        quiet: args.quiet,
        verbose: args.verbose,
    };
    // Observability stays a no-op unless an export was requested (`--json`
    // carries the metrics section, so it counts as a request).
    let obs_on = args.profile || args.trace_out.is_some() || args.format == Format::Json;
    if obs_on {
        obs::configure(obs::ObsConfig::enabled());
    }
    // Top-level span: everything from parsing to the last model run is
    // inside it, so trace coverage of the wall interval stays >= 95%.
    let mut main_span = Some(obs::span("fsdetect.main"));

    if args.early_exit && args.predict.is_some() && args.sweep_grid.is_some() {
        diag.note("--early-exit overrides --predict for the sweep grid");
    }

    let request = ServiceRequest {
        kernels: vec![KernelInput::named(&args.path)],
        machines: vec![args.machine.clone()],
        grid: args.sweep_grid.clone(),
        options: ServiceOptions {
            threads: args.threads,
            predict: args.predict,
            early_exit: args.early_exit,
            workers: args.workers,
            analyze: true,
            lint: true,
            timing: true,
            consts: args.consts.clone(),
            path: args.fs_path,
        },
    };
    let svc = Service::new();
    let resp = svc.handle(&request);

    // Request-level failures (unknown machine, invalid sweep grid) and the
    // single kernel's own failure both abort before any output.
    for e in &resp.errors {
        eprintln!("fsdetect: {e}");
    }
    if let Some(e) = resp.results.first().and_then(|r| r.error.as_deref()) {
        eprintln!("fsdetect: {e}");
    }
    if resp.has_errors() {
        return ExitCode::FAILURE;
    }
    let result = &resp.results[0];
    let kernel = result.kernel.as_ref().expect("no error implies a kernel");
    let report = result.report.as_ref().expect("analyze requested");

    diag.detail(&format!(
        "parsed kernel '{}' ({} arrays), machine {}, {} threads",
        kernel.name,
        kernel.arrays.len(),
        args.machine,
        args.threads
    ));
    diag.detail(&format!(
        "analysis: {} FS cases, {:.1}% of modeled cycles",
        report.cost.fs.fs_cases,
        report.fs_percent()
    ));
    if let Some(r) = &resp.sweep {
        diag.detail(&format!(
            "sweep grid: {} points in {:.1} ms ({} memo hits)",
            r.outcomes.len(),
            r.stats.wall_ns as f64 / 1e6,
            r.memo_hits
        ));
    }

    let exit = if resp.has_significant_fs() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    };

    match args.format {
        Format::Json => {
            // Close the top-level span before snapshotting so the metrics
            // and trace cover the whole run.
            drop(main_span.take());
            let snap = obs::snapshot();
            let doc = resp
                .envelope()
                .field("metrics", service::metrics_json(&snap));
            print!("{}", doc.render_pretty());
            if !finalize_obs(&args, &diag, &snap, resp.sweep.as_ref()) {
                return ExitCode::FAILURE;
            }
            return exit;
        }
        Format::Sarif => {
            print!("{}", resp.sarif().render_pretty());
            return exit;
        }
        Format::Human => {}
    }

    print!("{}", report.render());
    let machine = service::machine_by_name(&args.machine).expect("machine resolved by service");
    if let Some(r) = &resp.sweep {
        print!("{}", extras::grid_section(r));
    }
    if args.sim {
        print!("{}", extras::sim_section(kernel, &machine, args.threads));
    }
    if args.advise {
        print!(
            "{}",
            extras::advice_section(kernel, &machine, args.threads, args.predict)
        );
    }
    if args.baseline {
        print!(
            "{}",
            extras::baseline_section(kernel, &machine, args.threads)
        );
    }
    if args.contention {
        print!(
            "{}",
            extras::contention_section(kernel, &machine, args.threads)
        );
    }
    if args.sweep {
        print!(
            "{}",
            extras::sweeps_section(kernel, &machine, args.threads, args.predict)
        );
    }
    if args.eliminate {
        print!(
            "{}",
            extras::eliminate_section(kernel, &machine, args.threads, args.predict)
        );
    }

    if obs_on {
        drop(main_span.take());
        let snap = obs::snapshot();
        if !finalize_obs(&args, &diag, &snap, resp.sweep.as_ref()) {
            return ExitCode::FAILURE;
        }
    }
    exit
}
