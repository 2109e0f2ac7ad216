//! `fsd` — the false-sharing analysis daemon.
//!
//! ```text
//! fsd [--socket PATH] [--http HOST:PORT] [--cache-budget BYTES[k|m|g]]
//!     [--trace] [--ring N] [--quiet]
//! ```
//!
//! Starts a long-running server over [`fs_core::service`]: newline-
//! delimited JSON requests on a Unix socket (default `fsd.sock`), with an
//! optional minimal HTTP/1.1 fallback. Every client shares one sharded,
//! LRU-bounded analysis cache, so repeated and overlapping requests hit
//! memoized cost-model state instead of recomputing it (perfbench's
//! `svc_warm` workload measures the warm path). Protocol and examples: `docs/DAEMON.md`.
//!
//! Observability defaults to counters-only ([`obs::ObsConfig`]): counters,
//! gauges, and latency histograms are fixed-size cumulative atomics, safe
//! to leave on forever. `--trace` additionally records spans into a
//! bounded ring buffer of the newest `--ring N` events (default 4096), so
//! tracing is also always-on safe: memory stays bounded no matter how many
//! requests the daemon serves.
//!
//! Unless `--quiet`, every request writes one NDJSON access-log record to
//! stderr (request id, command, kernel count, cache delta, wall ns,
//! outcome).
//!
//! Exit codes: 0 after a clean `shutdown` command, 2 on usage or bind
//! errors.

use fs_daemon::{bind_unix, Daemon};
use fs_obs as obs;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::thread;

/// `--trace` ring capacity when `--ring` is not given.
const DEFAULT_TRACE_RING: usize = 4096;

struct Args {
    socket: PathBuf,
    http: Option<String>,
    cache_budget: Option<u64>,
    trace: bool,
    ring: usize,
    quiet: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: fsd [--socket PATH] [--http HOST:PORT] [--cache-budget BYTES[k|m|g]]\n\
         \x20          [--trace] [--ring N] [--quiet]"
    );
    std::process::exit(2);
}

/// `"64m"` -> 67108864. Bare numbers are bytes.
fn parse_bytes(s: &str) -> Option<u64> {
    let (digits, mult) = match s.as_bytes().last()? {
        b'k' | b'K' => (&s[..s.len() - 1], 1u64 << 10),
        b'm' | b'M' => (&s[..s.len() - 1], 1u64 << 20),
        b'g' | b'G' => (&s[..s.len() - 1], 1u64 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok()?.checked_mul(mult)
}

fn parse_args() -> Args {
    let mut args = Args {
        socket: PathBuf::from("fsd.sock"),
        http: None,
        cache_budget: None,
        trace: false,
        ring: DEFAULT_TRACE_RING,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => args.socket = PathBuf::from(it.next().unwrap_or_else(|| usage())),
            "--http" => args.http = Some(it.next().unwrap_or_else(|| usage())),
            "--cache-budget" => {
                let v = it.next().unwrap_or_else(|| usage());
                args.cache_budget = Some(parse_bytes(&v).unwrap_or_else(|| usage()));
            }
            "--trace" => args.trace = true,
            "--ring" => {
                let v = it.next().unwrap_or_else(|| usage());
                args.ring = v.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| usage());
            }
            "--quiet" | "-q" => args.quiet = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    obs::configure(if args.trace {
        // Spans in a bounded ring: always-on tracing with bounded memory.
        obs::ObsConfig::ring(args.ring)
    } else {
        obs::ObsConfig {
            spans: false,
            counters: true,
            ring: None,
        }
    });

    let listener = match bind_unix(&args.socket) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("fsd: cannot bind {}: {e}", args.socket.display());
            return ExitCode::from(2);
        }
    };
    let daemon = Arc::new(Daemon::new(args.cache_budget));
    daemon.set_access_log(!args.quiet);
    if !args.quiet {
        eprintln!("fsd: listening on {}", args.socket.display());
    }

    let mut http_thread = None;
    if let Some(addr) = &args.http {
        match TcpListener::bind(addr) {
            Ok(l) => {
                if !args.quiet {
                    eprintln!(
                        "fsd: http fallback on {}",
                        l.local_addr()
                            .map(|a| a.to_string())
                            .unwrap_or_else(|_| addr.clone())
                    );
                }
                let d = Arc::clone(&daemon);
                http_thread = Some(thread::spawn(move || d.serve_http(l)));
            }
            Err(e) => {
                eprintln!("fsd: cannot bind http {addr}: {e}");
                let _ = std::fs::remove_file(&args.socket);
                return ExitCode::from(2);
            }
        }
    }

    let served = daemon.serve_unix(listener);
    let _ = std::fs::remove_file(&args.socket);
    if let Some(h) = http_thread {
        let _ = h.join();
    }
    match served {
        Ok(()) => {
            if !args.quiet {
                eprintln!("fsd: shutdown");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fsd: accept failed: {e}");
            ExitCode::from(2)
        }
    }
}
