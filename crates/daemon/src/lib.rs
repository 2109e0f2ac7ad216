//! `fsd` server internals — the long-running analysis daemon over
//! [`fs_core::service`].
//!
//! The daemon owns one [`Service`] (and therefore one shared, sharded,
//! byte-budgeted [`fs_core::ServiceCache`]): every client that connects —
//! over the Unix socket or the HTTP fallback — analyzes against the same
//! memo, so a grid one editor sweeps warms the single-kernel queries the
//! next client sends. The protocol is newline-delimited JSON: one request
//! object per line in, one or more response objects per line out, every
//! response stamped with `"fsd_version"`. See `docs/DAEMON.md`.
//!
//! The library half exists so the integration tests (`tests/daemon.rs`)
//! can run a real server on an in-test socket without forking the binary;
//! `src/main.rs` is flag parsing plus [`Daemon::serve_unix`] /
//! [`Daemon::serve_http`].
//!
//! ## Protocol summary
//!
//! Requests are parsed by [`fs_core::service::parse_request`] (`cmd`:
//! `analyze` | `lint` | `ping` | `stats` | `metrics` | `shutdown`).
//! Responses:
//!
//! - `analyze`/`lint`, `"stream": false` — exactly the envelope that an
//!   in-process [`Service::handle`] + [`ServiceResponse::envelope`] call
//!   renders, compact, one line. Byte-identical by construction.
//! - `"stream": true` — one `{"fsd_version":1,"event":"result","result":
//!   {...}}` line per kernel as it completes, then the envelope minus the
//!   `reports` array as a final `"event":"done"` line.
//! - `ping` — `{"fsd_version":1,"event":"pong"}`.
//! - `stats` — cache occupancy, lifetime hit/miss/eviction tallies,
//!   uptime, per-command request counts, and latency quantiles.
//! - `metrics` — the full observability registry as JSON (the protocol
//!   twin of HTTP `GET /metrics`, which serves Prometheus text format).
//! - `shutdown` — an acknowledgement line, then the accept loops stop.
//! - anything malformed — `{"fsd_version":1,"error":"..."}`; the
//!   connection survives and the next line is read.
//! - a request whose handling panics — `{"fsd_version":1,"error":
//!   "internal error: ..."}`, counted in `svc.panics`; the connection
//!   survives too.

use fs_core::service::{allocate_request_id, parse_request, Command, ParsedRequest};
use fs_core::{JsonValue, KernelResult, Service, ServiceResponse, FSD_VERSION};
use fs_obs as obs;
use std::any::Any;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Largest HTTP request body the fallback endpoint accepts, and longest
/// NDJSON request line the socket accepts.
const HTTP_BODY_LIMIT: u64 = 8 * 1024 * 1024;

/// Largest HTTP request line (or header line) the fallback accepts; longer
/// lines are a 400, not an unbounded buffer.
const HTTP_LINE_LIMIT: usize = 8 * 1024;

/// How [`Daemon::serve_line`] answered a protocol line.
#[derive(Clone, Copy)]
enum LineOutcome {
    /// A valid request, answered.
    Served,
    /// An invalid request, answered with the protocol-error envelope.
    Refused,
    /// Handling panicked; answered with the `internal error` envelope.
    Panicked,
}

/// Per-command request tallies, kept in plain relaxed atomics so `stats`
/// reports them even when the obs registry is fully disabled.
#[derive(Default)]
struct CommandTally {
    analyze: AtomicU64,
    lint: AtomicU64,
    ping: AtomicU64,
    stats: AtomicU64,
    metrics: AtomicU64,
    shutdown: AtomicU64,
    /// Lines that failed to parse into any command.
    errors: AtomicU64,
}

impl CommandTally {
    fn bump(&self, cmd: &str) {
        let cell = match cmd {
            "analyze" => &self.analyze,
            "lint" => &self.lint,
            "ping" => &self.ping,
            "stats" => &self.stats,
            "metrics" => &self.metrics,
            "shutdown" => &self.shutdown,
            _ => &self.errors,
        };
        cell.fetch_add(1, Ordering::Relaxed);
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .field("analyze", self.analyze.load(Ordering::Relaxed))
            .field("lint", self.lint.load(Ordering::Relaxed))
            .field("ping", self.ping.load(Ordering::Relaxed))
            .field("stats", self.stats.load(Ordering::Relaxed))
            .field("metrics", self.metrics.load(Ordering::Relaxed))
            .field("shutdown", self.shutdown.load(Ordering::Relaxed))
            .field("errors", self.errors.load(Ordering::Relaxed))
    }
}

/// The address an accept loop listens on: [`Daemon::request_shutdown`]
/// connects to it once to wake the loop out of a blocking `accept`.
#[derive(Clone, PartialEq)]
enum WakeAddr {
    Unix(PathBuf),
    Tcp(SocketAddr),
}

impl WakeAddr {
    /// A connectable address for `listener`: a wildcard IP becomes the
    /// loopback address of the same family.
    fn tcp(listener: &TcpListener) -> io::Result<WakeAddr> {
        let mut addr = listener.local_addr()?;
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        Ok(WakeAddr::Tcp(addr))
    }

    /// One throwaway connection. A failure means no loop is accepting
    /// there, so there is nothing to wake.
    fn wake(&self) {
        match self {
            WakeAddr::Unix(path) => drop(UnixStream::connect(path)),
            WakeAddr::Tcp(addr) => drop(TcpStream::connect(addr)),
        }
    }
}

/// A running analysis daemon: one shared [`Service`] plus the shutdown
/// latch both accept loops watch. Wrap it in an [`Arc`] and hand clones to
/// [`Daemon::serve_unix`] / [`Daemon::serve_http`] on their own threads.
pub struct Daemon {
    service: Service,
    shutdown: AtomicBool,
    /// Addresses of the running accept loops, woken on shutdown.
    accepting: Mutex<Vec<WakeAddr>>,
    started: Instant,
    tally: CommandTally,
    access_log: AtomicBool,
}

impl Daemon {
    /// A daemon whose cache is bounded to `cache_budget` bytes (spread
    /// across the shards); `None` leaves it unbounded.
    pub fn new(cache_budget: Option<u64>) -> Self {
        Daemon {
            service: Service::with_budget(cache_budget),
            shutdown: AtomicBool::new(false),
            accepting: Mutex::new(Vec::new()),
            started: Instant::now(),
            tally: CommandTally::default(),
            access_log: AtomicBool::new(false),
        }
    }

    /// Enable or disable the stderr NDJSON access log (off by default; the
    /// `fsd` binary turns it on unless `--quiet`).
    pub fn set_access_log(&self, on: bool) {
        self.access_log.store(on, Ordering::Relaxed);
    }

    /// The shared service — the tests call it in-process to produce the
    /// reference bytes a socket round-trip must match.
    pub fn service(&self) -> &Service {
        &self.service
    }

    /// Stop the accept loops: set the latch, then connect once to every
    /// loop's address so a loop blocked in `accept` wakes, sees the latch
    /// and returns. Connections already being served finish their current
    /// line.
    pub fn request_shutdown(&self) {
        // Latch first, list second; a loop registers first and checks the
        // latch second. Either the loop sees the latch, or its address is
        // in the list this call reads. The connects run outside the lock,
        // so a loop that is returning can always unregister.
        self.shutdown.store(true, Ordering::SeqCst);
        let accepting = self
            .accepting
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        for addr in &accepting {
            addr.wake();
        }
    }

    /// Has a `shutdown` command (or [`Self::request_shutdown`]) been seen?
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    // -- protocol ----------------------------------------------------------

    /// Handle one protocol line, writing the response line(s) to `out`.
    /// Never fails on bad input — malformed lines produce an `error`
    /// response — only on I/O errors writing to `out`. Every line bumps its
    /// per-command tally and, when enabled, emits one access-log record.
    /// A `shutdown` line only sets the latch; the socket servers wake their
    /// accept loops with [`Self::request_shutdown`] after replying.
    pub fn handle_line(&self, line: &str, out: &mut dyn Write) -> io::Result<()> {
        self.serve_line(line, out).map(|_| ())
    }

    /// [`Self::handle_line`], also telling how the line was answered. A
    /// panic while handling the line becomes an `internal error` envelope,
    /// a `svc.panics` count and a `"panic"` access-log record, and the
    /// connection keeps serving.
    fn serve_line(&self, line: &str, out: &mut dyn Write) -> io::Result<LineOutcome> {
        let t_start = Instant::now();
        let mut cmd = "error";
        let handled = panic::catch_unwind(AssertUnwindSafe(|| {
            self.dispatch_line(line, t_start, &mut cmd, out)
        }));
        handled.unwrap_or_else(|payload| {
            obs::counters::SVC_PANICS.inc();
            let message = format!("internal error: {}", panic_message(payload.as_ref()));
            let res = writeln!(out, "{}", error_json(&message).render());
            self.log_access(allocate_request_id(), cmd, 0, 0, 0, t_start, "panic");
            res.map(|_| LineOutcome::Panicked)
        })
    }

    /// The body of [`Self::serve_line`]; records the command in `cmd` as
    /// soon as it is known.
    fn dispatch_line(
        &self,
        line: &str,
        t_start: Instant,
        cmd: &mut &'static str,
        out: &mut dyn Write,
    ) -> io::Result<LineOutcome> {
        let parsed = match fs_core::json::parse(line) {
            Ok(v) => parse_request(&v),
            Err(e) => Err(format!("parse error: {e}")),
        };
        let parsed = match parsed {
            Ok(p) => p,
            Err(e) => {
                return self
                    .refuse_line(&e, t_start, out)
                    .map(|_| LineOutcome::Refused)
            }
        };
        *cmd = match parsed.command {
            Command::Ping => "ping",
            Command::Stats => "stats",
            Command::Metrics => "metrics",
            Command::Shutdown => "shutdown",
            Command::Analyze => "analyze",
            Command::Lint => "lint",
        };
        let cmd = *cmd;
        self.tally.bump(cmd);
        #[cfg(test)]
        if line.contains(tests::PANIC_PROBE) {
            panic!("injected test panic");
        }
        let (res, rec) = match parsed.command {
            Command::Ping => (writeln!(out, "{}", event_obj("pong").render()), None),
            Command::Stats => (writeln!(out, "{}", self.stats_json().render()), None),
            Command::Metrics => (writeln!(out, "{}", self.metrics_event().render()), None),
            Command::Shutdown => {
                // Latch only: the connection wakes the accept loops once the
                // acknowledgement is flushed (`finish_shutdown`).
                self.shutdown.store(true, Ordering::SeqCst);
                (writeln!(out, "{}", event_obj("shutdown").render()), None)
            }
            Command::Analyze | Command::Lint => {
                let (res, resp) = self.run_request(&parsed, out);
                (res, Some(resp))
            }
        };
        match rec {
            Some(resp) => self.log_access(
                resp.request_id,
                cmd,
                resp.results.len() as u64,
                resp.timing.cache_hits,
                resp.timing.cache_misses,
                t_start,
                if resp.has_errors() { "error" } else { "ok" },
            ),
            None => self.log_access(allocate_request_id(), cmd, 0, 0, 0, t_start, "ok"),
        }
        res.map(|_| LineOutcome::Served)
    }

    /// Answer an invalid request line with the protocol-error envelope.
    fn refuse_line(&self, message: &str, t_start: Instant, out: &mut dyn Write) -> io::Result<()> {
        obs::counters::SVC_ERRORS.inc();
        self.tally.bump("error");
        let res = writeln!(out, "{}", error_json(message).render());
        self.log_access(allocate_request_id(), "error", 0, 0, 0, t_start, "error");
        res
    }

    /// One NDJSON access-log record on stderr, when enabled.
    #[allow(clippy::too_many_arguments)]
    fn log_access(
        &self,
        id: u64,
        cmd: &str,
        kernels: u64,
        cache_hits: u64,
        cache_misses: u64,
        t_start: Instant,
        outcome: &str,
    ) {
        if !self.access_log.load(Ordering::Relaxed) {
            return;
        }
        let rec = JsonValue::obj()
            .field("fsd", "access")
            .field("id", id)
            .field("cmd", cmd)
            .field("kernels", kernels)
            .field("cache_hits", cache_hits)
            .field("cache_misses", cache_misses)
            .field("wall_ns", t_start.elapsed().as_nanos() as u64)
            .field("outcome", outcome);
        eprintln!("{}", rec.render());
    }

    /// Execute an analyze/lint request, streaming per-kernel events first
    /// when the client asked for them. Returns the response alongside the
    /// I/O outcome so the caller can log what actually happened.
    fn run_request(
        &self,
        parsed: &ParsedRequest,
        out: &mut dyn Write,
    ) -> (io::Result<()>, ServiceResponse) {
        if !parsed.stream {
            let resp = self.service.handle(&parsed.request);
            let res = writeln!(out, "{}", resp.envelope().render());
            return (res, resp);
        }
        // Streaming: the callback fires inside `handle_with`, so write
        // failures are stashed and re-raised once the borrow ends.
        let mut io_err: Option<io::Error> = None;
        let mut emit = |kr: &KernelResult| {
            if io_err.is_some() {
                return;
            }
            let ev = event_obj("result").field("result", kr.to_json());
            if let Err(e) = writeln!(out, "{}", ev.render()).and_then(|_| out.flush()) {
                io_err = Some(e);
            }
        };
        let resp = self.service.handle_with(&parsed.request, Some(&mut emit));
        if let Some(e) = io_err {
            return (Err(e), resp);
        }
        let res = writeln!(out, "{}", done_event(&resp).render());
        (res, resp)
    }

    /// The `metrics` protocol event: uptime, per-command tallies, and the
    /// full observability registry — the JSON twin of `GET /metrics`.
    fn metrics_event(&self) -> JsonValue {
        event_obj("metrics")
            .field("uptime_s", self.started.elapsed().as_secs_f64())
            .field("commands", self.tally.to_json())
            .field("metrics", fs_core::service::metrics_json(&obs::snapshot()))
    }

    /// The `stats` response: shard count, aggregated cache stats (lifetime
    /// hits/misses/evictions plus resident and peak bytes), the default
    /// FS-model path with its lifetime dispatch/fallback tallies, the
    /// simulator's replay dispatch tallies (replays, dense, reference),
    /// the process-wide request counter, daemon uptime, per-command tallies
    /// (obs-independent), and request-latency quantiles.
    pub fn stats_json(&self) -> JsonValue {
        let cache = self.service.cache();
        let s = cache.stats();
        event_obj("stats")
            .field("shards", cache.num_shards() as u64)
            .field("uptime_s", self.started.elapsed().as_secs_f64())
            .field("commands", self.tally.to_json())
            .field(
                "cache",
                JsonValue::obj()
                    .field("hits", s.hits)
                    .field("misses", s.misses)
                    .field("evictions", s.evictions)
                    .field("bytes", s.bytes)
                    .field("peak_bytes", s.peak_bytes)
                    .field("entries", s.entries),
            )
            .field(
                "fs_path",
                JsonValue::obj()
                    .field(
                        "default",
                        fs_core::service::ServiceOptions::default().path.as_str(),
                    )
                    .field(
                        "symbolic_dispatches",
                        obs::counters::FS_DISPATCH_SYMBOLIC.get(),
                    )
                    .field("symbolic_direct", obs::counters::FS_SYMBOLIC_DIRECT.get())
                    .field(
                        "symbolic_fallbacks",
                        obs::counters::FS_SYMBOLIC_FALLBACKS.get(),
                    ),
            )
            .field(
                "sim",
                JsonValue::obj()
                    .field("replays", obs::counters::SIM_REPLAYS.get())
                    .field("dispatch_dense", obs::counters::SIM_DISPATCH_DENSE.get())
                    .field(
                        "dispatch_reference",
                        obs::counters::SIM_DISPATCH_REFERENCE.get(),
                    ),
            )
            .field("requests", obs::counters::SVC_REQUESTS.get())
            .field(
                "latency",
                fs_core::service::hist_json(&obs::hists::SVC_REQUEST_NS.snapshot()),
            )
    }

    /// The Prometheus text-format exposition behind `GET /metrics`: daemon
    /// process metrics (uptime, per-command tallies) plus every obs
    /// counter, gauge, and histogram. Histograms render their non-empty
    /// buckets cumulatively with nanosecond `le` bounds.
    pub fn prometheus_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "# TYPE fsd_uptime_seconds gauge");
        let _ = writeln!(
            out,
            "fsd_uptime_seconds {:.3}",
            self.started.elapsed().as_secs_f64()
        );
        let _ = writeln!(out, "# TYPE fsd_requests_total counter");
        for (cmd, v) in [
            ("analyze", &self.tally.analyze),
            ("lint", &self.tally.lint),
            ("ping", &self.tally.ping),
            ("stats", &self.tally.stats),
            ("metrics", &self.tally.metrics),
            ("shutdown", &self.tally.shutdown),
            ("error", &self.tally.errors),
        ] {
            let _ = writeln!(
                out,
                "fsd_requests_total{{cmd=\"{cmd}\"}} {}",
                v.load(Ordering::Relaxed)
            );
        }
        let snap = obs::snapshot();
        for &(name, v) in &snap.counters {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n}_total counter");
            let _ = writeln!(out, "{n}_total {v}");
        }
        for &(name, v) in &snap.gauges {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n} gauge");
            let _ = writeln!(out, "{n} {v}");
        }
        for h in &snap.hists {
            let n = prom_name(h.name);
            let _ = writeln!(out, "# TYPE {n} histogram");
            for (le, cum) in h.cumulative_buckets() {
                let _ = writeln!(out, "{n}_bucket{{le=\"{le}\"}} {cum}");
            }
            let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{n}_sum {}", h.sum);
            let _ = writeln!(out, "{n}_count {}", h.count);
        }
        out
    }

    // -- accept loops --------------------------------------------------------

    /// A `shutdown` line only sets the latch. The connection that carried
    /// it calls this once the acknowledgement is flushed, to wake the
    /// accept loops; waking them earlier could let `fsd` exit before the
    /// client has its reply. Returns whether shutdown is under way.
    fn finish_shutdown(&self) -> bool {
        let latched = self.shutdown_requested();
        if latched {
            self.request_shutdown();
        }
        latched
    }

    /// Block in `accept` until shutdown, serving each connection on its own
    /// thread. `wake` is registered for [`Self::request_shutdown`] while the
    /// loop runs.
    fn accept_loop<S: Send + 'static>(
        self: &Arc<Self>,
        wake: WakeAddr,
        accept: impl Fn() -> io::Result<S>,
        serve: fn(&Daemon, S),
    ) -> io::Result<()> {
        let accepting = || self.accepting.lock().unwrap_or_else(|e| e.into_inner());
        accepting().push(wake.clone());
        let served = loop {
            if self.shutdown_requested() {
                break Ok(());
            }
            match accept() {
                // The shutdown wake, or a client arriving during shutdown:
                // drop it and stop.
                Ok(_) if self.shutdown_requested() => break Ok(()),
                Ok(stream) => {
                    let daemon = Arc::clone(self);
                    thread::spawn(move || serve(&daemon, stream));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => break Err(e),
            }
        };
        accepting().retain(|a| *a != wake);
        served
    }

    // -- Unix socket server ------------------------------------------------

    /// Accept NDJSON clients until a `shutdown` command arrives. Each
    /// connection gets a thread; all of them share `self` (and the cache).
    /// The socket file must stay in place until this returns: shutdown
    /// wakes the loop by connecting to it.
    pub fn serve_unix(self: &Arc<Self>, listener: UnixListener) -> io::Result<()> {
        let path = listener.local_addr()?.as_pathname().map(Path::to_path_buf);
        let path = path.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "the daemon socket must be bound to a path",
            )
        })?;
        self.accept_loop(
            WakeAddr::Unix(path),
            || listener.accept().map(|(stream, _)| stream),
            Daemon::unix_connection,
        )
    }

    fn unix_connection(&self, stream: UnixStream) {
        let Ok(writer) = stream.try_clone() else {
            return;
        };
        let mut writer = BufWriter::new(writer);
        let mut reader = BufReader::new(stream);
        loop {
            // Same bound as an HTTP body: an over-long line gets one error
            // envelope and the connection closes, rather than buffering
            // without limit.
            let line = match read_line_limited(&mut reader, HTTP_BODY_LIMIT as usize) {
                Ok(Some(line)) => line,
                Ok(None) => return, // EOF: client hung up.
                Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                    if self
                        .refuse_line(&e.to_string(), Instant::now(), &mut writer)
                        .is_ok()
                    {
                        let _ = writer.flush();
                    }
                    return;
                }
                Err(_) => return,
            };
            if line.trim().is_empty() {
                continue;
            }
            let served = self
                .handle_line(&line, &mut writer)
                .and_then(|()| writer.flush());
            if self.finish_shutdown() || served.is_err() {
                return;
            }
        }
    }

    // -- HTTP/1.1 fallback -------------------------------------------------

    /// The minimal HTTP fallback for clients that cannot speak Unix
    /// sockets: `POST /` (or `/analyze`) with a protocol object as the
    /// body, `GET /ping`, `GET /stats`, `GET /metrics` (Prometheus text
    /// exposition). One request per connection.
    pub fn serve_http(self: &Arc<Self>, listener: TcpListener) -> io::Result<()> {
        self.accept_loop(
            WakeAddr::tcp(&listener)?,
            || listener.accept().map(|(stream, _)| stream),
            Daemon::http_connection,
        )
    }

    fn http_connection(&self, stream: TcpStream) {
        let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
        let Ok(writer) = stream.try_clone() else {
            return;
        };
        let mut writer = BufWriter::new(writer);
        let mut reader = BufReader::new(stream);
        match self.http_request(&mut reader) {
            Ok((status, ctype, body)) => {
                let _ = write_http_response(&mut writer, status, ctype, &body);
                let _ = writer.flush();
                self.finish_shutdown();
            }
            Err(_) => {
                // A refused request (e.g. an over-long line) leaves unread
                // client bytes; closing now would RST the 400 out of the
                // client's receive buffer. Flush, half-close, then drain a
                // bounded amount so the error response survives.
                let _ = write_http_response(
                    &mut writer,
                    400,
                    CT_JSON,
                    "{\"error\": \"bad request\"}\n",
                );
                let _ = writer.flush();
                let _ = writer.get_ref().shutdown(std::net::Shutdown::Write);
                let mut sink = [0u8; 4096];
                let mut budget = HTTP_BODY_LIMIT;
                while budget > 0 {
                    match reader.get_mut().read(&mut sink) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => budget = budget.saturating_sub(n as u64),
                    }
                }
            }
        }
    }

    /// Parse one HTTP request and produce `(status, content-type, body)`.
    /// Streamed responses arrive as an NDJSON body — the event lines
    /// concatenated — since the fallback does not do chunked transfer.
    fn http_request(&self, reader: &mut impl BufRead) -> io::Result<(u16, &'static str, String)> {
        let request_line = match read_line_limited(reader, HTTP_LINE_LIMIT)? {
            Some(l) => l,
            None => return Ok((400, CT_JSON, "{\"error\": \"empty request\"}\n".to_string())),
        };
        let mut parts = request_line.split_whitespace();
        let method = parts.next().unwrap_or("").to_ascii_uppercase();
        let path = parts.next().unwrap_or("/").to_string();

        let mut content_length: u64 = 0;
        while let Some(header) = read_line_limited(reader, HTTP_LINE_LIMIT)? {
            let header = header.trim();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().unwrap_or(0);
                }
            }
        }

        match (method.as_str(), path.as_str()) {
            ("GET", "/ping") => {
                self.tally.bump("ping");
                Ok((200, CT_JSON, format!("{}\n", event_obj("pong").render())))
            }
            ("GET", "/stats") => {
                self.tally.bump("stats");
                Ok((200, CT_JSON, format!("{}\n", self.stats_json().render())))
            }
            ("GET", "/metrics") => {
                self.tally.bump("metrics");
                Ok((200, CT_PROM, self.prometheus_text()))
            }
            ("POST", "/") | ("POST", "/analyze") => {
                if content_length > HTTP_BODY_LIMIT {
                    return Ok((
                        413,
                        CT_JSON,
                        "{\"error\": \"body too large\"}\n".to_string(),
                    ));
                }
                let mut body = String::new();
                reader.take(content_length).read_to_string(&mut body)?;
                let mut out: Vec<u8> = Vec::new();
                let status = match self.serve_line(&body, &mut out)? {
                    LineOutcome::Served => 200,
                    LineOutcome::Refused => 400,
                    LineOutcome::Panicked => 500,
                };
                Ok((status, CT_JSON, String::from_utf8_lossy(&out).into_owned()))
            }
            _ => Ok((404, CT_JSON, "{\"error\": \"not found\"}\n".to_string())),
        }
    }
}

/// Read one `\n`-terminated line of at most `limit` bytes. `Ok(None)` is
/// EOF before any byte; an over-long line is an `InvalidData` error (the
/// connection answers with an error and closes rather than buffering
/// without bound).
fn read_line_limited(reader: &mut impl BufRead, limit: usize) -> io::Result<Option<String>> {
    let mut buf = Vec::new();
    reader
        .by_ref()
        .take(limit as u64 + 1)
        .read_until(b'\n', &mut buf)?;
    if buf.is_empty() {
        return Ok(None);
    }
    if buf.len() > limit {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "request line too long",
        ));
    }
    Ok(Some(String::from_utf8_lossy(&buf).into_owned()))
}

/// A stable `area.metric` obs name as a Prometheus metric name.
fn prom_name(name: &str) -> String {
    name.replace('.', "_")
}

const CT_JSON: &str = "application/json";
const CT_PROM: &str = "text/plain; version=0.0.4";

/// `{"fsd_version": 1, "event": <name>}`, ready for more fields.
fn event_obj(event: &str) -> JsonValue {
    JsonValue::obj()
        .field("fsd_version", FSD_VERSION)
        .field("event", event)
}

/// The text of a caught panic's payload.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "panic"
    }
}

/// The protocol-error response line.
fn error_json(message: &str) -> JsonValue {
    JsonValue::obj()
        .field("fsd_version", FSD_VERSION)
        .field("error", message)
}

/// The final line of a streamed response: the envelope without its
/// `reports` array (those already went out as `result` events), tagged
/// `"event": "done"` right after the version stamp.
fn done_event(resp: &ServiceResponse) -> JsonValue {
    let mut tail = resp.envelope_tail();
    if let JsonValue::Obj(fields) = &mut tail {
        fields.insert(1, ("event".to_string(), JsonValue::Str("done".to_string())));
    }
    tail
}

fn write_http_response(
    out: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        _ => "Error",
    };
    write!(
        out,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

/// Bind the daemon socket, reclaiming a stale file left by a dead server:
/// if the path exists but nothing accepts connections on it, it is removed
/// and rebound; if a live daemon answers, binding fails with `AddrInUse`.
pub fn bind_unix(path: &Path) -> io::Result<UnixListener> {
    match UnixListener::bind(path) {
        Ok(l) => Ok(l),
        Err(e) if e.kind() == io::ErrorKind::AddrInUse => {
            if UnixStream::connect(path).is_ok() {
                return Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!("a daemon is already listening on {}", path.display()),
                ));
            }
            std::fs::remove_file(path)?;
            UnixListener::bind(path)
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fault injection: a request line carrying this field panics inside
    /// request handling, after its command is tallied.
    pub(super) const PANIC_PROBE: &str = "\"test_panic\"";

    fn analyze_line(kernels: &[&str]) -> String {
        let ks = kernels
            .iter()
            .map(|k| JsonValue::Str(k.to_string()))
            .collect();
        JsonValue::obj()
            .field("kernels", JsonValue::Arr(ks))
            .render()
    }

    #[test]
    fn handle_line_answers_ping_and_stats() {
        let d = Daemon::new(None);
        let mut out = Vec::new();
        d.handle_line("{\"cmd\": \"ping\"}", &mut out).unwrap();
        let line = String::from_utf8(out).unwrap();
        let v = fs_core::json::parse(line.trim()).unwrap();
        assert_eq!(
            v.get("fsd_version").and_then(|v| v.as_u64()),
            Some(FSD_VERSION)
        );
        assert_eq!(v.get("event").and_then(|v| v.as_str()), Some("pong"));

        let mut out = Vec::new();
        d.handle_line("{\"cmd\": \"stats\"}", &mut out).unwrap();
        let v = fs_core::json::parse(String::from_utf8(out).unwrap().trim()).unwrap();
        assert_eq!(v.get("event").and_then(|v| v.as_str()), Some("stats"));
        assert!(v.get("cache").and_then(|c| c.get("bytes")).is_some());
        let Some(JsonValue::Obj(sim)) = v.get("sim") else {
            panic!("stats carry a sim block");
        };
        let keys: Vec<&str> = sim.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["replays", "dispatch_dense", "dispatch_reference"]);
        assert!(sim.iter().all(|(_, v)| v.as_u64().is_some()), "{sim:?}");
    }

    #[test]
    fn handle_line_matches_in_process_envelope() {
        let d = Daemon::new(None);
        let mut out = Vec::new();
        d.handle_line(&analyze_line(&["@histogram"]), &mut out)
            .unwrap();
        let daemon_line = String::from_utf8(out).unwrap();

        // The same request through a fresh in-process service: identical
        // bytes (no grid => no per-run memo tallies in the envelope).
        let parsed =
            parse_request(&fs_core::json::parse(&analyze_line(&["@histogram"])).unwrap()).unwrap();
        let reference = Service::new().handle(&parsed.request).envelope().render();
        assert_eq!(daemon_line, format!("{reference}\n"));
    }

    #[test]
    fn malformed_lines_error_without_killing_the_handler() {
        let d = Daemon::new(None);
        for bad in ["not json", "{\"cmd\": \"explode\"}", "{\"kernels\": []}"] {
            let mut out = Vec::new();
            d.handle_line(bad, &mut out).unwrap();
            let v = fs_core::json::parse(String::from_utf8(out).unwrap().trim()).unwrap();
            assert!(v.get("error").is_some(), "no error for {bad:?}");
        }
        // Still serves good requests afterwards.
        let mut out = Vec::new();
        d.handle_line("{\"cmd\": \"ping\"}", &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("pong"));
    }

    #[test]
    fn streaming_emits_result_events_then_done() {
        let d = Daemon::new(None);
        let req = JsonValue::obj()
            .field(
                "kernels",
                JsonValue::Arr(vec![
                    JsonValue::Str("@histogram".into()),
                    JsonValue::Str("@stencil".into()),
                ]),
            )
            .field("stream", true)
            .render();
        let mut out = Vec::new();
        d.handle_line(&req, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "2 results + done, got: {text}");
        for (line, file) in lines.iter().zip(["@histogram", "@stencil"]) {
            let v = fs_core::json::parse(line).unwrap();
            assert_eq!(v.get("event").and_then(|e| e.as_str()), Some("result"));
            assert_eq!(
                v.get("result")
                    .and_then(|r| r.get("file"))
                    .and_then(|f| f.as_str()),
                Some(file)
            );
        }
        let done = fs_core::json::parse(lines[2]).unwrap();
        assert_eq!(done.get("event").and_then(|e| e.as_str()), Some("done"));
        assert!(done.get("reports").is_none(), "tail repeats no reports");
        assert_eq!(done.get("findings").and_then(|f| f.as_bool()), Some(true));
    }

    #[test]
    fn shutdown_command_sets_the_latch() {
        let d = Daemon::new(None);
        assert!(!d.shutdown_requested());
        let mut out = Vec::new();
        d.handle_line("{\"cmd\": \"shutdown\"}", &mut out).unwrap();
        assert!(d.shutdown_requested());
        assert!(String::from_utf8(out).unwrap().contains("\"shutdown\""));
    }

    #[test]
    fn a_panicking_request_gets_an_error_envelope_and_the_connection_survives() {
        obs::configure(obs::ObsConfig {
            spans: false,
            counters: true,
            ring: None,
        });
        let panics_before = obs::counters::SVC_PANICS.get();
        let probe = "{\"cmd\": \"ping\", \"test_panic\": true}";
        let d = Arc::new(Daemon::new(None));
        let mut out = Vec::new();
        d.handle_line(probe, &mut out).unwrap();
        let v = fs_core::json::parse(String::from_utf8(out).unwrap().trim()).unwrap();
        assert_eq!(
            v.get("fsd_version").and_then(|v| v.as_u64()),
            Some(FSD_VERSION)
        );
        assert_eq!(
            v.get("error").and_then(|e| e.as_str()),
            Some("internal error: injected test panic")
        );
        assert!(obs::counters::SVC_PANICS.get() > panics_before);
        obs::configure(obs::ObsConfig::disabled());

        // Over a real socket, the same connection answers its next line.
        let path = std::env::temp_dir().join(format!("fsd-unit-{}.sock", std::process::id()));
        let listener = bind_unix(&path).unwrap();
        let server = Arc::clone(&d);
        let accept_loop = thread::spawn(move || server.serve_unix(listener));
        let stream = UnixStream::connect(&path).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        writeln!(writer, "{probe}").unwrap();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("internal error"), "got: {line}");
        line.clear();
        writeln!(writer, "{{\"cmd\": \"ping\"}}").unwrap();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"pong\""), "got: {line}");
        d.request_shutdown();
        accept_loop.join().unwrap().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_panicking_http_request_gets_a_500_and_a_bad_one_a_400() {
        let d = Arc::new(Daemon::new(None));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = Arc::clone(&d);
        let http_loop = thread::spawn(move || server.serve_http(listener));
        let post = |body: &str| -> String {
            let mut stream = TcpStream::connect(addr).unwrap();
            write!(
                stream,
                "POST / HTTP/1.1\r\nHost: fsd\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .unwrap();
            let mut raw = String::new();
            stream.read_to_string(&mut raw).unwrap();
            raw
        };
        let raw = post("{\"cmd\": \"ping\", \"test_panic\": true}");
        assert!(
            raw.starts_with("HTTP/1.1 500 Internal Server Error\r\n"),
            "got: {raw}"
        );
        assert!(
            raw.contains("internal error: injected test panic"),
            "got: {raw}"
        );
        let raw = post("not json");
        assert!(
            raw.starts_with("HTTP/1.1 400 Bad Request\r\n"),
            "got: {raw}"
        );
        d.request_shutdown();
        http_loop.join().unwrap().unwrap();
    }
}
