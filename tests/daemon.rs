//! End-to-end tests of `fsd`, the analysis daemon: a real Unix-socket
//! server per test, driven by real clients.
//!
//! The contracts under test are the ones `docs/DAEMON.md` promises:
//!
//! - **Differential**: the line a daemon writes for a request is
//!   byte-identical to the envelope an in-process [`fs_core::Service`]
//!   renders for the same request history (the daemon adds transport, not
//!   semantics). Checked for every bundled corpus kernel and for sweep
//!   grids.
//! - **Determinism under concurrency**: after a warm-up request, N
//!   concurrent clients issuing the same grid request all read identical
//!   bytes, and the shared cache serves them without a single new miss.
//! - Control plane: `ping`, `stats`, `shutdown`, malformed lines, and the
//!   HTTP/1.1 fallback.

use fs_core::json::{parse, JsonValue};
use fs_core::service::parse_request;
use fs_core::{obs, Service};
use fs_daemon::{bind_unix, Daemon};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

static NEXT_SOCKET: AtomicU32 = AtomicU32::new(0);

/// The obs registry is process-global: tests that reconfigure it (metrics
/// scrape, ring tracing) serialize here and restore the disabled default.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// A unique temp socket path for one test server.
fn temp_socket_path() -> PathBuf {
    let n = NEXT_SOCKET.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("fsd-test-{}-{n}.sock", std::process::id()))
}

/// A live daemon on a unique temp socket.
struct TestServer {
    daemon: Arc<Daemon>,
    path: PathBuf,
    accept_loop: JoinHandle<std::io::Result<()>>,
}

impl TestServer {
    fn start() -> Self {
        let path = temp_socket_path();
        let listener = bind_unix(&path).expect("bind test socket");
        let daemon = Arc::new(Daemon::new(None));
        let server = Arc::clone(&daemon);
        let accept_loop = thread::spawn(move || server.serve_unix(listener));
        TestServer {
            daemon,
            path,
            accept_loop,
        }
    }

    fn connect(&self) -> UnixStream {
        UnixStream::connect(&self.path).expect("connect to test daemon")
    }

    /// Send one request line, read one response line.
    fn round_trip(&self, line: &str) -> String {
        let mut stream = self.connect();
        writeln!(stream, "{line}").unwrap();
        let mut reader = BufReader::new(stream);
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        response
    }

    fn stop(self) {
        self.daemon.request_shutdown();
        self.accept_loop.join().unwrap().unwrap();
        let _ = std::fs::remove_file(&self.path);
    }
}

fn analyze_request(kernels: &[&str], grid: bool) -> String {
    let mut req = JsonValue::obj().field(
        "kernels",
        JsonValue::Arr(
            kernels
                .iter()
                .map(|k| JsonValue::Str(k.to_string()))
                .collect(),
        ),
    );
    if grid {
        req = req.field(
            "grid",
            JsonValue::obj()
                .field("threads", JsonValue::Arr(vec![2u64.into(), 4u64.into()]))
                .field("chunks", JsonValue::Arr(vec![1u64.into(), 8u64.into()])),
        );
    }
    req.render()
}

/// The in-process reference bytes for a protocol line, replayed against
/// `svc` (so cache history can be made to match the daemon's).
fn reference_line(svc: &Service, line: &str) -> String {
    let parsed = parse_request(&parse(line).unwrap()).unwrap();
    format!("{}\n", svc.handle(&parsed.request).envelope().render())
}

#[test]
fn socket_responses_match_in_process_service_for_the_corpus() {
    let server = TestServer::start();
    // One fresh in-process service per request: without a grid the
    // envelope carries no per-run memo tallies, so daemon cache state
    // cannot (and must not) show through.
    for entry in fs_core::CORPUS {
        let line = analyze_request(&[&format!("@{}", entry.name)], false);
        let from_daemon = server.round_trip(&line);
        let reference = reference_line(&Service::new(), &line);
        assert_eq!(
            from_daemon, reference,
            "daemon response for @{} diverges from in-process service",
            entry.name
        );
    }
    server.stop();
}

#[test]
fn socket_grid_responses_match_in_process_history() {
    let server = TestServer::start();
    let svc = Service::new();
    let line = analyze_request(&["@histogram", "@stencil"], true);
    // Same request replayed against both sides: run 1 is all cold misses,
    // run 2 all hits. The envelopes carry those tallies, so byte-identity
    // here proves the daemon's cache behaves exactly like the library's.
    for run in 1..=2 {
        let from_daemon = server.round_trip(&line);
        let reference = reference_line(&svc, &line);
        assert_eq!(from_daemon, reference, "grid run {run} diverges");
    }
    server.stop();
}

#[test]
fn concurrent_clients_get_identical_bytes_with_zero_new_misses() {
    let server = TestServer::start();
    let line = analyze_request(&["@histogram"], true);

    // Warm the shared cache (the cold response carries all-miss memo
    // tallies, so the reference bytes are the *second*, fully-warm run),
    // then snapshot the lifetime miss count.
    server.round_trip(&line);
    let warm = server.round_trip(&line);
    let stats = parse(server.round_trip("{\"cmd\": \"stats\"}").trim()).unwrap();
    let misses_before = stats
        .get("cache")
        .and_then(|c| c.get("misses"))
        .and_then(|m| m.as_u64())
        .expect("stats reports cache misses");

    let clients: Vec<_> = (0..8)
        .map(|_| {
            let line = line.clone();
            let path = server.path.clone();
            thread::spawn(move || {
                let mut stream = UnixStream::connect(&path).unwrap();
                writeln!(stream, "{line}").unwrap();
                let mut response = String::new();
                BufReader::new(stream).read_line(&mut response).unwrap();
                response
            })
        })
        .collect();
    for client in clients {
        let response = client.join().unwrap();
        assert_eq!(response, warm, "a concurrent client saw different bytes");
    }

    let stats = parse(server.round_trip("{\"cmd\": \"stats\"}").trim()).unwrap();
    let misses_after = stats
        .get("cache")
        .and_then(|c| c.get("misses"))
        .and_then(|m| m.as_u64())
        .unwrap();
    assert_eq!(
        misses_before, misses_after,
        "warm concurrent requests must be pure cache hits"
    );
    server.stop();
}

#[test]
fn ignored_sim_workers_field_leaves_the_envelope_unchanged() {
    // `sim_workers` is accepted and ignored for protocol compatibility:
    // cold servers answer the request with it byte-for-byte as without it,
    // and a malformed value is still a request error.
    let plain = analyze_request(&["@histogram"], true);
    let with_field = |v: JsonValue| parse(&plain).unwrap().field("sim_workers", v).render();
    let (a, b) = (TestServer::start(), TestServer::start());
    let reference = a.round_trip(&plain);
    assert_eq!(b.round_trip(&with_field(8u64.into())), reference);
    let bad = a.round_trip(&with_field(JsonValue::Str("eight".into())));
    assert!(
        bad.contains("'sim_workers' must be a non-negative integer"),
        "{bad}"
    );
    a.stop();
    b.stop();
}

#[test]
fn analytic_path_alias_gets_the_symbolic_envelope() {
    // `"analytic"` names a removed FS path; it parses as `"symbolic"`, so
    // old clients get the same bytes as a symbolic request.
    let plain = analyze_request(&["@histogram", "@heat"], true);
    let with_path = |p: &str| parse(&plain).unwrap().field("path", p).render();
    let (a, b) = (TestServer::start(), TestServer::start());
    assert_eq!(
        b.round_trip(&with_path("analytic")),
        a.round_trip(&with_path("symbolic"))
    );
    a.stop();
    b.stop();
}

#[test]
fn one_connection_can_issue_many_requests_and_streams() {
    let server = TestServer::start();
    let mut stream = server.connect();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();

    // ping
    writeln!(stream, "{{\"cmd\": \"ping\"}}").unwrap();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"pong\""), "got: {line}");

    // a malformed line keeps the connection alive
    line.clear();
    writeln!(stream, "this is not json").unwrap();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"error\""), "got: {line}");

    // a streamed lint: two result events, then done
    line.clear();
    writeln!(
        stream,
        "{{\"cmd\": \"lint\", \"kernels\": [\"@histogram\", \"@stencil\"], \"stream\": true}}"
    )
    .unwrap();
    for expected_file in ["@histogram", "@stencil"] {
        line.clear();
        reader.read_line(&mut line).unwrap();
        let v = parse(line.trim()).unwrap();
        assert_eq!(v.get("event").and_then(|e| e.as_str()), Some("result"));
        assert_eq!(
            v.get("result")
                .and_then(|r| r.get("file"))
                .and_then(|f| f.as_str()),
            Some(expected_file)
        );
    }
    line.clear();
    reader.read_line(&mut line).unwrap();
    let done = parse(line.trim()).unwrap();
    assert_eq!(done.get("event").and_then(|e| e.as_str()), Some("done"));
    server.stop();
}

#[test]
fn over_long_socket_line_gets_one_error_then_the_connection_closes() {
    // The socket shares the HTTP body limit (8 MiB).
    const LIMIT: usize = 8 * 1024 * 1024;
    let server = TestServer::start();
    let stream = server.connect();
    // Unbounded buffering would never answer: fail on a timeout, not a hang.
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .unwrap();
    // Feed past the limit from another thread: the daemon stops reading
    // once the line is too long, so later writes may fail.
    let mut writer = stream.try_clone().unwrap();
    let feeder = thread::spawn(move || {
        let chunk = vec![b'x'; 1 << 16];
        let mut sent = 0;
        while sent <= LIMIT && writer.write_all(&chunk).is_ok() {
            sent += chunk.len();
        }
        let _ = writer.write_all(b"\n");
    });
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("one error envelope");
    let v = parse(line.trim()).expect("error envelope is JSON");
    assert_eq!(v.get("fsd_version").and_then(|v| v.as_u64()), Some(1));
    assert!(
        v.get("error")
            .and_then(|e| e.as_str())
            .is_some_and(|e| e.contains("too long")),
        "got: {line}"
    );
    // Then the daemon closes: end of stream (or a reset, since the rest
    // of the line was never read).
    line.clear();
    match reader.read_line(&mut line) {
        Ok(n) => assert_eq!(n, 0, "connection stayed open: {line}"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
    }
    feeder.join().unwrap();
    // The daemon still serves new connections.
    let pong = server.round_trip("{\"cmd\": \"ping\"}");
    assert!(pong.contains("\"pong\""), "got: {pong}");
    server.stop();
}

#[test]
fn shutdown_command_stops_the_accept_loop() {
    let server = TestServer::start();
    let ack = server.round_trip("{\"cmd\": \"shutdown\"}");
    assert!(ack.contains("\"shutdown\""), "got: {ack}");
    // The accept loop observes the latch and returns; join proves it.
    server.accept_loop.join().unwrap().unwrap();
    let _ = std::fs::remove_file(&server.path);
}

#[test]
fn http_fallback_serves_ping_and_analyze() {
    let daemon = Arc::new(Daemon::new(None));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = Arc::clone(&daemon);
    let http_loop = thread::spawn(move || server.serve_http(listener));

    let http = |request: String| -> (String, String) {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let (head, body) = raw.split_once("\r\n\r\n").expect("http header/body split");
        (head.to_string(), body.to_string())
    };

    let (head, body) = http("GET /ping HTTP/1.1\r\nHost: fsd\r\n\r\n".to_string());
    assert!(head.starts_with("HTTP/1.1 200"), "got: {head}");
    assert!(body.contains("\"pong\""), "got: {body}");

    let payload = analyze_request(&["@histogram"], false);
    let (head, body) = http(format!(
        "POST /analyze HTTP/1.1\r\nHost: fsd\r\nContent-Length: {}\r\n\r\n{payload}",
        payload.len()
    ));
    assert!(head.starts_with("HTTP/1.1 200"), "got: {head}");
    // The body is the very same envelope line the socket path writes.
    let reference = reference_line(&Service::new(), &payload);
    assert_eq!(body, reference);

    let (head, _) = http("GET /nope HTTP/1.1\r\nHost: fsd\r\n\r\n".to_string());
    assert!(head.starts_with("HTTP/1.1 404"), "got: {head}");

    daemon.request_shutdown();
    http_loop.join().unwrap().unwrap();
}

/// An HTTP daemon on an ephemeral TCP port, for the fallback tests.
struct HttpServer {
    daemon: Arc<Daemon>,
    addr: std::net::SocketAddr,
    http_loop: JoinHandle<std::io::Result<()>>,
}

impl HttpServer {
    fn start() -> Self {
        let daemon = Arc::new(Daemon::new(None));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = Arc::clone(&daemon);
        let http_loop = thread::spawn(move || server.serve_http(listener));
        HttpServer {
            daemon,
            addr,
            http_loop,
        }
    }

    /// Send raw request bytes, return `(status line + headers, body)`.
    fn raw(&self, request: &str) -> (String, String) {
        let mut stream = std::net::TcpStream::connect(self.addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response
            .split_once("\r\n\r\n")
            .expect("http header/body split");
        (head.to_string(), body.to_string())
    }

    fn stop(self) {
        self.daemon.request_shutdown();
        self.http_loop.join().unwrap().unwrap();
    }
}

#[test]
fn http_fallback_rejects_malformed_and_oversized_requests() {
    let server = HttpServer::start();

    // Unknown route: 404 with a JSON error body.
    let (head, body) = server.raw("GET /definitely/not/a/route HTTP/1.1\r\nHost: fsd\r\n\r\n");
    assert!(head.starts_with("HTTP/1.1 404"), "got: {head}");
    let v = parse(body.trim()).expect("404 body is JSON");
    assert!(v.get("error").is_some(), "got: {body}");

    // Malformed POST body: 400, and the body is the protocol's JSON error
    // envelope (versioned, connection-survivable on the socket path).
    let bad = "this is not json";
    let (head, body) = server.raw(&format!(
        "POST /analyze HTTP/1.1\r\nHost: fsd\r\nContent-Length: {}\r\n\r\n{bad}",
        bad.len()
    ));
    assert!(head.starts_with("HTTP/1.1 400"), "got: {head}");
    let v = parse(body.trim()).expect("400 body is JSON");
    assert_eq!(v.get("fsd_version").and_then(|v| v.as_u64()), Some(1));
    assert!(
        v.get("error")
            .and_then(|e| e.as_str())
            .is_some_and(|e| e.contains("parse error")),
        "got: {body}"
    );

    // A valid JSON body that is not a valid request also gets the envelope.
    let empty = "{\"kernels\": []}";
    let (head, body) = server.raw(&format!(
        "POST / HTTP/1.1\r\nHost: fsd\r\nContent-Length: {}\r\n\r\n{empty}",
        empty.len()
    ));
    assert!(head.starts_with("HTTP/1.1 400"), "got: {head}");
    assert!(parse(body.trim()).unwrap().get("error").is_some());

    // An oversized request line must be refused, not buffered: the 8 KiB
    // line limit turns it into a 400 before the path is even parsed.
    let (head, _) = server.raw(&format!(
        "GET /{} HTTP/1.1\r\nHost: fsd\r\n\r\n",
        "a".repeat(16 * 1024)
    ));
    assert!(head.starts_with("HTTP/1.1 400"), "got: {head}");

    // An oversized header line is refused the same way.
    let (head, _) = server.raw(&format!(
        "GET /ping HTTP/1.1\r\nX-Junk: {}\r\n\r\n",
        "b".repeat(16 * 1024)
    ));
    assert!(head.starts_with("HTTP/1.1 400"), "got: {head}");

    // The server survives all of the above.
    let (head, body) = server.raw("GET /ping HTTP/1.1\r\nHost: fsd\r\n\r\n");
    assert!(head.starts_with("HTTP/1.1 200"), "got: {head}");
    assert!(body.contains("\"pong\""));
    server.stop();
}

/// One parsed Prometheus exposition sample: `(metric name, optional label
/// set, value)`.
struct PromSample {
    name: String,
    labels: Option<String>,
    value: f64,
}

/// A strict-enough text-format parser: every line must be a comment or a
/// `name[{labels}] value` sample with a legal metric name, every `# TYPE`
/// must declare a known type, and every sample must follow a `# TYPE` for
/// its family. Returns the samples in file order.
fn parse_prometheus(text: &str) -> Vec<PromSample> {
    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && !s.starts_with(|c: char| c.is_ascii_digit())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    let mut typed: Vec<String> = Vec::new();
    let mut samples = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix("# ") {
            if let Some(decl) = comment.strip_prefix("TYPE ") {
                let mut parts = decl.split_whitespace();
                let name = parts.next().expect("TYPE declares a name");
                let kind = parts.next().expect("TYPE declares a kind");
                assert!(valid_name(name), "bad metric name in: {line}");
                assert!(
                    ["counter", "gauge", "histogram", "summary", "untyped"].contains(&kind),
                    "unknown TYPE in: {line}"
                );
                typed.push(name.to_string());
            }
            continue;
        }
        let (name_part, value_part) = line.rsplit_once(' ').expect("sample has a value");
        let (name, labels) = match name_part.split_once('{') {
            Some((n, rest)) => {
                let labels = rest.strip_suffix('}').expect("labels close");
                (n.to_string(), Some(labels.to_string()))
            }
            None => (name_part.to_string(), None),
        };
        assert!(valid_name(&name), "bad metric name in: {line}");
        let value: f64 = value_part.parse().unwrap_or_else(|_| {
            panic!("unparseable value in: {line}");
        });
        // Histogram series suffix back to the declared family name.
        let family = ["_bucket", "_sum", "_count", "_total"]
            .iter()
            .find_map(|suf| name.strip_suffix(suf))
            .unwrap_or(&name);
        assert!(
            typed.contains(&name) || typed.contains(&family.to_string()),
            "sample before its # TYPE: {line}"
        );
        samples.push(PromSample {
            name,
            labels,
            value,
        });
    }
    samples
}

#[test]
fn http_metrics_endpoint_serves_parseable_prometheus_text() {
    let _obs = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::configure(obs::ObsConfig {
        spans: false,
        counters: true,
        ring: None,
    });
    let server = HttpServer::start();

    // Drive one analyze through the HTTP path so the request counter and
    // the latency histogram have something to say.
    let payload = analyze_request(&["@histogram"], false);
    let (head, _) = server.raw(&format!(
        "POST /analyze HTTP/1.1\r\nHost: fsd\r\nContent-Length: {}\r\n\r\n{payload}",
        payload.len()
    ));
    assert!(head.starts_with("HTTP/1.1 200"), "got: {head}");

    let (head, body) = server.raw("GET /metrics HTTP/1.1\r\nHost: fsd\r\n\r\n");
    assert!(head.starts_with("HTTP/1.1 200"), "got: {head}");
    assert!(
        head.contains("Content-Type: text/plain; version=0.0.4"),
        "got: {head}"
    );

    let samples = parse_prometheus(&body);
    let get = |name: &str, labels: Option<&str>| -> f64 {
        samples
            .iter()
            .find(|s| s.name == name && s.labels.as_deref() == labels)
            .unwrap_or_else(|| panic!("missing sample {name} {labels:?}"))
            .value
    };

    assert!(get("fsd_uptime_seconds", None) >= 0.0);
    // This daemon saw exactly one analyze; the process-wide obs counter
    // (shared with concurrently running tests) saw at least that one.
    assert_eq!(get("fsd_requests_total", Some("cmd=\"analyze\"")) as u64, 1);
    assert!(get("svc_requests_total", None) >= 1.0);

    // Histogram series are sound: ascending `le`, non-decreasing
    // cumulative counts, and `+Inf` == `_count`.
    for family in ["svc_request_ns", "fs_model_ns"] {
        let buckets: Vec<&PromSample> = samples
            .iter()
            .filter(|s| s.name == format!("{family}_bucket"))
            .collect();
        assert!(
            !buckets.is_empty(),
            "{family} exposes at least its +Inf bucket"
        );
        let mut last_le = f64::NEG_INFINITY;
        let mut last_cum = f64::NEG_INFINITY;
        for b in &buckets {
            let labels = b.labels.as_deref().expect("bucket has an le label");
            let le = labels
                .strip_prefix("le=\"")
                .and_then(|l| l.strip_suffix('"'))
                .expect("le label");
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse::<f64>().expect("numeric le")
            };
            assert!(le > last_le, "{family} le bounds out of order");
            assert!(b.value >= last_cum, "{family} cumulative counts decrease");
            last_le = le;
            last_cum = b.value;
        }
        assert_eq!(last_le, f64::INFINITY, "{family} ends with +Inf");
        assert_eq!(last_cum, get(&format!("{family}_count"), None));
    }
    // The daemon handled one request, so its latency histogram is live.
    assert!(get("svc_request_ns_count", None) >= 1.0);

    server.stop();
    obs::configure(obs::ObsConfig::disabled());
}

#[test]
fn ring_traced_daemon_survives_10k_requests_with_bounded_spans() {
    let _obs = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    const RING: usize = 256;
    obs::configure(obs::ObsConfig::ring(RING));
    obs::reset();

    let server = TestServer::start();
    let line = analyze_request(&["@histogram"], false);
    // One connection, 10k requests: the steady state an editor
    // integration produces against a `fsd --trace` daemon. With the
    // vector recorder this would accumulate ~10k span events; the ring
    // must hold memory constant at its capacity.
    let mut stream = server.connect();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut response = String::new();
    for i in 0..10_000 {
        writeln!(stream, "{line}").unwrap();
        response.clear();
        reader.read_line(&mut response).unwrap();
        assert!(
            response.contains("\"fsd_version\""),
            "request {i} got: {response}"
        );
    }

    let snap = obs::snapshot();
    assert!(
        snap.spans.len() <= RING,
        "ring overflowed: {} spans recorded, capacity {RING}",
        snap.spans.len()
    );
    assert!(
        snap.dropped_spans > 0,
        "10k requests must wrap a {RING}-event ring"
    );
    // The retained tail still exports as valid trace JSON.
    let trace = obs::trace::chrome_trace(&snap);
    assert!(parse(&trace).is_ok(), "chrome_trace invalid after wrap");

    server.stop();
    obs::configure(obs::ObsConfig::disabled());
}

#[test]
fn envelope_carries_request_id_and_timing_only_when_asked() {
    let server = TestServer::start();

    // Default: deterministic envelope, no request_id, no timing.
    let plain = server.round_trip(&analyze_request(&["@histogram"], true));
    let v = parse(plain.trim()).unwrap();
    assert!(v.get("request_id").is_none(), "got: {plain}");
    assert!(v.get("timing").is_none(), "got: {plain}");
    assert!(v.get("sweep_stats").is_none(), "got: {plain}");

    // timing:true opts into the nondeterministic fields.
    let line = "{\"kernels\": [\"@histogram\"], \
                \"grid\": {\"threads\": [2], \"chunks\": [1, 8]}, \
                \"timing\": true}";
    let timed = server.round_trip(line);
    let v = parse(timed.trim()).unwrap();
    assert!(
        v.get("request_id")
            .and_then(|r| r.as_u64())
            .is_some_and(|id| id >= 1),
        "got: {timed}"
    );
    let timing = v.get("timing").expect("timing present when asked");
    for field in ["total_ms", "resolve_ms", "analyze_ms", "grid_ms"] {
        assert!(timing.get(field).is_some(), "timing lacks {field}: {timed}");
    }
    // The cache tallies in timing agree with the envelope's sweep memo:
    // run 2 of the same grid is pure hits.
    let timed2 = server.round_trip(line);
    let v2 = parse(timed2.trim()).unwrap();
    let hits = v2
        .get("timing")
        .and_then(|t| t.get("cache_hits"))
        .and_then(|h| h.as_u64())
        .unwrap();
    assert!(
        hits >= 2,
        "warm grid rerun reports cache hits, got: {timed2}"
    );

    // Ids are fresh per request.
    let id1 = v.get("request_id").and_then(|r| r.as_u64()).unwrap();
    let id2 = v2.get("request_id").and_then(|r| r.as_u64()).unwrap();
    assert!(id2 > id1, "request ids must be monotonic: {id1} then {id2}");
    server.stop();
}

#[test]
fn stats_and_metrics_commands_report_uptime_and_tallies() {
    let server = TestServer::start();
    server.round_trip("{\"cmd\": \"ping\"}");
    server.round_trip("{\"cmd\": \"ping\"}");

    let stats = parse(server.round_trip("{\"cmd\": \"stats\"}").trim()).unwrap();
    assert!(stats
        .get("uptime_s")
        .and_then(|u| u.as_f64())
        .is_some_and(|u| u >= 0.0));
    let commands = stats.get("commands").expect("per-command tallies");
    assert_eq!(commands.get("ping").and_then(|p| p.as_u64()), Some(2));
    // The tally is bumped before dispatch, so stats counts itself.
    assert_eq!(commands.get("stats").and_then(|s| s.as_u64()), Some(1));
    assert_eq!(commands.get("analyze").and_then(|a| a.as_u64()), Some(0));
    // Latency quantiles ride along even with obs disabled (count 0 then).
    assert!(stats.get("latency").and_then(|l| l.get("count")).is_some());

    let metrics = parse(server.round_trip("{\"cmd\": \"metrics\"}").trim()).unwrap();
    assert_eq!(
        metrics.get("event").and_then(|e| e.as_str()),
        Some("metrics")
    );
    assert!(metrics.get("uptime_s").is_some());
    assert_eq!(
        metrics
            .get("commands")
            .and_then(|c| c.get("metrics"))
            .and_then(|m| m.as_u64()),
        Some(1),
        "the metrics command counts itself"
    );
    let registry = metrics.get("metrics").expect("registry snapshot");
    for section in ["counters", "gauges", "hists", "spans"] {
        assert!(registry.get(section).is_some(), "registry lacks {section}");
    }
    assert!(registry
        .get("hists")
        .and_then(|h| h.get("svc.request_ns"))
        .is_some());
    server.stop();
}

/// How long an accept loop may take to return after shutdown.
const WAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// Run an accept loop on a thread that reports its result through a
/// channel, so a loop that never wakes fails the test instead of hanging it.
fn serve_in_background(
    serve: impl FnOnce() -> io::Result<()> + Send + 'static,
) -> mpsc::Receiver<io::Result<()>> {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(serve());
    });
    rx
}

fn assert_stopped(served: &mpsc::Receiver<io::Result<()>>, what: &str) {
    match served.recv_timeout(WAKE_TIMEOUT) {
        Ok(result) => result.unwrap_or_else(|e| panic!("{what} failed: {e}")),
        Err(_) => panic!("{what} still blocked {WAKE_TIMEOUT:?} after shutdown"),
    }
}

#[test]
fn shutdown_wakes_idle_accept_loops() {
    let unix_daemon = Arc::new(Daemon::new(None));
    let path = temp_socket_path();
    let listener = bind_unix(&path).unwrap();
    let server = Arc::clone(&unix_daemon);
    let unix_loop = serve_in_background(move || server.serve_unix(listener));

    let http_daemon = Arc::new(Daemon::new(None));
    let tcp = TcpListener::bind("127.0.0.1:0").unwrap();
    let server = Arc::clone(&http_daemon);
    let http_loop = serve_in_background(move || server.serve_http(tcp));

    // No client ever connects: both loops sit blocked in accept.
    thread::sleep(Duration::from_millis(100));
    unix_daemon.request_shutdown();
    assert_stopped(&unix_loop, "idle serve_unix");
    http_daemon.request_shutdown();
    assert_stopped(&http_loop, "idle serve_http");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn socket_shutdown_stops_both_loops_of_one_daemon() {
    // The `fsd` layout: one daemon serving the Unix socket and the HTTP
    // fallback, here on a wildcard address so the wake goes to loopback.
    let daemon = Arc::new(Daemon::new(None));
    let path = temp_socket_path();
    let listener = bind_unix(&path).unwrap();
    let server = Arc::clone(&daemon);
    let unix_loop = serve_in_background(move || server.serve_unix(listener));
    let tcp = TcpListener::bind("0.0.0.0:0").unwrap();
    let server = Arc::clone(&daemon);
    let http_loop = serve_in_background(move || server.serve_http(tcp));

    let mut stream = UnixStream::connect(&path).unwrap();
    writeln!(stream, "{{\"cmd\": \"shutdown\"}}").unwrap();
    assert_stopped(&unix_loop, "serve_unix");
    assert_stopped(&http_loop, "serve_http");
    // `fsd` exits as soon as its loops return, so the acknowledgement must
    // already be on the wire by then.
    stream.set_nonblocking(true).unwrap();
    let mut ack = String::new();
    BufReader::new(stream).read_line(&mut ack).unwrap();
    assert!(ack.contains("\"shutdown\""), "got: {ack}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn oversized_grid_team_gets_an_error_envelope_and_the_connection_survives() {
    let server = TestServer::start();
    let mut stream = server.connect();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    // One point used to trip the model's assert on the connection thread;
    // two points killed the pool workers first.
    for threads in ["[65]", "[65, 66]"] {
        writeln!(
            stream,
            "{{\"kernels\": [\"@histogram\"], \
             \"grid\": {{\"threads\": {threads}, \"chunks\": [1]}}}}"
        )
        .unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        let v = parse(line.trim()).unwrap();
        let errors: Vec<&str> = v
            .get("errors")
            .and_then(|e| e.as_arr())
            .map(|e| e.iter().filter_map(|m| m.as_str()).collect())
            .unwrap_or_default();
        assert!(
            errors
                .iter()
                .any(|e| e.starts_with("sweep grid: ") && e.contains("65")),
            "threads {threads} got: {line}"
        );
    }
    writeln!(stream, "{{\"cmd\": \"ping\"}}").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"pong\""), "got: {line}");
    server.stop();
}
