#!/usr/bin/env python3
"""Round-trip smoke test for a running `fsd` daemon (stdlib only).

Starts nothing itself: point it at a live daemon's socket. Sends a ping, a
cold analyze+grid request over the bundled corpus, the same request again
(which must be served warm), the same request a third time spelled with
`"path": "optimized"` (the other name of the default fast path, so it
must share the cache entries: all hits, same results), and a stats query;
verifies the envelope shape, that the analysis responses are
byte-identical modulo the memo tallies (runs 2 and 3 all hits), and that
the cache reports zero evictions-free growth anomalies. Exits non-zero on
any violation.

When the daemon also serves the HTTP fallback, pass its address as a
second argument: the script then scrapes `GET /metrics` before and after
the round trips, checks the Prometheus text exposition parses, and
asserts the request counters actually moved.

Usage: fsd_smoke.py SOCKET_PATH [HTTP_HOST:PORT]
"""

import json
import socket
import sys
import urllib.request


def round_trip(path: str, request: dict) -> dict:
    """One NDJSON request/response exchange on a fresh connection."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(60)
        s.connect(path)
        s.sendall((json.dumps(request) + "\n").encode())
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = s.recv(65536)
            if not chunk:
                break
            buf += chunk
    return json.loads(buf)


def scrape_metrics(addr: str) -> dict:
    """GET /metrics and parse the Prometheus text exposition into
    {(metric name, label string or None): float}, validating the format
    line by line."""
    with urllib.request.urlopen(f"http://{addr}/metrics", timeout=60) as resp:
        assert resp.status == 200, resp.status
        ctype = resp.headers.get("Content-Type", "")
        assert ctype.startswith("text/plain"), f"bad content type: {ctype}"
        text = resp.read().decode()

    samples = {}
    typed = set()
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith("# TYPE "):
                name, kind = line[len("# TYPE "):].split()
                assert kind in {"counter", "gauge", "histogram"}, line
                typed.add(name)
            continue
        name_part, _, value = line.rpartition(" ")
        labels = None
        if "{" in name_part:
            name, _, labels = name_part.partition("{")
            assert labels.endswith("}"), line
            labels = labels[:-1]
        else:
            name = name_part
        assert name.replace("_", "").replace(":", "").isalnum(), line
        family = name
        for suffix in ("_bucket", "_sum", "_count", "_total"):
            if name.endswith(suffix):
                family = name[: -len(suffix)]
                break
        assert name in typed or family in typed, f"sample before # TYPE: {line}"
        samples[(name, labels)] = float(value)
    assert samples, "empty exposition"
    return samples


def main() -> int:
    if len(sys.argv) not in (2, 3):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    path = sys.argv[1]
    http_addr = sys.argv[2] if len(sys.argv) == 3 else None

    pong = round_trip(path, {"cmd": "ping"})
    assert pong["fsd_version"] == 1, pong
    assert pong["event"] == "pong", pong

    before = scrape_metrics(http_addr) if http_addr else None

    request = {
        "kernels": ["@histogram", "@stencil", "@dft"],
        "grid": {"threads": [2, 4], "chunks": [1, 8]},
    }
    cold = round_trip(path, request)
    assert cold["fsd_version"] == 1, "missing version stamp"
    assert not cold["errors"], f"corpus analysis failed: {cold['errors']}"
    assert len(cold["reports"]) == 3, cold["reports"]
    for report in cold["reports"]:
        assert "report" in report and "lint" in report, report

    warm = round_trip(path, request)
    grid = warm["sweep_grid"]
    assert grid["memo_misses"] == 0, (
        f"warm run recomputed {grid['memo_misses']} points - cache not shared"
    )
    assert grid["results"] == cold["sweep_grid"]["results"], (
        "warm grid results diverge from cold run"
    )

    optimized = round_trip(path, {**request, "path": "optimized"})
    fast = optimized["sweep_grid"]
    assert fast["memo_misses"] == 0, (
        f'"path": "optimized" recomputed {fast["memo_misses"]} points - '
        "the fast path spellings do not share the cache"
    )
    assert fast["results"] == cold["sweep_grid"]["results"], (
        '"path": "optimized" grid results diverge from cold run'
    )

    stats = round_trip(path, {"cmd": "stats"})
    cache = stats["cache"]
    assert cache["entries"] > 0 and cache["bytes"] > 0, cache
    assert cache["hits"] > 0, "no recorded cache hits after a warm run"
    assert stats["uptime_s"] >= 0, stats
    assert stats["commands"]["analyze"] >= 3, stats["commands"]

    scraped = ""
    if http_addr:
        after = scrape_metrics(http_addr)
        # The two analyze round trips must show up in both the
        # obs-registry counter and the daemon's per-command tally.
        for key in (("svc_requests_total", None),
                    ("fsd_requests_total", 'cmd="analyze"')):
            delta = after[key] - before.get(key, 0.0)
            assert delta >= 2, f"{key} moved by {delta}, expected >= 2"
        # Histogram sanity: +Inf cumulative == _count.
        inf = after[("svc_request_ns_bucket", 'le="+Inf"')]
        assert inf == after[("svc_request_ns_count", None)], after
        scraped = f", /metrics OK ({len(after)} samples)"

    print(
        f"fsd smoke OK: {len(cold['reports'])} kernels, "
        f"{grid['points']} grid points warm-served, "
        f"cache {cache['entries']} entries / {cache['bytes']} bytes "
        f"({cache['hits']} hits, {cache['misses']} misses){scraped}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
