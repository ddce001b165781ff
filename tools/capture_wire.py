#!/usr/bin/env python3
"""Capture the front door's wire bytes, to compare two trees.

``python tools/capture_wire.py SRC > capture.json`` spawns ``python -m
repro.runtime.server`` from ``SRC`` (a ``src`` directory) twice — an inline
2-worker pool with a fixed budget, and one with ``--max-inflight 0`` so
every call is shed — and sends each a fixed sequence of raw NDJSON lines and
HTTP requests, one connection per case, reading every reply to EOF.  The
reply bytes are recorded verbatim, except for the six telemetry cases
(``stats``, ``metrics``, ``slow`` on both doors), whose timing-valued fields
are masked first.

``python tools/capture_wire.py --diff A.json B.json`` lists the cases whose
bytes differ and exits 1 if there are any.  A change that is meant to keep
the wire is checked by capturing its parent and itself and diffing the two.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import socket
import subprocess
import sys
from typing import Any, Dict, List, Tuple

REQUEST = {"app": "search", "n_threads": 2, "seed": 1}
OTHER = {"app": "murmur3", "n_threads": 2, "seed": 0}
BAD = {"app": "no-such-app"}
#: Wrong-typed fields.  Each once left its entry queued in the dispatcher and
#: wedged ``request``/``batch`` on both doors for every later client.  The
#: last is well typed but names a ``backend``: the stack serves one target, so
#: it is refused as an unknown field (it was served while there were four).
POISON = [
    {"app": ["search"]},
    {"app": {"name": "search"}},
    {"app": "search", "options": {"verify_each": [1]}},
    {"source": ["x"]},
    {"app": "search", "n_threads": 0},
    {"app": "search", "n_threads": "8"},
    {"app": "search", "backend": "vrda"},
]


def _line(payload: Any) -> bytes:
    return json.dumps(payload).encode("utf-8") + b"\n"


def _http(method: str, path: str, body: Any = None, version: str = "1.1",
          headers: Tuple[str, ...] = ()) -> bytes:
    data = b"" if body is None else (
        body if isinstance(body, bytes) else json.dumps(body).encode("utf-8")
    )
    lines = [f"{method} {path} HTTP/{version}", *headers]
    if body is not None:
        lines.append(f"Content-Length: {len(data)}")
    return "\r\n".join(lines).encode("ascii") + b"\r\n\r\n" + data


#: (case, door, raw bytes) against the server with a fixed budget of 64.
SERVING_CASES: List[Tuple[str, str, bytes]] = [
    ("ndjson ping", "ndjson", _line({"op": "ping"})),
    ("ndjson request", "ndjson", _line(dict(REQUEST, op="request"))),
    ("ndjson bare request", "ndjson", _line(OTHER)),
    ("ndjson batch", "ndjson",
     _line({"op": "batch", "requests": [REQUEST, BAD, OTHER]})),
    ("ndjson empty batch", "ndjson", _line({"op": "batch", "requests": []})),
    ("ndjson batch without a list", "ndjson", _line({"op": "batch"})),
    ("ndjson bad JSON", "ndjson", b"{not json\n"),
    ("ndjson non-object line", "ndjson", b"[1, 2]\n"),
    ("ndjson unknown op", "ndjson", _line({"op": "frobnicate"})),
    ("ndjson non-string ops", "ndjson",
     _line({"op": []}) + _line({"op": {"a": 1}}) + _line({"op": None})
     + _line({"op": 7}) + _line({"op": "ping"})),
    ("http healthz", "http", _http("GET", "/healthz")),
    ("http healthz 1.0", "http", _http("GET", "/healthz", version="1.0")),
    ("http request", "http", _http("POST", "/v1/request", REQUEST)),
    ("http request not an object", "http", _http("POST", "/v1/request", [1])),
    ("http batch object", "http",
     _http("POST", "/v1/batch", {"requests": [REQUEST, BAD, OTHER]})),
    ("http batch bare list", "http", _http("POST", "/v1/batch", [REQUEST, OTHER])),
    ("http batch empty", "http", _http("POST", "/v1/batch", [])),
    ("http batch no list", "http", _http("POST", "/v1/batch", {"requests": 3})),
    ("http stream", "http",
     _http("POST", "/v1/stream", {"requests": [REQUEST, BAD, OTHER], "chunk": 2})),
    ("http stream keep-alive", "http",
     _http("POST", "/v1/stream", [REQUEST, OTHER]) + _http("GET", "/healthz")),
    ("http stream empty", "http", _http("POST", "/v1/stream", [])),
    ("http 400 bad JSON", "http", _http("POST", "/v1/request", b"{not json")),
    ("http 400 bad chunk", "http",
     _http("POST", "/v1/stream", {"requests": [REQUEST], "chunk": 0})),
    ("http 400 malformed request line", "http", b"NOT-HTTP\r\n\r\n"),
    ("http 400 header too long", "http",
     b"GET /" + b"a" * 70000 + b" HTTP/1.1\r\n\r\n"),
    ("http 400 too many headers", "http",
     _http("GET", "/healthz", headers=tuple(f"X-{i}: 1" for i in range(101)))),
    ("http 400 transfer-encoding", "http",
     _http("POST", "/v1/request", headers=("Transfer-Encoding: chunked",))),
    ("http 404", "http", _http("GET", "/nope")),
    ("http 405", "http", _http("GET", "/v1/request")),
    ("http 413", "http",
     _http("POST", "/v1/batch", headers=("Content-Length: 5000000",))),
    # Bytes that are not UTF-8 fail past the JSON-syntax check: a 500.
    ("http 500", "http", _http("POST", "/v1/request", b'{"app": "\xff"}')),
    # Last, so the ids of the cases above compare against older captures.
    ("ndjson wrong-typed fields then a good request", "ndjson",
     b"".join(_line(payload) for payload in POISON) + _line(REQUEST)),
    ("http wrong-typed fields then a good request", "http",
     _http("POST", "/v1/batch", POISON + [REQUEST])
     + _http("POST", "/v1/request", REQUEST)),
]

#: Telemetry cases: decoded and masked (see :func:`_mask`), not hashed raw.
TELEMETRY_CASES: List[Tuple[str, str, bytes]] = [
    ("ndjson stats", "ndjson", _line({"op": "stats"})),
    ("http stats", "http", _http("GET", "/v1/stats")),
    ("ndjson metrics", "ndjson", _line({"op": "metrics"})),
    ("http metrics", "http", _http("GET", "/metrics")),
    ("ndjson slow", "ndjson", _line({"op": "slow"})),
    ("http slow", "http", _http("GET", "/v1/slow")),
]

#: Against the server whose budget is zero: every call is shed.
SHED_CASES: List[Tuple[str, str, bytes]] = [
    ("ndjson shed request", "ndjson", _line(REQUEST)),
    ("ndjson shed batch", "ndjson", _line({"op": "batch", "requests": [REQUEST, OTHER]})),
    ("http 429 request", "http", _http("POST", "/v1/request", REQUEST)),
    ("http 429 batch", "http", _http("POST", "/v1/batch", [REQUEST, OTHER])),
    ("http stream inline 429 lines", "http",
     _http("POST", "/v1/stream", {"requests": [REQUEST, OTHER, BAD], "chunk": 2})),
]

SHUTDOWN = ("ndjson shutdown", "ndjson", _line({"op": "shutdown"}))

#: What bench/ reads off the front door; the telemetry cases must carry it.
FROZEN_STATS_FIELDS = (
    "shed",
    "pool.workers",
    "pool.faults.worker_restarts",
    "pool.faults.replayed_batches",
    "pool.program_cache.hits",
    "pool.program_cache.misses",
    "pool.result_cache.hits",
    "pool.result_cache.misses",
)
FROZEN_FAMILIES = (
    "frontdoor_queue_wait_seconds_sum",
    "frontdoor_queue_wait_seconds_count",
)


def _exchange(address: Tuple[str, int], data: bytes) -> bytes:
    """Send, half-close, read to EOF (a reset ends the reply too)."""
    with socket.create_connection(address, timeout=60.0) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        reply = b""
        try:
            while chunk := sock.recv(65536):
                reply += chunk
        except ConnectionResetError:
            pass
        return reply


def _mask(value: Any) -> Any:
    """Replace measured durations and rates by ``"~"``, recursively."""
    if isinstance(value, list):
        return [_mask(item) for item in value]
    if not isinstance(value, dict):
        return value
    return {
        key: "~" if key.endswith(("_s", "_rps")) and not isinstance(item, (dict, list))
        else _mask(item)
        for key, item in value.items()
    }


_TIMED_SAMPLE = re.compile(r"(seconds|_rps|_rate|imbalance)")


def _mask_metrics(text: str) -> List[str]:
    """The exposition with the value of every timing-valued sample masked."""
    lines = []
    for line in text.splitlines():
        name = line.split("{", 1)[0].split(" ", 1)[0]
        timed = _TIMED_SAMPLE.search(name) and not name.endswith("_count")
        if line.startswith("#") or not timed:
            lines.append(line)
        else:
            lines.append(line.rsplit(" ", 1)[0] + " ~")
    return lines


def _telemetry(case: str, door: str, reply: bytes) -> Dict[str, Any]:
    head = ""
    if door == "http":
        raw_head, _, reply = reply.partition(b"\r\n\r\n")
        head = re.sub(r"Content-Length: \d+", "Content-Length: ~", raw_head.decode())
    if case == "http metrics":
        return {"head": head, "masked": _mask_metrics(reply.decode("utf-8"))}
    payload = json.loads(reply)
    if case == "ndjson metrics":
        payload["text"] = _mask_metrics(payload["text"])
    if "slowest" in payload:
        # The ring orders by measured duration; compare it as a set.
        payload["slowest"] = sorted(
            (_mask(entry) for entry in payload["slowest"]), key=json.dumps
        )
    return {"head": head, "masked": _mask(payload)}


def _check_frozen(captured: Dict[str, Any]) -> None:
    for case in ("ndjson stats", "http stats"):
        stats = captured[case]["masked"]
        for dotted in FROZEN_STATS_FIELDS:
            node = stats
            for part in dotted.split("."):
                assert part in node, f"{case}: missing '{dotted}'"
                node = node[part]
        for worker in stats["pool"]["workers"]:
            assert {"requests", "busy_s"} <= set(worker), f"{case}: worker fields"
    for case, text in (
        ("ndjson metrics", captured["ndjson metrics"]["masked"]["text"]),
        ("http metrics", captured["http metrics"]["masked"]),
    ):
        names = {line.split("{", 1)[0].split(" ", 1)[0] for line in text}
        for family in FROZEN_FAMILIES:
            assert family in names, f"{case}: missing {family}"


def _spawn(src: str, extra: List[str]):
    env = dict(os.environ, PYTHONPATH=src)
    command = [sys.executable, "-m", "repro.runtime.server", "--workers", "2",
               "--pool-mode", "inline", "--http-port", "0", *extra]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, env=env, text=True)
    doors = {}
    for door in ("ndjson", "http"):
        host, _, port = process.stdout.readline().split()[-1].rpartition(":")
        doors[door] = (host, int(port))
    return process, doors


def capture(src: str) -> Dict[str, Any]:
    """Run every case against servers spawned from ``src``."""
    captured: Dict[str, Any] = {}
    for extra, cases in (
        (["--max-inflight", "64"], SERVING_CASES + TELEMETRY_CASES),
        (["--max-inflight", "0"], SHED_CASES),
    ):
        process, doors = _spawn(src, extra)
        try:
            for case, door, data in cases + [SHUTDOWN]:
                reply = _exchange(doors[door], data)
                if (case, door, data) in TELEMETRY_CASES:
                    captured[case] = _telemetry(case, door, reply)
                else:
                    captured[case] = {
                        "sha256": hashlib.sha256(reply).hexdigest(),
                        "raw": reply.decode("latin-1"),
                    }
            captured[f"exit code ({' '.join(extra)})"] = process.wait(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
    _check_frozen(captured)
    return captured


def diff(path_a: str, path_b: str) -> int:
    """Print the cases that differ between two captures; 1 if any do."""
    with open(path_a) as handle_a, open(path_b) as handle_b:
        a, b = json.load(handle_a), json.load(handle_b)
    # Serialised, so that key order counts as well.
    differing = [
        case
        for case in sorted(set(a) | set(b))
        if json.dumps(a.get(case)) != json.dumps(b.get(case))
    ]
    for case in differing:
        print(f"DIFFERS: {case}\n  A: {a.get(case)!r:.2000}\n  B: {b.get(case)!r:.2000}")
    print(f"{len(a)} / {len(b)} cases, {len(differing)} differ")
    return 1 if differing else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="?", help="the src/ directory to serve from")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    if args.diff:
        return diff(*args.diff)
    if not args.src:
        parser.error("give a src directory, or --diff A B")
    json.dump(capture(args.src), sys.stdout, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
