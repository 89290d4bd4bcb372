"""The ``serve_mixed`` workload: a real server under a seeded request mix.

One ``python -m repro.experiments serve --port 0`` subprocess (or, for
the traced run, ``serve_launcher.py``) with an empty cache directory is
driven from this process over keep-alive connections:

1. warm-up (untimed): every hot-set point once, so memo entries exist and
   each node's engine is built before timing;
2. open loop: Poisson arrivals at the fixed rate ``RATE_RPS`` over
   ``CONNECTIONS`` connections for a third of ``--seconds``.  A request
   is timed from when it was due, so a stall also delays the requests
   queued behind it; how late the generator sent each request is its
   lag.  These latencies are reported in the detail line and the traced
   run, not as end-to-end metrics: on 2 shared cores their median moved
   between 1.5 and 5.7 ms at a fixed rate as the machine's speed
   changed;
3. closed loop: one connection replays a fixed seeded list of
   ``CLOSED_PER_SECOND * --seconds`` requests, sending each when the
   previous one returns.  ``p50_ms`` and ``p99_ms`` are its per-request
   latencies.  With two connections the median request, a memo hit,
   read 1.3 ms in some runs and 3.5-3.9 ms in others, depending on
   whether the other connection's solve held the interpreter lock, so
   the closed loop has one client.  The list runs as ``CLOSED_CHUNKS``
   consecutive chunks; the capacity is the median over chunks of
   requests divided by elapsed time, and ``wall_s`` the list's length
   divided by that capacity, which keeps a short stall of the machine
   out of both.

The mix has fixed shares (``MIX``): hot-set single points (memo hits),
cold single points, cold 8-point batches and cold 16-point
``signoff_sweep`` requests, over the four nodes and 0.45-1.0 V on the
paper architecture.  Cold points are never repeated within a run.  Tail
queries are left out: one takes minutes.

After the server stops, each answered request's own ``values_hex``
are compared bit for bit with an in-process
``ChipDelayEngine.chip_quantile_batch(..., cluster=False)`` of its
points, so a memo hit is checked as strictly as the solve that filled
the memo.  A non-2xx response, a transport error, a response later than
``DEADLINE_S`` after its due time, a wrong value and a value count that
differs from the points asked each count as a failed request, and a
failed request counts as ``DEADLINE_S`` of latency in the percentiles.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time

import layers
from common import (HERE, ROOT, SETUP_SAMPLES, BenchError, child_env,
                    nearest_rank, wait_or_kill)

#: Open-loop arrival rate: about half the closed-loop capacity of the
#: commit that defined the benchmark at its slowest (70-130 req/s on 2
#: shared cores).  Fixed, so every commit sees the same offered load.
RATE_RPS = 35.0
#: Share of ``--seconds`` spent in the open loop.
OPEN_SHARE = 1 / 3
#: Closed-loop list length per second of ``--seconds``.
CLOSED_PER_SECOND = 60
#: Open-loop connections.
CONNECTIONS = 2
CLOSED_CHUNKS = 9
#: ``(kind, share)`` of the request mix.
MIX = (("hot", 0.60), ("single", 0.25), ("batch", 0.10), ("sweep", 0.05))
POINTS = {"hot": 1, "single": 1, "batch": 8, "sweep": 16}
HOT_SET = 16
NODES = ("90nm", "45nm", "32nm", "22nm")
VDD_RANGE = (0.45, 1.0)
Q = 0.99
#: The paper architecture (the server's defaults, stated explicitly).
ARCH = {"width": 128, "paths_per_lane": 100, "chain_length": 50}
#: A response later than this after its due time is a failed request.
DEADLINE_S = 5.0
#: Per-request socket timeout.
SOCKET_TIMEOUT_S = 30.0
#: A server not ready this long after its spawn is killed.
READY_TIMEOUT_S = 60.0

_LISTEN_RE = re.compile(r"\[serve\] listening on ([\d.]+):(\d+)")


# -- request mix --------------------------------------------------------------

class Mix:
    """Seeded request generator; cold points are unique per node."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.used = {node: set() for node in NODES}
        self.hot = [(self.rng.choice(NODES), self._cold_vdds(1)[0])
                    for _ in range(HOT_SET)]
        for node, vdd in self.hot:
            self.used[node].add(vdd)

    def _cold_vdds(self, n: int, node: str | None = None) -> list:
        out: list = []
        while len(out) < n:
            vdd = round(self.rng.uniform(*VDD_RANGE), 6)
            if node is None or (vdd not in self.used[node]
                                and vdd not in out):
                out.append(vdd)
        if node is not None:
            self.used[node].update(out)
        return out

    def requests(self, n: int) -> list:
        """``n`` requests ``(kind, node, vdds)`` in the fixed shares."""
        counts = {kind: round(share * n) for kind, share in MIX[1:]}
        counts["hot"] = n - sum(counts.values())
        kinds = [k for k, c in counts.items() for _ in range(c)]
        self.rng.shuffle(kinds)
        out = []
        for kind in kinds:
            if kind == "hot":
                node, vdd = self.rng.choice(self.hot)
                out.append((kind, node, [vdd]))
            else:
                node = self.rng.choice(NODES)
                vdds = self._cold_vdds(POINTS[kind], node)
                out.append((kind, node, sorted(vdds)))
        return out


# -- server process -----------------------------------------------------------

class Server:
    """A server subprocess with its own empty cache directory."""

    def __init__(self, run, *, traced: bool) -> None:
        self.cache = run.fresh_cache()
        self.spans_out = run.path("server-spans.json") if traced else None
        if traced:
            cmd = [sys.executable, str(HERE / "serve_launcher.py"),
                   "--spans-out", str(self.spans_out)]
        else:
            cmd = [sys.executable, "-m", "repro.experiments", "serve",
                   "--port", "0"]
        env = child_env(self.cache)
        self.lines: list = []
        start = time.monotonic()
        if traced:
            cmd += ["--spawned-at", repr(start)]
        self.proc = subprocess.Popen(
            cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, start_new_session=True)
        # A server that never gets ready is killed, which also ends the
        # blocking read of its output.
        watchdog = threading.Timer(READY_TIMEOUT_S, self._kill)
        watchdog.start()
        try:
            self._wait_ready()
        except BaseException:
            self._kill()
            self.proc.wait()
            raise
        finally:
            watchdog.cancel()
        self.setup_s = time.monotonic() - start

    def _kill(self) -> None:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(self.proc.pid, signal.SIGKILL)

    def _wait_ready(self) -> None:
        """Read the announced port, then poll ``/readyz`` until 200."""
        self.port = None
        for line in self.proc.stdout:
            self.lines.append(line)
            m = _LISTEN_RE.search(line)
            if m:
                self.port = int(m.group(2))
                break
        if self.port is None:
            raise BenchError("server exited before listening:\n"
                             + "".join(self.lines)[-2000:])
        self._drain = threading.Thread(target=self._read_rest, daemon=True)
        self._drain.start()
        conn = Connection(self.port)
        try:
            while conn.call("GET", "/readyz")[0] != 200:
                time.sleep(0.005)
        finally:
            conn.close()

    def _read_rest(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line)

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process (Linux ``/proc``)."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def stop(self) -> dict | None:
        """SIGTERM, wait for the drain; the launcher's spans if traced."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            rc = wait_or_kill(self.proc, 60, "server drain")
        finally:
            self._drain.join(timeout=10)
        if rc != 0:
            raise BenchError(f"server exited {rc}:\n"
                             + "".join(self.lines)[-2000:])
        if self.spans_out is not None:
            return json.loads(self.spans_out.read_text())
        return None


# -- load generation ----------------------------------------------------------

class Connection:
    """One keep-alive HTTP connection to the server.

    The benchmark's own client, so the load generator stays the same
    whatever the program's client library does.  ``http.client``
    reconnects on the next call after a failed one.
    """

    def __init__(self, port: int) -> None:
        self._conn = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=SOCKET_TIMEOUT_S)

    def call(self, method: str, path: str, payload=None):
        """``(status, parsed JSON body)``; transport errors raise."""
        body = None if payload is None else json.dumps(payload).encode()
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            self._conn.request(method, path, body=body, headers=headers)
            resp = self._conn.getresponse()
            data = resp.read()
        except (http.client.HTTPException, OSError):
            self._conn.close()
            raise
        return resp.status, json.loads(data or b"null")

    def send(self, request) -> list:
        """One mix request -> its ``values_hex``; failures raise."""
        kind, node, vdds = request
        payload = dict(node=node, vdd=vdds if len(vdds) > 1 else vdds[0],
                       q=Q, **ARCH)
        path = "/v1/signoff_sweep" if kind == "sweep" else "/v1/query"
        status, body = self.call("POST", path, payload)
        if status != 200:
            raise BenchError(f"HTTP {status}: {body}")
        hexes = body.get("values_hex") if isinstance(body, dict) else None
        if not isinstance(hexes, list):
            raise BenchError(f"no values_hex list in {body}")
        return hexes

    def close(self) -> None:
        self._conn.close()


def drive(port: int, requests: list, dues: list | None,
          connections: int) -> list:
    """Send ``requests`` over ``connections`` connections.

    With ``dues`` (offsets in seconds from a start 50 ms ahead, so every
    connection's thread is running by then) each request waits for its
    due time (open loop); without, connections send back to back from
    the start (closed loop).  Returns one record per request: ``(due,
    sent, done, hexes, error)`` in absolute ``perf_counter`` seconds.
    """
    records: list = [None] * len(requests)
    lock = threading.Lock()
    cursor = iter(range(len(requests)))
    t0 = time.perf_counter() + (0.05 if dues is not None else 0.0)
    errors: list = []

    def worker() -> None:
        conn = Connection(port)
        try:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                due = t0 + (dues[i] if dues is not None else 0.0)
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                if dues is None:
                    due = sent
                try:
                    hexes, error = conn.send(requests[i]), None
                except (BenchError, http.client.HTTPException, OSError,
                        ValueError) as exc:     # counted as a failure
                    hexes, error = None, f"{type(exc).__name__}: {exc}"
                records[i] = (due, sent, time.perf_counter(), hexes, error)
        except BaseException as exc:
            errors.append(exc)
            raise
        finally:
            conn.close()

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise BenchError(f"load generator failed: {errors[0]!r}")
    return records


def poisson_offsets(rng: random.Random, seconds: float) -> list:
    out, t = [], rng.expovariate(RATE_RPS)
    while t < seconds:
        out.append(t)
        t += rng.expovariate(RATE_RPS)
    return out


# -- checks -------------------------------------------------------------------

def verify(answered: list) -> dict:
    """``{index: reason}`` of the answered requests whose values differ,
    bit for bit, from an in-process invariant batch solve of their
    points, or whose value count differs from their point count.

    ``answered`` is a list of ``(request, hexes)``; each request is
    checked against its own response.
    """
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from repro.core.chip_delay import ChipDelayEngine
    from repro.devices.technology import get_technology

    points: dict = {node: set() for node in NODES}
    for (kind, node, vdds), hexes in answered:
        points[node].update(vdds)
    direct: dict = {}
    for node, vdds in points.items():
        if not vdds:
            continue
        vdds = sorted(vdds)
        engine = ChipDelayEngine(get_technology(node), **ARCH)
        values = engine.chip_quantile_batch(np.array(vdds), Q, 0.0,
                                            cluster=False)
        for vdd, want in zip(vdds, np.atleast_1d(values).tolist()):
            direct[node, vdd] = float(want).hex()
    wrong = {}
    for i, ((kind, node, vdds), hexes) in enumerate(answered):
        if len(hexes) != len(vdds):
            wrong[i] = f"{len(hexes)} values for {len(vdds)} points"
            continue
        bad = [vdd for vdd, h in zip(vdds, hexes) if h != direct[node, vdd]]
        if bad:
            wrong[i] = f"value at vdd {bad} differs from the direct solve"
    return wrong


def _failed(record) -> bool:
    due, _, done, hexes, error = record
    return error is not None or done - due > DEADLINE_S


def _latencies_ms(records) -> list:
    return [1e3 * (DEADLINE_S if _failed(r) else r[2] - r[0])
            for r in records]


# -- one server lifetime ------------------------------------------------------

def serve_once(run, seed: int, seconds: float, *, traced: bool) -> dict:
    mix = Mix(seed)
    offsets = poisson_offsets(mix.rng, OPEN_SHARE * seconds)
    open_requests = mix.requests(len(offsets))
    closed_requests = mix.requests(
        max(CLOSED_CHUNKS, round(CLOSED_PER_SECOND * seconds)))
    warmup = [("hot", node, [vdd]) for node, vdd in mix.hot]

    server = Server(run, traced=traced)
    try:
        warmup_records = drive(server.port, warmup, None, CONNECTIONS)
        open_records = drive(server.port, open_requests, offsets,
                             CONNECTIONS)
        closed_records, chunk_rps = [], []
        size = -(-len(closed_requests) // CLOSED_CHUNKS)
        for i in range(0, len(closed_requests), size):
            chunk = closed_requests[i:i + size]
            records = drive(server.port, chunk, None, 1)
            chunk_rps.append(len(chunk) / (max(r[2] for r in records)
                                           - min(r[1] for r in records)))
            closed_records += records
        registry = None
        if traced:
            conn = Connection(server.port)
            registry = conn.call("GET", "/v1/metrics")[1]
            conn.close()
        rss = server.peak_rss_mb()
    finally:
        spans = server.stop()

    all_requests = warmup + open_requests + closed_requests
    all_records = warmup_records + open_records + closed_records
    answered = [i for i, rec in enumerate(all_records) if rec[4] is None]
    wrong = {answered[j]: why for j, why in verify(
        [(all_requests[i], all_records[i][3]) for i in answered]).items()}
    problems = [f"request {i} {req[:2]}: {rec[4] or wrong.get(i)}"
                for i, (req, rec) in enumerate(zip(all_requests, all_records))
                if rec[4] or i in wrong]
    failed = sum(_failed(rec) or i in wrong
                 for i, rec in enumerate(all_records))
    latencies = _latencies_ms(open_records)
    closed_latencies = _latencies_ms(closed_records)
    lags = [1e3 * (r[1] - r[0]) for r in open_records]
    by_kind = {}
    for kind, _ in MIX:
        ms = [lat for req, lat in zip(open_requests, latencies)
              if req[0] == kind]
        if ms:
            by_kind[kind] = {"n": len(ms), "p50_ms": nearest_rank(ms, 0.5),
                             "max_ms": max(ms)}
    return {
        "setup_s": server.setup_s,
        "problems": problems,
        "attempted": len(all_records),
        "failed": failed,
        "open_n": len(open_records),
        "closed_n": len(closed_records),
        "wall_s": len(closed_records) / statistics.median(chunk_rps),
        "capacity_rps": statistics.median(chunk_rps),
        "chunk_rps": chunk_rps,
        "p50_ms": nearest_rank(closed_latencies, 0.50),
        "p99_ms": nearest_rank(closed_latencies, 0.99),
        "open_p50_ms": nearest_rank(latencies, 0.50),
        "open_p99_ms": nearest_rank(latencies, 0.99),
        "peak_rss_mb": rss,
        "lag_p99_ms": nearest_rank(lags, 0.99),
        "open_by_kind": by_kind,
        "registry": registry,
        "spans": spans,
    }


def _serve_layer_metrics(result: dict) -> dict:
    registry = result["registry"]
    counters = registry.get("counters", {})
    gauges = registry.get("gauges", {})
    hist = registry.get("histograms", {}).get("serve.batch_size", {})
    points = counters.get("serve.points", 0)
    return {
        "serve.batches": counters.get("serve.batches", 0),
        "serve.batch_size_mean": (hist["sum"] / hist["count"]
                                  if hist.get("count") else 0.0),
        "serve.coalesce_ratio": gauges.get("serve.coalesce_ratio", 0.0),
        "serve.memo_hit_ratio": (counters.get("serve.memo_hits", 0) / points
                                 if points else 0.0),
        "serve.singleflight_joins": counters.get("serve.singleflight_joins",
                                                 0),
        "serve.server_p99_ms": gauges.get("serve.latency_p99_ms", 0.0),
        "serve.rejected": (counters.get("serve.rejected", 0)
                           + counters.get("serve.shed.responses", 0)),
        "loadgen.lag_p99_ms": result["lag_p99_ms"],
        "loadgen.open_p50_ms": result["open_p50_ms"],
        "loadgen.open_p99_ms": result["open_p99_ms"],
    }


def run_serve(run, args) -> dict:
    """The ``serve_mixed`` workload (see the module docstring)."""
    keys = ("setup_s", "wall_s", "capacity_rps", "p50_ms", "p99_ms",
            "peak_rss_mb", "open_n", "closed_n", "open_p50_ms",
            "open_p99_ms", "lag_p99_ms", "open_by_kind", "chunk_rps")
    if args.trace:
        untraced = serve_once(run, args.seed, args.seconds, traced=False)
        traced = serve_once(run, args.seed, args.seconds, traced=True)
        spans = traced["spans"]
        overhead = 100.0 * (untraced["capacity_rps"]
                            / traced["capacity_rps"] - 1.0)
        extra = _serve_layer_metrics(traced)
        extra["setup.import_s"] = spans["import_s"]
        metrics = layers.derive(spans, wall_s=spans["traced_wall_s"],
                                overhead_pct=overhead, extra=extra)
        runs = (untraced, traced)
        return dict(problems=untraced["problems"] + traced["problems"],
                    attempted=sum(r["attempted"] for r in runs),
                    failed=sum(r["failed"] for r in runs),
                    metrics=metrics,
                    detail={"runs": [{k: r[k] for k in keys} for r in runs]})

    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        probe = Server(run, traced=False)
        setups.append(probe.setup_s)
        probe.stop()
    result = serve_once(run, args.seed, args.seconds, traced=False)
    setups.append(result["setup_s"])
    metrics = {k: result[k] for k in ("wall_s", "capacity_rps", "p50_ms",
                                       "p99_ms", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(setups)
    return dict(problems=result["problems"], attempted=result["attempted"],
                failed=result["failed"], metrics=metrics,
                detail=dict({k: result[k] for k in keys},
                            setup_samples=setups))
