"""Benchmark: coalesced serving throughput vs serial per-request dispatch.

Launches the real sign-off server (``python -m repro.experiments serve``)
twice as a subprocess — once with coalescing disabled (``--max-batch 1
--batch-window-ms 0``: every point is its own dispatch, the "one query,
one solve" baseline) and once with the micro-batching dispatcher doing
its job (``--max-batch 64 --batch-window-ms 5``) — and drives each with
32 concurrent client threads issuing a mixed single/batch workload of
unique sweep points over keep-alive HTTP connections.

Three things are checked, mirroring the serving layer's contract:

* **parity** — every value returned (via ``values_hex``) is bit-identical
  to a direct in-process ``chip_quantile_batch(...)``;
* **coalescing** — the ``serve.batch_size`` histogram shows multi-point
  batches in the coalesced phase;
* **throughput** — in full mode, coalesced points/s must be >= 3x the
  serial phase.

Each phase gets a fresh ``REPRO_CACHE_DIR`` so neither inherits the
other's persistent quantile cache, and the coalesced phase's run
manifest (``--metrics``) is parsed to confirm the ``serve.coalesce_ratio``
/ ``serve.latency_p99_ms`` gauges land in provenance output.  Results go
to ``BENCH_serve.json`` at the repository root.

An **overload** section then offers far more load than the server can
absorb (unpaced clients against a small queue and a tight request
deadline) twice: once with admission control disabled (``--no-shed``:
the hard max-queue-429 baseline, where admitted-but-doomed requests
burn a queue slot and solver time before 408ing) and once with adaptive
shedding on.  Under shedding, goodput (successfully served points/s)
and the served-request p99 (the ``serve.latency_p99_ms`` gauge, which
excludes 429/503 rejections by construction) must not degrade versus
the baseline — enforced in full mode, recorded always.

Run directly::

    python benchmarks/bench_serve.py            # full (8 requests/client)
    python benchmarks/bench_serve.py --smoke    # CI-sized (2 requests/client)
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.chip_delay import ChipDelayEngine            # noqa: E402
from repro.devices.technology import get_technology          # noqa: E402
from repro.serve.client import ServeClient                   # noqa: E402

NODE = "22nm"
ARCH = {"width": 16, "paths_per_lane": 25, "chain_length": 30}
Q = 0.99
SPARES = 0.0
CLIENTS = 32

SERIAL_ARGS = ["--max-batch", "1", "--batch-window-ms", "0"]
COALESCED_ARGS = ["--max-batch", "64", "--batch-window-ms", "5"]

#: Overload section: a deliberately small queue and tight deadline so
#: unpaced clients offer far more than the server can absorb.  Each
#: request carries ``OVERLOAD_REQ_POINTS`` cold points, so 16 clients
#: offer up to 128 points against a 32-point queue whose drain time
#: alone exceeds the 80 ms request deadline.
OVERLOAD_CLIENTS = 16
OVERLOAD_REQ_POINTS = 8
OVERLOAD_COMMON = ["--max-batch", "8", "--batch-window-ms", "2",
                   "--max-queue", "32", "--deadline-ms", "80"]
OVERLOAD_HARD_ARGS = [*OVERLOAD_COMMON, "--no-shed"]
OVERLOAD_ADAPTIVE_ARGS = list(OVERLOAD_COMMON)

_LISTEN_RE = re.compile(r"\[serve\] listening on ([\d.]+):(\d+)")


class ServerProc:
    """A ``repro.experiments serve`` subprocess with its own cache dir."""

    def __init__(self, extra_args, manifest_path: str, cache_dir: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env["REPRO_CACHE_DIR"] = cache_dir
        env.pop("REPRO_CACHE_DISABLE", None)
        # Telemetry fully on: the parity gate below must hold with the
        # tracer and the flight recorder live, not just on a dark server.
        cmd = [sys.executable, "-m", "repro.experiments", "serve",
               "--port", "0", "--metrics", manifest_path,
               "--trace", manifest_path + ".trace.json", *extra_args]
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env, cwd=str(REPO_ROOT))
        self.lines: list = []
        self.port = None
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        if not self._ready.wait(timeout=120):
            self.proc.kill()
            raise RuntimeError("server did not announce its port:\n"
                               + "".join(self.lines))

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line)
            m = _LISTEN_RE.search(line)
            if m:
                self.port = int(m.group(2))
                self._ready.set()
        self._ready.set()  # EOF before announce -> wake the waiter

    def stop(self) -> int:
        self.proc.send_signal(signal.SIGTERM)
        rc = self.proc.wait(timeout=120)
        self._reader.join(timeout=10)
        return rc


def make_workload(requests_per_client: int):
    """Per-client request lists of unique (batch-of-1 / batch-of-3) vdds."""
    total_points = 0
    shapes = []
    for c in range(CLIENTS):
        row = [1 if (c + r) % 2 == 0 else 3
               for r in range(requests_per_client)]
        shapes.append(row)
        total_points += sum(row)
    # Unique, pre-rounded to the protocol's 9-decimal key so the direct
    # baseline solves byte-for-byte the same points the server sees.
    grid = np.round(np.linspace(0.45, 0.95, total_points), 9)
    it = iter(grid.tolist())
    workload = [[[next(it) for _ in range(n)] for n in row]
                for row in shapes]
    return workload, grid


def run_phase(label: str, extra_args, workload) -> dict:
    cache_dir = tempfile.mkdtemp(prefix=f"bench-serve-{label}-cache-")
    manifest_path = os.path.join(
        tempfile.mkdtemp(prefix=f"bench-serve-{label}-"), "manifest.json")
    server = ServerProc(extra_args, manifest_path, cache_dir)
    results = [None] * CLIENTS
    errors: list = []
    barrier = threading.Barrier(CLIENTS + 1)

    def client_main(idx: int) -> None:
        try:
            with ServeClient("127.0.0.1", server.port, timeout=300) as cl:
                barrier.wait()
                out = []
                for vdds in workload[idx]:
                    point = vdds[0] if len(vdds) == 1 else vdds
                    resp = cl.query(NODE, point, q=Q, spares=SPARES, **ARCH)
                    out.append((vdds, resp["values_hex"]))
                results[idx] = out
        except Exception as exc:  # surfaced after join
            errors.append((idx, exc))
            try:
                barrier.abort()
            except Exception:
                pass

    threads = [threading.Thread(target=client_main, args=(i,))
               for i in range(CLIENTS)]
    for t in threads:
        t.start()
    barrier.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t0
    if errors:
        server.stop()
        raise RuntimeError(f"{label}: client errors: {errors!r}")

    with ServeClient("127.0.0.1", server.port, timeout=60) as cl:
        metrics = cl.metrics()
    rc = server.stop()
    if rc != 0:
        raise RuntimeError(f"{label}: server exited {rc}:\n"
                           + "".join(server.lines))
    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))

    points = sum(len(v) for out in results for v, _ in out)
    values = {}
    for out in results:
        for vdds, hexes in out:
            for v, h in zip(vdds, hexes):
                values[v] = float.fromhex(h)
    hist = metrics["histograms"]["serve.batch_size"]
    return {
        "elapsed_s": elapsed,
        "points": points,
        "requests": sum(len(out) for out in results),
        "throughput_pts_per_s": points / elapsed,
        "batch_size_counts": hist["counts"],
        "max_batch_observed": max(
            (b for b, n in zip(hist["buckets"], hist["counts"]) if n),
            default=0),
        "coalesce_ratio": metrics["gauges"].get("serve.coalesce_ratio"),
        "latency_p50_ms": metrics["gauges"].get("serve.latency_p50_ms"),
        "latency_p99_ms": metrics["gauges"].get("serve.latency_p99_ms"),
        "manifest_gauges": {
            k: v for k, v in manifest["metrics"]["gauges"].items()
            if k.startswith("serve.")},
        "values": values,
    }


def run_overload_phase(label: str, extra_args, grid,
                       duration_s: float) -> dict:
    """Unpaced clients vs a saturated server for a fixed wall duration.

    Each client owns a backlog of unique 8-point chunks and offers them
    back-to-back with no think time.  2xx -> goodput; 429 (overloaded /
    shed / degraded) -> the chunk goes to the back of the backlog and
    is offered again (its points are still cold, so re-offering is
    fair); 408 -> the chunk is dropped (the server solved and memoised
    it for a waiter that already gave up — the baseline's wasted work).
    Anything else is a real error.
    """
    from collections import deque

    from repro.serve.client import ServeRequestError
    cache_dir = tempfile.mkdtemp(prefix=f"bench-serve-{label}-cache-")
    manifest_path = os.path.join(
        tempfile.mkdtemp(prefix=f"bench-serve-{label}-"), "manifest.json")
    server = ServerProc(extra_args, manifest_path, cache_dir)
    per_client = len(grid) // OVERLOAD_CLIENTS
    tallies = [None] * OVERLOAD_CLIENTS
    errors: list = []
    barrier = threading.Barrier(OVERLOAD_CLIENTS + 1)

    def client_main(idx: int) -> None:
        mine = grid[idx * per_client:(idx + 1) * per_client]
        backlog = deque(mine[i:i + OVERLOAD_REQ_POINTS]
                        for i in range(0, len(mine), OVERLOAD_REQ_POINTS))
        tally = {"served": 0, "rejected": 0, "deadline": 0,
                 "reject_codes": {}}
        try:
            with ServeClient("127.0.0.1", server.port, timeout=300) as cl:
                barrier.wait()
                t_end = time.perf_counter() + duration_s
                while backlog and time.perf_counter() < t_end:
                    chunk = backlog.popleft()
                    try:
                        cl.query(NODE, [float(v) for v in chunk],
                                 q=Q, spares=SPARES, **ARCH)
                        tally["served"] += len(chunk)
                    except ServeRequestError as exc:
                        if exc.status == 429:
                            tally["rejected"] += len(chunk)
                            tally["reject_codes"][exc.code] = (
                                tally["reject_codes"].get(exc.code, 0) + 1)
                            backlog.append(chunk)
                        elif exc.status == 408:
                            tally["deadline"] += len(chunk)
                        else:
                            raise
            tallies[idx] = tally
        except Exception as exc:  # surfaced after join
            errors.append((idx, exc))
            try:
                barrier.abort()
            except Exception:
                pass

    threads = [threading.Thread(target=client_main, args=(i,))
               for i in range(OVERLOAD_CLIENTS)]
    for t in threads:
        t.start()
    barrier.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t0
    if errors:
        server.stop()
        raise RuntimeError(f"{label}: client errors: {errors!r}")
    with ServeClient("127.0.0.1", server.port, timeout=60) as cl:
        # abandoned (408'd) batches may still be draining; give the
        # queue a moment before declaring it wedged
        deadline = time.perf_counter() + 15.0
        while True:
            health = cl.health()
            if not health["queued"] or time.perf_counter() > deadline:
                break
            time.sleep(0.1)
        metrics = cl.metrics()
    rc = server.stop()
    if rc != 0:
        raise RuntimeError(f"{label}: server exited {rc}:\n"
                           + "".join(server.lines))
    if health["queued"]:
        raise RuntimeError(f"{label}: queue wedged with "
                           f"{health['queued']} points after the run")

    served = sum(t["served"] for t in tallies)
    rejected = sum(t["rejected"] for t in tallies)
    deadline = sum(t["deadline"] for t in tallies)
    reject_codes: dict = {}
    for t in tallies:
        for code, n in t["reject_codes"].items():
            reject_codes[code] = reject_codes.get(code, 0) + n
    counters = metrics["counters"]
    return {
        "elapsed_s": elapsed,
        "offered": served + rejected + deadline,
        "served": served,
        "rejected_429": rejected,
        "reject_codes": reject_codes,
        "deadline_408": deadline,
        "goodput_pts_per_s": served / elapsed,
        "served_latency_p99_ms": metrics["gauges"].get(
            "serve.latency_p99_ms"),
        "shed_responses": counters.get("serve.shed.responses", 0),
        "shed_deadline": counters.get("serve.shed.deadline", 0),
        "shed_degraded": counters.get("serve.shed.degraded", 0),
        "shed_latency_count": metrics["histograms"].get(
            "serve.shed_latency_ms", {}).get("count", 0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: 2 requests/client, no "
                             "throughput-floor assertion")
    parser.add_argument("--requests", type=int, default=None,
                        help="requests per client (default 8, smoke 2)")
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_serve.json")
    args = parser.parse_args(argv)

    requests_per_client = args.requests or (2 if args.smoke else 8)
    workload, grid = make_workload(requests_per_client)
    print(f"{CLIENTS} clients x {requests_per_client} requests "
          f"({len(grid)} unique points, arch {ARCH})")

    phases = {}
    for label, extra in (("serial", SERIAL_ARGS),
                         ("coalesced", COALESCED_ARGS)):
        phases[label] = run_phase(label, extra, workload)
        r = phases[label]
        print(f"{label:>9}: {r['elapsed_s']:6.2f} s   "
              f"{r['throughput_pts_per_s']:7.1f} pts/s   "
              f"max batch {r['max_batch_observed']:.0f}   "
              f"coalesce ratio {r['coalesce_ratio']:.2f}   "
              f"p99 {r['latency_p99_ms']:.0f} ms")

    # Parity: every served value must be bit-identical to a direct
    # in-process invariant batch solve of the same points.
    engine = ChipDelayEngine(get_technology(NODE), **ARCH)
    direct = engine.chip_quantile_batch(grid, Q, SPARES)
    mismatches = 0
    for phase in phases.values():
        for v, expect in zip(grid.tolist(), direct.tolist()):
            if phase["values"][v] != expect:
                mismatches += 1
        del phase["values"]  # not serialised
    if mismatches:
        raise SystemExit(f"parity FAILED: {mismatches} served values "
                         f"differ from the direct batch solve")
    print(f"parity: all {2 * len(grid)} served values bit-identical "
          f"to direct chip_quantile_batch")

    coalesced = phases["coalesced"]
    if coalesced["max_batch_observed"] <= 1:
        raise SystemExit("coalescing FAILED: serve.batch_size never "
                         "exceeded 1 in the coalesced phase")
    for gauge in ("serve.coalesce_ratio", "serve.latency_p99_ms"):
        if gauge not in coalesced["manifest_gauges"]:
            raise SystemExit(f"manifest missing {gauge}")
    speedup = (coalesced["throughput_pts_per_s"]
               / phases["serial"]["throughput_pts_per_s"])
    if not args.smoke and speedup < 3.0:
        raise SystemExit(f"throughput FAILED: coalesced/serial = "
                         f"{speedup:.2f}x < 3.0x")

    # -- overload: adaptive shedding vs the hard-429 baseline ----------------
    overload_duration = 1.5 if args.smoke else 4.0
    overload_per_client = OVERLOAD_REQ_POINTS * (20 if args.smoke else 60)
    overload_grid = np.round(np.linspace(
        0.45, 0.95, OVERLOAD_CLIENTS * overload_per_client), 9).tolist()
    print(f"\noverload: {OVERLOAD_CLIENTS} unpaced clients, "
          f"{OVERLOAD_REQ_POINTS}-point requests for "
          f"{overload_duration:g} s, queue 32, deadline 80 ms")
    overload = {}
    for label, extra in (("hard", OVERLOAD_HARD_ARGS),
                         ("adaptive", OVERLOAD_ADAPTIVE_ARGS)):
        overload[label] = run_overload_phase(
            f"overload-{label}", extra, overload_grid, overload_duration)
        r = overload[label]
        p99 = r["served_latency_p99_ms"]
        print(f"{label:>9}: goodput {r['goodput_pts_per_s']:7.1f} pts/s   "
              f"served {r['served']}/{r['offered']}   "
              f"429s {r['rejected_429']}   408s {r['deadline_408']}   "
              f"served p99 {p99 if p99 is None else round(p99):} ms")

    goodput_ratio = (overload["adaptive"]["goodput_pts_per_s"]
                     / overload["hard"]["goodput_pts_per_s"])
    hard_p99 = overload["hard"]["served_latency_p99_ms"]
    adaptive_p99 = overload["adaptive"]["served_latency_p99_ms"]
    p99_ratio = (adaptive_p99 / hard_p99
                 if adaptive_p99 and hard_p99 else None)
    if not args.smoke:
        if goodput_ratio < 0.9:
            raise SystemExit(
                f"overload FAILED: adaptive goodput degraded to "
                f"{goodput_ratio:.2f}x of the hard-429 baseline (< 0.9x)")
        if p99_ratio is not None and p99_ratio > 1.1:
            raise SystemExit(
                f"overload FAILED: adaptive served p99 degraded to "
                f"{p99_ratio:.2f}x of the hard-429 baseline (> 1.1x)")
        if not (overload["adaptive"]["shed_deadline"]
                or overload["adaptive"]["shed_degraded"]):
            raise SystemExit(
                "overload FAILED: adaptive phase never exercised "
                "admission control (no serve.shed.* rejections)")
    print(f"overload: adaptive goodput {goodput_ratio:.2f}x baseline, "
          f"served p99 "
          f"{'n/a' if p99_ratio is None else f'{p99_ratio:.2f}x'} "
          f"baseline")

    payload = {
        "benchmark": "serve",
        "smoke": bool(args.smoke),
        "config": {
            "node": NODE,
            "arch": ARCH,
            "q": Q,
            "spares": SPARES,
            "clients": CLIENTS,
            "requests_per_client": requests_per_client,
            "unique_points": len(grid),
            "serial_args": SERIAL_ARGS,
            "coalesced_args": COALESCED_ARGS,
            "telemetry": "trace + flight recorder enabled on both phases",
        },
        "speedup": speedup,
        "parity_exact": True,
        "serial": phases["serial"],
        "coalesced": coalesced,
        "overload": {
            "clients": OVERLOAD_CLIENTS,
            "duration_s": overload_duration,
            "points_per_client": overload_per_client,
            "hard_args": OVERLOAD_HARD_ARGS,
            "adaptive_args": OVERLOAD_ADAPTIVE_ARGS,
            "hard": overload["hard"],
            "adaptive": overload["adaptive"],
            "adaptive_goodput_ratio": goodput_ratio,
            "adaptive_p99_ratio": p99_ratio,
        },
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n",
                           encoding="utf-8")
    print(f"\nwrote {args.output} (coalesced {speedup:.2f}x serial, "
          f"parity exact)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
