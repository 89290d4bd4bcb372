"""Sign-off server: protocol, coalescing dispatcher, chaos, bit-identity."""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.analyzer import VariationAnalyzer
from repro.core.chip_delay import ChipDelayEngine
from repro.devices.technology import get_technology
from repro.errors import ConfigurationError
from repro.obs.flight import FlightRecorder
from repro.obs.manifest import strip_timing
from repro.obs.metrics import MetricsRegistry
from repro.obs.openmetrics import check_openmetrics, parse_openmetrics
from repro.obs.trace import Tracer
from repro.resilience import RetryPolicy, parse_faults
from repro.runtime import activate_runtime, build_runtime
from repro.serve import (
    BadRequestError,
    CircuitOpenError,
    DegradedError,
    DrainingError,
    EngineKey,
    MicroBatchDispatcher,
    OverloadedError,
    ResilientServeClient,
    ServeClient,
    ServeConfig,
    ServeRequestError,
    ShedError,
    SignoffServer,
)
from repro.serve.protocol import parse_query, parse_tail_query

#: Tiny architecture so every solve stays fast.
ARCH = dict(width=4, paths_per_lane=5, chain_length=10)
KEY = EngineKey("22nm", 4, 5, 10)
NODES = frozenset({"90nm", "45nm", "32nm", "22nm"})


def direct_values(vdds, qs=0.99, spares=0.0):
    """The reference bits: a fresh engine's batch solve."""
    engine = ChipDelayEngine(get_technology("22nm"), **ARCH)
    out = engine.chip_quantile_batch(np.asarray(vdds, dtype=float), qs,
                                     spares)
    return [float(v) for v in np.atleast_1d(out)]


class ServerHarness:
    """Run a SignoffServer on a private event loop in a thread."""

    def __init__(self, config: ServeConfig, runtime=None) -> None:
        self.server = SignoffServer(config, runtime)
        self._loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_until_complete(self._serve())
        self._loop.close()

    async def _serve(self) -> None:
        self._stop = asyncio.Event()
        await self.server.start()
        self._ready.set()
        await self._stop.wait()
        await self.server.stop()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(20), "server failed to start"
        return self

    def __exit__(self, *exc) -> None:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(20)

    @property
    def port(self) -> int:
        return self.server.port

    def client(self, **kwargs) -> ServeClient:
        return ServeClient("127.0.0.1", self.port, **kwargs)


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """Per-test cache dir: serve memo entries never leak across tests."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serve-cache"))


# -- protocol validation -------------------------------------------------------


def test_parse_query_broadcasts_and_rounds():
    key, points = parse_query(
        {"node": "22nm", "vdd": [0.5, 0.6], "q": 0.9, "spares": 1.0,
         **ARCH}, available_nodes=NODES)
    assert key == KEY
    assert points == [(0.5, 1.0, 0.9), (0.6, 1.0, 0.9)]
    # scalar-only query broadcasts to one point with defaults
    _, pts = parse_query({"node": "22nm", "vdd": 0.55},
                         available_nodes=NODES)
    assert pts == [(0.55, 0.0, 0.99)]
    # a length-1 list broadcasts against a longer one
    _, pts = parse_query({"node": "22nm", "vdd": [0.5], "q": [0.9, 0.99]},
                         available_nodes=NODES)
    assert pts == [(0.5, 0.0, 0.9), (0.5, 0.0, 0.99)]


@pytest.mark.parametrize("body", [
    "not an object",
    {},                                           # missing node
    {"node": "3nm", "vdd": 0.5},                  # unknown node
    {"node": "22nm"},                             # missing vdd
    {"node": "22nm", "vdd": []},                  # empty list
    {"node": "22nm", "vdd": "0.5"},               # non-numeric
    {"node": "22nm", "vdd": True},                # bool is not a number
    {"node": "22nm", "vdd": [0.5, "x"]},          # mixed list
    {"node": "22nm", "vdd": [0.5, 0.6], "q": [0.9, 0.95, 0.99]},  # length clash
    {"node": "22nm", "vdd": 0.0},                 # vdd out of range
    {"node": "22nm", "vdd": float("nan")},        # non-finite vdd
    {"node": "22nm", "vdd": 0.5, "q": 1.0},       # q out of range
    {"node": "22nm", "vdd": 0.5, "spares": -1},   # negative spares
    {"node": "22nm", "vdd": 0.5, "width": 0},     # bad architecture
])
def test_parse_query_rejects(body):
    with pytest.raises(BadRequestError):
        parse_query(body, available_nodes=NODES)


def test_parse_tail_query_rejects_fractional_spares():
    body = {"node": "22nm", "vdd": 0.55, **ARCH}
    _, pts = parse_tail_query(dict(body, spares=[0, 2.0]),
                              available_nodes=NODES)
    assert [p[1] for p in pts] == [0.0, 2.0]
    with pytest.raises(BadRequestError):
        parse_tail_query(dict(body, spares=1.5), available_nodes=NODES)


def test_serve_config_validates():
    with pytest.raises(ConfigurationError):
        ServeConfig(port=-5)
    with pytest.raises(ConfigurationError):
        ServeConfig(max_batch=0)
    with pytest.raises(ConfigurationError):
        ServeConfig(batch_window_ms=-1.0)
    with pytest.raises(ConfigurationError):
        ServeConfig(max_queue=0)
    with pytest.raises(ConfigurationError):
        ServeConfig(deadline_ms=0.0)
    with pytest.raises(ConfigurationError):
        ServeConfig(window_s=0.0)
    with pytest.raises(ConfigurationError):
        ServeConfig(slo_availability=1.0)
    with pytest.raises(ConfigurationError):
        ServeConfig(slo_latency_ms=0.0)
    with pytest.raises(ConfigurationError):
        ServeConfig(flight_capacity=-1)
    with pytest.raises(ConfigurationError):
        ServeConfig(degraded_ratio=0.0)
    with pytest.raises(ConfigurationError):
        ServeConfig(degraded_ratio=1.5)
    with pytest.raises(ConfigurationError):
        ServeConfig(drain_timeout_s=0.0)


# -- dispatcher unit tests (fake solver) ---------------------------------------


def _run_async(coro):
    return asyncio.run(coro)


def test_dispatcher_coalesces_and_single_flights():
    calls = []

    def solve(key, points):
        calls.append(list(points))
        return [p[0] * 2.0 for p in points]

    async def scenario():
        metrics = MetricsRegistry()
        d = MicroBatchDispatcher(solve, metrics, max_batch=8,
                                 window_s=0.05, max_queue=64)
        p1, p2 = (0.5, 0.0, 0.99), (0.6, 0.0, 0.99)
        # 3 clients race on p1, one brings p2: one batch, one solve call
        results = await asyncio.gather(
            d.resolve(KEY, [p1], timeout=10),
            d.resolve(KEY, [p1], timeout=10),
            d.resolve(KEY, [p1, p2], timeout=10),
        )
        # memo hit afterwards: no new solve
        again = await d.resolve(KEY, [p1, p2], timeout=10)
        await d.aclose()
        return results, again, metrics

    results, again, metrics = _run_async(scenario())
    assert results == [[1.0], [1.0], [1.0, 1.2]]
    assert again == [1.0, 1.2]
    assert len(calls) == 1 and sorted(calls[0]) == sorted(
        [(0.5, 0.0, 0.99), (0.6, 0.0, 0.99)])
    snap = metrics.as_dict()
    assert snap["counters"]["serve.singleflight_joins"] == 2
    assert snap["counters"]["serve.memo_hits"] == 2
    assert snap["counters"]["serve.batches"] == 1
    assert max(i for i, c in enumerate(
        snap["histograms"]["serve.batch_size"]["counts"]) if c) >= 1


def test_dispatcher_backpressure_rejects_and_recovers():
    def solve(key, points):
        return [1.0 for _ in points]

    async def scenario():
        metrics = MetricsRegistry()
        d = MicroBatchDispatcher(solve, metrics, max_batch=8,
                                 window_s=0.01, max_queue=2)
        points = [(0.5 + 0.01 * i, 0.0, 0.99) for i in range(4)]
        with pytest.raises(OverloadedError):
            await d.resolve(KEY, points, timeout=10)
        # the queue drains and the dispatcher keeps serving
        ok = await d.resolve(KEY, [points[0]], timeout=10)
        await d.aclose()
        return ok, metrics

    ok, metrics = _run_async(scenario())
    assert ok == [1.0]
    assert metrics.as_dict()["counters"]["serve.rejected"] == 1


def test_dispatcher_on_idle_fires_when_queue_drains():
    idles = []

    def solve(key, points):
        return [p[0] for p in points]

    async def scenario():
        metrics = MetricsRegistry()
        d = MicroBatchDispatcher(solve, metrics, max_batch=8,
                                 window_s=0.005, max_queue=64,
                                 on_idle=lambda: idles.append(d.queued))
        await d.resolve(KEY, [(0.5, 0.0, 0.99)], timeout=10)
        await d.resolve(KEY, [(0.6, 0.0, 0.99)], timeout=10)
        await d.aclose()

    _run_async(scenario())
    # Fired once per drained batch, always with an empty queue.
    assert len(idles) == 2
    assert all(q == 0 for q in idles)


def test_dispatcher_on_idle_exception_does_not_fail_requests():
    def solve(key, points):
        return [p[0] for p in points]

    def bad_idle():
        raise RuntimeError("housekeeping blew up")

    async def scenario():
        d = MicroBatchDispatcher(solve, MetricsRegistry(), max_batch=8,
                                 window_s=0.005, max_queue=64,
                                 on_idle=bad_idle)
        value = await d.resolve(KEY, [(0.5, 0.0, 0.99)], timeout=10)
        await d.aclose()
        return value

    assert _run_async(scenario()) == [0.5]


def test_dispatcher_deadline_does_not_wedge_the_queue():
    import time as _time

    def solve(key, points):
        _time.sleep(0.2)
        return [p[0] for p in points]

    async def scenario():
        metrics = MetricsRegistry()
        d = MicroBatchDispatcher(solve, metrics, max_batch=4,
                                 window_s=0.001, max_queue=64)
        from repro.serve import DeadlineError
        p = (0.5, 0.0, 0.99)
        with pytest.raises(DeadlineError):
            await d.resolve(KEY, [p], timeout=0.02)
        # the shielded solve still completes; a later caller gets the memo
        value = await d.resolve(KEY, [p], timeout=10)
        assert d.queued == 0
        await d.aclose()
        return value, metrics

    value, metrics = _run_async(scenario())
    assert value == [0.5]
    assert metrics.as_dict()["counters"]["serve.deadline_misses"] == 1


def test_dispatcher_retries_transient_failures():
    attempts = []

    def solve(key, points):
        attempts.append(1)
        if len(attempts) == 1:
            raise RuntimeError("transient")
        return [7.0 for _ in points]

    async def scenario():
        metrics = MetricsRegistry()
        policy = RetryPolicy(max_retries=2, backoff_base_s=0.001)
        d = MicroBatchDispatcher(solve, metrics, max_batch=4,
                                 window_s=0.001, policy=policy)
        value = await d.resolve(KEY, [(0.5, 0.0, 0.99)], timeout=10)
        await d.aclose()
        return value, metrics

    value, metrics = _run_async(scenario())
    assert value == [7.0]
    assert len(attempts) == 2
    assert metrics.as_dict()["counters"]["serve.solver_retries"] == 1


def test_dispatcher_exhausted_retries_fail_the_bucket():
    from repro.serve import SolverError

    def solve(key, points):
        raise RuntimeError("permanent")

    async def scenario():
        metrics = MetricsRegistry()
        policy = RetryPolicy(max_retries=1, backoff_base_s=0.001)
        d = MicroBatchDispatcher(solve, metrics, max_batch=4,
                                 window_s=0.001, policy=policy)
        with pytest.raises(SolverError):
            await d.resolve(KEY, [(0.5, 0.0, 0.99)], timeout=10)
        # failures are not memoised: the queue is clean afterwards
        assert d.queued == 0
        await d.aclose()
        return metrics

    metrics = _run_async(scenario())
    assert metrics.as_dict()["counters"]["serve.solver_failures"] == 1


# -- HTTP round trips ----------------------------------------------------------


def test_server_roundtrip_bit_identical(fresh_cache):
    vdds = [0.5, 0.55, 0.6]
    expected = direct_values(vdds)
    with ServerHarness(ServeConfig(port=0, max_batch=8,
                                   batch_window_ms=2.0)) as h:
        with h.client() as c:
            single = c.chip_quantile("22nm", vdd=0.55, **ARCH)
            batch = c.chip_quantile_batch("22nm", vdd=vdds, **ARCH)
            raw = c._request("POST", "/v1/chip_quantile_batch",
                             dict(node="22nm", vdd=vdds, **ARCH))
            health = c.health()
    assert batch == expected
    assert single == expected[1]
    assert raw["values_hex"] == [v.hex() for v in expected]
    assert health["ok"] is True


def test_cli_warmed_cache_serves_the_server(tmp_path, monkeypatch):
    """A cache filled by a CLI-style run answers the server without a
    single solve, with the bits a cold server computes itself."""
    vdds = [round(0.5 + 0.01 * i, 9) for i in range(10)]

    def serve(tag):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / tag))
        with ServerHarness(ServeConfig(port=0)) as h:
            with h.client() as c:
                hexes = c.query("22nm", vdd=vdds, **ARCH)["values_hex"]
            cache = h.server._cache
        return hexes, cache.hits, cache.misses

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "warm"))
    runtime = build_runtime(jobs=1)
    try:
        # Enough points to take the CLI's chunked sampler route.
        with activate_runtime(runtime):
            VariationAnalyzer("22nm", **ARCH).chip_quantiles(vdds)
    finally:
        runtime.close()
    warm = serve("warm")
    cold = serve("cold")
    assert warm[0] == cold[0]
    assert warm[1:] == (len(vdds), 0)
    assert cold[1:] == (0, len(vdds))


def test_server_signoff_sweep_matches_analyzer_math(fresh_cache):
    vdds = [0.5, 0.6]
    with ServerHarness(ServeConfig(port=0)) as h:
        with h.client() as c:
            sweep = c.signoff_sweep("22nm", vdd=vdds, **ARCH)
    tech = get_technology("22nm")
    expected = direct_values(vdds + [tech.nominal_vdd])
    assert sweep["values"] == expected[:2]
    base_fo4 = expected[2] / tech.fo4_unit(tech.nominal_vdd)
    fo4 = [v / tech.fo4_unit(x) for v, x in zip(expected[:2], vdds)]
    assert sweep["fo4chipd"] == pytest.approx(fo4, rel=0, abs=0)
    assert sweep["performance_drop"] == [f / base_fo4 - 1.0 for f in fo4]
    assert sweep["baseline"]["value"] == expected[2]


def test_server_concurrent_clients_coalesce(fresh_cache):
    vdds = [round(0.45 + 0.005 * i, 9) for i in range(16)]
    expected = dict(zip(vdds, direct_values(vdds)))
    with ServerHarness(ServeConfig(port=0, max_batch=16,
                                   batch_window_ms=100.0)) as h:
        def one(v):
            with h.client() as c:
                return c.chip_quantile("22nm", vdd=v, **ARCH)
        with ThreadPoolExecutor(max_workers=16) as pool:
            got = list(pool.map(one, vdds))
        snap = h.server.metrics.as_dict()
    assert got == [expected[v] for v in vdds]
    counts = snap["histograms"]["serve.batch_size"]["counts"]
    assert sum(counts[1:]) >= 1, f"no coalescing happened: {counts}"
    assert snap["gauges"]["serve.coalesce_ratio"] > 1.0


def test_server_http_error_codes(fresh_cache):
    with ServerHarness(ServeConfig(port=0)) as h:
        with h.client() as c:
            with pytest.raises(ServeRequestError) as exc:
                c._request("POST", "/v1/nope", {"node": "22nm", "vdd": 0.5})
            assert exc.value.status == 404
            with pytest.raises(ServeRequestError) as exc:
                c._request("GET", "/v1/chip_quantile")
            assert exc.value.status == 405
            with pytest.raises(ServeRequestError) as exc:
                c._request("POST", "/v1/chip_quantile",
                           {"node": "22nm", "vdd": [0.5, 0.6]})
            assert exc.value.status == 400 and exc.value.code == "bad_request"
            # malformed JSON body straight through the connection
            import http.client
            conn = http.client.HTTPConnection("127.0.0.1", h.port, timeout=30)
            conn.request("POST", "/v1/query", body=b"{not json",
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            payload = json.loads(resp.read())
            assert resp.status == 400
            assert payload["error"] == "bad_request"
            conn.close()
            # the server is still healthy after every rejection
            assert c.health()["ok"] is True


def test_server_deadline_then_recovery(fresh_cache):
    config = ServeConfig(port=0, batch_window_ms=300.0, deadline_ms=30.0)
    with ServerHarness(config) as h:
        with h.client() as c:
            with pytest.raises(ServeRequestError) as exc:
                c.chip_quantile("22nm", vdd=0.52, **ARCH)
            assert exc.value.status == 408
            assert exc.value.code == "deadline_exceeded"
            # the batch window eventually flushes and the solve completes;
            # the same query then hits the dispatcher memo well inside the
            # deadline — the queue never wedged.
            deadline_value = None
            for _ in range(100):
                try:
                    deadline_value = c.chip_quantile("22nm", vdd=0.52, **ARCH)
                    break
                except ServeRequestError as err:
                    assert err.status == 408
            assert deadline_value == direct_values([0.52])[0]
            assert c.health()["queued"] == 0


def test_server_backpressure_429(fresh_cache):
    config = ServeConfig(port=0, max_queue=1, batch_window_ms=200.0)
    with ServerHarness(config) as h:
        with h.client() as c:
            with pytest.raises(ServeRequestError) as exc:
                c.chip_quantile_batch("22nm", vdd=[0.5, 0.55, 0.6], **ARCH)
            assert exc.value.status == 429
            assert exc.value.code == "overloaded"


# -- chaos ---------------------------------------------------------------------


def test_serve_chaos_solver_nan_bit_identical(fresh_cache):
    """A poisoned solver point is rescued and parity survives the chaos.

    The first (single-point) request pins the poisoned index: the rescue
    ladder's scalar Brent fallback answers it, and every *other* point —
    served while the fault fires mid-flight — must still match the
    batch bits exactly.
    """
    runtime = build_runtime(jobs=1, metrics=True,
                            faults=parse_faults("solver_nan:0"))
    poisoned_vdd = 0.5
    burst = [round(0.52 + 0.005 * i, 9) for i in range(8)]
    try:
        with ServerHarness(ServeConfig(port=0, max_batch=8,
                                       batch_window_ms=20.0),
                           runtime) as h:
            with h.client() as c:
                rescued = c.chip_quantile("22nm", vdd=poisoned_vdd, **ARCH)

                def one(v):
                    with h.client() as cc:
                        return cc.chip_quantile("22nm", vdd=v, **ARCH)
                with ThreadPoolExecutor(max_workers=8) as pool:
                    got = list(pool.map(one, burst))
                assert c.health()["ok"] is True and c.health()["queued"] == 0
    finally:
        runtime.close()
    engine = ChipDelayEngine(get_technology("22nm"), **ARCH)
    assert rescued == engine._brent_quantile(poisoned_vdd, 0.99, 0.0)
    assert got == direct_values(burst)
    snap = runtime.obs.metrics.as_dict()
    assert snap["counters"]["resilience.solver.fallback_scalar"] == 1


def test_serve_chaos_worker_crash_bit_identical(fresh_cache):
    """A worker crash mid-batch recovers via pool respawn with exact bits.

    16 concurrent cold points coalesce into one dispatcher batch, which
    crosses the analyzer's parallel-solve threshold and fans out over a
    2-worker pool; ``worker_crash:0`` kills the first shard's worker.
    The respawned pool must deliver the same bits as a direct solve and
    leave the queue empty.
    """
    runtime = build_runtime(jobs=2, metrics=True,
                            faults=parse_faults("worker_crash:0"))
    vdds = [round(0.45 + 0.01 * i, 9) for i in range(16)]
    points = [(v, 0.0, 0.99) for v in vdds]

    async def scenario():
        server = SignoffServer(ServeConfig(port=0, max_batch=16,
                                           batch_window_ms=500.0),
                               runtime)
        server._analyzer(KEY)
        tasks = [asyncio.ensure_future(
            server.dispatcher.resolve(KEY, [p], timeout=120))
            for p in points]
        values = [(await t)[0] for t in tasks]
        assert server.dispatcher.queued == 0
        await server.dispatcher.aclose()
        return values

    try:
        values = _run_async(scenario())
    finally:
        runtime.close()
    assert values == direct_values(vdds)
    snap = runtime.obs.metrics.as_dict()
    assert snap["counters"].get("resilience.pool_respawns", 0) >= 1
    assert snap["counters"]["serve.batches"] == 1
    # buckets (1, 2, 4, 8, 16, ...): one batch of exactly 16 points
    assert snap["histograms"]["serve.batch_size"]["counts"][4] == 1


# -- CLI -----------------------------------------------------------------------


def _experiments_serve(argv):
    from repro.experiments.__main__ import main as cli_main
    return cli_main(["serve", *argv])


def _serve_module(argv):
    from repro.serve.__main__ import main as serve_main
    return serve_main(argv)


def _outcome(entry, argv):
    """``("return", rc)`` after parsing, ``("exit", code)`` on a parse error."""
    try:
        return ("return", entry(argv))
    except SystemExit as exc:
        return ("exit", exc.code)


#: Invalid serve invocations: each is parsed, then rejected with exit 2.
_REJECTED = [
    ["--port", "70000"], ["--max-batch", "0"], ["--jobs", "0"],
    ["--drain-timeout-s", "0"], ["--max-queue", "0"],
    ["--slo-availability", "1.5"], ["--window-s", "0"],
    ["--flight-capacity", "-1"], ["--degraded-ratio", "0"],
    ["--degraded-ratio", "1.5"],
    # run flags the serve alias once lacked
    ["--shard-timeout", "0"], ["--max-retries", "-1"],
    ["--profile", "--port", "70000"],
]


@pytest.mark.parametrize("entry", [_experiments_serve, _serve_module],
                         ids=["experiments", "serve"])
def test_serve_cli_validates_flags(entry):
    """Both serve entry points share one flag set and one validation."""
    for argv in _REJECTED:
        assert _outcome(entry, argv) == ("return", 2), argv
    # an unknown dtype policy is an argparse error on both entry points
    assert _outcome(entry, ["--mc-precision", "bogus"]) == ("exit", 2)


# -- telemetry: tracing, rolling metrics, flight recorder ----------------------


def test_dispatcher_passes_ctx_and_records_flight_events():
    """A 3-arg solver receives the batch trace context; the flight ring
    sees the flush/solve/coalesce events; the batch span links fan-ins."""
    seen_ctx = []

    def solve(key, points, ctx):
        seen_ctx.append(ctx)
        return [p[0] for p in points]

    tracer = Tracer(trace_id="server")
    flight = FlightRecorder(capacity=32)

    async def scenario():
        d = MicroBatchDispatcher(solve, MetricsRegistry(), max_batch=8,
                                 window_s=0.01, tracer=tracer,
                                 flight=flight)
        p = (0.5, 0.0, 0.99)
        await d.resolve(KEY, [p], timeout=10,
                        trace_ctx=("client-trace", "c.1"))
        await d.resolve(KEY, [p], timeout=10,
                        trace_ctx=("client-trace", "c.2"))   # memo hit
        await d.aclose()

    _run_async(scenario())
    assert len(seen_ctx) == 1
    trace_id, batch_span = seen_ctx[0]
    assert trace_id == "client-trace" and batch_span
    batch = next(e for e in tracer.events() if e["name"] == "serve.batch")
    assert batch["args"]["span_id"] == batch_span
    assert batch["args"]["trace_id"] == "client-trace"
    assert batch["args"]["parent_id"] == "c.1"
    assert batch["args"]["links"] == [
        {"trace_id": "client-trace", "span_id": "c.1"}]
    assert batch["args"]["ok"] is True
    kinds = [e["kind"] for e in flight.snapshot()["events"]]
    assert kinds == ["flush", "solve", "coalesce"]
    solve_ev = flight.snapshot()["events"][1]
    assert solve_ev["ok"] is True and solve_ev["n"] == 1


def test_dispatcher_flight_records_retries_and_faults():
    def solve(key, points):
        raise RuntimeError("permanent")

    flight = FlightRecorder(capacity=32)

    async def scenario():
        from repro.serve import SolverError
        d = MicroBatchDispatcher(
            solve, MetricsRegistry(), max_batch=4, window_s=0.001,
            policy=RetryPolicy(max_retries=1, backoff_base_s=0.001),
            flight=flight)
        with pytest.raises(SolverError):
            await d.resolve(KEY, [(0.5, 0.0, 0.99)], timeout=10)
        await d.aclose()

    _run_async(scenario())
    events = flight.snapshot()["events"]
    retry = next(e for e in events if e["kind"] == "retry")
    assert retry["attempt"] == 1 and retry["error"] == "RuntimeError"
    fault = next(e for e in events if e["kind"] == "fault")
    assert fault["attempts"] == 2 and fault["error"] == "RuntimeError"
    # solve settled not-ok
    assert [e for e in events if e["kind"] == "solve"][0]["ok"] is False


def test_server_trace_id_echoed_and_malformed_header_ignored(fresh_cache):
    with ServerHarness(ServeConfig(port=0)) as h:
        with h.client() as c:
            payload = c.query("22nm", vdd=0.55, **ARCH)
            assert payload["trace_id"] == c.last_trace_id
            # each request mints a fresh id by default
            second = c.query("22nm", vdd=0.55, **ARCH)
            assert second["trace_id"] == c.last_trace_id
            assert second["trace_id"] != payload["trace_id"]
        # a malformed header is ignored: 200, no echo, request unharmed
        import http.client
        conn = http.client.HTTPConnection("127.0.0.1", h.port, timeout=30)
        body = json.dumps(dict(node="22nm", vdd=0.55, **ARCH))
        conn.request("POST", "/v1/query", body=body,
                     headers={"Content-Type": "application/json",
                              "X-Repro-Trace": "bad id with spaces!"})
        resp = conn.getresponse()
        data = json.loads(resp.read())
        conn.close()
        assert resp.status == 200
        assert "trace_id" not in data


def test_server_end_to_end_trace_is_one_connected_tree(fresh_cache):
    """The tentpole: client span -> request span -> batch -> solve ->
    pool worker shards, all under the client's minted trace id."""
    runtime = build_runtime(jobs=2, trace=True, metrics=True)
    client_tracer = Tracer(trace_id="e2e-client")
    vdds = [round(0.45 + 0.01 * i, 9) for i in range(16)]
    try:
        with ServerHarness(ServeConfig(port=0, max_batch=16,
                                       batch_window_ms=200.0),
                           runtime) as h:
            with h.client(tracer=client_tracer) as c:
                payload = c.query("22nm", vdd=vdds, **ARCH)
    finally:
        runtime.close()
    assert payload["trace_id"] == "e2e-client"
    assert c.last_trace_id == "e2e-client"

    client_span = client_tracer.events()[0]
    assert client_span["name"] == "client.request"
    assert client_span["args"]["trace_id"] == "e2e-client"

    events = runtime.obs.tracer.events()
    by_id = {e["args"]["span_id"]: e for e in events}
    request = next(e for e in events if e["name"] == "serve.request"
                   and e["args"]["path"] == "/v1/query")
    batch = next(e for e in events if e["name"] == "serve.batch")
    solve = next(e for e in events if e["name"] == "serve.solve")
    shards = [e for e in events
              if e["name"] == "sampler.solve_quantiles.shard"]
    assert len(shards) >= 2, "batch did not fan out over the pool"

    # every server-side span carries the client's trace id...
    for e in [request, batch, solve] + shards:
        assert e["args"]["trace_id"] == "e2e-client", e["name"]
    # ...and the parent chain walks all the way back to the client span
    assert request["args"]["parent_id"] == \
        client_span["args"]["span_id"]
    assert batch["args"]["parent_id"] == request["args"]["span_id"]
    assert batch["args"]["links"] == [
        {"trace_id": "e2e-client",
         "span_id": request["args"]["span_id"]}]
    assert solve["args"]["parent_id"] == batch["args"]["span_id"]
    for shard in shards:
        # each shard's ancestry chain passes through serve.solve (the
        # worker context is built inside the solve, possibly under
        # intermediate analyzer spans)
        names, seen = [], set()
        span_id = shard["args"]["parent_id"]
        while span_id in by_id and span_id not in seen:
            seen.add(span_id)
            names.append(by_id[span_id]["name"])
            span_id = by_id[span_id]["args"].get("parent_id")
        assert "serve.solve" in names, names
    # worker spans come from other processes: >= 2 pids in the trace
    assert len({e["pid"] for e in [request] + shards}) >= 2


def test_server_openmetrics_scrape_is_valid(fresh_cache):
    with ServerHarness(ServeConfig(port=0)) as h:
        with h.client() as c:
            c.chip_quantile("22nm", vdd=0.55, **ARCH)
            text = c.openmetrics()
    assert check_openmetrics(text) == []
    fams = parse_openmetrics(text)
    assert fams["serve_requests"]["type"] == "counter"
    assert fams["serve_latency_ms"]["type"] == "histogram"
    buckets = [v for name, labels, v
               in fams["serve_latency_ms"]["samples"]
               if name.endswith("_bucket") and labels["le"] == "+Inf"]
    assert buckets and buckets[0] >= 1
    for gauge in ("serve_latency_p50_ms", "serve_latency_p99_ms",
                  "serve_qps", "serve_error_rate",
                  "serve_slo_availability_burn_rate",
                  "serve_slo_latency_burn_rate"):
        assert fams[gauge]["type"] == "gauge", gauge


def test_server_rolling_gauges_move_where_cumulative_would_not(fresh_cache):
    """After the traffic burst ages out of the window, QPS falls while
    the cumulative request counter keeps growing."""
    config = ServeConfig(port=0, window_s=0.5)
    with ServerHarness(config) as h:
        with h.client() as c:
            for _ in range(6):
                c.chip_quantile("22nm", vdd=0.55, **ARCH)
            snap1 = c.metrics()
            qps1 = snap1["gauges"]["serve.qps"]
            assert qps1 >= 6 / 0.5 * 0.5          # burst visible in window
            time.sleep(0.8)                       # burst ages out
            snap2 = c.metrics()
    qps2 = snap2["gauges"]["serve.qps"]
    assert qps2 < qps1
    # the cumulative side only ever grows — the rolling gauge is the one
    # that reflects the traffic shift
    assert snap2["counters"]["serve.requests"] > \
        snap1["counters"]["serve.requests"]
    assert snap2["histograms"]["serve.latency_ms"]["count"] >= \
        snap1["histograms"]["serve.latency_ms"]["count"]
    assert snap2["gauges"]["serve.slo_availability_target"] == 0.999
    assert snap2["gauges"]["serve.error_rate"] == 0.0


def test_server_flight_endpoint_and_chaos_determinism(fresh_cache):
    """Identical chaos request sequences leave identical flight stories
    (modulo timing), and /v1/debug/flight serves them."""
    def run_once():
        runtime = build_runtime(jobs=1, metrics=True,
                                faults=parse_faults("solver_nan:0"))
        try:
            with ServerHarness(ServeConfig(port=0, batch_window_ms=1.0),
                               runtime) as h:
                with h.client() as c:
                    c.chip_quantile("22nm", vdd=0.5, **ARCH)
                    c.chip_quantile("22nm", vdd=0.5, **ARCH)  # memo hit
                    c.chip_quantile("22nm", vdd=0.55, **ARCH)
                    return c.flight()
        finally:
            runtime.close()

    a, b = run_once(), run_once()
    assert a["kind"] == "repro-flight-recorder"
    assert a["total"] >= 3 and a["dropped"] == 0
    kinds = [e["kind"] for e in a["events"]]
    assert "admit" in kinds and "flush" in kinds and "solve" in kinds
    assert "coalesce" in kinds                     # the memo hit
    assert strip_timing(a["events"]) == strip_timing(b["events"])


def test_server_flight_deterministic_under_worker_crash(fresh_cache):
    """A crashed-and-respawned pool worker leaves the same flight story
    as its twin run: the recovery below the dispatcher is deterministic."""
    vdds = [round(0.45 + 0.01 * i, 9) for i in range(16)]

    def run_once():
        runtime = build_runtime(jobs=2, metrics=True,
                                faults=parse_faults("worker_crash:1"))
        try:
            with ServerHarness(ServeConfig(port=0, max_batch=16,
                                           batch_window_ms=50.0),
                               runtime) as h:
                with h.client() as c:
                    values = c.query("22nm", vdd=vdds, **ARCH)["values"]
                    return values, c.flight()
        finally:
            runtime.close()

    (values_a, a), (values_b, b) = run_once(), run_once()
    assert values_a == values_b
    assert [e["kind"] for e in a["events"]].count("solve") >= 1
    assert all(e["ok"] for e in a["events"] if e["kind"] == "solve")
    assert strip_timing(a["events"]) == strip_timing(b["events"])


def test_server_flight_disabled_with_zero_capacity(fresh_cache):
    with ServerHarness(ServeConfig(port=0, flight_capacity=0)) as h:
        with h.client() as c:
            c.chip_quantile("22nm", vdd=0.55, **ARCH)
            snap = c.flight()
    assert snap["capacity"] == 0 and snap["events"] == []


def test_serve_module_cli_sigusr2_dump_and_artifacts(fresh_cache, tmp_path):
    """End-to-end over the real CLI: SIGUSR2 dumps the flight ring to
    stderr; shutdown writes the Chrome trace and flight-bearing manifest."""
    trace_file = tmp_path / "serve_trace.json"
    manifest_file = tmp_path / "serve_manifest.json"
    env = dict(os.environ,
               PYTHONPATH="src",
               REPRO_CACHE_DIR=str(tmp_path / "cache"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--port", "0",
         "--trace", str(trace_file), "--metrics", str(manifest_file),
         "--window-s", "5", "--flight-capacity", "64"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=env, cwd=os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
    try:
        line = proc.stdout.readline()
        assert "listening on" in line, line
        port = int(line.rsplit(":", 1)[1])
        with ServeClient("127.0.0.1", port) as c:
            value = c.chip_quantile("22nm", vdd=0.55, **ARCH)
            assert value > 0
        proc.send_signal(signal.SIGUSR2)
        time.sleep(0.5)                      # let the handler run
        proc.send_signal(signal.SIGTERM)
        _, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, stderr
    assert "flight-recorder dump" in stderr
    dump_line = next(ln for ln in stderr.splitlines()
                     if ln.startswith("{"))
    dump = json.loads(dump_line)
    assert dump["kind"] == "repro-flight-recorder"
    assert any(e["kind"] == "admit" for e in dump["events"])
    trace = json.loads(trace_file.read_text())
    assert any(e["name"] == "serve.request"
               for e in trace["traceEvents"])
    manifest = json.loads(manifest_file.read_text())
    assert manifest["run"]["targets"] == ["serve"]
    assert manifest["flight"]["total"] >= 1
    assert manifest["metrics"]["counters"]["serve.requests"] >= 1


# -- adaptive load shedding (dispatcher) ---------------------------------------


def test_dispatcher_sheds_when_estimated_wait_exceeds_deadline():
    flight = FlightRecorder(capacity=32)

    def solve(key, points):
        return [p[0] * 2.0 for p in points]

    async def scenario():
        metrics = MetricsRegistry()
        d = MicroBatchDispatcher(solve, metrics, max_batch=8,
                                 window_s=30.0, max_queue=64,
                                 flight=flight)
        warm = (0.4, 0.0, 0.99)
        task = asyncio.ensure_future(d.resolve(KEY, [warm], timeout=10))
        await asyncio.sleep(0)
        d.flush()
        assert await task == [0.8]
        # the cost model primed itself from the settled batch
        assert d.solve_ewma_s is not None and d.solve_ewma_s > 0
        # pretend solves cost 5 s/point, then park one point in the
        # long batch window so the queue is non-empty
        d._ewma_point_s = 5.0
        parked = asyncio.ensure_future(
            d.resolve(KEY, [(0.5, 0.0, 0.99)], timeout=60))
        await asyncio.sleep(0)
        assert d.queued == 1
        # estimated wait (1 queued + 1 new) * 5 s >> the 2 s deadline
        with pytest.raises(ShedError) as exc:
            await d.resolve(KEY, [(0.6, 0.0, 0.99)], timeout=2)
        assert exc.value.retry_after_s >= 1.0
        # a memoised point sails through under the same deadline
        assert await d.resolve(KEY, [warm], timeout=2) == [0.8]
        d.flush()
        assert await parked == [1.0]
        # with the queue drained the same request is admitted
        d._ewma_point_s = 0.0001
        admitted = asyncio.ensure_future(
            d.resolve(KEY, [(0.6, 0.0, 0.99)], timeout=2))
        await asyncio.sleep(0)
        d.flush()
        value = await admitted
        await d.aclose()
        return value, metrics

    value, metrics = _run_async(scenario())
    assert value == [1.2]
    snap = metrics.as_dict()
    assert snap["counters"]["serve.shed.deadline"] == 1
    assert "serve.estimated_wait_s" in snap["gauges"]
    shed = [e for e in flight.snapshot()["events"] if e["kind"] == "shed"]
    assert len(shed) == 1 and shed[0]["reason"] == "deadline"


def test_dispatcher_degraded_mode_is_cache_hit_only():
    def solve(key, points):
        return [p[0] * 2.0 for p in points]

    async def scenario():
        metrics = MetricsRegistry()
        d = MicroBatchDispatcher(solve, metrics, max_batch=8,
                                 window_s=30.0, max_queue=4,
                                 degraded_ratio=0.5)
        warm = (0.4, 0.0, 0.99)
        task = asyncio.ensure_future(d.resolve(KEY, [warm], timeout=10))
        await asyncio.sleep(0)
        d.flush()
        assert await task == [0.8]
        # park 2 of max_queue=4 points: saturation 0.5 -> degraded
        parked = [asyncio.ensure_future(
            d.resolve(KEY, [(v, 0.0, 0.99)], timeout=60))
            for v in (0.5, 0.6)]
        await asyncio.sleep(0)
        assert d.queued == 2 and d.saturation == 0.5
        assert d.degraded
        # cold point: rejected with a Retry-After hint
        with pytest.raises(DegradedError) as exc:
            await d.resolve(KEY, [(0.7, 0.0, 0.99)], timeout=10)
        assert exc.value.retry_after_s >= 1.0
        # memo hit: still answered
        assert await d.resolve(KEY, [warm], timeout=10) == [0.8]
        # in-flight join: still answered
        join = asyncio.ensure_future(
            d.resolve(KEY, [(0.5, 0.0, 0.99)], timeout=60))
        await asyncio.sleep(0)
        d.flush()
        assert [await t for t in parked] == [[1.0], [1.2]]
        assert await join == [1.0]
        # saturation receded: cold points admitted again
        assert not d.degraded
        final = asyncio.ensure_future(
            d.resolve(KEY, [(0.7, 0.0, 0.99)], timeout=10))
        await asyncio.sleep(0)
        d.flush()
        value = await final
        await d.aclose()
        return value, metrics

    value, metrics = _run_async(scenario())
    assert value == [1.4]
    snap = metrics.as_dict()
    assert snap["counters"]["serve.shed.degraded"] == 1
    assert snap["counters"]["serve.singleflight_joins"] == 1
    assert snap["counters"]["serve.memo_hits"] == 1


def test_dispatcher_no_shed_disables_admission_control():
    def solve(key, points):
        return [p[0] for p in points]

    async def scenario():
        d = MicroBatchDispatcher(solve, MetricsRegistry(), max_batch=8,
                                 window_s=0.001, max_queue=4, shed=False)
        # an absurd cost model would shed everything -- but shed=False
        d._ewma_point_s = 1000.0
        assert not d.degraded
        value = await d.resolve(KEY, [(0.5, 0.0, 0.99)], timeout=2)
        await d.aclose()
        return value

    assert _run_async(scenario()) == [0.5]


def test_dispatcher_bounded_drain_fails_stranded_waiters():
    release = threading.Event()

    def solve(key, points):
        release.wait(10)
        return [p[0] for p in points]

    async def scenario():
        metrics = MetricsRegistry()
        d = MicroBatchDispatcher(solve, metrics, max_batch=4,
                                 window_s=0.001)
        task = asyncio.ensure_future(
            d.resolve(KEY, [(0.5, 0.0, 0.99)], timeout=30))
        await asyncio.sleep(0.05)          # flushed; solve is blocked
        await d.aclose(drain_timeout_s=0.05)
        with pytest.raises(DrainingError):
            await task
        release.set()
        await asyncio.sleep(0.05)          # let the solver thread settle
        return metrics

    metrics = _run_async(scenario())
    assert metrics.as_dict()["counters"]["serve.drain_timeouts"] == 1


# -- drain / readiness over HTTP -----------------------------------------------


def test_server_draining_fails_readiness_not_liveness(fresh_cache):
    """Satellite regression: a draining server keeps answering liveness
    (200 /healthz) while readiness (/readyz) and new solves fail 503."""
    with ServerHarness(ServeConfig(port=0)) as h:
        with h.client() as c:
            assert c.chip_quantile("22nm", vdd=0.55, **ARCH) > 0
            assert c.ready()["ready"] is True
            health = c.health()
            assert health["draining"] is False
            assert health["degraded"] is False
            assert health["queue_saturation"] == 0.0

            h.server._draining = True
            health = c.health()
            assert health["ok"] is True          # liveness holds
            assert health["draining"] is True
            with pytest.raises(ServeRequestError) as not_ready:
                c.ready()
            assert not_ready.value.status == 503
            assert not_ready.value.code == "not_ready"
            with pytest.raises(ServeRequestError) as rejected:
                c.chip_quantile("22nm", vdd=0.6, **ARCH)
            assert rejected.value.status == 503
            assert rejected.value.code == "draining"
            assert rejected.value.retry_after == 1.0
            # intentional rejections never burn the error budget
            snap = c.metrics()
            assert snap["gauges"]["serve.error_rate"] == 0.0
            assert snap["counters"]["serve.shed.responses"] >= 2

            # saturation alone also fails readiness (still alive)
            h.server._draining = False
            h.server.dispatcher._queued = h.server.dispatcher.max_queue
            assert c.health()["degraded"] is True
            with pytest.raises(ServeRequestError) as saturated:
                c.ready()
            assert saturated.value.status == 503
            h.server.dispatcher._queued = 0

            assert c.ready()["ready"] is True
            assert c.chip_quantile("22nm", vdd=0.6, **ARCH) == \
                direct_values([0.6])[0]


def test_server_shed_latency_excluded_from_slo_window(fresh_cache):
    """Satellite: 429s land in serve.shed_latency_ms, never in the
    served-latency histogram/window -- burn rates stay honest."""
    config = ServeConfig(port=0, max_queue=1, batch_window_ms=200.0)
    with ServerHarness(config) as h:
        with h.client() as c:
            assert c.chip_quantile("22nm", vdd=0.55, **ARCH) > 0
            with pytest.raises(ServeRequestError) as exc:
                c.chip_quantile_batch("22nm", vdd=[0.5, 0.52, 0.6], **ARCH)
            assert exc.value.status == 429
            snap = c.metrics()
    assert snap["histograms"]["serve.shed_latency_ms"]["count"] == 1
    # only the served solve was observed (the /v1/metrics request itself
    # is accounted after its own snapshot renders)
    assert snap["histograms"]["serve.latency_ms"]["count"] == 1
    assert snap["counters"]["serve.shed.responses"] == 1
    assert snap["gauges"]["serve.error_rate"] == 0.0


# -- client reconnect path (stub sockets) --------------------------------------


def _http_response(body: bytes) -> bytes:
    return (b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n"
            b"Connection: keep-alive\r\n\r\n" + body)


def _read_http_request(conn) -> bytes:
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(4096)
        if not chunk:
            return data
        data += chunk
    return data


def _stub_http_server(handlers):
    """Raw-socket server running one scripted handler per connection."""
    srv = socket.create_server(("127.0.0.1", 0))
    srv.settimeout(10)
    accepted = []

    def run():
        for handler in handlers:
            try:
                conn, _ = srv.accept()
            except OSError:
                return
            accepted.append(handler)
            try:
                handler(conn)
            finally:
                with contextlib.suppress(OSError):
                    conn.close()

    threading.Thread(target=run, daemon=True).start()
    return srv, srv.getsockname()[1], accepted


def test_client_roundtrip_reconnects_once_on_stale_keepalive():
    """Satellite: the server closing a keep-alive between requests is
    healed by one transparent reconnect on a fresh socket."""
    body = b'{"ok": true}'

    def serve_once_then_close(conn):
        _read_http_request(conn)
        conn.sendall(_http_response(body))
        # returning closes the socket: the pooled keep-alive goes stale

    srv, port, accepted = _stub_http_server(
        [serve_once_then_close, serve_once_then_close])
    try:
        with ServeClient("127.0.0.1", port, timeout=10) as c:
            assert c.health() == {"ok": True}
            # second request rides the dead pooled socket first, then
            # transparently succeeds on a fresh connection
            assert c.health() == {"ok": True}
    finally:
        srv.close()
    assert len(accepted) == 2


def test_client_roundtrip_surfaces_error_when_both_attempts_fail():
    """Satellite: when the fresh socket fails too, the original
    exception propagates -- never a silent ``None`` round trip."""
    def slam(conn):
        pass                                 # close without responding

    srv, port, accepted = _stub_http_server([slam, slam])
    try:
        with ServeClient("127.0.0.1", port, timeout=10) as c:
            # a TypeError here would mean _roundtrip returned None
            with pytest.raises((ConnectionError,
                                http.client.HTTPException, OSError)):
                c.health()
    finally:
        srv.close()
    assert len(accepted) == 2


# -- resilient client ----------------------------------------------------------


def _fast_policy(max_retries=3):
    return RetryPolicy(max_retries=max_retries, backoff_base_s=0.01,
                       backoff_cap_s=10.0)


def test_resilient_client_retries_and_honors_retry_after(monkeypatch):
    script = [ServeRequestError(429, "shed", "try later", 3.0),
              ConnectionResetError("mid-flight reset"),
              {"values": [1.0]}]

    def fake_request(self, method, path, payload=None):
        action = script.pop(0)
        if isinstance(action, Exception):
            raise action
        return action

    monkeypatch.setattr(ServeClient, "_request", fake_request)
    sleeps = []
    metrics = MetricsRegistry()
    c = ResilientServeClient(policy=_fast_policy(), metrics=metrics,
                             sleep=sleeps.append)
    assert c._request("POST", "/v1/query", {}) == {"values": [1.0]}
    assert not script
    assert len(sleeps) == 2
    assert sleeps[0] >= 3.0        # Retry-After floors the backoff
    assert c.retries == 2 and c.giveups == 0
    snap = metrics.as_dict()
    assert snap["counters"]["serve.retry.attempts"] == 2
    assert "serve.retry.giveups" not in snap["counters"]


def test_resilient_client_never_retries_after_2xx(monkeypatch):
    calls = []

    def fake_request(self, method, path, payload=None):
        calls.append(path)
        raise ServeRequestError(200, "bad_payload",
                                "server returned non-object JSON")

    monkeypatch.setattr(ServeClient, "_request", fake_request)
    c = ResilientServeClient(policy=_fast_policy(),
                             sleep=lambda s: None)
    with pytest.raises(ServeRequestError) as exc:
        c._request("GET", "/healthz")
    assert exc.value.status == 200
    assert calls == ["/healthz"]           # exactly one attempt
    assert c.retries == 0


@pytest.mark.parametrize("status,code", [(400, "bad_request"),
                                         (404, "not_found"),
                                         (408, "deadline_exceeded"),
                                         (500, "internal")])
def test_resilient_client_never_retries_non_retryable(monkeypatch,
                                                      status, code):
    calls = []

    def fake_request(self, method, path, payload=None):
        calls.append(1)
        raise ServeRequestError(status, code, "answered, not retryable")

    monkeypatch.setattr(ServeClient, "_request", fake_request)
    c = ResilientServeClient(policy=_fast_policy(),
                             sleep=lambda s: None)
    with pytest.raises(ServeRequestError):
        c._request("POST", "/v1/query", {})
    assert len(calls) == 1


def test_resilient_client_gives_up_after_policy_budget(monkeypatch):
    calls = []

    def fake_request(self, method, path, payload=None):
        calls.append(1)
        raise ServeRequestError(503, "draining", "still draining", 0.0)

    monkeypatch.setattr(ServeClient, "_request", fake_request)
    metrics = MetricsRegistry()
    c = ResilientServeClient(policy=_fast_policy(max_retries=2),
                             metrics=metrics, sleep=lambda s: None,
                             breaker_threshold=100)
    with pytest.raises(ServeRequestError) as exc:
        c._request("POST", "/v1/query", {})
    assert exc.value.status == 503
    assert len(calls) == 3                 # 1 + max_retries
    assert c.giveups == 1
    assert metrics.as_dict()["counters"]["serve.retry.giveups"] == 1


def test_resilient_client_backoff_is_deterministic(monkeypatch):
    def fail_twice_then_ok():
        state = {"n": 0}

        def fake_request(self, method, path, payload=None):
            state["n"] += 1
            if state["n"] <= 2:
                raise ConnectionResetError("boom")
            return {"ok": True}
        return fake_request

    def run_once():
        sleeps = []
        c = ResilientServeClient(policy=_fast_policy(),
                                 sleep=sleeps.append)
        c._request("GET", "/healthz")
        return sleeps

    monkeypatch.setattr(ServeClient, "_request", fail_twice_then_ok())
    a = run_once()
    monkeypatch.setattr(ServeClient, "_request", fail_twice_then_ok())
    b = run_once()
    assert a == b and len(a) == 2          # CRC32 jitter, no RNG state


def test_resilient_client_circuit_breaker_opens_probes_and_closes(
        monkeypatch):
    behavior = {"fail": True}
    calls = []

    def fake_request(self, method, path, payload=None):
        calls.append(1)
        if behavior["fail"]:
            raise ConnectionResetError("down")
        return {"ok": True}

    monkeypatch.setattr(ServeClient, "_request", fake_request)
    now = [0.0]
    metrics = MetricsRegistry()
    c = ResilientServeClient(policy=_fast_policy(max_retries=0),
                             breaker_threshold=3, breaker_reset_s=10.0,
                             metrics=metrics, sleep=lambda s: None,
                             clock=lambda: now[0])
    from repro.serve.resilient import (BREAKER_CLOSED, BREAKER_OPEN)
    # three consecutive failures open the circuit
    for _ in range(3):
        with pytest.raises(ConnectionResetError):
            c._request("GET", "/healthz")
    assert c.breaker_state == BREAKER_OPEN
    assert metrics.as_dict()["gauges"]["serve.breaker_state"] == 2.0
    # while open: fail fast, no socket touched
    n_calls = len(calls)
    with pytest.raises(CircuitOpenError) as exc:
        c._request("GET", "/healthz")
    assert len(calls) == n_calls
    assert 0 < exc.value.retry_after <= 10.0
    # after the reset window a half-open probe that fails re-opens...
    now[0] = 10.5
    with pytest.raises(ConnectionResetError):
        c._request("GET", "/healthz")
    assert c.breaker_state == BREAKER_OPEN
    # ...and one that succeeds closes the circuit for good
    now[0] = 21.0
    behavior["fail"] = False
    assert c._request("GET", "/healthz") == {"ok": True}
    assert c.breaker_state == BREAKER_CLOSED
    assert metrics.as_dict()["gauges"]["serve.breaker_state"] == 0.0
    assert c._request("GET", "/healthz") == {"ok": True}


# -- network chaos -------------------------------------------------------------


def test_serve_network_chaos_twin_bit_identical(tmp_path, monkeypatch):
    """The tentpole gate: a retrying client driving a server under
    conn_reset + slow_read + partial_write + garbled_response +
    solver_nan gets byte-identical values_hex to a clean serial solve,
    twice over, with every fault on the flight recorder."""
    monkeypatch.setenv("REPRO_FAULT_SLOW_S", "0.01")
    vdds = [0.5, 0.52, 0.54, 0.56]
    spec = ("conn_reset:0,slow_read:3,partial_write:4,"
            "garbled_response:5,solver_nan:0")

    def run_once(tag):
        # each run gets a cold quantile cache so the poisoned solve
        # (and its rescue) actually executes both times
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / tag))
        runtime = build_runtime(jobs=1, metrics=True,
                                faults=parse_faults(spec))
        try:
            with ServerHarness(ServeConfig(port=0, batch_window_ms=1.0),
                               runtime) as h:
                with ResilientServeClient(
                        "127.0.0.1", h.port, timeout=30,
                        policy=RetryPolicy(max_retries=3,
                                           backoff_base_s=0.01,
                                           backoff_cap_s=0.05)) as c:
                    hexes = [c.query("22nm", vdd=v, **ARCH)
                             ["values_hex"][0] for v in vdds]
                    health = c.health()
                    snap = c.metrics()
                    flight = c.flight()
                    retries = c.retries
            assert health["ok"] is True and health["queued"] == 0
            return hexes, snap, flight, retries
        finally:
            runtime.close()

    hex_a, snap_a, flight_a, retries_a = run_once("run-a")
    hex_b, snap_b, flight_b, retries_b = run_once("run-b")
    # the poisoned first point answers via the scalar Brent rescue
    # (same bits as the rescue ladder in a clean CLI run); every other
    # point must match the batch exactly
    engine = ChipDelayEngine(get_technology("22nm"), **ARCH)
    expected = [engine._brent_quantile(vdds[0], 0.99, 0.0).hex()]
    expected += [v.hex() for v in direct_values(vdds[1:])]
    assert hex_a == expected
    assert hex_b == expected
    # every injected fault fired exactly once, on both runs
    for snap in (snap_a, snap_b):
        assert snap["counters"]["serve.net_faults"] == 4
        for kind in ("conn_reset", "slow_read", "partial_write",
                     "garbled_response"):
            assert snap["counters"][f"serve.net_fault.{kind}"] == 1
        assert snap["counters"]["resilience.solver.fallback_scalar"] == 1
    net = [e for e in flight_a["events"] if e["kind"] == "net_fault"]
    assert sorted(e["fault"] for e in net) == sorted(
        ["conn_reset", "garbled_response", "partial_write", "slow_read"])
    # the chaos story itself is a twin (modulo timing)
    assert strip_timing(flight_a["events"]) == \
        strip_timing(flight_b["events"])
    assert retries_a == retries_b >= 1


def test_serve_cli_graceful_drain_completes_inflight(fresh_cache, tmp_path):
    """SIGTERM mid-batch-window: the parked request completes 200 with
    correct bits, a new request gets 503 draining, and the process
    exits 0 well inside --drain-timeout-s."""
    env = dict(os.environ, PYTHONPATH="src",
               REPRO_CACHE_DIR=str(tmp_path / "cache"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--port", "0",
         "--batch-window-ms", "1500", "--drain-timeout-s", "20"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, cwd=os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
    try:
        line = proc.stdout.readline()
        assert "listening on" in line, line
        port = int(line.rsplit(":", 1)[1])
        # warm the engine so the parked request below solves quickly
        with ServeClient("127.0.0.1", port, timeout=60) as warm:
            warm.chip_quantile("22nm", vdd=0.5, **ARCH)
        results = {}

        def inflight():
            with ServeClient("127.0.0.1", port, timeout=60) as cc:
                results["value"] = cc.chip_quantile("22nm", vdd=0.55,
                                                    **ARCH)

        t = threading.Thread(target=inflight)
        t.start()
        time.sleep(0.4)                  # parked in the batch window
        t_drain = time.monotonic()
        proc.send_signal(signal.SIGTERM)
        time.sleep(0.3)                  # drain begun, window still open
        with ServeClient("127.0.0.1", port, timeout=10) as probe:
            with pytest.raises(ServeRequestError) as exc:
                probe.chip_quantile("22nm", vdd=0.6, **ARCH)
        assert exc.value.status == 503
        assert exc.value.code == "draining"
        t.join(30)
        stdout, stderr = proc.communicate(timeout=30)
        elapsed = time.monotonic() - t_drain
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, stderr
    assert elapsed < 20, f"drain blew its budget: {elapsed:.1f}s"
    assert results["value"] == direct_values([0.55])[0]
    assert "drained clean=True" in stdout


def test_server_tail_quantile_roundtrip(fresh_cache):
    """/v1/tail_quantile solves, memoises, and surfaces diagnostics."""
    point = dict(vdd=0.55, q=0.999, n_samples=256, root_seed=3, **ARCH)
    with ServerHarness(ServeConfig(port=0)) as h:
        with h.client() as c:
            first = c.tail_quantile("22nm", **point)
            again = c.tail_quantile("22nm", **point)
            metrics = c.metrics()
            with pytest.raises(ServeRequestError) as err:
                c.tail_quantile("22nm", vdd=0.55, q=1.5, **ARCH)
            with pytest.raises(ServeRequestError):
                c.tail_quantile("22nm", vdd=0.55, q=0.999,
                                n_samples=0, **ARCH)
    assert err.value.status == 400
    assert first["values_hex"] == again["values_hex"]
    assert first["value"] == first["values"][0] > 0.0
    est = first["estimates"][0]
    assert est["kind"] == "quantile"
    assert est["ess"] > 2.0
    assert 0.0 < est["weight_max_ratio"] < 1.0
    assert est["proposal"]["d2d_shifts"][0] > 0.0
    gauges = metrics["gauges"]
    assert gauges["tail.ess"] > 0.0
    assert gauges["tail.weight_max_ratio"] > 0.0
    assert metrics["counters"]["serve.tail_points"] >= 2
    # The solve is deterministic: a local analyzer at the same
    # architecture reproduces the served bits exactly.
    local = VariationAnalyzer("22nm", **ARCH).chip_tail_quantile(
        0.55, 0.999, n_samples=256, root_seed=3)
    assert local.value.hex() in first["values_hex"]


def test_server_tail_explicit_shift_skips_search(fresh_cache):
    with ServerHarness(ServeConfig(port=0)) as h:
        with h.client() as c:
            got = c.tail_quantile("22nm", vdd=0.55, q=0.999,
                                  n_samples=128, shift=2.5,
                                  defensive_weight=0.2, **ARCH)
    est = got["estimates"][0]
    assert est["shift_search_rounds"] == 0
    assert est["proposal"]["d2d_shifts"] == [2.5, 0.0]
    assert est["proposal"]["mix_weights"] == [0.8, 0.2]
