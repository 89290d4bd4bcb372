"""Sign-off-as-a-service: the asyncio HTTP front end.

:class:`SignoffServer` keeps everything expensive warm across requests —
technology cards, per-architecture :class:`~repro.core.analyzer.
VariationAnalyzer` instances (and with them the engine kernel LRUs), one
shared on-disk :class:`~repro.runtime.cache.QuantileCache`, and the
runtime's worker pool — and answers sign-off queries over JSON/HTTP:

=========================== ====== =====================================
route                       method semantics
=========================== ====== =====================================
``/healthz``                GET    liveness + uptime + drain/degrade flags
``/readyz``                 GET    readiness: 503 when draining/degraded
``/metrics``                GET    OpenMetrics text (Prometheus scrape)
``/v1/metrics``             GET    metrics snapshot (latency gauges set)
``/v1/debug/flight``        GET    flight-recorder ring dump
``/v1/chip_quantile``       POST   one point -> scalar quantile
``/v1/chip_quantile_batch`` POST   broadcastable arrays -> value list
``/v1/query``               POST   alias of ``chip_quantile_batch``
``/v1/signoff_sweep``       POST   sweep + nominal baseline, FO4 + drops
``/v1/tail_quantile``       POST   importance-sampled deep-tail estimates
=========================== ====== =====================================

Overload resilience: the dispatcher's adaptive admission control sheds
requests whose estimated queue wait already exceeds their deadline (429
``shed`` with ``Retry-After``), goes cache-hit-only once the queue
saturates (429 ``degraded``), and shed responses are accounted in
``serve.shed_latency_ms`` — never in the served-latency SLO window.  On
SIGTERM the server *drains* instead of cancelling: in-flight solves
finish under the ``drain_timeout_s`` budget while new solve requests
are answered 503 ``draining`` with ``Connection: close``; only then do
the listener, dispatcher and idle connections come down.  Network
faults from the :mod:`~repro.resilience.faultlab` (``conn_reset``,
``slow_read``, ``partial_write``, ``garbled_response``) are injected at
this transport, targeted by request ordinal.

Telemetry: requests carrying an ``X-Repro-Trace: trace_id[/span_id]``
header are answered inside a ``serve.request`` span joined to the
client's trace (the trace id is echoed in the JSON payload for
correlation), latency/QPS/error-rate gauges are computed over a rolling
~60 s window rather than process lifetime, and a flight recorder keeps
the last few hundred hot-path events for ``/v1/debug/flight``, the
SIGUSR2 dump and the shutdown manifest.

Every solve funnels through the :class:`~repro.serve.dispatcher.
MicroBatchDispatcher`, so concurrent clients share batch solves and a
single-flight memo (see that module for the guarantees).  Responses
carry ``values`` (floats, which JSON round-trips bit-exactly) plus
``values_hex`` (``float.hex()``) for byte-for-byte comparisons.

:func:`run_server` is the blocking entry point the CLI target wraps: it
serves until SIGINT/SIGTERM, then drains in-flight batches and returns a
summary dict for the run manifest.
"""

from __future__ import annotations

import asyncio
import contextlib
import json as _json
import signal
import sys
import time
from dataclasses import dataclass

import numpy as np

from repro.core.analyzer import VariationAnalyzer
from repro.devices.technology import available_technologies
from repro.errors import ConfigurationError
from repro.obs.api import build_obs
from repro.obs.flight import NOOP_FLIGHT, FlightRecorder
from repro.obs.metrics import WindowedCounter, WindowedHistogram
from repro.obs.openmetrics import OPENMETRICS_CONTENT_TYPE, render_openmetrics
from repro.runtime import (
    QuantileCache,
    build_runtime,
    release_worker_workspaces,
)
from repro.resilience.faultlab import NETWORK_FAULTS, active_plan, slow_seconds
from repro.runtime.context import activate_runtime
from repro.serve.dispatcher import MicroBatchDispatcher
from repro.core.tailsampling import ShiftProposal
from repro.serve.protocol import (
    BadRequestError,
    DrainingError,
    ServeError,
    TailKey,
    error_response,
    json_response,
    parse_query,
    parse_tail_query,
    parse_trace_header,
    read_request,
    text_response,
)

__all__ = ["ServeConfig", "SignoffServer", "run_server",
           "LATENCY_BUCKETS_MS"]

#: ``serve.latency_ms`` histogram bounds (sub-ms cache hits to slow solves).
LATENCY_BUCKETS_MS = (1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500,
                      5000, 10000)

#: Routes that enqueue solves (gated by draining / admission control).
SOLVE_ROUTES = ("/v1/chip_quantile", "/v1/chip_quantile_batch",
                "/v1/query", "/v1/signoff_sweep", "/v1/tail_quantile")

#: Deterministic non-HTTP bytes sent by an injected ``garbled_response``.
GARBLED_BYTES = b"\x15\x03\x01\x00\x02\x02\x16repro-garbled-response\r\n\r\n"


@dataclass
class ServeConfig:
    """Knobs for one server instance (all validated at construction).

    ``port=0`` lets the OS pick a free port (announced on stdout by
    :func:`run_server` and available as ``SignoffServer.port``).
    ``deadline_ms=None`` defaults each request's deadline to the retry
    policy's ``shard_timeout_s``.

    Telemetry knobs: ``window_s`` sizes the rolling window behind the
    live latency/QPS/error-rate gauges; ``slo_availability`` and
    ``slo_latency_ms`` are the SLO targets the burn-rate gauges measure
    against (error budget = ``1 - slo_availability``, shared by the
    latency budget); ``flight_capacity`` bounds the flight-recorder
    ring (0 disables it entirely).

    Resilience knobs: ``shed`` enables adaptive admission control
    (``shed=False`` falls back to the hard max-queue 429);
    ``degraded_ratio`` is the queue saturation at which the server goes
    cache-hit-only; ``drain_timeout_s`` bounds how long a SIGTERM drain
    waits for in-flight solves before failing them.
    """

    host: str = "127.0.0.1"
    port: int = 8437
    max_batch: int = 32
    batch_window_ms: float = 2.0
    max_queue: int = 1024
    deadline_ms: float | None = None
    window_s: float = 60.0
    slo_availability: float = 0.999
    slo_latency_ms: float = 250.0
    flight_capacity: int = 512
    shed: bool = True
    degraded_ratio: float = 0.75
    drain_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if not 0 <= int(self.port) <= 65535:
            raise ConfigurationError(f"port must be in [0, 65535], got {self.port}")
        if int(self.max_batch) < 1:
            raise ConfigurationError(
                f"max_batch must be >= 1, got {self.max_batch}")
        if float(self.batch_window_ms) < 0:
            raise ConfigurationError(
                f"batch_window_ms must be >= 0, got {self.batch_window_ms}")
        if int(self.max_queue) < 1:
            raise ConfigurationError(
                f"max_queue must be >= 1, got {self.max_queue}")
        if self.deadline_ms is not None and float(self.deadline_ms) <= 0:
            raise ConfigurationError(
                f"deadline_ms must be > 0, got {self.deadline_ms}")
        if float(self.window_s) <= 0:
            raise ConfigurationError(
                f"window_s must be > 0, got {self.window_s}")
        if not 0.0 < float(self.slo_availability) < 1.0:
            raise ConfigurationError(
                "slo_availability must be in (0, 1), got "
                f"{self.slo_availability}")
        if float(self.slo_latency_ms) <= 0:
            raise ConfigurationError(
                f"slo_latency_ms must be > 0, got {self.slo_latency_ms}")
        if int(self.flight_capacity) < 0:
            raise ConfigurationError(
                f"flight_capacity must be >= 0, got {self.flight_capacity}")
        if not 0.0 < float(self.degraded_ratio) <= 1.0:
            raise ConfigurationError(
                f"degraded_ratio must be in (0, 1], got {self.degraded_ratio}")
        if float(self.drain_timeout_s) <= 0:
            raise ConfigurationError(
                f"drain_timeout_s must be > 0, got {self.drain_timeout_s}")


class SignoffServer:
    """One serving instance bound to a runtime (see module docstring)."""

    def __init__(self, config: ServeConfig,
                 runtime=None) -> None:
        self.config = config
        self._owns_runtime = runtime is None
        if runtime is None:
            runtime = build_runtime(jobs=1, metrics=True)
        if not runtime.obs.metrics.enabled:
            # The dispatcher's coalescing stats double as its accounting;
            # serving without a live registry is never worth the saving.
            runtime.obs = build_obs(trace=runtime.obs.tracer.enabled,
                                    metrics=True)
        self._runtime = runtime
        self.metrics = runtime.obs.metrics
        self.flight = (FlightRecorder(config.flight_capacity)
                       if config.flight_capacity else NOOP_FLIGHT)
        self._win_latency = WindowedHistogram(
            "serve.latency_ms", LATENCY_BUCKETS_MS,
            window_s=config.window_s)
        self._win_requests = WindowedCounter("serve.requests",
                                             window_s=config.window_s)
        self._win_errors = WindowedCounter("serve.errors",
                                           window_s=config.window_s)
        retry = getattr(runtime.sampler, "retry", None) or None
        self._deadline_s = (
            float(config.deadline_ms) / 1000.0
            if config.deadline_ms is not None
            else float((retry.shard_timeout_s if retry is not None
                        else 300.0)))
        self.dispatcher = MicroBatchDispatcher(
            self._solve, self.metrics,
            max_batch=config.max_batch,
            window_s=float(config.batch_window_ms) / 1000.0,
            max_queue=config.max_queue,
            policy=retry,
            on_idle=self._on_idle,
            tracer=runtime.obs.tracer,
            flight=self.flight,
            rolling_window_s=config.window_s,
            shed=config.shed,
            degraded_ratio=config.degraded_ratio)
        self._nodes = frozenset(available_technologies())
        self._cache = QuantileCache()
        self._analyzers: dict = {}
        self._server: asyncio.base_events.Server | None = None
        self._conn_tasks: set = set()
        self._started = time.monotonic()
        self.requests = 0
        self.drained_clean = True
        self._draining = False
        self._active_requests = 0
        self._req_ordinal = 0
        self._faults = getattr(runtime, "faults", None)

    # -- engine plumbing -----------------------------------------------------

    def _analyzer(self, key) -> VariationAnalyzer:
        """The served analyzer for one engine identity (loop thread only)."""
        analyzer = self._analyzers.get(key)
        if analyzer is None:
            analyzer = VariationAnalyzer(
                key.node, width=key.width,
                paths_per_lane=key.paths_per_lane,
                chain_length=key.chain_length,
                quantile_cache=self._cache)
            self._analyzers[key] = analyzer
        return analyzer

    def _on_idle(self) -> None:
        """Release kernel workspaces when the request queue drains.

        A long-lived server's memoised kernels would otherwise keep
        their grow-only workspaces at the high-water mark of the largest
        request ever served.  Runs on the event loop between bursts, so
        there is no solve in flight to race with; the buffers regrow on
        the next batch.  The gauge is set on the server's registry
        directly (no obs context is active on the loop thread).
        """
        freed = release_worker_workspaces()
        if freed:
            self.metrics.counter("serve.idle_releases").inc()
            self.metrics.counter("serve.idle_released_bytes").inc(freed)
            self.metrics.gauge("kernels.workspace_bytes").set(0.0)

    def _solve(self, key, points, ctx=None) -> list:
        """Blocking batch solve; runs on the dispatcher's solver thread.

        ``run_in_executor`` does not propagate contextvars, so the
        server's runtime is re-activated here — the solve sees the same
        pool, fault plan and observability as a CLI run would.  ``ctx``
        is the dispatcher's ``(trace_id, batch_span_id)``: the solve
        span joins the request's trace, and the worker-context payloads
        built inside it carry that trace into the pool workers.
        """
        if isinstance(key, TailKey):
            return self._solve_tail(key, points, ctx)
        analyzer = self._analyzers[key]
        vdds = np.array([p[0] for p in points])
        sps = np.array([p[1] for p in points])
        qs = np.array([p[2] for p in points])
        with activate_runtime(self._runtime):
            with self._runtime.obs.tracer.span(
                    "serve.solve", ctx=ctx, node=key.node,
                    points=len(points)):
                out = analyzer.chip_quantiles(vdds, sps, qs)
        return [float(v) for v in np.atleast_1d(out)]

    def _solve_tail(self, key: TailKey, points, ctx=None) -> list:
        """Batch of importance-sampled tail estimates (solver thread).

        Per-point results are full diagnostic dicts (value, ESS,
        weight-max-ratio, proposal, ...), memoised by the dispatcher
        under ``(TailKey, point)`` like any other solve; the analyzer's
        own memo + disk cache sit underneath, so a restarted server
        re-serves old estimates without re-sampling.  The ``tail.*``
        gauges land on the server's registry via the re-activated
        runtime.
        """
        analyzer = self._analyzers[key.engine]
        proposal = (None if key.shift is None else
                    ShiftProposal.defensive(key.shift,
                                            key.defensive_weight))
        out = []
        with activate_runtime(self._runtime):
            with self._runtime.obs.tracer.span(
                    "serve.tail_solve", ctx=ctx, node=key.node,
                    points=len(points), n_samples=key.n_samples):
                for vdd, spares, q in points:
                    est = analyzer.chip_tail_quantile(
                        vdd, q, spares=spares, n_samples=key.n_samples,
                        proposal=proposal, root_seed=key.root_seed,
                        defensive_weight=key.defensive_weight)
                    out.append(est.as_dict())
        return out

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port)

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the OS's pick)."""
        if self._server is None:
            return int(self.config.port)
        return self._server.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        """True once a graceful drain has begun (readiness fails)."""
        return self._draining

    async def stop(self, *, drain_timeout_s: float | None = None) -> None:
        """Graceful drain then shutdown, bounded by ``drain_timeout_s``.

        The listener stays open for the drain window: in-flight solves
        finish normally while new solve requests are answered 503
        ``draining`` with ``Connection: close`` — so load balancers see
        a clean drain rather than connection-refused.  Whatever is still
        stranded when the budget runs out is failed fast by the
        dispatcher; idle keep-alive connections are cancelled last.
        """
        budget = (float(self.config.drain_timeout_s)
                  if drain_timeout_s is None else float(drain_timeout_s))
        loop = asyncio.get_running_loop()
        deadline = loop.time() + budget
        self._draining = True
        self.flight.record("drain", phase="begin", budget_s=budget)
        while ((self._active_requests or self.dispatcher.queued)
                and loop.time() < deadline):
            await asyncio.sleep(0.005)
        self.drained_clean = not (self._active_requests
                                  or self.dispatcher.queued)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.dispatcher.aclose(
            drain_timeout_s=max(0.0, deadline - loop.time()))
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks),
                                 return_exceptions=True)
        self.flight.record("drain", phase="end", clean=self.drained_clean)
        self._set_summary_gauges()
        if self._owns_runtime:
            self._runtime.close()

    def _set_summary_gauges(self) -> None:
        """Refresh the live gauges from the rolling window.

        The latency percentiles, QPS, error rate and SLO burn rates all
        reflect the last ``window_s`` seconds — a traffic shift moves
        them within one sub-window even on a server that has been up for
        weeks (the cumulative ``serve.latency_ms`` histogram remains in
        the registry for manifests).  Burn rate is consumption of the
        error budget ``1 - slo_availability``: 1.0 means errors (or
        requests slower than ``slo_latency_ms``) are arriving exactly
        fast enough to exhaust the budget, >1 means faster.
        """
        gauge = self.metrics.gauge
        win = self._win_latency
        gauge("serve.latency_p50_ms").set(win.percentile(0.50))
        gauge("serve.latency_p99_ms").set(win.percentile(0.99))
        gauge("serve.coalesce_ratio").set(
            self.dispatcher.rolling_coalesce_ratio)
        gauge("serve.qps").set(self._win_requests.rate())
        requests = self._win_requests.total()
        errors = self._win_errors.total()
        error_rate = errors / requests if requests else 0.0
        gauge("serve.error_rate").set(error_rate)
        budget = 1.0 - self.config.slo_availability
        gauge("serve.slo_availability_target").set(
            self.config.slo_availability)
        gauge("serve.slo_availability_burn_rate").set(error_rate / budget)
        gauge("serve.slo_latency_target_ms").set(self.config.slo_latency_ms)
        gauge("serve.slo_latency_burn_rate").set(
            win.fraction_over(self.config.slo_latency_ms) / budget)
        gauge("serve.uptime_s").set(time.monotonic() - self._started)

    # -- connection handling -------------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except ServeError as exc:
                    writer.write(error_response(exc, keep_alive=False))
                    await writer.drain()
                    return
                if request is None:
                    return
                method, path, headers, body = request
                ordinal = self._req_ordinal
                self._req_ordinal += 1
                close = headers.get("connection", "").lower() == "close"
                closing = close
                self._active_requests += 1
                try:
                    response = await self._dispatch(method, path, headers,
                                                    body)
                    closing = close or self._draining
                    if closing:
                        response = response.replace(
                            b"Connection: keep-alive",
                            b"Connection: close", 1)
                    fault = self._consume_net_fault(ordinal)
                    if fault is not None:
                        if await self._deliver_faulty(fault, ordinal,
                                                      response, writer):
                            return
                    else:
                        writer.write(response)
                        await writer.drain()
                finally:
                    self._active_requests -= 1
                if closing:
                    return
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.CancelledError):
            pass
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    def _consume_net_fault(self, ordinal: int):
        """The network fault kind firing on this request ordinal, if any."""
        plan = self._faults if self._faults is not None else active_plan()
        if plan is None:
            return None
        for kind in NETWORK_FAULTS:
            if plan.consume(kind, ordinal):
                return kind
        return None

    async def _deliver_faulty(self, kind: str, ordinal: int,
                              response: bytes,
                              writer: asyncio.StreamWriter) -> bool:
        """Deliver (or destroy) one response under an injected fault.

        Returns True when the connection was torn down and the handler
        loop must exit.  The solve itself already ran — so a client
        retry after ``conn_reset`` exercises the dispatcher's memo,
        proving the request is idempotent end to end.
        """
        self.metrics.counter("serve.net_faults").inc()
        self.metrics.counter(f"serve.net_fault.{kind}").inc()
        self.flight.record("net_fault", fault=kind, request=ordinal)
        ledger = getattr(self._runtime, "ledger", None)
        if ledger is not None:
            ledger.record("net_fault_injected", kind=kind, request=ordinal)
        if kind == "conn_reset":
            writer.transport.abort()
            return True
        if kind == "slow_read":
            await asyncio.sleep(slow_seconds())
            writer.write(response)
            await writer.drain()
            return False
        if kind == "partial_write":
            writer.write(response[:max(1, len(response) // 2)])
            with contextlib.suppress(Exception):
                await writer.drain()
            writer.transport.abort()
            return True
        # garbled_response: valid TCP, nonsense HTTP.
        writer.write(GARBLED_BYTES)
        with contextlib.suppress(Exception):
            await writer.drain()
        return True

    async def _dispatch(self, method: str, path: str, headers: dict,
                        body: bytes) -> bytes:
        self.requests += 1
        self.metrics.counter("serve.requests").inc()
        self._win_requests.inc()
        tctx = parse_trace_header(headers.get("x-repro-trace"))
        self.flight.record("admit", path=path, method=method)
        t0 = time.monotonic()
        response: bytes | None = None
        with self._runtime.obs.tracer.span("serve.request", ctx=tctx,
                                           path=path):
            try:
                response = await self._route(method, path, body, tctx)
            except ServeError as exc:
                self.metrics.counter("serve.errors").inc()
                if exc.status >= 500 and exc.code != "draining":
                    self._win_errors.inc()
                response = error_response(exc)
            except Exception as exc:   # noqa: BLE001 - boundary to clients
                self.metrics.counter("serve.errors").inc()
                self._win_errors.inc()
                self.flight.record("fault", path=path,
                                   error=type(exc).__name__)
                response = json_response(500, {"error": "internal",
                                               "message": repr(exc)})
            finally:
                latency_ms = (time.monotonic() - t0) * 1000.0
                status = int(response[9:12]) if response is not None else 500
                if status in (429, 503):
                    # Shed/drain rejections answer in microseconds;
                    # mixing them into the served-latency window would
                    # fake an SLO recovery exactly when the server is
                    # refusing work.  They get their own instruments.
                    self.metrics.counter("serve.shed.responses").inc()
                    self.metrics.histogram(
                        "serve.shed_latency_ms",
                        buckets=LATENCY_BUCKETS_MS).observe(latency_ms)
                else:
                    self.metrics.histogram(
                        "serve.latency_ms",
                        buckets=LATENCY_BUCKETS_MS).observe(latency_ms)
                    self._win_latency.observe(latency_ms)
        return response

    async def _route(self, method: str, path: str, body: bytes,
                     tctx) -> bytes:
        if path == "/healthz":
            if method != "GET":
                return json_response(405, {"error": "method_not_allowed",
                                           "message": "use GET"})
            payload = {"ok": True,
                       "uptime_s": time.monotonic() - self._started,
                       "queued": self.dispatcher.queued,
                       "draining": self._draining,
                       "degraded": self.dispatcher.degraded,
                       "queue_saturation": round(
                           self.dispatcher.saturation, 6)}
            return json_response(200, payload)
        if path == "/readyz":
            if method != "GET":
                return json_response(405, {"error": "method_not_allowed",
                                           "message": "use GET"})
            saturation = round(self.dispatcher.saturation, 6)
            if self._draining:
                return json_response(503, {"ready": False,
                                           "reason": "draining",
                                           "error": "not_ready",
                                           "message": "server is draining"})
            if self.dispatcher.degraded:
                return json_response(503, {"ready": False,
                                           "reason": "degraded",
                                           "error": "not_ready",
                                           "message": "queue saturated",
                                           "queue_saturation": saturation})
            return json_response(200, {"ready": True,
                                       "queue_saturation": saturation})
        if path == "/v1/metrics":
            if method != "GET":
                return json_response(405, {"error": "method_not_allowed",
                                           "message": "use GET"})
            self._set_summary_gauges()
            return json_response(200, self.metrics.as_dict())
        if path == "/metrics":
            if method != "GET":
                return json_response(405, {"error": "method_not_allowed",
                                           "message": "use GET"})
            self._set_summary_gauges()
            return text_response(
                200, render_openmetrics(self.metrics.as_dict()),
                OPENMETRICS_CONTENT_TYPE)
        if path == "/v1/debug/flight":
            if method != "GET":
                return json_response(405, {"error": "method_not_allowed",
                                           "message": "use GET"})
            return json_response(200, self.flight.snapshot())
        if path in SOLVE_ROUTES:
            if method != "POST":
                return json_response(405, {"error": "method_not_allowed",
                                           "message": "use POST"})
            if self._draining:
                exc = DrainingError(
                    "server is draining; retry against another replica")
                exc.retry_after_s = 1.0
                raise exc
            try:
                parsed = _json.loads(body.decode() or "null")
            except (UnicodeDecodeError, _json.JSONDecodeError) as exc:
                raise BadRequestError(
                    f"body is not valid JSON: {exc}") from None
            if path == "/v1/signoff_sweep":
                payload = await self._signoff_sweep(parsed)
            elif path == "/v1/tail_quantile":
                payload = await self._tail_query(parsed)
            else:
                payload = await self._query(
                    parsed, scalar=path == "/v1/chip_quantile")
            if tctx is not None:
                payload["trace_id"] = tctx[0]
            return json_response(200, payload)
        return json_response(404, {"error": "not_found",
                                   "message": f"no route {path!r}"})

    # -- query handlers ------------------------------------------------------

    def _trace_ctx(self):
        """The enclosing request span's ``(trace_id, span_id)``, if live."""
        tracer = self._runtime.obs.tracer
        if not tracer.enabled:
            return None
        return tracer.current_trace_id(), tracer.current_span()

    async def _query(self, body, *, scalar: bool) -> dict:
        key, points = parse_query(body, available_nodes=self._nodes)
        if scalar and len(points) != 1:
            raise BadRequestError(
                "chip_quantile takes exactly one point; use "
                "chip_quantile_batch for arrays")
        self._analyzer(key)
        self.metrics.counter("serve.points").inc(len(points))
        values = await self.dispatcher.resolve(
            key, points, timeout=self._deadline_s,
            trace_ctx=self._trace_ctx())
        payload = {"node": key.node, "n": len(points),
                   "values": values,
                   "values_hex": [float(v).hex() for v in values]}
        if scalar:
            payload["value"] = values[0]
        return payload

    async def _tail_query(self, body) -> dict:
        """``/v1/tail_quantile``: importance-sampled deep-tail estimates.

        Routed through the same dispatcher memo as the deterministic
        quantiles — repeated identical tail runs (same ``TailKey`` and
        point) are answered from memo without re-sampling — and each
        value comes back with its full diagnostics under ``estimates``.
        """
        key, points = parse_tail_query(body, available_nodes=self._nodes)
        self._analyzer(key.engine)
        self.metrics.counter("serve.points").inc(len(points))
        self.metrics.counter("serve.tail_points").inc(len(points))
        estimates = await self.dispatcher.resolve(
            key, points, timeout=self._deadline_s,
            trace_ctx=self._trace_ctx())
        values = [est["value"] for est in estimates]
        payload = {"node": key.node, "n": len(points),
                   "values": values,
                   "values_hex": [float(v).hex() for v in values],
                   "estimates": estimates,
                   "n_samples": key.n_samples,
                   "root_seed": key.root_seed}
        if len(points) == 1:
            payload["value"] = values[0]
        return payload

    async def _signoff_sweep(self, body) -> dict:
        """Sweep + nominal baseline: quantiles, FO4 units, perf drops.

        The nominal full-voltage spare-less point is appended to the
        solve so the paper's ``fo4chipd`` drop metric comes back in one
        round trip (and the baseline point lands in every cache layer).
        """
        key, points = parse_query(body, available_nodes=self._nodes)
        analyzer = self._analyzer(key)
        q = points[0][2]
        baseline = (round(float(analyzer.nominal_vdd), 9), 0.0, q)
        self.metrics.counter("serve.points").inc(len(points) + 1)
        values = await self.dispatcher.resolve(
            key, points + [baseline], timeout=self._deadline_s,
            trace_ctx=self._trace_ctx())
        base_fo4 = values[-1] / analyzer.fo4_unit(baseline[0])
        sweep = values[:-1]
        fo4 = [v / analyzer.fo4_unit(p[0]) for v, p in zip(sweep, points)]
        return {"node": key.node, "n": len(points),
                "values": sweep,
                "values_hex": [float(v).hex() for v in sweep],
                "fo4chipd": fo4,
                "performance_drop": [f / base_fo4 - 1.0 for f in fo4],
                "baseline": {"vdd": baseline[0], "q": q,
                             "value": values[-1], "fo4chipd": base_fo4}}


def _dump_flight(server: SignoffServer) -> None:
    """Print the flight-recorder ring to stderr (the SIGUSR2 handler)."""
    snap = server.flight.snapshot()
    print(f"[serve] flight-recorder dump: {len(snap['events'])} events, "
          f"{snap['dropped']} dropped", file=sys.stderr, flush=True)
    print(_json.dumps(snap, sort_keys=True), file=sys.stderr, flush=True)


async def _serve_until_signalled(config: ServeConfig, runtime) -> dict:
    server = SignoffServer(config, runtime)
    await server.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    installed = []
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
            installed.append(sig)
        except (NotImplementedError, RuntimeError, ValueError):
            pass   # non-main thread or platform without signal support
    if hasattr(signal, "SIGUSR2"):
        try:
            loop.add_signal_handler(signal.SIGUSR2, _dump_flight, server)
            installed.append(signal.SIGUSR2)
        except (NotImplementedError, RuntimeError, ValueError):
            pass
    port = server.port  # before stop() — closed sockets have no name
    print(f"[serve] listening on {config.host}:{port}", flush=True)
    try:
        await stop.wait()
    finally:
        for sig in installed:
            loop.remove_signal_handler(sig)
        print(f"[serve] draining (budget {config.drain_timeout_s}s)",
              flush=True)
        await server.stop()
        print(f"[serve] drained clean={server.drained_clean}", flush=True)
    return {"requests": server.requests,
            "coalesce_ratio": server.dispatcher.coalesce_ratio,
            "port": port,
            "drained_clean": server.drained_clean,
            "flight": (server.flight.snapshot()
                       if server.flight.enabled else None)}


def run_server(config: ServeConfig, runtime=None) -> dict:
    """Serve until SIGINT/SIGTERM; returns a summary for the manifest.

    Must run on the main thread (signal handlers).  The caller owns
    ``runtime`` — its metrics registry holds the final ``serve.*``
    instruments when this returns, ready for the manifest writer.
    """
    return asyncio.run(_serve_until_signalled(config, runtime))
