"""Micro-batching dispatcher: coalesce concurrent queries into batch solves.

One-point sign-off solves cost ~3-10 ms each, while a batch amortises
kernel construction and polishes all roots simultaneously (a 48-point
sweep in 83-208 ms per ``BENCH_quantile.json``) — but only if many
points share one call.  :class:`MicroBatchDispatcher` recovers that batching across
*clients*: every in-flight ``(vdd, spares, q)`` point lands in a
per-:class:`~repro.serve.protocol.EngineKey` bucket that is flushed into
one ``chip_quantile_batch`` call when it reaches ``max_batch`` points or
when the oldest point has waited ``window_s`` (whichever first).

Correctness guarantees, in order of subtlety:

- **Bit-identical coalescing.**  The engine's batch solver makes every
  root a pure function of its own query point, so grouping queries from
  unrelated clients returns exactly the bits a direct per-point call
  would — coalescing is an invisible optimisation, not an approximation.
- **Single-flight.**  A point already being solved is joined, never
  re-enqueued: N clients racing on a cold key trigger one solve
  (``serve.singleflight_joins`` counts the stampede that didn't happen).
- **Backpressure.**  At most ``max_queue`` unsolved points may be
  pending; beyond that new points are rejected with
  :class:`~repro.serve.protocol.OverloadedError` (HTTP 429) instead of
  growing an unbounded queue.
- **Adaptive admission control.**  With ``shed=True`` the dispatcher
  keeps an EWMA of per-point solve cost and rejects a request *on
  arrival* when the queue's estimated wait already exceeds the
  request's deadline (:class:`~repro.serve.protocol.ShedError`, HTTP
  429 with ``Retry-After``) — a request doomed to a 408 never occupies
  a queue slot or triggers a wasted solve.  Once queue saturation
  crosses ``degraded_ratio`` the dispatcher goes *degraded*:
  memo hits and in-flight joins still answer (cache-hit-only), cold
  points are rejected with :class:`~repro.serve.protocol.DegradedError`
  until the queue recedes.  Rejections are sub-millisecond by
  construction and are counted under ``serve.shed.*``, never in the
  served-latency SLO window.
- **Deadlines.**  :meth:`resolve` bounds its wait with the request
  deadline; expiry raises :class:`~repro.serve.protocol.DeadlineError`
  (HTTP 408).  Waits are :func:`asyncio.shield`-ed so one client's
  timeout never cancels a solve other clients are still waiting on.
- **Retries.**  Batch solves reuse the runtime's
  :class:`~repro.resilience.policy.RetryPolicy`: transient failures are
  retried up to ``max_retries`` times with the policy's deterministic
  jittered backoff before the whole bucket fails with
  :class:`~repro.serve.protocol.SolverError`.

The solve itself runs on a single dedicated thread (the engine LRUs are
not thread-safe) with the server's runtime activated, so pool fan-out,
fault recovery and cache layers all behave exactly as in CLI runs.

Telemetry: when built with a live tracer the dispatcher records one
``serve.batch`` span per flushed bucket, parented under the *first*
coalesced request's span and carrying ``links`` to every request span it
fans in from — the join point that keeps a coalesced batch part of each
client's distributed trace.  The batch's ``(trace_id, batch_span_id)``
context is handed to ``solve_fn`` so the solve span (and from there the
pool workers) continue the same trace.  A
:class:`~repro.obs.flight.FlightRecorder`, when attached, receives
structured ``coalesce`` / ``flush`` / ``solve`` / ``retry`` / ``fault``
/ ``deadline_miss`` / ``backpressure_reject`` events on the same paths.
"""

from __future__ import annotations

import asyncio
import inspect
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor

from repro.obs.flight import NOOP_FLIGHT
from repro.obs.metrics import WindowedCounter
from repro.obs.trace import NOOP_TRACER
from repro.resilience.policy import RetryPolicy
from repro.serve.protocol import (
    DeadlineError,
    DegradedError,
    DrainingError,
    OverloadedError,
    ServeError,
    ShedError,
    SolverError,
)

__all__ = ["MicroBatchDispatcher", "BATCH_SIZE_BUCKETS", "MEMO_LIMIT"]

#: Bucket bounds for the ``serve.batch_size`` histogram.
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)

#: In-dispatcher memo entries (point values, ~100 B each) before eviction.
MEMO_LIMIT = 65536


class MicroBatchDispatcher:
    """Coalesces point queries into batched solves on the event loop.

    Parameters
    ----------
    solve_fn:
        Blocking ``(EngineKey, [(vdd, spares, q), ...]) -> [float, ...]``
        executed on the dispatcher's solver thread.  Must be
        batch-composition invariant (see module docstring).  May accept
        a third ``ctx`` argument — the batch's ``(trace_id,
        batch_span_id)`` — to continue the distributed trace into the
        solve; two-argument solvers keep working unchanged.
    metrics:
        The server's :class:`~repro.obs.metrics.MetricsRegistry`.
    max_batch:
        Flush a bucket as soon as it holds this many points.
    window_s:
        Flush a bucket this long after its first point arrived even if
        under ``max_batch`` (the latency cost of coalescing).
    max_queue:
        Pending-point bound; beyond it :meth:`resolve` rejects with 429.
    policy:
        :class:`~repro.resilience.policy.RetryPolicy` for solve retries.
    on_idle:
        Optional zero-argument callback fired (on the event loop) each
        time a batch settles and no points remain queued — the hook a
        long-lived server uses to release kernel workspaces between
        request bursts instead of pinning its peak footprint forever.
        Exceptions from the callback are swallowed (idle housekeeping
        must never fail a request).
    tracer:
        Optional :class:`~repro.obs.trace.Tracer` for batch spans
        (defaults to the shared no-op).
    flight:
        Optional :class:`~repro.obs.flight.FlightRecorder` for hot-path
        events (defaults to the shared no-op).
    rolling_window_s:
        Width of the rolling window behind ``rolling_coalesce_ratio``
        (and the ``serve.coalesce_ratio`` gauge).
    shed:
        Enable adaptive admission control (see module docstring).  Off,
        only the hard ``max_queue`` bound rejects — the pre-shedding
        baseline the overload benchmark compares against.
    degraded_ratio:
        Queue-saturation fraction (of ``max_queue``) beyond which the
        dispatcher answers cache-hit-only.
    """

    def __init__(self, solve_fn, metrics, *, max_batch: int = 32,
                 window_s: float = 0.002, max_queue: int = 1024,
                 policy: RetryPolicy | None = None,
                 on_idle=None, tracer=None, flight=None,
                 rolling_window_s: float = 60.0, shed: bool = True,
                 degraded_ratio: float = 0.75) -> None:
        self._solve_fn = solve_fn
        self._metrics = metrics
        self._on_idle = on_idle
        self._tracer = tracer if tracer is not None else NOOP_TRACER
        self._flight = flight if flight is not None else NOOP_FLIGHT
        try:
            n_params = len(inspect.signature(solve_fn).parameters)
        except (TypeError, ValueError):
            n_params = 2
        self._solve_takes_ctx = n_params >= 3
        self.max_batch = int(max_batch)
        self.window_s = float(window_s)
        self.max_queue = int(max_queue)
        self.shed = bool(shed)
        self.degraded_ratio = float(degraded_ratio)
        self._ewma_point_s: float | None = None
        self.policy = policy or RetryPolicy()
        self._win_batches = WindowedCounter("serve.batches",
                                            window_s=rolling_window_s)
        self._win_points = WindowedCounter("serve.points_batched",
                                           window_s=rolling_window_s)
        self._pending: dict = {}      # EngineKey -> [(point, future), ...]
        self._timers: dict = {}       # EngineKey -> TimerHandle
        self._inflight: dict = {}     # (EngineKey, point) -> future
        self._memo: OrderedDict = OrderedDict()
        self._queued = 0
        self._batch_seq = 0
        self._points_batched = 0
        self._batches = 0
        self._tasks: set = set()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-solve")
        self._closed = False

    # -- public API ----------------------------------------------------------

    async def resolve(self, key, points, *, timeout: float,
                      trace_ctx=None) -> list:
        """Values for ``points`` (in order), coalescing with other callers.

        ``trace_ctx`` is the requesting span's ``(trace_id, span_id)``;
        batches fanning this request in link back to it.  Raises
        :class:`OverloadedError` when the queue bound would be exceeded,
        :class:`ShedError` / :class:`DegradedError` when adaptive
        admission control rejects on arrival, and
        :class:`DeadlineError` when ``timeout`` (seconds) expires
        first; an expired caller never cancels the underlying solve, so
        late joiners still complete.
        """
        self._admit(key, points, timeout)
        futures = [self._lookup(key, point, trace_ctx) for point in points]
        try:
            return await asyncio.wait_for(
                asyncio.gather(*(asyncio.shield(f) for f in futures)),
                timeout)
        except asyncio.TimeoutError:
            self._metrics.counter("serve.deadline_misses").inc()
            unsolved = sum(not f.done() for f in futures)
            self._flight.record("deadline_miss", node=key.node,
                                n=len(futures), unsolved=unsolved,
                                timeout_s=float(timeout))
            raise DeadlineError(
                f"deadline of {timeout:g}s expired with "
                f"{unsolved} of {len(futures)} "
                f"points unsolved") from None

    def _admit(self, key, points, timeout: float) -> None:
        """Adaptive admission control: reject doomed work on arrival.

        Only points that would actually *enqueue a solve* are gated —
        memo hits and single-flight joins cost nothing and always
        answer, which is exactly the degraded mode's cache-hit-only
        contract.  Rejections carry a ``Retry-After`` hint derived from
        the estimated time to drain the current queue.
        """
        if not self.shed:
            return
        new = [p for p in points
               if (key, p) not in self._memo
               and (key, p) not in self._inflight]
        if not new:
            return
        est = self.estimated_wait_s(len(new))
        self._metrics.gauge("serve.estimated_wait_s").set(est)
        if self.degraded:
            self._metrics.counter("serve.shed.degraded").inc()
            self._flight.record("shed", node=key.node, reason="degraded",
                                n=len(new), queued=self._queued)
            exc = DegradedError(
                f"server saturated ({self._queued}/{self.max_queue} "
                f"points queued); cold points rejected, cache hits "
                f"still served")
            exc.retry_after_s = max(1.0, self.estimated_wait_s())
            raise exc
        if est > float(timeout):
            self._metrics.counter("serve.shed.deadline").inc()
            self._flight.record("shed", node=key.node, reason="deadline",
                                n=len(new), queued=self._queued)
            exc = ShedError(
                f"estimated queue wait {est:.3f}s exceeds request "
                f"deadline {float(timeout):g}s; rejected before "
                f"queueing")
            exc.retry_after_s = max(1.0, est - float(timeout))
            raise exc

    def estimated_wait_s(self, extra_points: int = 0) -> float:
        """Estimated seconds before ``extra_points`` new points solve.

        The per-point cost is an EWMA over recent batch solves; before
        any batch has settled the estimate is 0 (cold servers always
        admit).
        """
        if self._ewma_point_s is None:
            return 0.0
        return (self._queued + int(extra_points)) * self._ewma_point_s

    @property
    def solve_ewma_s(self) -> float | None:
        """EWMA per-point solve cost (``None`` until a batch settles)."""
        return self._ewma_point_s

    @property
    def saturation(self) -> float:
        """Queue fullness in [0, 1]: pending points over ``max_queue``."""
        return self._queued / self.max_queue

    @property
    def degraded(self) -> bool:
        """True when shedding is on and saturation crossed the ratio."""
        return self.shed and self.saturation >= self.degraded_ratio

    def flush(self) -> None:
        """Dispatch every pending bucket now (shutdown / tests)."""
        for key in list(self._pending):
            self._flush(key)

    async def drain(self) -> None:
        """Flush and wait for all in-flight batch tasks to finish."""
        self.flush()
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)

    async def aclose(self, drain_timeout_s: float | None = None) -> None:
        """Drain outstanding work, then release the solver thread.

        With ``drain_timeout_s`` set the drain is *bounded*: solves
        still unfinished when the budget expires have their waiters
        failed with :class:`~repro.serve.protocol.DrainingError` and
        the solver thread is abandoned rather than joined, so a wedged
        solve can never hold shutdown hostage.
        """
        self._closed = True
        for handle in self._timers.values():
            handle.cancel()
        self._timers.clear()
        if drain_timeout_s is None:
            await self.drain()
            self._executor.shutdown(wait=True)
            return
        self.flush()
        deadline = asyncio.get_running_loop().time() + float(drain_timeout_s)
        while self._tasks:
            remaining = deadline - asyncio.get_running_loop().time()
            if remaining <= 0:
                break
            await asyncio.wait(list(self._tasks), timeout=remaining)
        if self._tasks or self._queued:
            self._metrics.counter("serve.drain_timeouts").inc()
            self._flight.record("drain", ok=False, queued=self._queued,
                                tasks=len(self._tasks))
            exc = DrainingError(
                f"drain budget of {drain_timeout_s:g}s exhausted with "
                f"{self._queued} points in flight")
            exc.retry_after_s = 1.0
            for fut in list(self._inflight.values()):
                if not fut.done():
                    fut.set_exception(exc)
            for task in list(self._tasks):
                task.cancel()
            self._executor.shutdown(wait=False, cancel_futures=True)
        else:
            self._flight.record("drain", ok=True)
            self._executor.shutdown(wait=True)

    @property
    def coalesce_ratio(self) -> float:
        """Mean points per dispatched batch (1.0 = no coalescing)."""
        return self._points_batched / self._batches if self._batches else 0.0

    @property
    def rolling_coalesce_ratio(self) -> float:
        """Mean points per batch over the rolling window (0 when idle)."""
        batches = self._win_batches.total()
        return self._win_points.total() / batches if batches else 0.0

    @property
    def queued(self) -> int:
        return self._queued

    # -- enqueue side (event-loop thread only) -------------------------------

    def _lookup(self, key, point, trace_ctx=None) -> asyncio.Future:
        """Future for one point: memo hit, in-flight join, or enqueue."""
        loop = asyncio.get_running_loop()
        k = (key, point)
        value = self._memo.get(k)
        if value is not None:
            self._memo.move_to_end(k)
            self._metrics.counter("serve.memo_hits").inc()
            self._flight.record("coalesce", node=key.node, source="memo")
            fut = loop.create_future()
            fut.set_result(value)
            return fut
        fut = self._inflight.get(k)
        if fut is not None:
            self._metrics.counter("serve.singleflight_joins").inc()
            self._flight.record("coalesce", node=key.node,
                                source="inflight")
            return fut
        if self._queued >= self.max_queue:
            self._metrics.counter("serve.rejected").inc()
            self._flight.record("backpressure_reject", node=key.node,
                                queued=self._queued, limit=self.max_queue)
            raise OverloadedError(
                f"{self._queued} points queued (limit {self.max_queue})")
        fut = loop.create_future()
        # Consume the exception even if every waiter timed out, so failed
        # batches never surface as "exception was never retrieved" noise.
        fut.add_done_callback(lambda f: f.cancelled() or f.exception())
        self._inflight[k] = fut
        self._queued += 1
        self._metrics.gauge("serve.queue_depth").set(self._queued)
        bucket = self._pending.setdefault(key, [])
        bucket.append((point, fut, trace_ctx))
        if len(bucket) >= self.max_batch:
            self._flush(key)
        elif len(bucket) == 1 and not self._closed:
            self._timers[key] = loop.call_later(
                self.window_s, self._flush, key)
        return fut

    def _flush(self, key) -> None:
        timer = self._timers.pop(key, None)
        if timer is not None:
            timer.cancel()
        bucket = self._pending.pop(key, None)
        if not bucket:
            return
        self._batches += 1
        self._points_batched += len(bucket)
        self._win_batches.inc()
        self._win_points.inc(len(bucket))
        self._metrics.counter("serve.batches").inc()
        self._metrics.histogram(
            "serve.batch_size", buckets=BATCH_SIZE_BUCKETS).observe(
                len(bucket))
        # The rolling (not lifetime-cumulative) ratio, so the gauge
        # tracks what coalescing is doing for current traffic.
        self._metrics.gauge("serve.coalesce_ratio").set(
            self.rolling_coalesce_ratio)
        self._flight.record("flush", node=key.node, n=len(bucket))
        task = asyncio.get_running_loop().create_task(
            self._run_batch(key, bucket))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    # -- solve side ----------------------------------------------------------

    async def _run_batch(self, key, bucket) -> None:
        points = [point for point, _, _ in bucket]
        # One fan-in link per distinct request span: a multi-point request
        # contributes the same ctx once per point, so dedupe in order.
        ctxs = list(dict.fromkeys(
            c for _, _, c in bucket if c is not None))
        # The batch span fans in every coalesced request: parented under
        # the first request's span (so its trace stays connected), with
        # links naming all of them.  Its id is minted up front so the
        # solve — and, through it, the pool workers — can parent under
        # it while the span itself is only recorded once the batch
        # settles.
        batch_span = self._tracer.new_span_id()
        solve_ctx = (ctxs[0][0] if ctxs else None, batch_span)
        ts = time.time() * 1e6
        t0 = time.perf_counter()
        ok = True
        try:
            values = await self._solve_with_retry(key, points, solve_ctx)
            if len(values) != len(points):
                raise SolverError(
                    f"solver returned {len(values)} values for "
                    f"{len(points)} points")
        except ServeError as exc:
            ok = False
            self._record_batch_span(key, bucket, ctxs, batch_span, ts, t0,
                                    ok=False)
            self._fail_bucket(key, bucket, exc)
            self._maybe_idle()
            return
        except Exception as exc:   # noqa: BLE001 - boundary to clients
            ok = False
            self._record_batch_span(key, bucket, ctxs, batch_span, ts, t0,
                                    ok=False)
            self._fail_bucket(
                key, bucket, SolverError(f"batch solve failed: {exc!r}"))
            self._maybe_idle()
            return
        finally:
            self._flight.record("solve", node=key.node, n=len(points),
                                ok=ok, wall_s=time.perf_counter() - t0)
        # Admission control's cost model: EWMA of amortised per-point
        # solve time, updated only from successful batches.
        per_point = (time.perf_counter() - t0) / len(points)
        self._ewma_point_s = (
            per_point if self._ewma_point_s is None
            else 0.3 * per_point + 0.7 * self._ewma_point_s)
        self._record_batch_span(key, bucket, ctxs, batch_span, ts, t0,
                                ok=True)
        for (point, fut, _), value in zip(bucket, values):
            self._settle(key, point)
            k = (key, point)
            self._memo[k] = value
            self._memo.move_to_end(k)
            while len(self._memo) > MEMO_LIMIT:
                self._memo.popitem(last=False)
            if not fut.done():
                fut.set_result(value)
        self._maybe_idle()

    def _record_batch_span(self, key, bucket, ctxs, batch_span, ts, t0,
                           *, ok: bool) -> None:
        if not self._tracer.enabled:
            return
        self._tracer.add_span(
            "serve.batch", ts=ts, dur_s=time.perf_counter() - t0,
            ctx=(ctxs[0] if ctxs else None), span_id=batch_span,
            links=[{"trace_id": c[0], "span_id": c[1]} for c in ctxs],
            node=key.node, n=len(bucket), ok=ok)

    def _maybe_idle(self) -> None:
        """Fire ``on_idle`` once the queue has fully drained."""
        if self._queued == 0 and self._on_idle is not None:
            try:
                self._on_idle()
            except Exception:   # noqa: BLE001 - housekeeping only
                pass

    async def _solve_with_retry(self, key, points, ctx=None) -> list:
        seq = self._batch_seq
        self._batch_seq += 1
        loop = asyncio.get_running_loop()
        last: Exception | None = None
        for attempt in range(self.policy.max_retries + 1):
            if attempt:
                self._metrics.counter("serve.solver_retries").inc()
                self._flight.record("retry", node=key.node, n=len(points),
                                    attempt=attempt,
                                    error=type(last).__name__)
                await asyncio.sleep(self.policy.backoff_s(seq, attempt))
            try:
                if self._solve_takes_ctx:
                    return await loop.run_in_executor(
                        self._executor, self._solve_fn, key, points, ctx)
                return await loop.run_in_executor(
                    self._executor, self._solve_fn, key, points)
            except Exception as exc:   # noqa: BLE001 - retried below
                last = exc
        self._metrics.counter("serve.solver_failures").inc()
        self._flight.record("fault", node=key.node, n=len(points),
                            attempts=self.policy.max_retries + 1,
                            error=type(last).__name__)
        raise SolverError(
            f"batch of {len(points)} points failed after "
            f"{self.policy.max_retries + 1} attempts: {last!r}")

    def _fail_bucket(self, key, bucket, exc: ServeError) -> None:
        for point, fut, _ in bucket:
            self._settle(key, point)
            if not fut.done():
                fut.set_exception(exc)

    def _settle(self, key, point) -> None:
        self._inflight.pop((key, point), None)
        self._queued -= 1
        self._metrics.gauge("serve.queue_depth").set(self._queued)
