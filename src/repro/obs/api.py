"""Ambient observability context and the no-op fast path.

One :class:`Observability` (a tracer + a metrics registry) is *activated*
for the duration of a run, mirroring
:func:`repro.runtime.context.activate_runtime`; instrumentation sites call
the module-level accessors::

    from repro.obs.api import counter, span

    counter("quantile_cache.hits").inc(n)
    with span("solver.batch", node=tech.name, points=len(qs)):
        ...

With nothing activated the accessors resolve to shared no-op singletons —
one :class:`contextvars.ContextVar` lookup plus a do-nothing method call —
so the instrumented hot paths cost nothing measurable when observability
is off (see ``benchmarks/bench_obs_overhead.py``).

Pool workers reconstruct a child context from the serialisable
:meth:`Observability.worker_context` payload via
:meth:`Observability.for_worker`, and hand their span aggregate, finished
trace events and metrics back with :meth:`Observability.export`.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

from repro.obs.metrics import DEFAULT_BUCKETS, NOOP_METRICS, MetricsRegistry
from repro.obs.trace import NOOP_TRACER, Tracer

__all__ = ["Observability", "NOOP_OBS", "build_obs", "current_obs",
           "activate_obs", "counter", "gauge", "histogram", "span"]


@dataclass
class Observability:
    """One run's observability instruments.

    ``enabled`` is False only for the shared :data:`NOOP_OBS`.  A real
    instance built by :func:`build_obs` always times its spans into
    ``tracer.stats`` (the ``--profile`` / manifest aggregate); its
    tracer keeps Chrome events only under ``--trace``
    (``tracer.enabled``).
    """

    tracer: Tracer = NOOP_TRACER
    metrics: MetricsRegistry = NOOP_METRICS
    enabled: bool = True

    # -- process-boundary plumbing ------------------------------------------

    def worker_context(self, stage: str | None = None) -> dict | None:
        """Serialisable payload a pool task carries to rebuild obs remotely.

        ``None`` when disabled, so workers skip collection entirely.
        """
        if not self.enabled:
            return None
        return {
            "trace": self.tracer.enabled,
            # current_trace_id (not trace_id): when dispatched from
            # inside a span that adopted a remote context — a serve
            # request — workers join the request's trace, not the
            # server's own.
            "trace_id": self.tracer.current_trace_id(),
            "parent": self.tracer.current_span(),
            "metrics": self.metrics.enabled,
            "stage": stage,
        }

    @classmethod
    def for_worker(cls, ctx: dict | None) -> "Observability":
        """A fresh worker-side context rebuilt from :meth:`worker_context`."""
        if not ctx:
            return NOOP_OBS
        tracer = Tracer(trace_id=ctx.get("trace_id"),
                        parent=ctx.get("parent"),
                        events=bool(ctx.get("trace")))
        metrics = MetricsRegistry() if ctx.get("metrics") else NOOP_METRICS
        return cls(tracer=tracer, metrics=metrics)

    def export(self) -> dict:
        """Serialisable snapshot a worker returns with its result."""
        return {"spans": self.tracer.events(),
                "stats": self.tracer.stats.as_dict(),
                "metrics": (self.metrics.as_dict()
                            if self.metrics.enabled else {})}

    def merge_export(self, snapshot: dict | None) -> None:
        """Fold a worker's :meth:`export` snapshot into this context."""
        if not snapshot:
            return
        self.tracer.absorb(snapshot.get("spans") or (), snapshot.get("stats"))
        if snapshot.get("metrics"):
            self.metrics.merge(snapshot["metrics"])


#: Shared disabled context — the ContextVar default.
NOOP_OBS = Observability(tracer=NOOP_TRACER, metrics=NOOP_METRICS,
                         enabled=False)

_ACTIVE: ContextVar = ContextVar("repro_obs", default=NOOP_OBS)


def build_obs(trace: bool = False, metrics: bool = False) -> Observability:
    """An :class:`Observability` with the requested instruments live.

    Returns the shared :data:`NOOP_OBS` when both are off, keeping the
    disabled path allocation-free.  Otherwise spans are always timed
    into the tracer's aggregate; ``trace`` also keeps Chrome events.
    """
    if not (trace or metrics):
        return NOOP_OBS
    return Observability(
        tracer=Tracer(events=bool(trace)),
        metrics=MetricsRegistry() if metrics else NOOP_METRICS)


def current_obs() -> Observability:
    """The active observability context (never ``None``)."""
    return _ACTIVE.get()


@contextmanager
def activate_obs(obs: Observability):
    """Make ``obs`` the :func:`current_obs` inside the block."""
    token = _ACTIVE.set(obs)
    try:
        yield obs
    finally:
        _ACTIVE.reset(token)


# -- hot-path accessors ------------------------------------------------------


def counter(name: str):
    """The active registry's counter ``name`` (no-op when disabled)."""
    return _ACTIVE.get().metrics.counter(name)


def gauge(name: str):
    """The active registry's gauge ``name`` (no-op when disabled)."""
    return _ACTIVE.get().metrics.gauge(name)


def histogram(name: str, buckets=DEFAULT_BUCKETS):
    """The active registry's histogram ``name`` (no-op when disabled)."""
    return _ACTIVE.get().metrics.histogram(name, buckets)


def span(name: str, **attrs):
    """A span context manager on the active tracer (no-op when disabled)."""
    return _ACTIVE.get().tracer.span(name, **attrs)
