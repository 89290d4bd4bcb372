"""Structured observability: span tracing, metrics, run manifests.

``repro.obs`` is the package's one timing primitive plus two
machine-readable instruments:

* **Spans** (:class:`Tracer`) — hierarchical ``span(name, **attrs)``
  context managers that nest and carry attributes (node, vdd, shard id,
  ...).  Every finished span folds into :class:`SpanStats`, a bounded
  per-name aggregate of calls, inclusive time, self time (duration minus
  direct children) and samples; ``--profile`` renders it sorted by self
  time with a roll-up by layer (the name's prefix before the first
  ``.``), and the run manifest embeds it as ``stages``.  Self times add
  up to the wall clock of a serial run.  Under ``--trace`` the spans are
  also kept as Chrome trace events viewable in Perfetto
  (``python -m repro.experiments fig4 --trace trace.json``).  Spans
  recorded inside :class:`~repro.runtime.parallel.ParallelSampler` pool
  workers come back with the shard results through
  :meth:`Observability.export` and fold into the parent.
* **Metrics registry** (:class:`MetricsRegistry`) — counters, gauges and
  fixed-bucket histograms with a
  ``metrics.counter("quantile_cache.hits")``-style API, instrumented at the
  runtime's hot seams: quantile-cache hits/misses, kernel-LRU economics,
  batch-solver secant-vs-Chandrupatla fallbacks, per-shard sample counts.
* **Run manifests** (:func:`build_manifest`) — a JSON provenance record of
  one experiment run (root seed, card fingerprints, package/numpy versions,
  cache state before/after, span stages, metrics snapshot), written by
  ``--metrics FILE``.

Everything is **off by default**: the module-level accessors
(:func:`counter`, :func:`span`, ...) resolve through a
:class:`contextvars.ContextVar` that defaults to no-op singletons, so with
observability disabled an instrumentation site costs one context-variable
lookup and a no-op method call (guarded by
``benchmarks/bench_obs_overhead.py``).
"""

from __future__ import annotations

from repro.obs.api import (
    NOOP_OBS,
    Observability,
    activate_obs,
    build_obs,
    counter,
    current_obs,
    gauge,
    histogram,
    span,
)
from repro.obs.flight import FLIGHT_SCHEMA, NOOP_FLIGHT, FlightRecorder
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    TRACE_SCHEMA,
    build_manifest,
    cache_file_state,
    strip_timing,
    validate_schema,
    write_manifest,
)
from repro.obs.metrics import (
    NOOP_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    WindowedCounter,
    WindowedHistogram,
)
from repro.obs.openmetrics import (
    OPENMETRICS_CONTENT_TYPE,
    check_openmetrics,
    parse_openmetrics,
    render_openmetrics,
)
from repro.obs.trace import NOOP_TRACER, SpanStats, Tracer, write_chrome_trace


__all__ = [
    "Observability",
    "Tracer",
    "SpanStats",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "WindowedHistogram",
    "WindowedCounter",
    "FlightRecorder",
    "activate_obs",
    "build_obs",
    "current_obs",
    "counter",
    "gauge",
    "histogram",
    "span",
    "build_manifest",
    "write_manifest",
    "write_chrome_trace",
    "cache_file_state",
    "strip_timing",
    "validate_schema",
    "render_openmetrics",
    "parse_openmetrics",
    "check_openmetrics",
    "OPENMETRICS_CONTENT_TYPE",
    "MANIFEST_SCHEMA",
    "TRACE_SCHEMA",
    "FLIGHT_SCHEMA",
    "NOOP_OBS",
    "NOOP_METRICS",
    "NOOP_TRACER",
    "NOOP_FLIGHT",
]
