"""Counters, gauges and fixed-bucket histograms.

A :class:`MetricsRegistry` hands out named instruments on demand::

    metrics.counter("quantile_cache.hits").inc()
    metrics.gauge("sampler.worker_utilization").set(0.83)
    metrics.histogram("sampler.shard_samples").observe(256)

Instruments are memoised by name, so a hot call site pays one dict lookup
plus one locked attribute bump.  Every instrument is thread-safe: the
serve dispatcher's solver thread and pool-result callbacks mutate
counters concurrently with the event loop, so updates take a per-
instrument lock (uncontended in the common case).  Registries serialise
with :meth:`as_dict` and fold worker snapshots back in with :meth:`merge`
(counters and histograms add; gauges take the incoming value) — the same
cross-process contract as :meth:`repro.obs.trace.SpanStats.merge`.

For live serving dashboards there are additionally *windowed*
instruments — :class:`WindowedHistogram` and :class:`WindowedCounter` —
rings of sub-windows that forget observations older than the window, so
a latency p99 or QPS reading reflects the last ~60 s rather than process
lifetime.  They are standalone objects (owned by the server, not part of
registry snapshots) because their contents are wall-clock dependent and
would break manifest determinism.

The disabled path is a parallel no-op hierarchy: :data:`NOOP_METRICS`
returns shared do-nothing instruments without touching any dict, so
instrumentation guarded by it is effectively free.
"""

from __future__ import annotations

import bisect
import threading
import time

__all__ = ["Counter", "Gauge", "Histogram", "WindowedHistogram",
           "WindowedCounter", "MetricsRegistry", "NOOP_METRICS",
           "DEFAULT_BUCKETS"]

#: Default histogram bucket upper bounds (counts-style quantities).
DEFAULT_BUCKETS = (1, 2, 5, 10, 25, 50, 100, 250, 500, 1000)


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self.value += n


class Gauge:
    """A named point-in-time value (last write wins)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)


def _percentile_from_counts(buckets, counts, count, vmax, p):
    """Shared percentile estimator over a bucket-counts array.

    ``counts`` has ``len(buckets) + 1`` entries, the last being the
    overflow bin; ``vmax`` is the largest value observed, used as the
    overflow bin's upper edge so tail percentiles interpolate instead of
    clamping to the last finite bound.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"percentile fraction must be in [0, 1], got {p}")
    if not count:
        return 0.0
    rank = p * count
    running = 0
    for i, upper in enumerate(buckets):
        prev = running
        running += counts[i]
        if running >= rank and counts[i]:
            lower = buckets[i - 1] if i else 0.0
            frac = (rank - prev) / counts[i]
            return lower + frac * (upper - lower)
    # Rank falls in the overflow bin: interpolate between the last
    # finite bound and the observed maximum.
    lower = buckets[-1] if buckets else 0.0
    n_over = counts[len(buckets)]
    if not n_over:
        return lower
    hi = max(float(vmax), lower)
    prev = count - n_over
    frac = min(1.0, max(0.0, (rank - prev) / n_over))
    return lower + frac * (hi - lower)


class Histogram:
    """Fixed-bucket histogram: counts of observations per upper bound.

    ``buckets`` are the inclusive upper bounds of each bin; one implicit
    overflow bin catches everything above the last bound.  Bounds are
    fixed at creation so snapshots from different processes merge by
    plain elementwise addition.  The largest observed value is tracked so
    tail percentiles stay meaningful when observations overflow the grid.
    """

    __slots__ = ("name", "buckets", "counts", "total", "count", "vmax",
                 "_lock")

    def __init__(self, name: str, buckets=DEFAULT_BUCKETS) -> None:
        self.name = name
        self.buckets = tuple(sorted(float(b) for b in buckets))
        self.counts = [0] * (len(self.buckets) + 1)
        self.total = 0.0
        self.count = 0
        self.vmax = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        idx = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self.counts[idx] += 1
            self.total += value
            self.count += 1
            if value > self.vmax:
                self.vmax = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def overflow(self) -> int:
        """Observations above the last finite bucket bound."""
        return self.counts[-1]

    def percentile(self, p: float) -> float:
        """Estimate the ``p``-th percentile (``p`` a fraction in [0, 1]).

        Linear interpolation inside the winning bucket, taking the
        previous bound (or 0) as its lower edge; the overflow bin
        interpolates up to the largest value observed.  Returns 0.0 with
        no observations.  The estimate is as coarse as the bucket grid —
        fine for serving dashboards, not for microbenchmarks.
        """
        with self._lock:
            return _percentile_from_counts(self.buckets, self.counts,
                                           self.count, self.vmax, p)


class WindowedHistogram:
    """Rolling-window histogram: a ring of fixed-bucket sub-windows.

    Observations land in the sub-window covering the current wall-clock
    slice; snapshots aggregate only the sub-windows inside the last
    ``window_s`` seconds, so percentiles, counts and rates reflect
    *recent* behaviour and old traffic ages out within one sub-window's
    granularity (``window_s / sub_windows``).  Thread-safe.  ``clock`` is
    injectable for deterministic tests.
    """

    __slots__ = ("name", "buckets", "window_s", "sub_windows", "_sub_s",
                 "_clock", "_counts", "_sums", "_ns", "_maxes", "_epoch",
                 "_lock")

    def __init__(self, name: str, buckets=DEFAULT_BUCKETS, *,
                 window_s: float = 60.0, sub_windows: int = 12,
                 clock=time.monotonic) -> None:
        if window_s <= 0:
            raise ValueError(f"window_s must be positive, got {window_s}")
        if sub_windows < 1:
            raise ValueError(f"sub_windows must be >= 1, got {sub_windows}")
        self.name = name
        self.buckets = tuple(sorted(float(b) for b in buckets))
        self.window_s = float(window_s)
        self.sub_windows = int(sub_windows)
        self._sub_s = self.window_s / self.sub_windows
        self._clock = clock
        nbins = len(self.buckets) + 1
        self._counts = [[0] * nbins for _ in range(self.sub_windows)]
        self._sums = [0.0] * self.sub_windows
        self._ns = [0] * self.sub_windows
        self._maxes = [0.0] * self.sub_windows
        self._epoch = None
        self._lock = threading.Lock()

    def _advance(self) -> int:
        """Clear sub-windows the clock has moved past; return active slot."""
        idx = int(self._clock() / self._sub_s)
        if self._epoch is None:
            self._epoch = idx
        step = idx - self._epoch
        if step > 0:
            nbins = len(self.buckets) + 1
            for k in range(1, min(step, self.sub_windows) + 1):
                slot = (self._epoch + k) % self.sub_windows
                self._counts[slot] = [0] * nbins
                self._sums[slot] = 0.0
                self._ns[slot] = 0
                self._maxes[slot] = 0.0
            self._epoch = idx
        return self._epoch % self.sub_windows

    def observe(self, value: float) -> None:
        value = float(value)
        idx = bisect.bisect_left(self.buckets, value)
        with self._lock:
            slot = self._advance()
            self._counts[slot][idx] += 1
            self._sums[slot] += value
            self._ns[slot] += 1
            if value > self._maxes[slot]:
                self._maxes[slot] = value

    def _aggregate(self):
        self._advance()
        nbins = len(self.buckets) + 1
        counts = [0] * nbins
        for sub in self._counts:
            for i in range(nbins):
                counts[i] += sub[i]
        return counts, sum(self._sums), sum(self._ns), max(self._maxes)

    def snapshot(self) -> dict:
        """Aggregated view of the live window (buckets/counts/sum/count)."""
        with self._lock:
            counts, total, count, vmax = self._aggregate()
        return {"buckets": list(self.buckets), "counts": counts,
                "sum": total, "count": count, "max": vmax,
                "window_s": self.window_s}

    @property
    def count(self) -> int:
        with self._lock:
            return self._aggregate()[2]

    def percentile(self, p: float) -> float:
        with self._lock:
            counts, _, count, vmax = self._aggregate()
        return _percentile_from_counts(self.buckets, counts, count, vmax, p)

    def rate(self) -> float:
        """Observations per second over the window."""
        return self.count / self.window_s

    def fraction_over(self, threshold: float) -> float:
        """Fraction of windowed observations above ``threshold``.

        Bucket-resolution: counts every bin whose upper bound exceeds
        ``threshold`` (exact when ``threshold`` is a bucket bound).
        Returns 0.0 for an empty window.
        """
        with self._lock:
            counts, _, count, _ = self._aggregate()
        if not count:
            return 0.0
        over = counts[-1]
        for i, upper in enumerate(self.buckets):
            if upper > threshold:
                over += counts[i]
        return over / count


class WindowedCounter:
    """Rolling-window event count (ring of sub-window tallies)."""

    __slots__ = ("name", "window_s", "sub_windows", "_sub_s", "_clock",
                 "_tallies", "_epoch", "_lock")

    def __init__(self, name: str, *, window_s: float = 60.0,
                 sub_windows: int = 12, clock=time.monotonic) -> None:
        if window_s <= 0:
            raise ValueError(f"window_s must be positive, got {window_s}")
        if sub_windows < 1:
            raise ValueError(f"sub_windows must be >= 1, got {sub_windows}")
        self.name = name
        self.window_s = float(window_s)
        self.sub_windows = int(sub_windows)
        self._sub_s = self.window_s / self.sub_windows
        self._clock = clock
        self._tallies = [0] * self.sub_windows
        self._epoch = None
        self._lock = threading.Lock()

    def _advance(self) -> int:
        idx = int(self._clock() / self._sub_s)
        if self._epoch is None:
            self._epoch = idx
        step = idx - self._epoch
        if step > 0:
            for k in range(1, min(step, self.sub_windows) + 1):
                self._tallies[(self._epoch + k) % self.sub_windows] = 0
            self._epoch = idx
        return self._epoch % self.sub_windows

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self._tallies[self._advance()] += n

    def total(self) -> int:
        """Events inside the live window."""
        with self._lock:
            self._advance()
            return sum(self._tallies)

    def rate(self) -> float:
        """Events per second over the window."""
        return self.total() / self.window_s


class _Noop:
    """Do-nothing stand-in for every instrument type."""

    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NOOP_INSTRUMENT = _Noop()


class MetricsRegistry:
    """Named instrument registry with snapshot/merge support."""

    enabled = True

    def __init__(self) -> None:
        self._counters: dict = {}
        self._gauges: dict = {}
        self._histograms: dict = {}
        self._lock = threading.Lock()

    # -- instruments ---------------------------------------------------------

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            with self._lock:
                c = self._counters.setdefault(name, Counter(name))
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            with self._lock:
                g = self._gauges.setdefault(name, Gauge(name))
        return g

    def histogram(self, name: str, buckets=DEFAULT_BUCKETS) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            with self._lock:
                h = self._histograms.setdefault(name,
                                                Histogram(name, buckets))
        return h

    def __len__(self) -> int:
        return (len(self._counters) + len(self._gauges)
                + len(self._histograms))

    # -- snapshots -----------------------------------------------------------

    def as_dict(self) -> dict:
        """Serialisable snapshot (for manifests and worker hand-back)."""
        return {
            "counters": {n: c.value
                         for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: {"buckets": list(h.buckets), "counts": list(h.counts),
                    "sum": h.total, "count": h.count,
                    "overflow": h.counts[-1], "max": h.vmax}
                for n, h in sorted(self._histograms.items())},
        }

    def merge(self, snapshot: dict) -> None:
        """Fold an :meth:`as_dict` snapshot (e.g. from a pool worker) in.

        Counters and histograms accumulate; gauges adopt the incoming
        value.  Histograms with mismatched bucket bounds are skipped
        rather than corrupted (bounds are part of the instrument's
        identity).
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(int(value))
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, rec in snapshot.get("histograms", {}).items():
            h = self.histogram(name, rec.get("buckets", DEFAULT_BUCKETS))
            if list(h.buckets) != [float(b) for b in rec["buckets"]]:
                continue
            with h._lock:
                for i, n in enumerate(rec["counts"]):
                    h.counts[i] += int(n)
                h.total += float(rec["sum"])
                h.count += int(rec["count"])
                h.vmax = max(h.vmax, float(rec.get("max", 0.0)))

    def render(self) -> str:
        """Aligned text report of every instrument (``--profile`` output)."""
        lines = ["metrics", "-------"]
        rows = [(name, f"{c.value}") for name, c in
                sorted(self._counters.items())]
        rows += [(name, f"{g.value:g}") for name, g in
                 sorted(self._gauges.items())]
        rows += [(name, f"n={h.count} mean={h.mean:g}") for name, h in
                 sorted(self._histograms.items())]
        if not rows:
            return "\n".join(lines + ["  (no metrics recorded)"])
        width = max(len(name) for name, _ in rows)
        lines += [f"  {name.ljust(width)}  {value}" for name, value in rows]
        return "\n".join(lines)


class _NoopMetrics(MetricsRegistry):
    """Registry whose instruments are shared do-nothing singletons."""

    enabled = False

    def counter(self, name: str):
        return _NOOP_INSTRUMENT

    def gauge(self, name: str):
        return _NOOP_INSTRUMENT

    def histogram(self, name: str, buckets=DEFAULT_BUCKETS):
        return _NOOP_INSTRUMENT


#: Shared disabled registry — the default when no observability is active.
NOOP_METRICS = _NoopMetrics()
