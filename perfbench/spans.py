"""Benchmark-owned spans around each layer's public entry points.

:meth:`SpanRecorder.install` replaces a fixed list of public methods
with timing wrappers. Each call becomes a span named
``<layer>.<entry>``; spans nest per thread, so a span's self time is its
duration minus the time of the spans it caused. Per name the recorder
keeps the call count, inclusive time (outermost calls only, so recursion
is not counted twice), self time and a unit count (points or samples)
where the entry point has one. Nothing inside the program changes: the
wrappers live only in the process that installed them.

The sum of every span's self time equals the time covered by outermost
spans, which is what lets the traced run split its wall time by layer.
"""

from __future__ import annotations

import functools
import threading
import time


def _points(*arrays) -> int:
    import numpy as np

    return int(np.broadcast(*[np.asarray(a, dtype=float)
                              for a in arrays if a is not None]).size)


def _arg(args, kwargs, index: int, name: str, default=None):
    """Positional-or-keyword argument ``name`` (``index`` counts ``self``)."""
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _entry_points():
    """``(owner, attribute, span name, units(args, kwargs, result))``."""
    from repro.core.analyzer import VariationAnalyzer
    from repro.core.chip_delay import ChipDelayEngine
    from repro.core.kernels import MonteCarloKernel
    from repro.core.montecarlo import MonteCarloEngine
    from repro.core.tailsampling import TailSampler
    from repro.runtime.cache import QuantileCache
    from repro.runtime.parallel import ParallelSampler

    def quantile_points(a, kw, _):
        return _points(_arg(a, kw, 1, "vdd"), _arg(a, kw, 2, "spares", 0),
                       _arg(a, kw, 3, "q", 0.99))

    def batch_points(a, kw, _):
        return _points(_arg(a, kw, 1, "vdd"), _arg(a, kw, 2, "q", 0.99),
                       _arg(a, kw, 3, "spares", 0.0))

    def n_samples(a, kw, _):
        return int(_arg(a, kw, 2, "n_samples", 0) or 0)

    def n_results(a, kw, result):
        return len(result)

    def one(a, kw, _):
        return 1

    entries = [
        (VariationAnalyzer, "chip_quantile", "analyzer.chip_quantile", None),
        (VariationAnalyzer, "chip_quantiles", "analyzer.chip_quantiles",
         quantile_points),
        (VariationAnalyzer, "chip_distribution",
         "analyzer.chip_distribution", None),
        (VariationAnalyzer, "chip_tail_quantile",
         "analyzer.chip_tail_quantile", None),
        (VariationAnalyzer, "chip_failure_probability",
         "analyzer.chip_failure_probability", None),
        (VariationAnalyzer, "monte_carlo", "analyzer.monte_carlo", None),
        (ChipDelayEngine, "chip_quantile", "solver.scalar", None),
        (ChipDelayEngine, "chip_quantile_batch", "solver.batch",
         batch_points),
        (MonteCarloKernel, "system_batch", "kernels.system_batch", None),
        (MonteCarloKernel, "lane_batch", "kernels.lane_batch", None),
        (MonteCarloKernel, "chain_batch", "kernels.chain_batch", None),
        (MonteCarloEngine, "gate_delays", "kernels.gate_delays", None),
        (MonteCarloEngine, "chain_delays", "kernels.chain_delays", None),
        (MonteCarloEngine, "system_delays", "kernels.system_delays", None),
        (MonteCarloEngine, "weighted_system_delays",
         "kernels.weighted_system_delays", None),
        (MonteCarloEngine, "lane_delays", "kernels.lane_delays", None),
        (TailSampler, "find_shift", "tail.find_shift", None),
        (TailSampler, "sample", "tail.sample", n_samples),
        (TailSampler, "tail_quantile", "tail.tail_quantile", None),
        (TailSampler, "failure_probability", "tail.failure_probability",
         None),
        (QuantileCache, "get", "cache.get", one),
        (QuantileCache, "get_many", "cache.get", n_results),
        (QuantileCache, "put", "cache.put", None),
        (QuantileCache, "put_many", "cache.put", None),
        (ParallelSampler, "system_delays", "sampler.system_delays", None),
        (ParallelSampler, "weighted_system_delays",
         "sampler.weighted_system_delays", None),
        (ParallelSampler, "sample_chips", "sampler.sample_chips", None),
        (ParallelSampler, "solve_quantiles", "sampler.solve_quantiles",
         None),
    ]
    return entries


class SpanRecorder:
    """Aggregates spans per name: calls, inclusive, self time and units."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: name -> [calls, inclusive_s, self_s, units]
        self.stats: dict = {}
        #: Sum of ``ess`` and ``n_samples`` over tail estimates returned.
        self.tail_ess = 0.0
        self.tail_estimate_samples = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, dur: float, self_s: float,
                outermost: bool) -> None:
        with self._lock:
            row = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
            row[0] += 1
            if outermost:
                row[1] += dur
            row[2] += self_s

    def _add(self, name: str | None = None, *, units: int = 0,
             ess: float = 0.0, samples: int = 0) -> None:
        with self._lock:
            if name is not None:
                self.stats[name][3] += units
            self.tail_ess += ess
            self.tail_estimate_samples += samples

    def span(self, name: str, func, units=None):
        """``func`` wrapped so each call records one span ``name``."""
        recorder = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            outermost = all(frame[0] != name for frame in stack)
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                recorder._record(name, dur, dur - frame[1], outermost)
            if units is not None:
                recorder._add(name, units=units(args, kwargs, result))
            if name == "tail.tail_quantile":
                recorder._add(ess=float(result.ess),
                              samples=int(result.n_samples))
            return result

        return wrapper

    def install(self) -> "SpanRecorder":
        for owner, attr, name, units in _entry_points():
            original = owner.__dict__[attr]
            setattr(owner, attr, self.span(name, original, units))
        return self

    def export(self) -> dict:
        with self._lock:
            return {"spans": {k: list(v) for k, v in self.stats.items()},
                    "tail_ess": self.tail_ess,
                    "tail_estimate_samples": self.tail_estimate_samples}
