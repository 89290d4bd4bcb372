"""Per-layer metrics of a traced run, from spans and the program's counters.

Every traced run emits every metric below, whatever the workload: a
layer the workload does not reach reads 0, which is itself the
prediction the benchmark's README records for that pairing.

Time identity (checked by the self-test on a regeneration workload)::

    trace.wall_s = setup.import_s + sum(layer.<name>.self_s)
                   + trace.unattributed_s

where ``trace.wall_s`` runs from the spawn of the traced process to the
end of its work and the layer self times are the self times of the
benchmark's spans (see ``spans.py``), grouped by the span name's first
segment.
"""

from __future__ import annotations

EXPERIMENT_IDS = (
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
    "fig10", "fig11", "fig12", "table1", "table2", "table3", "table4",
    "tail", "ablation1", "ablation2", "ablation3", "ablation4",
)

#: Span-name prefixes, in the order the layers are reported.
LAYERS = ("experiments", "analyzer", "solver", "kernels", "tail", "cache",
          "sampler")

PER_LAYER = (
    [("setup.import_s", "s")]
    + [(f"experiments.{i}.s", "s") for i in EXPERIMENT_IDS]
    + [(f"layer.{name}.self_s", "s") for name in LAYERS]
    + [
        ("analyzer.chip_quantile.calls", "count"),
        ("analyzer.chip_quantile.self_s", "s"),
        ("analyzer.chip_quantiles.points", "count"),
        ("analyzer.chip_quantiles.self_s", "s"),
        ("analyzer.chip_distribution.s", "s"),
        ("analyzer.memo_hits", "count"),
        ("solver.scalar.calls", "count"),
        ("solver.scalar.s", "s"),
        ("solver.batch.points", "count"),
        ("solver.batch.s", "s"),
        ("solver.batch.points_per_s", "1/s"),
        ("solver.fallbacks", "count"),
        ("solver.kernel_cache.hit_ratio", "ratio"),
        ("kernels.gate_evals", "count"),
        ("kernels.s", "s"),
        ("kernels.gate_evals_per_s", "1/s"),
        ("kernels.workspace_bytes", "bytes"),
        ("tail.find_shift.s", "s"),
        ("tail.find_shift.rounds", "count"),
        ("tail.sample.s", "s"),
        ("tail.samples", "count"),
        ("tail.ess_ratio", "ratio"),
        ("cache.get.s", "s"),
        ("cache.put.s", "s"),
        ("cache.hits", "count"),
        ("cache.misses", "count"),
        ("cache.hit_ratio", "ratio"),
        ("cache.file_bytes", "bytes"),
        ("sampler.s", "s"),
        ("sampler.shards", "count"),
        ("sampler.worker_utilization", "ratio"),
        ("sampler.shm_bytes", "bytes"),
        ("sampler.retries", "count"),
        ("sampler.worker_peak_rss_mb", "MB"),
        ("serve.batches", "count"),
        ("serve.batch_size_mean", "points"),
        ("serve.coalesce_ratio", "ratio"),
        ("serve.memo_hit_ratio", "ratio"),
        ("serve.singleflight_joins", "count"),
        ("serve.server_p99_ms", "ms"),
        ("serve.rejected", "count"),
        ("loadgen.lag_p99_ms", "ms"),
        ("loadgen.open_p50_ms", "ms"),
        ("loadgen.open_p99_ms", "ms"),
        ("trace.wall_s", "s"),
        ("trace.unattributed_s", "s"),
        ("trace.overhead_pct", "%"),
    ]
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(trace: dict, *, wall_s: float, overhead_pct: float,
           extra: dict | None = None) -> dict:
    """``{name: value}`` for every :data:`PER_LAYER` metric.

    ``trace`` holds ``spans`` (name -> [calls, inclusive_s, self_s,
    units]), ``tail_ess``/``tail_estimate_samples``, the program's
    ``metrics`` registry snapshot and ``cache_file_bytes``; ``wall_s`` is
    the traced wall time, ``extra`` supplies metrics measured outside
    the spans (``setup.import_s``, ``serve.*``, ``loadgen.*``, ...).
    """
    spans = trace.get("spans", {})
    registry = trace.get("metrics", {})
    counters = registry.get("counters", {})
    gauges = registry.get("gauges", {})

    def span(name: str, field: int) -> float:
        row = spans.get(name)
        return float(row[field]) if row else 0.0

    def layer_self(prefix: str) -> float:
        return sum(row[2] for name, row in spans.items()
                   if name.split(".", 1)[0] == prefix)

    out = {name: 0.0 for name, _ in PER_LAYER}
    for i in EXPERIMENT_IDS:
        out[f"experiments.{i}.s"] = span(f"experiments.{i}", 1)
    for name in LAYERS:
        out[f"layer.{name}.self_s"] = layer_self(name)
    kernel_hits = counters.get("kernel_cache.hits", 0)
    kernel_misses = counters.get("kernel_cache.misses", 0)
    cache_hits = counters.get("quantile_cache.hits", 0)
    cache_misses = counters.get("quantile_cache.misses", 0)
    out.update({
        "analyzer.chip_quantile.calls": span("analyzer.chip_quantile", 0),
        "analyzer.chip_quantile.self_s": span("analyzer.chip_quantile", 2),
        "analyzer.chip_quantiles.points": span("analyzer.chip_quantiles", 3),
        "analyzer.chip_quantiles.self_s": span("analyzer.chip_quantiles", 2),
        "analyzer.chip_distribution.s": span("analyzer.chip_distribution",
                                             1),
        "analyzer.memo_hits": counters.get("analyzer.memo_hits", 0),
        "solver.scalar.calls": span("solver.scalar", 0),
        "solver.scalar.s": span("solver.scalar", 1),
        "solver.batch.points": span("solver.batch", 3),
        "solver.batch.s": span("solver.batch", 1),
        "solver.batch.points_per_s": _ratio(span("solver.batch", 3),
                                            span("solver.batch", 1)),
        "solver.fallbacks": counters.get("solver.chandrupatla_fallback", 0),
        "solver.kernel_cache.hit_ratio": _ratio(
            kernel_hits, kernel_hits + kernel_misses),
        "kernels.gate_evals": counters.get("kernels.gate_evals", 0),
        "kernels.s": out["layer.kernels.self_s"],
        "kernels.gate_evals_per_s": _ratio(
            counters.get("kernels.gate_evals", 0),
            out["layer.kernels.self_s"]),
        "kernels.workspace_bytes": gauges.get("kernels.workspace_bytes",
                                              0.0),
        "tail.find_shift.s": span("tail.find_shift", 1),
        "tail.find_shift.rounds": counters.get("tail.shift_search_rounds",
                                               0),
        "tail.sample.s": span("tail.sample", 1),
        "tail.samples": span("tail.sample", 3),
        "tail.ess_ratio": _ratio(trace.get("tail_ess", 0.0),
                                 trace.get("tail_estimate_samples", 0)),
        "cache.get.s": span("cache.get", 1),
        "cache.put.s": span("cache.put", 1),
        "cache.hits": cache_hits,
        "cache.misses": cache_misses,
        "cache.hit_ratio": _ratio(cache_hits, cache_hits + cache_misses),
        "cache.file_bytes": trace.get("cache_file_bytes", 0),
        "sampler.s": out["layer.sampler.self_s"],
        "sampler.shards": counters.get("sampler.shards", 0),
        "sampler.worker_utilization": gauges.get(
            "sampler.worker_utilization", 0.0),
        "sampler.shm_bytes": counters.get("sampler.shm_bytes", 0),
        "sampler.retries": counters.get("resilience.retries", 0),
    })
    out.update(extra or {})
    attributed = out["setup.import_s"] + sum(
        out[f"layer.{name}.self_s"] for name in LAYERS)
    out["trace.wall_s"] = wall_s
    out["trace.unattributed_s"] = wall_s - attributed
    out["trace.overhead_pct"] = overhead_pct
    return {name: float(value) for name, value in out.items()}
