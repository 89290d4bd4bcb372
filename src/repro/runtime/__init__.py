"""Execution runtime: parallel sharded sampling, persistent quantile
cache, and the active-run context.

The statistics layer (:mod:`repro.core`) stays pure and serial; this
package supplies the *how fast* — see :class:`ParallelSampler` for
reproducible process-parallel sampling, :class:`QuantileCache` for the
on-disk memo of deterministic sign-off quantiles, and
:class:`ReproRuntime` / :func:`activate_runtime` for threading a worker
pool and observability context through the experiment registry
(``python -m repro.experiments --jobs N --profile``; the profile is the
span aggregate of :mod:`repro.obs`).
"""

from __future__ import annotations

from repro.runtime.cache import (
    ENV_CACHE_DIR,
    ENV_CACHE_DISABLE,
    QuantileCache,
    technology_fingerprint,
)
from repro.runtime.context import (
    ReproRuntime,
    activate_runtime,
    current_runtime,
)
from repro.runtime.parallel import (
    DEFAULT_SHARD_SIZE,
    DEFAULT_SHM_MIN_BYTES,
    ParallelSampler,
    plan_shards,
    release_worker_workspaces,
    shard_seeds,
)

__all__ = [
    "ParallelSampler",
    "QuantileCache",
    "ReproRuntime",
    "activate_runtime",
    "current_runtime",
    "build_runtime",
    "plan_shards",
    "release_worker_workspaces",
    "shard_seeds",
    "technology_fingerprint",
    "DEFAULT_SHARD_SIZE",
    "DEFAULT_SHM_MIN_BYTES",
    "ENV_CACHE_DIR",
    "ENV_CACHE_DISABLE",
]


def build_runtime(jobs: int = 1, trace: bool = False, metrics: bool = False,
                  retry=None, faults=None,
                  precision: str = "float64") -> ReproRuntime:
    """A ready-to-activate runtime with a sampler sized to ``jobs``.

    ``trace`` keeps Chrome trace events (``--trace FILE``); ``metrics``
    turns on the counter/gauge/histogram registry (``--metrics FILE``,
    ``--profile``).  Either one also turns on the span aggregate that
    ``--profile`` renders and the manifest embeds.  ``retry`` is an
    optional :class:`~repro.resilience.policy.RetryPolicy` for the
    sampler's fault-tolerant dispatcher, and ``faults`` an optional
    :class:`~repro.resilience.faultlab.FaultPlan` installed while the
    runtime is active (``--inject-faults``).  ``precision`` sets the
    run's Monte-Carlo dtype policy (``--mc-precision``).
    """
    from repro.errors import ConfigurationError
    from repro.obs.api import build_obs

    jobs = int(jobs)
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    runtime = ReproRuntime(
        jobs=jobs,
        obs=build_obs(trace=bool(trace), metrics=bool(metrics or trace)),
        faults=faults, precision=str(precision))
    runtime.sampler = ParallelSampler(jobs, retry=retry)
    return runtime
