"""Experiment registry: one entry per paper figure/table.

Each experiment module registers a runner via :func:`experiment`; the CLI
(``python -m repro.experiments``) and the benchmark harness dispatch
through :func:`run_experiment`.  Runners accept ``fast=True`` to trade
sample counts for speed (used by the test suite and CI-style runs) and
return an :class:`ExperimentResult` whose ``data`` dict exposes the raw
numbers for programmatic checks.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from functools import lru_cache

from repro.core.analyzer import VariationAnalyzer
from repro.errors import ConfigurationError
from repro.obs.api import span as _obs_span
from repro.runtime.context import activate_runtime

__all__ = [
    "Experiment",
    "ExperimentResult",
    "experiment",
    "run_experiment",
    "list_experiments",
    "get_analyzer",
]

_REGISTRY: dict = {}

#: Modules that self-register experiments on import.
_EXPERIMENT_MODULES = (
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
    "fig9", "fig10", "fig11", "fig12",
    "table1", "table2", "table3", "table4",
    "ablations", "ablation4", "tail",
)


@dataclass(frozen=True)
class ExperimentResult:
    """Output of one experiment run."""

    experiment_id: str
    title: str
    tables: list
    notes: list = field(default_factory=list)
    data: dict = field(default_factory=dict)

    def render(self) -> str:
        """The full text report."""
        parts = [f"== {self.experiment_id}: {self.title} =="]
        for table in self.tables:
            parts.append(table.render())
        if self.notes:
            parts.append("notes:")
            parts.extend(f"  * {note}" for note in self.notes)
        return "\n\n".join(parts)


@dataclass(frozen=True)
class Experiment:
    """A registered paper-artifact regenerator."""

    experiment_id: str
    title: str
    paper_ref: str
    runner: object

    def run(self, fast: bool = False) -> ExperimentResult:
        return self.runner(fast=fast)


def experiment(experiment_id: str, title: str, paper_ref: str):
    """Decorator registering a runner under ``experiment_id``."""
    def wrap(func):
        if experiment_id in _REGISTRY:
            raise ConfigurationError(
                f"experiment {experiment_id!r} registered twice")
        _REGISTRY[experiment_id] = Experiment(
            experiment_id=experiment_id, title=title,
            paper_ref=paper_ref, runner=func)
        return func
    return wrap


def _load_all() -> None:
    for module in _EXPERIMENT_MODULES:
        importlib.import_module(f"repro.experiments.{module}")


def list_experiments() -> list:
    """All registered experiments: figures, tables, then ablations."""
    _load_all()
    def key(e):
        eid = e.experiment_id
        if eid.startswith("fig"):
            kind = 0
        elif eid.startswith("table"):
            kind = 1
        else:
            kind = 2
        digits = "".join(ch for ch in eid if ch.isdigit())
        return (kind, int(digits) if digits else 0, eid)
    return sorted(_REGISTRY.values(), key=key)


def run_experiment(experiment_id: str, fast: bool = False,
                   runtime=None) -> ExperimentResult:
    """Run one experiment by id (e.g. ``"fig4"``, ``"table1"``).

    Passing a :class:`~repro.runtime.context.ReproRuntime` activates it
    for the duration of the run: the analyzer layer shards its ensemble
    sampling across the runtime's worker pool, and the run is timed as
    one ``experiment.<id>`` span on the runtime's observability context.
    """
    _load_all()
    try:
        exp = _REGISTRY[experiment_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; run "
            f"`python -m repro.experiments list` for the catalogue") from None
    if runtime is None:
        return exp.run(fast=fast)
    # The span resolves against the runtime's obs context, which
    # activate_runtime has made current by the time it is entered.
    with activate_runtime(runtime), \
            _obs_span(f"experiment.{experiment_id}", fast=bool(fast)):
        return exp.run(fast=fast)


@lru_cache(maxsize=8)
def get_analyzer(node: str) -> VariationAnalyzer:
    """Shared per-node analyzer so experiments reuse cached quadratures."""
    return VariationAnalyzer(node)
