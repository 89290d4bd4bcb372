"""High-sigma tail sign-off: importance sampling vs the analytic model.

Beyond-paper experiment: the paper signs off at the 99 % chip quantile,
where 10^4 plain Monte-Carlo samples suffice; real sign-off wants
99.99 %+ quantiles, where they do not.  This experiment estimates a deep
tail quantile of the *per-gate Monte-Carlo* chip delay with the
importance-sampling machinery (:mod:`repro.core.tailsampling`) at a few
thousand weighted samples, and cross-checks it against the analytic
order-statistics engine's deterministic quantile at a reduced
architecture — a tail-depth extension of the cross-validation study.
Also reports the importance-sampled failure probability at the analytic
threshold (self-consistency: it should recover ``1 - q``), and the
estimator diagnostics (ESS, weight-max-ratio, shift-search rounds,
found shift).

``--tail-q`` and ``--tail-samples`` override the target quantile and the
weighted sample count from the CLI (see :func:`configure`).
"""

from __future__ import annotations

from functools import lru_cache

from repro.core.analyzer import VariationAnalyzer
from repro.devices.technology import available_technologies
from repro.errors import ConfigurationError
from repro.experiments.registry import ExperimentResult, experiment
from repro.experiments.report import TextTable

VDD = 0.55

#: Reduced architecture: deep-tail brute-force cross-checks and CI smoke
#: runs must stay tractable on one core (full paper scale is 640k gate
#: evaluations per chip; this is 19.2k).
WIDTH, PATHS_PER_LANE, CHAIN_LENGTH = 32, 20, 30

#: CLI-overridable run parameters (see :func:`configure`).
_CONFIG = {"q": 0.9999, "n_samples": 4096}


def configure(q: float | None = None, n_samples: int | None = None) -> None:
    """Override the experiment's target quantile / sample count.

    Called by the CLI for ``--tail-q`` / ``--tail-samples``; validation
    errors surface as :class:`ConfigurationError` (CLI exit code 2).
    """
    if q is not None:
        q = float(q)
        if not 0.0 < q < 1.0:
            raise ConfigurationError(
                f"--tail-q must be in (0, 1), got {q}")
        _CONFIG["q"] = q
    if n_samples is not None:
        n_samples = int(n_samples)
        if n_samples < 2:
            raise ConfigurationError(
                f"--tail-samples must be >= 2, got {n_samples}")
        _CONFIG["n_samples"] = n_samples


@lru_cache(maxsize=8)
def _tail_analyzer(node: str) -> VariationAnalyzer:
    """Per-node analyzer at the reduced architecture (not the registry's)."""
    return VariationAnalyzer(node, width=WIDTH,
                             paths_per_lane=PATHS_PER_LANE,
                             chain_length=CHAIN_LENGTH)


@experiment("tail", "High-sigma tail sign-off by importance sampling",
            "beyond-paper (ISLE-style IS; cross-validates Section 3)")
def run(fast: bool = False) -> ExperimentResult:
    q = _CONFIG["q"]
    n_samples = min(_CONFIG["n_samples"], 1024) if fast \
        else _CONFIG["n_samples"]
    n_pilot, max_rounds = (256, 3) if fast else (512, 5)
    nodes = list(available_technologies())

    table = TextTable(
        f"q={q:g} chip-delay tail @ {VDD:g} V "
        f"({WIDTH}x{PATHS_PER_LANE}x{CHAIN_LENGTH}, "
        f"{n_samples} weighted samples)",
        ["node", "IS tail (ns)", "analytic (ns)", "rel err (%)",
         "P(fail@analytic)", "ESS", "max w", "rounds", "shift (sigma)"])
    data: dict = {"q": q, "n_samples": n_samples, "vdd": VDD,
                  "nodes": {}}
    for node in nodes:
        analyzer = _tail_analyzer(node)
        est = analyzer.chip_tail_quantile(
            VDD, q, n_samples=n_samples, n_pilot=n_pilot,
            max_rounds=max_rounds)
        analytic = analyzer.chip_quantile(VDD, q=q)
        rel_err = est.value / analytic - 1.0
        # Self-consistency: the IS failure probability at the analytic
        # threshold should land near 1 - q (same proposal, no re-search;
        # the analyzer answers it from the quantile's weighted draw).
        pfail = analyzer.chip_failure_probability(
            VDD, t_limit=analytic, n_samples=n_samples,
            proposal=est.proposal)
        table.add_row(node, est.value * 1e9, analytic * 1e9,
                      100.0 * rel_err, f"{pfail.value:.2e}", est.ess,
                      est.weight_max_ratio, est.shift_search_rounds,
                      est.proposal.d2d_shifts[0])
        data["nodes"][node] = {
            "is_value": est.value, "analytic": analytic,
            "rel_err": rel_err, "p_fail": pfail.value,
            "ess": est.ess, "weight_max_ratio": est.weight_max_ratio,
            "rounds": est.shift_search_rounds,
            "shift": est.proposal.d2d_shifts[0]}

    notes = [
        f"importance sampling resolves the {q:g} tail with {n_samples} "
        f"weighted samples; brute force would need "
        f"~{int(100 / (1 - q)) :,} chips for comparable tail resolution",
        "rel err compares the weighted MC estimate against the analytic "
        "order-statistics quantile (independent methods; per-gate MC is "
        "the reference the analytic model is validated against)",
        "P(fail@analytic) is the self-normalized failure probability at "
        f"the analytic threshold — expect ~{1 - q:g}",
    ]
    return ExperimentResult("tail", "High-sigma tail sign-off",
                            [table], notes, data)
