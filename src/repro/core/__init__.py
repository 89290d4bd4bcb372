"""Core engines: the paper's primary contribution as a reusable library.

* :mod:`repro.core.moments` — exact gate-delay moments by Gauss-Hermite
  quadrature and Cornish-Fisher path quantiles.
* :mod:`repro.core.chip_delay` — the analytic order-statistics engine for
  lane/chip delay distributions of an N-wide SIMD datapath (with spares).
* :mod:`repro.core.montecarlo` — the brute-force per-gate Monte-Carlo
  engine (the paper's method; used directly for the circuit-level figures
  and as cross-validation for the analytic engine).
* :mod:`repro.core.kernels` — fused zero-allocation evaluation kernels
  behind the Monte-Carlo engine (workspace reuse, float64/float32 dtype
  policy).
* :mod:`repro.core.tailsampling` — importance-sampling estimation of
  high-sigma chip-delay tails (mean-shifted / mixture proposals with
  exact likelihood-ratio weights, adaptive shift search, ESS
  diagnostics).
* :mod:`repro.core.analyzer` — :class:`VariationAnalyzer`, the high-level
  entry point tying a technology card to every paper-level question.
* :mod:`repro.core.results` — typed result containers.
"""

from repro.core.moments import (
    DelayMoments,
    gate_delay_moments,
    chain_moments,
    cornish_fisher_quantile,
    cornish_fisher_cdf,
)
from repro.core.chip_delay import (
    ChipDelayEngine,
    sample_chip_delays,
    chip_delay_quantile,
    chip_delay_cdf,
)
from repro.core.kernels import MonteCarloKernel, WorkspaceArena
from repro.core.montecarlo import MonteCarloEngine
from repro.core.analyzer import VariationAnalyzer
from repro.core.results import DelayDistribution, VariationSweep
from repro.core.stats import bootstrap_ci, quantile_ci, weighted_quantile
from repro.core.tailsampling import (
    ShiftProposal,
    TailEstimate,
    TailSampler,
    effective_sample_size,
    weight_max_ratio,
)

__all__ = [
    "DelayMoments",
    "gate_delay_moments",
    "chain_moments",
    "cornish_fisher_quantile",
    "cornish_fisher_cdf",
    "ChipDelayEngine",
    "sample_chip_delays",
    "chip_delay_quantile",
    "chip_delay_cdf",
    "MonteCarloEngine",
    "MonteCarloKernel",
    "WorkspaceArena",
    "VariationAnalyzer",
    "DelayDistribution",
    "VariationSweep",
    "bootstrap_ci",
    "quantile_ci",
    "weighted_quantile",
    "ShiftProposal",
    "TailEstimate",
    "TailSampler",
    "effective_sample_size",
    "weight_max_ratio",
]
