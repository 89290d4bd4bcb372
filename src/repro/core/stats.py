"""Confidence intervals for Monte-Carlo estimates.

The paper quotes 99 % points of 10,000-sample ensembles without error
bars; these helpers make the sampling uncertainty explicit:

* :func:`quantile_ci` — exact, distribution-free CI for a quantile from
  order statistics (the binomial method): the true ``q`` quantile lies
  between the ``l``-th and ``u``-th order statistics with the stated
  confidence, where ``l``/``u`` are binomial quantiles.
* :func:`bootstrap_ci` — percentile bootstrap for arbitrary statistics
  (used for 3sigma/mu, which mixes two moments).
* :func:`weighted_quantile` — self-normalized quantile of a weighted
  sample (sorted-cumulative-weight interpolation).  This is the
  estimator the importance-sampling tail machinery
  (:mod:`repro.core.tailsampling`) consumes: likelihood-ratio weights go
  in, a tail quantile comes out.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["quantile_ci", "bootstrap_ci", "weighted_quantile"]


def quantile_ci(samples, q: float, confidence: float = 0.95) -> tuple:
    """Distribution-free confidence interval for the ``q`` quantile.

    Returns ``(lo, hi)`` sample values bracketing the true quantile with
    at least ``confidence`` coverage (exact order-statistics/binomial
    construction; no distributional assumptions).
    """
    # Imported here: scipy.stats costs ~0.5 s of import time, and no
    # regeneration or serving path needs it.
    from scipy.stats import binom

    samples = np.sort(np.asarray(samples, dtype=float))
    n = samples.size
    if n < 10:
        raise ConfigurationError("need at least 10 samples for a CI")
    if not 0.0 < q < 1.0:
        raise ConfigurationError("q must be in (0, 1)")
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError("confidence must be in (0, 1)")
    alpha = 1.0 - confidence
    lo_rank = int(binom.ppf(alpha / 2.0, n, q))
    hi_rank = int(binom.ppf(1.0 - alpha / 2.0, n, q)) + 1
    lo_rank = max(lo_rank, 0)
    hi_rank = min(hi_rank, n - 1)
    return float(samples[lo_rank]), float(samples[hi_rank])


def weighted_quantile(samples, q, weights):
    """Quantile(s) of a weighted sample (linear interpolation).

    Sorts the samples, accumulates the (non-negative) weights, places
    sorted sample ``i`` at the cumulative position
    ``(C_i - w_i) / (W - w_n)`` (``C_i`` the inclusive cumulative weight,
    ``W`` the total, ``w_n`` the last sorted weight) and interpolates
    linearly — the standard "C = 1" weighted plotting position, which
    reduces *exactly* to ``np.quantile``'s default linear method when all
    weights are equal.  Weights only matter up to a common scale, so
    unnormalized importance weights (or ``exp(logw - logw.max())``) are
    fine.  ``q`` may be a scalar or an array; the result matches its
    shape (scalar in, float out).
    """
    samples = np.asarray(samples, dtype=float).ravel()
    weights = np.asarray(weights, dtype=float).ravel()
    if samples.size < 2:
        raise ConfigurationError("need at least 2 samples for a quantile")
    if weights.shape != samples.shape:
        raise ConfigurationError(
            f"weights shape {weights.shape} does not match samples shape "
            f"{samples.shape}")
    if not np.all(np.isfinite(samples)):
        raise ConfigurationError("samples must be finite")
    if not np.all(np.isfinite(weights)) or np.any(weights < 0):
        raise ConfigurationError("weights must be finite and non-negative")
    total = weights.sum()
    if total <= 0:
        raise ConfigurationError("weights must not all be zero")
    q_arr = np.asarray(q, dtype=float)
    if not np.all((q_arr > 0.0) & (q_arr < 1.0)):
        raise ConfigurationError("q must be in (0, 1)")
    order = np.argsort(samples, kind="stable")
    sorted_samples = samples[order]
    sorted_weights = weights[order]
    cum = np.cumsum(sorted_weights)
    denom = total - sorted_weights[-1]
    if denom <= 0:
        # All weight on the last sorted sample: the CDF is a step there.
        out = np.full(q_arr.shape, sorted_samples[-1])
        return float(out) if q_arr.shape == () else out
    positions = (cum - sorted_weights) / denom
    out = np.interp(q_arr, positions, sorted_samples)
    if q_arr.shape == ():
        return float(out)
    return out


def bootstrap_ci(samples, statistic, *, n_boot: int = 1000,
                 confidence: float = 0.95, rng=None,
                 seed: int | None = 0) -> tuple:
    """Percentile-bootstrap confidence interval for ``statistic(samples)``.

    ``statistic`` maps a 1-D array to a scalar.  Returns ``(lo, hi)``.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size < 10:
        raise ConfigurationError("need at least 10 samples for a CI")
    if n_boot < 10:
        raise ConfigurationError("n_boot must be >= 10")
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError("confidence must be in (0, 1)")
    if rng is None:
        rng = np.random.default_rng(seed)
    n = samples.size
    estimates = np.empty(n_boot)
    for i in range(n_boot):
        resample = samples[rng.integers(0, n, size=n)]
        estimates[i] = float(statistic(resample))
    alpha = 1.0 - confidence
    lo, hi = np.quantile(estimates, [alpha / 2.0, 1.0 - alpha / 2.0])
    return float(lo), float(hi)
