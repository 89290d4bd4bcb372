"""Quantile and bootstrap confidence intervals."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

from repro.core.stats import bootstrap_ci, quantile_ci
from repro.errors import ConfigurationError


def test_quantile_ci_brackets_point_estimate(rng):
    samples = rng.normal(0, 1, 5000)
    lo, hi = quantile_ci(samples, 0.99)
    point = np.quantile(samples, 0.99)
    assert lo <= point <= hi
    assert hi > lo


def test_quantile_ci_coverage(rng):
    """The 95 % CI should contain the true quantile ~95 % of the time."""
    true_q99 = norm.ppf(0.99)
    hits = 0
    trials = 300
    for _ in range(trials):
        samples = rng.normal(0, 1, 800)
        lo, hi = quantile_ci(samples, 0.99, confidence=0.95)
        hits += lo <= true_q99 <= hi
    coverage = hits / trials
    assert 0.90 <= coverage <= 1.0


def test_quantile_ci_narrows_with_samples(rng):
    small = quantile_ci(rng.normal(0, 1, 500), 0.99)
    large = quantile_ci(rng.normal(0, 1, 50_000), 0.99)
    assert (large[1] - large[0]) < (small[1] - small[0])


def test_quantile_ci_validation(rng):
    with pytest.raises(ConfigurationError):
        quantile_ci([1.0] * 5, 0.99)
    with pytest.raises(ConfigurationError):
        quantile_ci(rng.normal(0, 1, 100), 1.5)
    with pytest.raises(ConfigurationError):
        quantile_ci(rng.normal(0, 1, 100), 0.5, confidence=0.0)


def test_bootstrap_ci_contains_estimate(rng):
    samples = rng.normal(10, 2, 2000)
    lo, hi = bootstrap_ci(samples, np.mean, n_boot=300, seed=1)
    assert lo <= samples.mean() <= hi
    # Should roughly match the analytic standard error.
    se = samples.std() / np.sqrt(samples.size)
    assert (hi - lo) == pytest.approx(2 * 1.96 * se, rel=0.4)


def test_bootstrap_ci_reproducible(rng):
    samples = rng.normal(0, 1, 500)
    a = bootstrap_ci(samples, np.std, seed=7, n_boot=200)
    b = bootstrap_ci(samples, np.std, seed=7, n_boot=200)
    assert a == b


def test_bootstrap_validation(rng):
    with pytest.raises(ConfigurationError):
        bootstrap_ci([1.0] * 5, np.mean)
    with pytest.raises(ConfigurationError):
        bootstrap_ci(rng.normal(0, 1, 100), np.mean, n_boot=5)


def test_distribution_signoff_ci(analyzer90):
    dist = analyzer90.chip_distribution(0.6, n_samples=3000, seed=4)
    lo, hi = dist.signoff_ci()
    assert lo <= dist.signoff_delay <= hi
    # The deterministic quantile should fall inside the sampling CI.
    deterministic = analyzer90.chip_quantile(0.6)
    assert lo * 0.995 <= deterministic <= hi * 1.005


# -- weighted_quantile --------------------------------------------------------


def test_weighted_quantile_uniform_matches_numpy(rng):
    """Uniform weights must reduce to np.quantile's linear (type-7) rule."""
    from repro.core.stats import weighted_quantile
    samples = rng.normal(0, 1, 1001)
    weights = np.full(samples.size, 0.37)
    for q in (0.01, 0.25, 0.5, 0.9, 0.99, 0.999):
        assert weighted_quantile(samples, q, weights) == pytest.approx(
            float(np.quantile(samples, q)), rel=1e-12)


def test_weighted_quantile_weight_scale_invariant(rng):
    from repro.core.stats import weighted_quantile
    samples = rng.normal(0, 1, 500)
    weights = rng.uniform(0.1, 2.0, 500)
    a = weighted_quantile(samples, 0.95, weights)
    b = weighted_quantile(samples, 0.95, weights * 1e6)
    assert a == pytest.approx(b, rel=1e-12)


def test_weighted_quantile_monotone_and_bounded(rng):
    from repro.core.stats import weighted_quantile
    samples = rng.normal(0, 1, 400)
    weights = rng.uniform(0.1, 2.0, 400)
    qs = np.linspace(0.01, 0.99, 25)
    values = weighted_quantile(samples, qs, weights)
    assert values.shape == qs.shape
    assert np.all(np.diff(values) >= 0)
    assert samples.min() <= values[0] and values[-1] <= samples.max()
    # Scalar q returns a plain float.
    assert isinstance(weighted_quantile(samples, 0.5, weights), float)


def test_weighted_quantile_importance_reweighting(rng):
    """IS weights must recover target-distribution quantiles.

    Draw from a mean-shifted proposal N(1, 1), reweight back to the
    N(0, 1) target with exact likelihood ratios, and check the weighted
    quantiles land on the standard-normal ones.
    """
    from repro.core.stats import weighted_quantile
    z = rng.normal(1.0, 1.0, 20_000)
    log_ratio = -0.5 * z ** 2 + 0.5 * (z - 1.0) ** 2
    weights = np.exp(log_ratio - log_ratio.max())
    assert weighted_quantile(z, 0.5, weights) == pytest.approx(0.0,
                                                               abs=0.06)
    # Phi(1) = 0.8413...: the 84.13 % quantile of N(0, 1) is 1.
    assert weighted_quantile(z, 0.8413447, weights) == pytest.approx(
        1.0, abs=0.08)


def test_weighted_quantile_validation(rng):
    from repro.core.stats import weighted_quantile
    with pytest.raises(ConfigurationError):
        weighted_quantile([], 0.5, [])
    with pytest.raises(ConfigurationError):
        weighted_quantile([1.0, 2.0], 1.5, [1.0, 1.0])
    with pytest.raises(ConfigurationError):
        weighted_quantile([1.0, 2.0], 0.0, [1.0, 1.0])
    with pytest.raises(ConfigurationError):
        weighted_quantile([1.0, 2.0], 0.5, [1.0])
    with pytest.raises(ConfigurationError):
        weighted_quantile([1.0, 2.0], 0.5, [-1.0, 1.0])
    with pytest.raises(ConfigurationError):
        weighted_quantile([1.0, 2.0], 0.5, [0.0, 0.0])
    with pytest.raises(ConfigurationError):
        weighted_quantile([1.0, np.nan], 0.5, [1.0, 1.0])


def test_regeneration_and_serve_imports_skip_scipy_stats():
    """Cold start: the catalogue and the server never import scipy.stats."""
    code = (
        "import sys\n"
        "from repro.experiments.registry import list_experiments\n"
        "list_experiments()\n"
        "assert 'scipy.stats' not in sys.modules, 'registry'\n"
        "import repro.serve\n"
        "assert 'scipy.stats' not in sys.modules, 'serve'\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
