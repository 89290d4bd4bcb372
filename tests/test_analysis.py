"""Ablation and sensitivity analyses."""

import pytest

from repro.analysis import (
    chain_length_sweep,
    decompose_performance_drop,
    mitigation_coverage,
    paths_per_lane_sweep,
    signoff_quantile_sweep,
)
from repro.errors import ConfigurationError

VDD = 0.55


def test_decomposition_components(analyzer90):
    rows = decompose_performance_drop(analyzer90, VDD)
    by_name = {r.component: r for r in rows}
    assert set(by_name) == {"gate-level", "lane-level", "die-level",
                            "threshold (all scales)",
                            "multiplicative (all scales)"}
    # The NTV excess is entirely threshold-driven: without any threshold
    # variation the drop vanishes (voltage-flat components affect the 1 V
    # baseline identically and cancel out of the relative metric).
    assert by_name["threshold (all scales)"].drop_without < 0.005
    assert by_name["threshold (all scales)"].share > 0.9
    # Flat multiplicative variation actually *shrinks* the relative drop
    # (it inflates the baseline quantile), so its contribution is <= 0.
    assert by_name["multiplicative (all scales)"].contribution < 0.005
    # Gate- and lane-level threshold variation both contribute; die-level
    # is negligible in the calibrated 90nm card.
    assert by_name["gate-level"].contribution > 0.005
    assert by_name["lane-level"].contribution > 0.003
    assert abs(by_name["die-level"].contribution) < 0.005


def test_decomposition_unknown_component(analyzer90):
    with pytest.raises(ConfigurationError):
        decompose_performance_drop(analyzer90, VDD, components=["magic"])


def test_mitigation_coverage_structure(analyzer90):
    cov = mitigation_coverage(analyzer90, VDD, spares=32, margin=0.02)
    assert set(cov) == {"gate-level", "lane-level", "die-level"}
    # Spares fix lane-level outliers well but die-level slowdown poorly.
    lane = cov["lane-level"]
    die = cov["die-level"]
    if lane["base_drop"] > 0 and die["base_drop"] > 0:
        assert lane["duplication"] > die["duplication"]
    # A die-wide slowdown hits every lane alike: spares remove exactly
    # nothing (the die-level-only card is a step card, solved by Brent).
    assert die["duplication"] == 0.0
    # Margining helps every scale substantially.
    for scale, result in cov.items():
        if result["base_drop"] > 0:
            assert result["margining"] > 0.5


def test_signoff_quantile_sweep():
    rows = signoff_quantile_sweep("90nm", VDD)
    assert [r.value for r in rows] == [0.90, 0.99, 0.999]
    drops = [r.performance_drop for r in rows]
    # The conclusion is robust: drops stay within a few pp across
    # sign-off choices and all remain positive.
    assert all(0 < d < 0.12 for d in drops)
    with pytest.raises(ConfigurationError):
        signoff_quantile_sweep("90nm", VDD, quantiles=(1.5,))


def test_paths_per_lane_sweep():
    rows = paths_per_lane_sweep("90nm", VDD)
    drops = {int(r.value): r.performance_drop for r in rows}
    # More paths -> deeper max -> larger drop, but the effect is mild
    # (the paper's 50 -> 100 doubling is not decision-changing).
    assert drops[200] > drops[50]
    assert drops[200] - drops[50] < 0.02


def test_chain_length_sweep():
    rows = chain_length_sweep("90nm", VDD)
    drops = {int(r.value): r.performance_drop for r in rows}
    # Shorter proxy chains average less -> more per-path spread -> larger
    # drop.
    assert drops[25] > drops[100]
    for r in rows:
        assert r.margin_mv is not None and r.margin_mv > 0


def test_sweep_summaries_readable():
    row = signoff_quantile_sweep("90nm", VDD, quantiles=(0.99,))[0]
    assert "signoff_q" in row.summary()
