"""Batched quantile solver: parity with Brent over the CDF, kernel
caching, and the analyzer/disk-cache threading."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.analyzer import VariationAnalyzer
from repro.core.chip_delay import ChipDelayEngine
from repro.devices.technology import available_technologies, get_technology
from repro.errors import ConfigurationError
from repro.runtime.cache import QuantileCache


@pytest.fixture(scope="module")
def engine(tech90):
    return ChipDelayEngine(tech90, width=16, paths_per_lane=10,
                           chain_length=20)


# -- batch vs Brent parity -----------------------------------------------------


@pytest.mark.parametrize("node", available_technologies())
def test_batch_matches_scalar_across_nodes(node):
    engine = ChipDelayEngine(get_technology(node), width=16,
                             paths_per_lane=10, chain_length=20)
    tech = engine.tech
    vdds = np.linspace(tech.min_vdd, tech.nominal_vdd, 12)
    batch = engine.chip_quantile_batch(vdds, 0.99, 0.0)
    scalar = np.array([engine._brent_quantile(v, 0.99, 0.0) for v in vdds])
    np.testing.assert_allclose(batch, scalar, rtol=1e-10)


@pytest.mark.parametrize("q", [0.5, 0.99, 0.999])
@pytest.mark.parametrize("spares", [0.0, 1.5, 4.0])
def test_batch_matches_scalar_quantiles_and_fractional_spares(engine, q,
                                                              spares):
    vdds = np.linspace(0.5, 0.8, 9)
    batch = engine.chip_quantile_batch(vdds, q, spares)
    scalar = np.array([engine._brent_quantile(v, q, spares) for v in vdds])
    np.testing.assert_allclose(batch, scalar, rtol=1e-10)


def test_batch_broadcasts_and_scalar_returns_float(engine):
    grid = engine.chip_quantile_batch(
        np.array([[0.55], [0.65]]), 0.99, np.array([0.0, 2.0]))
    assert grid.shape == (2, 2)
    # More spares -> faster; higher vdd -> faster.
    assert grid[0, 1] < grid[0, 0]
    assert grid[1, 0] < grid[0, 0]
    scalar = engine.chip_quantile_batch(0.6, 0.99, 0.0)
    assert np.ndim(scalar) == 0
    assert scalar == engine.chip_quantile(0.6)
    assert scalar == pytest.approx(engine._brent_quantile(0.6, 0.99, 0.0),
                                   rel=1e-10)


def test_batch_dedupes_repeated_points(engine):
    vdds = np.array([0.6, 0.55, 0.6, 0.55, 0.6])
    out = engine.chip_quantile_batch(vdds, 0.99, 0.0)
    assert out[0] == out[2] == out[4]
    assert out[1] == out[3]
    assert out[0] != out[1]


def test_batch_validates_inputs(engine):
    with pytest.raises(ConfigurationError):
        engine.chip_quantile_batch(np.array([0.6]), 1.5, 0.0)
    with pytest.raises(ConfigurationError):
        engine.chip_quantile_batch(np.array([0.6]), 0.99, -1.0)


@pytest.mark.parametrize("entry", ["chip_quantile", "chip_quantile_batch"])
@pytest.mark.parametrize("vdd, spares, field", [
    (0.6, float("nan"), "spares"),
    (0.6, float("inf"), "spares"),
    (float("nan"), 0.0, "vdd"),
    (float("inf"), 0.0, "vdd"),
    (0.0, 0.0, "vdd"),
])
def test_engine_rejects_non_finite_points_before_any_kernel_build(
        tech90, entry, vdd, spares, field):
    """Regression: NaN spares returned a quantile, a NaN vdd ran the
    whole rescue ladder before failing."""
    engine = _fresh_engine(tech90)
    with pytest.raises(ConfigurationError, match=field):
        getattr(engine, entry)(vdd, 0.99, spares)
    assert engine.kernel_misses == 0 and not engine._kernel_cache


# -- cached CDF kernels --------------------------------------------------------


def test_chip_cdf_monotone_under_cached_kernel(engine):
    med = engine.chip_quantile(0.6, 0.5)
    xs = np.linspace(0.75 * med, 1.35 * med, 60)
    first = engine.chip_cdf(0.6, xs)
    again = engine.chip_cdf(0.6, xs)      # second call hits the kernel cache
    np.testing.assert_array_equal(first, again)
    assert np.all(np.diff(first) >= -1e-12)
    assert first[0] < 0.1 and first[-1] > 0.9


def test_kernel_cache_keyed_by_vdd(engine):
    engine._kernel_cache.clear()
    engine.chip_cdf(0.6, 1e-9)
    assert list(engine._kernel_cache) == [0.6]
    engine.chip_cdf(0.65, 1e-9)
    assert set(engine._kernel_cache) == {0.6, 0.65}
    # A kernel is conditioned on its own vdd: the two entries must differ.
    k60 = engine._kernel_cache[0.6]
    k65 = engine._kernel_cache[0.65]
    assert k60.vdd != k65.vdd
    assert not np.allclose(k60.mean, k65.mean, rtol=1e-3, atol=0.0)
    # Sub-rounding jitter maps onto the same kernel entry (no rebuild).
    engine.chip_cdf(0.6 + 1e-12, 1e-9)
    assert set(engine._kernel_cache) == {0.6, 0.65}


def test_kernel_cache_is_bounded_lru(engine):
    from repro.core import chip_delay

    engine._kernel_cache.clear()
    vdds = np.linspace(0.5, 0.9, chip_delay._KERNEL_CACHE_SIZE + 8)
    engine.chip_quantile_batch(vdds, 0.5, 0.0)
    assert len(engine._kernel_cache) <= max(chip_delay._KERNEL_CACHE_SIZE,
                                            vdds.size)
    # The most recent voltages survive; refreshing one keeps it alive.
    key = round(float(vdds[-1]), 9)
    assert key in engine._kernel_cache


# -- analyzer threading --------------------------------------------------------


def test_analyzer_chip_quantiles_matches_scalar(small_analyzer):
    vdds = np.array([0.58, 0.62, 0.66])
    batch = small_analyzer.chip_quantiles(vdds)
    for v, b in zip(vdds, batch):
        assert small_analyzer.chip_quantile(float(v)) == b


def test_analyzer_partial_disk_hit_fill_in(tmp_path, tech90):
    path = str(tmp_path / "q.json")
    first = VariationAnalyzer(tech90, width=8, paths_per_lane=4,
                              chain_length=10,
                              quantile_cache=QuantileCache(path=path,
                                                           enabled=True))
    warm = first.chip_quantiles(np.array([0.60, 0.64]))

    second = VariationAnalyzer(tech90, width=8, paths_per_lane=4,
                               chain_length=10,
                               quantile_cache=QuantileCache(path=path,
                                                            enabled=True))
    out = second.chip_quantiles(np.array([0.60, 0.62, 0.64, 0.66]))
    # The two warm points are exact disk hits; only the others solved.
    assert out[0] == warm[0] and out[2] == warm[1]
    assert second.quantile_cache.hits == 2
    assert second.quantile_cache.misses == 2
    # Everything is now memoised in-process: no further disk traffic.
    again = second.chip_quantiles(np.array([0.62, 0.66]))
    assert again[0] == out[1] and again[1] == out[3]
    assert second.quantile_cache.hits == 2


def test_analyzer_fractional_spares_do_not_collide(small_analyzer):
    """Regression: int(spares) memo keys collided 1.5 with 1."""
    q1 = small_analyzer.chip_quantile(0.6, spares=1)
    q15 = small_analyzer.chip_quantile(0.6, spares=1.5)
    q2 = small_analyzer.chip_quantile(0.6, spares=2)
    assert q2 < q15 < q1
    # And the batched path shares the same (non-colliding) memo entries.
    batch = small_analyzer.chip_quantiles(0.6, spares=np.array([1.0, 1.5, 2.0]))
    assert batch[0] == q1 and batch[1] == q15 and batch[2] == q2


def test_cache_get_many_put_many_roundtrip(tmp_path):
    cache = QuantileCache(path=str(tmp_path / "q.json"), enabled=True)
    cache.put_many([("a", 1.25), ("b", 2.5)])
    fresh = QuantileCache(path=str(tmp_path / "q.json"), enabled=True)
    assert fresh.get_many(["a", "missing", "b"]) == [1.25, None, 2.5]
    assert fresh.hits == 2 and fresh.misses == 1


def test_cache_get_many_disabled(tmp_path):
    cache = QuantileCache(path=str(tmp_path / "q.json"), enabled=False)
    cache.put_many([("a", 1.0)])
    assert cache.get_many(["a", "b"]) == [None, None]
    assert cache.misses == 2


# -- batch-composition invariance ---------------------------------------------


def _fresh_engine(tech90):
    return ChipDelayEngine(tech90, width=16, paths_per_lane=10,
                           chain_length=20)


def test_invariant_mode_bit_identical_across_groupings(tech90):
    """Roots depend only on their own point, never the batch.

    This is the serving dispatcher's contract: coalescing queries from
    unrelated clients must return exactly the bits a direct per-point
    call produces, so any grouping, permutation or chunking of the same
    points is bit-identical.
    """
    vdds = np.array([0.5, 0.55, 0.6, 0.7, 0.45])
    batch = _fresh_engine(tech90).chip_quantile_batch(vdds, 0.99, 0.0)
    singles = np.array([_fresh_engine(tech90).chip_quantile(v, 0.99, 0.0)
                        for v in vdds])
    np.testing.assert_array_equal(singles, batch)
    permuted = _fresh_engine(tech90).chip_quantile_batch(
        vdds[::-1], 0.99, 0.0)[::-1]
    np.testing.assert_array_equal(permuted, batch)
    chunked = _fresh_engine(tech90).chip_quantile_batch(
        vdds, 0.99, 0.0, chunk_size=2)
    np.testing.assert_array_equal(chunked, batch)
    # The ignored `cluster` keyword changes nothing.
    legacy = _fresh_engine(tech90).chip_quantile_batch(vdds, 0.99, 0.0,
                                                       cluster=False)
    np.testing.assert_array_equal(legacy, batch)


def test_analyzer_invariant_solves_match_engine(tmp_path, tech90):
    """analyzer.chip_quantiles returns the engine's bits."""
    analyzer = VariationAnalyzer(
        tech90, width=16, paths_per_lane=10, chain_length=20,
        quantile_cache=QuantileCache(path=str(tmp_path / "q.json"),
                                     enabled=True))
    vdds = np.array([0.5, 0.6, 0.7])
    got = analyzer.chip_quantiles(vdds, 0, 0.99)
    expected = _fresh_engine(tech90).chip_quantile_batch(vdds, 0.99, 0.0)
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("shared", ["memo", "disk"])
def test_answers_independent_of_call_history(tmp_path, shared):
    """Regression: the scalar and batch entry points shared one memo and
    disk key but were filled by different solvers, so at 45 nm the bits
    a point returned depended on which entry point solved it first (all
    12 points differed, by up to 7.6e-13 relative).

    ``memo``: one analyzer per order.  ``disk``: the second entry point
    runs in a fresh analyzer that can only reuse the first one's disk
    entries.
    """
    vdds = np.linspace(0.5, 0.8, 12)

    def analyzer(tag):
        return VariationAnalyzer("45nm", quantile_cache=QuantileCache(
            path=str(tmp_path / shared / tag / "quantiles.json"),
            enabled=True))

    def scalar(a):
        return np.array([a.chip_quantile(v) for v in vdds])

    first = analyzer("scalar-first")
    scalar_first = scalar(first)
    if shared == "disk":
        first = analyzer("scalar-first")
    batch_second = first.chip_quantiles(vdds)
    if shared == "disk":
        assert first.quantile_cache.misses == 0

    first = analyzer("batch-first")
    batch_first = first.chip_quantiles(vdds)
    if shared == "disk":
        first = analyzer("batch-first")
    scalar_second = scalar(first)
    if shared == "disk":
        assert first.quantile_cache.misses == 0

    for got in (batch_second, batch_first, scalar_second):
        assert [v.hex() for v in got] == [v.hex() for v in scalar_first]


@pytest.mark.parametrize("vdd", [0.0, -0.5, float("inf"), float("nan")])
def test_analyzer_rejects_bad_vdd_before_any_cache_probe(vdd, tech90):
    class NoCache:
        def __getattr__(self, name):
            raise AssertionError(f"cache probed: {name}")

    analyzer = VariationAnalyzer(tech90, width=8, paths_per_lane=4,
                                 chain_length=10, quantile_cache=NoCache())
    with pytest.raises(ConfigurationError, match="vdd"):
        analyzer.chip_quantile(vdd)
    with pytest.raises(ConfigurationError, match="vdd"):
        analyzer.chip_quantiles(np.array([0.6, vdd]))
    assert analyzer._signoff_cache == {}


# -- step cards ----------------------------------------------------------------


@pytest.mark.parametrize("zeroed", [
    ("sigma_vth_wid", "sigma_mult_rand"),                   # no gate level
    ("sigma_vth_wid", "sigma_mult_rand", "sigma_vth_lane",
     "sigma_mult_lane"),                                    # die level only
], ids=["gate-level-zeroed", "die-level-only"])
def test_step_cards_take_brent_roots(tech90, zeroed):
    """Without gate-level variation the chip CDF is a step function, and
    the batch evaluator places its jumps ~1e-8 away from `chip_cdf`'s.
    Such cards are solved by Brent over `chip_cdf`, bit for bit."""
    tech = tech90.with_variation(
        replace(tech90.variation, **{f: 0.0 for f in zeroed}))
    engine = ChipDelayEngine(tech)
    assert engine._step_card
    vdds = np.array([0.55, 0.57, 0.6])
    got = engine.chip_quantile_batch(vdds[:, None], 0.99,
                                     np.array([0.0, 32.0]))
    reference = ChipDelayEngine(tech)
    for (i, j), value in np.ndenumerate(got):
        sp = (0.0, 32.0)[j]
        assert value.hex() == reference._brent_quantile(
            vdds[i], 0.99, sp).hex()
    assert not ChipDelayEngine(tech90)._step_card

