"""Batched quantile solver: parity with the scalar path, kernel caching,
and the analyzer/disk-cache threading."""

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


# -- batch vs scalar parity ----------------------------------------------------


@pytest.mark.parametrize("node", available_technologies())
def test_batch_matches_scalar_across_nodes(node):
    engine = ChipDelayEngine(get_technology(node), width=16,
                             paths_per_lane=10, chain_length=20)
    tech = engine.tech
    vdds = np.linspace(tech.min_vdd, tech.nominal_vdd, 12)
    batch = engine.chip_quantile_batch(vdds, 0.99, 0.0)
    scalar = np.array([engine.chip_quantile(v, 0.99) for v in vdds])
    np.testing.assert_allclose(batch, scalar, rtol=1e-10)


@pytest.mark.parametrize("q", [0.5, 0.99, 0.999])
@pytest.mark.parametrize("spares", [0.0, 1.5, 4.0])
def test_batch_matches_scalar_quantiles_and_fractional_spares(engine, q,
                                                              spares):
    vdds = np.linspace(0.5, 0.8, 9)
    batch = engine.chip_quantile_batch(vdds, q, spares)
    scalar = np.array([engine.chip_quantile(v, q, spares=spares)
                       for v in vdds])
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
    assert scalar == pytest.approx(engine.chip_quantile(0.6), rel=1e-10)


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


# -- batch-composition invariance (cluster=False) ------------------------------


def _fresh_engine(tech90):
    return ChipDelayEngine(tech90, width=16, paths_per_lane=10,
                           chain_length=20)


def test_invariant_mode_bit_identical_across_groupings(tech90):
    """cluster=False roots depend only on their own point, never the batch.

    This is the serving dispatcher's contract: coalescing queries from
    unrelated clients must return exactly the bits a direct per-point
    call produces, so any grouping, permutation or chunking of the same
    points is bit-identical.
    """
    vdds = np.array([0.5, 0.55, 0.6, 0.7, 0.45])
    batch = _fresh_engine(tech90).chip_quantile_batch(vdds, 0.99, 0.0,
                                                      cluster=False)
    singles = np.array([
        _fresh_engine(tech90).chip_quantile_batch(v, 0.99, 0.0,
                                                  cluster=False)
        for v in vdds])
    np.testing.assert_array_equal(singles, batch)
    permuted = _fresh_engine(tech90).chip_quantile_batch(
        vdds[::-1], 0.99, 0.0, cluster=False)[::-1]
    np.testing.assert_array_equal(permuted, batch)
    chunked = _fresh_engine(tech90).chip_quantile_batch(
        vdds, 0.99, 0.0, cluster=False, chunk_size=2)
    np.testing.assert_array_equal(chunked, batch)


def test_invariant_mode_close_to_clustered(tech90):
    """Both modes solve the same equation to ~1e-12 relative."""
    vdds = np.linspace(0.5, 0.8, 10)
    a = _fresh_engine(tech90).chip_quantile_batch(vdds, 0.99, 0.0)
    b = _fresh_engine(tech90).chip_quantile_batch(vdds, 0.99, 0.0,
                                                  cluster=False)
    np.testing.assert_allclose(a, b, rtol=1e-11)


def test_analyzer_invariant_solves_match_engine(tmp_path, tech90):
    """analyzer.chip_quantiles(invariant=True) returns the engine's bits."""
    analyzer = VariationAnalyzer(
        tech90, width=16, paths_per_lane=10, chain_length=20,
        quantile_cache=QuantileCache(path=str(tmp_path / "q.json"),
                                     enabled=True))
    vdds = np.array([0.5, 0.6, 0.7])
    got = analyzer.chip_quantiles(vdds, 0, 0.99, invariant=True)
    expected = _fresh_engine(tech90).chip_quantile_batch(
        vdds, 0.99, 0.0, cluster=False)
    np.testing.assert_array_equal(got, expected)


def test_invariant_answers_never_served_from_scalar_warmed_cache(tmp_path):
    """Regression: a shared cache dir served /v1 whatever solved it first.

    The memo and disk keys did not name the solver, so an invariant query
    after a scalar solve at the same point returned the scalar bits
    (0x1.2d92ee8ae9676p-27 instead of 0x1.2d92ee8ae9508p-27 at 90 nm,
    0.61 V).
    """
    def analyzer(directory):
        return VariationAnalyzer("90nm", quantile_cache=QuantileCache(
            path=str(tmp_path / directory / "quantiles.json"),
            enabled=True))

    analyzer("shared").chip_quantile(0.61)
    served = analyzer("shared").chip_quantiles([0.61], invariant=True)[0]
    cold = analyzer("cold").chip_quantiles([0.61], invariant=True)[0]
    assert served.hex() == cold.hex()
    # And the scalar entry is still a hit for the scalar path.
    warm = analyzer("shared")
    warm.chip_quantile(0.61)
    assert warm.quantile_cache.hits == 1


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
    with pytest.raises(ConfigurationError, match="vdd"):
        analyzer.chip_quantiles(vdd, invariant=True)
    assert analyzer._signoff_cache == {}
