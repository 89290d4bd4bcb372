"""Parallel sharded runtime: determinism, persistent cache, span profile."""

import time

import numpy as np
import pytest

from repro.core.analyzer import VariationAnalyzer
from repro.devices.technology import get_technology
from repro.errors import ConfigurationError
from repro.obs.api import activate_obs, build_obs
from repro.obs.trace import SpanStats
from repro.runtime import (
    ParallelSampler,
    QuantileCache,
    ReproRuntime,
    activate_runtime,
    build_runtime,
    current_runtime,
    plan_shards,
    shard_seeds,
    technology_fingerprint,
)

SMALL_ARCH = dict(width=4, paths_per_lane=3, chain_length=5)


# -- shard planning ------------------------------------------------------------


def test_plan_shards_covers_exactly():
    assert plan_shards(2000, 256) == [256] * 7 + [208]
    assert sum(plan_shards(2000, 256)) == 2000
    assert plan_shards(100, 256) == [100]
    assert plan_shards(512, 256) == [256, 256]


def test_plan_shards_validates():
    with pytest.raises(ConfigurationError):
        plan_shards(0, 256)
    with pytest.raises(ConfigurationError):
        plan_shards(100, 0)


def test_shard_seeds_are_independent():
    seeds = shard_seeds(42, 8)
    streams = [np.random.default_rng(s).uniform(size=4) for s in seeds]
    for i, a in enumerate(streams):
        for b in streams[i + 1:]:
            assert not np.array_equal(a, b)


def test_sampler_validates():
    with pytest.raises(ConfigurationError):
        ParallelSampler(0)
    with pytest.raises(ConfigurationError):
        ParallelSampler(2, shard_size=0)


# -- reproducibility contract --------------------------------------------------


def test_system_delays_bit_identical_across_jobs(tech90):
    """Acceptance: n_chips=2000 via jobs=4 matches the jobs=1 result."""
    with ParallelSampler(1) as serial, ParallelSampler(4) as parallel:
        a = serial.system_delays(tech90, 0.6, n_chips=2000, root_seed=42,
                                 **SMALL_ARCH)
        b = parallel.system_delays(tech90, 0.6, n_chips=2000, root_seed=42,
                                   **SMALL_ARCH)
    assert a.shape == (2000,)
    np.testing.assert_array_equal(a, b)
    assert np.all(a > 0)


def test_sample_chips_bit_identical_across_jobs(tech90):
    kwargs = dict(n_samples=1000, width=16, paths_per_lane=10,
                  chain_length=20, root_seed=7)
    with ParallelSampler(1) as serial, ParallelSampler(2) as parallel:
        a = serial.sample_chips(tech90, 0.6, **kwargs)
        b = parallel.sample_chips(tech90, 0.6, **kwargs)
    np.testing.assert_array_equal(a, b)


def test_root_seed_and_shard_size_key_the_stream(tech90):
    with ParallelSampler(1) as s:
        base = s.system_delays(tech90, 0.6, n_chips=300, root_seed=1,
                               **SMALL_ARCH)
        reseed = s.system_delays(tech90, 0.6, n_chips=300, root_seed=2,
                                 **SMALL_ARCH)
    with ParallelSampler(1, shard_size=64) as s:
        resize = s.system_delays(tech90, 0.6, n_chips=300, root_seed=1,
                                 **SMALL_ARCH)
    assert not np.array_equal(base, reseed)
    # shard_size is part of the reproducibility key, by contract.
    assert not np.array_equal(base, resize)


def test_sampler_records_profile_stages(tech90):
    obs = build_obs(metrics=True)
    with activate_obs(obs), ParallelSampler(1) as s:
        s.system_delays(tech90, 0.6, n_chips=100, root_seed=0, **SMALL_ARCH)
    stages = obs.tracer.stats.as_dict()
    assert stages["sampler.system_delays"]["calls"] == 1
    assert stages["sampler.system_delays"]["samples"] == 100
    assert "sampler.system_delays" in obs.tracer.stats.render()


# -- span profile --------------------------------------------------------------


def test_profiler_merge_roundtrip():
    """The span aggregate's worker merge adds calls, times and samples."""
    a = SpanStats()
    a.record("solve", 1.5, 1.5, 10)
    b = SpanStats()
    b.record("solve", 0.5, 0.5, 5)
    b.record("sample", 2.0, 2.0, 100)
    a.merge(b.as_dict())
    stages = a.as_dict()
    assert stages["solve"]["calls"] == 2
    assert stages["solve"]["inclusive_s"] == pytest.approx(2.0)
    assert stages["solve"]["self_s"] == pytest.approx(2.0)
    assert stages["solve"]["samples"] == 15
    # samples/s is samples over inclusive time: 100 / 2.0 s
    row = next(line for line in a.render().splitlines()
               if line.startswith("sample "))
    assert row.split()[-1] == "50"


# -- persistent quantile cache -------------------------------------------------


def test_fingerprint_distinguishes_cards(tech90):
    tech45 = get_technology("45nm")
    assert technology_fingerprint(tech90) != technology_fingerprint(tech45)
    ablated = tech90.with_variation(tech90.variation.scaled(0.5))
    assert technology_fingerprint(tech90) != technology_fingerprint(ablated)
    # Stable across calls for the same card.
    assert technology_fingerprint(tech90) == technology_fingerprint(tech90)


def test_cache_roundtrips_exact_bytes(tmp_path, tech90):
    cache = QuantileCache(path=str(tmp_path / "q.json"), enabled=True)
    key = QuantileCache.make_key(tech90, width=4, paths_per_lane=3,
                                 chain_length=5, quad_within=48,
                                 quad_corr_vth=12, quad_corr_mult=6,
                                 vdd=0.55, q=0.99, spares=0)
    value = 1.234567890123456789e-8 * (1.0 + 2 ** -50)
    cache.put(key, value)
    fresh = QuantileCache(path=str(tmp_path / "q.json"), enabled=True)
    hit = fresh.get(key)
    assert hit.hex() == value.hex()
    assert fresh.hits == 1 and fresh.misses == 0
    assert fresh.get("no-such-key") is None
    assert fresh.misses == 1


def test_cache_tolerates_corrupt_file(tmp_path):
    path = tmp_path / "q.json"
    path.write_text("{not json!")
    cache = QuantileCache(path=str(path), enabled=True)
    assert cache.get("anything") is None
    cache.put("k", 2.0)        # must recover by rewriting the file
    assert QuantileCache(path=str(path), enabled=True).get("k") == 2.0
    # A journal whose header parses but whose records are garbage.
    path.write_text('{"version": 3}\n{not json!\n["k", 1, 2, 3]\n')
    cache = QuantileCache(path=str(path), enabled=True)
    assert cache.get("anything") is None
    assert cache.quarantined == 2
    cache.put("k", 2.0)        # damaged: the put rewrites the file whole
    assert path.read_text().splitlines()[0] == '{"version": 3}'
    assert QuantileCache(path=str(path), enabled=True).get("k") == 2.0
    assert len(path.read_text().splitlines()) == 2


def test_cache_disable_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
    cache = QuantileCache(path=str(tmp_path / "q.json"))
    assert not cache.enabled
    cache.put("k", 1.0)
    assert cache.get("k") is None
    assert not (tmp_path / "q.json").exists()


def test_analyzer_hits_persistent_cache_without_solving(tmp_path):
    path = str(tmp_path / "q.json")
    first = VariationAnalyzer("90nm", width=4, paths_per_lane=2,
                              chain_length=5,
                              quantile_cache=QuantileCache(path=path,
                                                           enabled=True))
    value = first.chip_quantile(0.55)

    second = VariationAnalyzer("90nm", width=4, paths_per_lane=2,
                               chain_length=5,
                               quantile_cache=QuantileCache(path=path,
                                                            enabled=True))

    def boom(*args, **kwargs):   # a hit must not re-enter the solver
        raise AssertionError("cache miss: solver was invoked")

    second.engine.chip_quantile = boom
    hit = second.chip_quantile(0.55)
    assert hit.hex() == value.hex()
    assert second.quantile_cache.hits == 1


def test_analyzer_cache_key_separates_architectures(tmp_path):
    path = str(tmp_path / "q.json")
    narrow = VariationAnalyzer("90nm", width=4, paths_per_lane=2,
                               chain_length=5,
                               quantile_cache=QuantileCache(path=path,
                                                            enabled=True))
    wide = VariationAnalyzer("90nm", width=8, paths_per_lane=2,
                             chain_length=5,
                             quantile_cache=QuantileCache(path=path,
                                                          enabled=True))
    assert narrow.chip_quantile(0.6) != wide.chip_quantile(0.6)
    assert wide.quantile_cache.misses == 1   # no false sharing


def test_chip_quantile_q_normalisation(small_analyzer):
    """q=None and an explicit equal q must share one cache entry."""
    small_analyzer._signoff_cache.clear()
    a = small_analyzer.chip_quantile(0.62)
    b = small_analyzer.chip_quantile(0.62, q=small_analyzer.signoff_quantile)
    assert a == b
    keys = [k for k in small_analyzer._signoff_cache
            if k[0] == pytest.approx(0.62)]
    assert len(keys) == 1


# -- runtime context -----------------------------------------------------------


def test_runtime_activation_scoped():
    runtime = ReproRuntime(jobs=1)
    assert current_runtime() is None
    with activate_runtime(runtime):
        assert current_runtime() is runtime
    assert current_runtime() is None


def test_chip_distribution_shards_through_active_runtime():
    analyzer = VariationAnalyzer("90nm", width=16, paths_per_lane=10,
                                 chain_length=20)
    runtime = build_runtime(jobs=2, metrics=True)
    try:
        with activate_runtime(runtime):
            dist = analyzer.chip_distribution(0.6, n_samples=600, seed=9)
    finally:
        runtime.close()
    # Same sharded stream as a serial ParallelSampler with the same seed.
    with ParallelSampler(1) as serial:
        expected = serial.sample_chips(analyzer.tech, 0.6, n_samples=600,
                                       width=16, paths_per_lane=10,
                                       chain_length=20, root_seed=9)
    np.testing.assert_array_equal(dist.samples, expected)
    stages = runtime.obs.tracer.stats.as_dict()
    assert "sampler.sample_chips" in stages


# -- end-to-end cache speedup (acceptance criterion) ---------------------------


def test_second_fig4_run_faster_via_cache(monkeypatch, tmp_path):
    from repro.experiments.registry import get_analyzer, run_experiment

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    get_analyzer.cache_clear()           # cold: no in-memory analyzers
    try:
        start = time.perf_counter()
        cold = run_experiment("fig4")
        cold_s = time.perf_counter() - start

        get_analyzer.cache_clear()       # drop in-memory caches again
        start = time.perf_counter()
        warm = run_experiment("fig4")
        warm_s = time.perf_counter() - start
    finally:
        get_analyzer.cache_clear()       # don't leak tmp-dir analyzers

    assert warm.data == cold.data        # cache hits reproduce exactly
    assert warm_s < cold_s
    assert warm_s < 0.5 * cold_s, (
        f"persistent cache gave no speedup: cold={cold_s:.3f}s "
        f"warm={warm_s:.3f}s")


# -- cache merge precedence under concurrency ----------------------------------


def test_put_many_fresh_disk_wins_over_stale_memory(tmp_path):
    """A concurrent writer's newer entry must survive another's put_many.

    Instance ``a`` loads the file, instance ``b`` overwrites a key on
    disk; when ``a`` later writes an unrelated key, its stale in-memory
    copy of the first key must not shadow ``b``'s fresh on-disk value.
    """
    path = str(tmp_path / "q.json")
    a = QuantileCache(path=path, enabled=True)
    b = QuantileCache(path=path, enabled=True)
    a.put("k1", 1.0)                   # a now holds k1=1.0 in memory
    b.put("k1", 2.0)                   # b supersedes it on disk
    a.put_many([("k2", 3.0)])          # must not resurrect k1=1.0
    fresh = QuantileCache(path=path, enabled=True)
    assert fresh.get("k1") == 2.0
    assert fresh.get("k2") == 3.0
    # a's own view converged to the merged state as well
    assert a.get("k1") == 2.0


def test_put_many_own_items_win_over_disk(tmp_path):
    """Keys the caller is writing take precedence over both sources."""
    path = str(tmp_path / "q.json")
    a = QuantileCache(path=path, enabled=True)
    b = QuantileCache(path=path, enabled=True)
    a.put("k", 1.0)
    b.put("k", 2.0)
    a.put_many([("k", 9.0)])
    assert QuantileCache(path=path, enabled=True).get("k") == 9.0


def test_build_runtime_validates_jobs():
    with pytest.raises(ConfigurationError):
        build_runtime(jobs=0)
    with pytest.raises(ConfigurationError):
        build_runtime(jobs=-3)
    runtime = build_runtime(jobs=1)
    try:
        assert runtime.jobs == 1
    finally:
        runtime.close()
