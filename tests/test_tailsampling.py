"""Importance-sampling tail estimation: weights, invariance, recovery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.montecarlo import MonteCarloEngine
from repro.core.stats import weighted_quantile
from repro.core.tailsampling import (
    MAX_SHIFT,
    SampleSetStore,
    ShiftProposal,
    TailSampler,
    WeightedSampleSet,
    effective_sample_size,
    normalized_weights,
    weight_max_ratio,
)
from repro.devices.technology import get_technology
from repro.errors import ConfigurationError
from repro.resilience import (
    FaultLedger,
    activate_ledger,
    install_faults,
    parse_faults,
)
from repro.runtime.parallel import ParallelSampler

SMALL_ARCH = dict(width=4, paths_per_lane=3, chain_length=5)
VDD = 0.55


# -- weight helpers -----------------------------------------------------------


def test_normalized_weights_uniform_and_offset_invariant():
    w = normalized_weights([0.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(w, 0.25)
    a = normalized_weights([1.0, 2.0, 3.0])
    b = normalized_weights([-699.0, -698.0, -697.0])
    np.testing.assert_allclose(a, b, rtol=1e-12)


def test_normalized_weights_validation():
    with pytest.raises(ConfigurationError):
        normalized_weights([])
    with pytest.raises(ConfigurationError):
        normalized_weights([0.0, np.nan])


def test_ess_and_max_ratio_limits():
    n = 64
    assert effective_sample_size(np.zeros(n)) == pytest.approx(n)
    assert weight_max_ratio(np.zeros(n)) == pytest.approx(1.0 / n)
    # One dominant sample: ESS -> 1, max ratio -> 1.
    lw = np.full(n, -100.0)
    lw[5] = 0.0
    assert effective_sample_size(lw) == pytest.approx(1.0, rel=1e-10)
    assert weight_max_ratio(lw) == pytest.approx(1.0, rel=1e-10)


# -- ShiftProposal ------------------------------------------------------------


def test_proposal_validation():
    with pytest.raises(ConfigurationError):
        ShiftProposal(d2d_shifts=())
    with pytest.raises(ConfigurationError):
        ShiftProposal(d2d_shifts=(MAX_SHIFT + 1.0,))
    with pytest.raises(ConfigurationError):
        ShiftProposal(d2d_shifts=(float("nan"),))
    with pytest.raises(ConfigurationError):
        ShiftProposal(d2d_shifts=(1.0, 2.0), mix_weights=(1.0,))
    with pytest.raises(ConfigurationError):
        ShiftProposal(d2d_shifts=(1.0, 2.0), mix_weights=(1.0, -1.0))
    with pytest.raises(ConfigurationError):
        ShiftProposal(lane_shift=float("inf"))
    with pytest.raises(ConfigurationError):
        ShiftProposal.defensive(2.0, defensive_weight=1.0)


def test_proposal_defensive_degrades_to_mean_shift():
    assert ShiftProposal.defensive(2.0, 0.0) == ShiftProposal.mean_shift(2.0)
    assert ShiftProposal.defensive(0.0, 0.3) == ShiftProposal.mean_shift(0.0)
    mix = ShiftProposal.defensive(2.0, 0.25)
    assert mix.is_mixture
    assert mix.d2d_shifts == (2.0, 0.0)
    assert mix.mix_weights == (0.75, 0.25)


def test_proposal_roundtrip_and_fingerprint():
    p = ShiftProposal(d2d_shifts=(1.5, 0.0), mix_weights=(0.8, 0.2),
                      lane_shift=0.5)
    assert ShiftProposal.from_dict(p.as_dict()) == p
    assert p.fingerprint() == ShiftProposal.from_dict(
        p.as_dict()).fingerprint()
    assert p.fingerprint() != ShiftProposal.mean_shift(1.5).fingerprint()


def test_proposal_stream_consumption():
    """Only a genuine mixture consumes a uniform for component choice."""
    single = ShiftProposal.mean_shift(3.0)
    mix = ShiftProposal.defensive(3.0, 0.2)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state["state"]["state"]
    assert single.pick_component(rng) == 0
    assert rng.bit_generator.state["state"]["state"] == before
    mix.pick_component(rng)
    assert rng.bit_generator.state["state"]["state"] != before


def test_proposal_rejects_zero_sigma_component():
    class _Var:
        sigma_vth_d2d = 0.0
        sigma_vth_lane = 0.0

    with pytest.raises(ConfigurationError):
        ShiftProposal.mean_shift(2.0).validate_for(_Var())
    with pytest.raises(ConfigurationError):
        ShiftProposal.mean_shift(0.0, lane_shift=1.0).validate_for(_Var())
    ShiftProposal.mean_shift(0.0).validate_for(_Var())  # nominal is fine


# -- weighted sampling parity and invariance ----------------------------------


def test_zero_shift_reproduces_plain_sampling(tech22):
    """A nominal proposal must be bit-identical to plain MC, logw == 0."""
    kw = dict(n_chips=48, batch_size=16, **SMALL_ARCH)
    plain = MonteCarloEngine(tech22, seed=3).system_delays(VDD, **kw)
    weighted, logw = MonteCarloEngine(tech22, seed=3).weighted_system_delays(
        VDD, proposal=ShiftProposal.mean_shift(0.0), **kw)
    np.testing.assert_array_equal(weighted, plain)
    assert np.all(logw == 0.0)


def test_weighted_sampling_batch_size_invariant(tech22):
    proposal = ShiftProposal.defensive(2.0, 0.2, lane_shift=0.5)
    d1, w1 = MonteCarloEngine(tech22, seed=9).weighted_system_delays(
        VDD, n_chips=48, batch_size=7, proposal=proposal, **SMALL_ARCH)
    d2, w2 = MonteCarloEngine(tech22, seed=9).weighted_system_delays(
        VDD, n_chips=48, batch_size=48, proposal=proposal, **SMALL_ARCH)
    np.testing.assert_array_equal(d1, d2)
    np.testing.assert_array_equal(w1, w2)


def test_weighted_shift_slows_chips_and_weights_compensate(tech22):
    """A positive d2d shift must push delays up, with sub-unity weights."""
    kw = dict(n_chips=64, batch_size=32, **SMALL_ARCH)
    plain = MonteCarloEngine(tech22, seed=1).system_delays(VDD, **kw)
    shifted, logw = MonteCarloEngine(tech22, seed=1).weighted_system_delays(
        VDD, proposal=ShiftProposal.mean_shift(3.0), **kw)
    assert np.median(shifted) > np.median(plain)
    # Deep-shifted samples carry small likelihood ratios on average.
    assert np.median(logw) < 0.0


def test_weighted_sampling_jobs_invariant(tech22):
    proposal = ShiftProposal.defensive(2.0, 0.1)
    kw = dict(width=4, paths_per_lane=3, chain_length=5, n_chips=64,
              proposal=proposal, batch_size=16, root_seed=11)
    with ParallelSampler(1, shard_size=16) as serial:
        d1, w1 = serial.weighted_system_delays(tech22, VDD, **kw)
    with ParallelSampler(2, shard_size=16, shm_min_bytes=0) as pooled:
        d2, w2 = pooled.weighted_system_delays(tech22, VDD, **kw)
    np.testing.assert_array_equal(d1, d2)
    np.testing.assert_array_equal(w1, w2)


def test_weighted_sampling_survives_worker_crash(tech22):
    """A crashed worker mid-run must recover bit-identically (chaos)."""
    proposal = ShiftProposal.defensive(2.5, 0.1)
    kw = dict(width=4, paths_per_lane=3, chain_length=5, n_chips=64,
              proposal=proposal, batch_size=16, root_seed=5)
    with ParallelSampler(1, shard_size=16) as serial:
        d_ref, w_ref = serial.weighted_system_delays(tech22, VDD, **kw)
    ledger = FaultLedger()
    with activate_ledger(ledger), \
            install_faults(parse_faults("worker_crash:1")):
        with ParallelSampler(2, shard_size=16, shm_min_bytes=0) as pooled:
            d, w = pooled.weighted_system_delays(tech22, VDD, **kw)
    assert ledger.counts()["pool_respawn"] == 1
    np.testing.assert_array_equal(d, d_ref)
    np.testing.assert_array_equal(w, w_ref)


# -- TailSampler --------------------------------------------------------------


@pytest.fixture(scope="module")
def tail_sampler():
    return TailSampler("22nm", batch_size=64, **SMALL_ARCH)


def test_tail_quantile_matches_brute_force(tail_sampler, tech22):
    """IS estimate at 512 weighted samples vs 20k plain-MC reference."""
    q = 0.99
    est = tail_sampler.tail_quantile(VDD, q, n_samples=512, root_seed=0,
                                     n_pilot=128, max_rounds=3)
    ref = MonteCarloEngine(tech22, seed=0).system_delays(
        VDD, n_chips=20_000, batch_size=2048, **SMALL_ARCH)
    assert est.value == pytest.approx(float(np.quantile(ref, q)), rel=0.05)
    assert est.kind == "quantile" and est.q == q
    assert 2.0 < est.ess <= 512.0
    assert 0.0 < est.weight_max_ratio < 0.5
    assert est.shift_search_rounds >= 1
    assert est.proposal.has_d2d_shift


def test_tail_quantile_deterministic_and_explicit_proposal(tail_sampler):
    a = tail_sampler.tail_quantile(VDD, 0.999, n_samples=256, root_seed=7,
                                   n_pilot=64, max_rounds=2)
    b = tail_sampler.tail_quantile(VDD, 0.999, n_samples=256, root_seed=7,
                                   n_pilot=64, max_rounds=2)
    assert a.value.hex() == b.value.hex()
    assert a.proposal == b.proposal
    # An explicit proposal skips the search entirely.
    c = tail_sampler.tail_quantile(VDD, 0.999, n_samples=256, root_seed=7,
                                   proposal=a.proposal)
    assert c.shift_search_rounds == 0
    assert c.value.hex() == a.value.hex()


def test_failure_probability_t_limit_and_f_clk_agree(tail_sampler):
    t_limit = 2e-9
    a = tail_sampler.failure_probability(VDD, t_limit, n_samples=256,
                                         root_seed=3, n_pilot=64,
                                         max_rounds=2)
    b = tail_sampler.failure_probability(VDD, f_clk=1.0 / t_limit,
                                         n_samples=256, root_seed=3,
                                         n_pilot=64, max_rounds=2)
    assert a.value == b.value
    assert a.kind == "probability"
    assert a.threshold == t_limit
    assert 0.0 <= a.value <= 1.0


def test_failure_probability_consistent_with_quantile(tail_sampler, tech22):
    """P(delay > t_q) must land near 1 - q (independent threshold)."""
    q = 0.99
    ref = MonteCarloEngine(tech22, seed=0).system_delays(
        VDD, n_chips=20_000, batch_size=2048, **SMALL_ARCH)
    t_q = float(np.quantile(ref, q))
    est = tail_sampler.failure_probability(VDD, t_q, n_samples=1024,
                                           root_seed=1, n_pilot=128,
                                           max_rounds=3)
    assert est.value == pytest.approx(1.0 - q, rel=0.5)


def test_tail_sampler_validation(tail_sampler):
    with pytest.raises(ConfigurationError):
        tail_sampler.tail_quantile(VDD, 1.5)
    with pytest.raises(ConfigurationError):
        tail_sampler.tail_quantile(VDD, 0.99, n_samples=1)
    with pytest.raises(ConfigurationError):
        tail_sampler.failure_probability(VDD)                 # neither
    with pytest.raises(ConfigurationError):
        tail_sampler.failure_probability(VDD, 1e-9, f_clk=1e9)  # both
    with pytest.raises(ConfigurationError):
        tail_sampler.failure_probability(VDD, f_clk=-1.0)
    with pytest.raises(ConfigurationError):
        tail_sampler.find_shift(VDD)                          # neither
    with pytest.raises(ConfigurationError):
        tail_sampler.find_shift(VDD, 0.99, t_limit=1e-9)      # both
    with pytest.raises(ConfigurationError):
        tail_sampler.find_shift(VDD, 0.99, n_pilot=4)
    with pytest.raises(ConfigurationError):
        tail_sampler.find_shift(VDD, 0.99, elite_fraction=0.7)
    with pytest.raises(ConfigurationError):
        TailSampler("22nm", width=0)


def test_tail_estimate_as_dict_roundtrips_json(tail_sampler):
    import json
    est = tail_sampler.tail_quantile(VDD, 0.99, n_samples=64, root_seed=0,
                                     proposal=ShiftProposal.mean_shift(2.0))
    payload = json.loads(json.dumps(est.as_dict()))
    assert payload["kind"] == "quantile"
    assert payload["value"] == est.value
    assert ShiftProposal.from_dict(payload["proposal"]) == est.proposal


# -- analyzer integration (validation + tail API + caching) -------------------


def test_analyzer_point_validation_before_caches(analyzer90):
    for bad_q in (0.0, 1.0, -2.0, 1.5, float("nan")):
        with pytest.raises(ConfigurationError):
            analyzer90.chip_quantile(0.6, q=bad_q)
    with pytest.raises(ConfigurationError):
        analyzer90.chip_quantile(0.6, spares=-1.0)
    with pytest.raises(ConfigurationError):
        analyzer90.chip_quantiles([0.5, 0.6], q=[0.9, 1.5])
    with pytest.raises(ConfigurationError):
        analyzer90.chip_quantiles([0.5, 0.6], spares=[0.0, -3.0])
    with pytest.raises(ConfigurationError):
        analyzer90.chip_quantiles([0.5, 0.6], q=[0.9, float("inf")])


@pytest.fixture(scope="module")
def tail_analyzer():
    from repro.core.analyzer import VariationAnalyzer
    return VariationAnalyzer("22nm", **SMALL_ARCH)


def test_analyzer_tail_quantile_memoised(tail_analyzer):
    kw = dict(n_samples=256, root_seed=2, n_pilot=64, max_rounds=2)
    first = tail_analyzer.chip_tail_quantile(VDD, 0.999, **kw)
    again = tail_analyzer.chip_tail_quantile(VDD, 0.999, **kw)
    assert again.value.hex() == first.value.hex()
    assert again.ess == first.ess
    # A fresh analyzer must hit the on-disk cache and agree bit-for-bit.
    from repro.core.analyzer import VariationAnalyzer
    fresh = VariationAnalyzer("22nm", **SMALL_ARCH)
    cached = fresh.chip_tail_quantile(VDD, 0.999, **kw)
    assert cached.value.hex() == first.value.hex()
    assert cached.proposal == first.proposal


def test_analyzer_tail_distinct_points_not_conflated(tail_analyzer):
    kw = dict(n_samples=256, root_seed=2, n_pilot=64, max_rounds=2)
    a = tail_analyzer.chip_tail_quantile(VDD, 0.999, **kw)
    b = tail_analyzer.chip_tail_quantile(VDD, 0.9995, **kw)
    assert a.value != b.value


def test_analyzer_failure_probability_f_clk(tail_analyzer):
    est = tail_analyzer.chip_failure_probability(
        VDD, f_clk=5e8, n_samples=256, root_seed=0, n_pilot=64,
        max_rounds=2)
    assert est.kind == "probability"
    assert est.threshold == pytest.approx(2e-9)
    assert 0.0 <= est.value <= 1.0
    with pytest.raises(ConfigurationError):
        tail_analyzer.chip_failure_probability(VDD)
    with pytest.raises(ConfigurationError):
        tail_analyzer.chip_failure_probability(VDD, 1e-9, f_clk=1e9)


# -- weighted sample sets (draw once, answer every tail question) -------------


def test_weighted_sample_set_matches_direct_arithmetic():
    rng = np.random.default_rng(5)
    delays = rng.lognormal(0.0, 0.2, 257) * 1e-9
    logw = rng.normal(0.0, 1.5, 257)
    s = WeightedSampleSet(delays, logw)
    t = float(np.quantile(delays, 0.9))
    w = normalized_weights(logw)
    assert s.quantile(0.999).hex() == weighted_quantile(
        delays, 0.999, np.exp(logw - logw.max())).hex()
    assert s.failure_probability(t).hex() == float(w[delays > t].sum()).hex()
    assert s.ess.hex() == effective_sample_size(logw).hex()
    assert s.weight_max_ratio.hex() == weight_max_ratio(logw).hex()


def test_weighted_sample_set_is_read_only_and_validated():
    delays = np.linspace(1e-9, 2e-9, 8)
    s = WeightedSampleSet(delays, np.zeros(8))
    delays[0] = 5e-9                   # the set holds its own copy
    assert s.delays[0] == 1e-9
    for arr in (s.delays, s.logw):
        assert arr.dtype == np.float64
        with pytest.raises(ValueError):
            arr[0] = 0.0
    with pytest.raises(ConfigurationError):
        WeightedSampleSet(np.ones(4), np.zeros(3))
    with pytest.raises(ConfigurationError):
        WeightedSampleSet(np.ones(2), np.array([0.0, np.inf]))


@pytest.fixture()
def sample_spy(monkeypatch):
    """Counts real draws: every call of :meth:`TailSampler.sample`."""
    calls = []
    original = TailSampler.sample

    def spy(self, vdd, n_samples, proposal, root_seed=0):
        calls.append((vdd, n_samples, proposal, root_seed))
        return original(self, vdd, n_samples, proposal, root_seed)

    monkeypatch.setattr(TailSampler, "sample", spy)
    return calls


def _cold_analyzer():
    from repro.core.analyzer import VariationAnalyzer
    from repro.runtime.cache import QuantileCache
    return VariationAnalyzer("22nm", quantile_cache=QuantileCache(
        enabled=False), **SMALL_ARCH)


def _same_estimate(a, b) -> bool:
    return (a.value.hex() == b.value.hex() and a.ess.hex() == b.ess.hex()
            and a.weight_max_ratio.hex() == b.weight_max_ratio.hex())


TAIL_KW = dict(n_samples=256, root_seed=4, n_pilot=64, max_rounds=2)


def test_failure_probability_reuses_quantile_draw(sample_spy):
    analyzer = _cold_analyzer()
    est = analyzer.chip_tail_quantile(VDD, 0.999, **TAIL_KW)
    assert len(sample_spy) == 1
    pfail = analyzer.chip_failure_probability(
        VDD, t_limit=est.value, n_samples=256, root_seed=4,
        proposal=est.proposal)
    assert len(sample_spy) == 1        # answered from the quantile's set
    cold = _cold_analyzer().chip_failure_probability(
        VDD, t_limit=est.value, n_samples=256, root_seed=4,
        proposal=est.proposal)
    assert len(sample_spy) == 2
    assert _same_estimate(pfail, cold)
    # The reused set gives the quantile's own diagnostics.
    assert pfail.ess == est.ess
    assert pfail.weight_max_ratio == est.weight_max_ratio


def test_sample_set_store_keyed_by_full_draw_identity(sample_spy):
    store = SampleSetStore()
    proposal = ShiftProposal.defensive(1.5)
    base = dict(n_samples=128, root_seed=1, proposal=proposal)

    def sampler(**kw):
        kw = dict(SMALL_ARCH, **kw)
        return TailSampler("22nm", store=store, **kw)

    t = 1.5e-9
    sampler().failure_probability(VDD, t, **base)
    sampler().failure_probability(VDD, t * 1.1, **base)
    sampler(batch_size=16).tail_quantile(VDD, 0.99, **base)
    assert len(sample_spy) == 1        # same draw, three answers
    changed = [
        (dict(), dict(base, n_samples=130)),
        (dict(), dict(base, root_seed=2)),
        (dict(), dict(base, proposal=ShiftProposal.defensive(1.6))),
        (dict(spares=1), base),
        (dict(precision="float32"), base),
        (dict(sampler=ParallelSampler(jobs=1, shard_size=64)), base),
    ]
    for ctor, kw in changed:
        sampler().failure_probability(VDD, t, **base)   # store holds base
        before = len(sample_spy)
        sampler(**ctor).failure_probability(VDD, t, **kw)
        assert len(sample_spy) == before + 1, (ctor, kw)
    sampler().failure_probability(VDD, t, **base)
    before = len(sample_spy)
    sampler().failure_probability(VDD * 1.01, t, **base)
    assert len(sample_spy) == before + 1
    assert len(store) == 1             # only the most recent set is kept


def test_analyzer_draw_once_under_jobs2_runtime(sample_spy):
    from repro.runtime import build_runtime
    from repro.runtime.context import activate_runtime
    ref_q = _cold_analyzer().chip_tail_quantile(VDD, 0.999, **TAIL_KW)
    ref_p = _cold_analyzer().chip_failure_probability(
        VDD, ref_q.value, n_samples=256, root_seed=4,
        proposal=ref_q.proposal)
    draws = len(sample_spy)
    analyzer = _cold_analyzer()
    runtime = build_runtime(jobs=2)
    try:
        with activate_runtime(runtime):
            est = analyzer.chip_tail_quantile(VDD, 0.999, **TAIL_KW)
            pfail = analyzer.chip_failure_probability(
                VDD, est.value, n_samples=256, root_seed=4,
                proposal=est.proposal)
    finally:
        runtime.close()
    assert len(sample_spy) == draws + 1
    assert _same_estimate(est, ref_q) and _same_estimate(pfail, ref_p)


@pytest.mark.parametrize("point", [
    dict(vdd=0.0), dict(vdd=-0.5), dict(vdd=float("nan")),
    dict(vdd=float("inf")), dict(spares=1.5), dict(spares=float("nan")),
    dict(spares=-1),
])
def test_analyzer_tail_rejects_bad_points_before_sampling(point,
                                                          sample_spy):
    analyzer = _cold_analyzer()
    kw = dict(vdd=VDD, spares=0, **TAIL_KW)
    kw.update(point)
    vdd = kw.pop("vdd")
    with pytest.raises(ConfigurationError):
        analyzer.chip_tail_quantile(vdd, 0.999, **kw)
    with pytest.raises(ConfigurationError):
        analyzer.chip_failure_probability(vdd, 1e-9, **kw)
    assert sample_spy == [] and analyzer._tail_cache == {}
