"""Fault-tolerant runtime: chaos recovery, crash-safe cache, fault lab."""

import json
import os

import numpy as np
import pytest

from repro.core.chip_delay import ChipDelayEngine
from repro.devices.technology import get_technology
from repro.errors import (
    ConfigurationError,
    ConvergenceError,
    FaultSpecError,
    InjectedFaultError,
    ShardExecutionError,
    SolverNumericalError,
)
from repro.obs.api import activate_obs, build_obs
from repro.obs.manifest import MANIFEST_SCHEMA, build_manifest, validate_schema
from repro.resilience import (
    FaultLedger,
    FaultPlan,
    RetryPolicy,
    activate_ledger,
    install_faults,
    parse_faults,
)
from repro.core.montecarlo import MonteCarloEngine
from repro.runtime import ParallelSampler, QuantileCache, build_runtime, \
    release_worker_workspaces

SMALL_ARCH = dict(width=4, paths_per_lane=3, chain_length=5)


# -- fault spec grammar --------------------------------------------------------


def test_parse_faults_grammar():
    plan = parse_faults("worker_crash:1,shard_error:0:3,solver_nan:2:inf")
    assert isinstance(plan, FaultPlan)
    assert plan.spec == "worker_crash:1,shard_error:0:3,solver_nan:2:inf"
    assert plan.pending("worker_crash") == [1]
    assert plan.pending("shard_error") == [0]
    assert plan.pending("solver_nan") == [2]
    assert parse_faults(None) is None
    assert parse_faults("   ") is None


def test_parse_faults_rejects_malformed():
    for bad in ("worker_crash", "bogus:1", "worker_crash:x",
                "worker_crash:-1", "worker_crash:1:0",
                "worker_crash:1:nope", "worker_crash:1:2:3"):
        with pytest.raises(FaultSpecError):
            parse_faults(bad)
    # FaultSpecError is a ConfigurationError: the CLI maps it to exit 2.
    assert issubclass(FaultSpecError, ConfigurationError)


def test_fault_plan_consumption_is_one_shot():
    plan = parse_faults("shard_error:3:2")
    assert plan.consume("shard_error", 3)
    assert plan.consume("shard_error", 3)
    assert not plan.consume("shard_error", 3)     # budget exhausted
    assert not plan.consume("shard_error", 4)     # never configured
    assert parse_faults("worker_hang:0").shard_faults(0) == ["worker_hang"]
    assert parse_faults("worker_hang:0").shard_faults(1) is None


def test_fault_plan_never_fires_from_other_processes():
    plan = parse_faults("solver_nan:0")
    plan._pid = os.getpid() + 1           # simulate a forked pool child
    assert not plan.is_local()
    assert plan.pending("solver_nan") == []
    assert not plan.consume("solver_nan", 0)


def test_cli_rejects_unknown_fault_spec(capsys):
    from repro.experiments.__main__ import main
    assert main(["fig4", "--fast", "--inject-faults", "bogus:1"]) == 2
    assert "unknown fault kind" in capsys.readouterr().err


# -- retry policy --------------------------------------------------------------


def test_retry_policy_validates():
    for bad in (dict(max_retries=-1), dict(shard_timeout_s=0.0),
                dict(backoff_base_s=-1.0), dict(max_pool_respawns=-1)):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**bad)


def test_backoff_is_deterministic_bounded_and_growing():
    policy = RetryPolicy(backoff_base_s=0.05, backoff_cap_s=2.0)
    assert policy.backoff_s(3, 1) == policy.backoff_s(3, 1)
    assert policy.backoff_s(3, 1) != policy.backoff_s(4, 1)   # jittered
    for attempt in range(1, 12):
        delay = policy.backoff_s(0, attempt)
        assert 0.0 < delay <= policy.backoff_cap_s
    # Exponential envelope before the cap bites.
    assert policy.backoff_s(0, 3) > policy.backoff_s(0, 1)


# -- chaos recovery: bit-identical results -------------------------------------


def _chaos_sample(tech, spec, retry=None, jobs=2):
    """Sampled chip delays under an injected fault plan + metrics + ledger."""
    ledger = FaultLedger()
    obs = build_obs(metrics=True)
    with activate_obs(obs), activate_ledger(ledger), \
            install_faults(parse_faults(spec)):
        sampler = ParallelSampler(jobs, shard_size=16, retry=retry)
        try:
            out = sampler.sample_chips(tech, 0.5, n_samples=64,
                                       spares=0, root_seed=11, **SMALL_ARCH)
        finally:
            sampler.close()
    return out, ledger, obs.metrics


@pytest.fixture(scope="module")
def serial_baseline():
    tech = get_technology("90nm")
    with ParallelSampler(1, shard_size=16) as sampler:
        return sampler.sample_chips(tech, 0.5, n_samples=64, spares=0,
                                    root_seed=11, **SMALL_ARCH)


def test_worker_crash_recovers_bit_identical(tech90, serial_baseline):
    out, ledger, metrics = _chaos_sample(tech90, "worker_crash:1")
    np.testing.assert_array_equal(out, serial_baseline)
    counts = ledger.counts()
    assert counts["worker_crash_detected"] == 1
    assert counts["pool_respawn"] == 1
    assert metrics.counter("resilience.pool_respawns").value == 1
    assert metrics.counter("resilience.reassignments").value >= 1


def test_hung_worker_recovers_bit_identical(tech90, serial_baseline,
                                            monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_HANG_S", "60")
    out, ledger, metrics = _chaos_sample(
        tech90, "worker_hang:0", retry=RetryPolicy(shard_timeout_s=1.0))
    np.testing.assert_array_equal(out, serial_baseline)
    counts = ledger.counts()
    assert counts["hung_worker_timeout"] == 1
    assert counts["pool_respawn"] == 1
    assert metrics.counter("resilience.shard_timeouts").value >= 1


def test_shard_error_retries_bit_identical(tech90, serial_baseline):
    out, ledger, metrics = _chaos_sample(tech90, "shard_error:2")
    np.testing.assert_array_equal(out, serial_baseline)
    assert ledger.counts() == {"shard_retry": 1}
    assert metrics.counter("resilience.retries").value == 1


def test_retry_exhaustion_raises_structured_error(tech90):
    with pytest.raises(ShardExecutionError) as excinfo:
        _chaos_sample(tech90, "shard_error:1:inf",
                      retry=RetryPolicy(max_retries=1))
    err = excinfo.value
    assert err.shards == (1,)                  # names the failed shard
    assert "shard" in str(err) and "1" in str(err)
    assert any("InjectedFaultError" in c for c in err.causes)


def test_serial_fallback_after_respawn_exhaustion(tech90, serial_baseline):
    # A shard that crashes its worker on *every* attempt: the dispatcher
    # must exhaust its respawn budget, degrade to in-process serial
    # execution (which never attaches fault payloads) and still match
    # the baseline bit for bit.
    out, ledger, metrics = _chaos_sample(
        tech90, "worker_crash:0:inf",
        retry=RetryPolicy(max_pool_respawns=1))
    np.testing.assert_array_equal(out, serial_baseline)
    assert ledger.counts()["serial_fallback"] == 1
    assert metrics.counter("resilience.serial_fallbacks").value == 1


def _system_delays_under_crash(tech, **kw):
    """``system_delays`` with every shard crashing its worker, so the
    dispatcher exhausts its respawn budget and falls back to serial."""
    ledger = FaultLedger()
    obs = build_obs(metrics=True)
    with activate_obs(obs), activate_ledger(ledger), \
            install_faults(parse_faults("worker_crash:0:inf")):
        sampler = ParallelSampler(
            2, shard_size=16, retry=RetryPolicy(max_pool_respawns=1))
        try:
            out = sampler.system_delays(tech, 0.6, **kw)
        finally:
            sampler.close()
    return out, ledger


def test_worker_crash_system_delays_bit_identical(tech90):
    kw = dict(n_chips=64, spares=0, root_seed=11, batch_size=32,
              **SMALL_ARCH)
    with ParallelSampler(1, shard_size=16) as serial:
        baseline = serial.system_delays(tech90, 0.6, **kw)
    out, ledger = _system_delays_under_crash(tech90, **kw)
    assert ledger.counts()["serial_fallback"] == 1
    np.testing.assert_array_equal(out, baseline)


def test_serial_fallback_releases_workspaces(tech90):
    """The fallback path must not pin shard workspaces in the driver."""
    release_worker_workspaces()
    _, ledger = _system_delays_under_crash(
        tech90, n_chips=48, spares=0, root_seed=3, batch_size=16,
        **SMALL_ARCH)
    assert ledger.counts()["serial_fallback"] == 1
    # Every fallback shard released after itself: nothing left to free.
    assert release_worker_workspaces() == 0


def test_pool_after_in_process_multi_block_kernel_runs_in_workers(tech90):
    """Forked workers must run their shards after the parent has used
    multi-block kernels in-process.  A short shard timeout turns a hang
    into a fast failure: the fallback would still return the right bits,
    so the ledger must show neither a timeout nor a fallback."""
    kw = dict(n_chips=64, spares=0, root_seed=1, **SMALL_ARCH)
    MonteCarloEngine(tech90, seed=1, block_elems=97).system_delays(
        0.6, width=8, paths_per_lane=5, chain_length=10, n_chips=64)
    with ParallelSampler(1, shard_size=16) as serial:
        baseline = serial.system_delays(tech90, 0.6, **kw)
    ledger = FaultLedger()
    with activate_ledger(ledger), ParallelSampler(
            2, shard_size=16,
            retry=RetryPolicy(shard_timeout_s=5.0)) as pooled:
        out = pooled.system_delays(tech90, 0.6, **kw)
    np.testing.assert_array_equal(out, baseline)
    assert ledger.counts() == {}     # no hung_worker_timeout, no fallback


def test_injected_worker_faults_do_not_fire_in_process(tech90,
                                                       serial_baseline):
    # jobs=1 never attaches fault payloads: a crash injection must not
    # take down the driver process.
    out, ledger, _ = _chaos_sample(tech90, "worker_crash:0", jobs=1)
    np.testing.assert_array_equal(out, serial_baseline)
    assert len(ledger) == 0


# -- fig4 end-to-end determinism under chaos -----------------------------------


def test_fig4_bit_identical_under_injected_crash(monkeypatch, tmp_path):
    from repro.experiments.registry import get_analyzer, run_experiment

    monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")

    def run(jobs, faults):
        get_analyzer.cache_clear()      # force a genuine re-solve
        runtime = build_runtime(jobs=jobs, faults=parse_faults(faults))
        try:
            return run_experiment("fig4", fast=True, runtime=runtime), runtime
        finally:
            runtime.close()
            get_analyzer.cache_clear()

    baseline, _ = run(1, None)
    chaos, runtime = run(2, "worker_crash:0")
    assert chaos.data == baseline.data     # full arrays, exact equality
    assert runtime.ledger.counts()["pool_respawn"] >= 1


# -- crash-safe cache ----------------------------------------------------------


def _read_journal(path) -> tuple:
    """``(header line, {key: [key, hex_value, crc32]})`` of a cache file."""
    header, *lines = open(path).read().splitlines()
    records = [json.loads(line) for line in lines]
    return header, {rec[0]: rec for rec in records}


def _write_journal(path, header: str, records: dict) -> None:
    open(path, "w").write("".join(
        line + "\n" for line in
        [header] + [json.dumps(rec) for rec in records.values()]))


def test_cache_corrupt_entry_quarantined_and_recomputed(tmp_path):
    path = str(tmp_path / "quantiles.json")
    cache = QuantileCache(path=path, enabled=True)
    cache.put_many([("a", 1.5e-9), ("b", 2.5e-9)])

    header, records = _read_journal(path)
    records["a"][1] = "0x1.badp-30"                # bit-flip the value
    _write_journal(path, header, records)

    ledger = FaultLedger()
    obs = build_obs(metrics=True)
    with activate_obs(obs), activate_ledger(ledger):
        reread = QuantileCache(path=path, enabled=True)
        assert reread.get_many(["a", "b"]) == [None, 2.5e-9]
    assert reread.quarantined == 1
    assert obs.metrics.counter("resilience.cache.quarantined").value == 1
    assert ledger.counts() == {"cache_entry_quarantined": 1}

    reread.put_many([("a", 1.5e-9)])               # recompute + rewrite
    assert QuantileCache(path=path, enabled=True).get_many(
        ["a", "b"]) == [1.5e-9, 2.5e-9]


def test_cache_checksum_detects_swapped_entries(tmp_path):
    path = str(tmp_path / "quantiles.json")
    cache = QuantileCache(path=path, enabled=True)
    cache.put_many([("a", 1.5e-9), ("b", 2.5e-9)])
    header, records = _read_journal(path)
    records["a"][1:], records["b"][1:] = records["b"][1:], records["a"][1:]
    _write_journal(path, header, records)
    # Checksums are keyed: swapping two valid records invalidates both.
    assert QuantileCache(path=path, enabled=True).get_many(
        ["a", "b"]) == [None, None]


def test_cache_truncated_file_quarantined_whole(tmp_path):
    path = str(tmp_path / "quantiles.json")
    QuantileCache(path=path, enabled=True).put_many([("a", 1.0e-9)])
    open(path, "w").write('{"version": 3\n["a", "0x1.')   # torn header

    ledger = FaultLedger()
    obs = build_obs(metrics=True)
    with activate_obs(obs), activate_ledger(ledger):
        cache = QuantileCache(path=path, enabled=True)
        assert cache.get_many(["a"]) == [None]     # empty, not fatal
    assert os.path.exists(path + ".quarantined")
    assert ledger.counts() == {"cache_file_quarantined": 1}
    assert obs.metrics.counter(
        "resilience.cache.file_quarantined").value == 1
    # And the slot is immediately writable again.
    cache.put_many([("a", 1.0e-9)])
    assert QuantileCache(path=path, enabled=True).get("a") == 1.0e-9


def test_cache_old_format_version_reads_empty(tmp_path):
    path = str(tmp_path / "quantiles.json")
    open(path, "w").write(json.dumps(
        {"version": 1, "entries": {"a": "0x1.8p-30"}}))
    cache = QuantileCache(path=path, enabled=True)
    assert cache.get("a") is None
    assert cache.quarantined == 0      # stale format, not corruption


def test_cache_faultlab_corruption_injection(tmp_path):
    path = str(tmp_path / "quantiles.json")
    QuantileCache(path=path, enabled=True).put_many(
        [("a", 1.0e-9), ("b", 2.0e-9)])
    with install_faults(parse_faults("cache_corrupt:0")):
        cache = QuantileCache(path=path, enabled=True)
        values = cache.get_many(["a", "b"])
    assert values == [None, 2.0e-9]    # first sorted key poisoned
    assert cache.quarantined == 1
    # Poisoned in memory only: the journal record on disk is intact.
    assert _read_journal(path)[1]["a"][1] == (1.0e-9).hex()
    # The injection was one-shot: a fresh read sees the intact file.
    assert QuantileCache(path=path, enabled=True).get_many(
        ["a", "b"]) == [1.0e-9, 2.0e-9]


def test_cache_writes_are_atomic_no_tmp_left(tmp_path):
    path = str(tmp_path / "quantiles.json")
    cache = QuantileCache(path=path, enabled=True)
    for i in range(4):
        cache.put_many([(f"k{i}", float(i + 1))])
    leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
    assert leftovers == []
    assert len(QuantileCache(path=path, enabled=True)) == 4


# -- solver guardrails ---------------------------------------------------------


@pytest.fixture(scope="module")
def small_engine():
    return ChipDelayEngine(get_technology("90nm"), **SMALL_ARCH)


def test_solver_nan_injection_falls_back_to_scalar(small_engine):
    vdds = np.linspace(0.35, 0.6, 6)
    baseline = small_engine.chip_quantile_batch(vdds, 0.99, 0.0)
    ledger = FaultLedger()
    obs = build_obs(metrics=True)
    with activate_obs(obs), activate_ledger(ledger), \
            install_faults(parse_faults("solver_nan:2")):
        out = small_engine.chip_quantile_batch(vdds, 0.99, 0.0)
    # The scalar Brent fallback re-derives the root to solver tolerance.
    np.testing.assert_allclose(out, baseline, rtol=1e-9)
    assert ledger.counts() == {"solver_fallback_scalar": 1}
    assert obs.metrics.counter(
        "resilience.solver.fallback_scalar").value == 1


def test_solver_montecarlo_last_resort(small_engine, monkeypatch):
    vdds = np.linspace(0.35, 0.6, 6)
    baseline = small_engine.chip_quantile_batch(vdds, 0.99, 0.0)

    def broken_scalar(self, *args, **kwargs):
        raise ConvergenceError("scalar solver down for this test")

    monkeypatch.setattr(ChipDelayEngine, "_brent_quantile", broken_scalar)
    obs = build_obs(metrics=True)
    with activate_obs(obs), install_faults(parse_faults("solver_nan:1")):
        out = small_engine.chip_quantile_batch(vdds, 0.99, 0.0)
    # Monte-Carlo is noisy (~1/sqrt(n) in the tail) but unbiased.
    np.testing.assert_allclose(out, baseline, rtol=0.05)
    assert obs.metrics.counter(
        "resilience.solver.fallback_montecarlo").value == 1


def test_solver_unrecoverable_raises_with_coordinates(small_engine,
                                                      monkeypatch):
    def broken_scalar(self, *args, **kwargs):
        raise ConvergenceError("down")

    monkeypatch.setattr(ChipDelayEngine, "_brent_quantile", broken_scalar)
    monkeypatch.setattr(ChipDelayEngine, "_montecarlo_quantile",
                        lambda self, *a, **k: float("nan"))
    with install_faults(parse_faults("solver_nan:0")):
        with pytest.raises(SolverNumericalError) as excinfo:
            small_engine.chip_quantile_batch([0.5], 0.99, 0.0)
    (point,) = excinfo.value.points
    assert point == (0.5, 0.99, 0.0)           # (vdd, q, spares)


def test_injected_fault_error_is_structured():
    err = InjectedFaultError("injected shard_error on shard 3")
    assert "shard 3" in str(err)


# -- manifest integration ------------------------------------------------------


def test_manifest_embeds_resilience_ledger():
    ledger = FaultLedger()
    ledger.record("pool_respawn", stage="s", reason="worker_crash",
                  respawn=1, reassigned=[0, 1])
    manifest = build_manifest(
        targets=["fig4"], fast=True, jobs=2, root_seed=0, stages=None,
        metrics=None, cache_before={"path": "p", "entries": 0, "bytes": 0},
        cache_after={"path": "p", "entries": 0, "bytes": 0},
        elapsed_wall_s=1.0, resilience=ledger.as_dict(),
        faults="worker_crash:1")
    assert validate_schema(manifest, MANIFEST_SCHEMA) == []
    assert manifest["run"]["faults"] == "worker_crash:1"
    assert manifest["resilience"]["counts"] == {"pool_respawn": 1}
    # A fault-free manifest still carries an (empty) resilience section.
    clean = build_manifest(
        targets=["fig4"], fast=True, jobs=1, root_seed=0, stages=None,
        metrics=None, cache_before={"path": "p", "entries": 0, "bytes": 0},
        cache_after={"path": "p", "entries": 0, "bytes": 0},
        elapsed_wall_s=1.0)
    assert validate_schema(clean, MANIFEST_SCHEMA) == []
    assert clean["resilience"] == {"events": [], "counts": {}}


def test_ledger_render_and_counts():
    ledger = FaultLedger()
    assert "no faults" in ledger.render()
    ledger.record("shard_retry", shard=1)
    ledger.record("shard_retry", shard=2)
    ledger.record("pool_respawn", respawn=1)
    assert ledger.counts() == {"pool_respawn": 1, "shard_retry": 2}
    assert len(ledger) == 3
    text = ledger.render()
    assert "shard_retry" in text and "2" in text
