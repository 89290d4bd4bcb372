"""Fused Monte-Carlo kernels: parity, dtype policy, shm transport."""

import os
import threading

import numpy as np
import pytest

from repro.core.kernels import DEFAULT_BLOCK_ELEMS, MonteCarloKernel
from repro.core.montecarlo import MonteCarloEngine
from repro.devices.technology import available_technologies, get_technology
from repro.errors import ConfigurationError
from repro.obs.api import activate_obs, build_obs
from repro.obs.metrics import NOOP_METRICS
from repro.resilience import FaultLedger, activate_ledger, install_faults, \
    parse_faults
from repro.runtime import ParallelSampler, release_worker_workspaces

SMALL_ARCH = dict(width=4, paths_per_lane=3, chain_length=5)
SYS_KW = dict(width=6, paths_per_lane=4, chain_length=7, spares=1)

#: Small enough that every batch below splits into several internal
#: blocks.
TINY_BLOCKS = 97


# -- float64 fused vs reference parity ----------------------------------------


@pytest.mark.parametrize("node", available_technologies())
def test_fused_system_delays_bit_identical_to_reference(node):
    tech = get_technology(node)
    fused = MonteCarloEngine(tech, seed=3).system_delays(
        0.6, n_chips=40, batch_size=9, **SYS_KW)
    reference = MonteCarloEngine(tech, seed=3, fused=False).system_delays(
        0.6, n_chips=40, batch_size=40, **SYS_KW)
    np.testing.assert_array_equal(fused, reference)


@pytest.mark.parametrize("node", available_technologies())
def test_fused_lane_and_chain_bit_identical_to_reference(node):
    tech = get_technology(node)
    fused = MonteCarloEngine(tech, seed=5)
    reference = MonteCarloEngine(tech, seed=5, fused=False)
    np.testing.assert_array_equal(
        fused.lane_delays(0.55, paths_per_lane=4, chain_length=6,
                          n_samples=50, batch_size=13),
        reference.lane_delays(0.55, paths_per_lane=4, chain_length=6,
                              n_samples=50, batch_size=50))
    np.testing.assert_array_equal(fused.chain_delays(0.5, 20, 40),
                                  reference.chain_delays(0.5, 20, 40))


def test_chain_delays_keep_legacy_stream(tech90):
    """The kernel rewrite must not move chain results for a given seed."""
    rng = np.random.default_rng(7)
    var = tech90.variation
    gates = var.sample_gates(rng, (40, 20))
    die = var.sample_dies(rng, 40)
    lane = var.sample_lanes(rng, 40)
    dvth = gates.dvth + (die.dvth + lane.dvth)[:, None]
    legacy = (tech90.fo4_delay(0.5, dvth, gates.mult).sum(axis=1)
              * ((1.0 + die.mult) * (1.0 + lane.mult)))
    new = MonteCarloEngine(tech90, rng=np.random.default_rng(7)).chain_delays(
        0.5, 20, 40)
    np.testing.assert_array_equal(new, legacy)


def test_internal_blocking_is_invisible(tech90):
    tiny_blocks = MonteCarloEngine(
        tech90, seed=3,
        kernel=MonteCarloKernel(tech90, block_elems=64))
    whole_batch = MonteCarloEngine(tech90, seed=3)
    kw = dict(n_chips=33, batch_size=33, **SYS_KW)
    np.testing.assert_array_equal(tiny_blocks.system_delays(0.6, **kw),
                                  whole_batch.system_delays(0.6, **kw))


@pytest.mark.parametrize("precision", ["float64", "float32"])
@pytest.mark.parametrize("node", available_technologies())
def test_multi_block_system_parity_matrix(node, precision):
    """4 nodes x both precisions: block boundaries never move a bit."""
    tech = get_technology(node)
    kw = dict(n_chips=24, batch_size=24, **SYS_KW)
    ref = MonteCarloEngine(tech, seed=3,
                           precision=precision).system_delays(0.6, **kw)
    blocked = MonteCarloEngine(tech, seed=3, precision=precision,
                               block_elems=TINY_BLOCKS
                               ).system_delays(0.6, **kw)
    np.testing.assert_array_equal(blocked, ref)


@pytest.mark.parametrize("precision", ["float64", "float32"])
def test_multi_block_lane_and_chain_bit_identical(tech90, precision):
    ref = MonteCarloEngine(tech90, seed=5, precision=precision)
    blocked = MonteCarloEngine(tech90, seed=5, precision=precision,
                               block_elems=29)
    np.testing.assert_array_equal(
        blocked.lane_delays(0.55, paths_per_lane=4, chain_length=6,
                            n_samples=40, batch_size=40),
        ref.lane_delays(0.55, paths_per_lane=4, chain_length=6,
                        n_samples=40, batch_size=40))
    np.testing.assert_array_equal(blocked.chain_delays(0.5, 12, 50),
                                  ref.chain_delays(0.5, 12, 50))


def test_multi_block_fused_matches_reference_path(tech90):
    kw = dict(n_chips=16, batch_size=16, **SYS_KW)
    blocked = MonteCarloEngine(tech90, seed=7, block_elems=TINY_BLOCKS
                               ).system_delays(0.6, **kw)
    ref = MonteCarloEngine(tech90, seed=7, fused=False).system_delays(
        0.6, **kw)
    np.testing.assert_array_equal(blocked, ref)


def test_kernel_accepts_none_block_elems(tech90):
    kernel = MonteCarloKernel(tech90, block_elems=None)
    assert kernel.block_elems == DEFAULT_BLOCK_ELEMS


# -- batch-size invariance (per-chip streams) ---------------------------------


def test_system_delays_batch_size_invariant_bit_for_bit(tech90):
    a = MonteCarloEngine(tech90, seed=11).system_delays(
        0.6, n_chips=300, batch_size=7, **SMALL_ARCH)
    b = MonteCarloEngine(tech90, seed=11).system_delays(
        0.6, n_chips=300, batch_size=512, **SMALL_ARCH)
    np.testing.assert_array_equal(a, b)


def test_lane_delays_batch_size_invariant_bit_for_bit(tech90):
    a = MonteCarloEngine(tech90, seed=11).lane_delays(
        0.6, paths_per_lane=3, chain_length=5, n_samples=300, batch_size=7)
    b = MonteCarloEngine(tech90, seed=11).lane_delays(
        0.6, paths_per_lane=3, chain_length=5, n_samples=300, batch_size=512)
    np.testing.assert_array_equal(a, b)


# -- dtype policy -------------------------------------------------------------


def test_float32_chip_quantile_close_to_float64(tech90):
    kw = dict(n_chips=400, batch_size=64, **SYS_KW)
    f64 = MonteCarloEngine(tech90, seed=2).system_delays(0.6, **kw)
    f32 = MonteCarloEngine(tech90, seed=2,
                           precision="float32").system_delays(0.6, **kw)
    assert f32.dtype == np.float32
    assert f64.dtype == np.float64
    # Same variates in both precisions (float64 draws, cast-scaled), so
    # the 99 % chip quantile differs only by float32 rounding.
    q64 = np.quantile(f64, 0.99)
    q32 = np.quantile(f32.astype(np.float64), 0.99)
    assert abs(q32 / q64 - 1.0) < 1e-3


def test_precision_policy_validated(tech90):
    with pytest.raises(ConfigurationError):
        MonteCarloEngine(tech90, precision="float16")
    with pytest.raises(ConfigurationError):
        MonteCarloKernel(tech90, block_elems=0)


def test_kernel_card_binding_checked(tech90, tech22):
    with pytest.raises(ConfigurationError):
        MonteCarloEngine(tech22, kernel=MonteCarloKernel(tech90))


def test_fill_gates_matches_sample_gates(tech90):
    var = tech90.variation
    shape = (17, 9)
    sampled = var.sample_gates(np.random.default_rng(13), shape)
    dvth = np.empty(shape)
    mult = np.empty(shape)
    var.fill_gates(np.random.default_rng(13), dvth, mult)
    np.testing.assert_array_equal(dvth, sampled.dvth)
    np.testing.assert_array_equal(mult, sampled.mult)
    # float32 fill draws the same float64 variates and rounds them.
    dvth32 = np.empty(shape, dtype=np.float32)
    mult32 = np.empty(shape, dtype=np.float32)
    var.fill_gates(np.random.default_rng(13), dvth32, mult32,
                   staging=np.empty(shape))
    np.testing.assert_array_equal(dvth32, sampled.dvth.astype(np.float32))


def test_workspaces_are_reused(tech90):
    kernel = MonteCarloKernel(tech90)
    engine = MonteCarloEngine(tech90, seed=0, kernel=kernel)
    engine.system_delays(0.6, n_chips=8, batch_size=8, **SMALL_ARCH)
    after_first = kernel.workspace_nbytes
    assert after_first > 0
    engine.system_delays(0.6, n_chips=8, batch_size=8, **SMALL_ARCH)
    assert kernel.workspace_nbytes == after_first
    kernel.release_workspaces()
    assert kernel.workspace_nbytes == 0


def test_workspace_breakdown_counts_float32_staging(tech90):
    kernel = MonteCarloKernel(tech90, precision="float32")
    engine = MonteCarloEngine(tech90, kernel=kernel, seed=0)
    engine.system_delays(0.6, n_chips=8, batch_size=8, **SMALL_ARCH)
    breakdown = kernel.workspace_breakdown()
    # One float64 staging row per gate slab: (lanes, paths, chain) doubles.
    lanes = SMALL_ARCH["width"]
    elems = lanes * SMALL_ARCH["paths_per_lane"] * SMALL_ARCH["chain_length"]
    assert breakdown["staging"] == elems * 8
    assert kernel.workspace_nbytes == sum(breakdown.values())


def test_float64_kernel_has_no_staging(tech90):
    kernel = MonteCarloKernel(tech90)
    engine = MonteCarloEngine(tech90, kernel=kernel, seed=0)
    engine.system_delays(0.6, n_chips=8, batch_size=8, **SMALL_ARCH)
    breakdown = kernel.workspace_breakdown()
    assert "staging" not in breakdown
    assert kernel.workspace_nbytes == sum(breakdown.values())


def test_arenas_release_across_threads(tech22):
    """Each thread evaluates into its own arena; release drops them all."""
    kernel = MonteCarloKernel(tech22, block_elems=TINY_BLOCKS)
    kw = dict(n_chips=20, batch_size=20, **SYS_KW)
    outs = [None, None]

    def run(i):
        engine = MonteCarloEngine(tech22, kernel=kernel, seed=0)
        outs[i] = engine.system_delays(0.6, **kw)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    np.testing.assert_array_equal(outs[0], outs[1])
    single = MonteCarloKernel(tech22, block_elems=TINY_BLOCKS)
    MonteCarloEngine(tech22, kernel=single, seed=0).system_delays(0.6, **kw)
    assert kernel.workspace_nbytes == 2 * single.workspace_nbytes
    kernel.release_workspaces()
    assert kernel.workspace_nbytes == 0


def test_release_worker_workspaces_frees_driver_kernels(tech90):
    release_worker_workspaces()   # start clean (module-global memo)
    with ParallelSampler(1, shard_size=16) as sampler:
        sampler.system_delays(tech90, 0.6, n_chips=32, spares=0,
                              root_seed=3, **SMALL_ARCH)
    assert release_worker_workspaces() > 0
    assert release_worker_workspaces() == 0


def test_fo4_delay_scalar_mult_fast_path(tech90):
    vdds = np.linspace(0.5, 1.0, 7)
    np.testing.assert_array_equal(tech90.fo4_delay(vdds),
                                  tech90.fo4_delay(vdds, 0.0, np.zeros(7)))
    assert tech90.fo4_unit(0.6) == float(tech90.fo4_delay(0.6))


def test_engine_validates_sample_counts(tech90):
    engine = MonteCarloEngine(tech90)
    with pytest.raises(ConfigurationError):
        engine.system_delays(0.6, n_chips=0, batch_size=8, **SMALL_ARCH)
    with pytest.raises(ConfigurationError):
        engine.system_delays(0.6, n_chips=4, width=0, paths_per_lane=3,
                             chain_length=5)
    with pytest.raises(ConfigurationError):
        engine.lane_delays(0.6, paths_per_lane=3, chain_length=5,
                           n_samples=0)
    with pytest.raises(ConfigurationError):
        engine.lane_delays(0.6, paths_per_lane=0, chain_length=5,
                           n_samples=10)


def test_kernel_metrics_emitted(tech90):
    obs = build_obs(metrics=True)
    with activate_obs(obs):
        MonteCarloEngine(tech90, seed=0).system_delays(
            0.6, n_chips=8, batch_size=4, **SMALL_ARCH)
    assert obs.metrics.counter("kernels.blocks").value >= 2
    assert obs.metrics.counter("kernels.gate_evals").value == 8 * 4 * 3 * 5
    assert obs.metrics.gauge("kernels.workspace_bytes").value > 0


# -- shared-memory shard transport --------------------------------------------


def _shm_entries():
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:          # non-Linux: nothing to leak-check
        return set()


def test_shm_transport_bit_identical_to_serial(tech90):
    kw = dict(n_chips=200, spares=0, root_seed=11, batch_size=32,
              **SMALL_ARCH)
    with ParallelSampler(1, shard_size=16) as serial:
        baseline = serial.system_delays(tech90, 0.6, **kw)
    before = _shm_entries()
    obs = build_obs(metrics=True)
    with activate_obs(obs), \
            ParallelSampler(2, shard_size=16, shm_min_bytes=0) as pooled:
        out = pooled.system_delays(tech90, 0.6, **kw)
    np.testing.assert_array_equal(out, baseline)
    assert obs.metrics.counter("sampler.shm_bytes").value == 200 * 8
    assert _shm_entries() - before == set()


def test_shm_transport_float32_results(tech90):
    kw = dict(n_chips=120, spares=0, root_seed=7, **SMALL_ARCH)
    with ParallelSampler(2, shard_size=16, shm_min_bytes=0) as pooled:
        out = pooled.system_delays(tech90, 0.6, precision="float32", **kw)
    with ParallelSampler(1, shard_size=16) as serial:
        baseline = serial.system_delays(tech90, 0.6, precision="float32",
                                        **kw)
    assert out.dtype == np.float32
    np.testing.assert_array_equal(out, baseline)


def test_shm_cleanup_after_worker_crash(tech90):
    """Injected crashes (respawn path) must not leak /dev/shm segments."""
    before = _shm_entries()
    ledger = FaultLedger()
    obs = build_obs(metrics=True)
    with activate_obs(obs), activate_ledger(ledger), \
            install_faults(parse_faults("worker_crash:1")):
        with ParallelSampler(2, shard_size=16, shm_min_bytes=0) as sampler:
            out = sampler.sample_chips(tech90, 0.5, n_samples=64, spares=0,
                                       root_seed=11, **SMALL_ARCH)
    assert ledger.counts()["pool_respawn"] == 1
    assert _shm_entries() - before == set()
    with ParallelSampler(1, shard_size=16) as serial:
        baseline = serial.sample_chips(tech90, 0.5, n_samples=64, spares=0,
                                       root_seed=11, **SMALL_ARCH)
    np.testing.assert_array_equal(out, baseline)


def test_shm_threshold_disables_transport(tech90):
    obs = build_obs(metrics=True)
    with activate_obs(obs), \
            ParallelSampler(2, shard_size=16,
                            shm_min_bytes=1 << 40) as pooled:
        out = pooled.system_delays(tech90, 0.6, n_chips=64, root_seed=3,
                                   **SMALL_ARCH)
    assert obs.metrics.counter("sampler.shm_bytes").value == 0
    assert out.shape == (64,)


def test_shm_zero_byte_payload_falls_back_to_pickle():
    """shm_min_bytes=0 with an empty shard must not create a 0-byte segment.

    ``SharedMemory(create=True, size=0)`` raises ValueError; the guard
    routes empty dispatches through the pickle transport instead.
    """
    with ParallelSampler(2, shm_min_bytes=0) as sampler:
        tasks = [{"n": 0}]
        segment = sampler._open_shm(tasks, np.float64, NOOP_METRICS)
        assert segment is None
        assert "shm" not in tasks[0]
