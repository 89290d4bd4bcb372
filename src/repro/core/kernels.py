"""Fused zero-allocation Monte-Carlo evaluation kernels.

The brute-force engine in :mod:`repro.core.montecarlo` is exact but
memory-bandwidth bound: one batch of ``sum_over_gates(fo4_delay(vdd,
dvth, mult))`` through the naive :meth:`~repro.devices.technology.
TechnologyNode.fo4_delay` chain materialises ~10 full-size float64
temporaries (threshold combine, overdrives, two softplus expansions,
powers, drive, delay), every one a fresh ``mmap`` that the allocator
must page-in and the GC must tear down again.  :class:`MonteCarloKernel`
replaces that storm with

* **preallocated workspace arenas** — a handful of flat buffers per
  evaluation context (:class:`WorkspaceArena`), grown once and reused
  for every batch, with the whole evaluation expressed as in-place
  ufunc calls (``out=`` everywhere, including the
  ``rng.standard_normal(out=ws)`` draw fills via
  :meth:`~repro.devices.variation.VariationModel.fill_gates`);
* an explicit **dtype policy** (``precision="float64" | "float32"``):
  float32 halves the bandwidth of the bound inner loop for validation
  sweeps.  Both precisions evaluate the *same* normal variates (draws
  are always float64 and cast through a staging buffer), so the float32
  distribution differs from float64 only by rounding — not by sampling
  noise — and quantile-level comparisons stay meaningful at small
  sample counts;
* **per-chip random streams**: every chip (or lane sample) draws from
  its own :class:`numpy.random.SeedSequence` child, which makes results
  invariant to ``batch_size`` — batching becomes a pure memory knob —
  and lets the fused path evaluate in cache-sized internal blocks
  (:data:`DEFAULT_BLOCK_ELEMS`) without changing a single bit of the
  output.  The blocks are independent and run serially, in place, on
  the calling thread.

The float64 fused path is **bit-identical** to the reference path
(``fused=False``), which preserves the naive allocate-per-temporary
evaluation through :meth:`TechnologyNode.fo4_delay` for parity tests
and benchmarking (``benchmarks/bench_montecarlo.py``).  Bit-identity
holds because every fused in-place ufunc replays the exact operation
sequence of the reference chain — only the destinations change.

Observability: kernels emit ``kernels.batches`` / ``kernels.blocks`` /
``kernels.gate_evals`` counters and a ``kernels.workspace_bytes`` gauge
(every arena *including float32 staging buffers*) on the active metrics
registry (no-ops when observability is off).
"""

from __future__ import annotations

import threading

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.api import counter as _obs_counter
from repro.obs.api import gauge as _obs_gauge
from repro.obs.api import span as _obs_span

__all__ = ["MonteCarloKernel", "WorkspaceArena", "PRECISIONS",
           "DEFAULT_BLOCK_ELEMS"]

#: Supported dtype-policy names.
PRECISIONS = ("float64", "float32")

#: Default per-workspace budget, in elements, for the fused path's
#: internal blocking.  Each evaluation buffer stays under this size, so
#: a batch over a large architecture is processed a cache-friendly slab
#: of chips at a time; per-chip streams make the split invisible in the
#: output bits.  1M elements (8 MB of float64 per buffer) measures
#: fastest at the fig-4 validation scale — beyond it the working set
#: falls out of cache and throughput drops ~20 %.  The reference path
#: never blocks (it reproduces the pre-kernel whole-batch evaluation).
DEFAULT_BLOCK_ELEMS = 1_000_000


def _softplus_into(x, out):
    """In-place ``ln(1 + exp(x))``, bit-identical to ``mosfet._softplus``.

    Replays the reference operation sequence —
    ``abs → negate → exp → log1p`` then ``+ maximum(x, 0)`` — writing
    into ``out`` and consuming ``x`` (the ``maximum`` lands in ``x``
    instead of a fresh temporary).
    """
    np.abs(x, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    np.maximum(x, 0.0, out=x)
    np.add(out, x, out=out)


class WorkspaceArena:
    """Named grow-only buffer pool for one evaluation context.

    A kernel owns one arena per thread that evaluates batches through
    it.  Buffers are flat, keyed by name, and only ever grow; :meth:`ws`
    returns a correctly-shaped view.  ``nbytes`` counts *every* buffer,
    including the float64 ``staging`` buffer the float32 dtype policy
    draws through — staging is real resident memory and is accounted
    like any other workspace.
    """

    __slots__ = ("_dtype", "_buffers")

    def __init__(self, dtype) -> None:
        self._dtype = np.dtype(dtype)
        self._buffers: dict = {}

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by this arena's buffers."""
        return sum(buf.nbytes for buf in self._buffers.values())

    def breakdown(self) -> dict:
        """``{buffer name: bytes}`` for accounting tests and gauges."""
        return {name: int(buf.nbytes)
                for name, buf in self._buffers.items()}

    def release(self) -> None:
        """Drop every buffer (they regrow on the next batch)."""
        self._buffers.clear()

    def ws(self, name: str, shape, dtype=None):
        """A reusable buffer view of ``shape`` (grow-only, per name)."""
        dtype = self._dtype if dtype is None else np.dtype(dtype)
        need = 1
        for dim in shape:
            need *= int(dim)
        buf = self._buffers.get(name)
        if buf is None or buf.size < need or buf.dtype != dtype:
            buf = np.empty(need, dtype=dtype)
            self._buffers[name] = buf
        return buf[:need].reshape(shape)


class MonteCarloKernel:
    """Fused evaluation layer for the per-gate Monte-Carlo hot path.

    Parameters
    ----------
    tech:
        Technology card (delay model + variation model).
    precision:
        ``"float64"`` (default; bit-identical to the reference path) or
        ``"float32"`` (~2x bandwidth on the evaluation loop; same
        normal variates, see module docstring).
    fused:
        ``False`` selects the reference path: identical draws, but the
        naive allocate-per-temporary evaluation through
        :meth:`TechnologyNode.fo4_delay` — kept for parity tests and
        as the benchmark baseline.
    block_elems:
        Per-workspace element budget for the fused path's internal
        blocking (see :data:`DEFAULT_BLOCK_ELEMS`); ``None`` selects
        the default.  Block boundaries never change the output bits.

    Each calling thread evaluates against its own
    :class:`WorkspaceArena`, so threads never share evaluation buffers;
    pool workers memoise one kernel per card and precision.
    """

    def __init__(self, tech, precision: str = "float64", fused: bool = True,
                 block_elems: int | None = DEFAULT_BLOCK_ELEMS) -> None:
        if precision not in PRECISIONS:
            raise ConfigurationError(
                f"precision must be one of {PRECISIONS}, got {precision!r}")
        if block_elems is None:
            block_elems = DEFAULT_BLOCK_ELEMS
        if block_elems < 1:
            raise ConfigurationError(
                f"block_elems must be >= 1, got {block_elems}")
        self.tech = tech
        self.precision = str(precision)
        self.fused = bool(fused)
        self.block_elems = int(block_elems)
        self._dtype = np.dtype(precision)
        self._arenas: dict = {}
        self._arena_lock = threading.Lock()

    # -- workspaces ----------------------------------------------------------

    @property
    def dtype(self) -> np.dtype:
        """The evaluation dtype selected by the precision policy."""
        return self._dtype

    def arena(self) -> WorkspaceArena:
        """The calling thread's workspace arena (created on first use).

        Every thread gets private evaluation buffers with zero locking
        on the hot path.
        """
        key = threading.get_ident()
        arena = self._arenas.get(key)
        if arena is None:
            with self._arena_lock:
                arena = self._arenas.setdefault(
                    key, WorkspaceArena(self._dtype))
        return arena

    @property
    def workspace_nbytes(self) -> int:
        """Total bytes held by every arena (all threads, staging
        included)."""
        with self._arena_lock:
            arenas = list(self._arenas.values())
        return sum(arena.nbytes for arena in arenas)

    def workspace_breakdown(self) -> dict:
        """``{buffer name: total bytes}`` aggregated across arenas.

        The float32 policy's float64 ``staging`` buffer appears as its
        own entry, so the accounting asserted by the tests covers it
        explicitly; ``sum(values)`` equals :attr:`workspace_nbytes`.
        """
        with self._arena_lock:
            arenas = list(self._arenas.values())
        total: dict = {}
        for arena in arenas:
            for name, nbytes in arena.breakdown().items():
                total[name] = total.get(name, 0) + nbytes
        return total

    def release_workspaces(self) -> None:
        """Drop every thread arena's buffers (they regrow on the next
        batch)."""
        with self._arena_lock:
            arenas = list(self._arenas.values())
            self._arenas.clear()
        for arena in arenas:
            arena.release()

    def _alloc(self, arena: WorkspaceArena, name: str, shape, dtype=None):
        """Workspace view (fused) or a fresh allocation (reference)."""
        dtype = self._dtype if dtype is None else np.dtype(dtype)
        if self.fused:
            return arena.ws(name, shape, dtype)
        return np.empty(shape, dtype=dtype)

    # -- drawing -------------------------------------------------------------

    def _cast(self, arr):
        """Correlated draws (always float64) in the evaluation dtype."""
        if self._dtype == np.float64:
            return arr
        return arr.astype(self._dtype)

    def _staging_for(self, arena: WorkspaceArena, shape):
        """float64 staging row for float32 fills (``None`` for float64)."""
        if self._dtype == np.float64:
            return None
        if self.fused:
            return arena.ws("staging", shape, np.float64)
        return np.empty(shape, dtype=np.float64)

    def _draw_correlated(self, rng, lane_shape):
        """One chip's die- and lane-level draws (die first, then lane)."""
        var = self.tech.variation
        die_dvth = rng.normal(0.0, var.sigma_vth_d2d) if var.sigma_vth_d2d else 0.0
        die_mult = rng.normal(0.0, var.sigma_mult_corr) if var.sigma_mult_corr else 0.0
        if lane_shape is None:
            lane_dvth = (rng.normal(0.0, var.sigma_vth_lane)
                         if var.sigma_vth_lane else 0.0)
            lane_mult = (rng.normal(0.0, var.sigma_mult_lane)
                         if var.sigma_mult_lane else 0.0)
        else:
            lane_dvth = (rng.normal(0.0, var.sigma_vth_lane, lane_shape)
                         if var.sigma_vth_lane else np.zeros(lane_shape))
            lane_mult = (rng.normal(0.0, var.sigma_mult_lane, lane_shape)
                         if var.sigma_mult_lane else np.zeros(lane_shape))
        return die_dvth, die_mult, lane_dvth, lane_mult

    # -- fused evaluation core -----------------------------------------------

    def _fused_path_sums(self, arena: WorkspaceArena, vdd: float,
                         dvth, mult, out) -> None:
        """``sum_over_gates(fo4_delay(vdd, dvth, mult))`` along the last axis.

        Consumes ``dvth`` and ``mult`` (both become scratch); writes the
        per-path delay sums into ``out`` (shape ``dvth.shape[:-1]``).
        Bit-identical to
        ``tech.fo4_delay(vdd, dvth, mult).sum(axis=-1)`` in float64: the
        in-place ufunc sequence replays the reference chain operation
        for operation, and the ``np.sum(..., out=...)`` keeps numpy's
        pairwise reduction order.
        """
        mos = self.tech.mosfet
        dt = self._dtype.type
        two_n_vt = 2.0 * mos.n_slope * mos.thermal_voltage
        balanced = mos.vth_split == 0.0 and mos.strength_p == 1.0

        a = dvth
        np.add(a, dt(mos.vth0 - mos.dibl * vdd), out=a)     # Vth_eff
        np.subtract(dt(vdd), a, out=a)                      # Vdd - Vth_eff
        sp = arena.ws("sp", a.shape, self._dtype)
        if not balanced:
            xp = arena.ws("xp", a.shape, self._dtype)
            np.subtract(a, dt(mos.vth_split), out=xp)
            np.divide(xp, dt(two_n_vt), out=xp)             # weak overdrive
        np.divide(a, dt(two_n_vt), out=a)                   # strong overdrive
        _softplus_into(a, sp)                               # consumes a
        np.power(sp, dt(mos.alpha), out=sp)                 # d_n
        if not balanced:
            _softplus_into(xp, a)                           # consumes xp
            np.power(a, dt(mos.alpha), out=a)
            np.multiply(a, dt(mos.strength_p), out=a)       # d_p
            np.add(sp, a, out=xp)                           # d_n + d_p
            np.multiply(sp, dt(2.0), out=sp)
            np.multiply(sp, a, out=sp)
            np.divide(sp, xp, out=sp)                       # harmonic drive
        np.divide(dt(self.tech.fo4_scale * vdd), sp, out=sp)
        np.add(mult, dt(1.0), out=mult)
        np.multiply(sp, mult, out=sp)                       # gate delays
        np.sum(sp, axis=-1, out=out)

    def _reference_path_sums(self, vdd: float, dvth, mult):
        """The pre-kernel evaluation: naive chain, fresh temporaries."""
        dtype = None if self._dtype == np.float64 else self._dtype
        return self.tech.fo4_delay(vdd, dvth, mult, dtype=dtype).sum(axis=-1)

    # -- internal blocking ---------------------------------------------------

    def _block_rows(self, total_rows: int, row_elems: int) -> int:
        """Chips per internal evaluation block (fused path only)."""
        if not self.fused:
            return int(total_rows)
        return max(1, min(int(total_rows),
                          self.block_elems // max(1, int(row_elems))))

    def _spans(self, total_rows: int, row_elems: int) -> list:
        """Deterministic ``(start, stop)`` block spans for one batch.

        Depends only on ``(total_rows, row_elems, block_elems, fused)``.
        """
        block = self._block_rows(total_rows, row_elems)
        return [(start, min(start + block, int(total_rows)))
                for start in range(0, int(total_rows), block)]

    # -- batch entry points --------------------------------------------------

    def system_batch(self, rngs, vdd: float, n_lanes: int,
                     paths_per_lane: int, chain_length: int, spares: int,
                     out, proposal=None, logw_out=None,
                     d2d_out=None) -> None:
        """Chip delays for ``len(rngs)`` chips, one generator per chip.

        Writes seconds into ``out`` (shape ``(len(rngs),)``).  Per-chip
        draw order: die pair, lane vectors, gate threshold fill, gate
        multiplier fill — so the output depends only on each chip's
        :class:`~numpy.random.SeedSequence` child, never on batch or
        block boundaries.

        ``proposal`` (a :class:`~repro.core.tailsampling.ShiftProposal`)
        switches the batch to importance sampling: the d2d / lane
        threshold draws are mean-shifted *after* they leave each chip's
        stream (a mixture proposal additionally consumes one uniform per
        chip, drawn first, for component selection), and the per-chip
        log-likelihood-ratio weights land in ``logw_out`` (float64,
        same shape as ``out``).  A single-component proposal changes no
        stream consumption at all, so ``shift=0`` reproduces the plain
        batch bit-for-bit with all-zero weights.  ``d2d_out``
        optionally receives the (shifted) die-level threshold draws in
        volts — the adaptive shift search reads them.
        """
        vdd = float(vdd)
        total = len(rngs)
        row_elems = n_lanes * paths_per_lane * chain_length
        spans = self._spans(total, row_elems)
        if proposal is not None and logw_out is None:
            raise ConfigurationError(
                "system_batch with a proposal needs logw_out")
        with _obs_span("kernels.system_batch", samples=total):
            arena = self.arena()
            for start, stop in spans:
                self._system_block(
                    arena, rngs[start:stop], vdd, n_lanes, paths_per_lane,
                    chain_length, spares, out[start:stop], proposal=proposal,
                    logw=None if logw_out is None else logw_out[start:stop],
                    d2d=None if d2d_out is None else d2d_out[start:stop])
        self._record(total, total * row_elems, len(spans))

    def _system_block(self, arena, rngs, vdd, n_lanes, paths_per_lane,
                      chain_length, spares, out, proposal=None, logw=None,
                      d2d=None) -> None:
        """One internal block of :meth:`system_batch`."""
        var = self.tech.variation
        nb = len(rngs)
        shape = (nb, n_lanes, paths_per_lane, chain_length)
        a = self._alloc(arena, "dvth", shape)
        m = self._alloc(arena, "mult", shape)
        staging = self._staging_for(arena, shape[1:])
        die_dvth = np.empty(nb)
        die_mult = np.empty(nb)
        lane_dvth = np.empty((nb, n_lanes))
        lane_mult = np.empty((nb, n_lanes))
        for i, rng in enumerate(rngs):
            component = (proposal.pick_component(rng)
                         if proposal is not None else 0)
            (die_dvth[i], die_mult[i],
             lane_dvth[i], lane_mult[i]) = self._draw_correlated(
                rng, (n_lanes,))
            if proposal is not None:
                die_dvth[i], logw[i] = proposal.shift_chip(
                    component, die_dvth[i], lane_dvth[i],
                    var.sigma_vth_d2d, var.sigma_vth_lane)
            var.fill_gates(rng, a[i], m[i], staging=staging)
        if d2d is not None:
            d2d[:] = die_dvth
        if self.fused:
            np.add(a, self._cast(die_dvth)[:, None, None, None], out=a)
            np.add(a, self._cast(lane_dvth)[:, :, None, None], out=a)
            sums = arena.ws("paths", shape[:3], self._dtype)
            self._fused_path_sums(arena, vdd, a, m, sums)
            lanes = arena.ws("lanes", shape[:2], self._dtype)
            np.max(sums, axis=-1, out=lanes)
            np.multiply(lanes, 1.0 + self._cast(lane_mult), out=lanes)
        else:
            a = (a + self._cast(die_dvth)[:, None, None, None]
                 + self._cast(lane_dvth)[:, :, None, None])
            sums = self._reference_path_sums(vdd, a, m)
            lanes = sums.max(axis=2) * (1.0 + self._cast(lane_mult))
        if spares == 0:
            chip = lanes.max(axis=1)
        else:
            kth = n_lanes - 1 - spares
            chip = np.partition(lanes, kth, axis=1)[:, kth]
        out[:] = chip * (1.0 + die_mult)

    def lane_batch(self, rngs, vdd: float, paths_per_lane: int,
                   chain_length: int, out) -> None:
        """Single-lane delays for ``len(rngs)`` samples (seconds).

        Same per-sample stream contract as :meth:`system_batch`, with a
        scalar lane-level draw per sample (a standalone lane sits in one
        spatial-correlation region).
        """
        vdd = float(vdd)
        total = len(rngs)
        row_elems = paths_per_lane * chain_length
        spans = self._spans(total, row_elems)
        with _obs_span("kernels.lane_batch", samples=total):
            arena = self.arena()
            for start, stop in spans:
                self._lane_block(arena, rngs[start:stop], vdd, paths_per_lane,
                                 chain_length, out[start:stop])
        self._record(total, total * row_elems, len(spans))

    def _lane_block(self, arena, rngs, vdd, paths_per_lane, chain_length,
                    out) -> None:
        """One internal block of :meth:`lane_batch`."""
        var = self.tech.variation
        nb = len(rngs)
        shape = (nb, paths_per_lane, chain_length)
        a = self._alloc(arena, "dvth", shape)
        m = self._alloc(arena, "mult", shape)
        staging = self._staging_for(arena, shape[1:])
        die_dvth = np.empty(nb)
        die_mult = np.empty(nb)
        lane_dvth = np.empty(nb)
        lane_mult = np.empty(nb)
        for i, rng in enumerate(rngs):
            (die_dvth[i], die_mult[i],
             lane_dvth[i], lane_mult[i]) = self._draw_correlated(rng, None)
            var.fill_gates(rng, a[i], m[i], staging=staging)
        corr = die_dvth + lane_dvth
        if self.fused:
            np.add(a, self._cast(corr)[:, None, None], out=a)
            sums = arena.ws("paths", shape[:2], self._dtype)
            self._fused_path_sums(arena, vdd, a, m, sums)
        else:
            a = a + self._cast(corr)[:, None, None]
            sums = self._reference_path_sums(vdd, a, m)
        lane = sums.max(axis=1) * (1.0 + self._cast(lane_mult))
        out[:] = lane * (1.0 + die_mult)

    def chain_batch(self, rng, vdd: float, n_samples: int, chain_length: int,
                    include_die: bool = True):
        """Delays of ``n_samples`` co-located FO4 chains (seconds).

        Keeps the legacy single-stream draw order (all gate thresholds,
        all gate multipliers, then die and lane draws from the *same*
        generator), so chain results for a given seed are unchanged by
        the kernel rewrite.  Draws are single-stream and therefore
        serial; the fused *evaluation* still blocks over rows (the
        per-row delay sums are independent) without moving a bit.
        """
        var = self.tech.variation
        vdd = float(vdd)
        shape = (n_samples, chain_length)
        with _obs_span("kernels.chain_batch", samples=n_samples):
            arena = self.arena()
            a = self._alloc(arena, "dvth", shape)
            m = self._alloc(arena, "mult", shape)
            var.fill_gates(rng, a, m, staging=self._staging_for(arena, shape))
            if include_die:
                die = var.sample_dies(rng, n_samples)
                lane = var.sample_lanes(rng, n_samples)
                corr = die.dvth + lane.dvth
                corr_mult = (1.0 + die.mult) * (1.0 + lane.mult)
            if self.fused:
                if include_die:
                    np.add(a, self._cast(corr)[:, None], out=a)
                out = np.empty(n_samples, dtype=self._dtype)
                spans = self._spans(n_samples, chain_length)
                for start, stop in spans:
                    self._fused_path_sums(arena, vdd, a[start:stop],
                                          m[start:stop], out[start:stop])
                if include_die:
                    np.multiply(out, self._cast(corr_mult), out=out)
            else:
                spans = [(0, n_samples)]
                if include_die:
                    a = a + self._cast(corr)[:, None]
                out = self._reference_path_sums(vdd, a, m)
                if include_die:
                    out = out * self._cast(corr_mult)
        self._record(n_samples, n_samples * chain_length, len(spans))
        return out

    # -- observability -------------------------------------------------------

    def _record(self, rows: int, gate_evals: int, blocks: int) -> None:
        """One batch's counters, aggregated per batch (not per block);
        the workspace gauge reflects every arena."""
        _obs_counter("kernels.batches").inc()
        _obs_counter("kernels.blocks").inc(int(blocks))
        _obs_counter("kernels.gate_evals").inc(int(gate_evals))
        _obs_gauge("kernels.workspace_bytes").set(self.workspace_nbytes)
