"""Analytic chip-delay engine for wide SIMD datapaths.

Implements the paper's architecture model (Section 3.2):

* one *critical path* = chain of ``chain_length`` FO4 inverters;
* one *lane* = the slowest of ``paths_per_lane`` iid critical paths;
* the *chip* = the slowest of ``width`` lanes — or, with ``spares`` extra
  lanes whose slowest ``spares`` members are dropped at test time
  (structural duplication, Section 4.1), the ``(spares+1)``-th largest of
  ``width + spares`` lane delays.

Statistically the hierarchy mirrors the three-scale variation model of
:class:`~repro.devices.variation.VariationModel`: gates inside a path see
iid within-die draws; the paths of one lane share that lane's
spatially-correlated draw; all lanes share the die's draw.  The engine
conditions on the two correlated scales with Gauss-Hermite quadrature and
treats the within-die scale analytically (path cumulants + Cornish-Fisher).

Two evaluation styles are provided:

* **Deterministic** CDF (:meth:`ChipDelayEngine.chip_cdf`): noise-free,
  so millivolt-scale voltage-margin searches are well posed, and
  fractional spare counts are supported through the
  regularised-incomplete-beta order-statistic form.
  Every CDF evaluation runs on a per-``vdd`` *conditioned kernel* — the
  path moments at the (die x lane) threshold-offset grid plus the
  multiplicative scale/weight tensors — held in a bounded LRU cache, so
  repeated evaluations at one supply point pay only the broadcasted
  Cornish-Fisher inversion and two weighted contractions.
* **Batched** quantile solving (:meth:`ChipDelayEngine.chip_quantile_batch`),
  the one quantile solver: it solves many ``(vdd, q, spares)`` query
  points simultaneously — kernels for all distinct supply points are
  built in one vectorized pass, a cheap low-order-quadrature presolve
  brackets every root, a masked secant iteration polishes all roots at
  full quadrature order, and a vectorized Chandrupatla
  (inverse-quadratic/bisection hybrid) iteration catches any point the
  secant rejects.  Every reduction runs row by row (``einsum``), so each
  root is a pure function of its own point: the batch, its order and its
  chunking never change a bit, and :meth:`ChipDelayEngine.chip_quantile`
  is a one-point call of the same solver.
* **Sampling** (:meth:`ChipDelayEngine.sample_chips` and friends): draws
  ensembles for the paper's histogram figures via inverse-transform
  sampling — equivalent to per-gate Monte-Carlo up to the Edgeworth
  approximation of the 50-gate path sum, at ~10^4x less work.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import betainc, log_ndtr, ndtri

from repro.core.moments import (
    DelayMoments,
    _skew_coefficient,
    chain_moments,
    cornish_fisher_cdf,
    cornish_fisher_quantile,
    gate_delay_moments,
    hermite_nodes,
)
from repro.errors import (
    ConfigurationError,
    ConvergenceError,
    SolverNumericalError,
)
from repro.obs.api import counter as _obs_counter
from repro.obs.api import histogram as _obs_histogram
from repro.obs.api import span as _obs_span
from repro.resilience.faultlab import active_plan
from repro.resilience.ledger import current_ledger

__all__ = [
    "ChipDelayEngine",
    "sample_chip_delays",
    "chip_delay_quantile",
    "chip_delay_cdf",
]

#: Bound on the per-engine kernel / offset-moment caches (entries are a few
#: KB each; voltage sweeps touch tens of supply points, not thousands).
_KERNEL_CACHE_SIZE = 256

#: Secant acceptance: the extrapolated iterate's error is ~ C * d_k * d_{k-1}
#: (relative step sizes) with C = |F''/2F'| * root under ~50 for every
#: calibrated card; 200 adds a 4x safety factor.
_SECANT_C = 200.0
_SECANT_TOL = 1e-11


def _grid(sigma: float, order: int):
    """Gauss-Hermite nodes/weights for N(0, sigma); trivial grid if zero."""
    if sigma <= 0:
        return np.zeros(1), np.ones(1)
    z, w = hermite_nodes(order)
    return sigma * z, w


class _OffsetMoments:
    """Path-delay moments as a function of the correlated Vth offset.

    The correlated (lane + die) threshold offset enters the path moments
    through a smooth one-dimensional map, so we tabulate the three chain
    cumulants on a dense offset grid once per supply voltage and
    interpolate; this makes per-(chip, lane) moment lookups O(1).
    """

    def __init__(self, tech, vdd: float, chain_length: int,
                 quad_within: int, span_sigma: float, n_grid: int = 257) -> None:
        self.vdd = float(vdd)
        if span_sigma <= 0:
            grid = np.zeros(1)
        else:
            half = 8.0 * span_sigma
            grid = np.linspace(-half, half, n_grid)
        gate = gate_delay_moments(tech, self.vdd, grid, n_points=quad_within)
        path = chain_moments(gate, chain_length)
        self._grid = grid
        self._mean = np.atleast_1d(path.mean)
        self._var = np.atleast_1d(path.var)
        self._third = np.atleast_1d(path.third)

    def __call__(self, offsets) -> DelayMoments:
        offsets = np.asarray(offsets, dtype=float)
        if self._grid.size == 1:
            shape = offsets.shape
            return DelayMoments(
                mean=np.broadcast_to(self._mean[0], shape).copy(),
                var=np.broadcast_to(self._var[0], shape).copy(),
                third=np.broadcast_to(self._third[0], shape).copy(),
            )
        return DelayMoments(
            mean=np.interp(offsets, self._grid, self._mean),
            var=np.interp(offsets, self._grid, self._var),
            third=np.interp(offsets, self._grid, self._third),
        )


@dataclass(frozen=True)
class _CorrelatedGrids:
    """Quadrature grids over the die- and lane-level variation."""

    die_dvth: np.ndarray
    die_dvth_w: np.ndarray
    die_mult: np.ndarray
    die_mult_w: np.ndarray
    lane_dvth: np.ndarray
    lane_dvth_w: np.ndarray
    lane_mult: np.ndarray
    lane_mult_w: np.ndarray


@dataclass(frozen=True)
class _KernelLevel:
    """The ``x``-independent geometry of one quadrature resolution.

    ``offsets`` are the correlated (die + lane) threshold offsets, shape
    ``(J, A)``; ``scale`` the multiplicative factors ``(1+M)(1+m_l)`` on the
    ``(K, B)`` grid; ``lane_w``/``die_w`` the separable quadrature weights.
    All four are independent of ``vdd``, ``x`` and ``spares``.
    """

    offsets: np.ndarray   # (J, A)
    scale: np.ndarray     # (K, B)
    lane_w: np.ndarray    # (A, B)
    die_w: np.ndarray     # (J, K)


class _CdfKernel:
    """Per-``vdd`` conditioned CDF kernel: path moments at every offset.

    Holds the chain mean / std / skew coefficient evaluated at the fine
    ``(J, A)`` offset grid and at the coarse presolve grid, plus a bracket
    anchor ``ref`` (the median conditioned path mean).  Everything here
    depends only on ``vdd`` — a CDF evaluation reduces to one broadcasted
    Cornish-Fisher inversion against these tensors.
    """

    __slots__ = ("vdd", "mean", "std", "a6", "coarse_mean", "coarse_std",
                 "coarse_a6", "ref")

    def __init__(self, vdd, mean, std, a6, coarse_mean, coarse_std,
                 coarse_a6, ref):
        self.vdd = vdd
        self.mean = mean
        self.std = std
        self.a6 = a6                    # clipped skewness / 6
        self.coarse_mean = coarse_mean
        self.coarse_std = coarse_std
        self.coarse_a6 = coarse_a6
        self.ref = ref


def _chandrupatla(f, lo, hi, flo, fhi, rtol, maxiter: int = 120):
    """Vectorized Chandrupatla root finder (IQI/bisection hybrid).

    Solves ``f = 0`` for every query point simultaneously.  ``f(x, idx)``
    must evaluate the objective at points ``x`` for query indices ``idx``
    (both 1-D of equal length) — only still-active points are evaluated
    each iteration.  ``(lo, hi)`` must bracket per point:
    ``flo <= 0 <= fhi``.  Terminates each point once its bracket shrinks
    below ``2 * rtol * |root|``.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n = lo.size
    a = hi.copy()
    fa = np.asarray(fhi, dtype=float).copy()
    b = lo.copy()
    fb = np.asarray(flo, dtype=float).copy()
    c = b.copy()
    fc = fb.copy()
    t = np.full(n, 0.5)
    root = np.where(np.abs(fa) < np.abs(fb), a, b)
    active = np.ones(n, dtype=bool)
    for end, fend in ((lo, fb), (hi, fa)):
        exact = fend == 0.0
        root[exact] = end[exact]
        active[exact] = False
    for _ in range(maxiter):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            return root
        xt = a[idx] + t[idx] * (b[idx] - a[idx])
        ft = f(xt, idx)
        same = np.sign(ft) == np.sign(fa[idx])
        ci = np.where(same, a[idx], b[idx])
        fci = np.where(same, fa[idx], fb[idx])
        bi = np.where(same, b[idx], a[idx])
        fbi = np.where(same, fb[idx], fa[idx])
        ai, fai = xt, ft
        a[idx], fa[idx] = ai, fai
        b[idx], fb[idx] = bi, fbi
        c[idx], fc[idx] = ci, fci

        use_a = np.abs(fai) < np.abs(fbi)
        xm = np.where(use_a, ai, bi)
        fm = np.where(use_a, fai, fbi)
        root[idx] = xm
        tol = 2.0 * rtol * np.abs(xm)
        with np.errstate(divide="ignore", invalid="ignore"):
            tlim = tol / np.abs(bi - ci)
            done = (fm == 0.0) | (tlim > 0.5) | ~np.isfinite(tlim)
            # Inverse-quadratic step where the bracket geometry allows it,
            # bisection otherwise (Chandrupatla's acceptance test).
            xi = (ai - bi) / (ci - bi)
            phi = (fai - fbi) / (fci - fbi)
            iqi = (phi ** 2 < xi) & ((1.0 - phi) ** 2 < 1.0 - xi)
            t_iqi = (fai / (fbi - fai) * fci / (fbi - fci)
                     + (ci - ai) / (bi - ai) * fai / (fci - fai)
                     * fbi / (fci - fbi))
            t_new = np.where(iqi & np.isfinite(t_iqi), t_iqi, 0.5)
            t_new = np.clip(t_new, tlim, 1.0 - tlim)
        t[idx] = np.where(np.isfinite(t_new), t_new, 0.5)
        active[idx[done]] = False
    if active.any():
        raise ConvergenceError(
            "batched chip-delay quantile root-finding did not converge")
    return root


def _expand_bracket(f, lo, hi, flo, fhi):
    """Geometrically expand per-point brackets until ``flo <= 0 <= fhi``."""
    for _ in range(80):
        need = np.flatnonzero(fhi < 0.0)
        if need.size == 0:
            break
        hi[need] *= 1.25
        fhi[need] = f(hi[need], need)
    for _ in range(80):
        need = np.flatnonzero(flo > 0.0)
        if need.size == 0:
            break
        lo[need] *= 0.8
        flo[need] = f(lo[need], need)
    if (fhi < 0.0).any() or (flo > 0.0).any():
        raise ConvergenceError("could not bracket the chip-delay quantile")


class _PointsEval:
    """Batched chip-CDF evaluator for a fixed set of heterogeneous points.

    Precomputes the x-independent broadcast tensors once per solve, so each
    sweep over the ``(N, J, K, A, B)`` tensor spends the minimum number of
    elementwise passes: the Cornish-Fisher z-argument is the affine map
    ``w = x * t1 - t0`` of the query delay, the citardauq discriminant one
    multiply-add, and both quadrature contractions are row-wise ``einsum``
    reductions.  BLAS matvec kernels pick different reduction orders for
    different row counts, so ``flat @ lane_w`` would make a point's root
    depend on which other points share the evaluation; ``einsum`` reduces
    each row with a fixed-order loop over the (constant) column count, so
    every root is a pure function of its own point.  The citardauq
    inversion is applied unconditionally (exact as the skew
    coefficient -> 0) and the max-of-P-paths power uses the
    ``exp(P * log_ndtr)`` fusion.
    """

    __slots__ = ("width", "paths", "t1", "t0", "a4", "w_lo", "w_hi",
                 "lane_w", "die_w", "qs", "sps")

    def __init__(self, engine, level, mean, std, a6, qs, sps):
        inv_s = 1.0 / std                                    # (N, J, A)
        self.t1 = (inv_s[:, :, None, :, None]
                   / level.scale[None, None, :, None, :])
        self.t0 = (mean * inv_s - a6)[:, :, None, :, None]
        self.a4 = (4.0 * a6)[:, :, None, :, None]
        self.lane_w = level.lane_w.ravel()
        self.die_w = level.die_w.ravel()
        self.width = engine.width
        self.paths = engine.paths_per_lane
        self.qs = qs
        self.sps = sps
        # Saturation thresholds: outside [z_lo, z_hi] the max-of-P-paths CDF
        # Phi(z)^P is 0 or 1 to <1e-15 absolute, so only the (typically
        # 10-30 %) in-band elements pay the log-ndtr call.  Mapped to the
        # pre-inversion variable w = z + a z^2 (monotone), per element.
        z_lo = float(ndtri(np.exp(-36.8 / self.paths)))
        z_hi = float(-ndtri(1e-15 / self.paths))
        a = 0.25 * self.a4
        self.w_lo = z_lo + a * (z_lo * z_lo)
        self.w_hi = z_hi + a * (z_hi * z_hi)

    def cdf(self, x, idx):
        """``P(chip delay <= x_i)`` for query subset ``idx`` (1-D, same size)."""
        full = idx.size == self.t0.shape[0]
        t1 = self.t1 if full else self.t1[idx]
        t0 = self.t0 if full else self.t0[idx]
        a4 = self.a4 if full else self.a4[idx]
        w_lo = self.w_lo if full else self.w_lo[idx]
        w_hi = self.w_hi if full else self.w_hi[idx]
        w = x[:, None, None, None, None] * t1
        w -= t0
        hi = w >= w_hi
        mid = w > w_lo
        mid &= ~hi
        f_lane = hi.astype(float)
        wm = w[mid]
        am = np.broadcast_to(a4, w.shape)[mid]
        disc = am * wm
        disc += 1.0
        np.maximum(disc, 0.0, out=disc)
        np.sqrt(disc, out=disc)
        disc += 1.0
        wm *= 2.0
        wm /= disc
        lf = log_ndtr(wm)
        lf *= self.paths
        f_lane[mid] = np.exp(lf, out=lf)
        n, j, k, a, b = f_lane.shape
        flat = f_lane.reshape(n * j * k, a * b)
        g_lane = np.einsum("rc,c->r", flat, self.lane_w)
        np.clip(g_lane, 0.0, 1.0, out=g_lane)
        g_lane = g_lane.reshape(n, j * k)
        sp = self.sps[idx]
        zero = sp == 0.0
        if zero.all():
            f_chip = g_lane ** self.width
        elif not zero.any():
            f_chip = betainc(self.width, sp[:, None] + 1.0, g_lane)
        else:
            f_chip = np.empty_like(g_lane)
            f_chip[zero] = g_lane[zero] ** self.width
            nz = ~zero
            f_chip[nz] = betainc(self.width, sp[nz, None] + 1.0, g_lane[nz])
        return np.einsum("rc,c->r", f_chip, self.die_w)

    def objective(self, x, idx):
        """CDF minus target quantile (the root-finding residual)."""
        return self.cdf(x, idx) - self.qs[idx]


class ChipDelayEngine:
    """Order-statistics delay engine for one technology node.

    Parameters
    ----------
    tech:
        Technology card.
    width:
        SIMD width (active lanes the workload needs), default 128.
    paths_per_lane:
        Critical + near-critical paths per lane, default 100.
    chain_length:
        FO4 inverters per critical path, default 50.
    quad_within:
        Gauss-Hermite order for the within-gate threshold integral.
    quad_corr_vth, quad_corr_mult:
        Gauss-Hermite orders for each correlated threshold /
        multiplicative integral (applied at both the lane and die scales).
    """

    def __init__(self, tech, *, width: int = 128, paths_per_lane: int = 100,
                 chain_length: int = 50, quad_within: int = 48,
                 quad_corr_vth: int = 12, quad_corr_mult: int = 6) -> None:
        if width < 1 or paths_per_lane < 1 or chain_length < 1:
            raise ConfigurationError(
                "width, paths_per_lane and chain_length must all be >= 1")
        self.tech = tech
        self.width = int(width)
        self.paths_per_lane = int(paths_per_lane)
        self.chain_length = int(chain_length)
        self.quad_within = int(quad_within)
        self.quad_corr_vth = int(quad_corr_vth)
        self.quad_corr_mult = int(quad_corr_mult)

        var = tech.variation
        die_dvth, die_dvth_w = _grid(var.sigma_vth_d2d, quad_corr_vth)
        die_mult, die_mult_w = _grid(var.sigma_mult_corr, quad_corr_mult)
        lane_dvth, lane_dvth_w = _grid(var.sigma_vth_lane, quad_corr_vth)
        lane_mult, lane_mult_w = _grid(var.sigma_mult_lane, quad_corr_mult)
        self._grids = _CorrelatedGrids(
            die_dvth, die_dvth_w, die_mult, die_mult_w,
            lane_dvth, lane_dvth_w, lane_mult, lane_mult_w)
        self._fine = self._make_level(self.quad_corr_vth, self.quad_corr_mult)
        # Low-order presolve level: ~20x cheaper per CDF sweep, used only to
        # bracket roots tightly before full-order refinement.
        self._coarse = self._make_level(max(2, self.quad_corr_vth // 2),
                                        max(2, self.quad_corr_mult // 2))
        # Kernel builds evaluate path moments only at the fine offsets; the
        # coarse (presolve-only) moments are interpolated from them, so the
        # sorted fine-offset view is precomputed here.
        self._offset_order = np.argsort(self._fine.offsets, axis=None)
        self._offset_cache: OrderedDict = OrderedDict()
        self._kernel_cache: OrderedDict = OrderedDict()
        # Kernel-LRU economics, always counted (plain int bumps): rendered
        # by --profile via the obs counters and exposed for tests/tools.
        self.kernel_hits = 0
        self.kernel_misses = 0
        self.kernel_evictions = 0
        # Without gate-level variation the path std is ~1e-21 s, so the
        # chip CDF is a step function of the correlated quadrature nodes.
        # The batch evaluator and `chip_cdf` place each jump ~1e-8 apart
        # (relative), so such cards take their roots from Brent over
        # `chip_cdf`, the reference CDF.
        self._step_card = (var.sigma_vth_wid == 0.0
                           and var.sigma_mult_rand == 0.0)

    # -- internals -----------------------------------------------------------

    def _make_level(self, vth_order: int, mult_order: int) -> _KernelLevel:
        var = self.tech.variation
        die_dvth, die_dvth_w = _grid(var.sigma_vth_d2d, vth_order)
        die_mult, die_mult_w = _grid(var.sigma_mult_corr, mult_order)
        lane_dvth, lane_dvth_w = _grid(var.sigma_vth_lane, vth_order)
        lane_mult, lane_mult_w = _grid(var.sigma_mult_lane, mult_order)
        return _KernelLevel(
            offsets=die_dvth[:, None] + lane_dvth[None, :],
            scale=(1.0 + die_mult)[:, None] * (1.0 + lane_mult)[None, :],
            lane_w=lane_dvth_w[:, None] * lane_mult_w[None, :],
            die_w=die_dvth_w[:, None] * die_mult_w[None, :],
        )

    def _offset_moments(self, vdd: float) -> _OffsetMoments:
        key = round(float(vdd), 9)
        out = self._offset_cache.get(key)
        if out is None:
            _obs_counter("offset_cache.misses").inc()
            span = self.tech.variation.sigma_vth_chain_corr
            out = _OffsetMoments(self.tech, vdd, self.chain_length,
                                 self.quad_within, span)
            self._offset_cache[key] = out
            while len(self._offset_cache) > _KERNEL_CACHE_SIZE:
                self._offset_cache.popitem(last=False)
        else:
            _obs_counter("offset_cache.hits").inc()
            self._offset_cache.move_to_end(key)
        return out

    def _ensure_kernels(self, keys) -> None:
        """Build (vectorized, one pass) the CDF kernels for missing vdds.

        ``keys`` are supply voltages already rounded to the cache precision
        (9 decimals, matching ``_offset_cache``).
        """
        requested = list(dict.fromkeys(keys))
        missing = []
        for key in requested:
            if key in self._kernel_cache:
                self._kernel_cache.move_to_end(key)
            else:
                missing.append(key)
        hits = len(requested) - len(missing)
        self.kernel_hits += hits
        _obs_counter("kernel_cache.hits").inc(hits)
        if not missing:
            return
        self.kernel_misses += len(missing)
        _obs_counter("kernel_cache.misses").inc(len(missing))
        offs = self._fine.offsets.ravel()
        vdds = np.asarray(missing, dtype=float)
        gate = gate_delay_moments(self.tech, vdds[:, None], offs[None, :],
                                  n_points=self.quad_within)
        path = chain_moments(gate, self.chain_length)
        mean = np.asarray(path.mean)
        std = np.asarray(path.std)
        a6 = np.asarray(_skew_coefficient(path)) / 6.0
        fine_shape = self._fine.offsets.shape
        coarse_shape = self._coarse.offsets.shape
        # The coarse (presolve) moments are interpolated over the offset
        # axis instead of re-integrated: the presolve only needs ~1e-3 and
        # the grid is dense, so this shaves 20 % off every kernel build.
        order = self._offset_order
        offs_sorted = offs[order]
        coffs = self._coarse.offsets.ravel()
        for i, key in enumerate(missing):
            kernel = _CdfKernel(
                vdd=key,
                mean=mean[i].reshape(fine_shape),
                std=std[i].reshape(fine_shape),
                a6=a6[i].reshape(fine_shape),
                coarse_mean=np.interp(coffs, offs_sorted,
                                      mean[i, order]).reshape(coarse_shape),
                coarse_std=np.interp(coffs, offs_sorted,
                                     std[i, order]).reshape(coarse_shape),
                coarse_a6=np.interp(coffs, offs_sorted,
                                    a6[i, order]).reshape(coarse_shape),
                ref=float(np.median(mean[i])),
            )
            self._kernel_cache[key] = kernel
        # Never evict a kernel the in-flight batch still needs.
        limit = max(_KERNEL_CACHE_SIZE, len(requested))
        while len(self._kernel_cache) > limit:
            self._kernel_cache.popitem(last=False)
            self.kernel_evictions += 1
            _obs_counter("kernel_cache.evictions").inc()

    def _cdf_kernel(self, vdd: float) -> _CdfKernel:
        key = round(float(vdd), 9)
        self._ensure_kernels((key,))
        return self._kernel_cache[key]

    def path_moments(self, vdd, corr_dvth) -> DelayMoments:
        """Path moments conditioned on a correlated (lane+die) Vth offset."""
        return self._offset_moments(float(vdd))(corr_dvth)

    @staticmethod
    def _check_spares(spares) -> None:
        """Reject negative or non-finite spare counts (scalar or array)."""
        bad = ~(np.isfinite(spares) & (np.asarray(spares) >= 0.0))
        if bad.any():
            raise ConfigurationError(
                "spares must be finite and >= 0, "
                f"got {np.extract(bad, spares)[0]}")

    def _effective_lanes(self, spares) -> int:
        self._check_spares(spares)
        if int(spares) != spares:
            raise ConfigurationError(
                f"sampling requires an integer spare count, got {spares}")
        return self.width + int(spares)

    # -- deterministic CDF / quantile ----------------------------------------

    def chip_cdf(self, vdd, x, spares: float = 0):
        """P(chip delay <= x) with the ``spares`` slowest lanes dropped.

        ``x`` is in seconds (scalar or array).  ``spares`` may be
        fractional: with ``width + spares`` lanes of which the ``spares``
        slowest are dropped, the conditional CDF given the die is the
        regularised incomplete beta ``I_{G_lane}(width, spares + 1)`` — for
        integer ``spares`` exactly the binomial tail
        ``P(Binom(width+spares, 1-G_lane) <= spares)``, smooth in between
        (used by the calibration fitter and the continuous spare solver).
        """
        self._check_spares(spares)
        kernel = self._cdf_kernel(float(vdd))
        level = self._fine
        x = np.asarray(x, dtype=float)
        x_flat = np.atleast_1d(x).ravel()

        # Axes: (J die_vth, K die_mult, A lane_vth, B lane_mult, X).
        mean = kernel.mean[:, None, :, None, None]
        std = kernel.std[:, None, :, None, None]
        gamma = (6.0 * kernel.a6)[:, None, :, None, None]
        y = x_flat[None, None, None, None, :] / level.scale[None, :, None, :, None]

        moments = DelayMoments(mean=mean, var=std ** 2, third=gamma * std ** 3)
        f_path = cornish_fisher_cdf(moments, y)
        f_lane = f_path ** self.paths_per_lane
        # Average over the lane-level variation -> per-die lane CDF.
        g_lane = np.einsum("jkabx,ab->jkx", f_lane, level.lane_w)
        g_lane = np.clip(g_lane, 0.0, 1.0)
        if spares == 0:
            f_chip = g_lane ** self.width
        else:
            f_chip = betainc(self.width, float(spares) + 1.0, g_lane)
        out = np.einsum("jkx,jk->x", f_chip, level.die_w)
        return out[0] if x.ndim == 0 else out.reshape(x.shape)

    def _secant_polish(self, ev, x0, slope, maxiter: int = 10):
        """Masked vectorized secant iteration at full quadrature order.

        ``x0`` are starting guesses (already within ~1e-2 relative of the
        roots), ``slope`` an approximate CDF derivative for the first
        Newton step.  A point is *accepted* at the extrapolated iterate
        once the secant error model ``C * d_k * d_{k-1}`` drops below
        tolerance; points whose steps stop contracting are left to the
        bracketing fallback.  Returns
        ``(root, done, last_iterate, last_step, rounds)`` where ``rounds``
        is the number of secant sweeps executed (for the solver metrics).
        """
        n = x0.size
        all_idx = np.arange(n)
        f0 = ev.objective(x0, all_idx)
        root = x0.copy()
        done = f0 == 0.0
        ok = np.isfinite(slope) & (slope > 0.0)
        step = np.where(ok, f0 / np.where(ok, slope, 1.0), 0.0)
        np.clip(step, -0.05 * x0, 0.05 * x0, out=step)
        x_prev = x0.copy()
        f_prev = f0.copy()
        x_cur = x0 - step
        d_last = np.abs(step) / x_cur
        active = ~done & ok & (step != 0.0)
        rounds = 0
        for it in range(maxiter):
            idx = np.flatnonzero(active)
            if idx.size == 0:
                break
            rounds += 1
            fc = ev.objective(x_cur[idx], all_idx[idx])
            with np.errstate(divide="ignore", invalid="ignore"):
                sec = (fc * (x_cur[idx] - x_prev[idx])
                       / (fc - f_prev[idx]))
            new = x_cur[idx] - sec
            d_new = np.abs(sec) / np.abs(x_cur[idx])
            exact = fc == 0.0
            accept = exact | (_SECANT_C * d_new * d_last[idx] < _SECANT_TOL) \
                | (d_new < 1e-13)
            # Only bail to the bracketing fallback on genuine divergence
            # (step doubling); non-contracting steps during the first two
            # rounds are the normal oscillation transient after a Newton
            # overshoot (pronounced at the high-variation nodes, where the
            # coarse-model seed is a ~1e-2 start) and resolve on their own.
            diverged = ~np.isfinite(new) | (new <= 0.0)
            if it >= 2:
                diverged |= d_new > 2.0 * d_last[idx]
            accept &= ~diverged
            root[idx[accept]] = np.where(exact[accept], x_cur[idx][accept],
                                         new[accept])
            done[idx[accept]] = True
            active[idx[accept | diverged]] = False
            cont = ~(accept | diverged)
            ci = idx[cont]
            x_prev[ci] = x_cur[ci]
            f_prev[ci] = fc[cont]
            x_cur[ci] = new[cont]
            d_last[ci] = d_new[cont]
        return root, done, x_cur, d_last, rounds

    def _solve_points(self, keys, qs, sps):
        """Solve all ``(vdd-key, q, spares)`` points of one chunk at once.

        Every point is presolved on the coarse quadrature level, then
        polished at full order by the masked secant iteration; any point
        the secant model rejects falls back to bracketed Chandrupatla
        iteration.  All three stages act point by point, so each root
        depends only on its own ``(vdd, q, spares)``, never on which other
        points happen to share the chunk.
        """
        kernels = [self._kernel_cache[k] for k in keys]
        ref = np.array([k.ref for k in kernels])
        fine = _PointsEval(self, self._fine,
                           np.stack([k.mean for k in kernels]),
                           np.stack([k.std for k in kernels]),
                           np.stack([k.a6 for k in kernels]), qs, sps)
        coarse = _PointsEval(self, self._coarse,
                             np.stack([k.coarse_mean for k in kernels]),
                             np.stack([k.coarse_std for k in kernels]),
                             np.stack([k.coarse_a6 for k in kernels]),
                             qs, sps)

        every = np.arange(ref.size)
        lo = 0.4 * ref
        hi = 1.6 * ref
        flo = coarse.objective(lo, every)
        fhi = coarse.objective(hi, every)
        _expand_bracket(coarse.objective, lo, hi, flo, fhi)
        x0 = _chandrupatla(coarse.objective, lo, hi, flo, fhi, rtol=1e-6)

        # First-step Newton slope from a coarse finite difference; the
        # coarse pdf tracks the full-order pdf to ~20 %, good enough to
        # shrink the starting error by ~5x before the secant takes over.
        h = 1e-4 * x0
        slope = (coarse.objective(x0 + h, every)
                 - coarse.objective(x0, every)) / h
        root, done, x_last, d_last, rounds = self._secant_polish(
            fine, x0, slope)
        _obs_counter("solver.secant_converged").inc(int(done.sum()))
        _obs_histogram("solver.secant_rounds",
                       buckets=(1, 2, 3, 5, 8, 13, 21)).observe(rounds)
        if done.all():
            return root
        rest = np.flatnonzero(~done)
        _obs_counter("solver.chandrupatla_fallback").inc(rest.size)

        def f_rest(x, pos):
            return fine.objective(x, rest[pos])

        width = np.clip(8.0 * d_last[rest], 1e-3, 0.5)
        center = np.where(x_last[rest] > 0.0, x_last[rest], x0[rest])
        lo = center * (1.0 - width)
        hi = center * (1.0 + width)
        pos = np.arange(rest.size)
        flo = f_rest(lo, pos)
        fhi = f_rest(hi, pos)
        _expand_bracket(f_rest, lo, hi, flo, fhi)
        root[rest] = _chandrupatla(f_rest, lo, hi, flo, fhi, rtol=4e-13)
        return root

    def chip_quantile_batch(self, vdd, q=0.99, spares=0.0, *,
                            chunk_size: int = 64,
                            cluster: bool = True) -> np.ndarray:
        """Quantiles of the chip delay for a batch of query points.

        ``vdd``, ``q`` and ``spares`` broadcast together; the result has
        the broadcast shape (a scalar input returns a plain float).  All
        distinct supply points are kernelised in a single vectorized pass
        and all roots are polished simultaneously; results match Brent
        over :meth:`chip_cdf` to ~1e-12 relative.  Each root is a pure
        function of its own point — bit-identical no matter how the
        queries are batched, ordered or chunked (``chunk_size`` only
        bounds the working set).  Cards without gate-level variation are
        solved by Brent over :meth:`chip_cdf` (see ``_step_card``).

        ``cluster`` is accepted and ignored, for callers that still pass
        it.
        """
        vdd_b, q_b, sp_b = np.broadcast_arrays(
            np.asarray(vdd, dtype=float), np.asarray(q, dtype=float),
            np.asarray(spares, dtype=float))
        shape = vdd_b.shape
        vdds = vdd_b.ravel()
        qs = q_b.ravel().copy()
        sps = sp_b.ravel().copy()
        bad_vdd = ~(np.isfinite(vdds) & (vdds > 0.0))
        if bad_vdd.any():
            raise ConfigurationError(
                "vdd must be finite and > 0 volts, "
                f"got {vdds[bad_vdd][0]}")
        bad_q = ~((qs > 0.0) & (qs < 1.0))
        if bad_q.any():
            raise ConfigurationError(
                f"quantile must be in (0, 1), got {qs[bad_q][0]}")
        self._check_spares(sps)
        # Solve each distinct (vdd, q, spares) point once and scatter the
        # roots back — sweeps assembled from overlapping grids often
        # repeat points.
        with _obs_span("solver.batch", samples=int(vdds.size)):
            seen: dict = {}
            scatter = np.empty(vdds.size, dtype=int)
            ukeys: list = []
            uq: list = []
            usp: list = []
            for i, (v, qv, sv) in enumerate(zip(vdds, qs, sps)):
                point = (round(float(v), 9), float(qv), float(sv))
                j = seen.get(point)
                if j is None:
                    j = len(ukeys)
                    seen[point] = j
                    ukeys.append(point[0])
                    uq.append(point[1])
                    usp.append(point[2])
                scatter[i] = j
            uq_arr = np.asarray(uq)
            usp_arr = np.asarray(usp)
            uout = np.empty(len(ukeys))
            if self._step_card:
                for i, point in enumerate(zip(ukeys, uq, usp)):
                    try:
                        uout[i] = self._brent_quantile(*point)
                    except (ConvergenceError, FloatingPointError):
                        uout[i] = np.nan
            else:
                self._ensure_kernels(ukeys)
                for start in range(0, len(ukeys), int(chunk_size)):
                    sl = slice(start, start + int(chunk_size))
                    try:
                        uout[sl] = self._solve_points(
                            ukeys[sl], uq_arr[sl], usp_arr[sl])
                    except (ConvergenceError, FloatingPointError) as exc:
                        # Mark the whole chunk for the rescue ladder rather
                        # than aborting a multi-chunk batch on one bad point.
                        uout[sl] = np.nan
                        current_ledger().record(
                            "solver_chunk_failed", error=repr(exc),
                            points=int(uout[sl].size))
            self._inject_solver_nan(uout)
            bad = ~np.isfinite(uout) | (uout <= 0.0)
            if bad.any():
                self._rescue_points(uout, np.flatnonzero(bad), ukeys, uq_arr,
                                    usp_arr)
            out = uout[scatter]
        if shape == ():
            return float(out[0])
        return out.reshape(shape)

    @staticmethod
    def _inject_solver_nan(uout: np.ndarray) -> None:
        """Fault lab: poison the target-th unique solver point with NaN."""
        plan = active_plan()
        if plan is None or not uout.size:
            return
        for target in plan.pending("solver_nan"):
            if plan.consume("solver_nan", target):
                uout[target % uout.size] = np.nan

    def _rescue_points(self, uout, bad_idx, ukeys, uq_arr, usp_arr) -> None:
        """Recover non-finite batch roots point by point.

        Fallback ladder per point: Brent over :meth:`chip_cdf` (bracketing
        is far more forgiving than the coarse-seeded secant), then a
        fixed-seed direct Monte-Carlo quantile estimate.  A point
        that survives both raises :class:`SolverNumericalError` carrying
        its ``(vdd, q, spares)`` coordinates.
        """
        ledger = current_ledger()
        unrecovered = []
        for i in bad_idx:
            vdd, q, sp = float(ukeys[i]), float(uq_arr[i]), float(usp_arr[i])
            value = np.nan
            try:
                value = self._brent_quantile(vdd, q, sp)
            except (ConvergenceError, FloatingPointError):
                pass
            if np.isfinite(value) and value > 0.0:
                _obs_counter("resilience.solver.fallback_scalar").inc()
                ledger.record("solver_fallback_scalar", vdd=vdd, q=q,
                              spares=sp)
                uout[i] = value
                continue
            value = self._montecarlo_quantile(vdd, q, sp)
            if np.isfinite(value) and value > 0.0:
                _obs_counter("resilience.solver.fallback_montecarlo").inc()
                ledger.record("solver_fallback_montecarlo", vdd=vdd, q=q,
                              spares=sp)
                uout[i] = value
                continue
            unrecovered.append((vdd, q, sp))
        if unrecovered:
            ledger.record("solver_unrecoverable", points=unrecovered)
            raise SolverNumericalError(
                f"chip-quantile solve unrecoverable at {len(unrecovered)} "
                f"point(s): {unrecovered}", points=unrecovered)

    def _montecarlo_quantile(self, vdd: float, q: float, spares: float,
                             *, n_samples: int = 20000,
                             seed: int = 0x5EED) -> float:
        """Last-resort direct Monte-Carlo quantile (fixed seed).

        Noisy (~1/sqrt(n) in the tail) next to the deterministic solvers,
        but depends on nothing beyond sampling — usable even when every
        CDF-based bracketing strategy has failed.  Fractional spares are
        rounded to the nearest integer lane count.
        """
        try:
            rng = np.random.default_rng(seed)
            samples = self.sample_chips(vdd, int(n_samples), rng,
                                        spares=int(round(spares)))
            return float(np.quantile(samples, q))
        except (ValueError, FloatingPointError):
            return float("nan")

    def chip_quantile(self, vdd, q: float = 0.99, spares: float = 0) -> float:
        """The ``q`` quantile of the chip delay distribution, in seconds.

        ``spares`` may be fractional (see :meth:`chip_cdf`).  A one-point
        :meth:`chip_quantile_batch` call: the same solver, the same bits.
        """
        return self.chip_quantile_batch(float(vdd), float(q), float(spares))

    def _brent_quantile(self, vdd: float, q: float, spares: float) -> float:
        """Brent iteration over the kernel-backed :meth:`chip_cdf`.

        The rescue ladder's first rung, the solver of step cards (see
        ``_step_card``) and the parity reference for the batch solver.
        The point is expected to be validated already.
        """
        with _obs_span("solver.scalar"):
            _obs_counter("solver.scalar_solves").inc()
            vdd = float(vdd)
            ref = self._cdf_kernel(vdd).ref
            lo = 0.4 * ref
            hi = 1.6 * ref
            for _ in range(80):
                if self.chip_cdf(vdd, hi, spares) > q:
                    break
                hi *= 1.25
            else:
                raise ConvergenceError(
                    "could not bracket the chip-delay quantile")
            for _ in range(80):
                if self.chip_cdf(vdd, lo, spares) < q:
                    break
                lo *= 0.8
            else:
                raise ConvergenceError(
                    "could not bracket the chip-delay quantile")
            # xtol is absolute: delays are ~1e-9 s, so it must sit far below
            # the delay scale or it, not rtol, bounds the achieved precision.
            return brentq(lambda x: self.chip_cdf(vdd, x, spares) - q, lo, hi,
                          xtol=1e-24, rtol=1e-12)

    # -- sampling --------------------------------------------------------------

    def sample_paths(self, vdd, n_samples: int, rng: np.random.Generator):
        """Sample critical-path delays (seconds), all variation scales in."""
        var = self.tech.variation
        die = var.sample_dies(rng, n_samples)
        lane = var.sample_lanes(rng, n_samples)
        moments = self.path_moments(float(vdd), die.dvth + lane.dvth)
        u = rng.uniform(1e-12, 1.0 - 1e-12, size=n_samples)
        return (cornish_fisher_quantile(moments, u)
                * (1.0 + lane.mult) * (1.0 + die.mult))

    def sample_lanes(self, vdd, n_samples: int, rng: np.random.Generator):
        """Sample one-lane (slowest-of-P-paths) delays."""
        var = self.tech.variation
        die = var.sample_dies(rng, n_samples)
        lane = var.sample_lanes(rng, n_samples)
        moments = self.path_moments(float(vdd), die.dvth + lane.dvth)
        u = rng.uniform(1e-12, 1.0 - 1e-12, size=n_samples)
        u_max = u ** (1.0 / self.paths_per_lane)
        return (cornish_fisher_quantile(moments, u_max)
                * (1.0 + lane.mult) * (1.0 + die.mult))

    def sample_lane_matrix(self, vdd, n_samples: int, rng: np.random.Generator,
                           spares: int = 0):
        """Sample per-lane delay matrices ``(n_samples, width+spares)``.

        Used by the spare-placement studies, which need to know *which*
        lanes are slow, not just the chip delay.  All variation scales are
        applied; lane identity = column index.
        """
        n_lanes = self._effective_lanes(spares)
        var = self.tech.variation
        die = var.sample_dies(rng, n_samples)
        lane = var.sample_lanes(rng, (n_samples, n_lanes))
        moments = self.path_moments(float(vdd),
                                    die.dvth[:, None] + lane.dvth)
        u = rng.uniform(1e-12, 1.0 - 1e-12, size=(n_samples, n_lanes))
        u_lane = u ** (1.0 / self.paths_per_lane)
        delays = cornish_fisher_quantile(moments, u_lane)
        return delays * (1.0 + lane.mult) * (1.0 + die.mult[:, None])

    def sample_chips(self, vdd, n_samples: int, rng: np.random.Generator,
                     spares: int = 0):
        """Sample chip delays (seconds).

        Each sample draws a die, then ``width + spares`` lanes (each with
        its own correlated draw and max-of-P-paths delay); the chip delay
        is the ``(spares+1)``-th largest lane delay (the ``spares``
        slowest lanes are replaced by spares at test time).
        """
        n_lanes = self._effective_lanes(spares)
        lanes = self.sample_lane_matrix(vdd, n_samples, rng, spares=spares)
        if spares == 0:
            return lanes.max(axis=1)
        return np.partition(lanes, n_lanes - 1 - spares,
                            axis=1)[:, n_lanes - 1 - spares]

    # -- chain statistics -------------------------------------------------------

    def chain_statistics(self, vdd, n_gates: int | None = None) -> DelayMoments:
        """Unconditional moments of an ``n_gates`` co-located chain.

        This models the paper's standalone 50-FO4 test chain (Fig. 1b):
        the chain sits inside one spatial-correlation region, so the lane-
        and die-level components are both fully correlated along it.
        Defaults to the engine's ``chain_length``.
        """
        if n_gates is None:
            n_gates = self.chain_length
        var = self.tech.variation
        sigma_corr = var.sigma_vth_chain_corr
        z, w = _grid(sigma_corr, 33)
        gate = gate_delay_moments(self.tech, float(vdd), z,
                                  n_points=self.quad_within)
        m = chain_moments(gate, n_gates)
        mean = np.atleast_1d(m.mean)
        varr = np.atleast_1d(m.var)
        third = np.atleast_1d(m.third)
        # Raw moments over the correlated threshold offset.
        m1 = float(mean @ w)
        m2 = float((varr + mean ** 2) @ w)
        m3 = float((third + 3.0 * mean * varr + mean ** 3) @ w)
        # Correlated multiplicative factor (1+M)(1+m_l): independent, so the
        # k-th raw moment picks up E[(1+M)^k] E[(1+m_l)^k].
        s2_die = var.sigma_mult_corr ** 2
        s2_lane = var.sigma_mult_lane ** 2
        m2 *= (1.0 + s2_die) * (1.0 + s2_lane)
        m3 *= (1.0 + 3.0 * s2_die) * (1.0 + 3.0 * s2_lane)
        mean_t = m1
        var_t = m2 - m1 ** 2
        third_t = m3 - 3.0 * m1 * m2 + 2.0 * m1 ** 3
        return DelayMoments(mean=np.float64(mean_t), var=np.float64(var_t),
                            third=np.float64(third_t))


# ---------------------------------------------------------------------------
# Functional conveniences
# ---------------------------------------------------------------------------


def sample_chip_delays(tech, vdd, *, n_samples: int = 10_000, width: int = 128,
                       paths_per_lane: int = 100, chain_length: int = 50,
                       spares: int = 0, rng=None, seed: int | None = 0):
    """One-shot chip-delay ensemble (see :class:`ChipDelayEngine`)."""
    engine = ChipDelayEngine(tech, width=width, paths_per_lane=paths_per_lane,
                             chain_length=chain_length)
    if rng is None:
        rng = np.random.default_rng(seed)
    return engine.sample_chips(vdd, n_samples, rng, spares=spares)


def chip_delay_quantile(tech, vdd, q: float = 0.99, *, width: int = 128,
                        paths_per_lane: int = 100, chain_length: int = 50,
                        spares: float = 0) -> float:
    """One-shot deterministic chip-delay quantile (seconds)."""
    engine = ChipDelayEngine(tech, width=width, paths_per_lane=paths_per_lane,
                             chain_length=chain_length)
    return engine.chip_quantile(vdd, q, spares=spares)


def chip_delay_cdf(tech, vdd, x, *, width: int = 128, paths_per_lane: int = 100,
                   chain_length: int = 50, spares: float = 0):
    """One-shot deterministic chip-delay CDF."""
    engine = ChipDelayEngine(tech, width=width, paths_per_lane=paths_per_lane,
                             chain_length=chain_length)
    return engine.chip_cdf(vdd, x, spares=spares)
