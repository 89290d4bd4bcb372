"""Benchmark: the batch quantile solver vs per-point Brent sweeps.

Times a fig4-style sign-off sweep (q = 0.99, no spares, supply points
from the near-threshold floor up to nominal) on every technology card,
once as a loop of Brent solves over ``chip_cdf`` (the engine's reference
solver, ``_brent_quantile``) and once through the batched
``chip_quantile_batch`` solver, with the persistent disk cache disabled
so both sides pay their true solve cost.  Results — per-node timings,
speedups and batch-vs-Brent parity — are written to
``BENCH_quantile.json`` at the repository root so the performance
trajectory is tracked across PRs.

The batch roots must match Brent to ``PARITY_RTOL`` on every node; the
process exits non-zero otherwise (CI gates on this).

Run directly::

    python benchmarks/bench_quantile_batch.py            # full (48 points)
    python benchmarks/bench_quantile_batch.py --smoke    # CI-sized (12)

The headline ``speedup`` / ``parity_rtol`` fields report the paper's
flagship near-threshold node (22 nm).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

# The cache must be off before repro is imported anywhere down the line.
os.environ.setdefault("REPRO_CACHE_DISABLE", "1")

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.chip_delay import ChipDelayEngine            # noqa: E402
from repro.devices.technology import (                       # noqa: E402
    available_technologies,
    get_technology,
)

PRIMARY_NODE = "22nm"
Q = 0.99
SPARES = 0.0
#: Largest batch-vs-Brent relative difference accepted on any node.
PARITY_RTOL = 1e-10


def sweep_voltages(tech, n_points: int) -> np.ndarray:
    """A fig4-style supply sweep: NTV floor up to the nominal voltage."""
    return np.linspace(tech.min_vdd, tech.nominal_vdd, n_points)


def bench_node(node: str, n_points: int, repeats: int) -> dict:
    tech = get_technology(node)
    vdds = sweep_voltages(tech, n_points)

    scalar_s = []
    batch_s = []
    scalar = batch = None
    for _ in range(repeats):
        # Fresh engines per repetition: both sides pay their kernel
        # builds, neither inherits the other's LRU state.
        eng = ChipDelayEngine(tech)
        t0 = time.perf_counter()
        scalar = np.array([eng._brent_quantile(v, Q, SPARES)
                           for v in vdds])
        scalar_s.append(time.perf_counter() - t0)

        eng = ChipDelayEngine(tech)
        t0 = time.perf_counter()
        batch = eng.chip_quantile_batch(vdds, Q, SPARES)
        batch_s.append(time.perf_counter() - t0)

    parity = float(np.max(np.abs(batch - scalar) / scalar))
    t_scalar = min(scalar_s)
    t_batch = min(batch_s)
    return {
        "points": int(n_points),
        "scalar_s": t_scalar,
        "batch_s": t_batch,
        "speedup": t_scalar / t_batch,
        "parity_rtol": parity,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: fewer sweep points, 1 repeat")
    parser.add_argument("--points", type=int, default=None,
                        help="sweep points per node (default 48, smoke 12)")
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_quantile.json")
    args = parser.parse_args(argv)

    n_points = args.points or (12 if args.smoke else 48)
    repeats = 1 if args.smoke else 3

    nodes = {}
    for node in available_technologies():
        nodes[node] = bench_node(node, n_points, repeats)
        r = nodes[node]
        print(f"{node:>5}: scalar {1e3 * r['scalar_s']:7.1f} ms   "
              f"batch {1e3 * r['batch_s']:6.1f} ms   "
              f"speedup {r['speedup']:5.2f}x   "
              f"parity {r['parity_rtol']:.1e}")

    primary = nodes[PRIMARY_NODE]
    payload = {
        "benchmark": "quantile_batch",
        "smoke": bool(args.smoke),
        "config": {
            "q": Q,
            "spares": SPARES,
            "points_per_node": n_points,
            "repeats": repeats,
            "sweep": "fig4-style (min_vdd..nominal_vdd)",
            "cache_disabled": True,
        },
        "primary_node": PRIMARY_NODE,
        "speedup": primary["speedup"],
        "parity_rtol": primary["parity_rtol"],
        "scalar_s": primary["scalar_s"],
        "batch_s": primary["batch_s"],
        "nodes": nodes,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n",
                           encoding="utf-8")
    print(f"\nwrote {args.output} "
          f"(primary {PRIMARY_NODE}: {primary['speedup']:.2f}x, "
          f"parity {primary['parity_rtol']:.1e})")
    drift = [n for n, r in nodes.items() if r["parity_rtol"] > PARITY_RTOL]
    if drift:
        print(f"ERROR: batch/Brent parity above {PARITY_RTOL:g} on "
              f"{', '.join(drift)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
