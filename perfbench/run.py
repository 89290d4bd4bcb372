"""The repository benchmark: one command, four workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload regen_cold --seed 1 --seconds 15 \\
        --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

``regen_cold``   every registry experiment, ``fast=True``, serial runtime,
                 empty ``REPRO_CACHE_DIR`` -- a first reproduction.
``regen_warm``   the same over a copy of a cache directory that an
                 untimed ``regen_cold`` pass filled.
``regen_jobs2``  ``regen_cold`` with every experiment under
                 ``build_runtime(jobs=2)``.
``serve_mixed``  a ``serve`` subprocess driven open-loop then closed-loop
                 with a seeded request mix (``serve_load.py``).

Every pass runs in a fresh interpreter with its own cache directory
under ``.perfbench/`` in the repository root, which is deleted at exit.
With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` an untraced and a traced run are
made and the per-layer metrics of the traced one are reported.  The
lines before it give provenance and per-pass detail.  The exit code is
0 when every output matched its reference, 1 when a check failed and 2
when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from importlib import metadata

import layers
from common import ROOT, BenchError, Run

WORKLOADS = ("regen_cold", "regen_warm", "regen_jobs2", "serve_mixed")

#: End-to-end metrics, in the order they are printed.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
              ("p50_ms", "ms"), ("p99_ms", "ms"), ("capacity_rps", "1/s"))


def provenance() -> dict:
    def version(dist: str):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    sha = dirty = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
            status = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, capture_output=True, text=True, timeout=10)
            dirty = bool(status.stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "git_sha": sha, "git_dirty": dirty,
            "loadavg": list(os.getloadavg()),
            "platform": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test size: a few experiments, a short "
                             "serve mix")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    prov = provenance()
    run = Run(args)
    try:
        if args.workload == "serve_mixed":
            from serve_load import run_serve
            outcome = run_serve(run, args)
        else:
            from regen import run_regen
            outcome = run_regen(run, args.workload)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        run.close()

    for problem in outcome["problems"][:50]:
        print(f"check failed: {problem}", file=sys.stderr)
    units = dict(layers.PER_LAYER if args.trace else END_TO_END)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      "provenance": prov}))
    print(json.dumps({"detail": outcome["detail"]}))
    for name, unit in units.items():
        print(f"{name} = {outcome['metrics'][name]:.6g} {unit}")
    correct = not outcome["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {name: {"value": float(outcome["metrics"][name]),
                           "unit": unit}
                    for name, unit in units.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
