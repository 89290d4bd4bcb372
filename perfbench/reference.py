"""Regeneration references: flatten experiment outputs and check them.

Each experiment's ``ExperimentResult.data`` is flattened into
``{path: leaf}``.  Floats, ints, bools, strings and ``None`` are leaves;
numpy arrays of at most ``ARRAY_INLINE`` elements are split into one leaf
per element, and longer arrays (Monte-Carlo sample vectors) become a
summary of count, mean, standard deviation and a SHA-256 of their bytes.

A check compares a fresh flattening with the stored reference:

* strings, bools, ints and ``None`` must be equal;
* deterministic floats must agree to ``DET_RTOL``.  Solver paths that
  differ only in root-finder tolerance (a serial runtime against none)
  move them by at most 5e-10, far below the printed digits;
* leaves matched by :data:`STATISTICAL` are Monte-Carlo or
  importance-sampled estimates.  They must agree within the experiment's
  own statistical bound, written there as a relative tolerance derived
  from the sample count the experiment uses in ``fast`` mode.  A sample
  vector whose hash differs must keep its count and have a mean within
  ``MEAN_SE`` standard errors of the reference.

Record the references of the current commit with::

    PYTHONPATH=src python3 perfbench/reference.py record

which writes ``perfbench/reference/regen_jobs1.json`` (serial runtime)
and ``regen_jobs2.json`` (``build_runtime(jobs=2)``; its sharded
``chip_distribution`` streams differ from the serial ones by design).
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Arrays up to this many elements are checked element by element.
ARRAY_INLINE = 64

#: Relative tolerance for deterministic floats.
DET_RTOL = 1e-8

#: Standard errors a resampled vector's mean may move.
MEAN_SE = 6.0

#: ``(experiment, leaf-path regex, relative tolerance)`` for sampled
#: leaves; ``None`` marks a sampled leaf that is not compared (histogram
#: bins, importance-sampling diagnostics).  Each tolerance is about five
#: standard errors at the sample counts of ``fast`` mode:
#:
#: * fig1: 300 draws per point, so a 3-sigma/mu ratio moves ~4 % and a
#:   chain mean ~0.4 % per standard error;
#: * fig3/5/6: 2000-chip ``chip_distribution`` ensembles, whose p99 moved
#:   at most 0.34 % between the serial and the 2-worker streams;
#: * fig12: 1000 chips per repair yield (binomial error ~1.2 % at 0.87);
#: * ablation3: 200 adder samples (mean ~0.2 %, 3-sigma/mu ~5 %);
#: * tail: 1024 importance-sampled chips, whose estimates the experiment
#:   itself reports within 3 % of the analytic quantile.
STATISTICAL = (
    ("fig1", r"^(single|chain)\[", 0.2),
    ("fig1", r"^chain_mean_ns\[", 0.02),
    ("fig1", r"^histograms\.", None),
    ("fig3", r"^(mean_fo4|p99_fo4)\[", 0.01),
    ("fig5", r"^(target_fo4|p99_fo4\[)", 0.01),
    ("fig6", r"^(margin_p99_ns|spare_p99_ns)\.", 0.01),
    ("fig12", r"^policies\[\d+\]\.yield$", 0.06),
    ("ablation3", r"^adders\..*\.mean$", 0.02),
    ("ablation3", r"^adders\..*\.three_sigma_over_mu$", 0.25),
    ("tail", r"^nodes\..*\.(is_value|shift)$", 0.05),
    ("tail", r"^nodes\..*\.(rel_err|p_fail|ess|weight_max_ratio|rounds)$",
     None),
)


def flatten(data) -> dict:
    """``ExperimentResult.data`` -> ``{path: json-able leaf}``."""
    import numpy as np

    out: dict = {}

    def walk(path: str, value) -> None:
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{path}.{k}" if path else str(k), v)
        elif isinstance(value, (list, tuple)):
            for i, v in enumerate(value):
                walk(f"{path}[{i}]", v)
        elif isinstance(value, np.ndarray):
            flat = value.ravel()
            if flat.size <= ARRAY_INLINE:
                for i, v in enumerate(flat.tolist()):
                    out[f"{path}[{i}]"] = v
            else:
                arr = np.ascontiguousarray(flat, dtype=np.float64)
                out[path] = {"n": int(arr.size),
                             "mean": float(arr.mean()),
                             "std": float(arr.std()),
                             "sha256": hashlib.sha256(
                                 arr.tobytes()).hexdigest()}
        elif isinstance(value, np.generic):
            out[path] = value.item()
        elif value is None or isinstance(value, (bool, int, float, str)):
            out[path] = value
        else:
            raise TypeError(f"unsupported leaf {type(value)!r} at {path}")

    walk("", data)
    return out


def _statistical_rule(experiment_id: str, path: str):
    """``(matched, rtol)``; ``rtol=None`` means "sampled, not compared"."""
    for exp, pattern, rtol in STATISTICAL:
        if exp == experiment_id and re.search(pattern, path):
            return True, rtol
    return False, None


def _close(a: float, b: float, rtol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def compare(experiment_id: str, got: dict, ref: dict) -> list:
    """Mismatches between one experiment's flattening and its reference."""
    problems = []
    if set(got) != set(ref):
        missing = sorted(set(ref) - set(got))[:5]
        extra = sorted(set(got) - set(ref))[:5]
        return [f"{experiment_id}: leaf set differs "
                f"(missing {missing}, extra {extra})"]
    for path, want in ref.items():
        have = got[path]
        sampled, rtol = _statistical_rule(experiment_id, path)
        where = f"{experiment_id}:{path}"
        if isinstance(want, dict):           # long sample vector
            if have == want:
                continue
            if not isinstance(have, dict) or have["n"] != want["n"]:
                problems.append(f"{where}: sample count {have} != {want}")
                continue
            se = want["std"] / math.sqrt(want["n"])
            if abs(have["mean"] - want["mean"]) > MEAN_SE * se:
                problems.append(f"{where}: mean {have['mean']!r} vs "
                                f"{want['mean']!r} (> {MEAN_SE} SE)")
            continue
        if sampled:
            if rtol is None or have == want:
                continue
            if not (isinstance(have, (int, float))
                    and isinstance(want, (int, float))
                    and _close(float(have), float(want), rtol)):
                problems.append(f"{where}: {have!r} vs {want!r} "
                                f"(sampled, rtol {rtol})")
            continue
        if isinstance(want, float) and isinstance(have, (int, float)) \
                and not isinstance(have, bool):
            if not _close(float(have), want, DET_RTOL):
                problems.append(f"{where}: {have!r} vs {want!r}")
        elif have != want or type(have) is not type(want):
            problems.append(f"{where}: {have!r} vs {want!r}")
    return problems


def reference_path(jobs: int) -> Path:
    return REFERENCE_DIR / f"regen_jobs{1 if jobs == 1 else 2}.json"


def load(jobs: int) -> dict:
    """The stored ``{experiment_id: flattening}`` for a jobs setting."""
    return json.loads(reference_path(jobs).read_text())


def check(outputs: dict, jobs: int) -> list:
    """Every mismatch of ``{experiment_id: flattening}`` vs the reference."""
    ref = load(jobs)
    problems = []
    for experiment_id, flat in outputs.items():
        if experiment_id not in ref:
            problems.append(f"{experiment_id}: no reference recorded")
            continue
        problems.extend(compare(experiment_id, flat, ref[experiment_id]))
    return problems


def record(jobs: int) -> dict:
    """Run every experiment (``fast=True``) and flatten the outputs."""
    from repro.experiments.registry import list_experiments, run_experiment
    from repro.runtime import build_runtime

    runtime = build_runtime(jobs=jobs)
    try:
        return {e.experiment_id: flatten(run_experiment(
                    e.experiment_id, fast=True, runtime=runtime).data)
                for e in list_experiments()}
    finally:
        runtime.close()


def main(argv) -> int:
    if argv[1:] != ["record"]:
        print("usage: PYTHONPATH=src python3 perfbench/reference.py record",
              file=sys.stderr)
        return 2
    import os
    import tempfile

    for jobs in (1, 2):
        with tempfile.TemporaryDirectory(prefix="perfbench-ref-") as cache:
            os.environ["REPRO_CACHE_DIR"] = cache
            os.environ.pop("REPRO_CACHE_DISABLE", None)
            outputs = record(jobs)
        path = reference_path(jobs)
        path.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path} ({sum(map(len, outputs.values()))} leaves)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
