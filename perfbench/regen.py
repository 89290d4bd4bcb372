"""The regeneration workloads: ``regen_cold``, ``regen_warm``, ``regen_jobs2``.

Each pass is one fresh interpreter running ``regen_worker.py`` over its
own cache directory: empty for ``regen_cold`` and ``regen_jobs2``, a
copy of a pre-warmed directory for ``regen_warm``.  The paper inputs are
fixed and seeded inside the program, so ``--seed`` does not change them.

An operation is one experiment: ``attempted`` and ``failed`` count
experiments.  The latency a user waits for is a whole regeneration, so
``p50_ms`` is the median pass wall time (``wall_s``) and ``p99_ms`` the
slowest pass of the run; with one pass (``regen_cold``, ``regen_jobs2``)
both equal ``wall_s``.  The time until half of a pass's artifacts exist
is in the detail line: it spans only about 5 s of a cold pass and moved
twice as much as ``wall_s`` from run to run on 2 shared cores.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from pathlib import Path

import layers
import reference
from common import ROOT, SETUP_SAMPLES, SMOKE_EXPERIMENTS, BenchError, \
    nearest_rank


def regen_pass(run, cache: Path, *, jobs: int = 1, trace: bool = False,
               setup_only: bool = False) -> dict:
    out = run.path("pass.json")
    args = ["--out", str(out), "--jobs", str(jobs)]
    if trace:
        args.append("--trace")
    if setup_only:
        args.append("--setup-only")
    if run.args.smoke:
        args += ["--only", ",".join(SMOKE_EXPERIMENTS)]
    run.python("regen_worker.py", args, cache)
    return json.loads(out.read_text())


def source_digest() -> str:
    """SHA-256 of every program source file (keys the pre-warmed cache)."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_pass(run, result: dict, jobs: int) -> list:
    """Problems of one pass: raised experiments, missing or wrong outputs."""
    problems = [f"{k}: raised\n{v}" for k, v in result["errors"].items()]
    expected = (SMOKE_EXPERIMENTS if run.args.smoke
                else reference.load(jobs))
    problems += [f"{k}: not run" for k in expected
                 if k not in result["seconds"]]
    problems += reference.check(result["outputs"], jobs)
    return problems


def prewarmed_cache(run) -> Path:
    """A cache directory filled by one untimed, checked cold pass.

    Kept in ``.perfbench/`` under the program's source digest, so later
    warm runs of the same code copy it instead of paying the cold pass
    again; a change under ``src/`` warms a new one.
    """
    tag = "smoke" if run.args.smoke else "full"
    target = run.base / f"prewarm-{tag}-{source_digest()}"
    if target.is_dir():
        return target
    cache = run.fresh_cache()
    problems = check_pass(run, regen_pass(run, cache), jobs=1)
    if problems:
        raise BenchError("pre-warm pass failed its checks:\n"
                         + "\n".join(problems[:20]))
    try:
        cache.rename(target)
    except OSError:             # another run installed it first
        if not target.is_dir():
            raise
    return target


def pass_metrics(result: dict) -> dict:
    done = list(result["done_s"].values())
    return {"wall_s": result["wall_s"],
            "peak_rss_mb": result["peak_rss_mb"],
            "capacity_rps": len(done) / result["wall_s"],
            "half_artifacts_s": nearest_rank(done, 0.50)}


def run_regen(run, workload: str) -> dict:
    jobs = 2 if workload == "regen_jobs2" else 1
    warm = workload == "regen_warm"
    template = prewarmed_cache(run) if warm else None
    tally = {"attempted": 0, "failed": 0, "problems": []}

    def one_pass(trace: bool = False) -> dict:
        result = regen_pass(run, run.fresh_cache(template), jobs=jobs,
                            trace=trace)
        bad = check_pass(run, result, jobs)
        tally["problems"] += bad
        tally["attempted"] += len(result["seconds"])
        tally["failed"] += len({p.split(":", 1)[0] for p in bad})
        return result

    if run.args.trace:
        untraced = one_pass()
        traced = one_pass(trace=True)
        overhead = 100.0 * (traced["wall_s"] / untraced["wall_s"] - 1.0)
        metrics = layers.derive(
            traced["trace"], wall_s=traced["traced_wall_s"],
            overhead_pct=overhead,
            extra={"setup.import_s": traced["import_s"],
                   "sampler.worker_peak_rss_mb":
                       traced["child_peak_rss_mb"] if jobs > 1 else 0.0})
        detail = {"passes": [{k: r[k] for k in ("setup_s", "wall_s",
                                                "peak_rss_mb")}
                             for r in (untraced, traced)]}
        return dict(tally, metrics=metrics, detail=detail)

    setups, per_pass, passes = [], [], []
    started = time.monotonic()
    # Warm passes take seconds: repeat them for --seconds and report
    # medians.  A cold pass alone outlasts --seconds, so it runs once.
    while not per_pass or (warm and time.monotonic() - started
                           < run.args.seconds):
        result = one_pass()
        setups.append(result["setup_s"])
        per_pass.append(pass_metrics(result))
        passes.append(dict(per_pass[-1], setup_s=result["setup_s"],
                           child_peak_rss_mb=result["child_peak_rss_mb"],
                           seconds=result["seconds"]))
    while len(setups) < SETUP_SAMPLES:
        setups.append(regen_pass(run, run.fresh_cache(),
                                 setup_only=True)["setup_s"])
    metrics = {name: statistics.median(p[name] for p in per_pass)
               for name in ("wall_s", "peak_rss_mb", "capacity_rps")}
    metrics["p50_ms"] = 1e3 * metrics["wall_s"]
    metrics["p99_ms"] = 1e3 * max(p["wall_s"] for p in per_pass)
    metrics["setup_s"] = statistics.median(setups)
    return dict(tally, metrics=metrics,
                detail={"passes": passes, "setup_samples": setups})
