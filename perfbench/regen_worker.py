"""One regeneration pass in a fresh interpreter (spawned by ``run.py``).

Usage::

    python3 perfbench/regen_worker.py --out FILE --spawned-at T
        [--jobs N] [--trace] [--setup-only] [--only ID,ID,...]

``--spawned-at`` is the parent's ``time.monotonic()`` just before the
spawn, so ``setup_s`` covers interpreter start, imports and registry
loading up to the return of ``list_experiments()``.  The pass then runs
every experiment with ``fast=True`` under ``build_runtime(jobs=N)`` and
renders it, as ``python -m repro.experiments all --fast`` does.  The
result is written to ``FILE`` as JSON: setup time, per-experiment run
and completion times, peak RSS, each experiment's flattened output and,
with ``--trace``, spans and the program's metrics registry.  The parent
checks the outputs against the reference.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--only", default=None)
    args = parser.parse_args(argv)

    import_start = time.perf_counter()
    from repro.experiments.registry import list_experiments, run_experiment
    catalogue = list_experiments()
    setup_s = time.monotonic() - args.spawned_at
    import_s = time.perf_counter() - import_start
    out = {"setup_s": setup_s, "import_s": import_s}
    if args.setup_only:
        with open(args.out, "w") as fh:
            json.dump(out, fh)
        return 0

    import reference
    from repro.runtime import build_runtime

    ids = [e.experiment_id for e in catalogue]
    if args.only:
        ids = [i for i in ids if i in args.only.split(",")]
    recorder = None
    if args.trace:
        from spans import SpanRecorder
        recorder = SpanRecorder().install()

    results, seconds, done_s, errors = {}, {}, {}, {}
    start = time.perf_counter()
    runtime = build_runtime(jobs=args.jobs, metrics=args.trace)
    try:
        for experiment_id in ids:
            run = run_experiment
            if recorder is not None:
                run = recorder.span(f"experiments.{experiment_id}",
                                    run_experiment)
            t0 = time.perf_counter()
            try:
                result = run(experiment_id, fast=True, runtime=runtime)
                result.render()
            except Exception:           # one failed artifact, keep going
                errors[experiment_id] = traceback.format_exc(limit=5)
            else:
                results[experiment_id] = result
            seconds[experiment_id] = time.perf_counter() - t0
            done_s[experiment_id] = time.perf_counter() - start
    finally:
        runtime.close()
    wall_s = time.perf_counter() - start

    out.update(
        wall_s=wall_s,
        traced_wall_s=time.monotonic() - args.spawned_at,
        seconds=seconds,
        done_s=done_s,
        errors=errors,
        peak_rss_mb=_peak_rss_mb(resource.RUSAGE_SELF),
        child_peak_rss_mb=_peak_rss_mb(resource.RUSAGE_CHILDREN),
        outputs={k: reference.flatten(r.data) for k, r in results.items()})
    if recorder is not None:
        cache_file = os.path.join(os.environ["REPRO_CACHE_DIR"],
                                  "quantiles.json")
        out["trace"] = dict(
            recorder.export(),
            metrics=runtime.obs.metrics.as_dict(),
            cache_file_bytes=(os.path.getsize(cache_file)
                              if os.path.exists(cache_file) else 0))
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
