"""Chaos smoke test (CI gate): crash recovery must not change a single bit.

Runs the paper's fig4 sweep twice — a fault-free serial baseline, then a
two-worker run with an injected worker crash — and requires the recovered
run's full result arrays to be *exactly* equal to the baseline (the
runtime's bit-reproducibility contract extends through the recovery
ladder).  Also round-trips the persistent quantile cache's journal through a
bit-flip and a torn append: the corrupt line must be quarantined,
counted and recomputed, never crash the run.

Writes the chaos run's manifest (``--manifest FILE``, default
``chaos-manifest.json``) so CI can validate and archive it::

    python scripts/chaos_smoke.py --manifest chaos-manifest.json
    python scripts/validate_obs.py --manifest chaos-manifest.json \
        --expect-fault-events pool_respawn
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.registry import get_analyzer, run_experiment  # noqa: E402
from repro.obs.manifest import (                                     # noqa: E402
    build_manifest,
    cache_file_state,
    validate_schema,
    MANIFEST_SCHEMA,
)
from repro.resilience import parse_faults                            # noqa: E402
from repro.runtime import QuantileCache, build_runtime               # noqa: E402

FAULT_SPEC = "worker_crash:1"


def _fig4(jobs: int, faults: str | None, cache_dir: str):
    """One isolated fig4 run: fresh cache dir, fresh analyzer memos."""
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    get_analyzer.cache_clear()
    runtime = build_runtime(jobs=jobs, metrics=True,
                            faults=parse_faults(faults))
    try:
        result = run_experiment("fig4", fast=True, runtime=runtime)
    finally:
        runtime.close()
    return result, runtime


def check_crash_recovery(manifest_path: str) -> list:
    errors = []
    with tempfile.TemporaryDirectory() as base_dir:
        baseline, _ = _fig4(1, None, os.path.join(base_dir, "baseline"))
        cache_before = cache_file_state()
        start = time.perf_counter()
        chaos, runtime = _fig4(2, FAULT_SPEC, os.path.join(base_dir, "chaos"))
        elapsed = time.perf_counter() - start
        cache_after = cache_file_state()
        get_analyzer.cache_clear()

    if baseline.data != chaos.data:
        for node in baseline.data:
            if baseline.data[node] != chaos.data.get(node):
                errors.append(f"fig4 {node}: recovered run diverged from "
                              f"the fault-free baseline")
    else:
        points = sum(len(col) for col in baseline.data.values())
        print(f"ok: fig4 under {FAULT_SPEC!r} bit-identical to the serial "
              f"baseline ({points} points)")

    counts = runtime.ledger.counts()
    if counts.get("pool_respawn", 0) < 1:
        errors.append(f"chaos run recorded no pool_respawn event "
                      f"(ledger: {counts or 'empty'}) — the injected crash "
                      f"did not exercise the recovery path")
    else:
        print(f"ok: recovery ledger {counts}")

    manifest = build_manifest(
        targets=["fig4"], fast=True, jobs=2, root_seed=0,
        stages=runtime.obs.tracer.stats.as_dict(),
        metrics=runtime.obs.metrics,
        cache_before=cache_before, cache_after=cache_after,
        elapsed_wall_s=elapsed, resilience=runtime.ledger.as_dict(),
        faults=FAULT_SPEC)
    errors += validate_schema(manifest, MANIFEST_SCHEMA)
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"ok: chaos manifest written to {manifest_path}")
    return errors


def check_cache_roundtrip() -> list:
    errors = []
    with tempfile.TemporaryDirectory() as cache_dir:
        path = os.path.join(cache_dir, "quantiles.json")
        cache = QuantileCache(path=path, enabled=True)
        cache.put_many([("point:a", 1.5e-9), ("point:b", 2.5e-9)])

        # The journal: a header line, then one [key, hex, crc32] per line.
        header, *lines = Path(path).read_text(encoding="utf-8").splitlines()
        records = sorted(json.loads(line) for line in lines)
        records[0][1] = "0x1.badp-30"                   # bit-flip the value
        Path(path).write_text("".join(
            line + "\n" for line in
            [header] + [json.dumps(rec) for rec in records]),
            encoding="utf-8")

        reread = QuantileCache(path=path, enabled=True)
        values = reread.get_many(["point:a", "point:b"])
        if values[0] is not None:
            errors.append("corrupted cache entry was served instead of "
                          "quarantined")
        if values[1] != 2.5e-9:
            errors.append("intact cache entry lost after quarantine")
        if reread.quarantined != 1:
            errors.append(f"expected 1 quarantined entry, "
                          f"counted {reread.quarantined}")

        reread.put_many([("point:a", 1.5e-9)])          # recompute + rewrite
        final = QuantileCache(path=path, enabled=True)
        if final.get_many(["point:a", "point:b"]) != [1.5e-9, 2.5e-9]:
            errors.append("cache did not recover after recomputing the "
                          "quarantined entry")
        if final.quarantined:
            errors.append("rewritten cache still contains corrupt entries")

        # A writer killed mid-append leaves a torn tail line.
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('["point:c", "0x1.8p-3')
        torn = QuantileCache(path=path, enabled=True)
        if torn.get_many(["point:a", "point:b", "point:c"]) != [
                1.5e-9, 2.5e-9, None]:
            errors.append("torn tail line cost an intact entry or was "
                          "served")
        if torn.quarantined != 1:
            errors.append(f"expected the torn tail line quarantined, "
                          f"counted {torn.quarantined}")
        torn.put_many([("point:c", 3.5e-9)])
        healed = QuantileCache(path=path, enabled=True)
        if healed.get_many(["point:a", "point:b", "point:c"]) != [
                1.5e-9, 2.5e-9, 3.5e-9] or healed.quarantined:
            errors.append("cache did not recover after a torn append")

        Path(path).write_text('{"version": 3', encoding="utf-8")
        truncated = QuantileCache(path=path, enabled=True)
        if truncated.get_many(["point:a"]) != [None]:
            errors.append("truncated cache file did not read as empty")
        if not os.path.exists(path + ".quarantined"):
            errors.append("truncated cache file was not moved aside")
    if not errors:
        print("ok: corrupt cache entries quarantined and recomputed; "
              "torn tail line quarantined and healed; "
              "truncated file quarantined whole")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--manifest", default="chaos-manifest.json",
                        help="where to write the chaos run's manifest")
    args = parser.parse_args(argv)

    previous = os.environ.get("REPRO_CACHE_DIR")
    try:
        errors = check_crash_recovery(args.manifest)
        errors += check_cache_roundtrip()
    finally:
        if previous is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = previous
        get_analyzer.cache_clear()
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
