"""Traced sign-off server: install the benchmark's spans, then serve.

Usage::

    python3 perfbench/serve_launcher.py --spans-out FILE --spawned-at T

Mirrors ``python -m repro.experiments serve --port 0`` (a serial runtime
and the default :class:`~repro.serve.ServeConfig`) with the span
wrappers of ``spans.py`` installed first.  On SIGTERM the server drains
as usual and the launcher writes the span aggregates, the runtime's
metrics registry, its import time and its wall time to ``FILE``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    from repro.runtime import build_runtime
    from repro.serve import ServeConfig, run_server
    from spans import SpanRecorder

    recorder = SpanRecorder().install()
    import_s = time.perf_counter() - start
    runtime = build_runtime(jobs=1, metrics=True)
    try:
        summary = run_server(ServeConfig(port=0), runtime)
    finally:
        runtime.close()
    cache_file = os.path.join(os.environ["REPRO_CACHE_DIR"],
                              "quantiles.json")
    with open(args.spans_out, "w") as fh:
        json.dump(dict(recorder.export(),
                       metrics=runtime.obs.metrics.as_dict(),
                       cache_file_bytes=(os.path.getsize(cache_file)
                                         if os.path.exists(cache_file)
                                         else 0),
                       import_s=import_s,
                       traced_wall_s=time.monotonic() - args.spawned_at,
                       requests=summary["requests"]), fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
