"""Bare server entry point: ``python -m repro.serve [--port N] ...``.

A thin alias for ``python -m repro.experiments serve`` for deployments
that only need the server (no experiment registry import).  Flags mirror
the CLI target's serve group, including the telemetry set: ``--trace``
writes the request/batch/solve spans as Chrome trace JSON on shutdown,
``--metrics`` writes a run manifest (with the flight-recorder snapshot
attached), and the SLO/window/flight knobs configure the live gauges.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.errors import ConfigurationError
from repro.obs.manifest import build_manifest, cache_file_state, write_manifest
from repro.obs.trace import write_chrome_trace
from repro.resilience import parse_faults
from repro.runtime import build_runtime
from repro.serve.server import ServeConfig, run_server


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve sign-off quantile queries over JSON/HTTP.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8437)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for large batch solves")
    parser.add_argument("--max-batch", type=int, default=32)
    parser.add_argument("--batch-window-ms", type=float, default=2.0)
    parser.add_argument("--max-queue", type=int, default=1024)
    parser.add_argument("--deadline-ms", type=float, default=None)
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="write request/batch/solve spans as Chrome "
                             "trace JSON on shutdown")
    parser.add_argument("--metrics", metavar="FILE", default=None,
                        help="write the run manifest (metrics + flight "
                             "recorder) on shutdown")
    parser.add_argument("--window-s", type=float, default=60.0,
                        help="rolling window behind the live gauges")
    parser.add_argument("--slo-availability", type=float, default=0.999,
                        help="availability SLO target in (0, 1)")
    parser.add_argument("--slo-latency-ms", type=float, default=250.0,
                        help="latency SLO target (ms)")
    parser.add_argument("--flight-capacity", type=int, default=512,
                        help="flight-recorder ring size (0 disables)")
    parser.add_argument("--no-shed", action="store_true",
                        help="disable adaptive admission control (hard "
                             "max-queue 429s only)")
    parser.add_argument("--degraded-ratio", type=float, default=0.75,
                        help="queue saturation beyond which the server "
                             "answers cache-hit-only, in (0, 1]")
    parser.add_argument("--drain-timeout-s", type=float, default=30.0,
                        help="SIGTERM drain budget for in-flight solves")
    parser.add_argument("--inject-faults", default=None, metavar="SPEC",
                        help="deterministic fault plan for chaos testing "
                             "(e.g. solver_nan:0 or conn_reset:1)")
    args = parser.parse_args(argv)
    try:
        config = ServeConfig(
            host=args.host, port=args.port, max_batch=args.max_batch,
            batch_window_ms=args.batch_window_ms, max_queue=args.max_queue,
            deadline_ms=args.deadline_ms, window_s=args.window_s,
            slo_availability=args.slo_availability,
            slo_latency_ms=args.slo_latency_ms,
            flight_capacity=args.flight_capacity,
            shed=not args.no_shed, degraded_ratio=args.degraded_ratio,
            drain_timeout_s=args.drain_timeout_s)
        runtime = build_runtime(jobs=args.jobs, metrics=True,
                                trace=bool(args.trace),
                                faults=parse_faults(args.inject_faults))
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cache_before = cache_file_state()
    t0 = time.perf_counter()
    try:
        summary = run_server(config, runtime)
        if args.trace:
            write_chrome_trace(args.trace, runtime.obs.tracer)
        if args.metrics:
            write_manifest(args.metrics, build_manifest(
                targets=["serve"], fast=False, jobs=args.jobs,
                root_seed=0, profiler=runtime.profiler,
                metrics=runtime.obs.metrics, cache_before=cache_before,
                cache_after=cache_file_state(),
                elapsed_wall_s=time.perf_counter() - t0,
                trace_file=args.trace, faults=args.inject_faults,
                resilience=runtime.ledger.as_dict(),
                flight=summary.get("flight")))
    finally:
        runtime.close()
    print(f"[serve] handled {summary['requests']} requests, "
          f"coalesce ratio {summary['coalesce_ratio']:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
