"""CLI for the experiment registry (``python -m repro.experiments``).

Supports the parallel runtime and observability layers:

* ``--jobs N`` — for a single experiment, sampling shards and batched
  quantile solves fan out across ``N`` worker processes; for ``all``,
  whole experiments are dispatched across the pool so independent
  artifacts regenerate concurrently.
* ``--profile`` — print the run's span aggregate after the run: one row
  per span name sorted by self time (calls, self and inclusive seconds,
  samples/s), a roll-up by layer (the name's prefix before the first
  ``.``), and a ``self total X s of wall Y s`` line, followed by the
  metrics registry (cache hits/misses, kernel-LRU economics, solver
  fallbacks).
* ``--trace FILE`` — write a Chrome trace-event JSON timeline of the
  run's spans, including spans executed inside pool workers; open it at
  https://ui.perfetto.dev.
* ``--metrics FILE`` — write a run manifest (root seed, card
  fingerprints, versions, cache state before/after, the span aggregate
  as ``stages``, metrics snapshot, fault/recovery ledger) for
  bit-reproducibility provenance.

Resilience controls: ``--shard-timeout SECONDS`` and ``--max-retries N``
tune the sampler's fault-tolerant dispatcher, and ``--inject-faults
SPEC`` runs the deterministic fault lab (e.g. ``worker_crash:1`` — see
:mod:`repro.resilience.faultlab` for the grammar).

Every target, ``serve`` included, runs inside one ``cli.run`` span, and
one wrapper writes the trace, the manifest and the profile.
``python -m repro.serve`` is an alias for ``python -m repro.experiments
serve`` that accepts exactly the same flags.
"""

from __future__ import annotations

import argparse
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from repro.errors import ConfigurationError, ShardExecutionError
from repro.experiments.registry import list_experiments, run_experiment
from repro.obs.api import Observability
from repro.obs.manifest import build_manifest, cache_file_state, write_manifest
from repro.obs.trace import write_chrome_trace
from repro.resilience import RetryPolicy, parse_faults
from repro.runtime import build_runtime

#: The registry's default sampling root seed (experiments are seeded,
#: not randomised); recorded in the run manifest.
ROOT_SEED = 0


def _run_remote(payload: tuple) -> tuple:
    """Run one experiment inside a pool worker; returns rendered text.

    ``obs_ctx`` is the parent's :meth:`Observability.worker_context`:
    ``None`` when the parent collects nothing, and the experiment then
    runs with no active runtime at all.  Otherwise the worker runs a
    serial runtime on the rebuilt context (same trace id, parented under
    the dispatching ``cli.run`` span) and hands its
    :meth:`Observability.export` back for the parent to merge.
    """
    experiment_id, fast, obs_ctx = payload
    start = time.perf_counter()
    if not obs_ctx:
        result = run_experiment(experiment_id, fast=fast)
        return (experiment_id, result.render(),
                time.perf_counter() - start, {})
    runtime = build_runtime(jobs=1)
    runtime.obs = Observability.for_worker(obs_ctx)
    result = run_experiment(experiment_id, fast=fast, runtime=runtime)
    return (experiment_id, result.render(), time.perf_counter() - start,
            runtime.obs.export())


def _run_all_parallel(targets: list, fast: bool, runtime) -> None:
    """Regenerate every experiment concurrently, printing in catalogue order."""
    obs = runtime.obs
    ctx = obs.worker_context()
    with ProcessPoolExecutor(max_workers=runtime.jobs) as pool:
        for experiment_id, rendered, elapsed, obs_snap in pool.map(
                _run_remote, [(t, fast, ctx) for t in targets]):
            obs.merge_export(obs_snap)
            print(rendered)
            print(f"\n[{experiment_id} completed in {elapsed:.1f} s]\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's figures and tables.")
    parser.add_argument("target",
                        help="experiment id (fig1..fig12, table1..table4), "
                             "'list', 'all', or 'serve' (long-lived "
                             "sign-off query server)")
    parser.add_argument("--fast", action="store_true",
                        help="reduced sample counts (quick look)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for sampling shards and "
                             "quantile solves (and, with 'all', whole "
                             "experiments); default 1")
    parser.add_argument("--profile", action="store_true",
                        help="print the span profile (self time per span "
                             "and per layer) and the metrics registry")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="write a Chrome trace-event JSON timeline "
                             "(open in Perfetto: https://ui.perfetto.dev)")
    parser.add_argument("--metrics", metavar="FILE", default=None,
                        help="write a JSON run manifest (seed, card "
                             "fingerprints, cache state, span stages, "
                             "metrics snapshot, fault ledger)")
    parser.add_argument("--shard-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="hung-worker progress deadline: if no shard "
                             "completes for this long the pool is "
                             "re-spawned and the work reassigned "
                             "(default 300)")
    parser.add_argument("--max-retries", type=int, default=None, metavar="N",
                        help="retries per failed shard before the run "
                             "aborts with a ShardExecutionError "
                             "(default 2)")
    parser.add_argument("--inject-faults", metavar="SPEC", default=None,
                        help="deterministic fault injection, e.g. "
                             "'worker_crash:1,cache_corrupt:0' "
                             "(KIND:TARGET[:COUNT], comma-separated)")
    serve_group = parser.add_argument_group(
        "serve", "options for the 'serve' target "
                 "(python -m repro.experiments serve --port 8437)")
    serve_group.add_argument("--host", default="127.0.0.1",
                             help="bind address (default 127.0.0.1)")
    serve_group.add_argument("--port", type=int, default=8437,
                             help="bind port; 0 picks a free port and "
                                  "announces it on stdout (default 8437)")
    serve_group.add_argument("--max-batch", type=int, default=32, metavar="N",
                             help="flush a coalescing bucket at N points "
                                  "(default 32)")
    serve_group.add_argument("--batch-window-ms", type=float, default=2.0,
                             metavar="MS",
                             help="max time a query waits to coalesce with "
                                  "others before its batch is dispatched "
                                  "(default 2.0)")
    serve_group.add_argument("--max-queue", type=int, default=1024,
                             metavar="N",
                             help="pending-point bound before requests are "
                                  "rejected with HTTP 429 (default 1024)")
    serve_group.add_argument("--deadline-ms", type=float, default=None,
                             metavar="MS",
                             help="per-request deadline (HTTP 408 on "
                                  "expiry); defaults to the shard timeout")
    serve_group.add_argument("--window-s", type=float, default=60.0,
                             metavar="S",
                             help="rolling window behind the live gauges "
                                  "(p50/p99/QPS/error rate; default 60)")
    serve_group.add_argument("--slo-availability", type=float, default=0.999,
                             metavar="FRAC",
                             help="availability SLO target in (0, 1) for "
                                  "the burn-rate gauges (default 0.999)")
    serve_group.add_argument("--slo-latency-ms", type=float, default=250.0,
                             metavar="MS",
                             help="latency SLO target for the burn-rate "
                                  "gauges (default 250)")
    serve_group.add_argument("--flight-capacity", type=int, default=512,
                             metavar="N",
                             help="flight-recorder ring size; 0 disables "
                                  "(default 512)")
    serve_group.add_argument("--no-shed", action="store_true",
                             help="disable adaptive admission control "
                                  "(hard max-queue 429s only)")
    serve_group.add_argument("--degraded-ratio", type=float, default=0.75,
                             metavar="R",
                             help="queue saturation beyond which the "
                                  "server answers cache-hit-only, in "
                                  "(0, 1] (default 0.75)")
    serve_group.add_argument("--drain-timeout-s", type=float, default=30.0,
                             metavar="S",
                             help="SIGTERM drain budget for in-flight "
                                  "solves (default 30)")
    parser.add_argument("--tail-q", type=float, default=None, metavar="Q",
                        help="target quantile for the 'tail' experiment, "
                             "in (0, 1) (default 0.9999)")
    parser.add_argument("--tail-samples", type=int, default=None,
                        metavar="N",
                        help="weighted sample count for the 'tail' "
                             "experiment (>= 2; default 4096)")
    parser.add_argument("--mc-precision", choices=("float64", "float32"),
                        default="float64",
                        help="Monte-Carlo kernel dtype policy: float64 "
                             "(default, bit-exact reference) or float32 "
                             "(~2x bandwidth for validation sweeps)")
    args = parser.parse_args(argv)

    if args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2

    if args.target == "list":
        for exp in list_experiments():
            print(f"{exp.experiment_id:<8s} {exp.title}  [{exp.paper_ref}]")
        return 0

    try:
        if args.tail_q is not None or args.tail_samples is not None:
            from repro.experiments import tail as tail_experiment

            tail_experiment.configure(q=args.tail_q,
                                      n_samples=args.tail_samples)
        retry_kwargs = {}
        if args.shard_timeout is not None:
            retry_kwargs["shard_timeout_s"] = args.shard_timeout
        if args.max_retries is not None:
            retry_kwargs["max_retries"] = args.max_retries
        retry = RetryPolicy(**retry_kwargs) if retry_kwargs else None
        faults = parse_faults(args.inject_faults)
        runtime = build_runtime(jobs=args.jobs, trace=bool(args.trace),
                                metrics=bool(args.metrics or args.profile),
                                retry=retry, faults=faults,
                                precision=args.mc_precision)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cache_before = cache_file_state() if args.metrics else None
    flight_snapshot = None
    run_start = time.perf_counter()
    try:
        targets = ([e.experiment_id for e in list_experiments()]
                   if args.target == "all" else [args.target])
        with runtime.obs.tracer.span("cli.run", target=args.target,
                                     jobs=args.jobs, fast=args.fast):
            if args.target == "serve":
                from repro.serve import ServeConfig, run_server

                config = ServeConfig(
                    host=args.host, port=args.port,
                    max_batch=args.max_batch,
                    batch_window_ms=args.batch_window_ms,
                    max_queue=args.max_queue,
                    deadline_ms=args.deadline_ms,
                    window_s=args.window_s,
                    slo_availability=args.slo_availability,
                    slo_latency_ms=args.slo_latency_ms,
                    flight_capacity=args.flight_capacity,
                    shed=not args.no_shed,
                    degraded_ratio=args.degraded_ratio,
                    drain_timeout_s=args.drain_timeout_s)
                summary = run_server(config, runtime)
                flight_snapshot = summary.get("flight")
                print(f"[serve] handled {summary['requests']} requests, "
                      f"coalesce ratio {summary['coalesce_ratio']:.2f}")
            elif args.target == "all" and runtime.jobs > 1:
                _run_all_parallel(targets, args.fast, runtime)
            else:
                for target in targets:
                    start = time.perf_counter()
                    result = run_experiment(target, fast=args.fast,
                                            runtime=runtime)
                    elapsed = time.perf_counter() - start
                    print(result.render())
                    print(f"\n[{target} completed in {elapsed:.1f} s]\n")
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ShardExecutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        runtime.close()
    elapsed_wall_s = time.perf_counter() - run_start

    if args.profile:
        print(runtime.obs.tracer.stats.render(wall_s=elapsed_wall_s))
        if len(runtime.obs.metrics):
            print()
            print(runtime.obs.metrics.render())
        if len(runtime.ledger):
            print()
            print(runtime.ledger.render())
    if args.trace:
        write_chrome_trace(args.trace, runtime.obs.tracer)
        print(f"[trace written to {args.trace} — open in "
              f"https://ui.perfetto.dev]", file=sys.stderr)
    if args.metrics:
        manifest = build_manifest(
            targets=targets, fast=args.fast, jobs=runtime.jobs,
            root_seed=ROOT_SEED, stages=runtime.obs.tracer.stats.as_dict(),
            metrics=runtime.obs.metrics, cache_before=cache_before,
            cache_after=cache_file_state(), elapsed_wall_s=elapsed_wall_s,
            trace_file=args.trace, resilience=runtime.ledger.as_dict(),
            faults=args.inject_faults,
            flight=flight_snapshot)
        write_manifest(args.metrics, manifest)
        print(f"[run manifest written to {args.metrics}]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
