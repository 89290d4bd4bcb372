"""Serve network-chaos smoke test (CI gate): bit parity under fire.

Boots the real serving CLI (``python -m repro.serve``) as a subprocess
with a deterministic fault plan that destroys or delays responses at
the transport (``conn_reset`` / ``slow_read`` / ``partial_write`` /
``garbled_response``) *and* poisons the first solver point
(``solver_nan``), then drives a serial sweep through
:class:`repro.serve.ResilientServeClient` — the retrying,
circuit-breaking client.  The gates:

* **bit parity** — every value the retrying client assembles must be
  byte-identical (``values_hex``) to a clean in-process reference: the
  scalar rescue bits for the poisoned point, invariant batch bits for
  every other point;
* **every fault fired** — the flight-recorder snapshot (archived as a
  CI artifact via ``--flight``) must carry one ``net_fault`` event per
  injected kind, and the client must have retried at least once;
* **nothing wedged** — ``/healthz`` reports an empty queue afterwards,
  and SIGTERM shutdown exits 0 with ``drained clean=True``.

Run directly::

    python scripts/serve_chaos_smoke.py --flight chaos-flight.json
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.chip_delay import ChipDelayEngine            # noqa: E402
from repro.devices.technology import get_technology          # noqa: E402
from repro.resilience import RetryPolicy                     # noqa: E402
from repro.serve import ResilientServeClient, ServeClient    # noqa: E402

import numpy as np                                           # noqa: E402

ARCH = dict(width=4, paths_per_lane=5, chain_length=10)
VDDS = [0.5, 0.52, 0.54, 0.56]

#: Request ordinals are assigned server-side in arrival order; the
#: serial client below makes them predictable: q0 is reset (retry hits
#: the memo at ordinal 1), q1 is ordinal 2, q2's response crawls out at
#: ordinal 3, q3's is truncated at ordinal 4 and garbled on the first
#: retry at ordinal 5 before succeeding at ordinal 6.
FAULT_SPEC = ("conn_reset:0,slow_read:3,partial_write:4,"
              "garbled_response:5,solver_nan:0")


def reference_hexes() -> list:
    """Clean in-process bits: Brent rescue for the poisoned first point,
    the batch solver for the rest."""
    engine = ChipDelayEngine(get_technology("22nm"), **ARCH)
    expected = [engine._brent_quantile(VDDS[0], 0.99, 0.0).hex()]
    batch = engine.chip_quantile_batch(
        np.asarray(VDDS[1:], dtype=float), 0.99, 0.0)
    return expected + [float(v).hex() for v in np.atleast_1d(batch)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--flight", type=Path,
                        default=Path("serve-chaos-flight.json"))
    args = parser.parse_args(argv)
    args.flight.parent.mkdir(parents=True, exist_ok=True)

    errors = []
    with tempfile.TemporaryDirectory() as cache_dir:
        env = dict(os.environ,
                   PYTHONPATH=str(REPO_ROOT / "src"),
                   REPRO_CACHE_DIR=cache_dir,
                   REPRO_FAULT_SLOW_S="0.05")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0",
             "--batch-window-ms", "1", "--flight-capacity", "256",
             "--inject-faults", FAULT_SPEC],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env, cwd=str(REPO_ROOT))
        try:
            line = proc.stdout.readline()
            if "listening on" not in line:
                proc.kill()
                _, stderr = proc.communicate()
                print(f"error: server failed to start: {line!r}\n{stderr}",
                      file=sys.stderr)
                return 1
            port = int(line.rsplit(":", 1)[1])
            print(f"ok: serve CLI up on port {port} with faults "
                  f"{FAULT_SPEC!r}")

            with ResilientServeClient(
                    "127.0.0.1", port, timeout=30,
                    policy=RetryPolicy(max_retries=3,
                                       backoff_base_s=0.01,
                                       backoff_cap_s=0.1)) as client:
                hexes = [client.query("22nm", vdd=v, **ARCH)
                         ["values_hex"][0] for v in VDDS]
                retries = client.retries
                health = client.health()
                snap = client.metrics()
                flight = client.flight()
            args.flight.write_text(
                json.dumps(flight, indent=2, sort_keys=True) + "\n",
                encoding="utf-8")

            expected = reference_hexes()
            if hexes != expected:
                errors.append(f"parity FAILED under chaos: served "
                              f"{hexes} != direct {expected}")
            else:
                print(f"ok: all {len(VDDS)} values bit-identical to the "
                      f"clean reference through {retries} client "
                      f"retries")
            if retries < 1:
                errors.append("client never retried: the fault plan "
                              "did not bite")
            counters = snap["counters"]
            for kind in ("conn_reset", "slow_read", "partial_write",
                         "garbled_response"):
                if counters.get(f"serve.net_fault.{kind}") != 1:
                    errors.append(f"fault {kind} did not fire exactly "
                                  f"once: {counters}")
            if counters.get("resilience.solver.fallback_scalar") != 1:
                errors.append("poisoned solve was not rescued by the "
                              "scalar fallback")
            net_events = [e for e in flight.get("events", [])
                          if e.get("kind") == "net_fault"]
            if len(net_events) != 4:
                errors.append(f"flight recorder saw {len(net_events)} "
                              f"net_fault events, expected 4")
            if health.get("queued"):
                errors.append(f"queue wedged: {health['queued']} points "
                              f"still pending after the sweep")
            if not errors:
                print(f"ok: {len(net_events)} net_fault flight events "
                      f"archived to {args.flight}, queue empty")

            proc.send_signal(signal.SIGTERM)
            stdout, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if proc.returncode != 0:
            errors.append(f"server exited {proc.returncode}:\n{stderr}")
        elif "drained clean=True" not in stdout:
            errors.append(f"shutdown did not drain clean:\n{stdout}")
        else:
            print("ok: SIGTERM shutdown drained clean")

    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
