"""Self-test of the benchmark at smoke size (about a minute on 2 cores).

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Each test runs ``perfbench/run.py`` from a repository root, with
``--smoke`` (a few experiments) or a one-second serve mix, and checks the
result line against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd: Path = ROOT, timeout: float = 170):
    """Run the benchmark; ``(exit code, stdout, parsed last line)``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1",
         *args], cwd=cwd, capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, proc.stdout + proc.stderr, result


def assert_metrics(result: dict, spec_metrics: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    want = {m["name"]: m["unit"] for m in spec_metrics}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_end_to_end_metric_is_emitted(workload):
    extra = [] if workload == "serve_mixed" else ["--smoke"]
    rc, out, result = bench("--workload", workload, "--trace", "0", *extra)
    assert rc == 0, out
    assert_metrics(result, SPEC["end_to_end"])
    assert result["correct"] and result["failed"] == 0
    for m in result["metrics"].values():
        assert m["value"] > 0


@pytest.mark.parametrize("workload", ["regen_cold", "serve_mixed"])
def test_traced_run_emits_every_per_layer_metric(workload):
    extra = [] if workload == "serve_mixed" else ["--smoke"]
    rc, out, result = bench("--workload", workload, "--trace", "1", *extra)
    assert rc == 0, out
    assert_metrics(result, SPEC["per_layer"])
    values = {k: m["value"] for k, m in result["metrics"].items()}
    # Overlapping spans on concurrent threads would attribute more than
    # the wall time.
    assert values["trace.unattributed_s"] >= 0
    if workload == "regen_cold":
        # Nearly all of a regeneration is inside the experiment spans.
        assert values["trace.unattributed_s"] < 0.25 * values["trace.wall_s"]
        assert values["experiments.fig4.s"] > 0
        assert values["solver.scalar.calls"] > 0
    else:
        assert values["serve.batches"] > 0
        assert values["solver.batch.points"] > 0


def copy_benchmark(tmp_path: Path) -> None:
    """``BENCHMARK.json`` and ``perfbench/`` alone, under ``tmp_path``."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))


def test_corrupted_reference_fails_the_run(tmp_path):
    copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    path = tmp_path / "perfbench" / "reference" / "regen_jobs1.json"
    data = json.loads(path.read_text())
    data["fig4"]["90nm.0.5"] *= 1.001          # a deterministic value
    path.write_text(json.dumps(data))
    rc, out, result = bench("--workload", "regen_cold", "--trace", "0",
                            "--smoke", cwd=tmp_path)
    assert rc != 0
    assert result is not None and result["correct"] is False
    assert "fig4:90nm.0.5" in out


def test_serve_check_flags_each_tampered_response():
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    import numpy as np
    import serve_load
    from repro.core.chip_delay import ChipDelayEngine
    from repro.devices.technology import get_technology

    def solve(node, vdds):
        engine = ChipDelayEngine(get_technology(node), **serve_load.ARCH)
        values = engine.chip_quantile_batch(np.array(vdds), serve_load.Q,
                                            0.0, cluster=False)
        return [float(v).hex() for v in np.atleast_1d(values).tolist()]

    hot = ("hot", "90nm", [0.7])
    batch = ("batch", "45nm", [0.5, 0.55, 0.6])
    good_hot, good_batch = solve("90nm", hot[2]), solve("45nm", batch[2])
    tampered_hot = [math.nextafter(float.fromhex(good_hot[0]),
                                   math.inf).hex()]
    answered = [(hot, good_hot), (hot, tampered_hot), (hot, good_hot),
                (batch, good_batch), (batch, good_batch[:2])]
    # The tampered answer is not the last one for its point, and the
    # short batch matches on every value it has.
    assert set(serve_load.verify(answered)) == {1, 4}


def test_without_program_sources_exits_nonzero_without_result(tmp_path):
    copy_benchmark(tmp_path)
    rc, out, result = bench("--workload", "regen_cold", "--trace", "0",
                            cwd=tmp_path, timeout=60)
    assert rc != 0
    assert result is None
