"""Shared pieces of the benchmark: paths, child processes, scratch space."""

from __future__ import annotations

import contextlib
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: A run must end within this budget, whatever ``--seconds`` says.
RUN_BUDGET_S = 170.0

#: Setup samples per timed run; the median is reported.
SETUP_SAMPLES = 3

#: Experiments of the ``--smoke`` regeneration (the self-test size).
SMOKE_EXPERIMENTS = ("fig2", "fig3", "fig4", "fig9", "fig12")


class BenchError(RuntimeError):
    """The benchmark could not run (exit code 2)."""


def nearest_rank(values, q: float) -> float:
    """The ``q`` quantile by nearest rank (``values`` non-empty)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def child_env(cache_dir: Path) -> dict:
    """Environment of a program process: this checkout, its own cache.

    ``PYTHONPATH`` puts this checkout's ``src`` and the benchmark's own
    directory first; ``REPRO_CACHE_DISABLE`` is dropped so the cache
    layer is always exercised, and never in ``~/.cache/repro``.
    """
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(HERE)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env.pop("REPRO_CACHE_DISABLE", None)
    return env


def wait_or_kill(proc: subprocess.Popen, timeout: float, what: str) -> int:
    """``proc``'s exit code; kill its whole session after ``timeout``."""
    try:
        return proc.wait(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"{what} did not finish in time") from None


class Run:
    """One benchmark invocation: options, scratch directory, deadline.

    Scratch space lives in ``.perfbench/`` at the repository root (the
    pre-warmed cache of ``regen_warm`` is kept there between runs); the
    run's own directory is deleted by :meth:`close`.
    """

    def __init__(self, args) -> None:
        self.args = args
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.base = ROOT / ".perfbench"
        self.base.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="run-", dir=self.base))
        self._n = 0

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def path(self, stem: str) -> Path:
        self._n += 1
        return self.dir / f"{self._n:03d}-{stem}"

    def fresh_cache(self, template: Path | None = None) -> Path:
        cache = self.path("cache")
        if template is None:
            cache.mkdir()
        else:
            shutil.copytree(template, cache)
        return cache

    def python(self, script: str, args, cache: Path) -> None:
        """Run ``perfbench/<script>`` with ``args`` in a fresh interpreter.

        ``--spawned-at`` (this process's ``time.monotonic()`` just before
        the spawn) is appended, so the child can time its own setup from
        the moment it was spawned.
        """
        log = self.path(f"{Path(script).stem}.log")
        env = child_env(cache)
        with open(log, "wb") as fh:
            cmd = [sys.executable, str(HERE / script), *args,
                   "--spawned-at", repr(time.monotonic())]
            proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=fh,
                                    stderr=subprocess.STDOUT,
                                    start_new_session=True)
            rc = wait_or_kill(proc, self.remaining(), script)
        if rc != 0:
            tail = log.read_text(errors="replace")[-2000:]
            raise BenchError(f"{script} exited {rc}:\n{tail}")

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
