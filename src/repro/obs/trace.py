"""Hierarchical span tracing with Chrome trace-event export.

:class:`Tracer` collects *complete* trace events (``ph: "X"``): each
:meth:`Tracer.span` block becomes one event with a wall-clock timestamp,
a monotonic duration, the process/thread ids and arbitrary attributes.
Spans nest — the tracer keeps a per-context stack (a
:class:`contextvars.ContextVar`, so concurrent threads *and* concurrent
asyncio tasks each see their own ancestry), and a span opened inside
another records its parent's id.

Distributed traces: a span may be opened under an explicit ``ctx=(
trace_id, parent_span_id)`` handed over a process or network boundary —
the span and everything nested inside it (including
:meth:`Observability.worker_context` payloads built there) then carry
the *remote* trace id instead of this tracer's own.  This is how one
serving request stays a single connected trace from the client's minted
id through the server, the batching dispatcher and the pool workers.
Fan-in points (a batch solve serving many coalesced requests) record
``links`` — the list of joined request spans — via :meth:`Tracer.span`'s
``links`` argument or :meth:`Tracer.add_span`.

Cross-process traces: a parent tracer's ``(trace_id, current span id)``
travel to a :class:`~concurrent.futures.ProcessPoolExecutor` worker inside
its task payload; the worker runs a fresh ``Tracer(trace_id=...,
parent=...)``, and its finished events come back with the shard result for
:meth:`Tracer.absorb` — worker events keep their own ``pid``, so Perfetto
shows one track per worker process.

Timestamps use ``time.time()`` (shared across processes) in microseconds,
the Chrome trace-event unit; durations use ``time.perf_counter()``.

Every real tracer also folds each finished span into :class:`SpanStats`,
a bounded per-name aggregate of calls, inclusive time, self time
(duration minus direct children) and samples.  That aggregate is what
``--profile`` renders and the run manifest's ``stages`` embeds; a tracer
built with ``events=False`` keeps only the aggregate, no Chrome events.
Self times telescope: their sum equals the summed duration of the
outermost spans, so on a serial run they add up to the wall clock.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar

__all__ = ["SpanStats", "Tracer", "NOOP_TRACER", "write_chrome_trace"]

_NULL_CM = nullcontext()

#: Per-process tracer sequence number, part of every span id.  Two live
#: tracers in one process (a serve client and its in-process test server,
#: two servers, ...) must never mint colliding span ids — a collision
#: corrupts parent chains when their events land in the same trace.
_TRACER_SEQ = itertools.count()


class SpanStats:
    """Per-name span aggregate: calls, inclusive and self time, samples.

    ``inclusive_s`` counts outermost calls of a name only, so recursion
    is not counted twice; ``self_s`` is each call's duration minus its
    direct children's.  Memory is bounded by :attr:`MAX_NAMES`: names
    beyond it fold into one ``(other)`` row.
    """

    MAX_NAMES = 512
    _FIELDS = ("calls", "inclusive_s", "self_s", "samples")

    def __init__(self) -> None:
        self._rows: dict = {}
        self._lock = threading.Lock()

    def _row(self, name: str) -> list:
        row = self._rows.get(name)
        if row is None:
            if len(self._rows) >= self.MAX_NAMES:
                name = "(other)"
            row = self._rows.setdefault(name, [0, 0.0, 0.0, 0])
        return row

    def record(self, name: str, dur_s: float, self_s: float,
               samples: int = 0, outermost: bool = True) -> None:
        """Fold one finished span into row ``name``."""
        with self._lock:
            row = self._row(name)
            row[0] += 1
            if outermost:
                row[1] += dur_s
            row[2] += self_s
            row[3] += int(samples)

    def as_dict(self) -> dict:
        """Serialisable snapshot (worker hand-back, manifest ``stages``)."""
        with self._lock:
            return {name: dict(zip(self._FIELDS, row))
                    for name, row in self._rows.items()}

    def merge(self, snapshot: dict | None) -> None:
        """Fold an :meth:`as_dict` snapshot (e.g. from a worker) in."""
        with self._lock:
            for name, rec in (snapshot or {}).items():
                row = self._row(name)
                for i, key in enumerate(self._FIELDS):
                    row[i] += rec[key]

    def __len__(self) -> int:
        return len(self._rows)

    def render(self, wall_s: float | None = None) -> str:
        """The ``--profile`` report: rows by self time, then layers.

        The layer roll-up sums self time by name prefix (text before the
        first ``.``); the last line compares the self total with
        ``wall_s``, the run's measured wall clock.
        """
        snap = sorted(self.as_dict().items(),
                      key=lambda kv: (-kv[1]["self_s"], kv[0]))
        total = sum(rec["self_s"] for _, rec in snap)
        rows = [("span", "calls", "self (s)", "incl (s)", "samples",
                 "samples/s")]
        layers: dict = {}
        for name, rec in snap:
            incl = rec["inclusive_s"]
            rate = (f"{rec['samples'] / incl:.0f}"
                    if rec["samples"] and incl > 0 else "-")
            rows.append((name, str(rec["calls"]), f"{rec['self_s']:.3f}",
                         f"{incl:.3f}", str(rec["samples"]), rate))
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + rec["self_s"]
        lines = ["runtime profile", "---------------", *_table(rows), "",
                 "by layer (self time)", "--------------------"]
        lines += _table([("layer", "self (s)", "share")] + [
            (layer, f"{s:.3f}",
             f"{100.0 * s / total:.1f}%" if total > 0 else "-")
            for layer, s in sorted(layers.items(), key=lambda kv: -kv[1])])
        wall = f"{wall_s:.3f} s" if wall_s is not None else "-"
        lines += ["", f"self total {total:.3f} s of wall {wall}"]
        return "\n".join(lines)


def _table(rows: list) -> list:
    """Aligned text lines: first column left, the rest right-justified."""
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(c.ljust(w) if j == 0 else c.rjust(w)
                               for j, (c, w) in enumerate(zip(row, widths))))
        if i == 0:
            lines.append("  ".join("=" * w for w in widths))
    return lines


class Tracer:
    """Collects nested spans as Chrome trace-event dicts.

    Parameters
    ----------
    trace_id:
        Identifier shared by every span of one run; generated when absent,
        inherited when the tracer continues a parent process's trace.
    parent:
        Span id adopted as the parent of this tracer's top-level spans
        (set in pool workers to the dispatching span's id).
    events:
        Keep Chrome trace events (``--trace``).  ``False`` times spans
        into :attr:`stats` only; :attr:`enabled` mirrors this flag.
    """

    def __init__(self, trace_id: str | None = None,
                 parent: str | None = None, *, events: bool = True) -> None:
        if trace_id is None:
            trace_id = f"{os.getpid():x}-{time.time_ns():x}"
        self.trace_id = str(trace_id)
        self.base_parent = parent
        self.enabled = bool(events)
        self.stats = SpanStats()
        self._events: list = []
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._id_prefix = f"{os.getpid():x}.{next(_TRACER_SEQ):x}"
        # Ancestry frames (span_id, trace_id, name, [children_s]),
        # innermost last.  A ContextVar — not an instance list — so spans
        # opened from the dispatcher's solver thread, pool workers or
        # concurrent asyncio request tasks never corrupt each other's
        # parentage or self time.
        self._frames: ContextVar = ContextVar(
            f"repro_trace_frames_{id(self):x}", default=())

    # -- ids and ancestry ----------------------------------------------------

    def new_span_id(self) -> str:
        """Allocate a span id (for spans recorded via :meth:`add_span`)."""
        return f"{self._id_prefix}.{next(self._ids)}"

    def current_span(self) -> str | None:
        """Id of the innermost open span (the would-be parent)."""
        frames = self._frames.get()
        return frames[-1][0] if frames else self.base_parent

    def current_trace_id(self) -> str:
        """Trace id governing the current context.

        The tracer's own id unless an open span adopted a remote context
        (``span(..., ctx=...)``), in which case the remote trace id is
        inherited by everything nested under it.
        """
        frames = self._frames.get()
        return frames[-1][1] if frames else self.trace_id

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str, *, ctx: tuple | None = None,
             links=None, **attrs):
        """Record the block as one complete event named ``name``.

        ``attrs`` become the event's ``args`` and must be
        JSON-serialisable (strings, numbers, booleans); a ``samples``
        attribute also feeds the aggregate's sample count.  ``ctx`` is an
        optional ``(trace_id, parent_span_id)`` pair from a remote
        caller (request header, batch dispatch): the span joins *that*
        trace instead of continuing the local ancestry, and its time is
        not charged to the enclosing local span.  ``links`` is an
        optional list of ``{"trace_id", "span_id"}`` dicts naming spans
        this one fans in from.
        """
        span_id = self.new_span_id()
        frames = self._frames.get()
        up = frames[-1] if frames and ctx is None else None
        if ctx is not None:
            trace_id = str(ctx[0]) if ctx[0] else self.trace_id
            parent = ctx[1]
        else:
            trace_id = up[1] if up else self.trace_id
            parent = up[0] if up else self.base_parent
        children = [0.0]
        token = self._frames.set(frames + ((span_id, trace_id, name,
                                            children),))
        ts = time.time() * 1e6 if self.enabled else 0.0
        start = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - start
            self._frames.reset(token)
            if up is not None:
                with self._lock:    # a copied context may share the frame
                    up[3][0] += dur
            self.stats.record(name, dur, dur - children[0],
                              attrs.get("samples", 0),
                              all(f[2] != name for f in frames))
            if self.enabled:
                self._append(name, ts, dur * 1e6, span_id, trace_id,
                             parent, links, attrs)

    def add_span(self, name: str, *, ts: float | None = None,
                 dur_s: float = 0.0, ctx: tuple | None = None,
                 links=None, span_id: str | None = None, **attrs) -> str:
        """Record a complete span without touching the ancestry stack.

        For spans whose lifetime straddles awaits or threads (a batch
        solve measured on the event loop): allocate an id up front with
        :meth:`new_span_id` so children can parent under it, then record
        the finished event here.  ``ts`` is the wall-clock start in
        microseconds (defaults to now), ``dur_s`` the duration in
        seconds.  Returns the span id.  Such a span overlaps spans
        recorded on other threads, so it lands in the Chrome trace only,
        not in :attr:`stats`.
        """
        if span_id is None:
            span_id = self.new_span_id()
        trace_id = (str(ctx[0]) if ctx is not None and ctx[0]
                    else self.trace_id)
        parent = ctx[1] if ctx is not None else None
        if self.enabled:
            self._append(name, ts if ts is not None else time.time() * 1e6,
                         dur_s * 1e6, span_id, trace_id, parent, links,
                         attrs)
        return span_id

    def _append(self, name, ts, dur_us, span_id, trace_id, parent,
                links, attrs) -> None:
        args = {"span_id": span_id, "trace_id": trace_id}
        if parent is not None:
            args["parent_id"] = parent
        if links:
            args["links"] = list(links)
        args.update(attrs)
        event = {
            "name": name, "ph": "X", "ts": ts, "dur": dur_us,
            "pid": os.getpid(), "tid": threading.get_ident() & 0x7FFFFFFF,
            "cat": "repro", "args": args,
        }
        with self._lock:
            self._events.append(event)

    # -- snapshots -----------------------------------------------------------

    def events(self) -> list:
        """The finished events (serialisable; worker hand-back payload)."""
        with self._lock:
            return list(self._events)

    def absorb(self, events, stats: dict | None = None) -> None:
        """Fold a pool worker's events and :class:`SpanStats` snapshot in."""
        with self._lock:
            self._events.extend(events)
        self.stats.merge(stats)

    def __len__(self) -> int:
        return len(self._events)

    def chrome_trace(self) -> dict:
        """The full trace as a Chrome trace-event JSON object.

        Loads in Perfetto (https://ui.perfetto.dev) and legacy
        ``chrome://tracing``: a ``traceEvents`` array of complete events
        plus process-name metadata for every pid seen.
        """
        events = self.events()
        pids = sorted({e["pid"] for e in events})
        parent_pid = os.getpid()
        for pid in pids:
            role = "repro" if pid == parent_pid else "repro worker"
            events.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": f"{role} (pid {pid})"},
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"trace_id": self.trace_id},
        }


class _NoopTracer(Tracer):
    """Disabled tracer: spans are free, nothing is recorded."""

    def __init__(self) -> None:
        super().__init__(trace_id="noop", events=False)

    def span(self, name: str, *, ctx=None, links=None, **attrs):
        return _NULL_CM

    def add_span(self, name: str, **kwargs) -> str:
        return "noop"

    def absorb(self, events, stats=None) -> None:
        pass


#: Shared disabled tracer — the default when no observability is active.
NOOP_TRACER = _NoopTracer()


def write_chrome_trace(path: str, tracer: Tracer) -> None:
    """Write ``tracer``'s trace as Chrome trace-event JSON at ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tracer.chrome_trace(), fh)
        fh.write("\n")
