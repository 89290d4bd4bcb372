"""Wire protocol for the sign-off server: JSON over minimal HTTP/1.1.

The server speaks just enough HTTP for ``curl``, :class:`~http.client`
and any stock load balancer: request line + headers + ``Content-Length``
body, keep-alive connections, JSON request and response bodies.  Framing
lives here (:func:`read_request` / :func:`json_response`) together with
request validation (:func:`parse_query`) and the structured error
hierarchy every handler maps onto an HTTP status:

========================  ======  ==================================
error                     status  meaning
========================  ======  ==================================
:class:`BadRequestError`  400     malformed body / invalid points
:class:`DeadlineError`    408     per-request deadline expired
:class:`PayloadTooLarge`  413     body above :data:`MAX_BODY_BYTES`
:class:`OverloadedError`  429     dispatcher queue full (backpressure)
:class:`ShedError`        429     admission control: queue wait would
                                  already exceed the request deadline
:class:`DegradedError`    429     saturated server is cache-hit-only
:class:`SolverError`      500     solve failed after retries
:class:`DrainingError`    503     server draining for shutdown
========================  ======  ==================================

Every error response body is ``{"error": <code>, "message": <text>}``
so clients can branch on a stable machine-readable code rather than
scraping messages.  Shed-class errors (429/503) may carry a
``retry_after_s`` hint, rendered both in the JSON payload and as a
standard ``Retry-After`` response header so stock clients and load
balancers back off correctly.

Distributed-trace propagation rides one request header,
``X-Repro-Trace: <trace_id>[/<parent_span_id>]``, parsed by
:func:`parse_trace_header`.  Ids are restricted to a conservative
charset and length so arbitrary client input never lands raw in traces
or logs; anything malformed is ignored rather than rejected — tracing
must never fail a request.
"""

from __future__ import annotations

import asyncio
import json
import math
import re
from typing import NamedTuple

__all__ = [
    "MAX_BODY_BYTES", "MAX_POINTS", "MAX_TAIL_SAMPLES", "TRACE_HEADER",
    "EngineKey", "TailKey",
    "ServeError", "BadRequestError", "DeadlineError", "PayloadTooLarge",
    "OverloadedError", "ShedError", "DegradedError", "DrainingError",
    "SolverError", "parse_query", "parse_tail_query", "parse_trace_header",
    "read_request", "json_response", "text_response", "error_response",
]

#: Request header carrying ``trace_id[/parent_span_id]``.
TRACE_HEADER = "X-Repro-Trace"

_TRACE_TOKEN = re.compile(r"^[A-Za-z0-9._\-]{1,128}$")

#: Hard cap on a request body; a full-size batch of 4096 points is ~200 KiB.
MAX_BODY_BYTES = 1 << 20

#: Hard cap on query points per request (after broadcasting).
MAX_POINTS = 4096

#: Hard cap on weighted samples per tail-estimate request (each point is
#: a Monte-Carlo run, not a cache-friendly deterministic solve).
MAX_TAIL_SAMPLES = 1_000_000

#: Largest |mean shift| a tail query may request, in sigma units
#: (mirrors :data:`repro.core.tailsampling.MAX_SHIFT`).
_MAX_TAIL_SHIFT = 8.0

#: Architecture defaults mirror the paper (128 lanes x 100 paths x 50 FO4).
_ARCH_DEFAULTS = {"width": 128, "paths_per_lane": 100, "chain_length": 50}

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 408: "Request Timeout",
            413: "Payload Too Large", 429: "Too Many Requests",
            500: "Internal Server Error", 503: "Service Unavailable"}


class EngineKey(NamedTuple):
    """One served engine identity: a node plus its architecture shape.

    Queries coalesce only within an :class:`EngineKey` — points for
    different nodes or architectures can never share a batch solve.
    """

    node: str
    width: int
    paths_per_lane: int
    chain_length: int


class TailKey(NamedTuple):
    """One importance-sampled tail-run identity.

    Tail queries coalesce (and memoise) only when the engine *and* every
    run parameter match — ``n_samples``, ``root_seed`` and the proposal
    spec are part of the estimate's value, not mere tuning.  ``shift``
    is ``None`` for the adaptive search, else an explicit d2d mean shift
    in sigma units.
    """

    engine: EngineKey
    n_samples: int
    root_seed: int
    shift: float | None
    defensive_weight: float

    @property
    def node(self) -> str:
        """Dispatcher instrumentation labels batches by node."""
        return self.engine.node


class ServeError(Exception):
    """Base for protocol-level failures; carries HTTP status + stable code.

    ``retry_after_s`` (``None`` unless set) is the server's back-off
    hint: rendered as a ``Retry-After`` header and in the JSON payload.
    """

    status = 500
    code = "internal"
    retry_after_s: float | None = None

    def payload(self) -> dict:
        out = {"error": self.code, "message": str(self)}
        if self.retry_after_s is not None:
            out["retry_after_s"] = self.retry_after_s
        return out


class BadRequestError(ServeError):
    status = 400
    code = "bad_request"


class DeadlineError(ServeError):
    status = 408
    code = "deadline_exceeded"


class PayloadTooLarge(ServeError):
    status = 413
    code = "payload_too_large"


class OverloadedError(ServeError):
    status = 429
    code = "overloaded"


class ShedError(ServeError):
    """Admission control: the queue's estimated wait already exceeds
    this request's deadline, so it is rejected before consuming a slot."""

    status = 429
    code = "shed"


class DegradedError(ServeError):
    """Saturated server answering cache-hit-only; cold points rejected."""

    status = 429
    code = "degraded"


class DrainingError(ServeError):
    """Server draining for shutdown; retry against another instance."""

    status = 503
    code = "draining"


class SolverError(ServeError):
    status = 500
    code = "solver_failed"


def _as_float_list(body: dict, field: str, default, n: int | None):
    """One broadcastable numeric field -> list of finite floats.

    Scalars broadcast against the longest field; lists must agree on
    length.  Returns ``(values, n)`` with ``n`` the running broadcast
    length (``None`` while only scalars have been seen).
    """
    raw = body.get(field, default)
    if raw is None:
        raise BadRequestError(f"missing required field {field!r}")
    if isinstance(raw, bool):
        raise BadRequestError(f"{field} must be numeric, got a bool")
    if isinstance(raw, (int, float)):
        return [float(raw)], n
    if isinstance(raw, (list, tuple)):
        if not raw:
            raise BadRequestError(f"{field} must not be an empty list")
        if len(raw) > MAX_POINTS:
            raise BadRequestError(
                f"{field} has {len(raw)} points, limit {MAX_POINTS}")
        vals = []
        for v in raw:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise BadRequestError(f"{field} must contain only numbers")
            vals.append(float(v))
        if n is not None and n != 1 and len(vals) not in (1, n):
            raise BadRequestError(
                f"{field} has length {len(vals)}, expected {n}")
        return vals, max(n or 1, len(vals))
    raise BadRequestError(f"{field} must be a number or list of numbers")


def _parse_engine(body: dict, available_nodes) -> EngineKey:
    """Node + architecture fields of one query body -> :class:`EngineKey`."""
    if not isinstance(body, dict):
        raise BadRequestError("request body must be a JSON object")
    node = body.get("node")
    if not isinstance(node, str):
        raise BadRequestError("missing required string field 'node'")
    if node not in available_nodes:
        raise BadRequestError(
            f"unknown node {node!r}; available: {sorted(available_nodes)}")
    arch = {}
    for field, default in _ARCH_DEFAULTS.items():
        raw = body.get(field, default)
        if isinstance(raw, bool) or not isinstance(raw, int) or raw < 1:
            raise BadRequestError(f"{field} must be a positive integer")
        arch[field] = raw
    return EngineKey(node, arch["width"], arch["paths_per_lane"],
                     arch["chain_length"])


def _parse_points(body: dict, *, q_default: float) -> list:
    """Broadcast vdd/q/spares fields into rounded ``(vdd, spares, q)``."""
    n = None
    vdds, n = _as_float_list(body, "vdd", None, n)
    qs, n = _as_float_list(body, "q", q_default, n)
    sps, n = _as_float_list(body, "spares", 0.0, n)
    n = n or 1
    if n > MAX_POINTS:
        raise BadRequestError(f"{n} query points, limit {MAX_POINTS}")

    def bcast(vals):
        return vals * n if len(vals) == 1 else vals

    points = []
    for v, q, s in zip(bcast(vdds), bcast(qs), bcast(sps)):
        if not (v == v and 0.0 < v < 10.0):   # NaN fails v == v
            raise BadRequestError(f"vdd must be in (0, 10) volts, got {v}")
        if not 0.0 < q < 1.0:
            raise BadRequestError(f"q must be in (0, 1), got {q}")
        if not 0.0 <= s < 1e9:
            raise BadRequestError(f"spares must be >= 0, got {s}")
        points.append((round(v, 9), round(s, 9), round(q, 12)))
    return points


def parse_query(body: dict, *, available_nodes) -> tuple:
    """Validate one query body into ``(EngineKey, points)``.

    ``points`` is a list of ``(vdd, spares, q)`` tuples rounded exactly
    like :meth:`~repro.core.analyzer.VariationAnalyzer._point_key`, so
    equal queries from different clients coalesce to one solve and one
    memo entry.  Broadcasting follows numpy: scalar fields stretch to the
    longest list field.
    """
    key = _parse_engine(body, available_nodes)
    return key, _parse_points(body, q_default=0.99)


def _scalar_field(body: dict, field: str, default, *, integer: bool):
    """One optional scalar numeric field, type-checked (no broadcasting)."""
    raw = body.get(field, default)
    if raw is None:
        return None
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise BadRequestError(f"{field} must be a number")
    if integer:
        if not isinstance(raw, int):
            raise BadRequestError(f"{field} must be an integer")
        return int(raw)
    value = float(raw)
    if value != value or value in (float("inf"), float("-inf")):
        raise BadRequestError(f"{field} must be finite")
    return value


def parse_tail_query(body: dict, *, available_nodes) -> tuple:
    """Validate one tail-estimate body into ``(TailKey, points)``.

    Points are ``(vdd, spares, q)`` exactly like :func:`parse_query`
    (``q`` defaults to 0.9999 — this is the deep-tail endpoint), except
    that spares must be whole (the sampler draws integral spares); the run
    parameters — ``n_samples``, ``root_seed``, optional explicit
    ``shift`` (sigma units; omitted = adaptive search) and
    ``defensive_weight`` — become part of the :class:`TailKey`, so only
    runs with identical parameters share memo entries.
    """
    engine = _parse_engine(body, available_nodes)
    points = _parse_points(body, q_default=0.9999)
    for _, spares, _ in points:
        if not spares.is_integer():
            raise BadRequestError(
                f"tail spares must be a whole number, got {spares}")
    n_samples = _scalar_field(body, "n_samples", 4096, integer=True)
    if not 2 <= n_samples <= MAX_TAIL_SAMPLES:
        raise BadRequestError(
            f"n_samples must be in [2, {MAX_TAIL_SAMPLES}], got {n_samples}")
    root_seed = _scalar_field(body, "root_seed", 0, integer=True)
    if root_seed < 0:
        raise BadRequestError(f"root_seed must be >= 0, got {root_seed}")
    shift = _scalar_field(body, "shift", None, integer=False)
    if shift is not None and abs(shift) > _MAX_TAIL_SHIFT:
        raise BadRequestError(
            f"shift must satisfy |s| <= {_MAX_TAIL_SHIFT} sigma, got {shift}")
    weight = _scalar_field(body, "defensive_weight", 0.1, integer=False)
    if not 0.0 <= weight < 1.0:
        raise BadRequestError(
            f"defensive_weight must be in [0, 1), got {weight}")
    return TailKey(engine, n_samples, root_seed, shift, weight), points


def parse_trace_header(value: str | None):
    """``X-Repro-Trace`` header value -> ``(trace_id, parent_span_id)``.

    ``parent_span_id`` is ``None`` when the client sent only a trace id.
    Returns ``None`` (ignore, don't fail) for missing or malformed
    values.
    """
    if not value:
        return None
    trace_id, _, parent = value.partition("/")
    if not _TRACE_TOKEN.match(trace_id):
        return None
    if parent and not _TRACE_TOKEN.match(parent):
        parent = ""
    return trace_id, parent or None


async def read_request(reader: asyncio.StreamReader):
    """Read one HTTP request; ``None`` on a cleanly closed connection.

    Returns ``(method, path, headers, body_bytes)`` with header names
    lower-cased.  Raises :class:`BadRequestError` on malformed framing
    and :class:`PayloadTooLarge` on oversized bodies.
    """
    try:
        line = await reader.readline()
    except (ConnectionError, asyncio.LimitOverrunError):
        return None
    if not line:
        return None
    parts = line.decode("latin-1").split()
    if len(parts) != 3:
        raise BadRequestError("malformed request line")
    method, path = parts[0].upper(), parts[1]
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise BadRequestError("malformed header line")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise BadRequestError("invalid Content-Length") from None
    if length < 0:
        raise BadRequestError("invalid Content-Length")
    if length > MAX_BODY_BYTES:
        raise PayloadTooLarge(
            f"body of {length} bytes exceeds limit {MAX_BODY_BYTES}")
    body = await reader.readexactly(length) if length else b""
    return method, path, headers, body


def json_response(status: int, payload: dict, *, keep_alive: bool = True,
                  extra_headers: dict | None = None) -> bytes:
    """Serialise one JSON response with correct framing headers."""
    body = json.dumps(payload).encode()
    reason = _REASONS.get(status, "Unknown")
    extras = "".join(f"{k}: {v}\r\n"
                     for k, v in (extra_headers or {}).items())
    head = (f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"{extras}"
            f"\r\n")
    return head.encode("latin-1") + body


def text_response(status: int, text: str, content_type: str, *,
                  keep_alive: bool = True) -> bytes:
    """Serialise one plain-text response (the OpenMetrics scrape path)."""
    body = text.encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    head = (f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n")
    return head.encode("latin-1") + body


def error_response(exc: ServeError, *, keep_alive: bool = True) -> bytes:
    extra = None
    if exc.retry_after_s is not None:
        # RFC 9110 Retry-After takes whole seconds; round up, floor 1.
        extra = {"Retry-After": max(1, math.ceil(exc.retry_after_s))}
    return json_response(exc.status, exc.payload(), keep_alive=keep_alive,
                         extra_headers=extra)
