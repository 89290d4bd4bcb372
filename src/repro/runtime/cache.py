"""Persistent memo cache for deterministic chip-delay quantiles.

``ChipDelayEngine.chip_quantile`` is a pure function of the technology
card, the architecture parameters and the quadrature orders — yet every
process recomputed it from scratch (a bracketing search plus a Brent solve,
each iteration a full Gauss-Hermite CDF evaluation).  ``python -m
repro.experiments all`` alone re-derives the same sign-off quantiles for
fig4/fig7/table1-4 across runs.

:class:`QuantileCache` memoises those solves on disk so a deterministic
number is never paid for twice, across processes and across runs:

* **Location** — ``$REPRO_CACHE_DIR/quantiles.json`` when the
  ``REPRO_CACHE_DIR`` environment variable is set, else
  ``~/.cache/repro/quantiles.json``.  Set ``REPRO_CACHE_DISABLE=1`` to turn
  the cache off entirely (every ``get`` misses, ``put`` is a no-op).
* **Key** — technology node name + a fingerprint of the full calibrated
  card (so re-calibration invalidates old entries), the architecture
  (width / paths-per-lane / chain-length), the three quadrature orders,
  the query point (vdd, q, spares).  The solver is a function of the
  card (see :class:`~repro.core.chip_delay.ChipDelayEngine`), so the
  fingerprint names it too.
* **Exactness** — values are stored as ``float.hex()`` strings, so a cache
  hit returns the *exact bytes* of the original solve, not a decimal
  round-trip approximation.

**On-disk format** (``_FILE_VERSION`` 3) — an append-only journal: a
JSON header line ``{"version": 3}``, then one ``[key, hex_value, crc32]``
JSON record per line.  The CRC32 is keyed (it covers ``key=hex_value``),
so a bit flip or two swapped records fail it; the last record of a key
wins.  A put appends only its own records, so it costs O(records
written), not O(file).

**Crash safety** (the resilience contract): append + ``fsync``; a torn
tail line is quarantined; full rewrites are atomic.  Each put writes its
records in one ``write`` on an ``O_APPEND`` descriptor, then calls
``fsync``.  Concurrent multi-process writers are serialised with an
advisory ``flock`` on a ``.lock`` sidecar, and each first merges the
records the others appended since its last read.  A line that fails to parse or to
verify (a record torn by a killed writer, a bit flip) is *quarantined* —
dropped, counted (``resilience.cache.quarantined``), recorded in the
fault ledger, and transparently recomputed by the caller.  A missing,
stale-version or damaged file (quarantined lines or duplicate keys at
load) is rewritten whole by the next put, through a temp file +
``fsync`` + ``os.replace``, so a killed rewrite never leaves a truncated
file.  A file whose header does not parse is moved aside to
``<path>.quarantined`` (``resilience.cache.file_quarantined``) and the run
continues with an empty cache.  Corruption is never fatal.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import zlib
from contextlib import contextmanager

from repro.obs.api import counter as _obs_counter
from repro.obs.api import current_obs
from repro.resilience.faultlab import active_plan
from repro.resilience.ledger import current_ledger

try:
    import fcntl
except ImportError:                      # non-POSIX: locks degrade to no-ops
    fcntl = None

__all__ = ["QuantileCache", "technology_fingerprint", "read_cache_file",
           "ENV_CACHE_DIR", "ENV_CACHE_DISABLE"]

#: Environment variable overriding the cache directory.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Environment variable disabling the persistent cache ("1"/"true"/...).
ENV_CACHE_DISABLE = "REPRO_CACHE_DISABLE"

#: Format version; v3 is the append-only journal (v2 was one JSON document
#: with per-entry checksums).  Files with any other stamp read as empty
#: (recomputed, then rewritten in v3 form).
_FILE_VERSION = 3

_HEADER = (json.dumps({"version": _FILE_VERSION}) + "\n").encode()

_fingerprints: dict = {}


def _cache_disabled() -> bool:
    return os.environ.get(ENV_CACHE_DISABLE, "").strip().lower() in (
        "1", "true", "yes", "on")


def default_cache_dir() -> str:
    """The directory quantile caches live in (honours ``REPRO_CACHE_DIR``)."""
    override = os.environ.get(ENV_CACHE_DIR)
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def technology_fingerprint(tech) -> str:
    """A short stable hash of a calibrated technology card.

    Hashes every numeric constant of the card (device model, variation
    model, delay scale), so any re-calibration produces a different
    fingerprint and silently invalidates stale cache entries.
    """
    cached = _fingerprints.get(tech)
    if cached is None:
        payload = json.dumps(dataclasses.asdict(tech), sort_keys=True,
                             default=repr)
        cached = hashlib.sha256(payload.encode()).hexdigest()[:16]
        _fingerprints[tech] = cached
    return cached


def _entry_checksum(key: str, hex_value: str) -> str:
    """CRC32 over key and value, hex-encoded; keyed so swapped entries fail."""
    return format(zlib.crc32(f"{key}={hex_value}".encode()) & 0xFFFFFFFF,
                  "08x")


def _record_line(key: str, hex_value: str) -> bytes:
    """One journal line: ``[key, hex_value, crc32]`` and a newline."""
    return (json.dumps([key, hex_value, _entry_checksum(key, hex_value)])
            + "\n").encode()


def _loads_or_none(line: bytes):
    try:
        return json.loads(line)
    except ValueError:
        return None


def _decode_lines(body: bytes) -> list:
    """The JSON value of every non-blank line, ``None`` where one fails.

    One ``json.loads`` over the lines joined into an array; only a body
    with a torn or garbled line falls back to parsing line by line.
    """
    body = body.strip()
    if not body:
        return []
    try:
        values = json.loads(b"[" + body.replace(b"\n", b",") + b"]")
        if len(values) == body.count(b"\n") + 1:
            return values
    except ValueError:
        pass
    return [_loads_or_none(line) for line in body.split(b"\n")
            if line.strip()]


def _parse_file(data: bytes) -> tuple:
    """``(status, records)`` of a whole cache file.

    ``status`` is ``"ok"`` for a v3 journal (``records`` are its decoded
    lines), ``"stale"`` for a JSON document or header of another version,
    and ``"unparseable"`` otherwise.
    """
    head, _, body = data.partition(b"\n")
    try:
        header = json.loads(head)
    except ValueError:
        # A whole-file JSON document (the v2 format) is stale, not damaged.
        try:
            header = json.loads(data)
        except ValueError:
            return "unparseable", []
        return ("stale" if isinstance(header, dict) else "unparseable"), []
    if not isinstance(header, dict):
        return "unparseable", []
    if header.get("version") != _FILE_VERSION:
        return "stale", []
    return "ok", _decode_lines(body)


def _verify(records) -> tuple:
    """``(entries, bad, duplicates)`` from decoded journal records.

    ``entries`` maps key to hex value for every record whose keyed
    checksum verifies, the last record of a key winning; ``bad`` counts
    the records that do not verify.
    """
    entries: dict = {}
    bad = duplicates = 0
    for rec in records:
        try:
            key, hex_value, crc = rec
            ok = (type(rec) is list and isinstance(key, str)
                  and isinstance(hex_value, str)
                  and _entry_checksum(key, hex_value) == crc)
            if ok:
                float.fromhex(hex_value)
        except (TypeError, ValueError):
            ok = False
        if not ok:
            bad += 1
        else:
            duplicates += key in entries
            entries[key] = hex_value
    return entries, bad, duplicates


def read_cache_file(path: str) -> dict:
    """The verified ``key -> hex value`` entries of a cache file.

    Read-only: a missing, stale or unparseable file reads as empty and a
    damaged record is skipped, but nothing is moved aside, counted or
    recorded (a :class:`QuantileCache` does that when it loads).
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return {}
    status, records = _parse_file(data)
    return _verify(records)[0] if status == "ok" else {}


@contextmanager
def _advisory_lock(path: str):
    """Exclusive advisory flock on ``path + '.lock'`` (no-op off POSIX).

    Serialises every read and write of the journal across concurrent
    multi-process runs, so no reader sees half an append; lock failures
    degrade to unlocked access rather than blocking the run.
    """
    if fcntl is None:
        yield
        return
    try:
        fd = os.open(path + ".lock", os.O_CREAT | os.O_RDWR, 0o644)
    except OSError:
        yield
        return
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
    finally:
        os.close(fd)


class QuantileCache:
    """On-disk memo for deterministic chip-delay quantiles.

    Parameters
    ----------
    path:
        Cache file; defaults to ``<cache dir>/quantiles.json`` (see module
        docstring for the directory resolution rules).
    enabled:
        Force the cache on/off; defaults to the ``REPRO_CACHE_DISABLE``
        environment variable.
    """

    def __init__(self, path: str | None = None,
                 enabled: bool | None = None) -> None:
        if path is None:
            path = os.path.join(default_cache_dir(), "quantiles.json")
        self.path = str(path)
        self.enabled = (not _cache_disabled()) if enabled is None else bool(enabled)
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        self._entries: dict | None = None   # key -> hex value; lazy-loaded
        # The file merged into ``_entries``: its (st_dev, st_ino), how many
        # of its bytes were read, and whether they end on a line boundary.
        self._ident: tuple | None = None
        self._offset = 0
        self._clean_tail = True
        # Missing, stale or damaged on disk: the next put rewrites it whole.
        self._rewrite_due = True

    # -- keys ---------------------------------------------------------------

    @staticmethod
    def make_key(tech, *, width: int, paths_per_lane: int, chain_length: int,
                 quad_within: int, quad_corr_vth: int, quad_corr_mult: int,
                 vdd: float, q: float, spares: float) -> str:
        """The canonical cache key for one deterministic quantile."""
        return ":".join((
            tech.name, technology_fingerprint(tech),
            f"w{int(width)}", f"p{int(paths_per_lane)}",
            f"c{int(chain_length)}",
            f"gh{int(quad_within)}-{int(quad_corr_vth)}-{int(quad_corr_mult)}",
            f"v{float(vdd)!r}", f"q{float(q)!r}", f"s{float(spares)!r}",
        ))

    # -- persistence ----------------------------------------------------------

    def _quarantine_file(self) -> None:
        """Move an unparseable cache file aside; never fatal."""
        target = self.path + ".quarantined"
        try:
            os.replace(self.path, target)
        except OSError:
            target = None
        self.quarantined += 1
        _obs_counter("resilience.cache.file_quarantined").inc()
        current_ledger().record("cache_file_quarantined", path=self.path,
                                moved_to=target)

    @staticmethod
    def _inject_corruption(records: list) -> None:
        """Fault lab: corrupt the target-th key (sorted) before validation."""
        plan = active_plan()
        if plan is None or not records:
            return
        targets = plan.pending("cache_corrupt")
        if not targets:
            return
        keys = sorted({rec[0] for rec in records
                       if type(rec) is list and rec
                       and isinstance(rec[0], str)})
        for target in targets:
            if keys and plan.consume("cache_corrupt", target):
                poisoned = keys[target % len(keys)]
                for i, rec in enumerate(records):
                    if type(rec) is list and rec and rec[0] == poisoned:
                        records[i] = [poisoned, "<corrupted-by-faultlab>",
                                      "00000000"]

    def _sync(self) -> None:
        """Bring memory up to date with the file; the caller holds the lock.

        The file this instance last read is parsed from its previous
        offset on, i.e. only what other writers appended since.  Any
        other file (a first load, or one another writer rewrote) is read
        whole.  Either way the disk wins over memory for every key it
        holds, so a concurrent writer's newer entry is never shadowed by
        a value loaded before it ran.
        """
        try:
            fd = os.open(self.path, os.O_RDONLY)
            try:
                st = os.fstat(fd)
                ident = (st.st_dev, st.st_ino)
                appended = (self._entries is not None
                            and ident == self._ident
                            and st.st_size >= self._offset)
                start = self._offset if appended else 0
                data = (os.pread(fd, st.st_size - start, start)
                        if st.st_size > start else b"")
            finally:
                os.close(fd)
        except OSError:
            if self._entries is None:
                self._entries = {}
            self._ident, self._offset, self._clean_tail = None, 0, True
            self._rewrite_due = True
            return
        if appended:
            if not data:
                return
            entries, bad, _ = _verify(_decode_lines(data))
        else:
            status, records = _parse_file(data)
            if status == "unparseable":
                self._quarantine_file()
                ident, data = None, b""
            self._inject_corruption(records)
            entries, bad, duplicates = _verify(records)
            self._rewrite_due = status != "ok" or bool(bad or duplicates)
            self._ident, self._offset = ident, 0
        if bad:
            self.quarantined += bad
            _obs_counter("resilience.cache.quarantined").inc(bad)
            current_ledger().record("cache_entry_quarantined",
                                    path=self.path, entries=bad)
        if self._entries is None:
            self._entries = entries
        else:
            self._entries.update(entries)
        self._offset += len(data)
        self._clean_tail = not data or data.endswith(b"\n")

    def _load(self) -> dict:
        if self._entries is None:
            if self.enabled:
                with _advisory_lock(self.path):
                    self._sync()
            else:
                self._entries = {}
        return self._entries

    def _append(self, lines: list) -> None:
        """Append records to the synced file in one write, then ``fsync``.

        A torn tail line left by a killed writer is closed first, so the
        records start on a line of their own.
        """
        data = b"".join(lines)
        if not self._clean_tail:
            data = b"\n" + data
        try:
            fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
            try:
                view = memoryview(data)
                while view:
                    view = view[os.write(fd, view):]
                os.fsync(fd)
            finally:
                os.close(fd)
        except OSError:
            # Whatever landed is re-read by the next put, which rewrites.
            self._rewrite_due = True
            return
        self._offset += len(data)
        self._clean_tail = True

    def _rewrite(self) -> None:
        """Replace the file with the in-memory entries, atomically."""
        data = _HEADER + b"".join(
            _record_line(k, v) for k, v in self._entries.items())
        directory = os.path.dirname(self.path) or "."
        tmp = None
        try:
            os.makedirs(directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
                st = os.fstat(fh.fileno())
            os.replace(tmp, self.path)
        except OSError:
            # A read-only cache dir degrades to in-memory behaviour.
            if tmp is not None:
                try:
                    os.remove(tmp)
                except OSError:
                    pass
            return
        self._ident = (st.st_dev, st.st_ino)
        self._offset = len(data)
        self._clean_tail = True
        self._rewrite_due = False

    # -- access ---------------------------------------------------------------

    def get(self, key: str) -> float | None:
        """The memoised value for ``key``, or ``None`` on a miss."""
        return self.get_many((key,))[0]

    def get_many(self, keys) -> list:
        """Memoised values for ``keys`` in order, ``None`` per miss.

        One lookup pass for a whole batch of query points — the disk file
        is read (at most) once regardless of the batch size, so partial
        hits cost the same as a single :meth:`get`.  Unreadable or
        corrupt entries were already quarantined at load time, so they
        simply read as misses here.
        """
        keys = list(keys)
        if not self.enabled:
            self.misses += len(keys)
            _obs_counter("quantile_cache.misses").inc(len(keys))
            return [None] * len(keys)
        entries = self._load()
        out = []
        hits = 0
        for key in keys:
            stored = entries.get(key)
            if stored is None:
                self.misses += 1
                out.append(None)
            else:
                self.hits += 1
                hits += 1
                out.append(float.fromhex(stored))
        _obs_counter("quantile_cache.hits").inc(hits)
        _obs_counter("quantile_cache.misses").inc(len(keys) - hits)
        return out

    def put(self, key: str, value: float) -> None:
        """Memoise ``value`` under ``key`` (write-through)."""
        self.put_many(((key, value),))

    def put_many(self, items) -> None:
        """Memoise many ``(key, value)`` pairs with one append.

        Under the advisory file lock, first merge what other writers
        appended since this instance last read (their entries win over
        this instance's older copies), then append the new records, which
        win over both.  Concurrent multi-process runs can therefore only
        ever duplicate a solve, never lose an entry.  A missing, stale or
        damaged file is rewritten whole instead of appended to.
        """
        items = list(items)
        if not self.enabled or not items:
            return
        with _advisory_lock(self.path):
            self._sync()
            lines = []
            for key, value in items:
                hex_value = float(value).hex()
                self._entries[key] = hex_value
                lines.append(_record_line(key, hex_value))
            if self._rewrite_due:
                self._rewrite()
            else:
                self._append(lines)
        metrics = current_obs().metrics
        metrics.counter("quantile_cache.writes").inc(len(items))
        if metrics.enabled:
            try:
                metrics.gauge("quantile_cache.file_bytes").set(
                    os.path.getsize(self.path))
                metrics.gauge("quantile_cache.entries").set(
                    len(self._entries))
            except OSError:
                pass

    def clear(self) -> None:
        """Drop every entry (memory and disk)."""
        self._entries = {}
        if self.enabled:
            with _advisory_lock(self.path):
                self._rewrite()

    def __len__(self) -> int:
        return len(self._load())
