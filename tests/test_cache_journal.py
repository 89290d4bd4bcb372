"""The quantile cache's on-disk journal: appends, torn tails, concurrent
writers, stale formats and the read-only reader."""

import json
import multiprocessing
import os

import pytest

from repro.runtime.cache import (QuantileCache, _entry_checksum, _record_line,
                                 read_cache_file)


def _cache(path) -> QuantileCache:
    return QuantileCache(path=str(path), enabled=True)


def _lines(path) -> list:
    return open(path, "rb").read().split(b"\n")


def test_torn_tail_quarantined_and_next_put_on_clean_line(tmp_path):
    path = tmp_path / "quantiles.json"
    items = [(f"k{i}", 1e-9 * (i + 1)) for i in range(5)]
    _cache(path).put_many(items)
    record = _record_line("k5", (6e-9).hex())
    with open(path, "ab") as fh:                # a writer killed mid-append
        fh.write(record[:len(record) // 2])

    cache = _cache(path)
    assert cache.get_many([k for k, _ in items]) == [v for _, v in items]
    assert cache.quarantined == 1
    cache.put("k6", 7e-9)
    assert open(path, "rb").read().endswith(b"\n")
    fresh = _cache(path)
    assert fresh.get_many(["k0", "k4", "k5", "k6"]) == [1e-9, 5e-9, None,
                                                        7e-9]
    assert fresh.quarantined == 0


def test_torn_tail_after_load_appends_on_a_new_line(tmp_path):
    """A tail torn after this instance loaded is closed, not rewritten."""
    path = tmp_path / "quantiles.json"
    writer = _cache(path)
    writer.put_many([("a", 1.0), ("b", 2.0)])
    inode = os.stat(path).st_ino
    record = _record_line("c", (3.0).hex())
    with open(path, "ab") as fh:
        fh.write(record[:-10])

    writer.put("d", 4.0)
    assert writer.quarantined == 1
    assert os.stat(path).st_ino == inode        # appended, not replaced
    assert _lines(path)[-2] == _record_line("d", (4.0).hex())[:-1]
    fresh = _cache(path)
    assert fresh.get_many(["a", "b", "c", "d"]) == [1.0, 2.0, None, 4.0]
    assert fresh.quarantined == 1


def _writer(path: str, prefix: str, n: int) -> None:
    cache = QuantileCache(path=path, enabled=True)
    for start in range(0, n, 10):
        cache.put_many((f"{prefix}{i}", float(i + 1))
                       for i in range(start, start + 10))


def test_concurrent_writers_lose_no_entry(tmp_path):
    path = str(tmp_path / "quantiles.json")
    ctx = multiprocessing.get_context("fork")
    procs = [ctx.Process(target=_writer, args=(path, prefix, 200))
             for prefix in ("a", "b")]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=60)
        assert proc.exitcode == 0
    fresh = QuantileCache(path=path, enabled=True)
    keys = [f"{p}{i}" for p in ("a", "b") for i in range(200)]
    assert fresh.get_many(keys) == [float(i + 1) for _ in "ab"
                                    for i in range(200)]
    assert len(fresh) == 400
    assert fresh.quarantined == 0


def test_put_appends_exactly_its_own_records(tmp_path):
    path = tmp_path / "quantiles.json"
    cache = _cache(path)
    cache.put_many((f"k{i}", 1e-9 * (i + 1)) for i in range(1000))
    before = open(path, "rb").read()
    items = [("new0", 1.25e-9), ("new1", 2.5e-9)]
    cache.put_many(items)
    after = open(path, "rb").read()
    appended = b"".join(_record_line(k, v.hex()) for k, v in items)
    assert after == before + appended
    # A second instance appends after what the first wrote, too.
    other = _cache(path)
    assert len(other) == 1002
    other.put("new2", 5e-9)
    assert open(path, "rb").read() == (after
                                       + _record_line("new2", (5e-9).hex()))


def test_v2_document_reads_empty_and_first_put_rewrites_v3(tmp_path):
    path = tmp_path / "quantiles.json"
    hex_value = (1.5e-9).hex()
    # The v2 layout: one JSON document, entries mapped to [hex, crc32].
    path.write_text(json.dumps(
        {"version": 2,
         "entries": {"a": [hex_value, _entry_checksum("a", hex_value)]}},
        indent=0))
    cache = _cache(path)
    assert cache.get("a") is None
    assert cache.quarantined == 0               # stale format, not damage
    assert not os.path.exists(str(path) + ".quarantined")
    cache.put("b", 2.5e-9)
    lines = _lines(path)
    assert json.loads(lines[0]) == {"version": 3}
    assert lines[1:] == [_record_line("b", (2.5e-9).hex())[:-1], b""]


def test_duplicates_at_load_are_compacted_by_next_put(tmp_path):
    path = tmp_path / "quantiles.json"
    _cache(path).put("k", 1.0)
    _cache(path).put("k", 2.0)                  # last record wins
    cache = _cache(path)
    assert cache.get("k") == 2.0
    cache.put("other", 3.0)                     # rewrites: one record a key
    assert len(_lines(path)) == 4
    assert _cache(path).get_many(["k", "other"]) == [2.0, 3.0]


def test_writer_rereads_a_file_another_writer_replaced(tmp_path):
    path = tmp_path / "quantiles.json"
    first = _cache(path)
    first.put("a", 1.0)
    with open(path, "ab") as fh:                # damage: the next loader
        fh.write(b"garbage\n")                  # rewrites the file
    second = _cache(path)
    second.put("b", 2.0)
    first.put("c", 3.0)                         # must not append blindly
    fresh = _cache(path)
    assert fresh.get_many(["a", "b", "c"]) == [1.0, 2.0, 3.0]
    assert fresh.quarantined == 0
    assert first.get("b") == 2.0


def test_read_cache_file_is_read_only(tmp_path):
    path = tmp_path / "quantiles.json"
    _cache(path).put_many([("a", 1.0), ("b", 2.0)])
    with open(path, "ab") as fh:
        fh.write(b'["c", "0x1p+0", "00000000"]\n')
    assert read_cache_file(str(path)) == {"a": (1.0).hex(),
                                          "b": (2.0).hex()}
    path.write_text("{not json!")
    assert read_cache_file(str(path)) == {}
    assert path.read_text() == "{not json!"     # never moved aside
    assert read_cache_file(str(tmp_path / "missing.json")) == {}


@pytest.mark.parametrize("body", [b"", b"\n\n", b"[1, 2]\n"])
def test_degenerate_bodies_never_raise(tmp_path, body):
    path = tmp_path / "quantiles.json"
    path.write_bytes(b'{"version": 3}\n' + body)
    cache = _cache(path)
    assert cache.get("a") is None
    cache.put("a", 1.0)
    assert _cache(path).get("a") == 1.0
