"""Tests for the self-healing trace cache: corruption recovery, atomic
writes, versioning/checksums, CacheStats, verify/warm, and the
``repro cache`` CLI."""

import io

import numpy as np
import pytest

from repro.cli import main
from repro.harness.config import suite_traces
from repro.trace.cache import (CacheEntry, CacheStats, cache_entries,
                               cache_stats, cached_trace, clear_cache,
                               verify_cache, verify_entry, warm_cache)
from repro.trace.trace import (FORMAT_VERSION, TraceCacheError, ValueTrace,
                               payload_checksum)
from repro.workloads.registry import SPEC_NAMES


def one_entry(tmp_path, limit=300):
    """Capture one cached entry; returns its path."""
    cached_trace("li", limit=limit, cache_dir=tmp_path)
    (path,) = tmp_path.glob("*.npz")
    return path


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestLoadValidation:
    def test_garbage_bytes(self, tmp_path):
        path = tmp_path / "x.npz"
        path.write_bytes(b"this is not a zip file")
        with pytest.raises(TraceCacheError):
            ValueTrace.load(path)

    def test_truncated_tail(self, tmp_path):
        path = one_entry(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(TraceCacheError):
            ValueTrace.load(path)

    def test_missing_members(self, tmp_path):
        path = tmp_path / "x.npz"
        np.savez_compressed(path, pcs=np.zeros(3, dtype=np.uint32))
        with pytest.raises(TraceCacheError, match="missing members"):
            ValueTrace.load(path)

    def test_unversioned_legacy_entry(self, tmp_path):
        path = tmp_path / "x.npz"
        np.savez_compressed(path, name=np.array("t"),
                            pcs=np.zeros(3, dtype=np.uint32),
                            values=np.zeros(3, dtype=np.uint32))
        with pytest.raises(TraceCacheError, match="unversioned"):
            ValueTrace.load(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "x.npz"
        pcs = values = np.zeros(3, dtype=np.uint32)
        np.savez_compressed(path, name=np.array("t"), pcs=pcs, values=values,
                            version=np.array(FORMAT_VERSION + 1,
                                             dtype=np.uint32),
                            checksum=np.array(payload_checksum(pcs, values),
                                              dtype=np.uint32))
        with pytest.raises(TraceCacheError, match="format v"):
            ValueTrace.load(path)

    def test_checksum_mismatch(self, tmp_path):
        path = tmp_path / "x.npz"
        pcs = values = np.zeros(3, dtype=np.uint32)
        np.savez_compressed(path, name=np.array("t"), pcs=pcs, values=values,
                            version=np.array(FORMAT_VERSION, dtype=np.uint32),
                            checksum=np.array(12345, dtype=np.uint32))
        with pytest.raises(TraceCacheError, match="checksum mismatch"):
            ValueTrace.load(path)

    @pytest.mark.parametrize("pcs,values,match", [
        (np.zeros((2, 2), dtype=np.uint32), np.zeros((2, 2), dtype=np.uint32),
         "one-dimensional"),
        (np.zeros(3, dtype=np.uint32), np.zeros(4, dtype=np.uint32),
         "length mismatch"),
        (np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.int64),
         "uint32"),
    ])
    def test_bad_arrays(self, tmp_path, pcs, values, match):
        path = tmp_path / "x.npz"
        np.savez_compressed(path, name=np.array("t"), pcs=pcs, values=values,
                            version=np.array(FORMAT_VERSION, dtype=np.uint32),
                            checksum=np.array(payload_checksum(pcs, values),
                                              dtype=np.uint32))
        with pytest.raises(TraceCacheError, match=match):
            ValueTrace.load(path)

    def test_roundtrip_still_works(self, tmp_path):
        path = tmp_path / "t.npz"
        trace = ValueTrace("t", [4, 8, 12], [1, 2, 3])
        trace.save(path)
        loaded = ValueTrace.load(path)
        assert loaded.records() == trace.records()
        assert loaded.name == "t"


class TestSelfHealing:
    def test_garbage_entry_recaptured(self, tmp_path):
        path = one_entry(tmp_path)
        original = ValueTrace.load(path).records()
        path.write_bytes(b"\x00garbage\x00")
        before = cache_stats()
        trace = cached_trace("li", limit=300, cache_dir=tmp_path)
        stats = cache_stats() - before
        assert trace.records() == original
        assert stats.corrupt_quarantined == 1 and stats.recaptures == 1
        assert stats.hits == 0 and stats.misses == 0
        # the bad bytes were kept for post-mortem, and replaced on disk
        assert (tmp_path / (path.name + ".corrupt")).exists()
        assert verify_entry(path) is None

    def test_truncated_entry_recaptured(self, tmp_path):
        path = one_entry(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-40])  # chop the tail (central directory)
        trace = cached_trace("li", limit=300, cache_dir=tmp_path)
        assert len(trace) == 300
        assert verify_entry(path) is None

    def test_suite_traces_heals_and_reports(self, tmp_path, monkeypatch):
        """The acceptance scenario: damage one entry's tail, re-run the
        suite loader, observe recovery in CacheStats."""
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        suite_traces(1000)
        victim = sorted(tmp_path.glob("*.npz"))[0]
        data = victim.read_bytes()
        victim.write_bytes(data[:-25])
        before = cache_stats()
        traces = suite_traces(1000)
        stats = cache_stats() - before
        assert [t.name for t in traces] == SPEC_NAMES
        assert all(len(t) == 1000 for t in traces)
        assert stats.recaptures == 1 and stats.corrupt_quarantined == 1
        assert stats.hits == len(SPEC_NAMES) - 1

    def test_version_bump_invalidates(self, tmp_path):
        path = one_entry(tmp_path)
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["version"] = np.array(FORMAT_VERSION - 1, dtype=np.uint32)
        np.savez_compressed(path, **arrays)
        before = cache_stats()
        trace = cached_trace("li", limit=300, cache_dir=tmp_path)
        assert len(trace) == 300
        assert (cache_stats() - before).recaptures == 1


class TestAtomicWrites:
    def test_interrupted_save_leaves_no_npz(self, tmp_path, monkeypatch):
        trace = ValueTrace("t", [4, 8], [1, 2])

        def explode(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez_compressed", explode)
        with pytest.raises(OSError):
            trace.save(tmp_path / "t.npz")
        assert list(tmp_path.iterdir()) == []  # no partial file, tmp swept

    def test_leftover_tmp_is_ignored(self, tmp_path):
        (tmp_path / "li-300-deadbeef.npz.1234.tmp").write_bytes(b"partial")
        trace = cached_trace("li", limit=300, cache_dir=tmp_path)
        assert len(trace) == 300
        assert cache_entries(tmp_path)[0].path.suffix == ".npz"

    def test_save_overwrites_atomically(self, tmp_path):
        path = tmp_path / "t.npz"
        ValueTrace("t", [4], [1]).save(path)
        ValueTrace("t", [4, 8], [1, 2]).save(path)
        assert len(ValueTrace.load(path)) == 2
        assert list(tmp_path.glob("*.tmp")) == []


class TestCacheStats:
    def test_miss_then_hit(self, tmp_path):
        before = cache_stats()
        cached_trace("li", limit=200, cache_dir=tmp_path)
        stats = cache_stats() - before
        assert stats.misses == 1 and stats.hits == 0
        assert stats.bytes_written > 0 and stats.capture_seconds > 0
        cached_trace("li", limit=200, cache_dir=tmp_path)
        stats = cache_stats() - before
        assert stats.hits == 1 and stats.misses == 1
        assert stats.bytes_read > 0

    def test_global_stats_always_updated(self, tmp_path):
        before = cache_stats().misses
        cached_trace("li", limit=250, cache_dir=tmp_path)
        assert cache_stats().misses == before + 1

    def test_difference_and_render(self):
        a = CacheStats(hits=1, bytes_read=10)
        b = CacheStats(hits=4, misses=1, bytes_read=10,
                       capture_seconds=0.5)
        delta = b - a
        assert delta.hits == 3 and delta.misses == 1
        assert delta.bytes_read == 0
        assert "hits=3" in delta.render()
        assert delta.as_dict()["capture_seconds"] == 0.5


class TestVerifySweep:
    def test_clean_cache_ok(self, tmp_path):
        warm_cache(["li", "norm"], 200, cache_dir=tmp_path)
        result = verify_cache(tmp_path)
        assert result.ok and result.checked == 2

    def test_detects_defects_without_touching(self, tmp_path):
        path = one_entry(tmp_path)
        path.write_bytes(b"junk")
        result = verify_cache(tmp_path)
        assert not result.ok
        assert result.defects[0][0] == path
        assert path.exists()  # report-only: nothing moved

    def test_repair_recaptures_matching_key(self, tmp_path):
        path = one_entry(tmp_path)
        path.write_bytes(b"junk")
        result = verify_cache(tmp_path, repair=True)
        assert result.repaired == [path]
        assert verify_cache(tmp_path).ok
        assert len(ValueTrace.load(path)) == 300

    def test_repair_quarantines_foreign_file(self, tmp_path):
        bad = tmp_path / "notaworkload-123-0000000000000000.npz"
        bad.write_bytes(b"junk")
        result = verify_cache(tmp_path, repair=True)
        assert result.repaired == []
        assert not bad.exists()
        assert (tmp_path / (bad.name + ".corrupt")).exists()
        assert verify_cache(tmp_path).ok

    def test_clear_sweeps_quarantine_and_tmp(self, tmp_path):
        one_entry(tmp_path)
        (tmp_path / "a.npz.corrupt").write_bytes(b"x")
        (tmp_path / "b.npz.99.tmp").write_bytes(b"x")
        assert clear_cache(tmp_path) == 1
        assert list(tmp_path.iterdir()) == []


class TestCacheEntryParsing:
    def test_plain(self, tmp_path):
        path = one_entry(tmp_path)
        entry = CacheEntry.from_path(path)
        assert entry.benchmark == "li" and entry.limit == 300
        assert entry.optimize == 0 and entry.size == path.stat().st_size

    def test_optlevel_and_full(self, tmp_path):
        (tmp_path / "go-full-0123456789abcdef-O2.npz").write_bytes(b"x")
        entry = cache_entries(tmp_path)[0]
        assert entry.benchmark == "go" and entry.limit is None
        assert entry.optimize == 2


class TestCacheCli:
    def test_warm_ls_verify_clear_roundtrip(self, tmp_path):
        d = str(tmp_path)
        code, text = run_cli("cache", "warm", "li", "400", "--dir", d)
        assert code == 0 and "warmed 1 benchmark" in text
        assert "misses=1" in text

        code, text = run_cli("cache", "ls", "--dir", d)
        assert code == 0 and "li" in text and "400" in text
        assert "(1 entries)" in text

        code, text = run_cli("cache", "verify", "--dir", d)
        assert code == 0 and "0 defective" in text

        code, text = run_cli("cache", "clear", "--dir", d)
        assert code == 0 and "removed 1 entries" in text
        assert list(tmp_path.iterdir()) == []

    def test_verify_exit_codes_around_repair(self, tmp_path):
        d = str(tmp_path)
        run_cli("cache", "warm", "li", "400", "--dir", d)
        (victim,) = tmp_path.glob("*.npz")
        victim.write_bytes(b"junk")

        code, text = run_cli("cache", "verify", "--dir", d)
        assert code == 1 and "BAD" in text

        code, text = run_cli("cache", "verify", "--repair", "--dir", d)
        assert code == 0 and "1 recaptured" in text

        code, text = run_cli("cache", "verify", "--dir", d)
        assert code == 0 and "0 defective" in text

    def test_warm_rejects_nonpositive_limit(self, tmp_path, capsys):
        # A usage error: exit 2 with an "error:" line on stderr.
        with pytest.raises(SystemExit) as exit_info:
            run_cli("cache", "warm", "li", "0", "--dir", str(tmp_path))
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "error: limit must be positive, got 0" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_limit_zero_does_not_alias_full_key(self, tmp_path):
        cached_trace("li", limit=0, cache_dir=tmp_path)
        entry = cache_entries(tmp_path)[0]
        assert entry.limit == 0 and "full" not in entry.path.name

    def test_warm_all(self, tmp_path):
        code, text = run_cli("cache", "warm", "all", "100",
                             "--dir", str(tmp_path))
        assert code == 0
        assert len(list(tmp_path.glob("*.npz"))) == len(SPEC_NAMES)
