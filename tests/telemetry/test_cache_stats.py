"""The trace-cache counters live in the registry; readings are plain
CacheStats values."""

import pytest

from repro.telemetry.registry import registry
from repro.trace.stats import CacheStats, cache_stats, record_cache


class TestRegistryView:
    def test_cache_stats_reads_registry_counters(self):
        stats = cache_stats()
        assert isinstance(stats, CacheStats)
        assert stats.hits == 0
        record_cache(hits=2, bytes_read=100)
        stats = cache_stats()
        assert stats.hits == 2
        assert stats.bytes_read == 100
        assert registry().counter("repro_cache_hits_total").value() == 2
        assert registry().counter(
            "repro_cache_read_bytes_total").value() == 100

    def test_registry_writes_are_visible_through_the_view(self):
        registry().counter("repro_cache_misses_total").inc(3)
        assert cache_stats().misses == 3

    def test_counts_read_back_as_ints_seconds_as_float(self):
        record_cache(hits=1, capture_seconds=0.25)
        stats = cache_stats()
        assert isinstance(stats.hits, int)
        assert stats.capture_seconds == pytest.approx(0.25)

    def test_direct_assignment_rejected(self):
        with pytest.raises(AttributeError):
            cache_stats().hits = 5

    def test_unknown_counter_rejected(self):
        with pytest.raises(KeyError):
            record_cache(frobs=1)

    def test_render_keeps_historical_shape(self):
        record_cache(hits=1, misses=2)
        text = cache_stats().render()
        assert "hits=1" in text and "misses=2" in text
        assert "capture_seconds=0.00" in text


class TestPerCallInstances:
    def test_plain_instances_stay_local(self):
        local = CacheStats(hits=3)
        assert local.hits == 3
        assert registry().counter("repro_cache_hits_total").value() == 0

    def test_difference_of_two_readings(self):
        record_cache(hits=4, bytes_read=10)
        before = cache_stats()
        record_cache(hits=2, misses=1, capture_seconds=0.5)
        delta = cache_stats() - before
        assert (delta.hits, delta.misses, delta.bytes_read) == (2, 1, 0)
        assert delta.capture_seconds == pytest.approx(0.5)
