"""Tests for level-2 stride occupancy (paper Figures 6 and 9)."""

import pytest

from repro.core.dfcm import DFCMPredictor
from repro.core.fcm import FCMPredictor
from repro.core.last_value import LastValuePredictor
from repro.core.stride import StridePredictor
from repro.telemetry.tables import stride_occupancy
from tests.conftest import interleaved, repeating_trace, stride_trace


def stride_heavy_records():
    return interleaved(
        stride_trace("i", 0x1000, 0, 1, 300),
        stride_trace("j8", 0x1004, 0, 8, 300),
        stride_trace("addr", 0x1008, 0x10008000, 4, 300),
    ).records()


class TestStrideOccupancy:
    def test_counts_are_sorted_descending(self):
        result = stride_occupancy(FCMPredictor(64, 1 << 8), stride_heavy_records())
        assert result.sorted_counts == sorted(result.sorted_counts, reverse=True)
        assert len(result.sorted_counts) == 1 << 8

    def test_totals_are_consistent(self):
        result = stride_occupancy(FCMPredictor(64, 1 << 8), stride_heavy_records())
        assert result.total_accesses == 900
        assert sum(result.sorted_counts) == result.stride_accesses
        assert result.stride_accesses <= result.total_accesses

    def test_fcm_spreads_strides_dfcm_concentrates(self):
        # The paper's core observation: the DFCM uses far fewer L2
        # entries for stride patterns than the FCM.
        records = stride_heavy_records()
        fcm = stride_occupancy(FCMPredictor(1 << 10, 1 << 10), records)
        dfcm = stride_occupancy(DFCMPredictor(1 << 10, 1 << 10), records)
        # FCM touches a new entry for almost every ramp value (hundreds
        # of entries, a handful of accesses each); DFCM funnels each
        # ramp through one hot entry per stride.
        assert dfcm.entries_with_at_least(1) < fcm.entries_with_at_least(1) / 10
        assert dfcm.entries_with_at_least(100) >= 3
        assert fcm.entries_with_at_least(100) == 0

    def test_dfcm_top_entries_take_most_stride_accesses(self):
        records = stride_heavy_records()
        dfcm = stride_occupancy(DFCMPredictor(1 << 10, 1 << 10), records)
        # All three streams share stride histories (1, 8, 4): a handful
        # of entries should absorb nearly everything.
        assert dfcm.top_share(8) > 0.9

    def test_entries_with_at_least(self):
        result = stride_occupancy(FCMPredictor(64, 1 << 8),
                                  stride_trace("s", 0, 0, 1, 50).records())
        assert result.entries_with_at_least(1) == sum(
            1 for c in result.sorted_counts if c >= 1)
        assert result.entries_with_at_least(10**9) == 0

    def test_top_share_of_empty_stride_set(self):
        # A pattern the reference stride predictor never predicts.
        import random
        rng = random.Random(7)
        records = [(0x100, rng.randrange(2**32)) for _ in range(200)]
        result = stride_occupancy(FCMPredictor(64, 1 << 8), records)
        assert result.stride_accesses < 10
        if result.stride_accesses == 0:
            assert result.top_share(4) == 0.0

    def test_rejects_non_context_predictors(self):
        with pytest.raises(TypeError):
            stride_occupancy(LastValuePredictor(16), [])

    def test_custom_reference_predictor(self):
        records = stride_trace("s", 0, 0, 1, 100).records()
        tiny_ref = StridePredictor(1)
        result = stride_occupancy(FCMPredictor(64, 1 << 8), records, tiny_ref)
        assert result.total_accesses == 100
