"""Tests for repro.features: definitions, extraction, time series, streaming."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.features.definitions import FEATURES, Feature, PAPER_FEATURES
from repro.features.extractor import extract_feature_matrix
from repro.features.timeseries import FeatureMatrix, TimeSeries
from repro.traces.flow import ConnectionRecord, flow_key_of
from repro.traces.packet import TCPFlags, ip_to_int
from repro.utils.timeutils import BinSpec, MINUTE, WEEK
from repro.utils.validation import ValidationError

from helpers import make_tcp_packet, make_udp_packet, rebin

HOST = "10.0.0.9"
HOST_IP = ip_to_int(HOST)


def _record(timestamp, dst="93.184.216.34", dst_port=80, udp=False, syn_count=1):
    packet = (
        make_udp_packet(timestamp, HOST, dst, 40000, dst_port)
        if udp
        else make_tcp_packet(timestamp, HOST, dst, 40000, dst_port, TCPFlags.SYN)
    )
    return ConnectionRecord(
        start_time=timestamp,
        end_time=timestamp + 1.0,
        key=flow_key_of(packet),
        syn_count=0 if udp else syn_count,
    )


class TestFeatureDefinitions:
    def test_all_six_paper_features_present(self):
        assert len(PAPER_FEATURES) == 6
        assert set(PAPER_FEATURES) == set(FEATURES)

    def test_predicates(self):
        dns = _record(0.0, dst="10.0.0.53", dst_port=53, udp=True)
        http = _record(0.0, dst_port=80)
        udp = _record(0.0, dst_port=9999, udp=True)
        assert FEATURES[Feature.DNS_CONNECTIONS].predicate(dns)
        assert FEATURES[Feature.HTTP_CONNECTIONS].predicate(http)
        assert FEATURES[Feature.UDP_CONNECTIONS].predicate(udp)
        assert not FEATURES[Feature.TCP_CONNECTIONS].predicate(udp)

    def test_syn_count_value(self):
        record = _record(0.0, syn_count=3)
        assert FEATURES[Feature.TCP_SYN].count_value(record) == 3.0


class TestTimeSeries:
    def _series(self, values, width=15 * MINUTE):
        return TimeSeries(values, BinSpec(width=width))

    def test_basic_properties(self):
        series = self._series([1, 2, 3, 4])
        assert len(series) == 4
        assert series.total() == 10
        assert series[1] == 2.0

    def test_negative_values_rejected(self):
        with pytest.raises(ValidationError):
            self._series([1, -1])

    def test_week_slicing(self):
        values = np.arange(2 * 672)
        series = self._series(values)
        week0 = series.week(0)
        week1 = series.week(1)
        assert week0.num_bins == 672
        assert week1.values[0] == 672
        assert series.num_weeks() == 2

    def test_out_of_range_week_raises_with_available_range(self):
        # Regression: an out-of-range week used to return a silently empty
        # series, which propagated into empty training distributions.
        series = self._series(np.arange(2 * 672))
        with pytest.raises(ValueError, match=r"valid week indices are 0\.\.1"):
            series.week(2)
        with pytest.raises(ValueError, match="out of range"):
            series.week_range(2, 4)
        with pytest.raises(ValidationError):
            series.week(-1)

    def test_partially_out_of_range_window_raises_instead_of_truncating(self):
        # Regression: a window whose end ran past the covered span used to
        # come back silently truncated (start in range, end beyond), so a
        # rolling training window could quietly train on fewer weeks than
        # requested.
        series = self._series(np.arange(2 * 672))
        with pytest.raises(ValueError, match=r"valid week indices are 0\.\.1"):
            series.week_range(0, 5)
        with pytest.raises(ValueError, match="out of range"):
            series.week_range(1, 3)
        # Full-coverage windows and partial trailing weeks stay addressable.
        assert series.week_range(0, 2).num_bins == 2 * 672
        ragged = self._series(np.arange(672 + 10))
        assert ragged.week_range(0, 2).num_bins == 672 + 10

    def test_week_range_is_contiguous_slice(self):
        series = self._series(np.arange(3 * 672))
        window = series.week_range(1, 3)
        assert window.num_bins == 2 * 672
        assert window.values[0] == 672.0
        # A partial trailing week is still addressable.
        ragged = self._series(np.arange(672 + 10))
        assert ragged.week(1).num_bins == 10

    def test_rebin_sums_adjacent(self):
        series = TimeSeries([1, 2, 3, 4, 5, 6], BinSpec(width=5 * MINUTE))
        rebinned = rebin(series, 3)
        assert rebinned.num_bins == 2
        assert list(rebinned.values) == [6.0, 15.0]
        assert rebinned.bin_width == pytest.approx(15 * MINUTE)

    def test_add_series(self):
        a = self._series([1, 2, 3])
        b = self._series([10, 10])
        combined = a.add(b)
        assert list(combined.values) == [11.0, 12.0, 3.0]

    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=300))
    def test_rebin_preserves_total_on_exact_multiple(self, values):
        series = TimeSeries(values, BinSpec(width=300.0))
        factor = 3
        usable = (len(values) // factor) * factor
        if usable == 0:
            return
        rebinned = rebin(series, factor)
        assert rebinned.total() == pytest.approx(sum(values[:usable]))


class TestFeatureMatrix:
    def _matrix(self):
        spec = BinSpec(width=15 * MINUTE)
        series = {
            Feature.TCP_CONNECTIONS: TimeSeries([1, 2, 3, 4], spec),
            Feature.UDP_CONNECTIONS: TimeSeries([0, 1, 0, 1], spec),
        }
        return FeatureMatrix(host_id=7, series=series)

    def test_accessors(self):
        matrix = self._matrix()
        assert matrix.host_id == 7
        assert Feature.TCP_CONNECTIONS in matrix
        assert matrix[Feature.UDP_CONNECTIONS].total() == 2
        assert len(matrix.features) == 2

    def test_mismatched_lengths_rejected(self):
        spec = BinSpec(width=15 * MINUTE)
        with pytest.raises(ValidationError):
            FeatureMatrix(
                1,
                {
                    Feature.TCP_CONNECTIONS: TimeSeries([1, 2], spec),
                    Feature.UDP_CONNECTIONS: TimeSeries([1], spec),
                },
            )


class TestFeatureExtractor:
    def test_counts_by_feature(self):
        records = [
            _record(10.0, dst_port=80),
            _record(20.0, dst_port=80),
            _record(30.0, dst="10.0.0.53", dst_port=53, udp=True),
            _record(40.0, dst_port=9999, udp=True),
            _record(50.0, dst="1.2.3.4", dst_port=443),
        ]
        matrix = extract_feature_matrix(1, records, bin_width=15 * MINUTE, duration=30 * MINUTE)
        first_bin = {feature: matrix[feature].values[0] for feature in PAPER_FEATURES}
        assert first_bin[Feature.TCP_CONNECTIONS] == 3
        assert first_bin[Feature.HTTP_CONNECTIONS] == 2
        assert first_bin[Feature.DNS_CONNECTIONS] == 1
        # DNS queries travel over UDP, so they count towards both features.
        assert first_bin[Feature.UDP_CONNECTIONS] == 2
        assert first_bin[Feature.TCP_SYN] == 3
        # Distinct destinations: the web server (two records, counted once),
        # the DNS server, and 1.2.3.4.
        assert first_bin[Feature.DISTINCT_CONNECTIONS] == 3

    def test_duration_pads_with_zero_bins(self):
        matrix = extract_feature_matrix(1, [_record(10.0)], duration=WEEK)
        assert matrix.num_bins == 672

    def test_records_outside_duration_ignored(self):
        matrix = extract_feature_matrix(1, [_record(WEEK + 100)], duration=WEEK)
        assert matrix[Feature.TCP_CONNECTIONS].total() == 0

    def test_inbound_records_not_counted(self):
        packet = make_tcp_packet(5.0, "8.8.8.8", HOST, 80, 40000, TCPFlags.SYN)
        record = ConnectionRecord(
            start_time=5.0,
            end_time=6.0,
            key=flow_key_of(packet),
            direction=__import__("repro.traces.flow", fromlist=["FlowDirection"]).FlowDirection.INBOUND,
        )
        matrix = extract_feature_matrix(1, [record], duration=15 * MINUTE)
        assert matrix[Feature.TCP_CONNECTIONS].total() == 0
