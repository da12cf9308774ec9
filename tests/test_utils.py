"""Tests for repro.utils: time handling, validation, deterministic RNG, JSONL appends."""

from __future__ import annotations

import logging
import multiprocessing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.jsonl import append_jsonl, iter_jsonl, read_jsonl
from repro.utils.records import parse
from repro.utils.rng import RandomSource, derive_seed, spawn_rng
from repro.utils.timeutils import BinSpec, WEEK, bin_index
from repro.utils.validation import (
    ValidationError,
    require,
    require_in_range,
    require_non_negative,
    require_positive,
    require_probability,
    require_type,
)
from repro.workload.drift import DriftComponent, DriftModel


class TestBinSpec:
    def test_index_of_origin(self):
        spec = BinSpec(width=900.0)
        assert spec.index_of(0.0) == 0
        assert spec.index_of(899.9) == 0
        assert spec.index_of(900.0) == 1

    def test_start_and_end(self):
        spec = BinSpec(width=900.0)
        assert spec.start_of(2) == 1800.0
        assert spec.end_of(2) == 2700.0
        assert spec.span(2) == (1800.0, 2700.0)

    def test_origin_shift(self):
        spec = BinSpec(width=100.0, origin=50.0)
        assert spec.index_of(50.0) == 0
        assert spec.index_of(49.0) == -1

    def test_count_until(self):
        spec = BinSpec(width=900.0)
        assert spec.count_until(WEEK) == 672
        assert spec.count_until(0.0) == 0

    def test_invalid_width_rejected(self):
        with pytest.raises(ValidationError):
            BinSpec(width=0.0)


class TestBinHelpers:
    def test_bin_index_and_start_roundtrip(self):
        width = 300.0
        for timestamp in (0.0, 100.0, 299.9, 300.0, 12345.6):
            index = bin_index(timestamp, width)
            assert index * width <= timestamp < (index + 1) * width


class TestValidation:
    def test_require_raises_on_false(self):
        with pytest.raises(ValidationError, match="broken"):
            require(False, "broken")
        require(True, "ok")

    def test_require_type(self):
        require_type(3, int, "x")
        with pytest.raises(ValidationError):
            require_type("3", int, "x")

    def test_numeric_requirements(self):
        require_positive(1.0, "x")
        require_non_negative(0.0, "x")
        require_probability(0.5, "x")
        require_in_range(3, 1, 5, "x")
        with pytest.raises(ValidationError):
            require_positive(0.0, "x")
        with pytest.raises(ValidationError):
            require_non_negative(-0.1, "x")
        with pytest.raises(ValidationError):
            require_probability(1.5, "x")
        with pytest.raises(ValidationError):
            require_in_range(6, 1, 5, "x")


class TestRecordReader:
    """``parse`` on a record holding a tuple of records (a drift model's components)."""

    def test_reads_a_tuple_of_records(self):
        payload = {"components": [{"kind": "seasonal", "scale": 2}, {"kind": "flash-crowd"}]}
        model = parse(DriftModel, payload, "drift")
        assert model == DriftModel(
            (DriftComponent("seasonal", scale=2.0), DriftComponent("flash-crowd"))
        )
        assert type(model.components[0].scale) is float
        kept = DriftComponent("role-churn")
        assert parse(DriftModel, {"components": (kept,)}, "drift").components[0] is kept

    def test_missing_required_field_is_named(self):
        missing = r"drift\.components\[1\]: missing required field\(s\) \['kind'\]"
        with pytest.raises(ValidationError, match=missing):
            parse(DriftModel, {"components": [{"kind": "seasonal"}, {"scale": 1.0}]}, "drift")

    def test_unknown_field_of_a_tuple_record_is_named(self):
        with pytest.raises(ValidationError, match=r"drift\.components\[0\]: unknown field"):
            parse(DriftModel, {"components": [{"kind": "seasonal", "speed": 1}]}, "drift")


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a = RandomSource(7).child("host", 3).generator.integers(0, 1000, size=5)
        b = RandomSource(7).child("host", 3).generator.integers(0, 1000, size=5)
        assert np.array_equal(a, b)

    def test_different_labels_different_streams(self):
        a = RandomSource(7).child("host", 3).generator.integers(0, 1000, size=10)
        b = RandomSource(7).child("host", 4).generator.integers(0, 1000, size=10)
        assert not np.array_equal(a, b)

    def test_derive_seed_stable(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
        assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)

    def test_spawn_rng_matches_child(self):
        direct = spawn_rng(5, "x").integers(0, 100, size=3)
        via_source = RandomSource(5).child("x").generator.integers(0, 100, size=3)
        assert np.array_equal(direct, via_source)

    def test_child_label_tracks_hierarchy(self):
        child = RandomSource(1, label="root").child("a", 2)
        assert child.label == "root/a/2"

    @given(st.integers(min_value=0, max_value=2**31), st.text(max_size=20))
    def test_derive_seed_in_range(self, seed, label):
        derived = derive_seed(seed, label)
        assert 0 <= derived < 2**63


class TestJsonlTail:
    """``iter_jsonl`` reads on from a caller's offset under ``read_jsonl``'s rules."""

    @staticmethod
    def _rows(path, offset=0, line=0):
        with path.open("rb") as handle:
            return list(iter_jsonl(handle, path, offset, line))

    def test_lines_from_an_offset_keep_their_file_line_numbers(self, tmp_path, jsonl_warnings):
        path = tmp_path / "log.jsonl"
        path.write_text('{"a": 1}\n{"a": 2}\n\n{"a": 3}\n{"a": 4')
        assert self._rows(path, offset=9, line=1) == [
            ({"a": 2}, b'{"a": 2}\n', 18, 2),
            ({"a": 3}, b'{"a": 3}\n', 28, 4),
        ]
        assert jsonl_warnings == [f"{path}:5: skipping torn final line (interrupted append)"]
        assert [row[0] for row in self._rows(path)] == read_jsonl(path) == [{"a": i} for i in (1, 2, 3)]

    def test_a_complete_final_line_without_its_newline_has_no_end(self, tmp_path, jsonl_warnings):
        path = tmp_path / "log.jsonl"
        path.write_text('{"a": 1}\n{"a": 2}')
        assert self._rows(path) == [({"a": 1}, b'{"a": 1}\n', 9, 1), ({"a": 2}, b'{"a": 2}', None, 2)]
        assert jsonl_warnings == []

    @pytest.mark.parametrize("bad", [b"nope", b"\xff"], ids=["not-json", "not-utf8"])
    def test_a_bad_middle_line_names_its_file_line(self, tmp_path, bad):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"a": 1}\n' + bad + b'\n{"a": 2}\n')
        with pytest.raises(ValidationError, match=f"{path}:2: not valid JSON"):
            self._rows(path, offset=9, line=1)
        with pytest.raises(ValidationError, match=f"{path}:2: not valid JSON"):
            read_jsonl(path)


def _append_records(path: str, log_path: str, writer: int, count: int, pad: int) -> None:
    """One appender process: ``count`` records of ``pad`` bytes, warnings logged to a file."""
    logging.basicConfig(filename=log_path, level=logging.WARNING)
    for index in range(count):
        append_jsonl(Path(path), {"writer": writer, "index": index, "pad": "x" * pad})


class TestConcurrentJsonlAppends:
    WRITERS = 4  # more writers than the 2 CPUs this suite is sized for
    RECORDS = 150
    # A record spanning many pages stays visible half-written for a while; an
    # appender that checked the tail without the lock would cut it off.
    PAD = 70_000

    def test_concurrent_appenders_keep_every_record(self, tmp_path, jsonl_warnings):
        path = tmp_path / "store.jsonl"
        logs = [tmp_path / f"writer{writer}.log" for writer in range(self.WRITERS)]
        context = multiprocessing.get_context("spawn")
        processes = [
            context.Process(
                target=_append_records,
                args=(str(path), str(logs[writer]), writer, self.RECORDS, self.PAD),
            )
            for writer in range(self.WRITERS)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=120)
        hung = [process for process in processes if process.is_alive()]
        for process in hung:
            process.kill()
        assert not hung
        assert [process.exitcode for process in processes] == [0] * self.WRITERS

        records = read_jsonl(path)
        assert sorted((record["writer"], record["index"]) for record in records) == [
            (writer, index) for writer in range(self.WRITERS) for index in range(self.RECORDS)
        ]
        assert all(len(record["pad"]) == self.PAD for record in records)
        assert jsonl_warnings == []
        for log in logs:
            assert "dropping torn final line" not in log.read_text()
