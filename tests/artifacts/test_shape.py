"""The payload shape vocabulary of :func:`repro.artifacts.shape.check`."""

from __future__ import annotations

import pytest

from repro.artifacts.shape import HISTOGRAM, check


class TestScalars:
    @pytest.mark.parametrize("value, typ", [
        (1, int), (1, float), (1.5, float), ("x", str), (True, bool),
        ({}, dict), ([], list),
    ])
    def test_matching_types_pass(self, value, typ):
        assert check(value, typ) == []

    @pytest.mark.parametrize("typ", [int, float])
    def test_bool_is_never_a_number(self, typ):
        assert check(True, typ) == [
            f"document: expected {'integer' if typ is int else 'number'}, "
            "got boolean"
        ]

    def test_float_is_not_an_integer(self):
        assert check(1.5, int) == ["document: expected integer, got number"]

    def test_null_is_named(self):
        assert check(None, str) == ["document: expected string, got null"]


class TestEnums:
    def test_listed_value_passes(self):
        assert check("b", ("a", "b")) == []

    def test_other_value_is_named(self):
        assert check("c", ("a", "b")) == [
            "document: unknown value 'c' (want one of a, b)"
        ]


class TestObjects:
    SHAPE = {"name": str, "size?": int}

    def test_extra_keys_are_fine(self):
        assert check({"name": "x", "more": 1}, self.SHAPE) == []

    def test_optional_key_may_be_absent_or_null(self):
        assert check({"name": "x"}, self.SHAPE) == []
        assert check({"name": "x", "size": None}, self.SHAPE) == []

    def test_optional_key_is_still_typed(self):
        assert check({"name": "x", "size": "big"}, self.SHAPE) == [
            "size: expected integer, got string"
        ]

    def test_required_key_missing_or_null(self):
        assert check({}, self.SHAPE) == ["name: missing"]
        assert check({"name": None}, self.SHAPE) == [
            "name: expected string, got null"
        ]

    def test_nested_paths_are_full(self):
        shape = {"pool": {"per_worker": [{"jobs": int}]}}
        doc = {"pool": {"per_worker": [{"jobs": 1}, {"jobs": "x"}, 5]}}
        assert check(doc, shape) == [
            "pool.per_worker[1].jobs: expected integer, got string",
            "pool.per_worker[2]: expected object, got integer",
        ]


class TestMaps:
    def test_every_value_is_checked(self):
        doc = {"h": {"a": {"count": 1}, "b": 3}}
        problems = check(doc, {"h": {str: {"count": int}}})
        assert problems == ["h['b']: expected object, got integer"]

    def test_enum_keyed_map_rejects_unknown_keys(self):
        shape = {"completed": {("hit", "failed"): int}}
        assert check({"completed": {"hit": 2}}, shape) == []
        assert check({"completed": {"gone": 1}}, shape) == [
            "completed['gone']: unknown key (want one of hit, failed)"
        ]


def test_histogram_shape_matches_a_real_summary():
    from repro.obs.core import Histogram

    h = Histogram()
    assert check(h.summary(), HISTOGRAM) == []
    h.observe(0.5)
    assert check(h.summary(), HISTOGRAM) == []
