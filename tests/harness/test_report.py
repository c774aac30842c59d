"""Unit tests for paper-vs-measured reporting."""

from __future__ import annotations

from repro.harness.report import Table, ratio


class TestTable:
    def test_render_contains_rows(self):
        table = Table("T")
        table.add("small create", 264.0, 70.0, unit="ms", note="speedup")
        text = table.render()
        assert "T" in text
        assert "small create" in text
        assert "264" in text and "70" in text

    def test_mixed_value_types(self):
        table = Table("T")
        table.add("recovery", "3600+ s", 25.0)
        assert "3600+ s" in table.render()

    def test_large_numbers_formatted(self):
        table = Table("T")
        table.add("ios", 1975.0, 1299.0)
        assert "1,975" in table.render()


class TestRatio:
    def test_basic(self):
        assert ratio(10, 4) == 2.5

    def test_zero_denominator(self):
        assert ratio(5, 0) == float("inf")
