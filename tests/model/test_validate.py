"""Unit tests for model-validation bookkeeping."""

from __future__ import annotations

import pytest

from repro.model.evaluate import Prediction
from repro.model.validate import (
    ValidationRow,
    compare,
    max_abs_error_pct,
    mean_abs_error_pct,
)


class TestRows:
    def test_error_pct(self):
        row = ValidationRow("op", predicted_ms=110.0, measured_ms=100.0)
        assert row.error_pct == pytest.approx(10.0)
        row = ValidationRow("op", predicted_ms=90.0, measured_ms=100.0)
        assert row.error_pct == pytest.approx(-10.0)

    def test_zero_measured(self):
        assert ValidationRow("op", 5.0, 0.0).error_pct == 0.0


class TestCompare:
    def test_join_by_name(self):
        predictions = {
            "a": Prediction("a", 10.0, 9.0),
            "b": Prediction("b", 20.0, 18.0),
        }
        rows = compare(predictions, {"a": 11.0, "c": 5.0})
        assert len(rows) == 1
        assert rows[0].operation == "a"

    def test_aggregates(self):
        rows = [
            ValidationRow("x", 110.0, 100.0),
            ValidationRow("y", 80.0, 100.0),
        ]
        assert mean_abs_error_pct(rows) == pytest.approx(15.0)
        assert max_abs_error_pct(rows) == pytest.approx(20.0)

    def test_empty(self):
        assert mean_abs_error_pct([]) == 0.0
        assert max_abs_error_pct([]) == 0.0
