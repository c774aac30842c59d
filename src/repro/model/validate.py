"""Model-vs-measurement validation (paper §6).

"This model was validated by estimating and measuring performance of
CFS, 4.3 BSD UNIX, and two types of file servers.  For the simple
operations benchmarked, the model almost always predicted performance
to within five percent of measured performance."

The bench measures the same operations on the simulator and compares.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.model.evaluate import Prediction


@dataclass
class ValidationRow:
    operation: str
    predicted_ms: float
    measured_ms: float

    @property
    def error_pct(self) -> float:
        if self.measured_ms == 0:
            return 0.0
        return 100.0 * (self.predicted_ms - self.measured_ms) / self.measured_ms


def compare(
    predictions: dict[str, Prediction], measured_ms: dict[str, float]
) -> list[ValidationRow]:
    """Join predictions with measurements by operation name."""
    rows = []
    for name, measured in measured_ms.items():
        prediction = predictions.get(name)
        if prediction is None:
            continue
        rows.append(
            ValidationRow(
                operation=name,
                predicted_ms=prediction.predicted_ms,
                measured_ms=measured,
            )
        )
    return rows


def max_abs_error_pct(rows: list[ValidationRow]) -> float:
    """Largest absolute prediction error, in percent."""
    return max((abs(row.error_pct) for row in rows), default=0.0)


def mean_abs_error_pct(rows: list[ValidationRow]) -> float:
    """Mean absolute prediction error, in percent."""
    if not rows:
        return 0.0
    return sum(abs(row.error_pct) for row in rows) / len(rows)
