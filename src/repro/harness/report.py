"""Paper-vs-measured reporting.

Every benchmark emits rows through this module so the console output
and EXPERIMENTS.md use one format.  We reproduce *shape*, not absolute
1987 numbers, so each row carries both the paper's value and ours,
plus the ratio of ratios where the paper reports a speed-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Row:
    label: str
    paper: float | str
    measured: float | str
    unit: str = ""
    note: str = ""

    def formatted(self, widths: tuple[int, int, int]) -> str:
        """Render the row with the given column widths."""
        def fmt(value: float | str) -> str:
            if isinstance(value, float):
                return f"{value:,.1f}" if value < 1000 else f"{value:,.0f}"
            return str(value)

        label_w, paper_w, measured_w = widths
        return (
            f"  {self.label:<{label_w}} "
            f"{fmt(self.paper):>{paper_w}} "
            f"{fmt(self.measured):>{measured_w}}  "
            f"{self.unit:<6} {self.note}"
        )


@dataclass
class Table:
    title: str
    rows: list[Row] = field(default_factory=list)

    def add(
        self,
        label: str,
        paper: float | str,
        measured: float | str,
        unit: str = "",
        note: str = "",
    ) -> None:
        """Append a paper-vs-measured row."""
        self.rows.append(Row(label, paper, measured, unit, note))

    def render(self) -> str:
        """The whole table as aligned text."""
        label_w = max([len(r.label) for r in self.rows] + [len("operation")])
        paper_w = max(12, len("paper"))
        measured_w = max(12, len("measured"))
        header = (
            f"  {'operation':<{label_w}} {'paper':>{paper_w}} "
            f"{'measured':>{measured_w}}"
        )
        lines = [f"== {self.title} ==", header, "  " + "-" * (label_w + 30)]
        lines += [row.formatted((label_w, paper_w, measured_w)) for row in self.rows]
        return "\n".join(lines)

    def print(self) -> None:
        """Print the rendered table preceded by a blank line."""
        print()
        print(self.render())


def ratio(numerator: float, denominator: float) -> float:
    """Safe speed-up ratio."""
    if denominator == 0:
        return float("inf")
    return numerator / denominator
