"""Plain-text table rendering for experiment results.

The experiment script and the examples print the same row structure the
paper's tables use; these helpers keep the formatting in one place.
"""

from __future__ import annotations

from typing import Sequence, Union

Cell = Union[str, int, float]


def _format_cell(value: Cell) -> str:
    if isinstance(value, float):
        if abs(value) >= 1000:
            return f"{value:.3e}"
        return f"{value:.3f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Cell]]) -> str:
    """Render a fixed-width text table."""
    rendered_rows = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    lines.append("  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_percent(value: float) -> str:
    """Render a fraction as a percentage string (``0.8117`` -> ``"81.17%"``)."""
    return f"{value * 100:.2f}%"
