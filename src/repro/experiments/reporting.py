"""Plain-text rendering of experiment results.

The paper's figures are line plots and its tables are simple grids; the
benchmark harness regenerates the underlying numbers and prints them as
aligned text tables so the "who wins, by how much, where are the crossovers"
comparisons can be made directly from the console output (and, on a
benchmark record run, from ``benchmarks/results/<experiment>.txt``).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .runner import ExperimentResult

__all__ = ["format_table", "format_result", "summarize_series"]


def _format_cell(value: object, precision: int) -> str:
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_table(columns: Sequence[str], rows: Sequence[Sequence[object]],
                 precision: int = 3) -> str:
    """Render ``rows`` under ``columns`` as an aligned monospace table."""
    if not columns:
        raise ValueError("need at least one column")
    rendered_rows = [[_format_cell(cell, precision) for cell in row] for row in rows]
    widths = [len(str(col)) for col in columns]
    for row in rendered_rows:
        if len(row) != len(columns):
            raise ValueError("row length does not match the number of columns")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    header = "  ".join(str(col).ljust(widths[i]) for i, col in enumerate(columns))
    separator = "  ".join("-" * widths[i] for i in range(len(columns)))
    body = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        for row in rendered_rows
    ]
    return "\n".join([header, separator, *body])


def format_result(result: ExperimentResult, precision: int = 3) -> str:
    """Render an :class:`ExperimentResult` with its title and metadata."""
    rows = []
    for row in result.rows:
        rendered = [row.label]
        for column in result.columns:
            rendered.append(row.values.get(column, float("nan")))
        rows.append(rendered)
    table = format_table(["case", *result.columns], rows, precision=precision)
    meta_lines = [f"  {key}: {value}" for key, value in sorted(result.metadata.items())]
    header = f"== {result.name} ==\n{result.description}"
    if meta_lines:
        header += "\n" + "\n".join(meta_lines)
    return f"{header}\n{table}"


def summarize_series(xs: Iterable[float], ys: Iterable[float],
                     x_label: str = "x", y_label: str = "y") -> str:
    """One-line summary of a curve: range of x, max y and its location."""
    xs = list(xs)
    ys = list(ys)
    if len(xs) != len(ys) or not xs:
        raise ValueError("xs and ys must be equal-length and non-empty")
    best = max(range(len(ys)), key=lambda i: ys[i])
    return (
        f"{y_label} over {x_label} in [{min(xs):g}, {max(xs):g}]: "
        f"max {ys[best]:.3f} at {x_label}={xs[best]:g}"
    )
