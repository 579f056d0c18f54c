"""Plain-text table formatting for the result dataclasses, CLI and benchmarks.

Every figure renders as a small aligned table (``result.render()``, the CLI,
the benchmark suite's stdout); these formatters keep that output consistent
and easy to diff.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = ""
) -> str:
    """Render a plain-text table with aligned columns."""
    rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(render_row(list(headers)))
    lines.append(render_row(["-" * w for w in widths]))
    for row in rows:
        lines.append(render_row(row))
    return "\n".join(lines)


def format_percentages(values: Mapping[str, float], title: str = "") -> str:
    """Render a name -> fraction mapping as percentages."""
    rows = [(name, f"{100.0 * value:.1f}%") for name, value in values.items()]
    return format_table(["name", "value"], rows, title=title)


def format_float(value: float, digits: int = 2) -> str:
    """Format a float, rendering infinities in a readable way."""
    if value == float("inf"):
        return "inf"
    return f"{value:.{digits}f}"
