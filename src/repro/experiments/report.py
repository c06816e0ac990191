"""ASCII rendering of experiment outputs.

The benchmarks print through these helpers so every figure regenerates as
readable rows — the same rows EXPERIMENTS.md records.  The fixed-width
table itself is :func:`repro.telemetry.report.format_table`, the one
formatter every report in the package prints through.
"""

from __future__ import annotations

from typing import Iterable

from ..telemetry.report import format_table

__all__ = ["format_series", "format_table"]


def format_series(title: str, xs: Iterable, series: dict[str, Iterable],
                  x_label: str = "x") -> str:
    """A titled table with one row per x and one column per series."""
    headers = [x_label] + list(series)
    rows = []
    for i, x in enumerate(xs):
        rows.append([x] + [list(values)[i] for values in series.values()])
    return f"== {title} ==\n" + format_table(headers, rows)
