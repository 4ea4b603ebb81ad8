"""Figure 6-style report formatting.

Renders a :class:`repro.bench.harness.Figure6` in the layout of the
paper's evaluation table: one block of rows per benchmark (pts / hpts /
call / Total / Time), one column per context-sensitivity configuration,
each cell showing the context-string quantity followed by the percentage
decrease obtained with transformer strings; type-sensitive columns add
the context-insensitive fact increase in parentheses; the final rows are
the geometric means.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.bench.harness import Cell, Figure6, Measurement, RELATIONS


def _quantity(value: int) -> str:
    if value >= 1_000_000:
        return f"{value / 1_000_000:.1f}M"
    if value >= 10_000:
        return f"{value / 1000:.0f}k"
    return str(value)


def _cell_size(cell: Cell, relation: str, type_column: bool) -> str:
    base = cell.context_string.sizes[relation]
    decrease = cell.size_decrease(relation)
    text = _quantity(base)
    if decrease is None:
        text += " —"
    else:
        text += f" {decrease * 100:5.1f}%"
    if type_column:
        text += f" (+{cell.ci_increase(relation)})"
    return text


def _cell_total(cell: Cell) -> str:
    return (
        f"{_quantity(cell.context_string.total)}"
        f" {cell.total_decrease() * 100:5.1f}%"
    )


def _cell_time(cell: Cell) -> str:
    return (
        f"{cell.context_string.seconds * 1000:.1f}ms"
        f" {cell.time_decrease() * 100:5.1f}%"
    )


def format_figure6(table: Figure6, title: str = "Figure 6") -> str:
    """Render the table as aligned text."""
    configurations = table.configurations()
    width = 24
    lines: List[str] = []
    lines.append(
        f"{title}: context-string quantity and % decrease with transformer"
        " strings"
    )
    header = f"{'':10s}{'':6s}" + "".join(
        f"{c:>{width}s}" for c in configurations
    )
    lines.append(header)
    lines.append("-" * len(header))
    for benchmark in table.benchmarks():
        for row_index, relation in enumerate(RELATIONS + ("Total", "Time")):
            label = benchmark if row_index == 0 else ""
            line = f"{label:10s}{relation:6s}"
            for configuration in configurations:
                cell = table.cell(benchmark, configuration)
                type_column = configuration.endswith("type+H")
                if relation == "Total":
                    text = _cell_total(cell)
                elif relation == "Time":
                    text = _cell_time(cell)
                else:
                    text = _cell_size(cell, relation, type_column)
                line += f"{text:>{width}s}"
            lines.append(line)
        lines.append("")
    mean_total = f"{'Mean':10s}{'Total':6s}"
    mean_time = f"{'':10s}{'Time':6s}"
    for configuration in configurations:
        mean_total += (
            f"{table.geomean_total_decrease(configuration) * 100:>{width - 1}.1f}%"
        )
        mean_time += (
            f"{table.geomean_time_decrease(configuration) * 100:>{width - 1}.1f}%"
        )
    lines.append(mean_total)
    lines.append(mean_time)
    return "\n".join(lines)


def format_csv(table: Figure6) -> str:
    """Machine-readable export: one row per benchmark × configuration."""
    lines = [
        "benchmark,configuration,abstraction,pts,hpts,call,total,seconds"
    ]
    for cell in table.cells:
        for label, measurement in (
            ("context-string", cell.context_string),
            ("transformer-string", cell.transformer_string),
        ):
            sizes = measurement.sizes
            lines.append(
                f"{cell.benchmark},{cell.configuration},{label},"
                f"{sizes['pts']},{sizes['hpts']},{sizes['call']},"
                f"{measurement.total},{measurement.seconds:.6f}"
            )
    return "\n".join(lines) + "\n"


#: Schema identifier embedded in every JSON export; bump the suffix on
#: breaking layout changes.  The layout is documented in ``docs/api.md``.
#: ``/2`` to ``/9`` added and removed workload blocks beside the table
#: (query latency, edit churn, checker audit, kernels, serving, cost);
#: ``/10`` is the table alone: ``/9`` without those six keys.
JSON_SCHEMA = "repro-figure6/10"


def _measurement_json(measurement: Measurement) -> Dict:
    out: Dict = {
        "sizes": dict(measurement.sizes),
        "ci_sizes": dict(measurement.ci_sizes),
        "total": measurement.total,
        "seconds": measurement.seconds,
    }
    if measurement.counters is not None:
        out["counters"] = measurement.counters
    return out


def figure6_json(
    table: Figure6,
    scale: Optional[int] = None,
    repetitions: Optional[int] = None,
    engine: Optional[str] = None,
) -> Dict:
    """The table as a JSON-serializable dict (schema ``repro-figure6/10``).

    Top-level keys: ``schema``, the run parameters (``scale``,
    ``repetitions``, ``engine``; ``None`` when unknown), ``benchmarks``,
    ``configurations``, ``cells`` and ``geomean``.  Each cell carries
    both abstractions' measurements (sizes, CI sizes, total, seconds,
    and per-relation store counters when available) plus the derived
    decrease percentages as fractions.
    """
    return {
        "schema": JSON_SCHEMA,
        "scale": scale,
        "repetitions": repetitions,
        "engine": engine,
        "benchmarks": table.benchmarks(),
        "configurations": table.configurations(),
        "cells": [
            {
                "benchmark": cell.benchmark,
                "configuration": cell.configuration,
                "context_string": _measurement_json(cell.context_string),
                "transformer_string": _measurement_json(
                    cell.transformer_string
                ),
                "size_decrease": {
                    relation: cell.size_decrease(relation)
                    for relation in RELATIONS
                },
                "total_decrease": cell.total_decrease(),
                "time_decrease": cell.time_decrease(),
            }
            for cell in table.cells
        ],
        "geomean": {
            configuration: {
                "total_decrease": table.geomean_total_decrease(configuration),
                "time_decrease": table.geomean_time_decrease(configuration),
            }
            for configuration in table.configurations()
        },
    }


def format_json(
    table: Figure6,
    scale: Optional[int] = None,
    repetitions: Optional[int] = None,
    engine: Optional[str] = None,
) -> str:
    """:func:`figure6_json` serialized (indented, trailing newline)."""
    return json.dumps(
        figure6_json(table, scale=scale, repetitions=repetitions,
                     engine=engine),
        indent=2,
    ) + "\n"


def format_cell_summary(cell: Cell) -> str:
    """One-line summary of a single cell (used by benchmark output)."""
    return (
        f"{cell.benchmark}/{cell.configuration}: total"
        f" {cell.context_string.total} -> {cell.transformer_string.total}"
        f" ({cell.total_decrease() * 100:.1f}% fewer facts),"
        f" time {cell.context_string.seconds * 1000:.1f}ms ->"
        f" {cell.transformer_string.seconds * 1000:.1f}ms"
    )
