"""``compare A B``: is B worse than A on any workload × end-to-end metric?

Each side is one or more run documents (``run --json``), comma
separated.  For every workload both sides ran and every end-to-end
metric in ``BENCHMARK.json``, the verdict compares the medians of the
two sides against the metric's bound:

* ``unresolved`` — a side's own spread ((max − min) / median) exceeds
  the bound, unless every run of B beats every run of A (``better``);
* ``worse`` / ``better`` — B's median is worse / better than A's by
  more than the bound;
* ``same`` — otherwise.

Exit status 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Mapping, Tuple

Values = Dict[str, Dict[str, List[float]]]


def load_side(paths: str) -> Values:
    """workload -> metric -> values, over the comma-separated documents."""
    out: Values = {}
    for path in paths.split(","):
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        if document.get("trace"):
            raise ValueError("%s is a traced run; compare untraced runs" % path)
        for workload, result in document["workloads"].items():
            metrics = out.setdefault(workload, {})
            for name, entry in result["metrics"].items():
                metrics.setdefault(name, []).append(entry["value"])
    return out


def _spread(values: List[float]) -> float:
    return (max(values) - min(values)) / statistics.median(values)


def verdict(base: List[float], new: List[float], bound: float,
            better: str) -> Tuple[float, str]:
    """(new median / base median, verdict)."""
    base_median, new_median = statistics.median(base), statistics.median(new)
    ratio = new_median / base_median
    worse_by = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if max(_spread(base), _spread(new)) > bound:
        if better == "lower":
            wins = max(new) < min(base)
        else:
            wins = min(new) > max(base)
        return ratio, "better" if wins else "unresolved"
    if worse_by > bound:
        return ratio, "worse"
    if worse_by < -bound:
        return ratio, "better"
    return ratio, "same"


def compare(base: Values, new: Values,
            metrics: List[Mapping]) -> List[Tuple[str, str, float, float,
                                                  float, float, str]]:
    """Rows of (workload, metric, base median, new median, ratio,
    bound, verdict)."""
    rows = []
    for workload in sorted(set(base) & set(new)):
        for metric in metrics:
            name = metric["name"]
            if name not in base[workload] or name not in new[workload]:
                continue
            left, right = base[workload][name], new[workload][name]
            ratio, outcome = verdict(
                left, right, metric["bound"], metric["better"]
            )
            rows.append((
                workload, name, statistics.median(left),
                statistics.median(right), ratio, metric["bound"], outcome,
            ))
    return rows


def main(base_paths: str, new_paths: str, spec: Mapping) -> int:
    rows = compare(load_side(base_paths), load_side(new_paths),
                   spec["end_to_end"])
    if not rows:
        print("compare: the two sides share no workload and metric")
        return 2
    print("%-22s %-18s %12s %12s %7s %6s  %s" % (
        "workload", "metric", "A median", "B median", "B/A", "bound",
        "verdict",
    ))
    for workload, name, left, right, ratio, bound, outcome in rows:
        print("%-22s %-18s %12.4f %12.4f %7.3f %6.2f  %s" % (
            workload, name, left, right, ratio, bound, outcome,
        ))
    return 1 if any(row[-1] == "worse" for row in rows) else 0
