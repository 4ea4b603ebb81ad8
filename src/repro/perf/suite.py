"""Named suites: which corpus entries run on which surfaces, and how.

A suite is the unit ``repro bench run`` executes and the unit a
baseline pins: a list of (benchmark, surface, configuration, scale)
cells with a warmup/iteration discipline per cell.  Three suites ship:

* ``smoke`` — the CI gate: tiny scale, every distinct surface family
  (reference worklist, kernel backend, incremental churn, serving
  gateway) across three corpus entries, seconds to run;
* ``micro`` — the smallest possible document (one benchmark, two
  surfaces), used by the test suite;
* ``corpus`` — the full seven-analogue grid on the solver surfaces, a
  local pre-merge comparison run.

Every suite includes the ``worklist`` reference entry for each
(benchmark, configuration, scale) it measures, because relative-mode
gating (cross-host) normalises by it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.perf.adapters import adapter_for
from repro.perf.registry import DEFAULT_REGISTRY, BenchmarkRegistry
from repro.perf.result import RunResult, results_by_key


@dataclass(frozen=True)
class SuiteEntry:
    """One cell of a suite grid."""

    benchmark: str
    surface: str
    configuration: str = "1-call"
    scale: int = 1
    warmup: int = 1
    iterations: int = 3


@dataclass(frozen=True)
class Suite:
    """A named, described list of cells."""

    name: str
    description: str
    entries: Tuple[SuiteEntry, ...]

    def surfaces(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for entry in self.entries:
            if entry.surface not in seen:
                seen.append(entry.surface)
        return tuple(seen)


def _smoke_entries() -> Tuple[SuiteEntry, ...]:
    # bloat is the paper's Section 8 exemplar; towers/fanout are the
    # backend-stress entries.  Every (benchmark, config, scale) pair
    # carries its worklist reference row for relative-mode gating.
    cells: List[SuiteEntry] = []
    for benchmark in ("bloat", "towers", "fanout"):
        cells.append(SuiteEntry(benchmark, "worklist"))
    cells += [
        SuiteEntry("bloat", "kernel"),
        SuiteEntry("towers", "kernel"),
        SuiteEntry("fanout", "kernel"),
        # fanout is the entry where DL5xx cost ordering wins and keeps
        # winning as scale grows — the gate pins that it stays certified.
        SuiteEntry("fanout", "kernel-cost"),
        SuiteEntry("bloat", "incremental"),
        SuiteEntry("bloat", "serving", warmup=0, iterations=1),
    ]
    return tuple(cells)


def _micro_entries() -> Tuple[SuiteEntry, ...]:
    return (
        SuiteEntry("luindex", "worklist", warmup=0, iterations=2),
        SuiteEntry("luindex", "engine", warmup=0, iterations=2),
    )


def _corpus_entries() -> Tuple[SuiteEntry, ...]:
    cells: List[SuiteEntry] = []
    for benchmark in DEFAULT_REGISTRY.names():
        for surface in ("worklist", "engine", "kernel"):
            cells.append(SuiteEntry(benchmark, surface, "2-object+H", 1))
    return tuple(cells)


SUITES: Dict[str, Suite] = {
    "smoke": Suite(
        "smoke",
        "CI gate: every surface family at tiny scale",
        _smoke_entries(),
    ),
    "micro": Suite(
        "micro",
        "smallest valid document (tests)",
        _micro_entries(),
    ),
    "corpus": Suite(
        "corpus",
        "full corpus on the solver surfaces at 2-object+H",
        _corpus_entries(),
    ),
}


def run_suite(
    suite: Suite,
    registry: Optional[BenchmarkRegistry] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> List[RunResult]:
    """Execute every cell of ``suite``; returns results in suite order.

    Raises on duplicate cells (one suite, one measurement per key).
    """
    registry = registry or DEFAULT_REGISTRY
    results: List[RunResult] = []
    for entry in suite.entries:
        definition = registry.get(entry.benchmark)
        adapter = adapter_for(entry.surface)
        if progress is not None:
            progress(
                "%s/%s/%s/s%d"
                % (entry.benchmark, entry.surface,
                   entry.configuration, entry.scale)
            )
        results.append(adapter.run(
            definition, entry.configuration, entry.scale,
            entry.warmup, entry.iterations,
        ))
    results_by_key(results)
    return results
