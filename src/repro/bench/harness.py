"""Benchmark harness: run the configuration matrix of paper Figure 6.

For each (benchmark × sensitivity configuration) cell, both abstractions
are run on identical input facts and the Figure 6 quantities collected:
sizes of the context-sensitive ``pts``, ``hpts`` and ``call`` relations,
their total, and the analysis time, plus the context-insensitive sizes
(for the 2-type+H precision-loss sub-column).  :mod:`repro.bench.report`
formats the result in the paper's layout.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.analysis import analyze
from repro.core.config import PAPER_CONFIGURATIONS, config_by_name
from repro.bench.workloads import DACAPO_NAMES
from repro.frontend.factgen import FactSet
from repro.perf.registry import corpus_facts
from repro.perf.stats import best_of

RELATIONS = ("pts", "hpts", "call")


@dataclass
class Measurement:
    """One analysis run: sizes, wall-clock time and store counters.

    ``counters`` is the per-relation statistics surface of the run's
    store (``None`` for callers that bypass the harness's own
    measurement functions).
    """

    sizes: Dict[str, int]
    ci_sizes: Dict[str, int]
    seconds: float
    counters: Optional[Dict[str, Dict[str, int]]] = None

    @property
    def total(self) -> int:
        return sum(self.sizes.values())


@dataclass
class Cell:
    """One benchmark × configuration cell: both abstractions."""

    benchmark: str
    configuration: str
    context_string: Measurement
    transformer_string: Measurement

    def size_decrease(self, relation: str) -> Optional[float]:
        """Fractional decrease of one relation's size (None if empty)."""
        base = self.context_string.sizes[relation]
        if base == 0:
            return None
        return 1.0 - self.transformer_string.sizes[relation] / base

    def total_decrease(self) -> float:
        return 1.0 - self.transformer_string.total / self.context_string.total

    def time_decrease(self) -> float:
        return 1.0 - self.transformer_string.seconds / self.context_string.seconds

    def ci_increase(self, relation: str) -> int:
        """Context-insensitive fact increase of the transformer
        abstraction (non-zero only under type sensitivity)."""
        return (
            self.transformer_string.ci_sizes[relation]
            - self.context_string.ci_sizes[relation]
        )


def _measure_solver(facts: FactSet, configuration: str, abstraction: str,
                    repetitions: int) -> Measurement:
    result = None

    def solve():
        nonlocal result
        result = analyze(facts, config_by_name(configuration, abstraction))

    best = best_of(solve, repetitions)
    return Measurement(
        sizes=result.relation_sizes(),
        ci_sizes=result.ci_sizes(),
        seconds=best,
        counters=result.store_stats(),
    )


def _measure_datalog(facts: FactSet, configuration: str, abstraction: str,
                     repetitions: int) -> Measurement:
    """Measure on the compiled Datalog back-end, the columnar kernels —
    the setup closest to the paper's (front-end emits Datalog; an
    LLVM-like engine runs it).  Each repetition times the fixpoint of a
    fresh engine; building it (the kernel compile, a process-cache hit
    after the first) stays outside the timed region, like any compiler,
    and so does collecting the garbage the build leaves."""
    from repro.compile.emit import (
        compile_context_string_analysis,
        compile_transformer_analysis,
    )
    from repro.datalog.kernel import KernelEngine

    config = config_by_name(configuration)
    compiler = (
        compile_transformer_analysis
        if abstraction == "transformer-string"
        else compile_context_string_analysis
    )
    compiled = compiler(facts, config.flavour, config.m, config.h)
    best = float("inf")
    for _ in range(max(1, repetitions)):
        engine = KernelEngine(compiled.program, compiled.builtins)
        gc.collect()
        start = time.perf_counter()
        raw = engine.run()
        best = min(best, time.perf_counter() - start)
    relations = compiled.decoder(raw)
    sizes = {name: len(relations[name]) for name in RELATIONS}
    ci_sizes = {
        "pts": len({(y, h) for (y, h, _) in relations["pts"]}),
        "hpts": len({(g, f, h) for (g, f, h, _) in relations["hpts"]}),
        "call": len({(i, p) for (i, p, _) in relations["call"]}),
    }
    return Measurement(
        sizes=sizes, ci_sizes=ci_sizes, seconds=best,
        counters=engine.store_stats(),
    )


def run_cell(facts: FactSet, benchmark: str, configuration: str,
             repetitions: int = 1, engine: str = "solver") -> Cell:
    """Run both abstractions on one benchmark under one configuration.

    ``engine`` is ``"solver"`` (the worklist fast path) or ``"datalog"``
    (the columnar kernels, the compiled Datalog back-end of the paper's
    architecture).
    """
    measure = _measure_solver if engine == "solver" else _measure_datalog
    if engine not in ("solver", "datalog"):
        raise ValueError(f"unknown engine {engine!r}")
    return Cell(
        benchmark=benchmark,
        configuration=configuration,
        context_string=measure(facts, configuration, "context-string",
                               repetitions),
        transformer_string=measure(facts, configuration,
                                   "transformer-string", repetitions),
    )


@dataclass
class Figure6:
    """The full matrix plus the paper's geometric-mean summary rows."""

    cells: List[Cell] = field(default_factory=list)

    def cell(self, benchmark: str, configuration: str) -> Cell:
        for cell in self.cells:
            if (cell.benchmark, cell.configuration) == (benchmark, configuration):
                return cell
        raise KeyError((benchmark, configuration))

    def benchmarks(self) -> List[str]:
        seen: List[str] = []
        for cell in self.cells:
            if cell.benchmark not in seen:
                seen.append(cell.benchmark)
        return seen

    def configurations(self) -> List[str]:
        seen: List[str] = []
        for cell in self.cells:
            if cell.configuration not in seen:
                seen.append(cell.configuration)
        return seen

    def geomean_total_decrease(self, configuration: str) -> float:
        """Geometric-mean reduction of total fact counts (paper's
        penultimate row)."""
        ratios = [
            1.0 - cell.total_decrease()
            for cell in self.cells
            if cell.configuration == configuration
        ]
        return 1.0 - _geomean(ratios)

    def geomean_time_decrease(self, configuration: str) -> float:
        """Geometric-mean reduction of analysis times (paper's last row)."""
        ratios = [
            1.0 - cell.time_decrease()
            for cell in self.cells
            if cell.configuration == configuration
        ]
        return 1.0 - _geomean(ratios)


def _geomean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("geometric mean of no values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def run_figure6(
    benchmarks: Iterable[str] = DACAPO_NAMES,
    configurations: Iterable[str] = PAPER_CONFIGURATIONS,
    scale: int = 3,
    repetitions: int = 1,
    engine: str = "solver",
) -> Figure6:
    """Regenerate paper Figure 6 on the synthetic DaCapo analogues.

    ``engine="datalog"`` measures on the compiled Datalog back-end, the
    columnar kernels (the paper's own architecture), instead of the
    worklist solver.
    """
    table = Figure6()
    for benchmark in benchmarks:
        facts = corpus_facts(benchmark, scale=scale)
        for configuration in configurations:
            table.cells.append(
                run_cell(facts, benchmark, configuration, repetitions,
                         engine=engine)
            )
    return table
