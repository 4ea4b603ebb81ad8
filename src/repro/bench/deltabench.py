"""Edit-churn workload: what a live-update client actually waits.

The query-latency workload (:mod:`repro.bench.querybench`) prices
*reads* against a long-lived service; this one prices *writes*.  A
stream of coherent single-statement edits
(:func:`repro.incremental.edits.random_edits`) is applied to one
:class:`~repro.incremental.IncrementalSolver`, and every edit is charged
two ways:

* **incremental** — ``apply_delta`` on the live fixpoint (DRed
  retraction + semi-naive additions);
* **scratch** — a from-scratch solve of the post-edit program, the
  cost a non-incremental service pays for the same edit.

Results group by edit kind (add/remove × assign/load/store/new), so
the asymmetry is visible: additions are one seeded drain, removals pay
overdeletion + rederivation, and both are bounded by the edit's cone
of influence rather than the program size.

``measure_single_edit`` is the headline number: one added assignment
to the paper's Figure 5 program, best-of-``repetitions``, reported as
an incremental-vs-scratch speedup (the acceptance floor is 5×).

The result dict is embedded by ``repro figure6 --json`` as the
additive ``incremental`` field of schema ``repro-figure6/9``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.bench.workloads import DACAPO_NAMES
from repro.core.config import config_by_name
from repro.frontend.factgen import FactSet
from repro.perf.registry import corpus_facts
from repro.perf.stats import stopwatch
from repro.incremental import FactDelta, IncrementalSolver, copy_facts
from repro.incremental.edits import random_edits


def _scratch_seconds(facts: FactSet, config) -> float:
    from repro.core.analysis import PointerAnalysis

    _, seconds = stopwatch(lambda: PointerAnalysis(facts, config).run())
    return seconds


def measure_churn(
    facts: FactSet,
    configuration: str = "2-object+H",
    abstraction: str = "transformer-string",
    edits: int = 12,
    seed: int = 0,
) -> Dict:
    """Charge ``edits`` random edits incrementally and from scratch."""
    config = config_by_name(configuration, abstraction)
    solver = IncrementalSolver(copy_facts(facts), config)
    rolling = copy_facts(facts)
    by_kind: Dict[str, Dict[str, float]] = {}
    incremental_total = 0.0
    scratch_total = 0.0
    fallbacks = 0
    for kind, delta in random_edits(facts, edits, seed=seed):
        delta.apply_to(rolling)
        outcome = solver.apply_delta(delta)
        scratch = _scratch_seconds(copy_facts(rolling), config)
        bucket = by_kind.setdefault(kind, {
            "edits": 0, "incremental_seconds": 0.0, "scratch_seconds": 0.0,
        })
        bucket["edits"] += 1
        bucket["incremental_seconds"] += outcome.seconds
        bucket["scratch_seconds"] += scratch
        incremental_total += outcome.seconds
        scratch_total += scratch
        if outcome.fallback:
            fallbacks += 1
    for bucket in by_kind.values():
        bucket["speedup"] = (
            bucket["scratch_seconds"] / bucket["incremental_seconds"]
            if bucket["incremental_seconds"] > 0 else None
        )
    return {
        "edits": edits,
        "seed": seed,
        "fallbacks": fallbacks,
        "incremental_seconds": incremental_total,
        "scratch_seconds": scratch_total,
        "speedup": (
            scratch_total / incremental_total
            if incremental_total > 0 else None
        ),
        "by_kind": by_kind,
        "engine": solver.stats.as_dict(),
    }


def measure_single_edit(
    configuration: str = "1-call",
    abstraction: str = "transformer-string",
    repetitions: int = 11,
) -> Dict:
    """The headline: one added assignment to Figure 5, best-of-N.

    Best-of (not mean) on both sides — the quantity of interest is the
    cost of the *work*, not of interpreter noise around a sub-millisecond
    measurement.
    """
    from repro.core.analysis import _to_facts
    from repro.frontend.paper_programs import FIGURE_5

    config = config_by_name(configuration, abstraction)
    base = _to_facts(FIGURE_5)
    delta = FactDelta().add("assign", ("T.m/h", "T.m/x"))
    edited = delta.applied_copy(base)

    incremental = None
    scratch = None
    for _ in range(max(1, repetitions)):
        solver = IncrementalSolver(copy_facts(base), config)
        outcome = solver.apply_delta(
            FactDelta().add("assign", ("T.m/h", "T.m/x"))
        )
        incremental = (
            outcome.seconds if incremental is None
            else min(incremental, outcome.seconds)
        )
        seconds = _scratch_seconds(copy_facts(edited), config)
        scratch = seconds if scratch is None else min(scratch, seconds)
    return {
        "program": "figure5",
        "edit": "add assign (T.m/h -> T.m/x)",
        "configuration": configuration,
        "abstraction": abstraction,
        "repetitions": repetitions,
        "incremental_seconds": incremental,
        "scratch_seconds": scratch,
        "speedup": scratch / incremental if incremental > 0 else None,
    }


def run_delta_churn(
    benchmarks: Iterable[str] = DACAPO_NAMES,
    scale: int = 1,
    configuration: str = "2-object+H",
    abstraction: str = "transformer-string",
    edits: int = 12,
    seed: int = 0,
    repetitions: int = 5,
) -> Dict:
    """The full edit-churn workload (the ``incremental`` export)."""
    results: Dict[str, Dict] = {}
    for benchmark in benchmarks:
        facts = corpus_facts(benchmark, scale=scale)
        results[benchmark] = measure_churn(
            facts, configuration, abstraction, edits=edits, seed=seed
        )
    return {
        "configuration": configuration,
        "abstraction": abstraction,
        "scale": scale,
        "edits_per_benchmark": edits,
        "single_edit": measure_single_edit(repetitions=repetitions),
        "benchmarks": results,
    }


def format_churn(report: Dict) -> str:
    """The churn report as aligned text (the CLI's table)."""
    lines = [
        f"Edit churn ({report['configuration']},"
        f" {report['abstraction']}, scale={report['scale']},"
        f" {report['edits_per_benchmark']} edits/benchmark):"
    ]
    header = (
        f"{'benchmark':12s}{'incremental':>14s}{'scratch':>12s}"
        f"{'speedup':>9s}{'fallbacks':>11s}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for name, churn in sorted(report["benchmarks"].items()):
        speedup = churn["speedup"]
        lines.append(
            f"{name:12s}{churn['incremental_seconds'] * 1000:>12.1f}ms"
            f"{churn['scratch_seconds'] * 1000:>10.1f}ms"
            f"{(f'{speedup:.1f}x' if speedup else '—'):>9s}"
            f"{churn['fallbacks']:>11d}"
        )
    single = report["single_edit"]
    lines.append(
        f"single edit ({single['program']}, {single['edit']}):"
        f" {single['incremental_seconds'] * 1e6:.0f}µs incremental vs"
        f" {single['scratch_seconds'] * 1e6:.0f}µs scratch"
        f" ({single['speedup']:.1f}x)"
    )
    return "\n".join(lines)
