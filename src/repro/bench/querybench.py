"""Query-latency workload: what a demand client actually waits.

The Figure 6 harness measures *solve* cost; a long-lived service is
judged by *query* cost.  This workload drives an
:class:`~repro.service.AnalysisService` over synthetic benchmark
programs in the two serving regimes:

* **cold** — demand-only service (no up-front solve): each first-touch
  query pays its slice's solve, later queries reuse the grown slice;
* **warm** — pre-solved service (equivalently: a loaded snapshot):
  every query is a projection over the solved relations.

For each regime a fixed scripted batch runs every query kind
(``points_to`` / ``alias`` / ``callees`` / ``fields_of``) over the
first ``queries_per_kind`` entities of the program, and the service's
own latency metrics report p50/p95 per kind (microseconds).  The CFL
demand engine (:class:`repro.cfl.demand.DemandPointsTo`) is measured
alongside as a context-insensitive ``points_to`` baseline.

The result dict is embedded by ``repro figure6 --json`` as the
additive ``query_latency`` field of schema ``repro-figure6/9``.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional

from repro.bench.harness import Measurement
from repro.bench.workloads import DACAPO_NAMES
from repro.core.config import config_by_name
from repro.frontend.factgen import FactSet
from repro.perf.registry import corpus_facts
from repro.perf.stats import latency_summary_us
from repro.service.service import AnalysisService, variables_of


def _query_batch(facts: FactSet, queries_per_kind: int) -> Dict[str, List]:
    """A deterministic scripted batch touching every query kind."""
    variables = sorted(variables_of(facts))[:queries_per_kind]
    sites = sorted(
        {row[0] for row in facts.virtual_invoke}
        | {row[0] for row in facts.static_invoke}
    )[:queries_per_kind]
    heaps = sorted({row[0] for row in facts.assign_new})[:queries_per_kind]
    pairs = [
        (variables[i], variables[(i + 1) % len(variables)])
        for i in range(min(len(variables), queries_per_kind))
    ] if variables else []
    return {
        "points_to": variables,
        "alias": pairs,
        "callees": sites,
        "fields_of": heaps,
    }


def _drive(service: AnalysisService, batch: Dict[str, List]) -> None:
    for var in batch["points_to"]:
        service.points_to(var)
    for (a, b) in batch["alias"]:
        service.alias(a, b)
    for site in batch["callees"]:
        service.callees(site)
    for heap in batch["fields_of"]:
        service.fields_of(heap)


def _cfl_points_to(facts: FactSet, variables: List[str]) -> Dict[str, int]:
    """p50/p95 of CFL demand-driven points_to over the same variables."""
    from repro.cfl.demand import DemandPointsTo
    from repro.cfl.pag import build_pag

    demand = DemandPointsTo(build_pag(facts))
    samples: List[float] = []
    for var in variables:
        start = time.perf_counter()
        demand.query(var)
        samples.append(time.perf_counter() - start)
    return latency_summary_us(samples)


def measure_queries(
    facts: FactSet,
    configuration: str = "2-object+H",
    abstraction: str = "transformer-string",
    queries_per_kind: int = 12,
) -> Dict:
    """Warm/cold query-latency measurements for one program."""
    config = config_by_name(configuration, abstraction)
    batch = _query_batch(facts, queries_per_kind)

    cold = AnalysisService.from_facts(facts, config, solve=False)
    _drive(cold, batch)
    warm = AnalysisService.from_facts(facts, config, solve=True)
    _drive(warm, batch)

    return {
        "cold": cold.metrics.latency_summary(),
        "warm": warm.metrics.latency_summary(),
        "cold_stats": {
            "cache": cold.metrics.as_dict()["cache"],
            "demand": cold.stats().get("demand"),
        },
        "cfl_points_to": _cfl_points_to(facts, batch["points_to"]),
    }


def measurement_for(service: AnalysisService) -> Measurement:
    """The service's query metrics as a bench ``Measurement``.

    Sizes are the served relation row counts; ``counters`` carries the
    per-kind latency summaries under ``service.<kind>`` keys, merging
    the service surface into the harness's existing stats plumbing.
    """
    stats = service.stats()
    relations = stats.get("relations", {})
    sizes = {
        name: relations.get(name, 0) for name in ("pts", "hpts", "call")
    }
    counters = {
        f"service.{kind}": summary
        for kind, summary in stats["latency_us"].items()
    }
    counters["service.cache"] = {
        "hits": stats["cache"]["hits"],
        "misses": stats["cache"]["misses"],
        "warm": stats["paths"]["warm"],
        "cold": stats["paths"]["cold"],
    }
    return Measurement(
        sizes=sizes,
        ci_sizes=dict(sizes),
        seconds=stats["solver"]["load_seconds"],
        counters=counters,
    )


def run_query_latency(
    benchmarks: Iterable[str] = DACAPO_NAMES,
    scale: int = 1,
    configuration: str = "2-object+H",
    abstraction: str = "transformer-string",
    queries_per_kind: int = 12,
) -> Dict:
    """The full query-latency workload (the ``query_latency`` export)."""
    results: Dict[str, Dict] = {}
    for benchmark in benchmarks:
        facts = corpus_facts(benchmark, scale=scale)
        results[benchmark] = measure_queries(
            facts, configuration, abstraction, queries_per_kind
        )
    return {
        "configuration": configuration,
        "abstraction": abstraction,
        "scale": scale,
        "queries_per_kind": queries_per_kind,
        "benchmarks": results,
    }
