"""Query-latency workload: shape, sanity, and report integration."""

from repro.bench.harness import Measurement
from repro.bench.querybench import (
    measure_queries,
    measurement_for,
    run_query_latency,
)
from repro.bench.report import JSON_SCHEMA, figure6_json
from repro.core.config import config_by_name
from repro.frontend.factgen import facts_from_source
from repro.frontend.paper_programs import FIGURE_1
from repro.service.service import AnalysisService


def test_measure_queries_shape():
    facts = facts_from_source(FIGURE_1)
    result = measure_queries(facts, queries_per_kind=4)
    assert set(result) == {"cold", "warm", "cold_stats", "cfl_points_to"}
    for regime in ("cold", "warm"):
        assert "points_to" in result[regime]
        summary = result[regime]["points_to"]
        assert summary["count"] > 0
        assert summary["p50_us"] >= 0
        assert summary["p95_us"] >= summary["p50_us"]
    # Cold mode must actually have exercised the demand engine.
    assert result["cold_stats"]["demand"]["queries"] > 0
    assert result["cfl_points_to"]["count"] > 0


def test_measurement_for_merges_into_counters():
    facts = facts_from_source(FIGURE_1)
    service = AnalysisService.from_facts(
        facts, config_by_name("2-object+H"), solve=True
    )
    service.points_to("T.id/p")
    service.points_to("T.id/p")
    measurement = measurement_for(service)
    assert isinstance(measurement, Measurement)
    assert measurement.sizes["pts"] > 0
    assert measurement.counters["service.cache"]["hits"] == 1
    assert "service.points_to" in measurement.counters


def test_run_query_latency_one_benchmark():
    result = run_query_latency(
        benchmarks=("antlr",), scale=1, queries_per_kind=3
    )
    assert result["configuration"] == "2-object+H"
    assert set(result["benchmarks"]) == {"antlr"}
    assert "warm" in result["benchmarks"]["antlr"]


def test_figure6_json_carries_query_latency():
    assert JSON_SCHEMA == "repro-figure6/9"

    class _Table:
        cells = ()

        def benchmarks(self):
            return []

        def configurations(self):
            return []

    payload = {"configuration": "2-object+H", "benchmarks": {}}
    churn = {"configuration": "2-object+H", "single_edit": {}}
    audit = {"schema": "repro-check-audit/1", "benchmarks": {}}
    document = figure6_json(_Table(), query_latency=payload,
                            incremental=churn, checks=audit)
    assert document["schema"] == "repro-figure6/9"
    assert document["query_latency"] == payload
    assert document["incremental"] == churn
    assert document["checks"] == audit
    # Additive: absent measurements serialize as null, not key errors.
    assert figure6_json(_Table())["query_latency"] is None
    assert figure6_json(_Table())["incremental"] is None
    assert figure6_json(_Table())["checks"] is None
