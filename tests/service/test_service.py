"""AnalysisService: parity with the exhaustive solver on every query
path (solved, snapshot-served, demand fallback) for the paper's programs
and the seven DaCapo analogues, caching, metrics, partial-coverage
routing and thread safety."""

import threading
import time

import pytest

from repro.bench.workloads import DACAPO_NAMES, dacapo_program
from repro.core.analysis import analyze
from repro.core.config import config_by_name
from repro.frontend.factgen import facts_from_source, generate_facts
from repro.frontend.paper_programs import FIGURE_1, FIGURE_5
from repro.service.service import AnalysisService, variables_of

PROGRAMS = {"figure1": FIGURE_1, "figure5": FIGURE_5}
ABSTRACTIONS = ("transformer-string", "context-string")


def _expected(facts, config):
    result = analyze(facts, config)
    by_var = {}
    for (var, heap) in result.pts_ci():
        by_var.setdefault(var, set()).add(heap)
    return result, by_var


@pytest.mark.parametrize("program", sorted(PROGRAMS))
@pytest.mark.parametrize("abstraction", ABSTRACTIONS)
class TestParity:
    """Every variable of every program, against the exhaustive solver."""

    def test_presolved_service(self, program, abstraction):
        facts = facts_from_source(PROGRAMS[program])
        config = config_by_name("2-object+H", abstraction)
        _result, expected = _expected(facts, config)
        service = AnalysisService.from_facts(facts, config, solve=True)
        for var in variables_of(facts):
            assert service.points_to(var) == frozenset(
                expected.get(var, set())
            ), f"{program}/{abstraction}: {var}"

    def test_snapshot_served(self, program, abstraction, tmp_path):
        facts = facts_from_source(PROGRAMS[program])
        config = config_by_name("2-object+H", abstraction)
        _result, expected = _expected(facts, config)
        path = str(tmp_path / f"{program}.snap")
        AnalysisService.from_facts(facts, config).save_snapshot(path)
        service = AnalysisService.from_snapshot(path)
        for var in variables_of(facts):
            assert service.points_to(var) == frozenset(
                expected.get(var, set())
            ), f"{program}/{abstraction}: {var}"
        assert service.stats()["paths"]["cold"] == 0

    def test_demand_fallback(self, program, abstraction):
        facts = facts_from_source(PROGRAMS[program])
        config = config_by_name("2-object+H", abstraction)
        _result, expected = _expected(facts, config)
        service = AnalysisService.from_facts(facts, config, solve=False)
        for var in variables_of(facts):
            assert service.points_to(var) == frozenset(
                expected.get(var, set())
            ), f"{program}/{abstraction}: {var}"
        stats = service.stats()
        assert stats["paths"]["warm"] == 0
        assert stats["paths"]["cold"] > 0


class TestOtherQueryKinds:
    @pytest.fixture(scope="class")
    def facts(self):
        return facts_from_source(FIGURE_1)

    @pytest.fixture(scope="class")
    def config(self):
        return config_by_name("2-object+H", "transformer-string")

    def test_callees_parity(self, facts, config):
        result = analyze(facts, config)
        warm = AnalysisService.from_facts(facts, config, solve=True)
        cold = AnalysisService.from_facts(facts, config, solve=False)
        sites = {row[0] for row in facts.virtual_invoke} | {
            row[0] for row in facts.static_invoke
        }
        for site in sites:
            expected = frozenset(
                method for (inv, method) in result.call_graph() if inv == site
            )
            assert warm.callees(site) == expected, site
            assert cold.callees(site) == expected, site

    def test_fields_of_parity(self, facts, config):
        result = analyze(facts, config)
        warm = AnalysisService.from_facts(facts, config, solve=True)
        cold = AnalysisService.from_facts(facts, config, solve=False)
        heaps = {row[0] for row in facts.assign_new}
        for heap in heaps:
            expected = {}
            for (base, field, pointee) in result.hpts_ci():
                if base == heap:
                    expected.setdefault(field, set()).add(pointee)
            expected = {f: frozenset(s) for f, s in expected.items()}
            assert warm.fields_of(heap) == expected, heap
            assert cold.fields_of(heap) == expected, heap

    def test_alias_parity(self, facts, config):
        result = analyze(facts, config)
        warm = AnalysisService.from_facts(facts, config, solve=True)
        cold = AnalysisService.from_facts(facts, config, solve=False)
        variables = sorted(variables_of(facts))[:8]
        for a in variables:
            for b in variables:
                expected = result.may_alias(a, b)
                assert warm.alias(a, b) == expected, (a, b)
                assert cold.alias(a, b) == expected, (a, b)


def _assert_serves(service, facts, result, label):
    """All four query kinds against the exhaustive solve: every
    variable's points-to set, every call site's callees, every
    allocation site's fields, and the alias matrix of the first eight
    variables."""
    by_var = {}
    for (var, heap) in result.pts_ci():
        by_var.setdefault(var, set()).add(heap)
    for var in variables_of(facts):
        assert service.points_to(var) == frozenset(
            by_var.get(var, set())
        ), (label, var)
    callees = {}
    for (site, method) in result.call_graph():
        callees.setdefault(site, set()).add(method)
    sites = {row[0] for row in facts.virtual_invoke} | {
        row[0] for row in facts.static_invoke
    }
    for site in sites:
        assert service.callees(site) == frozenset(
            callees.get(site, set())
        ), (label, site)
    fields = {}
    for (base, field, pointee) in result.hpts_ci():
        fields.setdefault(base, {}).setdefault(field, set()).add(pointee)
    for heap in {row[0] for row in facts.assign_new}:
        expected = {
            field: frozenset(pointees)
            for field, pointees in fields.get(heap, {}).items()
        }
        assert service.fields_of(heap) == expected, (label, heap)
    variables = sorted(variables_of(facts))[:8]
    for a in variables:
        for b in variables:
            assert service.alias(a, b) == result.may_alias(a, b), (
                label, a, b,
            )


@pytest.mark.parametrize("workload", DACAPO_NAMES)
@pytest.mark.parametrize("abstraction", ABSTRACTIONS)
class TestDacapoParity:
    """The seven DaCapo analogues at scale 1 under 2-object+H, on every
    query path."""

    @staticmethod
    def _case(workload, abstraction):
        facts = generate_facts(dacapo_program(workload, 1))
        config = config_by_name("2-object+H", abstraction)
        return facts, config, analyze(facts, config)

    def test_presolved_service(self, workload, abstraction):
        facts, config, result = self._case(workload, abstraction)
        service = AnalysisService.from_facts(facts, config, solve=True)
        _assert_serves(service, facts, result, (workload, abstraction))
        assert service.stats()["paths"]["cold"] == 0

    def test_snapshot_served(self, workload, abstraction, tmp_path):
        facts, config, result = self._case(workload, abstraction)
        path = str(tmp_path / f"{workload}.snap")
        AnalysisService.from_facts(facts, config).save_snapshot(path)
        service = AnalysisService.from_snapshot(path)
        _assert_serves(service, facts, result, (workload, abstraction))
        assert service.stats()["paths"]["cold"] == 0

    def test_demand_fallback(self, workload, abstraction):
        facts, config, result = self._case(workload, abstraction)
        service = AnalysisService.from_facts(facts, config, solve=False)
        _assert_serves(service, facts, result, (workload, abstraction))
        stats = service.stats()
        assert stats["paths"]["warm"] == 0
        assert stats["paths"]["cold"] > 0


class TestPartialCoverage:
    def test_covered_warm_uncovered_demand(self, tmp_path):
        facts = facts_from_source(FIGURE_1)
        config = config_by_name("2-object+H", "transformer-string")
        _result, expected = _expected(facts, config)

        # A demand-mode service that has only seen one variable saves a
        # partial snapshot pinned to its demanded slice.
        seed = AnalysisService.from_facts(facts, config, solve=False)
        seed.points_to("T.id/p")
        path = str(tmp_path / "partial.snap")
        snapshot = seed.save_snapshot(path)
        assert snapshot.coverage is not None
        assert "T.id/p" in snapshot.coverage

        service = AnalysisService.from_snapshot(path)
        in_cover = service.query("points_to", var="T.id/p")
        assert in_cover.path == "snapshot"
        assert in_cover.value == frozenset(expected["T.id/p"])

        outside = sorted(variables_of(facts) - snapshot.coverage)
        assert outside, "partial snapshot unexpectedly covers everything"
        out = service.query("points_to", var=outside[0])
        assert out.path == "demand"
        assert out.value == frozenset(expected.get(outside[0], set()))


class TestCacheAndMetrics:
    def test_repeat_hits_cache(self):
        facts = facts_from_source(FIGURE_1)
        config = config_by_name("2-object+H", "transformer-string")
        service = AnalysisService.from_facts(facts, config, solve=True)
        first = service.query("points_to", var="T.id/p")
        second = service.query("points_to", var="T.id/p")
        assert not first.cached and second.cached
        assert second.path == "cache"
        assert first.value == second.value
        stats = service.stats()
        assert stats["cache"]["hits"] == 1
        assert stats["cache"]["misses"] == 1
        assert stats["cache"]["hit_rate"] == 0.5
        assert stats["latency_us"]["points_to"]["count"] == 2
        assert stats["latency_us"]["points_to"]["p50_us"] >= 0

    def test_lru_evicts(self):
        facts = facts_from_source(FIGURE_1)
        config = config_by_name("2-object+H", "transformer-string")
        service = AnalysisService.from_facts(
            facts, config, solve=True, cache_size=2
        )
        variables = sorted(variables_of(facts))[:3]
        for var in variables:
            service.points_to(var)
        service.points_to(variables[0])  # evicted by the two after it
        assert service.stats()["cache"]["hits"] == 0

    def test_unknown_op_rejected(self):
        facts = facts_from_source(FIGURE_1)
        service = AnalysisService.from_facts(
            facts, config_by_name("2-object+H"), solve=False
        )
        with pytest.raises(ValueError, match="unknown query op"):
            service.query("pointsto", var="x")


class TestThreadSafety:
    def test_concurrent_mixed_queries(self):
        facts = facts_from_source(FIGURE_5)
        config = config_by_name("2-object+H", "transformer-string")
        _result, expected = _expected(facts, config)
        service = AnalysisService.from_facts(facts, config, solve=False)
        variables = sorted(variables_of(facts))
        errors = []

        def worker(offset):
            try:
                for index in range(len(variables)):
                    var = variables[(index + offset) % len(variables)]
                    got = service.points_to(var)
                    assert got == frozenset(expected.get(var, set()))
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(k,)) for k in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        total = service.stats()["cache"]
        assert total["hits"] + total["misses"] == 4 * len(variables)


class TestKernelBackend:
    """``from_facts(backend="kernel")`` must be bit-identical to the
    worklist solver and report which engine actually ran."""

    @pytest.mark.parametrize("source_name", sorted(PROGRAMS))
    @pytest.mark.parametrize(
        "abstraction", ["transformer-string", "context-string"]
    )
    def test_parity_with_worklist(self, source_name, abstraction):
        facts = facts_from_source(PROGRAMS[source_name])
        config = config_by_name("1-call", abstraction)
        worklist = AnalysisService.from_facts(
            facts, config, backend="worklist"
        )
        kernel = AnalysisService.from_facts(facts, config, backend="kernel")
        for name in ("pts", "hpts", "call", "reach", "spts", "texc"):
            assert (
                set(getattr(worklist._backend, name))
                == set(getattr(kernel._backend, name))
            ), (source_name, abstraction, name)
        assert worklist.stats()["solve_backend"] == "worklist"
        assert kernel.stats()["solve_backend"] == "kernel"
        for var in sorted(variables_of(facts))[:5]:
            assert worklist.points_to(var) == kernel.points_to(var)

    def test_incompatible_config_falls_back(self):
        from dataclasses import replace

        facts = facts_from_source(PROGRAMS["figure1"])
        config = replace(config_by_name("1-call"), eliminate_subsumed=True)
        service = AnalysisService.from_facts(facts, config, backend="kernel")
        assert service.stats()["solve_backend"] == "worklist"

    def test_unknown_backend_rejected(self):
        facts = facts_from_source(PROGRAMS["figure1"])
        with pytest.raises(ValueError, match="unknown solve backend"):
            AnalysisService.from_facts(
                facts, config_by_name("1-call"), backend="llvm"
            )

    def test_snapshot_restore_beats_a_cold_solve(self, tmp_path):
        # The premise of warm starts: restoring a snapshot is cheaper
        # than the kernel-backed cold solve that produced it.
        facts = generate_facts(dacapo_program("bloat", 1))
        config = config_by_name("1-call")
        start = time.perf_counter()
        service = AnalysisService.from_facts(facts, config, backend="kernel")
        solve_seconds = time.perf_counter() - start
        path = str(tmp_path / "bloat.json")
        service.save_snapshot(path)
        start = time.perf_counter()
        AnalysisService.from_snapshot(path)
        restore_seconds = time.perf_counter() - start
        assert restore_seconds < solve_seconds

    def test_kernel_solved_service_snapshots_and_updates(self, tmp_path):
        from repro.incremental import FactDelta

        facts = facts_from_source(PROGRAMS["figure1"])
        config = config_by_name("1-call")
        service = AnalysisService.from_facts(facts, config, backend="kernel")
        path = str(tmp_path / "kernel.json")
        service.save_snapshot(path)
        restored = AnalysisService.from_snapshot(path)
        assert set(restored._backend.pts) == set(service._backend.pts)
        before = service.generation
        service.apply_delta(FactDelta())
        assert service.generation == before + 1
