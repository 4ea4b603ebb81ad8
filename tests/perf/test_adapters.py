"""Suite adapters: every surface certifies against the worklist solver.

These run real (tiny) workloads end to end — the point of the perf
subsystem is that a timed number is only reported next to a
bit-identical-parity verdict, so the tests assert certification, not
timing.
"""

import pytest

from repro.perf.adapters import (
    ADAPTERS,
    AdapterError,
    IncrementalAdapter,
    adapter_for,
    relation_rows,
)
from repro.perf.registry import DEFAULT_REGISTRY


@pytest.fixture(scope="module")
def luindex():
    return DEFAULT_REGISTRY.get("luindex")


def _run(surface_or_adapter, definition, warmup=0, iterations=1):
    adapter = (
        adapter_for(surface_or_adapter)
        if isinstance(surface_or_adapter, str)
        else surface_or_adapter
    )
    return adapter.run(definition, "1-call", 1, warmup, iterations)


class TestLookup:
    def test_every_registered_surface_instantiates(self):
        for surface in ADAPTERS:
            assert adapter_for(surface).surface == surface

    def test_unknown_surface(self):
        with pytest.raises(AdapterError, match="unknown surface"):
            adapter_for("gpu")


class TestWorklist(object):
    def test_certified_reference(self, luindex):
        result = _run("worklist", luindex, warmup=1, iterations=2)
        assert result.reference is True
        assert result.certified is True
        assert result.surface == "worklist"
        assert len(result.warmup_seconds) == 1
        assert len(result.steady_seconds) == 2
        assert result.phases["factgen"] > 0
        assert result.phases["solve"] == result.best()


class TestDatalogSurfaces:
    @pytest.mark.parametrize("surface", ["engine", "kernel"])
    def test_certified_with_compile_phase(self, luindex, surface):
        result = _run(surface, luindex)
        assert result.certified is True
        assert result.phases["compile"] > 0
        assert result.phases["solve"] > 0
        assert result.reference is False


class TestKernelCost:
    def test_certified_with_reorder_metric(self, luindex):
        result = _run("kernel-cost", luindex)
        assert result.surface == "kernel-cost"
        assert result.certified is True
        # Planning is charged to the compile phase, not the solve.
        assert result.phases["compile"] > 0
        assert result.metrics["reordered_rules"] >= 0


class TestIncremental:
    def test_churn_certified_against_scratch(self, luindex):
        result = _run(IncrementalAdapter(edits=4, seed=1), luindex)
        assert result.surface == "incremental"
        assert result.certified is True
        assert result.metrics["edits"] == 4

    def test_iterations_replay_identical_streams(self, luindex):
        result = _run(
            IncrementalAdapter(edits=3, seed=2), luindex,
            warmup=1, iterations=2,
        )
        assert result.certified is True
        assert len(result.steady_seconds) == 2


class TestRelationRows:
    def test_covers_the_six_relations(self, luindex):
        from repro.core.analysis import analyze
        from repro.core.config import config_by_name

        rows = relation_rows(
            analyze(luindex.facts(1), config_by_name("1-call"))
        )
        assert set(rows) == {
            "pts", "hpts", "call", "reach", "spts", "texc",
        }
