"""Named suites: grid shape, reference discipline, the runner."""

import pytest

from repro.perf.registry import DEFAULT_REGISTRY
from repro.perf.suite import SUITES, Suite, SuiteEntry, run_suite


class TestSuiteShapes:
    def test_the_three_suites_exist(self):
        assert set(SUITES) == {"smoke", "micro", "corpus"}

    def test_smoke_covers_the_acceptance_surfaces(self):
        surfaces = set(SUITES["smoke"].surfaces())
        # The acceptance floor: kernel backend (source and cost order),
        # incremental churn, and serving, plus the reference.
        assert {
            "worklist", "kernel", "kernel-cost", "incremental", "serving",
        } <= surfaces

    def test_smoke_includes_the_new_corpus_entries(self):
        benchmarks = {e.benchmark for e in SUITES["smoke"].entries}
        assert {"towers", "fanout"} <= benchmarks

    def test_every_measured_cell_has_its_reference(self):
        for suite in SUITES.values():
            references = {
                (e.benchmark, e.configuration, e.scale)
                for e in suite.entries if e.surface == "worklist"
            }
            for entry in suite.entries:
                assert (
                    entry.benchmark, entry.configuration, entry.scale,
                ) in references, (
                    "%s: %s has no worklist reference row"
                    % (suite.name, entry)
                )

    def test_every_suite_benchmark_is_registered(self):
        for suite in SUITES.values():
            for entry in suite.entries:
                assert entry.benchmark in DEFAULT_REGISTRY

    def test_corpus_covers_the_whole_registry(self):
        benchmarks = {e.benchmark for e in SUITES["corpus"].entries}
        assert benchmarks == set(DEFAULT_REGISTRY.names())


class TestRunner:
    def test_micro_runs_in_order(self):
        results = run_suite(SUITES["micro"])
        assert [r.key for r in results] == [
            "luindex/worklist/1-call/s1",
            "luindex/engine/1-call/s1",
        ]
        assert all(r.certified for r in results)

    def test_progress_callback_sees_every_cell(self):
        seen = []
        run_suite(SUITES["micro"], progress=seen.append)
        assert seen == [
            "luindex/worklist/1-call/s1",
            "luindex/engine/1-call/s1",
        ]

    def test_duplicate_cells_rejected(self):
        entry = SuiteEntry("luindex", "worklist", warmup=0, iterations=1)
        broken = Suite("broken", "duplicate cell", (entry, entry))
        with pytest.raises(ValueError, match="duplicate"):
            run_suite(broken)
