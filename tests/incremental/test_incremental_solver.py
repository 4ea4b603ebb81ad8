"""IncrementalSolver: bit-identical equivalence with from-scratch
solves under random edit churn, DRed counters, and the fallback paths.

The sweep is the subsystem's acceptance bar: for the paper's example
programs under both abstractions and all three context flavours, and for
the seven DaCapo analogues at 2-object+H, a random sequence of edits
applied incrementally must leave every derived relation identical to a
from-scratch solve after *each* edit.
"""

import time

import pytest

from repro.bench.workloads import DACAPO_NAMES, dacapo_program
from repro.core.analysis import PointerAnalysis, _to_facts
from repro.core.config import config_by_name
from repro.core.domains import make_domain
from repro.core.solver import Solver
from repro.frontend.factgen import generate_facts
from repro.frontend.paper_programs import FIGURE_1, FIGURE_5
from repro.incremental import FactDelta, IncrementalSolver, copy_facts
from repro.incremental.edits import random_edits

PROGRAMS = {"figure1": FIGURE_1, "figure5": FIGURE_5}
FLAVOURS = ("1-call", "1-object", "1-type")
ABSTRACTIONS = ("transformer-string", "context-string")
DERIVED = ("pts", "hpts", "hload", "call", "reach", "spts", "texc")


def scratch_rows(facts, config):
    """Derived rows of a from-scratch solve (the ground truth)."""
    domain = make_domain(
        config.abstraction, config.flavour, config.m, config.h,
        class_of=facts.class_of_heap,
    )
    solver = Solver(
        facts, domain,
        eliminate_subsumed=config.eliminate_subsumed,
        naive_transformer_index=config.naive_transformer_index,
        track_provenance=config.track_provenance,
    )
    solver.solve()
    return {
        kind: set(getattr(solver, f"{kind}_rel")) for kind in DERIVED
    }


@pytest.mark.parametrize("abstraction", ABSTRACTIONS)
@pytest.mark.parametrize("flavour", FLAVOURS)
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_equivalence_sweep(program, flavour, abstraction):
    """20 random edits, each bit-identical to a scratch solve."""
    base = _to_facts(PROGRAMS[program])
    config = config_by_name(flavour, abstraction)
    solver = IncrementalSolver(copy_facts(base), config)
    rolling = copy_facts(base)
    for step, (kind, delta) in enumerate(random_edits(base, 20, seed=42)):
        delta.apply_to(rolling)
        solver.apply_delta(delta)
        want = scratch_rows(copy_facts(rolling), config)
        got = solver.relation_rows()
        for relation in DERIVED:
            assert got[relation] == want[relation], (
                f"{program}/{flavour}/{abstraction} edit {step} ({kind}):"
                f" {relation} diverged"
                f" (missing {sorted(want[relation] - got[relation])[:3]},"
                f" extra {sorted(got[relation] - want[relation])[:3]})"
            )


@pytest.mark.parametrize("abstraction", ABSTRACTIONS)
@pytest.mark.parametrize("workload", DACAPO_NAMES)
def test_equivalence_on_dacapo_analogues(workload, abstraction):
    """12 random edits to a scale-1 analogue at 2-object+H: each is
    maintained without a fallback re-solve and is bit-identical to a
    scratch solve."""
    base = generate_facts(dacapo_program(workload, 1))
    config = config_by_name("2-object+H", abstraction)
    solver = IncrementalSolver(copy_facts(base), config)
    rolling = copy_facts(base)
    for step, (kind, delta) in enumerate(random_edits(base, 12, seed=0)):
        delta.apply_to(rolling)
        outcome = solver.apply_delta(delta)
        assert not outcome.fallback, (workload, abstraction, step, kind)
        want = scratch_rows(copy_facts(rolling), config)
        got = solver.relation_rows()
        for relation in DERIVED:
            assert got[relation] == want[relation], (
                f"{workload}/{abstraction} edit {step} ({kind}):"
                f" {relation} diverged"
            )
    assert solver.stats.fallback_solves == 0


class TestDeltaResult:
    def test_addition_reports_net_changes(self):
        facts = _to_facts(FIGURE_5)
        config = config_by_name("1-call", "transformer-string")
        solver = IncrementalSolver(facts, config)
        before = solver.relation_rows()
        result = solver.apply_delta(
            FactDelta().add("assign", ("T.m/h", "T.m/x"))
        )
        assert not result.fallback
        assert result.total_added > 0
        assert "pts" in result.changed_relations()
        after = solver.relation_rows()
        for kind in DERIVED:
            assert after[kind] - before[kind] == result.added.get(kind, set())
            assert before[kind] - after[kind] == result.removed.get(
                kind, set()
            )
        summary = result.as_dict()
        assert summary["fallback"] is False
        assert summary["changed"]["pts"]["added"] == len(result.added["pts"])

    def test_add_then_inverted_remove_round_trips(self):
        facts = _to_facts(FIGURE_5)
        config = config_by_name("1-object", "transformer-string")
        solver = IncrementalSolver(facts, config)
        baseline = solver.relation_rows()
        delta = FactDelta().add("assign", ("T.m/h", "T.m/x"))
        forward = solver.apply_delta(delta)
        backward = solver.apply_delta(delta.inverted())
        assert solver.relation_rows() == baseline
        assert forward.total_added == backward.total_removed
        assert backward.deleted == forward.total_added

    def test_removal_counts_deletions(self):
        facts = _to_facts(FIGURE_1)
        config = config_by_name("1-call", "transformer-string")
        solver = IncrementalSolver(facts, config)
        base = copy_facts(facts)
        row = sorted(facts.assign_new)[0]
        delta = FactDelta().remove("assign_new", row)
        result = solver.apply_delta(delta)
        assert not result.fallback
        assert result.deleted > 0
        assert "pts" in result.changed_relations()
        assert solver.relation_rows() == scratch_rows(
            delta.applied_copy(base), config
        )

    def test_single_edit_beats_a_scratch_solve(self):
        # One added assignment to Figure 5, best of 15 on both sides:
        # maintaining the fixpoint must be at least 3x cheaper than
        # solving the edited program from scratch.  The floor is loose
        # so timer noise on a sub-millisecond edit cannot flake it.
        base = _to_facts(FIGURE_5)
        config = config_by_name("1-call", "transformer-string")
        edited = FactDelta().add("assign", ("T.m/h", "T.m/x")).applied_copy(
            base
        )
        incremental = scratch = float("inf")
        for _ in range(15):
            solver = IncrementalSolver(copy_facts(base), config)
            outcome = solver.apply_delta(
                FactDelta().add("assign", ("T.m/h", "T.m/x"))
            )
            incremental = min(incremental, outcome.seconds)
            facts = copy_facts(edited)
            start = time.perf_counter()
            PointerAnalysis(facts, config).run()
            scratch = min(scratch, time.perf_counter() - start)
        assert scratch >= 3 * incremental, (incremental, scratch)

    def test_stats_accumulate(self):
        facts = _to_facts(FIGURE_5)
        config = config_by_name("1-call", "transformer-string")
        solver = IncrementalSolver(facts, config)
        solver.apply_delta(FactDelta().add("assign", ("T.m/h", "T.m/x")))
        solver.apply_delta(FactDelta().remove("assign", ("T.m/h", "T.m/x")))
        stats = solver.stats.as_dict()
        assert stats["deltas_applied"] == 2
        assert stats["input_rows_added"] == 1
        assert stats["input_rows_removed"] == 1
        assert stats["fallback_solves"] == 0
        assert stats["delta_seconds"] > 0


class TestFallbacks:
    def test_eliminate_subsumed_always_falls_back(self):
        facts = _to_facts(FIGURE_5)
        config = config_by_name(
            "1-call", "transformer-string", eliminate_subsumed=True
        )
        solver = IncrementalSolver(facts, config)
        assert solver.always_fallback
        result = solver.apply_delta(
            FactDelta().add("assign", ("T.m/h", "T.m/x"))
        )
        assert result.fallback
        assert "eliminate_subsumed" in result.reason
        assert solver.stats.fallback_solves == 1

    def test_main_method_change_falls_back(self):
        facts = _to_facts(FIGURE_1)
        solver = IncrementalSolver(
            facts, config_by_name("1-call", "transformer-string")
        )
        delta = FactDelta()
        delta.main_method_change = (facts.main_method, facts.main_method)
        result = solver.apply_delta(delta)
        assert result.fallback
        assert "entry point" in result.reason

    def test_entity_remap_falls_back(self):
        facts = _to_facts(FIGURE_1)
        solver = IncrementalSolver(
            facts, config_by_name("1-call", "transformer-string")
        )
        heap = sorted(facts.class_of)[0]
        delta = FactDelta()
        delta.class_of_removed[heap] = facts.class_of[heap]
        delta.class_of_added[heap] = "entirely.Different"
        result = solver.apply_delta(delta)
        assert result.fallback
        assert "re-mapped" in result.reason

    def test_fallback_is_still_correct(self):
        base = _to_facts(FIGURE_5)
        config = config_by_name(
            "1-call", "transformer-string", eliminate_subsumed=True
        )
        solver = IncrementalSolver(copy_facts(base), config)
        delta = FactDelta().add("assign", ("T.m/h", "T.m/x"))
        solver.apply_delta(delta)
        assert solver.relation_rows() == scratch_rows(
            delta.applied_copy(base), config
        )
