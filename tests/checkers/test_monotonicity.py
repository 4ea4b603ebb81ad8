"""The acceptance sweep: precision monotonicity and abstraction parity.

Two properties, checked over figure1 / figure5 / the event-bus program /
the seven DaCapo analogues at scale 1, the full paper configuration
matrix, and both abstractions:

* per checker, every context-sensitive configuration's finding
  identities are a subset of the insensitive baseline's — precision can
  only *remove* client findings;
* at equal ``(m, h)``, the context-string and transformer-string
  abstractions produce bit-identical findings (Theorem 6.2 lifted to
  the client layer), measured by ``CheckReport.findings_digest``.
"""

import pytest

from repro.bench.checkbench import (
    ABSTRACTIONS,
    AUDIT_CONFIGURATIONS,
    AUDIT_SCHEMA,
    format_audit,
    run_precision_audit,
)
from repro.bench.workloads import DACAPO_NAMES, dacapo_program
from repro.checkers import checker_names, run_checks
from repro.core.analysis import analyze
from repro.core.config import config_by_name
from repro.frontend.factgen import facts_from_source, generate_facts
from repro.frontend.paper_programs import FIGURE_1, FIGURE_5

from tests.checkers.test_checks import _example_program

PROGRAMS = {
    "figure1": lambda: facts_from_source(FIGURE_1),
    "figure5": lambda: facts_from_source(FIGURE_5),
    "eventbus": lambda: facts_from_source(_example_program()),
    **{
        f"{name}-s1": (
            lambda name=name: generate_facts(dacapo_program(name, 1))
        )
        for name in DACAPO_NAMES
    },
}

CONFIGURATIONS = AUDIT_CONFIGURATIONS  # insensitive first, then paper's


@pytest.fixture(scope="module", params=sorted(PROGRAMS))
def program_facts(request):
    return request.param, PROGRAMS[request.param]()


def test_audit_configurations_start_from_the_baseline():
    assert AUDIT_CONFIGURATIONS[0] == "insensitive"
    assert "2-object+H" in AUDIT_CONFIGURATIONS


def _reports(facts):
    """Every configuration × abstraction cell's report."""
    out = {}
    for configuration in CONFIGURATIONS:
        for abstraction in ABSTRACTIONS:
            config = config_by_name(configuration, abstraction=abstraction)
            out[(configuration, abstraction)] = run_checks(
                analyze(facts, config), facts
            )
    return out


@pytest.fixture(scope="module")
def cell_reports(program_facts):
    return _reports(program_facts[1])


def test_precision_only_removes_findings(program_facts, cell_reports):
    name, _facts = program_facts
    for abstraction in ABSTRACTIONS:
        baseline = cell_reports[("insensitive", abstraction)].by_checker()
        for configuration in CONFIGURATIONS:
            cell = cell_reports[(configuration, abstraction)].by_checker()
            for checker in checker_names():
                found = {f.identity for f in cell.get(checker, ())}
                allowed = {f.identity for f in baseline.get(checker, ())}
                assert found <= allowed, (
                    f"{name}/{configuration}/{abstraction}: {checker}"
                    f" added findings {sorted(found - allowed)}"
                )


def test_abstractions_agree_bit_for_bit(program_facts, cell_reports):
    name, _facts = program_facts
    for configuration in CONFIGURATIONS:
        digests = {
            abstraction:
            cell_reports[(configuration, abstraction)].findings_digest()
            for abstraction in ABSTRACTIONS
        }
        assert len(set(digests.values())) == 1, (
            f"{name}/{configuration}: abstractions disagree: {digests}"
        )


def test_audit_document_agrees_with_the_sweep(program_facts, cell_reports):
    _name, facts = program_facts
    audit = run_precision_audit(facts)
    assert audit["schema"] == AUDIT_SCHEMA
    assert audit["baseline"] == "insensitive"
    assert audit["checkers"] == list(checker_names())
    assert all(audit["monotone"].values())
    assert audit["abstractions_agree"]
    # The audit's cell counts are the sweep's finding counts.
    assert len(audit["cells"]) == len(CONFIGURATIONS) * len(ABSTRACTIONS)
    for cell in audit["cells"]:
        report = cell_reports[(cell["configuration"], cell["abstraction"])]
        assert cell["total"] == len(report.findings)
        by_checker = report.by_checker()
        for checker, count in cell["counts"].items():
            assert count == len(by_checker.get(checker, ()))
    # The rendered table carries both verdicts.
    text = format_audit(audit)
    assert "monotone vs insensitive" in text
    assert "abstractions agree" in text
