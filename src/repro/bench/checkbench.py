"""Precision audit: the client checkers across the configuration matrix.

The client-level companion to Figure 6: where the figure counts derived
*facts* per flavour × (m, h) × abstraction, the audit counts checker
*findings* — the quantity a user of the analysis actually observes.
Two verdicts ride along with every sweep:

* ``monotone`` — per checker, whether every context-sensitive cell's
  finding identities are a subset of the insensitive (m=0, h=0) cell's
  (precision can only *remove* client findings);
* ``abstractions_agree`` — whether the two abstractions produce
  bit-identical findings (``CheckReport.findings_digest``) at equal
  (m, h), the client-level face of Theorem 6.2.

:func:`run_precision_audit` sweeps one fact set (the ``repro check
--audit`` CLI).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.checkers import CheckConfig, run_checks
from repro.core.analysis import analyze
from repro.core.config import PAPER_CONFIGURATIONS, config_by_name
from repro.frontend.factgen import FactSet

#: The audit's default configuration column set: the insensitive
#: baseline first (the superset every other column is judged against),
#: then the paper's evaluated configurations.
AUDIT_CONFIGURATIONS: Tuple[str, ...] = (
    "insensitive",
) + PAPER_CONFIGURATIONS

ABSTRACTIONS: Tuple[str, ...] = ("context-string", "transformer-string")

#: Schema of the ``repro check --audit --json`` document.
AUDIT_SCHEMA = "repro-check-audit/1"


def run_precision_audit(
    facts: FactSet,
    configurations: Sequence[str] = AUDIT_CONFIGURATIONS,
    abstractions: Sequence[str] = ABSTRACTIONS,
    checks: Optional[Sequence[str]] = None,
    check_config: CheckConfig = CheckConfig(),
) -> Dict:
    """Sweep one program; returns the audit document (JSON-ready)."""
    names = None
    cells: List[Dict] = []
    identities: Dict[Tuple[str, str], Dict[str, set]] = {}
    digests: Dict[Tuple[str, str], str] = {}
    for configuration in configurations:
        for abstraction in abstractions:
            config = config_by_name(configuration, abstraction=abstraction)
            report = run_checks(
                analyze(facts, config), facts,
                checks=checks, config=check_config,
            )
            if names is None:
                names = list(report.checks)
            by_checker = {
                name: {f.identity for f in findings}
                for name, findings in report.by_checker().items()
            }
            identities[(configuration, abstraction)] = by_checker
            digests[(configuration, abstraction)] = (
                report.findings_digest()
            )
            cells.append({
                "configuration": configuration,
                "abstraction": abstraction,
                "counts": {
                    name: len(by_checker.get(name, ()))
                    for name in report.checks
                },
                "total": len(report.findings),
            })
    baseline_name = configurations[0]
    monotone = {}
    for name in names or ():
        ok = True
        for configuration in configurations:
            for abstraction in abstractions:
                baseline = identities[(baseline_name, abstraction)].get(
                    name, set()
                )
                found = identities[(configuration, abstraction)].get(
                    name, set()
                )
                if not found <= baseline:
                    ok = False
        monotone[name] = ok
    agree = all(
        digests[(configuration, abstractions[0])]
        == digests[(configuration, abstraction)]
        for configuration in configurations
        for abstraction in abstractions[1:]
    ) if len(abstractions) > 1 else True
    return {
        "schema": AUDIT_SCHEMA,
        "baseline": baseline_name,
        "configurations": list(configurations),
        "abstractions": list(abstractions),
        "checkers": names or [],
        "cells": cells,
        "monotone": monotone,
        "abstractions_agree": agree,
    }


def format_audit(audit: Dict, title: str = "Precision audit") -> str:
    """Render one program's audit as an aligned text table: one row per
    configuration × abstraction, one column per checker."""
    checkers = audit["checkers"]
    width = max((len(name) for name in checkers), default=5) + 2
    label_width = max(
        (len(f"{c}/{a[:11]}") for c in audit["configurations"]
         for a in audit["abstractions"]), default=10
    ) + 2
    lines = [f"{title}: finding counts per configuration"]
    header = f"{'':{label_width}s}" + "".join(
        f"{name:>{width}s}" for name in checkers
    ) + f"{'total':>8s}"
    lines.append(header)
    lines.append("-" * len(header))
    for cell in audit["cells"]:
        label = f"{cell['configuration']}/{cell['abstraction'][:11]}"
        line = f"{label:{label_width}s}" + "".join(
            f"{cell['counts'].get(name, 0):>{width}d}" for name in checkers
        ) + f"{cell['total']:>8d}"
        lines.append(line)
    verdicts = ", ".join(
        f"{name}={'yes' if ok else 'NO'}"
        for name, ok in audit["monotone"].items()
    )
    lines.append(f"monotone vs {audit['baseline']}: {verdicts}")
    lines.append(
        "abstractions agree (bit-identical findings): "
        + ("yes" if audit["abstractions_agree"] else "NO")
    )
    return "\n".join(lines)
