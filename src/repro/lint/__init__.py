"""Static analysis (lint) over Datalog programs and the frontend IR.

The paper's Section 7 pipeline instantiates parameterized deduction
rules into plain Datalog; a bug anywhere in that pipeline historically
surfaced only as a silently-wrong points-to set or an opaque runtime
error deep inside the engine.  This package provides the pre-evaluation
correctness tooling — the analogue of the rule-level safety checks
Doop-style engines run before touching any tuples:

* :mod:`repro.lint.diagnostics` — the structured diagnostic model
  (codes, severities, locations) shared by every pass;
* :mod:`repro.lint.passes` — the multi-pass semantic analyzer over
  :class:`repro.datalog.ast.Program` (safety/range restriction under
  the engine's left-to-right join order, arity and sort inference,
  stratification explanation, dead-rule detection and elimination);
* :mod:`repro.lint.ircheck` — the well-formedness verifier for
  :class:`repro.frontend.ir.Program`.

The conventional entry points live in :mod:`repro.datalog.lint`
(programs) and :func:`repro.lint.ircheck.check_ir` (IR); the CLI
exposes both as ``python -m repro lint``.
"""

from repro.lint.diagnostics import (
    Diagnostic,
    LintError,
    LintReport,
    Severity,
)
from repro.lint.cost import check_cost, cost_plan_or_none
from repro.lint.ircheck import check_ir
from repro.lint.passes import binding_orders, eliminate_dead_rules, lint_program

__all__ = [
    "Diagnostic",
    "LintError",
    "LintReport",
    "Severity",
    "binding_orders",
    "check_cost",
    "check_ir",
    "cost_plan_or_none",
    "eliminate_dead_rules",
    "lint_program",
]
