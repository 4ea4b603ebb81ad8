"""The static cost & cardinality lint pass (DL5xx).

A thin lint-surface wrapper around the join-order cost analysis of
:mod:`repro.datalog.cost`: profile the installed facts, propagate IDB
cardinality bounds, plan the cheapest legal body order for every rule,
and report one coded diagnostic per finding:

========  ========  ====================================================
``DL501``  warning   unbounded join — a positive stored literal is
                     probed with zero bound columns even under the best
                     legal order (cross product)
``DL502``  note      probe without usable index — the bound columns
                     carry no selectivity
``DL503``  note      cost-improving reorder available (order reported;
                     DL001–DL004 safety preserved by construction)
``DL504``  note      shared body prefix across rules — common-subplan
                     / caching opportunity
``DL505``  warning   uncovered kernel configuration (emitted by the
                     closure certifier, :mod:`repro.compile.closure`)
========  ========  ====================================================

This pass is *advisory about the plan*, not about program
correctness, so it is not part of the default
:func:`repro.datalog.lint.lint_program` pass list; the CLI runs it
under ``repro lint --cost``, and :meth:`~repro.datalog.cost.CostPlan.apply`
rewrites a program into the plan's join orders before evaluation.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.datalog.ast import Program
from repro.lint.diagnostics import Diagnostic

Builtins = Optional[Iterable[str]]


def check_cost(program: Program, builtins: Builtins = None) -> List[Diagnostic]:
    """DL5xx diagnostics for ``program``.

    Programs that fail stratification produce no DL5xx findings (DL201
    already reports the reason no plan can exist).
    """
    return cost_plan_or_none(program, builtins)[1]


def cost_plan_or_none(
    program: Program, builtins: Builtins = None
) -> Tuple[Optional[object], List[Diagnostic]]:
    """``(CostPlan, diagnostics)`` — or ``(None, [])`` when the program
    cannot be stratified (the DL201 pass owns that failure)."""
    from repro.datalog.cost import analyze_cost
    from repro.datalog.stratify import StratificationError

    try:
        plan = analyze_cost(program, builtins)
    except StratificationError:
        return None, []
    return plan, list(plan.diagnostics)
