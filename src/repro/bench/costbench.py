"""The cost-ordered evaluation workload for the figure6 JSON report.

Prices the static cost analyzer (:mod:`repro.datalog.cost`) on one
synthetic DaCapo analogue: the generic engine evaluating the emitted
program in author order, the same engine evaluating the cost-chosen
body orders, and the columnar kernel backend compiled from the
cost-ordered program — all parity-checked row-for-row against the
source-order baseline before any timing is reported.  Alongside the
timings the block carries:

* the DL5xx diagnostic counts and the number of reordered rules from
  the ``repro-cost-plan/1`` plan;
* the configuration-closure certificate summary
  (``repro-kernel-cert/1``): closure obligations discharged and kernel
  variant coverage — ``certified`` requires it to pass.

The block is additive in the figure6 JSON (schema ``repro-figure6/9``)
and is also a payload of the committed ``BENCH_*.json`` trajectory
files.
"""

from __future__ import annotations

from typing import Dict

from repro.core.config import config_by_name
from repro.perf.registry import corpus_facts
from repro.perf.stats import stopwatch

#: ``fanout`` (wide dispatch) is the corpus entry where cost-chosen
#: orders show a solve win that *grows* with scale; several other
#: entries are neutral-to-slightly-worse under reordering (the emitted
#: source orders are already good), which the block reports honestly.
DEFAULT_BENCHMARK = "fanout"
DEFAULT_CONFIGURATION = "2-object+H"


def run_cost_block(
    scale: int = 2,
    benchmark: str = DEFAULT_BENCHMARK,
    configuration: str = DEFAULT_CONFIGURATION,
) -> Dict:
    """Source-order engine vs cost-ordered engine vs cost-ordered
    kernels.  Returns the additive ``cost`` block of
    ``repro-figure6/9``.
    """
    from repro.compile.closure import certify_kernels
    from repro.compile.emit import compile_transformer_analysis
    from repro.datalog.cost import analyze_cost
    from repro.datalog.engine import Engine
    from repro.datalog.kernel import KernelEngine

    config = config_by_name(configuration)
    facts = corpus_facts(benchmark, scale)
    compiled = compile_transformer_analysis(
        facts, config.flavour, config.m, config.h
    )
    program, builtins = compiled.program, compiled.builtins

    plan, plan_seconds = stopwatch(
        lambda: analyze_cost(program, builtins=builtins)
    )
    diagnostics: Dict[str, int] = {}
    for diagnostic in plan.diagnostics:
        diagnostics[diagnostic.code] = diagnostics.get(diagnostic.code, 0) + 1

    def _engine_run():
        engine = Engine(program, builtins)
        return engine, engine.run()

    (engine, baseline), engine_seconds = stopwatch(_engine_run)

    # The plan is computed once above; evaluating the *applied* program
    # prices the reordering itself, not a second planning pass (the
    # planning cost is reported separately as plan.seconds).
    ordered_program = plan.apply()

    def _ordered_run():
        ordered = Engine(ordered_program, builtins)
        return ordered, ordered.run()

    (ordered, ordered_results), ordered_seconds = stopwatch(_ordered_run)

    kernel_engine, kernel_compile_seconds = stopwatch(
        lambda: KernelEngine(ordered_program, builtins)
    )
    kernel_results, kernel_solve_seconds = stopwatch(kernel_engine.run)

    certificate = certify_kernels(
        config.flavour, config.m, config.h,
        program=kernel_engine.program, kernels=kernel_engine.kernels,
        builtins=kernel_engine.builtins,
    )

    def speedup(seconds: float):
        return engine_seconds / seconds if seconds > 0 else None

    return {
        "benchmark": benchmark,
        "configuration": configuration,
        "scale": scale,
        "plan": {
            "seconds": plan_seconds,
            "rules": len(plan.rules),
            "reordered": plan.reordered_count(),
            "diagnostics": dict(sorted(diagnostics.items())),
            "digest": plan.digest(),
        },
        "engine_seconds": engine_seconds,
        "cost_ordered": {
            "seconds": ordered_seconds,
            "speedup": speedup(ordered_seconds),
            "rule_evaluations": ordered.stats.rule_evaluations,
            "parity": ordered_results == baseline,
        },
        "cost_ordered_kernel": {
            "seconds": kernel_compile_seconds + kernel_solve_seconds,
            "compile_seconds": kernel_compile_seconds,
            "solve_seconds": kernel_solve_seconds,
            "speedup": speedup(kernel_compile_seconds + kernel_solve_seconds),
            "solve_speedup": speedup(kernel_solve_seconds),
            "parity": kernel_results == baseline,
        },
        "closure": {
            "obligations": len(certificate.obligations),
            "violations": len(certificate.violations()),
            "variants_required": len(certificate.required or ()),
            "variants_missing": len(certificate.missing or ()),
            "certified": certificate.certified,
        },
        # Bit-identical results on every surface plus a clean closure
        # certificate — all must hold for the block to be certified.
        "certified": (
            ordered_results == baseline
            and kernel_results == baseline
            and certificate.certified
        ),
    }


def format_cost(block: Dict) -> str:
    """One-paragraph text rendering (used by the CLI)."""
    plan = block["plan"]
    codes = ", ".join(
        f"{code}×{count}" for code, count in plan["diagnostics"].items()
    ) or "clean"
    lines = [
        f"cost-ordered evaluation ({block['benchmark']}/"
        f"{block['configuration']}, scale={block['scale']}):"
        f" plan {plan['seconds'] * 1000:.1f}ms,"
        f" {plan['reordered']}/{plan['rules']} rules reordered,"
        f" diagnostics: {codes}"
    ]
    lines.append(
        f"  source-order engine {block['engine_seconds'] * 1000:.1f}ms"
    )
    ordered = block["cost_ordered"]
    suffix = (
        f" ({ordered['speedup']:.2f}x)"
        if ordered["speedup"] is not None else ""
    )
    lines.append(
        f"  cost-ordered engine {ordered['seconds'] * 1000:.1f}ms{suffix}"
        f" parity={'ok' if ordered['parity'] else 'MISMATCH'}"
    )
    kernel = block["cost_ordered_kernel"]
    solve = kernel["solve_speedup"]
    solve_suffix = f" ({solve:.2f}x)" if solve is not None else ""
    lines.append(
        f"  cost-ordered kernels: compile"
        f" {kernel['compile_seconds'] * 1000:.1f}ms + solve"
        f" {kernel['solve_seconds'] * 1000:.1f}ms{solve_suffix}"
        f" parity={'ok' if kernel['parity'] else 'MISMATCH'}"
    )
    closure = block["closure"]
    lines.append(
        f"  closure: {closure['obligations']} obligations"
        f" ({closure['violations']} violated),"
        f" {closure['variants_required'] - closure['variants_missing']}"
        f"/{closure['variants_required']} kernel variants"
        f" — {'certified' if closure['certified'] else 'NOT CERTIFIED'}"
    )
    lines.append(
        "  certificate: "
        + ("ok (parity on every surface + closure)"
           if block["certified"] else "FAILED")
    )
    return "\n".join(lines)
