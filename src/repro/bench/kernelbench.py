"""The kernel-backend workload for the figure6 JSON report.

Times the columnar kernel backend
(:class:`repro.datalog.kernel.KernelEngine`) against the generic
interpreting engine on one synthetic DaCapo analogue, and reports:

* generic-engine wall clock (the baseline all speedups divide);
* kernel-backend wall clock split into kernel compilation (dead-rule
  elimination, interning and code generation, or only the first two
  when ``compile_cached`` says the process already held the live rule
  set's code) and the fixpoint solve, with speedups for both the solve
  alone and the end-to-end total, plus rounds, rule evaluations and
  derived facts;
* exact parity: the kernel backend's row sets are compared against
  the generic engine's before any timing is reported.

The block is additive in the figure6 JSON (schema ``repro-figure6/9``)
and is also a payload of the committed ``BENCH_*.json`` trajectory
files (ROADMAP item 4).
"""

from __future__ import annotations

from typing import Dict

from repro.core.config import config_by_name
from repro.perf.registry import corpus_facts
from repro.perf.stats import stopwatch

DEFAULT_BENCHMARK = "bloat"
DEFAULT_CONFIGURATION = "2-object+H"


def run_kernel_block(
    scale: int = 2,
    benchmark: str = DEFAULT_BENCHMARK,
    configuration: str = DEFAULT_CONFIGURATION,
) -> Dict:
    """Generic engine vs kernel backend.

    Returns the additive ``kernels`` block of ``repro-figure6/9``.
    """
    from repro.compile.emit import compile_transformer_analysis
    from repro.datalog.engine import Engine
    from repro.datalog.kernel import KernelEngine

    config = config_by_name(configuration)
    facts = corpus_facts(benchmark, scale)
    compiled = compile_transformer_analysis(
        facts, config.flavour, config.m, config.h
    )

    def _engine_run():
        engine = Engine(compiled.program, compiled.builtins)
        return engine, engine.run()

    (engine, baseline), engine_seconds = stopwatch(_engine_run)

    kernel_engine, compile_seconds = stopwatch(
        lambda: KernelEngine(compiled.program, compiled.builtins)
    )
    kernel_results, solve_seconds = stopwatch(kernel_engine.run)
    kernel_seconds = compile_seconds + solve_seconds

    def speedup(seconds: float):
        return engine_seconds / seconds if seconds > 0 else None

    return {
        "benchmark": benchmark,
        "configuration": configuration,
        "scale": scale,
        "engine_seconds": engine_seconds,
        "engine_rule_evaluations": engine.stats.rule_evaluations,
        "kernel": {
            "seconds": kernel_seconds,
            "compile_seconds": compile_seconds,
            "compile_cached": kernel_engine.compile_cached,
            "solve_seconds": solve_seconds,
            "speedup": speedup(kernel_seconds),
            "solve_speedup": speedup(solve_seconds),
            "rounds": kernel_engine.stats.rounds,
            "rule_evaluations": kernel_engine.stats.rule_evaluations,
            "facts_derived": kernel_engine.stats.facts_derived,
            "parity": kernel_results == baseline,
        },
        "certified": kernel_results == baseline,
    }


def format_kernels(block: Dict) -> str:
    """One-paragraph text rendering (used by the CLI)."""
    lines = [
        f"kernel backend ({block['benchmark']}/"
        f"{block['configuration']}, scale={block['scale']}):"
        f" generic engine {block['engine_seconds'] * 1000:.1f}ms"
        f" ({block['engine_rule_evaluations']} rule evaluations)"
    ]
    kernel = block["kernel"]
    speedup = kernel["speedup"]
    suffix = f" ({speedup:.2f}x total)" if speedup is not None else ""
    solve = kernel["solve_speedup"]
    solve_suffix = f" ({solve:.2f}x)" if solve is not None else ""
    cached = " (cached)" if kernel["compile_cached"] else ""
    lines.append(
        f"  kernels: compile {kernel['compile_seconds'] * 1000:.1f}ms"
        f"{cached}"
        f" + solve {kernel['solve_seconds'] * 1000:.1f}ms{solve_suffix}"
        f" = {kernel['seconds'] * 1000:.1f}ms{suffix}"
    )
    lines.append(
        f"    rounds={kernel['rounds']}"
        f" evaluations={kernel['rule_evaluations']}"
        f" parity={'ok' if kernel['parity'] else 'MISMATCH'}"
    )
    lines.append(
        "  certificate: "
        + ("ok (parity with the generic engine)"
           if block["certified"] else "FAILED")
    )
    return "\n".join(lines)
