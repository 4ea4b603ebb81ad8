"""SuiteAdapter: one benchmark definition, every execution surface.

The DaCapo harness runs one benchmark through many "callback" harness
variants without the benchmark knowing; here one
:class:`~repro.perf.registry.BenchmarkDef` drives every execution
surface the repo has grown:

========================  ==================================================
surface                    what is timed per steady iteration
========================  ==================================================
``worklist``               the sequential reference solver (the surface
                           every other one certifies against)
``engine``                 the semi-naive Datalog interpreter
``kernel``                 fused columnar integer kernels
``kernel-cost``            kernels compiled from the cost-ordered program
``incremental``            a stream of single-statement edits (DRed)
``serving``                the async gateway under open-loop load
========================  ==================================================

Each adapter returns a :class:`~repro.perf.result.RunResult` whose
``certified`` flag means the timed computation's derived relations were
verified bit-identical to the sequential worklist solver on the same
facts (for ``serving`` additionally sampled served answers equal the
direct service's).  Certification runs outside the timed region.

Warmup iterations execute the same work as steady iterations and are
timed, but only steady samples enter statistics or the gate.
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import Callable, Dict, FrozenSet, List, Optional, Protocol

from repro.core.analysis import analyze
from repro.core.config import config_by_name
from repro.frontend.factgen import FactSet
from repro.perf.registry import BenchmarkDef
from repro.perf.result import RunResult
from repro.perf.stats import stopwatch, timed_samples

#: The derived relations compared for certification, in schema order.
RELATION_NAMES = ("pts", "hpts", "call", "reach", "spts", "texc")


class AdapterError(ValueError):
    """Raised for unknown surfaces or malformed adapter arguments."""


def relation_rows(result) -> Dict[str, FrozenSet]:
    """Frozen copies of the six derived relations of any result object
    exposing them as attributes (worklist, compiled, incremental)."""
    return {
        name: frozenset(getattr(result, name)) for name in RELATION_NAMES
    }


class SuiteAdapter(Protocol):
    """The protocol every execution surface implements."""

    surface: str

    def run(
        self,
        definition: BenchmarkDef,
        configuration: str,
        scale: int,
        warmup: int,
        iterations: int,
    ) -> RunResult:
        """Measure ``definition`` on this surface; certify the result."""
        ...


class _FactsAdapter:
    """Shared prep: timed factgen and the certification reference."""

    surface = "?"

    def _prepare(self, definition: BenchmarkDef, configuration: str,
                 scale: int) -> "_Prepared":
        config = config_by_name(configuration)
        facts, factgen_seconds = stopwatch(
            lambda: definition.facts(scale)
        )
        reference = relation_rows(analyze(facts, config))
        return _Prepared(config, facts, factgen_seconds, reference)

    def _result(self, definition: BenchmarkDef, configuration: str,
                scale: int) -> RunResult:
        return RunResult(
            benchmark=definition.name,
            surface=self.surface,
            configuration=configuration,
            scale=scale,
        )


class _Prepared:
    def __init__(self, config, facts: FactSet, factgen_seconds: float,
                 reference: Dict[str, FrozenSet]):
        self.config = config
        self.facts = facts
        self.factgen_seconds = factgen_seconds
        self.reference = reference


class WorklistAdapter(_FactsAdapter):
    """The sequential reference solver — the certification anchor.

    Certified by determinism: the relations of two independent solves
    must be bit-identical (every other surface is then compared against
    this fixpoint)."""

    surface = "worklist"

    def run(self, definition, configuration, scale, warmup, iterations):
        prep = self._prepare(definition, configuration, scale)
        result = self._result(definition, configuration, scale)
        result.reference = True
        result.phases["factgen"] = prep.factgen_seconds

        last = {}

        def solve():
            nonlocal last
            last = relation_rows(analyze(prep.facts, prep.config))

        result.warmup_seconds, result.steady_seconds = timed_samples(
            solve, warmup, iterations
        )
        result.phases["solve"] = result.best()
        result.certified = last == prep.reference
        result.metrics = {
            "facts": sum(prep.facts.counts().values()),
            "pts": len(prep.reference["pts"]),
            "reach": len(prep.reference["reach"]),
        }
        return result


class _DatalogAdapter(_FactsAdapter):
    """Shared shape of the single-engine Datalog backends."""

    backend = "?"

    def run(self, definition, configuration, scale, warmup, iterations):
        from repro.compile.emit import compile_transformer_analysis

        prep = self._prepare(definition, configuration, scale)
        result = self._result(definition, configuration, scale)
        result.phases["factgen"] = prep.factgen_seconds

        compiled, compile_seconds = stopwatch(
            lambda: self._post_compile(compile_transformer_analysis(
                prep.facts, prep.config.flavour,
                prep.config.m, prep.config.h,
            ))
        )

        builds: List[float] = []
        last = None

        def solve():
            nonlocal last
            engine, build_seconds = stopwatch(
                lambda: self._engine(compiled)
            )
            builds.append(build_seconds)
            last = engine.run()

        # The steady sample is end-to-end (engine build + fixpoint): a
        # fresh engine per iteration, so no state survives between runs.
        result.warmup_seconds, result.steady_seconds = timed_samples(
            solve, warmup, iterations
        )
        steady_builds = builds[len(result.warmup_seconds):]
        best_index = result.steady_seconds.index(result.best())
        result.phases["compile"] = compile_seconds + steady_builds[best_index]
        result.phases["solve"] = result.best() - steady_builds[best_index]
        decoded = compiled.decoder(last)
        result.certified = {
            name: frozenset(decoded.get(name, ()))
            for name in RELATION_NAMES
        } == prep.reference
        result.metrics = {"facts": sum(prep.facts.counts().values())}
        return result

    def _post_compile(self, compiled):
        """Hook for per-surface program rewrites; runs inside the timed
        compile phase (not inside the per-iteration engine build)."""
        return compiled

    def _engine(self, compiled):
        raise NotImplementedError


class EngineAdapter(_DatalogAdapter):
    """The semi-naive interpreting engine."""

    surface = "engine"

    def _engine(self, compiled):
        from repro.datalog.engine import Engine

        return Engine(compiled.program, compiled.builtins)


class KernelAdapter(_DatalogAdapter):
    """Fused integer kernels over the columnar store."""

    surface = "kernel"

    def _engine(self, compiled):
        from repro.datalog.kernel import KernelEngine

        return KernelEngine(compiled.program, compiled.builtins)


class KernelCostAdapter(_DatalogAdapter):
    """Fused integer kernels over the *cost-ordered* program.

    The static DL5xx planner (:mod:`repro.datalog.cost`) rewrites each
    rule body into its cost-chosen join order before kernel
    compilation; the planning pass is charged to the compile phase, so
    the steady samples price exactly what the reordering changes.
    Certified = bit-identical relations to the worklist reference, same
    as every other surface."""

    surface = "kernel-cost"

    def __init__(self):
        self._reordered: Optional[int] = None

    def _post_compile(self, compiled):
        from repro.datalog.cost import analyze_cost

        plan = analyze_cost(compiled.program, builtins=compiled.builtins)
        self._reordered = plan.reordered_count()
        compiled.program = plan.apply()
        return compiled

    def _engine(self, compiled):
        from repro.datalog.kernel import KernelEngine

        return KernelEngine(compiled.program, compiled.builtins)

    def run(self, definition, configuration, scale, warmup, iterations):
        result = super().run(
            definition, configuration, scale, warmup, iterations
        )
        result.metrics["reordered_rules"] = self._reordered
        return result


class IncrementalAdapter(_FactsAdapter):
    """Edit churn on a live fixpoint (DRed + semi-naive additions).

    Each iteration replays the same deterministic edit stream against a
    fresh solver; the sample is the summed ``apply_delta`` cost.
    Certified = the post-churn fixpoint is bit-identical to a
    from-scratch solve of the post-edit facts."""

    surface = "incremental"

    def __init__(self, edits: int = 8, seed: int = 0):
        self.edits = edits
        self.seed = seed

    def run(self, definition, configuration, scale, warmup, iterations):
        from repro.incremental import IncrementalSolver, copy_facts
        from repro.incremental.edits import random_edits

        prep = self._prepare(definition, configuration, scale)
        result = self._result(definition, configuration, scale)
        result.phases["factgen"] = prep.factgen_seconds

        edit_stream = list(
            random_edits(prep.facts, self.edits, seed=self.seed)
        )
        rolling = copy_facts(prep.facts)
        for _kind, delta in edit_stream:
            delta.apply_to(rolling)

        fallbacks = 0
        last_solver: Optional[object] = None

        def churn():
            nonlocal fallbacks, last_solver
            solver = IncrementalSolver(copy_facts(prep.facts), prep.config)
            fallbacks = 0
            for _kind, delta in edit_stream:
                outcome = solver.apply_delta(delta)
                if outcome.fallback:
                    fallbacks += 1
            last_solver = solver

        result.warmup_seconds, result.steady_seconds = timed_samples(
            churn, warmup, iterations
        )
        result.phases["solve"] = result.best()

        scratch = relation_rows(analyze(rolling, prep.config))
        churned = {
            name: frozenset(rows)
            for name, rows in last_solver.relation_rows().items()
            if name in RELATION_NAMES
        }
        result.certified = churned == scratch
        result.metrics = {
            "edits": len(edit_stream),
            "seed": self.seed,
            "fallbacks": fallbacks,
        }
        return result


class ServingAdapter(_FactsAdapter):
    """The async gateway under deterministic open-loop load.

    Each iteration boots a fresh gateway on a pre-built snapshot and
    replays the same request stream; the sample is steady-state p50
    latency (the stream's own ``warmup_s`` arrivals are never scored).
    Certified = the restored snapshot's relations are bit-identical to
    the worklist solver *and* every sampled served answer equals the
    direct service's."""

    surface = "serving"

    def __init__(self, spec=None):
        self.spec = spec

    def _spec(self):
        from repro.bench.loadbench import LoadSpec

        return self.spec or LoadSpec(
            rate=150.0, duration_s=1.6, warmup_s=0.4,
            connections=4, parity_every=5,
        )

    def run(self, definition, configuration, scale, warmup, iterations):
        from repro.bench.loadbench import (
            _parity_check,
            _start_gateway,
            build_requests,
            run_open_loop,
        )
        from repro.service.service import AnalysisService

        prep = self._prepare(definition, configuration, scale)
        result = self._result(definition, configuration, scale)
        result.phases["factgen"] = prep.factgen_seconds
        spec = self._spec()

        service, solve_seconds = stopwatch(
            lambda: AnalysisService.from_facts(
                prep.facts, prep.config, backend="kernel"
            )
        )
        result.phases["solve"] = solve_seconds

        handle, snapshot_path = tempfile.mkstemp(
            prefix="repro-bench-serving-", suffix=".json"
        )
        os.close(handle)
        try:
            service.save_snapshot(snapshot_path)
            restored = AnalysisService.from_snapshot(snapshot_path)
            # The snapshot wraps a solved backend, not an AnalysisResult;
            # its restored relations are what every answer projects from.
            snapshot_parity = relation_rows(restored._result) == prep.reference

            requests = build_requests(prep.facts, spec)
            last_run: Dict = {}
            answers: Dict[int, object] = {}

            def serve_once():
                nonlocal last_run, answers
                host, port, _gateway, _digest, stop = _start_gateway(
                    snapshot_path
                )
                try:
                    last_run, answers = run_open_loop(
                        host, port, requests, spec
                    )
                finally:
                    stop()

            samples_w: List[float] = []
            samples_s: List[float] = []
            for i in range(max(0, warmup) + max(1, iterations)):
                start = time.perf_counter()
                serve_once()
                _wall = time.perf_counter() - start
                p50_ms = (last_run.get("latency_ms") or {}).get("p50")
                sample = (p50_ms or 0.0) / 1000.0
                (samples_w if i < warmup else samples_s).append(sample)
            result.warmup_seconds, result.steady_seconds = (
                samples_w, samples_s
            )
            result.phases["query"] = result.best()

            parity = _parity_check(
                snapshot_path, requests, {"gateway": answers}
            )
            result.certified = snapshot_parity and bool(parity.get("ok"))
            result.metrics = {
                "rate": spec.rate,
                "duration_s": spec.duration_s,
                "warmup_s": spec.warmup_s,
                "answered": last_run.get("answered"),
                "dropped": last_run.get("dropped"),
                "slo_goodput_rps": last_run.get("slo_goodput_rps"),
                "parity_checked": parity.get("queries_checked"),
            }
            if not parity.get("ok"):
                result.notes.append("served answers diverged from service")
        finally:
            os.unlink(snapshot_path)
        return result


#: Surface name → adapter factory.  ``adapter_for`` is the lookup.
ADAPTERS: Dict[str, Callable[[], SuiteAdapter]] = {
    "worklist": WorklistAdapter,
    "engine": EngineAdapter,
    "kernel": KernelAdapter,
    "kernel-cost": KernelCostAdapter,
    "incremental": IncrementalAdapter,
    "serving": ServingAdapter,
}


def adapter_for(surface: str) -> SuiteAdapter:
    """Instantiate the adapter for a surface name."""
    try:
        factory = ADAPTERS[surface]
    except KeyError:
        raise AdapterError(
            "unknown surface %r (known: %s)"
            % (surface, ", ".join(sorted(ADAPTERS)))
        ) from None
    return factory()
