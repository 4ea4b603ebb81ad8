"""The analyze-* workloads: Java source text in, decoded relations out.

One pass runs every (program, configuration) of the workload's shape
from source text to the six decoded relations, through one of two
paths of public entry points:

* worklist — ``parse_program`` → ``generate_facts`` → ``analyze``;
* kernel — ``parse_program`` → ``generate_facts`` →
  ``compile_transformer_analysis`` (or the context-string emitter) →
  ``KernelEngine(...)`` → ``.run()`` → the emitter's ``decoder``.

Set-up is timed in fresh interpreters that import every layer
(``setup_s``) and then analyze the workload's first program
(``first_ms``: what a one-shot ``repro analyze`` pays, which no
in-process cache can hide).  In the workload's own process an untimed
warm-up over the first program comes first; timed passes follow until
the run's seconds are spent.  One operation is one (program,
configuration) analysis as a one-program ``repro analyze`` runs it: the
program's frontend plus that configuration's solve.

A busy host only ever slows a sample down, in bursts of seconds, and
garbage-collector pauses land on different analyses from pass to pass.
So, as ``timeit`` does, each analysis reports its best latency over the
timed passes; ``p50_ms`` and ``tail_ms`` are percentiles of those over
the workload's analyses, and ``throughput_per_s`` is analyses per
second of the fastest timed pass, which moves with the total time of a
pass.  Over ten seeds on a busy host this cut the spread (IQR ÷ median)
on analyze-worklist from 9% to 4% for ``p50_ms``, from 18% to 5% for
``tail_ms`` and from 8% to 5% for ``throughput_per_s``, against medians
over the passes.  ``first_ms`` is likewise the best of the cold starts;
``setup_s`` is their median.

Outputs are checked outside the timed region: against expected.json
where it pins them; otherwise one result per pass, up to
:data:`MAX_CROSS_CHECKS` per run, is re-derived on the other path, in a
fresh process after the timed passes, so the check neither runs inside
nor inflates the measured process.  On analyze-worklist every program
must also have equal context-insensitive projections under both
abstractions at 2-object+H, the paper's precision claim.
"""

from __future__ import annotations

import gc
import json
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro import analyze, generate_facts, parse_program
from repro.compile.emit import (
    compile_context_string_analysis,
    compile_transformer_analysis,
)
from repro.datalog.kernel import KernelEngine

from benchmarks.e2e.trace import Tracer
from benchmarks.e2e.workloads import (
    PINNED_OFFSETS,
    RELATIONS,
    TAIL,
    WORKLOADS,
    Shape,
    Source,
    analysis_config,
    more_cold_starts,
    peak_rss_mb,
    percentile,
    relations_digest,
    render,
    reset_peak_rss,
    result_key,
    sha256,
)

Relations = Dict[str, set]

_STORE_COUNTERS = ("inserts", "probes", "dedup_hits", "index_builds")

#: Unpinned results re-derived on the other path per run.  A build that
#: computes wrong results gets most of them wrong, so a few per run
#: catch it; each costs up to a second on the kernel path.
MAX_CROSS_CHECKS = 3


def store_totals(described: Mapping[str, Mapping[str, int]]) -> Dict[str, int]:
    """Sum the per-relation store counters of one engine run."""
    return {
        "store_" + counter: sum(
            entry.get(counter, 0) for entry in described.values()
        )
        for counter in _STORE_COUNTERS
    }


def solve_worklist(facts, config, tracer: Tracer) -> Relations:
    ts = config.abstraction == "transformer-string"
    with tracer.span("core.solver." + ("ts" if ts else "cs")) as span:
        result = analyze(facts, config)
    if tracer.enabled:
        stats = result.stats
        span.update(
            rule_firings=stats.rule_firings,
            facts_derived=stats.facts_derived,
            facts_deduplicated=stats.facts_deduplicated,
            **store_totals(result.store_stats()),
        )
    return {name: getattr(result, name) for name in RELATIONS}


def _emitter(config):
    if config.abstraction == "transformer-string":
        return compile_transformer_analysis
    return compile_context_string_analysis


def solve_kernel(facts, config, tracer: Tracer) -> Relations:
    with tracer.span("compile.emit") as emit:
        compiled = _emitter(config)(
            facts, config.flavour, config.m, config.h
        )
    with tracer.span("compile.kernels") as kernels:
        engine = KernelEngine(compiled.program, compiled.builtins)
    with tracer.span("datalog.kernel") as solve:
        raw = engine.run()
    with tracer.span("compile.decode"):
        decoded = compiled.decoder(raw)
    if tracer.enabled:
        emit["rules"] = len(compiled.program.rules)
        kernels["variants"] = len(engine.kernels.variants)
        stats = engine.stats
        solve.update(
            rounds=stats.rounds,
            rule_evaluations=stats.rule_evaluations,
            facts_derived=stats.facts_derived,
            **store_totals(engine.store_stats()),
        )
    return {name: decoded.get(name, set()) for name in RELATIONS}


def solve_interpreted(facts, config) -> Relations:
    """The interpreted Datalog engine (an oracle for expected.json)."""
    compiled = _emitter(config)(facts, config.flavour, config.m, config.h)
    relations = compiled.run(backend="interpreted").relations
    return {name: relations.get(name, set()) for name in RELATIONS}


SOLVERS: Dict[str, Callable] = {
    "worklist": solve_worklist,
    "kernel": solve_kernel,
}

#: The path each one is cross-checked against.
REFERENCE = {"worklist": "kernel", "kernel": "worklist"}


class PassOutput:
    """One pass: wall seconds, relations per result (``None`` for an
    analysis that raised), and per (program name, config) the seconds a
    one-program ``repro analyze`` would take: the program's frontend
    plus that config's solve."""

    def __init__(self):
        self.seconds = 0.0
        self.results: Dict[str, Optional[Relations]] = {}
        self.latency: Dict[Tuple[str, Tuple[str, str]], float] = {}
        self.errors: List[str] = []


def run_pass(shape: Shape, sources: List[Source], tracer: Tracer,
             index: int) -> PassOutput:
    out = PassOutput()
    solve = SOLVERS[shape.path]
    start = time.perf_counter()
    with tracer.span("pass", **{"pass": index}):
        for source in sources:
            with tracer.span("program", program=source.key):
                began = time.perf_counter()
                try:
                    with tracer.span("frontend.parse"):
                        program = parse_program(source.text)
                    with tracer.span("frontend.factgen") as span:
                        facts = generate_facts(program)
                except Exception as error:  # counted; the pass goes on
                    out.errors.append("%s: %r" % (source.key, error))
                    for config in shape.configs:
                        out.results[result_key(source, config)] = None
                    continue
                frontend = time.perf_counter() - began
                if tracer.enabled:
                    span["facts"] = sum(facts.counts().values())
                for config in shape.configs:
                    key = result_key(source, config)
                    began = time.perf_counter()
                    try:
                        out.results[key] = solve(
                            facts, analysis_config(config), tracer
                        )
                    except Exception as error:  # counted; the pass goes on
                        out.errors.append("%s: %r" % (key, error))
                        out.results[key] = None
                        continue
                    out.latency[(source.name, config)] = (
                        frontend + time.perf_counter() - began
                    )
    out.seconds = time.perf_counter() - start
    return out


def _ci(relations: Relations) -> Tuple[frozenset, ...]:
    """Context-insensitive projections of pts, hpts, call and reach."""
    return (
        frozenset(row[:2] for row in relations["pts"]),
        frozenset(row[:3] for row in relations["hpts"]),
        frozenset(row[:2] for row in relations["call"]),
        frozenset(row[0] for row in relations["reach"]),
    )


def same_relations(left: Relations, right: Relations) -> bool:
    return all(
        frozenset(left[name]) == frozenset(right[name]) for name in RELATIONS
    )


def check_pass(shape: Shape, sources: List[Source], output: PassOutput,
               expected: Mapping[str, Mapping[str, str]], offset: int,
               pending: Dict[str, Dict]) -> List[str]:
    """The keys of the pass's wrong or failed results.  One unpinned
    result, picked in turn, is added to ``pending`` with its digest for
    a cross-check; :func:`verify` settles them."""
    failed = [key for key, rel in output.results.items() if rel is None]
    unpinned = []
    for source in sources:
        pinned_source = expected["sources"].get(source.key)
        if pinned_source is not None and pinned_source != sha256(source.text):
            failed.extend(
                result_key(source, config) for config in shape.configs
            )
            continue
        produced = {
            config: output.results[result_key(source, config)]
            for config in shape.configs
        }
        ts = produced.get(("2-object+H", "ts"))
        cs = produced.get(("2-object+H", "cs"))
        if ts is not None and cs is not None and _ci(ts) != _ci(cs):
            failed.append(result_key(source, ("2-object+H", "cs")))
        for config, rel in produced.items():
            if rel is None:
                continue
            key = result_key(source, config)
            pinned = expected["results"].get(key)
            if pinned is None:
                unpinned.append((source, config, rel))
            elif pinned != relations_digest(rel):
                failed.append(key)
    if unpinned and len(pending) < MAX_CROSS_CHECKS:
        source, config, rel = unpinned[offset % len(unpinned)]
        pending[result_key(source, config)] = {
            "program": source.name, "scale": shape.scale, "offset": offset,
            "config": list(config), "digest": relations_digest(rel),
        }
    return sorted(set(failed))


def reference(path: str) -> None:
    """The body of ``python -m benchmarks.e2e reference``: re-derive the
    results listed on stdin on ``path``; print their digests."""
    quiet = Tracer(False)
    digests = {}
    for item in json.load(sys.stdin):
        source = render(item["program"], item["scale"], item["offset"])
        config = tuple(item["config"])
        facts = generate_facts(parse_program(source.text))
        digests[result_key(source, config)] = relations_digest(
            SOLVERS[path](facts, analysis_config(config), quiet)
        )
    json.dump(digests, sys.stdout)


def verify(path: str, pending: Mapping[str, Dict]) -> List[str]:
    """The pending keys whose digests ``path``, run in a fresh process
    after the timed passes, does not reproduce."""
    if not pending:
        return []
    completed = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "reference",
         "--path", path],
        input=json.dumps([
            {k: v for k, v in item.items() if k != "digest"}
            for item in pending.values()
        ]),
        capture_output=True, text=True, timeout=150, check=True,
    )
    digests = json.loads(completed.stdout)
    return [
        key for key, item in pending.items()
        if digests.get(key) != item["digest"]
    ]


#: Where the child leaves the first program for its cold-start probes.
FIRST_SOURCE = "first.java"


def probe(workload: str) -> None:
    """The body of ``python -m benchmarks.e2e probe`` in a fresh
    interpreter that has just imported every layer: report that, then
    analyze the workload's first program under its first configuration
    and report that too."""
    print("ready", flush=True)
    shape = WORKLOADS[workload]
    with open(FIRST_SOURCE, encoding="utf-8") as handle:
        facts = generate_facts(parse_program(handle.read()))
    config = analysis_config(shape.configs[0])
    SOLVERS[shape.path](facts, config, Tracer(False))
    print("done", flush=True)


def cold_starts(workload: str, source: Source
                ) -> Tuple[List[float], List[float]]:
    """Per fresh interpreter: seconds from spawn until every layer is
    imported, and from spawn until the first program is analyzed."""
    with open(FIRST_SOURCE, "w", encoding="utf-8") as handle:
        handle.write(source.text)
    setups: List[float] = []
    firsts: List[float] = []
    while more_cold_starts(firsts):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-m", "benchmarks.e2e", "probe",
             "--workload", workload],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
        ) as child:
            for mark, out in ((b"ready", setups), (b"done", firsts)):
                if child.stdout.readline().strip() != mark:
                    child.kill()
                    raise RuntimeError("cold-start probe failed")
                out.append(time.perf_counter() - start)
            child.wait(timeout=60)
    return setups, firsts


def run(workload: str, shape: Shape, seed: int, seconds: float,
        tracer: Tracer, expected: Mapping[str, Mapping[str, str]]) -> Dict:
    """Cold starts; an untimed warm-up pass over the first program, which
    loads whatever the layers load lazily; then timed passes until
    ``seconds`` are spent.  Returns the child's result (values only,
    units come from BENCHMARK.json)."""
    setups, firsts = cold_starts(
        workload, render(shape.programs[0], shape.scale, seed)
    )
    passes: List[float] = []
    peaks: List[float] = []
    latency: Dict[Tuple[str, Tuple[str, str]], List[float]] = {}
    failed: List[str] = []
    pending: Dict[str, Dict] = {}
    errors: List[str] = []
    attempted = 0
    index = 0
    while index < 2 or sum(passes) + passes[-1] / 2 < seconds:
        sources = [
            render(name, shape.scale, seed + index)
            for name in (shape.programs if index else shape.programs[:1])
        ]
        gc.collect()
        reset_peak_rss()
        output = run_pass(shape, sources, tracer, index)
        if index:
            peaks.append(peak_rss_mb())
            passes.append(output.seconds)
            for key, seconds_taken in output.latency.items():
                latency.setdefault(key, []).append(seconds_taken)
        attempted += len(output.results)
        errors.extend(output.errors)
        failed.extend(check_pass(
            shape, sources, output, expected, seed + index, pending
        ))
        # Drop this pass's relations before the next pass starts, so
        # every pass runs with the same live heap.
        del output
        index += 1
    failed.extend(verify(REFERENCE[shape.path], pending))
    per_pass = len(shape.programs) * len(shape.configs)
    best = [min(values) for values in latency.values()]
    result = {
        "attempted": attempted,
        "failed": len(failed),
        "notes": errors + ["wrong: " + key for key in failed],
        "passes": len(passes),
    }
    if tracer.enabled:
        result["metrics"] = layer_metrics(tracer, list(range(1, index)))
        result["shares"] = tracer.layer_shares(
            dict(zip(range(1, index), passes))
        )
    else:
        result["metrics"] = {
            "setup_s": statistics.median(setups),
            "first_ms": min(firsts) * 1000.0,
            "p50_ms": percentile(best, 0.5) * 1000.0,
            "tail_ms": percentile(best, TAIL) * 1000.0,
            "throughput_per_s": per_pass / min(passes),
            "peak_rss_mb": max(peaks),
        }
    return result


def layer_metrics(tracer: Tracer, timed: List[int]) -> Dict[str, float]:
    """Per-layer metrics: for each, the median over the timed passes of
    that pass's summed self times or counters."""
    by_pass = tracer.totals_by_pass()

    def med(*names: str) -> float:
        return statistics.median(
            sum(by_pass.get(i, {}).get(name, 0.0) for name in names)
            for i in timed
        )

    def solver(counter: str) -> float:
        return med("core.solver.ts." + counter, "core.solver.cs." + counter)

    derived = solver("facts_derived")
    deduplicated = solver("facts_deduplicated")
    evaluations = med("datalog.kernel.rule_evaluations")
    kernel_derived = med("datalog.kernel.facts_derived")
    metrics = {
        "frontend.parse_s": med("frontend.parse"),
        "frontend.factgen_s": med("frontend.factgen"),
        "frontend.facts": med("frontend.factgen.facts"),
        "core.solver.ts_s": med("core.solver.ts"),
        "core.solver.cs_s": med("core.solver.cs"),
        "core.solver.rule_firings": solver("rule_firings"),
        "core.solver.facts_derived": derived,
        "core.solver.dedup_ratio": (
            deduplicated / (derived + deduplicated)
            if derived + deduplicated else 0.0
        ),
        "compile.emit_s": med("compile.emit"),
        "compile.emit.rules": med("compile.emit.rules"),
        "compile.decode_s": med("compile.decode"),
        "compile.kernels_s": med("compile.kernels"),
        "compile.kernels.variants": med("compile.kernels.variants"),
        "datalog.kernel.solve_s": med("datalog.kernel"),
        "datalog.kernel.rounds": med("datalog.kernel.rounds"),
        "datalog.kernel.rule_evaluations": evaluations,
        "datalog.kernel.facts_derived": kernel_derived,
        "datalog.kernel.derived_per_eval": (
            kernel_derived / evaluations if evaluations else 0.0
        ),
        "trace.overhead_pct": tracer.overhead_pct(),
    }
    for counter in _STORE_COUNTERS:
        metrics["store." + counter] = solver("store_" + counter) + med(
            "datalog.kernel.store_" + counter
        )
    return metrics


def pin(path: str) -> int:
    """Rebuild expected.json; refuses when the backends disagree."""
    quiet = Tracer(False)
    sources: Dict[str, str] = {}
    results: Dict[str, str] = {}
    for name, full in WORKLOADS.items():
        for kind, shape in (("full", full), ("quick", full.quick())):
            for offset in range(PINNED_OFFSETS[kind]):
                for program in shape.programs:
                    source = render(program, shape.scale, offset)
                    sources[source.key] = sha256(source.text)
                    if shape.path == "serve":
                        continue
                    facts = generate_facts(parse_program(source.text))
                    for config in shape.configs:
                        key = result_key(source, config)
                        if key in results:
                            continue
                        analysis = analysis_config(config)
                        worklist = solve_worklist(facts, analysis, quiet)
                        others = [solve_kernel(facts, analysis, quiet)]
                        if name == "analyze-kernel-cold":
                            others.append(solve_interpreted(facts, analysis))
                        if not all(
                            same_relations(worklist, other)
                            for other in others
                        ):
                            print("pin: backends disagree on %s;"
                                  " %s not written" % (key, path))
                            return 1
                        results[key] = relations_digest(worklist)
                        print("pin: %s" % key, flush=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"sources": sources, "results": results}, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")
    return 0
