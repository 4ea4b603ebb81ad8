"""Command-line interface: ``python -m repro <command> …``.

Subcommands:

``analyze``
    Run a pointer analysis over Java-subset source or a Doop-style
    facts directory and print points-to sets, the call graph, and
    statistics.

``facts``
    Generate a Doop-style ``.facts`` directory from source.

``emit``
    Instantiate the deduction rules for a configuration and write the
    resulting plain-Datalog program (the Section 7 front-end).

``lint``
    Statically verify a ``.dl`` Datalog program, a source program's IR,
    or the emitted configuration(s) for a source program.  Exits
    non-zero on any error-severity diagnostic (any diagnostic at all
    with ``--strict-warnings``).  ``--cost`` additionally runs the
    cost & cardinality analysis (DL5xx) and prints the join-order plan;
    ``--json`` writes one byte-stable ``repro-lint/1`` document.

``figure6``
    Regenerate the paper's Figure 6 table on the synthetic DaCapo
    analogues.

``serve``
    Long-lived query server: load a snapshot (or solve once) and answer
    JSON-lines requests on stdio or a TCP socket (``repro-serve/1``).

``check``
    Run the client-checker suite (downcasts, devirtualization, races,
    leaks, dead code) over a program or snapshot; emit ``repro-check/1``
    JSON and gate the exit code on ``--fail-on`` severity.  ``--audit``
    sweeps the configuration matrix instead and tabulates finding
    counts (the client-level companion to ``figure6``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, NoReturn, Optional

from repro.core.analysis import analyze
from repro.core.config import config_by_name

_CONFIG_CHOICES = (
    "insensitive", "1-call", "1-call+H", "2-call", "2-call+H",
    "1-object", "2-object+H", "1-type", "2-type+H",
    "1-plain-object", "2-plain-object+H", "1-hybrid", "2-hybrid+H",
    "3-call", "3-call+2H", "3-object+2H",
)

_ABSTRACTIONS = {
    "ts": "transformer-string",
    "cs": "context-string",
    "transformer-string": "transformer-string",
    "context-string": "context-string",
}


def _input_error(command: str, message: str) -> NoReturn:
    """End the run over bad input: one ``repro COMMAND: MESSAGE`` line
    on stderr and exit status 1, not a traceback."""
    print(f"repro {command}: {message}", file=sys.stderr)
    raise SystemExit(1)


def _read_input(path: str, command: str) -> str:
    """The text of ``path``; an unreadable file ends the run with
    ``repro COMMAND: cannot read PATH: REASON``."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as error:
        reason = getattr(error, "strerror", None) or error
        _input_error(command, f"cannot read {path}: {reason}")


def _write_output(path: str, command: str, content) -> None:
    """Write ``content`` to ``path``: text, or a callable that writes
    whatever belongs at the path it is given.  An unwritable path ends
    the run with ``repro COMMAND: cannot write PATH: REASON``."""
    try:
        if callable(content):
            content(path)
        else:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(content)
    except OSError as error:
        _input_error(
            command, f"cannot write {path}: {error.strerror or error}"
        )


def _read_source_facts(path: str, command: str):
    """The facts of the Java source at ``path``.  A file that does not
    parse, whose classes are malformed (a duplicate, an undeclared
    superclass, a cycle), or that has no ``static main(String[])``,
    ends the run with ``repro COMMAND: PATH: REASON`` (the parser's
    line:col kept)."""
    from repro.frontend.factgen import FactGenError, facts_from_source
    from repro.frontend.ir import ProgramError
    from repro.frontend.lexer import LexError
    from repro.frontend.parser import ParseError

    source = _read_input(path, command)
    try:
        return facts_from_source(source)
    except (LexError, ParseError, ProgramError, FactGenError) as error:
        _input_error(command, f"{path}: {error}")


def _read_facts_dir(directory: str, command: str):
    """The fact set in ``directory``.  A missing or malformed directory
    ends the run with ``repro COMMAND: cannot read DIR: REASON``, one
    without a main method with ``repro COMMAND: DIR: fact set has no
    main method``."""
    import errno
    import os

    from repro.frontend.doopfacts import DoopFactsError, read_facts

    if not os.path.isdir(directory):
        missing = errno.ENOTDIR if os.path.exists(directory) else errno.ENOENT
        _input_error(
            command, f"cannot read {directory}: {os.strerror(missing)}"
        )
    try:
        facts = read_facts(directory)
    except (OSError, UnicodeDecodeError, DoopFactsError) as error:
        reason = getattr(error, "strerror", None) or error
        _input_error(command, f"cannot read {directory}: {reason}")
    if facts.main_method is None:
        _input_error(command, f"{directory}: fact set has no main method")
    return facts


def _load_facts(args):
    if args.facts_dir:
        return _read_facts_dir(args.facts_dir, args.command)
    if not args.source:
        raise SystemExit("error: provide a source file or --facts-dir")
    return _read_source_facts(args.source, args.command)


def _analysis_config(args):
    return config_by_name(
        args.config,
        _ABSTRACTIONS[args.abstraction],
        eliminate_subsumed=args.eliminate_subsumed,
    )


def cmd_analyze(args) -> int:
    if args.diff:
        return _analyze_diff(args)
    if args.magic:
        return _analyze_magic(args)
    if args.backend and args.backend != "worklist":
        return _analyze_backend(args)
    facts = _load_facts(args)
    result = analyze(facts, _analysis_config(args))
    if args.var:
        for var in args.var:
            targets = ", ".join(sorted(result.points_to(var))) or "∅"
            print(f"{var} -> {{{targets}}}")
    else:
        by_var = {}
        for (var, heap) in sorted(result.pts_ci()):
            by_var.setdefault(var, []).append(heap)
        for var, heaps in sorted(by_var.items()):
            print(f"{var} -> {{{', '.join(sorted(heaps))}}}")
    if args.call_graph:
        print("\ncall graph:")
        for (inv, method) in sorted(result.call_graph()):
            print(f"  {inv} -> {method}")
    if args.stats:
        sizes = result.relation_sizes()
        print(
            f"\n|pts|={sizes['pts']} |hpts|={sizes['hpts']}"
            f" |call|={sizes['call']} total={result.total_facts()}"
            f" time={result.seconds * 1000:.1f}ms"
            f" config={result.config.describe()}"
        )
        print(_store_stats_table(result.store_stats()))
    if args.dot:
        from repro.core.graphviz import call_graph_dot

        _write_output(args.dot, args.command, call_graph_dot(result))
        print(f"wrote call-graph DOT to {args.dot}")
    if args.save_snapshot:
        from repro.service.snapshot import (
            DERIVED_RELATIONS,
            snapshot_from_relations,
            write_snapshot,
        )

        relations = {
            name: getattr(result._solver, name)
            for name, _arity in DERIVED_RELATIONS
        }
        snapshot = snapshot_from_relations(result.config, facts, relations)
        _write_output(
            args.save_snapshot, args.command,
            lambda path: write_snapshot(snapshot, path),
        )
        counts = snapshot.relation_counts()
        print(
            f"wrote snapshot to {args.save_snapshot}"
            f" ({sum(counts.values())} derived facts,"
            f" config {result.config.describe()})"
        )
    return 0


def _analyze_diff(args) -> int:
    """``analyze --diff OLD NEW``: the fact delta between two programs,
    applied incrementally and priced against a from-scratch solve."""
    import time

    from repro.core.analysis import PointerAnalysis
    from repro.incremental import IncrementalSolver, copy_facts, diff_facts

    old_path, new_path = args.diff
    old = _read_source_facts(old_path, args.command)
    new = _read_source_facts(new_path, args.command)
    config = _analysis_config(args)
    delta = diff_facts(old, new)
    print(f"fact delta ({old_path} -> {new_path}):")
    for line in delta.describe().splitlines():
        print(f"  {line}")
    if delta.is_empty():
        return 0

    solver = IncrementalSolver(copy_facts(old), config)
    outcome = solver.apply_delta(delta)
    start = time.perf_counter()
    scratch_result = PointerAnalysis(copy_facts(new), config).run()
    scratch_seconds = time.perf_counter() - start
    changed = ", ".join(
        f"{kind} +{len(outcome.added.get(kind, ()))}"
        f"/-{len(outcome.removed.get(kind, ()))}"
        for kind in outcome.changed_relations()
    ) or "nothing"
    print(f"\nderived changes: {changed}")
    print(
        f"engine: {outcome.rederived} rederived, {outcome.deleted} deleted,"
        f" {outcome.reused} reused"
        + (f" (fallback: {outcome.reason})" if outcome.fallback else "")
    )
    speedup = (
        scratch_seconds / outcome.seconds if outcome.seconds > 0 else 0.0
    )
    print(
        f"incremental {outcome.seconds * 1000:.2f}ms vs scratch"
        f" {scratch_seconds * 1000:.2f}ms ({speedup:.1f}x)"
    )
    scratch_solver = scratch_result._solver
    identical = all(
        rows == set(getattr(scratch_solver, kind))
        for kind, rows in solver.relation_rows().items()
    )
    print(f"parity with scratch solve: {'ok' if identical else 'MISMATCH'}")
    return 0 if identical else 1


def _parse_magic_query(spec: str):
    """Parse ``--magic``'s ``PRED(arg, _, ...)`` query syntax.

    ``_`` (or an empty slot) is a free argument; anything else is a
    bound constant — quotes are optional, since pointer-analysis
    entity names (``T.main/x``) never contain commas or parens.
    """
    spec = spec.strip()
    if "(" not in spec or not spec.endswith(")"):
        raise SystemExit(
            "error: --magic wants PRED(arg, ...) with '_' for free"
            " arguments"
        )
    pred, _, rest = spec.partition("(")
    inner = rest[:-1].strip()
    parsed = []
    if inner:
        for token in inner.split(","):
            token = token.strip()
            if token in ("", "_", "?"):
                parsed.append(None)
            else:
                parsed.append(token.strip("'\""))
    return pred.strip(), tuple(parsed)


def _analyze_magic(args) -> int:
    """``analyze --magic PRED(args)``: demand-driven evaluation.

    Emits the configuration's Datalog, runs the magic-sets
    transformation for the query, evaluates the transformed program
    under strict lint, and verifies the answers exactly match the full
    solve's rows filtered by the query's bound constants.  The DL5xx
    cost pass runs over the *transformed* program — the magic seed is
    a body-less constant-head rule, so the demand predicates get
    seed-derived cardinality bounds.  Exits 1 on a parity mismatch.
    """
    from repro.compile.emit import (
        compile_context_string_analysis,
        compile_transformer_analysis,
    )
    from repro.datalog.builtins import DEFAULT_BUILTINS
    from repro.datalog.cost import analyze_cost
    from repro.datalog.engine import Engine
    from repro.datalog.magic import MagicSetError, magic_transform
    from repro.lint.diagnostics import LintError

    pred, query_args = _parse_magic_query(args.magic)
    facts = _load_facts(args)
    config = _analysis_config(args)
    compiler = (
        compile_transformer_analysis
        if _ABSTRACTIONS[args.abstraction] == "transformer-string"
        else compile_context_string_analysis
    )
    compiled = compiler(facts, config.flavour, config.m, config.h)
    program, builtins = compiled.program, compiled.builtins

    arities = {
        rule.head.arity for rule in program.rules if rule.head.pred == pred
    }
    if arities and len(query_args) not in arities:
        print(
            f"repro analyze: --magic: {pred!r} has arity"
            f" {sorted(arities)[0]}, query supplies {len(query_args)}"
            " arguments",
            file=sys.stderr,
        )
        return 2

    full_engine = Engine(program, builtins)
    full = full_engine.run()
    builtin_names = set(DEFAULT_BUILTINS) | set(builtins or ())
    try:
        transformed, answer_pred = magic_transform(
            program, pred, query_args, builtin_names
        )
    except MagicSetError as error:
        print(f"repro analyze: --magic: {error}", file=sys.stderr)
        return 2

    try:
        engine = Engine(transformed, builtins, strict=True)
    except LintError as error:
        print(f"repro analyze: --magic: {error}", file=sys.stderr)
        return 1
    results = engine.run()
    answers = results.get(answer_pred, set())
    expected = {
        row for row in full.get(pred, set())
        if all(
            constant is None or row[position] == constant
            for position, constant in enumerate(query_args)
        )
    }

    shown = ", ".join(
        "_" if constant is None else constant for constant in query_args
    )
    print(f"query {pred}({shown}): {len(answers)} answer(s)")
    for row in sorted(answers):
        print(f"  {pred}({', '.join(repr(value) for value in row)})")
    print(
        f"\nmagic program: {len(transformed.rules)} rules"
        f" (from {len(program.rules)}),"
        f" {engine.stats.facts_derived} facts derived vs"
        f" {full_engine.stats.facts_derived} exhaustive"
    )

    plan = analyze_cost(transformed, builtins=builtins)
    by_code: dict = {}
    for diagnostic in plan.diagnostics:
        by_code[diagnostic.code] = by_code.get(diagnostic.code, 0) + 1
    codes = ", ".join(
        f"{code}×{count}" for code, count in sorted(by_code.items())
    ) or "clean"
    print(
        f"cost pass (DL5xx) over the magic program:"
        f" {plan.reordered_count()}/{len(plan.rules)} rules reordered,"
        f" diagnostics: {codes}"
    )

    parity = answers == expected
    print(f"parity with full solve: {'ok' if parity else 'MISMATCH'}")
    return 0 if parity else 1


#: ``--backend`` names → :meth:`CompiledAnalysis.run` backend names.
_BACKENDS = {
    "engine": "interpreted",
    "kernel": "kernel",
}


def _analyze_backend(args) -> int:
    """``analyze --backend engine|kernel``: one Datalog backend,
    cross-checked against the worklist solver.

    Compiles the configuration to plain Datalog, evaluates it on the
    selected backend (the semi-naive interpreter or the fused columnar
    kernels), verifies every
    derived relation fact-for-fact against the worklist solver, and
    prints points-to sets plus engine statistics.  Exits 1 on any
    mismatch.
    """
    from repro.compile.emit import (
        compile_context_string_analysis,
        compile_transformer_analysis,
    )

    facts = _load_facts(args)
    config = _analysis_config(args)
    compiler = (
        compile_transformer_analysis
        if _ABSTRACTIONS[args.abstraction] == "transformer-string"
        else compile_context_string_analysis
    )
    compiled = compiler(facts, config.flavour, config.m, config.h)
    result = compiled.run(backend=_BACKENDS[args.backend])
    solver = analyze(facts, config)

    by_var = {}
    for row in result.relations.get("pts", ()):
        by_var.setdefault(row[0], set()).add(row[1])
    if args.var:
        for var in args.var:
            targets = ", ".join(sorted(by_var.get(var, ()))) or "∅"
            print(f"{var} -> {{{targets}}}")
    else:
        for var, heaps in sorted(by_var.items()):
            print(f"{var} -> {{{', '.join(sorted(heaps))}}}")
    if args.call_graph:
        print("\ncall graph:")
        for (inv, method) in sorted(result.call_graph()):
            print(f"  {inv} -> {method}")

    stats = result.engine.stats
    print(
        f"\n{args.backend} backend: {stats.seconds * 1000:.1f}ms,"
        f" rounds={stats.rounds},"
        f" rule_evaluations={stats.rule_evaluations},"
        f" facts_derived={stats.facts_derived}"
        f" ({compiled.description})"
    )
    if args.stats:
        engine = result.engine
        if args.backend == "kernel":
            live = len(engine.program.rules)
            print(
                "kernels: "
                + ("cache hit" if engine.compile_cached else "compiled")
                + f", {live} of {live + len(engine.dead_rules)} emitted"
                " rules live"
            )
        # The columnar store's kernels probe their bucket dicts inline
        # and count no probes.
        print(_store_stats_table(
            engine.store_stats(), probes=args.backend != "kernel"
        ))

    mismatches = [
        name
        for name in ("pts", "hpts", "call", "reach", "spts", "texc")
        if getattr(result, name) != getattr(solver, name)
    ]
    if mismatches:
        print(
            f"parity with worklist solver: MISMATCH in"
            f" {', '.join(mismatches)}"
        )
        return 1
    print("parity with worklist solver: ok")
    return 0


def _store_stats_table(stats, probes: bool = True) -> str:
    """Per-relation store counters as an aligned text table; ``-`` in
    the probes column of a store that does not count probes."""
    header = (
        f"\n{'relation':10s}{'rows':>8s}{'inserts':>9s}{'dedup':>8s}"
        f"{'probes':>9s}{'indexes':>9s}{'entries':>9s}"
    )
    lines = [header]
    for name, row in sorted(stats.items()):
        probed = str(row["probes"]) if probes else "-"
        lines.append(
            f"{name:10s}{row['rows']:>8d}{row['inserts']:>9d}"
            f"{row['dedup_hits']:>8d}{probed:>9s}"
            f"{row['indexes']:>9d}{row['index_entries']:>9d}"
        )
    return "\n".join(lines)


def cmd_facts(args) -> int:
    from repro.frontend.doopfacts import write_facts

    facts = _read_source_facts(args.source, args.command)
    _write_output(args.out, args.command,
                  lambda path: write_facts(facts, path))
    print(f"wrote {sum(facts.counts().values())} facts to {args.out}")
    return 0


def cmd_emit(args) -> int:
    from repro.compile.emit import compile_transformer_analysis
    from repro.core.config import config_by_name as by_name
    from repro.datalog.parser import format_program

    facts = _load_facts(args)
    config = by_name(args.config)
    compiled = compile_transformer_analysis(
        facts, config.flavour, config.m, config.h
    )
    text = format_program(compiled.program)
    if args.out:
        _write_output(args.out, args.command, text)
        print(
            f"wrote {len(compiled.program.rules)} Datalog rules to {args.out}"
        )
    else:
        print(text)
    return 0


def cmd_query(args) -> int:
    from repro.service import AnalysisService, SnapshotError

    if args.snapshot:
        try:
            service = AnalysisService.from_snapshot(args.snapshot)
        except SnapshotError as error:
            print(f"repro query: {error}", file=sys.stderr)
            return 1
        if not args.json:
            print(
                f"snapshot: {args.snapshot}"
                f" (config {service.config.describe()},"
                f" generation {service.generation})"
            )
        if args.source or args.facts_dir:
            _warn_stale_snapshot(args, service)
    else:
        # Demand-only mode: nothing is solved beyond the queried slice,
        # and repeated --var arguments share one demand instance.
        facts = _load_facts(args)
        service = AnalysisService.from_facts(
            facts, _analysis_config(args), solve=False
        )
    if args.json:
        return _query_json(args, service)
    for var in args.var:
        targets = ", ".join(sorted(service.points_to(var))) or "∅"
        print(f"{var} -> {{{targets}}}")
    stats = service.stats()
    if args.snapshot:
        latency = stats["latency_us"].get("points_to", {})
        print(
            f"\nsnapshot served: {stats['paths']['warm']} warm,"
            f" {stats['paths']['cold']} demand,"
            f" {stats['cache']['hits']} cached"
            f" (p50 {latency.get('p50_us', 0)}µs)"
        )
    else:
        demand = stats.get("demand", {})
        sliced = demand.get("sliced_facts", 0)
        total = demand.get("total_facts", 0)
        print(
            f"\ndemand slice: {sliced}/{total} input facts"
            f" ({sliced / total * 100 if total else 0:.0f}%)"
        )
    return 0


def _query_json(args, service) -> int:
    """``query --json``: one structured document on stdout (schema
    ``repro-query/1``) — per-query kind, answer, latency, cache state
    and serving path, plus the service config and snapshot generation —
    so scripts stop scraping the human format."""
    import json

    queries = []
    for var in args.var:
        outcome = service.query("points_to", var=var)
        queries.append({
            "kind": outcome.kind,
            "var": var,
            "answer": sorted(outcome.value),
            "micros": int(outcome.seconds * 1e6),
            "cached": outcome.cached,
            "path": outcome.path,
        })
    document = {
        "schema": "repro-query/1",
        "config": service.config.describe(),
        "snapshot": args.snapshot,
        "generation": service.generation,
        "queries": queries,
    }
    print(json.dumps(document, indent=2))
    return 0


def _warn_stale_snapshot(args, service) -> None:
    """``query --snapshot`` with a program too: refuse to answer
    silently when the snapshot's facts differ from the program's."""
    from repro.incremental import diff_facts

    supplied = _load_facts(args)
    delta = diff_facts(service.facts, supplied)
    if delta.is_empty():
        return
    print(
        f"warning: snapshot (generation {service.generation}) is stale"
        f" against the supplied program —"
        f" {delta.total_added} fact(s) missing,"
        f" {delta.total_removed} extra; answers below reflect the"
        " snapshot, not the program (re-solve or `serve` + `update`"
        " to refresh)",
        file=sys.stderr,
    )


def cmd_check(args) -> int:
    from repro.checkers import CheckConfig, CheckError, Severity
    from repro.service import AnalysisService, SnapshotError

    check_config = CheckConfig(
        thread_roots=tuple(args.thread_root or ()),
        taint_sources=tuple(args.taint_source or ()),
    )
    checks = None
    if args.checks:
        checks = [
            token for part in args.checks
            for token in part.split(",") if token.strip()
        ]
    if args.audit:
        return _check_audit(args, checks, check_config)
    try:
        if args.snapshot:
            service = AnalysisService.from_snapshot(args.snapshot)
        else:
            service = AnalysisService.from_facts(
                _load_facts(args), _analysis_config(args)
            )
        report = service.check(checks=checks, check_config=check_config)
    except (SnapshotError, CheckError) as error:
        print(f"repro check: {error}", file=sys.stderr)
        return 2
    print(report.render())
    if args.explain:
        _check_explain(service, checks, check_config)
    if args.json:
        _write_json(
            args.json, report.to_json(), "check report", args.command
        )
    fail_on = (
        None if args.fail_on == "never" else Severity.parse(args.fail_on)
    )
    if report.failed(fail_on):
        print(
            f"repro check: failing (findings at or above"
            f" {fail_on.label}; see report)",
            file=sys.stderr,
        )
        return 1
    return 0


def _write_json(path: str, document, label: str, command: str) -> None:
    import json

    text = json.dumps(document, indent=2) + "\n"
    if path == "-":
        print(text, end="")
    else:
        _write_output(path, command, text)
        print(f"wrote {label} to {path}")


def _check_explain(service, checks, check_config) -> None:
    """``check --explain``: derivation trees for every witness fact.

    Provenance is recorded by the solver, not stored in snapshots, so
    this re-solves the service's facts once with
    ``track_provenance=True``.
    """
    from dataclasses import replace

    from repro.checkers import run_checks

    config = replace(service.config, track_provenance=True)
    result = analyze(service.facts, config)
    traced = run_checks(
        result, service.facts, checks=checks, config=check_config
    )
    print()
    for finding in traced.findings:
        print(finding.explain(result))


def _check_audit(args, checks, check_config) -> int:
    """``check --audit``: the flavour × (m,h) × abstraction sweep.

    Exits non-zero when a checker's findings fail the precision-
    monotonicity test against the insensitive baseline, or when the two
    abstractions disagree at equal (m, h).
    """
    from repro.bench.checkbench import format_audit, run_precision_audit

    facts = _load_facts(args)
    audit = run_precision_audit(
        facts, checks=checks, check_config=check_config
    )
    subject = args.source or args.facts_dir or "program"
    print(format_audit(audit, title=f"Precision audit ({subject})"))
    if args.json:
        _write_json(args.json, audit, "audit JSON", args.command)
    healthy = (
        all(audit["monotone"].values()) and audit["abstractions_agree"]
    )
    return 0 if healthy else 1


def cmd_serve(args) -> int:
    from repro.service import AnalysisService, SnapshotError
    from repro.service.server import PROTOCOL, serve_stdio, serve_tcp

    if args.async_:
        return _serve_async(args)
    try:
        if args.snapshot:
            if len(args.snapshot) > 1:
                print(
                    "repro serve: multiple --snapshot tenants need"
                    " --async",
                    file=sys.stderr,
                )
                return 2
            service = AnalysisService.from_snapshot(
                args.snapshot[0], cache_size=args.cache_size
            )
        else:
            facts = _load_facts(args)
            service = AnalysisService.from_facts(
                facts, _analysis_config(args), solve=not args.demand,
                cache_size=args.cache_size, backend=args.backend,
            )
    except SnapshotError as error:
        print(f"repro serve: {error}", file=sys.stderr)
        return 1
    covered, total = service.coverage()
    # All chatter on stderr: stdout belongs to the wire protocol.
    print(
        f"repro serve: ready ({PROTOCOL}, config"
        f" {service.config.describe()}, {covered}/{total} variables warm)",
        file=sys.stderr,
    )
    if args.tcp:
        host, _, port = args.tcp.rpartition(":")
        try:
            serve_tcp(service, host or "127.0.0.1", int(port))
        except KeyboardInterrupt:  # pragma: no cover - interactive
            pass
        return 0
    serve_stdio(service)
    return 0


def _serve_async(args) -> int:
    """``repro serve --async``: the repro-serve/2 gateway."""
    import asyncio
    import signal

    from repro.serve import (
        AsyncGateway, GatewayConfig, PROTOCOL_V2, SnapshotRegistry,
    )
    from repro.service import AnalysisService, SnapshotError

    if not args.tcp:
        print(
            "repro serve: --async requires --tcp HOST:PORT",
            file=sys.stderr,
        )
        return 2
    registry = SnapshotRegistry(byte_budget=args.byte_budget)
    try:
        for entry in args.snapshot or ():
            alias, separator, path = entry.partition("=")
            if not separator:
                alias, path = None, entry
            digest = registry.register(path, alias=alias)
            print(
                f"repro serve: tenant {digest[:12]} <- {path}"
                + (f" (alias {alias})" if alias else ""),
                file=sys.stderr,
            )
        if args.source or args.facts_dir:
            facts = _load_facts(args)
            service = AnalysisService.from_facts(
                facts, _analysis_config(args),
                cache_size=args.cache_size, backend=args.backend,
            )
            digest = registry.add_service(service, alias="program")
            print(
                f"repro serve: tenant {digest[:12]} <- solved program"
                " (alias program)",
                file=sys.stderr,
            )
    except (SnapshotError, OSError, ValueError) as error:
        print(f"repro serve: {error}", file=sys.stderr)
        return 1
    if not registry.tenants():
        print(
            "repro serve: --async needs at least one --snapshot or a"
            " program to solve",
            file=sys.stderr,
        )
        return 2
    gateway_config = GatewayConfig(
        max_batch=args.batch_max,
        max_delay_ms=args.batch_delay_ms,
        queue_limit=args.queue_limit,
        op_timeout_s=args.op_timeout,
        workers=args.workers,
    )
    host, _, port = args.tcp.rpartition(":")

    async def _main() -> None:
        loop = asyncio.get_running_loop()
        gateway = AsyncGateway(registry, gateway_config)
        try:
            loop.add_signal_handler(signal.SIGTERM, gateway.start_drain)
        except NotImplementedError:  # pragma: no cover - non-POSIX
            pass
        ready = loop.create_future()
        task = loop.create_task(
            gateway.serve(host or "127.0.0.1", int(port), ready=ready)
        )
        bound_host, bound_port = await ready
        print(
            f"repro serve: gateway listening on"
            f" {bound_host}:{bound_port} ({PROTOCOL_V2},"
            f" {len(registry.tenants())} tenant(s), batch"
            f" {gateway_config.max_batch}@{gateway_config.max_delay_ms}ms,"
            f" queue {gateway_config.queue_limit})",
            file=sys.stderr,
        )
        await task
        print("repro serve: gateway drained", file=sys.stderr)

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    return 0


_LINT_MAX_LINES = 50

#: Schema identifier of the ``lint --json`` document.  One entry per
#: linted subject; diagnostics are sorted by (line, column, code,
#: message) so the serialized bytes are stable across runs.
LINT_JSON_SCHEMA = "repro-lint/1"


def _lint_print(report, args, cost_plan=None) -> bool:
    """Print a report; returns True when it should fail the run."""
    from repro.lint.diagnostics import Severity

    min_severity = Severity.NOTE if args.verbose else Severity.WARNING
    rendered = report.render(min_severity)
    if rendered:
        lines = rendered.splitlines()
        shown = lines if args.verbose else lines[:_LINT_MAX_LINES]
        print("\n".join(shown))
        if len(shown) < len(lines):
            print(f"... and {len(lines) - len(shown)} more (use --verbose)")
    if cost_plan is not None:
        cost_lines = cost_plan.render().splitlines()
        shown = cost_lines if args.verbose else cost_lines[:_LINT_MAX_LINES]
        print("\n".join(shown))
        if len(shown) < len(cost_lines):
            print(
                f"... cost plan truncated"
                f" ({len(cost_lines) - len(shown)} more lines;"
                " use --verbose)"
            )
    print(report.summary())
    if args.strict_warnings:
        return bool(report.errors or report.warnings)
    return not report.ok


def _lint_json_entry(report, cost_plan=None):
    """One ``subjects[]`` entry of the ``repro-lint/1`` document."""
    def sort_key(diagnostic):
        pos = diagnostic.pos
        return (
            pos.line if pos else 0,
            pos.column if pos else 0,
            diagnostic.code,
            diagnostic.message,
        )

    errors, warnings = len(report.errors), len(report.warnings)
    entry = {
        "subject": report.subject,
        "ok": report.ok,
        "errors": errors,
        "warnings": warnings,
        "notes": len(report.diagnostics) - errors - warnings,
        "diagnostics": [
            {
                "code": d.code,
                "severity": str(d.severity),
                "line": d.pos.line if d.pos else None,
                "column": d.pos.column if d.pos else None,
                "rule": d.rule_index,
                "where": d.where,
                "message": d.message,
            }
            for d in sorted(report.diagnostics, key=sort_key)
        ],
    }
    if cost_plan is not None:
        entry["cost_plan"] = cost_plan.to_json()
    return entry


def _lint_report(report, args, entries, cost_plan=None) -> bool:
    """Route one report to text output and/or the JSON collector."""
    entries.append(_lint_json_entry(report, cost_plan))
    return _lint_print(report, args, cost_plan)


def _lint_cost(program, builtins, report):
    """``--cost``: merge DL5xx findings into ``report`` and return the
    cost plan (or ``None`` when the program is unstratifiable)."""
    from repro.lint.cost import cost_plan_or_none

    plan, diagnostics = cost_plan_or_none(program, builtins)
    report.extend(diagnostics)
    return plan


def _lint_compiled(facts, name: str, abstraction: str):
    from repro.compile.emit import (
        compile_context_string_analysis,
        compile_transformer_analysis,
        compile_transformer_analysis_naive,
    )
    from repro.core.config import config_by_name as by_name
    from repro.datalog.lint import LintError, lint_program

    compilers = {
        "transformer-string": compile_transformer_analysis,
        "context-string": compile_context_string_analysis,
        "naive": compile_transformer_analysis_naive,
    }
    config = by_name(name)
    try:
        compiled = compilers[abstraction](
            facts, config.flavour, config.m, config.h
        )
    except LintError as error:
        # Emission itself lints (errors only); recover the full report.
        return error.report, None
    from repro.compile.emit import _INPUT_RELATIONS

    report = lint_program(
        compiled.program,
        builtins=compiled.builtins,
        subject=compiled.description,
        edb=_INPUT_RELATIONS + ("class_of", "invocation_parent"),
    )
    return report, compiled


def cmd_lint(args) -> int:
    from repro.datalog.lint import lint_program
    from repro.datalog.parser import DatalogSyntaxError, parse_datalog
    from repro.frontend.ir import ProgramError
    from repro.frontend.lexer import LexError
    from repro.frontend.parser import ParseError

    source = _read_input(args.path, args.command)
    if _looks_like_snapshot(args.path, source):
        return _lint_snapshot(args.path)
    if _looks_like_check_report(args.path, source):
        return _lint_check_report(args.path)
    if _looks_like_cost_plan(args.path, source):
        return _lint_cost_plan(args.path)
    if _looks_like_kernel_cert(args.path, source):
        return _lint_kernel_cert(args.path)

    failed = False
    entries: list = []
    try:
        failed = _lint_path(source, args, entries)
    except (DatalogSyntaxError, LexError, ParseError, ProgramError) as error:
        # A file the parser rejects is a lint failure, not a crash.
        print(f"error[syntax] in {args.path}: {error}", file=sys.stderr)
        return 1
    if args.json:
        document = {
            "schema": LINT_JSON_SCHEMA,
            "path": args.path,
            "ok": not failed,
            "subjects": entries,
        }
        _write_json(args.json, document, "lint report", args.command)
    return 1 if failed else 0


def _looks_like_snapshot(path: str, source: str) -> bool:
    """Heuristic: a ``.snap`` file, or JSON with the snapshot schema."""
    if path.endswith(".snap"):
        return True
    head = source.lstrip()[:4096]
    return head.startswith("{") and '"repro-snapshot/' in head


def _lint_snapshot(path: str) -> int:
    """Self-check a snapshot file: schema, digest, declared counts."""
    from repro.service import SnapshotError, describe_snapshot

    try:
        report = describe_snapshot(path)
    except SnapshotError as error:
        print(f"error[snapshot] in {path}: {error}", file=sys.stderr)
        return 1
    relations = " ".join(
        f"{name}={count}" for name, count in sorted(report["relations"].items())
    )
    print(f"snapshot: {path}")
    print(f"  schema    {report['schema']}")
    print(f"  config    {report['config']}")
    print(f"  digest    {report['digest']} (verified)")
    coverage = report["coverage"]
    print(
        "  coverage  full"
        if coverage == "full"
        else f"  coverage  {coverage} variables"
    )
    print(f"  facts     {report['input_facts']} input facts")
    print(f"  relations {relations}")
    print("snapshot ok: 0 errors, 0 warnings")
    return 0


def _looks_like_cost_plan(path: str, source: str) -> bool:
    """Heuristic: JSON carrying the ``repro-cost-plan/`` marker.  The
    whole source is scanned — rendered documents sort ``schema`` after
    the (large) ``body`` key."""
    stripped = source.lstrip()
    return stripped.startswith("{") and '"repro-cost-plan/' in stripped


def _lint_cost_plan(path: str) -> int:
    """Self-check a ``repro-cost-plan/1`` document: schema, digest,
    rule/reorder counts."""
    import json

    from repro.datalog.cost import verify_cost_plan

    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        report = verify_cost_plan(document)
    except (OSError, ValueError) as error:
        print(f"error[cost-plan] in {path}: {error}", file=sys.stderr)
        return 1
    print(f"cost plan: {path}")
    print(f"  schema      {report['schema']}")
    print(f"  digest      {report['digest']} (verified)")
    print(
        f"  rules       {report['rules']}"
        f" ({report['reordered']} reordered)"
    )
    print(f"  profiles    {report['profiles']}")
    print(f"  diagnostics {report['diagnostics']}")
    print("cost plan ok: 0 errors, 0 warnings")
    return 0


def _looks_like_kernel_cert(path: str, source: str) -> bool:
    """Heuristic: JSON carrying the ``repro-kernel-cert/`` marker."""
    stripped = source.lstrip()
    return stripped.startswith("{") and '"repro-kernel-cert/' in stripped


def _lint_kernel_cert(path: str) -> int:
    """Self-check a ``repro-kernel-cert/1`` certificate.  A document
    that is internally consistent but records an *uncertified* compile
    still fails the lint — DL505 means dropped derivations."""
    import json

    from repro.compile.closure import verify_kernel_cert

    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        report = verify_kernel_cert(document)
    except (OSError, ValueError) as error:
        print(f"error[kernel-cert] in {path}: {error}", file=sys.stderr)
        return 1
    print(f"kernel certificate: {path}")
    print(f"  schema      {report['schema']}")
    print(f"  digest      {report['digest']} (verified)")
    print(
        f"  cell        {report['m']}-{report['flavour']}"
        f"+{report['h']}H"
    )
    print(
        f"  obligations {report['obligations']}"
        f" ({report['violations']} violated)"
    )
    if report["variants"] is not None:
        print(
            f"  variants    {report['variants']} required"
            f" ({report['missing']} missing)"
        )
    if not report["certified"]:
        print(
            f"error[kernel-cert] in {path}: compile is NOT certified"
            " (DL505 — see the document's diagnostics)",
            file=sys.stderr,
        )
        return 1
    print("kernel certificate ok: 0 errors, 0 warnings")
    return 0


def _looks_like_check_report(path: str, source: str) -> bool:
    """Heuristic: JSON carrying the ``repro-check/`` schema marker."""
    head = source.lstrip()[:4096]
    return head.startswith("{") and '"repro-check/' in head


def _lint_check_report(path: str) -> int:
    """Self-check a ``repro-check/1`` report: schema, digest, counts."""
    from repro.checkers import CheckError, describe_report

    try:
        report = describe_report(path)
    except (CheckError, OSError) as error:
        print(f"error[check-report] in {path}: {error}", file=sys.stderr)
        return 1
    counts = " ".join(
        f"{name}={count}" for name, count in sorted(report["counts"].items())
    )
    print(f"check report: {path}")
    print(f"  schema     {report['schema']}")
    print(f"  config     {report['config']}")
    print(f"  digest     {report['digest']} (verified)")
    print(f"  generation {report['generation']}")
    print(f"  checkers   {', '.join(report['checks'])}")
    print(f"  findings   {report['findings']} ({counts})")
    print("check report ok: 0 errors, 0 warnings")
    return 0


def _lint_path(source: str, args, entries) -> bool:
    from repro.datalog.lint import lint_program
    from repro.datalog.parser import parse_datalog

    if args.path.endswith(".dl"):
        program = parse_datalog(source, validate=False)
        # A standalone .dl file usually ships without its fact set;
        # treat every predicate that is never a rule head as a
        # populatable input so the liveness pass reports genuinely
        # dead rules instead of flagging the whole program.
        idb = program.idb_predicates()
        edb = {
            lit.pred
            for rule in program.rules
            for lit in rule.body
        } - idb
        report = lint_program(program, subject=args.path, edb=edb)
        cost_plan = None
        if args.cost:
            cost_plan = _lint_cost(program, None, report)
        return _lint_report(report, args, entries, cost_plan)

    from repro.frontend.factgen import facts_from_source
    from repro.frontend.parser import parse_program
    from repro.lint.ircheck import check_ir

    ir_program = parse_program(source)
    failed = _lint_report(
        check_ir(ir_program, subject=args.path), args, entries
    )

    names = []
    if args.all_configs:
        names = [n for n in _CONFIG_CHOICES if n != "insensitive"]
    elif args.emitted or args.cost:
        names = [args.config]
    if names:
        facts = facts_from_source(source)
        abstraction_map = dict(_ABSTRACTIONS, naive="naive")
        abstractions = (
            ("transformer-string", "context-string", "naive")
            if args.all_abstractions
            else (abstraction_map[args.abstraction],)
        )
        for name in names:
            for abstraction in abstractions:
                report, compiled = _lint_compiled(facts, name, abstraction)
                cost_plan = None
                if args.cost and compiled is not None:
                    cost_plan = _lint_cost(
                        compiled.program, compiled.builtins, report
                    )
                failed = _lint_report(
                    report, args, entries, cost_plan
                ) or failed
    return failed


def cmd_figure6(args) -> int:
    from repro.bench.harness import run_figure6
    from repro.bench.report import format_csv, format_figure6, format_json

    table = run_figure6(scale=args.scale, repetitions=args.repetitions)
    print(format_figure6(
        table, title=f"Figure 6 (synthetic analogues, scale={args.scale})"
    ))
    if args.csv:
        _write_output(args.csv, args.command, format_csv(table))
        print(f"\nwrote CSV to {args.csv}")
    if args.json:
        _write_output(args.json, args.command, format_json(
            table, scale=args.scale, repetitions=args.repetitions,
            engine="solver",
        ))
        print(f"\nwrote JSON to {args.json}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Context Transformations for Pointer Analysis"
        " (PLDI 2017) — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("source", nargs="?", help="Java-subset source file")
        p.add_argument("--facts-dir", help="Doop-style facts directory")
        p.add_argument(
            "--config", default="2-object+H", choices=_CONFIG_CHOICES,
            help="context-sensitivity configuration (default: 2-object+H)",
        )

    p_analyze = sub.add_parser("analyze", help="run a pointer analysis")
    add_common(p_analyze)
    p_analyze.add_argument(
        "--abstraction", default="ts", choices=sorted(_ABSTRACTIONS),
        help="context abstraction (ts = transformer strings)",
    )
    p_analyze.add_argument(
        "--var", action="append",
        help="print only this variable's points-to set (repeatable)",
    )
    p_analyze.add_argument(
        "--call-graph", action="store_true", help="print the call graph"
    )
    p_analyze.add_argument(
        "--stats", action="store_true", help="print relation sizes and time"
    )
    p_analyze.add_argument(
        "--eliminate-subsumed", action="store_true",
        help="drop subsumed transformer-string facts (Section 8)",
    )
    p_analyze.add_argument(
        "--dot", help="write the call graph as Graphviz DOT to this file"
    )
    p_analyze.add_argument(
        "--save-snapshot", metavar="PATH",
        help="persist the solved result as a repro-snapshot/2 file",
    )
    p_analyze.add_argument(
        "--diff", nargs=2, metavar=("OLD", "NEW"),
        help="diff two source files, apply the delta incrementally and"
        " report incremental-vs-scratch timings",
    )
    p_analyze.add_argument(
        "--magic", metavar="PRED(ARGS)",
        help="demand-driven evaluation: run the magic-sets"
        " transformation for this query (e.g."
        " \"pts__e(T.main/x, _, _)\" — '_' marks a free argument),"
        " evaluate under strict lint, run the DL5xx cost pass over the"
        " transformed program, and verify parity against the full"
        " solve",
    )
    p_analyze.add_argument(
        "--backend", choices=("worklist", "engine", "kernel"),
        help="execution backend: the worklist solver (default), the"
        " semi-naive Datalog interpreter, or the fused columnar"
        " kernels; non-worklist backends verify fact-for-fact parity"
        " against the worklist solver and exit 1 on mismatch",
    )
    p_analyze.set_defaults(func=cmd_analyze)

    p_query = sub.add_parser(
        "query", help="demand-driven points-to queries (no exhaustive run)"
    )
    add_common(p_query)
    p_query.add_argument(
        "--abstraction", default="ts", choices=sorted(_ABSTRACTIONS),
        help="context abstraction (ts = transformer strings)",
    )
    p_query.add_argument(
        "--var", action="append", required=True,
        help="variable to query (repeatable)",
    )
    p_query.add_argument(
        "--eliminate-subsumed", action="store_true",
        help=argparse.SUPPRESS,
    )
    p_query.add_argument(
        "--snapshot", metavar="PATH",
        help="answer from this snapshot file (no solving at all);"
        " with a source/facts program too, warns when the snapshot"
        " is stale",
    )
    p_query.add_argument(
        "--json", action="store_true",
        help="print one structured repro-query/1 document (answer,"
        " latency, cache state, snapshot generation) instead of text",
    )
    p_query.set_defaults(func=cmd_query)

    p_check = sub.add_parser(
        "check",
        help="run the client checkers (casts, devirt, races, leaks,"
        " dead code) and gate the exit code on severity",
    )
    add_common(p_check)
    p_check.add_argument(
        "--abstraction", default="ts", choices=sorted(_ABSTRACTIONS),
        help="context abstraction (ts = transformer strings)",
    )
    p_check.add_argument(
        "--eliminate-subsumed", action="store_true",
        help=argparse.SUPPRESS,
    )
    p_check.add_argument(
        "--snapshot", metavar="PATH",
        help="check against this repro-snapshot/2 file (no solving)",
    )
    p_check.add_argument(
        "--checks", action="append", metavar="NAMES",
        help="comma-separated checker names or codes to run"
        " (e.g. races,CK1; default: all)",
    )
    p_check.add_argument(
        "--json", metavar="PATH",
        help="write the repro-check/1 JSON report here ('-' = stdout)",
    )
    p_check.add_argument(
        "--fail-on", default="error",
        choices=("error", "warning", "info", "never"),
        help="exit non-zero when any finding reaches this severity"
        " (default: error)",
    )
    p_check.add_argument(
        "--explain", action="store_true",
        help="re-solve with provenance and print a derivation tree"
        " for every finding's witness facts",
    )
    p_check.add_argument(
        "--audit", action="store_true",
        help="sweep the flavour × (m,h) × abstraction matrix and"
        " tabulate finding counts (exit 1 on monotonicity violations)",
    )
    p_check.add_argument(
        "--thread-root", action="append", metavar="METHOD",
        help="extra thread-root method for the race checker"
        " (repeatable; main and *.run are automatic)",
    )
    p_check.add_argument(
        "--taint-source", action="append", metavar="SITE_OR_TYPE",
        help="taint source for the leak checker: a heap site label or"
        " type name (repeatable; default: every allocation site)",
    )
    p_check.set_defaults(func=cmd_check)

    p_serve = sub.add_parser(
        "serve",
        help="long-lived JSON-lines query server (stdio or --tcp)",
    )
    add_common(p_serve)
    p_serve.add_argument(
        "--abstraction", default="ts", choices=sorted(_ABSTRACTIONS),
        help="context abstraction (ts = transformer strings)",
    )
    p_serve.add_argument(
        "--eliminate-subsumed", action="store_true",
        help=argparse.SUPPRESS,
    )
    p_serve.add_argument(
        "--snapshot", metavar="[ALIAS=]PATH", action="append",
        help="serve from this repro-snapshot/2 file (no solving);"
        " repeatable with --async, where ALIAS= names the tenant",
    )
    p_serve.add_argument(
        "--demand", action="store_true",
        help="skip the up-front solve; answer every query demand-driven",
    )
    p_serve.add_argument(
        "--backend", default="worklist", choices=("worklist", "kernel"),
        help="cold-solve engine (kernel = fused columnar kernels,"
        " bit-identical; default: worklist)",
    )
    p_serve.add_argument(
        "--tcp", metavar="HOST:PORT",
        help="listen on a TCP socket instead of stdio",
    )
    p_serve.add_argument(
        "--cache-size", type=int, default=1024,
        help="LRU query-cache capacity (default: 1024)",
    )
    p_serve.add_argument(
        "--async", dest="async_", action="store_true",
        help="run the repro-serve/2 asyncio gateway (multi-tenant,"
        " micro-batched, admission-controlled); requires --tcp",
    )
    p_serve.add_argument(
        "--batch-max", type=int, default=16,
        help="gateway: flush a tenant's micro-batch at this many"
        " requests (default: 16)",
    )
    p_serve.add_argument(
        "--batch-delay-ms", type=float, default=2.0,
        help="gateway: max time a request waits for its batch to fill"
        " (default: 2.0)",
    )
    p_serve.add_argument(
        "--queue-limit", type=int, default=256,
        help="gateway: admitted requests before explicit overload"
        " responses (default: 256)",
    )
    p_serve.add_argument(
        "--op-timeout", type=float, default=30.0,
        help="gateway: max queue wait before a timeout response"
        " (default: 30.0s)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=4,
        help="gateway: executor threads running batches (default: 4)",
    )
    p_serve.add_argument(
        "--byte-budget", type=int, default=None,
        help="gateway: LRU byte budget for warm snapshot-backed"
        " tenants (default: unbounded)",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_facts = sub.add_parser("facts", help="generate a Doop-style facts dir")
    p_facts.add_argument("source", help="Java-subset source file")
    p_facts.add_argument("--out", required=True, help="output directory")
    p_facts.set_defaults(func=cmd_facts)

    p_emit = sub.add_parser(
        "emit", help="emit the specialized plain-Datalog program"
    )
    add_common(p_emit)
    p_emit.add_argument("--out", help="output file (default: stdout)")
    p_emit.set_defaults(func=cmd_emit)

    p_lint = sub.add_parser(
        "lint",
        help="statically verify a .dl program, a source program's IR,"
        " or emitted configurations",
    )
    p_lint.add_argument(
        "path",
        help="a .dl Datalog program, or a Java-subset source file",
    )
    p_lint.add_argument(
        "--emitted", action="store_true",
        help="also lint the Datalog program emitted for --config",
    )
    p_lint.add_argument(
        "--all-configs", action="store_true",
        help="lint the emitted program for every known configuration",
    )
    p_lint.add_argument(
        "--config", default="2-object+H", choices=_CONFIG_CHOICES,
        help="configuration for --emitted (default: 2-object+H)",
    )
    p_lint.add_argument(
        "--abstraction", default="ts",
        choices=sorted(set(_ABSTRACTIONS) | {"naive"}),
        help="instantiation to lint (ts, cs, or the naive baseline)",
    )
    p_lint.add_argument(
        "--all-abstractions", action="store_true",
        help="lint all three instantiations of each configuration",
    )
    p_lint.add_argument(
        "--strict-warnings", "-W", action="store_true",
        help="treat warnings as fatal",
    )
    p_lint.add_argument(
        "--verbose", "-v", action="store_true",
        help="also print note-severity diagnostics",
    )
    p_lint.add_argument(
        "--cost", action="store_true",
        help="run the static cost & cardinality analysis (DL5xx),"
        " print the join-order plan, and merge its diagnostics into"
        " the report (lints the emitted --config for source files;"
        " --json embeds the repro-cost-plan/1 document)",
    )
    p_lint.add_argument(
        "--json", metavar="PATH",
        help="write a byte-stable repro-lint/1 JSON document here"
        " ('-' = stdout); diagnostics sorted by line/column/code",
    )
    p_lint.set_defaults(func=cmd_lint)

    p_fig = sub.add_parser("figure6", help="regenerate the Figure 6 table")
    p_fig.add_argument("--scale", type=int, default=2)
    p_fig.add_argument("--repetitions", type=int, default=1)
    p_fig.add_argument("--csv", help="also write machine-readable CSV here")
    p_fig.add_argument(
        "--json",
        help="also write machine-readable JSON here"
        " (schema repro-figure6/10, see docs/api.md)",
    )
    p_fig.set_defaults(func=cmd_figure6)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
