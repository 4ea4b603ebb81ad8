"""Benchmark-corpus subsystem: named suites, warmup protocol, gating.

The paper's empirical case (Figure 6) rests on a fixed corpus of DaCapo
2006 benchmarks measured under a disciplined protocol.  This package is
that protocol for the reproduction, in the DaCapo-harness idiom:

* :mod:`repro.perf.registry` — a :class:`BenchmarkRegistry` of named,
  versioned workloads: the seven synthetic DaCapo analogues plus corpus
  entries that stress the execution surfaces differently (``towers``:
  deep wrapper chains; ``fanout``: wide dispatch);
* :mod:`repro.perf.adapters` — the :class:`SuiteAdapter` protocol, so
  one benchmark definition drives every execution surface (worklist /
  engine / kernel backends, incremental edit churn, and the serving
  gateway);
* :mod:`repro.perf.result` — :class:`RunResult`: explicit warmup vs
  steady-state iterations, per-phase timers (factgen / compile / solve
  / query), and a ``certified`` flag meaning the timed run was verified
  bit-identical to the sequential worklist solver;
* :mod:`repro.perf.suite` — named suites (``smoke``, ``micro``,
  ``corpus``) and the runner producing ``repro-bench/1`` documents;
* :mod:`repro.perf.document` — the byte-stable ``repro-bench/1`` JSON
  document (canonical ordering, sha256 digest, schema validation — the
  format ``repro lint`` self-checks);
* :mod:`repro.perf.gate` — regression gating against a committed
  baseline with noise-aware thresholds (min-of-N steady state,
  per-entry tolerance, host-fingerprint-aware relative mode);
* :mod:`repro.perf.trajectory` — the committed ``BENCH_<date>.json``
  perf-trajectory files (``repro-bench-trajectory/2``: points keyed by
  commit sha + run id, cross-host points flagged non-comparable, with
  a migration shim for the v1 layout);
* :mod:`repro.perf.stats` — the one implementation of the percentile /
  best-of / stopwatch arithmetic previously re-implemented across the
  ``repro.bench`` workload modules;
* :mod:`repro.perf.env` — environment capture: git commit sha and a
  stable host fingerprint, so cross-host points are marked
  non-comparable instead of silently compared.

Driven by ``python -m repro bench`` (``run`` / ``compare`` / ``gate``
/ ``record`` / ``trend``).
"""

from repro.perf.adapters import (
    ADAPTERS,
    AdapterError,
    SuiteAdapter,
    adapter_for,
)
from repro.perf.document import (
    BENCH_SCHEMA,
    BenchDocumentError,
    bench_document,
    describe_document,
    load_document,
    render_document,
    validate_document,
    write_document,
)
from repro.perf.env import capture_environment, git_sha, host_fingerprint
from repro.perf.gate import GateOutcome, compare_documents, gate_documents
from repro.perf.registry import (
    CORPUS_NAMES,
    DEFAULT_REGISTRY,
    BenchmarkDef,
    BenchmarkRegistry,
    corpus_facts,
    corpus_program,
)
from repro.perf.result import RunResult
from repro.perf.stats import (
    best_of,
    latency_summary_us,
    percentile,
    speedup,
    stopwatch,
    to_ms,
)
from repro.perf.suite import SUITES, Suite, SuiteEntry, run_suite
from repro.perf.trajectory import (
    TRAJECTORY_SCHEMA,
    TrajectoryError,
    append_point,
    format_trend,
    load_trajectory,
    trajectory_point,
    write_trajectory,
)

__all__ = [
    "ADAPTERS",
    "AdapterError",
    "BENCH_SCHEMA",
    "BenchDocumentError",
    "BenchmarkDef",
    "BenchmarkRegistry",
    "CORPUS_NAMES",
    "DEFAULT_REGISTRY",
    "GateOutcome",
    "RunResult",
    "SUITES",
    "Suite",
    "SuiteAdapter",
    "SuiteEntry",
    "TRAJECTORY_SCHEMA",
    "TrajectoryError",
    "adapter_for",
    "append_point",
    "bench_document",
    "best_of",
    "capture_environment",
    "compare_documents",
    "corpus_facts",
    "corpus_program",
    "describe_document",
    "format_trend",
    "gate_documents",
    "git_sha",
    "host_fingerprint",
    "latency_summary_us",
    "load_document",
    "load_trajectory",
    "percentile",
    "render_document",
    "run_suite",
    "speedup",
    "stopwatch",
    "to_ms",
    "trajectory_point",
    "validate_document",
    "write_document",
    "write_trajectory",
]
