"""The four workloads, their inputs, the correctness oracle, and the
measurement helpers both kinds of workload share.

Inputs are Java source text rendered from seeded
:class:`repro.bench.workloads.WorkloadSpec`s.  The program seed is
``spec.seed * 1000 + run seed + pass index``: every pass of a run
analyzes new programs of the same shape, so the work per pass stays the
same while no per-program result cache can hit.

``expected.json`` pins the sha256 of every rendered source and of every
(program, configuration) result for the first :data:`PINNED_OFFSETS`
program seeds of each shape; ``python -m benchmarks.e2e pin`` rebuilds
it, and only after the worklist solver and the kernel backend (and, on
analyze-kernel-cold's programs, the interpreted engine) agree on every
result.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, Iterable, List, Mapping, Tuple

from repro.bench.workloads import DACAPO_NAMES, WorkloadSpec, dacapo_specs, generate
from repro.core.config import AnalysisConfig, config_by_name
from repro.frontend.printer import format_program

#: The derived relations every analysis path is checked on.
RELATIONS = ("pts", "hpts", "call", "reach", "spts", "texc")

ABSTRACTIONS = {"ts": "transformer-string", "cs": "context-string"}

#: Program seed offsets pinned in expected.json, per shape kind.
PINNED_OFFSETS = {"full": 8, "quick": 2}


def _towers(s: int) -> WorkloadSpec:
    return WorkloadSpec(
        "towers", seed=47, value_classes=3, wrapper_chains=2,
        chain_depth=12, receivers_per_chain=2 * s, factories=1,
        containers=1, call_sites=8 * s, factory_sites=2 * s,
        container_ops=2 * s,
    )


def _fanout(s: int) -> WorkloadSpec:
    return WorkloadSpec(
        "fanout", seed=53, value_classes=4, wrapper_chains=1,
        chain_depth=2, receivers_per_chain=2 * s, factories=2,
        containers=3, hierarchy_width=12, call_sites=8 * s,
        factory_sites=4 * s, container_ops=10 * s,
    )


def specs(scale: int) -> Dict[str, WorkloadSpec]:
    """The nine corpus programs: the seven DaCapo analogues plus
    ``towers`` (depth-12 wrapper chains) and ``fanout`` (a 12-wide
    dispatch hierarchy), with the corpus weights spelled out here so
    the benchmark depends only on the program generator."""
    out = dacapo_specs(scale)
    out["towers"] = _towers(scale)
    out["fanout"] = _fanout(scale)
    return out


CORPUS = DACAPO_NAMES + ("towers", "fanout")


@dataclasses.dataclass(frozen=True)
class Shape:
    """What one workload analyzes (or serves) in a pass."""

    programs: Tuple[str, ...]
    scale: int
    #: (sensitivity name, "ts" | "cs") pairs run on every program.
    configs: Tuple[Tuple[str, str], ...]
    #: "worklist" (``analyze()``), "kernel" (emit → kernels → decode)
    #: or "serve" (the asyncio gateway).
    path: str

    def quick(self) -> "Shape":
        return dataclasses.replace(self, scale=1)


WORKLOADS: Dict[str, Shape] = {
    "analyze-worklist": Shape(
        CORPUS, 12,
        (("2-object+H", "ts"), ("2-call+H", "ts"), ("2-object+H", "cs")),
        "worklist",
    ),
    "analyze-kernel-cold": Shape(
        ("antlr", "bloat", "chart", "luindex", "towers"), 4,
        (("2-object+H", "ts"),), "kernel",
    ),
    "analyze-kernel-large": Shape(
        ("bloat", "xalan"), 40, (("2-call+H", "ts"),), "kernel",
    ),
    "serve-mixed": Shape(
        ("bloat",), 32, (("2-object+H", "ts"),), "serve",
    ),
}


def analysis_config(config: Tuple[str, str]) -> AnalysisConfig:
    name, abstraction = config
    return config_by_name(name, ABSTRACTIONS[abstraction])


@dataclasses.dataclass(frozen=True)
class Source:
    """One rendered input program."""

    key: str
    name: str
    text: str


def render(name: str, scale: int, offset: int) -> Source:
    """Render corpus program ``name`` at ``scale`` with the program seed
    ``spec.seed * 1000 + offset``."""
    spec = specs(scale)[name]
    seed = spec.seed * 1000 + offset
    text = format_program(generate(dataclasses.replace(spec, seed=seed)))
    return Source("%s@s%d+%d" % (name, scale, seed), name, text)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def relations_digest(relations: Mapping[str, Iterable]) -> str:
    """sha256 over the six relations, rows in sorted ``repr`` order."""
    digest = hashlib.sha256()
    for name in RELATIONS:
        digest.update(("%s\n" % name).encode("utf-8"))
        for line in sorted(map(repr, relations[name])):
            digest.update(line.encode("utf-8") + b"\n")
    return digest.hexdigest()


def result_key(source: Source, config: Tuple[str, str]) -> str:
    return "%s|%s/%s" % ((source.key,) + tuple(config))


def load_expected(path: str) -> Dict[str, Dict[str, str]]:
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    return {"sources": document["sources"], "results": document["results"]}


def peak_rss_mb(pid: str = "self") -> float:
    """The process's resident-set high-water mark (Linux ``VmHWM``)."""
    with open("/proc/%s/status" % pid, encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/%s/status" % pid)


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` from its current RSS."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as refs:
        refs.write("5")


#: The tail percentile (``tail_ms``).  p99 of served requests moved by
#: ±15% between runs on a 2-core host; p90 moved by a few percent and
#: still has more than ten samples beyond it.
TAIL = 0.90


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, int(-(-fraction * len(ordered) // 1)))
    return ordered[min(len(ordered), rank) - 1]


#: Cold starts per run: at least the first number, at most the second,
#: and more than the first only while they have taken under
#: :data:`COLD_START_SECONDS` in all.  ``setup_s`` is their median and
#: ``first_ms`` their best: starting an interpreter on a busy 2-core
#: host varied by a quarter from run to run.
COLD_STARTS = (3, 9)
COLD_START_SECONDS = 4.0


def more_cold_starts(firsts: List[float]) -> bool:
    """Whether to sample another cold start after ``firsts``."""
    fewest, most = COLD_STARTS
    return len(firsts) < fewest or (
        len(firsts) < most and sum(firsts) < COLD_START_SECONDS
    )
