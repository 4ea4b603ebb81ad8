"""The benchmark corpus: named, versioned workload definitions.

The DaCapo harness identifies a benchmark by name and the suite
release it came from; a result from ``bloat`` in one release is not
comparable to ``bloat`` in another.  :class:`BenchmarkDef` carries the
same contract here: a name, a *version* (bumped whenever the generator
weights change, invalidating old baselines for that entry), and a spec
builder mapping a scale multiplier to a
:class:`~repro.bench.workloads.WorkloadSpec`.

:data:`DEFAULT_REGISTRY` holds the paper's seven evaluated analogues
plus two corpus entries added for the execution-surface work, chosen
to stress the backends differently:

* ``towers`` — deep wrapper chains (depth 12): long dependence chains
  that serialise the fixpoint, the worst case for the columnar kernel
  backend's per-round fusion and the best case for semi-naive deltas;
* ``fanout`` — wide dispatch (a 12-subclass hierarchy reached through
  containers): a broad, shallow call graph, where cost-chosen join
  orders pay off most.

Every definition is deterministic: same name + scale ⇒ byte-identical
fact set (enforced by ``tests/perf/test_determinism.py`` via
:meth:`BenchmarkDef.fact_digest`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.bench.workloads import (
    DACAPO_NAMES,
    WorkloadSpec,
    dacapo_specs,
    generate,
)
from repro.frontend import ir
from repro.frontend.factgen import FactSet, generate_facts


@dataclass(frozen=True)
class BenchmarkDef:
    """One named, versioned workload in the corpus."""

    name: str
    version: int
    description: str
    build_spec: Callable[[int], WorkloadSpec] = field(repr=False)

    def spec(self, scale: int = 1) -> WorkloadSpec:
        return self.build_spec(scale)

    def program(self, scale: int = 1) -> ir.Program:
        return generate(self.spec(scale))

    def facts(self, scale: int = 1) -> FactSet:
        return generate_facts(self.program(scale))

    def fact_digest(self, scale: int = 1) -> str:
        """sha256 of the canonical fact set — the determinism anchor."""
        return self.facts(scale).digest()


class BenchmarkRegistry:
    """Name → :class:`BenchmarkDef`, iteration in registration order."""

    def __init__(self) -> None:
        self._defs: Dict[str, BenchmarkDef] = {}

    def register(self, definition: BenchmarkDef) -> BenchmarkDef:
        if definition.name in self._defs:
            raise ValueError(
                "benchmark %r already registered" % definition.name
            )
        self._defs[definition.name] = definition
        return definition

    def get(self, name: str) -> BenchmarkDef:
        try:
            return self._defs[name]
        except KeyError:
            raise KeyError(
                "unknown benchmark %r (known: %s)"
                % (name, ", ".join(sorted(self._defs)))
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._defs

    def __iter__(self) -> Iterator[BenchmarkDef]:
        return iter(self._defs.values())

    def names(self) -> Tuple[str, ...]:
        return tuple(self._defs)

    def versions(self) -> Dict[str, int]:
        return {d.name: d.version for d in self}


def _dacapo_builder(name: str) -> Callable[[int], WorkloadSpec]:
    def build(scale: int) -> WorkloadSpec:
        return dacapo_specs(scale)[name]
    return build


def _towers_spec(scale: int) -> WorkloadSpec:
    s = scale
    return WorkloadSpec(
        "towers", seed=47, value_classes=3, wrapper_chains=2,
        chain_depth=12, receivers_per_chain=2 * s, factories=1,
        containers=1, call_sites=8 * s, factory_sites=2 * s,
        container_ops=2 * s,
    )


def _fanout_spec(scale: int) -> WorkloadSpec:
    s = scale
    return WorkloadSpec(
        "fanout", seed=53, value_classes=4, wrapper_chains=1,
        chain_depth=2, receivers_per_chain=2 * s, factories=2,
        containers=3, hierarchy_width=12, call_sites=8 * s,
        factory_sites=4 * s, container_ops=10 * s,
    )


_DACAPO_DESCRIPTIONS = {
    "antlr": "call-chain heavy parser analogue",
    "bloat": "AST-with-parent-pointers plus stack (paper Section 8)",
    "chart": "factory-allocation heavy",
    "eclipse": "widest dispatch of the paper's seven",
    "luindex": "smallest, most uniform",
    "pmd": "hierarchies mixed with wrappers",
    "xalan": "container heavy",
}


def _build_default_registry() -> BenchmarkRegistry:
    registry = BenchmarkRegistry()
    for name in DACAPO_NAMES:
        registry.register(BenchmarkDef(
            name=name,
            version=1,
            description=_DACAPO_DESCRIPTIONS[name],
            build_spec=_dacapo_builder(name),
        ))
    registry.register(BenchmarkDef(
        name="towers",
        version=1,
        description="deep wrapper chains (depth 12): serial fixpoint, "
                    "kernel-backend stress",
        build_spec=_towers_spec,
    ))
    registry.register(BenchmarkDef(
        name="fanout",
        version=1,
        description="wide dispatch (12-subclass hierarchy): broad, "
                    "shallow call graph",
        build_spec=_fanout_spec,
    ))
    return registry


DEFAULT_REGISTRY = _build_default_registry()

#: Every corpus name, DaCapo analogues first, new entries after.
CORPUS_NAMES: Tuple[str, ...] = DEFAULT_REGISTRY.names()

#: The entries that are not DaCapo analogues.
EXTRA_NAMES: Tuple[str, ...] = tuple(
    name for name in CORPUS_NAMES if name not in DACAPO_NAMES
)


def corpus_program(name: str, scale: int = 1) -> ir.Program:
    """The program for one corpus entry (any registered name)."""
    return DEFAULT_REGISTRY.get(name).program(scale)


def corpus_facts(name: str, scale: int = 1) -> FactSet:
    """Facts for one corpus entry — the shared workload loader the
    figure6 block runners also use."""
    return DEFAULT_REGISTRY.get(name).facts(scale)
