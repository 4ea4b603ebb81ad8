"""Unified relation-store substrate shared by every execution path.

The paper's Section 7 argument is that engine-level *representation* —
per-configuration relations plus proper join indices — is what makes
transformer strings competitive.  This package is where that machinery
lives, exactly once, for all four execution paths of the reproduction:

* the worklist solver (:mod:`repro.core.solver`),
* the interpreting Datalog engine (:mod:`repro.datalog.engine`),
* the columnar kernel backend (:mod:`repro.datalog.kernel`, over
  :class:`ColumnarStore`),
* the CFL flows-to solver (:mod:`repro.cfl.solver`).

Components:

:class:`Interner`
    A bijective value ↔ small-int symbol table.  Fixpoints that hold
    symbols across iterations (the CFL solver) hash ints instead of
    strings/tuples; results are decoded back at the results boundary.

:class:`Relation`
    A named set of equal-arity tuples with column-subset hash indices
    (planned up front or built lazily on first probe), per-relation
    counters, and the semi-naive ``stable``/``delta``/``pending``
    lifecycle implemented once instead of once per engine.

:class:`KeyedIndex`
    A bucket index over opaque (entity, join-key) composites — the
    domain-provided prefix-compatible bucket scheme the worklist
    solver uses for transformer-string joins.

:class:`TupleStore`
    A registry tying relations, keyed indices, a shared interner and
    per-relation counters together; ``describe()`` is the uniform
    statistics surface behind ``SolverStats``, ``--stats`` and the
    bench harness.

:func:`plan_indices`
    Derives the column-subset indices a Datalog program's joins will
    probe, up front, by reusing the binding-order analysis of
    :mod:`repro.lint`.

:mod:`repro.store.serialize`
    Serialization hooks — tagged value codec (extensible via
    :func:`register_value_codec`), interner and relation payloads —
    used by the :mod:`repro.service` snapshot format to persist a
    solved store and load it back without re-solving.
"""

from repro.store.interner import Interner
from repro.store.relation import Relation, Row, multimap
from repro.store.index import KeyedIndex
from repro.store.columnar import ColumnarRelation, ColumnarStore
from repro.store.serialize import (
    SerializationError,
    canonical_bytes,
    columnar_relation_from_payload,
    columnar_relation_to_payload,
    decode_value,
    encode_value,
    interner_from_payload,
    interner_to_payload,
    register_value_codec,
    relation_from_payload,
    relation_to_payload,
)
from repro.store.stats import RelationCounters
from repro.store.store import TupleStore
from repro.store.planner import plan_indices

__all__ = [
    "ColumnarRelation",
    "ColumnarStore",
    "Interner",
    "KeyedIndex",
    "Relation",
    "RelationCounters",
    "Row",
    "SerializationError",
    "TupleStore",
    "canonical_bytes",
    "columnar_relation_from_payload",
    "columnar_relation_to_payload",
    "decode_value",
    "encode_value",
    "interner_from_payload",
    "interner_to_payload",
    "multimap",
    "plan_indices",
    "register_value_codec",
    "relation_from_payload",
    "relation_to_payload",
]
