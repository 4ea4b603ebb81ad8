"""Intermediate representation of the analyzed Java subset.

The analysis is flow-insensitive (paper Section 2.1: a Pointer
Assignment Graph abstracts away control flow), so a method body is just
a bag of pointer-relevant statements in three-address form:

* :class:`Assign`       — ``dst = src;``
* :class:`New`          — ``dst = new T();`` with an allocation-site label
* :class:`Load`         — ``dst = base.field;``
* :class:`Store`        — ``base.field = src;``
* :class:`VirtualCall`  — ``dst = base.m(a1, …);`` with a call-site label
* :class:`StaticCall`   — ``dst = T.m(a1, …);`` with a call-site label
* :class:`Return`       — ``return src;``

Variables are plain strings, already resolved by the parser
(:mod:`repro.frontend.parser`): locals are qualified ``Class.method/x``,
the receiver is ``Class.method/this``.  Labels for allocation and call
sites come from trailing ``// label`` comments when present (so the
paper's figures can be transcribed verbatim) and are auto-generated
otherwise.

The IR is deliberately independent of the parser: the synthetic workload
generators (:mod:`repro.bench.workloads`) build IR programs directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Assign:
    """``dst = src;``"""

    dst: str
    src: str


@dataclass(frozen=True)
class New:
    """``dst = new type();`` at allocation site ``label``."""

    dst: str
    type: str
    label: str


@dataclass(frozen=True)
class Load:
    """``dst = base.field;``"""

    dst: str
    base: str
    field: str


@dataclass(frozen=True)
class Store:
    """``base.field = src;``"""

    base: str
    field: str
    src: str


@dataclass(frozen=True)
class VirtualCall:
    """``dst = base.name(args);`` at call site ``label`` (dst optional)."""

    dst: Optional[str]
    base: str
    name: str
    args: Tuple[str, ...]
    label: str


@dataclass(frozen=True)
class StaticCall:
    """``dst = cls.name(args);`` at call site ``label`` (dst optional)."""

    dst: Optional[str]
    cls: str
    name: str
    args: Tuple[str, ...]
    label: str


@dataclass(frozen=True)
class Return:
    """``return src;``"""

    src: str


@dataclass(frozen=True)
class StaticLoad:
    """``dst = cls.field;`` where ``field`` is a static field."""

    dst: str
    cls: str
    field: str


@dataclass(frozen=True)
class StaticStore:
    """``cls.field = src;`` where ``field`` is a static field."""

    cls: str
    field: str
    src: str


@dataclass(frozen=True)
class Throw:
    """``throw src;``"""

    src: str


Statement = object  # union of the dataclasses above


@dataclass
class Method:
    """A method definition.

    ``params`` lists the formal parameter variable names (already
    qualified); ``signature`` is the dynamic-dispatch key ``name/arity``.
    """

    name: str
    cls: str
    params: Tuple[str, ...] = ()
    is_static: bool = False
    body: List[Statement] = field(default_factory=list)

    @property
    def qualified_name(self) -> str:
        """The method identifier used in facts, e.g. ``"T.id"``."""
        return f"{self.cls}.{self.name}"

    @property
    def signature(self) -> str:
        """The dispatch signature ``name/arity``."""
        return f"{self.name}/{len(self.params)}"

    @property
    def this_var(self) -> str:
        """The receiver variable of an instance method."""
        return f"{self.qualified_name}/this"

    def local(self, name: str) -> str:
        """Qualify a local variable name."""
        return f"{self.qualified_name}/{name}"

    def catch_vars(self) -> List[str]:
        """Variables bound by ``catch`` clauses (set by the parser)."""
        return list(getattr(self, "_catch_vars", ()))

    def add_catch_var(self, var: str) -> None:
        if not hasattr(self, "_catch_vars"):
            self._catch_vars = []
        self._catch_vars.append(var)


@dataclass
class ClassDecl:
    """A class with an optional superclass, fields, and methods.

    ``fields`` are instance fields; ``static_fields`` are class-level
    (accessed as ``Cls.f`` and shared program-wide).
    """

    name: str
    superclass: Optional[str] = None
    fields: List[str] = field(default_factory=list)
    static_fields: List[str] = field(default_factory=list)
    methods: Dict[str, Method] = field(default_factory=dict)

    def add_method(self, method: Method) -> Method:
        self.methods[method.signature] = method
        return method


class ProgramError(ValueError):
    """Raised on a program whose class structure is malformed: a
    duplicate class, a superclass that is never declared, or an
    inheritance cycle."""


@dataclass
class Program:
    """A whole program: classes plus the designated entry point."""

    classes: Dict[str, ClassDecl] = field(default_factory=dict)
    main_class: Optional[str] = None

    def add_class(self, cls: ClassDecl) -> ClassDecl:
        if cls.name in self.classes:
            raise ProgramError(f"duplicate class {cls.name!r}")
        self.classes[cls.name] = cls
        return cls

    # -- hierarchy queries -------------------------------------------------

    def superclass_chain(self, name: str) -> List[str]:
        """``name`` and its ancestors, nearest first; cycles rejected."""
        chain: List[str] = []
        seen = set()
        current: Optional[str] = name
        while current is not None:
            if current in seen:
                raise ProgramError(f"inheritance cycle through {current!r}")
            seen.add(current)
            chain.append(current)
            decl = self.classes.get(current)
            current = decl.superclass if decl else None
        return chain

    def resolve_method(self, cls_name: str, signature: str) -> Optional[Method]:
        """Dynamic dispatch: the nearest definition of ``signature``."""
        for ancestor in self.superclass_chain(cls_name):
            decl = self.classes.get(ancestor)
            if decl and signature in decl.methods:
                return decl.methods[signature]
        return None

    def resolve_field(self, cls_name: str, field_name: str) -> Optional[str]:
        """The nearest class declaring ``field_name``, or ``None``."""
        for ancestor in self.superclass_chain(cls_name):
            decl = self.classes.get(ancestor)
            if decl and field_name in decl.fields:
                return ancestor
        return None

    def resolve_static_field(self, cls_name: str, field_name: str) -> Optional[str]:
        """The nearest class declaring static ``field_name``, or ``None``."""
        for ancestor in self.superclass_chain(cls_name):
            decl = self.classes.get(ancestor)
            if decl and field_name in decl.static_fields:
                return ancestor
        return None

    def subclasses_of(self, name: str) -> List[str]:
        """All classes ``C`` with ``name`` in their superclass chain."""
        return [
            c for c in self.classes
            if name in self.superclass_chain(c)
        ]

    @property
    def main_method(self) -> Method:
        """The entry point ``main`` (signature ``main/1``)."""
        if self.main_class is None:
            raise ValueError("program has no main class")
        method = self.classes[self.main_class].methods.get("main/1")
        if method is None:
            raise ValueError(f"class {self.main_class!r} has no main(String[])")
        return method

    def all_methods(self) -> List[Method]:
        """Every method in the program, in declaration order."""
        return [m for cls in self.classes.values() for m in cls.methods.values()]

    def validate(self) -> None:
        """Sanity-check structural invariants (used by generators/tests)."""
        for cls in self.classes.values():
            if cls.superclass is not None and cls.superclass not in self.classes:
                raise ProgramError(
                    f"class {cls.name!r} extends unknown {cls.superclass!r}"
                )
            self.superclass_chain(cls.name)  # raises on cycles
        if self.main_class is not None:
            _ = self.main_method

