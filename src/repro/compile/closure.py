"""Configuration-closure certification of the kernel pipeline (DL505).

Configuration specialization (:mod:`repro.compile.specialize`) is only
sound if the configuration universe at a sensitivity cell ``(m, h)`` is
*closed*: every symbolic ``comp`` / ``inv`` / ``merge`` / ``trunc``
a rule family performs must map universe configurations back into the
universe of the head relation, or the specializer would need a
per-configuration relation it never emitted and derivations would be
silently dropped.  The kernel compiler (:mod:`repro.compile.kernels`)
adds a second exhaustiveness obligation on top: every non-fact rule
needs its full-evaluation variant *and* one delta variant per positive
non-builtin IDB body position, or semi-naive rounds would skip
frontiers.

This module discharges both obligations statically and emits a
byte-stable ``repro-kernel-cert/1`` certificate:

1. **Closure obligations** — enumerate the universes
   (``pts`` = ``CtxtT_{h,m}``, ``hpts`` = ``CtxtT_{h,h}``,
   ``call`` = ``CtxtT_{m,m}``, ``spts`` = ``CtxtT_{h,0}``,
   ``reach`` = prefix lengths ``0..m``) and replay every rule family's
   symbolic operation — the *same* code path the specializer runs,
   via :class:`~repro.compile.specialize.TransformerSpecializer` —
   checking each result configuration for universe membership.
2. **Variant coverage** — compare the kernel program's
   ``variants_by_key`` against the required key set derived from the
   emitted rules.

Any violated obligation or missing variant becomes a ``DL505``
*error* diagnostic (unlike the advisory DL501–DL504 cost findings in
:mod:`repro.datalog.cost`, an uncovered configuration means wrong
results, not slow ones).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.compile.configurations import Configuration, enumerate_configurations
from repro.compile.kernels import KernelProgram
from repro.compile.specialize import (
    SymbolicTransformer,
    TransformerSpecializer,
    compose_symbolic,
    fresh_symbolic,
    inverse_symbolic,
    trunc_symbolic,
)
from repro.core.sensitivity import Flavour
from repro.datalog.ast import Program, Rule, Var
from repro.datalog.builtins import DEFAULT_BUILTINS
from repro.lint.diagnostics import Diagnostic, Severity

SCHEMA = "repro-kernel-cert/1"


def _tag(config: Configuration) -> str:
    return config.tag or "ε"


def _tags(configs: Sequence[Configuration]) -> Tuple[str, ...]:
    return tuple(_tag(c) for c in configs)


@dataclass(frozen=True)
class ClosureObligation:
    """One discharged proof obligation: a rule family's symbolic
    operation applied to universe configurations, with the resulting
    configuration checked against the head relation's universe."""

    family: str
    operands: Tuple[str, ...]
    result: str
    universe: str
    ok: bool

    def to_json(self) -> Dict:
        return {
            "family": self.family,
            "operands": list(self.operands),
            "result": self.result,
            "universe": self.universe,
            "ok": self.ok,
        }


def closure_obligations(
    flavour: Flavour, m: int, h: int
) -> List[ClosureObligation]:
    """Every closure obligation of the specializer at ``(m, h)``.

    One obligation per (rule family × operand-configuration tuple),
    replaying the family's exact symbolic operation from
    :class:`TransformerSpecializer` and checking the result against
    the head universe.  The enumeration order is the specializer's own
    (``enumerate_configurations`` order), so the certificate is
    deterministic.
    """
    spec = TransformerSpecializer(flavour, m, h)
    pts = set(spec.pts_configs)
    hpts = set(spec.hpts_configs)
    call = set(spec.call_configs)
    spts = set(spec.spts_configs)

    out: List[ClosureObligation] = []

    def oblige(family, operands, result_config, universe, members):
        out.append(ClosureObligation(
            family=family,
            operands=tuple(_tag(c) for c in operands),
            result=_tag(result_config),
            universe=universe,
            ok=result_config in members,
        ))

    def fresh(config, prefix):
        return fresh_symbolic(config, prefix)

    # ASSIGN / LOAD / THROW / ECATCH copy the transformer unchanged.
    for config in spec.pts_configs:
        for family in ("assign", "load", "throw", "catch"):
            oblige(family, (config,), config, "pts", pts)

    # STORE: hpts ⊇ trunc_{h,h}(pts ; inv(pts)).
    for left in spec.pts_configs:
        for right in spec.pts_configs:
            composed, _ = compose_symbolic(
                fresh(left, "b"), inverse_symbolic(fresh(right, "c"))
            )
            composed = trunc_symbolic(composed, h, h)
            oblige(
                "store", (left, right), composed.configuration, "hpts", hpts
            )

    # IND: pts ⊇ trunc_{h,m}(hpts ; hload) (hload shares pts's universe).
    for left in spec.hpts_configs:
        for right in spec.pts_configs:
            composed, _ = compose_symbolic(fresh(left, "b"), fresh(right, "c"))
            composed = trunc_symbolic(composed, h, m)
            oblige("indirect", (left, right), composed.configuration, "pts", pts)

    # PARAM: pts ⊇ trunc_{h,m}(pts ; call);
    # RET / EPROP: pts ⊇ trunc_{h,m}(pts ; inv(call)).
    for left in spec.pts_configs:
        for right in spec.call_configs:
            operand = fresh(right, "c")
            composed, _ = compose_symbolic(fresh(left, "b"), operand)
            composed = trunc_symbolic(composed, h, m)
            oblige("param", (left, right), composed.configuration, "pts", pts)
            inverted, _ = compose_symbolic(
                fresh(left, "b"), inverse_symbolic(operand)
            )
            inverted = trunc_symbolic(inverted, h, m)
            for family in ("return", "exception"):
                oblige(
                    family, (left, right), inverted.configuration, "pts", pts
                )

    # MERGE: call ⊇ merge(pts); pts ⊇ trunc_{h,m}(pts ; merge(pts)).
    heap, inv, class_type = Var("H"), Var("I"), Var("CT")
    for config in spec.pts_configs:
        receiver = fresh(config, "b")
        edge = spec._merge_symbolic(receiver, heap, inv, class_type)
        oblige("merge", (config,), edge.configuration, "call", call)
        this_pts, _ = compose_symbolic(receiver, edge)
        this_pts = trunc_symbolic(this_pts, h, m)
        oblige("this", (config,), this_pts.configuration, "pts", pts)

    # STATIC: the static-invoke edge per reach-prefix length.
    for length in range(m + 1):
        context = tuple(Var(f"M{k}") for k in range(length))
        if flavour in (Flavour.CALL_SITE, Flavour.HYBRID):
            edge = trunc_symbolic(
                SymbolicTransformer((), False, (Var("I"),)), m, m
            )
        else:
            edge = SymbolicTransformer(context, False, context)
        oblige(
            "static",
            (Configuration(length, False, length),),
            edge.configuration,
            "call",
            call,
        )

    # REACH: every call configuration's entry prefix is a valid length.
    for config in spec.call_configs:
        out.append(ClosureObligation(
            family="reach",
            operands=(_tag(config),),
            result=str(config.pushes),
            universe="reach",
            ok=config.pushes <= m,
        ))

    # NEW: the ε transformer is a pts configuration.
    epsilon = Configuration(0, False, 0)
    oblige("new", (), epsilon, "pts", pts)

    # SSTORE: spts ⊇ trunc_{h,0}(pts); SLOAD: pts ⊇ retarget(spts).
    for config in spec.pts_configs:
        projected = trunc_symbolic(fresh(config, "b"), h, 0)
        oblige("static_store", (config,), projected.configuration, "spts", spts)
    for config in spec.spts_configs:
        retargeted = Configuration(config.pops, True, 0)
        oblige("static_load", (config,), retargeted, "pts", pts)

    return out


def required_variant_keys(
    program: Program, builtins: Optional[Mapping] = None
) -> List[Tuple[int, Optional[int]]]:
    """The kernel-variant keys an exhaustive compile must cover.

    Mirrors :func:`repro.compile.kernels.compile_kernels` exactly: per
    non-fact rule, the full-evaluation variant ``(i, None)`` plus one
    delta variant per positive, non-builtin, IDB body position.
    """
    builtin_names = set(DEFAULT_BUILTINS)
    if builtins:
        builtin_names |= set(builtins)
    idb = program.idb_predicates()
    keys: List[Tuple[int, Optional[int]]] = []
    for index, rule in enumerate(program.rules):
        if rule.is_fact():
            continue
        keys.append((index, None))
        keys.extend(
            (index, position)
            for position, literal in enumerate(rule.body)
            if not literal.negated
            and literal.pred not in builtin_names
            and literal.pred in idb
        )
    return keys


@dataclass
class KernelCertificate:
    """The discharged obligations plus the coverage audit.

    ``variants`` fields are ``None`` when no kernel program was
    supplied (closure-only certification).  ``certified`` requires
    both halves: every obligation holds *and* (when audited) every
    required variant exists.
    """

    flavour: Flavour
    m: int
    h: int
    universes: Dict[str, Tuple[str, ...]]
    obligations: List[ClosureObligation]
    rules: Optional[int] = None
    required: Optional[List[Tuple[int, Optional[int]]]] = None
    missing: Optional[List[Tuple[int, Optional[int]]]] = None
    diagnostics: List[Diagnostic] = field(default_factory=list)

    SCHEMA = SCHEMA

    @property
    def closed(self) -> bool:
        return all(obligation.ok for obligation in self.obligations)

    @property
    def exhaustive(self) -> Optional[bool]:
        if self.missing is None:
            return None
        return not self.missing

    @property
    def certified(self) -> bool:
        return self.closed and self.exhaustive is not False

    def violations(self) -> List[ClosureObligation]:
        return [o for o in self.obligations if not o.ok]

    def body(self) -> Dict:
        families: Dict[str, int] = {}
        for obligation in self.obligations:
            families[obligation.family] = families.get(obligation.family, 0) + 1
        body = {
            "generator": "repro.compile.closure",
            "flavour": self.flavour.value,
            "m": self.m,
            "h": self.h,
            "universes": {
                name: list(tags) for name, tags in sorted(self.universes.items())
            },
            "obligations": {
                "total": len(self.obligations),
                "violations": len(self.violations()),
                "families": dict(sorted(families.items())),
                "records": [o.to_json() for o in self.obligations],
            },
            "variants": None,
            "closed": self.closed,
            "certified": self.certified,
            "diagnostics": [
                {
                    "code": d.code,
                    "severity": str(d.severity),
                    "rule": d.rule_index,
                    "message": d.message,
                }
                for d in self.diagnostics
            ],
        }
        if self.required is not None:
            body["variants"] = {
                "rules": self.rules,
                "required": len(self.required),
                "covered": len(self.required) - len(self.missing or ()),
                "missing": [list(key) for key in (self.missing or ())],
            }
        return body

    def digest(self) -> str:
        return _digest(self.body())

    def to_json(self) -> Dict:
        body = self.body()
        return {"schema": self.SCHEMA, "digest": _digest(body), "body": body}

    def render(self) -> str:
        lines = [
            f"kernel certificate ({self.m}-{self.flavour.value}"
            f"+{self.h}H): {len(self.obligations)} closure obligations,"
            f" {len(self.violations())} violated"
        ]
        if self.required is not None:
            lines.append(
                f"  variants: {len(self.required) - len(self.missing or ())}"
                f"/{len(self.required)} required keys covered over"
                f" {self.rules} rules"
            )
        lines.append(
            "  certified" if self.certified else "  NOT CERTIFIED (DL505)"
        )
        for diagnostic in self.diagnostics:
            lines.append(f"  {diagnostic.render()}")
        return "\n".join(lines)


def _digest(body: Dict) -> str:
    canonical = json.dumps(
        body, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def certify_kernels(
    flavour: Flavour,
    m: int,
    h: int,
    program: Optional[Program] = None,
    kernels: Optional[KernelProgram] = None,
    builtins: Optional[Mapping] = None,
) -> KernelCertificate:
    """Certify the specializer (and optionally a compiled kernel
    program) at one sensitivity cell.

    Closure is always checked.  When ``program`` and ``kernels`` are
    supplied, the kernel program's ``variants_by_key`` is audited
    against :func:`required_variant_keys` (the program must be the one
    the kernels were compiled from — for a
    :class:`~repro.datalog.kernel.KernelEngine` that is
    ``engine.program``, the interned form).  Every violation surfaces
    as a DL505 error diagnostic.
    """
    spec = TransformerSpecializer(flavour, m, h)
    universes = {
        "pts": _tags(spec.pts_configs),
        "hpts": _tags(spec.hpts_configs),
        "call": _tags(spec.call_configs),
        "spts": _tags(spec.spts_configs),
        "reach": tuple(str(k) for k in range(m + 1)),
    }
    obligations = closure_obligations(flavour, m, h)

    diagnostics: List[Diagnostic] = []
    for obligation in obligations:
        if obligation.ok:
            continue
        operands = ", ".join(obligation.operands) or "ε"
        diagnostics.append(Diagnostic(
            "DL505", Severity.ERROR,
            f"configuration closure violated: family"
            f" {obligation.family!r} maps ({operands}) to"
            f" {obligation.result!r}, outside the {obligation.universe!r}"
            f" universe at ({m},{h})",
            where=obligation.family,
        ))

    rules = required = missing = None
    if program is not None and kernels is not None:
        required = required_variant_keys(program, builtins=builtins)
        rules = sum(1 for rule in program.rules if not rule.is_fact())
        missing = [
            key for key in required if key not in kernels.variants_by_key
        ]
        for rule_index, position in missing:
            rule: Rule = program.rules[rule_index]
            kind = (
                "full-evaluation variant" if position is None
                else f"delta variant for body position {position}"
                f" ({rule.body[position].pred!r})"
            )
            diagnostics.append(Diagnostic(
                "DL505", Severity.ERROR,
                f"kernel program is not exhaustive: rule"
                f" #{rule_index} ({rule.head.pred!r}) has no {kind}",
                rule_index=rule_index, pos=rule.pos, where=rule.head.pred,
            ))
    elif program is not None or kernels is not None:
        raise ValueError(
            "variant coverage needs both the program and its kernels"
        )

    return KernelCertificate(
        flavour=flavour, m=m, h=h, universes=universes,
        obligations=obligations, rules=rules, required=required,
        missing=missing, diagnostics=diagnostics,
    )


def verify_kernel_cert(document: Dict) -> Dict:
    """Self-check a ``repro-kernel-cert/1`` document.

    Raises :class:`ValueError` on schema mismatch, digest mismatch, or
    internal inconsistency (counts vs. records, ``closed`` /
    ``certified`` flags vs. their definitions); returns a summary dict
    on success — the same contract as the other self-checking
    documents (``repro-cost-plan/1``, snapshots, bench reports).
    """
    if document.get("schema") != SCHEMA:
        raise ValueError(
            f"expected schema {SCHEMA!r}, got {document.get('schema')!r}"
        )
    body = document.get("body")
    if not isinstance(body, dict):
        raise ValueError("kernel certificate has no body")
    digest = _digest(body)
    if document.get("digest") != digest:
        raise ValueError(
            f"digest mismatch: document says {document.get('digest')!r},"
            f" body hashes to {digest!r}"
        )
    obligations = body.get("obligations", {})
    records = obligations.get("records", [])
    if obligations.get("total") != len(records):
        raise ValueError(
            f"obligation count mismatch: total says"
            f" {obligations.get('total')}, {len(records)} records"
        )
    violations = [record for record in records if not record.get("ok")]
    if obligations.get("violations") != len(violations):
        raise ValueError(
            f"violation count mismatch: says"
            f" {obligations.get('violations')}, records show"
            f" {len(violations)}"
        )
    closed = not violations
    if body.get("closed") != closed:
        raise ValueError("closed flag contradicts the obligation records")
    variants = body.get("variants")
    exhaustive = True
    if variants is not None:
        missing = variants.get("missing", [])
        if variants.get("covered") != variants.get("required") - len(missing):
            raise ValueError("variant coverage arithmetic is inconsistent")
        exhaustive = not missing
    if body.get("certified") != (closed and exhaustive):
        raise ValueError("certified flag contradicts the audit results")
    return {
        "schema": SCHEMA,
        "digest": digest,
        "flavour": body.get("flavour"),
        "m": body.get("m"),
        "h": body.get("h"),
        "obligations": len(records),
        "violations": len(violations),
        "variants": None if variants is None else variants.get("required"),
        "missing": None if variants is None else len(variants.get("missing")),
        "certified": body.get("certified"),
    }
