"""Differential fuzzing of the two Datalog engines.

Random safe positive programs (with optional stratified negation tails
and comparison builtins) are evaluated by the interpreting engine and
the columnar kernel backend; the results must be identical.  This
guards the kernel compiler against the long tail of rule shapes —
repeated variables, constants in heads and bodies, cross-products,
self-joins — that hand-written tests undersample.
"""

import random
from typing import List

import pytest

from repro.datalog.ast import Const, Literal, Program, Rule, Var
from repro.datalog.engine import Engine
from repro.datalog.kernel import KernelEngine


def random_datalog(seed: int) -> Program:
    rng = random.Random(seed)
    program = Program()

    n_edb = rng.randint(1, 3)
    edb = []
    for k in range(n_edb):
        arity = rng.randint(1, 3)
        name = f"e{k}"
        edb.append((name, arity))
        rows = set()
        for _ in range(rng.randint(2, 10)):
            rows.add(tuple(rng.randint(0, 4) for _ in range(arity)))
        program.add_facts(name, rows)

    idb: List = []
    n_idb = rng.randint(1, 4)
    for k in range(n_idb):
        arity = rng.randint(1, 3)
        idb.append((f"p{k}", arity))

    def random_literal(pool, bound_vars, allow_fresh=True):
        name, arity = rng.choice(pool)
        args = []
        for _ in range(arity):
            roll = rng.random()
            if roll < 0.15:
                args.append(Const(rng.randint(0, 4)))
            elif bound_vars and (roll < 0.7 or not allow_fresh):
                args.append(rng.choice(bound_vars))
            else:
                var = Var(f"V{len(bound_vars)}{rng.randint(0, 9)}")
                bound_vars.append(var)
                args.append(var)
        return Literal(name, tuple(args))

    for (head_name, head_arity) in idb:
        for _ in range(rng.randint(1, 3)):
            bound_vars: List[Var] = []
            body = []
            # Positive body: EDB relations plus possibly earlier IDB
            # relations (recursion included via self-reference).
            pool = list(edb) + [p for p in idb]
            for _ in range(rng.randint(1, 3)):
                body.append(random_literal(pool, bound_vars))
            if bound_vars and rng.random() < 0.3:
                left = rng.choice(bound_vars)
                right = (
                    rng.choice(bound_vars)
                    if rng.random() < 0.5
                    else Const(rng.randint(0, 4))
                )
                body.append(Literal("le", (left, right)))
            head_args = tuple(
                rng.choice(bound_vars) if bound_vars and rng.random() < 0.85
                else Const(rng.randint(0, 4))
                for _ in range(head_arity)
            )
            rule = Rule(Literal(head_name, head_args), tuple(body))
            try:
                rule.validate()
            except ValueError:
                continue
            program.rules.append(rule)

    # A stratified negation consumer over the first IDB predicate.
    if idb and rng.random() < 0.5:
        name, arity = idb[0]
        edb_name, edb_arity = edb[0]
        if arity <= edb_arity:
            variables = tuple(Var(f"N{i}") for i in range(edb_arity))
            program.rules.append(
                Rule(
                    Literal("neg0", variables[:arity]),
                    (
                        Literal(edb_name, variables),
                        Literal(name, variables[:arity], negated=True),
                    ),
                )
            )
    return program


@pytest.mark.parametrize("seed", range(40))
def test_engines_agree(seed):
    program = random_datalog(seed)
    if not program.rules:
        return
    try:
        program.validate()
    except ValueError:
        return
    interpreted = Engine(program).run()
    compiled = KernelEngine(program).run()
    assert compiled == interpreted


def test_fuzz_generates_recursion_somewhere():
    recursive = 0
    for seed in range(40):
        program = random_datalog(seed)
        heads = {r.head.pred for r in program.rules}
        for rule in program.rules:
            if any(lit.pred in heads for lit in rule.body):
                recursive += 1
                break
    assert recursive > 5
