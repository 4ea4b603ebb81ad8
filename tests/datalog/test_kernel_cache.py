"""Tests for the kernel backend's process cache and live-rule run.

A :class:`~repro.datalog.kernel.KernelEngine` compiles only the live
rules (dead-rule elimination first) and takes their kernels from a
bounded process cache keyed by the rule set.  These tests pin what
must hold around that: a cache hit binds the engine's own builtins, an
engine's copy of the kernel tables can be changed without touching the
cache, the cache stays at its bound, dead rules stay visible as empty
relations, and emission still lints every program's facts when its
rule set is cached.
"""

import copy
from collections import OrderedDict

import pytest

from repro.compile import emit
from repro.compile.closure import certify_kernels, required_variant_keys
from repro.compile.emit import (
    compile_context_string_analysis,
    compile_transformer_analysis,
)
from repro.core.config import config_by_name
from repro.datalog import kernel
from repro.datalog.engine import Engine
from repro.datalog.kernel import KERNEL_CACHE_SIZE, KernelEngine
from repro.datalog.lint import LintError
from repro.datalog.parser import parse_datalog
from repro.datalog.stratify import StratificationError
from repro.frontend.factgen import facts_from_source
from repro.frontend.paper_programs import FIGURE_1


@pytest.fixture()
def cold_cache(monkeypatch):
    """An empty kernel cache for this test; the process cache returns
    afterwards."""
    monkeypatch.setattr(kernel, "_cache", OrderedDict())
    return kernel._cache


def _context_string(facts, name="2-type+H"):
    config = config_by_name(name, "context-string")
    return compile_context_string_analysis(
        facts, config.flavour, config.m, config.h
    )


def _transformer(facts, name="2-object+H"):
    config = config_by_name(name)
    return compile_transformer_analysis(
        facts, config.flavour, config.m, config.h
    )


class TestCacheHit:
    def test_hit_binds_this_programs_builtins(self, cold_cache):
        # Type sensitivity's merge_cs closes over each fact set's
        # class_of: two programs with one rule set but different
        # classes must not share instantiated kernels.
        first = facts_from_source(FIGURE_1)
        second = copy.deepcopy(first)
        second.class_of = {heap: "Elsewhere" for heap in first.class_of}
        one, two = _context_string(first), _context_string(second)

        cold = KernelEngine(two.program, two.builtins)
        assert not cold.compile_cached
        expected = cold.run()
        cold_cache.clear()

        first = KernelEngine(one.program, one.builtins)
        assert not first.compile_cached
        other = first.run()
        warm = KernelEngine(two.program, two.builtins)
        assert warm.compile_cached
        assert len(cold_cache) == 1
        assert warm.kernels is not first.kernels
        assert warm.kernels.code is first.kernels.code
        assert warm.run() == expected
        assert expected != other
        assert expected == Engine(two.program, two.builtins).run()

    def test_mutated_tables_leave_the_next_engine_intact(self, cold_cache):
        compiled = _transformer(facts_from_source(FIGURE_1))
        config = config_by_name("2-object+H")
        first = KernelEngine(compiled.program, compiled.builtins)
        expected = first.run()
        # Punch a variant out in place and by replacement, as the
        # closure certifier's hole test does, and scribble on the rest.
        hole = next(iter(first.kernels.variants_by_key))
        del first.kernels.variants_by_key[hole]
        first.kernels.variants_by_key = {}
        first.kernels.variants.clear()
        first.kernels.pred_ids.clear()
        first.kernels.index_ids.clear()
        first.kernels.var_pool.append(None)

        second = KernelEngine(compiled.program, compiled.builtins)
        assert second.compile_cached
        assert set(second.kernels.variants_by_key) == set(
            required_variant_keys(second.program, second.builtins)
        )
        certificate = certify_kernels(
            config.flavour, config.m, config.h,
            program=second.program, kernels=second.kernels,
            builtins=second.builtins,
        )
        assert certificate.certified
        assert second.run() == expected


class TestCacheKey:
    def test_key_is_the_interned_rule_set(self, cold_cache):
        # Constants intern in program order, so these two rules inline
        # the same int: one kernel serves both, each decoding through
        # its own interner.
        first = parse_datalog('e("a", "b").\np(X) :- e(X, "b").\n')
        second = parse_datalog('e("c", "d").\np(X) :- e(X, "d").\n')
        assert not KernelEngine(first).compile_cached
        engine = KernelEngine(second)
        assert engine.compile_cached
        assert engine.run()["p"] == {("c",)}


class TestCacheBound:
    def test_distinct_rule_sets_keep_the_cache_at_its_bound(
        self, cold_cache
    ):
        def program(number):
            return parse_datalog(f"e(1, 2).\np{number}(X) :- e(X, 2).\n")

        for number in range(KERNEL_CACHE_SIZE + 3):
            engine = KernelEngine(program(number))
            assert not engine.compile_cached
            assert len(cold_cache) <= KERNEL_CACHE_SIZE
        assert len(cold_cache) == KERNEL_CACHE_SIZE
        # Least recently used goes first: the oldest entries are gone,
        # the newest hit.
        assert not KernelEngine(program(0)).compile_cached
        assert KernelEngine(program(KERNEL_CACHE_SIZE + 2)).compile_cached
        assert len(cold_cache) == KERNEL_CACHE_SIZE


class TestConcurrency:
    def test_threads_sharing_the_cache(self, cold_cache):
        # More threads than cores, switching often, over more rule sets
        # than the cache holds: every engine must still compute its own
        # program's result and the cache must stay within its bound.
        import sys
        import threading

        programs = [
            parse_datalog(
                f"e(1, 2). e(2, 3).\n"
                f"p{number}(X, Y) :- e(X, Y).\n"
                f"p{number}(X, Z) :- p{number}(X, Y), e(Y, Z).\n"
            )
            for number in range(KERNEL_CACHE_SIZE + 2)
        ]
        expected = [Engine(program).run() for program in programs]
        failures = []

        def work(offset):
            try:
                for step in range(3 * len(programs)):
                    index = (offset + step) % len(programs)
                    result = KernelEngine(programs[index]).run()
                    if result != expected[index]:
                        failures.append(index)
            except Exception as error:  # reported by the assertion below
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(offset,))
                for offset in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert len(cold_cache) <= KERNEL_CACHE_SIZE


class TestLiveRules:
    SOURCE = (
        "e(1, 2). e(2, 3).\n"
        "p(X, Y) :- e(X, Y).\n"
        "p(X, Z) :- p(X, Y), e(Y, Z).\n"
        "q(X) :- p(X, Y), missing(Y, X).\n"
        "r(X) :- q(X), e(X, X).\n"
    )

    def test_dead_heads_stay_visible_and_stored(self):
        program = parse_datalog(self.SOURCE)
        engine = KernelEngine(program)
        result = engine.run()
        assert [rule.head.pred for rule in engine.dead_rules] == ["q", "r"]
        assert len(engine.program.rules) == len(program.rules) - 2
        assert result == Engine(program).run()
        assert result["q"] == result["r"] == set()
        assert set(result) <= set(engine.store.relations())
        assert engine.query("r") == set()

    def test_negation_through_a_dead_rule_is_still_rejected(self):
        # q is dead (missing has no facts), but with it p negates
        # through recursion, which every engine rejects.
        program = parse_datalog(
            "e(1).\n"
            "p(X) :- e(X), !q(X).\n"
            "q(X) :- p(X), missing(X).\n"
        )
        with pytest.raises(StratificationError):
            Engine(program).run()
        with pytest.raises(StratificationError):
            KernelEngine(program)


class TestEmissionLint:
    def test_wrong_arity_fact_raises_dl101_cold_and_cached(self):
        good = facts_from_source(FIGURE_1)
        bad = copy.deepcopy(good)
        bad.assign.add(("T.main/x", "T.main/y", "extra"))

        emit._rule_set.cache_clear()
        with pytest.raises(LintError, match="DL101") as cold:
            _transformer(bad)
        assert emit._rule_set.cache_info().currsize == 1

        _transformer(good)
        hits = emit._rule_set.cache_info().hits
        with pytest.raises(LintError, match="DL101") as cached:
            _transformer(bad)
        assert emit._rule_set.cache_info().hits == hits + 1
        assert str(cached.value) == str(cold.value)
        assert "DL101" in cached.value.report.codes()
