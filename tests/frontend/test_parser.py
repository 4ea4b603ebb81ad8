"""Tests for the Java-subset parser, including the paper's figures."""

import pytest

from repro.frontend import ir
from repro.frontend.paper_programs import FIGURE_1, FIGURE_5, FIGURE_7
from repro.frontend.parser import ParseError, parse_program


def body_of(program, cls, signature):
    return program.classes[cls].methods[signature].body


class TestClassStructure:
    def test_single_class(self):
        p = parse_program("class A { }")
        assert set(p.classes) == {"A"}
        assert p.classes["A"].superclass is None

    def test_extends(self):
        p = parse_program("class A { } class B extends A { }")
        assert p.classes["B"].superclass == "A"

    def test_fields(self):
        p = parse_program("class A { Object f; A next; }")
        assert p.classes["A"].fields == ["f", "next"]

    def test_duplicate_class_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_program("class A { } class A { }")

    def test_unknown_superclass_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            parse_program("class A extends Nope { }")

    def test_inheritance_cycle_rejected(self):
        with pytest.raises(ir.ProgramError, match="cycle through 'A'"):
            parse_program("class A extends B { } class B extends A { }")

    def test_main_detected(self):
        p = parse_program(
            "class A { public static void main(String[] args) { } }"
        )
        assert p.main_class == "A"
        assert p.main_method.qualified_name == "A.main"

    def test_methods_registered_by_signature(self):
        p = parse_program("class A { void m() { } void m(Object x) { } }")
        assert set(p.classes["A"].methods) == {"m/0", "m/1"}

    def test_static_modifier(self):
        p = parse_program("class A { static void s() { } void i() { } }")
        assert p.classes["A"].methods["s/0"].is_static
        assert not p.classes["A"].methods["i/0"].is_static


class TestStatements:
    def test_local_assign(self):
        p = parse_program("class A { void m(Object y) { Object x = y; } }")
        assert body_of(p, "A", "m/1") == [ir.Assign("A.m/x", "A.m/y")]

    def test_assignment_between_locals(self):
        p = parse_program(
            "class A { void m(Object y) { Object x; x = y; } }"
        )
        assert body_of(p, "A", "m/1") == [ir.Assign("A.m/x", "A.m/y")]

    def test_new_with_label(self):
        p = parse_program(
            "class A { void m() { Object x = new A(); // h1\n } }"
        )
        assert body_of(p, "A", "m/0") == [ir.New("A.m/x", "A", "h1")]

    def test_new_without_label_autogenerates(self):
        p = parse_program("class A { void m() { Object x = new A(); } }")
        (stmt,) = body_of(p, "A", "m/0")
        assert isinstance(stmt, ir.New)
        assert stmt.label == "A.m/new$1"

    def test_field_load(self):
        p = parse_program(
            "class A { Object f; void m(A y) { Object z = y.f; } }"
        )
        assert body_of(p, "A", "m/1") == [ir.Load("A.m/z", "A.m/y", "f")]

    def test_field_store(self):
        p = parse_program(
            "class A { Object f; void m(A y, Object v) { y.f = v; } }"
        )
        assert body_of(p, "A", "m/2") == [ir.Store("A.m/y", "f", "A.m/v")]

    def test_this_field_store_explicit(self):
        p = parse_program(
            "class A { Object f; void m(Object v) { this.f = v; } }"
        )
        assert body_of(p, "A", "m/1") == [ir.Store("A.m/this", "f", "A.m/v")]

    def test_this_field_store_implicit(self):
        p = parse_program(
            "class A { Object f; void m(Object v) { f = v; } }"
        )
        assert body_of(p, "A", "m/1") == [ir.Store("A.m/this", "f", "A.m/v")]

    def test_this_field_load_implicit(self):
        p = parse_program(
            "class A { Object f; void m() { Object v; v = f; } }"
        )
        assert body_of(p, "A", "m/0") == [ir.Load("A.m/v", "A.m/this", "f")]

    def test_return_variable(self):
        p = parse_program("class A { Object m(Object p) { return p; } }")
        assert body_of(p, "A", "m/1") == [ir.Return("A.m/p")]

    def test_return_new_desugars(self):
        p = parse_program(
            "class A { Object m() { return new A(); // m1\n } }"
        )
        assert body_of(p, "A", "m/0") == [
            ir.New("A.m/$t1", "A", "m1"),
            ir.Return("A.m/$t1"),
        ]

    def test_return_void(self):
        p = parse_program("class A { void m() { return; } }")
        assert body_of(p, "A", "m/0") == []

    def test_null_assignment_produces_nothing(self):
        p = parse_program("class A { void m() { Object x = null; } }")
        assert body_of(p, "A", "m/0") == []

    def test_if_flattens_both_branches(self):
        p = parse_program(
            """
            class A { void m(Object a, Object b) {
                Object x;
                if (a == b) { x = a; } else { x = b; }
            } }
            """
        )
        assert body_of(p, "A", "m/2") == [
            ir.Assign("A.m/x", "A.m/a"),
            ir.Assign("A.m/x", "A.m/b"),
        ]

    def test_ellipsis_condition(self):
        p = parse_program(
            "class A { void m(Object a) { Object x; if (...) { x = a; } } }"
        )
        assert body_of(p, "A", "m/1") == [ir.Assign("A.m/x", "A.m/a")]

    def test_while_flattens(self):
        p = parse_program(
            "class A { void m(Object a) { Object x; while (a != null) { x = a; } } }"
        )
        assert body_of(p, "A", "m/1") == [ir.Assign("A.m/x", "A.m/a")]

    def test_nested_blocks(self):
        p = parse_program(
            "class A { void m(Object a) { { Object x = a; } } }"
        )
        assert body_of(p, "A", "m/1") == [ir.Assign("A.m/x", "A.m/a")]


class TestCalls:
    def test_virtual_call_with_result(self):
        p = parse_program(
            "class A { Object id(Object p) { return p; }"
            " void m(A r, Object x) { Object y = r.id(x); // c9\n } }"
        )
        assert ir.VirtualCall(
            "A.m/y", "A.m/r", "id", ("A.m/x",), "c9"
        ) in body_of(p, "A", "m/2")

    def test_bare_virtual_call(self):
        p = parse_program(
            "class A { void go() { } void m(A r) { r.go(); // c1\n } }"
        )
        assert body_of(p, "A", "m/1") == [
            ir.VirtualCall(None, "A.m/r", "go", (), "c1")
        ]

    def test_static_call_through_class_name(self):
        p = parse_program(
            "class A { static Object make() { return null; }"
            " void m() { Object x = A.make(); // s1\n } }"
        )
        assert body_of(p, "A", "m/0") == [
            ir.StaticCall("A.m/x", "A", "make", (), "s1")
        ]

    def test_unqualified_static_call(self):
        p = parse_program(
            "class A { static Object make() { return null; }"
            " static void m() { Object x = make(); // s2\n } }"
        )
        assert body_of(p, "A", "m/0") == [
            ir.StaticCall("A.m/x", "A", "make", (), "s2")
        ]

    def test_unqualified_instance_call_is_virtual_on_this(self):
        p = parse_program(
            "class A { Object id(Object p) { return p; }"
            " Object m(Object q) { Object t = id(q); // c1\n return t; } }"
        )
        assert ir.VirtualCall(
            "A.m/t", "A.m/this", "id", ("A.m/q",), "c1"
        ) in body_of(p, "A", "m/1")

    def test_call_argument_desugars_expression(self):
        p = parse_program(
            "class A { void go(Object o) { }"
            " void m(A r) { r.go(new A()); // c1\n } }"
        )
        body = body_of(p, "A", "m/1")
        assert isinstance(body[0], ir.New)
        assert body[1] == ir.VirtualCall(
            None, "A.m/r", "go", ("A.m/$t1",), "c1"
        )

    def test_unqualified_unknown_in_static_context_rejected(self):
        with pytest.raises(ParseError):
            parse_program("class A { static void m() { nope(); } }")

    def test_this_in_static_context_rejected(self):
        with pytest.raises(ParseError):
            parse_program("class A { static void m() { Object x = this; } }")

    def test_constructor_arguments_rejected(self):
        with pytest.raises(ParseError):
            parse_program("class A { void m(Object v) { Object x = new A(v); } }")


class TestPaperFigures:
    def test_figure1_parses(self):
        p = parse_program(FIGURE_1)
        assert p.main_class == "T"
        assert set(p.classes["T"].methods) == {
            "id/1", "id2/1", "m/0", "main/1",
        }

    def test_figure1_main_site_labels(self):
        p = parse_program(FIGURE_1)
        labels = {
            s.label
            for s in p.classes["T"].methods["main/1"].body
            if isinstance(s, (ir.New, ir.VirtualCall, ir.StaticCall))
        }
        assert labels == {"h1", "h2", "h3", "h4", "h5", "c2", "c3", "c4",
                          "c5", "c6", "c7"}

    def test_figure1_id2_calls_id_on_this(self):
        p = parse_program(FIGURE_1)
        body = p.classes["T"].methods["id2/1"].body
        assert ir.VirtualCall(
            "T.id2/t", "T.id2/this", "id", ("T.id2/q",), "c1"
        ) in body

    def test_figure5_parses_with_static_calls(self):
        p = parse_program(FIGURE_5)
        body = p.classes["T"].methods["main/1"].body
        assert ir.StaticCall("T.main/x", "T", "m", (), "m1") in body
        assert ir.StaticCall("T.main/y", "T", "m", (), "m2") in body

    def test_figure7_parses(self):
        p = parse_program(FIGURE_7)
        body = p.classes["T"].methods["m/0"].body
        assert ir.New("T.m/v", "Object", "h1") in body
        assert ir.Store("T.m/this", "f", "T.m/v") in body
        assert ir.Load("T.m/v", "T.m/this", "f") in body


class TestHierarchyQueries:
    def test_superclass_chain(self):
        p = parse_program(
            "class A { } class B extends A { } class C extends B { }"
        )
        assert p.superclass_chain("C") == ["C", "B", "A"]

    def test_resolve_method_inherited(self):
        p = parse_program(
            "class A { void m() { } } class B extends A { }"
        )
        assert p.resolve_method("B", "m/0").qualified_name == "A.m"

    def test_resolve_method_overridden(self):
        p = parse_program(
            "class A { void m() { } } class B extends A { void m() { } }"
        )
        assert p.resolve_method("B", "m/0").qualified_name == "B.m"

    def test_resolve_field_inherited(self):
        p = parse_program(
            "class A { Object f; } class B extends A { }"
        )
        assert p.resolve_field("B", "f") == "A"

    def test_subclasses_of(self):
        p = parse_program(
            "class A { } class B extends A { } class C { }"
        )
        assert sorted(p.subclasses_of("A")) == ["A", "B"]

    def test_inheritance_cycle_detected(self):
        p = ir.Program()
        p.add_class(ir.ClassDecl("A", "B"))
        p.add_class(ir.ClassDecl("B", "A"))
        with pytest.raises(ValueError, match="cycle"):
            p.superclass_chain("A")
