"""Parser and resolver behaviour, pinned against small handwritten programs."""

import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mclcheck.frontend import (
    AddEscStmt,
    Binary,
    BindEscStmt,
    CallStmt,
    ClassDecl,
    Cmp,
    DestEscStmt,
    DestLocalStmt,
    EnsureStmt,
    EscStmt,
    ForStmt,
    IterationSpaceStmt,
    MemReqStmt,
    MethodDecl,
    NewStmt,
    ParseFailure,
    PathExpr,
    Program,
    RequiresStmt,
    ResolveFailure,
    Tag,
    ThisRef,
    TypeRef,
    Unary,
    VarRef,
    callee_of,
    entry_vars,
    expr_bound,
    expr_poly,
    expr_to_str,
    iter_stmts,
    load,
    parse,
    pretty,
    program_to_json,
    resolve,
    var_expr,
)
from mclcheck.frontend.lexer import tokenize
from mclcheck.frontend.syntax import BINARY_PREC, RELATIONS
from mclcheck.symexpr import Poly, SymExpr

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"

FAMILY = (CORPUS / "family.mcl").read_text()


def codes(exc):
    return [d.code for d in exc.value.diagnostics]


# ---------------------------------------------------------------- parse shape


def test_family_parses_with_expected_classes():
    prog = parse(FAMILY, "family.mcl")
    assert [c.name for c in prog.classes] == ["Logger", "Person", "Family"]
    fam = prog.class_map()["Family"]
    assert [f.name for f in fam.fields] == ["_lastName", "_members", "_size"]
    assert fam.field_map()["_members"].decl_type.is_array


def test_person_ctor_contract():
    prog = load(FAMILY, "family.mcl")
    ctor = prog.class_map()["Person"].ctor()
    assert ctor is not None
    mr = ctor.contract.mem_req
    assert set(mr) == {"Logger"}
    assert mr["Logger"].same_value(SymExpr.of(Poly.const(1)))
    assert ctor.contract.esc == {}
    add_member = prog.method("Family.AddMember")
    assert set(add_member.contract.esc) == {(Tag.this(), "Person")}


def test_empty_class_parses():
    prog = parse("class Empty { }", "t.mcl")
    assert prog.classes[0].name == "Empty"
    assert prog.classes[0].fields == []
    assert prog.classes[0].methods == []


def test_array_alloc_requires_class_element():
    with pytest.raises(ParseFailure) as exc:
        parse(
            "class C { void m() { int[] a; a = new int[3]; } }",
            "t.mcl",
        )
    assert any("class type" in d.message for d in exc.value.diagnostics)


def test_while_is_rejected():
    with pytest.raises(ParseFailure) as exc:
        parse("class C { void m() { while (1 < 2) { } } }", "t.mcl")
    assert exc.value.diagnostics[0].line > 0


def test_parse_errors_carry_position():
    with pytest.raises(ParseFailure) as exc:
        parse("class C {\n  void m( { }\n}", "t.mcl")
    d = exc.value.diagnostics[0]
    assert d.line == 2 and d.col > 0


def test_iteration_space_annotates_its_own_loop():
    src = """
    class K {
        void m(int n) {
            requires(n >= 1);
            for (i = 1 .. n) {
                iteration_space(1 <= i && i <= n);
                for (j = 1 .. i) {
                    iteration_space(1 <= j && j <= i);
                    int x = j;
                }
            }
        }
    }
    """
    prog = load(src, "t.mcl")
    outer = prog.class_map()["K"].methods[0].body[1]
    assert isinstance(outer, ForStmt)
    assert outer.space is not None
    assert [str(c) for c in outer.resolved_space] == ["-i + 1 <= 0", "i - n <= 0"]
    inner = next(s for s in outer.body if isinstance(s, ForStmt))
    # the inner space and header may read the enclosing index
    assert [str(c) for c in inner.resolved_space] == ["-j + 1 <= 0", "-i + j <= 0"]
    assert inner.resolved_range == (Poly.const(1), Poly.var("i"))


def test_header_bounds_give_implicit_space():
    src = """
    class K {
        void m(int n) {
            for (i = 1 .. n) {
                int x = i;
            }
        }
    }
    """
    prog = load(src, "t.mcl")
    loop = prog.class_map()["K"].methods[0].body[0]
    assert loop.space is None and loop.resolved_space is None
    lo, hi = loop.resolved_range
    assert lo.eval({}) == 1
    assert hi.eval({"n": 7}) == 7


def test_a_header_that_reads_the_index_it_shadows_has_no_range():
    # the inner i is not the outer i its header reads, so that header is
    # no polynomial over the indices in scope, and its clauses get flagged
    src = """
    class K {
        void m(int n) {
            for (i = 1 .. n) {
                for (i = 1 .. i) {
                    int x = i;
                }
            }
        }
    }
    """
    outer = load(src, "t.mcl").class_map()["K"].methods[0].body[0]
    inner = outer.body[0]
    assert outer.resolved_range == (Poly.const(1), Poly.var("n"))
    assert inner.resolved_range is None


def test_a_header_reads_only_the_indices_of_loops_with_a_range():
    # j runs over 1 .. x with x a local, so it has no range, and neither
    # has a header that reads it; a deeper header reads the ranged i
    src = """
    class K {
        void m(int n) {
            int x = n;
            for (j = 1 .. x) {
                for (i = 1 .. j) {
                    int y = i;
                }
                for (i = 1 .. n) {
                    for (k = i .. n) {
                        int z = k;
                    }
                }
            }
        }
    }
    """
    outer = load(src, "t.mcl").class_map()["K"].methods[0].body[1]
    assert outer.resolved_range is None
    assert outer.body[0].resolved_range is None
    ranged = outer.body[1]
    assert ranged.resolved_range == (Poly.const(1), Poly.var("n"))
    assert ranged.body[0].resolved_range == (Poly.var("i"), Poly.var("n"))


# ------------------------------------------------------------------- resolve


def test_brothers_binding_resolved():
    prog = load((CORPUS / "brothers.mcl").read_text(), "brothers.mcl")
    m = prog.method("Person.CreateBrothers")
    sib = Tag.user("Sibling")
    assert sib in m.contract.bindings
    assert m.contract.bindings[sib].root == "brother"
    assert (sib, "Person") in m.contract.esc


def test_unbound_user_tag_is_an_error():
    src = """
    class P {
        P() { }
        void m(out P q) {
            esc<P>(Ghost, 1);
            dest_esc(Ghost);
            q = new P();
        }
    }
    """
    with pytest.raises(ResolveFailure) as exc:
        load(src, "t.mcl")
    assert "unknown-tag-binding" in codes(exc)


def test_loop_call_carries_add_esc():
    prog = load(FAMILY, "family.mcl")
    m = prog.method("Family.CreateFamily")
    loop = next(s for s in m.body if isinstance(s, ForStmt))
    call = next(s for s in loop.body if isinstance(s, CallStmt))
    assert call.callee.qname == "Family.AddMember"
    assert [(str(t), str(u)) for t, u in call.add_esc] == [
        ("Return", "This")
    ]


def test_new_sites_are_numbered_per_method():
    prog = load(FAMILY, "family.mcl")
    ctor_site = next(
        s for s in prog.method("Family.Family").body if isinstance(s, NewStmt)
    ).site
    create_site = next(
        s for s in prog.method("Family.CreateFamily").body if isinstance(s, NewStmt)
    ).site
    assert ctor_site == "Family.Family#1"
    assert create_site == "Family.CreateFamily#1"


def test_contract_clause_in_loop_body_rejected():
    src = """
    class C {
        C() { }
        void m(int n) {
            for (i = 1 .. n) {
                memreq<C>(1);
            }
        }
    }
    """
    with pytest.raises(ResolveFailure) as exc:
        load(src, "t.mcl")
    assert "contract-not-at-entry" in codes(exc)


def test_contract_clause_after_code_rejected():
    src = """
    class C {
        C() { }
        void m() {
            int x = 1;
            memreq<C>(1);
        }
    }
    """
    with pytest.raises(ResolveFailure) as exc:
        load(src, "t.mcl")
    assert "contract-not-at-entry" in codes(exc)


def test_dangling_dest_esc_rejected():
    src = """
    class C {
        C() { }
        void m() {
            dest_esc(return);
        }
    }
    """
    with pytest.raises(ResolveFailure) as exc:
        load(src, "t.mcl")
    assert "misplaced-annotation" in codes(exc)


def test_unknown_method_rejected():
    src = """
    class C {
        C() { }
        void m(C c) { c.nope(); }
    }
    """
    with pytest.raises(ResolveFailure) as exc:
        load(src, "t.mcl")
    assert "unknown-method" in codes(exc)


def test_wrong_arity_still_types_every_argument():
    src = """
class C {
    C() { }
    void f(int n, int m) { }
    void g() { this.f(zzz); }
    void h(C c) { c.f(1, 2, yyy); }
}
"""
    with pytest.raises(ResolveFailure) as exc:
        load(src, "t.mcl")
    assert [(d.code, d.line, d.col) for d in exc.value.diagnostics] == [
        ("arity", 5, 16), ("unknown-name", 5, 23),
        ("arity", 6, 19), ("unknown-name", 6, 29),
    ]


def _diagnostics(src):
    with pytest.raises(ResolveFailure) as exc:
        load(src, "t.mcl")
    return [str(d) for d in exc.value.diagnostics]


def test_duplicate_declarations_are_reported():
    assert _diagnostics("class A { }\nclass A { }\n") == [
        "t.mcl:2:1: error: duplicate-class: class A is declared twice"]
    assert _diagnostics("class A {\n    int x;\n    A x;\n}\n") == [
        "t.mcl:3:5: error: duplicate-field: field A.x is declared twice"]
    assert _diagnostics("class P {\n    void g() { }\n    int g() { return 1; }\n}\n") == [
        "t.mcl:3:5: error: duplicate-method: method P.g is declared twice"]
    assert _diagnostics("class P {\n    P() { }\n    P() { }\n}\n") == [
        "t.mcl:3:5: error: duplicate-method: method P.P is declared twice",
        "t.mcl:1:1: error: duplicate-method: class P has more than one constructor"]


def test_a_duplicate_method_resolves_to_its_first_declaration():
    src = """class P {
    void g(int n) { }
    void g(int n, int m) { }
    void f(int n) { this.g(n, n); }
}
"""
    assert _diagnostics(src) == [
        "t.mcl:3:5: error: duplicate-method: method P.g is declared twice",
        "t.mcl:4:21: error: arity: P.f: P.g takes 1 argument(s), got 2"]


def test_a_duplicate_field_resolves_to_its_last_declaration():
    # `a.next` is the int: it may be read as one and passed for an int,
    # and has no field of its own
    src = """class A {
    A next;
    int next;
}

class P {
    void take(int v) { }
    void f(A a) {
        int k = a.next;
        this.take(a.next);
        int j = a.next.next;
    }
}
"""
    assert _diagnostics(src) == [
        "t.mcl:3:5: error: duplicate-field: field A.next is declared twice",
        "t.mcl:11:24: error: unknown-field: P.f: int has no field next"]


def test_out_param_never_assigned():
    src = """
    class P { P() { } }
    class C {
        C() { }
        void m(out P q) { }
    }
    """
    with pytest.raises(ResolveFailure) as exc:
        load(src, "t.mcl")
    assert "out-never-assigned" in codes(exc)


def test_loop_var_assignment_rejected():
    src = """
    class C {
        C() { }
        void m(int n) {
            for (i = 1 .. n) { i = 0; }
        }
    }
    """
    with pytest.raises(ResolveFailure) as exc:
        load(src, "t.mcl")
    assert "loop-var-assigned" in codes(exc)


def test_missing_return_rejected():
    src = """
    class C {
        C() { }
        int m(int n) {
            if (n > 0) { return 1; }
        }
    }
    """
    with pytest.raises(ResolveFailure) as exc:
        load(src, "t.mcl")
    assert "missing-return" in codes(exc)


def test_requires_neq_rejected():
    src = """
    class C {
        C() { }
        void m(int n) { requires(n != 3); }
    }
    """
    with pytest.raises(ResolveFailure) as exc:
        load(src, "t.mcl")
    assert "requires-neq" in codes(exc)


def test_dead_code_warns_but_resolves():
    src = """
    class C {
        C() { }
        int m() { return 1; int x = 2; }
    }
    """
    prog = parse(src, "t.mcl")
    diags = resolve(prog)
    assert any(d.code == "dead-code" and d.severity == "warning" for d in diags)


# ------------------------------------------------------- printing / identity


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.mcl")), ids=lambda p: p.stem)
def test_corpus_round_trips(path):
    prog = load(path.read_text(), path.name)
    text = pretty(prog)
    again = load(text, path.name)
    assert program_to_json(again) == program_to_json(prog)
    # printing is a fixpoint
    assert pretty(again) == text


def test_precedence_survives_round_trip():
    src = """
    class C {
        C() { }
        int m(int a, int b, int c) {
            int r;
            r = (a + b) * c - a * (b - c);
            r = max(a, b + 1) + 2;
            return r;
        }
    }
    """
    prog = load(src, "t.mcl")
    body = prog.class_map()["C"].methods[1].body
    rhs = body[1].value
    assert isinstance(rhs, Binary) and rhs.op == "-"
    again = load(pretty(prog), "t.mcl")
    assert program_to_json(again) == program_to_json(prog)


# Source expressions over every binary operator, unary - and !, max,
# parentheses, and field, index and .length reads, spaced as the printer
# spaces them.  A relation is never chained: between two relations there is
# always an && or a ||.
_NAMES = st.sampled_from(["a", "b", "c"])


def _unchained(first: str, rest: list[tuple[str, str]]) -> str:
    text, open_relation = first, False
    for op, operand in rest:
        if op in RELATIONS and open_relation:
            op = "+"
        open_relation = op in RELATIONS or open_relation and op not in ("&&", "||")
        text += f" {op} {operand}"
    return text


def _chains(atoms, ops=sorted(BINARY_PREC), most=4):
    return st.builds(_unchained, atoms, st.lists(st.tuples(st.sampled_from(ops), atoms),
                                                 max_size=most))


# an atom has no binary operator outside parentheses
_ATOMS = st.recursive(
    st.one_of(_NAMES, st.integers(0, 99).map(str), st.builds("{}.f".format, _NAMES),
              st.builds("{}.length".format, _NAMES)),
    lambda atoms: st.one_of(
        st.builds("-{}".format, atoms),
        st.builds("!{}".format, atoms),
        st.builds("({})".format, _chains(atoms)),
        st.builds("max({}, {})".format, _chains(atoms), _chains(atoms)),
        st.builds("({}).f".format, _chains(atoms)),
        st.builds("{}[{}]".format, _NAMES, _chains(atoms, ["+", "-", "*", "/"], 2)),
    ),
    max_leaves=12)


def _returned(text: str):
    return parse(f"class C {{\n    int m() {{\n        return {text};\n    }}\n}}\n", "t.mcl")


@settings(max_examples=200, deadline=None)
@given(_chains(_ATOMS))
def test_every_operator_survives_round_trip(text):
    prog = _returned(text)
    # the printer adds parentheses only where the tree disagrees with the
    # operator table, so a tree parsed by that table prints as its source
    assert expr_to_str(prog.classes[0].methods[0].body[0].value) == text
    printed = pretty(prog)
    again = parse(printed, "t.mcl")
    assert again == prog
    assert program_to_json(again) == program_to_json(prog)
    assert pretty(again) == printed


# Keyword statements built as trees from tags, class and array types, paths,
# comparison lists and expressions; expressions come from parsed source, so
# each is the tree the parser gives for its printed form.
def _expr(text: str):
    return _returned(text).classes[0].methods[0].body[0].value


_LEAVES = st.one_of(_NAMES, st.integers(0, 99).map(str), st.builds("{}.length".format, _NAMES),
                    st.builds("max({}, -{})".format, _NAMES, _NAMES),
                    st.builds("({} - {})".format, _NAMES, _NAMES))
_INTS = _chains(_LEAVES, ["+", "-", "*", "/"], 2).map(_expr)
_EXPRS = _chains(_LEAVES, most=2).map(_expr)
_TAGS = st.one_of(st.just(Tag.ret()), st.just(Tag.this()),
                  st.sampled_from(["t", "Owner"]).map(Tag.user))
_TYPES = st.builds(TypeRef, st.sampled_from(["A", "object"]), st.booleans())
_PATHS = st.builds(PathExpr, st.sampled_from(["this", "return", "p"]),
                   st.lists(st.sampled_from(["f", "next"]), max_size=2).map(tuple))
_CMPS = st.lists(st.builds(Cmp, _INTS, st.sampled_from(RELATIONS), _INTS),
                 min_size=1, max_size=3)
_KEYWORD_STMTS = st.one_of(
    st.builds(RequiresStmt, _CMPS),
    st.builds(IterationSpaceStmt, _CMPS),
    st.builds(MemReqStmt, _TYPES, _INTS),
    st.builds(EscStmt, _TYPES, _TAGS, _INTS),
    st.builds(BindEscStmt, _TAGS, _PATHS),
    st.builds(EnsureStmt, _EXPRS),
    st.builds(DestEscStmt, _TAGS),
    st.builds(DestLocalStmt),
    st.builds(AddEscStmt, _TAGS, _TAGS),
)
# allocations and calls with the annotations the parser attaches to them
_ADD_ESC = st.lists(st.tuples(_TAGS, _TAGS), max_size=2)
_NEWS = st.one_of(
    st.builds(NewStmt, st.just(VarRef("x")), st.sampled_from([None, TypeRef("A")]),
              st.just(TypeRef("A")), st.lists(_EXPRS, max_size=2),
              dest_esc=st.none() | _TAGS, dest_local=st.booleans(), add_esc=_ADD_ESC),
    st.builds(NewStmt, st.just(VarRef("x")), st.sampled_from([None, TypeRef("A", True)]),
              st.just(TypeRef("A", True)), st.just([]), _INTS,
              dest_esc=st.none() | _TAGS, dest_local=st.booleans(), add_esc=_ADD_ESC),
)
_CALLS = st.builds(
    lambda target, receiver, args, add_esc: CallStmt(*target, receiver, "g", args, add_esc),
    st.sampled_from([(None, None), (VarRef("x"), None), (VarRef("x"), TypeRef("A"))]),
    st.sampled_from([None, ThisRef(), VarRef("o")]), st.lists(_EXPRS, max_size=2), _ADD_ESC)
_LOOPS = st.builds(ForStmt, st.just("i"), _INTS, _INTS, st.lists(_NEWS | _CALLS, max_size=1),
                   st.none() | _CMPS)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(_KEYWORD_STMTS, _NEWS, _CALLS, _LOOPS), min_size=1, max_size=6))
def test_keyword_statements_print_as_they_parse(stmts):
    # one method per statement, so that no annotation precedes another
    # statement the parser would attach it to
    methods = [MethodDecl(f"m{i}", [], TypeRef("void"), [s], cls="C")
               for i, s in enumerate(stmts)]
    prog = Program([ClassDecl("C", [], methods)])
    assert program_to_json(parse(pretty(prog), "t.mcl")) == program_to_json(prog)


@pytest.mark.parametrize("text, col, found", [
    ("a < b < c", 22, "<"),
    ("a && b < c < d", 27, "<"),
    ("a < b + c < d", 26, "<"),
    ("a == b != c", 23, "!="),
])
def test_chained_relations_are_syntax_errors(text, col, found):
    with pytest.raises(ParseFailure) as exc:
        _returned(text)
    d = exc.value.diagnostics[0]
    assert (d.code, d.line, d.col) == ("SyntaxError", 3, col)
    assert d.message == f"expected ';', found {found!r}"


def _grouped(e) -> str:
    if isinstance(e, Binary):
        return f"({_grouped(e.left)} {e.op} {_grouped(e.right)})"
    if isinstance(e, Unary):
        return f"{e.op}{_grouped(e.operand)}"
    return expr_to_str(e)


@pytest.mark.parametrize("text, grouped", [
    ("a - b * c / d + e", "((a - ((b * c) / d)) + e)"),
    ("-a * b - !c", "((-a * b) - !c)"),
    ("a + 1 < b * 2 && !c || a == b", "((((a + 1) < (b * 2)) && !c) || (a == b))"),
    ("a || b && c >= d - e", "(a || (b && (c >= (d - e))))"),
    ("a != b && c <= d && e > f", "(((a != b) && (c <= d)) && (e > f))"),
])
def test_operators_group_by_level_and_to_the_left(text, grouped):
    assert _grouped(_returned(text).classes[0].methods[0].body[0].value) == grouped


def test_a_built_relation_under_a_relation_prints_in_parentheses():
    a, b, c = VarRef("a"), VarRef("b"), VarRef("c")
    assert expr_to_str(Binary("<", Binary("==", a, b), c)) == "(a == b) < c"
    assert expr_to_str(Binary("<", a, Binary("==", b, c))) == "a < (b == c)"


def test_a_non_decimal_digit_is_a_lex_error():
    # str.isdigit accepts "²", but int() does not: "1²" was one int token
    with pytest.raises(ParseFailure) as exc:
        tokenize("int x = 1²;", "t.mcl")
    d = exc.value.diagnostics[0]
    assert (d.code, d.line, d.col, d.message) == ("LexError", 1, 10, "unexpected character '²'")


def test_a_string_literal_cannot_span_a_line():
    # a backslash does not escape the newline: the literal is unterminated
    # at its opening quote, as with a bare newline
    for text in ('a "x\\\ny" b', 'a "x\ny" b'):
        with pytest.raises(ParseFailure) as exc:
            tokenize(text, "t.mcl")
        d = exc.value.diagnostics[0]
        assert (d.code, d.line, d.col) == ("LexError", 1, 3)
        assert d.message == "unterminated string literal"


def test_serialization_is_stable():
    prog1 = load(FAMILY, "family.mcl")
    prog2 = load(FAMILY, "family.mcl")
    assert program_to_json(prog1) == program_to_json(prog2)


def test_annotations_print_before_their_statement():
    text = pretty(load((CORPUS / "brothers.mcl").read_text(), "brothers.mcl"))
    lines = [ln.strip() for ln in text.splitlines()]
    i = lines.index("dest_esc(Sibling);")
    assert lines[i + 1].startswith("brother = new Person(")


# ---------------------------------------------------------------- traversal


WALK = """
class A {
    A() { }
    void f() { }
    void m(int n) {
        A a = new A();
        if (n > 0) {
            f();
        } else {
            for (i = 1 .. n) {
                A b = new A();
            }
        }
        A[] arr = new A[n];
        a.f();
    }
}
"""


def test_iter_stmts_is_preorder_through_both_arms_and_loops():
    m = load(WALK, "walk").method("A.m")
    kinds = [type(s).__name__ for s in iter_stmts(m.body)]
    assert kinds == ["NewStmt", "IfStmt", "CallStmt", "ForStmt", "NewStmt",
                     "NewStmt", "CallStmt"]
    shallow = [type(s).__name__ for s in iter_stmts(m.body, loops=False)]
    assert shallow == ["NewStmt", "IfStmt", "CallStmt", "ForStmt", "NewStmt",
                       "CallStmt"]


def test_callee_of_names_calls_and_constructors_only():
    prog = load(WALK, "walk")
    ctor = prog.class_map()["A"].ctor()
    f = prog.method("A.f")
    got = [callee_of(s) for s in iter_stmts(prog.method("A.m").body)]
    assert got == [ctor, None, f, None, ctor, None, f]
    assert all(c is None or c is ctor or c is f for c in got)


def test_callee_of_is_none_for_a_class_without_constructor():
    prog = load("class B { } class A { void m() { B b = new B(); } }", "noctor")
    new = prog.method("A.m").body[0]
    assert isinstance(new, NewStmt)
    assert callee_of(new) is None


# ------------------------------------------------ contract-expression errors


CONTRACT_EXPR = """class A {
}

class P {
    bool q;
    int k;

    void f(int n, string s, bool b, int[] xs) {
        %s
        int x = n;
        int y = n;
        %s
    }
}
"""

# (clause before the body, statement after it) -> every error, in order, as
# (code, message, line, col)
CONTRACT_EXPR_ERRORS = {
    "local": (
        ("memreq<A>(x);", ""),
        [
            ("bad-contract-expr",
             "P.f: memreq may not mention x; only entry-constant integers are allowed",
             9, 19),
        ]),
    "nonint_field": (
        ("memreq<A>(this.q);", ""),
        [
            ("bad-contract-expr",
             "P.f: memreq may not mention this.q",
             9, 24),
        ]),
    "string_length": (
        ("memreq<A>(s.length);", ""),
        [
            ("bad-contract-expr",
             "P.f: memreq may not take this length",
             9, 21),
        ]),
    "divide_by_var": (
        ("memreq<A>(n / n);", ""),
        [
            ("bad-divisor",
             "P.f: memreq may only divide by a nonzero constant",
             9, 21),
        ]),
    "divide_by_zero": (
        ("memreq<A>(n / 0);", ""),
        [
            ("bad-divisor",
             "P.f: memreq may only divide by a nonzero constant",
             9, 21),
        ]),
    "bad_dividend_zero_divisor": (
        ("memreq<A>(x / 0);", ""),
        [
            ("bad-contract-expr",
             "P.f: memreq may not mention x; only entry-constant integers are allowed",
             9, 19),
        ]),
    "both_operands_of_a_division": (
        ("memreq<A>(x / y);", ""),
        [
            ("bad-contract-expr",
             "P.f: memreq may not mention x; only entry-constant integers are allowed",
             9, 19),
            ("bad-contract-expr",
             "P.f: memreq may not mention y; only entry-constant integers are allowed",
             9, 23),
        ]),
    "not": (
        ("memreq<A>(!b);", ""),
        [
            ("bad-contract-expr",
             "P.f: memreq must be a polynomial expression",
             9, 19),
        ]),
    "max_arm": (
        ("memreq<A>(max(n, x));", ""),
        [
            ("bad-contract-expr",
             "P.f: memreq may not mention x; only entry-constant integers are allowed",
             9, 26),
        ]),
    "max_subtracted": (
        ("memreq<A>(n - max(n, 1));", ""),
        [
            ("bad-contract-expr",
             "P.f: memreq: max may not be subtracted",
             9, 21),
        ]),
    "max_subtracted_in_esc": (
        ("esc<A>(this, n - max(n, 1));", ""),
        [
            ("bad-contract-expr",
             "P.f: esc: max may not be subtracted",
             9, 24),
        ]),
    "max_scaled": (
        ("memreq<A>(2 * max(n, 1));", ""),
        [
            ("bad-contract-expr",
             "P.f: memreq: max may only be combined additively",
             9, 21),
        ]),
    "max_negated": (
        ("memreq<A>(-max(n, 1));", ""),
        [
            ("bad-contract-expr",
             "P.f: memreq: max may only be combined additively",
             9, 19),
        ]),
    "max_in_requires": (
        ("requires(max(n, 1) >= 0);", ""),
        [
            ("bad-contract-expr",
             "P.f: requires must be a polynomial expression",
             9, 18),
        ]),
    "max_in_iteration_space": (
        ("", "for (i = 1 .. n) { iteration_space(1 <= i && i <= max(n, 1)); int z = i; }"),
        [
            ("bad-contract-expr",
             "P.f: iteration_space must be a polynomial expression",
             12, 59),
        ]),
    # a bound's operands are read before its operator is judged, as every
    # contract expression's are: each bad name is reported, then the max
    "bad_name_and_scaled_max": (
        ("memreq<A>(x * max(n, 1));", ""),
        [
            ("bad-contract-expr",
             "P.f: memreq may not mention x; only entry-constant integers are allowed",
             9, 19),
            ("bad-contract-expr",
             "P.f: memreq: max may only be combined additively",
             9, 21),
        ]),
    "bad_names_and_subtracted_max": (
        ("memreq<A>(x - max(n, y));", ""),
        [
            ("bad-contract-expr",
             "P.f: memreq may not mention x; only entry-constant integers are allowed",
             9, 19),
            ("bad-contract-expr",
             "P.f: memreq may not mention y; only entry-constant integers are allowed",
             9, 30),
            ("bad-contract-expr",
             "P.f: memreq: max may not be subtracted",
             9, 21),
        ]),
    "scaled_max_subtracted": (
        ("memreq<A>(n - 2 * max(n, 1));", ""),
        [
            ("bad-contract-expr",
             "P.f: memreq: max may only be combined additively",
             9, 25),
        ]),
    "neq_in_requires": (
        ("requires(n != 0);", ""),
        [
            ("requires-neq",
             "P.f: requires may not use !=",
             9, 20),
        ]),
    "neq_in_iteration_space": (
        ("", "for (i = 1 .. n) { iteration_space(1 <= i && i != n); int z = i; }"),
        [
            ("requires-neq",
             "P.f: iteration_space may not use !=",
             12, 56),
        ]),
    "requires": (
        ("requires(x >= 0);", ""),
        [
            ("bad-contract-expr",
             "P.f: requires may not mention x; only entry-constant integers are allowed",
             9, 18),
        ]),
    "esc": (
        ("esc<A>(this, x);", ""),
        [
            ("bad-contract-expr",
             "P.f: esc may not mention x; only entry-constant integers are allowed",
             9, 22),
        ]),
    "iteration_space": (
        ("", "for (i = 1 .. n) { iteration_space(1 <= i && i <= x); int z = i; }"),
        [
            ("bad-contract-expr",
             "P.f: iteration_space may not mention x; only entry-constant integers are allowed",
             12, 59),
        ]),
    "three_bad": (
        ("memreq<A>(x + this.q * s.length);", ""),
        [
            ("bad-contract-expr",
             "P.f: memreq may not mention x; only entry-constant integers are allowed",
             9, 19),
            ("bad-contract-expr",
             "P.f: memreq may not mention this.q",
             9, 28),
            ("bad-contract-expr",
             "P.f: memreq may not take this length",
             9, 34),
        ]),
    "quiet_loop_header": (
        ("memreq<A>(y);", "for (i = 1 .. x) { int z = i; }"),
        [
            ("bad-contract-expr",
             "P.f: memreq may not mention y; only entry-constant integers are allowed",
             9, 19),
        ]),
}


@pytest.mark.parametrize("case", sorted(CONTRACT_EXPR_ERRORS))
def test_contract_expression_errors_are_pinned(case):
    (head, tail), want = CONTRACT_EXPR_ERRORS[case]
    with pytest.raises(ResolveFailure) as exc:
        load(CONTRACT_EXPR % (head, tail), "t.mcl")
    got = [(d.code, d.message, d.line, d.col) for d in exc.value.diagnostics
           if d.severity == "error"]
    assert got == want



# ------------------------------------------------------- contract variables


VARS = """
class A {
}

class V {
    int k;
    int[] cells;
    A other;
    bool on;

    void f(int n, int[] xs, out int r, out A[] ys, A a, bool b, string s) {
        r = n;
        ys = null;
    }
}
"""


def test_entry_vars_are_the_int_and_array_length_inputs():
    prog = load(VARS, "vars")
    names = entry_vars(prog.method("V.f"), prog.class_map()["V"])
    assert names == {"n", "xs.length", "this.k", "this.cells.length"}


@pytest.mark.parametrize("name", ["n", "xs.length", "this.k", "this.cells.length"])
def test_var_expr_reads_back_through_expr_poly(name):
    e = var_expr(name)
    assert expr_to_str(e) == name
    assert expr_poly(e, {name}) == Poly.var(name)
    assert expr_poly(e, set()) is None


def _bound(text):
    prog = parse(f"class A {{}} class P {{ void f(int n) {{ memreq<A>({text}); }} }}")
    return prog.method("P.f").body[0].expr


N = Poly.var("n")


@pytest.mark.parametrize("text, alts", [
    ("n * n + 1", {N * N + 1}),
    ("max(n, 1) + 1", {N + 1, Poly.const(2)}),
    ("1 + max(max(n, 2), n * n) - n", {Poly.const(1), Poly.const(3) - N, N * N - N + 1}),
    ("max(n, 3) + max(n, 3)", {N + N, N + 3, Poly.const(6)}),
    ("max(n, x)", None),
    ("max(max(n, x), 1)", None),
    ("max(n, 1) + x", None),
    ("n - max(n, 1)", None),
    ("-max(n, 1)", None),
    ("max(n, 1) / 2", None),
])
def test_expr_bound_reads_a_max_only_where_every_part_reads(text, alts):
    got = expr_bound(_bound(text), {"n"})
    assert (None if got is None else set(got.alts)) == alts
    if "max" in text:  # a max is no polynomial
        assert expr_poly(_bound(text), {"n"}) is None


def test_expr_poly_reports_only_when_asked():
    heard = []
    bad = var_expr("x")
    assert expr_poly(bad, {"n"}) is None
    assert expr_poly(bad, {"n"}, report=lambda *a: heard.append(a)) is None
    assert [(code, msg) for code, msg, _ in heard] == [
        ("bad-contract-expr",
         "may not mention x; only entry-constant integers are allowed")]
