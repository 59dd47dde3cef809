"""Counter insertion, accounting updates, and the erase round trip."""

import json
import pathlib

import pytest

from mclcheck import summary as S
from mclcheck.frontend import (
    EnsureStmt,
    ForStmt,
    IfStmt,
    IterationSpaceStmt,
    LocalDecl,
    ReturnStmt,
    callee_of,
    expr_to_str,
    iter_stmts,
    load,
    obligations,
    pretty,
    program_to_json,
)
from mclcheck.instrument import (
    KIND_ARG,
    KIND_CALLDIFF,
    KIND_ESC,
    KIND_MAXCALLS,
    KIND_MEMREQ,
    KIND_SUMCALLS,
    erase,
    instrument,
)
from mclcheck.oracle import validate

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"
ALL = sorted(p.stem for p in CORPUS.glob("*.mcl"))

KNOWN_KINDS = {KIND_MEMREQ, KIND_ESC, KIND_MAXCALLS, KIND_SUMCALLS, KIND_CALLDIFF}


def load_corpus(name):
    return load((CORPUS / f"{name}.mcl").read_text(), f"{name}.mcl")


def instrumented(name):
    return instrument(load_corpus(name))


def mode_for(name):
    return S.MODE_OBJECT if "object" in name else S.MODE_TYPE


def method_block(text, header):
    """Slice one method's lines out of a pretty-printed program."""
    lines = text.splitlines()
    start = next(i for i, l in enumerate(lines) if header in l)
    depth = 0
    out = []
    for line in lines[start:]:
        out.append(line)
        depth += line.count("{") - line.count("}")
        if depth == 0 and len(out) > 1:
            break
    return "\n".join(out)


def assert_in_order(text, *needles):
    pos = 0
    for needle in needles:
        hit = text.find(needle, pos)
        assert hit >= 0, f"missing or out of order: {needle!r}"
        pos = hit + len(needle)


# ------------------------------------------------------------ callpair shape


def test_callpair_m_counter_sequence():
    # The straight-line method with two calls is the fiducial output: every
    # bookkeeping statement is pinned, in order, with exact rendering.
    text = method_block(pretty(instrumented("callpair").program), "A m(int n")
    assert_in_order(
        text,
        "int m_MemReq_A = 0;",
        "int m_Esc_Return_A = 0;",
        "int m_Esc_Param_A = 0;",
        "m_MemReq_A += 1;",
        "A a1 = new A();",
        "m_MemReq_A += 1;",
        "m_Esc_Param_A += 1;",
        "dest_esc(Param);",
        "p2 = new A();",
        "int maxCalls_A = 0;",
        "int sumCalls_A = 0;",
        "int call1_diff_A = (n + 1) - 1;",
        "maxCalls_A = max(maxCalls_A, call1_diff_A);",
        "sumCalls_A += 1;",
        "A a3 = m1(n);",
        "int call2_diff_A = n - 2;",
        "maxCalls_A = max(maxCalls_A, call2_diff_A);",
        "sumCalls_A += 2;",
        "m_Esc_Return_A += 2;",
        "add_esc(return, return);",
        "A a4 = m2(n);",
        "m_MemReq_A += maxCalls_A + sumCalls_A;",
        "return a4;",
    )
    # one max/sum pair for the whole method, declared once
    assert text.count("int maxCalls_A = 0;") == 1
    assert text.count("int sumCalls_A = 0;") == 1
    assert text.count("m_MemReq_A += maxCalls_A + sumCalls_A;") == 1


def test_callpair_m_ensures_exact():
    inst = instrumented("callpair")
    m = inst.program.method("A.m")
    ensures = [s for s in m.body if isinstance(s, EnsureStmt)]
    rendered = {expr_to_str(s.cond) for s in ensures}
    assert rendered == {
        "m_MemReq_A <= n + 5",
        "m_Esc_Return_A <= 2",
        "m_Esc_Param_A <= 1",
    }
    assert len(ensures) == 3


def test_callpair_body_layout():
    # contract prefix, then ensures, then counter initializers, then the body
    inst = instrumented("callpair")
    body = inst.program.method("A.m").body
    kinds = [type(s).__name__ for s in body]
    first_ensure = kinds.index("EnsureStmt")
    last_ensure = len(kinds) - 1 - kinds[::-1].index("EnsureStmt")
    assert kinds[first_ensure:last_ensure + 1] == ["EnsureStmt"] * 3
    inits = body[last_ensure + 1:last_ensure + 4]
    assert [s.name for s in inits if isinstance(s, LocalDecl)] == [
        "m_MemReq_A", "m_Esc_Return_A", "m_Esc_Param_A",
    ]
    assert all(not isinstance(s, EnsureStmt) for s in body[:first_ensure])


def test_callpair_counter_index():
    idx = instrumented("callpair").counter_index
    m = {name: info for (qname, name), info in idx.items() if qname == "A.m"}
    assert m["m_MemReq_A"].kind == KIND_MEMREQ
    assert m["m_MemReq_A"].cls == "A"
    assert m["m_MemReq_A"].method == "A.m"
    assert m["m_Esc_Return_A"].kind == KIND_ESC
    assert m["m_Esc_Return_A"].tag == "Return"
    assert m["m_Esc_Param_A"].tag == "Param"
    assert m["maxCalls_A"].kind == KIND_MAXCALLS
    assert m["sumCalls_A"].kind == KIND_SUMCALLS
    assert m["call1_diff_A"].kind == KIND_CALLDIFF
    assert m["call1_diff_A"].site == "A.m@1"
    assert m["call2_diff_A"].site == "A.m@2"


def test_callpair_m1_loop_needs_no_pair():
    # the loop body only allocates, so no max/sum bookkeeping appears
    text = method_block(pretty(instrumented("callpair").program), "A m1(int m)")
    assert "maxCall" not in text
    assert "call_diff" not in text
    assert_in_order(
        text,
        "for (i = 1 .. m) {",
        "m1_MemReq_A += 1;",
        "A t = new A();",
        "}",
        "return r;",
    )


# ------------------------------------------------------------ loop shape


def test_family_loop_pair_placement():
    # the loop's calls update the method's one pair per key, declared before
    # the loop and flushed once, before the return
    text = method_block(
        pretty(instrumented("family").program), "Family CreateFamily")
    assert_in_order(
        text,
        "int maxCalls_Person = 0;",
        "int sumCalls_Person = 0;",
        "int maxCalls_Logger = 0;",
        "int sumCalls_Logger = 0;",
        "for (i = 1 .. firstNames.length) {",
        "int call_diff_Person = 1 - 1;",
        "maxCalls_Person = max(maxCalls_Person, call_diff_Person);",
        "sumCalls_Person += 1;",
        "CreateFamily_Esc_Return_Person += 1;",
        "int call_diff_Logger = 1 - 0;",
        "maxCalls_Logger = max(maxCalls_Logger, call_diff_Logger);",
        "sumCalls_Logger += 0;",
        "family.AddMember(firstNames[i - 1]);",
        "}",
        "CreateFamily_MemReq_Person_arr += maxCalls_Person_arr + sumCalls_Person_arr;",
        "CreateFamily_MemReq_Person += maxCalls_Person + sumCalls_Person;",
        "CreateFamily_MemReq_Logger += maxCalls_Logger + sumCalls_Logger;",
        "return family;",
    )
    assert text.count("CreateFamily_MemReq_Person +=") == 1


def test_family_ctor_site_contributes_before_loop():
    # the constructor call is a call site too: it gets the method-level pair
    text = method_block(
        pretty(instrumented("family").program), "Family CreateFamily")
    assert_in_order(
        text,
        "int maxCalls_Person_arr = 0;",
        "int sumCalls_Person_arr = 0;",
        "int call_diff_Person_arr = firstNames.length - firstNames.length;",
        "sumCalls_Person_arr += firstNames.length;",
        "CreateFamily_Esc_Return_Person_arr += firstNames.length;",
        "Family family = new Family(lastName, firstNames.length);",
    )


def test_bigfamily_nested_loops_share_the_method_pair():
    # nested loops: the calls of the inner loop update the method's pair,
    # declared before the outer loop, and nothing is flushed after a loop
    text = method_block(
        pretty(instrumented("bigfamily").program), "Family CreateBigFamily")
    assert_in_order(
        text,
        "int maxCalls_Person = 0;",
        "int sumCalls_Person = 0;",
        "int maxCalls_Logger = 0;",
        "int sumCalls_Logger = 0;",
        "for (i = 1 .. n) {",
        "iteration_space(1 <= i && i <= n);",
        "for (j = 1 .. i) {",
        "iteration_space(1 <= j && j <= i);",
        "int call_diff_Person = 1 - 1;",
        "maxCalls_Person = max(maxCalls_Person, call_diff_Person);",
        "sumCalls_Person += 1;",
        "CreateBigFamily_Esc_Return_Person += 1;",
        "int call_diff_Logger = 1 - 0;",
        "maxCalls_Logger = max(maxCalls_Logger, call_diff_Logger);",
        "sumCalls_Logger += 0;",
        "family.AddMember(\"John\");",
        "}",
        "}",
        "CreateBigFamily_MemReq_Person_arr += maxCalls_Person_arr + sumCalls_Person_arr;",
        "CreateBigFamily_MemReq_Person += maxCalls_Person + sumCalls_Person;",
        "CreateBigFamily_MemReq_Logger += maxCalls_Logger + sumCalls_Logger;",
        "return family;",
    )
    for key in ("Person", "Logger"):
        assert text.count(f"int maxCalls_{key} = 0;") == 1
        assert text.count(f"CreateBigFamily_MemReq_{key} +=") == 1


def test_iteration_space_survives_instrumentation():
    # the space annotation lives on the loop node itself; instrumentation
    # must keep it intact and never push a stray statement form into bodies
    prog = instrumented("bigfamily").program

    def loops(stmts):
        for s in stmts:
            if isinstance(s, ForStmt):
                yield s
                yield from loops(s.body)
            elif isinstance(s, IfStmt):
                yield from loops(s.then_body)
                yield from loops(s.else_body)

    m = prog.method("Family.CreateBigFamily")
    found = list(loops(m.body))
    assert len(found) == 2
    for loop in found:
        assert loop.space is not None
        assert not any(isinstance(s, IterationSpaceStmt) for s in loop.body)


def test_raggedstore_length_allocations_counted_inside_loop():
    text = method_block(pretty(instrumented("raggedstore").program), "void grow")
    assert_in_order(
        text,
        "for (i = 1 .. n) {",
        "grow_MemReq_Cell_arr += i;",
        "grow_Esc_This_Cell_arr += i;",
        "Cell[] wider = new Cell[i];",
        "}",
    )
    assert "maxCall" not in text


# ------------------------------------------------------------ branch returns


def test_listbuild_flushes_before_every_return():
    text = method_block(pretty(instrumented("listbuild").program), "Node build")
    assert text.count("build_MemReq_Node += maxCalls_Node + sumCalls_Node;") == 2
    assert_in_order(
        text,
        "int maxCalls_Node = 0;",
        "int sumCalls_Node = 0;",
        "if (n > 0) {",
        "int call_diff_Node = (n - 1) - (n - 1);",
        "sumCalls_Node += n - 1;",
        "build_Esc_Return_Node += n - 1;",
        "Node tail = build(n - 1);",
        "build_MemReq_Node += maxCalls_Node + sumCalls_Node;",
        "return head;",
        "}",
        "build_MemReq_Node += maxCalls_Node + sumCalls_Node;",
        "return null;",
    )
    # no dangling flush after the final return
    body = instrumented("listbuild").program.method("Node.build").body
    assert isinstance(body[-1], ReturnStmt)


def test_pairs_hoisted_when_first_call_sits_in_a_branch():
    # the pair declaration must dominate both the branch and the final flush
    text = method_block(pretty(instrumented("listbuild").program), "Node build")
    assert text.index("int maxCalls_Node = 0;") < text.index("if (n > 0)")


# ------------------------------------------------------------ object mode


def test_object_mode_collapses_call_bookkeeping():
    text = pretty(instrumented("family_object").program)
    create = method_block(text, "Family CreateFamily")
    assert_in_order(
        create,
        "ensure(CreateFamily_MemReq_object <= 2 * firstNames.length + 2);",
        "ensure(CreateFamily_Esc_Return_object <= 2 * firstNames.length + 1);",
        "int CreateFamily_MemReq_object = 0;",
        "int CreateFamily_Esc_Return_object = 0;",
        "int call1_diff_object = firstNames.length - firstNames.length;",
        "sumCalls_object += firstNames.length;",
        "CreateFamily_Esc_Return_object += firstNames.length;",
        "Family family = new Family(lastName, firstNames.length);",
        "for (i = 1 .. firstNames.length) {",
        "int call2_diff_object = 2 - 1;",
        "maxCalls_object = max(maxCalls_object, call2_diff_object);",
        "sumCalls_object += 1;",
        "}",
        "CreateFamily_MemReq_object += maxCalls_object + sumCalls_object;",
        "return family;",
    )
    # one pair for the constructor call and the loop's calls, flushed once
    assert create.count("int maxCalls_object = 0;") == 1
    assert create.count("CreateFamily_MemReq_object +=") == 2  # the new Family, the flush
    # no per-type counters leak into the collapsed method
    assert "CreateFamily_MemReq_Family" not in create
    assert "CreateFamily_MemReq_Person" not in create
    # methods with per-type contracts in the same program stay per-type
    add = method_block(text, "void AddMember")
    assert "int call_diff_Logger = 1 - 0;" in add
    assert "_object" not in add


# a method that bounds every class together and one class on its own
OBJECT_AND_CLASS = """\
class A {
}

class P {
%s
    void f(int n) {
        requires(n >= 0);
        memreq<object>(100);
        memreq<A>(0);
%s
    }
}
"""
# n allocations of A, in f itself or in a callee g
LOOP_OF_NEW = """\
        for (i = 1 .. n) {
            A a = new A();
        }"""
CALLEE = """\
    void g(int n) {
        requires(n >= 0);
        memreq<A>(n);
%s
    }
""" % LOOP_OF_NEW


def f_failures(program):
    return [(f.point, f.failure.cond) for f in validate(program, hi=1).ensure_failures
            if f.failure.method == "P.f"]


def test_object_mode_keeps_the_counters_of_declared_classes():
    inst = instrument(load(OBJECT_AND_CLASS % ("", LOOP_OF_NEW), "m"))
    assert method_block(pretty(inst.program), "void f") == """\
    void f(int n) {
        requires(n >= 0);
        memreq<object>(100);
        memreq<A>(0);
        ensure(f_MemReq_object <= 100);
        ensure(f_MemReq_A <= 0);
        int f_MemReq_object = 0;
        int f_MemReq_A = 0;
        for (i = 1 .. n) {
            f_MemReq_object += 1;
            f_MemReq_A += 1;
            A a = new A();
        }
    }"""
    assert f_failures(inst.program) == [({"n": 1}, "f_MemReq_A <= 0")]


def test_object_mode_charges_declared_classes_at_a_call():
    inst = instrument(load(OBJECT_AND_CLASS % (CALLEE, "        g(n);"), "m"))
    assert method_block(pretty(inst.program), "void f") == """\
    void f(int n) {
        requires(n >= 0);
        memreq<object>(100);
        memreq<A>(0);
        ensure(f_MemReq_object <= 100);
        ensure(f_MemReq_A <= 0);
        int f_MemReq_object = 0;
        int f_MemReq_A = 0;
        int maxCalls_object = 0;
        int sumCalls_object = 0;
        int maxCalls_A = 0;
        int sumCalls_A = 0;
        int call_diff_object = n - 0;
        maxCalls_object = max(maxCalls_object, call_diff_object);
        sumCalls_object += 0;
        int call_diff_A = n - 0;
        maxCalls_A = max(maxCalls_A, call_diff_A);
        sumCalls_A += 0;
        g(n);
        f_MemReq_object += maxCalls_object + sumCalls_object;
        f_MemReq_A += maxCalls_A + sumCalls_A;
    }"""
    assert f_failures(inst.program) == [({"n": 1}, "f_MemReq_A <= 0")]


def test_object_mode_counter_index_sites():
    idx = instrumented("family_object").counter_index
    assert idx["Family.CreateFamily", "call1_diff_object"].cls == "object"
    assert idx["Family.CreateFamily", "call1_diff_object"].site == "Family.CreateFamily#1"
    assert idx["Family.CreateFamily", "call2_diff_object"].site == "Family.CreateFamily@1"


# ------------------------------------------------------------ contractless code


def test_contractless_method_without_allocations_untouched():
    orig = pretty(load_corpus("family"))
    inst = pretty(instrumented("family").program)
    assert method_block(orig, "void logMessage") == \
        method_block(inst, "void logMessage")


def test_undeclared_allocation_counted_and_bounded_at_zero():
    # an absent clause declares zero, for the copy as for `check`
    inst = instrumented("faulty_undeclared_class")
    m = inst.program.method("Quiet.assemble")
    ensures = [s for s in m.body if isinstance(s, EnsureStmt)]
    assert [expr_to_str(s.cond) for s in ensures] == [
        "assemble_MemReq_Gadget <= 1", "assemble_MemReq_Widget <= 0"]
    text = method_block(pretty(inst.program), "void assemble")
    assert "int assemble_MemReq_Widget = 0;" in text
    assert "assemble_MemReq_Widget += 1;" in text
    info = inst.counter_index["Quiet.assemble", "assemble_MemReq_Widget"]
    assert (info.kind, info.cls, info.method) == \
        (KIND_MEMREQ, "Widget", "Quiet.assemble")


# ------------------------------------------------------------ round trips


@pytest.mark.parametrize("name", ALL)
def test_erase_inverts_instrument(name):
    prog = load_corpus(name)
    inst = instrument(prog)
    assert program_to_json(erase(inst)) == program_to_json(prog)


@pytest.mark.parametrize("name", ALL)
def test_instrument_stable_after_round_trip(name):
    inst = instrument(load_corpus(name))
    again = instrument(erase(inst))
    assert program_to_json(again.program) == program_to_json(inst.program)
    assert again.counter_index == inst.counter_index


@pytest.mark.parametrize("name", ALL)
def test_instrumented_source_reparses(name):
    inst = instrument(load_corpus(name))
    reparsed = load(pretty(inst.program), f"{name}.mcl<inst>")
    assert program_to_json(reparsed) == program_to_json(inst.program)


@pytest.mark.parametrize("name", ALL)
def test_counters_do_not_change_static_verdicts(name):
    mode = mode_for(name)
    orig = load_corpus(name)
    inst = instrument(orig)
    before = json.dumps(S.check_program(orig, mode=mode).to_json())
    after = json.dumps(S.check_program(inst.program, mode=mode).to_json())
    assert before == after


def test_a_violated_witness_is_where_the_instrumented_copy_first_fails():
    # the header 1 .. n outgrows the declared space, and so the bounds of 5,
    # at n = 6: each Violated row's witness is the least grid point at
    # which validate of the instrumented copy fails the matching ensure
    prog = load_corpus("faulty_narrow_space")
    verdicts = {r.clause: r.verdict for r in S.check_program(prog).rows}
    copy = load(pretty(instrument(prog).program), "copy.mcl")
    first = {f.failure.cond: f.point for f in validate(copy).ensure_failures}
    assert first == {"wind_MemReq_Token <= 5": {"n": 6}, "wind_Esc_This_Token <= 5": {"n": 6}}
    assert len(verdicts) == 3
    for clause, conds in [("memreq<Token>", ["wind_MemReq_Token <= 5"]),
                          ("esc<Token>(this)", ["wind_Esc_This_Token <= 5"]),
                          ("iteration_space(1 <= i && i <= 5)", list(first))]:
        assert verdicts[clause].kind == "Violated"
        assert all(verdicts[clause].witness == first[c] for c in conds), clause


ARG_FIELD = """class A {
}

class C {
    int k;
}

class P {
    void need(int k) {
        requires(k >= 0);
        memreq<A>(k);
        for (i = 1 .. k) {
            A a = new A();
        }
    }

    void go(int n) {
        requires(n >= 0);
        memreq<A>(n);
        memreq<C>(1);
        C c = new C();
        c.k = 2 * n;
        this.need(c.k);
    }
}
"""


def test_an_argument_no_contract_variable_reads_is_charged_its_value():
    # c.k names no contract variable, so the copy charges need(c.k) through
    # a snapshot of c.k taken just before the call, not as a flagged zero
    prog = load(ARG_FIELD, "arg.mcl")
    inst = instrument(prog)
    text = method_block(pretty(inst.program), "void go")
    assert "int go_Arg1_k = c.k;\n        int call_diff_A = go_Arg1_k - 0;" in text
    assert "this.need(c.k);" in text
    assert inst.counter_index["P.go", "go_Arg1_k"].kind == KIND_ARG
    copy = load(pretty(inst.program), "copy.mcl")
    first = {f.failure.cond: f.point for f in validate(copy, hi=3).ensure_failures}
    assert first == {"go_MemReq_A <= n": {"n": 1}}
    assert program_to_json(erase(inst)) == program_to_json(prog)
    again = instrument(erase(inst))
    assert program_to_json(again.program) == program_to_json(inst.program)


def test_instrument_does_not_mutate_its_input():
    prog = load_corpus("callpair")
    snapshot = program_to_json(prog)
    instrument(prog)
    assert program_to_json(prog) == snapshot


def test_instrumented_program_is_resolved():
    inst = instrumented("callpair")
    assert inst.program.resolved
    m = inst.program.method("A.m")
    calls = [s for s in m.body if type(s).__name__ == "CallStmt"]
    assert [c.callee.qname for c in calls] == ["A.m1", "A.m2"]


# ------------------------------------------------------------ counter index


def _locals(body):
    return {s.name for s in iter_stmts(body) if isinstance(s, LocalDecl)}


@pytest.mark.parametrize("name", ALL)
def test_counter_index_names_match_emitted_code(name):
    inst = instrumented(name)
    declared = {m.qname: _locals(m.body) for m in inst.program.methods()}
    for (qname, cname), info in inst.counter_index.items():
        assert info.method == qname
        assert cname in declared[qname]
        assert info.kind in KNOWN_KINDS
        if info.kind == KIND_CALLDIFF:
            assert info.site and ("#" in info.site or "@" in info.site)
        else:
            assert info.site is None
        if info.kind == KIND_ESC:
            assert info.tag
        else:
            assert info.tag is None


def test_every_counter_the_copies_declare_is_indexed_under_its_method():
    # a counter is a local of the copy that the source does not declare;
    # two methods may use one name (call_diff_Person, maxCalls_A, f_MemReq_A
    # of P.f and Q.f), and each keeps its own entry
    indexed = declared = 0
    for name in ALL:
        prog = load_corpus(name)
        inst = instrument(prog)
        for m in inst.program.methods():
            counters = _locals(m.body) - _locals(prog.method(m.qname).body)
            assert {c for q, c in inst.counter_index if q == m.qname} == counters
            declared += sum(1 for s in iter_stmts(m.body)
                            if isinstance(s, LocalDecl) and s.name in counters)
        indexed += len(inst.counter_index)
    assert indexed == declared


@pytest.mark.parametrize("name", ALL)
def test_every_declared_clause_gets_an_ensure(name):
    # and so does every absent one: one ensure per obligation
    inst = instrumented(name)
    for m in inst.program.methods():
        ensures = [s for s in m.body if isinstance(s, EnsureStmt)]
        assert len(ensures) == len(obligations(m))


def test_instrumented_call_sites_link_into_the_copy():
    prog = load_corpus("callpair")
    inst = instrument(prog)
    copied = {id(m) for m in inst.program.methods()}
    linked = [callee_of(s) for m in inst.program.methods()
              for s in iter_stmts(m.body) if callee_of(s) is not None]
    assert linked
    assert all(id(c) in copied for c in linked)
    # the instrumented callee carries the instrumented body
    assert any(isinstance(s, EnsureStmt) for c in linked for s in c.body)


def test_instrument_copies_a_long_call_chain():
    n = 1200
    body = "\n".join(f"void m{i}() {{ {f'm{i + 1}();' if i + 1 < n else ''} }}"
                     for i in range(n))
    prog = load(f"class C {{ {body} }}", "chain")
    inst = instrument(prog)
    first = inst.program.method("C.m0")
    assert callee_of(first.body[0]) is inst.program.method("C.m1")


# ------------------------------------------------------------ call arguments and entry values


def test_a_call_on_a_local_argument_charges_the_local():
    # need(x) is charged x, the local the copy holds, not a flagged zero
    prog = load("""
class A {}
class P {
    void need(int k) {
        requires(k >= 0);
        memreq<A>(k);
        for (i = 1 .. k) { A a = new A(); }
    }
    void go(int n) {
        requires(n >= 0);
        memreq<A>(n);
        int x = n + n;
        this.need(x);
    }
}
""", "local.mcl")
    copy = instrument(prog).program
    assert "int call_diff_A = x - 0;" in pretty(copy)
    failures = [(f.point, f.failure.cond) for f in validate(copy, hi=3).ensure_failures
                if f.failure.method == "P.go"]
    assert failures == [({"n": 1}, "go_MemReq_A <= n")]


def test_an_ensure_reads_a_reassigned_parameter_at_its_entry_value():
    prog = load("""
class A {}
class P {
    void f(int n) {
        requires(n >= 0);
        memreq<A>(n);
        n = n + 1;
        for (i = 1 .. n) { A a = new A(); }
    }
}
""", "reassigned.mcl")
    inst = instrument(prog)
    failures = [(f.point, f.failure.cond) for f in validate(inst.program, hi=2).ensure_failures]
    assert failures[0] == ({"n": 0}, "f_MemReq_A <= f_Entry_n")
    assert program_to_json(erase(inst)) == program_to_json(prog)


# ------------------------------------------------------------ counter names


@pytest.mark.parametrize("source, conds", [
    # an array A[] and a class A_arr both write A_arr
    ("class A { } class A_arr { } class P { void f(int n) { requires(n >= 0);"
     " memreq<A[]>(n); memreq<A_arr>(1); A[] a = new A[n]; A_arr b = new A_arr(); } }",
     ["f_MemReq_A_arr <= n", "f_MemReq_A_arr_2 <= 1"]),
    # the tag T_A of class B and the tag T of class A_B both write T_A_B
    ("class B { } class A_B { } class P { B h; A_B k; void f() { memreq<B>(1);"
     " memreq<A_B>(1); esc<B>(T_A, 1); esc<A_B>(T, 1); bind_esc(T_A, this.h);"
     " bind_esc(T, this.k); dest_esc(T_A); B b = new B(); this.h = b;"
     " dest_esc(T); A_B c = new A_B(); this.k = c; } }",
     ["f_MemReq_B <= 1", "f_MemReq_A_B <= 1", "f_Esc_T_A_B <= 1", "f_Esc_T_A_B_2 <= 1"])],
    ids=["array-and-class", "tag-and-class"])
def test_each_counter_has_a_name_of_its_own(source, conds):
    # two clauses that write one name would share one counter, and the copy
    # would fail both ensures where `check` and the oracle hold both
    prog = load(source, "names.mcl")
    inst = instrument(prog)
    body = inst.program.method("P.f").body
    assert [expr_to_str(s.cond) for s in body if isinstance(s, EnsureStmt)] == conds
    assert len([s for s in body if isinstance(s, LocalDecl)]) == len(conds)
    assert validate(prog, hi=3).clean
    assert validate(inst.program, hi=3).ensure_failures == []
    assert program_to_json(erase(inst)) == program_to_json(prog)
