"""Consumption summaries and bound checking against declared contracts."""

import itertools
import json
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import HIDDEN_CLASS, MIXED_VIEWS, UNDECLARED_OBJECT, call_nest_program
from mclcheck import escape
from mclcheck import summary as S
from mclcheck.frontend import Tag, collapsed, expr_to_str, load, obligations
from mclcheck.frontend.syntax import CallStmt, NewStmt, entry_vars, unassigned_entry_vars
from mclcheck.instrument import KIND_MEMREQ, instrument, sym_expr_node
from mclcheck.oracle import validate
from mclcheck.symexpr import (
    Poly,
    SYM_ZERO,
    SymExpr,
    VerdictKind,
    add,
)

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"

POSITIVE = [
    "family", "brothers", "callpair", "bigfamily", "family_object",
    "listbuild", "zigzag", "scratchslot", "boxedpath", "eitherway",
    "workqueue", "raggedstore",
]

# programs that declare an object clause, besides the corpus's
OBJECT_PROGRAMS = {
    # g hides A behind `object` under memreq and `return`, and names B
    "hide": "class A { } class B { } class P { B g(int n) { requires(n >= 0);"
            " memreq<object>(n + 2); memreq<B>(1); esc<object>(return, 1);"
            " dest_esc(return); B b = new B(); A a = new A(); return b; }"
            " B f(int n) { requires(n >= 0); memreq<A>(0); esc<A>(return, 0);"
            " add_esc(return, return); B x = this.g(n); return x; } }",
    # memreq and `return` have an object clause, `this` only class clauses
    "view": "class A { } class B { } class P { A f(int n) { requires(n >= 0);"
            " memreq<A>(n); memreq<object>(1); memreq<B>(2); esc<A>(this, n);"
            " esc<B>(this, 3); esc<object>(return, 4); esc<A>(return, 1);"
            " A a = new A(); return a; } }",
    # an object clause below its one class's total
    "below": "class A { A() { } } class P { void f(int n) { requires(n >= 0);"
             " memreq<object>(1); memreq<A>(n); for (i = 1 .. n) { A a = new A(); } } }",
    "mixed-views": MIXED_VIEWS,
    "hidden-class": HIDDEN_CLASS,
    "undeclared-object": UNDECLARED_OBJECT,
}


def load_corpus(name):
    return load((CORPUS / f"{name}.mcl").read_text(), f"{name}.mcl")


def check(name, mode=S.MODE_TYPE):
    return S.check_program(load_corpus(name), mode=mode)


def summarize_in(prog, qname, mode=S.MODE_TYPE):
    methods = {m.qname: m for m in prog.methods()}
    return S.summarize(methods[qname], mode, prog.class_map())


def row(report, method, clause):
    hits = [r for r in report.rows if r.method == method and r.clause == clause]
    assert len(hits) == 1, f"expected one row for {method} {clause}, got {hits}"
    return hits[0]


def mode_for(name):
    return S.MODE_OBJECT if "object" in name else S.MODE_TYPE


# ------------------------------------------------------------ entry vars


def test_entry_vars_cover_params_and_fields():
    prog = load_corpus("family")
    m = prog.method("Family.AddMember")
    names = S.entry_vars(m, prog.class_map()["Family"])
    assert names == {"this._size", "this._members.length"}
    cf = prog.method("Family.CreateFamily")
    assert "firstNames.length" in S.entry_vars(cf, prog.class_map()["Family"])


def test_expr_poly_reads_arithmetic_and_lengths():
    from mclcheck.frontend import NewStmt
    prog = load_corpus("bigfamily")
    m = prog.method("Family.CreateBigFamily")
    new = next(s for s in m.body if isinstance(s, NewStmt))
    p = S.expr_poly(new.args[1], {"n"})
    n = Poly.var("n")
    assert p == n * n * Fraction(1, 2) + n * Fraction(1, 2)


def test_expr_poly_rejects_unknown_names():
    from mclcheck.frontend import CallStmt, ForStmt
    prog = load_corpus("family")
    m = prog.method("Family.CreateFamily")
    loop = next(s for s in m.body if isinstance(s, ForStmt))
    call = next(s for s in loop.body if isinstance(s, CallStmt))
    # firstNames[i - 1] is not an entry-constant integer
    assert S.expr_poly(call.args[0], {"firstNames.length"}) is None


# -------------------------------------------------- straight-line composition


def test_callpair_call_part_is_exact():
    prog = load_corpus("callpair")
    s = summarize_in(prog, "A.m")
    n = Poly.var("n")
    assert s.call_part["A"].same_value(SymExpr.of(n + 3))
    assert s.mem_req["A"].same_value(SymExpr.of(n + 5))


def test_callpair_escape_split():
    s = summarize_in(load_corpus("callpair"), "A.m")
    assert s.esc[(Tag.ret(), "A")].same_value(SymExpr.of(2))
    assert s.esc[(Tag.user("Param"), "A")].same_value(SymExpr.of(1))


def test_callpair_verifies_exactly():
    rep = check("callpair")
    assert rep.overall == VerdictKind.VERIFIED
    r = row(rep, "A.m", "memreq<A>")
    assert r.computed == "n + 5" and r.declared == "n + 5"


def test_callee_requirement_checked_under_its_precondition():
    # m2 declares k with k >= 2 although it only ever allocates 2
    rep = check("callpair")
    assert row(rep, "A.m2", "memreq<A>").verdict.kind == VerdictKind.VERIFIED


def test_call_entries_state_a_calls_whole_charge():
    # per class: the bound requirement, the escapes summed over tags, and
    # the add_esc pulls; a `new` of a class without a constructor charges
    # nothing
    prog = load_corpus("callpair")
    m = prog.method("A.m")
    admissible = entry_vars(m, prog.class_map()["A"])
    new_a1 = next(s for s in m.body if isinstance(s, NewStmt))
    call_m1, call_m2 = [s for s in m.body if isinstance(s, CallStmt)]
    n = Poly.var("n")
    assert S.call_entries(new_a1, admissible, ["A"]) == []
    assert S.call_entries(call_m1, admissible, ["A"]) == \
        [("A", SymExpr.of(n + 1), SymExpr.of(1), [])]
    assert S.call_entries(call_m2, admissible, ["A"]) == \
        [("A", SymExpr.of(n), SymExpr.of(2), [(Tag.ret(), SymExpr.of(2))])]


def test_a_callees_object_clause_bounds_each_class_its_caller_counts():
    # g hides its A behind `object`: a caller that counts A is charged g's
    # object bound for it, under memreq and under `return` alike, since no
    # class counts more than every class together; B, which g names, keeps
    # its own memreq clause and is hidden under `return`.  There is one
    # entry per key the caller counts, and none at a key it does not
    prog = load(OBJECT_PROGRAMS["hide"], "hide")
    f = prog.method("P.f")
    call = next(s for s in f.body if isinstance(s, CallStmt))
    n = Poly.var("n")
    assert [c.key for c in obligations(f)] == ["A", "A", "B", "object", "object"]
    assert S.call_entries(call, None, [c.key for c in obligations(f)]) == [
        ("object", SymExpr.of(n + 2), SymExpr.of(1), [(Tag.ret(), SymExpr.of(1))]),
        ("B", SymExpr.of(1), SymExpr.of(1), [(Tag.ret(), SymExpr.of(1))]),
        ("A", SymExpr.of(n + 2), SymExpr.of(1), [(Tag.ret(), SymExpr.of(1))])]
    assert S.call_entries(call, None, ["object"]) == [
        ("object", SymExpr.of(n + 2), SymExpr.of(1), [(Tag.ret(), SymExpr.of(1))])]
    rep = S.check_program(prog)
    assert {(r.method, r.clause): r.computed for r in rep.rows
            if r.verdict.kind == VerdictKind.VIOLATED} == {
        ("P.f", "memreq<A>"): "n + 2", ("P.f", "esc<A>(return)"): "1",
        ("P.f", "memreq<object>"): "n + 2", ("P.f", "esc<object>(return)"): "1",
        ("P.f", "memreq<B>"): "1"}


# ------------------------------------------------------------ loop collapse


def test_family_bounds_are_exact():
    prog = load_corpus("family")
    s = summarize_in(prog, "Family.CreateFamily")
    length = Poly.var("firstNames.length")
    assert s.mem_req["Logger"].same_value(SymExpr.of(1))
    assert s.mem_req["Person"].same_value(SymExpr.of(length))
    assert s.mem_req["Person[]"].same_value(SymExpr.of(length))
    assert s.mem_req["Family"].same_value(SymExpr.of(1))
    assert s.esc[(Tag.ret(), "Person")].same_value(SymExpr.of(length))


def test_nested_loops_sum_to_triangle():
    prog = load_corpus("bigfamily")
    s = summarize_in(prog, "Family.CreateBigFamily")
    n = Poly.var("n")
    tri = n * n * Fraction(1, 2) + n * Fraction(1, 2)
    assert s.esc[(Tag.ret(), "Person")].same_value(SymExpr.of(tri))
    assert s.mem_req["Person"].same_value(SymExpr.of(tri))
    # the per-iteration Logger temporary dies with its call: one is live at a time
    assert s.mem_req["Logger"].same_value(SymExpr.of(1))


def test_one_logger_at_a_time_verifies_in_the_triangular_nest():
    # each AddMember's Logger dies with its call, at any depth of the nest
    text = (CORPUS / "bigfamily.mcl").read_text()
    assert text.count("memreq<Logger>(n);") == 1
    rep = S.check_program(load(text.replace("memreq<Logger>(n);", "memreq<Logger>(1);"),
                               "bigfamily.mcl"))
    assert rep.overall == VerdictKind.VERIFIED
    r = row(rep, "Family.CreateBigFamily", "memreq<Logger>")
    assert (r.declared, r.computed) == ("1", "1")


def test_growing_array_sums_lengths():
    rep = check("raggedstore")
    assert rep.overall == VerdictKind.VERIFIED
    n = Poly.var("n")
    s = summarize_in(load_corpus("raggedstore"), "Stash.grow")
    tri = n * n * Fraction(1, 2) + n * Fraction(1, 2)
    assert s.mem_req["Cell[]"].same_value(SymExpr.of(tri))


def test_branches_are_added_not_maxed():
    s = summarize_in(load_corpus("eitherway"), "Chooser.pick")
    assert s.mem_req["Thing"].same_value(SymExpr.of(2))
    assert check("eitherway").overall == VerdictKind.VERIFIED


def test_loop_and_trailing_call_share_method_accounting():
    s = summarize_in(load_corpus("workqueue"), "Worker.drive")
    n = Poly.var("n")
    assert s.mem_req["Buf"].same_value(SymExpr.of(n + 2))
    assert s.esc[(Tag.this(), "Buf")].same_value(SymExpr.of(n))
    assert check("workqueue").overall == VerdictKind.VERIFIED


# ------------------------------------------------- the scope rule, sampled


def test_no_verified_requirement_of_a_call_nest_is_refuted():
    # f declares the requirement `check` computes for it; every memreq row
    # `check` verifies then holds under both collectors of the oracle, and
    # in the instrumented copy, which charges g's contract at each call
    rng = random.Random(7)
    checked = 0
    for _ in range(80):
        text = call_nest_program(rng)
        placeholder = load(text % "0", "nest.mcl")
        computed = S.summarize(placeholder.method("P.f"), S.MODE_TYPE,
                               placeholder.class_map()).mem_req["A"]
        if computed.flags:
            continue
        prog = load(text % expr_to_str(sym_expr_node(computed)), "nest.mcl")
        verified = {(r.method, r.clause) for r in S.check_program(prog).rows
                    if r.clause.startswith("memreq<") and r.verdict.kind == VerdictKind.VERIFIED}
        assert ("P.f", "memreq<A>") in verified, text
        refuted = {(v.method, v.clause) for gc in ("ideal", "method-exit")
                   for v in validate(prog, hi=3, gc=gc).violations}
        inst = instrument(prog)
        copy = validate(inst.program, hi=3)
        counters = {(q, name): f"memreq<{info.cls}>"
                    for (q, name), info in inst.counter_index.items() if info.kind == KIND_MEMREQ}
        refuted |= {(v.method, v.clause) for v in copy.violations}
        refuted |= {(f.failure.method, counters[f.failure.method, f.failure.cond.split()[0]])
                    for f in copy.ensure_failures
                    if (f.failure.method, f.failure.cond.split()[0]) in counters}
        assert not verified & refuted, text
        checked += len(verified)
    assert checked >= 150


# ----------------------------------------------------------- recursion


def test_recursive_builders_verify_assume_guarantee():
    for name, qname in (("listbuild", "Node.build"), ("zigzag", "Link.zig")):
        rep = check(name)
        assert rep.overall == VerdictKind.VERIFIED
        r = row(rep, qname, "memreq<" + qname.split(".")[0] + ">")
        assert any("assume-guarantee" in note for note in r.notes)


@pytest.mark.parametrize("alloc", ["", "A a = new A();"], ids=["spin", "spin-alloc"])
def test_recursion_without_contract_is_held_to_zero(alloc):
    # no clause declares zero on every class, and the recursive call
    # charges what spin declares: nothing
    rep = S.check_program(load(f"""
    class A {{ }}
    class R {{
        void spin(int n) {{
            {alloc}
            if (n > 0) {{
                this.spin(n - 1);
            }}
        }}
    }}
    """, "spin.mcl"))
    if not alloc:
        assert (rep.rows, rep.overall) == ([], VerdictKind.VERIFIED)
        return
    r = row(rep, "R.spin", "memreq<A>")
    assert (r.declared, r.computed, r.verdict.kind) == (None, "1", VerdictKind.VIOLATED)
    assert r.notes == ["undeclared consumption: objects of A are consumed"
                       " but no bound is declared"]
    assert rep.overall == VerdictKind.VIOLATED


# -------------------------------------------------------------- object mode


@pytest.mark.parametrize("name", sorted(p.stem for p in CORPUS.glob("*.mcl"))
                         + sorted(OBJECT_PROGRAMS))
def test_a_declared_object_clause_reads_alike_in_both_modes(name):
    # an object clause counts every class of its tag in either mode: type
    # mode charges `object` in the same pass as each class, and object mode
    # collapses the other clauses onto it
    prog = load(OBJECT_PROGRAMS[name], name) if name in OBJECT_PROGRAMS else load_corpus(name)
    rows = {mode: {(r.method, r.clause): (r.computed, r.verdict.to_json())
                   for r in S.check_program(prog, mode).rows}
            for mode in (S.MODE_TYPE, S.MODE_OBJECT)}
    whole = [(m.qname, c.label) for m in prog.methods() for c in m.contract.clauses() if c.whole]
    assert bool(whole) == (name in OBJECT_PROGRAMS or "object" in name)
    for k in whole:
        assert rows[S.MODE_TYPE][k] == rows[S.MODE_OBJECT][k], k


def test_object_mode_collapses_callee_types():
    prog = load_corpus("family_object")
    s = summarize_in(prog, "Family.CreateFamily", mode=S.MODE_OBJECT)
    length = Poly.var("firstNames.length")
    assert s.mem_req[S.OBJECT_KEY].same_value(SymExpr.of(length * 2 + 2))
    assert s.esc[(Tag.ret(), S.OBJECT_KEY)].same_value(SymExpr.of(length * 2 + 1))
    assert check("family_object", mode=S.MODE_OBJECT).overall == VerdictKind.VERIFIED


def test_object_mode_derives_bounds_from_per_type_contracts():
    # AddMember declares no object clause: its types are summed instead
    rep = check("family_object", mode=S.MODE_OBJECT)
    r = row(rep, "Family.AddMember", "memreq<object>")
    assert r.verdict.kind == VerdictKind.VERIFIED
    assert r.computed == "2"


def test_the_object_view_of_each_tag_is_its_object_clause_or_its_class_sum():
    # memreq and `return` have an object clause, `this` only class clauses;
    # object mode reads that view, and the per-class list is the declared
    # clauses alone: `this` is charged only A, which a clause names, and an
    # object clause covers the rest of its tag
    prog = load(OBJECT_PROGRAMS["view"])
    f = prog.method("P.f")
    view = [("memreq<object>", "1"), ("esc<object>(this)", "n + 3"),
            ("esc<object>(return)", "4")]
    assert [(c.label, str(c.bound)) for c in collapsed(f.contract.clauses())] == view
    assert [(c.label, str(c.bound)) for c in collapsed(obligations(f))] == view
    assert obligations(f) == f.contract.clauses()


def test_a_lone_declared_bound_reads_alike_in_both_modes():
    # collapsing one bound onto the object pseudo-class sums nothing, and
    # the degree cap meets only a loop's closed form, never a declared bound
    prog = load("class A {} class P { void f(int n) { requires(n >= 0);"
                " memreq<A>(n*n*n*n*n*n); A a = new A(); } }")
    for mode, clause in ((S.MODE_TYPE, "memreq<A>"), (S.MODE_OBJECT, "memreq<object>")):
        r = row(S.check_program(prog, mode=mode), "P.f", clause)
        assert (r.verdict.kind, r.verdict.witness) == (VerdictKind.VIOLATED, {"n": 0})


def test_type_mode_accepts_the_type_hiding_contract():
    # CreateFamily's object clauses bound every class of memreq and of
    # `return` together, so no class of either is held to zero on its own
    rep = check("family_object", mode=S.MODE_TYPE)
    assert rep.overall == VerdictKind.VERIFIED
    assert [r.clause for r in rep.rows if r.method == "Family.CreateFamily"] == \
        ["memreq<object>", "esc<object>(return)"]


def test_type_mode_checks_object_clauses_against_every_class():
    # an object clause bounds all classes together in either mode
    rep = check("family_object", mode=S.MODE_TYPE)
    mem = row(rep, "Family.CreateFamily", "memreq<object>")
    esc = row(rep, "Family.CreateFamily", "esc<object>(return)")
    assert (mem.verdict.kind, mem.computed) == \
        (VerdictKind.VERIFIED, "2*firstNames.length + 2")
    assert (esc.verdict.kind, esc.computed) == \
        (VerdictKind.VERIFIED, "2*firstNames.length + 1")
    low = row(check("faulty_object_low", mode=S.MODE_TYPE),
              "Family.CreateFamily", "memreq<object>")
    assert low.verdict.kind == VerdictKind.VIOLATED
    assert low.verdict.witness == {"firstNames.length": 1}


def test_type_mode_object_clause_below_the_class_total_is_violated():
    prog = load(OBJECT_PROGRAMS["below"])
    rep = S.check_program(prog, mode=S.MODE_TYPE)
    r = row(rep, "P.f", "memreq<object>")
    assert (r.verdict.kind, r.computed, r.verdict.witness) == \
        (VerdictKind.VIOLATED, "n", {"n": 2})
    assert row(rep, "P.f", "memreq<A>").verdict.kind == VerdictKind.VERIFIED


# ------------------------------------------------------------- faulty corpus


def test_low_bound_has_witness():
    rep = check("faulty_low_bound")
    assert rep.overall == VerdictKind.VIOLATED
    r = row(rep, "Family.CreateFamily", "memreq<Person>")
    assert r.verdict.kind == VerdictKind.VIOLATED
    assert r.verdict.witness == {"firstNames.length": 0}
    others = [x for x in rep.rows if x.verdict.kind != VerdictKind.VERIFIED and x is not r]
    assert others == []


def test_zero_escape_starves_caller_and_callee():
    rep = check("faulty_zero_esc")
    assert row(rep, "Family.AddMember", "esc<Person>(this)").verdict.kind \
        == VerdictKind.VIOLATED
    assert row(rep, "Family.CreateFamily", "memreq<Person>").verdict.kind \
        == VerdictKind.VIOLATED


def test_negative_bound_fails_at_zero():
    rep = check("faulty_negative_bound")
    r = row(rep, "Maker.bake", "memreq<Thing>")
    assert r.verdict.kind == VerdictKind.VIOLATED
    assert r.verdict.witness == {"n": 0}


def test_object_low_bound_fails_in_object_mode():
    rep = check("faulty_object_low", mode=S.MODE_OBJECT)
    r = row(rep, "Family.CreateFamily", "memreq<object>")
    assert r.verdict.kind == VerdictKind.VIOLATED
    assert r.verdict.witness == {"firstNames.length": 1}


def test_undeclared_class_is_a_violation():
    rep = check("faulty_undeclared_class")
    r = row(rep, "Quiet.assemble", "memreq<Widget>")
    assert r.verdict.kind == VerdictKind.VIOLATED
    assert r.declared is None and r.verdict.witness == {}


def test_mid_loop_peak_is_not_verified():
    rep = check("faulty_humpcall")
    r = row(rep, "Mill.hump", "memreq<Blob>")
    assert r.verdict.kind == VerdictKind.UNVERIFIED
    assert "monotonicity-unproven" in r.verdict.reason
    assert row(rep, "Mill.churn", "memreq<Blob>").verdict.kind == VerdictKind.VERIFIED
    assert rep.overall == VerdictKind.UNVERIFIED


def test_narrow_iteration_space_is_not_verified():
    # the clauses are summed over the header 1 .. n, and the space is a
    # claim about that header which fails once n > 5
    rep = check("faulty_narrow_space")
    for clause in ("memreq<Token>", "esc<Token>(this)", "iteration_space(1 <= i && i <= 5)"):
        r = row(rep, "Spool.wind", clause)
        assert r.verdict.kind == VerdictKind.VIOLATED
        assert r.verdict.witness == {"n": 6}
    space = row(rep, "Spool.wind", "iteration_space(1 <= i && i <= 5)")
    assert (space.declared, space.computed) == (None, "1 .. n")
    assert rep.overall == VerdictKind.VIOLATED


def test_skipped_precondition_is_a_static_blind_spot():
    # callee preconditions are a runtime obligation, not a static one
    assert check("faulty_precondition_skip").overall == VerdictKind.VERIFIED


def test_lifetime_violations_reach_the_report():
    rep = check("faulty_missing_destesc")
    bad = [r for r in rep.rows if r.verdict.kind == VerdictKind.VIOLATED]
    assert [r.clause for r in bad] == ["lifetime(Family.AddMember#1)"]
    assert bad[0].verdict.reason == "EscapesButUnannotated"


# the census's repro: the unpulled `this.g(n, 0)` leaves g's A reachable
# from `this`, which the summary never charges to the tag
UNPULLED = ("class A { A next; } class P { A head; void g(int n, int m) {"
            " requires(n >= 0 && m >= 0); memreq<A>(1); esc<A>(this, 1); dest_esc(this);"
            " A x = new A(); x.next = this.head; this.head = x; } void f(int n, int m) {"
            " requires(n >= 0 && m >= 0); memreq<A>(m + 1); esc<A>(this, m + 1);"
            " this.g(n, 0); if (n >= 2) { add_esc(this, this); this.g(n, n);"
            " for (i0 = 1 .. m) { add_esc(this, this); this.g(0, m); } } } }")


def test_an_escape_row_beside_an_unclaimed_escape_is_not_verified():
    prog = load(UNPULLED, "unpulled.mcl")
    rep = S.check_program(prog)
    r = row(rep, "P.f", "esc<A>(this)")
    assert r.verdict.kind == VerdictKind.UNVERIFIED
    assert r.verdict.reason == "rests on lifetime(P.f@1)"
    assert row(rep, "P.g", "esc<A>(this)").verdict.kind == VerdictKind.VERIFIED
    leak = [v for v in escape.analyze(prog).lifetimes["P.f"] if v.kind != escape.OK]
    assert [(v.where, v.classes) for v in leak] == [("P.f@1", ("A",))]


# one A annotated as escaping but captured, beside a B that does escape
CAPTURED_A = ("class A { } class B { } class P { B f() { memreq<A>(1); memreq<B>(1);"
              " esc<A>(return, 1); esc<B>(return, 1); esc<object>(return, 2);"
              " dest_esc(return); A x = new A(); dest_esc(return); B y = new B(); return y; } }")


@pytest.mark.parametrize("mode", [S.MODE_TYPE, S.MODE_OBJECT])
def test_an_escape_row_rests_only_on_findings_about_objects_it_counts(mode):
    rep = S.check_program(load(CAPTURED_A, "captured.mcl"), mode=mode)
    escs = {r.clause: (r.verdict.kind, r.verdict.reason) for r in rep.rows
            if r.clause.startswith("esc<")}
    rests = (VerdictKind.UNVERIFIED, "rests on lifetime(P.f#1)")
    assert escs == ({"esc<object>(return)": rests} if mode == S.MODE_OBJECT else
                    {"esc<A>(return)": rests, "esc<object>(return)": rests,
                     "esc<B>(return)": (VerdictKind.VERIFIED, None)})
    assert rep.overall == VerdictKind.VIOLATED


@pytest.mark.parametrize("name", ["faulty_missing_addesc", "faulty_missing_destesc",
                                  "faulty_phantom_escape", "faulty_swapped_tags"])
def test_lifetime_corpus_files_stay_violated_and_rest_their_escape_rows(name):
    rep = check(name)
    assert rep.overall == VerdictKind.VIOLATED
    rested = [r for r in rep.rows if (r.verdict.reason or "").startswith("rests on lifetime(")]
    assert rested and all(r.clause.startswith("esc<") for r in rested)


def test_suppressed_site_is_reported_verified_with_note():
    rep = check("scratchslot")
    r = row(rep, "Workbench.rebuild", "lifetime(Workbench.rebuild#1)")
    assert r.verdict.kind == VerdictKind.VERIFIED
    assert any("dest_local" in note for note in r.notes)


# ----------------------------------------------------- report plumbing


@pytest.mark.parametrize("name", POSITIVE)
def test_positive_corpus_verifies(name):
    rep = check(name, mode=mode_for(name))
    assert rep.overall == VerdictKind.VERIFIED


def test_exit_codes():
    assert check("family").overall == VerdictKind.VERIFIED
    assert check("faulty_low_bound").overall == VerdictKind.VIOLATED
    assert check("faulty_humpcall").overall == VerdictKind.UNVERIFIED


def test_report_json_is_stable_and_serializable():
    a = json.dumps(check("bigfamily").to_json(), sort_keys=True)
    b = json.dumps(check("bigfamily").to_json(), sort_keys=True)
    assert a == b
    data = json.loads(a)
    assert data["overall"] == "Verified"
    assert all({"method", "clause", "verdict"} <= set(c) for c in data["clauses"])


def test_rows_sorted_by_method():
    rep = check("family")
    assert [r.method for r in rep.rows] == sorted(r.method for r in rep.rows)


def test_trivially_satisfied_clause_is_noted():
    src = """
    class C {
        void quiet(int n) {
            requires(n >= 0);
            memreq<C>(n);
            int x = 0;
            x = x + 1;
        }
    }
    """
    rep = S.check_program(load(src, "quiet.mcl"))
    r = row(rep, "C.quiet", "memreq<C>")
    assert r.verdict.kind == VerdictKind.VERIFIED
    assert any("trivially satisfied" in note for note in r.notes)


def test_fractional_declared_bound_is_not_verified():
    src = """
    class C {
        void half(int n) {
            requires(n >= 0);
            memreq<C>(n / 2);
            int x = 0;
            x = x + 1;
        }
    }
    """
    rep = S.check_program(load(src, "half.mcl"))
    r = row(rep, "C.half", "memreq<C>")
    assert r.verdict.kind == VerdictKind.UNVERIFIED
    assert "integer-valued" in r.verdict.reason


def test_undeclared_escape_is_a_violation():
    src = """
    class C {
        C make() {
            memreq<C>(1);
            dest_esc(return);
            C c = new C();
            return c;
        }
    }
    """
    rep = S.check_program(load(src, "make.mcl"))
    r = row(rep, "C.make", "esc<C>(return)")
    assert r.verdict.kind == VerdictKind.VIOLATED
    assert r.declared is None
    assert any("undeclared escape" in note for note in r.notes)


def test_contractless_method_summary_is_empty():
    prog = load_corpus("family")
    s = summarize_in(prog, "Logger.logMessage")
    assert s.mem_req == {} and s.esc == {}


# ------------------------------------------------------------- properties


@pytest.mark.parametrize("name", sorted(p.stem for p in CORPUS.glob("*.mcl")))
def test_every_integral_coefficient_is_an_int(name):
    # the symbolic layer stores an integral coefficient as an int, never as
    # a Fraction, in every contract and every summary it computes
    prog = load_corpus(name)
    exprs = [c.bound for m in prog.methods() for c in obligations(m)]
    for mode in (S.MODE_TYPE, S.MODE_OBJECT):
        for m in prog.methods():
            s = S.summarize(m, mode, prog.class_map())
            exprs += [*s.mem_req.values(), *s.esc.values()]
    coeffs = [c for e in exprs for p in e.alts for _, c in p.terms]
    assert coeffs
    assert all(type(c) is int for c in coeffs if c.denominator == 1)


@pytest.mark.parametrize("name", POSITIVE)
def test_escapes_never_exceed_requirement(name):
    # a method cannot hand out more than it charged its caller for
    prog = load_corpus(name)
    mode = mode_for(name)
    methods = {m.qname: m for m in prog.methods()}
    for qname, m in methods.items():
        s = S.summarize(m, mode, prog.class_map())
        for key in {k for (_, k) in s.esc}:
            total = SYM_ZERO
            for (_, k), e in s.esc.items():
                if k == key:
                    total = add(total, e)
            need = s.mem_req.get(key, SYM_ZERO)
            if need.flags or total.flags:
                continue
            names = sorted(total.variables() | need.variables()
                           | {v for c in m.contract.requires for v in c.variables()})
            for point in itertools.product(range(7), repeat=len(names)):
                env = dict(zip(names, point))
                if not all(c.holds(env) for c in m.contract.requires):
                    continue
                assert total.eval(env) <= need.eval(env), (qname, key, env)


@settings(max_examples=40, deadline=None)
@given(lo=st.integers(0, 3), count=st.integers(0, 4), per=st.integers(1, 3))
def test_concrete_loop_matches_unrolled(lo, count, per):
    hi = lo + count - 1
    loop_body = "\n                ".join(
        f"Thing t{j} = new Thing();" for j in range(per))
    flat_body = "\n            ".join(
        f"Thing u{k}x{j} = new Thing();"
        for k in range(count) for j in range(per))
    looped = f"""
    class Thing {{ int v; }}
    class Host {{
        void go() {{
            memreq<Thing>({max(per * count, 1)});
            for (i = {lo} .. {hi}) {{
                {loop_body}
            }}
        }}
    }}
    """
    unrolled = f"""
    class Thing {{ int v; }}
    class Host {{
        void go() {{
            memreq<Thing>({max(per * count, 1)});
            {flat_body}
            int x = 0;
            x = x + 1;
        }}
    }}
    """
    a = summarize_in(load(looped, "a.mcl"), "Host.go")
    b = summarize_in(load(unrolled, "b.mcl"), "Host.go")
    want = SymExpr.of(per * count)
    assert a.mem_req.get("Thing", SYM_ZERO).same_value(want)
    assert b.mem_req.get("Thing", SYM_ZERO).same_value(want)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(0, 6))
def test_symbolic_triangle_matches_concrete_runs(n):
    s = summarize_in(load_corpus("bigfamily"), "Family.CreateBigFamily")
    computed = s.mem_req["Person"]
    brute = sum(range(1, n + 1))
    assert computed.eval({"n": n}) == brute


def _affine_text(k, const):
    """`k * n + const` as MCL source, a negative constant subtracted."""
    return f"{k} * n {'+' if const >= 0 else '-'} {abs(const)}"


@settings(max_examples=120, deadline=None)
@given(a=st.integers(0, 3), b=st.integers(0, 2), c=st.integers(-2, 3),
       p=st.integers(0, 3), q=st.integers(0, 2), r=st.integers(-2, 4))
def test_iteration_space_decision_against_brute_force(a, b, c, p, q, r):
    # for (i = a .. b*n + c) with iteration_space(p <= i && i <= q*n + r):
    # the space is a claim about the header, decided exactly, and the
    # loop is summed over the header whatever the space says
    space = f"{p} <= i && i <= {_affine_text(q, r)}"
    prog = load(f"""
    class A {{ }}
    class P {{
        void f(int n) {{
            requires(n >= 0);
            memreq<A>(0);
            for (i = {a} .. {_affine_text(b, c)}) {{
                iteration_space({space});
                A x = new A();
            }}
        }}
    }}
    """, "space.mcl")

    def broken_at(n):
        return any(not p <= i <= q * n + r for i in range(a, b * n + c + 1))

    rows = [x for x in S.check_program(prog).rows if x.clause == f"iteration_space({space})"]
    if not rows:
        assert not any(broken_at(n) for n in range(9))
    else:
        [row] = rows
        assert row.verdict.kind == VerdictKind.VIOLATED, row.verdict
        assert set(row.verdict.witness) == {"n"}
        assert broken_at(row.verdict.witness["n"])
    computed = summarize_in(prog, "P.f").mem_req.get("A", SYM_ZERO)
    for n in range(9):
        trips = b * n + c - a + 1
        assert computed.eval({"n": n}) >= max(trips, 0)
        if trips > 0:
            assert computed.eval({"n": n}) == trips


def test_a_space_inside_a_loop_without_a_range_is_not_refuted():
    # j runs over 1 .. x with x a local, so nothing bounds it: the inner
    # header 1 .. j has no range either, and its space (which holds, since
    # i <= j <= x = n) is not decided at a j that no run reaches
    prog = load("""
    class A { }
    class P {
        void f(int n) {
            requires(n >= 0);
            memreq<A>(0);
            int x = n;
            for (j = 1 .. x) {
                for (i = 1 .. j) {
                    iteration_space(1 <= i && i <= n);
                    A a = new A();
                }
            }
        }
    }
    """, "unranged.mcl")
    rep = S.check_program(prog)
    space = row(rep, "P.f", "iteration_space(1 <= i && i <= n)")
    assert space.verdict.kind == VerdictKind.UNVERIFIED
    assert space.verdict.reason == "loop header has no range over entry values"
    assert rep.overall == VerdictKind.UNVERIFIED


def test_a_space_under_an_if_is_decided_without_the_condition():
    # the context leaves `n <= 5` out, so the point that breaks the space
    # (n = 6) is one where the loop never runs: the row is Unverified.  The
    # memreq row is summed over the header without the guard too, and is
    # Violated at n = 6 exactly as for the same loop without a space.
    def program(space):
        return load(f"""
        class A {{ }}
        class P {{
            void f(int n) {{
                requires(n >= 0);
                memreq<A>(5);
                if (n <= 5) {{
                    for (i = 1 .. n) {{
                        {space}
                        A a = new A();
                    }}
                }}
            }}
        }}
        """, "guarded.mcl")

    rep = S.check_program(program("iteration_space(1 <= i && i <= 5);"))
    space = row(rep, "P.f", "iteration_space(1 <= i && i <= 5)")
    assert space.verdict.kind == VerdictKind.UNVERIFIED
    assert space.verdict.reason == "decided without the enclosing if condition"
    plain = S.check_program(program(""))
    assert row(rep, "P.f", "memreq<A>") == row(plain, "P.f", "memreq<A>")
    assert row(plain, "P.f", "memreq<A>").verdict.witness == {"n": 6}


def test_a_loop_whose_lower_bound_can_be_negative_has_no_range():
    # j runs from -3, so the inner header j .. 0 runs n + 4 times at j = -3
    # alone; summing it as if every index were nonnegative gave n + 4 and
    # Verified, while runs allocate far more
    prog = load("""
    class A { A next; }
    class P {
        void f(int n) {
            requires(n >= 0);
            memreq<A>(n + 4);
            A h = null;
            for (j = -3 .. n) {
                for (i = j .. 0) {
                    iteration_space(0 <= i && i <= 0);
                    A a = new A();
                    a.next = h;
                    h = a;
                }
            }
        }
    }
    """, "negative.mcl")
    rep = S.check_program(prog)
    mem = row(rep, "P.f", "memreq<A>")
    assert mem.verdict.kind == VerdictKind.UNVERIFIED
    assert mem.verdict.reason == "analysis incomplete: no-loop-range"
    space = row(rep, "P.f", "iteration_space(0 <= i && i <= 0)")
    assert space.verdict.kind == VerdictKind.UNVERIFIED
    assert rep.overall == VerdictKind.UNVERIFIED
    assert {v.clause for v in validate(prog, hi=2).violations} == {"memreq<A>"}


def test_a_reassigned_parameter_is_not_read_as_its_entry_value():
    # the header reads n after n = n + 1, so the loop runs n + 1 times
    prog = load("""
    class A { }
    class P {
        void f(int n) {
            requires(n >= 0);
            memreq<A>(n);
            n = n + 1;
            for (i = 1 .. n) {
                A a = new A();
            }
        }
    }
    """, "reassigned.mcl")
    rep = S.check_program(prog)
    mem = row(rep, "P.f", "memreq<A>")
    assert mem.verdict.kind == VerdictKind.UNVERIFIED
    assert mem.verdict.reason == "analysis incomplete: no-loop-range"
    assert rep.overall == VerdictKind.UNVERIFIED
    assert {v.clause for v in validate(prog, hi=2).violations} == {"memreq<A>"}


def test_a_quadratic_alternative_does_not_hide_an_affine_refutation():
    # n + 3 > 2n contradicts n >= 3 whatever n * n - 5 is, so the affine
    # part of the failing set is empty and the clause is proved
    prog = load("""
    class A { }
    class P {
        void f(int n) {
            requires(n >= 3);
            memreq<A>(max(2 * n, n * n - 5));
            for (i = 1 .. n + 3) {
                A a = new A();
            }
        }
    }
    """, "quadratic.mcl")
    rep = S.check_program(prog)
    mem = row(rep, "P.f", "memreq<A>")
    assert (mem.computed, mem.verdict.kind, mem.verdict.method) == (
        "n + 3", VerdictKind.VERIFIED, "farkas")
    assert rep.overall == VerdictKind.VERIFIED
    assert validate(prog).overall == VerdictKind.VERIFIED


def test_unassigned_entry_vars_leaves_out_every_assigned_parameter():
    prog = load("""
    class A { }
    class P {
        A[] data;
        int size;
        int give(int k) { return k; }
        void take(int k, out int r) { r = k; }
        void f(int a, int b, int c, int d, int e, A[] xs, A[] ys, A[] zs) {
            a = 1;
            b += 1;
            c = this.give(c);
            this.take(d, out d);
            for (e = 1 .. 2) { }
            xs = new A[3];
            this.data = ys;
            this.size = 2;
        }
    }
    """, "assigned.mcl")
    cls = prog.class_map()["P"]
    f = next(m for m in cls.methods if m.name == "f")
    assert entry_vars(f, cls) - unassigned_entry_vars(f, cls) == {
        "a", "b", "c", "d", "e", "xs.length"}
    # an assigned field is not caught
    assert {"ys.length", "zs.length", "this.size", "this.data.length"} \
        <= unassigned_entry_vars(f, cls)


# ------------------------------------------------------------ call composition

COMPOSE = """
    class A { A next; }
    class C { int count; }
    class Box {
        int cap;
        Box() {
            memreq<A>(this.cap + 1);
            A a = new A();
        }
    }
    class Q {
        int size;
        A head;
        Q(int size) {
            this.size = size;
        }
        void grow() {
            memreq<A>(this.size);
            for (i = 1 .. this.size) { A a = new A(); }
        }
        void go() {
            memreq<A>(this.size);
            this.grow();
        }
        void other(Q q) {
            memreq<A>(0);
            q.grow();
        }
        void mk() {
            memreq<A>(1);
            memreq<Box>(1);
            Box b = new Box();
        }
        void each(A[] xs) {
            memreq<A>(xs.length);
            for (i = 1 .. xs.length) { A a = new A(); }
        }
        void walk(A[] ys) {
            memreq<A>(ys.length);
            this.each(ys);
        }
        void need(int k) {
            requires(k >= 0);
            memreq<A>(k);
            for (i = 1 .. k) { A a = new A(); }
        }
        void unread(C c) {
            memreq<A>(0);
            this.need(c.count);
        }
        void put(int k) {
            requires(k >= 0);
            memreq<A>(max(k, 1));
            esc<A>(this, max(k, 1));
            dest_esc(this);
            A a = new A();
            a.next = this.head;
            this.head = a;
            for (i = 2 .. k) {
                dest_esc(this);
                A b = new A();
                b.next = this.head;
                this.head = b;
            }
        }
        void fill(int n, int k) {
            requires(n >= 0 && k >= 0);
            memreq<A>(n * k + n + k);
            esc<A>(this, n * k + n);
            for (j = 1 .. n) {
                add_esc(this, this);
                this.put(k);
            }
        }
    }
"""


@pytest.mark.parametrize("method, clause, computed, reason", [
    # this.size of a call on this is the caller's own this.size
    ("Q.go", "memreq<A>", "this.size", None),
    # ... but another receiver's field has no caller-side reading
    ("Q.other", "memreq<A>", "0", "analysis incomplete: unanalyzable-arg"),
    # a constructor's fields are zero at entry
    ("Q.mk", "memreq<A>", "1", None),
    ("Q.walk", "memreq<A>", "ys.length", None),
    # c.count is a field of a parameter, not a contract variable
    ("Q.unread", "memreq<A>", "0", "analysis incomplete: unanalyzable-arg"),
    # each put(k) leaves max(k, 1) escaped, summed as k + 1 per iteration;
    # the headroom max(k, 1) - 1 is charged even when the loop is empty
    ("Q.fill", "esc<A>(this)", "k*n + n", None),
    ("Q.fill", "memreq<A>", "max(k*n + k + n - 1, k*n + n)", None),
])
def test_a_call_binds_each_callee_variable_from_its_caller_side_reading(
        method, clause, computed, reason):
    r = row(S.check_program(load(COMPOSE, "compose.mcl")), method, clause)
    assert r.computed == computed
    if reason is None:
        assert r.verdict.kind == VerdictKind.VERIFIED
    else:
        assert (r.verdict.kind, r.verdict.reason) == (VerdictKind.UNVERIFIED, reason)


def test_the_composed_calls_run_within_their_bounds():
    report = validate(load(COMPOSE, "compose.mcl"), hi=3)
    assert report.clean
    assert report.runs > 0
