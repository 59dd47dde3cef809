"""Acceptance gate: eight end-to-end criteria, one verdict line each, and
the corpus's verdicts in the default mode.

Every criterion prints `ACCEPTANCE <n> PASS|FAIL: <summary>` straight to the
terminal (bypassing capture) and then asserts, so a plain `pytest -v` run
shows the verdict lines alongside the test results.  Tolerances are exact
unless a criterion states otherwise.
"""

import copy
import pathlib
import random
import re

import pytest

from mclcheck import escape
from mclcheck import symexpr as sx
from mclcheck.frontend import load, obligations, pretty, program_to_json
from mclcheck.instrument import erase, instrument
from mclcheck.oracle import RequiresViolation, harness_plan, run_point, validate
from mclcheck.summary import check_program, summarize

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"

POSITIVE = [
    "family", "brothers", "callpair", "bigfamily", "family_object",
    "listbuild", "zigzag", "scratchslot", "boxedpath", "eitherway",
    "workqueue", "raggedstore",
]
FAULTY = [
    "faulty_low_bound", "faulty_zero_esc", "faulty_negative_bound",
    "faulty_object_low", "faulty_missing_destesc", "faulty_missing_addesc",
    "faulty_swapped_tags", "faulty_phantom_escape", "faulty_undeclared_class",
    "faulty_precondition_skip", "faulty_humpcall", "faulty_narrow_space",
]
OBJECT_MODE = {"family_object", "faulty_object_low"}


def source(name: str) -> str:
    return (CORPUS / f"{name}.mcl").read_text()


def load_corpus(name: str):
    return load(source(name), f"{name}.mcl")


def mode_for(name: str) -> str:
    return "object" if name in OBJECT_MODE else "type"


@pytest.fixture
def verdict(capsys):
    def emit(criterion: int, ok: bool, summary: str):
        with capsys.disabled():
            print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}:"
                  f" {summary}")
        assert ok, f"criterion {criterion}: {summary}"
    return emit


# ---------------------------------------------------------------- 1


def test_criterion_1_running_example(verdict):
    """Reference program verifies; every bound is one off from a witness."""
    prog = load_corpus("family")
    report = check_program(prog)
    problems = []
    if report.overall != "Verified":
        problems.append(f"reference corpus is {report.overall}")
    bad_rows = [r for r in report.rows if r.verdict.kind != "Verified"]
    problems += [f"{r.method} {r.clause} is {r.verdict.kind}"
                 for r in bad_rows]

    # quantitative anchor, exact symbolic equality
    m = prog.method("Family.CreateFamily")
    s = summarize(m, "type", prog.class_map())
    one = sx.SymExpr.of(sx.Poly.const(1))
    names = sx.SymExpr.of(sx.Poly.var("firstNames.length"))
    if not s.mem_req["Logger"].same_value(one):
        problems.append(f"CreateFamily memreq[Logger] = {s.mem_req['Logger']}")
    if not s.mem_req["Person"].same_value(names):
        problems.append(f"CreateFamily memreq[Person] = {s.mem_req['Person']}")

    # each declared bound, lowered by one, must turn Violated with a witness
    def lowered(expr):
        return sx.SymExpr.of(*(p + sx.Poly.const(-1) for p in expr.alts),
                             flags=expr.flags)

    mutations = 0
    for method in prog.methods():
        contract = method.contract
        if contract is None:
            continue
        slots = [("mem", key) for key in contract.mem_req]
        slots += [("esc", key) for key in contract.esc]
        for kind, key in slots:
            mutant = copy.deepcopy(prog)
            c = mutant.method(method.qname).contract
            if kind == "mem":
                c.mem_req[key] = lowered(c.mem_req[key])
                clause = f"memreq<{key}>"
            else:
                c.esc[key] = lowered(c.esc[key])
                tag, cls = key
                clause = f"esc<{cls}>({tag.source_str()})"
            rows = [r for r in check_program(mutant).rows
                    if r.method == method.qname and r.clause == clause]
            mutations += 1
            if len(rows) != 1:
                problems.append(f"{method.qname} {clause}: {len(rows)} rows")
            elif rows[0].verdict.kind != "Violated":
                problems.append(f"{method.qname} {clause} lowered ->"
                                f" {rows[0].verdict.kind}")
            elif rows[0].verdict.witness is None:
                problems.append(f"{method.qname} {clause}: no witness")

    verdict(1, not problems,
            problems[0] if problems else
            f"reference corpus all-Verified; {mutations} single-bound"
            f" mutations each Violated with a witness; anchors exact")


# ---------------------------------------------------------------- 2


def test_criterion_2_call_composition(verdict):
    prog = load_corpus("callpair")
    m = prog.method("A.m")
    s = summarize(m, "type", prog.class_map())
    n = sx.Poly.var("n")
    problems = []
    if not s.call_part["A"].same_value(sx.SymExpr.of(n + sx.Poly.const(3))):
        problems.append(f"composed call contribution is {s.call_part['A']},"
                        f" wanted n + 3")
    if not s.mem_req["A"].same_value(sx.SymExpr.of(n + sx.Poly.const(5))):
        problems.append(f"total is {s.mem_req['A']}, wanted n + 5")
    row = next(r for r in check_program(prog).rows
               if r.method == "A.m" and r.clause == "memreq<A>")
    if row.verdict.kind != "Verified":
        problems.append(f"memreq<A> against declared n + 5: {row.verdict.kind}")
    verdict(2, not problems,
            problems[0] if problems else
            "call contribution exactly n + 3, verifies against declared n + 5")


# ---------------------------------------------------------------- 3


FIG7_COUNTERS = {
    "m_MemReq_A", "m_Esc_Return_A", "m_Esc_Param_A",
    "maxCalls_A", "sumCalls_A", "call1_diff_A", "call2_diff_A",
}
FIG7_SEQUENCE = [
    "ensure(m_MemReq_A <= n + 5);",
    "ensure(m_Esc_Return_A <= 2);",
    "ensure(m_Esc_Param_A <= 1);",
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
    "A a4 = m2(n);",
    "m_MemReq_A += maxCalls_A + sumCalls_A;",
    "return a4;",
]


def test_criterion_3_instrumentation_fidelity(verdict):
    problems = []

    inst = instrument(load_corpus("callpair"))
    text = pretty(inst.program)
    block = text[text.index("A m(int n"):]
    block = block[:block.index("\n    }")]
    pos = 0
    for needle in FIG7_SEQUENCE:
        found = block.find(needle, pos)
        if found < 0:
            problems.append(f"missing or out of order: {needle}")
            break
        pos = found + len(needle)
    emitted = set(re.findall(r"\b(\w+(?:_diff|_MemReq|_Esc|Calls)_\w+)\b",
                             block))
    if emitted != FIG7_COUNTERS:
        problems.append(f"counter set {sorted(emitted)} !="
                        f" {sorted(FIG7_COUNTERS)}")
    if block.count("ensure(") != 3:
        problems.append(f"{block.count('ensure(')} ensures, wanted 3")

    # reversibility across the whole corpus, structural equality
    uninverted = []
    for path in sorted(CORPUS.glob("*.mcl")):
        prog = load(path.read_text(), path.name)
        back = erase(instrument(prog))
        if program_to_json(back) != program_to_json(prog):
            uninverted.append(path.name)
    if uninverted:
        problems.append(f"erase did not invert instrument on {uninverted}")

    verdict(3, not problems,
            problems[0] if problems else
            "instrumented two-call method matches the reference expansion"
            " exactly; erase inverts instrument on all"
            f" {len(list(CORPUS.glob('*.mcl')))} corpus files")


# ---------------------------------------------------------------- 4


def test_criterion_4_polynomial_engine(verdict):
    prog = load_corpus("bigfamily")
    m = prog.method("Family.CreateBigFamily")
    s = summarize(m, "type", prog.class_map())
    n = sx.Poly.var("n")
    triangle = sx.SymExpr.of((n * n + n).scale(sx.Fraction(1, 2)))
    got = {(str(t), k): v for (t, k), v in s.esc.items()}[
        ("Return", "Person")]
    problems = []
    if not got.same_value(triangle):
        problems.append(f"computed escape count {got}, wanted (n*n + n)/2")
    for nv in range(1, 7):
        r = run_point(prog, "Family.CreateBigFamily",
                      {"ctor.size": 0, "n": nv})
        seen = r.observation("Family.CreateBigFamily").esc["Return"]["Person"]
        if seen != nv * (nv + 1) // 2:
            problems.append(f"n={nv}: oracle saw {seen},"
                            f" closed form {nv * (nv + 1) // 2}")
    verdict(4, not problems,
            problems[0] if problems else
            "escape count is exactly n(n+1)/2, matching the oracle on n=1..6")


# ---------------------------------------------------------------- 5


def test_criterion_5_soundness_sweep(verdict):
    problems = []
    if len(POSITIVE) < 10 or len(FAULTY) < 10:
        problems.append("corpus too small for the sweep")

    for name in POSITIVE + FAULTY:
        prog = load_corpus(name)
        static = check_program(prog, mode_for(name))
        verified_methods = set()
        flagged_methods = set()
        for row in static.rows:
            if row.verdict.kind == "Verified":
                verified_methods.add(row.method)
            else:
                flagged_methods.add(row.method)
        verified_methods -= flagged_methods

        dynamic = validate(prog, hi=8)
        for v in dynamic.violations:
            if v.method in verified_methods:
                problems.append(
                    f"{name}: statically verified {v.method} violated"
                    f" {v.clause} at {v.entry_env}")

        if name in FAULTY:
            caught_static = any(r.verdict.kind != "Verified"
                                for r in static.rows)
            caught_runtime = bool(dynamic.violations
                                  or dynamic.requires_aborts)
            if not caught_runtime:
                hardened = validate(instrument(prog).program, hi=8)
                caught_runtime = bool(hardened.ensure_failures)
            if not (caught_static or caught_runtime):
                problems.append(f"{name} slipped through both checks")

    verdict(5, not problems,
            problems[0] if problems else
            f"{len(POSITIVE) + len(FAULTY)} programs swept on 0..8:"
            f" no verified method violated, all {len(FAULTY)} faulty"
            f" programs caught")


def test_the_default_mode_verifies_every_positive_file():
    # an object clause covers every class of its tag in the default mode
    # too, so a type-hiding contract needs no `--mode object`, and the one
    # that undercounts is caught on its object clause alone
    for name in POSITIVE:
        assert check_program(load_corpus(name)).overall == "Verified", name
    low = check_program(load_corpus("faulty_object_low"))
    assert [(r.method, r.clause, r.verdict.witness) for r in low.rows
            if r.verdict.kind == "Violated"] == [
        ("Family.CreateFamily", "memreq<object>", {"firstNames.length": 1})]


# ---------------------------------------------------------------- 6


def test_criterion_6_lifetime_checking(verdict):
    problems = []

    # shape 1: the constructor's logger is captured, invisible from outside
    prog = load_corpus("family")
    analysis = escape.analyze(prog)
    ctor_graph = analysis.graphs["Person.Person"]
    logger = escape.inside_node("Person.Person#1")
    if escape.reachable(ctor_graph, {escape.param_node("this")}, logger):
        problems.append("ctor logger looks reachable from the receiver")

    # shape 2: the added person hangs off the receiver through the array
    add_graph = analysis.graphs["Family.AddMember"]
    person = escape.inside_node("Family.AddMember#1")
    if not escape.reachable(add_graph, {escape.param_node("this")}, person):
        problems.append("added person not reachable from the receiver")
    via = add_graph.targets(escape.param_node("this"), "_members")
    if not any(person in add_graph.targets(mid, escape.ARRAY_FIELD)
               for mid in via):
        problems.append("person does not sit behind the _members array")

    # dropping the escape declaration must flip the verdict
    lines = source("family").splitlines()
    cut = []
    in_add = False
    for ln in lines:
        if "AddMember" in ln:
            in_add = True
        if in_add and ln.strip() == "dest_esc(this);":
            in_add = False
            continue
        cut.append(ln)
    mutated = check_program(load("\n".join(cut), "family_mut.mcl"))
    flagged = [r for r in mutated.rows
               if r.method == "Family.AddMember"
               and r.verdict.kind == "Violated"
               and r.computed == "EscapesButUnannotated"]
    if not flagged:
        problems.append("missing escape annotation was not flagged")

    # the parked-and-unlinked scratch object: a demonstrated false alarm
    # that dest_local suppresses
    plain = source("scratchslot").replace("        dest_local;\n", "")
    noisy = check_program(load(plain, "scratch_plain.mcl"))
    alarm = [r for r in noisy.rows
             if r.verdict.kind == "Violated"
             and r.computed == "EscapesButUnannotated"]
    if not alarm:
        problems.append("heap abstraction did not over-approximate the"
                        " parked scratch object")
    if not validate(load(plain, "scratch_plain.mcl"), hi=4).clean:
        problems.append("scratch object actually escapes; alarm is genuine")
    suppressed = check_program(load_corpus("scratchslot"))
    if suppressed.overall != "Verified":
        problems.append(f"dest_local version is {suppressed.overall}")

    verdict(6, not problems,
            problems[0] if problems else
            "both heap shapes reproduced; dropped annotation flagged;"
            " dest_local suppresses a demonstrated false alarm")


# ---------------------------------------------------------------- 7


def test_criterion_7_behavior_preservation(verdict):
    problems = []
    divergences = 0
    compared = 0
    for path in sorted(CORPUS.glob("*.mcl")):
        prog = load(path.read_text(), path.name)
        twin = instrument(prog).program
        for m in prog.methods():
            if not obligations(m):
                continue
            plan = harness_plan(prog, m.qname, 4)
            if plan.skip_reason:
                continue
            for point in plan.points():
                try:
                    original = run_point(prog, m.qname, point)
                except RequiresViolation:
                    continue
                mirrored = run_point(twin, m.qname, point)
                compared += 1
                if original.trace != mirrored.trace:
                    divergences += 1
                    if divergences == 1:
                        problems.append(
                            f"{path.name} {m.qname} {point}: traces differ")
    if compared < 200:
        problems.append(f"only {compared} grid points compared")
    if divergences:
        problems.append(f"{divergences} trace divergences")
    verdict(7, not problems,
            problems[0] if problems else
            f"{compared} runs compared, 0 trace divergences")


# ---------------------------------------------------------------- 8


def test_criterion_8_symbolic_sums(verdict):
    rng = random.Random(20260817)
    P, S = sx.Poly, sx.SymExpr
    i = P.var("i")
    cases = 0
    problems = []
    while cases < 1000 and not problems:
        coeffs = [rng.randint(-5, 5) for _ in range(4)]
        lo = rng.randint(-3, 12)
        hi = rng.randint(-3, 12)
        poly = (P.const(coeffs[0]) + i.scale(coeffs[1])
                + (i * i).scale(coeffs[2]) + (i * i * i).scale(coeffs[3]))
        closed = sx.sum_over(S.of(poly), "i", P.const(lo), P.const(hi))
        brute = sum(poly.eval({"i": k}) for k in range(lo, hi + 1))
        if closed.flags:
            problems.append(f"flags {set(closed.flags)} on {coeffs} {lo}..{hi}")
        elif closed.eval({}) != brute:
            problems.append(f"coeffs {coeffs}, {lo}..{hi}:"
                            f" closed {closed.eval({})}, brute {brute}")
        cases += 1
    verdict(8, not problems,
            problems[0] if problems else
            f"{cases} random degree-3 summations match exactly")
