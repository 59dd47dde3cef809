"""The oracle's lowered code: step accounting, the frame cut and the code
cache.

The step counts below were recorded from the tree-walking interpreter that
the lowered code replaced: one step per statement once it completes (an
annotation, an `if` after its arm, a `for` after its whole loop), nothing
for a `return` or the statements it leaves, and one per element of an
array, charged before the array is built.
"""

import functools
import gc
import pathlib
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import DEEP_SOURCE
from mclcheck import oracle
from mclcheck.frontend import load, obligations
from mclcheck.instrument import instrument
from mclcheck.oracle import (StackExhausted, StepBudgetExceeded, harness_plan,
                             run, run_point, validate)

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_corpus(name):
    return load((ROOT / "corpus" / f"{name}.mcl").read_text(), f"{name}.mcl")


# Every contracted method of the corpus at the corner of its 0..3 grid.
FAMILY = {"Family.AddMember": 22, "Family.CreateFamily": 68,
          "Family.Family": 10, "Person.Person": 5}
CORPUS_STEPS = {
    "bigfamily": {"Family.AddMember": 22, "Family.CreateBigFamily": 114,
                  "Family.Family": 10, "Person.Person": 5},
    "boxedpath": {"Registry.Registry": 4, "Registry.fill": 10},
    "brothers": {"Person.CreateBrothers": 22, "Person.Person": 5},
    "callpair": {"A.m": 22, "A.m1": 7, "A.m2": 6},
    "eitherway": {"Chooser.pick": 4},
    "family": FAMILY,
    "family_object": {**FAMILY, "Family.CreateFamily": 63},
    "faulty_humpcall": {"Mill.churn": 9, "Mill.hump": 23},
    "faulty_low_bound": FAMILY,
    "faulty_missing_addesc": FAMILY,
    "faulty_missing_destesc": FAMILY,
    "faulty_narrow_space": {"Spool.wind": 10},
    "faulty_negative_bound": {"Maker.bake": 9},
    "faulty_object_low": {**FAMILY, "Family.CreateFamily": 63},
    "faulty_phantom_escape": {"Cutter.polish": 4},
    "faulty_precondition_skip": {"Feeder.go": 9, "Feeder.need": 6},
    "faulty_swapped_tags": {"Person.CreateBrothers": 22, "Person.Person": 5},
    "faulty_undeclared_class": {"Quiet.assemble": 5},
    "faulty_zero_esc": FAMILY,
    "listbuild": {"Node.build": 22},
    "raggedstore": {"Stash.grow": 16},
    "scratchslot": {"Workbench.rebuild": 5},
    "workqueue": {"Worker.absorb": 8, "Worker.drive": 55, "Worker.scan": 5},
    "zigzag": {"Link.zag": 22, "Link.zig": 22},
}

DEEP = load(DEEP_SOURCE, "deep.mcl")


def corner_runs():
    for name, steps in CORPUS_STEPS.items():
        for qname, count in steps.items():
            yield pytest.param(name, qname, count, id=f"{name}:{qname}")


def assert_exact_budget(monkeypatch, count, go):
    monkeypatch.setattr(oracle, "MAX_STEPS", count)
    go()
    monkeypatch.setattr(oracle, "MAX_STEPS", count - 1)
    with pytest.raises(StepBudgetExceeded):
        go()


def test_every_corner_run_is_pinned():
    got = {}
    for path in sorted((ROOT / "corpus").glob("*.mcl")):
        prog = load(path.read_text(), path.name)
        got[path.stem] = sorted(
            m.qname for m in prog.methods()
            if obligations(m))
    assert got == {name: sorted(steps) for name, steps in CORPUS_STEPS.items()}


@pytest.mark.parametrize("name,qname,count", corner_runs())
def test_corner_run_takes_its_pinned_steps(monkeypatch, name, qname, count):
    prog = load_corpus(name)
    plan = harness_plan(prog, qname, 3)
    point = {k.name: k.values[-1] for k in plan.knobs}
    assert_exact_budget(monkeypatch, count,
                        lambda: run_point(prog, qname, point))


def test_shapes_run_takes_its_pinned_steps(monkeypatch):
    shapes = load((ROOT / "tests" / "pinned" / "shapes.mcl").read_text(), "shapes.mcl")
    assert_exact_budget(monkeypatch, 97, lambda: run(shapes, "Shapes.all", [4]))


@pytest.mark.parametrize("entry,count", [("chain", 18), ("churn", 17), ("nest", 22)])
def test_deep_run_takes_its_pinned_steps(monkeypatch, entry, count):
    assert_exact_budget(monkeypatch, count, lambda: run(DEEP, f"Deep.{entry}", [5]))


# ------------------------------------------------------------ the frame cut


def python_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize("headroom", [None, 80])
def test_calls_nest_up_to_max_frames_whatever_the_python_stack(headroom):
    # build(n) nests n + 1 activations over the harness frame; a lowered
    # recursion limit leaves too little Python stack for even 80 of them
    # to recurse, and the cut stays where MAX_FRAMES puts it
    prog = load_corpus("listbuild")
    limit = sys.getrecursionlimit()
    if headroom is not None:
        sys.setrecursionlimit(python_depth() + headroom)
    try:
        deepest = run(prog, "Node.build", [198])
        with pytest.raises(StackExhausted, match="200 frames"):
            run(prog, "Node.build", [199])
    finally:
        sys.setrecursionlimit(limit)
    assert oracle.MAX_FRAMES == 200
    assert deepest.observation("Node.build").esc["Return"]["Node"] == 198


# ------------------------------------------------------------ the code cache


def test_an_instrumented_copy_runs_its_own_code():
    # the copy's counters and ensures exist only in its own syntax tree; had
    # it run the code lowered for the original, no ensure could fail
    prog = load_corpus("faulty_low_bound")
    plain = validate(prog, hi=2)
    copy = instrument(prog).program
    hardened = validate(copy, hi=2)
    assert plain.violations and not plain.ensure_failures
    assert hardened.ensure_failures
    lowered = oracle._TABLES[id(copy)].lowered["Family.CreateFamily"]
    assert lowered is not oracle._TABLES[id(prog)].lowered["Family.CreateFamily"]
    failed = {f.cond for _, _, f in hardened.ensure_failures
              if f.method == "Family.CreateFamily"}
    assert failed and failed <= {text for _, text in lowered.ensures}


def test_dropping_a_program_drops_its_lowered_code():
    prog = load_corpus("callpair")
    validate(prog, hi=1)
    key, alive = id(prog), weakref.ref(prog)
    assert oracle._TABLES[key].lowered
    del prog
    gc.collect()
    assert alive() is None
    assert key not in oracle._TABLES


def test_nothing_is_lowered_before_a_run():
    prog = load_corpus("callpair")
    assert id(prog) not in oracle._TABLES
    run(prog, "A.m2", [2])
    assert sorted(oracle._TABLES[id(prog)].lowered) == ["A.m2"]


BOUNDS = """class T {
}

class U {
}

class P {
    T f(int n, int m, int k) {
        requires(n >= 0 && m >= 0 && k >= 0);
        requires(2 * n - m / 3 + 1 > 0);
        requires(m + k <= 3 * n + 7);
        memreq<T>(max(n * m, max(2 * n + 1, m * m * k / 7 - 3)));
        memreq<T[]>(n * (n + 1) / 2);
        memreq<U>(n * n - 3 * m * k + 1);
        esc<T>(return, max(4, k));
        esc<T>(this, m - 2 * n);
        T t = new T();
        return t;
    }
}
"""


@functools.cache
def lowered_contracts():
    """(method, lowered method) for each method with a contract polynomial
    in the corpus and in BOUNDS, which between them compile constant,
    affine, fractional, negative and multi-alternative polynomials."""
    progs = [load(BOUNDS, "bounds.mcl")] + [
        load_corpus(p.stem) for p in sorted((ROOT / "corpus").glob("*.mcl"))]
    pairs = [(decl, oracle._table(prog).method(decl))
             for prog in progs for decl in prog.methods()]
    return [(decl, m) for decl, m in pairs if m.bounds or m.requires]


# small values, and values of 1,000 digits
VALUES = st.one_of(st.integers(0, 40), st.integers(10 ** 999, 10 ** 1000 - 1))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_compiled_polynomials_are_their_clauses_times_the_denominator(data):
    decl, m = data.draw(st.sampled_from(lowered_contracts()))
    variables = set().union(*(b.variables for b in m.bounds),
                            *(c.variables() for c in decl.contract.requires))
    env = {v: data.draw(VALUES, label=v) for v in sorted(variables)}
    for b in m.bounds:
        exact = [alt.eval(env) * b.den for alt in b.bound.alts]
        assert [p(env) for p in b.numerators] == exact, b.clause
        assert b.top(env) == max(exact)
    for c, (rel, lhs) in zip(decl.contract.requires, m.requires, strict=True):
        assert rel(lhs(env), 0) == c.holds(env)
    # a variable with no value raises KeyError, which `_push` reports as
    # the null dereference that reading the variable would be
    compiled = [(alt, p) for b in m.bounds for alt, p in zip(b.bound.alts, b.numerators)]
    compiled += [(c.lhs, lhs) for c, (_, lhs) in zip(decl.contract.requires, m.requires)]
    for poly, p in compiled:
        for v in poly.variables():
            with pytest.raises(KeyError):
                p({u: x for u, x in env.items() if u != v})


def test_the_contract_polynomials_cover_every_compiled_form():
    bounds = [b for _, m in lowered_contracts() for b in m.bounds]
    alts = [alt for b in bounds for alt in b.bound.alts]
    assert any(len(b.bound.alts) > 2 for b in bounds)
    assert any(b.den > 1 for b in bounds)
    assert any(c < 0 for alt in alts for _, c in alt.terms)
    assert {min(alt.degree(), 2) for alt in alts} == {0, 1, 2}
