"""Call edges and bottom-up components."""

import random

from mclcheck import callgraph
from mclcheck.frontend import load


def _reference_sccs(program):
    # textbook recursive Tarjan: the order the iterative version must keep
    edges = callgraph.call_edges(program)
    index, low, on_stack, stack, out = {}, {}, set(), [], []

    def strongconnect(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        for w in edges.get(v, ()):
            if w not in index:
                strongconnect(w)
                low[v] = min(low[v], low[w])
            elif w in on_stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            comp = []
            while True:
                w = stack.pop()
                on_stack.discard(w)
                comp.append(w)
                if w == v:
                    break
            out.append(sorted(comp))

    for m in program.methods():
        if m.qname not in index:
            strongconnect(m.qname)
    return out


def _random_program(rng, n):
    lines = []
    for i in range(n):
        calls = " ".join(f"m{rng.randrange(n)}();"
                         for _ in range(rng.randrange(4)))
        lines.append(f"void m{i}() {{ {calls} }}")
    return load("class C { " + " ".join(lines) + " }", "random")


def test_sccs_match_recursive_tarjan_on_random_graphs():
    rng = random.Random(7)
    for _ in range(200):
        prog = _random_program(rng, rng.randrange(1, 12))
        assert callgraph.sccs(prog) == _reference_sccs(prog)


def test_constructor_counts_as_a_call():
    prog = load("class B { B() { } } class A { void m() { B b = new B(); } }",
                "ctor")
    assert callgraph.call_edges(prog) == {"B.B": [], "A.m": ["B.B"]}
    assert callgraph.sccs(prog) == [["B.B"], ["A.m"]]


def test_duplicate_calls_give_one_edge_in_first_call_order():
    prog = load("class C { void a() { c(); b(); c(); } void b() { } "
                "void c() { } }", "dups")
    assert callgraph.call_edges(prog)["C.a"] == ["C.c", "C.b"]
