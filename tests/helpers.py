"""Shared test oracles and small builders.

The brute-force routines here are deliberately naive: they define what the
symbolic operations are supposed to mean, so the closed forms are always
judged against direct enumeration.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from mclcheck.frontend import OBJECT_KEY
from mclcheck.oracle import Ref
from mclcheck.symexpr import Poly, SymExpr


def brute_sum(p: Poly, var: str, lo: int, hi: int, env: dict[str, int] | None = None) -> Fraction:
    env = dict(env or {})
    total = Fraction(0)
    for v in range(lo, hi + 1):
        env[var] = v
        total += p.eval(env)
    return total


def brute_max(e: SymExpr, var: str, lo: int, hi: int, env: dict[str, int] | None = None) -> Fraction:
    env = dict(env or {})
    best = None
    for v in range(lo, hi + 1):
        env[var] = v
        val = e.eval(env)
        best = val if best is None else max(best, val)
    assert best is not None
    return best


def random_poly(rng: random.Random, variables: list[str], max_degree: int = 3,
                coeff_range: tuple[int, int] = (-5, 5), max_terms: int = 5) -> Poly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        degree = rng.randint(0, max_degree)
        mono: dict[str, int] = {}
        for _ in range(degree):
            v = rng.choice(variables)
            mono[v] = mono.get(v, 0) + 1
        key = tuple(sorted(mono.items()))
        coeff = rng.randint(*coeff_range)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return Poly.from_dict(terms)


def poly_of(env_free: dict[tuple[tuple[str, int], ...], int]) -> Poly:
    return Poly.from_dict({m: Fraction(c) for m, c in env_free.items()})


# The oracle-deep benchmark's three entries: a list built in a loop, a
# churn loop whose pairs die each iteration, and a list built by recursion.
DEEP_SOURCE = """
class Node {
    Node next;
    Node link;
}

class Deep {
    Node chain(int n) {
        requires(n >= 0);
        Node head = null;
        for (i = 1 .. n) {
            Node cell = new Node();
            cell.next = head;
            head = cell;
        }
        return head;
    }

    void churn(int n) {
        requires(n >= 1);
        for (i = 1 .. n) {
            Node a = new Node();
            Node b = new Node();
            a.next = b;
        }
    }

    Node nest(int d) {
        requires(d >= 0);
        if (d > 0) {
            Node head = new Node();
            Node tail = nest(d - 1);
            head.next = tail;
            return head;
        }
        return null;
    }
}
"""


def relay_chain(k):
    """m(j) allocates a Box, calls m(j-1) and hangs the rest off a field
    that alternates between two, so the graphs hold several fields."""
    methods = []
    for j in range(k):
        link = "" if j == 0 else (f"        add_esc(return, return);\n"
                                  f"        Box rest = m{j - 1}();\n"
                                  f"        b.{('next', 'link')[j % 2]} = rest;\n")
        methods.append(f"    Box m{j}() {{\n        memreq<Box>({j + 1});\n"
                       f"        esc<Box>(return, {j + 1});\n\n"
                       f"        dest_esc(return);\n        Box b = new Box();\n"
                       f"{link}        return b;\n    }}\n")
    return ("class Box {\n    Box next;\n    Box link;\n}\n\nclass Relay {\n"
            + "\n".join(reversed(methods)) + "}\n")


def reach(interp, roots):
    """The oids reachable from some values, marked from scratch the way a
    tracing collector would."""
    seen = set()
    work = [v.oid for v in roots if isinstance(v, Ref)]
    while work:
        oid = work.pop()
        if oid not in seen:
            seen.add(oid)
            work += [v.oid for v in interp.heap[oid].fields.values()
                     if isinstance(v, Ref)]
    return seen


def forward_mark(interp):
    """The oids reachable from the interpreter's frames."""
    return reach(interp, interp._roots())


def exit_measurement(interp, act, ret):
    """What an activation's exit measures, by a full mark from each escape
    root: the weights by class of the objects born in the activation that
    each root reaches, by tag, and the sorted classes of those that several
    roots reach."""
    m = act.method
    roots = {}
    if m.returns and ret is not None:
        roots["Return"] = ret
    if act.this is not None:
        roots["This"] = act.this
    for tag, path in m.bindings:
        val = interp._follow(act, ret, path)
        if val is not None:
            roots[tag] = val
    esc, counted = {}, []
    for tag, root in roots.items():
        mine = {oid for oid in reach(interp, [root])
                if interp.heap[oid].born > act.serial}
        counted.append(mine)
        by_cls = {}
        for oid in mine:
            obj = interp.heap[oid]
            if obj.weight:
                by_cls[obj.cls] = by_cls.get(obj.cls, 0) + obj.weight
        if by_cls:
            esc[tag] = {**by_cls, OBJECT_KEY: sum(by_cls.values())}
    doubled = {interp.heap[oid].cls for a, b in itertools.combinations(counted, 2)
               for oid in a & b}
    return esc, tuple(sorted(doubled))


# --------------------------------------------------- object-clause programs

# g names the object but escapes `return` only as A, and f pulls g's return
# into its own, declared 0 for every class
MIXED_VIEWS = ("class A { } class P {"
               " A g() { memreq<object>(1); esc<A>(return, 1); dest_esc(return); A a = new A();"
               " return a; }"
               " A f() { memreq<object>(1); esc<object>(return, 0); add_esc(return, return);"
               " A x = this.g(); return x; } }")
# g hides the A it allocates behind `object`, and f, which covers memreq
# too, holds A to zero on its own
HIDDEN_CLASS = ("class A { } class P { void g() { memreq<object>(1); A a = new A(); }"
                " void f() { memreq<A>(0); memreq<object>(1); this.g(); } }")
# f holds `object` to zero without declaring it: its own A and the B that
# g hides behind `object` both count to it, as the oracle counts them
UNDECLARED_OBJECT = ("class A { } class B { } class P {"
                     " void g() { memreq<object>(1); B b = new B(); }"
                     " void f() { memreq<A>(1); A a = new A(); this.g(); } }")
# f calls g inside a loop nest: g's k temporaries die with each call, so
# f needs m at a time however many times the nest runs g
NESTED_CALL = ("class A { } class P {"
               " void g(int k) { requires(k >= 0); memreq<A>(k); for (i = 1 .. k) { A a = new A(); } }"
               " void f(int n, int m) { requires(n >= 0 && m >= 0); memreq<A>(m);"
               " for (j = 1 .. n) { for (i = 1 .. 1) { this.g(m); } } } }")
