"""Shared test oracles and small builders.

The brute-force routines here are deliberately naive: they define what the
symbolic operations are supposed to mean, so the closed forms are always
judged against direct enumeration.
"""

from __future__ import annotations

import itertools
import random
from contextlib import contextmanager
from fractions import Fraction
from functools import partial

from mclcheck import callgraph, escape, symexpr
from mclcheck.escape import (
    ANNOTATED_CAPTURED,
    ESCAPES_UNANNOTATED,
    OK,
    SUPPRESSED,
    TAG_MISMATCH,
    EscapeSummary,
    LifetimeVerdict,
    PointsToGraph,
    PTGNode,
    inside_node,
    param_node,
)
from mclcheck.frontend import OBJECT_KEY
from mclcheck.frontend.syntax import NewStmt, callee_of, iter_stmts
from mclcheck.oracle import Ref
from mclcheck.symexpr import Poly, SymExpr, _normal


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


def load_chain(k):
    """w(j) reads one field further down its argument than w(j-1), so the
    summaries hold load nodes up to LOAD_DEPTH_CAP and fold back past it,
    and stores a fresh Box into that argument, so that a later load may
    find what an earlier one stored.  `top` passes a Box and a null to the
    last; `put`'s summary holds no load, and `drop` passes it a null."""
    methods = ["    Box w0(Box a) {\n        Box b = a.next;\n        return b;\n    }\n"]
    for j in range(1, k):
        f = ("next", "link")[j % 2]
        methods.append(f"    Box w{j}(Box a) {{\n        Box b = this.w{j - 1}(a);\n"
                       f"        Box c = b.{f};\n        Box d = new Box();\n"
                       f"        d.{f} = c;\n        a.{f} = d;\n        return c;\n    }}\n")
    methods.append(f"    Box top() {{\n        Box x = new Box();\n        Box y = null;\n"
                   f"        Box r = this.w{k - 1}(x);\n        Box s = this.w{k - 1}(y);\n"
                   f"        x.next = r;\n        return s;\n    }}\n")
    methods.append("    void put(Box a) {\n        Box n = new Box();\n        a.next = n;\n"
                   "    }\n")
    methods.append("    void drop() {\n        Box z = null;\n        this.put(z);\n    }\n")
    return ("class Box {\n    Box next;\n    Box link;\n}\n\nclass Walk {\n"
            + "\n".join(methods) + "}\n")


def call_nest(rng, depth, indices):
    """A loop whose body may allocate (a temporary, or an object kept under
    `this`), holds `depth - 1` further loops, and calls g at the innermost
    level and maybe above it, sometimes pulling g's escapes."""
    index = f"j{depth}"
    headers = ["1 .. n", "1 .. m", "1 .. 2", "0 .. 1"]
    if indices:
        headers += [f"1 .. {indices[-1]}", f"{indices[-1]} .. n"]
    body = []
    if rng.random() < 0.5:
        body.append(f"A t{depth} = new A();")
    if rng.random() < 0.3:
        body += ["dest_esc(this);", f"A s{depth} = new A();", f"s{depth}.next = this.head;",
                 f"this.head = s{depth};"]
    if depth > 1:
        body.append(call_nest(rng, depth - 1, indices + [index]))
    if depth == 1 or rng.random() < 0.3:
        if rng.random() < 0.5:
            body.append("add_esc(this, this);")
        body.append(f"this.g({rng.choice(['n', 'm', '1', 'n + 1', *indices, index])});")
    return f"for ({index} = {rng.choice(headers)}) {{ {' '.join(body)} }}"


def call_nest_program(rng) -> str:
    """g needs k temporaries, and may keep one more from `this`; f calls it
    in a loop nest of depth 1 to 3 and declares `memreq<A>(%s)`."""
    keep = rng.random() < 0.5
    g = ("void g(int k) { requires(k >= 0); "
         + ("memreq<A>(k + 1); esc<A>(this, 1); dest_esc(this); A x = new A();"
            " x.next = this.head; this.head = x; " if keep else "memreq<A>(k); ")
         + "for (i = 1 .. k) { A a = new A(); } }")
    return ("class A { A next; } class P { A head; " + g
            + " void f(int n, int m) { requires(n >= 0 && m >= 0); memreq<A>(%s); "
            + call_nest(rng, rng.randint(1, 3), []) + " } }")


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


# ------------------------------------------------ reference escape analysis

# The escape analysis as it was before summaries were split: every inline
# replays each edge of the callee's summary in a sorted order and maps
# every node, and each reach is searched where it is asked for, as a
# closure over the edge set.  Tests hold `escape.analyze` to the same
# graphs, summaries and verdicts.


def closure(g, start):
    """`start` and everything an edge of g leads to from it."""
    seen = set(start)
    while True:
        fresh = {b for (a, _, b) in g.E if a in seen} - seen
        if not fresh:
            return seen
        seen |= fresh


def _sort_key(e):
    return e[0].sort_key(), e[1], e[2].sort_key()


class ReferenceBuilder(escape._Builder):
    def inline(self, summary, argmap):
        mu = partial(self.mapped, argmap, {})
        for (a, f, b) in sorted(summary.ptg.E, key=_sort_key):
            for ma in mu(a):
                for mb in mu(b):
                    self.g.add_edge(ma, f, mb)
        returned = set()
        for n in sorted(summary.ptg.returned, key=PTGNode.sort_key):
            returned |= mu(n)
        outs = {p: set().union(*(mu(n) for n in ns)) if ns else set()
                for p, ns in summary.out_sets.items()}
        tagged = {t: set().union(*(mu(n) for n in ns)) if ns else set()
                  for t, ns in summary.tagged.items()}
        return returned, outs, tagged


def reference_summary(method, g, class_map):
    roots = escape._root_sets(g, method, class_map)
    keep = closure(g, set().union(*roots.values(), *g.tagged.values()))
    pruned = PointsToGraph()
    pruned.N = keep
    pruned.E = {e for e in g.E if e[0] in keep}
    pruned.returned = g.returned & keep
    out_sets = {p.name: set(g.var_set(p.name)) & keep for p in method.params
                if p.is_out and p.decl_type.name in class_map}
    # the last three fields are what the split inline reads: unused here
    return EscapeSummary(method.qname, pruned, out_sets,
                         {t: ns & keep for t, ns in g.tagged.items()},
                         any(n.kind == "load" for n in keep), [], [], frozenset())


def _tag_root(g, tag, bindings):
    if tag.kind == "return":
        return set(g.returned)
    if tag.kind == "this":
        return {param_node("this")}
    path = bindings[tag]
    cur = {"return": set(g.returned), "this": {param_node("this")}}.get(
        path.root, g.var_set(path.root))
    for f in path.fields:
        cur = {b for (a, h, b) in g.E if a in cur and h == f}
    return cur


def reference_lifetimes(method, g, class_map, program):
    reach = {r: closure(g, ns) for r, ns in escape._root_sets(g, method, class_map).items()}
    escaped = set().union(*reach.values())
    sites = {s.site: s.class_ref.key() for m in program.methods() for s in iter_stmts(m.body)
             if isinstance(s, NewStmt)}

    def roots_reaching(n):
        return ", ".join(sorted(r for r, ns in reach.items() if n in ns))

    def reach_of(tag):
        return closure(g, _tag_root(g, tag, method.contract.bindings))

    def classes(nodes):
        return tuple(sorted({sites[n.key] for n in nodes}))

    out = []
    for s in [t for t in iter_stmts(method.body) if isinstance(t, NewStmt)]:
        node, verdict = inside_node(s.site), partial(LifetimeVerdict, method.qname, s.site,
                                                     classes=(s.class_ref.key(),))
        tag = s.dest_esc
        if s.dest_local:
            out.append(verdict(SUPPRESSED))
        elif tag is None and node in escaped:
            out.append(verdict(ESCAPES_UNANNOTATED,
                               note=f"reachable from {roots_reaching(node)}"))
        elif tag is None:
            out.append(verdict(OK))
        elif node not in escaped:
            out.append(verdict(ANNOTATED_CAPTURED, tag=str(tag),
                               note="annotated as escaping but unreachable from every root"))
        elif node in reach_of(tag):
            out.append(verdict(OK, tag=str(tag)))
        else:
            out.append(verdict(TAG_MISMATCH, tag=str(tag),
                               note=f"actually reachable from {roots_reaching(node)}"))
    for s, mapped in g.call_records:
        callee = callee_of(s).qname
        for dst, src in s.add_esc:
            pulled = mapped.get(src, set())
            verdict = partial(LifetimeVerdict, method.qname, s.site, tag=str(dst))
            if not pulled:
                out.append(verdict(OK, note=f"callee has no objects under tag {src}"))
            elif pulled <= reach_of(dst):
                out.append(verdict(OK))
            else:
                out.append(verdict(TAG_MISMATCH,
                                   note=f"objects from {callee} tag {src} do not reach {dst}",
                                   classes=classes(pulled - reach_of(dst))))
        covered = {src for (_, src) in s.add_esc}
        for src, pulled in sorted(mapped.items(), key=lambda kv: str(kv[0])):
            leaking = {n for n in pulled if n in escaped}
            if src not in covered and leaking:
                out.append(LifetimeVerdict(
                    method.qname, s.site, ESCAPES_UNANNOTATED, tag=str(src),
                    note=f"callee {callee} objects ({', '.join(sorted(n.key for n in leaking))})"
                         f" stay reachable but no add_esc claims them",
                    classes=classes(leaking)))
    return out


def reference_analysis(program):
    """(summaries, graphs, lifetimes) by the reference, each keyed by method."""
    class_map = program.class_map()
    methods = {m.qname: m for m in program.methods()}
    summaries, graphs, lifetimes = {}, {}, {}
    edges = callgraph.call_edges(program)
    for comp in callgraph.sccs(program):
        cyclic = callgraph.is_recursive(comp, edges)
        while True:
            stable = True
            for q in comp:
                g = ReferenceBuilder(methods[q], summaries, class_map).run()
                new = reference_summary(methods[q], g, class_map)
                if q not in summaries or escape._facts(summaries[q]) != escape._facts(new):
                    stable = False
                summaries[q], graphs[q] = new, g
            if stable or not cyclic:
                break
        for q in comp:
            lifetimes[q] = reference_lifetimes(methods[q], graphs[q], class_map, program)
    return summaries, graphs, lifetimes


# ---------------------------------------------- reference symbolic arithmetic

# The symbolic operations as they were before an identity returned its
# operand: every sum goes through a dict and a sort, every coefficient is
# normalized, and every result is rebuilt, even one equal to an operand.
# `reference_arithmetic` swaps them into `symexpr`, so that whatever is
# built from them (`sym_max`, `sym_sum`, `sum_over`, `max_over`) is computed
# the general way too.  Tests hold `symexpr` to the same terms, alternative
# order and flags.


def _reference_from_dict(d):
    return Poly(tuple(sorted((m, _normal(c)) for m, c in d.items() if c)))


def _reference_const(value):
    return _reference_from_dict({(): value})


def _reference_mono_mul(a, b):
    acc = dict(a)
    for var, exp in b:
        acc[var] = acc.get(var, 0) + exp
    return tuple(sorted(acc.items()))


def _reference_poly_add(self, other):
    acc = dict(self.terms)
    for m, c in symexpr._as_poly(other).terms:
        acc[m] = acc.get(m, 0) + c
    return _reference_from_dict(acc)


def _reference_poly_sub(self, other):
    return self + (-symexpr._as_poly(other))


def _reference_poly_mul(self, other):
    acc = {}
    for m1, c1 in self.terms:
        for m2, c2 in symexpr._as_poly(other).terms:
            m = _reference_mono_mul(m1, m2)
            acc[m] = acc.get(m, 0) + c1 * c2
    return _reference_from_dict(acc)


def _reference_poly_substitute(self, binding):
    out = Poly()
    for m, c in self.terms:
        term = _reference_const(c)
        for var, exp in m:
            factor = binding.get(var, Poly.var(var))
            for _ in range(exp):
                term = term * factor
        out = out + term
    return out


def _reference_prune(alts):
    uniq = sorted(set(alts), key=lambda p: p.terms)
    return tuple(p for p in uniq
                 if not any(q is not p and q != p and symexpr._dominates(q, p) for q in uniq))


def _reference_with_flags(self, *extra):
    return SymExpr(self.alts, self.flags | set(extra))


def _reference_add(a, b):
    return SymExpr(_reference_prune(tuple(p + q for p in a.alts for q in b.alts)),
                   a.flags | b.flags)


def _reference_substitute(e, binding):
    return SymExpr(_reference_prune(tuple(p.substitute(binding) for p in e.alts)), e.flags)


@contextmanager
def reference_arithmetic():
    """Inside, `symexpr` computes by the reference operations above; call
    its functions through the module, as `symexpr.add`, to get them."""
    swaps = [(Poly, "from_dict", staticmethod(_reference_from_dict)),
             (Poly, "const", staticmethod(_reference_const)),
             (Poly, "__add__", _reference_poly_add), (Poly, "__sub__", _reference_poly_sub),
             (Poly, "__mul__", _reference_poly_mul), (Poly, "__rmul__", _reference_poly_mul),
             (Poly, "substitute", _reference_poly_substitute),
             (SymExpr, "with_flags", _reference_with_flags),
             (symexpr, "_prune", _reference_prune), (symexpr, "add", _reference_add),
             (symexpr, "substitute", _reference_substitute)]
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in swaps]
    for owner, name, value in swaps:
        setattr(owner, name, value)
    try:
        yield
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)
